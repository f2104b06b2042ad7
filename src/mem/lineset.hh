/**
 * @file
 * Exact set of cache-line addresses in one flat array.
 *
 * CorePort keeps three of these side tables (prefetched, coherence-
 * stolen and store-owned lines) and probes the prefetched set on every
 * L1D hit, almost always for a line that is not in it. A node-based
 * hash set pays a pointer chase and an allocation per line there; this
 * is open addressing with linear probing over a power-of-two array, so
 * a miss is one multiply and a scan of a few adjacent slots. Erase uses
 * backward-shift deletion (no tombstones), which keeps every probe run
 * as short as the live entries alone make it, however long the set
 * churns.
 */

#ifndef SSTSIM_MEM_LINESET_HH
#define SSTSIM_MEM_LINESET_HH

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace sst
{

/** Open-addressing set of line addresses (any Addr but invalidAddr,
 *  which marks an empty slot). */
class LineSet
{
  public:
    /** @return true when @p line was not already present. */
    bool insert(Addr line)
    {
        panic_if(line == invalidAddr, "LineSet cannot hold invalidAddr");
        if ((size_ + 1) * 4 > slots_.size() * 3)
            rehash(std::max<std::size_t>(16, slots_.size() * 2));
        std::size_t i = home(line);
        for (; slots_[i] != invalidAddr; i = (i + 1) & mask_)
            if (slots_[i] == line)
                return false;
        slots_[i] = line;
        ++size_;
        return true;
    }

    /** @return true when @p line was present (and is now gone). */
    bool erase(Addr line)
    {
        std::size_t i = find(line);
        if (i == npos)
            return false;
        // Backward shift: pull each later entry of the probe run into
        // the hole unless the hole lies before its home slot.
        for (std::size_t j = (i + 1) & mask_; slots_[j] != invalidAddr;
             j = (j + 1) & mask_) {
            if (((j - home(slots_[j])) & mask_) >= ((j - i) & mask_)) {
                slots_[i] = slots_[j];
                i = j;
            }
        }
        slots_[i] = invalidAddr;
        --size_;
        return true;
    }

    bool contains(Addr line) const { return find(line) != npos; }
    std::size_t size() const { return size_; }

    /** Drop every line; the array keeps its capacity. */
    void clear()
    {
        std::fill(slots_.begin(), slots_.end(), invalidAddr);
        size_ = 0;
    }

    /** Size the array so @p n lines fit without growing. */
    void reserve(std::size_t n)
    {
        std::size_t cap = 16;
        while (n * 4 > cap * 3)
            cap *= 2;
        if (cap > slots_.size())
            rehash(cap);
    }

    /** Every line in ascending order. */
    std::vector<Addr> sorted() const
    {
        std::vector<Addr> lines;
        lines.reserve(size_);
        for (Addr a : slots_)
            if (a != invalidAddr)
                lines.push_back(a);
        std::sort(lines.begin(), lines.end());
        return lines;
    }

  private:
    static constexpr std::size_t npos = ~std::size_t{0};

    /** Fibonacci hash: the product's top bits, so line-aligned keys
     *  (low bits all zero) still spread over the whole array. */
    std::size_t home(Addr line) const
    {
        return static_cast<std::size_t>((line * 0x9E3779B97F4A7C15ULL)
                                        >> shift_);
    }

    std::size_t find(Addr line) const
    {
        if (size_ == 0)
            return npos;
        for (std::size_t i = home(line); slots_[i] != invalidAddr;
             i = (i + 1) & mask_)
            if (slots_[i] == line)
                return i;
        return npos;
    }

    void rehash(std::size_t cap)
    {
        std::vector<Addr> old(cap, invalidAddr);
        old.swap(slots_);
        mask_ = cap - 1;
        shift_ = 64;
        for (std::size_t c = cap; c > 1; c >>= 1)
            --shift_;
        for (Addr a : old) {
            if (a == invalidAddr)
                continue;
            std::size_t i = home(a);
            while (slots_[i] != invalidAddr)
                i = (i + 1) & mask_;
            slots_[i] = a;
        }
    }

    std::vector<Addr> slots_;
    std::size_t size_ = 0;
    std::size_t mask_ = 0;
    unsigned shift_ = 64;
};

} // namespace sst

#endif // SSTSIM_MEM_LINESET_HH
