#include "func/memory_image.hh"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/logging.hh"
#include "isa/program.hh"
#include "snap/snap.hh"

namespace sst
{

const MemoryImage::Page *
MemoryImage::findPage(Addr addr) const
{
    auto it = pages_.find(addr >> pageShift);
    return it == pages_.end() ? nullptr : it->second.get();
}

MemoryImage::Page &
MemoryImage::touchPage(Addr addr)
{
    auto &slot = pages_[addr >> pageShift];
    if (!slot) {
        slot = std::make_unique<Page>();
        slot->fill(0);
    }
    return *slot;
}

std::uint8_t
MemoryImage::readByte(Addr addr) const
{
    const Page *p = findPage(addr);
    return p ? (*p)[addr & (pageSize - 1)] : 0;
}

void
MemoryImage::rawWriteByte(Addr addr, std::uint8_t value)
{
    touchPage(addr)[addr & (pageSize - 1)] = value;
}

void
MemoryImage::writeByte(Addr addr, std::uint8_t value)
{
    rawWriteByte(addr, value);
    if (writeObserver_)
        writeObserver_(addr, 1);
}

std::uint64_t
MemoryImage::read(Addr addr, unsigned size) const
{
    panic_if(size == 0 || size > 8, "MemoryImage::read size %u", size);
    std::uint64_t v = 0;
    // Fast path: access contained in one page.
    Addr off = addr & (pageSize - 1);
    if (off + size <= pageSize) {
        const Page *p = findPage(addr);
        if (!p)
            return 0;
        for (unsigned i = 0; i < size; ++i)
            v |= static_cast<std::uint64_t>((*p)[off + i]) << (8 * i);
        return v;
    }
    for (unsigned i = 0; i < size; ++i)
        v |= static_cast<std::uint64_t>(readByte(addr + i)) << (8 * i);
    return v;
}

void
MemoryImage::write(Addr addr, std::uint64_t value, unsigned size)
{
    panic_if(size == 0 || size > 8, "MemoryImage::write size %u", size);
    Addr off = addr & (pageSize - 1);
    if (off + size <= pageSize) {
        Page &p = touchPage(addr);
        for (unsigned i = 0; i < size; ++i)
            p[off + i] = static_cast<std::uint8_t>(value >> (8 * i));
    } else {
        for (unsigned i = 0; i < size; ++i)
            rawWriteByte(addr + i,
                         static_cast<std::uint8_t>(value >> (8 * i)));
    }
    if (writeObserver_)
        writeObserver_(addr, size);
}

void
MemoryImage::loadSegments(const Program &program)
{
    // Page-sized memcpy chunks: one page lookup per 4 KiB instead of
    // per byte (this runs once per Machine and used to dominate it).
    for (const auto &seg : program.segments()) {
        Addr addr = seg.base;
        std::size_t i = 0;
        while (i < seg.bytes.size()) {
            Page &p = touchPage(addr);
            Addr off = addr & (pageSize - 1);
            std::size_t n = std::min<std::size_t>(
                pageSize - off, seg.bytes.size() - i);
            std::memcpy(p.data() + off, seg.bytes.data() + i, n);
            addr += n;
            i += n;
        }
    }
}

bool
MemoryImage::contentEquals(const MemoryImage &other) const
{
    static const Page zeroPage = [] {
        Page p;
        p.fill(0);
        return p;
    }();

    auto coveredBy = [](const MemoryImage &a, const MemoryImage &b) {
        for (const auto &kv : a.pages_) {
            auto it = b.pages_.find(kv.first);
            const Page &mine = *kv.second;
            const Page &theirs =
                it == b.pages_.end() ? zeroPage : *it->second;
            if (std::memcmp(mine.data(), theirs.data(), pageSize) != 0)
                return false;
        }
        return true;
    };
    return coveredBy(*this, other) && coveredBy(other, *this);
}

Addr
MemoryImage::highWater() const
{
    Addr top = 0;
    for (const auto &kv : pages_) {
        Addr pageEnd = (kv.first + 1) << pageShift;
        const Page &p = *kv.second;
        // Trim trailing zero bytes so an incidentally touched-but-blank
        // tail does not inflate the footprint.
        Addr used = pageSize;
        while (used > 0 && p[used - 1] == 0)
            --used;
        if (used == 0)
            continue;
        top = std::max(top, pageEnd - (pageSize - used));
    }
    return top;
}

template <class Io>
void
MemoryImage::io(Io &s)
{
    s.tag("memimage");
    if constexpr (Io::loading) {
        pages_.clear();
        std::size_t n = s.count(snap::Width::u64, 0, 8 + pageSize);
        Addr prev = 0;
        for (std::size_t i = 0; i < n; ++i) {
            Addr key = 0;
            s.u64(key);
            fatal_if(i > 0 && key <= prev,
                     "snapshot: memory pages out of order (corrupt "
                     "snapshot)");
            prev = key;
            // Every byte is overwritten by the copy below, so skip the
            // value-initialisation memset; keys arrive sorted (checked
            // above), so the end hint makes each insert O(1). Together
            // these roughly halve restore time on multi-MB images,
            // which is the per-window floor for library-served sampling.
            auto page = std::make_unique_for_overwrite<Page>();
            s.bytes(page->data(), pageSize);
            pages_.emplace_hint(pages_.end(), key, std::move(page));
        }
    } else {
        static const Page zeroPage = [] {
            Page p;
            p.fill(0);
            return p;
        }();
        std::vector<Addr> keys;
        keys.reserve(pages_.size());
        for (const auto &kv : pages_)
            if (std::memcmp(kv.second->data(), zeroPage.data(), pageSize)
                != 0)
                keys.push_back(kv.first);
        std::sort(keys.begin(), keys.end());
        s.count(snap::Width::u64, keys.size(), 8 + pageSize);
        for (Addr key : keys) {
            s.u64(key);
            s.bytes(pages_.at(key)->data(), pageSize);
        }
    }
}

template void MemoryImage::io(snap::Writer &);
template void MemoryImage::io(snap::Reader &);

} // namespace sst
