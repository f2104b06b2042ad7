/**
 * @file
 * Sparse byte-addressable memory image backing functional execution.
 */

#ifndef SSTSIM_FUNC_MEMORY_IMAGE_HH
#define SSTSIM_FUNC_MEMORY_IMAGE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/types.hh"

namespace sst
{

class Program;

/**
 * Page-granular sparse memory. Unwritten bytes read as zero, which the
 * workload generators rely on for zero-initialised heaps.
 */
class MemoryImage
{
  public:
    static constexpr unsigned pageShift = 12;
    static constexpr Addr pageSize = Addr{1} << pageShift;

    MemoryImage() = default;
    virtual ~MemoryImage() = default;

    MemoryImage(const MemoryImage &) = delete;
    MemoryImage &operator=(const MemoryImage &) = delete;
    MemoryImage(MemoryImage &&) = default;
    MemoryImage &operator=(MemoryImage &&) = default;

    /** Read @p size (1..8) bytes, little-endian, page-crossing allowed.
     *  Virtual so the parallel CMP engine can interpose a per-core
     *  write-buffering view (OverlayImage) between a core and the
     *  shared image without the cores knowing. */
    virtual std::uint64_t read(Addr addr, unsigned size) const;

    /** Write the low @p size bytes of @p value at @p addr. */
    virtual void write(Addr addr, std::uint64_t value, unsigned size);

    virtual std::uint8_t readByte(Addr addr) const;
    virtual void writeByte(Addr addr, std::uint8_t value);

    /**
     * Indivisible read-modify-write (AMOSWAP): read @p size bytes,
     * store @p value there, return the old bytes. On a plain image a
     * whole executor step already runs between core ticks, so this is
     * just read-then-write; the parallel engine's overlay view
     * overrides it to serialize cross-core atomics through a gated
     * journal while plain loads/stores stay buffered.
     */
    virtual std::uint64_t atomicSwap(Addr addr, std::uint64_t value,
                                     unsigned size)
    {
        std::uint64_t old = read(addr, size);
        write(addr, value, size);
        return old;
    }

    /**
     * An elided critical section that stored is about to commit on the
     * 8-byte lock word at @p lock. @return false when it must abort,
     * because another core took the lock since. A plain image
     * publishes every store at once and always accepts; see
     * OverlayImage for the parallel engine's.
     */
    virtual bool commitElided(Addr /* lock */) { return true; }

    /**
     * Observe every write to this image. With one image shared by all
     * cores of a coherent CMP, the observer is how a store by the
     * ticking core becomes visible to the others at the instant it
     * happens (squashing any speculative reader). Not serialized; the
     * owner re-installs it after restore.
     */
    void setWriteObserver(std::function<void(Addr, unsigned)> obs)
    {
        writeObserver_ = std::move(obs);
    }

    /** Copy all of @p program's data segments into this image. */
    void loadSegments(const Program &program);

    /** Number of distinct touched pages (memory footprint metric). */
    std::size_t pageCount() const { return pages_.size(); }

    /** Exact content equality (zero pages compare equal to absence). */
    bool contentEquals(const MemoryImage &other) const;

    /** Drop every page (restore starts from a blank image). */
    void clear() { pages_.clear(); }

    /** One past the highest touched byte address; 0 when untouched. */
    Addr highWater() const;

    /** Snapshot pages sorted by address (all-zero pages elided), so
     *  equal contents encode to equal bytes regardless of touch order. */
    template <class Io> void io(Io &s);

  private:
    using Page = std::array<std::uint8_t, pageSize>;

    /**
     * Page number -> page: open addressing with linear probing over a
     * power-of-two slot array kept at most half full, owning its pages.
     * A lookup is one multiply and, almost always, one slot; the
     * node-based map it replaced chased a bucket and then a node.
     * Lookups never write, so concurrent readers (the parallel CMP
     * engine's cores reading the shared base image) stay race-free.
     * Pages are never removed one by one, only all at once.
     */
    class PageTable
    {
      public:
        Page *find(Addr key) const
        {
            if (pages_.empty())
                return nullptr;
            for (std::size_t i = home(key); slots_[i].page;
                 i = (i + 1) & mask_)
                if (slots_[i].key == key)
                    return slots_[i].page;
            return nullptr;
        }
        /** Add @p page under @p key, which must be absent. */
        Page &insert(Addr key, std::unique_ptr<Page> page);
        std::size_t size() const { return pages_.size(); }
        void clear()
        {
            slots_.clear();
            pages_.clear();
            mask_ = 0;
        }
        /** Call @p fn(key, page) for every page, in no set order. */
        template <class Fn> void forEach(Fn &&fn) const
        {
            for (const Slot &slot : slots_)
                if (slot.page)
                    fn(slot.key, *slot.page);
        }

      private:
        struct Slot
        {
            Addr key = 0;
            Page *page = nullptr;
        };
        std::size_t home(Addr key) const
        {
            return static_cast<std::size_t>(
                       (key * 0x9E3779B97F4A7C15ULL) >> shift_)
                   & mask_;
        }
        void grow();

        std::vector<Slot> slots_;
        std::vector<std::unique_ptr<Page>> pages_;
        std::size_t mask_ = 0;
        unsigned shift_ = 63;
    };

    const Page *findPage(Addr addr) const
    {
        return pages_.find(addr >> pageShift);
    }
    Page &touchPage(Addr addr);
    void rawWriteByte(Addr addr, std::uint8_t value);

    PageTable pages_;
    std::function<void(Addr, unsigned)> writeObserver_;
};

} // namespace sst

#endif // SSTSIM_FUNC_MEMORY_IMAGE_HH
