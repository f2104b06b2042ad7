#include "func/memory_image.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "common/logging.hh"
#include "isa/program.hh"
#include "snap/snap.hh"

namespace sst
{

MemoryImage::Page &
MemoryImage::PageTable::insert(Addr key, std::unique_ptr<Page> page)
{
    if ((pages_.size() + 1) * 2 > slots_.size())
        grow();
    std::size_t i = home(key);
    while (slots_[i].page)
        i = (i + 1) & mask_;
    slots_[i] = Slot{key, page.get()};
    pages_.push_back(std::move(page));
    return *pages_.back();
}

void
MemoryImage::PageTable::grow()
{
    std::vector<Slot> old(std::max<std::size_t>(16, slots_.size() * 2));
    old.swap(slots_);
    mask_ = slots_.size() - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots_.size()));
    for (const Slot &slot : old) {
        if (!slot.page)
            continue;
        std::size_t i = home(slot.key);
        while (slots_[i].page)
            i = (i + 1) & mask_;
        slots_[i] = slot;
    }
}

MemoryImage::Page &
MemoryImage::touchPage(Addr addr)
{
    if (Page *p = pages_.find(addr >> pageShift))
        return *p;
    auto page = std::make_unique<Page>();
    page->fill(0);
    return pages_.insert(addr >> pageShift, std::move(page));
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
        bool equal = true;
        a.pages_.forEach([&](Addr key, const Page &mine) {
            const Page *theirs = b.pages_.find(key);
            if (std::memcmp(mine.data(), (theirs ? *theirs : zeroPage).data(),
                            pageSize)
                != 0)
                equal = false;
        });
        return equal;
    };
    return coveredBy(*this, other) && coveredBy(other, *this);
}

Addr
MemoryImage::highWater() const
{
    Addr top = 0;
    pages_.forEach([&](Addr key, const Page &p) {
        Addr pageEnd = (key + 1) << pageShift;
        // Trim trailing zero bytes so an incidentally touched-but-blank
        // tail does not inflate the footprint.
        Addr used = pageSize;
        while (used > 0 && p[used - 1] == 0)
            --used;
        if (used != 0)
            top = std::max(top, pageEnd - (pageSize - used));
    });
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
            // value-initialisation memset: restore time on multi-MB
            // images is the per-window floor for library-served
            // sampling. Keys are strictly increasing (checked above),
            // so each is new.
            auto page = std::make_unique_for_overwrite<Page>();
            s.bytes(page->data(), pageSize);
            pages_.insert(key, std::move(page));
        }
    } else {
        static const Page zeroPage = [] {
            Page p;
            p.fill(0);
            return p;
        }();
        std::vector<std::pair<Addr, const Page *>> pages;
        pages.reserve(pages_.size());
        pages_.forEach([&](Addr key, const Page &p) {
            if (std::memcmp(p.data(), zeroPage.data(), pageSize) != 0)
                pages.emplace_back(key, &p);
        });
        std::sort(pages.begin(), pages.end());
        s.count(snap::Width::u64, pages.size(), 8 + pageSize);
        for (const auto &[key, page] : pages) {
            s.u64(key);
            s.bytes(page->data(), pageSize);
        }
    }
}

template void MemoryImage::io(snap::Writer &);
template void MemoryImage::io(snap::Reader &);

} // namespace sst
