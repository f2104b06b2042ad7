#include "func/overlay.hh"

#include "common/logging.hh"

namespace sst
{

OverlayImage::VPage *
OverlayImage::findVPage(Addr addr) const
{
    const Addr key = addr >> pageShift;
    if (key == cachedKey_)
        return cachedPage_;
    auto it = vpages_.find(key);
    if (it == vpages_.end())
        return nullptr;
    cachedKey_ = key;
    cachedPage_ = it->second.get();
    return cachedPage_;
}

OverlayImage::VPage &
OverlayImage::touchVPage(Addr addr)
{
    VPage *p = findVPage(addr);
    if (!p) {
        const Addr key = addr >> pageShift;
        auto &slot = vpages_[key];
        slot = std::make_unique<VPage>();
        cachedKey_ = key;
        cachedPage_ = slot.get();
        p = cachedPage_;
    }
    if (p->epoch != epoch_) {
        // Recycled from an earlier quantum: only the present bitmap
        // needs resetting, stale data bytes are unreachable behind it.
        p->present.fill(0);
        p->epoch = epoch_;
    }
    return *p;
}

void
OverlayImage::bufferByte(Addr addr, std::uint8_t value)
{
    VPage &p = touchVPage(addr);
    const Addr off = addr & (pageSize - 1);
    p.present[off >> 6] |= std::uint64_t{1} << (off & 63);
    p.data[off] = value;
}

std::uint8_t
OverlayImage::viewByte(Addr addr) const
{
    const VPage *p = findVPage(addr);
    if (p && p->epoch == epoch_) {
        const Addr off = addr & (pageSize - 1);
        if ((p->present[off >> 6] >> (off & 63)) & 1)
            return p->data[off];
    }
    return base_.readByte(addr);
}

std::uint8_t
OverlayImage::readByte(Addr addr) const
{
    return viewByte(addr);
}

std::uint64_t
OverlayImage::read(Addr addr, unsigned size) const
{
    panic_if(size == 0 || size > 8, "OverlayImage::read size %u", size);
    // Fast path: nothing buffered on this page — serve from the base.
    const VPage *p = findVPage(addr);
    const Addr off = addr & (pageSize - 1);
    if ((!p || p->epoch != epoch_) && off + size <= pageSize)
        return base_.read(addr, size);
    std::uint64_t v = 0;
    for (unsigned i = 0; i < size; ++i)
        v |= static_cast<std::uint64_t>(viewByte(addr + i)) << (8 * i);
    return v;
}

void
OverlayImage::writeByte(Addr addr, std::uint8_t value)
{
    bufferByte(addr, value);
    log_.push_back(WriteRec{now_, addr, value, 1});
}

void
OverlayImage::write(Addr addr, std::uint64_t value, unsigned size)
{
    panic_if(size == 0 || size > 8, "OverlayImage::write size %u", size);
    for (unsigned i = 0; i < size; ++i)
        bufferByte(addr + i, static_cast<std::uint8_t>(value >> (8 * i)));
    log_.push_back(
        WriteRec{now_, addr, value, static_cast<std::uint8_t>(size)});
}

bool
OverlayImage::elidedByOther(Addr addr) const
{
    auto held = shared_.elided.find(addr);
    return held != shared_.elided.end() && held->second != coreId_;
}

std::uint64_t
OverlayImage::gatedRead(Addr addr, unsigned size) const
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < size; ++i) {
        // Byte precedence mirrors the quantum's serialization: our own
        // plain stores since our last atomic sink to just before this
        // op (so they win over the journal even if a remote atomic is
        // stamped later); otherwise the journal holds the atomic
        // chain's tail; otherwise nothing atomic touched the byte and
        // the buffered view (overlay, then frozen base) is current.
        const LastWrite lw = lastWriteTo(addr + i);
        std::uint8_t b;
        auto it = shared_.journal.find(addr + i);
        if (lw.found && !lw.atomic)
            b = viewByte(addr + i);
        else if (it != shared_.journal.end())
            b = it->second;
        else
            b = viewByte(addr + i);
        v |= static_cast<std::uint64_t>(b) << (8 * i);
    }
    return v;
}

std::uint64_t
OverlayImage::atomicSwap(Addr addr, std::uint64_t value, unsigned size)
{
    panic_if(size == 0 || size > 8, "OverlayImage::atomicSwap size %u",
             size);
    // Serialize against every other core's atomics: inside the gate we
    // are the unique (cycle, coreId) minimum, so the journal read-
    // modify-write below is exclusive *and* happens in the same global
    // order at any worker count.
    if (shared_.gate)
        shared_.gate->enter(coreId_, now_);
    // A word an elided commit holds until the barrier reads as held.
    // The swap stores nothing: the holder never writes the word, so a
    // stored token would outlive the hold.
    if (elidedByOther(addr))
        return ~std::uint64_t{0} >> (64 - 8 * size);
    const std::uint64_t old = gatedRead(addr, size);
    for (unsigned i = 0; i < size; ++i)
        shared_.journal[addr + i] =
            static_cast<std::uint8_t>(value >> (8 * i));
    // Also buffer + log locally so later own reads see the swap and
    // the barrier drain lands it in the base image.
    for (unsigned i = 0; i < size; ++i)
        bufferByte(addr + i, static_cast<std::uint8_t>(value >> (8 * i)));
    log_.push_back(WriteRec{now_, addr, value,
                            static_cast<std::uint8_t>(size), true});
    return old;
}

bool
OverlayImage::commitElided(Addr lock)
{
    if (shared_.gate)
        shared_.gate->enter(coreId_, now_);
    // The section read the word free; an atomic or elided commit of
    // another core since means another core entered.
    if (elidedByOther(lock) || gatedRead(lock, 8) != 0)
        return false;
    shared_.elided[lock] = coreId_;
    return true;
}

} // namespace sst
