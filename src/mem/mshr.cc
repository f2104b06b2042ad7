#include "mem/mshr.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "snap/snap.hh"

namespace sst
{

MshrFile::MshrFile(const std::string &name, unsigned entries,
                   StatGroup &parentStats)
    : capacity_(entries),
      stats_(name),
      allocations_(stats_.addScalar("allocations", "primary misses")),
      merges_(stats_.addScalar("merges", "secondary misses merged")),
      rejections_(stats_.addScalar("rejections",
                                   "requests rejected when full")),
      mlp_(stats_.addDist("demand_mlp",
                          "outstanding demand misses at each new miss",
                          64, 32))
{
    fatal_if(entries == 0, "MSHR file needs at least one entry");
    // At most half full: probe chains stay short and always end.
    std::size_t slots = std::bit_ceil(std::size_t{entries} * 2);
    index_.resize(slots);
    indexShift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
    entries_.reserve(entries);
    parentStats.addChild(stats_);
}

void
MshrFile::indexInsert(Addr line, Cycle completion)
{
    Slot *slot = findSlot(line);
    if (slot->count++ == 0) {
        slot->line = line;
        slot->completion = completion;
    }
}

void
MshrFile::indexErase(Slot *slot)
{
    const std::size_t mask = index_.size() - 1;
    std::size_t hole = static_cast<std::size_t>(slot - index_.data());
    std::size_t i = hole;
    for (;;) {
        i = (i + 1) & mask;
        if (!index_[i].count)
            break;
        std::size_t home =
            (index_[i].line * 0x9e3779b97f4a7c15ull) >> indexShift_;
        // Move i into the hole unless its home lies cyclically in
        // (hole, i]: then the hole is not on its probe path.
        if (((i - home) & mask) >= ((i - hole) & mask)) {
            index_[hole] = index_[i];
            hole = i;
        }
    }
    index_[hole] = Slot{};
}

void
MshrFile::rebuildDerived()
{
    horizon_ = invalidCycle;
    demand_ = 0;
    std::fill(index_.begin(), index_.end(), Slot{});
    for (const auto &e : entries_) {
        horizon_ = std::min(horizon_, e.completion);
        demand_ += e.demand;
        if (e.lineAddr != invalidAddr)
            indexInsert(e.lineAddr, e.completion);
    }
}

void
MshrFile::expireDue(Cycle now)
{
    // One compacting pass (entries keep their order: snapshots and the
    // oldest-entry-wins lookups depend on it).
    bool duplicateGone = false;
    horizon_ = invalidCycle;
    auto out = entries_.begin();
    for (const Entry &e : entries_) {
        if (e.completion > now) {
            horizon_ = std::min(horizon_, e.completion);
            *out++ = e;
            continue;
        }
        demand_ -= e.demand;
        if (e.lineAddr == invalidAddr)
            continue;
        Slot *slot = findSlot(e.lineAddr);
        if (slot->count == 1)
            indexErase(slot);
        else
            duplicateGone = true; // another entry's completion now leads
    }
    entries_.erase(out, entries_.end());
    if (duplicateGone)
        rebuildDerived();
}

Cycle
MshrFile::scanCompletion(Addr lineAddr) const
{
    for (const auto &e : entries_)
        if (e.lineAddr == lineAddr)
            return e.completion;
    return invalidCycle;
}

void
MshrFile::allocate(Addr lineAddr, Cycle completion, bool isDemand,
                   Cycle now)
{
    panic_if(entries_.size() >= capacity_, "MSHR allocate when full");
    if (isDemand)
        mlp_.sample(outstandingDemand(now) + 1);
    entries_.push_back(Entry{lineAddr, completion, isDemand});
    horizon_ = std::min(horizon_, completion);
    demand_ += isDemand;
    if (lineAddr != invalidAddr)
        indexInsert(lineAddr, completion);
    ++allocations_;
}

unsigned
MshrFile::scanDemand(Cycle now) const
{
    unsigned n = 0;
    for (const auto &e : entries_)
        if (e.demand && e.completion > now)
            ++n;
    return n;
}

void
MshrFile::reset()
{
    entries_.clear();
    rebuildDerived();
}

void
MshrFile::invalidate(Addr lineAddr)
{
    if (lineAddr == invalidAddr)
        return; // poisoning the poisoned entries changes nothing
    Slot *slot = findSlot(lineAddr);
    if (!slot->count)
        return;
    indexErase(slot);
    for (auto &e : entries_)
        if (e.lineAddr == lineAddr)
            e.lineAddr = invalidAddr;
}


template <class Io>
void
MshrFile::io(Io &s)
{
    s.tag("mshr");
    snap::seq(
        s, snap::Width::u32, entries_, 17,
        [&](Entry &e) {
            s.u64(e.lineAddr);
            s.u64(e.completion);
            s.b(e.demand);
        },
        capacity_);
    if constexpr (Io::loading)
        rebuildDerived();
}

template void MshrFile::io(snap::Writer &);
template void MshrFile::io(snap::Reader &);

} // namespace sst
