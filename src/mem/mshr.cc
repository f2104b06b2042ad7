#include "mem/mshr.hh"

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
    parentStats.addChild(stats_);
}

void
MshrFile::expireDue(Cycle now)
{
    std::erase_if(entries_,
                  [now](const Entry &e) { return e.completion <= now; });
    resetHorizon();
}

void
MshrFile::resetHorizon()
{
    horizon_ = invalidCycle;
    for (const auto &e : entries_)
        horizon_ = std::min(horizon_, e.completion);
}

Cycle
MshrFile::pendingCompletion(Addr lineAddr) const
{
    for (const auto &e : entries_)
        if (e.lineAddr == lineAddr)
            return e.completion;
    return invalidCycle;
}

bool
MshrFile::full(Cycle now)
{
    expire(now);
    return entries_.size() >= capacity_;
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
    ++allocations_;
}

unsigned
MshrFile::outstandingDemand(Cycle now) const
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
    horizon_ = invalidCycle;
}

void
MshrFile::invalidate(Addr lineAddr)
{
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
        resetHorizon();
}

template void MshrFile::io(snap::Writer &);
template void MshrFile::io(snap::Reader &);

} // namespace sst
