#include "mem/tlb.hh"

#include "common/logging.hh"
#include "snap/snap.hh"

namespace sst
{

Tlb::Tlb(const TlbParams &params, const std::string &name,
         StatGroup &parentStats)
    : params_(params),
      stats_(name),
      hits_(stats_.addScalar("hits", "translation hits")),
      misses_(stats_.addScalar("misses", "page walks"))
{
    stats_.addFormula("miss_rate", "misses / accesses", [this] {
        auto total = hits_.value() + misses_.value();
        return total ? static_cast<double>(misses_.value())
                           / static_cast<double>(total)
                     : 0.0;
    });
    parentStats.addChild(stats_);
    entries_.reserve(params_.entries);
}

Tlb::LookupResult
Tlb::access(Addr addr, Cycle now)
{
    LookupResult res;
    if (!enabled())
        return res;

    Addr page = pageOf(addr);
    for (auto &e : entries_) {
        if (e.page != page)
            continue;
        e.lastUse = ++useCounter_;
        if (e.walkReady > now) {
            // Walk still in flight: report as a miss-in-progress.
            res.hit = false;
            res.readyCycle = e.walkReady;
            return res;
        }
        ++hits_;
        res.hit = true;
        res.readyCycle = now;
        return res;
    }

    // Miss: start a walk, install the entry with its completion time,
    // evicting the least-recently-touched translation when full.
    ++misses_;
    res.hit = false;
    res.readyCycle = now + params_.walkLatency;
    Entry fresh{page, ++useCounter_, res.readyCycle};
    if (entries_.size() < params_.entries) {
        entries_.push_back(fresh);
    } else {
        Entry *victim = &entries_.front();
        for (auto &e : entries_)
            if (e.lastUse < victim->lastUse)
                victim = &e;
        *victim = fresh;
    }
    return res;
}

void
Tlb::flush()
{
    entries_.clear();
}

Cycle
Tlb::earliestWalkCompletion(Cycle now) const
{
    Cycle best = invalidCycle;
    for (const auto &e : entries_)
        if (e.walkReady > now && e.walkReady < best)
            best = e.walkReady;
    return best;
}


template <class Io>
void
Tlb::io(Io &s)
{
    s.tag("tlb");
    s.expect(static_cast<std::uint32_t>(entries_.size()), "TLB entries");
    for (Entry &e : entries_) {
        s.u64(e.page);
        s.u64(e.lastUse);
        s.u64(e.walkReady);
    }
    s.u64(useCounter_);
}

template void Tlb::io(snap::Writer &);
template void Tlb::io(snap::Reader &);

} // namespace sst
