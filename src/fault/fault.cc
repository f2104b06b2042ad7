#include "fault/fault.hh"

#include "snap/snap.hh"

#include <algorithm>

namespace sst
{

FaultInjector::FaultInjector(const FaultParams &params,
                             StatGroup &parentStats)
    : params_(params),
      rng_(params.seed),
      stats_("fault"),
      injected_(stats_.addScalar("injected", "faults injected, all kinds")),
      fillsDropped_(stats_.addScalar("fills_dropped",
                                     "demand fills lost and re-issued "
                                     "after the drop timeout")),
      fillsDelayed_(stats_.addScalar("fills_delayed",
                                     "demand fills delayed by "
                                     "delay_cycles")),
      mshrRejects_(stats_.addScalar("mshr_rejects",
                                    "MSHR allocations rejected by "
                                    "injected pressure")),
      tlbSpikes_(stats_.addScalar("tlb_spikes",
                                  "translations forced into a full "
                                  "page walk")),
      forcedAborts_(stats_.addScalar("forced_aborts",
                                     "speculation regions aborted by "
                                     "injection"))
{
    parentStats.addChild(stats_);
}

Cycle
FaultInjector::drawFill(Cycle now, Cycle ready)
{
    // Disarmed fault classes draw nothing, so an all-off injector
    // consumes no randomness and zero-rate classes are free.
    if (params_.dropFillRate > 0 && rng_.chance(params_.dropFillRate)) {
        ++injected_;
        ++fillsDropped_;
        return std::max(ready, now + params_.dropTimeout);
    }
    if (params_.delayFillRate > 0 && rng_.chance(params_.delayFillRate)) {
        ++injected_;
        ++fillsDelayed_;
        return ready + params_.delayCycles;
    }
    return ready;
}

bool
FaultInjector::drawMshrPressure()
{
    if (!rng_.chance(params_.mshrPressureRate))
        return false;
    ++injected_;
    ++mshrRejects_;
    return true;
}

Cycle
FaultInjector::drawTlbPressure(unsigned walkLatency)
{
    if (!rng_.chance(params_.tlbPressureRate))
        return 0;
    ++injected_;
    ++tlbSpikes_;
    return walkLatency;
}

bool
FaultInjector::drawForceAbort()
{
    if (!rng_.chance(params_.forceAbortRate))
        return false;
    ++injected_;
    ++forcedAborts_;
    return true;
}

template <class Io>
void
FaultInjector::io(Io &s)
{
    s.tag("fault");
    rng_.io(s);
}

template void FaultInjector::io(snap::Writer &);
template void FaultInjector::io(snap::Reader &);

} // namespace sst
