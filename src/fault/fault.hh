/**
 * @file
 * Deterministic fault injection for chaos testing the simulator.
 *
 * ROCK's architecture is built around surviving long-latency events by
 * checkpointing and replaying; this module manufactures adversarial
 * versions of those events on demand so the recovery machinery can be
 * exercised and measured. All decisions flow from one seeded Rng, so a
 * given (config, program, seed) triple injects exactly the same fault
 * sequence on every run — chaos, but reproducible chaos.
 *
 * Faults perturb *timing and resource availability only*: a dropped
 * fill arrives late, a pressured MSHR file rejects an allocation, a
 * forced abort rolls speculation back to its checkpoint. Architectural
 * results must be unchanged — every fault-injection test ends with a
 * differential check against the golden functional executor. Faults may
 * cost cycles, never correctness.
 *
 * Hook points:
 *  - CorePort demand fills (data + inst): drop (re-issued after a long
 *    timeout) or delay (fixed extra latency).
 *  - CorePort MSHR allocation: transient pressure spikes reject the
 *    request; the core's existing retry path absorbs it.
 *  - CorePort translation: pressure spikes turn a lookup into a page
 *    walk, which is an SST deferral trigger.
 *  - SstCore: forced epoch aborts (rollback at a configurable rate) and
 *    static DQ/SSQ capacity squeezes.
 */

#ifndef SSTSIM_FAULT_FAULT_HH
#define SSTSIM_FAULT_FAULT_HH

#include <cstdint>

#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace sst
{

/** Fault-injection configuration (all off by default). */
struct FaultParams
{
    /** Stream seed; equal seeds give bit-identical fault sequences. */
    std::uint64_t seed = 1;

    /** P(demand fill is lost and re-issued after dropTimeout). */
    double dropFillRate = 0.0;
    /** Extra latency charged to a dropped fill's re-issue. */
    unsigned dropTimeout = 100'000;

    /** P(demand fill is delayed by delayCycles). */
    double delayFillRate = 0.0;
    unsigned delayCycles = 400;

    /** P(an MSHR allocation is rejected by a pressure spike). */
    double mshrPressureRate = 0.0;

    /** P(a data-side translation spikes into a full page walk). */
    double tlbPressureRate = 0.0;

    /** P(per speculating cycle that the SST core must abort). */
    double forceAbortRate = 0.0;

    /** Static capacity squeezes on the SST queues (entries removed). */
    unsigned dqSqueeze = 0;
    unsigned ssqSqueeze = 0;

    /**
     * Poison-job chaos hook for the experiment service: kill the host
     * process at this simulated cycle (0 = off). Honoured only when a
     * ChaosMonitor is attached to the machine (service workers do
     * this; in-process sweeps and plain runs ignore it), and excluded
     * from enabled() because it perturbs the host, not the simulation.
     * See fault/chaos.hh.
     */
    std::uint64_t chaosExitCycle = 0;

    bool
    enabled() const
    {
        return dropFillRate > 0 || delayFillRate > 0
               || mshrPressureRate > 0 || tlbPressureRate > 0
               || forceAbortRate > 0 || dqSqueeze > 0 || ssqSqueeze > 0;
    }
};

/** Seeded fault source shared by one MemorySystem and its cores. */
class FaultInjector
{
  public:
    FaultInjector(const FaultParams &params, StatGroup &parentStats);

    const FaultParams &params() const { return params_; }
    bool enabled() const { return params_.enabled(); }

    /**
     * Perturb a demand fill that would complete at @p ready. A dropped
     * fill is modelled as lost-then-re-issued: it completes only after
     * the timeout. A delayed fill is simply late.
     */
    Cycle perturbFill(Cycle now, Cycle ready)
    {
        if (params_.dropFillRate > 0 || params_.delayFillRate > 0)
            return drawFill(now, ready);
        return ready;
    }

    /** True when an MSHR allocation must be rejected this access. */
    bool mshrPressure()
    {
        return params_.mshrPressureRate <= 0 ? false : drawMshrPressure();
    }

    /** Extra translation latency to charge (0 = no fault). */
    Cycle tlbPressure(unsigned walkLatency)
    {
        return params_.tlbPressureRate <= 0 ? 0
                                            : drawTlbPressure(walkLatency);
    }

    /** True when the SST core must force-abort its speculation now. */
    bool forceAbort()
    {
        return params_.forceAbortRate <= 0 ? false : drawForceAbort();
    }

    /** Total faults injected so far (all kinds). */
    std::uint64_t injectedCount() const { return injected_.value(); }

    StatGroup &stats() { return stats_; }

    /** Snapshot the fault RNG stream (counters travel with the stats
     *  tree). */
    template <class Io> void io(Io &s);

  private:
    // The armed halves of the hooks above: every disarmed class is one
    // inline compare and draws nothing from the RNG.
    Cycle drawFill(Cycle now, Cycle ready);
    bool drawMshrPressure();
    Cycle drawTlbPressure(unsigned walkLatency);
    bool drawForceAbort();

    FaultParams params_;
    Rng rng_;

    StatGroup stats_;
    Scalar &injected_;
    Scalar &fillsDropped_;
    Scalar &fillsDelayed_;
    Scalar &mshrRejects_;
    Scalar &tlbSpikes_;
    Scalar &forcedAborts_;
};

} // namespace sst

#endif // SSTSIM_FAULT_FAULT_HH
