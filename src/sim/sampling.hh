/**
 * @file
 * Sampled simulation (SMARTS-style): alternate cheap functional
 * fast-forward — with cache warming — and detailed cycle-level sample
 * windows, then estimate whole-program IPC from the samples. Makes
 * full-length workloads tractable on the detailed core models.
 *
 * Methodology: the functional cursor and the detailed cores share one
 * MemoryImage and one CorePort, so cache/predictor state flows through
 * the whole run; each detailed window is a fresh core warm-started at
 * the cursor's architectural state and at the shared clock, so memory
 * busy-until state stays consistent across windows.
 */

#ifndef SSTSIM_SIM_SAMPLING_HH
#define SSTSIM_SIM_SAMPLING_HH

#include <vector>

#include "common/logging.hh"
#include "func/executor.hh"
#include "sim/machine.hh"

namespace sst
{

/** Sampling schedule. */
struct SampleParams
{
    /** Instructions per detailed window. */
    std::uint64_t detailInsts = 20'000;
    /** Instructions fast-forwarded (with warming) between windows. */
    std::uint64_t skipInsts = 80'000;
    /** Maximum number of detailed windows (0 = until program end). */
    unsigned maxSamples = 0;
    /** Cycles charged per warmed instruction during fast-forward
     *  (advances the shared clock so DRAM/bank state stays sane). */
    unsigned warmCpi = 2;
};

/** Outcome of a sampled run. */
struct SampledResult
{
    std::string preset;
    /** IPC estimate: committed insts over cycles, summed over windows. */
    double ipc = 0;
    /** Per-window IPCs (for confidence estimation). */
    std::vector<double> windowIpc;
    /** Per-window blending weights (instructions each window stands
     *  for). Empty for plain runSampled() runs, where every window
     *  weighs the same; parallel to windowIpc for library-served runs
     *  (sim/profile.hh). */
    std::vector<double> windowWeight;
    /** Instructions simulated in detail / skipped functionally. */
    std::uint64_t detailedInsts = 0;
    std::uint64_t skippedInsts = 0;
    /** Cache-warming accesses issued during fast-forward, and how many
     *  hit the L1. A healthy run has warmHits > 0: if warming silently
     *  stopped (e.g. every access rejected on full MSHRs), the detailed
     *  windows would start against a cold hierarchy and overestimate
     *  miss rates. */
    std::uint64_t warmAccesses = 0;
    std::uint64_t warmHits = 0;
    bool reachedEnd = false;

    /** Sample standard deviation of the window IPCs. */
    double ipcStddev() const;

    /** Half-width of the 95% confidence interval on the IPC estimate:
     *  1.96 · weighted stddev / sqrt(effective sample count). Uses
     *  windowWeight when present, equal weights otherwise; 0 with
     *  fewer than two windows. */
    double ipcCi95() const;
};

/**
 * One warming step: execute one instruction, issue its data access (if
 * any) at the coarse warm clock, then charge @p warmCpi cycles. The
 * port drops a rejected access (MSHRs full); ignoring that once let the
 * warm clock fill the MSHR file and silently stop warming. So the clock
 * advances to the retry cycle, when an MSHR frees, and the access is
 * re-issued, bounded so a pathological port cannot wedge the cursor.
 */
inline void
warmStep(Executor &exec, ArchState &cursor, CorePort &port, Cycle &clock,
         unsigned warmCpi, std::uint64_t &accesses, std::uint64_t &hits)
{
    StepInfo info = exec.step(cursor);
    if (info.effAddr != invalidAddr) {
        AccessType type =
            isStore(info.inst.op) ? AccessType::Store : AccessType::Load;
        ++accesses;
        auto res = port.access(type, info.effAddr, clock);
        for (int tries = 0;
             res.rejected && res.retryCycle > clock && tries < 4; ++tries) {
            clock = res.retryCycle;
            res = port.access(type, info.effAddr, clock);
        }
        if (!res.rejected && res.l1Hit)
            ++hits;
    }
    clock += warmCpi;
}

/**
 * One detailed sample window: tick @p core until it halts or retires
 * @p detailInsts instructions. A window that spends 1000 cycles per
 * requested instruction without getting there is fatal.
 */
inline void
runWindow(Core &core, std::uint64_t detailInsts)
{
    std::uint64_t budgetCycles = detailInsts * 1000;
    while (!core.halted() && core.instsRetired() < detailInsts
           && core.cycles() - core.startCycle() < budgetCycles)
        core.tick();
    fatal_if(!core.halted() && core.instsRetired() < detailInsts,
             "sampled window made no progress");
}

/**
 * Run @p program under @p config with the given sampling schedule.
 * @return the aggregate estimate. The program must halt.
 */
SampledResult runSampled(const MachineConfig &config,
                         const Program &program,
                         const SampleParams &params = {});

} // namespace sst

#endif // SSTSIM_SIM_SAMPLING_HH
