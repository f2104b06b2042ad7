/**
 * @file
 * The run pipeline: resolveRun turns a key=value request into a
 * machine and a program; executeRun runs it. Every `sstsim` subcommand
 * that takes key=value resolves here, and `sstsim` and the sweep
 * runner's runJob execute here, so validation, preset + overrides, the
 * sampled/detailed mode and the golden cross-check are written once.
 * See docs/INTERNALS.md, "The run pipeline".
 */

#ifndef SSTSIM_EXP_RUN_HH
#define SSTSIM_EXP_RUN_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/result.hh"
#include "func/executor.hh"
#include "sim/cmp.hh"
#include "sim/machine.hh"
#include "sim/profile.hh"
#include "sim/sampling.hh"
#include "workloads/workloads.hh"

namespace sst
{
class ChaosMonitor;
}

namespace sst::exp
{

/** Keys a run request consumes itself (not machine configuration). */
const std::vector<std::string> &driverKeys();

struct RunOutcome;

/** How a run executes: sampled or detailed, and what it starts from. */
struct RunOptions
{
    std::uint64_t maxCycles = 500'000'000;

    /** Sampled mode: estimate IPC from detailed windows. */
    bool sample = false;
    /** Serve the windows from a checkpoint-warmed profile library
     *  (sim/profile.hh) instead of SMARTS fast-forward (runSampled). */
    bool fromLibrary = false;
    SampleParams sampling;
    /** Library schedule for sampled and warm-start runs; a zero
     *  regionInsts is derived from a functional count. */
    ProfileParams profile;
    /** Library cache root ("" builds in memory). */
    std::string profileCache;

    /** Detailed mode: compare the final state against a golden run. */
    bool verifyGolden = false;
    /** Restore this snapshot before the first cycle ("" = none). */
    std::string resume;
    /** @ref resume is a checkpoint that may be missing (skipped) or
     *  torn (RunOutcome::resumeError; the run starts at cycle 0). */
    bool resumeOptional = false;
    /** Warm-start from the library member nearest this instruction. */
    std::optional<std::uint64_t> warmStart;
    SnapPolicy snap;
    /** Service workers' process-chaos monitor (fault/chaos.hh). */
    ChaosMonitor *chaos = nullptr;
    /** Called with the machine in its starting state, before the first
     *  cycle: attach the trace ring, report where the run starts.
     *  Single-core runs only. */
    std::function<void(Machine &, const RunOutcome &)> onReady;
};

/** A validated run request. */
struct RunTarget
{
    MachineConfig machine;
    /** One workload, or one per chip core for a CMP run. */
    std::vector<Workload> workloads;
    /** The generator knobs the workloads were built with. */
    WorkloadParams params;
    /** The request's machine keys plus every default applyOverrides
     *  read: complete, as sweep records print it and memConfigHash
     *  keys profile libraries by it. */
    Config effective;
    /** The mode the request's driver keys ask for (the sweep runner
     *  builds its own from the manifest). */
    RunOptions options;

    const Program &program() const { return workloads.front().program; }
    /** A CMP run: `workload=` named a shared-memory workload. */
    bool isCmp() const { return workloads.front().category == "shared"; }
    std::uint64_t configHash() const
    {
        return memConfigHash(machine, effective);
    }
};

/**
 * Resolve @p request: reject unknown keys and enum values (nearest-name
 * suggestion, exit_code::usage) and driver keys that cannot combine,
 * load `workload=` (default oltp_mix) or `asm=`, build `preset=`
 * (default sst2) and apply the machine keys. A shared-memory workload
 * (sharedWorkloadNames()) makes a CMP run: one program per core,
 * cmp.cores of them (a single-core preset's default is 2), coherence
 * on unless coh.enabled is given; driver keys that act on one core's
 * machine (trace, sample, resume, warm_start, snap_every, stats) are
 * rejected.
 */
Result<RunTarget> resolveRun(const Config &request);

/** The target's profile library via ensureProfileLibrary; a zero
 *  params.regionInsts is first resolved in place from @p countedInsts
 *  (0: a fresh goldenRun's count). */
Result<ProfileLibrary> targetLibrary(const RunTarget &target,
                                     ProfileParams &params,
                                     const std::string &cacheRoot,
                                     std::uint64_t countedInsts = 0);

/** What a run produced. */
struct RunOutcome
{
    /** Headline result. Library-sampled runs carry the estimate:
     *  insts = the library's total, cycles = insts / ipc. */
    RunResult result;
    /** Golden cross-check: set when verifyGolden and finished. */
    bool archVerified = false;
    bool archOk = false;
    SampledResult sample; ///< valid in sampled mode
    /** Detailed mode: the machine after the run (stats, CPI stack). */
    std::unique_ptr<Machine> machine;
    /** CMP mode: the chip after the run (it points into the target's
     *  programs) and its aggregate result. */
    std::unique_ptr<Cmp> cmp;
    CmpResult cmpResult;
    /** resumeOptional: why the checkpoint was not used. */
    std::string resumeError;
    /** Instructions a warm start skipped (the golden offset). */
    std::uint64_t warmSkipped = 0;
};

/** Run @p target as @p options say. What stops a run before it starts
 *  (no halting golden run, unreadable resume=, library failure) is an
 *  Error; fatal() inside the simulation is the caller's (runJob traps
 *  it). A CMP run is verified when options.verifyGolden: each core of
 *  a salted chip against its own program's golden run, a coherent
 *  chip's shared image against checkSharedWorkload. */
Result<RunOutcome> executeRun(const RunTarget &target,
                              const RunOptions &options);

} // namespace sst::exp

#endif // SSTSIM_EXP_RUN_HH
