/**
 * @file
 * Single-core machine: wires a core model to its memory hierarchy and
 * runs one workload to completion.
 */

#ifndef SSTSIM_SIM_MACHINE_HH
#define SSTSIM_SIM_MACHINE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.hh"
#include "core/core.hh"
#include "core/inorder.hh"
#include "core/ooo.hh"
#include "core/sst.hh"
#include "mem/hierarchy.hh"
#include "sim/presets.hh"

namespace sst
{

class ChaosMonitor;

/** Why a run stopped short of committing HALT. */
enum class DegradeReason
{
    None,        ///< ran to completion
    CycleBudget, ///< max_cycles exhausted with retirement still flowing
    Livelock     ///< watchdog interventions exhausted with no progress
};

/** Human-readable name for a DegradeReason. */
const char *degradeReasonName(DegradeReason reason);

/**
 * No-retirement livelock detector with an escalating response, shared
 * by the Machine and Cmp run loops. When a core retires nothing for
 * stallCycles, the watchdog first asks the core to abandon speculation
 * and make non-speculative progress (degradeSpeculation — a recovery);
 * maxInterventions consecutive fruitless attempts declare livelock.
 */
class Watchdog
{
  public:
    Watchdog(const WatchdogParams &params, Core &core)
        : params_(params), core_(core)
    {
    }

    /** Observe one elapsed cycle. @return false on declared livelock. */
    bool observe()
    {
        if (!params_.enabled || core_.halted())
            return true;
        std::uint64_t insts = core_.instsRetired();
        if (insts != lastInsts_) {
            lastInsts_ = insts;
            windowStart_ = core_.cycles();
            fruitless_ = 0;
            return true;
        }
        if (core_.cycles() - windowStart_ < params_.stallCycles)
            return true;
        return intervene();
    }

    /**
     * Latest cycle a fast-forward skip may advance the core to without
     * changing this watchdog's behaviour. The cycle at
     * windowStart + stallCycles is where observe() would intervene, so
     * the run loop must reach it via a real tick+observe; every
     * no-retirement observe strictly before it is a no-op, making the
     * cycles up to (deadline - 1) safe to skip. Unbounded when disabled
     * or the core has halted.
     */
    Cycle skipBound() const
    {
        if (!params_.enabled || core_.halted())
            return invalidCycle;
        Cycle deadline = windowStart_ + params_.stallCycles;
        return deadline == 0 ? 0 : deadline - 1;
    }

    std::uint64_t recoveries() const { return recoveries_; }
    std::uint64_t interventions() const { return interventions_; }
    bool gaveUp() const { return gaveUp_; }

    /** Re-anchor the stall window after the core warm-starts at cycle
     *  @p now; without this a warm start far from cycle 0 looks like a
     *  full no-retirement window and triggers a spurious intervention
     *  on the first observe(). */
    void rebase(Cycle now)
    {
        lastInsts_ = core_.instsRetired();
        windowStart_ = now;
        fruitless_ = 0;
    }

    /** Snapshot progress-tracking state (params stay bound). */
    template <class Io> void io(Io &s);

  private:
    /** observe() after a full window with zero retirement. */
    bool intervene();

    const WatchdogParams params_;
    Core &core_;
    std::uint64_t lastInsts_ = 0;
    Cycle windowStart_ = 0;
    unsigned fruitless_ = 0;
    std::uint64_t recoveries_ = 0;
    std::uint64_t interventions_ = 0;
    bool gaveUp_ = false;
};

/** Key metrics of one finished run. */
struct RunResult
{
    std::string preset;
    std::string workload;
    Cycle cycles = 0;
    std::uint64_t insts = 0;
    double ipc = 0;
    double l1dMissRate = 0;
    double meanDemandMlp = 0;
    double mispredictRate = 0;
    bool finished = false; ///< HALT committed within the cycle budget
    DegradeReason degrade = DegradeReason::None;
    /** Flattened stats for anything the summary fields don't cover.
     *  Includes "fault.*" (injector) and "watchdog.*" entries. */
    std::map<std::string, double> stats;
};

/** Periodic snapshot policy for crash-resumable runs. */
struct SnapPolicy
{
    std::uint64_t everyCycles = 0; ///< 0 disables periodic snapshots
    std::string path;              ///< target file, atomically replaced
};

/** Instantiate the core model named by @p config. */
std::unique_ptr<Core> makeCore(const MachineConfig &config,
                               const Program &program,
                               MemoryImage &memory, CorePort &port);

/** Identity hash of a program (instructions + data + layout), used to
 *  reject restoring a snapshot against the wrong workload. */
std::uint64_t programFingerprint(const Program &program);

/** One core + private hierarchy + loaded memory image. */
class Machine
{
  public:
    /** @p program must outlive the machine. */
    Machine(const MachineConfig &config, const Program &program);

    /** Run to HALT or @p maxCycles; harvest metrics. Resumes from the
     *  current state, so a restore() followed by run() continues the
     *  interrupted simulation. */
    RunResult run(std::uint64_t max_cycles = 500'000'000);

    /** run() that additionally writes a snapshot of the whole machine
     *  to @p snap.path every snap.everyCycles simulated cycles. */
    RunResult run(std::uint64_t max_cycles, const SnapPolicy &snap);

    /**
     * Advance to cycle @p target (or until HALT / livelock) with
     * exactly run()'s tick + watchdog + fast-forward semantics. The
     * lockstep divergence differ is built on this: two machines
     * stepTo() the same cycle and compare stateHash().
     */
    void stepTo(Cycle target);

    /** FNV-1a 64 over the complete serialized machine state. Equal
     *  hashes at equal cycles ⇒ byte-identical future behaviour. */
    std::uint64_t stateHash() const;

    /** State payload shared by snapshot(), restore() and stateHash()
     *  (no file header). */
    template <class Io> void io(Io &s);

    /** Complete machine image (header + state), restorable in a fresh
     *  process via restore(). */
    std::vector<std::uint8_t> snapshot() const;

    /** Restore a snapshot() image. The machine must have been built
     *  with the same preset, model and program; mismatches fatal(). */
    void restore(const std::vector<std::uint8_t> &bytes);

    Result<void> snapshotToFile(const std::string &path) const;
    Result<void> restoreFromFile(const std::string &path);

    /** True once the watchdog declared livelock (sticky; saved). */
    bool livelocked() const { return livelocked_; }

    Core &core() { return *core_; }
    MemorySystem &memsys() { return memsys_; }
    MemoryImage &image() { return image_; }
    const MachineConfig &config() const { return config_; }
    const Program &program() const { return program_; }
    Watchdog &watchdog() { return *watchdog_; }

    /** Route structured pipeline + cache-fill events from the core and
     *  every hierarchy level into @p buf (null detaches everywhere). */
    void attachTraceBuffer(trace::TraceBuffer *buf);

    /**
     * Attach a process-chaos monitor (fault/chaos.hh): the run loop
     * calls observe(cycle) every iteration, which both feeds the
     * service worker's heartbeat probe and fires any scheduled
     * kill/stall at its deterministic simulated cycle. Null detaches.
     */
    void setChaosMonitor(ChaosMonitor *monitor) { chaos_ = monitor; }

  private:
    /** Shared loop body of run()/stepTo(). */
    void loopTo(Cycle bound, const SnapPolicy *snap);
    RunResult harvest();

    /** The whole snapshot file: header, io(), trace buffer. */
    template <class Io> void fileIo(Io &s);

    MachineConfig config_;
    const Program &program_;
    MemorySystem memsys_;
    MemoryImage image_;
    std::unique_ptr<Core> core_;
    std::unique_ptr<Watchdog> watchdog_;
    trace::TraceBuffer *traceBuf_ = nullptr;
    ChaosMonitor *chaos_ = nullptr;
    bool livelocked_ = false;
};

/**
 * Convenience: build the preset, generate nothing (caller supplies the
 * program), run, and return metrics.
 */
RunResult runOn(const std::string &preset, const Program &program,
                std::uint64_t max_cycles = 500'000'000);

} // namespace sst

#endif // SSTSIM_SIM_MACHINE_HH
