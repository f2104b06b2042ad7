/**
 * @file
 * Chip-multiprocessor throughput harness: N identical cores, private
 * L1s, shared L2 + DRAM — the CMP context the ROCK paper designs SST
 * for (area-efficient cores ⇒ more cores per die ⇒ more throughput).
 */

#ifndef SSTSIM_SIM_CMP_HH
#define SSTSIM_SIM_CMP_HH

#include <memory>
#include <vector>

#include "core/core.hh"
#include "func/overlay.hh"
#include "isa/program.hh"
#include "mem/hierarchy.hh"
#include "sim/machine.hh"
#include "sim/presets.hh"

namespace sst
{

/** Aggregate result of one CMP run. */
struct CmpResult
{
    std::string preset;
    unsigned cores = 0;
    /** The chip clock when the run stopped (== Cmp::cycles()). When all
     *  cores halt this equals the slowest core's halt cycle; under a
     *  cycle budget it equals the budget. Previously this reported the
     *  max per-core cycle counter, which could disagree with the chip
     *  clock mid-run. */
    Cycle cycles = 0;
    std::uint64_t totalInsts = 0;
    double aggregateIpc = 0;
    std::vector<double> perCoreIpc;
    bool finished = false;
    DegradeReason degrade = DegradeReason::None;
    std::uint64_t watchdogRecoveries = 0;
};

/** N cores over one shared MemorySystem. */
class Cmp
{
  public:
    /**
     * Each core runs its own program. With coherence off (the default)
     * the harness salts every core's timing addresses into a disjoint
     * physical range and gives each core a private functional image; a
     * program whose footprint exceeds the per-core salt stride would
     * alias another core's physical range and is rejected with
     * fatal(). With coherence on (config.mem.coh.enabled) all cores
     * share one unsalted physical space and one functional image —
     * true shared memory. @p programs must outlive the Cmp.
     */
    Cmp(const MachineConfig &config,
        const std::vector<const Program *> &programs);

    /** Physical address space each core's accesses are salted into.
     *  Core i owns [i * stride, (i+1) * stride). */
    static constexpr Addr saltStride = Addr{1} << 30;

    /**
     * Tick all cores until all halt or the budget ends. Resumes from
     * the current state after restore().
     *
     * Runs on config.cmpWorkers threads (1 = the calling thread, no
     * threads spawned). Results — stats, traces, snapshots — are
     * byte-identical at every worker count: cores are sharded across
     * workers, every shared-state touch is ordered in (cycle, coreId)
     * sequence by a TickGate, and cross-core effects (coherence
     * invalidations, functional-write visibility) are deferred into
     * per-core queues drained in fixed order at quantum barriers. See
     * docs/INTERNALS.md "Parallel CMP simulation".
     */
    CmpResult run(std::uint64_t max_cycles = 500'000'000);

    /** Worker threads the engine will use for this chip. */
    unsigned workers() const;

    Core &core(unsigned i) { return *cores_[i]; }
    /** Core @p i's functional image (the one shared image when the
     *  memory system is coherent). */
    MemoryImage &image(unsigned i)
    {
        return *images_[memsys_.coherent() ? 0 : i];
    }
    MemorySystem &memsys() { return memsys_; }
    Cycle cycles() const { return cycle_; }
    bool allHalted() const { return allHalted_; }

    /** Complete chip image / inverse, mirroring Machine::snapshot(). */
    std::vector<std::uint8_t> snapshot() const;
    void restore(const std::vector<std::uint8_t> &bytes);
    Result<void> snapshotToFile(const std::string &path) const;
    Result<void> restoreFromFile(const std::string &path);

  private:
    /** The whole snapshot file: header, then every component's io(). */
    template <class Io> void fileIo(Io &s);

    /** The quantum/barrier tick engine behind run(). */
    void runEngine(std::uint64_t max_cycles);
    /** Sync quantum in cycles (config override or mode default). */
    Cycle quantum() const;

    MachineConfig config_;
    const std::vector<const Program *> programs_;
    MemorySystem memsys_;
    std::vector<std::unique_ptr<MemoryImage>> images_;
    /** Coherent mode only: per-core write-buffering views over
     *  images_[0], drained at quantum barriers. Empty when salted. */
    std::vector<std::unique_ptr<OverlayImage>> views_;
    OverlayShared overlayShared_;
    std::vector<std::unique_ptr<Core>> cores_;
    std::vector<std::unique_ptr<Watchdog>> watchdogs_;
    Cycle cycle_ = 0;
    bool allHalted_ = false;
    bool livelocked_ = false;
};

} // namespace sst

#endif // SSTSIM_SIM_CMP_HH
