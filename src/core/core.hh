/**
 * @file
 * Abstract timing-core interface plus shared pipeline plumbing.
 *
 * All four core models (in-order, out-of-order, hardware scout, SST)
 * derive from Core: they consume one Program, share the functional
 * semantics in src/func, issue memory traffic through a CorePort, and
 * are driven cycle-by-cycle via tick(). Every model must end with an
 * architectural state identical to the golden Executor's — the
 * differential property tests enforce this.
 */

#ifndef SSTSIM_CORE_CORE_HH
#define SSTSIM_CORE_CORE_HH

#include <algorithm>
#include <memory>
#include <string>

#include "branch/predictor.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "func/executor.hh"
#include "mem/hierarchy.hh"
#include "isa/program.hh"
#include "trace/cpistack.hh"
#include "trace/trace.hh"

namespace sst
{

/** Knobs shared by all core models (each model reads the subset it
 *  implements; presets in src/sim set these per machine config). */
struct CoreParams
{
    std::string name = "core";

    // Front end / simple pipeline.
    unsigned fetchWidth = 2;
    unsigned pipelineDepth = 12;   ///< mispredict redirect penalty
    std::string predictor = "gshare";
    /** Per-strand (main/ahead) global-history registers instead of one
     *  interleaved stream (core.strand_history; gshare/tournament). */
    bool strandHistory = false;

    // In-order store buffer.
    unsigned storeBufferEntries = 8;

    // Out-of-order machine.
    unsigned robEntries = 128;
    unsigned issueQueueEntries = 32;
    unsigned lsqEntries = 32;
    unsigned issueWidth = 4;

    // SST machine.
    unsigned checkpoints = 4;
    unsigned dqEntries = 64;
    unsigned ssqEntries = 32;
    /** Load-value prediction in the ahead strand: a confident predicted
     *  value stands in for an L1-missing load's NA result until the DQ
     *  replay verifies it on fill ("off"|"last"|"stride"). */
    std::string valuePred = "off";
    /** Hardware-scout mode: discard all speculative work on miss return
     *  (1-checkpoint runahead prefetcher). */
    bool discardSpecWork = false;

    // --- SST design-space knobs (ablations; defaults = paper config) --
    /** Only enter speculation for loads that also miss the L2 (short
     *  L2 hits are cheaper to scoreboard than to checkpoint). */
    bool deferOnL2MissOnly = false;
    /** Max deferred (predicted-unverified) branches per speculation
     *  region before the ahead strand stalls instead of guessing.
     *  0 = unlimited (the default aggressive policy). */
    unsigned maxDeferredBranches = 0;
    /** Track speculative-load/deferred-store conflicts at cache-line
     *  granularity (the realistic s-bit mechanism: cheaper hardware,
     *  false-sharing aborts) instead of exact byte ranges. */
    bool lineGranularConflicts = false;
    /** Speculative lock elision: execute past an AMOSWAP lock acquire
     *  from a checkpoint instead of taking the lock, squashing when a
     *  remote write hits the speculative read set. SST-only; needs a
     *  coherent memory system to be meaningful. */
    bool elideLocks = false;
};

/** Base class: owns arch state, predictor, fetch timing and stats. */
class Core
{
  public:
    Core(const CoreParams &params, const Program &program,
         MemoryImage &memory, CorePort &port);
    virtual ~Core() = default;

    Core(const Core &) = delete;
    Core &operator=(const Core &) = delete;

    /** Advance one clock cycle. */
    void tick()
    {
        if (arch_.halted)
            return;
        std::uint64_t before = committed_.value();
        stallCat_ = trace::CpiCat::Other;
        blocked_.release = kWakeNever;
        blocked_.counter = nullptr;
        cycle();
        accountCycle(committed_.value() - before);
        ++now_;
        ++cyclesStat_;
    }

    /** nextWakeCycle(): "this cycle" — the core can act right now, so
     *  the run loop must tick it naively. */
    static constexpr Cycle kWakeNow = 0;
    /** nextWakeCycle(): "never" — the core is halted. */
    static constexpr Cycle kWakeNever = invalidCycle;

    /**
     * Wake-cycle protocol. Returns the earliest future cycle at which
     * this core can possibly make progress (or change any observable
     * state, including per-cycle stall counters that differ from the
     * current stalled shape). It is read off the last tick's Blocked
     * record: the minimum release cycle over what every strand and
     * stage was blocked on. A tick that moved a strand, or a blocker
     * that retries this cycle (a port re-probe, a pass swap, a
     * rollback), reports kWakeNow.
     *
     * Contract: call immediately after a tick() that retired nothing;
     * a subsequent advanceIdle(n) with now+n <= nextWakeCycle() must
     * leave the core byte-identical (stats, traces, state) to n naive
     * ticks. Models add the events that reach them from outside the
     * tick (remote squashes, abort injection).
     */
    virtual Cycle nextWakeCycle() const;

    /**
     * Skip @p n stalled cycles in one step: replays exactly the stat
     * increments (stall scalars, CPI-stack attribution, occupancy
     * distribution samples) the naive per-cycle loop would have made,
     * then advances the cycle counters. Only valid after a
     * nextWakeCycle() that allowed the skip, before the next tick().
     */
    void advanceIdle(Cycle n);

    /** True once HALT has architecturally committed. */
    bool halted() const { return arch_.halted; }

    Cycle cycles() const { return now_; }
    std::uint64_t instsRetired() const { return committed_.value(); }
    double ipc() const;

    const ArchState &archState() const { return arch_; }
    StatGroup &stats() { return stats_; }
    const CoreParams &params() const { return params_; }
    CorePort &port() { return port_; }

    /** Short model identifier ("inorder", "ooo", "scout", "sst"). */
    virtual const char *model() const = 0;

    /**
     * Watchdog escalation hook: abandon in-flight speculation and fall
     * back to non-speculative progress (mirroring ROCK's own fallback
     * for pathological speculation). @return true when the model had
     * speculative state to degrade; models without speculation return
     * false and the watchdog moves to its next escalation step.
     */
    virtual bool degradeSpeculation() { return false; }

    /**
     * Start execution from @p state at absolute cycle @p start_cycle
     * instead of from reset. Used by the sampled-simulation runner: the
     * cycle offset keeps this core's clock aligned with the shared
     * memory system's busy-until state left by earlier samples. Must be
     * called before the first tick().
     */
    void warmStart(const ArchState &state, Cycle start_cycle);

    /** First cycle of this core's execution (0 unless warm-started). */
    Cycle startCycle() const { return startCycle_; }

    /**
     * Attach a structured event ring (non-owning; null detaches). The
     * ring is the one trace stream: `sstsim trace` exports it as Chrome
     * JSON and `trace=true` prints it as text (trace/chrome.hh).
     */
    void attachTraceBuffer(trace::TraceBuffer *buf) { traceBuf_ = buf; }

    /** Per-category cycle attribution (see trace/cpistack.hh). */
    trace::CpiStack &cpiStack() { return cpiStack_; }

    /**
     * Flush any provisionally attributed cycles so the CPI-stack
     * categories sum exactly to the cycle count. Idempotent; called by
     * Machine::run at harvest (models with in-flight speculation hold
     * cycles pending until the region commits or rolls back).
     */
    virtual void finalizeAttribution() {}

    /**
     * Snapshot complete core state: committed arch state, clocks,
     * fetch-line tracking, predictor/BTB/RAS, the whole stats tree
     * (which includes the CPI stack and this core's port stats), then
     * the model's extra state via ioExtra(). The trace buffer pointer
     * is a runtime attachment, not state, and is not serialized; of
     * the Blocked record only the models' acted flag travels (the next
     * tick rewrites the rest).
     */
    template <class Io> void io(Io &s);

  protected:
    /** Record one structured event (a null check when no ring is
     *  attached). */
    void record(trace::TraceKind kind, trace::TraceStrand strand,
                std::uint64_t pc, SeqNum seq = 0, std::uint32_t arg = 0)
    {
        if (traceBuf_) [[unlikely]]
            recordEvent(kind, strand, pc, seq, arg);
    }

    /**
     * Record one blocker of the in-flight cycle: bump its per-cycle
     * stall scalar @p counter (if any) and fold it into the Blocked
     * record. The first category and the first counter per cycle win
     * (the oldest blocking condition is the one that mattered;
     * retirement overrides the category with Base). @p release is the
     * cycle the condition can first clear: kWakeNever when another
     * recorded blocker's release frees it, now_ when the path retries
     * (re-probes the port) every cycle.
     */
    void block(trace::CpiCat cat, Cycle release = kWakeNever,
               Scalar *counter = nullptr)
    {
        if (stallCat_ == trace::CpiCat::Other)
            stallCat_ = cat;
        if (counter) {
            ++*counter;
            if (!blocked_.counter)
                blocked_.counter = counter;
        }
        wakeBy(release);
    }

    /** Bound the wake by @p release without a stall category or
     *  counter (store-buffer drains, the behind strand, issue-queue
     *  wakeups). */
    void wakeBy(Cycle release)
    {
        blocked_.release = std::min(blocked_.release, release);
    }

    /**
     * Charge the cycle that just ran to a CPI-stack category. The
     * default charges Base when @p retired > 0 and the noted stall
     * otherwise; SST overrides it to hold speculation cycles pending
     * until the region's fate (commit or rollback) is known.
     */
    virtual void accountCycle(std::uint64_t retired)
    {
        cpiStack_.add(retired ? trace::CpiCat::Base : stallCat_);
    }

    /**
     * What the last tick was blocked on, written by the issue paths as
     * they fail (block(), wakeBy()) and read by nextWakeCycle() and
     * idleAdvance(). Every cycle of a skipped window repeats that tick:
     * the same blockers, so the same stall scalar and the same CPI
     * category (stallCat_). tick() resets release and counter.
     */
    struct Blocked
    {
        /** Earliest cycle any recorded blocker releases. */
        Cycle release = kWakeNever;
        /** Per-cycle stall scalar of the first counted blocker. */
        Scalar *counter = nullptr;
        /** A strand issued, replayed or dispatched: the next cycle is
         *  not a repeat of this one. Assigned by the models that track
         *  it (OoO, SST) on every tick they run; it is snapshot state. */
        bool acted = false;
    };
    Blocked blocked_;

    /** nextWakeCycle() over the record's release alone. */
    Cycle releaseWake() const
    {
        return blocked_.release <= now_ ? kWakeNow : blocked_.release;
    }

    /**
     * Model hook for advanceIdle(): account @p n skipped cycles exactly
     * as n naive stalled ticks would have. The base bumps the recorded
     * stall scalar and charges stallCat_; models with per-cycle samples
     * or deferred attribution extend it.
     */
    virtual void idleAdvance(Cycle n);

    /** Model-specific snapshot state (scoreboards, queues, epochs).
     *  Each model forwards both visitors to one state() template. */
    virtual void ioExtra(snap::Writer &) {}
    virtual void ioExtra(snap::Reader &) {}

  private:
    /** record()'s out-of-line body: append to the attached buffer. */
    void recordEvent(trace::TraceKind kind, trace::TraceStrand strand,
                     std::uint64_t pc, SeqNum seq, std::uint32_t arg);
    /** fetchReady() past the current line: probe the I-cache. */
    Cycle fetchNewLine(std::uint64_t pc, Addr addr, Addr line);

    Cycle startCycle_ = 0;

  protected:
    trace::TraceBuffer *traceBuf_ = nullptr;
    /** Stall category noted for the in-flight cycle (reset each tick). */
    trace::CpiCat stallCat_ = trace::CpiCat::Other;

    /** One cycle of model-specific work (now_ already advanced). */
    virtual void cycle() = 0;

    /**
     * Fetch-timing helper: returns the cycle at which the instruction at
     * @p pc can enter the pipeline, issuing an I-cache access when @p pc
     * crosses into a new line.
     */
    Cycle fetchReady(std::uint64_t pc)
    {
        Addr addr = program_.instAddr(pc);
        Addr line = port_.l1i().lineAddr(addr);
        if (line == lastFetchLine_)
            return fetchLineReady_;
        return fetchNewLine(pc, addr, line);
    }

    /** Train predictor/BTB and decide the redirect penalty. @return true
     *  when the front end predicted this control transfer correctly. */
    bool resolveControl(const Inst &inst, std::uint64_t pc,
                        std::uint64_t nextPc, bool taken);

    const CoreParams params_;
    const Program &program_;
    MemoryImage &memory_;
    CorePort &port_;

    /** Committed architectural state. */
    ArchState arch_;

    Cycle now_ = 0;

    std::unique_ptr<BranchPredictor> predictor_;
    Btb btb_;
    ReturnAddressStack ras_;

    StatGroup stats_;
    trace::CpiStack cpiStack_;
    Scalar &committed_;
    Scalar &cyclesStat_;
    Scalar &branches_;
    Scalar &mispredicts_;
    Scalar &loadsExecuted_;
    Scalar &storesExecuted_;

    /** I-fetch line tracking. */
    Addr lastFetchLine_ = invalidAddr;
    Cycle fetchLineReady_ = 0;
};

} // namespace sst

#endif // SSTSIM_CORE_CORE_HH
