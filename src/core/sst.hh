/**
 * @file
 * Simultaneous Speculative Threading core — the paper's contribution.
 *
 * One sequential program, two hardware strands:
 *
 *  - The **ahead strand** executes every instruction whose operands are
 *    available. A load that misses the L1 takes a register checkpoint
 *    (up to params.checkpoints epochs in flight), marks its destination
 *    NA (not available) and keeps going; NA propagates through dataflow,
 *    and any instruction reading an NA register is parked in the
 *    **Deferred Queue** together with its already-available operands and
 *    the identity (seq) of the deferred producer of each NA operand.
 *
 *  - The **behind strand** replays the oldest epoch's DQ entries, in
 *    program order, once the triggering miss data returns — running
 *    *simultaneously* with the ahead strand. Replayed loads that miss
 *    again are re-deferred into a later pass. Results are published back
 *    to the ahead strand's register file and to younger checkpoint
 *    snapshots (matching on the producer seq), so NA bits dissolve
 *    exactly where they originated.
 *
 * Speculative stores live in a **speculative store queue** (byte-
 * accurate forwarding) and drain to memory only at checkpoint commit.
 * Memory disambiguation is lazy: a store deferred with an unknown
 * address is checked at replay against the log of speculatively
 * executed younger loads; a conflict — like a mispredicted deferred
 * branch — discards speculation and rolls back to the checkpoint. This
 * is how SST does without rename tables, a ROB, an issue window, or a
 * disambiguation buffer.
 *
 * With params.discardSpecWork=true and checkpoints=1 the same machine
 * degenerates into a hardware-scout (runahead) core: deferrals are
 * dropped, and all speculative work is thrown away when the trigger
 * miss returns — only its prefetching and predictor training remain.
 */

#ifndef SSTSIM_CORE_SST_HH
#define SSTSIM_CORE_SST_HH

#include <algorithm>
#include <array>
#include <deque>
#include <vector>

#include "branch/valuepred.hh"
#include "core/core.hh"
#include "core/seqring.hh"

namespace sst
{

/** Checkpoint-based dual-strand speculative core. */
class SstCore : public Core, public CohClient
{
  public:
    SstCore(const CoreParams &params, const Program &program,
            MemoryImage &memory, CorePort &port);
    ~SstCore() override;

    const char *model() const override
    {
        return params_.discardSpecWork ? "scout" : "sst";
    }

    /** Coherence fabric probe: does the speculative read set (the load
     *  log, which includes an elided lock's line) cover @p line? */
    bool specReadsLine(Addr line) const override;
    /** A remote functional write hit the read set: note the squash; it
     *  is processed at the top of this core's next cycle (the fabric
     *  calls in mid-tick of the *writing* core). */
    void cohSquash() override;

    /** True while at least one checkpoint is live. */
    bool speculating() const { return !epochs_.empty(); }

    /** Watchdog escalation: roll back and suppress the trigger PC. */
    bool degradeSpeculation() override;

    /** Flush speculating cycles still awaiting their region's fate. */
    void finalizeAttribution() override;

    Cycle nextWakeCycle() const override;

    // --- introspection (tests) ---
    /** Live checkpoints. */
    std::size_t liveEpochs() const { return epochs_.size(); }
    /** DQ entries over all epochs, as the running counter has it. */
    unsigned dqOccupancy() const { return dqCount_; }
    /** The same count walked from the epochs' queues. */
    unsigned dqRecount() const;
    /** The replay results as (seq, value, ready) triples sorted by seq,
     *  as snapshots carry them. */
    std::vector<std::array<std::uint64_t, 3>> replayResultList() const;
    /** True when the replay ring's slots hold exactly its key list,
     *  each key in its own slot. */
    bool replayRingConsistent() const;

  protected:
    void cycle() override;
    void idleAdvance(Cycle n) override;
    void ioExtra(snap::Writer &s) override { state(s); }
    void ioExtra(snap::Reader &s) override { state(s); }

    /** In-speculation cycles are attributed provisionally: their final
     *  category depends on whether the region commits (replay /
     *  dq_full / ssq_full) or rolls back (rollback_discard). */
    void accountCycle(std::uint64_t retired) override;

  private:
    template <class Io> void state(Io &s);

    /** One operand of a deferred instruction. */
    struct DeferredOperand
    {
        bool used = false;     ///< instruction reads this operand
        bool captured = true;  ///< value was available at defer time
        std::uint64_t value = 0;
        SeqNum producer = 0;   ///< deferred producer when !captured
    };

    /** A parked instruction awaiting replay. */
    struct DqEntry
    {
        SeqNum seq = 0;
        std::uint64_t pc = 0;
        Inst inst;
        DeferredOperand src1;
        DeferredOperand src2;
        bool predTaken = false;         ///< deferred-branch prediction
        std::uint64_t predHistory = 0;  ///< GHR at prediction time
        std::uint64_t predTarget = 0;   ///< deferred-JALR prediction
        bool requestIssued = false;     ///< trigger load: miss in flight
        Cycle readyCycle = 0;           ///< fill completion when issued
        bool valuePredicted = false;    ///< rd carries a predicted value
        std::uint64_t predValue = 0;    ///< verified against the fill
    };

    /** A speculative store (or a reservation for a deferred one). */
    struct SsqEntry
    {
        SeqNum seq = 0;
        bool resolved = false; ///< address+data known
        Addr addr = invalidAddr;
        unsigned size = 0;
        std::uint64_t value = 0;
    };

    /** Speculatively executed load, logged for lazy disambiguation. */
    struct SpecLoad
    {
        SeqNum seq;
        Addr addr;
        unsigned size;
    };

    /** Result of a replayed instruction, keyed by producer seq. */
    struct ReplayResult
    {
        std::uint64_t value = 0;
        Cycle readyCycle = 0;
    };

    /** A checkpointed speculation region. */
    struct Epoch
    {
        unsigned id = 0;
        std::uint64_t pc = 0; ///< re-execution point (the trigger's PC)
        SeqNum startSeq = 0;
        std::array<std::uint64_t, numArchRegs> regs{};
        std::array<bool, numArchRegs> na{};
        std::array<SeqNum, numArchRegs> naWriter{};
        std::uint64_t predictorHistory = 0;
        /** RAS snapshot: rollback must repair the return-address stack
         *  alongside the global branch history, or every rollback
         *  leaves it corrupted relative to the restored PC. */
        ReturnAddressStack ras;
        Cycle triggerReady = 0; ///< scout: when the trigger returns
        std::deque<DqEntry> dq;
        std::deque<DqEntry> redeferred;
    };

    /**
     * The live checkpoints, oldest first, in a ring of Epoch objects
     * that outlive their regions: opening a checkpoint reuses a slot
     * (its queues keep their storage) instead of building, moving and
     * freeing an Epoch with two deques and a RAS. Slots are built on
     * first use, up to params.checkpoints (a snapshot naming more
     * grows the ring further).
     */
    class EpochRing
    {
      public:
        explicit EpochRing(std::size_t slots) { slots_.reserve(slots); }

        bool empty() const { return count_ == 0; }
        std::size_t size() const { return count_; }
        Epoch &operator[](std::size_t i) { return slots_[slot(i)]; }
        const Epoch &operator[](std::size_t i) const
        {
            return slots_[slot(i)];
        }
        Epoch &front() { return (*this)[0]; }
        Epoch &back() { return (*this)[count_ - 1]; }

        /** Open a slot at the back: empty queues, no NA registers, no
         *  trigger time; the caller fills in the rest. */
        Epoch &push_back()
        {
            if (count_ == slots_.size())
                grow();
            ++count_;
            Epoch &e = back();
            e.na.fill(false);
            e.naWriter.fill(0);
            e.triggerReady = 0;
            e.dq.clear();
            e.redeferred.clear();
            return e;
        }
        void pop_front()
        {
            head_ = slot(1);
            --count_;
        }
        void clear()
        {
            head_ = 0;
            count_ = 0;
        }
        /** clear() then open @p n slots (snapshot loading). */
        void resize(std::size_t n)
        {
            clear();
            for (std::size_t i = 0; i < n; ++i)
                push_back();
        }

        template <class Ring, class E> struct Iter
        {
            Ring *ring;
            std::size_t i;
            E &operator*() const { return (*ring)[i]; }
            Iter &operator++()
            {
                ++i;
                return *this;
            }
            bool operator!=(const Iter &o) const { return i != o.i; }
        };
        Iter<EpochRing, Epoch> begin() { return {this, 0}; }
        Iter<EpochRing, Epoch> end() { return {this, count_}; }
        Iter<const EpochRing, const Epoch> begin() const
        {
            return {this, 0};
        }
        Iter<const EpochRing, const Epoch> end() const
        {
            return {this, count_};
        }

      private:
        std::size_t slot(std::size_t i) const
        {
            std::size_t j = head_ + i;
            return j < slots_.size() ? j : j - slots_.size();
        }
        /** Add a slot to a full ring, its live epochs laid out from
         *  slot 0 first so the new one follows the back. */
        void grow()
        {
            std::rotate(slots_.begin(), slots_.begin() + head_,
                        slots_.end());
            head_ = 0;
            slots_.emplace_back();
        }

        std::vector<Epoch> slots_;
        std::size_t head_ = 0;
        std::size_t count_ = 0;
    };

    /** Why a speculative region was discarded. */
    enum class FailKind
    {
        BranchMispredict,
        JumpMispredict,
        MemConflict,
        ScoutEnd,
        Forced,      ///< injected fault or watchdog degradation
        CohConflict, ///< remote write hit the speculative read set
        ValueMispredict ///< predicted load value wrong at fill verify
    };

    // --- strand bodies ---
    void normalCycle();
    bool normalIssueOne();
    unsigned replayStrand(unsigned slots);
    unsigned aheadStrand(unsigned slots);
    bool aheadIssueOne();
    void drainStoreBuffer();
    void tryCommit();

    // --- speculation control ---
    void enterSpeculation(std::uint64_t trigger_pc, Cycle trigger_ready);
    bool takeCheckpoint(std::uint64_t trigger_pc, SeqNum start_seq);
    void commitOldestEpoch();
    void commitAll();
    void rollback(FailKind kind);

    // --- helpers ---
    /** Read @p size bytes at @p addr as seen by instruction @p before:
     *  memory image overlaid with resolved SSQ stores older than it. */
    std::uint64_t specMemRead(Addr addr, unsigned size,
                              SeqNum before) const;
    /** Publish a replay result to the ahead strand and snapshots. */
    void publishReplayValue(SeqNum seq, RegId rd, std::uint64_t value,
                            Cycle ready);
    /** Record a deferred instruction (ahead strand). */
    void defer(DqEntry entry, bool reserveSsqSlot);
    unsigned ssqOccupancy() const { return static_cast<unsigned>(ssq_.size()); }
    /** Resolve a deferred store's slot in the SSQ (placeholder fill). */
    void resolveSsqPlaceholder(SeqNum seq, Addr addr, unsigned size,
                               std::uint64_t value);
    /** Drain SSQ entries with seq < @p bound into memory + store buffer. */
    void drainSsqUpTo(SeqNum bound);
    /** Record a speculatively executed load for lazy disambiguation
     *  (byte-exact or line-granular per CoreParams). */
    void logSpecLoad(SeqNum seq, Addr addr, unsigned size);
    /** True when a replayed store to [addr, addr+size) conflicts with a
     *  logged younger speculative load. */
    bool storeConflicts(SeqNum store_seq, Addr addr, unsigned size) const;

    /** Move pending speculation cycles into the CPI stack: to their
     *  provisional categories on commit, to @p discardCat (normally
     *  RollbackDiscard; Coherence for remote-write squashes, so the
     *  sharing benches can attribute contention) when @p discarded. */
    void flushPendingSpec(bool discarded,
                          trace::CpiCat discardCat =
                              trace::CpiCat::RollbackDiscard);

    /** Provisional CPI category of a speculating cycle that retired
     *  nothing (see accountCycle()). */
    trace::CpiCat specCycleCat() const;

    /** Resolve @p entry's operands against the replay results into
     *  @p v1/@p v2 and raise @p ready to its fill and producer
     *  latencies. @return false while a producer has not replayed. */
    bool resolveReplay(const DqEntry &entry, std::uint64_t &v1,
                       std::uint64_t &v2, Cycle &ready) const;

    /** Speculating cycles charged but not yet assigned a final CPI
     *  category (indexed by provisional CpiCat). */
    std::array<std::uint64_t, trace::numCpiCats> pendingSpec_{};

    // --- ahead-strand speculative register view ---
    std::array<std::uint64_t, numArchRegs> specRegs_{};
    std::array<bool, numArchRegs> na_{};
    std::array<SeqNum, numArchRegs> naWriter_{};
    std::array<Cycle, numArchRegs> specReady_{};
    std::uint64_t aheadPc_ = 0;
    bool aheadHalted_ = false;
    Cycle aheadFrontEndReadyAt_ = 0;
    Cycle aheadDivBusyUntil_ = 0;

    // --- normal-mode scoreboard ---
    std::array<Cycle, numArchRegs> regReady_{};
    /** Pending value's latency includes coherence traffic: use-stalls
     *  on it charge the Coherence CPI bucket (normal mode only). */
    std::array<bool, numArchRegs> regCoh_{};
    Cycle frontEndReadyAt_ = 0;
    Cycle divBusyUntil_ = 0;

    // --- coherence / speculative lock elision ---
    /** Set by cohSquash() during a remote core's tick; consumed (as a
     *  rollback) at the top of this core's next cycle. */
    bool pendingCohSquash_ = false;
    /** An AMOSWAP lock acquire is currently elided: the region must
     *  publish atomically (commitAll) and only after the matching
     *  release store has been observed. While active, no further
     *  checkpoints open — the elision owns the single epoch. */
    bool sleActive_ = false;
    Addr sleLockAddr_ = invalidAddr;
    bool sleReleaseSeen_ = false;
    /** One-shot: after an elision aborts, the retry at this PC acquires
     *  the lock conventionally (requester-wins forward progress). */
    std::uint64_t sleSuppressPc_ = ~std::uint64_t{0};

    /** Load-value predictor (core.value_pred). Trained on every
     *  resolved load value; consulted only at ahead-strand miss-defer
     *  points, where a confident prediction keeps rd available. */
    ValuePredictor vpred_;
    /** Predictions standing in for unverified fills right now. While
     *  nonzero, in-speculation stall cycles are provisionally charged
     *  to the value_pred CPI bucket instead of replay. */
    unsigned vpOutstanding_ = 0;

    SeqNum nextSeq_ = 1;
    unsigned nextEpochId_ = 0;
    /** Effective queue capacities (params minus any fault squeeze). */
    unsigned dqCapacity_;
    unsigned ssqCapacity_;
    /** Abort injection is armed (fault.force_abort_rate > 0): every
     *  speculating cycle draws from the fault RNG. */
    const bool abortArmed_;
    /** Entries in every epoch's dq + redeferred queues. Derived state:
     *  recounted on load, never serialized. */
    unsigned dqCount_ = 0;
    /** Deferred branches/jumps not yet verified by replay. */
    unsigned unverifiedBranches_ = 0;

    EpochRing epochs_;
    std::vector<SsqEntry> ssq_; ///< sorted by seq
    std::vector<SpecLoad> loadLog_;
    /** Values produced by the behind strand, keyed by producer seq.
     *  Spans epochs (a consumer may sit in a younger epoch); cleared at
     *  full commit and rollback. */
    SeqRing<ReplayResult> replayResults_;

    /** Committed stores awaiting their timed L1 access. */
    struct PendingStore
    {
        Addr addr;
        unsigned size;
        Cycle issuableAt;
    };
    std::deque<PendingStore> storeBuffer_;

    /** Livelock guard: rollbacks (of any kind, including scout ends)
     *  that re-trigger at the same PC with no retirement progress in
     *  between force one non-speculative execution of that load. The
     *  classic hazard is runahead evicting its own trigger line. */
    std::uint64_t lastFailTriggerPc_ = ~std::uint64_t{0};
    std::uint64_t lastRollbackCommitted_ = ~std::uint64_t{0};
    unsigned consecutiveFails_ = 0;
    std::uint64_t suppressTriggerPc_ = ~std::uint64_t{0};

    // --- stats ---
    Scalar &checkpointsTaken_;
    Scalar &epochsCommitted_;
    Scalar &fullCommits_;
    Scalar &deferredInsts_;
    Scalar &replayedInsts_;
    Scalar &redeferredInsts_;
    Scalar &specLoads_;
    Scalar &failBranch_;
    Scalar &failJump_;
    Scalar &failMem_;
    Scalar &failForced_;
    Scalar &failCoh_;
    Scalar &failVpred_;
    Scalar &vpPredictions_;
    Scalar &vpCorrect_;
    Scalar &sleElisions_;
    Scalar &sleCommits_;
    Scalar &sleAborts_;
    Scalar &scoutEnds_;
    Scalar &livelockSuppressions_;
    Scalar &watchdogDegrades_;
    Scalar &dqFullStallCycles_;
    Scalar &ssqFullStallCycles_;
    Scalar &naJumpStallCycles_;
    Scalar &branchThrottleStallCycles_;
    Scalar &aheadStallUseCycles_;
    Scalar &discardedInsts_;
    Distribution &dqOccDist_;
    Distribution &epochInsts_;
};

} // namespace sst

#endif // SSTSIM_CORE_SST_HH
