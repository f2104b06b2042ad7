/**
 * @file
 * Dual-thread (CMT) core — the other way to use a ROCK core.
 *
 * Each ROCK core supports two hardware thread contexts. The SST paper's
 * pitch is that when a core runs a *single* thread, the second strand's
 * hardware (checkpointed registers, the extra pipeline) powers
 * simultaneous speculative threading instead of a second thread. This
 * model implements the baseline alternative: two independent in-order
 * contexts sharing one front end, one scoreboarded pipeline, one
 * divider, one store buffer and one L1/MSHR port. bench_f14 puts the
 * two philosophies head to head (thread-level vs memory-level
 * parallelism from the same silicon).
 *
 * Issue policy: round-robin priority alternates each cycle; a stalled
 * context donates its slots to the other (the property that makes SMT
 * attractive for miss-bound commercial workloads).
 */

#ifndef SSTSIM_CORE_SMT_HH
#define SSTSIM_CORE_SMT_HH

#include <array>
#include <deque>
#include <memory>

#include "branch/predictor.hh"
#include "common/stats.hh"
#include "core/core.hh"

namespace sst
{

/** Two-context in-order core over one CorePort. */
class SmtCore
{
  public:
    static constexpr unsigned numThreads = 2;

    /**
     * Each context runs its own program against its own memory image
     * (separate logical address spaces; the shared caches see them
     * under distinct physical salts, as a real core would via the TLB).
     */
    SmtCore(const CoreParams &params,
            std::array<const Program *, numThreads> programs,
            std::array<MemoryImage *, numThreads> memories,
            CorePort &port);

    SmtCore(const SmtCore &) = delete;
    SmtCore &operator=(const SmtCore &) = delete;

    /** Advance one cycle. */
    void tick();

    /** True when every context has halted. */
    bool halted() const;
    bool threadHalted(unsigned tid) const;

    Cycle cycles() const { return now_; }
    std::uint64_t instsRetired(unsigned tid) const;
    std::uint64_t totalInstsRetired() const;
    /** Aggregate IPC over both contexts. */
    double aggregateIpc() const;

    const ArchState &archState(unsigned tid) const;
    StatGroup &stats() { return stats_; }

    /** Attach a structured event ring (see Core::attachTraceBuffer). */
    void attachTraceBuffer(trace::TraceBuffer *buf) { traceBuf_ = buf; }

    /** Per-category cycle attribution; complete after the last tick()
     *  (SMT holds nothing pending, so no finalize step is needed). */
    trace::CpiStack &cpiStack() { return cpiStack_; }

  private:
    struct Context
    {
        const Program *program = nullptr;
        MemoryImage *memory = nullptr;
        ArchState arch;
        std::array<Cycle, numArchRegs> regReady{};
        Cycle frontEndReadyAt = 0;
        Addr lastFetchLine = invalidAddr;
        Cycle fetchLineReady = 0;
        Addr salt = 0;
        Scalar *committed = nullptr;
        std::unique_ptr<ReturnAddressStack> ras;
    };

    /** Try to issue one instruction from @p ctx. @return true on issue. */
    bool issueOne(Context &ctx);
    void drainStoreBuffer();
    Cycle fetchReady(Context &ctx);

    /** Record one structured event (a null check when no ring is
     *  attached). */
    void record(trace::TraceKind kind, std::uint64_t pc, SeqNum seq = 0,
                std::uint32_t arg = 0)
    {
        if (traceBuf_)
            traceBuf_->record(trace::TraceEvent{
                now_, pc, seq, arg, kind, trace::TraceStrand::Main});
    }

    /** First noted stall per cycle wins (see Core::block). */
    void noteStall(trace::CpiCat cat)
    {
        if (stallCat_ == trace::CpiCat::Other)
            stallCat_ = cat;
    }

    CoreParams params_;
    CorePort &port_;
    Cycle now_ = 0;

    std::array<Context, numThreads> contexts_;

    /** Shared structures. */
    std::unique_ptr<BranchPredictor> predictor_;
    Btb btb_;
    Cycle divBusyUntil_ = 0;
    struct PendingStore
    {
        Addr addr;
        unsigned size;
        Cycle issuableAt;
    };
    std::deque<PendingStore> storeBuffer_;

    StatGroup stats_;
    trace::CpiStack cpiStack_{stats_};
    Scalar &cyclesStat_;
    Scalar &branches_;
    Scalar &mispredicts_;
    Scalar &slotConflictCycles_;
    trace::TraceBuffer *traceBuf_ = nullptr;
    trace::CpiCat stallCat_ = trace::CpiCat::Other;
};

} // namespace sst

#endif // SSTSIM_CORE_SMT_HH
