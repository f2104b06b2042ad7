/**
 * @file
 * In-order, stall-on-use scoreboard core — the ROCK base pipeline
 * without speculation. Loads are non-blocking (hit-under-miss via the
 * MSHRs); the pipeline stalls only when an instruction *uses* a value
 * that is not ready. Stores retire into a finite store buffer that
 * drains to the L1 in the background.
 */

#ifndef SSTSIM_CORE_INORDER_HH
#define SSTSIM_CORE_INORDER_HH

#include <array>
#include <deque>

#include "core/core.hh"

namespace sst
{

/** The baseline core every speedup in the benches is normalised to. */
class InOrderCore : public Core
{
  public:
    InOrderCore(const CoreParams &params, const Program &program,
                MemoryImage &memory, CorePort &port);

    const char *model() const override { return "inorder"; }

  protected:
    void cycle() override;
    void ioExtra(snap::Writer &s) override { state(s); }
    void ioExtra(snap::Reader &s) override { state(s); }

  private:
    template <class Io> void state(Io &s);

    /** Try to issue the instruction at arch_.pc. @return true on issue;
     *  on failure the first failing condition is recorded as the
     *  cycle's blocker. */
    bool issueOne();
    void drainStoreBuffer();

    /** Cycle at which each architectural register's value is ready. */
    std::array<Cycle, numArchRegs> regReady_{};

    /** True when the register's pending value comes from a load whose
     *  latency includes coherence traffic (invalidation/intervention or
     *  a line lost to a remote write) — use-stalls on it are charged to
     *  the Coherence CPI bucket instead of UseStall. */
    std::array<bool, numArchRegs> regCoh_{};

    /** Pending stores: architecturally applied, timing queued. */
    struct PendingStore
    {
        Addr addr;
        unsigned size;
        Cycle issuableAt;
    };
    std::deque<PendingStore> storeBuffer_;

    /** Unpipelined divider busy-until. */
    Cycle divBusyUntil_ = 0;
    /** Front-end redirect stall (mispredict/branch resolution). */
    Cycle frontEndReadyAt_ = 0;

    Executor exec_;

    Scalar &stallUseCycles_;
    Scalar &stallStoreBufCycles_;
    Scalar &stallFetchCycles_;
};

} // namespace sst

#endif // SSTSIM_CORE_INORDER_HH
