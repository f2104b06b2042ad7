/**
 * @file
 * Out-of-order core — the comparator the paper claims SST beats on
 * commercial workloads while spending far less area and power.
 *
 * Classic rename/ROB/issue-queue/LSQ machine. Deliberately *generous*
 * modelling choices (perfect memory disambiguation with store-to-load
 * forwarding, no wrong-path resource pollution) bias results in the
 * OoO core's favour, making the headline SST comparison conservative.
 */

#ifndef SSTSIM_CORE_OOO_HH
#define SSTSIM_CORE_OOO_HH

#include <array>
#include <deque>

#include "core/core.hh"

namespace sst
{

/** ROB-window out-of-order model. */
class OoOCore : public Core
{
  public:
    OoOCore(const CoreParams &params, const Program &program,
            MemoryImage &memory, CorePort &port);

    const char *model() const override { return "ooo"; }

  protected:
    void cycle() override;
    void idleAdvance(Cycle n) override;
    void ioExtra(snap::Writer &s) override { state(s); }
    void ioExtra(snap::Reader &s) override { state(s); }

  private:
    template <class Io> void state(Io &s);

    enum class State
    {
        Waiting,  ///< in issue queue, operands possibly outstanding
        Issued,   ///< executing; completes at doneCycle
        Done      ///< result available, waiting to commit
    };

    struct RobEntry
    {
        SeqNum seq = 0;
        std::uint64_t pc = 0;
        Inst inst;
        StepInfo step;
        State state = State::Waiting;
        Cycle doneCycle = invalidCycle;
        Cycle retryAt = 0;         ///< load MSHR-reject backoff
        SeqNum src1Producer = 0;   ///< 0 = value already committed
        SeqNum src2Producer = 0;
        bool isLd = false;
        bool isSt = false;
        bool mispredicted = false;
    };

    void commitStage();
    unsigned issueStage();
    unsigned dispatchStage();

    RobEntry *entryFor(SeqNum seq);
    /** False while producer @p seq still waits to issue; otherwise folds
     *  its completion cycle into @p readyAt. */
    bool producerIssued(SeqNum seq, Cycle &readyAt);
    /** Youngest overlapping in-flight store older than @p load, if any. */
    RobEntry *olderStoreFor(const RobEntry &load);

    std::deque<RobEntry> rob_;
    std::array<SeqNum, numArchRegs> lastProducer_{};
    SeqNum nextSeq_ = 1;

    unsigned iqOccupancy_ = 0;
    unsigned lsqOccupancy_ = 0;
    Cycle divBusyUntil_ = 0;
    Cycle frontEndReadyAt_ = 0;
    SeqNum redirectBlockedOn_ = 0; ///< unresolved mispredicted branch
    bool fetchHalted_ = false;     ///< HALT dispatched; drain only

    Executor exec_;

    Scalar &robFullCycles_;
    Scalar &iqFullCycles_;
    Scalar &lsqFullCycles_;
    Distribution &robOccupancy_;
};

} // namespace sst

#endif // SSTSIM_CORE_OOO_HH
