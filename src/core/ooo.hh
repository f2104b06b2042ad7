/**
 * @file
 * Out-of-order core — the comparator the paper claims SST beats on
 * commercial workloads while spending far less area and power.
 *
 * Classic rename/ROB/issue-queue/LSQ machine. Deliberately *generous*
 * modelling choices (perfect memory disambiguation with store-to-load
 * forwarding, no wrong-path resource pollution) bias results in the
 * OoO core's favour, making the headline SST comparison conservative.
 *
 * The issue stage is event-driven: the ROB is a fixed ring, an entry
 * joins the ready set only once both of its producers have issued
 * (producer->consumer wakeup lists), and loads search an age-ordered
 * store index instead of the whole window. Every structure beyond the
 * ROB itself is derived from it and rebuilt on restore, so the
 * snapshot format is that of a plain age-ordered ROB.
 */

#ifndef SSTSIM_CORE_OOO_HH
#define SSTSIM_CORE_OOO_HH

#include <algorithm>
#include <array>
#include <bit>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "core/core.hh"

namespace sst
{

/**
 * Fixed-capacity FIFO in age order. The capacity is rounded up to a
 * power of two, so an element's slot is an AND, and an element keeps
 * its slot from push to pop. Shaped like a sequence container (size,
 * clear, resize, iteration oldest first) so snap::seq can save and
 * load it.
 */
template <class T>
class Ring
{
  public:
    explicit Ring(std::size_t capacity)
        : slots_(std::bit_ceil(std::max<std::size_t>(capacity, 1))),
          mask_(slots_.size() - 1)
    {
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::size_t capacity() const { return slots_.size(); }
    /** Slot of the oldest element. */
    std::size_t head() const { return head_; }

    /** Slot of the element @p age places younger than the oldest. */
    std::size_t slot(std::size_t age) const { return (head_ + age) & mask_; }
    T &atSlot(std::size_t slot) { return slots_[slot]; }
    T &operator[](std::size_t age) { return slots_[slot(age)]; }
    T &front() { return slots_[head_]; }
    T &back() { return slots_[slot(size_ - 1)]; }

    /** Append @p value (the caller keeps size() below capacity());
     *  @return its slot. */
    std::size_t push(T value = {})
    {
        std::size_t s = slot(size_++);
        slots_[s] = std::move(value);
        return s;
    }
    void pop()
    {
        head_ = (head_ + 1) & mask_;
        --size_;
    }

    void clear() { head_ = size_ = 0; }
    /** Grow to @p n elements (snap::seq's load step, after clear()). */
    void resize(std::size_t n)
    {
        panic_if(n > capacity(), "ring resize %zu past capacity %zu", n,
                 capacity());
        while (size_ < n)
            push();
    }

    struct Iter
    {
        Ring *ring;
        std::size_t age;
        T &operator*() const { return (*ring)[age]; }
        Iter &operator++()
        {
            ++age;
            return *this;
        }
        bool operator!=(const Iter &o) const { return age != o.age; }
    };
    Iter begin() { return {this, 0}; }
    Iter end() { return {this, size_}; }

  private:
    std::vector<T> slots_;
    std::size_t mask_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

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

    /** No wakeup-list link. */
    static constexpr std::uint32_t kNoLink = ~std::uint32_t{0};

    /** Issue-scheduling state of one ROB slot (derived, never saved). */
    struct Sched
    {
        /** Earliest issue cycle from the issued producers' done cycles
         *  and the MSHR backoff (the divider is applied at issue). */
        Cycle readyAt = 0;
        /** The entry's own done cycle once it has issued; invalidCycle
         *  while it waits. */
        Cycle done = invalidCycle;
        /** Head of this entry's consumer list: slot * 2 + operand. */
        std::uint32_t consumers = kNoLink;
        /** Next link in a producer's consumer list, per operand. */
        std::array<std::uint32_t, 2> next{kNoLink, kNoLink};
        std::uint8_t pending = 0; ///< producers still waiting to issue
        bool div = false;         ///< needs the unpipelined divider
    };

    /** An Issued entry not yet flipped to Done. */
    struct InFlight
    {
        SeqNum seq;
        Cycle doneCycle;
    };

    /** One in-window store: its byte range and ROB slot. */
    struct StoreRef
    {
        SeqNum seq = 0;
        Addr lo = 0;
        Addr hi = 0;
        std::size_t slot = 0;
    };

    void commitStage();
    unsigned issueStage();
    unsigned dispatchStage();

    /** Try to issue the ready entry in @p slot; @return true if it
     *  issued (and so took an issue slot). */
    bool tryIssue(std::size_t slot);
    /** Record that the entry in @p slot issued and completes at
     *  @p done, and wake its consumers. */
    void wakeConsumers(std::size_t slot, Cycle done);
    /** Wire operand @p operand of the Waiting entry in @p slot to its
     *  producer @p seq: a wakeup link if that producer still waits,
     *  else its done cycle folded into the entry's readyAt. */
    void linkProducer(std::size_t slot, unsigned operand, SeqNum seq);
    /** Link both operands of the Waiting entry in @p slot and mark it
     *  ready if neither producer still waits. */
    void wire(std::size_t slot);
    void markReady(std::size_t slot)
    {
        ready_[slot / 64] |= std::uint64_t{1} << (slot % 64);
    }
    void clearReady(std::size_t slot)
    {
        ready_[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
    }
    /** Flip to Done the entries of inFlight_[0, @p settled) (issued in
     *  earlier cycles) whose done cycle has come and whose seq is below
     *  @p limit, and drop the ones that committed. */
    void flipDone(std::size_t settled, SeqNum limit);
    /** Rebuild every derived structure from the loaded ROB. */
    void rebuildSchedule();

    /** True while @p seq is in the window. */
    bool inWindow(SeqNum seq)
    {
        return !rob_.empty() && seq >= rob_.front().seq
               && seq - rob_.front().seq < rob_.size();
    }
    /** ROB slot of in-window @p seq (window seqs are consecutive). */
    std::size_t slotOf(SeqNum seq)
    {
        return rob_.slot(seq - rob_.front().seq);
    }
    /** Youngest overlapping in-window store older than @p load. */
    const StoreRef *olderStoreFor(const RobEntry &load);

    Ring<RobEntry> rob_;
    std::array<SeqNum, numArchRegs> lastProducer_{};
    SeqNum nextSeq_ = 1;

    // Derived from rob_ (see rebuildSchedule()).
    std::vector<Sched> sched_;         ///< per ROB slot
    std::vector<std::uint64_t> ready_; ///< Waiting, producers issued
    std::vector<InFlight> inFlight_;
    Ring<StoreRef> stores_;

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
