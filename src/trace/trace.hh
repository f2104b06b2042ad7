/**
 * @file
 * Structured pipeline-event tracing.
 *
 * A TraceEvent is a small POD (cycle, strand, seq, pc, kind, arg)
 * recorded into a fixed-capacity per-core ring buffer. With no ring
 * attached, a recording call site costs one pointer check; with one
 * attached, it adds a struct copy. The ring is the simulator's only
 * trace stream: trace/chrome.hh renders it as Chrome trace_event JSON
 * (`sstsim trace`) and as a text log (`trace=true`).
 */

#ifndef SSTSIM_TRACE_TRACE_HH
#define SSTSIM_TRACE_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace sst::trace
{

/** What happened. The set mirrors the SST pipeline's lifecycle plus
 *  the memory-side fill events the paper's MLP story hinges on. */
enum class TraceKind : std::uint8_t
{
    Fetch,      ///< I-fetch started a new cache line
    Exec,       ///< ahead strand executed speculatively
    Defer,      ///< instruction parked in the DQ
    Replay,     ///< behind strand executed a DQ entry
    Redefer,    ///< DQ entry missed again / operand still pending
    Trigger,    ///< L1-miss load opened a speculation region
    Checkpoint, ///< register checkpoint taken (arg = epoch id)
    Commit,     ///< architectural retirement (arg = insts or tid)
    Rollback,   ///< speculation discarded (arg = FailKind)
    SsqDrain,   ///< speculative store drained to memory at commit
    Fill,       ///< cache fill completed (arg = level 1/2/3)
    CohInvalidate,   ///< remote write invalidated a line (arg = victim)
    CohUpgrade,      ///< S->M ownership upgrade (arg = requester)
    CohIntervention, ///< dirty-owner data transfer (arg = requester)
    LockElide,       ///< SLE elided a lock acquire (arg = 1) or
                     ///< aborted back to conventional locking (arg = 0)
    NumKinds
};

/** Which lane of the machine the event belongs to. */
enum class TraceStrand : std::uint8_t
{
    Main,   ///< committed/architectural stream (and the front end)
    Ahead,  ///< SST ahead strand
    Behind, ///< SST behind (replay) strand
    Mem,    ///< cache/DRAM fill machinery
    NumStrands
};

const char *traceKindName(TraceKind kind);
const char *traceStrandName(TraceStrand strand);

/** One recorded event. Kept POD and small (32 bytes) on purpose. */
struct TraceEvent
{
    Cycle cycle = 0;
    std::uint64_t pc = 0; ///< instruction pc, or line address for Fill
    SeqNum seq = 0;       ///< sequence number when the model has one
    std::uint32_t arg = 0; ///< kind-specific (see TraceKind)
    TraceKind kind = TraceKind::Fetch;
    TraceStrand strand = TraceStrand::Main;
};

/**
 * Fixed-capacity overwrite-oldest ring. The default of 64Ki events
 * (2 MiB) holds the tail of any run; dropped() says how many older
 * events were overwritten so exporters can flag truncation instead of
 * silently pretending the trace is complete.
 */
class TraceBuffer
{
  public:
    static constexpr std::size_t defaultCapacity = std::size_t{1} << 16;

    explicit TraceBuffer(std::size_t capacity = defaultCapacity);

    void record(const TraceEvent &ev)
    {
        if (events_.size() < capacity_) {
            events_.push_back(ev);
        } else {
            events_[oldest_] = ev;
            oldest_ = (oldest_ + 1) % capacity_;
            ++dropped_;
        }
        ++recorded_;
    }

    std::size_t capacity() const { return capacity_; }
    /** Events ever recorded (including the overwritten ones). */
    std::uint64_t recorded() const { return recorded_; }
    /** Events lost to overwrite. */
    std::uint64_t dropped() const { return dropped_; }
    std::size_t size() const { return events_.size(); }

    /** The retained events, oldest first. */
    std::vector<TraceEvent> snapshot() const;

    void clear();

    /** Snapshot ring contents + cursors, so a restored run's trace
     *  stream continues byte-identically to an uninterrupted one. */
    template <class Io> void io(Io &s);

  private:
    std::size_t capacity_;
    std::size_t oldest_ = 0;
    std::uint64_t recorded_ = 0;
    std::uint64_t dropped_ = 0;
    std::vector<TraceEvent> events_;
};

} // namespace sst::trace

#endif // SSTSIM_TRACE_TRACE_HH
