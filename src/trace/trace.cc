#include "trace/trace.hh"

#include "common/logging.hh"
#include "snap/snap.hh"

namespace sst::trace
{

const char *
traceKindName(TraceKind kind)
{
    switch (kind) {
      case TraceKind::Fetch: return "fetch";
      case TraceKind::Exec: return "exec";
      case TraceKind::Defer: return "defer";
      case TraceKind::Replay: return "replay";
      case TraceKind::Redefer: return "redefer";
      case TraceKind::Trigger: return "trigger";
      case TraceKind::Checkpoint: return "checkpoint";
      case TraceKind::Commit: return "commit";
      case TraceKind::Rollback: return "rollback";
      case TraceKind::SsqDrain: return "ssq_drain";
      case TraceKind::Fill: return "fill";
      case TraceKind::CohInvalidate: return "coh_invalidate";
      case TraceKind::CohUpgrade: return "coh_upgrade";
      case TraceKind::CohIntervention: return "coh_intervention";
      case TraceKind::LockElide: return "lock_elide";
      case TraceKind::NumKinds: break;
    }
    panic("bad TraceKind %d", static_cast<int>(kind));
}

const char *
traceStrandName(TraceStrand strand)
{
    switch (strand) {
      case TraceStrand::Main: return "main/commit";
      case TraceStrand::Ahead: return "ahead strand";
      case TraceStrand::Behind: return "behind strand";
      case TraceStrand::Mem: return "memory";
      case TraceStrand::NumStrands: break;
    }
    panic("bad TraceStrand %d", static_cast<int>(strand));
}

TraceBuffer::TraceBuffer(std::size_t capacity)
    : capacity_(capacity ? capacity : 1)
{
    events_.reserve(capacity_ < defaultCapacity ? capacity_
                                                : defaultCapacity);
}

std::vector<TraceEvent>
TraceBuffer::snapshot() const
{
    std::vector<TraceEvent> out;
    out.reserve(events_.size());
    // oldest_ is 0 until the ring wraps, so this covers both cases.
    for (std::size_t i = 0; i < events_.size(); ++i)
        out.push_back(events_[(oldest_ + i) % events_.size()]);
    return out;
}

void
TraceBuffer::clear()
{
    events_.clear();
    oldest_ = 0;
    recorded_ = 0;
    dropped_ = 0;
}

template <class Io>
void
TraceBuffer::io(Io &s)
{
    s.tag("tracebuf");
    s.expect(static_cast<std::uint64_t>(capacity_), "trace buffer capacity");
    s.u64(oldest_);
    s.u64(recorded_);
    s.u64(dropped_);
    snap::seq(
        s, snap::Width::u64, events_, 30,
        [&](TraceEvent &ev) {
            s.u64(ev.cycle);
            s.u64(ev.pc);
            s.u64(ev.seq);
            s.u32(ev.arg);
            s.enum8(ev.kind, TraceKind::NumKinds, "trace kind");
            s.enum8(ev.strand, TraceStrand::NumStrands, "trace strand");
        },
        capacity_);
    // A cursor past the ring would make the next record() write out of
    // bounds, so restored cursors must describe the restored events.
    if constexpr (Io::loading)
        fatal_if(oldest_ >= capacity_
                     || (oldest_ != 0 && events_.size() < capacity_)
                     || dropped_ > recorded_
                     || events_.size() > recorded_,
                 "snapshot: trace buffer cursors (oldest %llu, recorded "
                 "%llu, dropped %llu) do not fit %zu events in a ring of "
                 "%zu (corrupt snapshot)",
                 static_cast<unsigned long long>(oldest_),
                 static_cast<unsigned long long>(recorded_),
                 static_cast<unsigned long long>(dropped_),
                 events_.size(), capacity_);
}

template void TraceBuffer::io(snap::Writer &);
template void TraceBuffer::io(snap::Reader &);

} // namespace sst::trace
