#include "mem/dram.hh"

#include "common/logging.hh"
#include "snap/snap.hh"

namespace sst
{

Dram::Dram(const DramParams &params, StatGroup &parentStats)
    : params_(params),
      banks_(params.banks),
      stats_(params.name),
      reads_(stats_.addScalar("reads", "line reads")),
      writes_(stats_.addScalar("writes", "line writebacks")),
      rowHits_(stats_.addScalar("row_hits", "open-row column accesses")),
      rowMisses_(stats_.addScalar("row_misses",
                                  "activate+precharge accesses")),
      channelStallCycles_(stats_.addScalar(
          "channel_stall_cycles", "cycles requests waited on the channel")),
      latency_(stats_.addDist("latency", "end-to-end access latency",
                              2048, 32))
{
    fatal_if(params.banks == 0, "dram needs at least one bank");
    stats_.addFormula("row_hit_rate", "row hits / accesses", [this] {
        auto total = rowHits_.value() + rowMisses_.value();
        return total ? static_cast<double>(rowHits_.value())
                           / static_cast<double>(total)
                     : 0.0;
    });
    parentStats.addChild(stats_);
}

Cycle
Dram::access(Addr lineAddr, Cycle now, bool isWrite)
{
    if (isWrite)
        ++writes_;
    else
        ++reads_;

    Addr row = lineAddr / params_.rowBytes;
    Bank &bank = banks_[row % params_.banks];

    Cycle start = std::max(now + params_.baseLatency, bank.busyUntil);

    unsigned deviceLat;
    if (bank.openRow == row) {
        ++rowHits_;
        deviceLat = params_.tCas;
    } else {
        ++rowMisses_;
        deviceLat = params_.tRcdRp + params_.tCas;
        bank.openRow = row;
    }

    Cycle dataReady = start + deviceLat;
    // Serialise the transfer on the shared channel.
    Cycle xferStart = std::max(dataReady, channelFree_);
    channelStallCycles_ += xferStart - dataReady;
    Cycle done = xferStart + params_.channelCycles;
    channelFree_ = done;
    bank.busyUntil = dataReady;

    latency_.sample(done - now);
    if (traceBuf_)
        traceBuf_->record(trace::TraceEvent{
            done, lineAddr, 0, 3, trace::TraceKind::Fill,
            trace::TraceStrand::Mem});
    return done;
}

void
Dram::drain()
{
    for (auto &bank : banks_)
        bank = Bank{};
    channelFree_ = 0;
}


template <class Io>
void
Dram::io(Io &s)
{
    s.tag("dram");
    s.expect(static_cast<std::uint32_t>(banks_.size()), "DRAM banks");
    for (Bank &b : banks_) {
        s.u64(b.busyUntil);
        s.u64(b.openRow);
    }
    s.u64(channelFree_);
}

template void Dram::io(snap::Writer &);
template void Dram::io(snap::Reader &);

} // namespace sst
