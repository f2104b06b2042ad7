#include "mem/prefetcher.hh"
#include "snap/snap.hh"

namespace sst
{

Prefetcher::Prefetcher(const PrefetcherParams &params, unsigned lineBytes,
                       const std::string &name, StatGroup &parentStats)
    : params_(params),
      lineBytes_(lineBytes),
      stats_(name),
      issued_(stats_.addScalar("issued", "prefetches issued")),
      useful_(stats_.addScalar("useful",
                               "demand hits on prefetched lines"))
{
    stats_.addFormula("accuracy", "useful / issued", [this] {
        auto i = issued_.value();
        return i ? static_cast<double>(useful_.value())
                       / static_cast<double>(i)
                 : 0.0;
    });
    parentStats.addChild(stats_);
}

const std::vector<Addr> &
Prefetcher::onAccess(Addr lineAddr, bool miss)
{
    targets_.clear();
    if (!params_.enabled)
        return targets_;
    if (params_.mode == PrefetchMode::Stride)
        strideTargets(lineAddr, miss);
    else
        nextLineTargets(lineAddr, miss);
    return targets_;
}

void
Prefetcher::nextLineTargets(Addr lineAddr, bool miss)
{
    if (!miss && lineAddr != lastTrigger_)
        return;
    lastTrigger_ = lineAddr;
    for (unsigned i = 0; i < params_.degree; ++i)
        targets_.push_back(lineAddr
                           + static_cast<Addr>(params_.distance + i)
                                 * lineBytes_);
}

void
Prefetcher::strideTargets(Addr lineAddr, bool miss)
{
    if (!miss && lineAddr != lastTrigger_)
        return;
    lastTrigger_ = lineAddr;

    if (strideTable_.empty())
        strideTable_.resize(64);
    // Streams that march through memory cross region boundaries; tag by
    // a coarse 64 KB region so one stream keeps hitting its own entry.
    Addr region = lineAddr >> 16;
    // Mix the tag bits before indexing: power-of-two-spaced arrays
    // would otherwise alias to one entry.
    Addr idx = (region ^ (region >> 6) ^ (region >> 12))
               % strideTable_.size();
    StrideEntry &e = strideTable_[idx];
    if (e.regionTag != region) {
        e.regionTag = region;
        e.lastAddr = lineAddr;
        e.delta = 0;
        e.confidence = 0;
        return;
    }

    std::int64_t delta = static_cast<std::int64_t>(lineAddr)
                         - static_cast<std::int64_t>(e.lastAddr);
    if (delta != 0 && delta == e.delta) {
        if (e.confidence < 4)
            ++e.confidence;
    } else if (delta != 0) {
        e.delta = delta;
        e.confidence = 1;
    }
    e.lastAddr = lineAddr;

    if (e.confidence >= 2) {
        for (unsigned i = 0; i < params_.degree; ++i) {
            std::int64_t target =
                static_cast<std::int64_t>(lineAddr)
                + e.delta
                      * static_cast<std::int64_t>(params_.distance + i);
            if (target > 0)
                targets_.push_back(static_cast<Addr>(target));
        }
    }
}


template <class Io>
void
Prefetcher::io(Io &s)
{
    s.tag("prefetcher");
    s.u64(lastTrigger_);
    s.expect(static_cast<std::uint32_t>(strideTable_.size()),
             "stride table entries");
    for (StrideEntry &e : strideTable_) {
        s.u64(e.regionTag);
        s.u64(e.lastAddr);
        s.i64(e.delta);
        s.u32(e.confidence);
    }
}

template void Prefetcher::io(snap::Writer &);
template void Prefetcher::io(snap::Reader &);

} // namespace sst
