#include "mem/cache.hh"

#include <bit>

#include "common/logging.hh"
#include "snap/snap.hh"

namespace sst
{

Cache::Cache(const CacheParams &params, StatGroup &parentStats)
    : params_(params),
      lineMask_(params.lineBytes - 1),
      numSets_(0),
      lineShift_(0),
      rng_(0xcac4e + std::hash<std::string>{}(params.name)),
      stats_(params.name),
      accesses_(stats_.addScalar("accesses", "total probes")),
      hits_(stats_.addScalar("hits", "probe hits")),
      misses_(stats_.addScalar("misses", "probe misses")),
      evictions_(stats_.addScalar("evictions", "valid lines replaced")),
      writebacks_(stats_.addScalar("writebacks", "dirty lines replaced"))
{
    fatal_if(!std::has_single_bit(
                 static_cast<std::uint64_t>(params.lineBytes)),
             "%s: line size %u not a power of two", params.name.c_str(),
             params.lineBytes);
    fatal_if(params.assoc == 0, "%s: zero associativity",
             params.name.c_str());
    std::uint64_t numLines = params.sizeBytes / params.lineBytes;
    fatal_if(numLines == 0 || numLines % params.assoc != 0,
             "%s: size/assoc/line geometry invalid", params.name.c_str());
    numSets_ = static_cast<unsigned>(numLines / params.assoc);
    fatal_if(!std::has_single_bit(static_cast<std::uint64_t>(numSets_)),
             "%s: set count %u not a power of two", params.name.c_str(),
             numSets_);
    lineShift_ = static_cast<unsigned>(std::countr_zero(
        static_cast<std::uint64_t>(params.lineBytes)));
    lines_.resize(numLines);
    mruWay_.assign(numSets_, 0);

    stats_.addFormula("miss_rate", "misses / accesses", [this] {
        auto a = accesses_.value();
        return a ? static_cast<double>(misses_.value())
                       / static_cast<double>(a)
                 : 0.0;
    });

    parentStats.addChild(stats_);
}

unsigned
Cache::setIndex(Addr addr) const
{
    return static_cast<unsigned>((addr >> lineShift_) & (numSets_ - 1));
}

Addr
Cache::tagOf(Addr addr) const
{
    return addr >> lineShift_;
}

Cache::Line *
Cache::findLine(Addr addr)
{
    unsigned set = setIndex(addr);
    Addr tag = tagOf(addr);
    unsigned hint = mruWay_[set];
    {
        Line &line = lines_[set * params_.assoc + hint];
        if (line.valid && line.tag == tag)
            return &line;
    }
    for (unsigned w = 0; w < params_.assoc; ++w) {
        if (w == hint)
            continue;
        Line &line = lines_[set * params_.assoc + w];
        if (line.valid && line.tag == tag) {
            mruWay_[set] = w;
            return &line;
        }
    }
    return nullptr;
}

const Cache::Line *
Cache::findLine(Addr addr) const
{
    return const_cast<Cache *>(this)->findLine(addr);
}

Cache::LookupResult
Cache::access(Addr addr, bool isStore, Cycle now)
{
    ++accesses_;
    Line *line = findLine(addr);
    LookupResult res;
    if (line) {
        ++hits_;
        res.hit = true;
        Cycle settled = now + params_.hitLatency;
        res.readyCycle = std::max(settled, line->readyCycle);
        line->lastUse = ++useCounter_;
        line->nruRef = true;
        if (isStore)
            line->dirty = true;
    } else {
        ++misses_;
    }
    return res;
}

bool
Cache::contains(Addr addr) const
{
    return findLine(addr) != nullptr;
}

unsigned
Cache::victimWay(unsigned set)
{
    // Prefer an invalid way.
    for (unsigned w = 0; w < params_.assoc; ++w)
        if (!lines_[set * params_.assoc + w].valid)
            return w;

    switch (params_.policy) {
      case ReplPolicy::Random:
        return static_cast<unsigned>(rng_.below(params_.assoc));
      case ReplPolicy::Nru: {
        for (int pass = 0; pass < 2; ++pass) {
            for (unsigned w = 0; w < params_.assoc; ++w) {
                Line &line = lines_[set * params_.assoc + w];
                if (!line.nruRef)
                    return w;
            }
            // All referenced: clear and retry.
            for (unsigned w = 0; w < params_.assoc; ++w)
                lines_[set * params_.assoc + w].nruRef = false;
        }
        return 0;
      }
      case ReplPolicy::Lru:
      default: {
        unsigned victim = 0;
        std::uint64_t oldest = ~std::uint64_t{0};
        for (unsigned w = 0; w < params_.assoc; ++w) {
            Line &line = lines_[set * params_.assoc + w];
            if (line.lastUse < oldest) {
                oldest = line.lastUse;
                victim = w;
            }
        }
        return victim;
      }
    }
}

Eviction
Cache::fill(Addr addr, Cycle fillReady, bool dirty)
{
#if SST_TRACE
    if (traceBuf_)
        traceBuf_->record(trace::TraceEvent{
            fillReady, lineAddr(addr), 0, traceLevel_,
            trace::TraceKind::Fill, trace::TraceStrand::Mem});
#endif
    // Refill of a present line (e.g. prefetch completing after a demand
    // fill): just update state.
    if (Line *line = findLine(addr)) {
        line->readyCycle = std::min(line->readyCycle, fillReady);
        line->dirty = line->dirty || dirty;
        return Eviction{};
    }

    unsigned set = setIndex(addr);
    unsigned way = victimWay(set);
    mruWay_[set] = way;
    Line &line = lines_[set * params_.assoc + way];

    Eviction ev;
    if (line.valid) {
        ev.valid = true;
        ev.dirty = line.dirty;
        ev.lineAddr = line.tag << lineShift_;
        ++evictions_;
        if (line.dirty)
            ++writebacks_;
    }

    line.valid = true;
    line.dirty = dirty;
    line.nruRef = true;
    line.tag = tagOf(addr);
    line.lastUse = ++useCounter_;
    line.readyCycle = fillReady;
    return ev;
}

void
Cache::invalidate(Addr addr)
{
    if (Line *line = findLine(addr))
        line->valid = false;
}

void
Cache::flush()
{
    for (auto &line : lines_)
        line = Line{};
}


template <class Io>
void
Cache::io(Io &s)
{
    s.tag("cache");
    s.expect(static_cast<std::uint32_t>(lines_.size()), "cache lines");
    for (Line &l : lines_) {
        s.b(l.valid);
        s.b(l.dirty);
        s.b(l.nruRef);
        s.u64(l.tag);
        s.u64(l.lastUse);
        s.u64(l.readyCycle);
    }
    s.expect(static_cast<std::uint32_t>(mruWay_.size()), "cache sets");
    for (std::uint32_t &way : mruWay_)
        s.u32(way);
    s.u64(useCounter_);
    rng_.io(s);
}

template void Cache::io(snap::Writer &);
template void Cache::io(snap::Reader &);

} // namespace sst
