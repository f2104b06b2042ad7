#include "mem/cache.hh"

#include <bit>
#include <cstring>

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
    // The valid bit needs a free top tag bit.
    fatal_if(lineShift_ == 0, "%s: line size must be at least 2 bytes",
             params.name.c_str());
    // Set block: three 8-byte rows, the flag row, the MRU way. Whole
    // host cache lines when that stays within 32 bytes per line (every
    // power-of-two associativity but 1); 8-byte granules otherwise.
    const std::size_t a = params.assoc;
    mruOffset_ = (25 * a + 3) / 4 * 4;
    std::size_t bytes = mruOffset_ + sizeof(std::uint32_t);
    std::size_t lines64 = (bytes + 63) / 64 * 64;
    setStride_ = lines64 <= 32 * a ? lines64 : (bytes + 7) / 8 * 8;
    panic_if(setStride_ > 32 * a, "%s: %zu-byte set block for %zu ways",
             params.name.c_str(), setStride_, a);
    // Zeroed: every way invalid with stale tag 0, MRU way 0.
    storage_.reset(new Block[(numSets_ * setStride_ + sizeof(Block) - 1)
                             / sizeof(Block)]());

    stats_.addFormula("miss_rate", "misses / accesses", [this] {
        auto a = accesses_.value();
        return a ? static_cast<double>(misses_.value())
                       / static_cast<double>(a)
                 : 0.0;
    });

    parentStats.addChild(stats_);
}

unsigned
Cache::victimWay(unsigned set)
{
    const unsigned a = params_.assoc;
    const Addr *tags = tagRow(set);
    // Prefer an invalid way.
    for (unsigned w = 0; w < a; ++w)
        if (!(tags[w] & kValid))
            return w;

    switch (params_.policy) {
      case ReplPolicy::Random:
        return static_cast<unsigned>(rng_.below(a));
      case ReplPolicy::Nru: {
        std::uint8_t *flags = flagRow(set);
        for (int pass = 0; pass < 2; ++pass) {
            for (unsigned w = 0; w < a; ++w)
                if (!(flags[w] & kNruRef))
                    return w;
            // All referenced: clear and retry.
            for (unsigned w = 0; w < a; ++w)
                flags[w] &= static_cast<std::uint8_t>(~kNruRef);
        }
        return 0;
      }
      case ReplPolicy::Lru:
      default: {
        const std::uint64_t *lru = lruRow(set);
        unsigned victim = 0;
        std::uint64_t oldest = ~std::uint64_t{0};
        for (unsigned w = 0; w < a; ++w) {
            if (lru[w] < oldest) {
                oldest = lru[w];
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
    if (traceBuf_)
        traceBuf_->record(trace::TraceEvent{
            fillReady, lineAddr(addr), 0, traceLevel_,
            trace::TraceKind::Fill, trace::TraceStrand::Mem});
    unsigned set = setIndex(addr);
    // Refill of a present line (e.g. prefetch completing after a demand
    // fill): just update state.
    if (int w = findWay(set, tagOf(addr) | kValid); w >= 0) {
        Cycle &ready = readyRow(set)[w];
        ready = std::min(ready, fillReady);
        if (dirty)
            flagRow(set)[w] |= kDirty;
        return Eviction{};
    }

    unsigned way = victimWay(set);
    mruWay(set) = way;
    Addr &tag = tagRow(set)[way];
    std::uint8_t &flags = flagRow(set)[way];

    Eviction ev;
    if (tag & kValid) {
        ev.valid = true;
        ev.dirty = flags & kDirty;
        ev.lineAddr = (tag & ~kValid) << lineShift_;
        ++evictions_;
        if (ev.dirty)
            ++writebacks_;
    }

    tag = tagOf(addr) | kValid;
    flags = dirty ? kNruRef | kDirty : kNruRef;
    lruRow(set)[way] = ++useCounter_;
    readyRow(set)[way] = fillReady;
    return ev;
}

void
Cache::invalidate(Addr addr)
{
    unsigned set = setIndex(addr);
    if (int w = findWay(set, tagOf(addr) | kValid); w >= 0)
        tagRow(set)[w] &= ~kValid;
}

void
Cache::flush()
{
    // Lines back to the power-on state; the MRU ways stay.
    for (unsigned set = 0; set < numSets_; ++set)
        std::memset(setBlock(set), 0, mruOffset_);
}


template <class Io>
void
Cache::io(Io &s)
{
    s.tag("cache");
    const unsigned a = params_.assoc;
    s.expect(static_cast<std::uint32_t>(std::size_t{numSets_} * a),
             "cache lines");
    // The pre-row layout's per-line record, set by set and way by way:
    // valid, dirty, NRU bit, the (possibly stale) tag, LRU stamp, ready
    // cycle.
    for (unsigned set = 0; set < numSets_; ++set) {
        for (unsigned w = 0; w < a; ++w) {
            Addr &row = tagRow(set)[w];
            std::uint8_t &flags = flagRow(set)[w];
            bool valid = row & kValid;
            bool dirty = flags & kDirty;
            bool nruRef = flags & kNruRef;
            Addr tag = row & ~kValid;
            s.b(valid);
            s.b(dirty);
            s.b(nruRef);
            s.u64(tag);
            s.u64(lruRow(set)[w]);
            s.u64(readyRow(set)[w]);
            if constexpr (Io::loading) {
                fatal_if(tag >> (64 - lineShift_),
                         "%s: snapshot tag %#llx does not fit the line "
                         "size",
                         params_.name.c_str(),
                         static_cast<unsigned long long>(tag));
                row = valid ? tag | kValid : tag;
                flags = static_cast<std::uint8_t>(
                    (dirty ? kDirty : 0) | (nruRef ? kNruRef : 0));
            }
        }
    }
    s.expect(static_cast<std::uint32_t>(numSets_), "cache sets");
    for (unsigned set = 0; set < numSets_; ++set)
        s.u32(mruWay(set));
    s.u64(useCounter_);
    rng_.io(s);
}

template void Cache::io(snap::Writer &);
template void Cache::io(snap::Reader &);

} // namespace sst
