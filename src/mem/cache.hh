/**
 * @file
 * Set-associative cache tag/state array with pluggable replacement.
 *
 * The cache is a timing structure only: data values live in the
 * MemoryImage; the cache decides hit/miss, tracks dirtiness for
 * writeback traffic, and supports "fill now, ready later" lines whose
 * readyCycle models an in-flight fill (hit-under-miss returns the fill's
 * completion time instead of a fresh miss).
 */

#ifndef SSTSIM_MEM_CACHE_HH
#define SSTSIM_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "trace/trace.hh"

namespace sst
{

/** Replacement policy selector. */
enum class ReplPolicy
{
    Lru,
    Random,
    Nru
};

/** Static geometry and latency of one cache level. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned assoc = 4;
    unsigned lineBytes = 64;
    unsigned hitLatency = 3;
    ReplPolicy policy = ReplPolicy::Lru;
};

/** A line evicted by a fill. */
struct Eviction
{
    bool valid = false;
    bool dirty = false;
    Addr lineAddr = invalidAddr;
};

/** Tag/state array. */
class Cache
{
  public:
    explicit Cache(const CacheParams &params, StatGroup &parentStats);

    const CacheParams &params() const { return params_; }

    /** Line-aligned address of @p addr. */
    Addr lineAddr(Addr addr) const { return addr & ~lineMask_; }

    /** Result of a lookup. */
    struct LookupResult
    {
        bool hit = false;
        /** For hits: cycle the line's data is actually present
         *  (== now + hitLatency for settled lines; the in-flight fill's
         *  completion for lines still being filled). */
        Cycle readyCycle = 0;
    };

    /**
     * Probe for @p addr at @p now. A hit updates replacement state; a
     * store hit marks the line dirty. Misses leave the array unchanged
     * (the owner decides whether to fill).
     */
    LookupResult access(Addr addr, bool isStore, Cycle now);

    /** Probe without updating replacement state or stats. */
    bool contains(Addr addr) const;

    /**
     * Install the line holding @p addr with data arriving at
     * @p fillReady. @return the victim line (for writeback traffic).
     */
    Eviction fill(Addr addr, Cycle fillReady, bool dirty);

    /** Invalidate the line holding @p addr if present. */
    void invalidate(Addr addr);

    /** Invalidate everything (used between benchmark phases). */
    void flush();

    StatGroup &stats() { return stats_; }
    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }

    /** Emit a Fill event for every line install into @p buf, tagged with
     *  this cache's @p level (1 = L1, 2 = L2). Null detaches. */
    void setTrace(trace::TraceBuffer *buf, std::uint32_t level)
    {
        traceBuf_ = buf;
        traceLevel_ = level;
    }

    /** Snapshot tag/replacement state (geometry must already match;
     *  stats travel with the owning StatGroup tree). */
    template <class Io> void io(Io &s);

  private:
    /** 32 bytes, aligned to 32 so that no entry straddles a host cache
     *  line whatever address the allocator hands back. malloc only
     *  guarantees 16: an array 16 bytes off made constructing a machine
     *  about 15% slower, depending on unrelated allocation sizes. */
    struct alignas(32) Line
    {
        bool valid = false;
        bool dirty = false;
        bool nruRef = false;
        Addr tag = 0;
        std::uint64_t lastUse = 0;
        Cycle readyCycle = 0;
    };
    static_assert(sizeof(Line) == 32);

    unsigned setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;
    Line *findLine(Addr addr);
    const Line *findLine(Addr addr) const;
    unsigned victimWay(unsigned set);

    CacheParams params_;
    Addr lineMask_;
    unsigned numSets_;
    unsigned lineShift_;
    std::vector<Line> lines_; // numSets_ * assoc, row-major by set
    /** Per-set way of the last hit/fill. Cache lookups are heavily
     *  repeat-biased (fetch re-probes, load retries), so checking this
     *  way first short-circuits most associative scans. Tags are unique
     *  within a set, so probe order cannot change any result. */
    std::vector<std::uint32_t> mruWay_;
    std::uint64_t useCounter_ = 0;
    Rng rng_;

    StatGroup stats_;
    Scalar &accesses_;
    Scalar &hits_;
    Scalar &misses_;
    Scalar &evictions_;
    Scalar &writebacks_;

    trace::TraceBuffer *traceBuf_ = nullptr;
    std::uint32_t traceLevel_ = 0;
};

} // namespace sst

#endif // SSTSIM_MEM_CACHE_HH
