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

#include <algorithm>
#include <cstdint>
#include <memory>
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
    LookupResult access(Addr addr, bool isStore, Cycle now)
    {
        ++accesses_;
        unsigned set = setIndex(addr);
        int w = findWay(set, tagOf(addr) | kValid);
        LookupResult res;
        if (w < 0) {
            ++misses_;
            return res;
        }
        ++hits_;
        res.hit = true;
        Cycle settled = now + params_.hitLatency;
        res.readyCycle = std::max(settled, readyRow(set)[w]);
        lruRow(set)[w] = ++useCounter_;
        flagRow(set)[w] |= isStore ? kNruRef | kDirty : kNruRef;
        return res;
    }

    /** Probe without updating replacement state or stats. */
    bool contains(Addr addr) const
    {
        return findWay(setIndex(addr), tagOf(addr) | kValid) >= 0;
    }

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
    /** Valid bit of a tag row entry: a valid way holds tag | kValid,
     *  an invalid one its stale tag (snapshots carry it) without the
     *  bit. Tags are addr >> lineShift_ with lineShift_ >= 1, so the
     *  bit is free, a probe key (tag | kValid) never matches an invalid
     *  way, and zeroed storage is the power-on state (all ways invalid,
     *  stale tag 0). */
    static constexpr Addr kValid = Addr{1} << 63;
    /** Flag row bits. */
    static constexpr std::uint8_t kDirty = 1;
    static constexpr std::uint8_t kNruRef = 2;
    /** Per-line state: tag (with the sentinel), LRU stamp, fill-ready
     *  cycle and flags. Each set keeps its lines' state as rows in one
     *  block: tag row, LRU row, ready row, flag row, then the set's
     *  MRU way, padded to whole host cache lines where that keeps a
     *  line's share at or under the 32 bytes the old array-of-structs
     *  line cost (see the constructor). A probe and a fill touch one
     *  block. */
    static_assert(sizeof(Addr) + sizeof(std::uint64_t) + sizeof(Cycle)
                      + sizeof(std::uint8_t)
                  <= 32);

    unsigned setIndex(Addr addr) const
    {
        return static_cast<unsigned>((addr >> lineShift_) & (numSets_ - 1));
    }
    Addr tagOf(Addr addr) const { return addr >> lineShift_; }

    unsigned char *setBlock(unsigned set) const
    {
        return reinterpret_cast<unsigned char *>(storage_.get())
               + std::size_t{set} * setStride_;
    }
    Addr *tagRow(unsigned set) const
    {
        return reinterpret_cast<Addr *>(setBlock(set));
    }
    std::uint64_t *lruRow(unsigned set) const
    {
        return tagRow(set) + params_.assoc;
    }
    Cycle *readyRow(unsigned set) const
    {
        return tagRow(set) + 2 * params_.assoc;
    }
    std::uint8_t *flagRow(unsigned set) const
    {
        return reinterpret_cast<std::uint8_t *>(tagRow(set)
                                                + 3 * params_.assoc);
    }
    /** Way of the set's last hit/fill. Probes do not start from it (a
     *  row scan finds the same way: tags are unique within a set), but
     *  it is snapshot state, so every hit, contains()'s included, and
     *  every fill keep it. */
    std::uint32_t &mruWay(unsigned set) const
    {
        return *reinterpret_cast<std::uint32_t *>(setBlock(set)
                                                  + mruOffset_);
    }

    /** Way of the valid line whose row entry is @p key (tag | kValid)
     *  in @p set, or -1. */
    int findWay(unsigned set, Addr key) const
    {
        const Addr *row = tagRow(set);
        for (unsigned w = 0; w < params_.assoc; ++w) {
            if (row[w] == key) {
                mruWay(set) = w;
                return static_cast<int>(w);
            }
        }
        return -1;
    }
    unsigned victimWay(unsigned set);

    CacheParams params_;
    Addr lineMask_;
    unsigned numSets_;
    unsigned lineShift_;
    std::size_t setStride_ = 0;
    std::size_t mruOffset_ = 0;
    /** 64-byte-aligned storage of the set blocks. */
    struct alignas(64) Block
    {
        unsigned char bytes[64];
    };
    std::unique_ptr<Block[]> storage_;
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
