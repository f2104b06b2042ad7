/**
 * @file
 * Miss Status Holding Register file: bounds per-core outstanding misses
 * and merges secondary misses to an in-flight line. MSHR count is the
 * hardware limit on the memory-level parallelism a core can expose —
 * the resource SST's execute-ahead strand is designed to saturate.
 */

#ifndef SSTSIM_MEM_MSHR_HH
#define SSTSIM_MEM_MSHR_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace sst
{

/** Fixed-capacity MSHR file. */
class MshrFile
{
  public:
    MshrFile(const std::string &name, unsigned entries,
             StatGroup &parentStats);

    unsigned capacity() const { return capacity_; }

    /** Drop entries whose fills completed at or before @p now: a single
     *  compare until the earliest completion is reached. */
    void expire(Cycle now)
    {
        if (now >= horizon_)
            expireDue(now);
    }

    /** @return completion cycle of an in-flight fill of @p lineAddr
     *  (the oldest entry's, should the line have several), or
     *  invalidCycle when the line has no pending miss. */
    Cycle pendingCompletion(Addr lineAddr) const
    {
        if (lineAddr == invalidAddr) [[unlikely]]
            return scanCompletion(lineAddr);
        const Slot *slot = findSlot(lineAddr);
        return slot->count ? slot->completion : invalidCycle;
    }

    /** @return true when no entry is free (after expire(now)). */
    bool full(Cycle now)
    {
        expire(now);
        return entries_.size() >= capacity_;
    }

    /** Earliest cycle at which an entry will free up (full file only). */
    Cycle earliestFree() const { return horizon_; }

    /** Earliest fill completion strictly after @p now, or invalidCycle
     *  when nothing is in flight (wake-cycle probe; entries expire
     *  lazily, so stale completions are skipped rather than trusted). */
    Cycle earliestCompletion(Cycle now) const
    {
        Cycle best = invalidCycle;
        for (const auto &e : entries_)
            if (e.completion > now && e.completion < best)
                best = e.completion;
        return best;
    }

    /**
     * Allocate an entry for @p lineAddr completing at @p completion.
     * Caller must ensure !full(). @p isDemand distinguishes demand misses
     * from prefetches for the MLP statistics.
     */
    void allocate(Addr lineAddr, Cycle completion, bool isDemand,
                  Cycle now);

    /** Demand misses currently outstanding at @p now (MLP sample). Every
     *  entry completes at or after horizon_, so before it the count
     *  kept at allocation and expiry is exact; at or past it (the
     *  caller has not expired) fall back to a scan. */
    unsigned outstandingDemand(Cycle now) const
    {
        return now < horizon_ ? demand_ : scanDemand(now);
    }

    /** All entries (tests). */
    struct Entry
    {
        Addr lineAddr = invalidAddr;
        Cycle completion = invalidCycle;
        bool demand = false;
    };
    const std::vector<Entry> &entries() const { return entries_; }

    /** Clear all entries (rollback/flush). */
    void reset();

    /**
     * Coherence poison: a remote write invalidated @p lineAddr while a
     * fill was in flight. The entry keeps its completion time (it still
     * occupies the file and frees on schedule) but stops matching
     * lookups, so the next access re-misses and re-requests the line.
     */
    void invalidate(Addr lineAddr);

    /** Mean observed demand-MLP (computed from allocation samples). */
    double meanDemandMlp() const { return mlp_.mean(); }
    const Distribution &mlpDist() const { return mlp_; }

    template <class Io> void io(Io &s);

  private:
    /** One line of the line index: the completion of the line's oldest
     *  entry and how many entries carry the line (0 = empty slot). */
    struct Slot
    {
        Addr line = invalidAddr;
        Cycle completion = invalidCycle;
        unsigned count = 0;
    };

    void expireDue(Cycle now);
    /** Rebuild horizon_, demand_ and the line index from entries_. */
    void rebuildDerived();
    Cycle scanCompletion(Addr lineAddr) const;
    unsigned scanDemand(Cycle now) const;

    /** The slot holding @p line, or the empty slot where it would go
     *  (linear probing; the index is at most half full). */
    const Slot *findSlot(Addr line) const
    {
        std::size_t mask = index_.size() - 1;
        std::size_t i = (line * 0x9e3779b97f4a7c15ull) >> indexShift_;
        while (index_[i].count && index_[i].line != line)
            i = (i + 1) & mask;
        return &index_[i];
    }
    Slot *findSlot(Addr line)
    {
        return const_cast<Slot *>(std::as_const(*this).findSlot(line));
    }
    void indexInsert(Addr line, Cycle completion);
    /** Remove @p slot, shifting later probe-chain members back. */
    void indexErase(Slot *slot);

    unsigned capacity_;
    std::vector<Entry> entries_;
    /** Derived state, rebuilt on load and never serialized:
     *  horizon_ is the earliest completion over entries_ (invalidCycle
     *  when empty), demand_ counts the demand entries, and index_ maps
     *  every line other than invalidAddr that an entry carries. */
    Cycle horizon_ = invalidCycle;
    unsigned demand_ = 0;
    std::vector<Slot> index_;
    unsigned indexShift_ = 0;

    StatGroup stats_;
    Scalar &allocations_;
    Scalar &merges_;
    Scalar &rejections_;
    Distribution &mlp_;

  public:
    /** Record a merge (secondary miss) for stats. */
    void noteMerge() { ++merges_; }
    /** Record a rejection (structural stall) for stats. */
    void noteRejection() { ++rejections_; }
};

} // namespace sst

#endif // SSTSIM_MEM_MSHR_HH
