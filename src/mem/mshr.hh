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

    /** @return completion cycle of an in-flight fill of @p lineAddr,
     *  or invalidCycle when the line has no pending miss. */
    Cycle pendingCompletion(Addr lineAddr) const;

    /** @return true when no entry is free (after expire(now)). */
    bool full(Cycle now);

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

    /** Demand misses currently outstanding at @p now (MLP sample). */
    unsigned outstandingDemand(Cycle now) const;

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
    void expireDue(Cycle now);
    /** Recompute horizon_ from the entries. */
    void resetHorizon();

    unsigned capacity_;
    std::vector<Entry> entries_;
    /** Earliest completion over entries_ (invalidCycle when empty).
     *  Derived state: rebuilt on load, never serialized. */
    Cycle horizon_ = invalidCycle;

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
