/**
 * @file
 * Data TLB model.
 *
 * The paper lists TLB misses among the long-latency events the SST
 * core defers on. This fully-associative LRU TLB sits in front of each
 * core's L1D; a miss charges a fixed page-walk latency and (like a
 * cache miss) makes the access report as a non-hit, which is exactly
 * the condition the SST core checkpoints on.
 */

#ifndef SSTSIM_MEM_TLB_HH
#define SSTSIM_MEM_TLB_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace sst
{

/** TLB geometry and timing. */
struct TlbParams
{
    /** 0 disables translation modelling entirely. */
    unsigned entries = 64;
    unsigned pageBytes = 4096;
    /** Page-walk latency in cycles (charged on a miss). */
    unsigned walkLatency = 120;
};

/** Fully-associative LRU TLB. */
class Tlb
{
  public:
    Tlb(const TlbParams &params, const std::string &name,
        StatGroup &parentStats);

    bool enabled() const { return params_.entries != 0; }

    /** Result of a translation attempt. */
    struct LookupResult
    {
        bool hit = true;
        /** Cycle at which the translation is available. */
        Cycle readyCycle = 0;
    };

    /**
     * Translate the page of @p addr at @p now. Misses install the entry
     * immediately with the walk's completion time (walks are not
     * otherwise modelled as memory traffic).
     */
    LookupResult access(Addr addr, Cycle now);

    /** Drop all entries. */
    void flush();

    /** Earliest in-flight page-walk completion strictly after @p now,
     *  or invalidCycle when no walk is pending (wake-cycle probe). */
    Cycle earliestWalkCompletion(Cycle now) const;

    template <class Io> void io(Io &s);

  private:
    Addr pageOf(Addr addr) const { return addr / params_.pageBytes; }

    /**
     * One cached translation. The TLB is small (tens of entries) and
     * sits on the hot path of every data access, so it is a flat array
     * scanned linearly with stamp-based LRU — no list/map node churn.
     */
    struct Entry
    {
        Addr page = invalidAddr;
        std::uint64_t lastUse = 0;
        /** In-flight walk completion (stale once <= access time). */
        Cycle walkReady = 0;
    };

    TlbParams params_;
    std::vector<Entry> entries_;
    std::uint64_t useCounter_ = 0;

    StatGroup stats_;
    Scalar &hits_;
    Scalar &misses_;
};

} // namespace sst

#endif // SSTSIM_MEM_TLB_HH
