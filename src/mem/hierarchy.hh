/**
 * @file
 * Memory hierarchy wiring: per-core L1I/L1D + MSHRs + prefetcher in
 * front of a shared L2 and banked DRAM.
 *
 * Timing discipline is "fill at request, ready later": a miss installs
 * its line immediately with a readyCycle equal to the fill's completion
 * time, so later accesses to the same line observe hit-under-fill
 * semantics without an event queue. Bandwidth is modelled with
 * busy-until state on the L2 port and the DRAM channel.
 */

#ifndef SSTSIM_MEM_HIERARCHY_HH
#define SSTSIM_MEM_HIERARCHY_HH

#include <memory>
#include <vector>

#include "coh/coh.hh"
#include "common/stats.hh"
#include "common/tickgate.hh"
#include "common/types.hh"
#include "fault/fault.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/lineset.hh"
#include "mem/mshr.hh"
#include "mem/prefetcher.hh"
#include "mem/req.hh"
#include "mem/tlb.hh"

namespace sst
{

/** Full hierarchy configuration. */
struct HierarchyParams
{
    CacheParams l1i{"l1i", 32 * 1024, 4, 64, 2, ReplPolicy::Lru};
    CacheParams l1d{"l1d", 32 * 1024, 4, 64, 3, ReplPolicy::Lru};
    CacheParams l2{"l2", 2 * 1024 * 1024, 8, 64, 20, ReplPolicy::Lru};
    DramParams dram{};
    unsigned l1MshrEntries = 16;
    unsigned l2PortCycles = 4;
    PrefetcherParams dataPrefetch{};
    PrefetcherParams instPrefetch{true, 1, 1};
    /** Data TLB; entries=0 (the default) disables translation
     *  modelling. When enabled, a TLB miss reports as a non-hit with
     *  the page-walk latency folded in — which makes it an SST
     *  deferral trigger, as in the paper. */
    TlbParams dtlb{0, 4096, 120};
    /** Fault injection (chaos testing); all off by default. */
    FaultParams fault{};
    /** Coherence directory; disabled (private salted windows) by
     *  default. When enabled the CMP shares one physical address space
     *  and the directory models invalidation/intervention traffic. */
    CohParams coh{};
};

class MemorySystem;

/**
 * One core's view of the hierarchy. All core models issue their memory
 * traffic through this interface.
 */
class CorePort
{
  public:
    CorePort(MemorySystem &system, const HierarchyParams &params,
             unsigned coreId);

    /**
     * Timed access at cycle @p now. Loads/stores hit L1D; InstFetch hits
     * L1I; Prefetch allocates without blocking. A rejected result means
     * no MSHR was available (structural hazard) — the core must retry.
     */
    AccessResult access(AccessType type, Addr addr, Cycle now);

    /** True when a load of @p addr would hit settled data in L1D. */
    bool probeL1d(Addr addr) const;

    /**
     * Address salt added to every timing access. The CMP harness gives
     * each core a disjoint "physical" range so identical per-core
     * programs contend for L2 capacity without falsely sharing lines.
     */
    void setAddressSalt(Addr salt) { addressSalt_ = salt; }

    /**
     * Register the core's speculative-read-set interface. The fabric
     * asks it, on every remote functional write, whether the written
     * line is speculatively read here and must squash (null = core
     * model without speculation; nothing to squash).
     */
    void setCohClient(CohClient *client) { cohClient_ = client; }
    CohClient *cohClient() const { return cohClient_; }

    /** Demand misses in flight (for MLP accounting). */
    unsigned outstandingDemand(Cycle now)
    {
        mshrs_.expire(now);
        return mshrs_.outstandingDemand(now);
    }

    const MshrFile &mshrs() const { return mshrs_; }
    const Tlb &dtlb() const { return dtlb_; }
    Cache &l1d() { return l1d_; }
    Cache &l1i() { return l1i_; }

    /**
     * Earliest pending completion on this port strictly after @p now —
     * the min over in-flight MSHR fills and TLB walks — or invalidCycle
     * when nothing is outstanding. A wake-cycle probe for tests and
     * diagnostics: a stalled core's own nextWakeCycle() already carries
     * the fill it waits on via the access result, so the run loops do
     * not clamp skips with this (fills nobody waits for — e.g.
     * prefetches — must not truncate a skip).
     */
    Cycle nextWakeCycle(Cycle now) const
    {
        Cycle mshr = mshrs_.earliestCompletion(now);
        Cycle walk = dtlb_.earliestWalkCompletion(now);
        return mshr < walk ? mshr : walk;
    }
    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    /** The shared fault injector (chaos hooks; disabled by default). */
    FaultInjector &faults();

    /** Invalidate both L1s (between benchmark phases). */
    void flush();

    /** Snapshot caches/MSHRs/TLB/prefetchers + the prefetched-line set
     *  (sorted, so equal state encodes to equal bytes). The stats tree
     *  is serialized by the owning Machine, not here. */
    template <class Io> void io(Io &s);

  private:
    friend class MemorySystem;

    AccessResult dataAccess(AccessType type, Addr addr, Cycle now);
    AccessResult instAccess(Addr addr, Cycle now);
    void issuePrefetches(Cache &cache, Prefetcher &pf, Addr lineAddr,
                         bool wasMiss, Cycle now);

    /** A remote write took this core's copy of @p line: drop it from
     *  L1D, poison any in-flight fill, and remember the theft so the
     *  re-miss is attributed to coherence. */
    void applyInvalidate(Addr line);

    /** Under the parallel engine: block until an op by this core at
     *  cycle @p now is next in the global (cycle, coreId) order. No-op
     *  without a gate, and cheap when re-entered within one tick. */
    void ordered(Cycle now) const
    {
        if (gate_)
            gate_->enter(coreId_, now);
    }

    /** This core's last store left it the exclusive directory owner of
     *  @p line; until that changes, further owner stores are silent
     *  directory no-ops and can skip the gate + lookup entirely. */
    void noteStoreOwnership(Addr line) { ownedStoreLines_.insert(line); }
    /** A remote access demoted this core's exclusive ownership. */
    void dropStoreOwnership(Addr line) { ownedStoreLines_.erase(line); }

    MemorySystem &system_;
    unsigned coreId_;
    Addr addressSalt_ = 0;
    StatGroup stats_;
    Cache l1i_;
    Cache l1d_;
    MshrFile mshrs_;
    Tlb dtlb_;
    Prefetcher dataPf_;
    Prefetcher instPf_;
    /** Lines brought in by prefetch and not yet demanded. */
    LineSet prefetchedLines_;
    CohClient *cohClient_ = nullptr;
    /** Lines lost to remote writes; cleared on the next local access
     *  (which reports coh=true so the stall lands in the coherence
     *  CPI bucket). */
    LineSet cohInvalidatedLines_;
    /** Lines this core exclusively owns after storing to them (a
     *  conservative mirror of the directory's owner records, kept so
     *  the hot private-store path never touches shared state). Part of
     *  the serialized port state: resumed runs must skip exactly the
     *  same directory lookups as uninterrupted ones. */
    LineSet ownedStoreLines_;
    /** Installed by MemorySystem::beginEngineRun during parallel CMP
     *  runs; null otherwise. */
    const TickGate *gate_ = nullptr;
    /** Gate every access (fault injection armed: each access may draw
     *  from the shared RNG even on an L1 hit). */
    bool gateAll_ = false;
    Scalar &cohInvalidationsSeen_;
};

/** Shared L2 + DRAM; owns the per-core ports. */
class MemorySystem
{
  public:
    explicit MemorySystem(const HierarchyParams &params);

    /** Create the port for the next core. Stable address. */
    CorePort &addCore();

    const HierarchyParams &params() const { return params_; }
    unsigned lineBytes() const { return params_.l2.lineBytes; }
    Cache &l2() { return l2_; }
    Dram &dram() { return dram_; }
    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }
    FaultInjector &faults() { return faults_; }

    /** Invalidate all caches and drain DRAM state. */
    void flushAll();

    /** True when the CMP runs one shared address space with the
     *  directory arbitrating line ownership. */
    bool coherent() const { return params_.coh.enabled; }
    Directory &directory() { return directory_; }

    /** The core whose tick is in progress: functional writes observed
     *  while it runs are its writes (self-invalidation is skipped). */
    void setActiveCore(unsigned core) { activeCore_ = core; }

    /**
     * A functional write of @p size bytes at @p addr just landed in the
     * shared MemoryImage (fired by its write observer during the active
     * core's tick). Squashes every *other* core whose speculative read
     * set covers a written line — the requester-wins conflict rule that
     * keeps committed regions serializable.
     */
    void onFunctionalWrite(Addr addr, unsigned size);

    /**
     * Directory lookup for an access by @p core to @p line, applying
     * any invalidations to the victim cores' L1s/MSHRs and tracing the
     * traffic. @return the coherence action; the caller folds
     * .latency into the access's ready time.
     */
    CohAction coherenceAccess(Addr line, unsigned core, bool isStore,
                              Cycle now);

    /** Core @p core silently dropped @p line from its L1D. */
    void noteEvict(Addr line, unsigned core);

    /**
     * Enter parallel-engine mode: install @p gate on every port so
     * shared-state touches order themselves in (cycle, coreId)
     * sequence, and (when coherent) defer cross-core invalidation
     * delivery into a queue drained at quantum barriers. @p gateAll
     * forces a gate on every access (needed once fault injection is
     * armed, because any access may then draw from the shared RNG).
     */
    void beginEngineRun(const TickGate *gate, bool gateAll);
    void endEngineRun();

    /** True while invalidation delivery is deferred to barriers. */
    bool cohDeferred() const { return deferCoh_; }

    /**
     * Serial barrier phase: deliver every deferred invalidation and
     * ownership downgrade in the (cycle, coreId) order it was queued.
     */
    void drainDeferredCoh();

    /** Route coherence trace events into @p buf (null detaches). */
    void setTraceBuffer(trace::TraceBuffer *buf) { traceBuf_ = buf; }

    /** Snapshot L2/DRAM/fault-RNG/port-arbiter state plus every
     *  registered core port (ports must already exist: configuration,
     *  including core count, is re-created before load). */
    template <class Io> void io(Io &s);

  private:
    friend class CorePort;

    /**
     * L1-miss path: arbitrate for the L2 port, probe L2, on L2 miss go
     * to DRAM and fill L2. @return data-ready cycle; sets @p l2Hit.
     */
    Cycle accessL2(Addr lineAddr, Cycle now, bool &l2Hit);

    /** Account an L1 dirty-eviction writeback into L2. */
    void writebackToL2(Addr lineAddr, Cycle now);

    /** Drop @p line from @p victim's L1/MSHRs with a trace event at
     *  @p cycle (shared by the inline and deferred delivery paths). */
    void deliverInvalidate(Addr line, unsigned victim, Cycle cycle);

    /** One deferred cross-core coherence effect. */
    struct DeferredCoh
    {
        Addr line;
        std::uint32_t victim;
        Cycle cycle;
        /** true: invalidate the victim's copy; false: the victim only
         *  loses exclusive-ownership (a remote load shared the line). */
        bool invalidate;
    };

    HierarchyParams params_;
    StatGroup stats_;
    Cache l2_;
    Dram dram_;
    FaultInjector faults_;
    Directory directory_;
    Cycle l2PortFree_ = 0;
    Scalar &l2PortStall_;
    Scalar &cohSquashes_;
    unsigned activeCore_ = 0;
    trace::TraceBuffer *traceBuf_ = nullptr;
    bool deferCoh_ = false;
    std::vector<DeferredCoh> cohQueue_;
    std::vector<std::unique_ptr<CorePort>> ports_;
};

} // namespace sst

#endif // SSTSIM_MEM_HIERARCHY_HH
