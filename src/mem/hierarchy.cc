#include "mem/hierarchy.hh"

#include <algorithm>

#include "common/logging.hh"
#include "snap/snap.hh"
#include "trace/trace.hh"

namespace sst
{

CorePort::CorePort(MemorySystem &system, const HierarchyParams &params,
                   unsigned coreId)
    : system_(system),
      coreId_(coreId),
      stats_("core" + std::to_string(coreId) + "_mem"),
      l1i_(params.l1i, stats_),
      l1d_(params.l1d, stats_),
      mshrs_("l1_mshrs", params.l1MshrEntries, stats_),
      dtlb_(params.dtlb, "dtlb", stats_),
      dataPf_(params.dataPrefetch, params.l1d.lineBytes, "l1d_pf", stats_),
      instPf_(params.instPrefetch, params.l1i.lineBytes, "l1i_pf", stats_),
      cohInvalidationsSeen_(stats_.addScalar(
          "coh_invalidations", "L1D lines lost to remote writes"))
{
}

FaultInjector &
CorePort::faults()
{
    return system_.faults();
}

AccessResult
CorePort::access(AccessType type, Addr addr, Cycle now)
{
    addr += addressSalt_;
    // With fault injection armed even an L1 hit draws from the shared
    // RNG (tlbPressure below), so the whole access must be ordered.
    if (gateAll_)
        ordered(now);
    if (type == AccessType::InstFetch)
        return instAccess(addr, now);
    return dataAccess(type, addr, now);
}

bool
CorePort::probeL1d(Addr addr) const
{
    return l1d_.contains(addr + addressSalt_);
}

AccessResult
CorePort::dataAccess(AccessType type, Addr addr, Cycle now)
{
    AccessResult res;
    Addr line = l1d_.lineAddr(addr);
    bool isStore = type == AccessType::Store;

    // Translate first: a page walk serialises before the data access
    // and turns the whole access into a long-latency (deferrable)
    // event.
    Tlb::LookupResult xlat{true, now};
    if (dtlb_.enabled() && type != AccessType::Prefetch)
        xlat = dtlb_.access(addr, now);
    if (type != AccessType::Prefetch) {
        Cycle walk = system_.faults().tlbPressure(
            system_.params().dtlb.walkLatency);
        if (walk != 0) {
            xlat.hit = false;
            xlat.readyCycle = std::max(xlat.readyCycle, now + walk);
        }
    }

    const bool coherent = system_.coherent();
    auto hit = l1d_.access(addr, isStore, now);
    if (hit.hit) {
        res.readyCycle = std::max(hit.readyCycle, xlat.readyCycle);
        if (coherent && isStore
            && !ownedStoreLines_.contains(line)) {
            // A store hit may still owe the directory an upgrade (the
            // line can be shared) or an intervention/invalidate (a
            // remote owner the L1 doesn't know about can't exist — the
            // owner's write would have invalidated us — so this is the
            // S->M path). Stores to a line this core already owns
            // exclusively are silent directory no-ops and skip the
            // lookup (and, under the parallel engine, the gate) — the
            // common private-data case.
            ordered(now);
            CohAction act =
                system_.coherenceAccess(line, coreId_, true, now);
            noteStoreOwnership(line);
            if (act.latency != 0) {
                res.readyCycle =
                    std::max(res.readyCycle, now + act.latency);
                res.coh = true;
            }
        }
        // A line still being filled (or a page still being walked) is
        // architecturally a merged miss: the pipeline sees the full
        // latency, and SST treats it as a deferral trigger just like a
        // fresh miss.
        res.l1Hit = xlat.hit
                    && hit.readyCycle <= now + l1d_.params().hitLatency;
        if (res.l1Hit && prefetchedLines_.erase(line)) {
            dataPf_.noteUseful();
            issuePrefetches(l1d_, dataPf_, line, false, now);
        }
        return res;
    }

    // L1 miss. Merge with an in-flight MSHR if one covers this line.
    mshrs_.expire(now);
    Cycle pending = mshrs_.pendingCompletion(line);
    if (pending != invalidCycle) {
        mshrs_.noteMerge();
        res.readyCycle = std::max(pending, xlat.readyCycle);
        if (coherent && isStore
            && !ownedStoreLines_.contains(line)) {
            // A store merging into a load's fill still needs ownership.
            ordered(now);
            CohAction act =
                system_.coherenceAccess(line, coreId_, true, now);
            noteStoreOwnership(line);
            if (act.latency != 0) {
                res.readyCycle =
                    std::max(res.readyCycle, pending + act.latency);
                res.coh = true;
            }
        }
        return res;
    }

    if (mshrs_.full(now)) {
        mshrs_.noteRejection();
        res.rejected = true;
        res.retryCycle = mshrs_.earliestFree();
        panic_if(res.retryCycle == invalidCycle,
                 "full MSHR file with no completion time");
        return res;
    }
    if (system_.faults().mshrPressure()) {
        // Injected pressure spike: structurally identical to a full
        // file, but the entry frees "immediately" — the core's retry
        // path absorbs it next cycle.
        mshrs_.noteRejection();
        res.rejected = true;
        res.retryCycle = now + 1;
        return res;
    }

    ordered(now); // miss path: shared L2/DRAM timing + directory
    bool l2Hit = false;
    Cycle dataReady = system_.accessL2(line, now, l2Hit);
    dataReady = system_.faults().perturbFill(now, dataReady);
    if (coherent) {
        CohAction act =
            system_.coherenceAccess(line, coreId_, isStore, now);
        if (isStore)
            noteStoreOwnership(line);
        if (act.latency != 0) {
            dataReady += act.latency;
            res.coh = true;
        }
        // A miss on a line a remote writer stole is a coherence miss
        // even when the steal itself was latency-free here.
        if (cohInvalidatedLines_.erase(line))
            res.coh = true;
    }
    res.l2Hit = l2Hit;
    res.readyCycle = std::max(dataReady, xlat.readyCycle);

    mshrs_.allocate(line, dataReady, type != AccessType::Prefetch, now);
    auto ev = l1d_.fill(addr, dataReady, isStore);
    if (ev.valid && ev.dirty)
        system_.writebackToL2(ev.lineAddr, now);
    if (ev.valid && coherent) {
        system_.noteEvict(ev.lineAddr, coreId_);
        dropStoreOwnership(ev.lineAddr);
    }
    if (type == AccessType::Prefetch)
        prefetchedLines_.insert(line);
    else
        issuePrefetches(l1d_, dataPf_, line, true, now);
    return res;
}

AccessResult
CorePort::instAccess(Addr addr, Cycle now)
{
    AccessResult res;
    Addr line = l1i_.lineAddr(addr);

    auto hit = l1i_.access(addr, false, now);
    if (hit.hit) {
        res.readyCycle = hit.readyCycle;
        res.l1Hit = hit.readyCycle <= now + l1i_.params().hitLatency;
        return res;
    }

    mshrs_.expire(now);
    Cycle pending = mshrs_.pendingCompletion(line);
    if (pending != invalidCycle) {
        mshrs_.noteMerge();
        res.readyCycle = pending;
        return res;
    }
    if (mshrs_.full(now)) {
        mshrs_.noteRejection();
        res.rejected = true;
        res.retryCycle = mshrs_.earliestFree();
        return res;
    }
    if (system_.faults().mshrPressure()) {
        mshrs_.noteRejection();
        res.rejected = true;
        res.retryCycle = now + 1;
        return res;
    }

    ordered(now); // instruction miss path reaches the shared L2
    bool l2Hit = false;
    Cycle dataReady = system_.accessL2(line, now, l2Hit);
    dataReady = system_.faults().perturbFill(now, dataReady);
    res.l2Hit = l2Hit;
    res.readyCycle = dataReady;
    mshrs_.allocate(line, dataReady, true, now);
    auto ev = l1i_.fill(addr, dataReady, false);
    panic_if(ev.valid && ev.dirty, "dirty line in the I-cache");
    issuePrefetches(l1i_, instPf_, line, true, now);
    return res;
}

void
CorePort::issuePrefetches(Cache &cache, Prefetcher &pf, Addr lineAddr,
                          bool wasMiss, Cycle now)
{
    for (Addr target : pf.onAccess(lineAddr, wasMiss)) {
        if (cache.contains(target))
            continue;
        mshrs_.expire(now);
        if (mshrs_.pendingCompletion(target) != invalidCycle)
            continue;
        if (mshrs_.full(now))
            break; // never stall the pipeline for a prefetch
        ordered(now); // prefetches go to the shared L2
        bool l2Hit = false;
        Cycle ready = system_.accessL2(target, now, l2Hit);
        bool dataSide = &cache == &l1d_;
        if (dataSide && system_.coherent()) {
            // Prefetches register as readers so a later remote write
            // invalidates the prefetched copy like any other.
            CohAction act =
                system_.coherenceAccess(target, coreId_, false, now);
            ready += act.latency;
        }
        mshrs_.allocate(target, ready, false, now);
        auto ev = cache.fill(target, ready, false);
        if (ev.valid && ev.dirty)
            system_.writebackToL2(ev.lineAddr, now);
        if (ev.valid && dataSide && system_.coherent()) {
            system_.noteEvict(ev.lineAddr, coreId_);
            dropStoreOwnership(ev.lineAddr);
        }
        pf.noteIssued();
        if (dataSide)
            prefetchedLines_.insert(target);
    }
}

void
CorePort::flush()
{
    l1i_.flush();
    l1d_.flush();
    dtlb_.flush();
    mshrs_.reset();
    prefetchedLines_.clear();
    cohInvalidatedLines_.clear();
    ownedStoreLines_.clear();
    if (system_.coherent())
        system_.directory().dropCore(coreId_);
}

void
CorePort::applyInvalidate(Addr line)
{
    l1d_.invalidate(line);
    mshrs_.invalidate(line);
    prefetchedLines_.erase(line);
    ownedStoreLines_.erase(line);
    cohInvalidatedLines_.insert(line);
    ++cohInvalidationsSeen_;
}

MemorySystem::MemorySystem(const HierarchyParams &params)
    : params_(params),
      stats_("memsys"),
      l2_(params.l2, stats_),
      dram_(params.dram, stats_),
      faults_(params.fault, stats_),
      directory_(params.coh),
      l2PortStall_(stats_.addScalar("l2_port_stall_cycles",
                                    "cycles requests queued on L2 port")),
      cohSquashes_(stats_.addScalar(
          "coh_squashes",
          "speculative regions squashed by remote writes"))
{
    fatal_if(params.l1i.lineBytes != params.l2.lineBytes
                 || params.l1d.lineBytes != params.l2.lineBytes,
             "all cache levels must share one line size");
}

CorePort &
MemorySystem::addCore()
{
    ports_.push_back(std::make_unique<CorePort>(
        *this, params_, static_cast<unsigned>(ports_.size())));
    CorePort &port = *ports_.back();
    stats_.addChild(port.stats());
    return port;
}

Cycle
MemorySystem::accessL2(Addr lineAddr, Cycle now, bool &l2Hit)
{
    // Arbitrate for the shared L2 port.
    Cycle start = std::max(now, l2PortFree_);
    l2PortStall_ += start - now;
    l2PortFree_ = start + params_.l2PortCycles;

    auto hit = l2_.access(lineAddr, false, start);
    if (hit.hit) {
        l2Hit = hit.readyCycle <= start + params_.l2.hitLatency;
        return hit.readyCycle;
    }

    l2Hit = false;
    Cycle done = dram_.access(lineAddr, start + params_.l2.hitLatency,
                              false);
    auto ev = l2_.fill(lineAddr, done, false);
    if (ev.valid && ev.dirty)
        dram_.access(ev.lineAddr, now, true);
    return done;
}

void
MemorySystem::writebackToL2(Addr lineAddr, Cycle now)
{
    Cycle start = std::max(now, l2PortFree_);
    l2PortFree_ = start + params_.l2PortCycles;
    // Install/mark dirty; if L2 already evicted the line this re-fills
    // it dirty, which is the writeback-allocate behaviour we model.
    auto ev = l2_.fill(lineAddr, start, true);
    if (ev.valid && ev.dirty)
        dram_.access(ev.lineAddr, start, true);
}

void
MemorySystem::deliverInvalidate(Addr line, unsigned victim, Cycle cycle)
{
    ports_[victim]->applyInvalidate(line);
    if (traceBuf_) {
        trace::TraceEvent ev;
        ev.cycle = cycle;
        ev.pc = line;
        ev.arg = victim;
        ev.kind = trace::TraceKind::CohInvalidate;
        ev.strand = trace::TraceStrand::Mem;
        traceBuf_->record(ev);
    }
}

CohAction
MemorySystem::coherenceAccess(Addr line, unsigned core, bool isStore,
                              Cycle now)
{
    // Remember the previous exclusive owner: if this access demotes
    // it (remote load sharing the line), its port's owned-store hint
    // must be dropped so its next store goes back to the directory.
    const int prevOwner = directory_.lineState(line).owner;
    CohAction act = directory_.onAccess(line, core, isStore);
    if (act.invalidateMask != 0) {
        for (unsigned v = 0; v < ports_.size(); ++v) {
            if (((act.invalidateMask >> v) & 1) == 0)
                continue;
            if (deferCoh_)
                cohQueue_.push_back(DeferredCoh{line, v, now, true});
            else
                deliverInvalidate(line, v, now);
        }
    }
    if (prevOwner >= 0 && prevOwner != static_cast<int>(core)
        && ((act.invalidateMask >> prevOwner) & 1) == 0) {
        const auto owner = static_cast<unsigned>(prevOwner);
        if (deferCoh_)
            cohQueue_.push_back(DeferredCoh{line, owner, now, false});
        else
            ports_[owner]->dropStoreOwnership(line);
    }
    if (traceBuf_ && (act.upgrade || act.intervention)) {
        trace::TraceEvent ev;
        ev.cycle = now;
        ev.pc = line;
        ev.arg = core;
        ev.kind = act.upgrade ? trace::TraceKind::CohUpgrade
                              : trace::TraceKind::CohIntervention;
        ev.strand = trace::TraceStrand::Mem;
        traceBuf_->record(ev);
    }
    return act;
}

void
MemorySystem::beginEngineRun(const TickGate *gate, bool gateAll)
{
    for (auto &port : ports_) {
        port->gate_ = gate;
        port->gateAll_ = gateAll;
    }
    deferCoh_ = coherent();
}

void
MemorySystem::endEngineRun()
{
    panic_if(!cohQueue_.empty(),
             "engine run ended with undelivered coherence effects");
    for (auto &port : ports_) {
        port->gate_ = nullptr;
        port->gateAll_ = false;
    }
    deferCoh_ = false;
}

void
MemorySystem::drainDeferredCoh()
{
    for (const DeferredCoh &d : cohQueue_) {
        if (d.invalidate)
            deliverInvalidate(d.line, d.victim, d.cycle);
        else
            ports_[d.victim]->dropStoreOwnership(d.line);
    }
    cohQueue_.clear();
}

void
MemorySystem::noteEvict(Addr line, unsigned core)
{
    directory_.onEvict(line, core);
}

void
MemorySystem::onFunctionalWrite(Addr addr, unsigned size)
{
    if (!coherent() || ports_.size() < 2)
        return;
    const Addr mask = ~static_cast<Addr>(lineBytes() - 1);
    const Addr first = addr & mask;
    const Addr last = (addr + (size ? size - 1 : 0)) & mask;
    for (Addr line = first;; line += lineBytes()) {
        for (unsigned c = 0; c < ports_.size(); ++c) {
            if (c == activeCore_)
                continue;
            CohClient *client = ports_[c]->cohClient();
            if (client && client->specReadsLine(line)) {
                client->cohSquash();
                ++cohSquashes_;
            }
        }
        if (line == last)
            break;
    }
}

void
MemorySystem::flushAll()
{
    l2_.flush();
    dram_.drain();
    l2PortFree_ = 0;
    for (auto &port : ports_)
        port->flush();
}

namespace
{

/** A line set, emitted sorted so equal sets encode to equal bytes. */
template <class Io>
void
lineSet(Io &s, LineSet &set)
{
    if constexpr (Io::loading) {
        // These sets scale with the workload footprint (one entry per
        // touched line); sizing the array up front avoids regrowing it
        // while a large-footprint member restores.
        set.clear();
        std::size_t n = s.count(snap::Width::u64, 0, 8);
        set.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            Addr line = 0;
            s.u64(line);
            fatal_if(line == invalidAddr, "snapshot: bad line-set entry");
            set.insert(line);
        }
    } else {
        std::vector<Addr> lines = set.sorted();
        s.count(snap::Width::u64, lines.size(), 8);
        for (Addr line : lines)
            s.u64(line);
    }
}

} // namespace

template <class Io>
void
CorePort::io(Io &s)
{
    s.tag("coreport");
    s.expect(static_cast<std::uint32_t>(coreId_), "core port");
    s.u64(addressSalt_);
    l1i_.io(s);
    l1d_.io(s);
    mshrs_.io(s);
    dtlb_.io(s);
    dataPf_.io(s);
    instPf_.io(s);
    lineSet(s, prefetchedLines_);
    lineSet(s, cohInvalidatedLines_);
    // The owned-store hint is behavioural state: a resumed run must
    // skip exactly the directory lookups the uninterrupted run skips.
    lineSet(s, ownedStoreLines_);
}

template <class Io>
void
MemorySystem::io(Io &s)
{
    s.tag("memsys");
    l2_.io(s);
    dram_.io(s);
    faults_.io(s);
    s.u64(l2PortFree_);
    s.expect(static_cast<std::uint32_t>(ports_.size()), "core ports");
    for (auto &port : ports_)
        port->io(s);
    directory_.io(s);
}

template void CorePort::io(snap::Writer &);
template void CorePort::io(snap::Reader &);
template void MemorySystem::io(snap::Writer &);
template void MemorySystem::io(snap::Reader &);

} // namespace sst
