#include "sim/cmp.hh"

#include <algorithm>
#include <atomic>

#include "common/logging.hh"
#include "common/tickgate.hh"
#include "exp/threadpool.hh"
#include "sim/fastfwd.hh"
#include "sim/machine.hh"
#include "snap/snap.hh"

namespace sst
{

namespace
{

/** Highest physical byte a program's timing accesses can touch: the
 *  data image's high-water mark or one past the last instruction's
 *  byte address, whichever is larger. */
Addr
programFootprint(const Program &program, const MemoryImage &image)
{
    return std::max<Addr>(image.highWater(),
                          program.codeBase() + program.size() * 8);
}

} // namespace

Cmp::Cmp(const MachineConfig &config,
         const std::vector<const Program *> &programs)
    : config_(config), programs_(programs), memsys_(config.mem)
{
    fatal_if(programs.empty(), "Cmp needs at least one program");
    const bool shared = memsys_.coherent();
    if (shared) {
        // True shared memory: one physical image for the whole chip.
        // Every program's segments load into it (shared workloads emit
        // identical init data and disjoint per-core result slots), and
        // its write observer feeds the coherence fabric so remote
        // speculative readers of a written line are squashed.
        images_.push_back(std::make_unique<MemoryImage>());
        for (const Program *program : programs)
            images_.back()->loadSegments(*program);
        // The observer is installed exactly once, here, for the
        // lifetime of the Cmp. restore() repopulates this same image
        // object via MemoryImage::load, which fills pages directly
        // (never through write()/writeByte()), so a restore can
        // neither fire spurious squashes nor drop the observer — a
        // remote write after restore squashes exactly as one before a
        // snapshot would.
        images_.back()->setWriteObserver([this](Addr addr, unsigned size) {
            memsys_.onFunctionalWrite(addr, size);
        });
    }
    for (std::size_t i = 0; i < programs.size(); ++i) {
        CorePort &port = memsys_.addCore();
        if (shared)
            views_.push_back(std::make_unique<OverlayImage>(
                *images_[0], static_cast<unsigned>(i), overlayShared_));
        if (!shared) {
            // saltStride bytes of physical window per core keeps
            // line/set alignment while separating the cores'
            // footprints.
            port.setAddressSalt(static_cast<Addr>(i) * saltStride);
            images_.push_back(std::make_unique<MemoryImage>());
            images_.back()->loadSegments(*programs[i]);
            // A footprint past the stride would alias the next core's
            // window and silently corrupt the timing model (shared
            // lines that don't exist architecturally). Refuse up front
            // — aliasing needs a neighbour, so one core is exempt.
            Addr footprint =
                programFootprint(*programs[i], *images_.back());
            fatal_if(programs.size() > 1 && footprint > saltStride,
                     "Cmp: program '%s' footprint 0x%llx exceeds the "
                     "per-core address salt stride 0x%llx; core %zu "
                     "would alias core %zu's physical range",
                     programs[i]->name().c_str(),
                     static_cast<unsigned long long>(footprint),
                     static_cast<unsigned long long>(saltStride), i,
                     i + 1);
        }
        MachineConfig cfg = config_;
        cfg.core.name = "core" + std::to_string(i);
        // Coherent cores execute through their buffered view; with the
        // engine idle (views drained) a view reads as the base image.
        MemoryImage &coreImage = shared ? *views_[i] : *images_.back();
        cores_.push_back(makeCore(cfg, *programs[i], coreImage, port));
        watchdogs_.push_back(
            std::make_unique<Watchdog>(config_.watchdog, *cores_.back()));
    }
}

unsigned
Cmp::workers() const
{
    // More workers than cores would idle at every barrier.
    return std::min<unsigned>(
        std::max(1u, config_.cmpWorkers),
        static_cast<unsigned>(cores_.size()));
}

Cycle
Cmp::quantum() const
{
    if (config_.cmpQuantum)
        return config_.cmpQuantum;
    if (memsys_.coherent()) {
        // Cross-core visibility is deferred to barriers, so the
        // horizon must not exceed the fastest coherence message: the
        // invalidation/intervention/upgrade a tick can trigger lands
        // at the barrier no later than it would reach the victim.
        const CohParams &coh = config_.mem.coh;
        return std::max<Cycle>(1, std::min({coh.invalidateLatency,
                                            coh.interventionLatency,
                                            coh.upgradeLatency}));
    }
    // Salted chips share only L2/DRAM timing, which the TickGate
    // orders exactly; barriers exist just to re-shard idle skips and
    // check stop conditions, so a long horizon amortises them.
    return 1024;
}

/**
 * The quantum/barrier engine. Workers tick disjoint shards of cores
 * cycle-major up to a sync horizon; every shared-state touch inside
 * the window self-orders through the TickGate in (cycle, coreId)
 * sequence; cross-core effects (coherence delivery, functional-write
 * visibility) are queued and drained in that same fixed order by the
 * barrier's serial phase. The schedule depends only on core state and
 * the quantum grid — never on the worker count — so stats, traces and
 * snapshots are byte-identical at any -j.
 */
void
Cmp::runEngine(std::uint64_t max_cycles)
{
    const unsigned n = static_cast<unsigned>(cores_.size());
    const unsigned nWorkers = workers();
    const bool fastfwd = fastForwardEnabled();
    const bool coherent = memsys_.coherent();
    const Cycle maxCycles = max_cycles;
    const Cycle q = quantum();

    TickGate gate(n);
    for (unsigned i = 0; i < n; ++i)
        gate.completeThrough(i, cycle_);
    overlayShared_.gate = &gate;
    // Once fault injection is armed every access may draw from the
    // shared RNG, even an L1 hit — gate everything.
    memsys_.beginEngineRun(&gate, config_.mem.fault.enabled());

    SpinBarrier barrier(nWorkers);

    // Engine-shared state. Plain fields are written only by the serial
    // phase (between barrier arrival and release) or before launch;
    // the barrier's acquire/release edges publish them.
    struct
    {
        Cycle h0 = 0, h1 = 0;
        bool stop = false;
        std::atomic<bool> livelock{false};
    } eng;
    eng.h0 = cycle_;
    eng.h1 = std::min<Cycle>(maxCycles, (cycle_ / q + 1) * q);
    // Per-core engine state (worker-private by shard inside windows,
    // serial at barriers).
    std::vector<Cycle> stallWake(n, 0);
    std::vector<char> parked(n, 0);

    auto park = [&](unsigned i) {
        parked[i] = 1;
        // A halted core issues nothing more; never make others wait.
        gate.completeThrough(i, invalidCycle);
    };

    // Tick every core of shard w through the window [h0, h1).
    auto tickWindow = [&](unsigned w) {
        const unsigned lo = w * n / nWorkers;
        const unsigned hi = (w + 1) * n / nWorkers;
        const Cycle h1 = eng.h1;
        for (Cycle t = eng.h0; t < h1;) {
            Cycle minNext = invalidCycle;
            for (unsigned i = lo; i < hi; ++i) {
                if (parked[i])
                    continue;
                Core &core = *cores_[i];
                if (core.halted()) {
                    park(i);
                    continue;
                }
                Cycle now = core.cycles();
                if (now == t) {
                    if (coherent)
                        views_[i]->beginTick(t);
                    std::uint64_t before = core.instsRetired();
                    core.tick();
                    // One livelocked core sinks the whole chip; the
                    // flag is examined only at barriers so the window
                    // completes identically at every worker count.
                    if (!watchdogs_[i]->observe())
                        eng.livelock.store(true,
                                           std::memory_order_relaxed);
                    gate.completeThrough(i, t + 1);
                    now = t + 1;
                    if (core.halted()) {
                        park(i);
                        continue;
                    }
                    // Per-core fast-forward: a stalled core's ticks
                    // are pure no-ops until its earliest wake (the
                    // same contract Machine::loopTo relies on), so
                    // skip them inside the window. Publishing the
                    // skip first keeps the gate monotone.
                    if (fastfwd && core.instsRetired() == before) {
                        Cycle wake = core.nextWakeCycle();
                        if (wake > now) {
                            Cycle target = std::min(
                                {wake, h1, watchdogs_[i]->skipBound()});
                            if (target > now) {
                                gate.completeThrough(i, target);
                                core.advanceIdle(target - now);
                                now = target;
                            }
                            // Reached the horizon still asleep: a
                            // candidate for a whole-quantum skip.
                            if (wake > h1 && target == h1)
                                stallWake[i] = wake;
                        }
                    }
                }
                minNext = std::min(minNext, now);
            }
            if (minNext == invalidCycle)
                break; // every owned core halted
            t = minNext;
        }
        // Shard done: every live owned core sits exactly at h1.
    };

    // Serial phase: runs on the last barrier arriver with every worker
    // parked at the horizon. Order matters and is fixed — coherence
    // delivery first, then functional visibility — see INTERNALS.md.
    auto serialPhase = [&]() {
        if (coherent) {
            // 1. Deferred invalidations/downgrades, in the (cycle,
            //    coreId) order the gate queued them.
            memsys_.drainDeferredCoh();
            // 2. Buffered functional writes, merged across cores in
            //    (cycle, coreId, program) order, replayed into the
            //    base image where its observer squashes remote
            //    speculative readers.
            struct Entry
            {
                OverlayImage::WriteRec rec;
                unsigned core;
            };
            std::vector<Entry> drain;
            for (unsigned i = 0; i < n; ++i)
                for (const auto &rec : views_[i]->log())
                    drain.push_back({rec, i});
            std::stable_sort(drain.begin(), drain.end(),
                             [](const Entry &a, const Entry &b) {
                                 if (a.rec.cycle != b.rec.cycle)
                                     return a.rec.cycle < b.rec.cycle;
                                 return a.core < b.core;
                             });
            for (const Entry &e : drain) {
                memsys_.setActiveCore(e.core);
                images_[0]->write(e.rec.addr, e.rec.value, e.rec.size);
            }
            // 3. Sink surviving plain stores past the atomic chain.
            //    A plain store is invisible to other cores' atomics
            //    until this barrier, so in the quantum's serialization
            //    it slides after them — unless its own core's later
            //    atomic superseded it. Concretely: for every byte the
            //    journal touched, the program-order-last plain store
            //    (across cores, latest (cycle, coreId) winning) beats
            //    the journal value; with no surviving plain store the
            //    replay above already left the chain tail in place.
            //    Without this, a spinning core's failed swap could
            //    overwrite the holder's buffered release and poison
            //    the lock for everyone.
            if (!overlayShared_.journal.empty()) {
                std::vector<Addr> touched;
                touched.reserve(overlayShared_.journal.size());
                for (const auto &kv : overlayShared_.journal)
                    touched.push_back(kv.first);
                std::sort(touched.begin(), touched.end());
                for (Addr a : touched) {
                    bool have = false;
                    Cycle bestCycle = 0;
                    unsigned bestCore = 0;
                    std::uint8_t bestVal = 0;
                    for (unsigned i = 0; i < n; ++i) {
                        const auto lw = views_[i]->lastWriteTo(a);
                        if (!lw.found || lw.atomic)
                            continue;
                        if (!have || lw.cycle > bestCycle
                            || (lw.cycle == bestCycle && i > bestCore)) {
                            have = true;
                            bestCycle = lw.cycle;
                            bestCore = i;
                            bestVal = lw.byte;
                        }
                    }
                    if (have && images_[0]->readByte(a) != bestVal) {
                        memsys_.setActiveCore(bestCore);
                        images_[0]->writeByte(a, bestVal);
                    }
                }
            }
            for (unsigned i = 0; i < n; ++i)
                views_[i]->clearQuantum();
            overlayShared_.journal.clear();
            overlayShared_.elided.clear();
        }

        cycle_ = eng.h1;
        allHalted_ = true;
        for (auto &core : cores_)
            allHalted_ &= core->halted();
        if (allHalted_) {
            // The chip clock stops with the slowest core, exactly as
            // the sequential loop's final pass would leave it.
            Cycle slowest = 0;
            for (auto &core : cores_)
                slowest = std::max(slowest, core->cycles());
            cycle_ = slowest;
        }
        if (eng.livelock.load(std::memory_order_relaxed))
            livelocked_ = true;
        eng.stop = allHalted_ || livelocked_ || eng.h1 >= maxCycles;
        if (eng.stop)
            return;

        // Next window, on the quantum grid.
        const Cycle begin = eng.h1;
        Cycle end = (begin / q + 1) * q;
        // Whole-quantum skip: when every live core sleeps past the
        // horizon, jump the grid to the earliest wake (clamped by the
        // watchdogs). The skipped windows are provably empty, so
        // skipping them is byte-equivalent to ticking through them.
        bool allStalled = true;
        Cycle minWake = invalidCycle;
        for (unsigned i = 0; i < n; ++i) {
            if (cores_[i]->halted())
                continue;
            if (!stallWake[i]) {
                allStalled = false;
                break;
            }
            minWake = std::min(
                minWake,
                std::min(stallWake[i], watchdogs_[i]->skipBound()));
        }
        if (allStalled && minWake != invalidCycle) {
            Cycle skipTo = minWake / q * q;
            if (skipTo > end)
                end = skipTo;
        }
        std::fill(stallWake.begin(), stallWake.end(), Cycle{0});
        eng.h0 = begin;
        eng.h1 = std::min(end, maxCycles);
    };

    auto workerLoop = [&](unsigned w) {
        while (true) {
            tickWindow(w);
            if (barrier.arrive()) {
                serialPhase();
                barrier.release();
            }
            if (eng.stop)
                break;
        }
    };

    if (nWorkers == 1) {
        workerLoop(0);
    } else {
        exp::ThreadPool pool(nWorkers - 1);
        for (unsigned w = 1; w < nWorkers; ++w)
            pool.submit([&, w] { workerLoop(w); });
        workerLoop(0);
        pool.wait();
    }

    memsys_.endEngineRun();
    overlayShared_.gate = nullptr;
}

CmpResult
Cmp::run(std::uint64_t max_cycles)
{
    if (!allHalted_ && !livelocked_ && cycle_ < max_cycles)
        runEngine(max_cycles);

    for (auto &core : cores_)
        core->finalizeAttribution();

    CmpResult res;
    res.preset = config_.presetName;
    res.cores = static_cast<unsigned>(cores_.size());
    res.finished = allHalted_;
    if (!allHalted_)
        res.degrade = livelocked_ ? DegradeReason::Livelock
                                  : DegradeReason::CycleBudget;
    for (auto &dog : watchdogs_)
        res.watchdogRecoveries += dog->recoveries();
    for (auto &core : cores_) {
        res.totalInsts += core->instsRetired();
        res.perCoreIpc.push_back(core->ipc());
    }
    // The chip clock, not the max per-core counter: the two agree when
    // the run finishes, but only the chip clock is meaningful on a
    // budget/livelock stop and after restore() (the accounting bug
    // this replaces reported per-core cycles that could exceed the
    // clock the snapshot would resume from).
    res.cycles = cycle_;
    res.aggregateIpc = cycle_ ? static_cast<double>(res.totalInsts)
                                    / static_cast<double>(cycle_)
                              : 0.0;
    return res;
}

template <class Io>
void
Cmp::fileIo(Io &s)
{
    snap::header(s, snap::Kind::Cmp, config_.presetName, config_.model);
    s.expect(static_cast<std::uint32_t>(cores_.size()), "cores");
    for (const Program *program : programs_)
        snap::program(s, program->name(), programFingerprint(*program));
    s.u64(cycle_);
    s.tag("cmp-state");
    s.b(allHalted_);
    s.b(livelocked_);
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        cores_[i]->io(s);
        watchdogs_[i]->io(s);
    }
    // One image in coherent mode, one per core otherwise.
    for (const auto &image : images_)
        image->io(s);
    memsys_.io(s);
    memsys_.stats().io(s);
}

std::vector<std::uint8_t>
Cmp::snapshot() const
{
    snap::Writer w;
    const_cast<Cmp *>(this)->fileIo(w);
    return w.data();
}

void
Cmp::restore(const std::vector<std::uint8_t> &bytes)
{
    snap::Reader r(bytes);
    fileIo(r);
    r.done();
    // Views are always drained at snapshot points; discard any buffered
    // bytes so the restored base is the only truth. The base image's
    // write observer survives io() untouched (see the constructor), so
    // post-restore remote writes squash exactly as before.
    for (const auto &view : views_)
        view->clearQuantum();
    overlayShared_.journal.clear();
    overlayShared_.elided.clear();
}

Result<void>
Cmp::snapshotToFile(const std::string &path) const
{
    return snap::writeFile(path, snapshot());
}

Result<void>
Cmp::restoreFromFile(const std::string &path)
{
    auto bytes = snap::readFile(path);
    if (!bytes.ok())
        return bytes.error();
    return trapFatal([&] { restore(bytes.value()); });
}

} // namespace sst
