/**
 * @file
 * sstbench: end-to-end and per-layer host-speed benchmark for the
 * simulator.
 *
 *   sstbench --workload NAME --seed N --seconds S --trace 0|1
 *            [--scratch DIR] [--spans FILE]
 *
 * Inputs are generated from --seed before anything is timed; only the
 * generated Programs reach the simulator. The job set of the chosen
 * workload then runs as a closed loop (the next simulation starts when
 * the previous one ends) in passes until --seconds have elapsed; a
 * reported timing sums each job's fastest pass, and set-up time is the
 * median of several set-ups. Every job is checked
 * (golden architectural state, -j1 vs -jN chip snapshots, in-memory vs
 * on-disk profile members, traced vs untraced stats); a job that fails
 * a check counts in "failed".
 *
 * --trace 0 prints the end-to-end metrics. --trace 1 alternates
 * untraced passes with traced ones, in which the benchmark drives the
 * single-core run loop itself and times every call into Core, Watchdog
 * and Machine, and prints the per-layer metrics. Job spans go to
 * --spans when given. NOTES.md beside this file maps every metric to
 * the layer and workload it belongs to.
 *
 * The last line of standard output is one JSON object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/config.hh"
#include "common/logging.hh"
#include "func/executor.hh"
#include "isa/opcodes.hh"
#include "sim/cmp.hh"
#include "sim/fastfwd.hh"
#include "sim/machine.hh"
#include "sim/profile.hh"
#include "snap/snap.hh"
#include "workloads/workloads.hh"

using namespace sst;

namespace
{

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

enum class Kind
{
    Detail, ///< full detailed single-core runs, preset x program
    Cmp,    ///< coherent 16-core chip at -j1 and at -jN
    Sample  ///< profile library build/save/load + library-served runs
};

struct WorkloadSpec
{
    std::string name;
    Kind kind;
    std::vector<std::string> presets;
    std::vector<std::string> programs;
    double lengthScale;
};

/** Set-ups per run: at least kSetups, repeated for at least
 *  kSetupSeconds, so that the median of a few-millisecond set-up spans
 *  more than one moment of host load. setup_s is their median. */
constexpr std::size_t kSetups = 11;
constexpr double kSetupSeconds = 1.0;

const std::vector<std::string> kDetailPresets = {"inorder", "scout", "sst2",
                                                 "sst4", "ooo-large"};

/** The benchmark's workloads. pointer_chase and list_walk stay out:
 *  on the SST presets they spend their cycles in watchdog-forced
 *  rollbacks (NOTES.md), which would time the pathology, not the
 *  simulator. detail_compute and cmp_shared use short programs: more
 *  passes per run make the fastest-pass estimate steadier. */
const std::vector<WorkloadSpec> &
workloadSpecs()
{
    static const std::vector<WorkloadSpec> specs = {
        {"detail_mem", Kind::Detail, kDetailPresets,
         {"oltp_mix", "hash_join", "btree_lookup"}, 2.0},
        {"detail_compute", Kind::Detail, kDetailPresets,
         {"compute_kernel", "matrix_blocked", "sorted_merge"}, 1.5},
        {"cmp_shared", Kind::Cmp, {"rock16"},
         {"spinlock_counter", "shared_table", "producer_consumer"}, 0.2},
        {"sample_profile", Kind::Sample, {"sst2"},
         {"oltp_mix", "hash_join"}, 8.0},
    };
    return specs;
}

/** Metric-name form of a preset ("ooo-large" -> "ooo_large"). */
std::string
metricKey(std::string preset)
{
    std::replace(preset.begin(), preset.end(), '-', '_');
    return preset;
}

/** Generated inputs of one workload. */
struct Inputs
{
    /** Single-core programs (Detail, Sample). */
    std::vector<Workload> programs;
    /** Per shared-memory workload, one program per chip core (Cmp). */
    std::vector<std::vector<Workload>> shared;
};

Inputs
generate(const WorkloadSpec &spec, std::uint64_t seed)
{
    WorkloadParams params;
    params.seed = seed;
    params.lengthScale = spec.lengthScale;
    Inputs in;
    for (const std::string &name : spec.programs) {
        if (spec.kind == Kind::Cmp)
            in.shared.push_back(makeSharedWorkload(
                name, makePreset(spec.presets[0]).cmpCores, params));
        else
            in.programs.push_back(makeWorkload(name, params));
    }
    return in;
}

std::vector<const Program *>
programPointers(const std::vector<Workload> &set)
{
    std::vector<const Program *> out;
    for (const Workload &w : set)
        out.push_back(&w.program);
    return out;
}

/** Worker count of the parallel CMP leg: 2, or 1 on a 1-thread host. */
unsigned
parallelWorkers()
{
    return std::max(1u, std::min(2u, std::thread::hardware_concurrency()));
}

/**
 * One set-up: generate every program and construct (then drop) every
 * Machine/Cmp the job set runs. @return host seconds; @p out receives
 * the programs.
 */
double
setupOnce(const WorkloadSpec &spec, std::uint64_t seed, Inputs &out)
{
    std::uint64_t t0 = nowNs();
    out = generate(spec, seed);
    for (const std::string &preset : spec.presets) {
        MachineConfig mc = makePreset(preset);
        if (spec.kind == Kind::Cmp) {
            for (const auto &set : out.shared)
                for (unsigned leg = 0; leg < 2; ++leg)
                    Cmp cmp(mc, programPointers(set));
        } else {
            for (const Workload &w : out.programs)
                Machine machine(mc, w.program);
        }
    }
    return static_cast<double>(nowNs() - t0) * 1e-9;
}

// ---------------------------------------------------------------------
// Spans: job boundaries as spans, per-call timings folded per job.
// ---------------------------------------------------------------------

struct Fold
{
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;

    void
    add(std::uint64_t d)
    {
        ++calls;
        ns += d;
    }

    void
    merge(const Fold &o)
    {
        calls += o.calls;
        ns += o.ns;
    }

    double meanNs() const { return ratio(double(ns), double(calls)); }
};

struct SpanRec
{
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t job;
    std::string name;
    std::uint64_t start;
    std::uint64_t end;
};

/** In-memory span store, written out once when the run ends. */
class Spans
{
  public:
    std::uint64_t
    open(const std::string &name, std::uint64_t parent, std::uint64_t job)
    {
        spans_.push_back({spans_.size() + 1, parent, job, name, nowNs(), 0});
        return spans_.size();
    }

    void close(std::uint64_t id) { spans_[id - 1].end = nowNs(); }

    /** Record a span whose boundaries were taken by the caller. */
    void
    add(const std::string &name, std::uint64_t parent, std::uint64_t job,
        std::uint64_t start, std::uint64_t end)
    {
        spans_.push_back({spans_.size() + 1, parent, job, name, start, end});
    }

    /** Attach a folded per-call timing (a child of job @p job). */
    void
    fold(std::uint64_t job, const std::string &layer, const Fold &f)
    {
        if (f.calls)
            folds_[{job, layer}].merge(f);
    }

    /** Host ns of every top-level span: the traced wall-clock. */
    std::uint64_t
    topLevelNs() const
    {
        std::uint64_t ns = 0;
        for (const SpanRec &s : spans_)
            if (s.parent == 0)
                ns += s.end - s.start;
        return ns;
    }

    /** Per-layer calls and self time. Folded layers are leaves. A job
     *  span's self time is its duration minus its folded layers; any
     *  other span's ("<name>.self") is its duration minus its child
     *  spans. */
    std::map<std::string, Fold>
    selfTimes() const
    {
        std::map<std::string, Fold> out;
        std::map<std::uint64_t, std::uint64_t> foldNs, childNs;
        for (const auto &[key, f] : folds_) {
            out[key.second].merge(f);
            foldNs[key.first] += f.ns;
        }
        for (const SpanRec &s : spans_)
            if (s.parent)
                childNs[s.parent] += s.end - s.start;
        for (const SpanRec &s : spans_) {
            std::uint64_t d = s.end - s.start;
            std::uint64_t c = s.name == "job" ? foldNs[s.job] : childNs[s.id];
            out[s.name + ".self"].add(d > c ? d - c : 0);
        }
        return out;
    }

    bool
    write(const std::string &path) const
    {
        std::ofstream os(path);
        if (!os)
            return false;
        os << "{\"spans\": [\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const SpanRec &s = spans_[i];
            os << "  {\"id\": " << s.id << ", \"parent\": " << s.parent
               << ", \"job\": " << s.job << ", \"name\": \"" << s.name
               << "\", \"start_ns\": " << s.start
               << ", \"end_ns\": " << s.end << "}"
               << (i + 1 < spans_.size() ? ",\n" : "\n");
        }
        os << "], \"folds\": [\n";
        std::size_t i = 0;
        for (const auto &[key, f] : folds_)
            os << "  {\"job\": " << key.first << ", \"layer\": \""
               << key.second << "\", \"calls\": " << f.calls
               << ", \"ns\": " << f.ns << "}"
               << (++i < folds_.size() ? ",\n" : "\n");
        os << "]}\n";
        return static_cast<bool>(os);
    }

  private:
    std::vector<SpanRec> spans_;
    std::map<std::pair<std::uint64_t, std::string>, Fold> folds_;
};

// ---------------------------------------------------------------------
// Jobs
// ---------------------------------------------------------------------

/** Golden functional reference of one single-core program. */
struct Golden
{
    ArchState state;
    std::unique_ptr<MemoryImage> mem;
    std::uint64_t insts = 0;
};

Golden
runGolden(const Program &program)
{
    Golden g;
    g.mem = std::make_unique<MemoryImage>();
    g.mem->loadSegments(program);
    Executor exec(program, *g.mem);
    g.insts = exec.run(g.state, 2'000'000'000ULL);
    return g;
}

/** Simulated outcome and host cost of one job. */
struct JobOut
{
    std::uint64_t insts = 0;
    std::uint64_t ns = 0; ///< timed host ns
    /** Job span of a traced job: from construction to the end of its
     *  checks, so it holds untimed work beside the folded calls. */
    std::uint64_t start = 0, end = 0;
    Cycle cycles = 0;
    bool ok = true;
    std::uint64_t digest = 0;
    std::map<std::string, double> stats;    ///< RunResult.stats
    std::map<std::string, double> memStats; ///< memsys().stats()
};

void
mixDouble(snap::Hasher &h, double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    h.mixU64(bits);
}

void
mixStats(snap::Hasher &h, const std::map<std::string, double> &stats)
{
    for (const auto &[key, value] : stats) {
        h.mix(key.data(), key.size());
        mixDouble(h, value);
    }
}

/** Sum of every stat whose name ends with @p suffix. */
double
sumSuffix(const std::map<std::string, double> &stats,
          const std::string &suffix)
{
    double sum = 0;
    for (const auto &[key, value] : stats)
        if (key.size() >= suffix.size()
            && key.compare(key.size() - suffix.size(), suffix.size(), suffix)
                   == 0)
            sum += value;
    return sum;
}

/** Harvested single-core job: checks against the golden executor and
 *  fingerprints every simulated number. */
void
finishSingle(JobOut &out, Machine &machine, const RunResult &r,
             const Golden &golden)
{
    out.insts = r.insts;
    out.cycles = r.cycles;
    out.stats = r.stats;
    out.memStats = machine.memsys().stats().flatten();
    out.ok = r.finished && r.degrade == DegradeReason::None
             && machine.core().archState().regsEqual(golden.state)
             && machine.image().contentEquals(*golden.mem)
             && r.insts == golden.insts;
    snap::Hasher h;
    h.mixU64(r.cycles);
    h.mixU64(r.insts);
    mixStats(h, out.stats);
    mixStats(h, out.memStats);
    out.digest = h.value();
}

JobOut
runSingle(const MachineConfig &mc, const Program &program,
          const Golden &golden)
{
    Machine machine(mc, program);
    JobOut out;
    std::uint64_t t0 = nowNs();
    RunResult r = machine.run();
    out.ns = nowNs() - t0;
    finishSingle(out, machine, r, golden);
    return out;
}

/** Per-call timings of traced single-core jobs, per preset. */
struct LoopTrace
{
    Fold tick, observe, analyze, advance, harvest;
    std::uint64_t wakeNow = 0;  ///< analyses that answered "act now"
    std::uint64_t skipped = 0;  ///< cycles advanced by advanceIdle
    std::uint64_t cycles = 0;   ///< simulated cycles of the traced jobs
    std::uint64_t loopNs = 0;   ///< host ns of the traced loops

    void
    merge(const LoopTrace &o)
    {
        tick.merge(o.tick);
        observe.merge(o.observe);
        analyze.merge(o.analyze);
        advance.merge(o.advance);
        harvest.merge(o.harvest);
        wakeNow += o.wakeNow;
        skipped += o.skipped;
        cycles += o.cycles;
        loopNs += o.loopNs;
    }
};

/**
 * Traced single-core job. Drives Machine::loopTo's exact sequence
 * itself (tick, watchdog observe, and after a tick that retired
 * nothing nextWakeCycle then advanceIdle(min(wake, bound, skipBound) -
 * now)), timing every call, then calls Machine::run() only to harvest.
 * Each timestamp closes one call and opens the next, so the folded
 * layers tile the loop; Machine construction and the golden checks
 * fall outside them.
 */
JobOut
runSingleTraced(const MachineConfig &mc, const Program &program,
                const Golden &golden, LoopTrace &lt)
{
    constexpr Cycle bound = 500'000'000; // Machine::run()'s default
    const std::uint64_t spanStart = nowNs();
    Machine machine(mc, program);
    Core &core = machine.core();
    Watchdog &watchdog = machine.watchdog();
    const bool fastfwd = fastForwardEnabled();
    JobOut out;
    bool livelocked = false;

    const std::uint64_t start = nowNs();
    std::uint64_t t = start;
    while (!core.halted() && core.cycles() < bound) {
        std::uint64_t before = core.instsRetired();
        core.tick();
        std::uint64_t t1 = nowNs();
        lt.tick.add(t1 - t);
        bool alive = watchdog.observe();
        t = nowNs();
        lt.observe.add(t - t1);
        if (!alive) {
            livelocked = true;
            break;
        }
        if (fastfwd && !core.halted() && core.instsRetired() == before) {
            Cycle wake = core.nextWakeCycle();
            std::uint64_t t2 = nowNs();
            lt.analyze.add(t2 - t);
            t = t2;
            Cycle now = core.cycles();
            Cycle target =
                std::min(std::min(wake, bound), watchdog.skipBound());
            if (wake <= now)
                ++lt.wakeNow;
            if (wake > now && target > now) {
                core.advanceIdle(target - now);
                lt.skipped += target - now;
                t2 = nowNs();
                lt.advance.add(t2 - t);
                t = t2;
            }
        }
    }
    lt.loopNs += t - start;
    out.start = spanStart;
    if (livelocked) {
        // Machine::run() would resume the loop; the job already failed.
        out.ok = false;
        out.end = t;
        out.ns = t - start;
        return out;
    }
    RunResult r = machine.run(bound);
    const std::uint64_t end = nowNs();
    lt.harvest.add(end - t);
    lt.cycles += r.cycles;
    out.ns = end - start;
    finishSingle(out, machine, r, golden);
    out.end = nowNs();
    return out;
}

/** One leg of a coherent chip run. */
struct CmpLeg
{
    JobOut job;
    std::vector<std::uint8_t> snapshot;
    std::uint64_t snapNs = 0;
    double invalidations = 0, sleCommits = 0, sleAborts = 0;
};

CmpLeg
runCmpLeg(MachineConfig mc, const std::vector<Workload> &set,
          unsigned workers)
{
    mc.cmpWorkers = workers;
    Cmp cmp(mc, programPointers(set));
    CmpLeg leg;
    std::uint64_t t0 = nowNs();
    CmpResult r = cmp.run();
    leg.job.ns = nowNs() - t0;
    t0 = nowNs();
    leg.snapshot = cmp.snapshot();
    leg.snapNs = nowNs() - t0;

    leg.job.insts = r.totalInsts;
    leg.job.cycles = r.cycles;
    leg.job.ok = r.finished && r.degrade == DegradeReason::None;
    leg.job.memStats = cmp.memsys().stats().flatten();
    snap::Hasher h;
    h.mixU64(r.cycles);
    h.mixU64(r.totalInsts);
    for (unsigned i = 0; i < r.cores; ++i) {
        auto stats = cmp.core(i).stats().flatten();
        leg.sleCommits += sumSuffix(stats, ".sle_commits");
        leg.sleAborts += sumSuffix(stats, ".sle_aborts");
        mixStats(h, stats);
    }
    leg.job.stats["watchdog.recoveries"] =
        static_cast<double>(r.watchdogRecoveries);
    mixStats(h, leg.job.memStats);
    leg.job.digest = h.value();
    leg.invalidations = sumSuffix(leg.job.memStats, ".coh_invalidations");
    return leg;
}

/** One program's trip through the checkpoint-warmed sampling path. */
struct SampleOut
{
    JobOut job;
    std::uint64_t buildNs = 0, saveNs = 0, loadNs = 0, sampledNs = 0;
    std::uint64_t memberBytes = 0;
    std::size_t windows = 0;
    double ipc = 0;
};

SampleOut
runSample(const MachineConfig &mc, const Workload &w,
          const std::string &cacheRoot)
{
    SampleOut s;
    s.job.start = nowNs();
    Config effective;
    MachineConfig cfg = mc;
    applyOverrides(cfg, effective);
    const std::uint64_t configHash = memConfigHash(cfg, effective);
    ProfileParams pp;
    pp.regionInsts = profileRegionHint(w.approxDynInsts);
    SampleParams sp;
    sp.detailInsts = 5'000;
    sp.maxSamples = 5;

    std::uint64_t t0 = nowNs();
    ProfileLibrary built = buildProfileLibrary(cfg, w.program, pp, configHash);
    std::uint64_t t1 = nowNs();
    const std::string dir =
        profileCacheDir(cacheRoot, cfg, w.program, pp, configHash);
    Result<void> saved = saveProfileLibrary(built, dir);
    std::uint64_t t2 = nowNs();
    Result<ProfileLibrary> loaded =
        loadProfileLibrary(dir, cfg, w.program, pp, configHash);
    std::uint64_t t3 = nowNs();
    s.buildNs = t1 - t0;
    s.saveNs = t2 - t1;
    s.loadNs = t3 - t2;
    if (!saved.ok() || !loaded.ok()) {
        s.job.ok = false;
        s.job.ns = t3 - t0;
        s.job.end = t3;
        return s;
    }
    const ProfileLibrary &lib = loaded.value();
    SampledResult est = runSampledFromLibrary(cfg, w.program, lib, sp);
    s.sampledNs = nowNs() - t3;
    s.job.ns = s.buildNs + s.saveNs + s.loadNs + s.sampledNs;

    // Members read back from disk must be byte-identical to the ones
    // built in memory.
    bool same = built.regions.size() == lib.regions.size();
    for (std::size_t i = 0; same && i < lib.regions.size(); ++i)
        same = built.regions[i].member == lib.regions[i].member;
    s.job.ok = same && !est.windowIpc.empty() && est.ipc > 0;
    s.job.insts = lib.totalInsts;
    s.windows = est.windowIpc.size();
    s.ipc = est.ipc;

    // A member ends with an FNV-1a checksum of its other bytes (checked
    // on load), so its size and that trailer fingerprint it without
    // hashing tens of MiB again in every pass.
    snap::Hasher h;
    h.mixU64(lib.totalInsts);
    for (const ProfileRegion &r : lib.regions) {
        s.memberBytes += r.member.size();
        h.mixU64(r.member.size());
        if (r.member.size() >= 8)
            h.mix(r.member.data() + r.member.size() - 8, 8);
    }
    for (double v : est.windowIpc)
        mixDouble(h, v);
    h.mixU64(est.detailedInsts);
    s.job.digest = h.value();
    s.job.end = nowNs();
    return s;
}

// ---------------------------------------------------------------------
// Per-layer probes (traced runs only)
// ---------------------------------------------------------------------

/** Executor::run over @p program: host ns and instructions. */
std::pair<std::uint64_t, std::uint64_t>
timeFunctional(const Program &program)
{
    MemoryImage mem;
    mem.loadSegments(program);
    Executor exec(program, mem);
    ArchState state;
    std::uint64_t t0 = nowNs();
    std::uint64_t insts = exec.run(state, 2'000'000'000ULL);
    return {nowNs() - t0, insts};
}

/**
 * Replay @p program's functional load/store stream (from Executor::step)
 * into a fresh MemorySystem through CorePort::access, one access per
 * cycle, retrying rejected accesses at their retry cycle. @return host
 * ns and access calls.
 */
std::pair<std::uint64_t, std::uint64_t>
timeMemReplay(const Program &program, const HierarchyParams &params)
{
    struct Ref
    {
        Addr addr;
        bool store;
    };
    std::vector<Ref> stream;
    {
        MemoryImage mem;
        mem.loadSegments(program);
        Executor exec(program, mem);
        ArchState state;
        while (!state.halted && stream.size() < 2'000'000) {
            StepInfo s = exec.step(state);
            if (s.effAddr != invalidAddr)
                stream.push_back({s.effAddr, isStore(s.inst.op)
                                                 || isAtomic(s.inst.op)});
        }
    }
    MemorySystem memsys(params);
    CorePort &port = memsys.addCore();
    Cycle now = 0;
    std::uint64_t calls = 0;
    std::uint64_t t0 = nowNs();
    for (const Ref &ref : stream) {
        AccessType type = ref.store ? AccessType::Store : AccessType::Load;
        for (;;) {
            AccessResult r = port.access(type, ref.addr, now);
            ++calls;
            if (!r.rejected)
                break;
            now = std::max(now + 1, r.retryCycle);
        }
        ++now;
    }
    return {nowNs() - t0, calls};
}

struct SnapProbe
{
    double bytes = 0, saveMbS = 0, restoreMbS = 0, hashMbS = 0;
    bool ok = true;
};

/** snapshot/restore/stateHash of an sst2 Machine stepped half-way
 *  (@p halfCycle) through @p program; medians of three calls each. */
SnapProbe
probeSnapshots(const Program &program, Cycle halfCycle)
{
    MachineConfig mc = makePreset("sst2");
    Machine machine(mc, program);
    machine.stepTo(halfCycle);
    std::vector<double> save, restore, hash;
    std::vector<std::uint8_t> bytes;
    SnapProbe p;
    const std::uint64_t want = machine.stateHash();
    for (int rep = 0; rep < 3; ++rep) {
        std::uint64_t t0 = nowNs();
        bytes = machine.snapshot();
        save.push_back(double(nowNs() - t0));
        Machine fresh(mc, program);
        t0 = nowNs();
        fresh.restore(bytes);
        restore.push_back(double(nowNs() - t0));
        t0 = nowNs();
        std::uint64_t got = fresh.stateHash();
        hash.push_back(double(nowNs() - t0));
        p.ok = p.ok && got == want;
    }
    p.bytes = double(bytes.size());
    const double mb = p.bytes / (1024.0 * 1024.0);
    p.saveMbS = ratio(mb, median(save) * 1e-9);
    p.restoreMbS = ratio(mb, median(restore) * 1e-9);
    p.hashMbS = ratio(mb, median(hash) * 1e-9);
    return p;
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
formatValue(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string scratch = ".sstbench-scratch";
    std::string spans;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "sstbench: %s\nusage: sstbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--scratch DIR] [--spans FILE]\n"
                 "workloads:",
                 msg);
    for (const WorkloadSpec &s : workloadSpecs())
        std::fprintf(stderr, " %s", s.name.c_str());
    std::fprintf(stderr, "\n");
    std::exit(64);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        std::string val = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            o.workload = val;
        } else if (key == "--seed") {
            o.seed = std::strtoull(val.c_str(), &end, 10);
        } else if (key == "--seconds") {
            o.seconds = std::strtod(val.c_str(), &end);
            if (!(o.seconds > 0))
                usage("--seconds must be positive");
        } else if (key == "--trace") {
            if (val != "0" && val != "1")
                usage("--trace takes 0 or 1");
            o.trace = val == "1";
        } else if (key == "--scratch") {
            o.scratch = val;
        } else if (key == "--spans") {
            o.spans = val;
        } else {
            usage(("unknown option " + key).c_str());
        }
        if (end && *end)
            usage(("bad number for " + key).c_str());
    }
    if (o.workload.empty())
        usage("--workload is required");
    return o;
}

// ---------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------

/**
 * Host-time samples of every timed item (a job, or one phase of a job)
 * across passes. Every pass repeats exactly the same deterministic
 * simulation, so host interference can only add time: aggregates are
 * built from each item's fastest pass, which on a shared host is far
 * steadier than the median (NOTES.md, "Steadiness").
 */
class Timings
{
  public:
    void add(const std::string &item, double ns) { ns_[item].push_back(ns); }

    /** Fastest sample of @p item: the least-disturbed run of work that
     *  is identical in every pass. */
    double
    best(const std::string &item) const
    {
        auto it = ns_.find(item);
        return it == ns_.end()
                   ? 0
                   : *std::min_element(it->second.begin(), it->second.end());
    }

  private:
    std::map<std::string, std::vector<double>> ns_;
};

/** Timings key of program @p p's sampling phase @p phase. */
std::string
phaseItem(const std::string &phase, std::size_t p)
{
    return phase + "/" + std::to_string(p);
}

/** Identity of one job of the job set, from the reference pass. */
struct JobInfo
{
    std::string item;  ///< Timings key
    std::string group; ///< preset key, "cmp_j1", "cmp_par" or "sample"
    double insts;
};

/** Everything one run accumulates across passes. */
struct Run
{
    const WorkloadSpec &spec;
    const Options &opt;
    Inputs in;
    std::vector<Golden> golden;

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Per job index: the first untraced pass's outcome (reference),
     *  then any untimed reference runs; with each one's group. */
    std::vector<JobOut> reference;
    std::vector<std::string> referenceGroup;
    std::vector<JobInfo> jobs;
    Timings untraced, traced;
    unsigned untracedPasses = 0, tracedPasses = 0;

    std::map<std::string, LoopTrace> loops;
    Spans spans;
    std::uint64_t tracedJobs = 0;

    // Simulated facts, from the reference pass.
    double cmpSimCycles = 0, cohInvalidations = 0, sleCommits = 0,
           sleAborts = 0, memberBytes = 0, windows = 0;
    std::vector<double> sampleIpc; ///< per program, sampled estimate
    double snapBytes = 0, snapSave = 0, snapRestore = 0, snapHash = 0;

    Run(const WorkloadSpec &s, const Options &o) : spec(s), opt(o) {}

    void
    check(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }

    /** Record job @p index's outcome and host time: checks it, and
     *  compares it with the reference pass (determinism, and
     *  traced-vs-untraced fidelity). */
    void
    record(std::size_t index, const JobOut &job, bool isTraced,
           const std::string &group)
    {
        bool ok = job.ok;
        if (index < reference.size()) {
            const JobOut &ref = reference[index];
            ok = ok && job.digest == ref.digest && job.stats == ref.stats
                 && job.memStats == ref.memStats && job.insts == ref.insts
                 && job.cycles == ref.cycles;
        } else {
            reference.push_back(job);
            referenceGroup.push_back(group);
            jobs.push_back({"job." + std::to_string(index), group,
                            double(job.insts)});
        }
        check(ok);
        (isTraced ? traced : untraced).add(jobs[index].item, double(job.ns));
    }

    /** Sum of the fastest host ns of every job (in @p group when set). */
    double
    wallNs(const Timings &t, const std::string &group = "") const
    {
        double ns = 0;
        for (const JobInfo &j : jobs)
            if (group.empty() || j.group == group)
                ns += t.best(j.item);
        return ns;
    }

    /** Simulated M instructions per host second of @p group's jobs. */
    double
    groupMips(const std::string &group) const
    {
        double insts = 0;
        for (const JobInfo &j : jobs)
            if (j.group == group)
                insts += j.insts;
        return ratio(insts, wallNs(untraced, group) * 1e-3);
    }

    /** Geometric mean over jobs of each job's fastest-pass MIPS. */
    double
    gmeanMips() const
    {
        double logSum = 0;
        for (const JobInfo &j : jobs)
            logSum += std::log(
                std::max(1e-12, ratio(j.insts, untraced.best(j.item) * 1e-3)));
        return jobs.empty() ? 0 : std::exp(logSum / double(jobs.size()));
    }

    /** Fastest time of sampling phase @p phase, summed over programs. */
    double
    phaseS(const std::string &phase) const
    {
        double ns = 0;
        for (std::size_t p = 0; p < in.programs.size(); ++p)
            ns += untraced.best(phaseItem(phase, p));
        return ns * 1e-9;
    }

    /** Traced single-core job on program @p p, recorded as a job span
     *  under @p parent with its per-call folds. */
    JobOut
    tracedSingle(const MachineConfig &mc, std::size_t p,
                 const std::string &preset, std::uint64_t parent)
    {
        LoopTrace lt;
        JobOut j = runSingleTraced(mc, in.programs[p].program, golden[p], lt);
        const std::uint64_t job = ++tracedJobs;
        spans.add("job", parent, job, j.start, j.end);
        spans.fold(job, "core.tick", lt.tick);
        spans.fold(job, "watchdog.observe", lt.observe);
        spans.fold(job, "wake.analyze", lt.analyze);
        spans.fold(job, "wake.advance", lt.advance);
        spans.fold(job, "machine.harvest", lt.harvest);
        loops[preset].merge(lt);
        return j;
    }

    void
    pass(bool isTraced)
    {
        const bool first = untracedPasses + tracedPasses == 0;
        ++(isTraced ? tracedPasses : untracedPasses);
        const std::uint64_t passSpan =
            isTraced ? spans.open("pass", 0, 0) : 0;
        std::size_t index = 0;
        std::string cacheRoot;

        if (spec.kind == Kind::Detail) {
            for (const std::string &preset : spec.presets) {
                MachineConfig mc = makePreset(preset);
                for (std::size_t p = 0; p < in.programs.size(); ++p) {
                    JobOut j =
                        isTraced
                            ? tracedSingle(mc, p, metricKey(preset), passSpan)
                            : runSingle(mc, in.programs[p].program,
                                        golden[p]);
                    record(index++, j, isTraced, metricKey(preset));
                }
            }
        } else if (spec.kind == Kind::Cmp) {
            MachineConfig mc = makePreset(spec.presets[0]);
            for (const auto &set : in.shared) {
                std::uint64_t job = isTraced ? ++tracedJobs : 0;
                std::uint64_t span =
                    isTraced ? spans.open("job", passSpan, job) : 0;
                CmpLeg seq = runCmpLeg(mc, set, 1);
                CmpLeg par = runCmpLeg(mc, set, parallelWorkers());
                // The parallel engine must leave the chip byte-identical.
                par.job.ok = par.job.ok && par.snapshot == seq.snapshot;
                if (isTraced) {
                    spans.close(span);
                    Fold run, snap;
                    run.add(seq.job.ns);
                    run.add(par.job.ns);
                    snap.add(seq.snapNs);
                    snap.add(par.snapNs);
                    spans.fold(job, "cmp.run", run);
                    spans.fold(job, "snap.cmp_snapshot", snap);
                }
                record(index++, seq.job, isTraced, "cmp_j1");
                record(index++, par.job, isTraced, "cmp_par");
                if (first) {
                    cmpSimCycles += double(seq.job.cycles);
                    cohInvalidations += seq.invalidations;
                    sleCommits += seq.sleCommits;
                    sleAborts += seq.sleAborts;
                }
            }
        } else {
            MachineConfig mc = makePreset(spec.presets[0]);
            cacheRoot = opt.scratch + "/pass-"
                        + std::to_string(untracedPasses)
                        + (isTraced ? "t" : "");
            for (std::size_t p = 0; p < in.programs.size(); ++p) {
                SampleOut s = runSample(mc, in.programs[p], cacheRoot);
                if (isTraced) {
                    const std::uint64_t job = ++tracedJobs;
                    spans.add("job", passSpan, job, s.job.start, s.job.end);
                    auto fold = [&](const char *layer, std::uint64_t ns) {
                        Fold f;
                        f.add(ns);
                        spans.fold(job, layer, f);
                    };
                    fold("profile.build", s.buildNs);
                    fold("profile.save", s.saveNs);
                    fold("profile.load", s.loadNs);
                    fold("sample.run", s.sampledNs);
                } else {
                    untraced.add(phaseItem("build", p), double(s.buildNs));
                    untraced.add(phaseItem("save", p), double(s.saveNs));
                    untraced.add(phaseItem("load", p), double(s.loadNs));
                    untraced.add(phaseItem("sampled", p),
                                 double(s.sampledNs));
                }
                record(index++, s.job, isTraced, "sample");
                if (first) {
                    memberBytes += double(s.memberBytes);
                    windows += double(s.windows);
                    sampleIpc.push_back(s.ipc);
                }
            }
        }
        if (isTraced)
            spans.close(passSpan);
        // Removing the pass's on-disk libraries is the benchmark's own
        // housekeeping, so it stays out of the traced wall-clock.
        if (!cacheRoot.empty()) {
            std::error_code ec;
            std::filesystem::remove_all(cacheRoot, ec);
        }
    }
};

/**
 * Per-layer metrics of a traced run: the probes outside the timed loop
 * (functional, CorePort replay, snapshot, sampled-run reference), the
 * simulated facts of the reference pass and the traced folds, plus the
 * layer self-time table on standard output.
 */
void
addPerLayerMetrics(Run &run, std::vector<Metric> &metrics)
{
    auto add = [&](const std::string &name, double value,
                   const std::string &unit) {
        metrics.push_back({name, value, unit});
    };

    double funcNs = 0, funcInsts = 0, memNs = 0, memCalls = 0;
    const HierarchyParams memParams = makePreset("sst2").mem;
    for (const Workload &w : run.in.programs) {
        auto [fns, finsts] = timeFunctional(w.program);
        funcNs += double(fns);
        funcInsts += double(finsts);
        auto [mns, mcalls] = timeMemReplay(w.program, memParams);
        memNs += double(mns);
        memCalls += double(mcalls);
    }

    // Full detailed sst2 reference of the sampled programs
    // (untimed), once untraced and once through the traced loop;
    // the two must agree exactly.
    double sampleErr = 0;
    if (run.spec.kind == Kind::Sample) {
        MachineConfig mc = makePreset("sst2");
        for (std::size_t p = 0; p < run.in.programs.size(); ++p) {
            const Program &prog = run.in.programs[p].program;
            JobOut full = runSingle(mc, prog, run.golden[p]);
            const std::uint64_t span = run.spans.open("reference", 0, 0);
            JobOut traced = run.tracedSingle(mc, p, "sst2", span);
            run.spans.close(span);
            run.check(full.ok && traced.ok && traced.stats == full.stats
                      && traced.memStats == full.memStats);
            run.reference.push_back(full);
            run.referenceGroup.push_back("sst2");
            const double fullIpc =
                ratio(double(full.insts), double(full.cycles));
            sampleErr += 100.0 * std::abs(run.sampleIpc[p] - fullIpc)
                         / std::max(fullIpc, 1e-12)
                         / double(run.in.programs.size());
        }
    }

    // Snapshot probe on the first single-core program, half-way
    // through its sst2 run.
    if (!run.in.programs.empty()) {
        std::size_t idx = 0;
        if (run.spec.kind == Kind::Detail) {
            for (std::size_t i = 0; i < run.spec.presets.size(); ++i)
                if (run.spec.presets[i] == "sst2")
                    idx = i * run.in.programs.size();
        } else {
            idx = run.reference.size() - run.in.programs.size();
        }
        SnapProbe sp = probeSnapshots(run.in.programs[0].program,
                                      run.reference[idx].cycles / 2);
        run.check(sp.ok);
        run.snapBytes = sp.bytes;
        run.snapSave = sp.saveMbS;
        run.snapRestore = sp.restoreMbS;
        run.snapHash = sp.hashMbS;
    }

    // --- simulated facts from the reference outcomes --------------
    std::map<std::string, double> simCycles, simInsts, rollbacks,
        discarded;
    double degrades = 0, l1dMiss = 0, l1dAcc = 0, l2Miss = 0,
           mshrRej = 0, pfIssued = 0;
    for (std::size_t i = 0; i < run.reference.size(); ++i) {
        const JobOut &j = run.reference[i];
        // Keyed by group; only the preset groups are read below.
        const std::string &key = run.referenceGroup[i];
        simCycles[key] += double(j.cycles);
        simInsts[key] += double(j.insts);
        for (const auto &[k, v] : j.stats)
            if (k.find(".fail_") != std::string::npos)
                rollbacks[key] += v;
        discarded[key] += sumSuffix(j.stats, ".discarded_insts");
        degrades += sumSuffix(j.stats, "watchdog.recoveries");
        l1dMiss += sumSuffix(j.memStats, ".l1d.misses");
        l1dAcc += sumSuffix(j.memStats, ".l1d.accesses");
        l2Miss += sumSuffix(j.memStats, "memsys.l2.misses");
        mshrRej += sumSuffix(j.memStats, ".l1_mshrs.rejections");
        pfIssued += sumSuffix(j.memStats, ".l1d_pf.issued");
    }

    for (const std::string &preset : kDetailPresets) {
        const std::string p = metricKey(preset);
        const LoopTrace &lt = run.loops[p];
        const double analyses = double(lt.analyze.calls);
        add("mips." + p, run.groupMips(p), "Minst/s");
        add("core.ticks." + p, double(lt.tick.calls), "count");
        add("core.tick_ns." + p, lt.tick.meanNs(), "ns");
        add("core.ns_per_sim_cycle." + p,
            ratio(double(lt.loopNs), double(lt.cycles)), "ns/cycle");
        add("wake.analyses." + p, analyses, "count");
        add("wake.now_frac." + p, ratio(double(lt.wakeNow), analyses),
            "frac");
        add("wake.analyze_ns." + p, lt.analyze.meanNs(), "ns");
        add("wake.skip_frac." + p,
            ratio(double(lt.skipped), double(lt.cycles)), "frac");
        add("wake.advance_ns." + p, lt.advance.meanNs(), "ns");
        add("model.cycles." + p, ratio(simCycles[p], simInsts[p]),
            "cycles/inst");
        add("model.rollbacks." + p, ratio(rollbacks[p], simInsts[p]),
            "1/inst");
        add("model.discarded_insts." + p,
            ratio(discarded[p], simInsts[p]), "1/inst");
    }
    LoopTrace all;
    for (const auto &[p, lt] : run.loops)
        all.merge(lt);
    add("wake.observe_ns", all.observe.meanNs(), "ns");
    add("machine.harvest_ns", all.harvest.meanNs(), "ns");
    add("model.watchdog_degrades", degrades, "count");

    add("mem.access_ns", ratio(memNs, memCalls), "ns");
    add("mem.accesses", memCalls, "count");
    add("mem.l1d_miss_rate", ratio(l1dMiss, l1dAcc), "frac");
    add("mem.l2_misses", l2Miss, "count");
    add("mem.mshr_rejects", mshrRej, "count");
    add("mem.pf_issued", pfIssued, "count");

    add("mips.cmp_j1", run.groupMips("cmp_j1"), "Minst/s");
    add("mips.cmp_par", run.groupMips("cmp_par"), "Minst/s");
    add("cmp.parallel_speedup",
        ratio(run.wallNs(run.untraced, "cmp_j1"),
              run.wallNs(run.untraced, "cmp_par")),
        "x");
    add("cmp.sim_cycles", run.cmpSimCycles, "cycles");
    add("coh.invalidations", run.cohInvalidations, "count");
    add("coh.sle_commits", run.sleCommits, "count");
    add("coh.sle_aborts", run.sleAborts, "count");

    add("func.ns_per_inst", ratio(funcNs, funcInsts), "ns");

    add("snap.bytes", run.snapBytes, "bytes");
    add("snap.save_mb_s", run.snapSave, "MiB/s");
    add("snap.restore_mb_s", run.snapRestore, "MiB/s");
    add("snap.hash_mb_s", run.snapHash, "MiB/s");

    add("profile_s",
        run.phaseS("build") + run.phaseS("save") + run.phaseS("load"),
        "s");
    add("sampled_s", run.phaseS("sampled"), "s");
    add("sample_err_pct", sampleErr, "%");
    add("profile.build_s", run.phaseS("build"), "s");
    add("profile.save_s", run.phaseS("save"), "s");
    add("profile.load_s", run.phaseS("load"), "s");
    add("profile.member_bytes", run.memberBytes, "bytes");
    add("sample.window_ms",
        ratio(run.phaseS("sampled") * 1e3, run.windows), "ms");

    // Coverage: the folded layers' time over the traced wall-clock (the
    // top-level spans). What the layers leave uncovered is the spans'
    // self time: Machine/Cmp construction, the checks and the pass's
    // own bookkeeping.
    std::map<std::string, Fold> self = run.spans.selfTimes();
    double layered = 0, tracedNs = double(run.spans.topLevelNs());
    for (const auto &[layer, f] : self)
        if (!layer.ends_with(".self"))
            layered += double(f.ns);
    const double coverage = ratio(layered, tracedNs);
    run.check(coverage >= 0.95);
    add("trace.coverage", coverage, "frac");
    const double overhead =
        ratio(run.wallNs(run.traced), run.wallNs(run.untraced)) - 1.0;
    add("trace.overhead_frac", overhead, "frac");

    std::printf("traced layer self time (%llu traced jobs, %.3f s):\n",
                static_cast<unsigned long long>(run.tracedJobs),
                tracedNs * 1e-9);
    std::printf("  %-20s %12s %12s %8s\n", "layer", "calls", "self ms",
                "share");
    for (const auto &[layer, f] : self)
        std::printf("  %-20s %12llu %12.3f %7.2f%%\n", layer.c_str(),
                    static_cast<unsigned long long>(f.calls),
                    double(f.ns) * 1e-6, 100.0 * ratio(f.ns, tracedNs));
    std::printf("  coverage %.2f%% (target >= 95%%), tracing overhead "
                "%+.1f%%\n",
                100 * coverage,
                100 * overhead);
    if (!run.opt.spans.empty() && !run.spans.write(run.opt.spans))
        std::fprintf(stderr, "sstbench: cannot write spans to %s\n",
                     run.opt.spans.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    const Options opt = parseArgs(argc, argv);
    const WorkloadSpec *specPtr = nullptr;
    for (const WorkloadSpec &s : workloadSpecs())
        if (s.name == opt.workload)
            specPtr = &s;
    if (!specPtr)
        usage(("unknown workload '" + opt.workload + "'").c_str());
    const WorkloadSpec &spec = *specPtr;
    Run run(spec, opt);

    // Set-up, several times; the last set of programs is the one that
    // runs.
    std::vector<double> setups;
    const std::uint64_t setupBegin = nowNs();
    while (setups.size() < kSetups
           || nowNs() - setupBegin < kSetupSeconds * 1e9)
        setups.push_back(setupOnce(spec, opt.seed, run.in));
    const double setupS = median(setups);
    for (const Workload &w : run.in.programs)
        run.golden.push_back(runGolden(w.program));

    std::error_code ec;
    std::filesystem::create_directories(opt.scratch, ec);

    // Timed loop: untraced passes (alternating with traced ones under
    // --trace 1) until the time is up.
    const std::uint64_t budget = static_cast<std::uint64_t>(opt.seconds * 1e9);
    const std::uint64_t begin = nowNs();
    do {
        run.pass(false);
        if (opt.trace)
            run.pass(true);
    } while (nowNs() - begin < budget);

    std::vector<Metric> metrics;
    if (!opt.trace)
        metrics = {
            {"setup_s", setupS, "s"},
            {"wall_s", run.wallNs(run.untraced) * 1e-9, "s"},
            {"mips", run.gmeanMips(), "Minst/s"},
            {"peak_rss_mb", peakRssMb(), "MiB"},
            {"pass_frac",
             1.0 - ratio(double(run.failed), double(run.attempted)), "frac"},
        };
    else
        addPerLayerMetrics(run, metrics);
    std::filesystem::remove_all(opt.scratch, ec);

    // Model-drift digest: every job's simulated stats and cycle counts.
    snap::Hasher digest;
    for (std::size_t i = 0; i < run.jobs.size(); ++i)
        digest.mixU64(run.reference[i].digest);

    std::printf("workload %s seed %llu: %zu passes, %llu jobs attempted, "
                "%llu failed\n",
                spec.name.c_str(), static_cast<unsigned long long>(opt.seed),
                std::size_t(run.untracedPasses + run.tracedPasses),
                static_cast<unsigned long long>(run.attempted),
                static_cast<unsigned long long>(run.failed));
    std::printf("model digest %s seed %llu: %016llx\n", spec.name.c_str(),
                static_cast<unsigned long long>(opt.seed),
                static_cast<unsigned long long>(digest.value()));
    for (const Metric &m : metrics)
        std::printf("  %-28s %18.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    std::string json = "{\"correct\": ";
    json += run.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(run.attempted);
    json += ", \"failed\": " + std::to_string(run.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": "
                + formatValue(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
