#include "exp/run.hh"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "branch/predictor.hh"
#include "branch/valuepred.hh"
#include "common/logging.hh"
#include "fault/chaos.hh"
#include "isa/assembler.hh"
#include "sim/presets.hh"
#include "snap/snap.hh"

namespace sst::exp
{

namespace
{

bool
contains(const std::vector<std::string> &names, const std::string &name)
{
    return std::find(names.begin(), names.end(), name) != names.end();
}

/** @p msg, plus "; did you mean '<nearest>'?" when a name in @p known
 *  is close to @p name. */
std::string
suggest(std::string msg, const std::string &name,
        const std::vector<std::string> &known)
{
    std::string near = closestMatch(name, known);
    if (!near.empty())
        msg += "; did you mean '" + near + "'?";
    return msg;
}

/** Reject unknown keys and enumerated values before anything is built. */
Result<void>
validateKeys(const Config &request)
{
    std::vector<std::string> known = driverKeys();
    for (const auto &k : machineConfigKeys())
        known.push_back(k);
    for (const auto &kv : request.items())
        if (!contains(known, kv.first))
            return Error{suggest("unknown config key '" + kv.first + "'",
                                 kv.first, known)
                             + " (workload=list / preset=list show run "
                               "targets)",
                         exit_code::usage};
    struct Enum
    {
        const char *key;
        const std::vector<std::string> &values;
        const char *what;
    };
    for (const Enum &e :
         {Enum{"core.predictor", predictorNames(), "branch predictor"},
          Enum{"core.value_pred", valuePredNames(), "value predictor"}}) {
        std::string v = request.getString(e.key, "");
        if (v.empty() || contains(e.values, v))
            continue;
        std::string msg = suggest(std::string("unknown ") + e.what + " '"
                                      + v + "' for " + e.key,
                                  v, e.values)
                          + " (known:";
        for (const auto &name : e.values)
            msg += " " + name;
        return Error{msg + ")", exit_code::usage};
    }
    return {};
}

/** Driver keys that pick the starting state or a second output cannot
 *  ride along with modes that ignore them. @p cmpWorkload is the
 *  shared workload of a CMP run ("" for a single-core run). */
Result<void>
checkCombinations(const Config &request, const std::string &cmpWorkload)
{
    auto given = [&](const char *key) {
        return !request.getString(key, "").empty();
    };
    // A chip has no one core machine to trace, sample, start from,
    // snapshot or print the stat tree of.
    if (!cmpWorkload.empty())
        for (const char *key : {"trace", "sample", "resume", "warm_start",
                                "snap_every", "stats"})
            if (given(key))
                return Error{std::string(key) + "= cannot combine with a "
                                 "CMP run ('" + cmpWorkload + "')",
                             exit_code::usage};
    if (given("resume") && given("warm_start"))
        return Error{"warm_start= cannot combine with resume= (both pick "
                     "the starting state)",
                     exit_code::usage};
    auto sample = request.tryGetBool("sample", false);
    if (!sample.ok())
        return sample.error();
    auto traced = request.tryGetBool("trace", false);
    if (!traced.ok())
        return traced.error();
    if (traced.value()) {
        // The ring attaches once the machine is ready: a sampled run has
        // no one machine to attach it to, a resumed one restores before
        // it attaches, and a snapshot would carry the ring no run can
        // restore.
        if (sample.value())
            return Error{"sample=true cannot combine with trace=true",
                         exit_code::usage};
        for (const char *key : {"resume", "snap_every"})
            if (given(key))
                return Error{std::string(key)
                                 + "= cannot combine with trace=true",
                             exit_code::usage};
    }
    if (!sample.value())
        return {};
    for (const char *key : {"resume", "warm_start", "snap_every"})
        if (given(key))
            return Error{std::string(key)
                             + "= cannot combine with sample=true (a "
                               "sampled run has no one detailed machine "
                               "to start from or to snapshot)",
                         exit_code::usage};
    return {};
}

WorkloadParams
workloadParams(const Config &request)
{
    return {request.getUint("seed", 42),
            request.getDouble("footprint_scale", 1.0),
            request.getDouble("length_scale", 1.0)};
}

Result<Workload>
loadWorkload(const Config &request)
{
    std::string asmPath = request.getString("asm", "");
    if (!asmPath.empty()) {
        std::ifstream in(asmPath);
        if (!in)
            return Error{"cannot open '" + asmPath + "'",
                         exit_code::badInput};
        std::stringstream ss;
        ss << in.rdbuf();
        auto assembled = tryAssemble(ss.str(), asmPath);
        if (!assembled.ok())
            return assembled.error();
        Workload w;
        w.program = assembled.take();
        w.name = w.program.name();
        w.category = "user";
        return w;
    }
    std::string name = request.getString("workload", "oltp_mix");
    if (!contains(allWorkloadNames(), name)) {
        std::vector<std::string> known = allWorkloadNames();
        for (const auto &shared : sharedWorkloadNames())
            known.push_back(shared);
        return Error{suggest("unknown workload '" + name + "'", name,
                             known)
                         + " (workload=list shows all)",
                     exit_code::usage};
    }
    return makeWorkload(name, workloadParams(request));
}

/** The mode the request's driver keys ask for. */
RunOptions
requestedOptions(const Config &request)
{
    RunOptions o;
    o.maxCycles = request.getUint("max_cycles", 500'000'000ULL);
    o.sample = request.getBool("sample", false);
    o.sampling.detailInsts = request.getUint("detail", 20000);
    o.sampling.skipInsts = request.getUint("skip", 80000);
    o.profileCache = request.getString("profile_cache", "");
    o.profile.maxRegions =
        static_cast<unsigned>(request.getUint("regions", 8));
    o.profile.regionInsts = request.getUint("region_insts", 0);
    o.fromLibrary = !o.profileCache.empty() || o.profile.regionInsts != 0;
    o.verifyGolden = true;
    o.resume = request.getString("resume", "");
    if (!request.getString("warm_start", "").empty())
        o.warmStart = request.getUint("warm_start", 0);
    o.snap.everyCycles = request.getUint("snap_every", 0);
    o.snap.path = request.getString("snap_out", "sstsim.snap");
    return o;
}

} // namespace

const std::vector<std::string> &
driverKeys()
{
    static const std::vector<std::string> keys = {
        "workload", "asm",    "preset", "seed",   "length_scale",
        "footprint_scale",    "stats",  "json",   "sample",
        "detail",   "skip",   "trace",  "max_cycles",
        "snap_every", "snap_out", "resume",
        "profile_cache", "regions", "region_insts", "warm_start",
    };
    return keys;
}

Result<RunTarget>
resolveRun(const Config &request)
{
    if (auto valid = validateKeys(request); !valid.ok())
        return valid.error();
    const std::string workload = request.getString("workload", "oltp_mix");
    const bool cmp = request.getString("asm", "").empty()
                     && contains(sharedWorkloadNames(), workload);
    if (auto combined = checkCombinations(request, cmp ? workload : "");
        !combined.ok())
        return combined.error();
    for (const char *key : {"length_scale", "footprint_scale"}) {
        auto scale = request.tryGetDouble(key, 1.0);
        if (!scale.ok())
            return scale.error();
        if (!std::isfinite(scale.value()) || scale.value() <= 0)
            return Error{std::string(key)
                         + " must be a positive finite number"};
    }

    RunTarget target;
    auto params = trapFatal([&] { return workloadParams(request); });
    if (!params.ok())
        return params.error();
    target.params = params.take();
    if (!cmp) {
        auto loaded = trapFatal([&] { return loadWorkload(request); });
        if (!loaded.ok())
            return loaded.error();
        if (!loaded.value().ok())
            return loaded.value().error();
        target.workloads.push_back(loaded.value().take());
    }

    std::string preset = request.getString("preset", "sst2");
    auto made = trapFatal([&] { return makePreset(preset); },
                          exit_code::usage);
    if (!made.ok())
        return Error{suggest(made.error().message, preset, presetNames())
                         + " (preset=list shows all)",
                     exit_code::usage};
    target.machine = made.take();
    // Only the request's own assignments: its getters have recorded
    // defaults (core.predictor = "" above) that must not become values.
    for (const auto &[key, value] : request.items())
        if (request.has(key) && !contains(driverKeys(), key))
            target.effective.set(key, value);
    if (auto applied = trapFatal(
            [&] { applyOverrides(target.machine, target.effective); });
        !applied.ok())
        return applied.error();

    auto options = trapFatal([&] { return requestedOptions(request); });
    if (!options.ok())
        return options.error();
    target.options = options.take();

    if (cmp) {
        // Shared workloads only make sense over shared memory:
        // coherence defaults ON whatever the preset says (an explicit
        // coh.enabled=false still wins, and salts the cores apart).
        // The effective config records the chip that runs.
        if (!request.has("coh.enabled")) {
            target.machine.mem.coh.enabled = true;
            target.effective.set("coh.enabled", "true");
        }
        if (target.machine.cmpCores == 0) {
            if (request.has("cmp.cores"))
                return Error{"cmp.cores must be between 1 and "
                             + std::to_string(kMaxCmpCores) + " (got 0)"};
            target.machine.cmpCores = 2;
            target.effective.set("cmp.cores", "2");
        }
        auto built = trapFatal(
            [&] {
                return makeSharedWorkload(workload,
                                          target.machine.cmpCores,
                                          target.params);
            },
            exit_code::usage);
        if (!built.ok())
            return built.error();
        target.workloads = built.take();
    }
    return target;
}

Result<ProfileLibrary>
targetLibrary(const RunTarget &target, ProfileParams &params,
              const std::string &cacheRoot, std::uint64_t countedInsts)
{
    if (params.regionInsts == 0) {
        // The stride is part of the cache key: resolve it from one
        // functional count.
        if (!countedInsts) {
            auto run = goldenRun(target.program());
            if (!run.ok())
                return run.error();
            countedInsts = run.value().insts;
        }
        params.regionInsts = profileRegionHint(countedInsts);
    }
    return ensureProfileLibrary(target.machine, target.program(), params,
                                cacheRoot, target.configHash());
}

namespace
{

/** executeRun's CMP mode: the chip runs one program per core, for at
 *  most options.maxCycles (the other single-core options do not
 *  apply; resolveRun rejects the keys that ask for them). */
Result<RunOutcome>
executeCmp(const RunTarget &target, const RunOptions &options)
{
    // A salted core runs its program alone, so its golden run is the
    // oracle; a coherent chip's outcome depends on the interleaving,
    // its workload's invariants do not.
    const bool coherent = target.machine.mem.coh.enabled;
    std::vector<GoldenRun> golden;
    std::vector<const Program *> programs;
    for (const Workload &w : target.workloads) {
        programs.push_back(&w.program);
        if (options.verifyGolden && !coherent) {
            auto run = goldenRun(w.program);
            if (!run.ok())
                return run.error();
            golden.push_back(run.take());
        }
    }
    RunOutcome out;
    out.cmp = std::make_unique<Cmp>(target.machine, programs);
    Cmp &chip = *out.cmp;
    const CmpResult &r = out.cmpResult = chip.run(options.maxCycles);
    out.result = RunResult{
        .preset = r.preset,
        .workload = target.workloads.front().name,
        .cycles = r.cycles,
        .insts = r.totalInsts,
        .ipc = r.aggregateIpc,
        .finished = r.finished,
        .degrade = r.degrade,
        .stats = {{"watchdog.recoveries",
                   static_cast<double>(r.watchdogRecoveries)}}};
    out.archVerified = options.verifyGolden && r.finished;
    if (!out.archVerified)
        return out;
    Result<void> held = coherent ? checkSharedWorkload(
                                       out.result.workload, r.cores,
                                       target.params, chip.image(0))
                                 : Result<void>();
    for (unsigned i = 0; i < golden.size() && held.ok(); ++i)
        if (!chip.core(i).archState().regsEqual(golden[i].state)
            || !chip.image(i).contentEquals(golden[i].image)
            || chip.core(i).instsRetired() != golden[i].insts)
            held = Error{"core " + std::to_string(i)
                         + " diverged from its program's golden run"};
    out.archOk = held.ok();
    if (!out.archOk)
        warn("%s", held.error().message.c_str());
    return out;
}

} // namespace

Result<RunOutcome>
executeRun(const RunTarget &target, const RunOptions &options)
{
    if (target.isCmp())
        return executeCmp(target, options);
    const MachineConfig &mc = target.machine;
    const Program &program = target.program();
    RunOutcome out;

    if (options.sample) {
        out.result.preset = mc.presetName;
        out.result.workload = target.workloads.front().name;
        if (!options.fromLibrary) {
            out.sample = runSampled(mc, program, options.sampling);
        } else {
            ProfileParams pp = options.profile;
            auto library =
                targetLibrary(target, pp, options.profileCache);
            if (!library.ok())
                return library.error();
            auto sampled = trapFatal([&] {
                return runSampledFromLibrary(mc, program, library.value(),
                                             options.sampling);
            });
            if (!sampled.ok())
                return sampled.error();
            out.sample = sampled.take();
            out.result.insts = library.value().totalInsts;
        }
        const SampledResult &s = out.sample;
        out.result.ipc = s.ipc;
        out.result.cycles =
            s.ipc > 0 ? static_cast<Cycle>(
                            static_cast<double>(out.result.insts) / s.ipc)
                      : 0;
        out.result.finished = s.reachedEnd;
        return out;
    }

    std::optional<GoldenRun> golden;
    if (options.verifyGolden) {
        auto run = goldenRun(program);
        if (!run.ok())
            return run.error();
        golden = run.take();
    }

    auto machine = std::make_unique<Machine>(mc, program);
    if (options.chaos) {
        // Poison-job hook: a config-carried chaos_exit_cycle kills
        // this process at that simulated cycle, every attempt — the
        // retry budget turns that into quarantine.
        if (mc.mem.fault.chaosExitCycle)
            options.chaos->scheduleExit(mc.mem.fault.chaosExitCycle);
        machine->setChaosMonitor(options.chaos);
    }
    std::error_code ec;
    if (!options.resume.empty()
        && (!options.resumeOptional
            || std::filesystem::exists(options.resume, ec))) {
        // A checkpoint some other worker wrote must carry the snapshot
        // magic/version before this process trusts it.
        auto usable = options.resumeOptional
                          ? snap::probeSnapshotFile(options.resume)
                          : Result<void>();
        auto restored =
            usable.ok() ? machine->restoreFromFile(options.resume) : usable;
        if (!restored.ok()) {
            if (!options.resumeOptional)
                return restored.error();
            out.resumeError = restored.error().message;
        }
    }
    if (options.warmStart) {
        // The golden cross-check still holds after a warm start — the
        // warm prefix ran on the same golden executor — with the
        // retired-instruction count offset by the member's start.
        ProfileParams pp = options.profile;
        auto library = targetLibrary(target, pp, options.profileCache,
                                     golden ? golden->insts : 0);
        if (!library.ok())
            return library.error();
        if (auto warmed = warmStartMachine(*machine, library.value(),
                                           *options.warmStart,
                                           &out.warmSkipped);
            !warmed.ok())
            return warmed.error();
    }
    if (options.onReady)
        options.onReady(*machine, out);

    out.result = machine->run(options.maxCycles, options.snap);
    if (golden && out.result.finished) {
        out.archVerified = true;
        out.archOk = machine->core().archState().regsEqual(golden->state)
                     && machine->image().contentEquals(golden->image)
                     && out.result.insts == golden->insts - out.warmSkipped;
    }
    out.machine = std::move(machine);
    return out;
}

} // namespace sst::exp
