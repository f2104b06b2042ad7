#include "exp/runner.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "exp/json.hh"
#include "exp/run.hh"
#include "exp/threadpool.hh"
#include "snap/snap.hh"
#include "workloads/workloads.hh"

namespace sst::exp
{

namespace
{

/**
 * Per-job record schema (schema_version 1; all keys present except
 * base_preset and the CMP keys):
 *   index, preset, workload, repeat       job identity
 *   base_preset                           a variant job's base preset
 *                                         (present for variants only)
 *   job_seed, workload_seed               seeding (rng.hh deriveSeed)
 *   config                               effective overrides (strings)
 *   ran, error                            did the job execute at all
 *   finished, degrade                     HALT committed / DegradeReason
 *   cycles, insts, ipc                    headline metrics
 *   l1d_miss_rate, demand_mlp, mispredict_rate
 *   sampled, windows, detailed_insts      sampled-sweep estimate shape
 *   ipc_stddev, ipc_ci95                  estimate quality
 *   warm_accesses, warm_hits              profiling-pass warming health
 *   arch_ok                               golden cross-check (or null)
 *   stats                                 full structured core stat tree
 *                                         ({} for a CMP job)
 *   cores, per_core_ipc, core_stats       CMP jobs only: the chip's core
 *                                         count, each core's IPC and
 *                                         stat tree (cycles, insts and
 *                                         ipc are the chip's aggregate)
 *   fault                                 fault-injector stat tree
 *   watchdog                              recoveries/interventions
 *   log                                   captured warn()/inform() text
 */
std::string
buildRecord(const JobOutcome &out, const Config &effectiveConfig,
            const std::string &coreStatsJson,
            const std::string &faultStatsJson,
            const std::string &cmpJson = "")
{
    const JobSpec &spec = out.spec;
    const RunResult &r = out.result;
    auto runStat = [&](const char *key) {
        auto it = r.stats.find(key);
        return it == r.stats.end() ? 0.0 : it->second;
    };

    std::string j = "{";
    j += "\"index\":" + std::to_string(spec.index);
    j += ",\"preset\":\"" + jsonEscape(spec.preset) + '"';
    if (!spec.basePreset.empty())
        j += ",\"base_preset\":\"" + jsonEscape(spec.basePreset) + '"';
    j += ",\"workload\":\"" + jsonEscape(spec.workload) + '"';
    j += ",\"repeat\":" + std::to_string(spec.repeat);
    j += ",\"job_seed\":" + std::to_string(spec.jobSeed);
    j += ",\"workload_seed\":" + std::to_string(spec.workloadSeed);
    j += ",\"config\":{";
    bool first = true;
    for (const auto &kv : effectiveConfig.items()) {
        if (!first)
            j += ',';
        first = false;
        j += '"' + jsonEscape(kv.first) + "\":\"" + jsonEscape(kv.second)
             + '"';
    }
    j += "}";
    j += std::string(",\"ran\":") + (out.ran ? "true" : "false");
    j += ",\"error\":\"" + jsonEscape(out.error) + '"';
    j += std::string(",\"finished\":") + (r.finished ? "true" : "false");
    j += ",\"degrade\":\"";
    j += degradeReasonName(r.degrade);
    j += '"';
    j += ",\"cycles\":" + std::to_string(r.cycles);
    j += ",\"insts\":" + std::to_string(r.insts);
    j += ",\"ipc\":" + jsonNumber(r.ipc);
    j += ",\"l1d_miss_rate\":" + jsonNumber(r.l1dMissRate);
    j += ",\"demand_mlp\":" + jsonNumber(r.meanDemandMlp);
    j += ",\"mispredict_rate\":" + jsonNumber(r.mispredictRate);
    j += std::string(",\"sampled\":") + (out.sampled ? "true" : "false");
    j += ",\"windows\":" + std::to_string(out.windows);
    j += ",\"detailed_insts\":" + std::to_string(out.detailedInsts);
    j += ",\"ipc_stddev\":" + jsonNumber(out.ipcStddev);
    j += ",\"ipc_ci95\":" + jsonNumber(out.ipcCi95);
    j += ",\"warm_accesses\":" + std::to_string(out.warmAccesses);
    j += ",\"warm_hits\":" + std::to_string(out.warmHits);
    j += ",\"arch_ok\":";
    j += out.archVerified ? (out.archOk ? "true" : "false") : "null";
    j += ",\"stats\":" + (coreStatsJson.empty() ? "{}" : coreStatsJson);
    j += cmpJson;
    j += ",\"fault\":" + (faultStatsJson.empty() ? "{}" : faultStatsJson);
    j += ",\"watchdog\":{\"recoveries\":"
         + jsonNumber(runStat("watchdog.recoveries"))
         + ",\"interventions\":"
         + jsonNumber(runStat("watchdog.interventions")) + "}";
    j += ",\"log\":\"" + jsonEscape(out.log) + '"';
    j += "}";
    return j;
}

} // namespace

std::string
jobRecordPath(const std::string &dir, std::size_t index)
{
    return dir + "/job-" + std::to_string(index) + ".json";
}

std::string
jobSnapPath(const std::string &dir, std::size_t index)
{
    return dir + "/job-" + std::to_string(index) + ".snap";
}

/*
 * A stale artifact directory from a different sweep must not
 * masquerade as finished work, and a torn record from a killed worker
 * must read as "re-run this job", never crash the resume pass. Only
 * the summary fields travel back (enough for every consumer of a
 * resumed sweep: exit code, tables, JSON export via the verbatim
 * record); the flattened stats map is not reconstructed.
 */
bool
outcomeFromRecord(const JobSpec &job, const std::string &text,
                  JobOutcome &out, std::string *why)
{
    auto parsed = Json::parse(text);
    if (!parsed.ok()) {
        if (why)
            *why = "unreadable record (truncated or corrupt: "
                   + parsed.error().message + ")";
        return false;
    }
    if (!parsed.value().isObject()) {
        if (why)
            *why = "record is not a JSON object";
        return false;
    }
    const Json &j = parsed.value();
    auto num = [&](const char *key) {
        const Json *v = j.find(key);
        return v && v->kind() == Json::Kind::Number ? v->asNumber()
                                                    : 0.0;
    };
    auto str = [&](const char *key) -> std::string {
        const Json *v = j.find(key);
        return v && v->kind() == Json::Kind::String ? v->asString()
                                                    : std::string();
    };
    auto boolean = [&](const char *key) {
        const Json *v = j.find(key);
        return v && v->kind() == Json::Kind::Bool && v->asBool();
    };
    // Seeds are full 64-bit values; the JSON parser reads numbers as
    // doubles, so compare both sides after the same double rounding.
    if (static_cast<std::size_t>(num("index")) != job.index
        || str("preset") != job.preset || str("workload") != job.workload
        || num("job_seed") != static_cast<double>(job.jobSeed)
        || num("workload_seed")
               != static_cast<double>(job.workloadSeed)) {
        if (why)
            *why = "record identity does not match the manifest";
        return false;
    }

    out.spec = job;
    out.ran = boolean("ran");
    out.error = str("error");
    out.result.preset = job.preset;
    out.result.workload = job.workload;
    out.result.cycles = static_cast<Cycle>(num("cycles"));
    out.result.insts = static_cast<std::uint64_t>(num("insts"));
    out.result.ipc = num("ipc");
    out.result.l1dMissRate = num("l1d_miss_rate");
    out.result.meanDemandMlp = num("demand_mlp");
    out.result.mispredictRate = num("mispredict_rate");
    out.result.finished = boolean("finished");
    std::string degrade = str("degrade");
    out.result.degrade = degrade == "livelock" ? DegradeReason::Livelock
                         : degrade == "cycle_budget"
                             ? DegradeReason::CycleBudget
                             : DegradeReason::None;
    // A corrupt record can hold any value here; only a real bool is a
    // verification verdict (asBool() on anything else would panic).
    const Json *archOk = j.find("arch_ok");
    out.archVerified = archOk && archOk->kind() == Json::Kind::Bool;
    out.archOk = out.archVerified && archOk->asBool();
    out.sampled = boolean("sampled");
    out.windows = static_cast<std::size_t>(num("windows"));
    out.detailedInsts = static_cast<std::uint64_t>(num("detailed_insts"));
    out.ipcStddev = num("ipc_stddev");
    out.ipcCi95 = num("ipc_ci95");
    out.warmAccesses = static_cast<std::uint64_t>(num("warm_accesses"));
    out.warmHits = static_cast<std::uint64_t>(num("warm_hits"));
    out.log = str("log");
    out.recordJson = text;
    return true;
}

JobOutcome
unrunOutcome(const JobSpec &job, const std::string &error)
{
    JobOutcome out;
    out.spec = job;
    out.ran = false;
    out.error = error;
    out.recordJson = buildRecord(out, job.overrides, "", "");
    return out;
}

std::size_t
loadFinishedRecords(const std::vector<JobSpec> &jobs,
                    const std::string &artifactDir, ResultSink &sink,
                    std::vector<char> &done)
{
    panic_if(done.size() != jobs.size(),
             "done vector sized %zu for %zu jobs", done.size(),
             jobs.size());
    std::size_t resumed = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        std::ifstream in(jobRecordPath(artifactDir, jobs[i].index));
        if (!in)
            continue;
        std::stringstream ss;
        ss << in.rdbuf();
        JobOutcome out;
        std::string why;
        if (outcomeFromRecord(jobs[i], ss.str(), out, &why)) {
            done[i] = 1;
            ++resumed;
            sink.tryRecord(std::move(out));
        } else {
            warn("resume: artifact for job #%zu ignored (%s); "
                 "re-running",
                 jobs[i].index, why.c_str());
        }
    }
    return resumed;
}

void
ResultSink::record(JobOutcome outcome)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t index = outcome.spec.index;
    panic_if(index >= outcomes_.size(),
             "job index %zu out of range (sink sized for %zu)", index,
             outcomes_.size());
    outcomes_[index] = std::move(outcome);
    present_[index] = 1;
    ++recorded_;
    if (onRecord_)
        onRecord_(outcomes_[index]);
}

bool
ResultSink::tryRecord(JobOutcome outcome)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t index = outcome.spec.index;
    panic_if(index >= outcomes_.size(),
             "job index %zu out of range (sink sized for %zu)", index,
             outcomes_.size());
    if (present_[index])
        return false;
    outcomes_[index] = std::move(outcome);
    present_[index] = 1;
    ++recorded_;
    if (onRecord_)
        onRecord_(outcomes_[index]);
    return true;
}

bool
ResultSink::has(std::size_t index) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return index < present_.size() && present_[index] != 0;
}

std::size_t
ResultSink::recorded() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return recorded_;
}

std::string
resolveProfileCache(const SweepSpec &spec, const SweepRunOptions &options)
{
    if (!options.profileCache.empty())
        return options.profileCache;
    if (!spec.profileCache.empty())
        return spec.profileCache;
    if (!options.artifactDir.empty())
        return options.artifactDir + "/profile-cache";
    return "";
}

namespace
{

/** The job as a run request: its preset, workload and seeds as driver
 *  keys on top of its machine overrides. */
Config
jobRequest(const SweepSpec &sweep, const JobSpec &job)
{
    Config request = job.overrides;
    request.set("preset", job.basePreset.empty() ? job.preset
                                                 : job.basePreset);
    request.set("workload", job.workload);
    request.set("seed", job.workloadSeed);
    // Shortest round-trip text, so the resolver reads the exact scale.
    request.set("length_scale", jsonNumber(sweep.lengthScale));
    request.set("footprint_scale", jsonNumber(sweep.footprintScale));
    return request;
}

/** A CMP record's keys after "stats" (see the schema above). */
std::string
cmpRecordJson(Cmp &chip, const CmpResult &r)
{
    std::string j = ",\"cores\":" + std::to_string(r.cores);
    j += ",\"per_core_ipc\":[";
    for (std::size_t i = 0; i < r.perCoreIpc.size(); ++i)
        j += (i ? "," : "") + jsonNumber(r.perCoreIpc[i]);
    j += "],\"core_stats\":[";
    for (unsigned i = 0; i < r.cores; ++i)
        j += (i ? "," : "") + chip.core(i).stats().toJson();
    return j + "]";
}

/** The manifest's run mode for one job of @p target. */
RunOptions
jobRunOptions(const SweepSpec &sweep, const JobSpec &job,
              const SweepRunOptions &options, const RunTarget &target)
{
    RunOptions ro;
    ro.maxCycles = sweep.maxCycles;
    if (target.isCmp()) {
        // A chip takes no mid-job checkpoints: on resume it restarts
        // from cycle 0 (a finished record is still reused).
        ro.verifyGolden = sweep.verifyGolden;
        return ro;
    }
    if (sweep.sample) {
        // Sampled job: serve every detailed window from a
        // checkpoint-warmed profile library instead of simulating the
        // whole program. The profiling pass runs at functional speed
        // and amortizes across the shared cache.
        ro.sample = true;
        ro.fromLibrary = true;
        ro.sampling.detailInsts = sweep.sampleDetail;
        ro.profile.maxRegions = sweep.sampleRegions;
        ro.profile.regionInsts =
            sweep.regionInsts
                ? sweep.regionInsts
                : profileRegionHint(target.workloads.front().approxDynInsts);
        ro.profileCache = resolveProfileCache(sweep, options);
        return ro;
    }
    ro.verifyGolden = sweep.verifyGolden;
    ro.chaos = options.chaos;
    if (!options.artifactDir.empty()) {
        std::string snapPath = jobSnapPath(options.artifactDir, job.index);
        if (options.snapEvery)
            ro.snap = SnapPolicy{options.snapEvery, snapPath};
        if (options.resume) {
            ro.resume = snapPath;
            ro.resumeOptional = true;
            ro.onReady = [snapPath, index = job.index](
                             Machine &, const RunOutcome &run) {
                if (!run.resumeError.empty())
                    warn("resume: checkpoint '%s' unusable (%s); "
                         "restarting job #%zu from cycle 0",
                         snapPath.c_str(), run.resumeError.c_str(), index);
            };
        }
    }
    return ro;
}

} // namespace

JobOutcome
runJob(const SweepSpec &sweep, const JobSpec &job,
       const SweepRunOptions &options)
{
    JobOutcome out;
    out.spec = job;

    std::string coreStatsJson;
    std::string faultStatsJson;
    std::string cmpJson;
    // The resolved target's effective config is complete (every
    // defaulted machine key); job.overrides stands in if it never
    // resolves.
    Config effective = job.overrides;

    // Capture this job's diagnostics so concurrent jobs cannot
    // interleave on stderr; the text ships inside the record.
    LogCapture capture;
    auto attempt = trapFatal([&] {
        auto target = resolveRun(jobRequest(sweep, job));
        fatal_if(!target.ok(), "%s", target.error().message.c_str());
        effective = target.value().effective;
        RunOptions ro = jobRunOptions(sweep, job, options, target.value());
        auto run = executeRun(target.value(), ro);
        fatal_if(!run.ok(), "%s", run.error().message.c_str());
        RunOutcome &r = run.value();
        out.result = r.result;
        out.archVerified = r.archVerified;
        out.archOk = r.archOk;
        if (r.machine) {
            coreStatsJson = r.machine->core().stats().toJson();
            faultStatsJson =
                r.machine->memsys().faults().stats().toJson();
        }
        if (r.cmp) {
            cmpJson = cmpRecordJson(*r.cmp, r.cmpResult);
            faultStatsJson = r.cmp->memsys().faults().stats().toJson();
        }
        if (ro.sample) {
            const SampledResult &s = r.sample;
            out.sampled = true;
            out.windows = s.windowIpc.size();
            out.detailedInsts = s.detailedInsts;
            out.ipcStddev = s.ipcStddev();
            out.ipcCi95 = s.ipcCi95();
            out.warmAccesses = s.warmAccesses;
            out.warmHits = s.warmHits;
        }
    });
    out.ran = attempt.ok();
    if (!out.ran)
        out.error = attempt.error().message;
    out.log = capture.take();
    out.recordJson = buildRecord(out, effective, coreStatsJson,
                                 faultStatsJson, cmpJson);

    if (!options.artifactDir.empty()) {
        // Record first (atomic), then drop the now-redundant
        // checkpoint: a crash between the two leaves both, and resume
        // prefers the record.
        std::string path = jobRecordPath(options.artifactDir, job.index);
        std::vector<std::uint8_t> bytes(out.recordJson.begin(),
                                        out.recordJson.end());
        if (auto written = snap::writeFile(path, bytes); !written.ok())
            warn("cannot write job artifact '%s': %s", path.c_str(),
                 written.error().message.c_str());
        std::error_code ec;
        std::filesystem::remove(jobSnapPath(options.artifactDir,
                                            job.index),
                                ec);
    }
    return out;
}

int
runSweep(const SweepSpec &spec, const SweepRunOptions &options,
         ResultSink &sink)
{
    const std::vector<JobSpec> jobs = spec.expand();
    unsigned workers = options.jobs ? options.jobs
                                    : ThreadPool::defaultWorkers();

    if (!options.artifactDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(options.artifactDir, ec);
        if (ec)
            warn("cannot create artifact directory '%s': %s",
                 options.artifactDir.c_str(), ec.message().c_str());
    }

    // Resume pass: jobs whose record artifact already exists (and
    // matches this manifest's identity for that index) are finished
    // work — rebuild their outcomes instead of re-running.
    std::vector<char> done(jobs.size(), 0);
    if (options.resume && !options.artifactDir.empty())
        loadFinishedRecords(jobs, options.artifactDir, sink, done);

    {
        ThreadPool pool(workers);
        parallelFor(pool, jobs.size(), [&](std::size_t i) {
            if (!done[i])
                sink.record(runJob(spec, jobs[i], options));
        });
    }

    return sweepExitCode(sink);
}

int
sweepExitCode(const ResultSink &sink)
{
    bool anyError = false, anyLivelock = false, anyBudget = false,
         anyMismatch = false;
    for (const auto &out : sink.outcomes()) {
        if (!out.ran)
            anyError = true;
        else if (out.result.degrade == DegradeReason::Livelock)
            anyLivelock = true;
        else if (!out.result.finished)
            anyBudget = true;
        if (out.archVerified && !out.archOk)
            anyMismatch = true;
    }
    if (anyError)
        return exit_code::badInput;
    if (anyMismatch)
        return exit_code::archMismatch;
    if (anyLivelock)
        return exit_code::livelock;
    if (anyBudget)
        return exit_code::cycleBudget;
    return exit_code::ok;
}

std::string
sweepJson(const SweepSpec &spec, const ResultSink &sink)
{
    std::string j = "{\"schema_version\":1,\"sweep\":{";
    j += "\"name\":\"" + jsonEscape(spec.name) + '"';
    j += ",\"seed\":" + std::to_string(spec.baseSeed);
    j += ",\"repeats\":" + std::to_string(spec.repeats);
    j += ",\"baseline\":\"" + jsonEscape(spec.baseline) + '"';
    j += ",\"max_cycles\":" + std::to_string(spec.maxCycles);
    j += ",\"length_scale\":" + jsonNumber(spec.lengthScale);
    j += ",\"footprint_scale\":" + jsonNumber(spec.footprintScale);
    j += std::string(",\"verify\":")
         + (spec.verifyGolden ? "true" : "false");
    j += ",\"presets\":[";
    for (std::size_t i = 0; i < spec.presets.size(); ++i) {
        if (i)
            j += ',';
        j += '"' + jsonEscape(spec.presets[i]) + '"';
    }
    j += "],\"workloads\":[";
    for (std::size_t i = 0; i < spec.workloads.size(); ++i) {
        if (i)
            j += ',';
        j += '"' + jsonEscape(spec.workloads[i]) + '"';
    }
    j += "],\"axes\":[";
    for (std::size_t i = 0; i < spec.axes.size(); ++i) {
        if (i)
            j += ',';
        j += "{\"key\":\"" + jsonEscape(spec.axes[i].key)
             + "\",\"values\":[";
        for (std::size_t k = 0; k < spec.axes[i].values.size(); ++k) {
            if (k)
                j += ',';
            j += '"' + jsonEscape(spec.axes[i].values[k]) + '"';
        }
        j += "]}";
    }
    j += "],\"points\":" + std::to_string(spec.pointCount());
    j += ",\"jobs_total\":" + std::to_string(spec.jobCount());
    j += "},\"records\":[\n";
    const auto &outcomes = sink.outcomes();
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (i)
            j += ",\n";
        j += outcomes[i].recordJson;
    }
    j += "\n]}\n";
    return j;
}

Table
aggregateTable(const SweepSpec &spec, const ResultSink &sink)
{
    struct Group
    {
        std::size_t jobs = 0, ok = 0;
        double ipcMin = 0, ipcMax = 0, ipcSum = 0;
        double cycleSum = 0;
    };
    // Keyed (preset, workload); iterate in manifest order for output.
    std::map<std::pair<std::string, std::string>, Group> groups;
    for (const auto &out : sink.outcomes()) {
        Group &g = groups[{out.spec.preset, out.spec.workload}];
        ++g.jobs;
        if (!out.ran || !out.result.finished)
            continue;
        double ipc = out.result.ipc;
        if (g.ok == 0) {
            g.ipcMin = g.ipcMax = ipc;
        } else {
            g.ipcMin = std::min(g.ipcMin, ipc);
            g.ipcMax = std::max(g.ipcMax, ipc);
        }
        ++g.ok;
        g.ipcSum += ipc;
        g.cycleSum += static_cast<double>(out.result.cycles);
    }

    Table t("sweep '" + spec.name + "' aggregates");
    t.setHeader({"preset", "workload", "jobs", "ok", "ipc min",
                 "ipc mean", "ipc max", "cycles mean"});
    for (const auto &preset : spec.presets) {
        for (const auto &workload : spec.workloads) {
            auto it = groups.find({preset, workload});
            if (it == groups.end())
                continue;
            const Group &g = it->second;
            double n = g.ok ? static_cast<double>(g.ok) : 1.0;
            t.addRow({preset, workload, std::to_string(g.jobs),
                      std::to_string(g.ok), Table::num(g.ipcMin, 4),
                      Table::num(g.ipcSum / n, 4),
                      Table::num(g.ipcMax, 4),
                      Table::num(g.cycleSum / n, 0)});
        }
    }
    return t;
}

Table
baselineTable(const SweepSpec &spec, const ResultSink &sink)
{
    Table t("speedup vs " + spec.baseline
            + " (geomean of cycle ratios per sweep point)");
    std::vector<std::string> header = {"workload"};
    for (const auto &p : spec.presets)
        if (p != spec.baseline)
            header.push_back(p);
    t.setHeader(header);
    if (spec.baseline.empty())
        return t;

    // baseline cycles by point key.
    std::map<std::string, double> baseCycles;
    for (const auto &out : sink.outcomes())
        if (out.spec.preset == spec.baseline && out.ran
            && out.result.finished)
            baseCycles[out.spec.pointKey] =
                static_cast<double>(out.result.cycles);

    // log-speedup accumulators per (preset, workload), per (preset,
    // workload category) and per preset.
    std::map<std::pair<std::string, std::string>,
             std::pair<double, std::size_t>>
        cell, byCategory;
    std::map<std::string, std::pair<double, std::size_t>> overall;
    for (const auto &out : sink.outcomes()) {
        if (out.spec.preset == spec.baseline || !out.ran
            || !out.result.finished || out.result.cycles == 0)
            continue;
        auto base = baseCycles.find(out.spec.pointKey);
        if (base == baseCycles.end())
            continue;
        double ratio =
            base->second / static_cast<double>(out.result.cycles);
        double lg = std::log(std::max(ratio, 1e-12));
        for (auto *acc :
             {&cell[{out.spec.preset, out.spec.workload}],
              &byCategory[{out.spec.preset,
                           workloadCategory(out.spec.workload)}],
              &overall[out.spec.preset]}) {
            acc->first += lg;
            ++acc->second;
        }
    }

    auto geo = [](const std::pair<double, std::size_t> &acc) {
        return acc.second
                   ? std::exp(acc.first
                              / static_cast<double>(acc.second))
                   : 0.0;
    };
    // One row per key: the presets' cells from @p accs, "-" if absent.
    auto addRow = [&](const std::string &label, const auto &accs,
                      auto keyOf) {
        std::vector<std::string> row = {label};
        for (const auto &preset : spec.presets) {
            if (preset == spec.baseline)
                continue;
            auto it = accs.find(keyOf(preset));
            row.push_back(it == accs.end() ? "-"
                                           : Table::num(geo(it->second),
                                                        2));
        }
        t.addRow(row);
    };
    std::vector<std::string> categories;
    for (const auto &workload : spec.workloads) {
        addRow(workload, cell, [&](const std::string &p) {
            return std::pair{p, workload};
        });
        std::string category = workloadCategory(workload);
        if (std::find(categories.begin(), categories.end(), category)
            == categories.end())
            categories.push_back(category);
    }
    for (const auto &category : categories)
        addRow("GEOMEAN " + category, byCategory,
               [&](const std::string &p) {
                   return std::pair{p, category};
               });
    addRow("GEOMEAN", overall, [](const std::string &p) { return p; });
    return t;
}

} // namespace sst::exp
