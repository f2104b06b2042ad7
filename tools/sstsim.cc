/**
 * @file
 * sstsim — the general-purpose command-line driver.
 *
 * Runs any workload (built-in generator or an assembly file) on any
 * machine preset with arbitrary config overrides, verifies the result
 * against the golden functional executor, and reports statistics as
 * text or JSON.
 *
 * Examples:
 *   sstsim workload=hash_join preset=sst2
 *   sstsim workload=oltp_mix preset=ooo-large mem.dram_base_latency=480
 *   sstsim asm=kernel.s preset=scout stats=full
 *   sstsim workload=graph_scan preset=sst4 json=true
 *   sstsim workload=oltp_mix preset=sst2 sample=true length_scale=4
 *   sstsim workload=hash_join preset=sst4 fault.drop_fill_rate=1e-4 \
 *          fault.seed=7
 *   sstsim sweep examples/figures/f2_headline.cfg -j 8 --json out.json
 *
 * Keys:
 *   workload=<name>        built-in generator (see workload=list)
 *   asm=<path>             assemble and run a .s file instead
 *   preset=<name>          machine preset (see preset=list)
 *   seed, length_scale, footprint_scale   workload generator knobs
 *   core.* / mem.*         machine overrides (see sim/presets.hh)
 *   fault.*                fault injection (see fault/fault.hh)
 *   watchdog.*             livelock watchdog (see sim/presets.hh)
 *   stats=none|summary|full   reporting depth (default summary)
 *   json=true              machine-readable stats to stdout
 *   sample=true [detail= skip=]  sampled instead of full simulation
 *   profile_cache=<dir> [regions= region_insts=]  serve sampled runs
 *                          from a checkpoint-warmed snapshot library
 *                          (sim/profile.hh); built on first use,
 *                          reused by every later matching run
 *   warm_start=<n>         warm-start a full detailed run from the
 *                          library member nearest instruction n
 *   trace=true             text log of the run's last 64Ki trace
 *                          events (trace/chrome.hh) to stderr
 *   max_cycles=<n>         simulation budget
 *   snap_every=<n> [snap_out=<file>]  periodic machine snapshots
 *   resume=<file>          restore a snapshot before running
 *
 * Profile mode (checkpoint-warmed sampling, sim/profile.hh):
 *   sstsim profile <preset> <workload> [--cache DIR] [--regions N]
 *                  [--region-insts N] [key=value...]
 * fast-forwards the workload once, selects representative regions
 * (SimPoint-style basic-block-vector clustering; --regions 0 keeps
 * every fixed-stride region) and drops warm-state snapshots of each
 * into DIR, keyed by preset/model/workload/fingerprint/config so
 * sampled sweeps and warm_start= runs start instantly from them.
 *
 * Sweep mode (parallel experiment runner, src/exp):
 *   sstsim sweep <manifest> [-j N] [--json FILE] [--verify] [--quiet]
 *                [--resume DIR] [--snap-every N] [--profile-cache DIR]
 * runs the manifest's config x workload x seed matrix on a
 * work-stealing thread pool and reports aggregate tables plus an
 * optional structured JSON document. Per-job records are bit-identical
 * for every -j (see docs/INTERNALS.md, "The experiment runner").
 * --resume skips jobs whose record artifact already exists in DIR and
 * restarts in-flight jobs from their last machine checkpoint.
 * --distributed N runs the same sweep as a crash-safe service instead:
 * a broker leases jobs to N supervised worker *processes* (respawned
 * if they die, retried with backoff, quarantined if poisonous) with
 * byte-identical aggregate output (docs/INTERNALS.md, "The experiment
 * service").
 *
 * Service mode (sharded experiment service, src/svc):
 *   sstsim serve <manifest> --socket PATH --artifacts DIR [--workers N]
 *   sstsim work --socket PATH [--name NAME]
 * splits the broker and workers across processes: serve owns the
 * manifest and leases jobs over a Unix socket; any number of work
 * processes join, run jobs, stream records back and heartbeat their
 * leases. Workers may join or die mid-sweep.
 *
 * Diff mode (lockstep divergence search, src/snap):
 *   sstsim diff <preset> <workload> [--stride N] [--out PREFIX]
 *               [--a-fastfwd 0|1] [--b-fastfwd 0|1]
 *               [--inject-cycle N] [--inject-addr A]
 *               [a:key=value | b:key=value | key=value ...]
 * builds two machines that should behave identically (bare key=value
 * applies to both sides; "a:"/"b:" prefixes apply to one), runs them in
 * lockstep comparing full-state hashes, and bisects to the exact first
 * divergent cycle, dumping both sides' snapshots there. The default
 * sides compare fast-forwarding on (A) vs off (B) — the self-check that
 * stall-skipping is invisible. --inject-cycle flips one bit of side B's
 * memory at that cycle (differ self-test).
 *
 * Trace mode (structured event capture, src/trace):
 *   sstsim trace <preset> <workload> [--out FILE] [--cpistack]
 *                [--validate] [key=value...]
 * runs the workload with the event ring attached, writes a Chrome
 * trace_event JSON (load it in chrome://tracing or ui.perfetto.dev)
 * and optionally prints the CPI-stack attribution table. The CPI
 * categories are asserted to sum to the cycle count.
 *
 * CMP mode (shared-memory chip multiprocessor, src/sim/cmp.*):
 *   sstsim cmp <preset> <shared-workload> [--json] [-j N] [key=value...]
 * builds one program per core of a shared-memory workload
 * (spinlock_counter, producer_consumer, shared_table), runs them on a
 * coherent chip (e.g. preset=rock16, or any preset with coh.enabled=
 * true and cmp.cores=N) and reports per-core and aggregate IPC.
 * Without coherence the cores run salted disjoint address spaces and
 * the "shared" data is private per core — useful only as a baseline.
 * The final state is checked (exit 2 on failure): each salted core
 * against its own program's golden run, a coherent chip against the
 * workload's invariants (counters sum, checksums pair up, locks end
 * free). trace, sample, resume, warm_start, snap_every and stats act
 * on one core's machine and are rejected (exit 64).
 *
 * Every subcommand that takes key=value (the plain run, profile,
 * trace, both sides of diff, cmp) resolves it through one resolver
 * (exp/run.hh): unknown keys and enum values are rejected with a
 * nearest-name suggestion (exit 64) before anything is built.
 *
 * Exit codes: 0 success, 2 architectural mismatch vs golden, 3 cycle
 * budget exhausted, 4 livelock declared by the watchdog, 5 state
 * divergence found by diff mode, 6 sweep finished with quarantined
 * jobs, 7 experiment-service infrastructure failure (socket lost,
 * worker pool exhausted), 64 bad usage (unknown/malformed key),
 * 65 bad input (config value, asm, workload).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <optional>

#include "common/config.hh"
#include "common/logging.hh"
#include "common/result.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "exp/json.hh"
#include "exp/run.hh"
#include "exp/runner.hh"
#include "exp/sweep.hh"
#include "exp/threadpool.hh"
#include "sim/machine.hh"
#include "sim/profile.hh"
#include "snap/diff.hh"
#include "svc/server.hh"
#include "svc/worker.hh"
#include "trace/chrome.hh"
#include "trace/cpistack.hh"
#include "trace/trace.hh"
#include "workloads/workloads.hh"

using namespace sst;

namespace
{

int
fail(const Error &error)
{
    std::fprintf(stderr, "sstsim: %s\n", error.message.c_str());
    return error.exitCode;
}

void
listAndExit()
{
    std::printf("workloads:");
    for (const auto &w : allWorkloadNames())
        std::printf(" %s", w.c_str());
    std::printf("\nshared workloads (sstsim cmp):");
    for (const auto &w : sharedWorkloadNames())
        std::printf(" %s", w.c_str());
    std::printf("\npresets:");
    for (const auto &p : presetNames())
        std::printf(" %s", p.c_str());
    std::printf("\n");
    std::exit(exit_code::ok);
}

/** A subcommand option; @p apply gets its operand (nullptr for a
 *  switch). */
struct Option
{
    bool takesOperand = true;
    std::function<Result<void>(const std::string &flag, const char *operand)>
        apply;
};
using Options = std::map<std::string, Option>;
using OperandFn = std::function<Result<void>(const std::string &arg)>;

/** An integer operand into @p out — the CLI's one integer-flag parser:
 *  a usage error when it is malformed or (unless @p allowZero) zero. */
template <typename T>
Option
num(T &out, bool allowZero = false)
{
    return {true, [&out, allowZero](const std::string &flag,
                                    const char *text) -> Result<void> {
                char *end = nullptr;
                unsigned long long n = std::strtoull(text, &end, 10);
                if (end == text || *end != '\0' || (!allowZero && n == 0))
                    return Error{"bad " + flag + " value '" + text
                                     + "' (want a "
                                     + (allowZero ? "non-negative"
                                                  : "positive")
                                     + " integer)",
                                 exit_code::usage};
                out = static_cast<T>(n);
                return {};
            }};
}

/** A string operand into @p out. */
Option
str(std::string &out)
{
    return {true, [&out](const std::string &, const char *text) {
                out = text;
                return Result<void>();
            }};
}

/** A switch that sets @p out. */
Option
on(bool &out)
{
    return {false, [&out](const std::string &, const char *) {
                out = true;
                return Result<void>();
            }};
}

/**
 * The one argv loop of every subcommand (argv[2] on): an argument is
 * one of @p options (followed by its operand) or goes to @p operand;
 * any other `-` argument is an unknown option.
 */
Result<void>
parseArgs(int argc, char **argv, const Options &options,
          const OperandFn &operand)
{
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        auto it = options.find(arg);
        if (it != options.end()) {
            const Option &opt = it->second;
            if (opt.takesOperand && ++i >= argc)
                return Error{arg + " needs a value", exit_code::usage};
            if (auto r = opt.apply(arg, opt.takesOperand ? argv[i] : nullptr);
                !r.ok())
                return r;
        } else if (arg.size() > 2 && arg[0] == '-' && arg[1] != '-'
                   && options.count(arg.substr(0, 2))) {
            return Error{"write '" + arg.substr(0, 2) + " N' with a space",
                         exit_code::usage};
        } else if (!arg.empty() && arg[0] == '-') {
            std::string known;
            for (const auto &entry : options)
                known += (known.empty() ? "" : ", ") + entry.first;
            return Error{"unknown " + std::string(argv[1]) + " option '"
                             + arg + "' (know " + known + ")",
                         exit_code::usage};
        } else if (auto r = operand(arg); !r.ok()) {
            return r;
        }
    }
    return {};
}

/** @p target, unless its kind does not fit the subcommand: a
 *  shared-memory workload runs only under `sstsim cmp` (@p cmp), any
 *  other workload only outside it. */
Result<exp::RunTarget>
checkKind(Result<exp::RunTarget> target, bool cmp)
{
    if (!target.ok() || target.value().isCmp() == cmp)
        return target;
    const std::string &name = target.value().workloads.front().name;
    return Error{cmp ? "'" + name + "' is not a shared-memory workload "
                                    "(workload=list shows them)"
                     : "'" + name + "' is a shared-memory workload; run "
                                    "it with 'sstsim cmp <preset> "
                           + name + "'",
                 exit_code::usage};
}

/** The command line of a `<preset> <workload> [key=value...]`
 *  subcommand. */
struct TargetArgs
{
    std::string preset;
    std::string workload;
    Config cfg;

    /** Resolve @p request with the positional preset and workload, a
     *  shared one only for `sstsim cmp` (@p cmp). */
    Result<exp::RunTarget>
    resolve(Config request, bool cmp = false) const
    {
        request.set("preset", preset);
        request.set("workload", workload);
        return checkKind(exp::resolveRun(request), cmp);
    }
};

/** parseArgs for profile, trace, diff and cmp: `k=v` goes to args.cfg,
 *  the rest fill preset then workload. @p usage follows "usage: sstsim ". */
Result<void>
parseTargetArgs(int argc, char **argv, const std::string &usage,
                const Options &options, TargetArgs &args)
{
    auto parsed = parseArgs(
        argc, argv, options, [&](const std::string &arg) -> Result<void> {
            if (arg.find('=') != std::string::npos)
                return args.cfg.tryParseAssignment(arg);
            std::string &slot =
                args.preset.empty() ? args.preset : args.workload;
            if (!slot.empty())
                return Error{"unexpected argument '" + arg + "'",
                             exit_code::usage};
            slot = arg;
            return {};
        });
    if (!parsed.ok())
        return parsed;
    if (args.preset.empty() || args.workload.empty())
        return Error{"usage: sstsim " + usage, exit_code::usage};
    if (args.preset == "list" || args.workload == "list")
        listAndExit();
    return {};
}

/** The broker's lease and retry options (sweep --distributed, serve). */
Options
brokerOptions(svc::BrokerOptions &broker)
{
    return {{"--lease-timeout-ms", num(broker.leaseTimeoutMs)},
            {"--max-attempts", num(broker.maxAttempts)},
            {"--backoff-base-ms", num(broker.backoffBaseMs)},
            {"--backoff-max-ms", num(broker.backoffMaxMs)}};
}

/** A worker's own options (fault/chaos.hh for the --chaos-* hooks). */
Options
workerOptions(svc::WorkerOptions &worker)
{
    return {{"--heartbeat-ms", num(worker.heartbeatMs)},
            {"--chaos-kill-cycle", num(worker.chaosKillCycle)},
            {"--chaos-kill-attempt", num(worker.chaosKillAttempt)},
            {"--chaos-stall-cycle", num(worker.chaosStallCycle)},
            {"--chaos-stall-ms", num(worker.chaosStallMs)},
            {"--chaos-stall-attempt", num(worker.chaosStallAttempt)}};
}

/** Operand handler of a subcommand that takes one file name. */
OperandFn
oneFile(std::string &out)
{
    return [&out](const std::string &arg) -> Result<void> {
        if (!out.empty())
            return Error{"more than one manifest given ('" + out + "' and '"
                             + arg + "')",
                         exit_code::usage};
        out = arg;
        return {};
    };
}

/** `sstsim sweep`: the manifest's jobs on the parallel runner, or on
 *  the experiment service with --distributed. */
int
sweepMain(int argc, char **argv)
{
    std::string manifest;
    std::string jsonPath;
    std::string artifactDir;
    std::string socketPath;
    std::string profileCache;
    std::uint64_t snapEvery = 0;
    unsigned jobs = 1;
    unsigned distributed = 0;
    bool quiet = false;
    bool forceVerify = false;
    svc::BrokerOptions brokerOpts;
    std::vector<std::string> workerArgs;

    Options flags = brokerOptions(brokerOpts);
    // Validated here, executed by the spawned workers.
    svc::WorkerOptions forwarded;
    for (auto &[name, opt] : workerOptions(forwarded))
        flags[name] = {true, [&, apply = opt.apply](const std::string &flag,
                                                    const char *text) {
                           workerArgs.insert(workerArgs.end(), {flag, text});
                           return apply(flag, text);
                       }};
    flags.insert({{"--distributed", num(distributed)},
                    {"--socket", str(socketPath)},
                    {"--resume", str(artifactDir)},
                    {"--snap-every", num(snapEvery)},
                    {"-j", num(jobs)},
                    {"--json", str(jsonPath)},
                    {"--profile-cache", str(profileCache)},
                    {"--verify", on(forceVerify)},
                    {"--quiet", on(quiet)}});
    if (auto parsed = parseArgs(argc, argv, flags, oneFile(manifest));
        !parsed.ok())
        return fail(parsed.error());
    if (manifest.empty())
        return fail(Error{"usage: sstsim sweep <manifest> [-j N] "
                          "[--json FILE] [--verify] [--quiet] "
                          "[--resume DIR] [--snap-every N]",
                          exit_code::usage});
    if (snapEvery && artifactDir.empty())
        return fail(Error{"--snap-every needs --resume DIR (the "
                          "checkpoints live in the artifact directory)",
                          exit_code::usage});

    std::string text;
    auto loaded = exp::SweepSpec::parseFile(manifest, &text);
    if (!loaded.ok())
        return fail(loaded.error());
    exp::SweepSpec spec = loaded.take();

    if (distributed) {
        // The broker ships the manifest *text* to workers, which
        // re-parse it locally; CLI-side spec mutations would silently
        // not propagate, so verify must come from the manifest.
        if (forceVerify)
            return fail(
                Error{"--verify cannot combine with --distributed; "
                      "set 'sweep.verify = true' in the manifest",
                      exit_code::usage});
        if (!profileCache.empty())
            return fail(
                Error{"--profile-cache cannot combine with "
                      "--distributed; workers share "
                      "'<artifacts>/profile-cache' by default (or set "
                      "'sweep.profile_cache' in the manifest)",
                      exit_code::usage});
        if (artifactDir.empty())
            return fail(Error{"--distributed needs --resume DIR (the "
                              "workers share artifacts there)",
                              exit_code::usage});
        svc::ServeOptions so;
        so.socketPath = socketPath.empty()
                            ? artifactDir + "/broker.sock"
                            : socketPath;
        so.artifactDir = artifactDir;
        so.snapEvery = snapEvery;
        so.resume = true;
        so.spawnWorkers = distributed;
        so.workerArgs = workerArgs;
        so.jsonPath = jsonPath;
        so.quiet = quiet;
        so.broker = brokerOpts;
        if (!quiet)
            std::printf("sweep '%s': %zu jobs distributed over %u "
                        "workers (socket %s)\n",
                        spec.name.c_str(), spec.jobCount(), distributed,
                        so.socketPath.c_str());
        return svc::serveSweep(spec, text, so);
    }
    if (forceVerify) {
        if (spec.sample)
            return fail(Error{"--verify cannot combine with a sampled "
                              "sweep (sweep.sample estimates IPC, it "
                              "does not reproduce the golden final "
                              "state)",
                              exit_code::usage});
        spec.verifyGolden = true;
    }

    exp::SweepRunOptions options;
    options.jobs = jobs ? jobs : exp::ThreadPool::defaultWorkers();
    options.artifactDir = artifactDir;
    options.snapEvery = snapEvery;
    options.resume = !artifactDir.empty();
    options.profileCache = profileCache;

    if (!quiet)
        std::printf("sweep '%s': %zu points x %zu presets = %zu jobs "
                    "on %u threads%s\n",
                    spec.name.c_str(), spec.pointCount(),
                    spec.presets.size(), spec.jobCount(), options.jobs,
                    spec.verifyGolden ? " (golden verify on)" : "");

    exp::ResultSink sink(spec.jobCount());
    std::size_t total = spec.jobCount();
    if (!quiet)
        sink.setOnRecord([total, done = std::size_t{0}](
                             const exp::JobOutcome &out) mutable {
            // Completion order, so lines vary run to run; the records
            // themselves are index-keyed and deterministic.
            ++done;
            std::string status =
                !out.ran ? "ERROR"
                : out.result.finished
                    ? "ipc=" + Table::num(out.result.ipc, 4)
                    : degradeReasonName(out.result.degrade);
            std::fprintf(stderr, "[%zu/%zu] #%zu %s/%s %s\n", done,
                         total, out.spec.index, out.spec.preset.c_str(),
                         out.spec.workload.c_str(), status.c_str());
        });

    int code = exp::runSweep(spec, options, sink);

    if (!jsonPath.empty()) {
        std::ofstream out(jsonPath);
        if (!out)
            return fail(Error{"cannot write '" + jsonPath + "'",
                              exit_code::badInput});
        out << exp::sweepJson(spec, sink);
        if (!quiet)
            std::printf("wrote %s (%zu records)\n", jsonPath.c_str(),
                        sink.outcomes().size());
    }

    if (!quiet) {
        exp::aggregateTable(spec, sink).print();
        if (!spec.baseline.empty())
            exp::baselineTable(spec, sink).print();
        for (const auto &out : sink.outcomes())
            if (!out.ran)
                std::fprintf(stderr, "sweep: job #%zu (%s/%s): %s\n",
                             out.spec.index, out.spec.preset.c_str(),
                             out.spec.workload.c_str(),
                             out.error.c_str());
    }
    return code;
}

/** `sstsim serve`: the sweep broker. --workers N also spawns and
 *  supervises N local workers (like sweep --distributed N). */
int
serveMain(int argc, char **argv)
{
    std::string manifest;
    svc::ServeOptions so;

    Options flags = brokerOptions(so.broker);
    flags.insert({{"--socket", str(so.socketPath)},
                    {"--artifacts", str(so.artifactDir)},
                    {"--json", str(so.jsonPath)},
                    {"--snap-every", num(so.snapEvery)},
                    {"--workers", num(so.spawnWorkers)},
                    {"--quiet", on(so.quiet)}});
    if (auto parsed = parseArgs(argc, argv, flags, oneFile(manifest));
        !parsed.ok())
        return fail(parsed.error());
    if (manifest.empty() || so.socketPath.empty()
        || so.artifactDir.empty())
        return fail(Error{"usage: sstsim serve <manifest> --socket "
                          "PATH --artifacts DIR [--workers N] "
                          "[--snap-every N] [--json FILE] [--quiet] "
                          "[--lease-timeout-ms N] [--max-attempts N] "
                          "[--backoff-base-ms N] [--backoff-max-ms N]",
                          exit_code::usage});

    std::string text;
    auto loaded = exp::SweepSpec::parseFile(manifest, &text);
    if (!loaded.ok())
        return fail(loaded.error());
    return svc::serveSweep(loaded.value(), text, so);
}

/** `sstsim work`: one worker process. The --chaos-* flags kill or
 *  stall it at a simulated cycle of a leased job (fault/chaos.hh). */
int
workMain(int argc, char **argv)
{
    svc::WorkerOptions wo;

    Options flags = workerOptions(wo);
    flags.insert({{"--socket", str(wo.socketPath)}, {"--name", str(wo.name)}});
    auto parsed = parseArgs(argc, argv, flags, [](const std::string &arg) {
        return Result<void>(Error{"unexpected argument '" + arg + "'",
                                  exit_code::usage});
    });
    if (!parsed.ok())
        return fail(parsed.error());
    if (wo.socketPath.empty())
        return fail(Error{"usage: sstsim work --socket PATH "
                          "[--name NAME] [--heartbeat-ms N] [--chaos-*]",
                          exit_code::usage});
    return svc::runWorker(wo);
}

/** Exit code of a run that stopped before HALT. */
int
degradeExit(DegradeReason reason)
{
    return reason == DegradeReason::Livelock ? exit_code::livelock
                                             : exit_code::cycleBudget;
}

/** `sstsim cmp`: -j N is cmp.workers=N. The run pipeline checks the
 *  chip's final state (exp/run.hh): exit 2, with a warning that says
 *  what failed. */
int
cmpMain(int argc, char **argv)
{
    bool json = false;
    TargetArgs args;
    unsigned workers = 0;
    Option jobs = num(workers);
    jobs.apply = [&, parse = jobs.apply](const std::string &flag,
                                         const char *text) -> Result<void> {
        if (auto r = parse(flag, text); !r.ok())
            return r;
        if (workers > kMaxCmpWorkers)
            return Error{"-j " + std::to_string(workers)
                             + " exceeds the worker cap of "
                             + std::to_string(kMaxCmpWorkers),
                         exit_code::usage};
        args.cfg.set("cmp.workers", std::to_string(workers));
        return {};
    };
    auto parsed = parseTargetArgs(
        argc, argv,
        "cmp <preset> <shared-workload> [--json] [-j N] [key=value...]",
        {{"--json", on(json)}, {"-j", jobs}, {"--jobs", jobs}}, args);
    if (!parsed.ok())
        return fail(parsed.error());
    auto resolved = args.resolve(args.cfg, true);
    if (!resolved.ok())
        return fail(resolved.error());
    const exp::RunTarget &target = resolved.value();
    const MachineConfig &mc = target.machine;
    json = json || args.cfg.getBool("json", false);

    auto ran = trapFatal(
        [&] { return exp::executeRun(target, target.options); });
    if (!ran.ok())
        return fail(ran.error());
    if (!ran.value().ok())
        return fail(ran.value().error());
    const exp::RunOutcome &run = ran.value().value();
    const CmpResult &r = run.cmpResult;

    if (json) {
        std::printf("{\"preset\": \"%s\", \"workload\": \"%s\", "
                    "\"cores\": %u, \"coherent\": %s, \"cycles\": %llu, "
                    "\"insts\": %llu, \"aggregate_ipc\": %.6f, "
                    "\"finished\": %s, \"per_core_ipc\": [",
                    mc.presetName.c_str(), args.workload.c_str(),
                    r.cores, mc.mem.coh.enabled ? "true" : "false",
                    static_cast<unsigned long long>(r.cycles),
                    static_cast<unsigned long long>(r.totalInsts),
                    r.aggregateIpc, r.finished ? "true" : "false");
        for (std::size_t i = 0; i < r.perCoreIpc.size(); ++i)
            std::printf("%s%.6f", i ? ", " : "", r.perCoreIpc[i]);
        std::printf("]}\n");
    } else {
        Table t("sstsim cmp: " + args.workload + " on " + mc.presetName
                + (mc.mem.coh.enabled ? " (coherent)" : " (salted)"));
        t.setHeader({"metric", "value"});
        t.addRow({"cores", std::to_string(r.cores)});
        t.addRow({"cycles", std::to_string(r.cycles)});
        t.addRow({"instructions", std::to_string(r.totalInsts)});
        t.addRow({"aggregate IPC", Table::num(r.aggregateIpc, 4)});
        for (std::size_t i = 0; i < r.perCoreIpc.size(); ++i)
            t.addRow({"core" + std::to_string(i) + " IPC",
                      Table::num(r.perCoreIpc[i], 4)});
        t.addRow({"finished", r.finished ? "yes"
                                         : degradeReasonName(r.degrade)});
        t.print();
    }
    if (!r.finished)
        return degradeExit(r.degrade);
    return run.archOk ? exit_code::ok : exit_code::archMismatch;
}

/** `sstsim trace`: a detailed run with the event ring attached. */
int
traceMain(int argc, char **argv)
{
    std::string out_path = "trace.json";
    bool cpistack = false;
    bool validate = false;
    TargetArgs args;
    auto parsed = parseTargetArgs(
        argc, argv,
        "trace <preset> <workload> [--out FILE] [--cpistack] "
        "[--validate] [key=value...]",
        {{"--out", str(out_path)},
         {"--cpistack", on(cpistack)},
         {"--validate", on(validate)}},
        args);
    if (!parsed.ok())
        return fail(parsed.error());
    auto resolved = args.resolve(args.cfg);
    if (!resolved.ok())
        return fail(resolved.error());
    const exp::RunTarget &target = resolved.value();
    const MachineConfig &mc = target.machine;
    const Program &program = target.program();

    trace::TraceBuffer buf;
    exp::RunOptions options;
    options.maxCycles = target.options.maxCycles;
    options.onReady = [&buf](Machine &machine, const exp::RunOutcome &) {
        machine.attachTraceBuffer(&buf);
    };
    auto ran = exp::executeRun(target, options);
    if (!ran.ok())
        return fail(ran.error());
    const RunResult &r = ran.value().result;
    Machine &machine = *ran.value().machine;
    if (!r.finished) {
        std::fprintf(stderr,
                     "sstsim trace: run degraded (%s) after %llu "
                     "cycles\n",
                     degradeReasonName(r.degrade),
                     static_cast<unsigned long long>(r.cycles));
        return degradeExit(r.degrade);
    }

    // The attribution invariant: every cycle charged exactly once.
    trace::CpiStack &stack = machine.core().cpiStack();
    std::uint64_t total = stack.total();
    std::uint64_t cycles = r.cycles;
    double rel_err =
        cycles ? std::abs(static_cast<double>(total)
                          - static_cast<double>(cycles))
                     / static_cast<double>(cycles)
               : 0.0;
    if (rel_err > 0.001) {
        std::fprintf(stderr,
                     "sstsim trace: CPI stack sums to %llu but the run "
                     "took %llu cycles (off by %.3f%%)\n",
                     static_cast<unsigned long long>(total),
                     static_cast<unsigned long long>(cycles),
                     100 * rel_err);
        return exit_code::archMismatch;
    }

    std::string doc = trace::chromeTraceJson(
        mc.core.name + " (" + machine.core().model() + ")", buf);
    std::ofstream out(out_path);
    if (!out)
        return fail(Error{"cannot write '" + out_path + "'",
                          exit_code::badInput});
    out << doc;
    out.close();

    if (validate) {
        auto json = exp::Json::parse(doc);
        if (!json.ok())
            return fail(Error{"exported trace is not valid JSON: "
                                  + json.error().message,
                              exit_code::archMismatch});
        const exp::Json &root = json.take();
        if (!root.isObject() || !root.find("traceEvents")
            || !(*root.find("traceEvents")).isArray())
            return fail(Error{"exported trace lacks a traceEvents "
                              "array",
                              exit_code::archMismatch});
    }

    std::printf("trace: %s/%s %llu cycles, %llu events (%llu dropped) "
                "-> %s\n",
                mc.presetName.c_str(), program.name().c_str(),
                static_cast<unsigned long long>(cycles),
                static_cast<unsigned long long>(buf.recorded()),
                static_cast<unsigned long long>(buf.dropped()),
                out_path.c_str());

    if (cpistack) {
        Table t("CPI stack: " + program.name() + " on "
                + mc.presetName);
        t.setHeader({"category", "cycles", "CPI", "share"});
        double insts = static_cast<double>(r.insts);
        auto row = [&](const char *name, std::uint64_t v,
                       const std::string &share) {
            t.addRow({name, std::to_string(v),
                      insts ? Table::num(static_cast<double>(v) / insts, 4)
                            : "-",
                      share});
        };
        for (std::size_t i = 0; i < trace::numCpiCats; ++i) {
            auto cat = static_cast<trace::CpiCat>(i);
            if (std::uint64_t v = stack.value(cat))
                row(trace::cpiCatName(cat), v,
                    cycles ? Table::num(100.0 * static_cast<double>(v)
                                            / static_cast<double>(cycles),
                                        1)
                                 + "%"
                           : "-");
        }
        row("total", total, "100.0%");
        t.print();
    }
    return exit_code::ok;
}

/** `sstsim diff`: each side is the bare keys merged with its own
 *  a:/b: keys, resolved on its own. */
int
diffMain(int argc, char **argv)
{
    snap::DiffOptions opt;
    opt.maxCycles = 20'000'000;
    opt.outPrefix = "diff";
    TargetArgs args;
    auto parsed = parseTargetArgs(
        argc, argv,
        "diff <preset> <workload> [--stride N] [--max-cycles N] "
        "[--out PREFIX] [--a-fastfwd 0|1] [--b-fastfwd 0|1] "
        "[--inject-cycle N] [--inject-addr A] [a:k=v | b:k=v | k=v ...]",
        {{"--stride", num(opt.stride)},
         {"--max-cycles", num(opt.maxCycles, true)},
         {"--inject-cycle", num(opt.injectCycle, true)},
         {"--inject-addr", num(opt.injectAddr, true)},
         {"--a-fastfwd", num(opt.fastfwdA, true)},
         {"--b-fastfwd", num(opt.fastfwdB, true)},
         {"--out", str(opt.outPrefix)}},
        args);
    if (!parsed.ok())
        return fail(parsed.error());
    // "a:k=v" / "b:k=v" parsed as keys "a:k" / "b:k": split the sides.
    Config shared, onlyA, onlyB;
    for (const auto &[key, value] : args.cfg.items()) {
        bool sided = key.rfind("a:", 0) == 0 || key.rfind("b:", 0) == 0;
        Config &side = !sided ? shared : key[0] == 'a' ? onlyA : onlyB;
        side.set(sided ? key.substr(2) : key, value);
    }

    auto resolveSide = [&](const Config &only) {
        Config merged = shared;
        merged.merge(only);
        return args.resolve(merged);
    };
    auto sideA = resolveSide(onlyA);
    if (!sideA.ok())
        return fail(sideA.error());
    auto sideB = resolveSide(onlyB);
    if (!sideB.ok())
        return fail(sideB.error());

    const Program &program = sideA.value().program();
    Machine a(sideA.value().machine, program);
    Machine b(sideB.value().machine, sideB.value().program());
    snap::DiffReport rep = snap::diffMachines(a, b, opt);

    if (!rep.diverged) {
        std::printf("diff: %s/%s no divergence over %llu cycles "
                    "(%llu compare points, A %s at %llu, B %s at "
                    "%llu)\n",
                    args.preset.c_str(), program.name().c_str(),
                    static_cast<unsigned long long>(
                        std::max(rep.cyclesA, rep.cyclesB)),
                    static_cast<unsigned long long>(rep.comparedPoints),
                    rep.finishedA ? "halted" : "stopped",
                    static_cast<unsigned long long>(rep.cyclesA),
                    rep.finishedB ? "halted" : "stopped",
                    static_cast<unsigned long long>(rep.cyclesB));
        return exit_code::ok;
    }

    std::printf("diff: %s/%s DIVERGED at cycle %llu "
                "(hash A %016llx != B %016llx)\n",
                args.preset.c_str(), program.name().c_str(),
                static_cast<unsigned long long>(rep.firstDivergentCycle),
                static_cast<unsigned long long>(rep.hashA),
                static_cast<unsigned long long>(rep.hashB));
    if (!rep.snapA.empty())
        std::printf("diff: snapshots dumped: %s %s\n", rep.snapA.c_str(),
                    rep.snapB.c_str());
    return exit_code::diverged;
}

/** `sstsim profile`: build (or look up) the target's library; without
 *  --cache it is built in memory and only reported. */
int
profileMain(int argc, char **argv)
{
    std::string cacheDir;
    ProfileParams pp;
    TargetArgs args;
    auto parsed = parseTargetArgs(
        argc, argv,
        "profile <preset> <workload> [--cache DIR] [--regions N] "
        "[--region-insts N] [key=value ...]",
        {{"--cache", str(cacheDir)},
         {"--regions", num(pp.maxRegions, true)},
         {"--region-insts", num(pp.regionInsts)}},
        args);
    if (!parsed.ok())
        return fail(parsed.error());
    auto resolved = args.resolve(args.cfg);
    if (!resolved.ok())
        return fail(resolved.error());
    const exp::RunTarget &target = resolved.value();
    const MachineConfig &mc = target.machine;
    const Program &program = target.program();

    auto built = exp::targetLibrary(target, pp, cacheDir);
    if (!built.ok())
        return fail(built.error());
    const ProfileLibrary &lib = built.value();

    std::size_t selected = 0;
    for (const auto &r : lib.regions)
        if (r.selected)
            ++selected;
    std::printf("profile: preset=%s workload=%s insts=%llu "
                "regions=%zu selected=%zu stride=%llu warm=%llu/%llu\n",
                mc.presetName.c_str(), program.name().c_str(),
                static_cast<unsigned long long>(lib.totalInsts),
                lib.regions.size(), selected,
                static_cast<unsigned long long>(lib.regionInsts),
                static_cast<unsigned long long>(lib.warmHits),
                static_cast<unsigned long long>(lib.warmAccesses));
    if (!cacheDir.empty())
        std::printf("profile: library cached under '%s'\n",
                    profileCacheDir(cacheDir, mc, program, pp,
                                    target.configHash())
                        .c_str());
    else
        std::printf("profile: no --cache given; library built in "
                    "memory and discarded\n");
    return exit_code::ok;
}

/** A sampled run's one-line (or JSON) estimate. */
int
printSampled(const exp::RunTarget &target, bool fromLibrary,
             const SampledResult &r, bool json)
{
    const std::string &preset = target.machine.presetName;
    const std::string &workload = target.program().name();
    if (json) {
        std::string j = "{\"mode\":\"sampled\"";
        j += ",\"preset\":\"" + jsonEscape(preset) + '"';
        j += ",\"workload\":\"" + jsonEscape(workload) + '"';
        j += std::string(",\"from_library\":")
             + (fromLibrary ? "true" : "false");
        j += ",\"ipc\":" + jsonNumber(r.ipc);
        j += ",\"windows\":" + std::to_string(r.windowIpc.size());
        j += ",\"ipc_stddev\":" + jsonNumber(r.ipcStddev());
        j += ",\"ipc_ci95\":" + jsonNumber(r.ipcCi95());
        j += ",\"detailed_insts\":" + std::to_string(r.detailedInsts);
        j += ",\"skipped_insts\":" + std::to_string(r.skippedInsts);
        j += ",\"warm_accesses\":" + std::to_string(r.warmAccesses);
        j += ",\"warm_hits\":" + std::to_string(r.warmHits);
        j += std::string(",\"reached_end\":")
             + (r.reachedEnd ? "true" : "false");
        j += "}\n";
        std::fputs(j.c_str(), stdout);
        return exit_code::ok;
    }
    std::printf("sampled: preset=%s workload=%s ipc=%.4f "
                "windows=%zu stddev=%.4f ci95=%.4f warm=%llu/%llu "
                "detail=%llu skip=%llu%s%s\n",
                preset.c_str(), workload.c_str(), r.ipc,
                r.windowIpc.size(), r.ipcStddev(), r.ipcCi95(),
                static_cast<unsigned long long>(r.warmHits),
                static_cast<unsigned long long>(r.warmAccesses),
                static_cast<unsigned long long>(r.detailedInsts),
                static_cast<unsigned long long>(r.skippedInsts),
                fromLibrary ? " (library)" : "",
                r.reachedEnd ? "" : " (budget)");
    return exit_code::ok;
}

} // namespace

int
main(int argc, char **argv)
{
    static const std::map<std::string, int (*)(int, char **)> subcommands =
        {{"profile", profileMain}, {"sweep", sweepMain},
         {"serve", serveMain},     {"work", workMain},
         {"cmp", cmpMain},         {"trace", traceMain},
         {"diff", diffMain}};
    if (argc >= 2)
        if (auto it = subcommands.find(argv[1]); it != subcommands.end())
            return it->second(argc, argv);

    Config cfg;
    for (int i = 1; i < argc; ++i) {
        auto parsed = cfg.tryParseAssignment(argv[i]);
        if (!parsed.ok())
            return fail(parsed.error());
    }
    setVerbose(false);
    for (const char *key : {"preset", "workload"})
        if (cfg.getString(key, "") == "list")
            listAndExit();

    auto resolved = checkKind(exp::resolveRun(cfg), false);
    if (!resolved.ok())
        return fail(resolved.error());
    const exp::RunTarget &target = resolved.value();
    const MachineConfig &mc = target.machine;
    const Program &program = target.program();

    exp::RunOptions options = target.options;
    std::optional<trace::TraceBuffer> traceBuf;
    if (cfg.getBool("trace", false))
        traceBuf.emplace();
    options.onReady = [&](Machine &machine, const exp::RunOutcome &run) {
        if (traceBuf)
            machine.attachTraceBuffer(&*traceBuf);
        if (!options.resume.empty())
            std::fprintf(stderr,
                         "sstsim: resumed from '%s' at cycle %llu\n",
                         options.resume.c_str(),
                         static_cast<unsigned long long>(
                             machine.core().cycles()));
        if (options.warmStart)
            std::fprintf(stderr,
                         "sstsim: warm-started at instruction %llu "
                         "(cycle %llu) from the profile library\n",
                         static_cast<unsigned long long>(run.warmSkipped),
                         static_cast<unsigned long long>(
                             machine.core().cycles()));
    };
    auto ran = exp::executeRun(target, options);
    if (!ran.ok())
        return fail(ran.error());
    if (traceBuf)
        std::fputs(trace::textLog(*traceBuf).c_str(), stderr);
    const exp::RunOutcome &run = ran.value();
    if (options.sample)
        return printSampled(target, options.fromLibrary, run.sample,
                            cfg.getBool("json", false));

    const RunResult &r = run.result;
    if (!r.finished) {
        std::fprintf(stderr,
                     "sstsim: run degraded (%s) after %llu cycles, "
                     "%llu insts retired\n",
                     degradeReasonName(r.degrade),
                     static_cast<unsigned long long>(r.cycles),
                     static_cast<unsigned long long>(r.insts));
        return degradeExit(r.degrade);
    }
    Machine &machine = *run.machine;
    bool arch_ok = run.archOk;

    if (cfg.getBool("json", false)) {
        std::fputs(machine.core().stats().dumpJson().c_str(), stdout);
        return arch_ok ? exit_code::ok : exit_code::archMismatch;
    }

    auto run_stat = [&](const char *key) {
        auto it = r.stats.find(key);
        return it == r.stats.end() ? 0.0 : it->second;
    };

    std::string stats_depth = cfg.getString("stats", "summary");
    Table t("sstsim: " + program.name() + " ("
            + target.workloads.front().category + ") on " + mc.presetName);
    t.setHeader({"metric", "value"});
    t.addRow({"cycles", std::to_string(r.cycles)});
    t.addRow({"instructions", std::to_string(r.insts)});
    t.addRow({"IPC", Table::num(r.ipc, 4)});
    t.addRow({"L1D miss rate", Table::num(100 * r.l1dMissRate, 2) + "%"});
    t.addRow({"demand MLP", Table::num(r.meanDemandMlp, 2)});
    t.addRow({"mispredict rate",
              Table::num(100 * r.mispredictRate, 2) + "%"});
    if (machine.memsys().faults().enabled()) {
        t.addRow({"faults injected",
                  std::to_string(static_cast<std::uint64_t>(
                      run_stat("fault.injected")))});
        t.addRow({"watchdog recoveries",
                  std::to_string(static_cast<std::uint64_t>(
                      run_stat("watchdog.recoveries")))});
    }
    t.addRow({"arch state vs golden", arch_ok ? "MATCH" : "MISMATCH"});
    if (stats_depth != "none")
        t.print();
    if (stats_depth == "full")
        std::fputs(machine.core().stats().dump().c_str(), stdout);
    if (!arch_ok)
        std::fprintf(stderr, "sstsim: architectural state diverged from "
                             "the golden executor\n");

    return arch_ok ? exit_code::ok : exit_code::archMismatch;
}
