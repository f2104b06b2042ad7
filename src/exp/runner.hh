/**
 * @file
 * The parallel experiment runner: executes a SweepSpec's jobs on a
 * work-stealing ThreadPool and collects structured results.
 *
 * Determinism contract: the per-job JSON records produced by a sweep
 * are BYTE-IDENTICAL for any -j, because
 *   - every job owns its entire mutable world (workload generation,
 *     MemoryImage, Machine, FaultInjector, stat tree) — nothing is
 *     shared between concurrently running jobs;
 *   - all RNG streams are seeded from (sweep seed, job/point index)
 *     via deriveSeed (rng.hh), never from a shared generator;
 *   - warn()/inform() output is captured per job (LogCapture) and
 *     travels inside the record instead of racing to stderr;
 *   - records are keyed by job index, and every number is serialised
 *     with the deterministic formatter in stats.hh.
 * Only the *completion order* (and therefore any progress callback
 * order) varies with scheduling.
 */

#ifndef SSTSIM_EXP_RUNNER_HH
#define SSTSIM_EXP_RUNNER_HH

#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/table.hh"
#include "exp/sweep.hh"
#include "sim/machine.hh"

namespace sst
{
class ChaosMonitor;
}

namespace sst::exp
{

/** Everything one job produced. */
struct JobOutcome
{
    JobSpec spec;
    /** False when the job could not run at all (bad config value). */
    bool ran = false;
    std::string error; ///< failure message when !ran
    RunResult result;  ///< valid when ran
    /** Golden-executor cross-check (verify mode only). */
    bool archVerified = false;
    bool archOk = false;
    /** Sampled-run extras (sweep.sample mode; zero otherwise). The
     *  headline RunResult then carries the *estimated* whole-program
     *  cycles/IPC, and these describe the estimate's quality. */
    bool sampled = false;
    std::size_t windows = 0;
    std::uint64_t detailedInsts = 0;
    double ipcStddev = 0;
    double ipcCi95 = 0;
    std::uint64_t warmAccesses = 0;
    std::uint64_t warmHits = 0;
    /** warn()/inform() lines captured while the job ran. */
    std::string log;
    /** The canonical structured record (one JSON object). */
    std::string recordJson;
};

/** Thread-safe collector; outcomes indexed by job index. */
class ResultSink
{
  public:
    explicit ResultSink(std::size_t jobCount)
        : outcomes_(jobCount), present_(jobCount, 0)
    {
    }

    /** Store @p outcome (and fire the progress callback, if any). */
    void record(JobOutcome outcome);

    /**
     * record() that tolerates duplicates: a second outcome for an
     * already-recorded index is dropped (first write wins, keeping
     * resumed-then-recomputed results stable). @return true when the
     * outcome was stored. Out-of-range indices still panic — they mean
     * the caller mixed sinks from different manifests.
     */
    bool tryRecord(JobOutcome outcome);

    /** True once an outcome for @p index has been recorded. */
    bool has(std::size_t index) const;

    /** Completion-order callback; called under the sink lock. */
    void setOnRecord(std::function<void(const JobOutcome &)> fn)
    {
        onRecord_ = std::move(fn);
    }

    /** All outcomes in job-index order (complete after runSweep). */
    const std::vector<JobOutcome> &outcomes() const { return outcomes_; }

    std::size_t recorded() const;

  private:
    mutable std::mutex mutex_;
    std::vector<JobOutcome> outcomes_;
    std::vector<char> present_;
    std::size_t recorded_ = 0;
    std::function<void(const JobOutcome &)> onRecord_;
};

/** Execution knobs for one sweep run. */
struct SweepRunOptions
{
    /** Worker threads; 0 = one per hardware thread. */
    unsigned jobs = 1;
    /**
     * Per-job artifact directory ("" disables). Each completed job
     * writes "<dir>/job-<index>.json" (its record, atomically); with
     * snapEvery > 0, in-flight jobs additionally checkpoint the whole
     * machine to "<dir>/job-<index>.snap" every snapEvery cycles.
     */
    std::string artifactDir;
    std::uint64_t snapEvery = 0;
    /**
     * Resume an interrupted sweep from artifactDir: jobs whose record
     * artifact exists (and matches the manifest's identity for that
     * index) are not re-run — their outcome is rebuilt from the record;
     * jobs with only a .snap checkpoint restart from it instead of
     * cycle 0. Unreadable, truncated or mismatching records are
     * re-run with a warning, never fatal — a torn write from a killed
     * worker must not wedge the whole sweep.
     */
    bool resume = false;
    /**
     * Process-chaos monitor to attach to each job's machine (service
     * workers pass theirs; in-process sweeps leave it null). When set,
     * a job whose effective config carries fault.chaos_exit_cycle will
     * kill/stall this process at that simulated cycle — the poison-job
     * and crash-recovery test hook. See fault/chaos.hh.
     */
    ChaosMonitor *chaos = nullptr;
    /**
     * Profile-library cache directory for sampled sweeps. Resolution
     * order: this field, then sweep.profile_cache from the manifest,
     * then "<artifactDir>/profile-cache" when artifacts are enabled,
     * else none (each job builds its library in memory).
     */
    std::string profileCache;
};

/** The cache directory a sampled sweep will actually use (see
 *  SweepRunOptions::profileCache); "" when none applies. */
std::string resolveProfileCache(const SweepSpec &spec,
                                const SweepRunOptions &options);

/** Record artifact path for job @p index: "<dir>/job-<index>.json". */
std::string jobRecordPath(const std::string &dir, std::size_t index);

/** Checkpoint artifact path: "<dir>/job-<index>.snap". */
std::string jobSnapPath(const std::string &dir, std::size_t index);

/**
 * Rebuild a JobOutcome from a persisted record, validating that the
 * artifact belongs to this manifest's job @p job (index, preset,
 * workload and seeds must all match). @return false — with a
 * diagnostic in @p why when non-null — for unparseable text or an
 * identity mismatch; the caller re-runs the job.
 */
bool outcomeFromRecord(const JobSpec &job, const std::string &text,
                       JobOutcome &out, std::string *why = nullptr);

/**
 * A synthetic never-ran outcome (ran=false, @p error recorded) with a
 * well-formed record, used to quarantine poison jobs that kill every
 * worker that leases them: the sweep completes with the failure
 * documented instead of wedging on the job.
 */
JobOutcome unrunOutcome(const JobSpec &job, const std::string &error);

/**
 * Resume pass shared by the in-process runner and the service broker:
 * scan @p artifactDir for finished records of @p jobs, feed matching
 * ones to @p sink and mark them in @p done (sized to jobs.size()).
 * Corrupt or mismatching artifacts warn and stay un-done. @return the
 * number of jobs resumed.
 */
std::size_t loadFinishedRecords(const std::vector<JobSpec> &jobs,
                                const std::string &artifactDir,
                                ResultSink &sink,
                                std::vector<char> &done);

/**
 * Run one job in isolation (also the unit the pool executes): the job
 * as a run request through resolveRun, the manifest's mode through
 * executeRun (exp/run.hh), then the record.
 */
JobOutcome runJob(const SweepSpec &spec, const JobSpec &job,
                  const SweepRunOptions &options = {});

/**
 * Expand @p spec and run every job; outcomes land in @p sink. The call
 * blocks until the sweep finishes. @return the worst exit code over all
 * jobs (exit_code::ok when everything finished cleanly).
 */
int runSweep(const SweepSpec &spec, const SweepRunOptions &options,
             ResultSink &sink);

/**
 * Worst exit code over all recorded outcomes (the code runSweep
 * returns): badInput > archMismatch > livelock > cycleBudget > ok.
 * Shared with the service broker, which folds quarantine on top.
 */
int sweepExitCode(const ResultSink &sink);

/**
 * The whole sweep as one JSON document:
 *   {"sweep": {...manifest echo...}, "records": [...per-job records...]}
 * Records appear in job-index order; see runner.cc for the schema.
 */
std::string sweepJson(const SweepSpec &spec, const ResultSink &sink);

/** Per (preset, workload) min/mean/max aggregate table. */
Table aggregateTable(const SweepSpec &spec, const ResultSink &sink);

/**
 * Baseline-relative speedups (geomean of baseline.cycles / job.cycles
 * over matching sweep points), one column per preset: one row per
 * workload, one per workload category (Workload::category, in manifest
 * order) and one over everything. Only meaningful when spec.baseline
 * is set.
 */
Table baselineTable(const SweepSpec &spec, const ResultSink &sink);

} // namespace sst::exp

#endif // SSTSIM_EXP_RUNNER_HH
