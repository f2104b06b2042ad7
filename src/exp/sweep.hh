/**
 * @file
 * Manifest-driven design-space sweeps.
 *
 * A sweep manifest is a plain-text file in the same "key = value"
 * syntax the Config store and the CLI use, with two extensions: `#`
 * comments and comma-separated value lists. Every machine-config key
 * (see sim/presets.hh machineConfigKeys) whose value is a list becomes
 * a sweep *axis*; `preset` and `workload` are list-valued driver keys;
 * `sweep.*` keys steer the expansion itself. The cartesian product of
 * presets x workloads x axes x repeats yields the job list. A
 * shared-memory workload (spinlock_counter, ...) makes CMP jobs: one
 * program per core of a cmp.cores chip (see exp/run.hh).
 *
 * Example (the paper's memory-latency sensitivity, 2x2x3x1 = 12 jobs):
 *
 *     sweep.name     = memlat
 *     sweep.seed     = 42
 *     sweep.repeats  = 1
 *     sweep.baseline = inorder
 *     preset   = inorder, sst2
 *     workload = oltp_mix, hash_join
 *     mem.dram_base_latency = 120, 240, 480
 *
 * A `variant.<name> = <preset> key=value ...` line names a preset plus
 * fixed machine overrides; the name may then appear in `preset` (and
 * `sweep.baseline`) like a preset. `seed = N` pins every job's
 * workload seed, so all axis points of a workload run one program.
 *
 * Seeding contract (see rng.hh deriveSeed): every job gets
 *   - jobSeed      = deriveSeed(sweep.seed, 2 * job index) — seeds the
 *     job's fault injector (unless the manifest pins fault.seed);
 *   - workloadSeed = deriveSeed(sweep.seed, 2 * point ordinal + 1) —
 *     seeds the workload generator (or the pinned `seed`). The point
 *     ordinal identifies the (workload, axis values, repeat)
 *     combination *excluding* the preset, so every preset at one sweep
 *     point runs the bit-identical program and baseline deltas compare
 *     like with like.
 * The even/odd split domain-separates the two streams: job index and
 * point ordinal coincide whenever there is a single preset, and a
 * shared index space would correlate fault timing with workload
 * randomness.
 */

#ifndef SSTSIM_EXP_SWEEP_HH
#define SSTSIM_EXP_SWEEP_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/result.hh"

namespace sst::exp
{

/** One fully resolved simulation job. */
struct JobSpec
{
    std::size_t index = 0; ///< position in expansion order
    std::string preset;    ///< a preset or a variant name
    /** A variant's base preset; empty when @ref preset is a preset. */
    std::string basePreset;
    std::string workload;
    unsigned repeat = 0;
    /** deriveSeed(sweep.seed, 2*index): job-local streams (faults). */
    std::uint64_t jobSeed = 0;
    /** deriveSeed(sweep.seed, 2*ordinal+1): workload generation. */
    std::uint64_t workloadSeed = 0;
    /** Machine-config assignments for this job (a variant's keys, axis
     *  values, plus fault.seed = jobSeed when faults are swept without
     *  a pinned seed). */
    Config overrides;
    /** Identity of the sweep point across presets — "workload|axis
     *  values|repeat" — the baseline-comparison join key. */
    std::string pointKey;
};

/** Parsed manifest: the declarative description of a sweep. */
struct SweepSpec
{
    struct Axis
    {
        std::string key;
        std::vector<std::string> values;
    };
    /** A named preset plus fixed overrides (`variant.<name>`). */
    struct Variant
    {
        std::string name;
        std::string preset;
        Config overrides;
    };

    std::string name = "sweep";
    std::uint64_t baseSeed = 42;
    /** Workload seed of every job (`seed`); unset derives one per
     *  sweep point from baseSeed. */
    std::optional<std::uint64_t> workloadSeed;
    unsigned repeats = 1;
    /** Preset whose runs are the comparison baseline ("" = none). */
    std::string baseline;
    std::uint64_t maxCycles = 500'000'000;
    double lengthScale = 1.0;
    double footprintScale = 1.0;
    /** Cross-check every job's final arch state against the golden
     *  functional executor (costs one extra functional run per point). */
    bool verifyGolden = false;
    /** Run every job SMARTS-sampled from a checkpoint-warmed profile
     *  library (sim/profile.hh) instead of in full detail. Mutually
     *  exclusive with sweep.verify (sampled runs estimate, they do not
     *  reproduce the golden final state). */
    bool sample = false;
    /** Instructions per detailed sample window (sweep.sample_detail). */
    std::uint64_t sampleDetail = 20'000;
    /** Representative regions kept per library, 0 = every region
     *  (sweep.sample_regions). */
    unsigned sampleRegions = 8;
    /** Region stride in instructions; 0 derives it per workload from
     *  its approximate dynamic length (sweep.region_insts). */
    std::uint64_t regionInsts = 0;
    /** Shared on-disk snapshot-library cache for sampled jobs
     *  (sweep.profile_cache; "" = none, each job builds in memory). */
    std::string profileCache;

    std::vector<std::string> presets; ///< presets and variant names
    std::vector<std::string> workloads;
    std::vector<Axis> axes; ///< manifest order; later axes spin fastest
    std::vector<Variant> variants;
    /** True when the manifest pins fault.seed explicitly (an axis may
     *  still sweep it); otherwise jobs derive it from jobSeed. */
    bool explicitFaultSeed = false;

    /** Parse manifest text; @p origin names it in diagnostics. */
    static Result<SweepSpec> parse(const std::string &text,
                                   const std::string &origin = "manifest");

    /** Read and parse a manifest file; @p text, when given, receives
     *  its bytes (the service broker ships them to workers). */
    static Result<SweepSpec> parseFile(const std::string &path,
                                       std::string *text = nullptr);

    /** The variant named @p name, or null for a plain preset. */
    const Variant *variant(const std::string &name) const;

    /** Jobs per preset (workloads x axes x repeats). */
    std::size_t pointCount() const;

    /** Total job count (pointCount x presets). */
    std::size_t jobCount() const { return pointCount() * presets.size(); }

    /**
     * Cartesian expansion in deterministic order: workload (outer),
     * then each axis (manifest order, last spins fastest), then repeat,
     * then preset (innermost). Job indices and seeds depend only on the
     * manifest, never on scheduling.
     */
    std::vector<JobSpec> expand() const;
};

/** Split on @p sep, trimming ASCII whitespace; drops empty pieces. */
std::vector<std::string> splitList(const std::string &text, char sep);

} // namespace sst::exp

#endif // SSTSIM_EXP_SWEEP_HH
