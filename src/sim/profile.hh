/**
 * @file
 * Checkpoint-warmed sampling: one functional profiling pass over a
 * workload drops a library of warm-state region snapshots, and every
 * later sampled (or detailed) run of the same program warm-starts from
 * a library member instead of replaying the fast-forward from cycle 0.
 *
 * The pass is SimPoint-shaped: the program is cut into fixed-stride
 * regions, each region is summarised by a basic-block vector (a
 * histogram of executed PCs), and a greedy k-center selection picks at
 * most maxRegions representatives whose weights are the instruction
 * counts of the regions they stand for. maxRegions = 0 disables
 * selection entirely (the fixed-stride fallback: every region is its
 * own representative). Each selected region's start state — functional
 * cursor, warmed memory hierarchy, memory image, warm clock — is
 * serialized as one member in the snap/ format, headed by
 * preset/model/workload/programFingerprint/configHash so a shared
 * on-disk cache across sweep jobs can never hand state to the wrong
 * run.
 *
 * Determinism contract: a library built in memory and a library read
 * back from disk hold byte-identical members, and
 * runSampledFromLibrary() consumes only those bytes — so a sweep that
 * populates the cache and a sweep that reuses it produce byte-identical
 * job records. Nothing on the clean build/lookup path logs through
 * warn()/inform() (captured logs are part of the record bytes); only
 * genuinely corrupt cache members warn when they are skipped.
 */

#ifndef SSTSIM_SIM_PROFILE_HH
#define SSTSIM_SIM_PROFILE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/machine.hh"
#include "sim/sampling.hh"

namespace sst
{

/** Profiling-pass knobs. */
struct ProfileParams
{
    /** Instructions per fixed-stride region (the snapshot stride).
     *  0 = auto: profileRegionHint() of the workload when the caller
     *  has one, else a counting pre-pass cuts the program into ~16
     *  regions (clamped like the hint). Cache lookups need a resolved
     *  (non-zero) stride — it is part of the cache key. */
    std::uint64_t regionInsts = 0;
    /** Representative regions to keep (k-center k). 0 keeps every
     *  region: the fixed-stride fallback. */
    unsigned maxRegions = 8;
    /** Cycles charged per warmed instruction while fast-forwarding;
     *  must match the SampleParams the library will serve. */
    unsigned warmCpi = 2;
    /** Functional budget: a program that does not halt within this
     *  many instructions is a profiling error (fatal). */
    std::uint64_t maxInsts = 2'000'000'000ULL;
};

/** One fixed-stride region of the profiled program. */
struct ProfileRegion
{
    std::uint64_t index = 0;
    /** Instructions retired before the region's first one. */
    std::uint64_t startInsts = 0;
    /** Dynamic instructions in the region (the tail may be short). */
    std::uint64_t lengthInsts = 0;
    /** Warm clock at the region boundary (selected regions only). */
    Cycle startClock = 0;
    /** Instructions this representative stands for: its own length
     *  plus every region assigned to it (selected regions only). */
    std::uint64_t weight = 0;
    bool selected = false;
    /** Serialized warm-start state (selected regions only). */
    std::vector<std::uint8_t> member;
};

/** A profiled workload: identity, totals and the region snapshots. */
struct ProfileLibrary
{
    std::string preset;
    std::string model;
    std::string workload;
    std::uint64_t fingerprint = 0;
    /** Hash over the memory-affecting configuration (memConfigHash);
     *  core.* knobs deliberately do not contribute, so core-axis sweep
     *  jobs share one cache entry. */
    std::uint64_t configHash = 0;
    std::uint64_t regionInsts = 0;
    unsigned maxRegions = 8;
    unsigned warmCpi = 2;
    std::uint64_t totalInsts = 0;
    /** Warming traffic of the profiling pass (see SampledResult). */
    std::uint64_t warmAccesses = 0;
    std::uint64_t warmHits = 0;
    std::vector<ProfileRegion> regions;

    /** Selected regions that still carry usable member bytes. */
    std::size_t usableCount() const;
};

/**
 * Hash the parts of the effective configuration that shape library
 * member bytes: every "mem.*" and "fault.*" assignment plus the preset
 * memory defaults they override. @p effective is the post-
 * applyOverrides Config (its getters record defaulted keys, so it is
 * complete). Core-model knobs are excluded on purpose.
 */
std::uint64_t memConfigHash(const MachineConfig &config,
                            const Config &effective);

/** Auto region stride for a workload: a power-of-two-free cut of its
 *  approximate dynamic length into ~16 regions, clamped to
 *  [10'000, 2'000'000]. */
std::uint64_t profileRegionHint(std::uint64_t approxDynInsts);

/**
 * The profiling pass. Pass 1 runs the golden executor once to collect
 * per-region basic-block vectors and the total instruction count;
 * selection then picks the representatives; pass 2 replays the program
 * with cache warming (warmStep, runSampled's fast-forward step, including
 * the bounded MSHR-retry loop) and serializes each selected region's
 * start state; each member's checksum is computed on a worker thread
 * while warming continues. The program must halt within
 * params.maxInsts (fatal otherwise — wrap in trapFatal on untrusted
 * input).
 */
ProfileLibrary buildProfileLibrary(const MachineConfig &config,
                                   const Program &program,
                                   const ProfileParams &params,
                                   std::uint64_t configHash);

/** Library directory under @p cacheRoot for this identity: one entry
 *  per (preset, model, workload, fingerprint, configHash, schedule). */
std::string profileCacheDir(const std::string &cacheRoot,
                            const MachineConfig &config,
                            const Program &program,
                            const ProfileParams &params,
                            std::uint64_t configHash);

/**
 * Persist @p library into @p dir: one "region-<index>.snap" per
 * selected region, written concurrently (snap::writeFile rename
 * staging, so concurrent populators of one cache entry never tear each
 * other's files), then "library.manifest" last and only when every
 * member was written — the manifest's presence marks a complete entry,
 * and byte-identical concurrent writers make last-rename-wins safe.
 * On failure the first failing member's error, in region order, is
 * returned.
 */
Result<void> saveProfileLibrary(const ProfileLibrary &library,
                                const std::string &dir);

/**
 * Load a library from @p dir and validate it against the run's
 * identity. A manifest whose preset/model/workload/fingerprint/
 * configHash disagree is rejected outright (Error). Members are read
 * in turn, their checksums verified in parallel, and then triaged one
 * by one in region order: probeSnapshotFile plus the whole-file
 * checksum and a full header match — a truncated or corrupt member is
 * skipped
 * with a warning and its region dropped; a member carrying a different
 * program fingerprint is rejected the same way. Zero usable members is
 * an Error (the caller rebuilds).
 */
Result<ProfileLibrary> loadProfileLibrary(const std::string &dir,
                                          const MachineConfig &config,
                                          const Program &program,
                                          const ProfileParams &params,
                                          std::uint64_t configHash);

/**
 * Cache-or-build: look the library up under @p cacheRoot, rebuild and
 * atomically populate the entry on a miss (or on a corrupt entry), and
 * return the in-memory library either way. An empty @p cacheRoot
 * builds in memory without touching disk. The returned members are
 * byte-identical whether they came from the cache or were just built.
 */
Result<ProfileLibrary> ensureProfileLibrary(const MachineConfig &config,
                                            const Program &program,
                                            const ProfileParams &params,
                                            const std::string &cacheRoot,
                                            std::uint64_t configHash);

/**
 * Sampled run served entirely from library members: every usable
 * selected region is restored into a fresh hierarchy + image, a
 * detailed core is warm-started at the member's cursor and clock, and
 * one window of params.detailInsts runs. The whole-program IPC
 * estimate is the weight-blended CPI of the windows
 * (sum w_i / sum w_i * cpi_i). params.maxSamples > 0 caps the run to
 * the highest-weight members. windowWeight carries the per-window
 * weights for the CI helper.
 */
SampledResult runSampledFromLibrary(const MachineConfig &config,
                                    const Program &program,
                                    const ProfileLibrary &library,
                                    const SampleParams &params = {});

/**
 * Warm-start a freshly built (never ticked) Machine from the library
 * member nearest below @p targetInsts (the earliest member when none
 * is below): the member's hierarchy, image and stats replace the
 * machine's cold state and the core warm-starts at the member's cursor
 * and clock, so a following Machine::run() continues from the region
 * boundary instead of cycle 0. @p startInsts (when non-null) receives
 * the member's instruction offset — a golden cross-check must compare
 * retired instructions against (golden total - startInsts).
 */
Result<void> warmStartMachine(Machine &machine,
                              const ProfileLibrary &library,
                              std::uint64_t targetInsts,
                              std::uint64_t *startInsts = nullptr);

} // namespace sst

#endif // SSTSIM_SIM_PROFILE_HH
