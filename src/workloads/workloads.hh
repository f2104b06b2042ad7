/**
 * @file
 * Workload generators.
 *
 * The paper evaluates SST on commercial benchmarks (OLTP/ERP-class:
 * large working sets, pointer-dependent misses, data-dependent
 * branches, low ILP) against SPEC-class compute codes. Those suites are
 * proprietary, so each generator below synthesises a kernel with the
 * same first-order behaviour — the properties SST actually responds to:
 * L2-resident vs DRAM-resident footprints, independent vs dependent
 * miss chains, and predictable vs data-dependent control flow.
 *
 * Every generator is deterministic in its seed and produces a complete
 * Program (code + initial data image) in the sstsim ISA.
 *
 * | name           | class      | memory behaviour        | control    |
 * |----------------|------------|-------------------------|------------|
 * | pointer_chase  | commercial | dependent DRAM misses   | trivial    |
 * | list_walk      | commercial | dependent misses, value-|            |
 * |                |            | predictable next links  | trivial    |
 * | hash_join      | commercial | independent DRAM misses | trivial    |
 * | btree_lookup   | commercial | dependent misses        | data-dep   |
 * | oltp_mix       | commercial | independent misses + upd| mixed      |
 * | graph_scan     | commercial | seq + random misses     | loop-dep   |
 * | stream         | compute    | sequential, prefetches  | trivial    |
 * | compute_kernel | compute    | L1-resident             | trivial    |
 * | sorted_merge   | compute    | sequential              | data-dep   |
 * | column_scan    | commercial | sequential + predicate  | data-dep   |
 * | matrix_blocked | compute    | tiled, L1-friendly      | trivial    |
 *
 * Shared-memory workloads (coherent CMP only) emit one program per
 * core over a single physical image. Critical sections are guarded by
 * amoswap spinlocks (0 = free, nonzero = held; release is a plain
 * store of 0) and deliberately never re-read the lock word inside the
 * section, so they are elision-friendly (see INTERNALS.md).
 *
 * | name              | sharing behaviour                             |
 * |-------------------|-----------------------------------------------|
 * | spinlock_counter  | all cores contend one lock, bump counters     |
 * | producer_consumer | core pairs move items through a locked ring   |
 * | shared_table      | read-mostly lookups, ~1/16 updates, one lock  |
 */

#ifndef SSTSIM_WORKLOADS_WORKLOADS_HH
#define SSTSIM_WORKLOADS_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.hh"
#include "isa/program.hh"

namespace sst
{

class MemoryImage;

/** Generator knobs. Defaults give runs of a few hundred K instructions
 *  with working sets that miss a 2 MB L2 where the class demands it. */
struct WorkloadParams
{
    std::uint64_t seed = 42;
    /** Working-set scale: 1.0 = the class's default footprint. */
    double footprintScale = 1.0;
    /** Run-length scale: 1.0 = the default iteration count. */
    double lengthScale = 1.0;
};

/** A generated workload plus its metadata. */
struct Workload
{
    std::string name;
    /** "commercial" or "compute" — drives the paper's aggregates. */
    std::string category;
    Program program;
    /** Approximate dynamic instruction count at lengthScale=1. */
    std::uint64_t approxDynInsts = 0;
};

Workload makePointerChase(const WorkloadParams &params = {});
Workload makeHashJoin(const WorkloadParams &params = {});
Workload makeBtreeLookup(const WorkloadParams &params = {});
Workload makeOltpMix(const WorkloadParams &params = {});
Workload makeGraphScan(const WorkloadParams &params = {});
Workload makeStream(const WorkloadParams &params = {});
Workload makeComputeKernel(const WorkloadParams &params = {});
Workload makeSortedMerge(const WorkloadParams &params = {});
Workload makeColumnScan(const WorkloadParams &params = {});
Workload makeMatrixBlocked(const WorkloadParams &params = {});

/** All workload names in canonical bench order. */
std::vector<std::string> allWorkloadNames();
/** Names in the "commercial" class (the paper's headline aggregate). */
std::vector<std::string> commercialWorkloadNames();
/** Names in the "compute" class. */
std::vector<std::string> computeWorkloadNames();
/** Workload::category of @p name without building it: "commercial",
 *  "compute", or "" for a name in neither class. */
std::string workloadCategory(const std::string &name);

/** Build a workload by name; unknown names are fatal. */
Workload makeWorkload(const std::string &name,
                      const WorkloadParams &params = {});

/**
 * Build a shared-memory workload: one program per core, all loading
 * identical initial data into one shared image. Core @c k writes its
 * checksum to a disjoint result slot (resultAddr + 8k). Per-core PRNG
 * streams are seeded from (params.seed, core), so a given (name, cores,
 * seed) triple is fully deterministic. "producer_consumer" requires an
 * even core count; the others accept any count >= 1.
 */
std::vector<Workload> makeSharedWorkload(const std::string &name,
                                         unsigned cores,
                                         const WorkloadParams &params = {});

/** All shared-memory workload names in canonical bench order. */
std::vector<std::string> sharedWorkloadNames();

/**
 * Check the final shared @p image of makeSharedWorkload(@p name,
 * @p cores, @p params) against what every interleaving leaves:
 * spinlock_counter's counters sum to cores x iterations, each
 * producer_consumer consumer's checksum equals its producer's, every
 * core's result slot is written and every lock ends free. The Error
 * (exit_code::archMismatch) names the first invariant that fails.
 */
Result<void> checkSharedWorkload(const std::string &name, unsigned cores,
                                 const WorkloadParams &params,
                                 const MemoryImage &image);

} // namespace sst

#endif // SSTSIM_WORKLOADS_WORKLOADS_HH
