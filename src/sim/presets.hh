/**
 * @file
 * Named machine configurations — the simulated-machines table (T1).
 *
 * All presets share an identical memory hierarchy (32 KB L1s, 2 MB L2,
 * banked DRAM with ~330-cycle loaded latency), so every comparison in
 * the benches isolates the core microarchitecture:
 *
 * | preset    | core                                                   |
 * |-----------|--------------------------------------------------------|
 * | inorder   | 2-wide in-order, stall-on-use scoreboard               |
 * | scout     | inorder + 1 checkpoint, runahead, work discarded       |
 * | ea        | SST machinery, 1 checkpoint (execute-ahead)            |
 * | sst2      | SST, 2 checkpoints (the ROCK configuration)            |
 * | sst4      | SST, 4 checkpoints                                     |
 * | sst8      | SST, 8 checkpoints                                     |
 * | ooo-small | 2-wide OoO, 32-entry ROB, 16-entry IQ                  |
 * | ooo-large | 4-wide OoO, 128-entry ROB, 48-entry IQ ("larger,       |
 * |           | higher-powered" comparator from the abstract)          |
 * | ooo-huge  | 8-wide OoO, 512-entry ROB: idealised upper bound       |
 */

#ifndef SSTSIM_SIM_PRESETS_HH
#define SSTSIM_SIM_PRESETS_HH

#include <string>
#include <vector>

#include "common/config.hh"
#include "core/core.hh"
#include "mem/hierarchy.hh"

namespace sst
{

/** Livelock watchdog driving the Machine/Cmp run loops. */
struct WatchdogParams
{
    bool enabled = true;
    /** Zero-retirement window length that counts as a stall. Must be
     *  shorter than any recoverable event (e.g. a dropped-fill timeout)
     *  or the watchdog can never help. */
    std::uint64_t stallCycles = 25'000;
    /** Consecutive fruitless interventions before declaring livelock
     *  and terminating the run. */
    unsigned maxInterventions = 8;
};

/** Everything needed to instantiate one machine. */
struct MachineConfig
{
    std::string presetName = "inorder";
    /** Core model: "inorder", "ooo", "sst" (scout via discardSpecWork). */
    std::string model = "inorder";
    CoreParams core;
    HierarchyParams mem;
    WatchdogParams watchdog;
    /** Core count for CMP presets (0 = single-core preset; the CMP
     *  harness is driven by the number of programs, this is the
     *  preset's intended chip size for the CLI and benches). */
    unsigned cmpCores = 0;
    /** Worker threads for the CMP tick engine (results are
     *  byte-identical at any value; 1 = run on the calling thread). */
    unsigned cmpWorkers = 1;
    /** Sync quantum in cycles for the parallel CMP engine; 0 picks the
     *  default (the minimum coherence latency when coherent, a long
     *  horizon otherwise). */
    unsigned cmpQuantum = 0;
};

/** Hard cap on cmp.workers: beyond this the request is a config error,
 *  not a thread-spawn storm. */
constexpr unsigned kMaxCmpWorkers = 256;

/** Hard cap on cmp.cores: the coherence directory keeps one sharer bit
 *  per core in a 64-bit mask. */
constexpr unsigned kMaxCmpCores = 64;

/** Build a named preset; unknown names are fatal. */
MachineConfig makePreset(const std::string &name);

/** All preset names in canonical bench order. */
std::vector<std::string> presetNames();

/**
 * Apply flat Config overrides (e.g. "mem.dram_base_latency=400",
 * "core.checkpoints=2", "mem.l2_kb=4096") on top of a preset.
 */
void applyOverrides(MachineConfig &config, const Config &overrides);

/** Every config key applyOverrides understands (for CLI suggestions). */
std::vector<std::string> machineConfigKeys();

} // namespace sst

#endif // SSTSIM_SIM_PRESETS_HH
