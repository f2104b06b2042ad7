#include "sim/presets.hh"

#include <algorithm>
#include <utility>

#include "branch/predictor.hh"
#include "branch/valuepred.hh"
#include "common/config.hh"
#include "common/logging.hh"

namespace sst
{

namespace
{

/** The common hierarchy every preset runs against. */
HierarchyParams
baseHierarchy()
{
    HierarchyParams h;
    h.l1i = CacheParams{"l1i", 32 * 1024, 4, 64, 2, ReplPolicy::Lru};
    h.l1d = CacheParams{"l1d", 32 * 1024, 4, 64, 3, ReplPolicy::Lru};
    h.l2 = CacheParams{"l2", 2 * 1024 * 1024, 8, 64, 20, ReplPolicy::Lru};
    h.dram = DramParams{"dram", 16, 4096, 240, 30, 60, 8};
    h.l1MshrEntries = 32;
    h.l2PortCycles = 4;
    h.dataPrefetch = PrefetcherParams{true, 2, 1};
    h.instPrefetch = PrefetcherParams{true, 1, 1};
    return h;
}

CoreParams
baseCore(const std::string &name)
{
    CoreParams c;
    c.name = name;
    c.fetchWidth = 2;
    c.pipelineDepth = 12;
    c.predictor = "gshare";
    c.storeBufferEntries = 8;
    return c;
}

} // namespace

MachineConfig
makePreset(const std::string &name)
{
    MachineConfig cfg;
    cfg.presetName = name;
    cfg.mem = baseHierarchy();
    cfg.core = baseCore(name);

    if (name == "inorder") {
        cfg.model = "inorder";
    } else if (name == "scout") {
        cfg.model = "sst";
        cfg.core.checkpoints = 1;
        cfg.core.discardSpecWork = true;
        cfg.core.ssqEntries = 32;
    } else if (name == "ea") {
        cfg.model = "sst";
        cfg.core.checkpoints = 1;
        cfg.core.dqEntries = 64;
        cfg.core.ssqEntries = 32;
    } else if (name == "sst2" || name == "sst4" || name == "sst8") {
        cfg.model = "sst";
        cfg.core.checkpoints = name == "sst2" ? 2
                               : name == "sst4" ? 4
                                                : 8;
        cfg.core.dqEntries = 64;
        cfg.core.ssqEntries = 32;
    } else if (name == "ooo-small") {
        cfg.model = "ooo";
        cfg.core.robEntries = 32;
        cfg.core.issueQueueEntries = 16;
        cfg.core.lsqEntries = 16;
        cfg.core.issueWidth = 2;
    } else if (name == "ooo-large") {
        cfg.model = "ooo";
        cfg.core.fetchWidth = 4;
        cfg.core.robEntries = 128;
        cfg.core.issueQueueEntries = 48;
        cfg.core.lsqEntries = 48;
        cfg.core.issueWidth = 4;
    } else if (name == "ooo-huge") {
        // Idealised upper bound: a window nobody would build at the
        // paper's technology node, for context in the figures.
        cfg.model = "ooo";
        cfg.core.fetchWidth = 8;
        cfg.core.robEntries = 512;
        cfg.core.issueQueueEntries = 128;
        cfg.core.lsqEntries = 128;
        cfg.core.issueWidth = 8;
    } else if (name == "rock16") {
        // The ROCK chip: 16 SST cores (2 checkpoints apiece) over one
        // coherent shared 2 MiB L2 — true shared memory, no address
        // salting, lock elision available.
        cfg.model = "sst";
        cfg.core.checkpoints = 2;
        cfg.core.dqEntries = 64;
        cfg.core.ssqEntries = 32;
        cfg.core.elideLocks = true;
        cfg.mem.coh.enabled = true;
        cfg.cmpCores = 16;
    } else {
        fatal("unknown machine preset '%s'", name.c_str());
    }
    return cfg;
}

std::vector<std::string>
presetNames()
{
    return {"inorder",   "scout",     "ea",       "sst2",
            "sst4",      "sst8",      "ooo-small", "ooo-large",
            "ooo-huge",  "rock16"};
}

void
applyOverrides(MachineConfig &config, const Config &overrides)
{
    CoreParams &c = config.core;
    c.fetchWidth = static_cast<unsigned>(
        overrides.getUint("core.fetch_width", c.fetchWidth));
    c.pipelineDepth = static_cast<unsigned>(
        overrides.getUint("core.pipeline_depth", c.pipelineDepth));
    c.predictor = overrides.getString("core.predictor", c.predictor);
    {
        const auto &names = predictorNames();
        if (std::find(names.begin(), names.end(), c.predictor)
            == names.end()) {
            std::string hint = closestMatch(c.predictor, names);
            fatal("unknown branch predictor '%s'%s%s",
                  c.predictor.c_str(),
                  hint.empty() ? "" : "; did you mean '",
                  hint.empty() ? "" : (hint + "'?").c_str());
        }
    }
    c.strandHistory =
        overrides.getBool("core.strand_history", c.strandHistory);
    c.valuePred = overrides.getString("core.value_pred", c.valuePred);
    // Validate eagerly so sweep manifests fail at parse time, not
    // mid-run inside a worker.
    (void)valuePredKindFromString(c.valuePred);
    c.storeBufferEntries = static_cast<unsigned>(overrides.getUint(
        "core.store_buffer_entries", c.storeBufferEntries));
    c.robEntries = static_cast<unsigned>(
        overrides.getUint("core.rob_entries", c.robEntries));
    c.issueQueueEntries = static_cast<unsigned>(
        overrides.getUint("core.iq_entries", c.issueQueueEntries));
    c.lsqEntries = static_cast<unsigned>(
        overrides.getUint("core.lsq_entries", c.lsqEntries));
    c.issueWidth = static_cast<unsigned>(
        overrides.getUint("core.issue_width", c.issueWidth));
    // A zero-sized window or width can never make progress: the run
    // would spin until the livelock watchdog gives up.
    for (auto [key, value] :
         {std::pair{"core.fetch_width", c.fetchWidth},
          std::pair{"core.rob_entries", c.robEntries},
          std::pair{"core.iq_entries", c.issueQueueEntries},
          std::pair{"core.lsq_entries", c.lsqEntries},
          std::pair{"core.issue_width", c.issueWidth}})
        fatal_if(value == 0, "%s must be at least 1", key);
    c.checkpoints = static_cast<unsigned>(
        overrides.getUint("core.checkpoints", c.checkpoints));
    c.dqEntries = static_cast<unsigned>(
        overrides.getUint("core.dq_entries", c.dqEntries));
    c.ssqEntries = static_cast<unsigned>(
        overrides.getUint("core.ssq_entries", c.ssqEntries));
    c.deferOnL2MissOnly = overrides.getBool("core.defer_on_l2_miss_only",
                                            c.deferOnL2MissOnly);
    c.maxDeferredBranches = static_cast<unsigned>(overrides.getUint(
        "core.max_deferred_branches", c.maxDeferredBranches));
    c.lineGranularConflicts = overrides.getBool(
        "core.line_granular_conflicts", c.lineGranularConflicts);
    c.elideLocks = overrides.getBool("core.elide_locks", c.elideLocks);

    // Range-checked before narrowing, so 2^32 + 1 cannot wrap into a
    // valid count. cmp.cores = 0 is a single-core preset's own value.
    std::uint64_t cores = overrides.getUint("cmp.cores", config.cmpCores);
    fatal_if(cores > kMaxCmpCores,
             "cmp.cores must be between 1 and %u (got %llu)", kMaxCmpCores,
             static_cast<unsigned long long>(cores));
    config.cmpCores = static_cast<unsigned>(cores);
    std::uint64_t workers =
        overrides.getUint("cmp.workers", config.cmpWorkers);
    fatal_if(workers == 0 || workers > kMaxCmpWorkers,
             "cmp.workers must be between 1 and %u (got %llu)",
             kMaxCmpWorkers, static_cast<unsigned long long>(workers));
    config.cmpWorkers = static_cast<unsigned>(workers);
    config.cmpQuantum = static_cast<unsigned>(
        overrides.getUint("cmp.quantum", config.cmpQuantum));

    HierarchyParams &m = config.mem;
    m.l1d.sizeBytes =
        overrides.getUint("mem.l1d_kb", m.l1d.sizeBytes / 1024) * 1024;
    m.l2.sizeBytes =
        overrides.getUint("mem.l2_kb", m.l2.sizeBytes / 1024) * 1024;
    m.dram.baseLatency = static_cast<unsigned>(overrides.getUint(
        "mem.dram_base_latency", m.dram.baseLatency));
    m.dram.banks = static_cast<unsigned>(
        overrides.getUint("mem.dram_banks", m.dram.banks));
    m.l1MshrEntries = static_cast<unsigned>(
        overrides.getUint("mem.mshrs", m.l1MshrEntries));
    m.dataPrefetch.enabled =
        overrides.getBool("mem.data_prefetch", m.dataPrefetch.enabled);
    std::string pf_mode = overrides.getString(
        "mem.prefetch_mode",
        m.dataPrefetch.mode == PrefetchMode::Stride ? "stride"
                                                    : "nextline");
    if (pf_mode == "stride")
        m.dataPrefetch.mode = PrefetchMode::Stride;
    else if (pf_mode == "nextline")
        m.dataPrefetch.mode = PrefetchMode::NextLine;
    else
        fatal("unknown prefetch mode '%s'", pf_mode.c_str());
    m.dataPrefetch.degree = static_cast<unsigned>(overrides.getUint(
        "mem.prefetch_degree", m.dataPrefetch.degree));
    m.dtlb.entries = static_cast<unsigned>(
        overrides.getUint("mem.dtlb_entries", m.dtlb.entries));
    m.dtlb.walkLatency = static_cast<unsigned>(overrides.getUint(
        "mem.dtlb_walk_latency", m.dtlb.walkLatency));

    CohParams &coh = m.coh;
    coh.enabled = overrides.getBool("coh.enabled", coh.enabled);
    coh.invalidateLatency = static_cast<unsigned>(overrides.getUint(
        "coh.invalidate_latency", coh.invalidateLatency));
    coh.interventionLatency = static_cast<unsigned>(overrides.getUint(
        "coh.intervention_latency", coh.interventionLatency));
    coh.upgradeLatency = static_cast<unsigned>(
        overrides.getUint("coh.upgrade_latency", coh.upgradeLatency));

    FaultParams &f = m.fault;
    f.seed = overrides.getUint("fault.seed", f.seed);
    f.dropFillRate =
        overrides.getDouble("fault.drop_fill_rate", f.dropFillRate);
    f.dropTimeout = static_cast<unsigned>(
        overrides.getUint("fault.drop_timeout", f.dropTimeout));
    f.delayFillRate =
        overrides.getDouble("fault.delay_fill_rate", f.delayFillRate);
    f.delayCycles = static_cast<unsigned>(
        overrides.getUint("fault.delay_cycles", f.delayCycles));
    f.mshrPressureRate = overrides.getDouble("fault.mshr_pressure_rate",
                                             f.mshrPressureRate);
    f.tlbPressureRate = overrides.getDouble("fault.tlb_pressure_rate",
                                            f.tlbPressureRate);
    f.forceAbortRate =
        overrides.getDouble("fault.force_abort_rate", f.forceAbortRate);
    // Probabilities: NaN, infinities and values outside [0, 1] would
    // draw nonsense (NaN even arms abort injection's RNG draws while
    // reading as "off" to every `rate > 0` gate).
    for (auto [key, rate] :
         {std::pair{"fault.drop_fill_rate", f.dropFillRate},
          std::pair{"fault.delay_fill_rate", f.delayFillRate},
          std::pair{"fault.mshr_pressure_rate", f.mshrPressureRate},
          std::pair{"fault.tlb_pressure_rate", f.tlbPressureRate},
          std::pair{"fault.force_abort_rate", f.forceAbortRate}})
        fatal_if(!(rate >= 0.0 && rate <= 1.0), "%s must be in [0, 1]",
                 key);
    f.dqSqueeze = static_cast<unsigned>(
        overrides.getUint("fault.dq_squeeze", f.dqSqueeze));
    f.ssqSqueeze = static_cast<unsigned>(
        overrides.getUint("fault.ssq_squeeze", f.ssqSqueeze));
    f.chaosExitCycle =
        overrides.getUint("fault.chaos_exit_cycle", f.chaosExitCycle);

    WatchdogParams &w = config.watchdog;
    w.enabled = overrides.getBool("watchdog.enabled", w.enabled);
    w.stallCycles =
        overrides.getUint("watchdog.stall_cycles", w.stallCycles);
    w.maxInterventions = static_cast<unsigned>(overrides.getUint(
        "watchdog.max_interventions", w.maxInterventions));
}

std::vector<std::string>
machineConfigKeys()
{
    return {
        "core.fetch_width",
        "core.pipeline_depth",
        "core.predictor",
        "core.strand_history",
        "core.value_pred",
        "core.store_buffer_entries",
        "core.rob_entries",
        "core.iq_entries",
        "core.lsq_entries",
        "core.issue_width",
        "core.checkpoints",
        "core.dq_entries",
        "core.ssq_entries",
        "core.defer_on_l2_miss_only",
        "core.max_deferred_branches",
        "core.line_granular_conflicts",
        "core.elide_locks",
        "cmp.cores",
        "cmp.workers",
        "cmp.quantum",
        "coh.enabled",
        "coh.invalidate_latency",
        "coh.intervention_latency",
        "coh.upgrade_latency",
        "mem.l1d_kb",
        "mem.l2_kb",
        "mem.dram_base_latency",
        "mem.dram_banks",
        "mem.mshrs",
        "mem.data_prefetch",
        "mem.prefetch_mode",
        "mem.prefetch_degree",
        "mem.dtlb_entries",
        "mem.dtlb_walk_latency",
        "fault.seed",
        "fault.drop_fill_rate",
        "fault.drop_timeout",
        "fault.delay_fill_rate",
        "fault.delay_cycles",
        "fault.mshr_pressure_rate",
        "fault.tlb_pressure_rate",
        "fault.force_abort_rate",
        "fault.dq_squeeze",
        "fault.ssq_squeeze",
        "fault.chaos_exit_cycle",
        "watchdog.enabled",
        "watchdog.stall_cycles",
        "watchdog.max_interventions",
    };
}

} // namespace sst
