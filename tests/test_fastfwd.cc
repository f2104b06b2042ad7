/**
 * @file
 * Stall-cycle fast-forwarding must be invisible: for every preset and
 * workload, a run with the wake-cycle skip enabled must produce results,
 * stats and traces byte-identical to the naive per-cycle loop. These
 * tests flip the runtime switch both ways in-process and compare
 * everything the simulator exposes, plus check the wake-cycle contract
 * itself (no premature progress before the reported wake).
 */

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "sim/cmp.hh"
#include "sim/fastfwd.hh"
#include "sim/machine.hh"
#include "sim/presets.hh"
#include "sim_test_util.hh"
#include "trace/trace.hh"
#include "workloads/workloads.hh"

using namespace sst;
using test::expectStatsEqual;
using test::expectTracesEqual;
using test::kAllPresets;
using test::kWorkloads;
using test::workloadProgram;

namespace
{

/** One differential case: a preset on a workload with config overrides
 *  ("key=value" assignments) at a workload length scale. */
struct Case
{
    std::string preset;
    std::string workload;
    std::vector<std::string> overrides;
    double lengthScale = 0.1;
};

MachineConfig
caseConfig(const std::string &preset,
           const std::vector<std::string> &overrides)
{
    MachineConfig mc = makePreset(preset);
    Config cfg;
    for (const auto &kv : overrides)
        cfg.parseAssignment(kv);
    applyOverrides(mc, cfg);
    return mc;
}

std::string
caseName(const Case &c)
{
    std::string name = c.preset + " / " + c.workload;
    for (const auto &kv : c.overrides)
        name += " " + kv;
    return name;
}

/**
 * The differential sweep: every preset on the shared workloads plus two
 * L1-resident compute programs, then feature configurations that reach
 * stall paths the default presets leave cold (value prediction with
 * per-strand history, queue-full and deferred-branch throttle stalls,
 * forced aborts).
 */
std::vector<Case>
differentialCases()
{
    std::vector<std::string> workloads = kWorkloads;
    workloads.push_back("compute_kernel");
    workloads.push_back("sorted_merge");
    std::vector<Case> cases;
    for (const auto &wl : workloads)
        for (const auto &preset : kAllPresets)
            cases.push_back({preset, wl, {}});
    // sst2 x list_walk is the slow rollback pathology: keep it short.
    cases.push_back({"sst2", "list_walk",
                     {"core.value_pred=stride", "core.strand_history=on"},
                     0.05});
    const std::vector<std::string> tight = {
        "core.dq_entries=4", "core.ssq_entries=2",
        "core.max_deferred_branches=1"};
    for (const char *preset : {"sst2", "sst4"})
        for (const char *wl : {"oltp_mix", "hash_join"})
            cases.push_back({preset, wl, tight});
    cases.push_back({"sst2", "oltp_mix", {"fault.force_abort_rate=0.001"}});
    return cases;
}

RunResult
runOnce(const Case &c, const Program &program, bool fastfwd,
        trace::TraceBuffer *buf)
{
    setFastForward(fastfwd);
    Machine machine(caseConfig(c.preset, c.overrides), program);
    if (buf)
        machine.attachTraceBuffer(buf);
    RunResult res = machine.run();
    clearFastForwardOverride();
    return res;
}

} // namespace

/** The headline invariant: every case, skip on == skip off, down to
 *  every stat and every structured trace event. */
TEST(FastForward, DifferentialAllPresets)
{
    for (const Case &c : differentialCases()) {
        SCOPED_TRACE(caseName(c));
        WorkloadParams wp;
        wp.lengthScale = c.lengthScale;
        Program program = makeWorkload(c.workload, wp).program;
        trace::TraceBuffer naiveTrace;
        trace::TraceBuffer fastTrace;
        RunResult naive = runOnce(c, program, false, &naiveTrace);
        RunResult fast = runOnce(c, program, true, &fastTrace);

        EXPECT_EQ(naive.cycles, fast.cycles);
        EXPECT_EQ(naive.insts, fast.insts);
        EXPECT_EQ(naive.ipc, fast.ipc);
        EXPECT_EQ(naive.finished, fast.finished);
        EXPECT_EQ(naive.degrade, fast.degrade);
        EXPECT_EQ(naive.l1dMissRate, fast.l1dMissRate);
        EXPECT_EQ(naive.meanDemandMlp, fast.meanDemandMlp);
        EXPECT_EQ(naive.mispredictRate, fast.mispredictRate);
        expectStatsEqual(naive.stats, fast.stats);
        expectTracesEqual(naiveTrace, fastTrace);
    }
}

/** Same invariant for the CMP lockstep loop (shared L2/DRAM), plus a
 *  coherent chip eliding locks through a two-entry SSQ. */
TEST(FastForward, DifferentialCmp)
{
    struct CmpCase
    {
        std::string preset;
        std::string workload;
        unsigned cores;
        std::vector<std::string> overrides;
    };
    const std::vector<CmpCase> cases = {
        {"inorder", "oltp_mix", 2, {}},
        {"sst4", "oltp_mix", 2, {}},
        {"ooo-large", "oltp_mix", 2, {}},
        {"sst2", "spinlock_counter", 4,
         {"coh.enabled=true", "core.elide_locks=on", "core.ssq_entries=2"}},
    };
    for (const CmpCase &c : cases) {
        SCOPED_TRACE(c.preset + " / " + c.workload);
        MachineConfig mc = caseConfig(c.preset, c.overrides);
        WorkloadParams wp;
        wp.lengthScale = 0.1;
        std::vector<Program> owned;
        if (mc.mem.coh.enabled) {
            for (Workload &w : makeSharedWorkload(c.workload, c.cores, wp))
                owned.push_back(std::move(w.program));
        } else {
            owned.assign(c.cores, makeWorkload(c.workload, wp).program);
        }
        std::vector<const Program *> programs;
        for (const Program &p : owned)
            programs.push_back(&p);

        setFastForward(false);
        Cmp naiveCmp(mc, programs);
        CmpResult naive = naiveCmp.run();
        setFastForward(true);
        Cmp fastCmp(mc, programs);
        CmpResult fast = fastCmp.run();
        clearFastForwardOverride();

        EXPECT_EQ(naive.cycles, fast.cycles);
        EXPECT_EQ(naive.totalInsts, fast.totalInsts);
        EXPECT_EQ(naive.aggregateIpc, fast.aggregateIpc);
        EXPECT_EQ(naive.finished, fast.finished);
        EXPECT_EQ(naive.degrade, fast.degrade);
        EXPECT_EQ(naive.watchdogRecoveries, fast.watchdogRecoveries);
        ASSERT_EQ(naive.perCoreIpc.size(), fast.perCoreIpc.size());
        for (std::size_t i = 0; i < naive.perCoreIpc.size(); ++i)
            EXPECT_EQ(naive.perCoreIpc[i], fast.perCoreIpc[i]);
        for (unsigned i = 0; i < naive.cores; ++i)
            expectStatsEqual(naiveCmp.core(i).stats().flatten(),
                             fastCmp.core(i).stats().flatten());
    }
}

/**
 * The wake-cycle contract, checked against the naive loop itself: after
 * a tick that retired nothing, no tick that starts before the reported
 * wake cycle may retire anything. (The other direction — that skipping
 * to the wake reproduces the same stats — is what the differential
 * tests above prove.)
 */
TEST(FastForward, WakeIsNeverPremature)
{
    Program program = workloadProgram("oltp_mix");
    for (const auto &preset : kAllPresets) {
        SCOPED_TRACE(preset);
        setFastForward(false);
        Machine machine(makePreset(preset), program);
        Core &core = machine.core();
        std::uint64_t windows = 0;
        while (!core.halted() && core.cycles() < 5'000'000) {
            std::uint64_t before = core.instsRetired();
            core.tick();
            if (core.halted() || core.instsRetired() != before)
                continue;
            Cycle wake = core.nextWakeCycle();
            if (wake == Core::kWakeNever)
                break;
            if (wake <= core.cycles())
                continue;
            ++windows;
            while (!core.halted() && core.cycles() < wake) {
                std::uint64_t b = core.instsRetired();
                core.tick();
                ASSERT_EQ(core.instsRetired(), b)
                    << "retired inside a window declared idle until "
                    << wake;
            }
        }
        clearFastForwardOverride();
        EXPECT_GT(windows, 0u) << "workload never produced a skippable "
                                  "stall window";
    }
}

/** Bulk Distribution::sample(v, n) must equal n repeated samples. */
TEST(FastForward, BulkDistributionSample)
{
    Distribution loop;
    Distribution bulk;
    loop.init(128, 16);
    bulk.init(128, 16);
    const std::uint64_t values[] = {0, 1, 7, 8, 64, 127, 128, 500};
    const std::uint64_t counts[] = {1, 3, 10, 0, 2, 5, 4, 7};
    for (std::size_t i = 0; i < std::size(values); ++i) {
        for (std::uint64_t k = 0; k < counts[i]; ++k)
            loop.sample(values[i]);
        bulk.sample(values[i], counts[i]);
    }
    EXPECT_EQ(loop.toJson(), bulk.toJson());
    EXPECT_EQ(loop.count(), bulk.count());
    EXPECT_EQ(loop.mean(), bulk.mean());
    EXPECT_EQ(loop.maxSample(), bulk.maxSample());
}

/** The in-process override beats the environment in both directions. */
TEST(FastForward, OverrideSwitch)
{
    setFastForward(false);
    EXPECT_FALSE(fastForwardEnabled());
    setFastForward(true);
    EXPECT_TRUE(fastForwardEnabled());
    clearFastForwardOverride();
}
