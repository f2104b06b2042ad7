/**
 * @file
 * Tests for the run pipeline (src/exp/run.hh): resolveRun's error
 * paths — every rejection carries its exit code and, for names, the
 * nearest valid one — the effective config it hands to records,
 * executeRun's detailed mode (golden cross-check, resume policy) run
 * from several threads at once, as sweep jobs do, and its CMP mode.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "exp/run.hh"

using namespace sst;
using namespace sst::exp;

namespace
{

Config
request(std::initializer_list<std::pair<const char *, const char *>> kv)
{
    Config cfg;
    cfg.set("length_scale", "0.05");
    for (const auto &[key, value] : kv)
        cfg.set(key, value);
    return cfg;
}

/** The error resolveRun gives @p cfg (fails the test if it resolves). */
Error
rejection(const Config &cfg)
{
    auto r = resolveRun(cfg);
    EXPECT_FALSE(r.ok());
    return r.ok() ? Error{} : r.error();
}

bool
mentions(const Error &e, const std::string &text)
{
    return e.message.find(text) != std::string::npos;
}

} // namespace

TEST(RunPipeline, UnknownKeySuggestsNearest)
{
    Error e = rejection(request({{"fault.drop_fill_rte", "1e-4"}}));
    EXPECT_EQ(e.exitCode, exit_code::usage);
    EXPECT_TRUE(mentions(e, "did you mean 'fault.drop_fill_rate'"))
        << e.message;
}

TEST(RunPipeline, UnknownEnumValueSuggestsTheValueNotThePreset)
{
    Error e = rejection(request({{"core.predictor", "gshore"}}));
    EXPECT_EQ(e.exitCode, exit_code::usage);
    EXPECT_TRUE(mentions(e, "did you mean 'gshare'")) << e.message;
    EXPECT_FALSE(mentions(e, "did you mean 'sst2'")) << e.message;
    e = rejection(request({{"core.value_pred", "strde"}}));
    EXPECT_TRUE(mentions(e, "did you mean 'stride'")) << e.message;
}

TEST(RunPipeline, UnknownPresetSuggestsNearest)
{
    Error e = rejection(request({{"preset", "sst3"}}));
    EXPECT_EQ(e.exitCode, exit_code::usage);
    EXPECT_TRUE(mentions(e, "did you mean 'sst2'")) << e.message;
}

TEST(RunPipeline, UnknownWorkloadSuggestsNearest)
{
    Error e = rejection(request({{"workload", "hash_jon"}}));
    EXPECT_EQ(e.exitCode, exit_code::usage);
    EXPECT_TRUE(mentions(e, "did you mean 'hash_join'")) << e.message;
}

TEST(RunPipeline, WorkloadNameDecidesCmpRun)
{
    auto chip = resolveRun(request({{"workload", "spinlock_counter"}}));
    ASSERT_TRUE(chip.ok()) << chip.error().message;
    EXPECT_TRUE(chip.value().isCmp());
    auto core = resolveRun(request({{"workload", "hash_join"}}));
    ASSERT_TRUE(core.ok()) << core.error().message;
    EXPECT_FALSE(core.value().isCmp());
    // A typo is suggested from both lists.
    Error e = rejection(request({{"workload", "spinlok_counter"}}));
    EXPECT_EQ(e.exitCode, exit_code::usage);
    EXPECT_TRUE(mentions(e, "did you mean 'spinlock_counter'")) << e.message;
}

TEST(RunPipeline, CmpRejectsSingleCoreDriverKeys)
{
    for (const char *key : {"trace", "sample", "resume", "warm_start",
                            "snap_every", "stats"}) {
        Error e = rejection(
            request({{"workload", "spinlock_counter"}, {key, "1"}}));
        EXPECT_EQ(e.exitCode, exit_code::usage) << key;
        EXPECT_TRUE(mentions(e, std::string(key)
                                    + "= cannot combine with a CMP run"))
            << e.message;
    }
}

TEST(RunPipeline, CmpCoreCountIsRangeChecked)
{
    for (const char *cores : {"0", "65", "4294967297"}) {
        Error e = rejection(request({{"preset", "rock16"},
                                     {"workload", "spinlock_counter"},
                                     {"cmp.cores", cores}}));
        EXPECT_EQ(e.exitCode, exit_code::badInput) << cores;
        EXPECT_TRUE(mentions(e, "cmp.cores must be between 1 and 64"))
            << e.message;
    }
    Error e = rejection(request({{"cmp.workers", "4294967298"}}));
    EXPECT_EQ(e.exitCode, exit_code::badInput);
    EXPECT_TRUE(mentions(e, "cmp.workers must be between 1 and 256"))
        << e.message;
}

TEST(RunPipeline, SampleRejectsStartStateAndSnapshotKeys)
{
    for (const char *key : {"resume", "warm_start", "snap_every"}) {
        Error e = rejection(request({{"sample", "true"}, {key, "1000"}}));
        EXPECT_EQ(e.exitCode, exit_code::usage) << key;
        EXPECT_TRUE(mentions(e, std::string(key)
                                    + "= cannot combine with sample=true"))
            << e.message;
    }
    Error e = rejection(
        request({{"warm_start", "1000"}, {"resume", "never-read.snap"}}));
    EXPECT_TRUE(mentions(e, "cannot combine with resume=")) << e.message;
}

TEST(RunPipeline, BadValuesAreBadInput)
{
    Error e = rejection(request({{"core.rob_entries", "0"}}));
    EXPECT_EQ(e.exitCode, exit_code::badInput);
    EXPECT_TRUE(mentions(e, "core.rob_entries must be at least 1"))
        << e.message;
    e = rejection(request({{"detail", "lots"}}));
    EXPECT_EQ(e.exitCode, exit_code::badInput);
    e = rejection(request({{"asm", "/nonexistent/kernel.s"}}));
    EXPECT_EQ(e.exitCode, exit_code::badInput);
}

TEST(RunPipeline, OutOfRangeScalesAreBadInput)
{
    for (const char *key : {"length_scale", "footprint_scale"})
        for (const char *value : {"-1", "0", "nan", "inf"}) {
            Error e = rejection(request({{key, value}}));
            EXPECT_EQ(e.exitCode, exit_code::badInput) << key << value;
            EXPECT_TRUE(mentions(e, std::string(key)
                                        + " must be a positive finite "
                                          "number"))
                << e.message;
        }
    // Checked before any workload is built: for asm= programs, which
    // never read the scales, and for shared (cmp) targets.
    Error e = rejection(request({{"asm", "/nonexistent/kernel.s"},
                                 {"length_scale", "nan"}}));
    EXPECT_TRUE(mentions(e, "length_scale must be a positive finite"))
        << e.message;
    e = rejection(request({{"workload", "spinlock_counter"},
                           {"footprint_scale", "nan"}}));
    EXPECT_EQ(e.exitCode, exit_code::badInput) << e.message;
    EXPECT_TRUE(mentions(e, "footprint_scale must be a positive finite"))
        << e.message;
}

TEST(RunPipeline, EffectiveConfigIsCompleteMachineConfigOnly)
{
    auto r = resolveRun(request({{"preset", "ooo-large"},
                                 {"workload", "hash_join"},
                                 {"core.rob_entries", "64"},
                                 {"json", "true"}}));
    ASSERT_TRUE(r.ok()) << r.error().message;
    const RunTarget &t = r.value();
    EXPECT_EQ(t.machine.presetName, "ooo-large");
    EXPECT_EQ(t.machine.core.robEntries, 64u);
    EXPECT_EQ(t.program().name(), "hash_join");
    bool sawDefault = false;
    for (const auto &[key, value] : t.effective.items()) {
        for (const auto &driver : driverKeys())
            EXPECT_NE(key, driver) << "driver key in effective config";
        if (key == "mem.dram_base_latency")
            sawDefault = true;
    }
    EXPECT_TRUE(sawDefault) << "defaulted machine keys are recorded";
    EXPECT_TRUE(t.options.verifyGolden);
    EXPECT_FALSE(t.options.sample);
}

TEST(RunPipeline, SharedTargetsBuildOneProgramPerCoreOverCoherence)
{
    auto r = resolveRun(request({{"preset", "sst2"},
                                 {"workload", "spinlock_counter"},
                                 {"cmp.cores", "4"}}));
    ASSERT_TRUE(r.ok()) << r.error().message;
    EXPECT_EQ(r.value().workloads.size(), 4u);
    EXPECT_TRUE(r.value().machine.mem.coh.enabled);
    // The effective config records the chip that runs: coherence on,
    // and a single-core preset's default of two cores.
    auto pair = resolveRun(request({{"preset", "sst2"},
                                    {"workload", "shared_table"}}));
    ASSERT_TRUE(pair.ok()) << pair.error().message;
    EXPECT_EQ(pair.value().workloads.size(), 2u);
    EXPECT_EQ(pair.value().effective.getString("cmp.cores", ""), "2");
    EXPECT_EQ(pair.value().effective.getString("coh.enabled", ""), "true");
}

TEST(RunPipeline, CmpRunsAreVerified)
{
    // A salted chip checks each core against its program's golden run,
    // a coherent one the workload's invariants.
    for (auto kv : {request({{"preset", "sst2"},
                             {"workload", "spinlock_counter"},
                             {"coh.enabled", "false"}}),
                    request({{"preset", "rock16"},
                             {"workload", "spinlock_counter"}})}) {
        auto target = resolveRun(kv);
        ASSERT_TRUE(target.ok()) << target.error().message;
        auto run = executeRun(target.value(), target.value().options);
        ASSERT_TRUE(run.ok()) << run.error().message;
        const RunOutcome &out = run.value();
        ASSERT_TRUE(out.cmp);
        EXPECT_FALSE(out.machine);
        EXPECT_TRUE(out.result.finished);
        EXPECT_TRUE(out.archVerified);
        EXPECT_TRUE(out.archOk) << target.value().machine.presetName;
        EXPECT_EQ(out.cmpResult.cores, target.value().machine.cmpCores);
        EXPECT_EQ(out.result.cycles, out.cmpResult.cycles);
        EXPECT_EQ(out.result.insts, out.cmpResult.totalInsts);
    }
}

TEST(RunPipeline, ConcurrentDetailedRunsMatchGoldenAndEachOther)
{
    auto r = resolveRun(
        request({{"preset", "sst2"}, {"workload", "hash_join"}}));
    ASSERT_TRUE(r.ok()) << r.error().message;
    const RunTarget &target = r.value();

    constexpr int kRuns = 3;
    std::vector<RunResult> results(kRuns);
    std::vector<int> verified(kRuns, 0);
    std::vector<std::thread> threads;
    for (int i = 0; i < kRuns; ++i)
        threads.emplace_back([&, i] {
            auto run = executeRun(target, target.options);
            if (!run.ok())
                return;
            results[i] = run.value().result;
            verified[i] = run.value().archVerified && run.value().archOk;
        });
    for (auto &t : threads)
        t.join();
    for (int i = 0; i < kRuns; ++i) {
        EXPECT_TRUE(verified[i]) << "run " << i;
        EXPECT_TRUE(results[i].finished);
        EXPECT_EQ(results[i].cycles, results[0].cycles);
        EXPECT_EQ(results[i].insts, results[0].insts);
    }
}

TEST(RunPipeline, ResumePolicy)
{
    auto r = resolveRun(
        request({{"preset", "inorder"}, {"workload", "compute_kernel"}}));
    ASSERT_TRUE(r.ok()) << r.error().message;
    RunOptions options = r.value().options;
    options.resume = "never-written.snap";

    // An explicit resume= must exist.
    auto strict = executeRun(r.value(), options);
    ASSERT_FALSE(strict.ok());

    // A sweep checkpoint may be missing: the run starts from cycle 0.
    options.resumeOptional = true;
    auto optional = executeRun(r.value(), options);
    ASSERT_TRUE(optional.ok()) << optional.error().message;
    EXPECT_TRUE(optional.value().resumeError.empty());
    EXPECT_TRUE(optional.value().archOk);
}
