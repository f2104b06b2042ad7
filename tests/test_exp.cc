/**
 * @file
 * Tests for the parallel experiment runner (src/exp): the
 * work-stealing ThreadPool, manifest parsing and cartesian expansion,
 * per-job seed derivation, and — the load-bearing property — that a
 * sweep's per-job records are byte-identical at -j 1 and -j 8, with
 * and without fault injection.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>

#include "common/logging.hh"
#include "common/rng.hh"
#include "exp/json.hh"
#include "exp/runner.hh"
#include "exp/sweep.hh"
#include "exp/threadpool.hh"

using namespace sst;
using namespace sst::exp;

TEST(ThreadPool, RunsEveryTaskExactlyOnce)
{
    ThreadPool pool(4);
    constexpr int kTasks = 500;
    std::vector<std::atomic<int>> hits(kTasks);
    for (auto &h : hits)
        h = 0;
    for (int i = 0; i < kTasks; ++i)
        pool.submit([&hits, i] { ++hits[i]; });
    pool.wait();
    for (int i = 0; i < kTasks; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "task " << i;
    EXPECT_EQ(pool.executed(), static_cast<std::uint64_t>(kTasks));
}

TEST(ThreadPool, SingleTaskBatchesNeverLoseTheWakeup)
{
    // Regression for a lost-wakeup race: submit() once bumped signal_
    // before pushing the task, so a worker could observe the new
    // signal_, scan the still-empty deques, and sleep through the
    // notify with the task queued — deadlocking wait(). Single-task
    // batches are the most race-prone shape (exactly one notify per
    // wait), so hammer them.
    ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int i = 0; i < 2000; ++i) {
        pool.submit([&count] { ++count; });
        pool.wait();
    }
    EXPECT_EQ(count.load(), 2000);
}

TEST(ThreadPool, WaitIsReusableAcrossBatches)
{
    ThreadPool pool(3);
    std::atomic<int> count{0};
    for (int batch = 0; batch < 5; ++batch) {
        for (int i = 0; i < 20; ++i)
            pool.submit([&count] { ++count; });
        pool.wait();
        EXPECT_EQ(count.load(), (batch + 1) * 20);
    }
}

TEST(ThreadPool, TasksMaySubmitTasks)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 8; ++i)
        pool.submit([&pool, &count] {
            for (int k = 0; k < 4; ++k)
                pool.submit([&count] { ++count; });
        });
    pool.wait();
    EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, ParallelForCoversRange)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(100);
    for (auto &h : hits)
        h = 0;
    parallelFor(pool, hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, DefaultWorkersIsPositive)
{
    EXPECT_GE(ThreadPool::defaultWorkers(), 1u);
    ThreadPool pool(0);
    EXPECT_EQ(pool.workerCount(), ThreadPool::defaultWorkers());
}

TEST(DeriveSeed, DeterministicAndWellSpread)
{
    EXPECT_EQ(deriveSeed(42, 0), deriveSeed(42, 0));
    std::set<std::uint64_t> seen;
    for (std::uint64_t base : {0ULL, 1ULL, 42ULL})
        for (std::uint64_t index = 0; index < 100; ++index)
            seen.insert(deriveSeed(base, index));
    // 300 derivations, no collisions, and none equal to the bases.
    EXPECT_EQ(seen.size(), 300u);
    EXPECT_FALSE(seen.count(0));
    EXPECT_FALSE(seen.count(42));
}

TEST(DeriveSeed, MatchesSplitmixDefinition)
{
    std::uint64_t state = 7 + 3 * 0x9e3779b97f4a7c15ULL;
    splitmix64(state);
    std::uint64_t expect = splitmix64(state);
    EXPECT_EQ(deriveSeed(7, 2), expect);
}

TEST(LogCapture, CapturesThisThreadOnly)
{
    LogCapture outer;
    warn("outer %d", 1);
    {
        LogCapture inner;
        warn("inner");
        std::thread other([] {
            // No capture active on this thread; goes to stderr (and
            // must not land in either capture).
            warn("other-thread");
        });
        other.join();
        EXPECT_EQ(inner.text(), "warn: inner\n");
    }
    warn("outer %d", 2);
    EXPECT_EQ(outer.text(), "warn: outer 1\nwarn: outer 2\n");
}

namespace
{

const char *kSmokeManifest = R"(
# comment line
sweep.name     = unit          # trailing comment
sweep.seed     = 7
sweep.repeats  = 2
sweep.baseline = inorder
sweep.length_scale = 0.05
preset   = inorder, sst2
workload = compute_kernel
mem.dram_base_latency = 120, 240
)";

} // namespace

TEST(SweepSpec, ParsesManifest)
{
    auto parsed = SweepSpec::parse(kSmokeManifest, "unit");
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    SweepSpec spec = parsed.take();
    EXPECT_EQ(spec.name, "unit");
    EXPECT_EQ(spec.baseSeed, 7u);
    EXPECT_EQ(spec.repeats, 2u);
    EXPECT_EQ(spec.baseline, "inorder");
    EXPECT_DOUBLE_EQ(spec.lengthScale, 0.05);
    ASSERT_EQ(spec.presets.size(), 2u);
    ASSERT_EQ(spec.workloads.size(), 1u);
    ASSERT_EQ(spec.axes.size(), 1u);
    EXPECT_EQ(spec.axes[0].key, "mem.dram_base_latency");
    EXPECT_EQ(spec.axes[0].values,
              (std::vector<std::string>{"120", "240"}));
    // 1 workload x 2 axis values x 2 repeats = 4 points, x 2 presets.
    EXPECT_EQ(spec.pointCount(), 4u);
    EXPECT_EQ(spec.jobCount(), 8u);
}

TEST(SweepSpec, ExpansionIsDeterministicAndSeededPerJob)
{
    SweepSpec spec = SweepSpec::parse(kSmokeManifest, "unit").take();
    auto jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 8u);
    std::set<std::uint64_t> jobSeeds;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(jobs[i].index, i);
        // Even indices: the odd subspace is the workload domain.
        EXPECT_EQ(jobs[i].jobSeed, deriveSeed(7, 2 * i));
        jobSeeds.insert(jobs[i].jobSeed);
    }
    EXPECT_EQ(jobSeeds.size(), jobs.size()) << "job seeds must differ";
    // Presets spin fastest: consecutive jobs share a point (and
    // therefore the workload seed), differing only in preset.
    EXPECT_EQ(jobs[0].preset, "inorder");
    EXPECT_EQ(jobs[1].preset, "sst2");
    EXPECT_EQ(jobs[0].pointKey, jobs[1].pointKey);
    EXPECT_EQ(jobs[0].workloadSeed, jobs[1].workloadSeed);
    EXPECT_NE(jobs[0].workloadSeed, jobs[2].workloadSeed);
    // The axis assignment rides in the overrides.
    EXPECT_EQ(jobs[0].overrides.getString("mem.dram_base_latency", ""),
              "120");
    // Two identical expansions agree completely.
    auto again = spec.expand();
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(jobs[i].pointKey, again[i].pointKey);
}

TEST(SweepSpec, JobAndWorkloadSeedDomainsAreDisjoint)
{
    // With a single preset, job index == point ordinal for every job;
    // the even/odd domain split must still keep the fault-injector
    // stream independent of the workload stream.
    SweepSpec spec =
        SweepSpec::parse("preset = sst2\nworkload = stream\n"
                         "sweep.repeats = 4\n",
                         "m")
            .take();
    auto jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 4u);
    std::set<std::uint64_t> seeds;
    for (const auto &job : jobs) {
        EXPECT_NE(job.jobSeed, job.workloadSeed);
        seeds.insert(job.jobSeed);
        seeds.insert(job.workloadSeed);
    }
    EXPECT_EQ(seeds.size(), 2 * jobs.size())
        << "fault and workload seeds must never collide";
}

TEST(SweepSpec, RejectsUnknownKeysWithSuggestion)
{
    auto r = SweepSpec::parse("preset = sst2\nworkload = stream\n"
                              "mem.dram_base_latencyy = 1\n",
                              "m");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().message.find("mem.dram_base_latency"),
              std::string::npos)
        << r.error().message;
    EXPECT_NE(r.error().message.find("m:3"), std::string::npos)
        << "diagnostic should carry the line number: "
        << r.error().message;
}

TEST(SweepSpec, RejectsBadValuesAtParseTime)
{
    auto r = SweepSpec::parse("preset = sst2\nworkload = stream\n"
                              "mem.dram_base_latency = fast\n",
                              "m");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().message.find("not an unsigned integer"),
              std::string::npos)
        << r.error().message;
}

TEST(SweepSpec, RejectsBaselineOutsidePresetList)
{
    auto r = SweepSpec::parse("sweep.baseline = ooo-huge\n"
                              "preset = sst2\nworkload = stream\n",
                              "m");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().message.find("baseline"), std::string::npos);
}

TEST(SweepSpec, DerivesFaultSeedPerJobUnlessPinned)
{
    SweepSpec swept =
        SweepSpec::parse("preset = sst2\nworkload = stream\n"
                         "fault.drop_fill_rate = 0, 1e-4\n",
                         "m")
            .take();
    auto jobs = swept.expand();
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].overrides.getUint("fault.seed", 0),
              jobs[0].jobSeed);

    SweepSpec pinned =
        SweepSpec::parse("preset = sst2\nworkload = stream\n"
                         "fault.drop_fill_rate = 1e-4\n"
                         "fault.seed = 9\n",
                         "m")
            .take();
    auto pinnedJobs = pinned.expand();
    ASSERT_EQ(pinnedJobs.size(), 1u);
    EXPECT_EQ(pinnedJobs[0].overrides.getUint("fault.seed", 0), 9u);
}

namespace
{

/** The parse error of @p manifest (fails the test if it parses). */
Error
parseError(const std::string &manifest)
{
    auto r = SweepSpec::parse(manifest, "m");
    EXPECT_FALSE(r.ok()) << manifest;
    return r.ok() ? Error{} : r.error();
}

/** @p e is bad input at line @p line of manifest "m" and says @p text. */
void
expectLineError(const Error &e, unsigned line, const std::string &text)
{
    EXPECT_EQ(e.exitCode, exit_code::badInput) << e.message;
    EXPECT_NE(e.message.find("m:" + std::to_string(line) + ": "),
              std::string::npos)
        << e.message;
    EXPECT_NE(e.message.find(text), std::string::npos) << e.message;
}

} // namespace

TEST(SweepSpec, PinnedSeedGivesEveryJobOfAWorkloadOneProgram)
{
    SweepSpec spec =
        SweepSpec::parse("sweep.seed = 7\nseed = 42\n"
                         "preset = inorder, sst4\n"
                         "workload = hash_join, stream\n"
                         "core.dq_entries = 8, 256\n",
                         "m")
            .take();
    auto jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 8u);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(jobs[i].workloadSeed, 42u) << "job " << i;
        EXPECT_EQ(jobs[i].jobSeed, deriveSeed(7, 2 * i)) << "job " << i;
    }
    // Unpinned, the axis points of one workload run different programs.
    SweepSpec derived =
        SweepSpec::parse("sweep.seed = 7\npreset = sst4\n"
                         "workload = hash_join\n"
                         "core.dq_entries = 8, 256\n",
                         "m")
            .take();
    auto free = derived.expand();
    ASSERT_EQ(free.size(), 2u);
    EXPECT_NE(free[0].workloadSeed, free[1].workloadSeed);
}

TEST(SweepSpec, RejectsSeedThatIsNotAnUnsignedInteger)
{
    for (const char *seed : {"-1", "abc", "1.5", "0x10",
                             "99999999999999999999"})
        expectLineError(parseError(std::string("preset = sst2\n"
                                               "workload = stream\n"
                                               "seed = ")
                                   + seed + "\n"),
                        3, "is not an unsigned integer");
}

TEST(SweepSpec, VariantIsAPresetPlusOverrides)
{
    SweepSpec spec =
        SweepSpec::parse("variant.sst2-l2t = sst2 "
                         "core.defer_on_l2_miss_only=true core.dq_entries=32\n"
                         "sweep.baseline = sst2-l2t\n"
                         "preset = sst2, sst2-l2t\n"
                         "workload = stream\n"
                         "core.checkpoints = 2, 4\n",
                         "m")
            .take();
    auto jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 4u);
    EXPECT_EQ(jobs[0].preset, "sst2");
    EXPECT_EQ(jobs[0].basePreset, "");
    EXPECT_FALSE(jobs[0].overrides.has("core.defer_on_l2_miss_only"));
    EXPECT_EQ(jobs[1].preset, "sst2-l2t");
    EXPECT_EQ(jobs[1].basePreset, "sst2");
    EXPECT_EQ(jobs[1].overrides.getString("core.defer_on_l2_miss_only", ""),
              "true");
    EXPECT_EQ(jobs[1].overrides.getString("core.dq_entries", ""), "32");
    // The axis still applies, and both presets share the sweep point.
    EXPECT_EQ(jobs[3].overrides.getString("core.checkpoints", ""), "4");
    EXPECT_EQ(jobs[2].pointKey, jobs[3].pointKey);
}

TEST(SweepSpec, RejectsBadVariants)
{
    const std::string tail = "preset = sst2\nworkload = stream\n";
    expectLineError(parseError("variant.x = sst3\n" + tail), 1,
                    "unknown base preset 'sst3'; did you mean 'sst2'");
    expectLineError(parseError("variant.x = sst2 core.checkpoint=2\n" + tail),
                    1, "did you mean 'core.checkpoints'");
    expectLineError(
        parseError("variant.x = sst2 core.dq_entries=lots\n" + tail), 1,
        "not an unsigned integer");
    expectLineError(parseError("variant.x = sst2 core.dq_entries\n" + tail),
                    1, "expected key=value");
    expectLineError(parseError("variant.sst4 = sst2\n" + tail), 1,
                    "shadows a preset");
    expectLineError(
        parseError("variant.x = sst2\nvariant.x = sst4\n" + tail), 2,
        "defined twice");
    expectLineError(parseError("variant.x = x\n" + tail), 1,
                    "unknown base preset 'x'");
    // A preset entry must name a preset or a variant, wherever the
    // variant is defined.
    expectLineError(parseError("workload = stream\n"
                               "preset = sst2, sst2-l2\n"
                               "variant.sst2-l2t = sst2\n"),
                    2, "unknown preset 'sst2-l2'; did you mean 'sst2-l2t'");
    EXPECT_TRUE(SweepSpec::parse("workload = stream\n"
                                 "preset = sst2-l2t\n"
                                 "variant.sst2-l2t = sst2\n",
                                 "m")
                    .ok());
    Error e = parseError("variant.x = sst2 core.dq_entries=8\n"
                         "preset = x\nworkload = stream\n"
                         "core.dq_entries = 16, 32\n");
    EXPECT_NE(e.message.find("also a sweep axis"), std::string::npos)
        << e.message;
}

TEST(SweepSpec, RejectsOutOfRangeScales)
{
    for (const char *key : {"sweep.length_scale", "sweep.footprint_scale"})
        for (const char *value : {"-1", "0", "nan", "inf", "-inf", "x"})
            expectLineError(parseError(std::string("preset = sst2\n") + key
                                       + " = " + value
                                       + "\nworkload = stream\n"),
                            2,
                            std::string(key)
                                + " must be a positive finite number");
    EXPECT_TRUE(SweepSpec::parse("preset = sst2\nworkload = stream\n"
                                 "sweep.length_scale = 1e-3\n"
                                 "sweep.footprint_scale = 4\n",
                                 "m")
                    .ok());
}

namespace
{

/** Run @p manifest at a given -j and return the per-job records. */
std::vector<std::string>
recordsAt(const std::string &manifest, unsigned jobs)
{
    SweepSpec spec = SweepSpec::parse(manifest, "determinism").take();
    ResultSink sink(spec.jobCount());
    SweepRunOptions options;
    options.jobs = jobs;
    int code = runSweep(spec, options, sink);
    EXPECT_EQ(code, 0);
    std::vector<std::string> records;
    for (const auto &out : sink.outcomes()) {
        EXPECT_TRUE(out.ran) << out.error;
        records.push_back(out.recordJson);
    }
    return records;
}

} // namespace

TEST(SweepDeterminism, ParallelMatchesSerialByteForByte)
{
    // Two presets, fault injection on half the points: the exact
    // configuration where shared RNGs or racy stat trees would show.
    const std::string manifest = "sweep.seed = 11\n"
                                 "sweep.length_scale = 0.05\n"
                                 "preset = inorder, sst2\n"
                                 "workload = compute_kernel\n"
                                 "fault.drop_fill_rate = 0, 1e-4\n";
    auto serial = recordsAt(manifest, 1);
    auto parallel = recordsAt(manifest, 8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], parallel[i]) << "record " << i;
}

TEST(SweepDeterminism, RecordsParseAndCarryTheContract)
{
    const std::string manifest = "sweep.length_scale = 0.05\n"
                                 "sweep.verify = true\n"
                                 "preset = sst2\n"
                                 "workload = compute_kernel\n";
    auto records = recordsAt(manifest, 2);
    ASSERT_EQ(records.size(), 1u);
    auto parsed = Json::parse(records[0]);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    const Json &r = parsed.value();
    EXPECT_EQ(r["preset"].asString(), "sst2");
    EXPECT_EQ(r["workload"].asString(), "compute_kernel");
    EXPECT_TRUE(r["finished"].asBool());
    EXPECT_EQ(r["degrade"].asString(), "none");
    EXPECT_TRUE(r["arch_ok"].asBool()) << "golden verify must pass";
    EXPECT_GT(r["cycles"].asNumber(), 0.0);
    // The structured stat tree is present and contains the core group.
    EXPECT_TRUE(r["stats"].isObject());
    EXPECT_GT(r["stats"].size(), 0u);
    // Effective config is complete, not just the overrides.
    EXPECT_NE(r["config"].find("core.checkpoints"), nullptr);
}

TEST(SweepJson, DocumentParsesAndIndexesRecords)
{
    SweepSpec spec = SweepSpec::parse("sweep.length_scale = 0.05\n"
                                      "sweep.baseline = inorder\n"
                                      "preset = inorder, sst2\n"
                                      "workload = compute_kernel\n",
                                      "doc")
                         .take();
    ResultSink sink(spec.jobCount());
    SweepRunOptions options;
    options.jobs = 4;
    EXPECT_EQ(runSweep(spec, options, sink), 0);
    auto doc = Json::parse(sweepJson(spec, sink));
    ASSERT_TRUE(doc.ok()) << doc.error().message;
    const Json &d = doc.value();
    EXPECT_EQ(d["schema_version"].asNumber(), 1.0);
    EXPECT_EQ(d["sweep"]["name"].asString(), "sweep");
    EXPECT_EQ(d["sweep"]["baseline"].asString(), "inorder");
    ASSERT_EQ(d["records"].size(), 2u);
    for (std::size_t i = 0; i < d["records"].size(); ++i)
        EXPECT_EQ(d["records"].at(i)["index"].asNumber(),
                  static_cast<double>(i));
    // Both tables render without dying.
    EXPECT_FALSE(aggregateTable(spec, sink).render().empty());
    EXPECT_FALSE(baselineTable(spec, sink).render().empty());
}

TEST(SweepRunner, VariantRecordNamesItsBasePreset)
{
    SweepSpec spec = SweepSpec::parse("sweep.length_scale = 0.05\n"
                                      "sweep.verify = true\n"
                                      "sweep.baseline = sst2\n"
                                      "variant.sst2-l2t = sst2 "
                                      "core.defer_on_l2_miss_only=true\n"
                                      "preset = sst2, sst2-l2t\n"
                                      "workload = compute_kernel, hash_join\n",
                                      "variant")
                         .take();
    ResultSink sink(spec.jobCount());
    ASSERT_EQ(runSweep(spec, {}, sink), 0);
    auto plain = Json::parse(sink.outcomes()[0].recordJson);
    auto variant = Json::parse(sink.outcomes()[1].recordJson);
    ASSERT_TRUE(plain.ok() && variant.ok());
    EXPECT_EQ(plain.value().find("base_preset"), nullptr);
    EXPECT_EQ(variant.value()["preset"].asString(), "sst2-l2t");
    EXPECT_EQ(variant.value()["base_preset"].asString(), "sst2");
    EXPECT_EQ(
        variant.value()["config"]["core.defer_on_l2_miss_only"].asString(),
        "true");
    EXPECT_TRUE(variant.value()["arch_ok"].asBool());
    // One geomean row per workload category, then the overall one.
    std::string table = baselineTable(spec, sink).render();
    for (const char *row :
         {"| GEOMEAN compute ", "| GEOMEAN commercial ", "| GEOMEAN  "})
        EXPECT_NE(table.find(row), std::string::npos) << row << table;
    EXPECT_LT(table.find("GEOMEAN compute"), table.find("GEOMEAN commercial"))
        << "category rows follow the manifest's workload order";
}

TEST(SweepSpec, RejectsSampledSharedWorkload)
{
    auto r = SweepSpec::parse("sweep.sample = true\npreset = sst2\n"
                              "workload = stream, spinlock_counter\n",
                              "m");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().message.find("sweep.sample cannot run the shared "
                                     "workload 'spinlock_counter'"),
              std::string::npos)
        << r.error().message;
}

TEST(SweepRunner, BadConfigValueFailsTheJobNotTheProcess)
{
    // Parse-time validation catches axis typos, so feed the runner a
    // hand-built job with a bad value to exercise the job-level trap.
    SweepSpec spec;
    spec.presets = {"sst2"};
    spec.workloads = {"compute_kernel"};
    spec.lengthScale = 0.05;
    JobSpec job;
    job.preset = "sst2";
    job.workload = "compute_kernel";
    job.overrides.set("mem.prefetch_mode", "psychic");
    JobOutcome out = runJob(spec, job);
    EXPECT_FALSE(out.ran);
    EXPECT_NE(out.error.find("psychic"), std::string::npos);
    auto parsed = Json::parse(out.recordJson);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    EXPECT_FALSE(parsed.value()["ran"].asBool());
}

namespace
{

/** Fresh artifact directory under the test temp root. */
std::string
artifactDir(const std::string &stem)
{
    std::string dir = ::testing::TempDir() + "sstsim_" + stem + "_"
                      + std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

void
writeText(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    out << text;
    ASSERT_TRUE(out.good()) << path;
}

} // namespace

TEST(OutcomeFromRecord, DiagnosesEveryRejectionMode)
{
    SweepSpec spec = SweepSpec::parse("preset = sst2\n"
                                      "workload = stream\n"
                                      "sweep.repeats = 2\n",
                                      "m")
                         .take();
    auto jobs = spec.expand();
    JobOutcome out;
    std::string why;

    // Truncated mid-string: the classic torn write from a killed
    // worker.
    const std::string good = unrunOutcome(jobs[0], "x").recordJson;
    EXPECT_FALSE(outcomeFromRecord(jobs[0],
                                   good.substr(0, good.size() / 2), out,
                                   &why));
    EXPECT_NE(why.find("truncated or corrupt"), std::string::npos)
        << why;

    EXPECT_FALSE(outcomeFromRecord(jobs[0], "[1, 2]", out, &why));
    EXPECT_EQ(why, "record is not a JSON object");

    // A perfectly valid record — for a different job.
    EXPECT_FALSE(outcomeFromRecord(
        jobs[0], unrunOutcome(jobs[1], "x").recordJson, out, &why));
    EXPECT_EQ(why, "record identity does not match the manifest");

    // The good record round-trips.
    ASSERT_TRUE(outcomeFromRecord(jobs[0], good, out, &why)) << why;
    EXPECT_FALSE(out.ran);
    EXPECT_EQ(out.error, "x");
    EXPECT_EQ(out.recordJson, good);
}

TEST(SweepResume, CorruptRecordsAreRerunNotFatal)
{
    // A resumed sweep seeded with one truncated artifact, one garbage
    // artifact and one valid-but-foreign artifact must quietly re-run
    // those jobs and still produce records byte-identical to a clean
    // run — torn writes from a crashed worker never wedge a sweep.
    const std::string manifest = "sweep.length_scale = 0.05\n"
                                 "preset = sst2\n"
                                 "workload = compute_kernel\n"
                                 "sweep.repeats = 3\n";
    SweepSpec spec = SweepSpec::parse(manifest, "resume").take();
    auto jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 3u);

    ResultSink ref(spec.jobCount());
    SweepRunOptions refOpt;
    ASSERT_EQ(runSweep(spec, refOpt, ref), 0);

    const std::string dir = artifactDir("resume_corrupt");
    writeText(jobRecordPath(dir, 0),
              ref.outcomes()[0].recordJson.substr(0, 40));
    writeText(jobRecordPath(dir, 1), "not json at all");
    // Job 2's slot holds job 0's (valid!) record: identity mismatch.
    writeText(jobRecordPath(dir, 2), ref.outcomes()[0].recordJson);

    std::vector<char> done(jobs.size(), 0);
    ResultSink probe(spec.jobCount());
    EXPECT_EQ(loadFinishedRecords(jobs, dir, probe, done), 0u);
    EXPECT_EQ(done, std::vector<char>(jobs.size(), 0));

    ResultSink sink(spec.jobCount());
    SweepRunOptions opt;
    opt.artifactDir = dir;
    opt.resume = true;
    EXPECT_EQ(runSweep(spec, opt, sink), 0);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(sink.outcomes()[i].recordJson,
                  ref.outcomes()[i].recordJson)
            << "record " << i;
    std::filesystem::remove_all(dir);
}

TEST(SweepResume, ValidRecordsAreReusedWithoutRerunning)
{
    const std::string manifest = "sweep.length_scale = 0.05\n"
                                 "preset = sst2\n"
                                 "workload = compute_kernel\n"
                                 "sweep.repeats = 2\n";
    SweepSpec spec = SweepSpec::parse(manifest, "reuse").take();
    auto jobs = spec.expand();
    const std::string dir = artifactDir("resume_reuse");

    ResultSink first(spec.jobCount());
    SweepRunOptions opt;
    opt.artifactDir = dir;
    ASSERT_EQ(runSweep(spec, opt, first), 0);

    std::vector<char> done(jobs.size(), 0);
    ResultSink resumed(spec.jobCount());
    EXPECT_EQ(loadFinishedRecords(jobs, dir, resumed, done),
              jobs.size());
    EXPECT_EQ(done, std::vector<char>(jobs.size(), 1));
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(resumed.outcomes()[i].recordJson,
                  first.outcomes()[i].recordJson);
    std::filesystem::remove_all(dir);
}

TEST(SweepRunner, SharedWorkloadRunsAsVerifiedCmpJob)
{
    SweepSpec spec = SweepSpec::parse("sweep.length_scale = 0.05\n"
                                      "sweep.verify = true\n"
                                      "preset = sst2, rock16\n"
                                      "workload = spinlock_counter\n"
                                      "cmp.cores = 4\n",
                                      "cmp")
                         .take();
    const std::string dir = artifactDir("cmp_jobs");
    SweepRunOptions opt;
    opt.artifactDir = dir;
    opt.snapEvery = 500; // a chip takes no mid-job checkpoints
    ResultSink sink(spec.jobCount());
    ASSERT_EQ(runSweep(spec, opt, sink), 0);
    for (const auto &out : sink.outcomes()) {
        auto record = Json::parse(out.recordJson);
        ASSERT_TRUE(record.ok());
        const Json &r = record.value();
        EXPECT_TRUE(r["arch_ok"].asBool()) << r["log"].asString();
        EXPECT_EQ(r["cores"].asNumber(), 4);
        EXPECT_EQ(r["per_core_ipc"].size(), 4u);
        EXPECT_EQ(r["core_stats"].size(), 4u);
        EXPECT_EQ(r["stats"].size(), 0u);
        EXPECT_EQ(r["config"]["coh.enabled"].asString(), "true");
        EXPECT_FALSE(std::filesystem::exists(jobSnapPath(dir, out.spec.index)));
    }
    // Finished CMP records are reused on resume like any other.
    auto jobs = spec.expand();
    std::vector<char> done(jobs.size(), 0);
    ResultSink resumed(spec.jobCount());
    EXPECT_EQ(loadFinishedRecords(jobs, dir, resumed, done), jobs.size());
    std::filesystem::remove_all(dir);
}
