/**
 * @file
 * Tests for checkpoint-warmed sampling (sim/profile): the profiling
 * pass's determinism, the on-disk snapshot library's safety properties
 * (identity rejection, corrupt-member triage, concurrent population),
 * the cache-key hash, and the library-served sampled / warm-started
 * detailed runs' agreement with ground truth.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "func/executor.hh"
#include "func/memory_image.hh"
#include "sim/machine.hh"
#include "sim/presets.hh"
#include "sim/profile.hh"
#include "sim/sampling.hh"
#include "workloads/workloads.hh"

using namespace sst;

namespace
{

Workload
wl(const std::string &name, std::uint64_t seed = 42)
{
    WorkloadParams p;
    p.seed = seed;
    p.lengthScale = 0.4;
    p.footprintScale = 0.25;
    return makeWorkload(name, p);
}

ProfileParams
params(std::uint64_t stride = 5000, unsigned maxRegions = 4)
{
    ProfileParams pp;
    pp.regionInsts = stride;
    pp.maxRegions = maxRegions;
    return pp;
}

/** Effective config + hash for a preset with optional overrides. */
std::uint64_t
hashFor(MachineConfig &mc, Config &cfg)
{
    applyOverrides(mc, cfg);
    return memConfigHash(mc, cfg);
}

std::string
freshDir(const std::string &stem)
{
    std::string dir = ::testing::TempDir() + "sstsim_profile_" + stem;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

} // namespace

TEST(Profile, BuildIsDeterministic)
{
    Workload w = wl("hash_join");
    MachineConfig mc = makePreset("sst2");
    ProfileLibrary a = buildProfileLibrary(mc, w.program, params(), 1);
    ProfileLibrary b = buildProfileLibrary(mc, w.program, params(), 1);
    EXPECT_EQ(a.totalInsts, b.totalInsts);
    EXPECT_EQ(a.warmAccesses, b.warmAccesses);
    EXPECT_EQ(a.warmHits, b.warmHits);
    ASSERT_EQ(a.regions.size(), b.regions.size());
    EXPECT_GT(a.usableCount(), 0u);
    for (std::size_t i = 0; i < a.regions.size(); ++i) {
        EXPECT_EQ(a.regions[i].selected, b.regions[i].selected);
        EXPECT_EQ(a.regions[i].weight, b.regions[i].weight);
        EXPECT_EQ(a.regions[i].member, b.regions[i].member) << i;
    }
}

TEST(Profile, SelectionWeightsCoverProgram)
{
    Workload w = wl("oltp_mix");
    MachineConfig mc = makePreset("sst2");
    ProfileLibrary lib = buildProfileLibrary(mc, w.program, params(), 1);
    ASSERT_GT(lib.regions.size(), 2u);
    EXPECT_LE(lib.usableCount(), 4u);
    std::uint64_t covered = 0, total = 0;
    for (const auto &r : lib.regions) {
        total += r.lengthInsts;
        if (r.selected) {
            covered += r.weight;
            EXPECT_FALSE(r.member.empty());
        } else {
            EXPECT_TRUE(r.member.empty());
        }
    }
    // Every region's instructions are assigned to exactly one
    // representative, so the weights partition the whole program.
    EXPECT_EQ(covered, lib.totalInsts);
    EXPECT_EQ(total, lib.totalInsts);
}

TEST(Profile, SaveLoadRoundTripIsByteIdentical)
{
    Workload w = wl("hash_join");
    MachineConfig mc = makePreset("sst2");
    Config cfg;
    std::uint64_t hash = hashFor(mc, cfg);
    ProfileLibrary built =
        buildProfileLibrary(mc, w.program, params(), hash);
    std::string dir = freshDir("roundtrip");
    ASSERT_TRUE(saveProfileLibrary(built, dir).ok());

    auto loaded =
        loadProfileLibrary(dir, mc, w.program, params(), hash);
    ASSERT_TRUE(loaded.ok()) << loaded.error().message;
    const ProfileLibrary &lib = loaded.value();
    EXPECT_EQ(lib.totalInsts, built.totalInsts);
    EXPECT_EQ(lib.warmAccesses, built.warmAccesses);
    EXPECT_EQ(lib.fingerprint, built.fingerprint);
    ASSERT_EQ(lib.regions.size(), built.regions.size());
    for (std::size_t i = 0; i < lib.regions.size(); ++i)
        EXPECT_EQ(lib.regions[i].member, built.regions[i].member) << i;
}

TEST(Profile, EnsureBuildsOnceThenServesFromCache)
{
    Workload w = wl("oltp_mix");
    MachineConfig mc = makePreset("sst2");
    Config cfg;
    std::uint64_t hash = hashFor(mc, cfg);
    std::string root = freshDir("ensure");

    auto first = ensureProfileLibrary(mc, w.program, params(), root, hash);
    ASSERT_TRUE(first.ok()) << first.error().message;
    std::string dir =
        profileCacheDir(root, mc, w.program, params(), hash);
    ASSERT_TRUE(std::filesystem::exists(dir + "/library.manifest"));

    auto second =
        ensureProfileLibrary(mc, w.program, params(), root, hash);
    ASSERT_TRUE(second.ok()) << second.error().message;
    ASSERT_EQ(first.value().regions.size(),
              second.value().regions.size());
    for (std::size_t i = 0; i < first.value().regions.size(); ++i)
        EXPECT_EQ(first.value().regions[i].member,
                  second.value().regions[i].member);
}

TEST(Profile, WrongProgramIdentityRejected)
{
    Workload a = wl("hash_join", 42);
    Workload b = wl("hash_join", 43); // same name, different program
    ASSERT_NE(programFingerprint(a.program),
              programFingerprint(b.program));
    MachineConfig mc = makePreset("sst2");
    Config cfg;
    std::uint64_t hash = hashFor(mc, cfg);
    ProfileLibrary lib =
        buildProfileLibrary(mc, a.program, params(), hash);
    std::string dir = freshDir("identity");
    ASSERT_TRUE(saveProfileLibrary(lib, dir).ok());

    auto wrong = loadProfileLibrary(dir, mc, b.program, params(), hash);
    EXPECT_FALSE(wrong.ok());

    auto wrongHash =
        loadProfileLibrary(dir, mc, a.program, params(), hash ^ 1);
    EXPECT_FALSE(wrongHash.ok());
}

TEST(Profile, ForeignMemberSkippedWithWarning)
{
    // A member file whose bytes are a *valid* snapshot of a different
    // program (planted under this library's member name) must be
    // caught by the per-member fingerprint check, warned about and
    // dropped — while the untouched members stay usable.
    Workload a = wl("hash_join", 42);
    Workload b = wl("hash_join", 43);
    MachineConfig mc = makePreset("sst2");
    Config cfg;
    std::uint64_t hash = hashFor(mc, cfg);
    ProfileLibrary libA =
        buildProfileLibrary(mc, a.program, params(), hash);
    ProfileLibrary libB =
        buildProfileLibrary(mc, b.program, params(), hash);
    ASSERT_GE(libA.usableCount(), 2u);
    std::string dirA = freshDir("foreignA");
    std::string dirB = freshDir("foreignB");
    ASSERT_TRUE(saveProfileLibrary(libA, dirA).ok());
    ASSERT_TRUE(saveProfileLibrary(libB, dirB).ok());

    // Find one selected region present in both and swap the files.
    std::string victim;
    for (const auto &r : libA.regions)
        if (r.selected)
            for (const auto &s : libB.regions)
                if (s.selected && s.index == r.index)
                    victim = "region-" + std::to_string(r.index)
                             + ".snap";
    ASSERT_FALSE(victim.empty());
    std::filesystem::copy_file(
        dirB + "/" + victim, dirA + "/" + victim,
        std::filesystem::copy_options::overwrite_existing);

    LogCapture capture;
    auto loaded =
        loadProfileLibrary(dirA, mc, a.program, params(), hash);
    ASSERT_TRUE(loaded.ok()) << loaded.error().message;
    EXPECT_EQ(loaded.value().usableCount(), libA.usableCount() - 1);
    EXPECT_NE(capture.text().find("warn"), std::string::npos)
        << "skipping a foreign member must warn: " << capture.text();
}

TEST(Profile, TruncatedMemberSkippedWithWarning)
{
    Workload w = wl("oltp_mix");
    MachineConfig mc = makePreset("sst2");
    Config cfg;
    std::uint64_t hash = hashFor(mc, cfg);
    ProfileLibrary lib =
        buildProfileLibrary(mc, w.program, params(), hash);
    ASSERT_GE(lib.usableCount(), 2u);
    std::string dir = freshDir("truncated");
    ASSERT_TRUE(saveProfileLibrary(lib, dir).ok());

    // Truncate the first selected member to half its size.
    std::string victim;
    std::uintmax_t size = 0;
    for (const auto &r : lib.regions)
        if (r.selected) {
            victim =
                dir + "/region-" + std::to_string(r.index) + ".snap";
            size = r.member.size();
            break;
        }
    ASSERT_FALSE(victim.empty());
    std::filesystem::resize_file(victim, size / 2);

    LogCapture capture;
    auto loaded = loadProfileLibrary(dir, mc, w.program, params(), hash);
    ASSERT_TRUE(loaded.ok()) << loaded.error().message;
    EXPECT_EQ(loaded.value().usableCount(), lib.usableCount() - 1);
    EXPECT_FALSE(capture.text().empty());
}

TEST(Profile, CorruptBytesSkippedWithWarning)
{
    Workload w = wl("oltp_mix");
    MachineConfig mc = makePreset("sst2");
    Config cfg;
    std::uint64_t hash = hashFor(mc, cfg);
    ProfileLibrary lib =
        buildProfileLibrary(mc, w.program, params(), hash);
    std::string dir = freshDir("corrupt");
    ASSERT_TRUE(saveProfileLibrary(lib, dir).ok());

    std::string victim;
    for (const auto &r : lib.regions)
        if (r.selected) {
            victim =
                dir + "/region-" + std::to_string(r.index) + ".snap";
            break;
        }
    ASSERT_FALSE(victim.empty());
    {
        // Flip one byte in the middle; the whole-file checksum must
        // catch it before any deserialization is attempted.
        std::fstream f(victim, std::ios::in | std::ios::out
                                   | std::ios::binary);
        f.seekp(static_cast<std::streamoff>(
            std::filesystem::file_size(victim) / 2));
        char c = 0;
        f.read(&c, 1);
        f.seekp(-1, std::ios::cur);
        c = static_cast<char>(c ^ 0x5a);
        f.write(&c, 1);
    }

    LogCapture capture;
    auto loaded = loadProfileLibrary(dir, mc, w.program, params(), hash);
    ASSERT_TRUE(loaded.ok()) << loaded.error().message;
    EXPECT_EQ(loaded.value().usableCount(), lib.usableCount() - 1);
    EXPECT_FALSE(capture.text().empty());
}

/**
 * Checksums are verified on worker threads, but triage reports in region
 * order: twenty loads of one damaged library (two members corrupted,
 * one truncated) must each emit the same three warnings, ordered by
 * region, and keep exactly the undamaged members, byte-equal to the
 * in-memory build.
 */
TEST(Profile, ParallelTriageIsOrderedAndRepeatable)
{
    Workload w = wl("oltp_mix");
    MachineConfig mc = makePreset("sst2");
    Config cfg;
    std::uint64_t hash = hashFor(mc, cfg);
    const ProfileParams pp = params(5000, 6);
    ProfileLibrary lib = buildProfileLibrary(mc, w.program, pp, hash);
    std::vector<std::uint64_t> selected;
    for (const auto &r : lib.regions)
        if (r.selected)
            selected.push_back(r.index);
    ASSERT_GE(selected.size(), 4u);
    std::string dir = freshDir("triage_order");
    ASSERT_TRUE(saveProfileLibrary(lib, dir).ok());

    auto member = [&](std::uint64_t index) {
        return dir + "/region-" + std::to_string(index) + ".snap";
    };
    auto flipMiddleByte = [](const std::string &path) {
        std::fstream f(path, std::ios::in | std::ios::out
                                 | std::ios::binary);
        f.seekp(static_cast<std::streamoff>(
            std::filesystem::file_size(path) / 2));
        char c = 0;
        f.read(&c, 1);
        f.seekp(-1, std::ios::cur);
        c = static_cast<char>(c ^ 0x5a);
        f.write(&c, 1);
    };
    const std::vector<std::uint64_t> damaged{selected[0], selected[1],
                                             selected[2]};
    flipMiddleByte(member(damaged[0]));
    std::filesystem::resize_file(member(damaged[1]), 6); // header torn
    flipMiddleByte(member(damaged[2]));

    std::string first;
    for (int load = 0; load < 20; ++load) {
        LogCapture capture;
        auto loaded = loadProfileLibrary(dir, mc, w.program, pp, hash);
        ASSERT_TRUE(loaded.ok()) << loaded.error().message;
        const ProfileLibrary &got = loaded.value();
        ASSERT_EQ(got.regions.size(), lib.regions.size());
        for (std::size_t i = 0; i < got.regions.size(); ++i) {
            bool hit = std::find(damaged.begin(), damaged.end(), i)
                       != damaged.end();
            if (hit || !lib.regions[i].selected)
                EXPECT_TRUE(got.regions[i].member.empty()) << i;
            else
                EXPECT_EQ(got.regions[i].member, lib.regions[i].member)
                    << i;
        }
        if (load == 0) {
            first = capture.text();
            std::size_t at = 0;
            for (std::uint64_t index : damaged) {
                std::size_t pos = first.find(member(index) + ":", at);
                ASSERT_NE(pos, std::string::npos) << first;
                at = pos + 1;
            }
            EXPECT_EQ(std::count(first.begin(), first.end(), '\n'), 3)
                << first;
            EXPECT_NE(first.find("truncated"), std::string::npos) << first;
            EXPECT_NE(first.find("checksum mismatch"), std::string::npos)
                << first;
        } else {
            EXPECT_EQ(capture.text(), first) << "load " << load;
        }
    }
}

/**
 * A member that cannot be written (a directory squats on its final
 * path, so the staging rename fails) fails the save with the first such
 * member's error in region order and leaves no manifest behind; the
 * cache-or-build path still serves the library it built, with a
 * warning.
 */
TEST(Profile, SaveFailureWritesNoManifest)
{
    Workload w = wl("oltp_mix");
    MachineConfig mc = makePreset("sst2");
    Config cfg;
    std::uint64_t hash = hashFor(mc, cfg);
    const ProfileParams pp = params();
    ProfileLibrary lib = buildProfileLibrary(mc, w.program, pp, hash);
    std::vector<std::uint64_t> selected;
    for (const auto &r : lib.regions)
        if (r.selected)
            selected.push_back(r.index);
    ASSERT_GE(selected.size(), 3u);

    std::string root = freshDir("save_failure");
    std::string dir = profileCacheDir(root, mc, w.program, pp, hash);
    auto member = [&](std::uint64_t index) {
        return dir + "/region-" + std::to_string(index) + ".snap";
    };
    std::filesystem::create_directories(member(selected[1]) + "/squat");
    std::filesystem::create_directories(member(selected[2]) + "/squat");

    auto saved = saveProfileLibrary(lib, dir);
    ASSERT_FALSE(saved.ok());
    EXPECT_NE(saved.error().message.find(member(selected[1]) + "'"),
              std::string::npos)
        << saved.error().message;
    EXPECT_EQ(saved.error().message.find(member(selected[2]) + "'"),
              std::string::npos)
        << saved.error().message;
    EXPECT_FALSE(std::filesystem::exists(dir + "/library.manifest"));

    LogCapture capture;
    auto served = ensureProfileLibrary(mc, w.program, pp, root, hash);
    ASSERT_TRUE(served.ok()) << served.error().message;
    ASSERT_EQ(served.value().regions.size(), lib.regions.size());
    for (std::size_t i = 0; i < lib.regions.size(); ++i)
        EXPECT_EQ(served.value().regions[i].member, lib.regions[i].member)
            << i;
    EXPECT_NE(capture.text().find("could not populate"), std::string::npos)
        << capture.text();
    EXPECT_FALSE(std::filesystem::exists(dir + "/library.manifest"));
}

TEST(Profile, ConcurrentWritersLeaveOneValidEntry)
{
    Workload w = wl("hash_join");
    MachineConfig mc = makePreset("sst2");
    Config cfg;
    std::uint64_t hash = hashFor(mc, cfg);
    ProfileLibrary lib =
        buildProfileLibrary(mc, w.program, params(), hash);
    std::string dir = freshDir("concurrent");

    // Byte-identical writers racing on one entry (the sweep-runner
    // cache-population scenario): rename staging means readers never
    // see a torn member, and last-rename-wins is harmless.
    std::vector<std::thread> writers;
    for (int i = 0; i < 4; ++i)
        writers.emplace_back(
            [&] { ASSERT_TRUE(saveProfileLibrary(lib, dir).ok()); });
    for (auto &t : writers)
        t.join();

    auto loaded = loadProfileLibrary(dir, mc, w.program, params(), hash);
    ASSERT_TRUE(loaded.ok()) << loaded.error().message;
    EXPECT_EQ(loaded.value().usableCount(), lib.usableCount());
    for (std::size_t i = 0; i < lib.regions.size(); ++i)
        EXPECT_EQ(loaded.value().regions[i].member,
                  lib.regions[i].member);
}

TEST(Profile, MemConfigHashTracksMemoryNotCore)
{
    MachineConfig base = makePreset("sst2");
    Config baseCfg;
    std::uint64_t h0 = hashFor(base, baseCfg);

    // A core-model knob must not move the hash: core-axis sweep points
    // share one library entry.
    MachineConfig coreMc = makePreset("sst2");
    Config coreCfg;
    coreCfg.set("core.rob_entries", "64");
    EXPECT_EQ(hashFor(coreMc, coreCfg), h0);

    // A memory knob shapes member bytes, so it must move the hash.
    MachineConfig memMc = makePreset("sst2");
    Config memCfg;
    memCfg.set("mem.l1d_kb", "16");
    EXPECT_NE(hashFor(memMc, memCfg), h0);

    // So does the preset itself.
    MachineConfig other = makePreset("inorder");
    Config otherCfg;
    EXPECT_NE(hashFor(other, otherCfg), h0);
}

TEST(Profile, RegionHintClamps)
{
    EXPECT_EQ(profileRegionHint(0), 10'000u);
    EXPECT_EQ(profileRegionHint(320'000), 20'000u);
    EXPECT_GE(profileRegionHint(1ULL << 40), 2'000'000u);
    EXPECT_LE(profileRegionHint(1ULL << 40), 2'000'000u);
}

TEST(Profile, LibrarySampledTracksFullRun)
{
    Workload w = wl("hash_join");
    MachineConfig mc = makePreset("sst2");
    ProfileLibrary lib =
        buildProfileLibrary(mc, w.program, params(5000, 8), 1);
    SampleParams sp;
    sp.detailInsts = 3000;
    SampledResult r = runSampledFromLibrary(mc, w.program, lib, sp);
    RunResult full = runOn("sst2", w.program);
    ASSERT_GT(r.windowIpc.size(), 1u);
    EXPECT_EQ(r.windowWeight.size(), r.windowIpc.size());
    double err = std::abs(r.ipc - full.ipc) / full.ipc;
    EXPECT_LT(err, 0.35) << "library " << r.ipc << " vs full "
                         << full.ipc;
}

TEST(Profile, WarmStartedRunMatchesGolden)
{
    Workload w = wl("oltp_mix");
    MachineConfig mc = makePreset("sst2");
    Config cfg;
    std::uint64_t hash = hashFor(mc, cfg);
    ProfileLibrary lib =
        buildProfileLibrary(mc, w.program, params(), hash);

    MemoryImage goldenMem;
    goldenMem.loadSegments(w.program);
    Executor golden(w.program, goldenMem);
    ArchState goldenState;
    std::uint64_t goldenInsts =
        golden.run(goldenState, 2'000'000'000ULL);
    ASSERT_TRUE(goldenState.halted);

    Machine machine(mc, w.program);
    std::uint64_t skipped = 0;
    auto warmed =
        warmStartMachine(machine, lib, goldenInsts / 2, &skipped);
    ASSERT_TRUE(warmed.ok()) << warmed.error().message;
    EXPECT_GT(skipped, 0u);
    EXPECT_LT(skipped, goldenInsts);

    RunResult r = machine.run();
    EXPECT_TRUE(r.finished);
    EXPECT_EQ(r.insts, goldenInsts - skipped);
    EXPECT_TRUE(machine.core().archState().regsEqual(goldenState));
    EXPECT_TRUE(machine.image().contentEquals(goldenMem));
}

TEST(Profile, Ci95Math)
{
    SampledResult r;
    r.windowIpc = {1.0, 2.0, 3.0};
    // Unweighted: 1.96 * s / sqrt(n) with s = 1.
    EXPECT_NEAR(r.ipcCi95(), 1.96 / std::sqrt(3.0), 1e-9);
    r.windowWeight = {1.0, 1.0, 1.0};
    EXPECT_NEAR(r.ipcCi95(), 1.96 / std::sqrt(3.0), 1e-9);
    // One dominant weight shrinks the effective sample size, widening
    // nothing here (variance also collapses toward that window).
    r.windowIpc = {2.0};
    r.windowWeight = {5.0};
    EXPECT_EQ(r.ipcCi95(), 0.0);
}

TEST(Profile, CacheLookupNeedsResolvedStride)
{
    Workload w = wl("hash_join");
    MachineConfig mc = makePreset("sst2");
    ProfileParams pp; // regionInsts = 0 (auto)
    std::string root = freshDir("stride");
    auto r = ensureProfileLibrary(mc, w.program, pp, root, 1);
    EXPECT_FALSE(r.ok());
    // In-memory build (no cache) may auto-resolve.
    auto mem = ensureProfileLibrary(mc, w.program, pp, "", 1);
    EXPECT_TRUE(mem.ok()) << mem.error().message;
}
