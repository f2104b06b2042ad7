/**
 * @file
 * Whole-machine snapshot/restore and divergence-diff tests — the
 * acceptance suite for deterministic machine snapshots.
 *
 * The headline property: for every preset × workload, interrupting a
 * run at an arbitrary cycle, serializing the machine, restoring the
 * image into a *fresh* machine and running to completion must be
 * invisible — byte-identical final stats and structured trace streams
 * versus the uninterrupted run. On top of that: state-hash semantics,
 * file round trips, restore-time validation of preset/model/workload,
 * the lockstep differ's self-check and its injected-divergence
 * pinpointing, and the CMP variants (including the per-core address
 * salt aliasing guard).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/cmp.hh"
#include "sim/fastfwd.hh"
#include "sim/machine.hh"
#include "sim/presets.hh"
#include "sim/profile.hh"
#include "sim_test_util.hh"
#include "snap/diff.hh"
#include "snap/snap.hh"
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

std::string
tmpPath(const std::string &stem)
{
    return ::testing::TempDir() + "sstsim_" + stem + ".snap";
}

std::uint64_t
fnv(const std::vector<std::uint8_t> &bytes)
{
    return snap::fnv1a(bytes.data(), bytes.size());
}

/** FNV-1a of Machine::snapshot() at cycle 4096 for one preset and
 *  workload. A changed value is a snapshot format change: bump
 *  snap::formatVersion and re-record. */
struct GoldenSnap
{
    const char *preset;
    const char *workload;
    std::uint64_t fnv;
};

const GoldenSnap kGoldenSnaps[] = {
    {"inorder", "pointer_chase", 0x20017d50d5d9fd79ULL},
    {"scout", "pointer_chase", 0x15fd2fe9c34186a7ULL},
    {"ea", "pointer_chase", 0x44ec41f7c7d516e1ULL},
    {"sst2", "pointer_chase", 0xe94da36e7b9230afULL},
    {"sst4", "pointer_chase", 0x93861c3f3096c2afULL},
    {"sst8", "pointer_chase", 0x4e61ab05ef677297ULL},
    {"ooo-small", "pointer_chase", 0xc70b3533b3fee4f0ULL},
    {"ooo-large", "pointer_chase", 0xcfd7d3cbe309deafULL},
    {"ooo-huge", "pointer_chase", 0xd3105e8ceba45d4aULL},
    {"inorder", "oltp_mix", 0x75a249c04cb6a02ULL},
    {"scout", "oltp_mix", 0xc3b4d43529f16619ULL},
    {"ea", "oltp_mix", 0x9370bedfb646da24ULL},
    {"sst2", "oltp_mix", 0x293be42a9c4f289eULL},
    {"sst4", "oltp_mix", 0x12d0c590d87f411cULL},
    {"sst8", "oltp_mix", 0xbb8b36a80a0c34f0ULL},
    {"ooo-small", "oltp_mix", 0x3ef92bcf9b3fe95bULL},
    {"ooo-large", "oltp_mix", 0xd9c449cc6536d89eULL},
    {"ooo-huge", "oltp_mix", 0x6537c189f8ce1877ULL},
    {"inorder", "hash_join", 0xdc873fc3f0b834b9ULL},
    {"scout", "hash_join", 0xc2c12cf383a0cf02ULL},
    {"ea", "hash_join", 0x2357b3401a90e2b6ULL},
    {"sst2", "hash_join", 0xf666090285268269ULL},
    {"sst4", "hash_join", 0xced8c2a77ef372a2ULL},
    {"sst8", "hash_join", 0xc88e2584934b896cULL},
    {"ooo-small", "hash_join", 0x85ab7c7e00efaf65ULL},
    {"ooo-large", "hash_join", 0xc5d3a05b92b0c794ULL},
    {"ooo-huge", "hash_join", 0xc41b7f4774618c97ULL},
};

/**
 * Offset of the prefetched-lines count in a machine snapshot's first
 * core port: the u64 after that port's two "prefetcher" sections (a
 * tag, the last trigger, then a u32 count of 28-byte stride entries).
 */
std::size_t
prefetchedLinesCountAt(const std::vector<std::uint8_t> &image)
{
    auto find = [&](const std::string &tag, std::size_t from) {
        auto it = std::search(image.begin() + from, image.end(),
                              tag.begin(), tag.end());
        EXPECT_NE(it, image.end()) << tag;
        return static_cast<std::size_t>(it - image.begin()) + tag.size();
    };
    auto u32At = [&](std::size_t at) {
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(image[at + i]) << (8 * i);
        return v;
    };
    std::size_t at = find("coreport", 0);
    at = find("prefetcher", find("prefetcher", at));
    at += 8; // last trigger
    return at + 4 + 28 * std::size_t{u32At(at)};
}

/** The pinned hashes of the cases outside the preset x workload grid. */
constexpr std::uint64_t kGoldenValuePred = 0xf461a500c40e7b1ULL;
constexpr std::uint64_t kGoldenCmp = 0xd09de85064a10506ULL;
constexpr std::uint64_t kGoldenMember = 0x6298bc2a64131e38ULL;

/** ooo-large with an odd window shape: a 100-entry ROB (not a power of
 *  two), a 20-entry issue queue, a 12-entry LSQ and 2-wide issue, so
 *  the snapshot pins ROB wrap-around and full-queue stalls. */
MachineConfig
oddWindowOoO()
{
    MachineConfig mc = makePreset("ooo-large");
    mc.core.robEntries = 100;
    mc.core.issueQueueEntries = 20;
    mc.core.lsqEntries = 12;
    mc.core.issueWidth = 2;
    return mc;
}

const GoldenSnap kGoldenOddWindow[] = {
    {"ooo-large", "pointer_chase", 0x0f685c706b8cdf45ULL},
    {"ooo-large", "oltp_mix", 0x1c0bf322f6a408d4ULL},
    {"ooo-large", "hash_join", 0x165ecad906a3d819ULL},
};

/** Offset of the OoO core's ROB count: the u32 right after the
 *  "core-extra" tag of the first core. */
std::size_t
robCountAt(const std::vector<std::uint8_t> &image)
{
    const std::string tag = "core-extra";
    auto it = std::search(image.begin(), image.end(), tag.begin(),
                          tag.end());
    EXPECT_NE(it, image.end());
    return static_cast<std::size_t>(it - image.begin()) + tag.size();
}

} // namespace

/**
 * The headline invariant, across the full differential harness sweep:
 * snapshot at an arbitrary mid-run cycle, restore into a fresh machine
 * (fresh hierarchy, fresh trace buffer — everything rebuilt from the
 * config, as a new process would), run both to completion, and compare
 * everything the simulator exposes.
 */
TEST(Snapshot, RoundTripAllPresets)
{
    constexpr Cycle snapAt = 4096;
    for (const auto &wl : kWorkloads) {
        Program program = workloadProgram(wl);
        for (const auto &preset : kAllPresets) {
            SCOPED_TRACE(preset + " / " + wl);

            trace::TraceBuffer baseTrace;
            Machine base(makePreset(preset), program);
            base.attachTraceBuffer(&baseTrace);
            RunResult want = base.run();

            trace::TraceBuffer srcTrace;
            Machine src(makePreset(preset), program);
            src.attachTraceBuffer(&srcTrace);
            src.stepTo(snapAt);
            ASSERT_EQ(src.core().cycles(), snapAt);
            std::vector<std::uint8_t> image = src.snapshot();

            trace::TraceBuffer dstTrace;
            Machine dst(makePreset(preset), program);
            dst.attachTraceBuffer(&dstTrace);
            dst.restore(image);
            EXPECT_EQ(dst.core().cycles(), snapAt);
            EXPECT_EQ(dst.stateHash(), src.stateHash());
            RunResult got = dst.run();

            EXPECT_EQ(want.cycles, got.cycles);
            EXPECT_EQ(want.insts, got.insts);
            EXPECT_EQ(want.ipc, got.ipc);
            EXPECT_EQ(want.finished, got.finished);
            EXPECT_EQ(want.degrade, got.degrade);
            EXPECT_EQ(want.l1dMissRate, got.l1dMissRate);
            EXPECT_EQ(want.meanDemandMlp, got.meanDemandMlp);
            EXPECT_EQ(want.mispredictRate, got.mispredictRate);
            expectStatsEqual(want.stats, got.stats);
            expectTracesEqual(baseTrace, dstTrace);
        }
    }
}

/** snapshot() must not disturb the machine: the source continues to
 *  the same completion as an untouched run. */
TEST(Snapshot, SnapshotIsNonDestructive)
{
    Program program = workloadProgram("hash_join");
    Machine plain(makePreset("sst2"), program);
    RunResult want = plain.run();

    Machine probed(makePreset("sst2"), program);
    probed.stepTo(2000);
    (void)probed.snapshot();
    (void)probed.stateHash();
    RunResult got = probed.run();

    EXPECT_EQ(want.cycles, got.cycles);
    EXPECT_EQ(want.insts, got.insts);
    expectStatsEqual(want.stats, got.stats);
}

/** Equal state ⇒ equal hash; advancing the machine changes the hash. */
TEST(Snapshot, StateHashTracksState)
{
    Program program = workloadProgram("oltp_mix");
    Machine a(makePreset("sst4"), program);
    Machine b(makePreset("sst4"), program);
    EXPECT_EQ(a.stateHash(), b.stateHash());

    a.stepTo(1000);
    b.stepTo(1000);
    EXPECT_EQ(a.stateHash(), b.stateHash());

    std::uint64_t at1000 = a.stateHash();
    a.stepTo(1001);
    EXPECT_NE(a.stateHash(), at1000);
}

TEST(Snapshot, FileRoundTripAndResume)
{
    Program program = workloadProgram("pointer_chase");
    const std::string path = tmpPath("machine");

    // Periodic-snapshot run: the file left behind is the last periodic
    // checkpoint, from which a fresh machine must reach the same end.
    Machine writer(makePreset("scout"), program);
    SnapPolicy policy;
    policy.everyCycles = 3000;
    policy.path = path;
    RunResult want = writer.run(500'000'000, policy);

    Machine resumed(makePreset("scout"), program);
    auto res = resumed.restoreFromFile(path);
    ASSERT_TRUE(res.ok()) << res.error().message;
    EXPECT_GE(resumed.core().cycles(), policy.everyCycles);
    RunResult got = resumed.run();

    EXPECT_EQ(want.cycles, got.cycles);
    EXPECT_EQ(want.insts, got.insts);
    expectStatsEqual(want.stats, got.stats);
    std::remove(path.c_str());

    Machine other(makePreset("scout"), program);
    auto missing = other.restoreFromFile(tmpPath("does_not_exist"));
    EXPECT_FALSE(missing.ok());
}

/** Restoring against the wrong configuration or workload must fail
 *  loudly, not corrupt the machine. */
TEST(Snapshot, RestoreValidatesIdentity)
{
    Program join = workloadProgram("hash_join");
    Program chase = workloadProgram("pointer_chase");

    Machine src(makePreset("sst2"), join);
    src.stepTo(1000);
    std::vector<std::uint8_t> image = src.snapshot();

    // Wrong preset.
    {
        Machine wrong(makePreset("ooo-large"), join);
        auto res = trapFatal([&] { wrong.restore(image); });
        ASSERT_FALSE(res.ok());
        EXPECT_NE(res.error().message.find("preset"), std::string::npos);
    }
    // Wrong workload (program fingerprint mismatch).
    {
        Machine wrong(makePreset("sst2"), chase);
        auto res = trapFatal([&] { wrong.restore(image); });
        EXPECT_FALSE(res.ok());
    }
    // Truncated image.
    {
        std::vector<std::uint8_t> cut(image.begin(),
                                      image.end() - image.size() / 2);
        Machine wrong(makePreset("sst2"), join);
        auto res = trapFatal([&] { wrong.restore(cut); });
        EXPECT_FALSE(res.ok());
    }
    // The machine that produced the image still restores fine.
    Machine dst(makePreset("sst2"), join);
    dst.restore(image);
    EXPECT_EQ(dst.stateHash(), src.stateHash());
}

/** A corrupt length prefix fails the restore with a clean input error
 *  (exit code 65), not an allocation abort sized by the bad count. */
TEST(Snapshot, CorruptCountFailsCleanly)
{
    Program program = workloadProgram("hash_join");
    Machine src(makePreset("sst2"), program);
    src.stepTo(5000);
    std::vector<std::uint8_t> image = src.snapshot();
    std::size_t at = prefetchedLinesCountAt(image);
    ASSERT_LE(at + 8, image.size());
    for (int i = 0; i < 8; ++i)
        image[at + i] = static_cast<std::uint8_t>((1ULL << 62) >> (8 * i));

    const std::string path = tmpPath("corrupt_count");
    ASSERT_TRUE(snap::writeFile(path, image).ok());
    Machine dst(makePreset("sst2"), program);
    auto res = dst.restoreFromFile(path);
    std::remove(path.c_str());
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().exitCode, exit_code::badInput);
    EXPECT_NE(res.error().message.find("snapshot: count"),
              std::string::npos)
        << res.error().message;
}

/** resume= naming a directory fails both restore paths with a clean
 *  input error (exit code 65), not an allocation abort. */
TEST(Snapshot, RestoreFromDirectoryFailsCleanly)
{
    Program program = workloadProgram("hash_join");
    const std::string dir = ::testing::TempDir();

    Machine machine(makePreset("sst2"), program);
    auto res = machine.restoreFromFile(dir);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().exitCode, exit_code::badInput);
    EXPECT_NE(res.error().message.find("not a regular file"),
              std::string::npos)
        << res.error().message;

    std::vector<const Program *> programs{&program, &program};
    Cmp cmp(makePreset("sst2"), programs);
    auto cmpRes = cmp.restoreFromFile(dir);
    ASSERT_FALSE(cmpRes.ok());
    EXPECT_EQ(cmpRes.error().exitCode, exit_code::badInput);
}

/** A ROB count beyond core.rob_entries (a corrupt count, or a file
 *  saved by a larger window) fails the restore cleanly instead of
 *  overrunning the fixed-capacity ROB. */
TEST(Snapshot, RobCountBeyondWindowFailsCleanly)
{
    Program program = workloadProgram("pointer_chase");
    MachineConfig mc = makePreset("ooo-large");
    Machine src(mc, program);
    src.stepTo(4096);
    std::vector<std::uint8_t> image = src.snapshot();
    std::size_t at = robCountAt(image);
    ASSERT_LE(at + 4, image.size());
    std::uint32_t count = mc.core.robEntries + 1;
    for (int i = 0; i < 4; ++i)
        image[at + i] = static_cast<std::uint8_t>(count >> (8 * i));

    const std::string path = tmpPath("rob_count");
    ASSERT_TRUE(snap::writeFile(path, image).ok());
    Machine dst(mc, program);
    auto res = dst.restoreFromFile(path);
    std::remove(path.c_str());
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().exitCode, exit_code::badInput);
    EXPECT_NE(res.error().message.find("exceeds the limit 128"),
              std::string::npos)
        << res.error().message;
}

/** ooo-huge's 512-slot ROB ring, restored at three points (at the
 *  last, 216 entries from seq 344 on have wrapped the source's ring):
 *  the restored machine re-saves to the same bytes (the scheduling
 *  state, wakeup lists and store index are rebuilt, never stored) and
 *  finishes exactly like the uninterrupted run. */
TEST(Snapshot, OoOHugeRestoreMidRunFinishesIdentically)
{
    Program program = workloadProgram("pointer_chase");
    Machine base(makePreset("ooo-huge"), program);
    RunResult want = base.run();

    for (Cycle snapAt : {Cycle{1500}, Cycle{9000}, Cycle{25000}}) {
        SCOPED_TRACE(snapAt);
        Machine src(makePreset("ooo-huge"), program);
        src.stepTo(snapAt);
        std::vector<std::uint8_t> image = src.snapshot();

        Machine dst(makePreset("ooo-huge"), program);
        dst.restore(image);
        EXPECT_EQ(dst.snapshot(), image);
        RunResult got = dst.run();
        EXPECT_EQ(want.cycles, got.cycles);
        EXPECT_EQ(want.insts, got.insts);
        expectStatsEqual(want.stats, got.stats);
    }
}

/**
 * Differ self-check: fast-forward on vs off over the same preset and
 * workload is the PR 4 invariant — the differ must find no divergence
 * and see both sides finish at the same cycle.
 */
TEST(SnapDiff, SelfCheckNoDivergence)
{
    Program program = workloadProgram("hash_join");
    Machine a(makePreset("sst2"), program);
    Machine b(makePreset("sst2"), program);
    snap::DiffOptions opt;
    opt.stride = 512;
    snap::DiffReport rep = snap::diffMachines(a, b, opt);

    EXPECT_FALSE(rep.diverged);
    EXPECT_TRUE(rep.finishedA);
    EXPECT_TRUE(rep.finishedB);
    EXPECT_EQ(rep.cyclesA, rep.cyclesB);
    EXPECT_EQ(rep.hashA, rep.hashB);
    EXPECT_GT(rep.comparedPoints, 0u);
}

/** The acceptance criterion for the differ: a single injected bit flip
 *  at cycle N is pinpointed to exactly cycle N, and both sides'
 *  snapshots at that cycle are dumped. */
TEST(SnapDiff, PinpointsInjectedDivergence)
{
    constexpr Cycle inject = 3333;
    Program program = workloadProgram("oltp_mix");
    Machine a(makePreset("sst4"), program);
    Machine b(makePreset("sst4"), program);
    snap::DiffOptions opt;
    opt.stride = 512;
    opt.injectCycle = inject;
    opt.injectAddr = program.segments().empty()
                         ? Addr{64}
                         : program.segments().front().base;
    opt.outPrefix = ::testing::TempDir() + "sstsim_injected";
    snap::DiffReport rep = snap::diffMachines(a, b, opt);

    ASSERT_TRUE(rep.diverged);
    EXPECT_EQ(rep.firstDivergentCycle, inject);
    EXPECT_NE(rep.hashA, rep.hashB);
    ASSERT_FALSE(rep.snapA.empty());
    ASSERT_FALSE(rep.snapB.empty());
    auto dumpA = snap::readFile(rep.snapA);
    auto dumpB = snap::readFile(rep.snapB);
    EXPECT_TRUE(dumpA.ok());
    EXPECT_TRUE(dumpB.ok());
    std::remove(rep.snapA.c_str());
    std::remove(rep.snapB.c_str());
}

/** An injection inside the very first stride exercises the bisection's
 *  left edge (last-good snapshot is the initial state). */
TEST(SnapDiff, InjectionNearStartIsFoundAtItsCycle)
{
    constexpr Cycle inject = 17; // inside the very first stride
    Program program = workloadProgram("pointer_chase");
    Machine a(makePreset("inorder"), program);
    Machine b(makePreset("inorder"), program);
    snap::DiffOptions opt;
    opt.stride = 4096;
    opt.injectCycle = inject;
    opt.injectAddr = 64;
    snap::DiffReport rep = snap::diffMachines(a, b, opt);
    ASSERT_TRUE(rep.diverged);
    EXPECT_EQ(rep.firstDivergentCycle, inject);
}

/** Cmp snapshot/restore: interrupt a two-core chip mid-run, restore
 *  into a fresh chip, and finish identically. */
TEST(Snapshot, CmpRoundTrip)
{
    Program program = workloadProgram("oltp_mix");
    std::vector<const Program *> programs{&program, &program};
    for (const auto &preset : {"inorder", "sst4", "ooo-large"}) {
        SCOPED_TRACE(preset);

        Cmp base(makePreset(preset), programs);
        CmpResult want = base.run();

        Cmp src(makePreset(preset), programs);
        (void)src.run(3000); // stop on the cycle budget mid-run
        ASSERT_FALSE(src.allHalted());
        std::vector<std::uint8_t> image = src.snapshot();

        Cmp dst(makePreset(preset), programs);
        dst.restore(image);
        EXPECT_EQ(dst.cycles(), src.cycles());
        CmpResult got = dst.run();

        EXPECT_EQ(want.cycles, got.cycles);
        EXPECT_EQ(want.totalInsts, got.totalInsts);
        EXPECT_EQ(want.aggregateIpc, got.aggregateIpc);
        EXPECT_EQ(want.finished, got.finished);
        EXPECT_EQ(want.degrade, got.degrade);
        ASSERT_EQ(want.perCoreIpc.size(), got.perCoreIpc.size());
        for (std::size_t i = 0; i < want.perCoreIpc.size(); ++i)
            EXPECT_EQ(want.perCoreIpc[i], got.perCoreIpc[i]);
        for (unsigned i = 0; i < want.cores; ++i)
            expectStatsEqual(base.core(i).stats().flatten(),
                             dst.core(i).stats().flatten());
    }
}

/** The address-salt aliasing guard: a program whose footprint spills
 *  past the per-core salt stride must be rejected at construction, not
 *  silently share physical addresses with its neighbour core. */
TEST(Snapshot, CmpRejectsFootprintBeyondSaltStride)
{
    Program huge("huge");
    huge.append(inst::halt());
    // One byte just past the 1 GiB salt stride makes the footprint
    // overlap core 1's physical range.
    huge.addData(Cmp::saltStride, {0xff});
    std::vector<const Program *> programs{&huge, &huge};
    EXPECT_DEATH({ Cmp cmp(makePreset("inorder"), programs); },
                 "salt stride");

    // A single-core chip cannot alias anyone and is fine.
    std::vector<const Program *> one{&huge};
    Cmp solo(makePreset("inorder"), one);
    CmpResult r = solo.run(10'000);
    EXPECT_TRUE(r.finished);
}

/**
 * Golden bytes: the exact snapshot encoding is pinned, not just its
 * round trip. A field reordered symmetrically in both directions of a
 * component's serialization still round-trips; it changes these hashes.
 * Any change here is a format change and needs a formatVersion bump.
 */
TEST(Snapshot, GoldenBytes)
{
    constexpr Cycle snapAt = 4096;
    auto machineHash = [&](const MachineConfig &mc,
                           const Program &program) {
        Machine m(mc, program);
        m.stepTo(snapAt);
        return fnv(m.snapshot());
    };

    for (const auto &wl : kWorkloads) {
        Program program = workloadProgram(wl);
        for (const auto &preset : kAllPresets) {
            std::uint64_t want = 0;
            for (const GoldenSnap &g : kGoldenSnaps)
                if (preset == g.preset && wl == g.workload)
                    want = g.fnv;
            std::uint64_t got = machineHash(makePreset(preset), program);
            EXPECT_EQ(got, want) << preset << " / " << wl << " 0x"
                                 << std::hex << got;
        }
    }

    for (const GoldenSnap &g : kGoldenOddWindow) {
        std::uint64_t got =
            machineHash(oddWindowOoO(), workloadProgram(g.workload));
        EXPECT_EQ(got, g.fnv) << "odd window / " << g.workload << " 0x"
                              << std::hex << got;
    }

    // Value prediction and per-strand history add SST state.
    {
        MachineConfig mc = makePreset("sst2");
        mc.core.valuePred = "stride";
        mc.core.strandHistory = true;
        std::uint64_t got =
            machineHash(mc, workloadProgram("list_walk"));
        EXPECT_EQ(got, kGoldenValuePred) << "vp 0x" << std::hex << got;
    }

    // The coherent rock16 chip with lock elision: directory, per-core
    // coherence side tables and SLE state.
    {
        WorkloadParams wp;
        wp.lengthScale = 0.1;
        MachineConfig mc = makePreset("rock16");
        mc.core.elideLocks = true;
        std::vector<Workload> w =
            makeSharedWorkload("spinlock_counter", mc.cmpCores, wp);
        std::vector<const Program *> programs;
        for (const Workload &x : w)
            programs.push_back(&x.program);
        Cmp cmp(mc, programs);
        (void)cmp.run(snapAt);
        std::uint64_t got = fnv(cmp.snapshot());
        EXPECT_EQ(got, kGoldenCmp) << "cmp 0x" << std::hex << got;
    }

    // One profile-library member: the header, cursor, warm hierarchy
    // and image of the first selected region.
    {
        MachineConfig mc = makePreset("sst2");
        ProfileParams pp;
        pp.regionInsts = 5000;
        pp.maxRegions = 2;
        ProfileLibrary lib = buildProfileLibrary(
            mc, workloadProgram("hash_join"), pp, 0x1234);
        const ProfileRegion *first = nullptr;
        for (const ProfileRegion &r : lib.regions)
            if (r.selected && !first)
                first = &r;
        ASSERT_NE(first, nullptr);
        std::uint64_t got = fnv(first->member);
        EXPECT_EQ(got, kGoldenMember) << "member 0x" << std::hex << got;
    }
}
