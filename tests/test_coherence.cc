/**
 * @file
 * Coherence subsystem tests: directory state machine, MSHR poison,
 * shared-memory litmus tests on coherent CMPs, speculative lock
 * elision, snapshot round-trips, and CPI attribution of coherence
 * stalls. (src/coh, plus the plumbing through mem/ and sim/cmp.)
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/result.hh"
#include "coh/coh.hh"
#include "mem/mshr.hh"
#include "sim_test_util.hh"
#include "sim/cmp.hh"
#include "snap/snap.hh"
#include "trace/cpistack.hh"

using namespace sst;
using namespace sst::test;

namespace
{

CohParams
testCohParams()
{
    CohParams p;
    p.enabled = true;
    p.invalidateLatency = 8;
    p.interventionLatency = 16;
    p.upgradeLatency = 6;
    return p;
}

/** A coherent CMP machine config for the given core model. */
MachineConfig
cohConfig(const std::string &model, bool elideLocks = false)
{
    MachineConfig cfg;
    cfg.presetName = "test-coh";
    cfg.model = model;
    cfg.core.name = "core";
    if (model == "sst") {
        cfg.core.checkpoints = 2;
        cfg.core.dqEntries = 64;
        cfg.core.ssqEntries = 32;
    }
    cfg.core.elideLocks = elideLocks;
    cfg.mem.coh.enabled = true;
    return cfg;
}

/** Sum one stat over all cores by suffix match on the flattened key. */
double
sumStat(Cmp &cmp, unsigned cores, const std::string &suffix)
{
    double total = 0;
    for (unsigned i = 0; i < cores; ++i)
        for (const auto &kv : cmp.core(i).stats().flatten())
            if (kv.first.size() >= suffix.size()
                && kv.first.compare(kv.first.size() - suffix.size(),
                                    suffix.size(), suffix)
                       == 0)
                total += kv.second;
    return total;
}

constexpr Addr kResultBase = 0x1f0000;
constexpr Addr kSharedBase = 0x201000; // shared workload payload base

} // namespace

// --- directory state machine ---------------------------------------

TEST(Directory, FirstTouchIsExclusiveAndFree)
{
    Directory dir(testCohParams());
    CohAction act = dir.onAccess(0x1000, 3, false);
    EXPECT_EQ(act.invalidateMask, 0u);
    EXPECT_FALSE(act.intervention);
    EXPECT_EQ(act.latency, 0u);
    EXPECT_EQ(dir.lineState(0x1000).owner, 3);
    // Repeated hits by the owner stay silent, stores included (E->M
    // has no traffic to model when data lives in the image).
    act = dir.onAccess(0x1000, 3, true);
    EXPECT_EQ(act.latency, 0u);
    EXPECT_EQ(dir.invalidations(), 0u);
}

TEST(Directory, RemoteReadOfOwnedLineIsAnIntervention)
{
    Directory dir(testCohParams());
    dir.onAccess(0x1000, 0, true); // core 0 owns (possibly dirty)
    CohAction act = dir.onAccess(0x1000, 1, false);
    EXPECT_TRUE(act.intervention);
    EXPECT_EQ(act.latency, 16u);
    EXPECT_EQ(act.invalidateMask, 0u); // read: old owner keeps a copy
    CohLine st = dir.lineState(0x1000);
    EXPECT_EQ(st.owner, -1);
    EXPECT_EQ(st.sharers, 0b11u);
    EXPECT_EQ(dir.interventions(), 1u);
}

TEST(Directory, RemoteStoreInvalidatesOwner)
{
    Directory dir(testCohParams());
    dir.onAccess(0x1000, 0, true);
    CohAction act = dir.onAccess(0x1000, 2, true);
    EXPECT_TRUE(act.intervention);
    EXPECT_EQ(act.invalidateMask, 0b001u);
    EXPECT_EQ(act.latency, 16u + 8u);
    EXPECT_EQ(dir.lineState(0x1000).owner, 2);
    EXPECT_EQ(dir.invalidations(), 1u);
}

TEST(Directory, StoreToSharedLineInvalidatesAllOtherSharers)
{
    Directory dir(testCohParams());
    dir.onAccess(0x2000, 0, false);
    dir.onAccess(0x2000, 1, false); // S {0,1}
    dir.onAccess(0x2000, 2, false); // S {0,1,2}
    CohAction act = dir.onAccess(0x2000, 1, true);
    EXPECT_EQ(act.invalidateMask, 0b101u);
    EXPECT_TRUE(act.upgrade); // core 1 already held a read copy
    EXPECT_EQ(act.latency, 8u + 6u);
    EXPECT_EQ(dir.lineState(0x2000).owner, 1);
    EXPECT_EQ(dir.invalidations(), 2u);
    EXPECT_EQ(dir.upgrades(), 1u);
}

TEST(Directory, StoreByNonSharerIsNotAnUpgrade)
{
    Directory dir(testCohParams());
    dir.onAccess(0x2000, 0, false);
    dir.onAccess(0x2000, 1, false); // line Shared by {0,1}
    // A write from a core holding no copy invalidates both sharers but
    // pays no upgrade (it never had the read copy to upgrade).
    CohAction act = dir.onAccess(0x2000, 3, true);
    EXPECT_EQ(act.invalidateMask, 0b011u);
    EXPECT_FALSE(act.upgrade);
    EXPECT_EQ(act.latency, 8u);
    EXPECT_EQ(dir.lineState(0x2000).owner, 3);
}

TEST(Directory, EvictAndDropCoreForgetLines)
{
    Directory dir(testCohParams());
    dir.onAccess(0x1000, 0, true);
    dir.onAccess(0x2000, 0, false);
    dir.onAccess(0x2000, 1, false);
    dir.onEvict(0x1000, 0);
    EXPECT_EQ(dir.lineState(0x1000).owner, -1);
    EXPECT_EQ(dir.lineState(0x1000).sharers, 0u);
    EXPECT_EQ(dir.trackedLines(), 1u); // 0x1000 fully forgotten
    dir.dropCore(1);
    EXPECT_EQ(dir.lineState(0x2000).sharers, 0b01u);
    dir.dropCore(0);
    EXPECT_EQ(dir.trackedLines(), 0u);
}

TEST(Directory, SaveLoadRoundTripIsByteStable)
{
    Directory dir(testCohParams());
    dir.onAccess(0x3000, 1, true);
    dir.onAccess(0x1000, 0, false);
    dir.onAccess(0x1000, 2, false);
    dir.onAccess(0x2000, 3, true);
    dir.onAccess(0x2000, 0, false);

    snap::Writer w1;
    snap::save(w1, dir);
    Directory copy(testCohParams());
    snap::Reader r(w1.data());
    copy.io(r);
    snap::Writer w2;
    snap::save(w2, copy);
    EXPECT_EQ(w1.data(), w2.data());
    EXPECT_EQ(copy.lineState(0x1000).sharers,
              dir.lineState(0x1000).sharers);
    EXPECT_EQ(copy.invalidations(), dir.invalidations());
    EXPECT_EQ(copy.interventions(), dir.interventions());
}

// --- MSHR coherence poison -----------------------------------------

TEST(MshrCoherence, InvalidatePoisonsInFlightFill)
{
    StatGroup stats("test");
    MshrFile mshrs("l1_mshrs", 4, stats);
    mshrs.allocate(0x1000, 100, true, 10);
    EXPECT_EQ(mshrs.pendingCompletion(0x1000), 100u);

    // A remote write steals the line mid-fill: the entry must stop
    // matching (the next access re-misses and re-requests) but keep
    // occupying the file until its scheduled completion.
    mshrs.invalidate(0x1000);
    EXPECT_EQ(mshrs.pendingCompletion(0x1000), invalidCycle);
    EXPECT_EQ(mshrs.entries().size(), 1u);
    EXPECT_TRUE(!mshrs.full(10));
    mshrs.expire(100);
    EXPECT_EQ(mshrs.entries().size(), 0u);
}

// --- shared-memory litmus tests ------------------------------------

namespace
{

// Message passing: the fundamental invalidation-ordering litmus. The
// writer publishes data then raises a flag on a different line; the
// reader spins on the flag and must then observe the data.
const char *kWriterSrc = R"(
    li   x1, 0x200000
    li   x2, 42
    st   x2, 0(x1)
    li   x3, 1
    st   x3, 64(x1)
    halt
)";

const char *kReaderSrc = R"(
    li   x1, 0x200000
spin:
    ld   x2, 64(x1)
    beq  x2, x0, spin
    ld   x3, 0(x1)
    li   x4, 0x1f0008
    st   x3, 0(x4)
    halt
)";

void
runMessagePassing(const std::string &model)
{
    Program writer = assemble(kWriterSrc, "writer");
    Program reader = assemble(kReaderSrc, "reader");
    Cmp cmp(cohConfig(model), {&writer, &reader});
    CmpResult res = cmp.run(5'000'000);
    ASSERT_TRUE(res.finished) << model;
    EXPECT_EQ(cmp.image(1).read(0x1f0008, 8), 42u) << model;
}

} // namespace

TEST(Litmus, MessagePassingInOrder) { runMessagePassing("inorder"); }
TEST(Litmus, MessagePassingSst) { runMessagePassing("sst"); }
TEST(Litmus, MessagePassingOoO) { runMessagePassing("ooo"); }

namespace
{

/** Run spinlock_counter on @p cores coherent cores and check that no
 *  increment was lost: the counters must sum to cores * iters. */
void
runSpinlockCounter(const std::string &model, unsigned cores,
                   bool elideLocks)
{
    WorkloadParams wp;
    wp.lengthScale = 0.1; // 200 iterations per core
    std::vector<Workload> w =
        makeSharedWorkload("spinlock_counter", cores, wp);
    std::vector<const Program *> programs;
    for (const Workload &x : w)
        programs.push_back(&x.program);

    Cmp cmp(cohConfig(model, elideLocks), programs);
    CmpResult res = cmp.run(100'000'000);
    ASSERT_TRUE(res.finished)
        << model << " cores=" << cores << " elide=" << elideLocks;

    // No increment lost, every checksum written, the lock free.
    auto held = checkSharedWorkload("spinlock_counter", cores, wp,
                                    cmp.image(0));
    EXPECT_TRUE(held.ok()) << model << " cores=" << cores
                           << " elide=" << elideLocks << ": "
                           << held.error().message;
    if (cores > 1) {
        EXPECT_GT(cmp.memsys().directory().invalidations(), 0u);
    }
}

} // namespace

TEST(Litmus, SpinlockCounterInOrder2) { runSpinlockCounter("inorder", 2, false); }
TEST(Litmus, SpinlockCounterSst2) { runSpinlockCounter("sst", 2, false); }
TEST(Litmus, SpinlockCounterSst4) { runSpinlockCounter("sst", 4, false); }
TEST(Litmus, SpinlockCounterSst16) { runSpinlockCounter("sst", 16, false); }
TEST(Litmus, SpinlockCounterOoO2) { runSpinlockCounter("ooo", 2, false); }
// Elision on a contended chip: an elided section's stores stay
// buffered until the quantum barrier while its lock word still reads
// free, so the commit must hold the lock against other cores' atomics
// until then (OverlayImage::commitElided) or increments are lost.
TEST(Litmus, SpinlockCounterSleSst4) { runSpinlockCounter("sst", 4, true); }
TEST(Litmus, SpinlockCounterSleSst16) { runSpinlockCounter("sst", 16, true); }

TEST(Litmus, ProducerConsumerMovesEveryItem)
{
    WorkloadParams wp;
    wp.lengthScale = 0.1;
    std::vector<Workload> w =
        makeSharedWorkload("producer_consumer", 4, wp);
    std::vector<const Program *> programs;
    for (const Workload &x : w)
        programs.push_back(&x.program);
    Cmp cmp(cohConfig("sst"), programs);
    CmpResult res = cmp.run(100'000'000);
    ASSERT_TRUE(res.finished);
    // Each consumer's checksum equals its producer's: every item
    // crossed the ring intact, none lost or duplicated.
    auto held = checkSharedWorkload("producer_consumer", 4, wp,
                                    cmp.image(0));
    EXPECT_TRUE(held.ok()) << held.error().message;
}

TEST(Litmus, SharedTableStaysConsistent)
{
    WorkloadParams wp;
    wp.lengthScale = 0.1;
    std::vector<Workload> w = makeSharedWorkload("shared_table", 4, wp);
    std::vector<const Program *> programs;
    for (const Workload &x : w)
        programs.push_back(&x.program);
    Cmp cmp(cohConfig("sst"), programs);
    CmpResult res = cmp.run(100'000'000);
    ASSERT_TRUE(res.finished);
    auto held = checkSharedWorkload("shared_table", 4, wp, cmp.image(0));
    EXPECT_TRUE(held.ok()) << held.error().message;
}

// The invariant oracle must see a damaged image: one counter word
// bumped, a checksum erased, the lock left held.
TEST(SharedOracle, ReportsCorruptedImage)
{
    WorkloadParams wp;
    wp.lengthScale = 0.05;
    std::vector<Workload> w =
        makeSharedWorkload("spinlock_counter", 2, wp);
    std::vector<const Program *> programs;
    for (const Workload &x : w)
        programs.push_back(&x.program);
    Cmp cmp(cohConfig("inorder"), programs);
    ASSERT_TRUE(cmp.run(100'000'000).finished);
    MemoryImage &image = cmp.image(0);
    ASSERT_TRUE(checkSharedWorkload("spinlock_counter", 2, wp, image).ok());

    auto damaged = [&](Addr addr, std::uint64_t value,
                       const std::string &what) {
        std::uint64_t saved = image.read(addr, 8);
        image.write(addr, value, 8);
        auto held = checkSharedWorkload("spinlock_counter", 2, wp, image);
        image.write(addr, saved, 8);
        ASSERT_FALSE(held.ok()) << what;
        EXPECT_EQ(held.error().exitCode, exit_code::archMismatch);
        EXPECT_NE(held.error().message.find(what), std::string::npos)
            << held.error().message;
    };
    damaged(kSharedBase + 8, image.read(kSharedBase + 8, 8) ^ 1,
            "the counters sum to");
    damaged(kResultBase + 8, 0, "core 1's result slot was never written");
    damaged(0x200000, 2, "ends held (token 2)");
}

// The footprint-vs-salt-stride guard must only fire when a neighbour
// exists to alias: a single-program Cmp may exceed the stride freely.
TEST(Cmp, FootprintGuardNeedsANeighbour)
{
    const char *kHuge = R"(
        li   x1, 0x40000008
        ld   x2, 0(x1)
        halt
        .data 0x40000008
        .word 7
    )";
    Program huge = assemble(kHuge, "huge");
    MachineConfig cfg;
    cfg.model = "inorder";
    cfg.core.name = "core";

    auto solo = trapFatal([&] {
        Cmp cmp(cfg, {&huge});
        return cmp.run(1'000'000).finished;
    });
    ASSERT_TRUE(solo.ok());
    EXPECT_TRUE(solo.value());

    auto pair = trapFatal([&] {
        Cmp cmp(cfg, {&huge, &huge});
        return 0;
    });
    EXPECT_FALSE(pair.ok());
}

// --- speculative lock elision --------------------------------------

TEST(Sle, ElidesAndCommitsUncontendedLocks)
{
    runSpinlockCounter("sst", 2, true);
    // Correctness above; now the mechanism: rebuild and check stats.
    WorkloadParams wp;
    wp.lengthScale = 0.1;
    std::vector<Workload> w =
        makeSharedWorkload("shared_table", 2, wp);
    std::vector<const Program *> programs;
    for (const Workload &x : w)
        programs.push_back(&x.program);
    Cmp cmp(cohConfig("sst", true), programs);
    CmpResult res = cmp.run(100'000'000);
    ASSERT_TRUE(res.finished);
    EXPECT_GT(sumStat(cmp, 2, ".sle_elisions"), 0.0);
    EXPECT_GT(sumStat(cmp, 2, ".sle_commits"), 0.0);
}

namespace
{

// A deterministic elide-then-conflict pair. The elider warms X into
// its L1 first so the in-region loads hit (a deferred miss only joins
// the speculative read set at replay — it takes its value then, so a
// remote store before the replay is naturally ordered ahead of it),
// and raises a flag just before eliding so the conflicter's stores are
// guaranteed to overlap the open region.
const char *kSleElider = R"(
    li   x1, 0x200000
    li   x5, 0x200100
    li   x8, 0x200180
    ld   x6, 0(x5)
    li   x2, 1
    st   x2, 0(x8)
    amoswap x3, x2, 0(x1)
    li   x4, 400
loop:
    ld   x6, 0(x5)
    addi x4, x4, -1
    bne  x4, x0, loop
    st   x0, 0(x1)
    li   x7, 0x1f0000
    st   x6, 0(x7)
    halt
)";
const char *kSleConflicter = R"(
    li   x8, 0x200180
wait:
    ld   x9, 0(x8)
    beq  x9, x0, wait
    li   x1, 0x200100
    li   x2, 7
    li   x3, 200
loop:
    st   x2, 0(x1)
    addi x3, x3, -1
    bne  x3, x0, loop
    halt
)";

} // namespace

TEST(Sle, AbortsWhenARemoteWriteHitsTheReadSet)
{
    // Core 0 elides a lock and sits in a long read-only critical
    // section over X; core 1 waits for the flag, then hammers X with
    // plain stores. The elision must abort (requester wins) and retry
    // conventionally.
    Program elider = assemble(kSleElider, "elider");
    Program conflicter = assemble(kSleConflicter, "conflicter");
    Cmp cmp(cohConfig("sst", true), {&elider, &conflicter});
    CmpResult res = cmp.run(10'000'000);
    ASSERT_TRUE(res.finished);
    EXPECT_GE(sumStat(cmp, 2, ".sle_elisions"), 1.0);
    EXPECT_GE(sumStat(cmp, 2, ".sle_aborts"), 1.0);
    EXPECT_GE(sumStat(cmp, 2, ".fail_coh"), 1.0);
    // After the dust settles the lock is free and x6 made it out.
    EXPECT_EQ(cmp.image(0).read(0x200000, 8), 0u);
}

// --- snapshot round-trip -------------------------------------------

TEST(CohSnapshot, MidRunRestoreResumesByteIdentical)
{
    WorkloadParams wp;
    wp.lengthScale = 0.1;
    std::vector<Workload> w =
        makeSharedWorkload("spinlock_counter", 2, wp);
    std::vector<const Program *> programs;
    for (const Workload &x : w)
        programs.push_back(&x.program);

    MachineConfig cfg = cohConfig("sst", true);
    Cmp a(cfg, programs);
    CmpResult mid = a.run(3'000); // stop mid-flight (cycle budget)
    ASSERT_FALSE(mid.finished);
    std::vector<std::uint8_t> midBytes = a.snapshot();

    Cmp b(cfg, programs);
    b.restore(midBytes);
    EXPECT_EQ(b.cycles(), a.cycles());
    // A restored chip must be bit-equal to the one it came from.
    EXPECT_EQ(b.snapshot(), midBytes);

    CmpResult ra = a.run(100'000'000);
    CmpResult rb = b.run(100'000'000);
    ASSERT_TRUE(ra.finished);
    ASSERT_TRUE(rb.finished);
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.totalInsts, rb.totalInsts);
    // The whole point: resuming from the snapshot is invisible, down
    // to the directory state and every image byte.
    EXPECT_EQ(a.snapshot(), b.snapshot());
}

// --- CPI attribution of coherence stalls ---------------------------

TEST(CohCpi, CoherenceStallsSumIntoTotalCpi)
{
    WorkloadParams wp;
    wp.lengthScale = 0.1;
    std::vector<Workload> w =
        makeSharedWorkload("spinlock_counter", 2, wp);
    std::vector<const Program *> programs;
    for (const Workload &x : w)
        programs.push_back(&x.program);
    Cmp cmp(cohConfig("inorder"), programs);
    CmpResult res = cmp.run(100'000'000);
    ASSERT_TRUE(res.finished);

    std::uint64_t coh = 0;
    for (unsigned c = 0; c < 2; ++c) {
        trace::CpiStack &stack = cmp.core(c).cpiStack();
        EXPECT_EQ(stack.total(), cmp.core(c).cycles())
            << "core " << c << ": CPI categories must cover every "
            << "cycle, coherence included";
        coh += stack.value(trace::CpiCat::Coherence);
    }
    // Two cores ping-ponging one lock line cannot avoid coherence
    // stalls; the new category must actually receive them.
    EXPECT_GT(coh, 0u);
}

TEST(CohCpi, SleRollbackChargesCoherence)
{
    // Reuse the deterministic conflict pair from the SLE abort test:
    // the squashed speculation's cycles must land in the Coherence
    // bucket (wasted by a remote write), not RollbackDiscard.
    Program elider = assemble(kSleElider, "elider");
    Program conflicter = assemble(kSleConflicter, "conflicter");
    Cmp cmp(cohConfig("sst", true), {&elider, &conflicter});
    CmpResult res = cmp.run(10'000'000);
    ASSERT_TRUE(res.finished);
    ASSERT_GE(sumStat(cmp, 2, ".sle_aborts"), 1.0);
    EXPECT_GT(cmp.core(0).cpiStack().value(trace::CpiCat::Coherence),
              0u);
    EXPECT_EQ(cmp.core(0).cpiStack().total(), cmp.core(0).cycles());
}
