/** @file Deep tests of the behind-strand replay machinery: multi-pass
 *  replay, re-deferral chains, cross-epoch dataflow, deferred
 *  long-latency ops, and commit accounting under adversity. */

#include <gtest/gtest.h>

#include <map>

#include "common/rng.hh"
#include "core/seqring.hh"
#include "sim_test_util.hh"

using namespace sst;
using namespace sst::test;

namespace
{

double
stat(Core &core, const std::string &suffix)
{
    auto flat = core.stats().flatten();
    for (const auto &kv : flat)
        if (kv.first.size() >= suffix.size()
            && kv.first.compare(kv.first.size() - suffix.size(),
                                suffix.size(), suffix)
                   == 0)
            return kv.second;
    return 0.0;
}

} // namespace

TEST(Replay, DependentMissChainRedefers)
{
    // A pointer chase within speculation: the second load's address
    // comes from the first (deferred) load, so at replay it misses
    // again and must be re-deferred into a second pass.
    const char *src = R"(
        li  x1, 0x200000
        ld  x2, 0(x1)      ; miss -> 0x208000
        ld  x3, 0(x2)      ; address NA; misses again at replay
        add x4, x3, x3
        addi x5, x0, 1     ; ahead work
        halt
        .data 0x200000
        .word 0x208000
        .space 32760
        .word 77
    )";
    CoreRun r = makeRun("sst", src, sstParams(2));
    r.run();
    EXPECT_TRUE(r.archMatchesGolden());
    EXPECT_EQ(r.core->archState().reg(4), 154u);
    EXPECT_GE(stat(*r.core, ".redeferred_insts"), 1.0);
}

TEST(Replay, DeepRedeferralChain)
{
    // Four chained dependent misses: each replay pass uncovers the
    // next level. All levels must resolve and commit.
    std::string src = "li x1, 0x200000\nld x2, 0(x1)\n";
    src += "ld x3, 0(x2)\n";
    src += "ld x4, 0(x3)\n";
    src += "ld x5, 0(x4)\n";
    src += "add x6, x5, x5\nhalt\n.data 0x200000\n";
    // Node k at 0x200000 + k*0x8000 points to node k+1; last holds 9.
    for (int k = 0; k < 4; ++k) {
        long next = 0x200000 + (k + 1) * 0x8000;
        src += ".word " + std::to_string(k == 3 ? 9 : next) + "\n";
        if (k != 3)
            src += ".space " + std::to_string(0x8000 - 8) + "\n";
    }
    CoreRun r = makeRun("sst", src, sstParams(2));
    r.run();
    EXPECT_TRUE(r.archMatchesGolden());
    EXPECT_EQ(r.core->archState().reg(6), 18u);
    EXPECT_GE(stat(*r.core, ".redeferred_insts"), 3.0);
}

TEST(Replay, CrossEpochProducerConsumer)
{
    // Epoch 1 opens on a second independent miss while the first is
    // outstanding; a consumer in epoch 1 reads a value produced by a
    // deferred instruction from epoch 0. The replayResults map must
    // survive the epoch boundary.
    const char *src = R"(
        li  x1, 0x200000
        li  x7, 0x280000
        ld  x2, 0(x1)      ; epoch 0 trigger
        add x3, x2, x2     ; deferred in epoch 0
        ld  x4, 0(x7)      ; independent miss -> epoch 1 trigger
        add x5, x4, x3     ; epoch 1, consumes epoch-0 producer x3
        halt
        .data 0x200000
        .word 10
        .space 524280
        .word 5
    )";
    CoreRun r = makeRun("sst", src, sstParams(4));
    r.run();
    EXPECT_TRUE(r.archMatchesGolden());
    EXPECT_EQ(r.core->archState().reg(5), 25u);
    EXPECT_GE(stat(*r.core, ".checkpoints_taken"), 2.0);
}

TEST(Replay, EpochsCommitInOrder)
{
    // Several independent misses, each its own epoch: commits must be
    // incremental (epochs_committed > full_commits) and arch-exact.
    std::string src = "li x1, 0x400000\nli x9, 0\n";
    for (int i = 0; i < 6; ++i) {
        src += "ld x5, " + std::to_string(i * 32768) + "(x1)\n";
        src += "add x9, x9, x5\n";
        // Pad with ALU work so epochs stay distinct.
        for (int j = 0; j < 6; ++j)
            src += "addi x8, x8, 1\n";
    }
    src += "halt\n.data 0x400000\n";
    for (int i = 0; i < 6; ++i) {
        src += ".word " + std::to_string(100 + i) + "\n";
        if (i != 5)
            src += ".space 32760\n";
    }
    CoreRun r = makeRun("sst", src, sstParams(4));
    r.run();
    EXPECT_TRUE(r.archMatchesGolden());
    EXPECT_GT(stat(*r.core, ".epochs_committed"),
              stat(*r.core, ".full_commits"));
}

TEST(Replay, DeferredDivideResolves)
{
    const char *src = R"(
        li  x1, 0x200000
        li  x6, 3
        ld  x2, 0(x1)      ; miss, value 21
        div x3, x2, x6     ; deferred long-latency op
        rem x4, x2, x6
        add x5, x3, x4
        halt
        .data 0x200000
        .word 21
    )";
    CoreRun r = makeRun("sst", src, sstParams(2));
    r.run();
    EXPECT_TRUE(r.archMatchesGolden());
    EXPECT_EQ(r.core->archState().reg(5), 7u);
}

TEST(Replay, DeferredFpOpsResolve)
{
    const char *src = R"(
        li   x1, 0x200000
        ld   x2, 0(x1)      ; miss: bits of 2.0
        fadd x3, x2, x2     ; deferred FP
        fmul x4, x3, x2     ; chained deferred FP
        fcvt.l.d x5, x4
        halt
        .data 0x200000
        .word 4611686018427387904 ; 0x4000000000000000 = 2.0
    )";
    CoreRun r = makeRun("sst", src, sstParams(2));
    r.run();
    EXPECT_TRUE(r.archMatchesGolden());
    EXPECT_EQ(r.core->archState().reg(5), 8u); // (2+2)*2
}

TEST(Replay, ReplayedStoreFeedsLaterEpochLoad)
{
    // A store deferred in epoch 0 (NA data) must be visible, via the
    // SSQ, to a load executed later by the ahead strand.
    const char *src = R"(
        li  x1, 0x200000
        li  x7, 0x300000
        ld  x2, 0(x1)      ; epoch 0 trigger, value 5
        st  x2, 0(x7)      ; deferred store (data NA), address known
        addi x8, x0, 50    ; ahead filler
        ld  x4, 0(x7)      ; memory-dependent: defers on the store
        add x5, x4, x8
        halt
        .data 0x200000
        .word 5
    )";
    CoreRun r = makeRun("sst", src, sstParams(2));
    r.run();
    EXPECT_TRUE(r.archMatchesGolden());
    EXPECT_EQ(r.core->archState().reg(5), 55u);
}

TEST(Replay, NaThroughX0NeverSticks)
{
    // Writes to x0 are discarded; a deferred instruction with rd=x0
    // must not corrupt the NA machinery.
    const char *src = R"(
        li  x1, 0x200000
        ld  x2, 0(x1)
        add x0, x2, x2     ; deferred, writes the zero register
        add x3, x0, x2     ; x0 must still read as 0
        halt
        .data 0x200000
        .word 9
    )";
    CoreRun r = makeRun("sst", src, sstParams(2));
    r.run();
    EXPECT_TRUE(r.archMatchesGolden());
    EXPECT_EQ(r.core->archState().reg(3), 9u);
}

TEST(Replay, RetiredCountSurvivesRollbacks)
{
    // Data-dependent deferred branches cause rollbacks; retired count
    // must still match the golden executor exactly.
    std::string src = R"(
        li   x1, 0x400000
        li   x7, 16
        li   x9, 0
    loop:
        ld   x2, 0(x1)
        andi x3, x2, 1
        beq  x3, x0, skip
        addi x9, x9, 7
    skip:
        addi x1, x1, 4096
        addi x7, x7, -1
        bne  x7, x0, loop
        halt
        .data 0x400000
)";
    Rng rng(123);
    for (int i = 0; i < 16; ++i) {
        src += ".word " + std::to_string(rng.below(64)) + "\n";
        if (i != 15)
            src += ".space 4088\n";
    }
    CoreRun r = makeRun("sst", src, sstParams(2));
    r.run();
    EXPECT_EQ(r.core->instsRetired(), r.goldenInsts);
    EXPECT_TRUE(r.archMatchesGolden());
}

TEST(Replay, HaltInsideSpeculationWaitsForCommit)
{
    const char *src = R"(
        li  x1, 0x200000
        ld  x2, 0(x1)      ; miss
        add x3, x2, x2     ; deferred
        halt               ; reached speculatively
        .data 0x200000
        .word 8
    )";
    CoreRun r = makeRun("sst", src, sstParams(2));
    // The core must not report halted before the epoch commits.
    int ticks_to_halt = 0;
    while (!r.core->halted() && ticks_to_halt < 100000) {
        r.core->tick();
        ++ticks_to_halt;
    }
    EXPECT_TRUE(r.core->halted());
    EXPECT_GT(ticks_to_halt, 50); // waited for the ~300-cycle miss
    EXPECT_TRUE(r.archMatchesGolden());
    EXPECT_EQ(r.core->archState().reg(3), 16u);
}

TEST(Replay, SuppressionGuardBreaksRepeatedFailLoops)
{
    // Branch that always mispredicts at replay on a line that keeps
    // missing: progress is guaranteed by the suppression guard.
    const char *src = R"(
        li   x1, 0x200000
        ld   x2, 0(x1)     ; miss
        beq  x2, x0, wrong ; taken=false, but data-dependent
        addi x9, x9, 1
    wrong:
        addi x9, x9, 2
        halt
        .data 0x200000
        .word 1
    )";
    CoreRun r = makeRun("sst", src, sstParams(2));
    Cycle c = r.run(2'000'000);
    EXPECT_TRUE(r.core->halted()) << "livelock: " << c << " cycles";
    EXPECT_TRUE(r.archMatchesGolden());
}

TEST(Replay, RestoreMidSpeculationRebuildsDqCountAndRing)
{
    // The DQ occupancy counter and the replay-result ring are derived
    // state that snapshots do not carry. Restored in mid-speculation
    // (several live epochs, parked entries, published results), both
    // must equal what the epochs and the saved result list say, and
    // the two machines must stay byte-identical afterwards.
    Program program = workloadProgram("hash_join");
    MachineConfig mc = makePreset("sst4");
    Machine m(mc, program);
    auto &core = dynamic_cast<SstCore &>(m.core());
    Machine r(mc, program);
    auto &rc = dynamic_cast<SstCore &>(r.core());
    r.stepTo(5000);
    int restores = 0;
    for (Cycle c = 1; c < 200'000 && restores < 8 && !core.halted(); ++c) {
        m.stepTo(c);
        ASSERT_EQ(core.dqOccupancy(), core.dqRecount()) << "cycle " << c;
        if (core.liveEpochs() < 2 || core.dqOccupancy() == 0
            || core.replayResultList().empty())
            continue;
        ASSERT_TRUE(core.replayRingConsistent()) << "cycle " << c;
        // Restore over a machine with speculation of its own in flight
        // (the previous round's), so stale derived state would show.
        r.restore(m.snapshot());
        EXPECT_GE(rc.liveEpochs(), 2u);
        EXPECT_EQ(rc.dqOccupancy(), rc.dqRecount()) << "cycle " << c;
        EXPECT_EQ(rc.dqOccupancy(), core.dqOccupancy()) << "cycle " << c;
        EXPECT_EQ(rc.replayResultList(), core.replayResultList())
            << "cycle " << c;
        EXPECT_TRUE(rc.replayRingConsistent()) << "cycle " << c;
        r.stepTo(c + 3000);
        m.stepTo(c + 3000);
        EXPECT_EQ(r.stateHash(), m.stateHash()) << "cycle " << c;
        EXPECT_EQ(rc.dqOccupancy(), rc.dqRecount());
        c += 3000;
        ++restores;
    }
    EXPECT_GE(restores, 3);
}

TEST(SeqRing, MatchesMapUnderGrowthAndErasure)
{
    // Against an ordered map: live windows far wider than the initial
    // ring (forcing growth with values in flight), overwrites,
    // predicate erasure and clears.
    SeqRing<std::uint64_t> ring(16);
    std::map<SeqNum, std::uint64_t> ref;
    Rng rng(0x5e9);
    SeqNum base = 1;
    for (int step = 0; step < 60'000; ++step) {
        SeqNum width = 1 + (step / 500 % 3 == 2 ? 5000 : 40);
        SeqNum seq = base + rng.below(width);
        switch (rng.below(50)) {
          case 0:
            // A fresh ring now and then, so growth keeps recurring.
            if (rng.below(4) == 0)
                ring = SeqRing<std::uint64_t>(16);
            else
                ring.clear();
            ref.clear();
            break;
          case 1: {
            SeqNum bound = base + rng.below(width);
            ring.eraseIf([&](SeqNum s) { return s < bound && s % 3 != 0; });
            std::erase_if(ref, [&](const auto &kv) {
                return kv.first < bound && kv.first % 3 != 0;
            });
            break;
          }
          case 2:
            base += rng.below(30);
            break;
          default:
            if (rng.below(2)) {
                std::uint64_t v = rng.next();
                ring.set(seq, v);
                ref[seq] = v;
            }
            break;
        }
        const std::uint64_t *got = ring.find(seq);
        auto it = ref.find(seq);
        ASSERT_EQ(got != nullptr, it != ref.end()) << "step " << step;
        if (got) {
            ASSERT_EQ(*got, it->second) << "step " << step;
        }
        if (step % 251 == 0) {
            ASSERT_TRUE(ring.consistent()) << "step " << step;
            ASSERT_EQ(ring.size(), ref.size());
            for (const auto &[k, v] : ref) {
                ASSERT_NE(ring.find(k), nullptr) << "step " << step;
                ASSERT_EQ(*ring.find(k), v) << "step " << step;
            }
        }
    }
    EXPECT_GT(ring.slots(), 16u); // the wide windows grew it
}
