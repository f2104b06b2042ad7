/**
 * @file
 * Load-value prediction: unit tests for the ValuePredictor table
 * (learning, confidence gating, speculative chain advance, squash,
 * serialization) and mechanism-level tests of the SST core running on
 * predicted values — conversion of deferral stalls into overlap,
 * verify-on-fill squashes, and the RAS-restore regression for
 * speculative call/return churn across rollbacks.
 */

#include <gtest/gtest.h>

#include "branch/valuepred.hh"
#include "sim/machine.hh"
#include "sim/presets.hh"
#include "sim_test_util.hh"
#include "snap/snap.hh"

using namespace sst;
using namespace sst::test;

// ---------------------------------------------------------------- unit

TEST(ValuePredictor, OffNeverPredicts)
{
    ValuePredictor p(ValuePredKind::Off);
    EXPECT_FALSE(p.enabled());
    for (int i = 0; i < 16; ++i)
        p.train(100, 7);
    std::uint64_t v = 0;
    EXPECT_FALSE(p.predict(100, v));
}

TEST(ValuePredictor, LastValueArmsOnlyAfterConfidence)
{
    ValuePredictor p(ValuePredKind::LastValue);
    std::uint64_t v = 0;
    p.train(100, 42); // allocation
    for (int i = 0; i < 3; ++i) {
        EXPECT_FALSE(p.predict(100, v)) << "armed too early, i=" << i;
        p.train(100, 42);
    }
    p.train(100, 42); // 4th agreement reaches the threshold
    ASSERT_TRUE(p.predict(100, v));
    EXPECT_EQ(v, 42u);
}

TEST(ValuePredictor, ConfidenceCollapsesOnDisagreement)
{
    ValuePredictor p(ValuePredKind::LastValue);
    for (int i = 0; i < 8; ++i)
        p.train(100, 42);
    std::uint64_t v = 0;
    ASSERT_TRUE(p.predict(100, v));
    p.squash(); // drop the chain the probe above started
    p.train(100, 43); // one disagreement zeroes confidence
    EXPECT_FALSE(p.predict(100, v));
}

TEST(ValuePredictor, StrideLearnsArithmeticSequence)
{
    ValuePredictor p(ValuePredKind::Stride);
    for (int i = 0; i < 8; ++i)
        p.train(200, 1000 + 64 * i);
    std::uint64_t v = 0;
    ASSERT_TRUE(p.predict(200, v));
    EXPECT_EQ(v, 1000u + 64 * 8);
}

TEST(ValuePredictor, PredictionsChainWithoutIntermediateTraining)
{
    // A dependent re-execution of one static load (linked-list walk)
    // loads the *next* element: consecutive predictions must advance
    // by the stride even though no fill has verified yet.
    ValuePredictor p(ValuePredKind::Stride);
    for (int i = 0; i < 8; ++i)
        p.train(200, 64 * i);
    std::uint64_t v1 = 0, v2 = 0, v3 = 0;
    ASSERT_TRUE(p.predict(200, v1));
    ASSERT_TRUE(p.predict(200, v2));
    ASSERT_TRUE(p.predict(200, v3));
    EXPECT_EQ(v1, 64u * 8);
    EXPECT_EQ(v2, 64u * 9);
    EXPECT_EQ(v3, 64u * 10);
}

TEST(ValuePredictor, SquashForcesReanchorBeforePredicting)
{
    ValuePredictor p(ValuePredKind::Stride);
    for (int i = 0; i < 8; ++i)
        p.train(200, 64 * i);
    std::uint64_t v = 0;
    ASSERT_TRUE(p.predict(200, v));
    ASSERT_TRUE(p.predict(200, v));
    EXPECT_EQ(v, 64u * 9);
    p.squash(); // rollback: in-flight predictions died
    // The stream rewound; lastValue may lie in the re-executed
    // stream's future, so the entry must train once before it may
    // speculate again.
    EXPECT_FALSE(p.predict(200, v)) << "must re-anchor after rollback";
    p.train(200, 64 * 8); // the re-executed instance resolves
    ASSERT_TRUE(p.predict(200, v));
    EXPECT_EQ(v, 64u * 9) << "chain must restart at lastValue+stride";
}

TEST(ValuePredictor, ReplayTrainingPullsTheTipInStep)
{
    // Fills verify in (program) order while younger predictions are in
    // flight: each replay train+resolve moves lastValue forward AND the
    // tip one instance closer, so the frontier extrapolation is stable.
    ValuePredictor p(ValuePredKind::Stride);
    for (int i = 0; i < 8; ++i)
        p.train(200, 64 * i);
    std::uint64_t v = 0;
    ASSERT_TRUE(p.predict(200, v)); // 512 in flight
    ASSERT_TRUE(p.predict(200, v)); // 576 in flight
    p.train(200, 512); // oldest prediction verified at replay...
    p.noteDeferResolved(200); // ...and leaves the in-flight window
    ASSERT_TRUE(p.predict(200, v));
    EXPECT_EQ(v, 64u * 10) << "tip must survive in-order verify";
    p.train(200, 576);
    p.noteDeferResolved(200);
    p.train(200, 640);
    p.noteDeferResolved(200);
    ASSERT_TRUE(p.predict(200, v));
    EXPECT_EQ(v, 64u * 11);
}

TEST(ValuePredictor, UnpredictedDefersWidenTheExtrapolation)
{
    // Two instances deferred without predictions (e.g. before the
    // entry armed): the frontier is now three instances past
    // lastValue, and a prediction there must extrapolate the whole
    // gap, not return the stale lastValue+stride.
    ValuePredictor p(ValuePredKind::Stride);
    for (int i = 0; i < 8; ++i)
        p.train(200, 64 * i); // lastValue 448, stride 64
    p.notePendingDefer(200); // 512 in flight, value unknown
    p.notePendingDefer(200); // 576 in flight, value unknown
    std::uint64_t v = 0;
    ASSERT_TRUE(p.predict(200, v));
    EXPECT_EQ(v, 64u * 10) << "must extrapolate across in-flight gap";
    // The two unpredicted defers replay and resolve in order.
    p.train(200, 512);
    p.noteDeferResolved(200);
    p.train(200, 576);
    p.noteDeferResolved(200);
    ASSERT_TRUE(p.predict(200, v));
    EXPECT_EQ(v, 64u * 11) << "tip: 640 predicted in flight, then 704";
}

TEST(ValuePredictor, SaveLoadRoundTripPreservesChainState)
{
    ValuePredictor p(ValuePredKind::Stride);
    for (int i = 0; i < 8; ++i)
        p.train(200, 64 * i);
    std::uint64_t v = 0;
    ASSERT_TRUE(p.predict(200, v)); // leaves an open chain

    snap::Writer w;
    snap::save(w, p);

    ValuePredictor q(ValuePredKind::Stride);
    snap::Reader r(w.data());
    q.io(r);
    r.done();

    snap::Writer w2;
    snap::save(w2, q);
    EXPECT_EQ(w.data(), w2.data()) << "round trip not byte-identical";

    std::uint64_t a = 0, b = 0;
    ASSERT_TRUE(p.predict(200, a));
    ASSERT_TRUE(q.predict(200, b));
    EXPECT_EQ(a, b) << "restored chain must continue identically";
}

// ------------------------------------------------ SST core integration

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

/** A linked-list walk whose next pointers advance by a fixed stride:
 *  the canonical value-predictable dependent-miss chain. Nodes are a
 *  page apart so next-line prefetching can't hide the misses.
 *  @p splice >= 0 redirects that node's next pointer two nodes ahead,
 *  planting one guaranteed value mispredict once confidence is armed. */
std::string
listWalk(int nodes, int steps, int splice = -1)
{
    std::string src = "li x1, 0x400000\n"
                      "li x3, 0\n"
                      "li x4, " + std::to_string(steps) + "\n"
                      "loop:\n"
                      "ld x2, 8(x1)\n"
                      "add x3, x3, x2\n"
                      "ld x1, 0(x1)\n"
                      "addi x4, x4, -1\n"
                      "bne x4, x0, loop\n"
                      "halt\n"
                      ".data 0x400000\n";
    for (int i = 0; i < nodes; ++i) {
        int hop = i == splice ? 3 : 1;
        std::uint64_t next = 0x400000 + 4096ull * ((i + hop) % nodes);
        src += ".word " + std::to_string(next) + "\n";
        src += ".word " + std::to_string(i * 3 + 1) + "\n";
        src += ".space 4080\n";
    }
    return src;
}

CoreParams
vpParams(const std::string &mode)
{
    CoreParams p = sstParams(4);
    p.valuePred = mode;
    return p;
}

} // namespace

TEST(SstValuePred, StrideChainConvertsDeferralIntoOverlap)
{
    // Long enough that the armed predictor amortizes its warm-up (a
    // few serial iterations) and the one misalignment squash a cold
    // chain takes before the architectural state catches up.
    const std::string src = listWalk(160, 150);
    CoreRun off = makeRun("sst", src, vpParams("off"));
    off.run();
    ASSERT_TRUE(off.archMatchesGolden());

    CoreRun vp = makeRun("sst", src, vpParams("stride"));
    vp.run();
    ASSERT_TRUE(vp.archMatchesGolden());
    EXPECT_GT(stat(*vp.core, ".vp_predictions"), 0.0);
    EXPECT_GT(stat(*vp.core, ".vp_correct"), 0.0);
    EXPECT_GT(stat(*vp.core, ".cpi_stack.value_pred"), 0.0)
        << "converted cycles must be attributed in the CPI stack";
    EXPECT_LT(vp.core->cycles(), off.core->cycles())
        << "a perfectly stride-predictable walk must speed up";
}

TEST(SstValuePred, OffRunsHaveNoPredictorFootprint)
{
    CoreRun r = makeRun("sst", listWalk(48, 40), vpParams("off"));
    r.run();
    EXPECT_EQ(stat(*r.core, ".vp_predictions"), 0.0);
    EXPECT_EQ(stat(*r.core, ".fail_vpred"), 0.0);
    EXPECT_EQ(stat(*r.core, ".cpi_stack.value_pred"), 0.0);
    EXPECT_EQ(stat(*r.core, ".cpi_stack.value_pred_waste"), 0.0);
}

TEST(SstValuePred, MispredictSquashesAndStaysArchitecturallyCorrect)
{
    // One spliced link breaks the stride mid-list: the predicted chain
    // must be squashed (FailKind::ValueMispredict) and the final state
    // must still match the functional golden run exactly.
    CoreRun r = makeRun("sst", listWalk(48, 40, /*splice=*/30),
                        vpParams("stride"));
    r.run();
    ASSERT_TRUE(r.archMatchesGolden());
    EXPECT_GE(stat(*r.core, ".fail_vpred"), 1.0);
    EXPECT_GT(stat(*r.core, ".cpi_stack.value_pred_waste"), 0.0)
        << "squashed cycles must land in value_pred_waste";
}

TEST(SstValuePred, LastValueModeStaysQuietOnStridePointers)
{
    // Next pointers always change, so last-value never becomes
    // confident here — and must not slow the walk down.
    const std::string src = listWalk(48, 40);
    CoreRun off = makeRun("sst", src, vpParams("off"));
    off.run();
    CoreRun lv = makeRun("sst", src, vpParams("last"));
    lv.run();
    ASSERT_TRUE(lv.archMatchesGolden());
    EXPECT_EQ(stat(*lv.core, ".vp_predictions"), 0.0);
    EXPECT_EQ(lv.core->cycles(), off.core->cycles());
}

// ----------------------------------------------- RAS rollback repair

TEST(SstRas, CallReturnChurnSurvivesRollbacks)
{
    // Speculative call/return churn across forced rollbacks: each call
    // body defers a branch on a missed load that the static predictor
    // guesses wrong, so every iteration rolls back after the ahead
    // strand has already popped the RAS for the return. The rollback
    // must restore the checkpoint's RAS; a stale stack would mispredict
    // later returns (fail_jump) or starve the ahead strand.
    std::string src = "li x6, 0x400000\n"
                      "li x5, 6\n"
                      "li x9, 0\n"
                      "loop:\n"
                      "jal x1, work\n"
                      "addi x5, x5, -1\n"
                      "bne x5, x0, loop\n"
                      "halt\n"
                      "work:\n"
                      "ld x2, 0(x6)\n"
                      "bne x2, x0, taken\n" // static says NT; is taken
                      "addi x9, x9, 100\n"
                      "taken:\n"
                      "addi x9, x9, 1\n"
                      "addi x6, x6, 4096\n"
                      "jalr x0, x1, 0\n"
                      ".data 0x400000\n";
    for (int i = 0; i < 6; ++i)
        src += ".word 1\n.space 4088\n";

    CoreParams p = sstParams(4);
    p.predictor = "static";
    CoreRun r = makeRun("sst", src, p);
    r.run();
    ASSERT_TRUE(r.core->halted());
    ASSERT_TRUE(r.archMatchesGolden());
    EXPECT_GE(stat(*r.core, ".fail_branch"), 1.0)
        << "the test must actually force rollbacks";
    EXPECT_EQ(stat(*r.core, ".fail_jump"), 0.0)
        << "a correctly restored RAS never mispredicts these returns";
}

// ------------------------------------------- snapshot round trip

TEST(SstValuePred, SnapshotRoundTripWithPredictionMidFlight)
{
    // Snapshot in the middle of a run with live value-predictor and
    // per-strand-history state; the restored machine must finish with
    // byte-identical stats.
    Program program = workloadProgram("list_walk");
    MachineConfig cfg = makePreset("sst4");
    cfg.core.valuePred = "stride";
    cfg.core.strandHistory = true;

    Machine base(cfg, program);
    RunResult want = base.run();
    ASSERT_GT(stat(base.core(), ".vp_predictions"), 0.0)
        << "the workload must exercise the predictor";

    Machine src(cfg, program);
    src.stepTo(4096);
    std::vector<std::uint8_t> image = src.snapshot();

    Machine dst(cfg, program);
    dst.restore(image);
    EXPECT_EQ(dst.stateHash(), src.stateHash());
    RunResult got = dst.run();
    EXPECT_EQ(want.cycles, got.cycles);
    EXPECT_EQ(want.insts, got.insts);
    expectStatsEqual(want.stats, got.stats);
}
