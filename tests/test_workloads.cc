/** @file Tests for the workload generators. */

#include <gtest/gtest.h>

#include <limits>

#include "common/result.hh"
#include "func/executor.hh"
#include "workloads/workloads.hh"

using namespace sst;

namespace
{

struct FuncResult
{
    ArchState state;
    std::uint64_t insts;
    MemoryImage mem;
};

FuncResult
runFunctional(const Workload &wl,
              std::uint64_t max_insts = 100'000'000ULL)
{
    FuncResult r;
    r.mem.loadSegments(wl.program);
    Executor exec(wl.program, r.mem);
    r.insts = exec.run(r.state, max_insts);
    return r;
}

class WorkloadFixture : public testing::TestWithParam<std::string>
{
};

} // namespace

TEST_P(WorkloadFixture, HaltsWithinBudget)
{
    WorkloadParams p;
    p.lengthScale = 0.1;
    p.footprintScale = 0.25;
    Workload wl = makeWorkload(GetParam(), p);
    FuncResult r = runFunctional(wl);
    EXPECT_TRUE(r.state.halted) << wl.name;
}

TEST_P(WorkloadFixture, DynamicCountNearEstimate)
{
    WorkloadParams p;
    Workload wl = makeWorkload(GetParam(), p);
    FuncResult r = runFunctional(wl);
    ASSERT_TRUE(r.state.halted);
    double ratio = static_cast<double>(r.insts)
                   / static_cast<double>(wl.approxDynInsts);
    EXPECT_GT(ratio, 0.4) << wl.name << " ran " << r.insts;
    EXPECT_LT(ratio, 2.5) << wl.name << " ran " << r.insts;
}

TEST_P(WorkloadFixture, DeterministicInSeed)
{
    WorkloadParams p;
    p.seed = 1234;
    p.lengthScale = 0.05;
    p.footprintScale = 0.25;
    Workload a = makeWorkload(GetParam(), p);
    Workload b = makeWorkload(GetParam(), p);
    ASSERT_EQ(a.program.size(), b.program.size());
    for (std::uint64_t i = 0; i < a.program.size(); ++i)
        ASSERT_EQ(a.program.at(i), b.program.at(i));
    FuncResult ra = runFunctional(a);
    FuncResult rb = runFunctional(b);
    EXPECT_TRUE(ra.state.regsEqual(rb.state));
    EXPECT_EQ(ra.insts, rb.insts);
}

TEST_P(WorkloadFixture, SeedChangesData)
{
    WorkloadParams p1, p2;
    p1.seed = 1;
    p2.seed = 2;
    p1.lengthScale = p2.lengthScale = 0.05;
    p1.footprintScale = p2.footprintScale = 0.25;
    Workload a = makeWorkload(GetParam(), p1);
    Workload b = makeWorkload(GetParam(), p2);
    FuncResult ra = runFunctional(a);
    FuncResult rb = runFunctional(b);
    // Different seeds should produce different checksums (result at
    // 0x1f0000), except for degenerate cases.
    std::uint64_t ca = ra.mem.read(0x1f0000, 8);
    std::uint64_t cb = rb.mem.read(0x1f0000, 8);
    EXPECT_NE(ca, cb) << a.name;
}

TEST_P(WorkloadFixture, ChecksumStoredToResultSlot)
{
    WorkloadParams p;
    p.lengthScale = 0.05;
    p.footprintScale = 0.25;
    Workload wl = makeWorkload(GetParam(), p);
    FuncResult r = runFunctional(wl);
    EXPECT_NE(r.mem.read(0x1f0000, 8), 0u) << wl.name;
}

TEST_P(WorkloadFixture, LengthScaleScalesWork)
{
    WorkloadParams small, large;
    small.lengthScale = 0.05;
    large.lengthScale = 0.2;
    small.footprintScale = large.footprintScale = 0.25;
    FuncResult rs = runFunctional(makeWorkload(GetParam(), small));
    FuncResult rl = runFunctional(makeWorkload(GetParam(), large));
    EXPECT_GT(rl.insts, rs.insts);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadFixture,
                         testing::ValuesIn(allWorkloadNames()),
                         [](const auto &info) { return info.param; });

TEST(Workloads, CategoriesPartitionTheSet)
{
    auto all = allWorkloadNames();
    auto commercial = commercialWorkloadNames();
    auto compute = computeWorkloadNames();
    EXPECT_EQ(all.size(), commercial.size() + compute.size());
    for (const auto &name : commercial)
        EXPECT_EQ(makeWorkload(name).category, "commercial");
    for (const auto &name : compute)
        EXPECT_EQ(makeWorkload(name).category, "compute");
    for (const auto &name : all)
        EXPECT_EQ(workloadCategory(name), makeWorkload(name).category);
    EXPECT_EQ(workloadCategory("spinlock_counter"), "");
}

TEST(Workloads, ScaleOutOfRangeIsRejected)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (double bad : {-1.0, 0.0, -0.0, nan, inf, -inf, 1e9, 1e30}) {
        WorkloadParams length, footprint;
        length.lengthScale = bad;
        footprint.footprintScale = bad;
        for (const auto &name : allWorkloadNames()) {
            EXPECT_FALSE(trapFatal([&] { makeWorkload(name, length); }).ok())
                << name << " length_scale=" << bad;
            EXPECT_FALSE(
                trapFatal([&] { makeWorkload(name, footprint); }).ok())
                << name << " footprint_scale=" << bad;
        }
        for (const auto &name : sharedWorkloadNames()) {
            EXPECT_FALSE(
                trapFatal([&] { makeSharedWorkload(name, 2, length); }).ok())
                << name << " length_scale=" << bad;
            EXPECT_FALSE(
                trapFatal([&] { makeSharedWorkload(name, 2, footprint); })
                    .ok())
                << name << " footprint_scale=" << bad;
        }
    }
    // The generators' own guards: a scale whose product passes 2^28
    // fails instead of allocating it, wrapping or looping forever.
    WorkloadParams huge;
    huge.lengthScale = 1e30;
    EXPECT_FALSE(trapFatal([&] { makeHashJoin(huge); }).ok());
    huge = {};
    huge.footprintScale = 1e30;
    EXPECT_FALSE(trapFatal([&] { makeHashJoin(huge); }).ok());
    huge.footprintScale = 1024; // 2^19 entries -> 2^29
    EXPECT_FALSE(trapFatal([&] { makeHashJoin(huge); }).ok());
    huge.footprintScale = -1;
    EXPECT_FALSE(trapFatal([&] { makeGraphScan(huge); }).ok());
}

TEST(Workloads, CommercialFootprintsExceedL2)
{
    // The commercial class must stress DRAM: data segments > 2 MB L2.
    for (const auto &name : commercialWorkloadNames()) {
        Workload wl = makeWorkload(name);
        std::uint64_t bytes = 0;
        for (const auto &seg : wl.program.segments())
            bytes += seg.bytes.size();
        EXPECT_GT(bytes, 2u * 1024 * 1024) << name;
    }
}

TEST(WorkloadsDeath, UnknownNameFatal)
{
    EXPECT_DEATH((void)makeWorkload("no_such"), "unknown workload");
}

TEST(Workloads, PointerChaseIsSingleCycle)
{
    // The Sattolo permutation must form one cycle covering all nodes:
    // walking N steps returns to the start without early repetition.
    WorkloadParams p;
    p.footprintScale = 0.02; // small node count for this check
    Workload wl = makeWorkload("pointer_chase", p);
    MemoryImage mem;
    mem.loadSegments(wl.program);
    const Addr base = 0x200000;
    std::uint64_t nodes = 0;
    for (const auto &seg : wl.program.segments())
        nodes = seg.bytes.size() / 64;
    Addr cur = base;
    for (std::uint64_t i = 0; i < nodes; ++i) {
        cur = mem.read(cur, 8);
        if (i + 1 < nodes) {
            ASSERT_NE(cur, base) << "cycle shorter than node count";
        }
    }
    EXPECT_EQ(cur, base);
}
