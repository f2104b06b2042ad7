/** @file Integration tests for the full memory hierarchy. */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.hh"
#include "mem/hierarchy.hh"
#include "mem/lineset.hh"

using namespace sst;

namespace
{

HierarchyParams
tinyParams()
{
    HierarchyParams h;
    h.l1i = CacheParams{"l1i", 1024, 2, 64, 2, ReplPolicy::Lru};
    h.l1d = CacheParams{"l1d", 1024, 2, 64, 3, ReplPolicy::Lru};
    h.l2 = CacheParams{"l2", 8192, 4, 64, 20, ReplPolicy::Lru};
    h.dram = DramParams{"dram", 4, 4096, 100, 10, 20, 5};
    h.l1MshrEntries = 4;
    h.l2PortCycles = 4;
    h.dataPrefetch.enabled = false;
    h.instPrefetch.enabled = false;
    return h;
}

} // namespace

TEST(Hierarchy, L1HitLatency)
{
    MemorySystem sys(tinyParams());
    CorePort &p = sys.addCore();
    auto miss = p.access(AccessType::Load, 0x1000, 0);
    EXPECT_FALSE(miss.l1Hit);
    Cycle later = miss.readyCycle + 10;
    auto hit = p.access(AccessType::Load, 0x1008, later);
    EXPECT_TRUE(hit.l1Hit);
    EXPECT_EQ(hit.readyCycle, later + 3);
}

TEST(Hierarchy, MissGoesThroughL2ToDram)
{
    MemorySystem sys(tinyParams());
    CorePort &p = sys.addCore();
    auto res = p.access(AccessType::Load, 0x1000, 0);
    EXPECT_FALSE(res.l1Hit);
    EXPECT_FALSE(res.l2Hit);
    // At least L2 latency + DRAM base latency.
    EXPECT_GT(res.readyCycle, 120u);
}

TEST(Hierarchy, L2HitAfterL1Eviction)
{
    MemorySystem sys(tinyParams());
    CorePort &p = sys.addCore();
    auto first = p.access(AccessType::Load, 0x1000, 0);
    Cycle t = first.readyCycle + 1;
    // L1D: 8 sets; addresses 0x1000 + k*0x200 share set 0 (2-way).
    p.access(AccessType::Load, 0x1200, t);
    t += 500;
    p.access(AccessType::Load, 0x1400, t);
    t += 500;
    // 0x1000 evicted from L1 but still in L2.
    auto back = p.access(AccessType::Load, 0x1000, t);
    EXPECT_FALSE(back.l1Hit);
    EXPECT_TRUE(back.l2Hit);
    EXPECT_LT(back.readyCycle - t, 100u);
}

TEST(Hierarchy, MergedMissSharesCompletion)
{
    MemorySystem sys(tinyParams());
    CorePort &p = sys.addCore();
    auto a = p.access(AccessType::Load, 0x1000, 0);
    auto b = p.access(AccessType::Load, 0x1008, 1); // same line
    EXPECT_EQ(b.readyCycle, a.readyCycle);
}

TEST(Hierarchy, MshrExhaustionRejects)
{
    MemorySystem sys(tinyParams());
    CorePort &p = sys.addCore();
    for (unsigned i = 0; i < 4; ++i) {
        auto r = p.access(AccessType::Load, 0x10000 + i * 0x1000, 0);
        EXPECT_FALSE(r.rejected) << i;
    }
    auto rej = p.access(AccessType::Load, 0x90000, 0);
    EXPECT_TRUE(rej.rejected);
    EXPECT_GT(rej.retryCycle, 0u);
    // After the retry cycle the access is accepted.
    auto ok = p.access(AccessType::Load, 0x90000, rej.retryCycle + 1);
    EXPECT_FALSE(ok.rejected);
}

TEST(Hierarchy, StoreMissAllocatesAndDirties)
{
    auto params = tinyParams();
    MemorySystem sys(params);
    CorePort &p = sys.addCore();
    auto st = p.access(AccessType::Store, 0x3000, 0);
    EXPECT_FALSE(st.l1Hit);
    Cycle t = st.readyCycle + 1;
    // Evict 0x3000 by filling its set; dirty writeback reaches L2.
    p.access(AccessType::Load, 0x3200, t);
    t += 500;
    p.access(AccessType::Load, 0x3400, t);
    t += 500;
    auto flat = sys.stats().flatten();
    EXPECT_GE(flat["memsys.core0_mem.l1d.writebacks"], 1.0);
}

TEST(Hierarchy, PrefetcherBringsNextLine)
{
    auto params = tinyParams();
    params.dataPrefetch = PrefetcherParams{true, 1, 1};
    MemorySystem sys(params);
    CorePort &p = sys.addCore();
    auto r = p.access(AccessType::Load, 0x1000, 0);
    // The next line should be in flight or present.
    Cycle t = r.readyCycle + 300;
    auto next = p.access(AccessType::Load, 0x1040, t);
    EXPECT_TRUE(next.l1Hit);
    auto flat = sys.stats().flatten();
    EXPECT_GE(flat["memsys.core0_mem.l1d_pf.issued"], 1.0);
    EXPECT_GE(flat["memsys.core0_mem.l1d_pf.useful"], 1.0);
}

TEST(Hierarchy, InstFetchUsesL1i)
{
    MemorySystem sys(tinyParams());
    CorePort &p = sys.addCore();
    auto r = p.access(AccessType::InstFetch, 0x100000, 0);
    EXPECT_FALSE(r.l1Hit);
    auto again = p.access(AccessType::InstFetch, 0x100000,
                          r.readyCycle + 5);
    EXPECT_TRUE(again.l1Hit);
    auto flat = sys.stats().flatten();
    EXPECT_GE(flat["memsys.core0_mem.l1i.accesses"], 2.0);
    EXPECT_DOUBLE_EQ(flat["memsys.core0_mem.l1d.accesses"], 0.0);
}

TEST(Hierarchy, AddressSaltSeparatesCores)
{
    MemorySystem sys(tinyParams());
    CorePort &a = sys.addCore();
    CorePort &b = sys.addCore();
    b.setAddressSalt(Addr{1} << 30);
    a.access(AccessType::Load, 0x1000, 0);
    // Core b accessing the "same" program address must not hit core a's
    // L2 line.
    auto rb = b.access(AccessType::Load, 0x1000, 1);
    EXPECT_FALSE(rb.l2Hit);
}

TEST(Hierarchy, SharedL2VisibleAcrossCores)
{
    MemorySystem sys(tinyParams());
    CorePort &a = sys.addCore();
    CorePort &b = sys.addCore();
    auto ra = a.access(AccessType::Load, 0x1000, 0);
    auto rb = b.access(AccessType::Load, 0x1000, ra.readyCycle + 1);
    EXPECT_FALSE(rb.l1Hit); // own L1 is cold
    EXPECT_TRUE(rb.l2Hit);  // but L2 is shared
}

TEST(Hierarchy, FlushAllResets)
{
    MemorySystem sys(tinyParams());
    CorePort &p = sys.addCore();
    auto r = p.access(AccessType::Load, 0x1000, 0);
    sys.flushAll();
    auto again = p.access(AccessType::Load, 0x1000, r.readyCycle + 10);
    EXPECT_FALSE(again.l1Hit);
    EXPECT_FALSE(again.l2Hit);
}

TEST(Hierarchy, ProbeDoesNotDisturbState)
{
    MemorySystem sys(tinyParams());
    CorePort &p = sys.addCore();
    EXPECT_FALSE(p.probeL1d(0x1000));
    auto r = p.access(AccessType::Load, 0x1000, 0);
    (void)r;
    EXPECT_TRUE(p.probeL1d(0x1000));
    auto flat = sys.stats().flatten();
    double accesses = flat["memsys.core0_mem.l1d.accesses"];
    EXPECT_FALSE(p.probeL1d(0x5000));
    flat = sys.stats().flatten();
    EXPECT_DOUBLE_EQ(flat["memsys.core0_mem.l1d.accesses"], accesses);
}

TEST(HierarchyDeath, MismatchedLineSizesFatal)
{
    HierarchyParams h = tinyParams();
    h.l1d.lineBytes = 32;
    EXPECT_DEATH({ MemorySystem sys(h); }, "line size");
}

/** CorePort's flat line set must behave exactly like an ordered set
 *  under a long random insert/erase/lookup mix. A small key universe
 *  keeps the array at 16-64 slots and well loaded, so probe runs wrap
 *  past the last slot constantly. */
TEST(LineSet, MatchesStdSetUnderRandomChurn)
{
    LineSet flat;
    std::set<Addr> ref;
    Rng rng(0x11ae5e7);
    for (int step = 0; step < 200'000; ++step) {
        Addr line = rng.below(40) * 64;
        switch (rng.below(3)) {
          case 0:
            ASSERT_EQ(flat.insert(line), ref.insert(line).second);
            break;
          case 1:
            ASSERT_EQ(flat.erase(line), ref.erase(line) == 1);
            break;
          default:
            ASSERT_EQ(flat.contains(line), ref.count(line) == 1);
            break;
        }
        ASSERT_EQ(flat.size(), ref.size());
    }
    EXPECT_EQ(flat.sorted(), std::vector<Addr>(ref.begin(), ref.end()));
    flat.clear();
    EXPECT_EQ(flat.size(), 0u);
    EXPECT_TRUE(flat.sorted().empty());
}

/** Backward-shift deletion across the wrap-around: lines whose home is
 *  the last slot of a 16-slot array fill it and spill into slots 0, 1,
 *  ...; erasing the first must shift the spilled ones back so each stays
 *  reachable. The home slot is the top four bits of the Fibonacci
 *  product, as in LineSet::home(). */
TEST(LineSet, BackwardShiftAcrossWrapAround)
{
    std::vector<Addr> wrap;
    for (Addr line = 0; wrap.size() < 4; line += 64)
        if ((line * 0x9E3779B97F4A7C15ULL) >> 60 == 15)
            wrap.push_back(line);
    Addr other = 0;
    while ((other * 0x9E3779B97F4A7C15ULL) >> 60 != 1)
        other += 64;

    LineSet flat;
    for (Addr line : wrap)
        ASSERT_TRUE(flat.insert(line)); // slots 15, 0, 1, 2
    ASSERT_TRUE(flat.insert(other));    // home 1, pushed to slot 3
    for (std::size_t victim = 0; victim < wrap.size(); ++victim) {
        ASSERT_TRUE(flat.erase(wrap[victim]));
        EXPECT_FALSE(flat.contains(wrap[victim]));
        for (std::size_t i = victim + 1; i < wrap.size(); ++i)
            EXPECT_TRUE(flat.contains(wrap[i])) << victim << " " << i;
        EXPECT_TRUE(flat.contains(other)) << victim;
    }
    EXPECT_EQ(flat.sorted(), std::vector<Addr>{other});
}
