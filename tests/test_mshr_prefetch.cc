/** @file Unit tests for the MSHR file and the sequential prefetcher. */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "mem/mshr.hh"
#include "mem/prefetcher.hh"
#include "snap/snap.hh"

using namespace sst;

TEST(Mshr, AllocateAndLookup)
{
    StatGroup sg("t");
    MshrFile m("m", 4, sg);
    m.allocate(0x100, 50, true, 0);
    EXPECT_EQ(m.pendingCompletion(0x100), 50u);
    EXPECT_EQ(m.pendingCompletion(0x200), invalidCycle);
}

TEST(Mshr, ExpireFreesCompleted)
{
    StatGroup sg("t");
    MshrFile m("m", 2, sg);
    m.allocate(0x100, 50, true, 0);
    m.allocate(0x200, 80, true, 0);
    EXPECT_TRUE(m.full(10));
    EXPECT_FALSE(m.full(60)); // 0x100 expired
    EXPECT_EQ(m.pendingCompletion(0x100), invalidCycle);
    EXPECT_EQ(m.pendingCompletion(0x200), 80u);
}

TEST(Mshr, EarliestFree)
{
    StatGroup sg("t");
    MshrFile m("m", 2, sg);
    m.allocate(0x100, 90, true, 0);
    m.allocate(0x200, 40, true, 0);
    EXPECT_EQ(m.earliestFree(), 40u);
}

TEST(Mshr, OutstandingDemandExcludesPrefetch)
{
    StatGroup sg("t");
    MshrFile m("m", 8, sg);
    m.allocate(0x100, 100, true, 0);
    m.allocate(0x200, 100, false, 0); // prefetch
    m.allocate(0x300, 100, true, 0);
    EXPECT_EQ(m.outstandingDemand(10), 2u);
}

TEST(Mshr, MlpSampledAtAllocation)
{
    StatGroup sg("t");
    MshrFile m("m", 8, sg);
    m.allocate(0x100, 100, true, 0);
    m.allocate(0x200, 100, true, 0);
    m.allocate(0x300, 100, true, 0);
    // Samples were 1, 2, 3 -> mean 2.
    EXPECT_DOUBLE_EQ(m.meanDemandMlp(), 2.0);
}

TEST(Mshr, ResetClears)
{
    StatGroup sg("t");
    MshrFile m("m", 2, sg);
    m.allocate(0x100, 100, true, 0);
    m.reset();
    EXPECT_FALSE(m.full(0));
    EXPECT_EQ(m.pendingCompletion(0x100), invalidCycle);
}

/**
 * The expiry horizon is derived state: full(), pendingCompletion() and
 * earliestFree() must answer exactly as a plain scan of the live
 * entries does, including after reset(), invalidate() and a restore
 * into a fresh file (which rebuilds the horizon from the loaded
 * entries).
 */
TEST(Mshr, HorizonMatchesScanAcrossResetInvalidateAndIo)
{
    struct Ref
    {
        Addr line;
        Cycle completion;
    };
    std::vector<Ref> ref;
    StatGroup sg("t");
    auto m = std::make_unique<MshrFile>("m", 4, sg);
    Rng rng(0x6d736872);
    Cycle now = 0;
    for (int step = 0; step < 20'000; ++step) {
        now += rng.below(4);
        Addr line = rng.below(16) * 64;
        switch (rng.below(20)) {
          case 0:
            m->reset();
            ref.clear();
            break;
          case 1:
            m->invalidate(line);
            for (Ref &r : ref)
                if (r.line == line)
                    r.line = invalidAddr;
            break;
          case 2: {
            snap::Writer w;
            m->io(w);
            auto restored = std::make_unique<MshrFile>("m", 4, sg);
            snap::Reader rd(w.data());
            restored->io(rd);
            rd.done();
            m = std::move(restored);
            break;
          }
          default:
            if (!m->full(now)
                && m->pendingCompletion(line) == invalidCycle) {
                Cycle done = now + 1 + rng.below(60);
                m->allocate(line, done, true, now);
                ref.push_back({line, done});
            }
            break;
        }
        std::erase_if(ref,
                      [&](const Ref &r) { return r.completion <= now; });
        Cycle want = invalidCycle;
        for (const Ref &r : ref)
            if (r.line == line)
                want = r.completion;
        ASSERT_EQ(m->full(now), ref.size() >= 4) << "step " << step;
        ASSERT_EQ(m->pendingCompletion(line), want) << "step " << step;
        Cycle earliest = invalidCycle;
        for (const Ref &r : ref)
            earliest = std::min(earliest, r.completion);
        ASSERT_EQ(m->earliestFree(), earliest) << "step " << step;
    }
}

TEST(Mshr, DemandCountAndIndexMatchScan)
{
    // The demand count and the line index against a plain entry list
    // scanned the way the file itself once was: allocations with and
    // without a preceding expire(now), duplicate lines (also after an
    // invalidate), expiry, reset, invalidate and io round trips.
    using Entry = MshrFile::Entry;
    const unsigned cap = 6;
    std::vector<Entry> ref;
    StatGroup sg("t");
    auto m = std::make_unique<MshrFile>("m", cap, sg);
    Rng rng(0x64656d64);
    Cycle now = 0;
    auto scanDemand = [&] {
        unsigned n = 0;
        for (const Entry &e : ref)
            n += e.demand && e.completion > now;
        return n;
    };
    for (int step = 0; step < 50'000; ++step) {
        now += rng.below(3);
        Addr line = rng.below(8) * 64;
        switch (rng.below(24)) {
          case 0:
            m->reset();
            ref.clear();
            break;
          case 1: case 2:
            m->invalidate(line);
            for (Entry &e : ref)
                if (e.lineAddr == line)
                    e.lineAddr = invalidAddr;
            break;
          case 3: {
            snap::Writer w;
            m->io(w);
            auto restored = std::make_unique<MshrFile>("m", cap, sg);
            snap::Reader rd(w.data());
            restored->io(rd);
            rd.done();
            m = std::move(restored);
            break;
          }
          case 4: case 5: case 6: case 7:
            m->expire(now);
            std::erase_if(ref,
                          [&](const Entry &e) { return e.completion <= now; });
            break;
          default: {
            // Half the allocations skip expire(now); any line may be
            // allocated again while an entry for it is in flight.
            if (rng.below(2)) {
                m->expire(now);
                std::erase_if(ref, [&](const Entry &e) {
                    return e.completion <= now;
                });
            }
            if (ref.size() >= cap)
                break;
            bool demand = rng.below(3) != 0;
            Cycle done = now + 1 + rng.below(40);
            std::uint64_t sumBefore = m->mlpDist().sum();
            std::uint64_t want = demand ? scanDemand() + 1 : 0;
            m->allocate(line, done, demand, now);
            ASSERT_EQ(m->mlpDist().sum() - sumBefore, want)
                << "MLP sample at step " << step;
            ref.push_back(Entry{line, done, demand});
            break;
          }
        }
        ASSERT_EQ(m->entries().size(), ref.size()) << "step " << step;
        for (std::size_t i = 0; i < ref.size(); ++i) {
            ASSERT_EQ(m->entries()[i].lineAddr, ref[i].lineAddr);
            ASSERT_EQ(m->entries()[i].completion, ref[i].completion);
            ASSERT_EQ(m->entries()[i].demand, ref[i].demand);
        }
        ASSERT_EQ(m->outstandingDemand(now), scanDemand()) << "step " << step;
        for (Addr probe : {line, Addr{0}, Addr{7 * 64}, invalidAddr}) {
            Cycle want = invalidCycle;
            for (const Entry &e : ref)
                if (e.lineAddr == probe) {
                    want = e.completion;
                    break;
                }
            ASSERT_EQ(m->pendingCompletion(probe), want)
                << "step " << step << " line " << probe;
        }
    }
}

TEST(MshrDeath, OverAllocatePanics)
{
    StatGroup sg("t");
    MshrFile m("m", 1, sg);
    m.allocate(0x100, 100, true, 0);
    EXPECT_DEATH(m.allocate(0x200, 100, true, 0), "full");
}

TEST(Prefetcher, DisabledIssuesNothing)
{
    StatGroup sg("t");
    Prefetcher p(PrefetcherParams{false, 2, 1}, 64, "p", sg);
    EXPECT_TRUE(p.onAccess(0x1000, true).empty());
}

TEST(Prefetcher, MissTriggersNextLines)
{
    StatGroup sg("t");
    Prefetcher p(PrefetcherParams{true, 2, 1}, 64, "p", sg);
    auto v = p.onAccess(0x1000, true);
    ASSERT_EQ(v.size(), 2u);
    EXPECT_EQ(v[0], 0x1040u);
    EXPECT_EQ(v[1], 0x1080u);
}

TEST(Prefetcher, DistanceOffsetsFirstLine)
{
    StatGroup sg("t");
    Prefetcher p(PrefetcherParams{true, 1, 4}, 64, "p", sg);
    auto v = p.onAccess(0x0, true);
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0], 0x100u); // 4 lines ahead
}

TEST(Prefetcher, HitOnlyReArmsMatchingStream)
{
    StatGroup sg("t");
    Prefetcher p(PrefetcherParams{true, 1, 1}, 64, "p", sg);
    p.onAccess(0x1000, true);
    // A hit on an unrelated line does not prefetch...
    EXPECT_TRUE(p.onAccess(0x8000, false).empty());
    // ...but a hit on the last trigger line does (stream continuation).
    EXPECT_FALSE(p.onAccess(0x1000, false).empty());
}

TEST(Prefetcher, AccuracyFormula)
{
    StatGroup sg("t");
    Prefetcher p(PrefetcherParams{true, 1, 1}, 64, "p", sg);
    p.noteIssued();
    p.noteIssued();
    p.noteUseful();
    auto flat = sg.flatten();
    EXPECT_DOUBLE_EQ(flat["t.p.accuracy"], 0.5);
}
