/** @file Unit tests for the statistics package. */

#include <gtest/gtest.h>

#include <vector>

#include "common/stats.hh"

using namespace sst;

TEST(Scalar, StartsAtZeroAndCounts)
{
    Scalar s;
    EXPECT_EQ(s.value(), 0u);
    ++s;
    s += 5;
    EXPECT_EQ(s.value(), 6u);
    s.reset();
    EXPECT_EQ(s.value(), 0u);
}

TEST(Distribution, MeanAndCount)
{
    Distribution d;
    d.init(100, 10);
    d.sample(10);
    d.sample(20);
    d.sample(30);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_EQ(d.sum(), 60u);
    EXPECT_DOUBLE_EQ(d.mean(), 20.0);
    EXPECT_EQ(d.maxSample(), 30u);
}

TEST(Distribution, BucketsAndOverflow)
{
    Distribution d;
    d.init(100, 10); // width 10
    d.sample(0);
    d.sample(9);
    d.sample(10);
    d.sample(250);
    EXPECT_EQ(d.buckets()[0], 2u);
    EXPECT_EQ(d.buckets()[1], 1u);
    EXPECT_EQ(d.overflow(), 1u);
    EXPECT_EQ(d.maxSample(), 250u);
}

TEST(Distribution, BucketWidthRoundsUp)
{
    // Regression: truncating division left the top of [0, max) in
    // overflow — init(100, 8) gave width 12, covering only [0, 96).
    Distribution d;
    d.init(100, 8);
    EXPECT_EQ(d.bucketWidth(), 13u);
    d.sample(96);
    d.sample(99);
    EXPECT_EQ(d.buckets()[7], 2u);
    EXPECT_EQ(d.overflow(), 0u);

    Distribution e;
    e.init(10, 3); // ceil(10/3) = 4
    EXPECT_EQ(e.bucketWidth(), 4u);
    e.sample(9);
    EXPECT_EQ(e.buckets()[2], 1u);
    EXPECT_EQ(e.overflow(), 0u);
}

TEST(Distribution, MeanExactDespiteOverflow)
{
    Distribution d;
    d.init(10, 2);
    d.sample(1000);
    d.sample(0);
    EXPECT_DOUBLE_EQ(d.mean(), 500.0);
}

TEST(Distribution, Reset)
{
    Distribution d;
    d.init(10, 2);
    d.sample(5);
    d.reset();
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.sum(), 0u);
    EXPECT_EQ(d.buckets()[1], 0u);
}

TEST(Distribution, BucketIndexMatchesDivision)
{
    // Bucket selection is divide-free (a shift or a 32-bit reciprocal):
    // every sample must land where v / width puts it, at both batch
    // sizes, for power-of-two and odd widths, at the overflow edge, and
    // for a range too wide for the reciprocal.
    struct Geometry
    {
        std::uint64_t max;
        unsigned buckets;
    };
    for (Geometry g : {Geometry{65, 16}, Geometry{64, 32}, Geometry{4096, 32},
                       Geometry{1000, 7}, Geometry{3, 3}, Geometry{1, 1},
                       Geometry{(std::uint64_t{1} << 32) - 5, 3},
                       Geometry{std::uint64_t{1} << 40, 3}}) {
        Distribution d;
        d.init(g.max, g.buckets);
        const std::uint64_t w = d.bucketWidth();
        std::vector<std::uint64_t> want(g.buckets, 0);
        std::uint64_t overflow = 0;
        auto expect = [&](std::uint64_t v, std::uint64_t n) {
            std::uint64_t idx = v / w;
            if (idx < g.buckets)
                want[idx] += n;
            else
                overflow += n;
        };
        const std::uint64_t top = w * g.buckets;
        std::vector<std::uint64_t> probes = {0, 1, w - 1, w, w + 1,
                                             top - 1, top, top + 1};
        for (std::uint64_t k = 0; k < 3000; ++k)
            probes.push_back((k * 0x9E3779B97F4A7C15ull) % (top + 2));
        for (std::uint64_t v : probes) {
            d.sample(v);
            expect(v, 1);
            d.sample(v, 3);
            expect(v, 3);
        }
        EXPECT_EQ(d.buckets(), want) << "max " << g.max;
        EXPECT_EQ(d.overflow(), overflow) << "max " << g.max;
    }
}

TEST(StatGroup, ScalarRegistrationAndDump)
{
    StatGroup g("grp");
    Scalar &s = g.addScalar("events", "number of events");
    s += 3;
    std::string d = g.dump();
    EXPECT_NE(d.find("grp.events"), std::string::npos);
    EXPECT_NE(d.find("number of events"), std::string::npos);
}

TEST(StatGroup, FormulaEvaluatesLazily)
{
    StatGroup g("g");
    Scalar &a = g.addScalar("a", "");
    Scalar &b = g.addScalar("b", "");
    g.addFormula("ratio", "a/b", [&] {
        return b.value() ? double(a.value()) / double(b.value()) : 0.0;
    });
    a += 6;
    b += 3;
    auto flat = g.flatten();
    EXPECT_DOUBLE_EQ(flat["g.ratio"], 2.0);
}

TEST(StatGroup, ChildGroupsNest)
{
    StatGroup parent("p");
    StatGroup child("c");
    Scalar &s = child.addScalar("x", "");
    s += 1;
    parent.addChild(child);
    auto flat = parent.flatten();
    EXPECT_EQ(flat.count("p.c.x"), 1u);
    EXPECT_DOUBLE_EQ(flat["p.c.x"], 1.0);
}

TEST(StatGroup, ResetRecurses)
{
    StatGroup parent("p");
    StatGroup child("c");
    Scalar &a = parent.addScalar("a", "");
    Scalar &b = child.addScalar("b", "");
    parent.addChild(child);
    a += 1;
    b += 2;
    parent.reset();
    EXPECT_EQ(a.value(), 0u);
    EXPECT_EQ(b.value(), 0u);
}

TEST(StatGroup, ReferencesStableAcrossManyRegistrations)
{
    StatGroup g("g");
    Scalar &first = g.addScalar("s0", "");
    std::vector<Scalar *> all{&first};
    for (int i = 1; i < 100; ++i)
        all.push_back(&g.addScalar("s" + std::to_string(i), ""));
    first += 42;
    EXPECT_EQ(all[0]->value(), 42u);
    auto flat = g.flatten();
    EXPECT_DOUBLE_EQ(flat["g.s0"], 42.0);
}

TEST(StatGroup, DumpJsonIsParseableShape)
{
    StatGroup g("g");
    Scalar &a = g.addScalar("hits", "");
    a += 7;
    g.addFormula("rate", "", [] { return 0.5; });
    std::string j = g.dumpJson();
    EXPECT_EQ(j.front(), '{');
    EXPECT_NE(j.find("\"g.hits\": 7"), std::string::npos);
    EXPECT_NE(j.find("\"g.rate\": 0.5"), std::string::npos);
    EXPECT_NE(j.find('}'), std::string::npos);
    // No trailing comma before the closing brace.
    auto brace = j.rfind('}');
    auto last_comma = j.rfind(',');
    EXPECT_TRUE(last_comma == std::string::npos || last_comma < j.rfind(':'));
    (void)brace;
}

TEST(StatGroup, AddChildIdempotent)
{
    StatGroup parent("p");
    StatGroup child("c");
    Scalar &s = child.addScalar("x", "");
    s += 1;
    parent.addChild(child);
    parent.addChild(child); // must not duplicate
    std::string d = parent.dump();
    auto first = d.find("p.c.x");
    ASSERT_NE(first, std::string::npos);
    EXPECT_EQ(d.find("p.c.x", first + 1), std::string::npos);
}

TEST(StatGroup, DistributionInGroup)
{
    StatGroup g("g");
    Distribution &d = g.addDist("lat", "latency", 100, 10);
    d.sample(50);
    auto flat = g.flatten();
    EXPECT_DOUBLE_EQ(flat["g.lat.mean"], 50.0);
}
