/** @file Unit tests for the set-associative cache model. */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "mem/cache.hh"
#include "snap/snap.hh"

using namespace sst;

namespace
{

CacheParams
smallCache(ReplPolicy policy = ReplPolicy::Lru)
{
    // 4 sets x 2 ways x 64 B lines = 512 B.
    return CacheParams{"c", 512, 2, 64, 3, policy};
}

} // namespace

TEST(Cache, MissThenHit)
{
    StatGroup sg("t");
    Cache c(smallCache(), sg);
    EXPECT_FALSE(c.access(0x100, false, 0).hit);
    c.fill(0x100, 10, false);
    auto r = c.access(0x100, false, 20);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.readyCycle, 23u); // now + hitLatency
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, LineGranularity)
{
    StatGroup sg("t");
    Cache c(smallCache(), sg);
    c.fill(0x100, 0, false);
    EXPECT_TRUE(c.access(0x13f, false, 5).hit);  // same 64B line
    EXPECT_FALSE(c.access(0x140, false, 5).hit); // next line
}

TEST(Cache, InFlightFillReportsFillCompletion)
{
    StatGroup sg("t");
    Cache c(smallCache(), sg);
    c.fill(0x100, 100, false); // data arrives at cycle 100
    auto r = c.access(0x100, false, 10);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.readyCycle, 100u); // hit-under-fill semantics
    r = c.access(0x100, false, 200);
    EXPECT_EQ(r.readyCycle, 203u); // settled afterwards
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    StatGroup sg("t");
    Cache c(smallCache(ReplPolicy::Lru), sg);
    // Set index = (addr>>6) & 3; 0x000, 0x400, 0x800 all map to set 0.
    c.fill(0x000, 0, false);
    c.fill(0x400, 0, false);
    c.access(0x000, false, 1); // make 0x000 MRU
    auto ev = c.fill(0x800, 0, false);
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, 0x400u);
    EXPECT_TRUE(c.contains(0x000));
    EXPECT_FALSE(c.contains(0x400));
}

TEST(Cache, DirtyEvictionReportsWriteback)
{
    StatGroup sg("t");
    Cache c(smallCache(), sg);
    c.fill(0x000, 0, false);
    c.access(0x000, true, 1); // store marks dirty
    c.fill(0x400, 0, false);
    auto ev = c.fill(0x800, 0, false); // evicts 0x000 (LRU)
    EXPECT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(ev.lineAddr, 0x000u);
}

TEST(Cache, FillOfPresentLineMergesState)
{
    StatGroup sg("t");
    Cache c(smallCache(), sg);
    c.fill(0x100, 500, false);
    auto ev = c.fill(0x100, 50, true); // earlier data, dirty
    EXPECT_FALSE(ev.valid);
    auto r = c.access(0x100, false, 60);
    EXPECT_EQ(r.readyCycle, 63u); // readiness improved to min(500,50)
}

TEST(Cache, InvalidateAndFlush)
{
    StatGroup sg("t");
    Cache c(smallCache(), sg);
    c.fill(0x100, 0, false);
    c.fill(0x200, 0, false);
    c.invalidate(0x100);
    EXPECT_FALSE(c.contains(0x100));
    EXPECT_TRUE(c.contains(0x200));
    c.flush();
    EXPECT_FALSE(c.contains(0x200));
}

TEST(Cache, InvalidWaysFilledBeforeEviction)
{
    StatGroup sg("t");
    Cache c(smallCache(), sg);
    auto ev1 = c.fill(0x000, 0, false);
    auto ev2 = c.fill(0x400, 0, false);
    EXPECT_FALSE(ev1.valid);
    EXPECT_FALSE(ev2.valid);
    EXPECT_TRUE(c.contains(0x000));
    EXPECT_TRUE(c.contains(0x400));
}

TEST(Cache, NruPolicyWorks)
{
    StatGroup sg("t");
    Cache c(smallCache(ReplPolicy::Nru), sg);
    c.fill(0x000, 0, false);
    c.fill(0x400, 0, false);
    auto ev = c.fill(0x800, 0, false);
    EXPECT_TRUE(ev.valid); // something was evicted without crashing
}

TEST(Cache, RandomPolicyStaysWithinSet)
{
    StatGroup sg("t");
    Cache c(smallCache(ReplPolicy::Random), sg);
    c.fill(0x000, 0, false);
    c.fill(0x400, 0, false);
    auto ev = c.fill(0x800, 0, false);
    EXPECT_TRUE(ev.valid);
    EXPECT_TRUE(ev.lineAddr == 0x000 || ev.lineAddr == 0x400);
}

TEST(Cache, MissRateFormula)
{
    StatGroup sg("t");
    Cache c(smallCache(), sg);
    c.access(0x100, false, 0); // miss
    c.fill(0x100, 0, false);
    c.access(0x100, false, 1); // hit
    auto flat = sg.flatten();
    EXPECT_DOUBLE_EQ(flat["t.c.miss_rate"], 0.5);
}

TEST(CacheDeath, BadGeometryIsFatal)
{
    StatGroup sg("t");
    CacheParams p{"bad", 512, 3, 64, 1, ReplPolicy::Lru};
    EXPECT_DEATH({ Cache c(p, sg); }, "geometry");
}

namespace
{

/** The cache as an array of per-line structs, probed way by way: the
 *  layout the flat tag/LRU rows replaced. It writes the same snapshot
 *  record, so whole-state equality is a byte comparison. */
class RefCache
{
  public:
    explicit RefCache(const CacheParams &p)
        : p_(p), sets_(static_cast<unsigned>(p.sizeBytes / p.lineBytes
                                              / p.assoc)),
          lines_(p.sizeBytes / p.lineBytes), mru_(sets_, 0)
    {
    }

    Cache::LookupResult access(Addr addr, bool isStore, Cycle now)
    {
        Cache::LookupResult res;
        Line *l = find(addr);
        if (!l)
            return res;
        res.hit = true;
        res.readyCycle = std::max(now + p_.hitLatency, l->ready);
        l->lastUse = ++use_;
        l->nru = true;
        if (isStore)
            l->dirty = true;
        return res;
    }
    bool contains(Addr addr) { return find(addr) != nullptr; }

    Eviction fill(Addr addr, Cycle ready, bool dirty)
    {
        if (Line *l = find(addr)) {
            l->ready = std::min(l->ready, ready);
            l->dirty = l->dirty || dirty;
            return {};
        }
        unsigned set = setOf(addr);
        unsigned way = victim(set);
        mru_[set] = way;
        Line &l = lines_[set * p_.assoc + way];
        Eviction ev;
        if (l.valid) {
            ev.valid = true;
            ev.dirty = l.dirty;
            ev.lineAddr = l.tag << 6;
        }
        l = Line{true, dirty, true, addr >> 6, ++use_, ready};
        return ev;
    }
    void invalidate(Addr addr)
    {
        if (Line *l = find(addr))
            l->valid = false;
    }
    void flush()
    {
        for (Line &l : lines_)
            l = Line{};
    }

    /** Cache::io's record up to the replacement RNG's state (LRU and
     *  NRU never draw from it), written from this model. */
    std::vector<std::uint8_t> bytes() const
    {
        snap::Writer w;
        w.tag("cache");
        w.expect(static_cast<std::uint32_t>(lines_.size()), "cache lines");
        for (const Line &l : lines_) {
            w.b(l.valid);
            w.b(l.dirty);
            w.b(l.nru);
            w.u64(l.tag);
            w.u64(l.lastUse);
            w.u64(l.ready);
        }
        w.expect(static_cast<std::uint32_t>(mru_.size()), "cache sets");
        for (std::uint32_t way : mru_)
            w.u32(way);
        w.u64(use_);
        return w.data();
    }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        bool nru = false;
        Addr tag = 0;
        std::uint64_t lastUse = 0;
        Cycle ready = 0;
    };

    unsigned setOf(Addr addr) const
    {
        return static_cast<unsigned>((addr >> 6) & (sets_ - 1));
    }
    Line *find(Addr addr)
    {
        unsigned set = setOf(addr);
        Addr tag = addr >> 6;
        unsigned hint = mru_[set];
        Line *row = &lines_[set * p_.assoc];
        if (row[hint].valid && row[hint].tag == tag)
            return &row[hint];
        for (unsigned w = 0; w < p_.assoc; ++w) {
            if (w != hint && row[w].valid && row[w].tag == tag) {
                mru_[set] = w;
                return &row[w];
            }
        }
        return nullptr;
    }
    unsigned victim(unsigned set)
    {
        Line *row = &lines_[set * p_.assoc];
        for (unsigned w = 0; w < p_.assoc; ++w)
            if (!row[w].valid)
                return w;
        if (p_.policy == ReplPolicy::Nru) {
            for (int pass = 0; pass < 2; ++pass) {
                for (unsigned w = 0; w < p_.assoc; ++w)
                    if (!row[w].nru)
                        return w;
                for (unsigned w = 0; w < p_.assoc; ++w)
                    row[w].nru = false;
            }
            return 0;
        }
        unsigned v = 0;
        std::uint64_t oldest = ~std::uint64_t{0};
        for (unsigned w = 0; w < p_.assoc; ++w)
            if (row[w].lastUse < oldest) {
                oldest = row[w].lastUse;
                v = w;
            }
        return v;
    }

    CacheParams p_;
    unsigned sets_;
    std::vector<Line> lines_;
    std::vector<std::uint32_t> mru_;
    std::uint64_t use_ = 0;
};

std::vector<std::uint8_t>
cacheBytes(Cache &c)
{
    snap::Writer w;
    c.io(w);
    return w.data();
}

/** cacheBytes() without the trailing replacement-RNG state. */
std::vector<std::uint8_t>
cacheBytesBeforeRng(Cache &c)
{
    snap::Writer rng;
    Rng(1).io(rng);
    auto bytes = cacheBytes(c);
    bytes.resize(bytes.size() - rng.data().size());
    return bytes;
}

} // namespace

TEST(Cache, FlatRowsMatchReferenceUnderChurn)
{
    for (ReplPolicy policy : {ReplPolicy::Lru, ReplPolicy::Nru}) {
        for (unsigned assoc : {1u, 2u, 16u}) {
            SCOPED_TRACE("policy " + std::to_string(int(policy)) + " assoc "
                         + std::to_string(assoc));
            // 8 sets; 24 lines' worth of addresses keep every set full.
            CacheParams p{"c", std::uint64_t{8} * assoc * 64, assoc, 64, 3,
                          policy};
            StatGroup sg("t");
            auto c = std::make_unique<Cache>(p, sg);
            RefCache ref(p);
            Rng rng(0xcac4e0 + assoc);
            Cycle now = 0;
            const Addr span = std::uint64_t{8} * assoc * 3;
            for (int step = 0; step < 40'000; ++step) {
                now += rng.below(3);
                Addr addr = rng.below(span) * 64 + rng.below(64);
                switch (rng.below(64)) {
                  case 0:
                    c->flush();
                    ref.flush();
                    break;
                  case 1: {
                    // io round trip into a fresh cache.
                    auto bytes = cacheBytes(*c);
                    auto restored = std::make_unique<Cache>(p, sg);
                    snap::Reader rd(bytes);
                    restored->io(rd);
                    rd.done();
                    c = std::move(restored);
                    break;
                  }
                  case 2: case 3: case 4: case 5:
                    c->invalidate(addr);
                    ref.invalidate(addr);
                    break;
                  case 6: case 7: case 8: case 9: case 10: case 11:
                    ASSERT_EQ(c->contains(addr), ref.contains(addr))
                        << "step " << step;
                    break;
                  default:
                    if (rng.below(3) == 0) {
                        Cycle ready = now + rng.below(200);
                        bool dirty = rng.below(4) == 0;
                        Eviction a = c->fill(addr, ready, dirty);
                        Eviction b = ref.fill(addr, ready, dirty);
                        ASSERT_EQ(a.valid, b.valid) << "step " << step;
                        ASSERT_EQ(a.dirty, b.dirty) << "step " << step;
                        ASSERT_EQ(a.lineAddr, b.lineAddr) << "step " << step;
                    } else {
                        bool store = rng.below(4) == 0;
                        auto a = c->access(addr, store, now);
                        auto b = ref.access(addr, store, now);
                        ASSERT_EQ(a.hit, b.hit) << "step " << step;
                        ASSERT_EQ(a.readyCycle, b.readyCycle)
                            << "step " << step;
                    }
                    break;
                }
                if (step % 97 == 0) {
                    ASSERT_EQ(cacheBytesBeforeRng(*c), ref.bytes())
                        << "step " << step;
                }
            }
            EXPECT_EQ(cacheBytesBeforeRng(*c), ref.bytes());
        }
    }
}
