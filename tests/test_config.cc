/** @file Unit tests for the configuration store. */

#include <gtest/gtest.h>

#include "common/config.hh"
#include "common/result.hh"
#include "sim/presets.hh"

using namespace sst;

TEST(Config, SetAndGetString)
{
    Config c;
    c.set("a.b", "hello");
    EXPECT_EQ(c.getString("a.b", "x"), "hello");
    EXPECT_TRUE(c.has("a.b"));
    EXPECT_FALSE(c.has("a.c"));
}

TEST(Config, DefaultsReturnedWhenAbsent)
{
    Config c;
    EXPECT_EQ(c.getInt("k", 7), 7);
    EXPECT_EQ(c.getUint("k2", 9u), 9u);
    EXPECT_DOUBLE_EQ(c.getDouble("k3", 1.5), 1.5);
    EXPECT_TRUE(c.getBool("k4", true));
    EXPECT_EQ(c.getString("k5", "d"), "d");
}

TEST(Config, IntParsing)
{
    Config c;
    c.set("dec", "42");
    c.set("neg", "-13");
    c.set("hex", "0x10");
    EXPECT_EQ(c.getInt("dec", 0), 42);
    EXPECT_EQ(c.getInt("neg", 0), -13);
    EXPECT_EQ(c.getInt("hex", 0), 16);
}

TEST(Config, NumericSettersRoundTrip)
{
    Config c;
    c.set("i", std::int64_t{-5});
    c.set("u", std::uint64_t{77});
    c.set("d", 2.25);
    c.set("b", true);
    EXPECT_EQ(c.getInt("i", 0), -5);
    EXPECT_EQ(c.getUint("u", 0), 77u);
    EXPECT_DOUBLE_EQ(c.getDouble("d", 0), 2.25);
    EXPECT_TRUE(c.getBool("b", false));
}

TEST(Config, BoolSpellings)
{
    Config c;
    for (const char *t : {"true", "1", "yes", "on"}) {
        c.set("k", std::string(t));
        EXPECT_TRUE(c.getBool("k", false)) << t;
    }
    for (const char *f : {"false", "0", "no", "off"}) {
        c.set("k", std::string(f));
        EXPECT_FALSE(c.getBool("k", true)) << f;
    }
}

TEST(Config, ParseAssignment)
{
    Config c;
    c.parseAssignment("core.width=4");
    EXPECT_EQ(c.getInt("core.width", 0), 4);
    c.parseAssignment("name=with=equals");
    EXPECT_EQ(c.getString("name", ""), "with=equals");
}

TEST(Config, ParseArgs)
{
    const char *argv_c[] = {"prog", "a=1", "b=two"};
    Config c;
    c.parseArgs(3, const_cast<char **>(argv_c));
    EXPECT_EQ(c.getInt("a", 0), 1);
    EXPECT_EQ(c.getString("b", ""), "two");
}

TEST(Config, MergeOverwrites)
{
    Config a, b;
    a.set("x", 1);
    a.set("y", 2);
    b.set("y", 3);
    b.set("z", 4);
    a.merge(b);
    EXPECT_EQ(a.getInt("x", 0), 1);
    EXPECT_EQ(a.getInt("y", 0), 3);
    EXPECT_EQ(a.getInt("z", 0), 4);
}

TEST(Config, DumpIncludesObservedDefaults)
{
    Config c;
    c.set("set.key", 1);
    (void)c.getInt("defaulted.key", 5);
    std::string d = c.dump();
    EXPECT_NE(d.find("set.key = 1"), std::string::npos);
    EXPECT_NE(d.find("defaulted.key = 5"), std::string::npos);
}

TEST(ConfigDeath, MalformedIntIsFatal)
{
    Config c;
    c.set("k", "notanint");
    EXPECT_DEATH((void)c.getInt("k", 0), "not an integer");
}

TEST(ConfigDeath, MalformedAssignmentIsFatal)
{
    Config c;
    EXPECT_DEATH(c.parseAssignment("noequals"), "key=value");
}

// --- recoverable (Result) paths ----------------------------------------

TEST(ConfigResult, TryGettersReturnValues)
{
    Config c;
    c.set("i", -7);
    c.set("u", std::uint64_t{9});
    c.set("d", 2.5);
    c.set("b", true);
    EXPECT_EQ(c.tryGetInt("i", 0).value(), -7);
    EXPECT_EQ(c.tryGetUint("u", 0).value(), 9u);
    EXPECT_EQ(c.tryGetDouble("d", 0).value(), 2.5);
    EXPECT_TRUE(c.tryGetBool("b", false).value());
    EXPECT_EQ(c.tryGetInt("absent", 42).value(), 42);
}

TEST(ConfigResult, MalformedValueIsAnErrorNotAnExit)
{
    Config c;
    c.set("k", "notanint");
    auto r = c.tryGetInt("k", 0);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().message.find("not an integer"),
              std::string::npos);
}

TEST(ConfigResult, NegativeOrOverflowingUnsignedIsRejected)
{
    Config c;
    c.set("neg", "-1");
    c.set("spaced", " -0");
    c.set("big", "99999999999999999999999");
    c.set("max", "0xffffffffffffffff");
    for (const char *key : {"neg", "spaced", "big"}) {
        auto r = c.tryGetUint(key, 0);
        ASSERT_FALSE(r.ok()) << key;
        EXPECT_NE(r.error().message.find("not an unsigned integer"),
                  std::string::npos);
        EXPECT_EQ(r.error().exitCode, exit_code::badInput);
    }
    EXPECT_EQ(c.tryGetUint("max", 0).value(), ~std::uint64_t{0});

    c.set("ibig", "-99999999999999999999999");
    auto r = c.tryGetInt("ibig", 0);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().message.find("not an integer"), std::string::npos);
    EXPECT_EQ(c.tryGetInt("neg", 0).value(), -1);
}

TEST(ConfigResult, TryParseAssignment)
{
    Config c;
    EXPECT_TRUE(c.tryParseAssignment("a.b=3").ok());
    EXPECT_EQ(c.getInt("a.b", 0), 3);
    auto r = c.tryParseAssignment("noequals");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().message.find("key=value"), std::string::npos);
}

TEST(ConfigResult, TrapFatalConvertsFatalToError)
{
    auto ok = trapFatal([] { return 5; });
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(ok.value(), 5);
    auto bad = trapFatal([]() -> int { fatal("boom %d", 3); });
    ASSERT_FALSE(bad.ok());
    EXPECT_NE(bad.error().message.find("boom 3"), std::string::npos);
}

TEST(EditDistance, Basics)
{
    EXPECT_EQ(editDistance("", ""), 0u);
    EXPECT_EQ(editDistance("abc", "abc"), 0u);
    EXPECT_EQ(editDistance("abc", ""), 3u);
    EXPECT_EQ(editDistance("kitten", "sitting"), 3u);
    EXPECT_EQ(editDistance("fault.drop_fill_rte", "fault.drop_fill_rate"),
              1u);
}

TEST(EditDistance, ClosestMatch)
{
    std::vector<std::string> keys = {"core.checkpoints", "mem.l2_kb",
                                     "fault.seed"};
    EXPECT_EQ(closestMatch("core.checkpoint", keys), "core.checkpoints");
    EXPECT_EQ(closestMatch("falt.seed", keys), "fault.seed");
    EXPECT_EQ(closestMatch("zzzzzzzzzzzzzzzz", keys), "");
    EXPECT_EQ(closestMatch("anything", {}), "");
}

TEST(ConfigResult, ZeroSizedWindowsAreRejected)
{
    for (const char *key : {"core.rob_entries", "core.iq_entries",
                            "core.lsq_entries", "core.issue_width",
                            "core.fetch_width"}) {
        SCOPED_TRACE(key);
        Config c;
        c.set(key, std::uint64_t{0});
        MachineConfig mc = makePreset("ooo-large");
        auto r = trapFatal([&] { applyOverrides(mc, c); });
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.error().exitCode, exit_code::badInput);
        EXPECT_NE(r.error().message.find(key), std::string::npos)
            << r.error().message;

        c.set(key, std::uint64_t{1});
        EXPECT_TRUE(trapFatal([&] { applyOverrides(mc, c); }).ok());
    }
}

TEST(ConfigResult, FaultRatesOutOfRangeAreRejected)
{
    for (const char *key :
         {"fault.drop_fill_rate", "fault.delay_fill_rate",
          "fault.mshr_pressure_rate", "fault.tlb_pressure_rate",
          "fault.force_abort_rate"}) {
        for (const char *bad : {"nan", "-nan", "inf", "-inf", "-1", "1e9",
                                "1.0000001", "-1e-300"}) {
            SCOPED_TRACE(std::string(key) + "=" + bad);
            Config c;
            c.set(key, std::string(bad));
            MachineConfig mc = makePreset("sst2");
            auto r = trapFatal([&] { applyOverrides(mc, c); });
            ASSERT_FALSE(r.ok());
            EXPECT_EQ(r.error().exitCode, exit_code::badInput);
            EXPECT_EQ(r.error().message,
                      std::string(key) + " must be in [0, 1]");
        }
        for (const char *good : {"0", "1", "0.5", "1e-4", "4.9e-324"}) {
            SCOPED_TRACE(std::string(key) + "=" + good);
            Config c;
            c.set(key, std::string(good));
            MachineConfig mc = makePreset("sst2");
            EXPECT_TRUE(trapFatal([&] { applyOverrides(mc, c); }).ok());
        }
    }
}
