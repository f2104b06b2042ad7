/** @file Tests for the pipeline-event trace facility. */

#include <gtest/gtest.h>

#include <sstream>

#include "exp/json.hh"
#include "sim_test_util.hh"
#include "trace/chrome.hh"
#include "trace/trace.hh"

using namespace sst;
using namespace sst::test;

namespace
{

const char *kOneMiss = R"(
    li   x1, 0x200000
    ld   x2, 0(x1)
    add  x3, x2, x2
    addi x4, x0, 7
    halt
    .data 0x200000
    .word 21
)";

std::vector<trace::TraceEvent>
runStructured(const std::string &model, CoreParams params,
              trace::TraceBuffer &buf)
{
    CoreRun r = makeRun(model, kOneMiss, params);
    r.core->attachTraceBuffer(&buf);
    r.run();
    EXPECT_TRUE(r.archMatchesGolden());
    return buf.snapshot();
}

/** runStructured() rendered by textLog(): the header line, then one
 *  line per event. */
std::vector<std::string>
runTraced(const std::string &model, CoreParams params)
{
    trace::TraceBuffer buf;
    runStructured(model, params, buf);
    std::vector<std::string> lines;
    std::istringstream log(trace::textLog(buf));
    for (std::string line; std::getline(log, line);)
        lines.push_back(line);
    EXPECT_EQ(lines.size(), buf.size() + 1);
    return lines;
}

/** Lines whose event kind (the third field) is @p kind. */
unsigned
countKind(const std::vector<std::string> &lines, const std::string &kind)
{
    unsigned n = 0;
    for (const auto &line : lines) {
        std::istringstream fields(line);
        std::string cycle, strand, k;
        fields >> cycle >> strand >> k;
        n += cycle[0] == 'C' && k == kind;
    }
    return n;
}

} // namespace

TEST(Trace, SstEmitsLifecycleEvents)
{
    auto lines = runTraced("sst", sstParams(2));
    ASSERT_FALSE(lines.empty());
    EXPECT_EQ(lines[0].rfind("trace: ", 0), 0u);
    for (const char *kind :
         {"trigger", "checkpoint", "defer", "replay", "commit"})
        EXPECT_GT(countKind(lines, kind), 0u) << kind;
}

TEST(Trace, ScoutEmitsRollback)
{
    auto lines = runTraced("sst", sstParams(1, true));
    EXPECT_GT(countKind(lines, "trigger"), 0u);
    EXPECT_GT(countKind(lines, "rollback"), 0u);
    EXPECT_EQ(countKind(lines, "replay"), 0u);
}

TEST(Trace, EventsOrderedByCycle)
{
    auto lines = runTraced("sst", sstParams(2));
    ASSERT_GT(lines.size(), 1u);
    std::uint64_t last = 0;
    for (std::size_t i = 1; i < lines.size(); ++i) {
        const std::string &line = lines[i];
        ASSERT_EQ(line[0], 'C') << line;
        std::uint64_t cyc = std::strtoull(line.c_str() + 1, nullptr, 10);
        EXPECT_GE(cyc, last) << line;
        last = cyc;
    }
}

TEST(Trace, ReplayMatchesDeferCount)
{
    auto lines = runTraced("sst", sstParams(2));
    unsigned defers = countKind(lines, "defer");
    // Without rollbacks every deferred instruction replays exactly once.
    EXPECT_EQ(countKind(lines, "rollback"), 0u);
    EXPECT_EQ(defers, countKind(lines, "replay"));
    EXPECT_GE(defers, 2u); // the load and its dependent add
}

TEST(Trace, InOrderLogsFetches)
{
    // The ring covers every model, not only SST's lifecycle.
    auto lines = runTraced("inorder", CoreParams{});
    EXPECT_GT(countKind(lines, "fetch"), 0u);
}

TEST(Trace, TextLogReportsDroppedEvents)
{
    trace::TraceBuffer buf(2);
    for (std::uint64_t i = 0; i < 5; ++i)
        buf.record(trace::TraceEvent{10 + i, 7, i, 3,
                                     trace::TraceKind::Defer,
                                     trace::TraceStrand::Ahead});
    EXPECT_EQ(trace::textLog(buf),
              "trace: 5 events recorded, 3 dropped (the ring keeps the "
              "last 2)\n"
              "C13 ahead defer pc=7 seq=3 arg=3\n"
              "C14 ahead defer pc=7 seq=4 arg=3\n");
}

namespace
{

bool
hasKind(const std::vector<trace::TraceEvent> &events,
        trace::TraceKind kind)
{
    for (const auto &ev : events)
        if (ev.kind == kind)
            return true;
    return false;
}

} // namespace

TEST(TraceBuffer, SstRecordsLifecycle)
{
    trace::TraceBuffer buf;
    auto events = runStructured("sst", sstParams(2), buf);
    ASSERT_FALSE(events.empty());
    EXPECT_TRUE(hasKind(events, trace::TraceKind::Trigger));
    EXPECT_TRUE(hasKind(events, trace::TraceKind::Checkpoint));
    EXPECT_TRUE(hasKind(events, trace::TraceKind::Defer));
    EXPECT_TRUE(hasKind(events, trace::TraceKind::Replay));
    EXPECT_TRUE(hasKind(events, trace::TraceKind::Commit));
    // Both strands show up as distinct lanes.
    bool ahead = false, behind = false;
    for (const auto &ev : events) {
        ahead |= ev.strand == trace::TraceStrand::Ahead;
        behind |= ev.strand == trace::TraceStrand::Behind;
    }
    EXPECT_TRUE(ahead);
    EXPECT_TRUE(behind);
}

TEST(TraceBuffer, EventsAreCycleOrdered)
{
    trace::TraceBuffer buf;
    auto events = runStructured("sst", sstParams(2), buf);
    // Pipeline events are recorded as they happen; Fill events carry
    // their completion cycle, so compare within pipeline strands only.
    Cycle last = 0;
    for (const auto &ev : events) {
        if (ev.strand == trace::TraceStrand::Mem)
            continue;
        EXPECT_GE(ev.cycle, last);
        last = ev.cycle;
    }
}

TEST(TraceBuffer, CacheFillsAreTagged)
{
    trace::TraceBuffer buf;
    CoreRun r = makeRun("sst", kOneMiss, sstParams(2));
    r.core->attachTraceBuffer(&buf);
    r.core->port().l1d().setTrace(&buf, 1);
    r.run();
    bool sawL1 = false;
    for (const auto &ev : buf.snapshot())
        if (ev.kind == trace::TraceKind::Fill) {
            EXPECT_EQ(ev.strand, trace::TraceStrand::Mem);
            sawL1 |= ev.arg == 1;
        }
    EXPECT_TRUE(sawL1);
}

TEST(TraceBuffer, RingOverwritesOldest)
{
    trace::TraceBuffer buf(4);
    for (std::uint64_t i = 0; i < 10; ++i)
        buf.record(trace::TraceEvent{i, i, 0, 0,
                                     trace::TraceKind::Exec,
                                     trace::TraceStrand::Main});
    EXPECT_EQ(buf.recorded(), 10u);
    EXPECT_EQ(buf.dropped(), 6u);
    auto events = buf.snapshot();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events.front().cycle, 6u);
    EXPECT_EQ(events.back().cycle, 9u);
}

TEST(ChromeTrace, ExportIsValidJsonWithStrandLanes)
{
    trace::TraceBuffer buf;
    auto events = runStructured("sst", sstParams(2), buf);
    ASSERT_FALSE(events.empty());
    std::string doc = trace::chromeTraceJson("core (sst)", buf);

    auto parsed = exp::Json::parse(doc);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    const exp::Json root = parsed.take();
    ASSERT_TRUE(root.isObject());
    const exp::Json *traceEvents = root.find("traceEvents");
    ASSERT_NE(traceEvents, nullptr);
    ASSERT_TRUE(traceEvents->isArray());

    bool aheadLane = false, behindLane = false;
    for (std::size_t i = 0; i < traceEvents->size(); ++i) {
        const exp::Json &ev = traceEvents->at(i);
        if (ev["ph"].asString() != "X")
            continue;
        double tid = ev["tid"].asNumber();
        aheadLane |=
            tid == static_cast<double>(trace::TraceStrand::Ahead);
        behindLane |=
            tid == static_cast<double>(trace::TraceStrand::Behind);
    }
    EXPECT_TRUE(aheadLane);
    EXPECT_TRUE(behindLane);
}
