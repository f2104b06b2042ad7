/**
 * @file
 * Unit tests for the snap serialization layer: the Writer/Reader
 * primitives (including the on-the-wire little-endian byte layout the
 * cross-machine hash depends on), the corruption discipline (tag
 * mismatches and truncation are fatal, never silent), the FNV hash,
 * the atomic file helpers, and save/load round trips of the leaf
 * components (Rng, Distribution, StatGroup, TraceBuffer).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "isa/instruction.hh"
#include "snap/snap.hh"
#include "trace/trace.hh"

using namespace sst;

namespace
{

/** Unique temp path per test (tests may run concurrently). */
std::string
tmpPath(const std::string &stem)
{
    return ::testing::TempDir() + "sstsim_" + stem + "_"
           + std::to_string(::getpid()) + ".snap";
}

} // namespace

TEST(Snap, PrimitiveRoundTrip)
{
    snap::Writer w;
    w.u8(0xab);
    w.u16(0xbeef);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefULL);
    w.i32(-42);
    w.i64(-1234567890123LL);
    w.b(true);
    w.b(false);
    w.f64(3.14159265358979);
    w.str("hello");
    w.str("");
    const std::uint8_t raw[3] = {1, 2, 3};
    w.bytes(raw, sizeof raw);

    snap::Reader r(w.data());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u16(), 0xbeef);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(r.i32(), -42);
    EXPECT_EQ(r.i64(), -1234567890123LL);
    EXPECT_TRUE(r.b());
    EXPECT_FALSE(r.b());
    EXPECT_EQ(r.f64(), 3.14159265358979);
    EXPECT_EQ(r.str(), "hello");
    EXPECT_EQ(r.str(), "");
    std::uint8_t got[3] = {};
    r.bytes(got, sizeof got);
    EXPECT_EQ(got[0], 1);
    EXPECT_EQ(got[1], 2);
    EXPECT_EQ(got[2], 3);
    EXPECT_TRUE(r.atEnd());
    r.done();
}

/** The encoding is little-endian by definition, not by host accident —
 *  this is what makes snapshots and state hashes portable. */
TEST(Snap, LittleEndianLayout)
{
    snap::Writer w;
    w.u32(0x01020304u);
    ASSERT_EQ(w.size(), 4u);
    EXPECT_EQ(w.data()[0], 0x04);
    EXPECT_EQ(w.data()[1], 0x03);
    EXPECT_EQ(w.data()[2], 0x02);
    EXPECT_EQ(w.data()[3], 0x01);

    snap::Writer w2;
    w2.u64(0x1122334455667788ULL);
    ASSERT_EQ(w2.size(), 8u);
    EXPECT_EQ(w2.data()[0], 0x88);
    EXPECT_EQ(w2.data()[7], 0x11);
}

TEST(Snap, TagMismatchIsFatal)
{
    snap::Writer w;
    w.tag("caches");
    auto res = trapFatal([&] {
        snap::Reader r(w.data());
        r.tag("predictor");
    });
    ASSERT_FALSE(res.ok());
    EXPECT_NE(res.error().message.find("predictor"), std::string::npos);
}

TEST(Snap, TruncationIsFatal)
{
    snap::Writer w;
    w.u16(7);
    auto res = trapFatal([&] {
        snap::Reader r(w.data());
        (void)r.u64(); // only 2 bytes available
    });
    EXPECT_FALSE(res.ok());
}

/** A count whose elements cannot fit in the remaining bytes is fatal
 *  before anything is sized from it: the SSQ / load-log shape, a u32
 *  prefix of 0xFFFFFFFF. */
TEST(Snap, CountBeyondRemainingBytesIsFatal)
{
    snap::Writer w;
    w.u32(0xFFFFFFFFu);
    w.u64(1);
    w.u64(2);
    auto res = trapFatal([&] {
        snap::Reader r(w.data());
        std::vector<std::uint64_t> v;
        snap::seq(r, snap::Width::u32, v, 8,
                  [&](std::uint64_t &x) { r.u64(x); });
    });
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().exitCode, exit_code::badInput);
    EXPECT_NE(res.error().message.find("count 4294967295"),
              std::string::npos)
        << res.error().message;

    // The same sequence with an honest count loads.
    snap::Writer ok;
    std::vector<std::uint64_t> src{1, 2};
    snap::seq(ok, snap::Width::u32, src, 8,
              [&](std::uint64_t &x) { ok.u64(x); });
    snap::Reader r(ok.data());
    std::vector<std::uint64_t> dst;
    snap::seq(r, snap::Width::u32, dst, 8,
              [&](std::uint64_t &x) { r.u64(x); });
    r.done();
    EXPECT_EQ(dst, src);

    // A count above the caller's limit is rejected too.
    auto over = trapFatal([&] {
        snap::Reader r2(ok.data());
        (void)r2.count(snap::Width::u32, 0, 8, 1);
    });
    EXPECT_FALSE(over.ok());
}

/** Instruction words read from a snapshot are validated with fatal():
 *  an illegal opcode or a register field past x31 is corrupt input. */
TEST(Snap, CorruptInstructionWordIsFatal)
{
    Inst badReg = inst::rrr(Opcode::ADD, 1, 2, 3);
    badReg.rs2 = 40; // encodable in the 6-bit field, past the file
    const std::uint64_t words[] = {
        std::uint64_t{0xff} << 56, // opcode field past NumOpcodes
        badReg.encode(),
    };
    for (std::uint64_t word : words) {
        snap::Writer w;
        w.u64(word);
        auto res = trapFatal([&] {
            snap::Reader r(w.data());
            Inst i;
            i.io(r);
        });
        ASSERT_FALSE(res.ok()) << std::hex << word;
        EXPECT_NE(res.error().message.find("corrupt snapshot"),
                  std::string::npos)
            << res.error().message;
    }

    Inst good = inst::rrr(Opcode::ADD, 31, 2, 3);
    snap::Writer w;
    snap::save(w, good);
    snap::Reader r(w.data());
    Inst back;
    back.io(r);
    EXPECT_EQ(back, good);
}

TEST(Snap, TrailingGarbageIsFatal)
{
    snap::Writer w;
    w.u32(1);
    w.u8(0xcc); // one byte the reader will not consume
    auto res = trapFatal([&] {
        snap::Reader r(w.data());
        (void)r.u32();
        r.done();
    });
    EXPECT_FALSE(res.ok());
}

TEST(Snap, HasherMatchesOneShotFnv)
{
    const char payload[] = "simultaneous speculative threading";
    snap::Hasher h;
    h.mix(payload, 10);
    h.mix(payload + 10, sizeof(payload) - 10);
    EXPECT_EQ(h.value(), snap::fnv1a(payload, sizeof(payload)));

    // Writer::hash() is the same function over the serialized bytes.
    snap::Writer w;
    w.str("abc");
    w.u64(99);
    EXPECT_EQ(w.hash(), snap::fnv1a(w.data().data(), w.size()));
}

TEST(Snap, FileRoundTrip)
{
    const std::string path = tmpPath("file_roundtrip");
    std::vector<std::uint8_t> bytes = {0, 1, 2, 254, 255, 0, 42};
    auto wr = snap::writeFile(path, bytes);
    ASSERT_TRUE(wr.ok()) << wr.error().message;
    auto rd = snap::readFile(path);
    ASSERT_TRUE(rd.ok()) << rd.error().message;
    EXPECT_EQ(rd.value(), bytes);
    std::remove(path.c_str());
}

TEST(Snap, ReadMissingFileIsAnError)
{
    auto rd = snap::readFile(tmpPath("no_such_file"));
    EXPECT_FALSE(rd.ok());
}

TEST(Snap, ReadDirectoryIsACleanError)
{
    // A directory opens fine, and fseek/ftell would size it as a huge
    // file; readFile must refuse it before allocating anything.
    auto rd = snap::readFile(::testing::TempDir());
    ASSERT_FALSE(rd.ok());
    EXPECT_NE(rd.error().message.find("not a regular file"),
              std::string::npos)
        << rd.error().message;
    EXPECT_EQ(rd.error().exitCode, exit_code::badInput);
}

/** An Rng restored mid-stream must continue the exact stream. */
TEST(Snap, RngRoundTrip)
{
    Rng rng(0x1234abcdULL);
    for (int i = 0; i < 1000; ++i)
        (void)rng.next();

    snap::Writer w;
    snap::save(w, rng);
    std::vector<std::uint64_t> expect;
    for (int i = 0; i < 100; ++i)
        expect.push_back(rng.next());

    Rng other(999); // deliberately different seed
    snap::Reader r(w.data());
    other.io(r);
    r.done();
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(other.next(), expect[i]) << "draw " << i;
}

TEST(Snap, DistributionRoundTrip)
{
    Distribution d;
    d.init(100, 10);
    for (std::uint64_t v : {3ULL, 55ULL, 99ULL, 250ULL})
        d.sample(v);
    d.sample(7, 12); // bulk path

    snap::Writer w;
    snap::save(w, d);

    Distribution e;
    e.init(100, 10); // geometry is config, re-established by init()
    snap::Reader r(w.data());
    e.io(r);
    r.done();

    EXPECT_EQ(e.count(), d.count());
    EXPECT_EQ(e.sum(), d.sum());
    EXPECT_EQ(e.maxSample(), d.maxSample());
    EXPECT_EQ(e.overflow(), d.overflow());
    EXPECT_EQ(e.buckets(), d.buckets());
    EXPECT_EQ(e.toJson(), d.toJson());
}

TEST(Snap, StatGroupRoundTripAndValidation)
{
    StatGroup g("core");
    Scalar &a = g.addScalar("insts", "retired");
    Scalar &b = g.addScalar("cycles", "elapsed");
    Distribution &d = g.addDist("occupancy", "dq occupancy", 64, 8);
    g.addFormula("ipc", "derived", [&] {
        return double(a.value()) / double(b.value() ? b.value() : 1);
    });
    a += 1000;
    b += 500;
    d.sample(13);

    snap::Writer w;
    snap::save(w, g);

    // Identically shaped tree: values transfer (and the formula,
    // being derived, recomputes from the restored scalars).
    StatGroup g2("core");
    Scalar &a2 = g2.addScalar("insts", "retired");
    Scalar &b2 = g2.addScalar("cycles", "elapsed");
    g2.addDist("occupancy", "dq occupancy", 64, 8);
    g2.addFormula("ipc", "derived", [&] {
        return double(a2.value()) / double(b2.value() ? b2.value() : 1);
    });
    {
        snap::Reader r(w.data());
        g2.io(r);
        r.done();
    }
    EXPECT_EQ(a2.value(), 1000u);
    EXPECT_EQ(g2.flatten(), g.flatten());

    // Differently shaped tree: load is fatal, with the stat named.
    StatGroup g3("core");
    g3.addScalar("instructions", "renamed stat");
    g3.addScalar("cycles", "elapsed");
    g3.addDist("occupancy", "dq occupancy", 64, 8);
    auto res = trapFatal([&] {
        snap::Reader r(w.data());
        g3.io(r);
    });
    EXPECT_FALSE(res.ok());
}

TEST(Snap, TraceBufferRoundTrip)
{
    // Small capacity so the test also exercises the overwrite cursors.
    trace::TraceBuffer buf(16);
    for (std::uint64_t i = 0; i < 32; ++i) {
        trace::TraceEvent e;
        e.cycle = 10 * i;
        e.pc = i;
        e.seq = i;
        e.arg = static_cast<std::uint32_t>(i * 3);
        e.kind = trace::TraceKind::Commit;
        e.strand = (i & 1) ? trace::TraceStrand::Ahead
                           : trace::TraceStrand::Main;
        buf.record(e);
    }

    snap::Writer w;
    snap::save(w, buf);

    trace::TraceBuffer other(16);
    snap::Reader r(w.data());
    other.io(r);
    r.done();

    // Capacity is configuration, not state: a mismatch is fatal.
    trace::TraceBuffer wrongCap(32);
    auto res = trapFatal([&] {
        snap::Reader r2(w.data());
        wrongCap.io(r2);
    });
    EXPECT_FALSE(res.ok());

    EXPECT_EQ(other.recorded(), buf.recorded());
    EXPECT_EQ(other.dropped(), buf.dropped());
    auto x = buf.snapshot();
    auto y = other.snapshot();
    ASSERT_EQ(x.size(), y.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_EQ(x[i].cycle, y[i].cycle);
        EXPECT_EQ(x[i].pc, y[i].pc);
        EXPECT_EQ(x[i].kind, y[i].kind);
    }
}

namespace
{

/** The bytes of a 4-slot TraceBuffer holding @p events events under the
 *  given cursors, written field by field so they can break the ring's
 *  own invariants. */
std::vector<std::uint8_t>
traceBufferBytes(std::uint64_t oldest, std::uint64_t recorded,
                 std::uint64_t dropped, std::size_t events)
{
    snap::Writer w;
    w.tag("tracebuf");
    w.expect(std::uint64_t{4}, "trace buffer capacity");
    w.u64(oldest);
    w.u64(recorded);
    w.u64(dropped);
    w.count(snap::Width::u64, events, 30);
    for (std::size_t i = 0; i < events; ++i) {
        w.u64(i);
        w.u64(i);
        w.u64(i);
        w.u32(0);
        w.enum8(trace::TraceKind::Exec, trace::TraceKind::NumKinds, "");
        w.enum8(trace::TraceStrand::Main, trace::TraceStrand::NumStrands,
                "");
    }
    return w.take();
}

} // namespace

TEST(Snap, TraceBufferCursorsAreValidated)
{
    trace::TraceBuffer buf(4);
    auto load = [&buf](std::vector<std::uint8_t> bytes) {
        return trapFatal([&] {
            snap::Reader r(bytes);
            buf.io(r);
            r.done();
        });
    };
    // Consistent cursors: a wrapped ring and a partly filled one.
    ASSERT_TRUE(load(traceBufferBytes(3, 9, 5, 4)).ok());
    buf.record(trace::TraceEvent{9});
    EXPECT_EQ(buf.snapshot().front().cycle, 0u);
    EXPECT_EQ(buf.snapshot().back().cycle, 9u);
    EXPECT_TRUE(load(traceBufferBytes(0, 3, 0, 3)).ok());

    // oldest past the ring: the next record() would write out of bounds.
    auto res = load(traceBufferBytes(4, 9, 5, 4));
    ASSERT_FALSE(res.ok());
    EXPECT_NE(res.error().message.find("trace buffer cursors"),
              std::string::npos);
    // A ring that is not full has never wrapped.
    EXPECT_FALSE(load(traceBufferBytes(1, 3, 0, 3)).ok());
    // More drops, or more retained events, than were ever recorded.
    EXPECT_FALSE(load(traceBufferBytes(0, 5, 6, 4)).ok());
    EXPECT_FALSE(load(traceBufferBytes(0, 2, 0, 3)).ok());
}

TEST(Snap, WriteFileReportsUnwritableTargets)
{
    // A parent path component that is a regular file fails for any
    // uid (ENOTDIR) — unlike permission-based setups, which evaporate
    // when the tests run as root.
    const std::string blocker = tmpPath("write_blocker");
    {
        auto wr = snap::writeFile(blocker, {1, 2, 3});
        ASSERT_TRUE(wr.ok()) << wr.error().message;
    }
    auto wr = snap::writeFile(blocker + "/nested.snap", {4, 5, 6});
    ASSERT_FALSE(wr.ok());
    EXPECT_NE(wr.error().message.find("cannot open"), std::string::npos)
        << wr.error().message;

    // A missing parent directory fails too, and leaves nothing behind.
    auto missing =
        snap::writeFile(blocker + "_no_such_dir/x.snap", {7});
    EXPECT_FALSE(missing.ok());
    std::remove(blocker.c_str());
}

TEST(Snap, WriteFileStagesThroughPerProcessTmp)
{
    // The staging file is pid-suffixed so two processes writing the
    // same checkpoint (a re-leased job's new worker racing its stalled
    // predecessor) never rename each other's half-written files, and
    // it must be gone once writeFile returns.
    const std::string path = tmpPath("write_stage");
    auto wr = snap::writeFile(path, {9, 9, 9});
    ASSERT_TRUE(wr.ok()) << wr.error().message;
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    EXPECT_FALSE(snap::readFile(tmp).ok())
        << "staging file must not survive";
    EXPECT_TRUE(snap::readFile(path).ok());
    std::remove(path.c_str());
}

TEST(Snap, ProbeSnapshotFileDiagnosesHeaderDamage)
{
    // Missing file.
    EXPECT_FALSE(snap::probeSnapshotFile(tmpPath("probe_none")).ok());

    // Too short to even hold the magic+version header: the torn-write
    // shape a SIGKILLed worker leaves behind without atomic staging.
    const std::string shortPath = tmpPath("probe_short");
    ASSERT_TRUE(snap::writeFile(shortPath, {1, 2, 3}).ok());
    auto shortProbe = snap::probeSnapshotFile(shortPath);
    ASSERT_FALSE(shortProbe.ok());
    EXPECT_NE(shortProbe.error().message.find("truncated"),
              std::string::npos)
        << shortProbe.error().message;
    std::remove(shortPath.c_str());

    // Right size, wrong magic.
    const std::string badPath = tmpPath("probe_badmagic");
    ASSERT_TRUE(
        snap::writeFile(badPath, std::vector<std::uint8_t>(32, 0xee))
            .ok());
    auto badProbe = snap::probeSnapshotFile(badPath);
    ASSERT_FALSE(badProbe.ok());
    EXPECT_NE(badProbe.error().message.find("bad magic"),
              std::string::npos)
        << badProbe.error().message;
    std::remove(badPath.c_str());

    // Good magic, future format version.
    snap::Writer w;
    w.u64(snap::fileMagic);
    w.u32(snap::formatVersion + 1);
    const std::string versPath = tmpPath("probe_version");
    ASSERT_TRUE(snap::writeFile(versPath, w.data()).ok());
    auto versProbe = snap::probeSnapshotFile(versPath);
    ASSERT_FALSE(versProbe.ok());
    EXPECT_NE(versProbe.error().message.find("format version"),
              std::string::npos)
        << versProbe.error().message;

    // A well-formed header passes the probe.
    snap::Writer good;
    good.u64(snap::fileMagic);
    good.u32(snap::formatVersion);
    ASSERT_TRUE(snap::writeFile(versPath, good.data()).ok());
    EXPECT_TRUE(snap::probeSnapshotFile(versPath).ok());
    std::remove(versPath.c_str());
}
