#include "workloads/workloads.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"
#include "func/memory_image.hh"
#include "isa/builder.hh"

namespace sst
{

namespace
{

// Shared data-layout constants. Code sits at Program::codeBase()
// (0x100000); all workload data lives above dataBase.
constexpr Addr resultAddr = 0x1f0000;
constexpr Addr dataBase = 0x200000;

// Largest scaled count (table entries, nodes, iterations) a generator
// builds. The host holds a few words per element while it generates,
// so a scale past this fails here rather than in the allocator.
constexpr double maxScaledCount = 0x1p28;

/** @p base * @p scale; fatal unless the scale is finite and > 0 and
 *  the product is at most maxScaledCount. */
double
checkedScale(std::uint64_t base, double scale, const char *what)
{
    fatal_if(!std::isfinite(scale) || scale <= 0,
             "%s must be a positive finite number", what);
    double target = static_cast<double>(base) * scale;
    fatal_if(target > maxScaledCount,
             "%s %g is too large: a scaled count exceeds 2^28", what,
             scale);
    return target;
}

/** Round to the nearest power of two, at least @p floor. */
std::uint64_t
scalePow2(std::uint64_t base, double scale, std::uint64_t floor)
{
    double target = checkedScale(base, scale, "footprint_scale");
    std::uint64_t v = floor;
    while (static_cast<double>(v) * 1.5 < target)
        v <<= 1;
    return v;
}

std::uint64_t
scaleCount(std::uint64_t base, double scale)
{
    auto v = static_cast<std::uint64_t>(
        checkedScale(base, scale, "length_scale"));
    return std::max<std::uint64_t>(v, 16);
}

/** Fatal unless both of @p params' scales are finite, > 0 and at most
 *  maxScaledCount. */
void
checkScales(const WorkloadParams &params)
{
    checkedScale(1, params.lengthScale, "length_scale");
    checkedScale(1, params.footprintScale, "footprint_scale");
}

/** xorshift64 in registers: x ^= x<<13; x ^= x>>7; x ^= x<<17. */
void
emitXorshift(Builder &b, RegId x, RegId tmp)
{
    b.slli(tmp, x, 13).xor_(x, x, tmp);
    b.srli(tmp, x, 7).xor_(x, x, tmp);
    b.slli(tmp, x, 17).xor_(x, x, tmp);
}

/** Store the checksum register to resultAddr and halt. */
void
emitEpilogue(Builder &b, RegId checksum)
{
    b.li(30, static_cast<std::int64_t>(resultAddr));
    b.st(checksum, 30, 0);
    b.halt();
}

/** A double in [1, 2) as raw bits (well-behaved FP data). */
std::uint64_t
safeDoubleBits(Rng &rng)
{
    return 0x3ff0000000000000ULL | (rng.next() >> 12);
}

// --- shared-memory workloads ---------------------------------------

// Layout: spinlocks live at dataBase, one per 64 B line so lock and
// data traffic never false-share; shared payload starts one page up.
constexpr Addr lockBase = dataBase;
constexpr Addr sharedBase = dataBase + 4096;

/** Store core @p core's checksum to its private result slot and halt. */
void
emitSharedEpilogue(Builder &b, RegId checksum, unsigned core)
{
    b.li(30, static_cast<std::int64_t>(resultAddr + core * 8ULL));
    b.st(checksum, 30, 0);
    b.halt();
}

/**
 * Spin until the lock at (lockReg) is taken: rd gets the old value, 0
 * means we own it. The held token is core+1, so a memory dump shows
 * who owns each lock. The spin retires an instruction per attempt,
 * which keeps the livelock watchdog quiet under heavy contention.
 */
void
emitAcquire(Builder &b, RegId lockReg, RegId token, RegId old,
            const std::string &label)
{
    b.label(label);
    b.amoswap(old, token, lockReg, 0);
    b.bne(old, 0, label);
}

/** Release = plain store of 0 (the SLE release idiom). */
void
emitRelease(Builder &b, RegId lockReg)
{
    b.st(0, lockReg, 0);
}

Workload
makeSpinlockCounter(unsigned core, unsigned cores,
                    const WorkloadParams &params)
{
    (void)cores;
    Rng coreRng(params.seed + 21 + core * 1000);
    const std::uint64_t slots =
        scalePow2(64, params.footprintScale, 8); // 8 lines by default
    const std::uint64_t iters = scaleCount(2000, params.lengthScale);
    const Addr ctrBase = sharedBase;

    Builder b("spinlock_counter.c" + std::to_string(core));
    b.li(5, static_cast<std::int64_t>(lockBase));
    b.li(6, static_cast<std::int64_t>(ctrBase));
    b.li(7, static_cast<std::int64_t>(iters));
    b.li(9, 0); // checksum
    b.li(10, static_cast<std::int64_t>(coreRng.next() | 1)); // prng
    b.li(20, static_cast<std::int64_t>(core + 1));           // token
    b.li(21, static_cast<std::int64_t>(slots - 1));          // mask
    b.label("loop");
    emitXorshift(b, 10, 31);
    b.and_(11, 10, 21);
    b.slli(11, 11, 3);
    b.add(11, 11, 6); // &counters[prng & mask]
    emitAcquire(b, 5, 20, 12, "acquire");
    b.ld(13, 11, 0); // critical section: counters[slot]++
    b.addi(13, 13, 1);
    b.st(13, 11, 0);
    b.add(9, 9, 13);
    emitRelease(b, 5);
    b.addi(7, 7, -1);
    b.bne(7, 0, "loop");
    emitSharedEpilogue(b, 9, core);
    // Identical init image from every core: lock free, counters zero.
    b.words(lockBase, {0});
    b.words(ctrBase, std::vector<std::uint64_t>(slots, 0));

    Workload w;
    w.name = "spinlock_counter";
    w.category = "shared";
    w.approxDynInsts = iters * 14;
    w.program = b.finish();
    return w;
}

Workload
makeProducerConsumer(unsigned core, unsigned cores,
                     const WorkloadParams &params)
{
    fatal_if(cores < 2 || cores % 2 != 0,
             "producer_consumer needs an even core count, got %u", cores);
    Rng coreRng(params.seed + 22 + core * 1000);
    const std::uint64_t items = scaleCount(1500, params.lengthScale);
    const unsigned capacity = 16; // ring entries (power of two)

    // Ring k (cores 2k and 2k+1): lock on its own line, head/tail in
    // one control line, then the entry buffer.
    const unsigned ring = core / 2;
    const Addr lockAddr = lockBase + ring * 64ULL;
    const Addr ctlAddr = sharedBase + ring * 4096ULL; // head@0 tail@8
    const Addr bufAddr = ctlAddr + 64;

    const bool producer = core % 2 == 0;
    Builder b(std::string(producer ? "producer" : "consumer") + ".c"
              + std::to_string(core));
    b.li(5, static_cast<std::int64_t>(lockAddr));
    b.li(6, static_cast<std::int64_t>(ctlAddr));
    b.li(8, static_cast<std::int64_t>(bufAddr));
    b.li(7, static_cast<std::int64_t>(items));
    b.li(9, 0); // checksum
    b.li(10, static_cast<std::int64_t>(coreRng.next() | 1)); // prng
    b.li(20, static_cast<std::int64_t>(core + 1));           // token
    b.li(21, capacity);
    b.li(22, capacity - 1); // index mask
    if (producer) {
        b.label("loop");
        emitXorshift(b, 10, 31); // the item to publish
        emitAcquire(b, 5, 20, 12, "acquire");
        b.ld(13, 6, 0); // head
        b.ld(14, 6, 8); // tail
        b.sub(15, 13, 14);
        b.bgeu(15, 21, "full");
        b.and_(16, 13, 22);
        b.slli(16, 16, 3);
        b.add(16, 16, 8);
        b.st(10, 16, 0); // buf[head & mask] = item
        b.addi(13, 13, 1);
        b.st(13, 6, 0); // publish head
        emitRelease(b, 5);
        b.add(9, 9, 10);
        b.addi(7, 7, -1);
        b.bne(7, 0, "loop");
        b.j("done");
        // Ring full: drop the lock and wait on the head/tail counters
        // themselves before retrying.  Spinning on the lock instead
        // would livelock — the deterministic round-robin tick and the
        // fixed coherence latencies can phase-lock so the waiter's
        // amoswap always samples the lock held.
        b.label("full");
        emitRelease(b, 5);
        b.label("wait");
        b.ld(13, 6, 0);
        b.ld(14, 6, 8);
        b.sub(15, 13, 14);
        b.bgeu(15, 21, "wait");
        b.j("acquire");
        b.label("done");
    } else {
        b.label("loop");
        emitAcquire(b, 5, 20, 12, "acquire");
        b.ld(13, 6, 0); // head
        b.ld(14, 6, 8); // tail
        b.beq(13, 14, "empty");
        b.and_(16, 14, 22);
        b.slli(16, 16, 3);
        b.add(16, 16, 8);
        b.ld(17, 16, 0); // take buf[tail & mask]
        b.addi(14, 14, 1);
        b.st(14, 6, 8); // publish tail
        emitRelease(b, 5);
        b.add(9, 9, 17);
        b.addi(7, 7, -1);
        b.bne(7, 0, "loop");
        b.j("done");
        b.label("empty");
        emitRelease(b, 5); // see the producer's "full" path
        b.label("wait");
        b.ld(13, 6, 0);
        b.ld(14, 6, 8);
        b.beq(13, 14, "wait");
        b.j("acquire");
        b.label("done");
    }
    emitSharedEpilogue(b, 9, core);
    // Identical init image: all rings' locks free, heads/tails zero,
    // buffers zero. Every core emits the full layout for every ring.
    for (unsigned r = 0; r < cores / 2; ++r) {
        b.words(lockBase + r * 64ULL, {0});
        b.words(sharedBase + r * 4096ULL,
                std::vector<std::uint64_t>(8 + capacity, 0));
    }

    Workload w;
    w.name = "producer_consumer";
    w.category = "shared";
    w.approxDynInsts = items * 17;
    w.program = b.finish();
    return w;
}

Workload
makeSharedTable(unsigned core, unsigned cores,
                const WorkloadParams &params)
{
    (void)cores;
    // Table contents are drawn from a seed-only stream so every core
    // emits a byte-identical init image.
    Rng dataRng(params.seed + 23);
    Rng coreRng(params.seed + 24 + core * 1000);
    const std::uint64_t entries =
        scalePow2(512, params.footprintScale, 64);
    const std::uint64_t iters = scaleCount(2500, params.lengthScale);
    const Addr tableBase = sharedBase;

    std::vector<std::uint64_t> table(entries);
    for (auto &v : table)
        v = dataRng.next() & 0xffff;

    Builder b("shared_table.c" + std::to_string(core));
    b.li(5, static_cast<std::int64_t>(lockBase));
    b.li(6, static_cast<std::int64_t>(tableBase));
    b.li(7, static_cast<std::int64_t>(iters));
    b.li(9, 0); // checksum
    b.li(10, static_cast<std::int64_t>(coreRng.next() | 1)); // prng
    b.li(20, static_cast<std::int64_t>(core + 1));           // token
    b.li(21, static_cast<std::int64_t>(entries - 1));        // mask
    b.label("loop");
    emitXorshift(b, 10, 31);
    b.and_(11, 10, 21);
    b.slli(11, 11, 3);
    b.add(11, 11, 6); // &table[prng & mask]
    emitAcquire(b, 5, 20, 12, "acquire");
    b.ld(13, 11, 0); // lookup (the common case: read-only section)
    b.add(9, 9, 13);
    b.andi(14, 10, 15);
    b.bne(14, 0, "release"); // ~1/16 of sections also update
    b.addi(13, 13, 1);
    b.st(13, 11, 0);
    b.label("release");
    emitRelease(b, 5);
    b.addi(7, 7, -1);
    b.bne(7, 0, "loop");
    emitSharedEpilogue(b, 9, core);
    b.words(lockBase, {0});
    b.words(tableBase, table);

    Workload w;
    w.name = "shared_table";
    w.category = "shared";
    w.approxDynInsts = iters * 14;
    w.program = b.finish();
    return w;
}

} // namespace

Workload
makePointerChase(const WorkloadParams &params)
{
    Rng rng(params.seed);
    const std::uint64_t nodes = scalePow2(1 << 16, params.footprintScale,
                                          1 << 10); // 64 B per node
    const std::uint64_t steps = scaleCount(20000, params.lengthScale);

    // Sattolo's algorithm: one random cycle through all nodes, so the
    // traversal never short-circuits and defeats spatial prefetching.
    std::vector<std::uint64_t> perm(nodes);
    for (std::uint64_t i = 0; i < nodes; ++i)
        perm[i] = i;
    for (std::uint64_t i = nodes - 1; i > 0; --i)
        std::swap(perm[i], perm[rng.below(i)]);

    std::vector<std::uint64_t> image(nodes * 8, 0);
    for (std::uint64_t i = 0; i < nodes; ++i) {
        image[i * 8] = dataBase + perm[i] * 64;
        image[i * 8 + 1] = rng.next();
    }

    Builder b("pointer_chase");
    b.li(5, static_cast<std::int64_t>(dataBase)); // current node
    b.li(6, 0);                                   // checksum
    b.li(7, static_cast<std::int64_t>(steps));    // steps left
    b.label("loop");
    b.ld(8, 5, 8);       // payload
    b.add(6, 6, 8);
    b.ld(5, 5, 0);       // next pointer: the dependent miss chain
    b.addi(7, 7, -1);
    b.bne(7, 0, "loop");
    emitEpilogue(b, 6);
    b.words(dataBase, image);

    Workload w;
    w.name = "pointer_chase";
    w.category = "commercial";
    w.approxDynInsts = steps * 5;
    w.program = b.finish();
    return w;
}

Workload
makeListWalk(const WorkloadParams &params)
{
    Rng rng(params.seed + 11);
    // Allocation-order linked list: node i lives at i * 5 lines, so
    // the next pointers form an arithmetic sequence (what a bump
    // allocator produces) while the 5-line stride stays outside the
    // next-line prefetcher's reach. The address chain is serially
    // dependent like pointer_chase, but the link *values* are
    // stride-predictable — the case load-value prediction converts.
    // ~1/32 of the links splice forward over a random run of nodes (a
    // freelist reuse), so a confident value predictor still pays for
    // occasional wrong guesses. Splices only ever skip ahead: a
    // backward link would close a short deterministic cycle and
    // collapse the working set.
    constexpr std::uint64_t nodeBytes = 5 * 64;
    const std::uint64_t nodes =
        scalePow2(1 << 15, params.footprintScale, 1 << 10);
    const std::uint64_t steps = scaleCount(20000, params.lengthScale);

    constexpr std::uint64_t nodeWords = nodeBytes / 8;
    std::vector<std::uint64_t> image(nodes * nodeWords, 0);
    for (std::uint64_t i = 0; i < nodes; ++i) {
        std::uint64_t skip = rng.below(32) == 0 ? 1 + rng.below(63) : 0;
        std::uint64_t next = (i + 1 + skip) % nodes;
        image[i * nodeWords] = dataBase + next * nodeBytes;
        image[i * nodeWords + 1] = rng.next();
    }

    Builder b("list_walk");
    b.li(5, static_cast<std::int64_t>(dataBase)); // current node
    b.li(6, 0);                                   // checksum
    b.li(7, static_cast<std::int64_t>(steps));    // steps left
    b.label("loop");
    b.ld(8, 5, 8); // payload
    b.add(6, 6, 8);
    b.ld(5, 5, 0); // next link: dependent, but value-predictable
    b.addi(7, 7, -1);
    b.bne(7, 0, "loop");
    emitEpilogue(b, 6);
    b.words(dataBase, image);

    Workload w;
    w.name = "list_walk";
    w.category = "commercial";
    w.approxDynInsts = steps * 5;
    w.program = b.finish();
    return w;
}

Workload
makeHashJoin(const WorkloadParams &params)
{
    Rng rng(params.seed + 1);
    const std::uint64_t entries =
        scalePow2(1 << 19, params.footprintScale, 1 << 12); // 8 B each
    const std::uint64_t probes = scaleCount(8000, params.lengthScale);

    std::vector<std::uint64_t> table(entries);
    for (auto &v : table)
        v = rng.next();

    Builder b("hash_join");
    b.li(5, static_cast<std::int64_t>(rng.next() | 1)); // prng state
    b.li(6, static_cast<std::int64_t>(dataBase));       // table base
    b.li(7, static_cast<std::int64_t>(probes));
    b.li(9, 0);                                         // checksum
    b.li(10, static_cast<std::int64_t>(entries - 1));   // mask
    b.label("loop");
    emitXorshift(b, 5, 31);
    b.and_(11, 5, 10);
    b.slli(11, 11, 3);
    b.add(11, 11, 6);
    b.ld(12, 11, 0);   // independent random probe: MLP fuel
    b.add(9, 9, 12);
    b.addi(7, 7, -1);
    b.bne(7, 0, "loop");
    emitEpilogue(b, 9);
    b.words(dataBase, table);

    Workload w;
    w.name = "hash_join";
    w.category = "commercial";
    w.approxDynInsts = probes * 13;
    w.program = b.finish();
    return w;
}

Workload
makeBtreeLookup(const WorkloadParams &params)
{
    Rng rng(params.seed + 2);
    const std::uint64_t keys =
        scalePow2(1 << 19, params.footprintScale, 1 << 12);
    const std::uint64_t lookups = scaleCount(700, params.lengthScale);

    std::vector<std::uint64_t> sorted(keys);
    for (auto &v : sorted)
        v = rng.next();
    std::sort(sorted.begin(), sorted.end());

    Builder b("btree_lookup");
    b.li(5, static_cast<std::int64_t>(rng.next() | 1)); // key prng
    b.li(6, static_cast<std::int64_t>(dataBase));
    b.li(7, static_cast<std::int64_t>(lookups));
    b.li(9, 0); // checksum
    b.li(10, static_cast<std::int64_t>(keys)); // array length
    b.label("outer");
    emitXorshift(b, 5, 31);
    b.addi(11, 0, 0);    // lo = 0
    b.addi(12, 10, 0);   // hi = keys
    b.label("inner");
    b.sub(13, 12, 11);
    b.addi(31, 0, 1);
    b.bgeu(31, 13, "inner_done"); // diff <= 1 -> done
    b.srli(13, 13, 1);
    b.add(13, 13, 11);   // mid
    b.slli(14, 13, 3);
    b.add(14, 14, 6);
    b.ld(15, 14, 0);     // dependent miss: next level of the "tree"
    b.bltu(5, 15, "go_left"); // data-dependent: ~50/50, untrainable
    b.addi(11, 13, 0);   // lo = mid
    b.j("inner");
    b.label("go_left");
    b.addi(12, 13, 0);   // hi = mid
    b.j("inner");
    b.label("inner_done");
    b.slli(14, 11, 3);
    b.add(14, 14, 6);
    b.ld(15, 14, 0);
    b.add(9, 9, 15);
    b.addi(7, 7, -1);
    b.bne(7, 0, "outer");
    emitEpilogue(b, 9);
    b.words(dataBase, sorted);

    Workload w;
    w.name = "btree_lookup";
    w.category = "commercial";
    // ~log2(keys) inner iterations of ~10 instructions per lookup.
    w.approxDynInsts =
        lookups * (10 * std::bit_width(keys) + 12);
    w.program = b.finish();
    return w;
}

Workload
makeOltpMix(const WorkloadParams &params)
{
    Rng rng(params.seed + 3);
    const std::uint64_t rows =
        scalePow2(1 << 16, params.footprintScale, 1 << 10); // 64 B rows
    const std::uint64_t txns = scaleCount(3500, params.lengthScale);

    const Addr rowBase = dataBase;
    const Addr tapeBase = dataBase + rows * 64 + 4096;

    std::vector<std::uint64_t> rowImage(rows * 8);
    for (auto &v : rowImage)
        v = rng.next() & 0xffff; // bounded fields keep sums tame
    // Zipf-popular row ids emulate OLTP key skew.
    std::vector<std::uint64_t> tape(txns);
    for (auto &t : tape)
        t = rng.zipf(rows, 0.8);

    Builder b("oltp_mix");
    b.li(5, static_cast<std::int64_t>(tapeBase));
    b.li(6, static_cast<std::int64_t>(rowBase));
    b.li(7, static_cast<std::int64_t>(txns));
    b.li(9, 0);
    b.label("txn");
    b.ld(10, 5, 0);      // next row id from the input tape
    b.addi(5, 5, 8);
    b.slli(11, 10, 6);
    b.add(11, 11, 6);    // row address (skewed-random)
    b.ld(12, 11, 0);     // row fetch: the DRAM miss
    b.ld(13, 11, 8);     // same-line field reads
    b.ld(14, 11, 16);
    b.add(12, 12, 13);
    b.add(12, 12, 14);
    b.add(9, 9, 12);
    b.ld(15, 11, 24);    // read-modify-write of a row counter
    b.addi(15, 15, 1);
    b.st(15, 11, 24);
    b.andi(16, 12, 7);   // "balance check": data-dependent branch
    b.beq(16, 0, "skip");
    b.addi(9, 9, 1);
    b.label("skip");
    b.addi(7, 7, -1);
    b.bne(7, 0, "txn");
    emitEpilogue(b, 9);
    b.words(rowBase, rowImage);
    b.words(tapeBase, tape);

    Workload w;
    w.name = "oltp_mix";
    w.category = "commercial";
    w.approxDynInsts = txns * 19;
    w.program = b.finish();
    return w;
}

Workload
makeGraphScan(const WorkloadParams &params)
{
    Rng rng(params.seed + 4);
    const std::uint64_t values =
        scalePow2(1 << 19, params.footprintScale, 1 << 12);
    const std::uint64_t nodes = scaleCount(1100, params.lengthScale);
    const unsigned maxDegree = 12;

    std::vector<std::uint64_t> offsets(nodes + 1);
    std::vector<std::uint64_t> edges;
    offsets[0] = 0;
    for (std::uint64_t n = 0; n < nodes; ++n) {
        unsigned deg = 4 + static_cast<unsigned>(rng.below(maxDegree - 3));
        for (unsigned e = 0; e < deg; ++e)
            edges.push_back(rng.below(values));
        offsets[n + 1] = edges.size();
    }
    std::vector<std::uint64_t> valueImage(values);
    for (auto &v : valueImage)
        v = rng.next() & 0xffffff;

    const Addr offBase = dataBase;
    const Addr edgeBase = offBase + (nodes + 1) * 8 + 4096;
    const Addr valBase = edgeBase + edges.size() * 8 + 4096;

    Builder b("graph_scan");
    b.li(5, static_cast<std::int64_t>(offBase));
    b.li(6, static_cast<std::int64_t>(edgeBase));
    b.li(8, static_cast<std::int64_t>(valBase));
    b.li(9, 0);
    b.li(7, static_cast<std::int64_t>(nodes));
    b.li(10, 0); // node index
    b.label("outer");
    b.slli(11, 10, 3);
    b.add(11, 11, 5);
    b.ld(12, 11, 0); // edge range [start, end): sequential accesses
    b.ld(13, 11, 8);
    b.label("inner");
    b.bgeu(12, 13, "inner_done");
    b.slli(14, 12, 3);
    b.add(14, 14, 6);
    b.ld(15, 14, 0); // edge target (sequential)
    b.slli(15, 15, 3);
    b.add(15, 15, 8);
    b.ld(16, 15, 0); // gather from the value array: random, independent
    b.add(9, 9, 16);
    b.addi(12, 12, 1);
    b.j("inner");
    b.label("inner_done");
    b.addi(10, 10, 1);
    b.bne(10, 7, "outer");
    emitEpilogue(b, 9);
    b.words(offBase, offsets);
    b.words(edgeBase, edges);
    b.words(valBase, valueImage);

    Workload w;
    w.name = "graph_scan";
    w.category = "commercial";
    w.approxDynInsts = nodes * (8 + 8 * 9);
    w.program = b.finish();
    return w;
}

Workload
makeStream(const WorkloadParams &params)
{
    Rng rng(params.seed + 5);
    const std::uint64_t len =
        scalePow2(1 << 15, params.footprintScale, 1 << 10);
    const std::uint64_t iters =
        std::min<std::uint64_t>(len, scaleCount(28000, params.lengthScale));

    std::vector<std::uint64_t> bArr(len);
    std::vector<std::uint64_t> cArr(len);
    for (std::uint64_t i = 0; i < len; ++i) {
        bArr[i] = safeDoubleBits(rng);
        cArr[i] = safeDoubleBits(rng);
    }

    const Addr aBase = dataBase;
    const Addr bBase = aBase + len * 8 + 4096;
    const Addr cBase = bBase + len * 8 + 4096;

    Builder b("stream");
    b.li(5, static_cast<std::int64_t>(aBase));
    b.li(6, static_cast<std::int64_t>(bBase));
    b.li(7, static_cast<std::int64_t>(cBase));
    b.li(8, static_cast<std::int64_t>(iters));
    b.li(9, static_cast<std::int64_t>(
                std::bit_cast<std::uint64_t>(3.0))); // scale factor
    b.li(10, 0);
    b.label("loop");
    b.ld(11, 6, 0);
    b.ld(12, 7, 0);
    b.fmul(12, 12, 9);
    b.fadd(11, 11, 12);
    b.st(11, 5, 0); // a[i] = b[i] + 3.0 * c[i]
    b.addi(5, 5, 8);
    b.addi(6, 6, 8);
    b.addi(7, 7, 8);
    b.addi(10, 10, 1);
    b.bne(10, 8, "loop");
    emitEpilogue(b, 11);
    b.words(bBase, bArr);
    b.words(cBase, cArr);

    Workload w;
    w.name = "stream";
    w.category = "compute";
    w.approxDynInsts = iters * 10;
    w.program = b.finish();
    return w;
}

Workload
makeComputeKernel(const WorkloadParams &params)
{
    Rng rng(params.seed + 6);
    const std::uint64_t tableWords = 512; // 4 KB: stays L1-resident
    const std::uint64_t iters = scaleCount(12000, params.lengthScale);

    std::vector<std::uint64_t> table(tableWords);
    for (auto &v : table)
        v = rng.next() & 0xffff;

    Builder b("compute_kernel");
    for (RegId r = 10; r <= 13; ++r)
        b.li(r, static_cast<std::int64_t>(safeDoubleBits(rng)));
    b.li(14, static_cast<std::int64_t>(
                 std::bit_cast<std::uint64_t>(0.5))); // contraction coef
    b.li(15, static_cast<std::int64_t>(
                 std::bit_cast<std::uint64_t>(1.25)));
    b.li(5, static_cast<std::int64_t>(dataBase));
    b.li(7, static_cast<std::int64_t>(iters));
    b.li(9, 0);
    b.label("loop");
    // Four independent contraction chains: x = 0.5*x + 1.25. High ILP,
    // no memory pressure: the regime where wide OoO wins.
    for (RegId r = 10; r <= 13; ++r) {
        b.fmul(r, r, 14);
        b.fadd(r, r, 15);
    }
    b.andi(16, 7, 511);
    b.slli(16, 16, 3);
    b.add(16, 16, 5);
    b.ld(17, 16, 0); // L1-resident table lookup
    b.add(9, 9, 17);
    b.addi(7, 7, -1);
    b.bne(7, 0, "loop");
    for (RegId r = 10; r <= 13; ++r)
        b.xor_(9, 9, r);
    emitEpilogue(b, 9);
    b.words(dataBase, table);

    Workload w;
    w.name = "compute_kernel";
    w.category = "compute";
    w.approxDynInsts = iters * 15;
    w.program = b.finish();
    return w;
}

Workload
makeSortedMerge(const WorkloadParams &params)
{
    Rng rng(params.seed + 7);
    const std::uint64_t len =
        scalePow2(1 << 13, params.footprintScale, 1 << 8);
    const std::uint64_t maxSteps = scaleCount(8000, params.lengthScale);

    std::vector<std::uint64_t> a(len);
    std::vector<std::uint64_t> bv(len);
    for (auto &v : a)
        v = rng.next();
    for (auto &v : bv)
        v = rng.next();
    std::sort(a.begin(), a.end());
    std::sort(bv.begin(), bv.end());

    const Addr aBase = dataBase;
    const Addr bBase = aBase + len * 8 + 4096;
    const Addr outBase = bBase + len * 8 + 4096;

    Builder b("sorted_merge");
    b.li(5, static_cast<std::int64_t>(aBase));
    b.li(6, static_cast<std::int64_t>(bBase));
    b.li(7, static_cast<std::int64_t>(outBase));
    b.li(10, static_cast<std::int64_t>(aBase + len * 8));
    b.li(11, static_cast<std::int64_t>(bBase + len * 8));
    b.li(9, 0);
    b.li(14, static_cast<std::int64_t>(maxSteps));
    b.label("loop");
    b.beq(14, 0, "done"); // step budget exhausted
    b.addi(14, 14, -1);
    b.bgeu(5, 10, "done"); // either input exhausted ends the merge
    b.bgeu(6, 11, "done");
    b.ld(12, 5, 0);
    b.ld(13, 6, 0);
    b.bltu(12, 13, "take_a"); // ~50/50 data-dependent branch
    b.st(13, 7, 0);
    b.add(9, 9, 13);
    b.addi(6, 6, 8);
    b.j("cont");
    b.label("take_a");
    b.st(12, 7, 0);
    b.add(9, 9, 12);
    b.addi(5, 5, 8);
    b.label("cont");
    b.addi(7, 7, 8);
    b.j("loop");
    b.label("done");
    emitEpilogue(b, 9);
    b.words(aBase, a);
    b.words(bBase, bv);

    Workload w;
    w.name = "sorted_merge";
    w.category = "compute";
    w.approxDynInsts = std::min(len, maxSteps) * 13;
    w.program = b.finish();
    return w;
}

Workload
makeColumnScan(const WorkloadParams &params)
{
    Rng rng(params.seed + 8);
    const std::uint64_t colLen =
        scalePow2(1 << 19, params.footprintScale, 1 << 12); // 8 B each
    const std::uint64_t scanned =
        std::min<std::uint64_t>(colLen,
                                scaleCount(24000, params.lengthScale));

    std::vector<std::uint64_t> column(colLen);
    for (auto &v : column)
        v = rng.next() & 0xffffffff;

    Builder b("column_scan");
    b.li(5, static_cast<std::int64_t>(dataBase));
    b.li(6, static_cast<std::int64_t>(scanned));
    b.li(7, 0);  // index
    b.li(9, 0);  // sum of selected values
    b.li(10, 0); // match count
    b.label("loop");
    b.ld(11, 5, 0); // sequential column read (DRAM streaming)
    b.andi(12, 11, 3);
    b.bne(12, 0, "skip"); // ~25% selectivity, data-dependent
    b.add(9, 9, 11);
    b.addi(10, 10, 1);
    b.label("skip");
    b.addi(5, 5, 8);
    b.addi(7, 7, 1);
    b.bne(7, 6, "loop");
    b.add(9, 9, 10);
    emitEpilogue(b, 9);
    b.words(dataBase, column);

    Workload w;
    w.name = "column_scan";
    w.category = "commercial";
    w.approxDynInsts = scanned * 8;
    w.program = b.finish();
    return w;
}

Workload
makeMatrixBlocked(const WorkloadParams &params)
{
    Rng rng(params.seed + 9);
    // N scales with the cube root of lengthScale (work is N^3).
    double scaled = 24.0 * std::cbrt(std::max(0.01, params.lengthScale));
    const std::uint64_t n = std::min<std::uint64_t>(
        64, std::max<std::uint64_t>(8,
                                    static_cast<std::uint64_t>(scaled)));

    std::vector<std::uint64_t> a(n * n);
    std::vector<std::uint64_t> bm(n * n);
    for (auto &v : a)
        v = safeDoubleBits(rng);
    for (auto &v : bm)
        v = safeDoubleBits(rng);

    const Addr aBase = dataBase;
    const Addr bBase = aBase + n * n * 8 + 4096;
    const Addr cBase = bBase + n * n * 8 + 4096;

    Builder b("matrix_blocked");
    b.li(5, static_cast<std::int64_t>(aBase));
    b.li(6, static_cast<std::int64_t>(bBase));
    b.li(7, static_cast<std::int64_t>(cBase));
    b.li(13, static_cast<std::int64_t>(n));
    b.li(9, 0);  // checksum
    b.li(10, 0); // i
    b.label("iloop");
    b.li(11, 0); // j
    b.mul(15, 10, 13); // row base of A (elements)
    b.slli(15, 15, 3);
    b.add(15, 15, 5);
    b.label("jloop");
    b.li(20, 0); // accumulator (+0.0 bits)
    b.li(12, 0); // k
    b.label("kloop");
    b.slli(16, 12, 3);
    b.add(16, 16, 15);
    b.ld(17, 16, 0); // A[i][k]: unit stride, L1-friendly
    b.mul(18, 12, 13);
    b.add(18, 18, 11);
    b.slli(18, 18, 3);
    b.add(18, 18, 6);
    b.ld(19, 18, 0); // B[k][j]: stride N*8
    b.fmul(17, 17, 19);
    b.fadd(20, 20, 17);
    b.addi(12, 12, 1);
    b.bne(12, 13, "kloop");
    b.mul(21, 10, 13);
    b.add(21, 21, 11);
    b.slli(21, 21, 3);
    b.add(21, 21, 7);
    b.st(20, 21, 0); // C[i][j]
    b.xor_(9, 9, 20);
    b.addi(11, 11, 1);
    b.bne(11, 13, "jloop");
    b.addi(10, 10, 1);
    b.bne(10, 13, "iloop");
    emitEpilogue(b, 9);
    b.words(aBase, a);
    b.words(bBase, bm);

    Workload w;
    w.name = "matrix_blocked";
    w.category = "compute";
    w.approxDynInsts = n * n * n * 11;
    w.program = b.finish();
    return w;
}

std::vector<std::string>
allWorkloadNames()
{
    return {"pointer_chase", "list_walk",      "hash_join",
            "btree_lookup",  "oltp_mix",       "graph_scan",
            "column_scan",   "stream",         "compute_kernel",
            "sorted_merge",  "matrix_blocked"};
}

std::vector<std::string>
commercialWorkloadNames()
{
    return {"pointer_chase", "list_walk", "hash_join", "btree_lookup",
            "oltp_mix", "graph_scan", "column_scan"};
}

std::vector<std::string>
computeWorkloadNames()
{
    return {"stream", "compute_kernel", "sorted_merge",
            "matrix_blocked"};
}

std::string
workloadCategory(const std::string &name)
{
    for (const auto &[category, names] :
         {std::pair{"commercial", commercialWorkloadNames()},
          std::pair{"compute", computeWorkloadNames()}})
        if (std::find(names.begin(), names.end(), name) != names.end())
            return category;
    return "";
}

Workload
makeWorkload(const std::string &name, const WorkloadParams &params)
{
    checkScales(params);
    if (name == "pointer_chase")
        return makePointerChase(params);
    if (name == "list_walk")
        return makeListWalk(params);
    if (name == "hash_join")
        return makeHashJoin(params);
    if (name == "btree_lookup")
        return makeBtreeLookup(params);
    if (name == "oltp_mix")
        return makeOltpMix(params);
    if (name == "graph_scan")
        return makeGraphScan(params);
    if (name == "stream")
        return makeStream(params);
    if (name == "compute_kernel")
        return makeComputeKernel(params);
    if (name == "sorted_merge")
        return makeSortedMerge(params);
    if (name == "column_scan")
        return makeColumnScan(params);
    if (name == "matrix_blocked")
        return makeMatrixBlocked(params);
    fatal("unknown workload '%s'", name.c_str());
}

std::vector<std::string>
sharedWorkloadNames()
{
    return {"spinlock_counter", "producer_consumer", "shared_table"};
}

std::vector<Workload>
makeSharedWorkload(const std::string &name, unsigned cores,
                   const WorkloadParams &params)
{
    fatal_if(cores == 0, "shared workload needs at least one core");
    checkScales(params);
    std::vector<Workload> out;
    out.reserve(cores);
    for (unsigned core = 0; core < cores; ++core) {
        if (name == "spinlock_counter")
            out.push_back(makeSpinlockCounter(core, cores, params));
        else if (name == "producer_consumer")
            out.push_back(makeProducerConsumer(core, cores, params));
        else if (name == "shared_table")
            out.push_back(makeSharedTable(core, cores, params));
        else
            fatal("unknown shared workload '%s'", name.c_str());
    }
    return out;
}

Result<void>
checkSharedWorkload(const std::string &name, unsigned cores,
                    const WorkloadParams &params, const MemoryImage &image)
{
    auto word = [&](Addr addr) { return image.read(addr, 8); };
    auto violated = [&](const std::string &what) {
        return Error{name + " on " + std::to_string(cores)
                         + " cores: " + what,
                     exit_code::archMismatch};
    };
    std::vector<Addr> locks = {lockBase};
    if (name == "spinlock_counter") {
        const std::uint64_t slots = scalePow2(64, params.footprintScale, 8);
        const std::uint64_t want =
            cores * scaleCount(2000, params.lengthScale);
        std::uint64_t sum = 0;
        for (std::uint64_t s = 0; s < slots; ++s)
            sum += word(sharedBase + s * 8);
        if (sum != want)
            return violated("the counters sum to " + std::to_string(sum)
                            + ", not cores x iterations = "
                            + std::to_string(want));
    } else if (name == "producer_consumer") {
        locks.clear();
        for (unsigned ring = 0; ring < cores / 2; ++ring) {
            locks.push_back(lockBase + ring * 64ULL);
            if (word(resultAddr + ring * 16ULL)
                != word(resultAddr + ring * 16ULL + 8))
                return violated("consumer core " + std::to_string(2 * ring + 1)
                                + "'s checksum differs from producer core "
                                + std::to_string(2 * ring) + "'s");
        }
    } else if (name != "shared_table") {
        fatal("unknown shared workload '%s'", name.c_str());
    }
    for (unsigned core = 0; core < cores; ++core)
        if (word(resultAddr + core * 8ULL) == 0)
            return violated("core " + std::to_string(core)
                            + "'s result slot was never written");
    for (std::size_t i = 0; i < locks.size(); ++i)
        if (std::uint64_t token = word(locks[i]))
            return violated("lock " + std::to_string(i)
                            + " ends held (token " + std::to_string(token)
                            + ")");
    return {};
}

} // namespace sst
