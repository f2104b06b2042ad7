/**
 * @file
 * Stats pins: an FNV-1a hash of every statistic a full detailed run
 * produces, plus its cycle count, for five core models on three
 * memory-bound workloads.
 *
 * Hot-path refactors of the cores and the memory hierarchy (flat cache
 * rows, MSHR indexes, DQ counters, ...) must not change one simulated
 * byte. The snapshot pins (Snapshot.GoldenBytes) see state at one
 * cycle; these see the whole run: every counter, formula and
 * distribution bucket at HALT. A changed pin means a change in
 * simulated behaviour. Re-record only when the behaviour change is
 * intended, and say why in the change log.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "sim/machine.hh"
#include "sim/presets.hh"
#include "snap/snap.hh"
#include "workloads/workloads.hh"

using namespace sst;

namespace
{

struct StatPin
{
    const char *preset;
    const char *workload;
    Cycle cycles;
    std::uint64_t fnv;
};

/** Recorded at length_scale=0.25 with the default workload seed. */
const StatPin kStatPins[] = {
    {"inorder", "oltp_mix", 271888, 0xe969d80451597bf},
    {"inorder", "hash_join", 707052, 0xf3be8dca9ec24373},
    {"inorder", "btree_lookup", 625717, 0x2d9ba96fece8fc9},
    {"scout", "oltp_mix", 52714, 0xbced85cb400ab17d},
    {"scout", "hash_join", 121307, 0x5ba854ef1ca57e47},
    {"scout", "btree_lookup", 552030, 0xb240a6254cda1cde},
    {"sst2", "oltp_mix", 84690, 0xa3fcf94f6f5b58bc},
    {"sst2", "hash_join", 37878, 0xc49235fb1eedc443},
    {"sst2", "btree_lookup", 560716, 0xad96ffb2e7c25a09},
    {"sst4", "oltp_mix", 89126, 0x9dfafe5cb5f063e5},
    {"sst4", "hash_join", 37878, 0x92cb11a7d1e8327c},
    {"sst4", "btree_lookup", 562514, 0x6e34d767f3fdc19e},
    {"ooo-large", "oltp_mix", 96598, 0x8cdafcec21852df9},
    {"ooo-large", "hash_join", 87606, 0x7f512c9865c08c2a},
    {"ooo-large", "btree_lookup", 417325, 0xab296438a3530a36},
};

/** FNV-1a over the core's and the memory system's stats trees (JSON,
 *  which carries scalars, formulas and distributions) and the cycle
 *  count. */
std::uint64_t
statsHash(Machine &m, Cycle cycles)
{
    std::string text = m.core().stats().toJson();
    text += '\n';
    text += m.memsys().stats().toJson();
    text += '\n';
    text += std::to_string(cycles);
    return snap::fnv1a(text.data(), text.size());
}

} // namespace

TEST(StatPins, FullRunStatsMatchPins)
{
    for (const char *preset :
         {"inorder", "scout", "sst2", "sst4", "ooo-large"}) {
        for (const char *workload : {"oltp_mix", "hash_join", "btree_lookup"}) {
            SCOPED_TRACE(std::string(preset) + " / " + workload);
            WorkloadParams wp;
            wp.lengthScale = 0.25;
            Program program = makeWorkload(workload, wp).program;
            Machine m(makePreset(preset), program);
            RunResult r = m.run();
            ASSERT_TRUE(r.finished);
            std::uint64_t got = statsHash(m, r.cycles);
            const StatPin *pin = nullptr;
            for (const StatPin &p : kStatPins)
                if (std::string(p.preset) == preset
                    && std::string(p.workload) == workload)
                    pin = &p;
            std::ostringstream line;
            line << "{\"" << preset << "\", \"" << workload << "\", "
                 << r.cycles << ", 0x" << std::hex << got << "},";
            if (!pin) {
                ADD_FAILURE() << "no pin: " << line.str();
                continue;
            }
            EXPECT_EQ(r.cycles, pin->cycles) << line.str();
            EXPECT_EQ(got, pin->fnv) << line.str();
        }
    }
}
