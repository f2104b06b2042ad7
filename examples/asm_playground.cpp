/**
 * @file
 * Assembly playground: write a kernel in the sstsim ISA (inline below
 * or from a file), run it on any machine preset, and inspect the
 * disassembly, final registers and core statistics. The fastest way to
 * build intuition for when SST's deferral machinery wins.
 *
 * Usage: asm_playground [preset=sst2] [file=path.s] [dump_stats=false]
 *                       [trace=true]
 *
 * trace=true prints the preset run's structured event log (the text
 * rendering of its TraceBuffer, trace/chrome.hh) after the run.
 */

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/config.hh"
#include "common/logging.hh"
#include "func/executor.hh"
#include "isa/assembler.hh"
#include "sim/machine.hh"
#include "trace/chrome.hh"

using namespace sst;

namespace
{

/** Default kernel: independent misses under a dependent reduction. */
const char *kDefaultSource = R"(
    ; Walk 32 lines spaced 4 KB apart (every load misses), summing a
    ; payload. The address stream is independent -> SST overlaps all of
    ; the misses; the in-order baseline eats them one by one.
    li   x1, 0x400000
    li   x7, 32
    li   x9, 0
loop:
    ld   x2, 0(x1)       ; independent miss
    add  x9, x9, x2      ; dependent use -> deferred under SST
    addi x1, x1, 4096
    addi x7, x7, -1
    bne  x7, x0, loop
    li   x30, 0x1f0000
    st   x9, 0(x30)
    halt
    .data 0x400000
)";

std::string
withData(std::string src)
{
    for (int i = 0; i < 32; ++i) {
        src += "    .word " + std::to_string(i + 1) + "\n";
        if (i != 31)
            src += "    .space 4088\n";
    }
    return src;
}

} // namespace

int
main(int argc, char **argv)
{
    Config cfg;
    cfg.parseArgs(argc, argv);
    setVerbose(false);
    std::string preset = cfg.getString("preset", "sst2");

    std::string source;
    std::string path = cfg.getString("file", "");
    if (!path.empty()) {
        std::ifstream in(path);
        fatal_if(!in, "cannot open '%s'", path.c_str());
        std::stringstream ss;
        ss << in.rdbuf();
        source = ss.str();
    } else {
        source = withData(kDefaultSource);
    }

    Program prog = assemble(source, "playground");
    std::printf("%s\n", prog.listing().c_str());

    // Golden functional run for reference.
    MemoryImage golden_mem;
    golden_mem.loadSegments(prog);
    Executor golden(prog, golden_mem);
    ArchState golden_state;
    std::uint64_t insts = golden.run(golden_state, 100'000'000ULL);
    fatal_if(!golden_state.halted, "program did not halt functionally");

    bool do_trace = cfg.getBool("trace", false);
    for (const std::string &p : {std::string("inorder"), preset}) {
        Machine machine(makePreset(p), prog);
        trace::TraceBuffer buf;
        bool traced = do_trace && p == preset;
        if (traced)
            machine.attachTraceBuffer(&buf);
        RunResult r = machine.run();
        if (traced)
            std::printf("--- pipeline event trace (%s) ---\n%s",
                        p.c_str(), trace::textLog(buf).c_str());
        bool ok = machine.core().archState().regsEqual(golden_state);
        std::printf("%-10s %8llu cycles  IPC %.3f  MLP %.2f  [%s]\n",
                    p.c_str(),
                    static_cast<unsigned long long>(r.cycles), r.ipc,
                    r.meanDemandMlp, ok ? "arch ok" : "ARCH MISMATCH");
        if (cfg.getBool("dump_stats", false))
            std::printf("%s", machine.core().stats().dump().c_str());
    }

    std::printf("\nfinal registers (non-zero):\n");
    for (unsigned r = 1; r < numArchRegs; ++r)
        if (golden_state.reg(static_cast<RegId>(r)))
            std::printf("  x%-2u = %llu (0x%llx)\n", r,
                        static_cast<unsigned long long>(
                            golden_state.reg(static_cast<RegId>(r))),
                        static_cast<unsigned long long>(
                            golden_state.reg(static_cast<RegId>(r))));
    std::printf("dynamic instructions: %llu\n",
                static_cast<unsigned long long>(insts));
    return 0;
}
