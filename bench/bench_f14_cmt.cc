/**
 * @file
 * F14 — thread-level vs memory-level parallelism from one core
 * (extension).
 *
 * A ROCK core's second strand can either run a second thread (CMT) or
 * accelerate the first one (SST). This bench runs both organisations
 * over the same silicon and the same memory system:
 *
 *   - inorder:  one thread, baseline
 *   - cmt2:     two threads on the dual-context core (aggregate IPC,
 *               and per-thread completion time)
 *   - sst2:     one thread using both strands
 *
 * Expected shape: CMT wins aggregate throughput on miss-bound code
 * (idle slots absorb a second thread), SST wins single-thread latency;
 * on compute-bound code CMT's aggregate advantage shrinks to the
 * pipeline-sharing limit.
 *
 * Part 2, the full rock16 chip on the shared-memory workloads, is the
 * manifest examples/figures/f14_rock16.cfg.
 */

#include <cstdio>

#include "bench_util.hh"
#include "core/smt.hh"

using namespace sst;
using namespace sst::bench;

namespace
{

struct CmtResult
{
    double aggregateIpc;
    Cycle thread0Cycles;
};

CmtResult
runCmt(const Workload &w0, const Workload &w1)
{
    MachineConfig cfg = makePreset("inorder");
    MemorySystem memsys(cfg.mem);
    MemoryImage m0, m1;
    m0.loadSegments(w0.program);
    m1.loadSegments(w1.program);
    CorePort &port = memsys.addCore();
    CoreParams params = cfg.core;
    params.name = "cmt";
    SmtCore core(params,
                 std::array<const Program *, 2>{&w0.program, &w1.program},
                 std::array<MemoryImage *, 2>{&m0, &m1}, port);
    Cycle t0_done = 0;
    while (!core.halted() && core.cycles() < 500'000'000ULL) {
        core.tick();
        if (t0_done == 0 && core.threadHalted(0))
            t0_done = core.cycles();
    }
    fatal_if(!core.halted(), "CMT run did not finish");
    return CmtResult{core.aggregateIpc(), t0_done};
}

} // namespace

int
main()
{
    banner("F14", "CMT (2 threads) vs SST (1 fast thread), same core");
    setVerbose(false);

    const std::vector<std::string> workloads = {
        "oltp_mix", "hash_join", "graph_scan", "compute_kernel"};

    Table t("throughput and latency per organisation");
    t.setHeader({"workload", "inorder IPC", "cmt2 agg IPC",
                 "sst2 IPC", "cmt2 T0 cycles", "sst2 cycles",
                 "latency win (sst/cmt)"});

    std::vector<std::vector<std::string>> csv;
    for (const auto &wname : workloads) {
        WorkloadParams wp = benchWorkloadParams();
        Workload w0 = makeWorkload(wname, wp);
        wp.seed = 1234; // an independent co-runner of the same kind
        Workload w1 = makeWorkload(wname, wp);

        RunResult base = runVerified("inorder", wname).result;
        RunResult sst = runVerified("sst2", wname).result;
        CmtResult cmt = runCmt(w0, w1);

        double latency_win = static_cast<double>(cmt.thread0Cycles)
                             / static_cast<double>(sst.cycles);
        t.addRow({wname, Table::num(base.ipc, 3),
                  Table::num(cmt.aggregateIpc, 3),
                  Table::num(sst.ipc, 3),
                  std::to_string(cmt.thread0Cycles),
                  std::to_string(sst.cycles),
                  Table::num(latency_win, 2) + "x"});
        csv.push_back({wname, Table::num(base.ipc, 4),
                       Table::num(cmt.aggregateIpc, 4),
                       Table::num(sst.ipc, 4),
                       Table::num(latency_win, 3)});
    }
    t.setCaption("cmt2 = two copies of the workload on the dual-context "
                 "core; T0 cycles = first thread's completion time.");
    t.print();

    emitCsv("f14_cmt",
            {"workload", "inorder_ipc", "cmt2_agg_ipc", "sst2_ipc",
             "sst_latency_win"},
            csv);

    return 0;
}
