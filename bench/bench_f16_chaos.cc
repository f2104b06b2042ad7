/**
 * @file
 * F16 — graceful degradation under injected faults.
 *
 * Sweeps the fault-injection rate (clean, 1e-5, 1e-4 per demand fill;
 * delays are injected at 10x the drop rate) across every workload on
 * sst4 and reports the IPC retained relative to the clean run plus the
 * recovery counters. Expected shape: IPC degrades smoothly with the
 * fault rate — never a cliff, never a hang — and the watchdog only has
 * to intervene at the highest rate, when a dropped fill can stall an
 * epoch past its patience.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace sst;
using namespace sst::bench;

namespace
{

RunResult
runWithFaults(const std::string &workload, double rate)
{
    Config faults;
    faults.set("fault.seed", "7");
    faults.set("fault.drop_fill_rate", jsonNumber(rate));
    faults.set("fault.delay_fill_rate", jsonNumber(10 * rate));
    return runVerified("sst4", workload, faults).result;
}

} // namespace

int
main()
{
    banner("F16", "IPC under fault injection (chaos sweep, sst4)");
    setVerbose(false);

    const std::vector<double> rates = {1e-5, 1e-4};

    Table t("fault-rate sweep");
    t.setHeader({"workload", "clean IPC", "IPC@1e-5", "IPC@1e-4",
                 "retained%", "injected", "recoveries"});

    std::vector<std::vector<std::string>> csv;
    std::vector<double> retained;
    for (const auto &wname : allWorkloadNames()) {
        RunResult clean = runWithFaults(wname, 0.0);

        std::vector<RunResult> runs;
        for (double rate : rates)
            runs.push_back(runWithFaults(wname, rate));
        const RunResult &worst = runs.back();

        double keep = clean.ipc > 0 ? 100.0 * worst.ipc / clean.ipc : 0;
        double injected = worst.stats.at("fault.injected");
        double recoveries = worst.stats.at("watchdog.recoveries");
        retained.push_back(keep / 100.0);

        t.addRow({wname, Table::num(clean.ipc, 4),
                  Table::num(runs[0].ipc, 4), Table::num(worst.ipc, 4),
                  Table::num(keep, 1), Table::num(injected, 0),
                  Table::num(recoveries, 0)});
        csv.push_back({wname, Table::num(clean.ipc, 4),
                       Table::num(runs[0].ipc, 4),
                       Table::num(worst.ipc, 4), Table::num(injected, 0),
                       Table::num(recoveries, 0)});
    }
    t.setCaption("retained% = IPC at the 1e-4 fault rate relative to the "
                 "clean run; every run still matches golden execution.");
    t.print();
    std::printf("geomean IPC retained at 1e-4: %.1f%%\n",
                100.0 * geomean(retained));

    emitCsv("f16_chaos",
            {"workload", "ipc_clean", "ipc_1e5", "ipc_1e4", "injected",
             "recoveries"},
            csv);
    return 0;
}
