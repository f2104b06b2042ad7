/**
 * @file
 * T8 — area- and power-efficiency table.
 *
 * The abstract's second claim: SST reaches its performance while
 * "eliminating the need for complex and power-inefficient structures
 * such as register renaming logic, reorder buffers, memory
 * disambiguation buffers, and large issue windows". Expected shape:
 * SST's perf/area and perf/W beat both OoO cores, with absolute
 * commercial performance at or above ooo-large.
 */

#include <cstdio>

#include "bench_util.hh"
#include "power/model.hh"

using namespace sst;
using namespace sst::bench;

int
main()
{
    banner("T8", "performance, area and power efficiency per core");
    setVerbose(false);

    const std::vector<std::string> presets = {
        "inorder", "scout",     "ea",        "sst2",    "sst4",
        "ooo-small", "ooo-large", "ooo-huge"};
    struct Agg
    {
        std::vector<double> ipc;
        double area = 0;
        double power = 0;
        int n = 0;
    };
    std::map<std::string, Agg> agg;

    for (const auto &wname : commercialWorkloadNames()) {
        for (const auto &p : presets) {
            exp::RunOutcome run = runVerified(p, wname);
            PowerEstimate pe = estimatePower(run.machine->core());
            Agg &a = agg[p];
            a.ipc.push_back(run.result.ipc);
            a.area = pe.coreArea; // config-determined, same every run
            a.power += pe.avgPower();
            ++a.n;
        }
    }

    Table t("commercial-aggregate efficiency (area/power in model "
            "units)");
    t.setHeader({"preset", "IPC(geo)", "area", "avg power", "perf/area",
                 "perf/W", "norm perf/W"});
    std::vector<std::vector<std::string>> csv;
    double inorder_ppw = 0;
    {
        const Agg &a = agg.at("inorder");
        inorder_ppw = geomean(a.ipc) / (a.power / a.n);
    }
    for (const auto &p : presets) {
        const Agg &a = agg.at(p);
        double ipc = geomean(a.ipc);
        double power = a.power / a.n;
        double ppa = ipc / a.area;
        double ppw = ipc / power;
        t.addRow({p, Table::num(ipc, 3), Table::num(a.area, 2),
                  Table::num(power, 3), Table::num(ppa, 4),
                  Table::num(ppw, 3),
                  Table::num(ppw / inorder_ppw, 2)});
        csv.push_back({p, Table::num(ipc, 4), Table::num(a.area, 3),
                       Table::num(power, 4), Table::num(ppa, 5),
                       Table::num(ppw, 4)});
    }
    t.setCaption("area breakdown: see the itemised table below.");
    t.print();

    Table items("per-structure area breakdown");
    items.setHeader({"preset", "structure", "area"});
    for (const auto &p : {std::string("sst2"), std::string("ooo-large")}) {
        // Area is config-determined: a short run builds the core.
        Config shortRun;
        shortRun.set("length_scale",
                     jsonNumber(0.1 * benchWorkloadParams().lengthScale));
        exp::RunOutcome run = runVerified(p, "oltp_mix", shortRun);
        PowerEstimate pe = estimatePower(run.machine->core());
        for (const auto &kv : pe.areaItems)
            items.addRow({p, kv.first, Table::num(kv.second, 2)});
    }
    items.print();

    emitCsv("t8_efficiency",
            {"preset", "ipc", "area", "power", "perf_per_area",
             "perf_per_watt"},
            csv);
    return 0;
}
