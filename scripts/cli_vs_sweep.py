#!/usr/bin/env python3
"""Check that `sstsim sweep` and a plain `sstsim` run agree on one job.

    python3 scripts/cli_vs_sweep.py [sstsim-binary]

Runs two detailed jobs (a preset and a named variant of it), one
library-sampled job and one CMP job (a shared-memory workload) through
`sstsim sweep`, then replays each record through `sstsim key=value
json=true` (`sstsim cmp <preset> <workload> --json` for the CMP job)
with the record's preset (a variant's base_preset), workload,
workload_seed, length_scale and config (plus the manifest's sampling
schedule for the sampled job), and requires the same cycles,
instructions and IPC. Both front ends resolve and execute through one
pipeline (src/exp/run.hh), so any difference is a drift bug. Exits 0
when every job agrees, 1 otherwise.

The detailed replay prints its stat tree with six significant digits
(StatGroup::dumpJson), so the detailed jobs are kept under a million
cycles and their IPC is compared at that precision; `sstsim cmp
--json` prints the aggregate IPC with six decimals. The sampled replay
prints the full-precision IPC plus detailed_insts and skipped_insts,
which sum to the library's instruction count; the estimated cycles are
that count over the IPC, exactly as the sweep computes them.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

DETAILED = """\
sweep.name = cli-vs-sweep-detailed
sweep.seed = 11
sweep.length_scale = 0.1
variant.sst2-l2t = sst2 core.defer_on_l2_miss_only=true
preset = sst2, sst2-l2t
workload = hash_join
fault.drop_fill_rate = 1e-4
"""

SAMPLED = """\
sweep.name = cli-vs-sweep-sampled
sweep.seed = 5
sweep.length_scale = 0.2
sweep.sample = true
sweep.sample_detail = 5000
sweep.sample_regions = 4
sweep.region_insts = 20000
preset = sst4
workload = oltp_mix
"""
SAMPLED_KEYS = ["sample=true", "detail=5000", "regions=4",
                "region_insts=20000"]

CMP = """\
sweep.name = cli-vs-sweep-cmp
sweep.seed = 3
sweep.length_scale = 0.05
sweep.verify = true
preset = rock16
workload = producer_consumer
cmp.cores = 4
"""


def sweep_records(sstsim, scratch, name, manifest):
    """Run a manifest through `sstsim sweep`; its header and records."""
    cfg = os.path.join(scratch, name + ".cfg")
    out = os.path.join(scratch, name + ".json")
    with open(cfg, "w") as f:
        f.write(manifest)
    subprocess.run([sstsim, "sweep", cfg, "--quiet", "--json", out],
                   check=True)
    with open(out) as f:
        doc = json.load(f)
    for record in doc["records"]:
        assert record["ran"] and record["finished"], record["error"]
    return doc["sweep"], doc["records"]


def replay(sstsim, sweep, record, extra, cmp=False):
    """The record as a plain `sstsim key=value json=true` run, or as
    `sstsim cmp <preset> <workload> --json` for a CMP job."""
    preset = record.get("base_preset", record["preset"])
    argv = [sstsim] + (["cmp", preset, record["workload"], "--json"]
                       if cmp else ["preset=" + preset,
                                    "workload=" + record["workload"],
                                    "json=true"])
    argv += ["seed=%d" % record["workload_seed"],
             "length_scale=%r" % sweep["length_scale"]]
    argv += ["%s=%s" % kv for kv in record["config"].items()]
    argv += extra
    run = subprocess.run(argv, check=True, capture_output=True, text=True)
    return json.loads(run.stdout)


def stat(stats, name):
    """The core's top-level stat `<core>.<name>` from a flat dump."""
    hits = [v for k, v in stats.items()
            if k.count(".") == 1 and k.endswith("." + name)]
    assert len(hits) == 1, "expected one top-level '%s' stat" % name
    return hits[0]


def check(label, want, got):
    """Print both (cycles, insts, ipc) triples; True when equal."""
    print("%s: sweep cycles=%d insts=%d ipc=%r | cli cycles=%d insts=%d "
          "ipc=%r" % ((label,) + want + got))
    return want == got


def main():
    sstsim = os.path.abspath(sys.argv[1] if len(sys.argv) > 1
                             else "build/tools/sstsim")
    scratch = tempfile.mkdtemp(prefix="cli-vs-sweep.")
    try:
        ok = True
        sweep, records = sweep_records(sstsim, scratch, "detailed",
                                       DETAILED)
        assert [r.get("base_preset") for r in records] == [None, "sst2"], \
            "expected sst2 and its variant"
        for record in records:
            assert record["cycles"] < 1000000, "keep the detailed jobs small"
            stats = replay(sstsim, sweep, record, [])
            ok = check("detailed " + record["preset"],
                       (record["cycles"], record["insts"],
                        float("%.6g" % record["ipc"])),
                       (int(stat(stats, "cycles")),
                        int(stat(stats, "committed_insts")),
                        float("%.6g" % stat(stats, "ipc")))) and ok

        sweep, (record,) = sweep_records(sstsim, scratch, "sampled",
                                         SAMPLED)
        est = replay(sstsim, sweep, record, SAMPLED_KEYS)
        assert est["from_library"], "replay did not use a library"
        insts = est["detailed_insts"] + est["skipped_insts"]
        cycles = int(insts / est["ipc"]) if est["ipc"] > 0 else 0
        ok = check("sampled",
                   (record["cycles"], record["insts"], record["ipc"]),
                   (cycles, insts, est["ipc"])) and ok

        sweep, (record,) = sweep_records(sstsim, scratch, "cmp", CMP)
        assert record["cores"] == 4 and record["arch_ok"], record["log"]
        chip = replay(sstsim, sweep, record, [], cmp=True)
        ok = check("cmp",
                   (record["cycles"], record["insts"],
                    float("%.6f" % record["ipc"])),
                   (chip["cycles"], chip["insts"],
                    chip["aggregate_ipc"])) and ok
        return 0 if ok else 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
