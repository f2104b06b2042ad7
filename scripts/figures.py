#!/usr/bin/env python3
"""Render the paper's figures from `sstsim sweep` JSON.

Every figure is a sweep manifest under examples/figures/. Run one, then
render its JSON:

    build/tools/sstsim sweep examples/figures/f2_headline.cfg -j 4 \\
        --json f2_headline.json --quiet
    python3 scripts/figures.py f2_headline.json [more.json ...] \\
        [--csv-dir results/]

The manifest's sweep.name picks the figure's entry in FIGURES below,
which says what each table's rows and columns are and which number
each cell shows: the speedup over the sweep's baseline at the same
sweep point, ipc, demand_mlp, a core stat per 1k or per 100k retired
instructions, or, for a CMP job, a stat summed over its cores. The
script prints the figure's tables and its BEGIN_CSV/END_CSV block,
formatted exactly as the figure benches that these manifests replaced
printed them. With --csv-dir it also writes
<tag>.csv per figure. Exits 1 when a job did not finish or failed its
golden check, 2 on an unknown figure.
"""

import argparse
import itertools
import json
import math
import os
import sys

# Workload::category of each built-in workload (workloads.cc,
# commercialWorkloadNames and computeWorkloadNames).
CATEGORIES = {
    "commercial": ("pointer_chase", "list_walk", "hash_join", "btree_lookup",
                   "oltp_mix", "graph_scan", "column_scan"),
    "compute": ("stream", "compute_kernel", "sorted_merge",
                "matrix_blocked"),
}


class Sweep:
    """One sweep document, indexed by (workload, preset, axis value)."""

    def __init__(self, doc):
        head = doc["sweep"]
        self.name = head["name"]
        self.baseline = head["baseline"]
        self.presets = head["presets"]
        self.workloads = head["workloads"]
        axes = head["axes"]
        if len(axes) > 1 or head["repeats"] != 1:
            raise SystemExit("%s: a figure sweeps at most one axis, once"
                             % self.name)
        self.points = axes[0]["values"] if axes else [None]
        records = iter(doc["records"])
        self.cells = {}
        for w, x, p in itertools.product(self.workloads, self.points,
                                         self.presets):
            self.cells[(w, p, x)] = next(records)
        self.flat = {}

    def rec(self, w, p, x=None):
        r = self.cells[(w, p, x)]
        if not (r["ran"] and r["finished"]) or r["arch_ok"] is False:
            raise SystemExit("%s: job #%d (%s/%s) did not finish cleanly"
                             % (self.name, r["index"], p, w))
        return r

    def stat(self, r, suffix):
        """The first stat (in name order) whose name ends in @p suffix,
        over the record's core stat tree, as the benches' statOf read
        RunResult::stats; 0 when none does."""
        flat = self.flat.get(r["index"])
        if flat is None:
            flat = self.flat[r["index"]] = sorted(flatten(r["stats"]))
        return next((v for k, v in flat if k.endswith(suffix)), 0.0)


def flatten(tree, prefix=""):
    """StatGroup::flatten over a stat tree's JSON: distributions read as
    <name>.mean. Names keep a leading '.' for the group itself."""
    for k, v in tree.items():
        if isinstance(v, dict) and "buckets" in v:
            yield prefix + "." + k + ".mean", v["mean"]
        elif isinstance(v, dict):
            yield from flatten(v, prefix + "." + k)
        else:
            yield prefix + "." + k, v


# Cell values: f(sweep, workload, preset, axis value) -> float.

def speedup(s, w, p, x):
    return s.rec(w, s.baseline, x)["cycles"] / s.rec(w, p, x)["cycles"]


def field(name):
    return lambda s, w, p, x: s.rec(w, p, x)[name]


def stat(*suffixes):
    """The sum of the core stats named by @p suffixes."""
    def value(s, w, p, x):
        r = s.rec(w, p, x)
        total = 0.0
        for suffix in suffixes:
            total += s.stat(r, suffix)
        return total
    return value


def per(n, *suffixes):
    """stat(*suffixes) per @p n retired instructions."""
    return lambda s, w, p, x: (stat(*suffixes)(s, w, p, x) * n
                               / s.rec(w, p, x)["insts"])


def base(fn):
    """@p fn on the baseline preset's job at the same sweep point."""
    return lambda s, w, p, x: fn(s, w, s.baseline, x)


def discarded_pct(s, w, p, x):
    r = s.rec(w, p, x)
    d = s.stat(r, ".discarded_insts")
    return 100.0 * d / (d + r["insts"])


def cpi(s, w, p, x):
    r = s.rec(w, p, x)
    return r["cycles"] / r["insts"]


def vp_accuracy(s, w, p, x):
    r = s.rec(w, p, x)
    predictions = s.stat(r, ".vp_predictions")
    return (100.0 * s.stat(r, ".vp_correct") / predictions
            if predictions else 0.0)


def vs_ooo_large(s, w, p, x):
    return s.rec(w, "ooo-large")["cycles"] / s.rec(w, p)["cycles"]


def chip_stats(s, w, p, x):
    """(name, value) over a CMP record's per-core stat trees."""
    return [kv for tree in s.rec(w, p, x)["core_stats"]
            for kv in flatten(tree)]


def chip(suffix):
    """A stat summed over every core of a CMP record."""
    return lambda s, w, p, x: sum(v for k, v in chip_stats(s, w, p, x)
                                  if k.endswith(suffix))


def coh_pct(s, w, p, x):
    """Share of all core cycles the CPI stack charges to coherence."""
    stack = [(k, v) for k, v in chip_stats(s, w, p, x)
             if k.startswith(".cpi_stack.")]
    coherence = sum(v for k, v in stack if k == ".cpi_stack.coherence")
    return 100.0 * coherence / max(sum(v for _, v in stack), 1.0)


def sle_speedup(s, w, p, x):
    return s.rec(w, "sst2", x)["cycles"] / s.rec(w, SLE, x)["cycles"]


def geomean(values):
    if not values:
        return 0.0
    return math.exp(sum(math.log(max(v, 1e-12)) for v in values)
                    / len(values))


def category(workload):
    for name, workloads in CATEGORIES.items():
        if workload in workloads:
            return name
    raise SystemExit("workload '%s' is in no category of CATEGORIES"
                     % workload)


def num(v, digits):
    return "%.*f" % (digits, v)


def suffixed(digits, suffix):
    return lambda v: num(v, digits) + suffix


# Figures. A table is a grid of "rows" (default: one per workload) by
# "cols". Each row or column is a cell(): its label, the coordinates it
# fixes — workload w, preset p, axis value x — and, for a column, the
# number each cell shows ("value", one of the functions above) and its
# "digits" (decimals, or a formatter) when they differ from the table's.
# "key" fixes coordinates for the whole table, "each": "w" repeats it
# per workload, and "geomean" appends GEOMEAN rows, overall ("all") or
# one per workload category. A figure's "csv" is its first table again
# with the overrides given, printed as its BEGIN_CSV block.

def cell(label, value=None, digits=None, **key):
    return {"label": label, "value": value, "digits": digits, "key": key}


def presets(*names):
    return [cell(n, p=n) for n in names]


def points(preset, fmt, *values):
    return [cell(fmt % v, p=preset, x=v) for v in values]


def f2_headline(s):
    geo = {(p, c): geomean([speedup(s, w, p, None) for w in s.workloads
                            if category(w) == c])
           for p in ("sst2", "sst2-l2t", "sst4", "ooo-large")
           for c in CATEGORIES}
    best = max(geo[(p, "commercial")] for p in ("sst2", "sst2-l2t", "sst4"))
    ooo = geo[("ooo-large", "commercial")]
    return ("\nHEADLINE: commercial geomean — sst2=%.3f sst2-l2t=%.3f "
            "sst4=%.3f ooo-large=%.3f\n"
            % (geo[("sst2", "commercial")], geo[("sst2-l2t", "commercial")],
               geo[("sst4", "commercial")], ooo)
            + "HEADLINE: best SST vs larger OoO = %+.1f%% (paper: ~+18%%)\n"
            % (100.0 * (best / ooo - 1.0))
            + "SHAPE: on compute, ooo-large vs sst4 = %+.1f%% (paper: OoO "
              "keeps the ILP crown)\n"
            % (100.0 * (geo[("ooo-large", "compute")]
                        / geo[("sst4", "compute")] - 1.0)))


def f17_headline(s):
    g = geomean([sle_speedup(s, w, None, "4") for w in s.workloads])
    return "HEADLINE: geomean SLE speedup = %.3fx\n" % g


def f19_headline(s):
    g = geomean([speedup(s, w, "sst4-vp-stride", None)
                 for w in s.workloads])
    return "HEADLINE: geomean stride-VP speedup on sst4 = %.3fx\n" % g


DQ = ("8", "16", "32", "64", "128", "256")
SSQ = ("4", "8", "16", "32", "64")
TLB = [cell("no-tlb", p="sst4", x="0")] + points("sst4", "dtlb=%s", "256",
                                                 "64", "16")
PREDICTORS = points("sst4", "%s", "static", "bimodal", "gshare",
                    "tournament")
VP = "sst4-vp-stride"
SLE = "sst2-sle"

FIGURES = {
    "f2_headline": {
        "id": "F2", "what": "per-thread speedup over the in-order baseline",
        "tables": [{
            "title": "speedup vs in-order (higher is better)",
            "class": True, "geomean": "category",
            "cols": presets("scout", "ea", "sst2", "sst2-l2t", "sst4",
                            "ooo-small", "ooo-large", "ooo-huge"),
            "value": speedup, "digits": 2}],
        "csv": {"tag": "f2_speedup", "digits": 4},
        "after": f2_headline,
    },
    "f3_mlp": {
        "id": "F3", "what": "achieved memory-level parallelism per core model",
        "tables": [{
            "title": "mean demand MLP (higher = more overlapped misses)",
            "cols": presets("inorder", "scout", "ea", "sst4", "ooo-small",
                            "ooo-large"),
            "value": field("demand_mlp"), "digits": 2,
            "caption": "pointer_chase is a dependent chain: no model can "
                       "overlap its misses."}],
        "csv": {"tag": "f3_mlp", "digits": 3},
    },
    "f4_memlat": {
        "id": "F4", "what": "speedup vs in-order as DRAM latency grows",
        "tables": [{
            "title": "F4: {w} — speedup vs in-order", "each": "w",
            "corner": ["dram_base_latency"],
            "rows": [cell(x, x=x) for x in ("60", "120", "240", "480",
                                             "800")],
            "cols": presets("scout", "sst4", "ooo-large"),
            "value": speedup, "digits": 2}],
        "csv": {"tag": "f4_memlat", "corner": ["workload", "latency"],
                "digits": 4},
    },
    "f5_checkpoints": {
        "id": "F5", "what": "SST speedup vs in-order as checkpoint count "
                            "varies",
        "tables": [{
            "title": "speedup vs in-order by checkpoint count",
            "cols": points("sst4", "ckpt=%s", "1", "2", "4", "8"),
            "value": speedup, "digits": 2, "geomean": "all"}],
        "csv": {"tag": "f5_checkpoints", "digits": 4,
                "cols": points("sst4", "ckpt%s", "1", "2", "4", "8")},
    },
    "f6_dq": {
        "id": "F6", "what": "SST sensitivity to deferred-queue capacity",
        "tables": [{
            "title": "speedup vs in-order by DQ size (sst4)",
            "cols": points("sst4", "dq=%s", *DQ),
            "value": speedup, "digits": 2, "geomean": "all"}, {
            "title": "dq-full stall cycles per 1k insts",
            "cols": points("sst4", "dq=%s", *DQ),
            "value": per(1000, ".dq_full_stalls"), "digits": 1}],
        "csv": {"tag": "f6_dq", "digits": 4,
                "cols": points("sst4", "dq%s", *DQ)},
    },
    "f7_ssq": {
        "id": "F7", "what": "SSQ capacity sweep and disambiguation conflicts",
        "tables": [{
            "title": "speedup vs in-order by SSQ size (sst4)",
            "cols": points("sst4", "ssq=%s", *SSQ),
            "value": speedup, "digits": 2}, {
            "title": "ssq-full stall cycles per 1k insts / mem-conflict "
                     "rollbacks per 100k insts",
            "cols": points("sst4", "ssq=%s", *SSQ),
            "value": [per(1000, ".ssq_full_stalls"),
                      per(100000, ".fail_mem")], "digits": [1, 2]}],
        "csv": {"tag": "f7_ssq", "digits": 4,
                "cols": points("sst4", "ssq%s", *SSQ)},
    },
    "f10_failures": {
        "id": "F10", "what": "why speculation fails (per 100k retired insts)",
        "tables": [{
            "title": "sst4 rollback and stall profile", "key": {"p": "sst4"},
            "cols": [cell("ckpts", stat(".checkpoints_taken"), 0),
                     cell("commits", stat(".epochs_committed"), 0),
                     cell("fail.branch", per(100000, ".fail_branch"), 1),
                     cell("fail.jump", per(100000, ".fail_jump"), 1),
                     cell("fail.mem", per(100000, ".fail_mem"), 2),
                     cell("discarded%", discarded_pct, 1),
                     cell("dq stall/1k", per(1000, ".dq_full_stalls"), 1),
                     cell("ssq stall/1k", per(1000, ".ssq_full_stalls"),
                          1)],
            "caption": "discarded% = speculative instructions thrown away "
                       "by rollbacks, relative to all executed."}],
        "csv": {"tag": "f10_failures", "digits": 3,
                "cols": [cell("fail_branch", per(100000, ".fail_branch")),
                         cell("fail_jump", per(100000, ".fail_jump")),
                         cell("fail_mem", per(100000, ".fail_mem")),
                         cell("discarded_pct", discarded_pct)]},
    },
    "f11_branches": {
        "id": "F11", "what": "SST sensitivity to branch predictor quality",
        "tables": [{
            "title": "sst4 speedup vs (same-predictor) in-order",
            "cols": PREDICTORS, "value": speedup, "digits": 2}, {
            "title": "deferred-branch rollbacks per 100k insts",
            "cols": PREDICTORS, "value": per(100000, ".fail_branch"),
            "digits": 1,
            "caption": "btree_lookup's branches are data-random: no "
                       "predictor can save those rollbacks."}],
        "csv": {"tag": "f11_branches", "digits": 4},
    },
    "f12_policies": {
        "id": "F12", "what": "SST policy ablations (speedup vs in-order)",
        "tables": [{
            "title": "sst4 policy variants",
            "cols": [cell("baseline", p="sst4"),
                     cell("l2-miss-trigger", p="sst4-l2t"),
                     cell("throttle-br=1", p="sst4-throttle1"),
                     cell("throttle-br=4", p="sst4-throttle4"),
                     cell("line-conflicts", p="sst4-lines")],
            "value": speedup, "digits": 2, "geomean": "all"}],
        "csv": {"tag": "f12_policies", "digits": 4},
    },
    "f13_prefetch": {
        "id": "F13", "what": "prefetching vs speculative threading (IPC)",
        "tables": [{
            "title": "IPC by miss-coverage mechanism",
            "cols": presets("inorder+nopf", "inorder+nextline",
                            "inorder+stride", "scout", "sst4"),
            "value": field("ipc"), "digits": 3,
            "caption": "prefetchers need an address pattern; the ahead "
                       "strand just computes the addresses."}],
        "csv": {"tag": "f13_prefetch", "digits": 4},
    },
    "f14_rock16": {
        "id": "F14", "what": "the full ROCK chip: rock16 on the "
                             "shared-memory workloads",
        "tables": [{
            "title": "rock16 full chip: 16 coherent SST cores",
            "corner": ["shared workload"], "key": {"p": "rock16"},
            "cols": [cell("cycles", field("cycles"), 0),
                     cell("aggregate IPC", field("ipc"), 3)]}],
        "csv": {"tag": "f14_rock16", "corner": ["workload"],
                "cols": [cell("cycles", field("cycles"), 0),
                         cell("aggregate_ipc", field("ipc"), 4)]},
    },
    "f15_tlb": {
        "id": "F15", "what": "sensitivity to data-TLB reach",
        "tables": [{
            "title": "sst4 speedup vs in-order under TLB pressure",
            "cols": TLB, "value": speedup, "digits": 2}, {
            "title": "page walks per 1k insts (in-order core)",
            "cols": TLB, "value": base(per(1000, "dtlb.misses")),
            "digits": 1}],
        "csv": {"tag": "f15_tlb", "digits": 4,
                "cols": points("sst4", "tlb%s", "0", "256", "64", "16")},
    },
    "f17_sharing": {
        "id": "F17", "what": "speculative lock elision vs conventional "
                             "locking",
        "tables": [{
            "title": "coherent 4-core CMP (sst2), locking vs elision",
            "key": {"x": "4"}, "digits": 0,
            "cols": [cell("base cycles", field("cycles"), p="sst2"),
                     cell("sle cycles", field("cycles"), p=SLE),
                     cell("speedup", sle_speedup, suffixed(3, "x")),
                     cell("elisions", chip(".sle_elisions"), p=SLE),
                     cell("commits", chip(".sle_commits"), p=SLE),
                     cell("aborts", chip(".sle_aborts"), p=SLE),
                     cell("base coh%", coh_pct, 1, p="sst2"),
                     cell("sle coh%", coh_pct, 1, p=SLE)],
            "caption": "coh% = share of all core cycles the CPI stack "
                       "charges to coherence: stalls on coherence "
                       "traffic and elided sections a remote write "
                       "aborted."}],
        "csv": {"tag": "f17_sharing",
                "cols": [cell("base_cycles", field("cycles"), p="sst2"),
                         cell("sle_cycles", field("cycles"), p=SLE),
                         cell("speedup", sle_speedup, 4)]},
        "after": f17_headline,
    },
    "f19_valuepred": {
        "id": "F19", "what": "load-value prediction in the SST ahead strand",
        "tables": [{
            "title": "sst4 with core.value_pred=off|last|stride",
            "value": field("cycles"), "digits": 0, "key": {"p": VP},
            "cols": [cell("off cyc", p="sst4"),
                     cell("last cyc", p="sst4-vp-last"),
                     cell("stride cyc"),
                     cell("stride speedup", speedup, suffixed(3, "x")),
                     cell("accuracy", vp_accuracy, suffixed(1, "%")),
                     cell("vp cyc", stat(".cpi_stack.value_pred")),
                     cell("waste cyc", stat(".cpi_stack.value_pred_waste")),
                     cell("squashes", stat(".fail_vpred"))],
            "caption": "vp cyc = committed speculation cycles that ran on a "
                       "predicted value (converted deferral stalls); waste "
                       "cyc = cycles squashed by a wrong guess."}, {
            "title": "Pareto framing: cycles vs the OoO comparators",
            "value": field("cycles"), "digits": 0, "key": {"p": VP},
            "cols": [cell("sst4+stride"), cell("ooo-small", p="ooo-small"),
                     cell("ooo-large", p="ooo-large"),
                     cell("vs ooo-large", vs_ooo_large, suffixed(3, "x"))]}],
        "csv": {"tag": "f19_valuepred",
                "cols": [cell("off_cycles", p="sst4"),
                         cell("last_cycles", p="sst4-vp-last"),
                         cell("stride_cycles"),
                         cell("speedup", speedup, 4)]},
        "after": f19_headline,
    },
    "b1_cpistack": {
        "id": "B1", "what": "CPI stacks (cycles per 1k retired instructions)",
        "tables": [{
            "title": "B1: {w}", "each": "w", "corner": ["preset"],
            "rows": presets("inorder", "scout", "sst2", "sst4"),
            "digits": 1,
            "cols": [cell("CPI", cpi, 2),
                     cell("base/1k", per(1000, ".cpi_stack.base")),
                     cell("use-stall/1k", per(1000, ".cpi_stack.use_stall")),
                     cell("fetch/1k", per(1000, ".cpi_stack.fetch")),
                     cell("dq-full/1k", per(1000, ".cpi_stack.dq_full")),
                     cell("ssq-full/1k", per(1000, ".cpi_stack.ssq_full")),
                     cell("replay/1k", per(1000, ".cpi_stack.replay")),
                     cell("discard/1k",
                          per(1000, ".cpi_stack.rollback_discard")),
                     cell("rollbacks/1k",
                          per(1000, ".fail_branch", ".fail_jump",
                              ".fail_mem", ".scout_ends"), 2)]}],
    },
}


def text(value, digits, args):
    """One cell: a value (or " / "-joined values) at its digits."""
    if isinstance(value, list):
        return " / ".join(text(v, d, args) for v, d in zip(value, digits))
    v = value(*args)
    return digits(v) if callable(digits) else num(v, digits)


def grid(s, spec, w=None):
    """Header and body rows of one table (for workload @p w)."""
    rows = spec.get("rows") or [cell(n, w=n) for n in s.workloads]
    corner = spec.get("corner", ["workload"])
    header = corner + (["class"] if spec.get("class") else []) \
        + [c["label"] for c in spec["cols"]]
    body, numbers = [], []
    for r in rows:
        row = ([w] if len(corner) == 2 else []) + [r["label"]]
        if spec.get("class"):
            row.append(category(r["label"]))
        nums = []
        for c in spec["cols"]:
            key = {"w": w, **spec.get("key", {}), **r["key"], **c["key"]}
            args = (s, key["w"], key.get("p"), key.get("x"))
            value = c["value"] or spec["value"]
            digits = spec["digits"] if c["digits"] is None else c["digits"]
            row.append(text(value, digits, args))
            if spec.get("geomean"):
                nums.append(value(*args))
        body.append(row)
        numbers.append((r["label"], nums))
    return header, body + geomean_rows(spec, numbers)


def geomean_rows(spec, numbers):
    """GEOMEAN rows over a table's numbers, overall or per category."""
    if not spec.get("geomean"):
        return []
    groups = [("GEOMEAN", [n for _, n in numbers])]
    if spec["geomean"] == "category":
        groups = [("GEOMEAN " + c, [n for w, n in numbers
                                    if category(w) == c])
                  for c in CATEGORIES]
    return [[label] + ([""] if spec.get("class") else [])
            + [num(geomean(column), spec["digits"])
               for column in zip(*rows)]
            for label, rows in groups]


def render_table(title, header, rows, caption=None):
    """Table::render: one padded '| a | b |' line per row."""
    widths = [max(len(r[i]) for r in [header] + rows)
              for i in range(len(header))]

    def line(row):
        return "| " + " | ".join(c.ljust(widths[i])
                                 for i, c in enumerate(row)) + " |\n"
    out = "\n== " + title + " ==\n" + line(header)
    out += "|" + "".join("-" * (w + 2) + "|" for w in widths) + "\n"
    out += "".join(line(r) for r in rows)
    if caption:
        out += caption + "\n"
    return out


def per_workload(s, spec):
    return s.workloads if spec.get("each") == "w" else [None]


def render(s, fig):
    """The figure's text, and its CSV as (tag, lines) or None."""
    out = ("\n" + "#" * 70 + "\n## %s — %s\n" % (fig["id"], fig["what"])
           + "## (shape reproduction; absolute numbers are from this "
             "simulator,\n##  not the paper's testbed)\n" + "#" * 70 + "\n")
    for spec in fig["tables"]:
        for w in per_workload(s, spec):
            header, rows = grid(s, spec, w)
            out += render_table(spec["title"].format(w=w), header, rows,
                                spec.get("caption"))
    csv = None
    if "csv" in fig:
        spec = dict(fig["tables"][0], **{"class": False, "geomean": None},
                    **fig["csv"])
        lines = []
        for w in per_workload(s, spec):
            header, rows = grid(s, spec, w)
            lines += ([",".join(header)] if not lines else []) \
                + [",".join(r) for r in rows]
        csv = (spec["tag"], lines)
        out += "BEGIN_CSV %s\n%sEND_CSV %s\n" % (
            spec["tag"], "".join(l + "\n" for l in lines), spec["tag"])
    if "after" in fig:
        out += fig["after"](s)
    return out, csv


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("json", nargs="+", help="sstsim sweep --json output")
    ap.add_argument("--csv-dir", help="also write <tag>.csv here")
    args = ap.parse_args()
    for path in args.json:
        with open(path) as f:
            s = Sweep(json.load(f))
        if s.name not in FIGURES:
            print("%s: no figure named '%s' (known: %s)"
                  % (path, s.name, " ".join(FIGURES)), file=sys.stderr)
            return 2
        text_out, csv = render(s, FIGURES[s.name])
        sys.stdout.write(text_out)
        if args.csv_dir and csv:
            os.makedirs(args.csv_dir, exist_ok=True)
            tag, lines = csv
            with open(os.path.join(args.csv_dir, tag + ".csv"), "w") as f:
                f.writelines(l + "\n" for l in lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
