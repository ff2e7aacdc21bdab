"""Aggregate the spans a traced run wrote into per-layer metrics.

A span's self time is its duration minus the durations of its child spans;
the run is single-threaded, so children never overlap and their sum is the
covered part of the interval.  Self times of all spans under ``cli.main``
add up to its duration exactly, which lets the per-module split account for
the whole traced wall (see ``README.md`` in this directory).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# modules of the package the CLI reaches
MODULES = ("graph", "numerics", "media", "periods", "nonstubborn", "harness", "cli")
UNMEASURED = {"fj": "library-only: the CLI never calls it"}

GENERATORS = ("graph.gen_barabasi_albert", "graph.gen_random_regular")
SOURCES = ("graph.load_edge_list",) + GENERATORS


@dataclass
class SpanStats:
    calls: int
    total_s: float
    self_s: float
    count1: np.ndarray
    count2: np.ndarray
    durations: np.ndarray


def load(path) -> dict[str, SpanStats]:
    """Per-name statistics of one spans file written by tracer.py."""
    data = np.load(path)
    names = [str(x) for x in data["names"]]
    name_of, parent = data["name_of"], data["parent"]
    dur = data["end"] - data["start"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                             minlength=dur.size)
    self_time = dur - child_time
    out = {}
    for i, name in enumerate(names):
        sel = name_of == i
        out[name] = SpanStats(calls=int(sel.sum()), total_s=float(dur[sel].sum()),
                              self_s=float(self_time[sel].sum()),
                              count1=data["count1"][sel], count2=data["count2"][sel],
                              durations=dur[sel])
    return out


def tail_percentile(samples: np.ndarray) -> tuple[float, float]:
    """(percentile, value): the highest of p99.9/p99/p90/p50 with at least
    ten samples beyond it; the maximum (p100) when there are fewer than 20."""
    for pct in (99.9, 99.0, 90.0, 50.0):
        if samples.size * (1.0 - pct / 100.0) >= 10.0:
            return pct, float(np.percentile(samples, pct))
    return 100.0, float(samples.max()) if samples.size else 0.0


def _median(samples: np.ndarray) -> float:
    return float(np.median(samples)) if samples.size else 0.0


def module_self(stats: dict[str, SpanStats]) -> dict[str, float]:
    split = {m: 0.0 for m in MODULES}
    for name, st in stats.items():
        split[name.split(".", 1)[0]] += st.self_s
    return split


def bookkeeping_s(meta: dict) -> float:
    """Time the tracer spends outside cli.main on its own work."""
    return meta["install_s"] + meta["calibrate_s"] + meta["save_s"]


def layer_metrics(stats: dict[str, SpanStats], meta: dict,
                  traced_wall: float) -> dict[str, float]:
    """Every per-layer metric named in BENCHMARK.json, from one traced run.

    ``meta`` is the tracer's own timing record and ``traced_wall`` the traced
    process wall time.  Each metric is non-zero on every workload: counts and
    times that exist only in some modes are summed over the alternatives
    (``graph.source.*``, ``mode.self_s``) or left to the trace text.
    """
    def total(*names):
        return sum(stats[n].total_s for n in names)

    def calls(*names):
        return sum(stats[n].calls for n in names)

    src_edges = sum(int(stats[n].count1.sum()) for n in SOURCES)
    ns = stats["graph.neighbor_sum"]
    ns_edges = float(ns.count1.sum())
    # computed, not measured: each edge's u, v, w and both endpoint gathers,
    # plus one output value per node; temporaries and cache misses ignored
    ns_bytes = 8.0 * float((5 * ns.count1 + ns.count2).sum())
    solve = stats["numerics.solve_spd"]
    iters = solve.count1
    apply_ = stats["numerics.apply"]
    _, tail = tail_percentile(solve.durations)
    split = module_self(stats)
    main = stats["cli.main"]
    outside_main = traced_wall - main.total_s
    bookkeeping = bookkeeping_s(meta)
    spans = sum(st.calls for st in stats.values())

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    return {
        "graph.source.s": total(*SOURCES),
        "graph.source.calls": calls(*SOURCES),
        "graph.source.edges_per_s": rate(src_edges, total(*SOURCES)),
        "graph.Graph.init.s": total("graph.Graph.init"),
        "graph.Graph.init.calls": calls("graph.Graph.init"),
        "graph.neighbor_sum.s": ns.total_s,
        "graph.neighbor_sum.calls": ns.calls,
        "graph.neighbor_sum.edges_per_s": rate(ns_edges, ns.total_s),
        "graph.neighbor_sum.gbytes_per_s_computed": rate(ns_bytes / 1e9, ns.total_s),
        "graph.self_s": split["graph"],
        "numerics.solve_spd.s": solve.total_s,
        "numerics.solve_spd.self_s": solve.self_s,
        "numerics.solve_spd.calls": solve.calls,
        "numerics.solve_spd.p50_ms": 1e3 * _median(solve.durations),
        "numerics.solve_spd.tail_ms": 1e3 * tail,
        "numerics.cg_iters.mean": float(iters.mean()) if iters.size else 0.0,
        "numerics.cg_iters.max": int(iters.max()) if iters.size else 0,
        "numerics.cg_iters.total": int(iters.sum()),
        "numerics.apply.calls": apply_.calls,
        "numerics.apply.s": apply_.total_s,
        "numerics.apply_useful_ratio": rate(float(iters.sum()), apply_.calls),
        "numerics.self_s": split["numerics"],
        "media.self_s": split["media"],
        "media.assign_media.s": total("media.assign_media"),
        "mode.self_s": split["periods"] + split["nonstubborn"],
        "harness.run_experiment.self_s": stats["harness.run_experiment"].self_s,
        "harness.sample_innate.s": total("harness.sample_innate"),
        "harness.rows_to_csv.s": total("harness.rows_to_csv"),
        "harness.rows": int(stats["harness.rows_to_csv"].count1.sum()),
        "harness.manifest_text.s": total("harness.manifest_text"),
        "harness.self_s": split["harness"],
        "cli.import_s": meta["import_s"],
        "cli.outside_main_s": outside_main,
        "cli.main.self_s": main.self_s,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": meta["span_cost_s"] * spans,
        "trace.unattributed_s": outside_main - meta["import_s"] - bookkeeping,
        "trace.spans": spans,
    }


def report_lines(stats: dict[str, SpanStats], meta: dict,
                 traced_wall: float) -> list[str]:
    """Human-readable span table and per-module split, every span included."""
    lines = [f"{'span':40s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s} "
             f"{'self%wall':>9s}"]
    for name, st in sorted(stats.items()):
        lines.append(f"{name:40s} {st.calls:8d} {st.total_s:10.4f} "
                     f"{st.self_s:10.4f} {100 * st.self_s / traced_wall:8.1f}%")
    split = module_self(stats)
    lines.append("module self time (share of traced wall):")
    for mod in MODULES:
        lines.append(f"  {mod:12s} {split[mod]:10.4f} s "
                     f"{100 * split[mod] / traced_wall:6.1f}%")
    for mod, why in UNMEASURED.items():
        lines.append(f"  {mod:12s} unmeasured ({why})")
    outside = traced_wall - stats["cli.main"].total_s
    bookkeeping = bookkeeping_s(meta)
    lines.append(f"  outside cli.main {outside:.4f} s = import {meta['import_s']:.4f} "
                 f"+ tracer bookkeeping {bookkeeping:.4f} + interpreter start/exit "
                 f"{outside - meta['import_s'] - bookkeeping:.4f}")
    spans = sum(st.calls for st in stats.values())
    lines.append(f"tracer overhead estimate {meta['span_cost_s'] * spans:.4f} s = "
                 f"{spans} spans x {1e6 * meta['span_cost_s']:.3f} us per span")
    periods = int(stats["periods.run_periods"].count1.sum())
    if periods:
        per = 1e6 * stats["periods.run_periods"].self_s / periods
        lines.append(f"periods.overhead_us_per_period {per:.2f} us "
                     f"over {periods} periods")
    solve = stats["numerics.solve_spd"]
    pct, tail = tail_percentile(solve.durations)
    lines.append(f"numerics.solve_spd.tail_ms is p{pct:g} = {1e3 * tail:.4f} ms "
                 f"over {solve.calls} solves")
    load = stats["graph.load_edge_list"]
    if load.calls:
        lines.append(f"graph.load_edge_list.edges_per_s "
                     f"{load.count1.sum() / load.total_s:.0f} 1/s")
    return lines

