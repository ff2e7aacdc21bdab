"""Run every workload over several seeds, summarise, and compare result sets.

    python3 bench/suite.py run --label NAME [--src DIR]
    python3 bench/suite.py pairs --label NAME --base DIR --change DIR
    python3 bench/suite.py compare BASE.json CHANGE.json

``run`` makes ``RUNS`` untraced runs of each workload (seeds 1..RUNS) and
one traced run, each through ``run.py`` with the run length from
``BENCHMARK.json``, and writes ``.bench_work/BENCH_<label>.json``.  ``pairs``
does the same for two source trees (each a directory holding ``fjmedia``)
with identical benchmark code, alternating which tree runs first per seed,
then compares them.  Every summary lists each metric by name and unit with
its median, quartiles, sample count and spread (quartile distance over the
median); ``failed_frac`` is failed over attempted processes.

``compare`` judges each metric from runs paired by seed: the change gains
on a metric when it wins at least 9 of 10 seed pairs and the
medians differ by more than the base's quartile distance; it regresses when
its median is worse than the base's by more than the metric's bound; a
metric whose spread on either side exceeds its bound is unresolved, unless
every change run beats every base run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
OUT_DIR = ROOT / ".bench_work"
RUNS = 10  # seeds per workload; the pair rule below needs 9 wins of 10


def one_run(src: Path, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", str(trace), "--src", str(src)]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    lines = done.stdout.strip().splitlines()
    record = {"workload": workload, "seed": seed, "trace": trace,
              "exit_code": done.returncode,
              "elapsed_s": time.perf_counter() - start}
    for line in lines[:-1]:
        key, _, rest = line.partition(" ")
        if key in ("env", "input"):
            record[key] = json.loads(rest)
        elif key == "samples":
            name, *values = rest.split()
            record.setdefault("samples", {})[name] = [float(v) for v in values]
    try:
        record["result"] = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record["result"] = None
        record["stderr"] = done.stderr[-2000:]
    return record


def run_sets(trees: dict[str, Path], workloads: list[str]) -> dict:
    """Result sets for each labelled tree; the first tree alternates with
    the second as the one that runs first for each seed."""
    sets = {label: {"label": label, "src": str(src), "benchmark": SPEC,
                    "loadavg_before": os.getloadavg(), "runs": []}
            for label, src in trees.items()}
    order = list(trees)
    for i, seed in enumerate(range(1, RUNS + 2)):
        trace = int(seed == RUNS + 1)  # one traced run after the timed ones
        for label in (order if i % 2 == 0 else order[::-1]):
            for workload in workloads:
                rec = one_run(trees[label], workload, seed, trace)
                sets[label]["runs"].append(rec)
                res = rec["result"]
                status = ("no result" if res is None else
                          f"correct={res['correct']} failed={res['failed']}"
                          f"/{res['attempted']}")
                print(f"[{label}] {workload} seed {seed} trace {trace}: {status} "
                      f"in {rec['elapsed_s']:.1f} s", flush=True)
    for s in sets.values():
        s["loadavg_after"] = os.getloadavg()
    return sets


def quartiles(values: list[float]) -> tuple[float, float, float]:
    st = summary(values)
    return st["q1"], st["median"], st["q3"]


def collect(result_set: dict, trace: int) -> dict[str, dict[str, dict[int, float]]]:
    """workload -> metric -> seed -> value, over runs with a result."""
    out: dict[str, dict[str, dict[int, float]]] = {}
    for rec in result_set["runs"]:
        if rec["trace"] != trace or rec["result"] is None:
            continue
        per = out.setdefault(rec["workload"], {})
        for name, m in rec["result"]["metrics"].items():
            per.setdefault(name, {})[rec["seed"]] = m["value"]
    return out


def summarise(result_set: dict) -> None:
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    print(f"== {result_set['label']} ({result_set['src']})")
    env = next((r["env"] for r in result_set["runs"] if "env" in r), {})
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"loadavg before {result_set['loadavg_before']} "
          f"after {result_set['loadavg_after']}")
    for workload in sorted({r["workload"] for r in result_set["runs"]}):
        recs = [r for r in result_set["runs"] if r["workload"] == workload]
        attempted = sum(r["result"]["attempted"] for r in recs if r["result"])
        failed = sum(r["result"]["failed"] for r in recs if r["result"])
        missing = sum(1 for r in recs if r["result"] is None)
        correct = all(r["result"] and r["result"]["correct"] for r in recs)
        print(f"-- {workload}: failed_frac {failed / max(attempted, 1):.4g} "
              f"({failed}/{attempted} processes), correct={correct}, "
              f"runs without result {missing}")
        inputs = {json.dumps(r.get("input"), sort_keys=True) for r in recs}
        print(f"   inputs: {len(inputs)} distinct, e.g. {min(inputs)}")
        for trace in (0, 1):
            for name, by_seed in collect(result_set, trace).get(workload, {}).items():
                q1, med, q3 = quartiles(list(by_seed.values()))
                spread = (q3 - q1) / med if med else float("nan")
                print(f"   {name:42s} [{units.get(name, '?'):>5s}] median {med:<12.6g} "
                      f"q1 {q1:<12.6g} q3 {q3:<12.6g} n {len(by_seed):<3d} "
                      f"spread {spread:.3f}")


def verdict(metric: dict, base: dict[int, float], change: dict[int, float]) -> str:
    lower = metric["better"] == "lower"
    seeds = sorted(set(base) & set(change))
    if not seeds:
        return "no paired runs"

    def better(x, y):
        return x < y if lower else x > y

    a, b = [base[s] for s in seeds], [change[s] for s in seeds]
    qa1, ma, qa3 = quartiles(a)
    qb1, mb, qb3 = quartiles(b)
    wins = sum(better(y, x) for x, y in zip(a, b))
    bound = metric["bound"]
    all_better = all(better(y, x) for x in a for y in b)
    if wins >= 0.9 * len(seeds) and abs(mb - ma) > qa3 - qa1 and better(mb, ma):
        if all_better or ((qa3 - qa1) / ma <= bound and (qb3 - qb1) / mb <= bound):
            return f"gain (wins {wins}/{len(seeds)})"
    worse_by = (mb - ma) / ma if lower else (ma - mb) / ma
    if (qa3 - qa1) / ma > bound or (qb3 - qb1) / mb > bound:
        return "better in every run" if all_better else "unresolved (spread > bound)"
    if worse_by > bound:
        return f"regression ({100 * worse_by:.1f}% worse, bound {100 * bound:.0f}%)"
    return f"no change within bound ({100 * worse_by:+.1f}% worse)"


def compare(base: dict, change: dict) -> None:
    print(f"== compare {base['label']} -> {change['label']}")
    cb, cc = collect(base, 0), collect(change, 0)
    for workload in sorted(set(cb) | set(cc)):
        print(f"-- {workload}")
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            a = cb.get(workload, {}).get(name, {})
            b = cc.get(workload, {}).get(name, {})
            ma = statistics.median(a.values()) if a else float("nan")
            mb = statistics.median(b.values()) if b else float("nan")
            print(f"   {name:18s} [{metric['unit']:>4s}] base {ma:<11.5g} "
                  f"change {mb:<11.5g} {verdict(metric, a, b)}")
    lb, lc = collect(base, 1), collect(change, 1)
    print("-- per-layer medians (traced runs, no verdict)")
    for workload in sorted(set(lb) | set(lc)):
        for metric in SPEC["per_layer"]:
            name = metric["name"]
            a = list(lb.get(workload, {}).get(name, {}).values())
            b = list(lc.get(workload, {}).get(name, {}).values())
            if a and b and statistics.median(a) != statistics.median(b):
                print(f"   {workload:20s} {name:42s} {statistics.median(a):<12.6g} -> "
                      f"{statistics.median(b):.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    all_workloads = [w["name"] for w in SPEC["workloads"]]
    for name in ("run", "pairs"):
        p = sub.add_parser(name)
        p.add_argument("--label", required=True)
        p.add_argument("--workloads", default=",".join(all_workloads),
                       help="comma-separated subset (default: all)")
        if name == "run":
            p.add_argument("--src", type=Path, default=ROOT / "src")
        else:
            p.add_argument("--base", type=Path, required=True)
            p.add_argument("--change", type=Path, required=True)
    p = sub.add_parser("compare")
    p.add_argument("base", type=Path)
    p.add_argument("change", type=Path)
    args = parser.parse_args(argv)

    if args.cmd == "compare":
        compare(json.loads(args.base.read_text()), json.loads(args.change.read_text()))
        return 0
    workloads = args.workloads.split(",")
    trees = ({args.label: args.src.resolve()} if args.cmd == "run" else
             {f"{args.label}-base": args.base.resolve(),
              f"{args.label}-change": args.change.resolve()})
    sets = run_sets(trees, workloads)
    OUT_DIR.mkdir(exist_ok=True)
    for label, result_set in sets.items():
        path = OUT_DIR / f"BENCH_{label}.json"
        path.write_text(json.dumps(result_set, indent=1, sort_keys=True))
        summarise(result_set)
        print(f"wrote {path}")
    if args.cmd == "pairs":
        compare(*sets.values())
    return 0


if __name__ == "__main__":
    sys.exit(main())
