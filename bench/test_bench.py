"""Tests of the benchmark itself: output checks, tracing, inputs, spec.

Run with ``python3 -m pytest bench`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import fjmedia  # noqa: E402
import fjmedia.cli  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import (WORKLOADS, check_output, cli_args,  # noqa: E402
                       parse_csv, parse_manifest, write_regular_edge_list)

# the checked modes at sizes that run in well under a second
SMALL = {
    "periods": dataclasses.replace(
        WORKLOADS["periods-small-dreg"], graph=("dreg", 200, 8),
        flags=WORKLOADS["periods-small-dreg"].flags[:-2] + ("--reps", "2")),
    "equilibrium": dataclasses.replace(
        WORKLOADS["equilibrium-ba"], graph=("ba", 300, 3),
        flags=WORKLOADS["equilibrium-ba"].flags[:-2] + ("--reps", "3")),
    "nonstubborn": dataclasses.replace(
        WORKLOADS["nonstubborn-ba"], graph=("ba", 300, 3),
        flags=WORKLOADS["nonstubborn-ba"].flags[:-2] + ("--reps", "3")),
}


def _run_cli(workload, tmp_path, seed=5):
    out = tmp_path / f"{workload.mode}.csv"
    assert fjmedia.cli.main(cli_args(workload, seed, None, out)) == 0
    return out


def _outputs(workload, tmp_path):
    out = _run_cli(workload, tmp_path)
    return (parse_csv(out.read_text()),
            parse_manifest(Path(f"{out}.manifest").read_text()))


def _nudge(rows, index, delta):
    rows[index]["sum_z"] = repr(float(rows[index]["sum_z"]) + delta)


@pytest.mark.parametrize("mode", sorted(SMALL))
def test_true_output_passes(mode, tmp_path):
    rows, manifest = _outputs(SMALL[mode], tmp_path)
    assert check_output(fjmedia, SMALL[mode], rows, manifest) == []


def test_periods_sum_nudged_by_1e6_n_fails(tmp_path):
    rows, manifest = _outputs(SMALL["periods"], tmp_path)
    n = int(manifest["rep0.graph.n"])
    _nudge(rows, 40, 1e-6 * n)  # an uncapped period in the middle of rep 0
    problems = check_output(fjmedia, SMALL["periods"], rows, manifest)
    assert any("period 40" in p for p in problems)


def test_periods_wrong_stop_period_fails(tmp_path):
    rows, manifest = _outputs(SMALL["periods"], tmp_path)
    last = max(i for i, r in enumerate(rows) if r["rep"] == "0")
    del rows[last - 2:last]  # rep 0 now stops two periods early
    rows[last - 2]["period"] = str(int(rows[last - 3]["period"]) + 1)
    problems = check_output(fjmedia, SMALL["periods"], rows, manifest)
    assert any("stopped at period" in p for p in problems)


def test_equilibrium_sum_outside_bracket_fails(tmp_path):
    rows, manifest = _outputs(SMALL["equilibrium"], tmp_path)
    n = int(manifest["rep0.graph.n"])
    rows[1]["sum_z"] = repr(float(rows[1]["upper"]) + 1e-6 * n)
    problems = check_output(fjmedia, SMALL["equilibrium"], rows, manifest)
    assert len(problems) == 1 and problems[0].startswith("rep 1:")


def test_nonstubborn_sum_above_cap_fails(tmp_path):
    rows, manifest = _outputs(SMALL["nonstubborn"], tmp_path)
    n = int(manifest["rep0.graph.n"])
    gamma = float(manifest["gamma"])
    cap = (1.0 + (1.0 + gamma) / n) * float(rows[2]["sum_s"])
    rows[2]["sum_z"] = repr(cap + 1e-6 * n)
    problems = check_output(fjmedia, SMALL["nonstubborn"], rows, manifest)
    assert len(problems) == 1 and problems[0].startswith("rep 2:")


def test_runner_counts_corrupted_and_differing_runs(tmp_path):
    workload = SMALL["periods"]
    runner = run.Runner(workload, 5, ROOT / "src", tmp_path, fjmedia)
    out = _run_cli(workload, tmp_path)
    assert runner.check_run(out, "first") and runner.failed == 0

    text = out.read_text().splitlines(keepends=True)
    cells = text[30].split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-9))
    out.write_text("".join(text[:30] + [",".join(cells)] + text[31:]))
    assert not runner.check_run(out, "second")
    assert runner.failed == 1 and "differ" in runner.problems[0]

    fresh = run.Runner(workload, 5, ROOT / "src", tmp_path, fjmedia)
    rows = parse_csv(out.read_text())
    n = int(parse_manifest(Path(f"{out}.manifest").read_text())["rep0.graph.n"])
    _nudge(rows, 30, 1e-6 * n)
    lines = [",".join(rows[0])] + [",".join(r.values()) for r in rows]
    out.write_text("\n".join(lines) + "\n")
    assert not fresh.check_run(out, "corrupted")
    assert fresh.failed == 1 and fresh.reference is None


def test_edge_list_is_simple_regular_and_seeded(tmp_path):
    a = write_regular_edge_list(tmp_path / "a.edges", 120, 6, seed=3)
    b = write_regular_edge_list(tmp_path / "b.edges", 120, 6, seed=3)
    c = write_regular_edge_list(tmp_path / "c.edges", 120, 6, seed=4)
    assert a["sha256"] == b["sha256"] != c["sha256"]
    graph = fjmedia.load_edge_list(tmp_path / "a.edges")  # rejects dups/loops
    assert (graph.n, graph.m) == (120, a["m"]) == (120, 360)
    assert graph.stats.is_regular and graph.stats.d_max == 6.0


@pytest.mark.parametrize("mode", ["periods", "nonstubborn"])
def test_traced_run_covers_every_span_and_accounts_for_main(mode, tmp_path):
    workload = SMALL[mode]
    spans_file = tmp_path / "spans.npz"
    cmd = [sys.executable, str(HERE / "tracer.py"), "--src", str(ROOT / "src"),
           "--spans", str(spans_file), "--",
           *cli_args(workload, 5, None, tmp_path / "traced.csv")]
    subprocess.run(cmd, check=True, capture_output=True, timeout=120)
    meta = json.loads(spans_file.with_suffix(".json").read_text())
    assert meta["rc"] == 0 and meta["missed_aliases"] == []
    stats = spans.load(spans_file)
    assert all(stats[name].calls > 0 for name in workload.expect_spans)
    # self times under cli.main partition its duration
    total_self = sum(st.self_s for st in stats.values())
    assert total_self == pytest.approx(stats["cli.main"].total_s, rel=1e-9)
    # tracing must not change the program's output
    untraced = _run_cli(workload, tmp_path)
    assert (tmp_path / "traced.csv").read_bytes() == untraced.read_bytes()

    # every listed per-layer metric is measured, and none reads 0 in any mode
    metrics = spans.layer_metrics(stats, meta, traced_wall=5.0)
    listed = [m["name"] for m in run.SPEC["per_layer"]]
    assert [name for name in listed if not metrics.get(name)] == []


def test_compare_verdicts_follow_the_pair_rule():
    import suite

    metric = {"name": "wall_s", "better": "lower", "bound": 0.25}
    base = {s: 10.0 + 0.1 * (s % 3) for s in range(10)}
    assert suite.verdict(metric, base, {s: v * 0.8 for s, v in base.items()}
                         ).startswith("gain")
    assert suite.verdict(metric, base, {s: v * 1.3 for s, v in base.items()}
                         ).startswith("regression")
    assert suite.verdict(metric, base, dict(base)).startswith("no change")
    noisy = {s: (6.0 if s % 2 else 14.0) for s in range(10)}
    assert suite.verdict(metric, base, noisy).startswith("unresolved")


def test_alias_check_reports_a_binding_left_unwrapped():
    import importlib

    import tracer

    media = importlib.import_module("fjmedia.media")
    original = media.neighbor_sum
    wrappers = {name: object() for name in tracer.SPANS}
    missed = tracer.check_aliases(wrappers)
    assert "fjmedia.media.neighbor_sum" in missed
    assert media.neighbor_sum is original  # checking rebinds nothing
