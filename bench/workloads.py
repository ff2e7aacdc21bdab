"""Benchmark workloads: CLI flags, seeded inputs, and output checks.

Every workload is one ``python -m fjmedia <mode> ...`` invocation.  The
workload seed is the only source of randomness: it picks the edge list the
file workload reads and is passed to the program as ``--seed``.  The program
sees nothing but the generated flags and the input file.

The correctness checks rebuild the paper's closed forms through the public
functions of the checkout under test and hold the program's CSV to the
tolerances of ``tests/test_acceptance.py`` (criteria 03, 04, 06 and 08).
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    flags: tuple[str, ...]
    # graph source: ("file", n, d) is written by the benchmark,
    # ("ba", n, m) / ("dreg", n, d) is generated by the program
    graph: tuple[str, int, int]
    # spans that must record at least one call in the traced run
    expect_spans: tuple[str, ...]


_RADICALISATION = ("--alpha", "1", "--beta", "0.025", "--gamma", "0.01",
                   "--max-periods", "1000")

# spans every workload exercises: the CLI entry, harness, one solve path
_COMMON_SPANS = ("cli.main", "harness.run_experiment", "harness.sample_innate",
                 "harness.rows_to_csv", "harness.manifest_text",
                 "media.assign_media", "graph.Graph.init",
                 "numerics.solve_spd", "numerics.apply", "graph.neighbor_sum")

WORKLOADS = {w.name: w for w in (
    Workload(
        name="periods-file-dreg",
        mode="periods",
        flags=_RADICALISATION + ("--reps", "1"),
        graph=("file", 50_000, 20),
        expect_spans=_COMMON_SPANS + ("graph.load_edge_list",
                                      "periods.run_periods",
                                      "media.equilibrium_with_media",
                                      "media.source_opinions"),
    ),
    Workload(
        name="equilibrium-ba",
        mode="equilibrium",
        flags=("--alpha", "0.7", "--beta", "0.5", "--gamma", "0.05",
               "--reps", "10"),
        graph=("ba", 20_000, 3),
        expect_spans=_COMMON_SPANS + ("graph.gen_barabasi_albert",
                                      "media.equilibrium_with_media",
                                      "media.source_opinions",
                                      "media.sum_bounds"),
    ),
    Workload(
        name="periods-small-dreg",
        mode="periods",
        flags=_RADICALISATION + ("--reps", "30"),
        graph=("dreg", 500, 20),
        expect_spans=_COMMON_SPANS + ("graph.gen_random_regular",
                                      "periods.run_periods",
                                      "media.equilibrium_with_media",
                                      "media.source_opinions"),
    ),
    Workload(
        name="nonstubborn-ba",
        mode="nonstubborn",
        flags=("--beta", "0.5", "--gamma", "0.05", "--reps", "6"),
        graph=("ba", 20_000, 3),
        expect_spans=_COMMON_SPANS + ("graph.gen_barabasi_albert",
                                      "nonstubborn.nonstubborn_equilibrium"),
    ),
)}


def graph_flags(workload: Workload, edge_file: Path | None) -> list[str]:
    kind, n, k = workload.graph
    if kind == "file":
        return ["--graph", str(edge_file)]
    return ["--gen", kind, "--n", str(n), "--m" if kind == "ba" else "--d", str(k)]


def cli_args(workload: Workload, seed: int, edge_file: Path | None,
             out: Path) -> list[str]:
    return [workload.mode, *graph_flags(workload, edge_file), *workload.flags,
            "--seed", str(seed), "--out", str(out)]


def setup_code(workload: Workload, seed: int, edge_file: Path | None) -> str:
    """Python source for a fresh process that pays the run's set-up once:
    import fjmedia and build the workload's graph through the public entry
    point.  It prints the package path so the caller can check which tree
    was imported."""
    kind, n, k = workload.graph
    if kind == "file":
        build = f"fjmedia.load_edge_list({str(edge_file)!r})"
    elif kind == "ba":
        build = f"fjmedia.GraphSpec(kind='ba', n={n}, m={k}).build({seed})"
    else:
        build = f"fjmedia.GraphSpec(kind='dreg', n={n}, d={k}).build({seed})"
    return f"import fjmedia\n{build}\nprint(fjmedia.__file__)\n"


# ---------------------------------------------------------------------------
# inputs


def write_regular_edge_list(path: Path, n: int, d: int, seed: int) -> dict:
    """Write a simple d-regular graph as ``u v`` lines; return its provenance.

    The graph is a circulant on Z_n with d/2 distinct random strides below
    n/2 (each stride adds a perfect 2-factor, so the result is simple and
    d-regular), relabelled by a random permutation.  Lines are shuffled and
    each edge randomly oriented, so the loader's first-appearance remapping
    and the kernel's memory access see no ring structure.
    """
    if d % 2 or not 0 < d < n - 1:
        raise ValueError("need an even degree 0 < d < n - 1")
    rng = np.random.default_rng(seed)
    strides = rng.choice(np.arange(1, (n - 1) // 2 + 1), size=d // 2,
                         replace=False)
    label = rng.permutation(n)
    base = np.arange(n)
    u = np.concatenate([label[base]] * (d // 2))
    v = np.concatenate([label[(base + s) % n] for s in strides])
    order = rng.permutation(u.size)
    u, v = u[order], v[order]
    flip = rng.random(u.size) < 0.5
    u, v = np.where(flip, v, u), np.where(flip, u, v)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        np.savetxt(fh, np.column_stack([u, v]), fmt="%d")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    return {"kind": "file", "sha256": digest, "n": n, "m": int(u.size),
            "d": d, "seed": seed}


def generated_provenance(manifest: dict[str, str], reps: int) -> dict:
    """n, edge count and degree range of the graphs a generated run built."""
    edges = [int(manifest[f"rep{i}.graph.edges"]) for i in range(reps)]
    return {
        "kind": manifest["graph.kind"],
        "n": int(manifest["rep0.graph.n"]),
        "edges_min": min(edges), "edges_max": max(edges),
        "d_min": min(float(manifest[f"rep{i}.graph.d_min"]) for i in range(reps)),
        "d_max": max(float(manifest[f"rep{i}.graph.d_max"]) for i in range(reps)),
        "version": manifest["version"],
    }


# ---------------------------------------------------------------------------
# output checks


def parse_manifest(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def parse_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def equilibria_count(mode: str, rows: list[dict[str, str]]) -> int:
    """Equilibria the run solved: one per period >= 1 in periods mode,
    otherwise one per rep."""
    if mode == "periods":
        return sum(1 for r in rows if int(r["period"]) >= 1)
    return len(rows)


def check_output(fj, workload: Workload, rows: list[dict[str, str]],
                 manifest: dict[str, str]) -> list[str]:
    """Return the problems found in one run's output (empty when correct).

    ``fj`` is the ``fjmedia`` package of the checkout under test; the checks
    use its public closed forms with the acceptance tolerances.
    """
    reps = int(manifest["repetitions"])
    seen = sorted({int(r["rep"]) for r in rows})
    if seen != list(range(reps)):
        return [f"expected reps 0..{reps - 1}, CSV has {seen[:5]}..."]
    if workload.mode == "periods":
        return _check_periods(fj, rows, manifest, reps)
    problems = []
    for r in rows:
        sum_z = float(r["sum_z"])
        if workload.mode == "equilibrium":
            # acceptance 03: lower - 1e-8 <= sum_z <= upper + 1e-8
            if r["truncated"] != "false":
                problems.append(f"rep {r['rep']}: unexpected truncated source")
                continue
            lower, upper = float(r["lower"]), float(r["upper"])
            if not lower - 1e-8 <= sum_z <= upper + 1e-8:
                problems.append(f"rep {r['rep']}: sum_z {sum_z!r} outside "
                                f"[{lower!r}, {upper!r}]")
        elif workload.mode == "nonstubborn":
            # acceptance 08: sum_z <= (1 + (1+gamma)/n) sum_s + 1e-8 n
            n = int(manifest[f"rep{r['rep']}.graph.n"])
            gamma = float(manifest["gamma"])
            bound = (1.0 + (1.0 + gamma) / n) * float(r["sum_s"])
            if sum_z > bound + 1e-8 * n:
                problems.append(f"rep {r['rep']}: sum_z {sum_z!r} above the "
                                f"non-stubborn cap {bound!r}")
    return problems


def _growth_factor(fj, d: int, config) -> float:
    # sum_bounds is linear in sum(s) and, on a d-regular graph, depends on the
    # graph only through d: read the per-period factor off K_{d+1}
    k = d + 1
    clique = fj.Graph.from_edges(k, [(i, j) for j in range(k) for i in range(j)])
    s = np.full(k, 0.5)
    return fj.sum_bounds(clique, s, config).exact_if_regular / float(s.sum())


def _check_periods(fj, rows, manifest, reps) -> list[str]:
    problems = []
    beta, gamma = float(manifest["beta"]), float(manifest["gamma"])
    by_rep: dict[int, list[dict[str, str]]] = {}
    for r in rows:
        by_rep.setdefault(int(r["rep"]), []).append(r)
    factors: dict[tuple[int, float], float] = {}
    for rep, recs in by_rep.items():
        pre = f"rep{rep}."
        n = int(manifest[pre + "graph.n"])
        if manifest[pre + "graph.is_regular"] != "true":
            problems.append(f"rep {rep}: graph is not regular")
            continue
        d = int(float(manifest[pre + "graph.d_max"]))
        alpha = int(manifest[pre + "count_M"]) / n  # realized, as acceptance 06
        config = fj.MediaConfig(alpha=alpha, beta=beta, gamma=gamma)
        if (d, alpha) not in factors:
            factors[d, alpha] = _growth_factor(fj, d, config)
        factor = factors[d, alpha]

        # acceptance 06: radicalized_up at ceil(ell*) or ceil(ell*) + 1
        last = recs[-1]
        ell = fj.ell_star(n, float(recs[0]["sum_z"]), d, config)
        if last["stop_cause"] != "radicalized_up":
            problems.append(f"rep {rep}: stopped by {last['stop_cause']}")
        elif int(last["period"]) not in (math.ceil(ell), math.ceil(ell) + 1):
            problems.append(f"rep {rep}: stopped at period {last['period']}, "
                            f"ell* = {ell!r}")

        # acceptance 04: every uncapped period multiplies the sum by F
        for prev, cur in zip(recs, recs[1:]):
            if int(cur["period"]) != int(prev["period"]) + 1:
                problems.append(f"rep {rep}: period {cur['period']} out of order")
                break
            if cur["truncated"] != "false":
                continue
            want = factor * float(prev["sum_z"])
            if abs(float(cur["sum_z"]) - want) > 1e-8 * n:
                problems.append(f"rep {rep} period {cur['period']}: sum_z "
                                f"{cur['sum_z']} != F * previous {want!r}")
    return problems
