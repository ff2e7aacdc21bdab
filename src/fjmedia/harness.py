"""Experiment harness: repeated seeded runs, CSV rows, reproducibility manifest.

A run is a config plus a base seed.  Repetition i derives its own seed as
base_seed + i, then splits it into independent streams for graph generation,
innate-opinion sampling and media assignment via numpy's SeedSequence, so the
whole run is reproducible byte for byte from the manifest alone.  No
timestamps anywhere: identical configs must produce identical files.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, gen_barabasi_albert, gen_random_regular, load_edge_list
from .media import (MediaConfig, assign_media, build_zeta,
                    equilibrium_with_media, source_opinions, sum_bounds,
                    truncated_regular_sum)
from .nonstubborn import nonstubborn_equilibrium
from .numerics import ConvergenceError
from .periods import StopCriteria, predicted_ell_star, run_periods

__all__ = [
    "MODES",
    "CSV_COLUMNS",
    "GraphSpec",
    "ExperimentConfig",
    "RunManifest",
    "sample_innate",
    "run_experiment",
    "rows_to_csv",
    "config_from_manifest",
]

MODES = ("periods", "equilibrium", "nonstubborn", "bounds")

CSV_COLUMNS = {
    "periods": ["rep", "period", "sum_z", "mean_z", "z_M", "z_Mprime",
                "truncated", "stop_cause"],
    "equilibrium": ["rep", "sum_s", "sum_z", "lower", "upper",
                    "exact_if_regular", "truncated"],
    "nonstubborn": ["rep", "sum_s", "sum_z", "mean_z", "s_M", "z_M_star", "bound"],
    "bounds": ["rep", "sum_s", "lower", "upper", "exact_if_regular", "ell_star"],
}


@dataclass(frozen=True)
class GraphSpec:
    """Where the graph comes from: an edge-list file or a seeded generator."""

    kind: str  # "file" | "ba" | "dreg"
    path: str | None = None
    n: int | None = None
    m: int | None = None
    d: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "file":
            if not self.path:
                raise ValueError("file graph spec needs a path")
        elif self.kind == "ba":
            if self.n is None or self.m is None:
                raise ValueError("ba graph spec needs n and m")
        elif self.kind == "dreg":
            if self.n is None or self.d is None:
                raise ValueError("dreg graph spec needs n and d")
        else:
            raise ValueError(f"unknown graph kind {self.kind!r}")

    def build(self, seed: int) -> Graph:
        if self.kind == "file":
            return load_edge_list(self.path)
        if self.kind == "ba":
            return gen_barabasi_albert(self.n, self.m, seed)
        return gen_random_regular(self.n, self.d, seed)

    def describe(self) -> list[tuple[str, str]]:
        out = [("graph.kind", self.kind)]
        if self.kind == "file":
            out.append(("graph.path", self.path))
        else:
            out.append(("graph.n", str(self.n)))
            out.append(("graph.m" if self.kind == "ba" else "graph.d",
                        str(self.m if self.kind == "ba" else self.d)))
        return out


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    graph: GraphSpec
    alpha: float
    beta: float
    gamma: float
    innate_mu: float = 0.5
    innate_var: float = 0.2
    repetitions: int = 20
    base_seed: int = 0
    tol: float = 1e-10
    max_periods: int = 1000
    epsilon: float | None = None  # None means 10/n
    fixed_point_tol: float | None = 1e-10
    output: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.innate_var < 0 or not np.isfinite(self.innate_var):
            raise ValueError("innate_var must be >= 0")
        MediaConfig(self.alpha, self.beta, self.gamma)  # parameter check

    @property
    def media(self) -> MediaConfig:
        return MediaConfig(self.alpha, self.beta, self.gamma)

    @property
    def innate_sigma(self) -> float:
        return math.sqrt(self.innate_var)


@dataclass
class RunManifest:
    """Ordered key = value lines; everything needed to reproduce the run."""

    entries: list[tuple[str, str]] = field(default_factory=list)

    def add(self, key: str, value) -> None:
        self.entries.append((key, _fmt(value)))

    def get(self, key: str) -> str | None:
        for k, v in self.entries:
            if k == key:
                return v
        return None

    def text(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in self.entries)


def _fmt(v) -> str:
    """One canonical string per value; floats at full round-trip precision."""
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, str):
        return v
    return f"{float(v):.17g}"


def sample_innate(n: int, mu: float, sigma: float, seed: int) -> np.ndarray:
    """Gaussian innate opinions, clipped into [0, 1].  sigma = 0 gives mu."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if sigma < 0 or not np.isfinite(sigma):
        raise ValueError("sigma must be >= 0")
    rng = np.random.default_rng(seed)
    return np.clip(rng.normal(mu, sigma, n), 0.0, 1.0)


def _rep_streams(rep_seed: int) -> tuple[int, int, int]:
    # one child seed per random consumer, all derived from base_seed + rep
    state = np.random.SeedSequence(rep_seed).generate_state(3, dtype=np.uint64)
    return int(state[0]), int(state[1]), int(state[2])


def run_experiment(config: ExperimentConfig):
    """Run all repetitions; returns (manifest, rows) and writes files if asked.

    Rows are dicts keyed by the mode's CSV columns.  When ``config.output``
    is set, the CSV lands there and the manifest at ``<output>.manifest``;
    on any error partial files are removed rather than left half-written.
    """
    manifest = RunManifest()
    manifest.add("format", "fjmedia-run/1")
    from . import __version__
    manifest.add("version", __version__)
    manifest.add("mode", config.mode)
    for k, v in config.graph.describe():
        manifest.add(k, v)
    for key in ("alpha", "beta", "gamma", "innate_mu", "innate_var"):
        manifest.add(key, getattr(config, key))
    manifest.add("innate_sigma", config.innate_sigma)
    manifest.add("repetitions", config.repetitions)
    manifest.add("base_seed", config.base_seed)
    manifest.add("tol", config.tol)
    if config.mode == "periods":
        manifest.add("max_periods", config.max_periods)
        manifest.add("fixed_point_tol", config.fixed_point_tol)

    rows: list[dict] = []
    cached_file_graph: Graph | None = None
    stop = None
    rep_entries: list[tuple[str, str]] = []

    for i in range(config.repetitions):
        rep_seed = config.base_seed + i
        graph_seed, innate_seed, assign_seed = _rep_streams(rep_seed)
        try:
            if config.graph.kind == "file":
                if cached_file_graph is None:
                    cached_file_graph = config.graph.build(graph_seed)
                graph = cached_file_graph
            else:
                graph = config.graph.build(graph_seed)
            s = sample_innate(graph.n, config.innate_mu, config.innate_sigma,
                              innate_seed)
            assignment = assign_media(graph, config.alpha, assign_seed)

            if config.mode == "periods":
                stop = StopCriteria.for_run(config.gamma, graph.n,
                                            max_periods=config.max_periods,
                                            epsilon=config.epsilon,
                                            fixed_point_tol=config.fixed_point_tol)
                if i == 0:
                    manifest.add("epsilon", stop.epsilon)

            rows.extend(_run_one(config, i, graph, s, assignment, stop))
        except ConvergenceError as exc:
            raise ConvergenceError(f"repetition {i}: {exc}", exc.iterations,
                                   exc.residual) from exc
        except (ValueError, OSError) as exc:
            raise type(exc)(f"repetition {i}: {exc}") from exc

        st = graph.stats
        pre = f"rep{i}"
        rep_entries.extend([
            (f"{pre}.seed", _fmt(rep_seed)),
            (f"{pre}.graph_seed", _fmt(graph_seed)),
            (f"{pre}.innate_seed", _fmt(innate_seed)),
            (f"{pre}.assign_seed", _fmt(assign_seed)),
            (f"{pre}.graph.n", _fmt(st.n)),
            (f"{pre}.graph.edges", _fmt(st.m)),
            (f"{pre}.graph.d_min", _fmt(st.d_min)),
            (f"{pre}.graph.d_max", _fmt(st.d_max)),
            (f"{pre}.graph.is_regular", _fmt(st.is_regular)),
            (f"{pre}.count_M", _fmt(assignment.count_M)),
        ])

    manifest.entries.extend(rep_entries)
    if config.output:
        _write_outputs(config, manifest, rows)
    return manifest, rows


def _run_one(config, rep, graph, s, assignment, stop):
    media = config.media
    if config.mode == "periods":
        traj = run_periods(graph, s, media, assignment, stop, tol=config.tol)
        return [
            {"rep": rep, "period": r.period, "sum_z": r.sum_z, "mean_z": r.mean_z,
             "z_M": r.z_M, "z_Mprime": r.z_Mprime, "truncated": r.truncated,
             "stop_cause": traj.stop_cause}
            for r in traj.records
        ]

    sum_s = float(s.sum())
    src = source_opinions(s, config.gamma)
    if config.mode == "nonstubborn":
        z, z_m_star = nonstubborn_equilibrium(graph, s, media, tol=config.tol)
        bound = (1.0 + (1.0 + config.gamma) / graph.n) * sum_s
        return [{"rep": rep, "sum_s": sum_s, "sum_z": float(z.sum()),
                 "mean_z": float(z.mean()), "s_M": src.z_M, "z_M_star": z_m_star,
                 "bound": bound}]

    # the uncapped bracket, or the capped regular-graph sum where it applies
    lower = upper = exact = None
    if not src.truncated:
        b = sum_bounds(graph, s, media)
        lower, upper, exact = b.lower, b.upper, b.exact_if_regular
    elif graph.stats.is_regular:
        exact = truncated_regular_sum(graph.stats.d_max, graph.n, sum_s, media)

    if config.mode == "equilibrium":
        zeta = build_zeta(assignment, src.z_M, src.z_Mprime)
        z = equilibrium_with_media(graph, s, config.beta, zeta, tol=config.tol)
        return [{"rep": rep, "sum_s": sum_s, "sum_z": float(z.sum()),
                 "lower": lower, "upper": upper, "exact_if_regular": exact,
                 "truncated": src.truncated}]

    # bounds mode: formulas only, no solve
    lstar = None if src.truncated else predicted_ell_star(graph, sum_s, media)
    return [{"rep": rep, "sum_s": sum_s, "lower": lower, "upper": upper,
             "exact_if_regular": exact, "ell_star": lstar}]


def rows_to_csv(mode: str, rows: list[dict]) -> str:
    """Render rows with the mode's column order; LF endings, 17 sig digits."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    cols = CSV_COLUMNS[mode]
    writer.writerow(cols)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in cols])
    return buf.getvalue()


def _write_outputs(config, manifest, rows) -> None:
    csv_path = config.output
    man_path = f"{config.output}.manifest"
    for path, text in ((csv_path, rows_to_csv(config.mode, rows)),
                       (man_path, manifest.text())):
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError:
            for p in (csv_path, man_path):
                if os.path.isfile(p):
                    os.unlink(p)
            raise


def config_from_manifest(text: str, output: str | None = None) -> ExperimentConfig:
    """Rebuild the config a manifest came from (rerun gives identical files)."""
    kv: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or "=" not in line:
            continue
        k, _, v = line.partition("=")
        kv[k.strip()] = v.strip()
    kind = kv["graph.kind"]
    if kind == "file":
        spec = GraphSpec(kind="file", path=kv["graph.path"])
    elif kind == "ba":
        spec = GraphSpec(kind="ba", n=int(kv["graph.n"]), m=int(kv["graph.m"]))
    else:
        spec = GraphSpec(kind="dreg", n=int(kv["graph.n"]), d=int(kv["graph.d"]))
    mode = kv["mode"]
    fpt = kv.get("fixed_point_tol", "")
    return ExperimentConfig(
        mode=mode,
        graph=spec,
        alpha=float(kv["alpha"]),
        beta=float(kv["beta"]),
        gamma=float(kv["gamma"]),
        innate_mu=float(kv["innate_mu"]),
        innate_var=float(kv["innate_var"]),
        repetitions=int(kv["repetitions"]),
        base_seed=int(kv["base_seed"]),
        tol=float(kv["tol"]),
        max_periods=int(kv["max_periods"]) if "max_periods" in kv else 1000,
        epsilon=float(kv["epsilon"]) if kv.get("epsilon") else None,
        fixed_point_tol=float(fpt) if fpt else None,
        output=output,
    )
