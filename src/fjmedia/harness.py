"""Experiment harness: repeated seeded runs, CSV rows, reproducibility manifest.

A run is a config plus a base seed.  Repetition i derives its own seed as
base_seed + i, then splits it into independent streams for graph generation,
innate-opinion sampling and media assignment via numpy's SeedSequence, so the
whole run is reproducible byte for byte from the manifest alone.  No
timestamps anywhere: identical configs must produce identical files.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
from dataclasses import MISSING, dataclass, field, fields
from typing import ClassVar

import numpy as np

from .graph import (Graph, _ba_edges, _regular_edges, gen_barabasi_albert, gen_random_regular,
                    load_edge_list)
from .media import (MediaConfig, MediaSystem, assign_media, build_zeta,
                    equilibrium_with_media, source_opinions)
from .nonstubborn import nonstubborn_equilibrium, nonstubborn_sum_bound
from .numerics import ConvergenceError
from .periods import StopCriteria, analytic_summary, run_periods

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

CSV_COLUMNS = {
    "periods": ["rep", "period", "sum_z", "mean_z", "z_M", "z_Mprime",
                "truncated", "stop_cause"],
    "equilibrium": ["rep", "sum_s", "sum_z", "lower", "upper",
                    "exact_if_regular", "truncated"],
    "nonstubborn": ["rep", "sum_s", "sum_z", "mean_z", "s_M", "z_M_star", "bound"],
    "bounds": ["rep", "sum_s", "lower", "upper", "exact_if_regular", "ell_star"],
}

MODES = tuple(CSV_COLUMNS)


@dataclass(frozen=True)
class GraphSpec:
    """Where the graph comes from: an edge-list file or a seeded generator.

    ``sha256`` is the digest a file graph must still have (None: unchecked);
    :func:`config_from_manifest` fills it in from the manifest.
    """

    # the one list of graph sources and the parameters each one needs
    SOURCES: ClassVar[dict[str, tuple[str, ...]]] = {
        "file": ("path",), "ba": ("n", "m"), "dreg": ("n", "d")}

    kind: str
    path: str | None = None
    n: int | None = None
    m: int | None = None
    d: int | None = None
    sha256: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in self.SOURCES:
            raise ValueError(f"unknown graph kind {self.kind!r}")
        missing = [p for p in self.SOURCES[self.kind] if getattr(self, p) in (None, "")]
        if missing:
            raise ValueError(f"{self.kind} graph spec needs {' and '.join(missing)}")

    def build(self, seed: int) -> Graph:
        """Generate the graph; :func:`run_experiment` reads a file graph."""
        if self.kind == "file":
            raise ValueError("a file graph is read, not built: use load_edge_list")
        if self.kind == "ba":
            return gen_barabasi_albert(self.n, self.m, seed)
        return gen_random_regular(self.n, self.d, seed)

    def _edges(self, seed: int) -> tuple[np.ndarray, np.ndarray]:
        # a generated spec's edge arrays in the order its generator makes
        # them, which ``fjmedia generate`` writes: a graph keeps no edge list
        if self.kind == "ba":
            return _ba_edges(self.n, self.m, seed)
        return _regular_edges(self.n, self.d, seed)

    def describe(self) -> list[tuple[str, str]]:
        return [("graph.kind", self.kind)] + [
            (f"graph.{p}", str(getattr(self, p))) for p in self.SOURCES[self.kind]]


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
    output: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.base_seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.base_seed}")
        if not 0 < self.tol < 1:  # also rejects nan
            raise ValueError(f"tol must lie in (0, 1), got {self.tol:g}")
        if not np.isfinite(self.innate_mu):  # a finite mu outside [0, 1] is clipped
            raise ValueError(f"innate_mu must be finite, got {self.innate_mu:g}")
        if not (np.isfinite(self.innate_var) and self.innate_var >= 0):
            raise ValueError(f"innate_var must be finite and >= 0, got {self.innate_var:g}")
        MediaConfig(self.alpha, self.beta, self.gamma)  # parameter check
        if self.mode == "nonstubborn" and self.alpha != 1.0:  # every node hears the source
            raise ValueError(f"nonstubborn mode needs alpha = 1, got alpha = {self.alpha:g}")

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


class _CheckedFile:
    """A file graph's source for :func:`load_edge_list`: ``read`` returns the
    file's bytes and keeps only their sha256, so the parser holds the only
    reference to the bytes and can drop them once parsed.  Bytes whose
    digest differs from ``expected`` (None: unchecked) are refused before
    any parse.
    """

    def __init__(self, path: str, expected: str | None) -> None:
        self.path, self.expected, self.sha256 = path, expected, None

    def read(self) -> bytes:
        with open(self.path, "rb") as fh:
            data = fh.read()
        self.sha256 = hashlib.sha256(data).hexdigest()
        if self.expected not in (None, self.sha256):
            raise ValueError(f"sha256 {self.sha256} differs from the recorded "
                             f"{self.expected}; the file changed")
        return data


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
    file_graph = None
    if config.graph.kind == "file":
        # a file graph ignores the seed: its bytes are read once, before any
        # repetition, and the digest, its check and the parse all see them
        path = config.graph.path
        source = _CheckedFile(path, config.graph.sha256)
        try:
            file_graph = load_edge_list(source)
        except ValueError as exc:  # OSError text already names the file
            raise ValueError(f"{path}: {exc}") from exc
        manifest.add("graph.sha256", source.sha256)
    for key in ("alpha", "beta", "gamma", "innate_mu", "innate_var", "innate_sigma",
                "repetitions", "base_seed", "tol"):
        manifest.add(key, getattr(config, key))

    if config.mode == "periods":
        # a generator returns exactly config.graph.n nodes
        stop = StopCriteria.for_run(
            config.gamma, file_graph.n if file_graph else config.graph.n,
            max_periods=config.max_periods, epsilon=config.epsilon)
        manifest.add("max_periods", config.max_periods)
        manifest.add("fixed_point_tol", stop.fixed_point_tol)
        manifest.add("epsilon", stop.epsilon)
    else:
        stop = None

    rows: list[dict] = []

    for i in range(config.repetitions):
        rep_seed = config.base_seed + i
        graph_seed, innate_seed, assign_seed = _rep_streams(rep_seed)
        try:
            graph = file_graph or config.graph.build(graph_seed)
            s = sample_innate(graph.n, config.innate_mu, config.innate_sigma,
                              innate_seed)
            assignment = assign_media(graph, config.alpha, assign_seed)
            rows.extend(_run_one(config, i, graph, s, assignment, stop))
        except ConvergenceError as exc:
            raise ConvergenceError(f"repetition {i}: {exc}", exc.iterations,
                                   exc.residual) from exc
        except ValueError as exc:
            raise ValueError(f"repetition {i}: {exc}") from exc

        st = graph.stats
        for key, value in (("seed", rep_seed), ("graph_seed", graph_seed),
                           ("innate_seed", innate_seed), ("assign_seed", assign_seed),
                           ("graph.n", st.n), ("graph.edges", st.m),
                           ("graph.d_min", st.d_min), ("graph.d_max", st.d_max),
                           ("graph.is_regular", st.is_regular),
                           ("count_M", assignment.count_M)):
            manifest.add(f"rep{i}.{key}", value)

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
    if config.mode == "nonstubborn":
        z, z_m_star, s_m = nonstubborn_equilibrium(graph, s, config.beta, config.gamma,
                                                   tol=config.tol)
        return [{"rep": rep, "sum_s": sum_s, "sum_z": float(z.sum()),
                 "mean_z": float(z.mean()), "s_M": s_m, "z_M_star": z_m_star,
                 "bound": nonstubborn_sum_bound(sum_s, graph.n, config.gamma)}]

    summary = analytic_summary(graph, s, media, assignment)
    if config.mode == "bounds":  # formulas only, no solve
        return [{"rep": rep, "sum_s": sum_s, **summary}]

    src = source_opinions(s, config.gamma)
    zeta = build_zeta(assignment, src.z_M, src.z_Mprime)
    z = equilibrium_with_media(MediaSystem(graph, config.beta), s, zeta,
                               tol=config.tol).solution
    return [{"rep": rep, "sum_s": sum_s, "sum_z": float(z.sum()),
             **{k: summary[k] for k in ("lower", "upper", "exact_if_regular")},
             "truncated": src.truncated}]


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
    # every periods run stops at StopCriteria's default; rerunning a manifest
    # that records another value (0.1.8 wrote "" for none) would change the stop
    recorded, fixed = kv.get("fixed_point_tol"), _fmt(StopCriteria.fixed_point_tol)
    if recorded not in (None, fixed):
        raise ValueError(f"fixed_point_tol = {recorded!r} cannot be rerun: every "
                         f"run stops at {fixed}")
    # a config field without a manifest line (max_periods outside periods
    # mode) keeps its default; a field without a default needs its line
    casts = {"mode": str, "repetitions": int, "base_seed": int, "max_periods": int}
    try:
        kind = kv["graph.kind"]
        graph = GraphSpec(kind, sha256=kv.get("graph.sha256"), **{
            p: kv[f"graph.{p}"] if p == "path" else int(kv[f"graph.{p}"])
            for p in GraphSpec.SOURCES.get(kind, ())})
        run = {f.name: casts.get(f.name, float)(kv[f.name]) for f in fields(ExperimentConfig)
               if f.name in kv or f.default is MISSING and f.name != "graph"}
    except KeyError as exc:
        raise ValueError(f"manifest lacks {exc.args[0]}") from None
    return ExperimentConfig(graph=graph, output=output, **run)
