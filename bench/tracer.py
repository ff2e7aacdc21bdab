"""Run the fjmedia CLI in-process with a span around each public layer call.

Usage: python3 tracer.py --src SRC --spans OUT.npz -- <fjmedia CLI args>

The tracer imports ``fjmedia`` from SRC, replaces each function listed in
``SPANS`` by a timing wrapper, and calls ``fjmedia.cli.main`` with the given
arguments.  Modules bind imported names separately, so every module
attribute that refers to a wrapped function is rebound, not just the
defining one; methods are replaced on their class.  Spans (name, start, end,
parent, and up to two counts read at the boundary) stay in memory and are
written to OUT.npz, with OUT.json holding the timings of the tracer itself
and the measured cost of one span, once the CLI returns.  Nothing under SRC
is modified.
"""

from __future__ import annotations

import time

BOOT = time.perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _graph_size(_args, _kwargs, graph):
    return graph.m, graph.n


def _first_arg_graph(args, _kwargs, _result):
    return args[0].m, args[0].n


def _solve(_args, _kwargs, report):
    return report.iterations, 0


def _rows(args, _kwargs, _result):
    return len(args[1]), 0


def _periods(_args, _kwargs, traj):
    return traj.periods_run, 0


# span name -> (module, attribute path, counts read at the boundary)
SPANS = {
    "cli.main": ("fjmedia.cli", "main", None),
    "harness.run_experiment": ("fjmedia.harness", "run_experiment", None),
    "harness.sample_innate": ("fjmedia.harness", "sample_innate", None),
    "harness.rows_to_csv": ("fjmedia.harness", "rows_to_csv", _rows),
    "harness.manifest_text": ("fjmedia.harness", "RunManifest.text", None),
    "graph.load_edge_list": ("fjmedia.graph", "load_edge_list", _graph_size),
    "graph.gen_barabasi_albert": ("fjmedia.graph", "gen_barabasi_albert", _graph_size),
    "graph.gen_random_regular": ("fjmedia.graph", "gen_random_regular", _graph_size),
    "graph.Graph.init": ("fjmedia.graph", "Graph.__init__", _first_arg_graph),
    "graph.neighbor_sum": ("fjmedia.graph", "neighbor_sum", _first_arg_graph),
    "numerics.solve_spd": ("fjmedia.numerics", "solve_spd", _solve),
    "numerics.apply": ("fjmedia.numerics", "DiagPlusLaplacianOperator.apply", None),
    "media.equilibrium_with_media": ("fjmedia.media", "equilibrium_with_media", None),
    "media.source_opinions": ("fjmedia.media", "source_opinions", None),
    "media.assign_media": ("fjmedia.media", "assign_media", None),
    "media.sum_bounds": ("fjmedia.media", "sum_bounds", None),
    "periods.run_periods": ("fjmedia.periods", "run_periods", _periods),
    "nonstubborn.nonstubborn_equilibrium": (
        "fjmedia.nonstubborn", "nonstubborn_equilibrium", None),
}

# aliases that must point at the wrapper after installation: a module that
# imports a name keeps its own binding, and a missed one reads 0 s silently
ALIASES = {
    "graph.neighbor_sum": ("graph", "fj", "media"),
    "numerics.solve_spd": ("numerics", "fj", "media", "periods", "nonstubborn"),
    "graph.load_edge_list": ("graph", "harness"),
    "graph.gen_barabasi_albert": ("graph", "harness"),
    "graph.gen_random_regular": ("graph", "harness"),
    "media.equilibrium_with_media": ("media", "periods", "harness"),
    "harness.run_experiment": ("harness", "cli"),
}


class Tracer:
    """Spans in flat lists; index = span id, parent -1 for a root span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.count1: list[int] = []
        self.count2: list[int] = []
        self._stack = [-1]

    def wrap(self, name: str, fn, counts):
        idx_name = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            span = len(self.start)
            self.name_of.append(idx_name)
            self.parent.append(stack[-1])
            self.count1.append(0)
            self.count2.append(0)
            self.end.append(0.0)
            stack.append(span)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[span] = clock()
                stack.pop()
            if counts is not None:
                self.count1[span], self.count2[span] = counts(args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def save(self, path: Path) -> None:
        import numpy as np

        np.savez(path, name_of=np.array(self.name_of, dtype=np.int32),
                 parent=np.array(self.parent, dtype=np.int64),
                 start=np.array(self.start), end=np.array(self.end),
                 count1=np.array(self.count1, dtype=np.int64),
                 count2=np.array(self.count2, dtype=np.int64),
                 names=np.array(self.names))


def span_cost(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds one span adds to a call: a wrapped no-op against a bare one,
    the least of ``repeats`` trials of ``calls`` calls each."""
    def noop():
        return None

    wrapped = Tracer().wrap("noop", noop, None)
    clock = time.perf_counter
    best = float("inf")
    for _ in range(repeats):
        t0 = clock()
        for _ in range(calls):
            noop()
        t1 = clock()
        for _ in range(calls):
            wrapped()
        best = min(best, (clock() - t1) - (t1 - t0))
    return max(best, 0.0) / calls


def install(tracer: Tracer) -> dict:
    """Wrap every function in SPANS and rebind all its aliases in fjmedia.

    Returns the span name -> wrapper map, for :func:`check_aliases`.
    """
    wrappers = {}
    for name, (modname, attr, counts) in SPANS.items():
        owner = importlib.import_module(modname)
        *cls_path, leaf = attr.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        wrapper = tracer.wrap(name, original, counts)
        wrappers[name] = wrapper
        if cls_path:  # a method: the class attribute is the only binding
            setattr(owner, leaf, wrapper)
            continue
        for mod in list(sys.modules.values()):
            modname_ = getattr(mod, "__name__", "")
            if modname_ != "fjmedia" and not modname_.startswith("fjmedia."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    return wrappers


def check_aliases(wrappers: dict) -> list[str]:
    """Names from ALIASES that still bind the unwrapped function.  A module
    that no longer imports the name is not an alias and passes."""
    missed = []
    for span, modules in ALIASES.items():
        attr = SPANS[span][1]
        for short in modules:
            mod = importlib.import_module(f"fjmedia.{short}")
            if getattr(mod, attr, wrappers[span]) is not wrappers[span]:
                missed.append(f"fjmedia.{short}.{attr}")
    for span in ("numerics.apply", "graph.Graph.init", "harness.manifest_text"):
        modname, attr, _ = SPANS[span]
        cls_name, leaf = attr.split(".")
        cls = getattr(importlib.import_module(modname), cls_name)
        if vars(cls).get(leaf) is not wrappers[span]:
            missed.append(f"{modname}.{attr}")
    return missed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path)
    parser.add_argument("--spans", required=True, type=Path)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    src = args.src.resolve()
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import fjmedia
    import fjmedia.cli
    import_s = time.perf_counter() - t0
    if not Path(fjmedia.__file__).resolve().is_relative_to(src):
        print(f"error: imported fjmedia from {fjmedia.__file__}, not {src}",
              file=sys.stderr)
        return 2

    tracer = Tracer()
    t0 = time.perf_counter()
    wrappers = install(tracer)
    missed = check_aliases(wrappers)
    install_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    cost = span_cost()
    calibrate_s = time.perf_counter() - t0

    rc = fjmedia.cli.main(cli_args)

    t0 = time.perf_counter()
    tracer.save(args.spans)
    end = time.perf_counter()
    meta = {"rc": rc, "import_s": import_s, "install_s": install_s,
            "calibrate_s": calibrate_s, "span_cost_s": cost, "save_s": end - t0, "in_process_s": end - BOOT,
            "missed_aliases": missed, "version": fjmedia.__version__}
    args.spans.with_suffix(".json").write_text(json.dumps(meta))
    return rc


if __name__ == "__main__":
    sys.exit(main())
