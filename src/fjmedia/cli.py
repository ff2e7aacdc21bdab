"""Command-line harness.

Subcommands:
    generate      write a synthetic graph as an edge list
    equilibrium   one media-augmented period per repetition, with sum bounds
    periods       the full multi-period protocol
    nonstubborn   single persuadable source (alpha = 1)
    bounds        analytic formulas only, no solves

Run `fjmedia <subcommand> --help` for flags.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import fields
from functools import partial

from .graph import write_edge_list
from .harness import ExperimentConfig, GraphSpec, run_experiment
from .numerics import ConvergenceError


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads ``-1e-3`` and ``-inf`` as values.

    argparse reads an argument that starts with '-' as a value only when it
    looks like a plain negative decimal such as ``-0.5``; any other, e.g.
    ``--innate-mu -1e-3``, it takes for an unknown flag.  Subparsers inherit
    the class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)


def _add_graph_source(p: argparse.ArgumentParser, *, for_generate: bool = False):
    if not for_generate:
        p.add_argument("--graph", dest="path", metavar="PATH",
                       help="edge-list file to load")
    p.add_argument("--gen", choices=[k for k in GraphSpec.SOURCES if k != "file"],
                   help="graph generator")
    p.add_argument("--n", type=int, help="node count for --gen")
    p.add_argument("--m", type=int, help="edges per new node (ba)")
    p.add_argument("--d", type=int, help="degree (dreg)")


def _add_run_flags(p: argparse.ArgumentParser, mode: str):
    # each optional flag's dest names the ExperimentConfig field it sets
    defaults = ExperimentConfig  # a dataclass field's default is its class attribute
    p.add_argument("--alpha", type=float, required=mode != "nonstubborn",
                   default=1.0,  # the one persuadable source takes every node
                   help="fraction of nodes following M")
    p.add_argument("--beta", type=float, required=True, help="media strength")
    p.add_argument("--gamma", type=float, required=True, help="source opinion spread")
    p.add_argument("--reps", dest="repetitions", metavar="REPS", type=int,
                   help=f"repetitions (default {defaults.repetitions})")
    p.add_argument("--seed", dest="base_seed", metavar="SEED", type=int,
                   help=f"base seed, >= 0 (default {defaults.base_seed})")
    p.add_argument("--tol", type=float,
                   help=f"solver tolerance, in (0, 1) (default {defaults.tol:g})")
    p.add_argument("--innate-mu", dest="innate_mu", type=float,
                   help=f"innate opinion mean (default {defaults.innate_mu})")
    p.add_argument("--innate-var", dest="innate_var", type=float,
                   help="innate opinion variance before clipping "
                        f"(default {defaults.innate_var})")
    p.add_argument("--out", dest="output", metavar="PATH",
                   help="CSV output path; manifest lands at PATH.manifest")
    if mode == "periods":
        p.add_argument("--max-periods", dest="max_periods", type=int,
                       help=f"period cap (default {defaults.max_periods})")
        p.add_argument("--epsilon", type=float,
                       help="down-radicalization threshold (default 10/n)")


def _graph_spec(args) -> GraphSpec:
    given = vars(args)
    path = given.get("path")
    if path and given.get("gen"):
        raise ValueError("--graph and --gen are mutually exclusive")
    kind = "file" if path else given.get("gen")
    if not kind:
        raise ValueError("need either --graph or --gen")
    params = {p: given.get(p) for p in GraphSpec.SOURCES[kind]}
    missing = [f"--{p}" for p, v in params.items() if v is None]
    if missing:
        raise ValueError(f"--gen {kind} needs {' and '.join(missing)}")
    return GraphSpec(kind=kind, **params)


def _cmd_generate(args) -> int:
    if args.seed < 0:
        raise ValueError(f"seed must be >= 0, got {args.seed}")
    if args.gen is None:  # generate has no --graph
        raise ValueError("need --gen")
    spec = _graph_spec(args)
    graph = spec.build(args.seed)
    params = " ".join(f"{k}={v}" for k, v in spec.describe())
    comment = f"fjmedia generate: {params} seed={args.seed}"
    if args.out:
        write_edge_list(graph, args.out, comment=comment)
        print(f"wrote {graph.n} nodes / {graph.m} edges to {args.out}")
    else:
        write_edge_list(graph, sys.stdout, comment=comment)
    return 0


def _cmd_run(args, mode: str) -> int:
    names = {f.name for f in fields(ExperimentConfig)}
    config = ExperimentConfig(mode=mode, graph=_graph_spec(args),
                              **{k: v for k, v in vars(args).items() if k in names})
    _, rows = run_experiment(config)
    _print_summary(mode, rows)
    if config.output:
        print(f"wrote {config.output} and {config.output}.manifest")
    return 0


def _print_summary(mode: str, rows) -> None:
    if mode == "periods":
        by_rep: dict[int, dict] = {}
        for row in rows:
            by_rep[row["rep"]] = row  # rows are ordered, keep the last
        for rep, row in by_rep.items():
            print(f"rep {rep}: stop={row['stop_cause']} periods={row['period']} "
                  f"mean={row['mean_z']:.6f} sum={row['sum_z']:.6f}")
        return
    for row in rows:
        parts = [f"rep {row['rep']}:"]
        for key, val in row.items():
            if key == "rep":
                continue
            if isinstance(val, float):
                parts.append(f"{key}={val:.6f}")
            elif val is not None:
                parts.append(f"{key}={val}")
        print(" ".join(parts))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fjmedia",
        description="Friedkin-Johnsen opinion dynamics with media sources")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic graph edge list")
    _add_graph_source(p, for_generate=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="PATH", help="file to write (default stdout)")
    p.set_defaults(func=_cmd_generate)

    for mode, text in (("equilibrium", "single period, prints sum and bounds"),
                       ("periods", "multi-period protocol"),
                       ("nonstubborn", "single persuadable source"),
                       ("bounds", "analytic sum bounds, no solve")):
        # a flag not given stays out of the namespace, so the config default applies
        p = sub.add_parser(mode, help=text, argument_default=argparse.SUPPRESS)
        _add_graph_source(p)
        _add_run_flags(p, mode)
        p.set_defaults(func=partial(_cmd_run, mode=mode))

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ConvergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
