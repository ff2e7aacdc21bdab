"""Benchmark one workload of the fjmedia CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree holding ``src/fjmedia`` (or point
``--src`` at another one).  Closed loop, one client: the benchmark starts one
process at a time, waits for it to exit, and starts the next until
``--seconds`` have passed.  It starts no threads and sets no thread counts
for the program.

``--trace 0`` alternates one ``python -m fjmedia ...`` run with
``SETUPS_PER_CLI`` set-up processes (a fresh process that imports fjmedia and
builds the workload's graph) and reports the end-to-end metrics: the median
CLI wall time, the median set-up time, equilibria per second and peak RSS.
``--trace 1`` instead repeats an in-process traced run of the CLI
(``tracer.py``) and reports the median of each per-layer metric.  Every CLI
run is checked: exit status, the workload's closed-form checks, and byte
equality of CSV and manifest with the first run.  The metric names and units
come from ``BENCHMARK.json``.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spans
from workloads import (WORKLOADS, check_output, cli_args, equilibria_count,
                       generated_provenance, parse_csv, parse_manifest,
                       setup_code, write_regular_edge_list)

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
DEADLINE_S = 170.0  # the whole run, inputs included, ends within this
SETUPS_PER_CLI = 2  # set-up processes after each CLI run
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def run_child(cmd: list[str], env: dict, stdout: Path, stderr: Path,
              timeout: float) -> tuple[float, int, float]:
    """Run ``cmd`` to completion; return (wall s, exit code, peak RSS MB).

    Wall time runs from just before the spawn to the reap.  The child's
    resource usage comes from ``wait4``; a child still running after
    ``timeout`` seconds is killed and reported with its signal as exit code.
    """
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.alarm(max(1, math.ceil(timeout)))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def summary(values: list[float]) -> dict:
    """Median, quartiles (statistics.quantiles, n=4) and sample count."""
    if not values:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def environment(src: Path, fj) -> dict:
    """What a reader needs to tell whether two result sets ran alike."""
    commit = None
    if (src.parent / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(src.parent), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((src / "fjmedia").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_desc = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_desc = "unknown"
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "fjmedia_version": fj.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_desc,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def import_checked(src: Path):
    """Import fjmedia from ``src`` for the closed-form checks."""
    sys.path.insert(0, str(src))
    import fjmedia

    if not Path(fjmedia.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"fjmedia imported from {fjmedia.__file__}, not {src}")
    return fjmedia


class Runner:
    """One benchmark run of one workload: inputs, child processes, checks."""

    def __init__(self, workload, seed: int, src: Path, work: Path, fj) -> None:
        self.workload = workload
        self.seed = seed
        self.src = src
        self.work = work
        self.fj = fj
        self.end = time.perf_counter() + DEADLINE_S
        self.env = dict(os.environ)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(src) + (os.pathsep + old if old else "")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: tuple[bytes, bytes] | None = None
        self.edge_file: Path | None = None
        self.provenance: dict = {}
        self.equilibria = 0

    def _child(self, cmd: list[str], tag: str) -> tuple[float, int, float]:
        """Run one counted child; return (wall s, exit code, peak RSS MB)."""
        timeout = max(1.0, min(150.0, self.time_left()))
        wall, rc, rss = run_child(cmd, self.env, self.work / f"{tag}.stdout",
                                  self.work / f"{tag}.stderr", timeout)
        self.attempted += 1
        if rc != 0:
            err = (self.work / f"{tag}.stderr").read_text(errors="replace")
            tail = err.strip().splitlines()[-1:] or [""]
            self.fail(f"{tag} process {self.attempted}: exit code {rc}: {tail[0]}")
        return wall, rc, rss

    def time_left(self) -> float:
        return self.end - time.perf_counter()

    def fail(self, problem: str) -> None:
        """Count one failed process; ``problem`` says why."""
        self.failed += 1
        self.problems.append(problem)

    def prepare(self) -> None:
        """Write the seeded inputs (untimed) and compile the package once."""
        kind, n, d = self.workload.graph
        if kind == "file":
            self.edge_file = self.work / "graph.edges"
            self.provenance = write_regular_edge_list(self.edge_file, n, d, self.seed)
        # byte-compile fjmedia so no timed process pays for it
        run_child([sys.executable, "-c", "import fjmedia"], self.env,
                  self.work / "warm.stdout", self.work / "warm.stderr", 60.0)

    def setup_time(self) -> float | None:
        """Wall time of one set-up process, or None if it failed."""
        code = setup_code(self.workload, self.seed, self.edge_file)
        wall, rc, _ = self._child([sys.executable, "-c", code], "setup")
        if rc != 0:
            return None
        where = Path((self.work / "setup.stdout").read_text().strip())
        if not where.resolve().is_relative_to(self.src):
            self.fail(f"setup imported fjmedia from {where}")
            return None
        return wall

    def cli_args(self, out: Path) -> list[str]:
        return cli_args(self.workload, self.seed, self.edge_file, out)

    def check_run(self, out: Path, tag: str) -> bool:
        """Correctness of one CLI run's files; the first run is checked
        against the closed forms, later ones byte for byte against it."""
        try:
            got = (out.read_bytes(), Path(f"{out}.manifest").read_bytes())
        except OSError as exc:
            self.fail(f"{tag}: output missing: {exc}")
            return False
        if self.reference is not None:
            if got != self.reference:
                self.fail(f"{tag}: CSV/manifest bytes differ from the first run")
                return False
            return True
        rows = parse_csv(got[0].decode())
        manifest = parse_manifest(got[1].decode())
        try:
            problems = check_output(self.fj, self.workload, rows, manifest)
        except (KeyError, ValueError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if problems:
            self.fail(f"{tag}: " + "; ".join(problems[:5]))
            return False
        self.reference = got
        self.equilibria = equilibria_count(self.workload.mode, rows)
        if self.workload.graph[0] != "file":
            self.provenance = generated_provenance(manifest,
                                                   int(manifest["repetitions"]))
        return True

    def loop(self, seconds: float, step) -> None:
        """Call ``step()`` until ``seconds`` have passed and it has returned
        True (a passing run) at least once, or until time runs out."""
        start = time.perf_counter()
        passed, longest = False, 0.0
        for tries in itertools.count():
            if passed and time.perf_counter() - start >= seconds:
                break
            if self.time_left() < 2.0 * longest + 5.0 or (tries >= 3 and not passed):
                break  # out of time, or the program fails every time
            t0 = time.perf_counter()
            passed = step() or passed
            longest = max(longest, time.perf_counter() - t0)

    def measure(self, seconds: float) -> tuple[list[float], list[float], list[float]]:
        """Closed loop of one CLI run then ``SETUPS_PER_CLI`` set-up
        processes; (CLI walls, peak RSS MB, set-up walls) of those that
        passed."""
        out = self.work / "out.csv"
        walls, rss, setups = [], [], []

        def step() -> bool:
            for path in (out, Path(f"{out}.manifest")):
                path.unlink(missing_ok=True)
            cmd = [sys.executable, "-m", "fjmedia", *self.cli_args(out)]
            wall, rc, peak = self._child(cmd, "cli")
            ok = rc == 0 and self.check_run(out, f"cli process {self.attempted}")
            if ok:
                walls.append(wall)
                rss.append(peak)
            for _ in range(SETUPS_PER_CLI):
                setup = self.setup_time()
                if setup is not None:
                    setups.append(setup)
            return ok and bool(setups)

        self.loop(seconds, step)
        return walls, rss, setups

    def traced(self, out: Path) -> tuple[spans.SpanStats, dict, float] | None:
        """One traced run of the CLI; (span statistics, tracer record,
        process wall), or None if it failed."""
        spans_file = self.work / "spans.npz"
        for path in (out, Path(f"{out}.manifest"), spans_file):
            path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "tracer.py"), "--src", str(self.src),
               "--spans", str(spans_file), "--", *self.cli_args(out)]
        wall, rc, _ = self._child(cmd, "traced")
        if rc != 0 or not self.check_run(out, f"traced run {self.attempted}"):
            return None
        meta = json.loads(spans_file.with_suffix(".json").read_text())
        stats = spans.load(spans_file)
        # a wrapper that misses an alias reads 0 s without any error
        missing = [f"{alias} was not rebound" for alias in meta["missed_aliases"]]
        missing += [f"span {name} recorded no calls"
                    for name in self.workload.expect_spans if stats[name].calls == 0]
        if missing:
            self.fail(f"traced run {self.attempted}: " + "; ".join(missing))
            return None
        return stats, meta, wall

    def trace(self, seconds: float) -> dict[str, float]:
        """Closed loop of traced runs; the median of each per-layer metric
        over the runs that passed.  The first run's span table is printed."""
        out = self.work / "traced.csv"
        per_run: list[dict[str, float]] = []

        def step() -> bool:
            done = self.traced(out)
            if done is None:
                return False
            stats, meta, wall = done
            if not per_run:
                for line in spans.report_lines(stats, meta, wall):
                    print(f"trace {line}")
            per_run.append(spans.layer_metrics(stats, meta, wall))
            return True

        self.loop(seconds, step)
        if not per_run:
            return {}
        print(f"trace medians over {len(per_run)} traced runs")
        return {name: statistics.median(r[name] for r in per_run)
                for name in per_run[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", type=Path, default=Path("src"),
                        help="directory holding the fjmedia package (default src)")
    args = parser.parse_args(argv)

    src = args.src.resolve()
    if not (src / "fjmedia" / "__init__.py").is_file():
        print(f"error: no fjmedia package under {src}", file=sys.stderr)
        return 2
    try:
        fj = import_checked(src)
    except (ImportError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = Path(".bench_work").resolve() / workload.name
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(workload, args.seed, src, work, fj)

    env = environment(src, fj)
    env["loadavg_before"] = os.getloadavg()
    runner.prepare()
    if args.trace:
        values = runner.trace(args.seconds)
        if not values and not runner.problems:
            runner.fail("no traced run produced spans")
    else:
        walls, rss, setups = runner.measure(args.seconds)
        stats = {"wall_s": summary(walls), "setup_s": summary(setups),
                 "equilibria_per_s": summary([runner.equilibria / w for w in walls]),
                 "peak_rss_mb": summary(rss)}
        for name, st in stats.items():
            print(f"metric {name} median={st['median']:.6g} q1={st['q1']:.6g} "
                  f"q3={st['q3']:.6g} n={st['n']}")
        for name, samples in (("wall_s", walls), ("setup_s", setups)):
            print(f"samples {name} {' '.join(f'{w:.4f}' for w in samples)}")
        values = {name: st["median"] for name, st in stats.items() if st["n"]}
    env["loadavg_after"] = os.getloadavg()
    listed_metrics = SPEC["per_layer" if args.trace else "end_to_end"]
    unmeasured = [m["name"] for m in listed_metrics if m["name"] not in values]
    if unmeasured and not runner.problems:
        runner.fail(f"metrics not measured: {', '.join(unmeasured)}")

    listed = {w["name"]: w["why"] for w in SPEC["workloads"]}
    print(f"workload {workload.name} seed {args.seed}: "
          f"{listed.get(workload.name, 'not in BENCHMARK.json')}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"input {json.dumps(runner.provenance, sort_keys=True)}")
    print(f"equilibria {runner.equilibria}")
    failed = runner.failed
    attempted = max(runner.attempted, failed, 1)
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} "
          "processes)")
    for problem in runner.problems:
        print(f"FAIL {problem}")
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed_metrics if m["name"] in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
