"""Property tests: node labels carry no meaning, files round-trip, and the
closed forms and monotonicity hold on arbitrary instances.

Relabelling the nodes of an instance by a permutation must permute every
per-node output the same way and leave every aggregate (opinion sums, sum
bounds, the non-stubborn source's opinion) unchanged.  An edge-list file must
load back to the graph it describes, and a defect in it must be reported at
its physical line.  The closed-form columns of an equilibrium row must hold
against its solved sum at any alpha, and moving nodes from M' to M must never
lower an equilibrium opinion.  The preferential-attachment generator must
give the urn loop's edges for any size and seed, however its blocks fall.
Both solve modes must meet their proven error bounds against exact
references for every beta from 0 to 1e300, and every command line must exit
0 with files a rerun reproduces, or exit 2 with an error line.
"""

import io
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fjmedia import (ExperimentConfig, Graph, GraphSpec, MediaAssignment,
                     MediaConfig, MediaSystem, assign_media, build_zeta,
                     config_from_manifest, equilibrium_with_media, gen_barabasi_albert,
                     gen_random_regular, load_edge_list, nonstubborn_equilibrium,
                     run_experiment, sample_innate, source_opinions, sum_bounds,
                     write_edge_list)
from fjmedia.cli import main
import fjmedia.graph as graph_module
from oracles import (adjacency, barabasi_albert_urn, edge_tuples, jacobi_solve,
                     laplacian, mmatrix_solve)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)
unit = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def instances(draw):
    """A small weighted graph, innate opinions, an M-mask and a relabelling."""
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    weights = draw(st.lists(st.floats(0.1, 3.0), min_size=len(pairs),
                            max_size=len(pairs)))
    edges = [(i, j, w) for (i, j), k, w in zip(pairs, keep, weights) if k]
    s = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    perm = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    return Graph.from_edges(n, edges), s, mask, perm


def relabel(graph, perm):
    """The same graph with node i renamed perm[i]."""
    return Graph.from_edges(graph.n, [(perm[u], perm[v], w)
                                      for u, v, w in edge_tuples(graph)])


def moved(x, perm):
    """Per-node values after the relabelling: the entry of i lands at perm[i]."""
    out = np.empty_like(x)
    out[perm] = x
    return out


@SETTINGS
@given(instances(), st.floats(0.0, 2.0), unit)
def test_equilibrium_with_media_commutes_with_relabelling(inst, beta, gamma):
    g, s, mask, perm = inst
    src = source_opinions(s, gamma)
    zeta = build_zeta(MediaAssignment(mask), src.z_M, src.z_Mprime)
    z = equilibrium_with_media(MediaSystem(g, beta), s, zeta, tol=1e-12).solution

    g2, s2 = relabel(g, perm), moved(s, perm)
    src2 = source_opinions(s2, gamma)
    assert src2.truncated == src.truncated
    assert src2.z_M == pytest.approx(src.z_M, abs=1e-15)
    zeta2 = build_zeta(MediaAssignment(moved(mask, perm)), src2.z_M, src2.z_Mprime)
    z2 = equilibrium_with_media(MediaSystem(g2, beta), s2, zeta2, tol=1e-12).solution

    assert np.max(np.abs(z2 - moved(z, perm))) <= 1e-9
    assert float(z2.sum()) == pytest.approx(float(z.sum()), abs=1e-9)
    if not src.truncated:
        config = MediaConfig(alpha=float(mask.mean()), beta=beta, gamma=gamma)
        b, b2 = sum_bounds(g, s, config), sum_bounds(g2, s2, config)
        assert (b2.lower, b2.upper) == pytest.approx((b.lower, b.upper), rel=1e-12)
        assert (b2.exact_if_regular is None) == (b.exact_if_regular is None)


@SETTINGS
@given(instances(), st.floats(0.0, 2.0), unit)
def test_nonstubborn_equilibrium_commutes_with_relabelling(inst, beta, gamma):
    g, s, _, perm = inst
    config = MediaConfig(alpha=1.0, beta=beta, gamma=gamma)
    z, z_M = nonstubborn_equilibrium(g, s, config, tol=1e-12)
    z2, z2_M = nonstubborn_equilibrium(relabel(g, perm), moved(s, perm), config,
                                       tol=1e-12)

    assert np.max(np.abs(z2 - moved(z, perm))) <= 1e-9
    assert z2_M == pytest.approx(z_M, abs=1e-9)
    assert float(z2.sum()) == pytest.approx(float(z.sum()), abs=1e-9)


# ---------------------------------------------------------------------------
# edge-list files

weight = st.floats(1e-3, 1e3)
file_id = st.integers(0, 2**70)  # ids of any size, well past int64


@pytest.fixture(scope="module")
def edge_file(tmp_path_factory):
    return tmp_path_factory.mktemp("edges") / "g.edges"


@st.composite
def simple_edges(draw):
    """Distinct unordered pairs on 0..n-1 in random order, with weights."""
    n = draw(st.integers(2, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    return [(i, j, draw(weight)) for i, j in chosen]


@st.composite
def connected_in_order(draw):
    """A simple graph whose nodes first appear in id order: a tree grown node by
    node, then extra edges among nodes already seen."""
    n = draw(st.integers(2, 12))
    edges = [(draw(st.integers(0, k - 1)), k, draw(weight)) for k in range(1, n)]
    tree = {(a, b) for a, b, _ in edges}
    extra = [p for p in ((i, j) for i in range(n) for j in range(i + 1, n))
             if p not in tree]
    if extra:
        edges += [(i, j, draw(weight)) for i, j in draw(st.lists(
            st.sampled_from(extra), unique=True))]
    return Graph.from_edges(n, edges)


@st.composite
def edge_file_lines(draw, edges):
    """``edges`` as file lines under fresh ids, in random orientation, with
    2- and 3-column rows and comment and blank lines mixed in."""
    n = 1 + max(max(a, b) for a, b, _ in edges)
    label = draw(st.lists(file_id, min_size=n, max_size=n, unique=True))
    lines = []
    for a, b, w in edges:
        lines += draw(st.lists(st.sampled_from(["# note", "", "   ", "#"]),
                               max_size=2))
        if draw(st.booleans()):
            a, b = b, a
        a, b = label[a], label[b]
        lines.append(f"{a} {b}" if w == 1.0 else f"{a}\t{b} {w!r}")
    return lines


# every line ending text mode reads: LF, CRLF and a lone CR
NEWLINES = st.sampled_from(["\n", "\r\n", "\r"])


def write_lines(path, data, lines):
    """Write ``lines``, each ended by a line ending of its own from ``NEWLINES``."""
    text = ""
    for line in lines:
        newline = data.draw(NEWLINES)
        if not line and newline == "\n" and text.endswith("\r"):
            newline = "\r\n"  # a lone CR, then an empty line's LF, would read as one CRLF
        text += line + newline
    path.write_bytes(text.encode())


def is_data(line):
    parts = line.split()
    return bool(parts) and not parts[0].startswith("#")


@SETTINGS
@given(connected_in_order())
def test_write_then_load_returns_the_graph(edge_file, g):
    write_edge_list(g, edge_file, comment="round trip")
    g2 = load_edge_list(edge_file)
    assert g2.n == g.n
    assert edge_tuples(g2) == edge_tuples(g)
    assert np.array_equal(g2.degree, g.degree)


# a comment ended by a lone CR just before a data line, in a file that the
# table parse reads and that has no other lone CR, turns up in about one
# example in 60 here: enough examples to meet it
@settings(SETTINGS, max_examples=300)
@given(st.data(), simple_edges())
def test_load_remaps_any_ids_by_first_appearance(edge_file, data, edges):
    # unit weights (2-column rows) on every row, on every third or on none: a
    # file of one width takes the table parse, a mixed one the line reader
    every = data.draw(st.sampled_from([1, 3, None]))
    edges = [(a, b, 1.0 if every and k % every == 0 else w) for k, (a, b, w) in enumerate(edges)]
    lines = data.draw(edge_file_lines(edges))
    write_lines(edge_file, data, lines)

    ids, expected = {}, []
    for parts in (line.split() for line in lines if is_data(line)):
        i, j = (ids.setdefault(int(t), len(ids)) for t in parts[:2])
        expected.append((min(i, j), max(i, j), float(parts[2]) if len(parts) == 3 else 1.0))
    degree = np.zeros(len(ids))
    for i, j, w in expected:
        degree[i] += w
        degree[j] += w

    g = load_edge_list(edge_file)
    assert g.n == len(ids)
    assert edge_tuples(g) == expected
    assert g.degree == pytest.approx(degree, rel=1e-12)


# each defect as a line over two fresh file ids a, b
DEFECTS = {
    "self-loop": "{a} {a}",
    "weight 0": "{a} {b} 0",
    "weight -1": "{a} {b} -1",
    "weight nan": "{a} {b} nan",
    "weight inf": "{a} {b} inf",
    "4 tokens": "{a} {b} 1.0 7",
    "non-integer id": "{a} {b}.5",
    "negative id": "{a} -{b}",
    "reversed duplicate": None,  # repeats an edge above it, ends swapped
}


@SETTINGS
@given(st.data(), simple_edges(), st.sampled_from(list(DEFECTS)))
def test_load_error_names_the_defect_line(edge_file, data, edges, defect):
    lines = data.draw(edge_file_lines(edges))
    rows = [k for k, line in enumerate(lines) if is_data(line)]
    if DEFECTS[defect] is None:
        at = data.draw(st.integers(rows[0] + 1, len(lines)))
        a, b = lines[data.draw(st.sampled_from([r for r in rows if r < at]))].split()[:2]
        bad = f"{b} {a}"
    else:
        at = data.draw(st.integers(0, len(lines)))
        bad = DEFECTS[defect].format(a=data.draw(file_id), b=data.draw(file_id) + 1)
    lines.insert(at, bad)
    write_lines(edge_file, data, lines)

    with pytest.raises(ValueError, match=f"^line {at + 1}: "):
        load_edge_list(edge_file)


# ---------------------------------------------------------------------------
# closed forms against the solve, at any alpha


@st.composite
def generated_specs(draw):
    """A small d-regular or Barabasi-Albert spec; alpha * n need not be integral."""
    n = draw(st.integers(4, 40))
    if draw(st.booleans()):
        d = draw(st.integers(1, min(6, n - 1)))
        return GraphSpec(kind="dreg", n=n + (n * d) % 2, d=d)
    return GraphSpec(kind="ba", n=n, m=draw(st.integers(1, 3)))


@SETTINGS
@given(generated_specs(), unit, unit, unit, unit, st.integers(0, 2**31))
def test_equilibrium_rows_respect_their_closed_forms(spec, alpha, beta, gamma,
                                                     mu, seed):
    config = ExperimentConfig(mode="equilibrium", graph=spec, alpha=alpha,
                              beta=beta, gamma=gamma, innate_mu=mu,
                              repetitions=1, base_seed=seed)
    _, (row,) = run_experiment(config)
    sum_z = row["sum_z"]
    if row["lower"] is not None:
        assert row["lower"] - 1e-8 <= sum_z <= row["upper"] + 1e-8
    if row["exact_if_regular"] is not None:
        assert abs(row["exact_if_regular"] - sum_z) <= 1e-8 * spec.n


# ---------------------------------------------------------------------------
# monotonicity in the attachment to M


@SETTINGS
@given(st.sampled_from(["ba", "dreg"]), st.integers(4, 40),
       st.integers(0, 2**31), st.floats(0.0, 2.0), unit)
def test_more_followers_of_M_never_lower_an_opinion(kind, n, seed, beta, gamma):
    # z = A^-1 (s + beta (I+D) zeta) with A^-1 >= 0 entrywise, and moving a
    # node from M' to M raises its zeta entry from z_M' to z_M >= z_M'
    rng = np.random.default_rng(seed)
    g = (gen_barabasi_albert(n, int(rng.integers(1, 4)), seed=seed) if kind == "ba"
         else gen_random_regular(n - n % 2, int(rng.integers(1, 4)), seed=seed))
    s = rng.uniform(0.0, 1.0, g.n)
    m2 = rng.random(g.n) < rng.uniform()
    m1 = m2 & (rng.random(g.n) < rng.uniform())
    src = source_opinions(s, gamma)
    system = MediaSystem(g, beta)
    z1, z2 = (equilibrium_with_media(system, s, build_zeta(
        MediaAssignment(m), src.z_M, src.z_Mprime), tol=1e-12).solution for m in (m1, m2))
    assert np.all(z2 >= z1 - 1e-9)


@SETTINGS
@given(st.integers(2, 400).flatmap(lambda n: st.tuples(
           st.just(n), st.integers(1, min(n - 1, 8)), st.integers(0, 2**64 - 1))),
       st.sampled_from([1, 16, 96, 384]), st.sampled_from([8, 64, 2**15]))
def test_ba_generator_replays_the_urn_loop(case, block_words, max_block_words):
    # small thresholds put blocks where events are dense and chains of
    # picks of picks run long; small caps cut the clean stretches short
    n, m, seed = case
    with mock.patch.multiple(graph_module, _BLOCK_WORDS=block_words,
                             _MAX_BLOCK_WORDS=max_block_words):
        g = gen_barabasi_albert(n, m, seed)
    targets, sources = barabasi_albert_urn(n, m, seed)
    assert g.edge_u.tolist() == targets
    assert g.edge_v.tolist() == sources


# ---------------------------------------------------------------------------
# solves against exact references, over the whole parameter range

U = 2.0 ** -53  # the unit roundoff of float64


def gamma_m(m):
    """The relative error bound of m roundings."""
    return m * U / (1.0 - m * U)


@st.composite
def solve_instances(draw):
    """A d-regular or BA graph on 1..40 nodes, clipped innate opinions, a beta
    log-uniform over [1e-300, 1e300] or exactly 0 (or, on a graph with an
    edge, one for which beta * (1 + d_max) overflows), a tol log-uniform over
    [1e-13, 1e-3] and a seed."""
    n = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32))
    if n == 1 or draw(st.booleans()):
        d = draw(st.integers(0, n - 1))
        g = gen_random_regular(n, d - (n * d) % 2, seed)
    else:
        g = gen_barabasi_albert(n, draw(st.integers(1, min(n - 1, 6))), seed)
    s = sample_innate(n, draw(unit), draw(unit), seed)
    d_max = g.stats.d_max
    branch = draw(st.sampled_from(["zero", "log", "overflow"] if d_max else ["zero", "log"]))
    if branch == "zero":
        beta = 0.0
    elif branch == "log":
        beta = 10.0 ** draw(st.floats(-300.0, 300.0))
    else:
        beta = draw(st.floats(1.0001, 2.0)) * (sys.float_info.max / (1.0 + d_max))
    tol = 10.0 ** draw(st.floats(-13.0, -3.0))
    return g, s, beta, tol, seed


def norm(v):
    """||v||_2, formed on v scaled by a power of two so that no square
    overflows: at beta = 1e300 the right-hand sides hold entries near 1e301."""
    v = np.asarray(v, dtype=np.float64)
    top = float(np.abs(v).max(initial=0.0))
    if top == 0.0:
        return 0.0
    k = math.frexp(top)[1]
    return math.ldexp(float(np.linalg.norm(np.ldexp(v, -k))), k)


ends = st.one_of(st.sampled_from([0.0, 1.0]), unit)  # alpha and gamma, endpoints drawn often
WEIGHT_OVERFLOWS = r"beta \* \(1 \+ d_max\) overflows"


def apply_error(op):
    """What rounding adds to ||A x - b|| per unit of ||x||: fl(A x)'s error,
    gamma_{K+3} c_A (``numerics`` docstring), plus u max(g) for the diagonal
    g = fl(1 + w) in place of 1 + w."""
    return gamma_m(op.graph.longest_row + 3) * op.abs_norm + U * float(op.gamma_diag.max())


def solve_error(op, rhs_norm, x_norm, tol):
    """A bound on ||x - A^-1 b||_2 for a solve that met tol: the measured
    residual, inflated by its own rounding, plus the apply's, over the
    smallest eigenvalue of A = diag(g) + L, which is at least min(g)."""
    n = op.graph.n
    return (((1.0 + gamma_m(3 * n + 5)) * tol * rhs_norm + apply_error(op) * x_norm)
            / float(op.gamma_diag.min()))


@SETTINGS
@given(solve_instances(), ends, ends)
def test_media_equilibrium_is_right_over_the_whole_range(inst, alpha, gamma):
    g, s, beta, tol, seed = inst
    if not math.isfinite(beta * (1.0 + g.stats.d_max)):
        with pytest.raises(ValueError, match=WEIGHT_OVERFLOWS):
            MediaSystem(g, beta)
        return
    system = MediaSystem(g, beta)
    src = source_opinions(s, gamma)
    zeta = build_zeta(assign_media(g, alpha, seed), src.z_M, src.z_Mprime)
    report = equilibrium_with_media(system, s, zeta, tol=tol)

    rhs = s + system.weight * zeta
    A = np.diag(system.op.gamma_diag) + laplacian(g)
    want = jacobi_solve(A, rhs)
    # the reference's own error: its residual, and that residual's rounding
    want_error = ((norm(A @ want - rhs)
                   + gamma_m(g.n + 2) * norm(np.abs(A) @ np.abs(want) + np.abs(rhs)))
                  / float(system.op.gamma_diag.min()))
    z = report.solution
    bound = solve_error(system.op, report.rhs_norm, norm(z), tol)
    assert norm(z - want) <= bound + want_error


@SETTINGS
@given(solve_instances(), ends)
# found on 0.1.14, whose denominator 1 + sum(w) - w^T b cancelled: z_M* off by
# 0.126, and 0 / 0
@example((gen_random_regular(1, 0, 0), np.array([0.125]), 1e21, 1e-3, 0), 0.0)
@example((gen_random_regular(1, 0, 0), np.array([0.0]), 1e16, 1e-3, 0), 0.0)
def test_nonstubborn_equilibrium_is_right_over_the_whole_range(inst, gamma):
    g, s, beta, tol, _ = inst
    config = MediaConfig(alpha=1.0, beta=beta, gamma=gamma)
    if not math.isfinite(beta * (1.0 + g.stats.d_max)):
        with pytest.raises(ValueError, match=WEIGHT_OVERFLOWS):
            nonstubborn_equilibrium(g, s, config, tol=tol)
        return
    z, z_M = nonstubborn_equilibrium(g, s, config, tol=tol)

    n = g.n
    system = MediaSystem(g, beta)
    op, w = system.op, system.weight
    s_M = source_opinions(s, gamma).z_M
    # the augmented FJ system: node n is the source, on edges of weight w
    W = np.zeros((n + 1, n + 1))
    W[:n, :n] = adjacency(g)
    W[:n, n] = W[n, :n] = w
    want = mmatrix_solve(W, np.ones(n + 1), np.append(s, s_M))
    want_error = gamma_m(2 * (n + 1) * (n + 4)) * np.abs(want) + 2.0 ** -1000

    # b = A^-1 w lies in [0, 1], as A 1 = 1 + w, so ||b|| <= sqrt(n); solving
    # eps_b <= (tol ||w|| + apply (sqrt(n) + eps_b)) / min(g) for eps_b
    lam, apply = float(op.gamma_diag.min()), apply_error(op)
    eps_b = (((1.0 + gamma_m(3 * n + 5)) * tol * norm(w) + apply * math.sqrt(n))
             / (lam - apply))
    # z_M = (s_M + b^T s) / (1 + sum(b)), with 1 + sum(b) >= 1
    sum_s = float(s.sum())
    num_error = norm(s) * eps_b + gamma_m(n + 1) * (s_M + (1.0 + eps_b) * sum_s)
    den_error = math.sqrt(n) * eps_b + gamma_m(n + 1) * (1.0 + n * (1.0 + eps_b))
    z_M_error = (num_error + z_M * den_error) * (1.0 + gamma_m(2)) + U * z_M
    assert abs(z_M - want[n]) <= z_M_error + want_error[n]

    # z solves A z = s + w z_M for the computed z_M: its rounding, the
    # solve, and z_M's error carried by b
    rhs = s + w * z_M
    rhs_norm = float(norm(rhs))
    bound = (solve_error(op, rhs_norm, norm(z), tol) + gamma_m(3) * rhs_norm / lam
             + math.sqrt(n) * z_M_error)
    assert norm(z - want[:n]) <= bound + norm(want_error[:n])


# ---------------------------------------------------------------------------
# the command line: a run exits 0 with files a rerun reproduces, or exits 2
# with an error line

EDGE_VALUES = ["0", "1", "1e-300", "1e300", "nan", "inf", "-1e-3"]


def value(typical):
    """A flag's value: one draw in 16 an edge value, else a typical one."""
    return st.sampled_from(range(16)).flatmap(
        lambda k: st.sampled_from(EDGE_VALUES) if k == 15 else typical.map(str))


def log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: repr(10.0 ** e))


@st.composite
def command_lines(draw):
    """argv from the flag grammar: every subcommand, a generated graph of at
    most 40 nodes, each flag present or not, and at most 20 periods."""
    mode = draw(st.sampled_from(["generate", "equilibrium", "periods", "nonstubborn",
                                 "bounds"]))
    kind = draw(st.sampled_from(["dreg", "ba"]))
    # an even n: a d-regular graph needs n * d even
    argv = [mode, "--gen", kind, "--n", draw(value(st.integers(1, 20).map(lambda k: 2 * k))),
            "--d" if kind == "dreg" else "--m",
            draw(value(st.integers(0 if kind == "dreg" else 1, 6)))]
    seed = value(st.integers(0, 2**32))
    if mode == "generate":
        flags = {"--seed": seed}
    else:
        fraction = value(unit)
        flags = {"--alpha": value(st.just(1.0)) if mode == "nonstubborn" else fraction,
                 "--beta": value(st.one_of(
                     st.floats(0.0, 2.0), log_uniform(-300.0, 300.0))),
                 "--gamma": fraction, "--tol": value(log_uniform(-13.0, -3.0)),
                 "--innate-mu": fraction, "--innate-var": fraction,
                 "--reps": value(st.integers(1, 3)), "--seed": seed}
        if mode == "periods":
            argv += ["--max-periods", draw(value(st.integers(1, 20)).filter(
                lambda v: v not in ("1e300", "inf", "nan")))]
            flags["--epsilon"] = value(st.floats(0.0, 1.0))
    for flag, values in flags.items():
        # a flag left out takes its default, or is one more way to exit 2
        if draw(st.sampled_from(range(24))) < 23:
            argv += [flag, draw(values)]
    return argv


def run_main(argv):
    """(exit status, stdout, stderr) of ``cli.main(argv)`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("runs")


@settings(SETTINGS, max_examples=200)
@given(command_lines())
def test_a_command_line_exits_cleanly_or_with_an_error_line(run_dir, argv):
    first, again = run_dir / "first.csv", run_dir / "again.csv"
    for path in (first, again):
        path.unlink(missing_ok=True)
    code, _, err = run_main(argv + ["--out", str(first)])
    if code == 2:
        assert "error: " in err
        return
    assert code == 0, err
    if argv[0] == "generate":
        assert run_main(argv + ["--out", str(again)])[0] == 0
    else:
        manifest = Path(f"{first}.manifest").read_text(encoding="utf-8")
        run_experiment(config_from_manifest(manifest, output=str(again)))
        assert Path(f"{again}.manifest").read_bytes() == Path(f"{first}.manifest").read_bytes()
    assert again.read_bytes() == first.read_bytes()
