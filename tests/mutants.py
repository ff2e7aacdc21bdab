"""Planted defects that the test suite must catch.

Each entry names a file under ``src/fjmedia``, a text that occurs in it
exactly once, the text to put in its place, and the tests that must then
fail.  For each entry the script copies ``src/``, ``tests/`` and
``pyproject.toml`` into a temporary directory, plants the defect in that
copy (never in the tree), and runs the selected tests there with ``-x``.
A mutant those tests let through is reported, and so is an entry whose
text no longer occurs exactly once: a change to the source must update
the list with it.

    python tests/mutants.py

Exits 0 when every mutant is caught, 1 otherwise.  The file name does not
match ``test_*``, so pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROPERTIES = "tests/test_properties.py::"
# each graph's layout against the edges it was built from
LAYOUT = "tests/test_graph.py::test_a_generated_layout_is_the_sorted_input_edges"
# ell_star where source_opinions leaves the start uncapped on the ceiling
ELL_CEILING = ("tests/test_periods.py::"
               "test_ell_star_on_the_ceiling_that_source_opinions_leaves_uncapped_is_zero")
# the d-regular generator against the pairing loop, on every legal d for n <= 40
PAIRING = "tests/test_graph.py::test_regular_generator_replays_the_pairing_loop"
# one file of LOADER_CASES against the line reader, by its name in brackets
LOADER = "tests/test_graph.py::test_load_table_parse_matches_the_line_reader"

# (name, file under src/fjmedia, exact old text, new text, pytest selector)
MUTANTS = [
    ("cancelling persuadable denominator", "nonstubborn.py",
     "(1.0 + float(b.sum()))",
     "(1.0 + float(system.weight.sum()) - dot(system.weight, b))",
     [PROPERTIES + "test_nonstubborn_equilibrium_is_right_over_the_whole_range"]),
    ("persuadable denominator without its 1 +", "nonstubborn.py",
     "(1.0 + float(b.sum()))", "float(b.sum())",
     ["tests/test_nonstubborn.py"]),
    ("persuadable cap without the source's own 1", "nonstubborn.py",
     "(1.0 + gamma)", "gamma",
     ["tests/test_golden.py::test_csv_matches_the_0_1_3_golden[nonstubborn]"]),
    ("a nonstubborn rep computes s_M a second time", "harness.py",
     '"s_M": s_m,', '"s_M": source_opinions(s, config.gamma).z_M,',
     ["tests/test_nonstubborn.py::test_each_rep_computes_its_source_opinion_once"]),
    ("an opinion range check that lets NaN through", "media.py",
     "not (z.min() >= 0.0 and z.max() <= 1.0)", "(z.min() < 0.0 or z.max() > 1.0)",
     ["tests/test_fj.py::test_opinion_vector_checks_range"]),
    ("ell_star without its floor at 0", "periods.py",
     "return max(0.0, ell)", "return ell",
     [ELL_CEILING]),
    ("ell_star decides truncation in another order than source_opinions", "periods.py",
     "(1.0 + config.gamma) * (sum_s0 / n) > 1.0", "(1.0 + config.gamma) * sum_s0 / n > 1.0",
     [ELL_CEILING]),
    ("ell_star through log of the rounded growth factor", "periods.py",
     "math.log1p(rise)", "math.log(1.0 + rise)",
     ["tests/test_periods.py::test_ell_star_matches_a_decimal_reference"]),
    ("no refusal of an overflowing media weight", "media.py",
     "    if not math.isfinite(float(beta) * (1.0 + d_max)):",
     "    if False:",
     [PROPERTIES + "test_media_equilibrium_is_right_over_the_whole_range"]),
    ("build_zeta swaps its two sources", "media.py",
     "np.where(assignment.attached_to_M, float(z_M), float(z_Mprime))",
     "np.where(assignment.attached_to_M, float(z_Mprime), float(z_M))",
     ["tests/test_media.py"]),
    ("Jacobi scaling replaced by ones", "numerics.py",
     '("inv_diag", diag.max() / diag)', '("inv_diag", np.ones_like(diag))',
     ["tests/test_numerics.py"]),
    ("lone-CR line ends left as they are", "graph.py",
     '.replace(b"\\r", b"\\n")', "",
     ["tests/test_graph.py"]),
    # the normalised copy lives only in the parse, as it would if
    # _parse_table made it, so the raw bytes stay alive through the parse
    ("line ends normalised for the table parse alone", "graph.py",
     'data = data.replace(b"\\r\\n", b"\\n").replace(b"\\r", b"\\n")\n'
     '    # numpy reads other bytes as Latin-1, the line reader as UTF-8\n'
     '    table = _parse_table(data) if data.isascii() else None',
     'pass\n'
     '    table = (_parse_table(data.replace(b"\\r\\n", b"\\n").replace(b"\\r", b"\\n"))\n'
     '             if data.isascii() else None)',
     ["tests/test_graph.py::test_the_table_parse_holds_the_only_copy_of_the_file_bytes"]),
    ("a non-ASCII file given to the table parse", "graph.py",
     "table = _parse_table(data) if data.isascii() else None",
     "table = _parse_table(data)",
     ["tests/test_graph.py"]),
    ("ids past 2**(63 - bits) packed without their codes", "graph.py",
     "    if int(ids.max()) >> (63 - bits):",
     "    if False:",
     ["tests/test_graph.py"]),
    ("the last bad edge named instead of the first", "graph.py",
     "k = int(np.argmax(out | (u == v) | bad_w | dup))",
     "k = u.size - 1 - int(np.argmax((out | (u == v) | bad_w | dup)[::-1]))",
     ["tests/test_graph.py::test_error_names_the_earliest_bad_edge"]),
    ("a bad edge named by its data-row index, not its line", "graph.py",
     "raise _edge_error(lines[k], exc,", "raise _edge_error(k + 1, exc,",
     ["tests/test_graph.py"]),
    ("one resolution round for copies inside a BA block", "graph.py",
     "    while ref.size:", "    while False:",
     ["tests/test_graph.py"]),
    ("a duplicate pair accepted within a pairing round", "graph.py",
     "rejected[first[new]] = False", "rejected[np.isin(key, uniq[new])] = False",
     [PAIRING]),
    # a superset of the dead ends: one that misses a dead end can loop forever
    ("a dead end declared one edge short of a clique", "graph.py",
     "among.size == s * (s - 1) // 2:", "among.size >= s * (s - 1) // 2 - 1:",
     [PAIRING]),
    ("rejected stubs queued again as (hi, lo)", "graph.py",
     "stubs = pairs[rejected].ravel()", "stubs = pairs[rejected][:, ::-1].ravel()",
     [PAIRING]),
    ("a pairing round that sorts its pairs into a copy of the stubs", "graph.py",
     "pairs = stubs.reshape(-1, 2)\n        pairs.sort(axis=1)",
     "pairs = np.sort(stubs.reshape(-1, 2), axis=1)",
     ["tests/test_graph.py::test_the_pairing_holds_one_round_of_arrays"]),
    ("neighbor_sum without its tail add", "graph.py",
     "    if graph.tail_rows.size:", "    if False:",
     ["tests/test_graph.py"]),
    ("neighbor_sum without the zero fill for K = 0", "graph.py",
     "out.fill(0.0)", "pass",
     ["tests/test_graph.py"]),
    ("neighbor_sum without the first head row's weight multiply", "graph.py",
     "            out *= head_w[0]", "            pass",
     ["tests/test_graph.py"]),
    ("neighbor_sum without the other head rows' weight multiply", "graph.py",
     "            terms *= head_w[k]", "            pass",
     ["tests/test_graph.py"]),
    ("neighbor_sum without the tail's weight multiply", "graph.py",
     "            terms *= graph.tail_w", "            pass",
     ["tests/test_graph.py"]),
    ("neighbor_sum reads a head row shifted by one node", "graph.py",
     'x.take(head[k], out=terms, mode="wrap")',
     'x.take(np.roll(head[k], 1), out=terms, mode="wrap")',
     ["tests/test_graph.py"]),
    ("degree from the row counts on a weighted graph", "graph.py",
     "        if unit:  # a sum of ones is exact", "        if True:  # a sum of ones is exact",
     ["tests/test_graph.py"]),
    ("the line count without a last line that has no line end", "graph.py",
     'data.count(b"\\n") + (not data.endswith(b"\\n")) != head + table.size',
     'data.count(b"\\n") != head + table.size',
     [LOADER + "[self-loop, contiguous edges, no final line end]"]),
    ("the line count check dropped, so a blank line among the edges moves no line number",
     "graph.py",
     '    if data.count(b"\\n") + (not data.endswith(b"\\n")) != head + table.size:\n'
     '        return None\n',
     "",
     [LOADER + "[self-loop before a blank line]"]),
    ("loadtxt strips comments, so an inline # is cut where the line reader refuses the line",
     "graph.py",
     "dtype=dtype, comments=None,", "dtype=dtype,",
     [LOADER + "[inline #]"]),
    ("the table path's error line not counted past the header", "graph.py",
     "_edge_error(head + k + 1,", "_edge_error(head + k,",
     [LOADER + "[self-loop after a comment header]"]),
    ("the remap compares run heads only within a chunk", "graph.py",
     "heads[0] = ids[0] != last", "heads[0] = True",
     ["tests/test_graph.py::test_load_remaps_an_id_whose_run_crosses_a_remap_chunk"]),
    ("a graph of 2**31 nodes not refused", "graph.py",
     "        if n >= _NODE_LIMIT:", "        if False:",
     ["tests/test_graph.py::test_a_graph_of_2_31_nodes_is_refused_before_any_allocation"]),
    ("the table path names an edge by its relabelled ids", "graph.py",
     "exc, *file_ids[ids[k]])", "exc, *ids[k])",
     ["tests/test_graph.py"]),
    ("the table's int64 ids kept while the graph is built", "graph.py",
     "    del ids  # the table's int64 ids", "    pass  # the table's int64 ids",
     ["tests/test_harness.py::test_loading_a_file_graph_holds_no_bytes_and_no_ones"]),
    ("a unit-weight table given an array of ones", "graph.py",
     "w = 1.0  # one weight for every edge: no array of ones", "w = np.ones(table.size)",
     ["tests/test_harness.py::test_loading_a_file_graph_holds_no_bytes_and_no_ones"]),
    ("a head row read one sorted entry late", "graph.py",
     "            head[k] = keys[at]",
     "            head[k] = keys[np.minimum(at + 1, keys.size - 1)]",
     [LAYOUT]),
    ("tail weights not carried by the sort's permutation", "graph.py",
     "tail_w = None if unit else w[order[in_tail]]",
     "tail_w = None if unit else w[np.flatnonzero(in_tail) % m]",
     [LAYOUT]),
    ("the edge count read from the head alone", "graph.py",
     "return (self.head.size + self.tail.size) // 2", "return self.head.size // 2",
     [LAYOUT]),
    ("generate writes the edges in id order, not the generator's", "cli.py",
     "lo, hi = spec._edges(args.seed)", "lo, hi = zip(*sorted(zip(*spec._edges(args.seed))))",
     ["tests/test_cli.py::test_generate_bytes_are_pinned"]),
    ("the right-hand side solved unscaled", "numerics.py",
     "k = 1 - math.frexp(b_max)[1] if math.isfinite(b_max) else 0", "k = 0",
     ["tests/test_numerics.py"]),
    ("rhs_norm of the scaled right-hand side", "numerics.py",
     "rhs_norm = float(np.ldexp(b_norm, -k))", "rhs_norm = float(b_norm)",
     ["tests/test_numerics.py::test_rhs_norm_is_the_two_norm_of_the_given_rhs"]),
    ("a media system built per period", "periods.py",
     "report = equilibrium_with_media(system, s, zeta, tol=tol)",
     "report = equilibrium_with_media(MediaSystem(graph, config.beta), s, zeta, tol=tol)",
     ["tests/test_periods.py::test_a_run_builds_one_operator"]),
    ("a NaN opinion passes the range check", "periods.py",
     "if not (lo >= -slack and hi <= 1.0 + slack):", "if lo < -slack or hi > 1.0 + slack:",
     ["tests/test_periods.py::test_a_nan_opinion_is_refused"]),
    ("a nonstubborn run accepts alpha below 1", "harness.py",
     'if self.mode == "nonstubborn" and self.alpha != 1.0:', "if False:",
     ["tests/test_nonstubborn.py::test_alpha_below_one_rejected"]),
    ("a name missing from one module's __all__", "fj.py",
     '__all__ = ["fj_step", "fj_equilibrium"]', '__all__ = ["fj_equilibrium"]',
     ["tests/test_harness.py::test_package_exports_each_modules_public_names"]),
]


def plant(src: Path, file: str, old: str, new: str) -> str | None:
    """Replace ``old`` by ``new`` in ``src/fjmedia/file``; the reason it cannot, or None."""
    path = src / "fjmedia" / file
    text = path.read_text(encoding="utf-8")
    count = text.count(old)
    if count != 1:
        return f"its text occurs {count} times in src/fjmedia/{file}, not once"
    path.write_text(text.replace(old, new), encoding="utf-8")
    return None


def run(entry, work: Path) -> tuple[bool, str]:
    """Plant one mutant in a fresh copy under ``work``; (caught, detail)."""
    _, file, old, new, selector = entry
    copy = work / "tree"
    shutil.rmtree(copy, ignore_errors=True)
    copy.mkdir()
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, copy / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
    stale = plant(copy / "src", file, old, new)
    if stale:
        return False, f"stale entry: {stale}"
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selector],
        cwd=copy, env=env, capture_output=True, text=True)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    # pytest exits 1 when a test failed; 2 to 5 mean it could not run them
    return proc.returncode == 1, f"pytest exit {proc.returncode}: {last}"


def main() -> int:
    missed = []
    with tempfile.TemporaryDirectory(prefix="fjmedia-mutants-") as work:
        for entry in MUTANTS:
            start = time.perf_counter()
            caught, detail = run(entry, Path(work))
            verdict = "caught" if caught else "MISSED"
            print(f"{verdict:6}  {entry[0]}  ({time.perf_counter() - start:.1f} s; {detail})",
                  flush=True)
            if not caught:
                missed.append(entry[0])
    print(f"{len(MUTANTS) - len(missed)} of {len(MUTANTS)} mutants caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
