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

# (name, file under src/fjmedia, exact old text, new text, pytest selector)
MUTANTS = [
    ("cancelling persuadable denominator", "nonstubborn.py",
     "(1.0 + float(b.sum()))",
     "(1.0 + float(system.weight.sum()) - dot(system.weight, b))",
     [PROPERTIES + "test_nonstubborn_equilibrium_is_right_over_the_whole_range"]),
    ("persuadable denominator without its 1 +", "nonstubborn.py",
     "(1.0 + float(b.sum()))", "float(b.sum())",
     ["tests/test_nonstubborn.py"]),
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
    ("raw bytes given to np.loadtxt", "graph.py",
     "table = np.loadtxt(stream, dtype=dtype, ndmin=1)",
     "table = np.loadtxt(io.BytesIO(data), dtype=dtype, ndmin=1)",
     ["tests/test_graph.py"]),
    ("ids past 2**(63 - bits) packed without their codes", "graph.py",
     "    if int(ids.max()) >> (63 - bits):",
     "    if False:",
     ["tests/test_graph.py"]),
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
