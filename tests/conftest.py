import builtins
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis.vendor import pretty

from fjmedia import numerics

# make oracles.py importable regardless of how pytest was invoked
sys.path.insert(0, str(Path(__file__).parent))

# hypothesis prints a dataclass argument field by field, reading every
# argument of its __init__ as an attribute; a Graph's edge arrays are
# arguments it does not keep, so a Graph is printed by its repr
pretty.for_type_by_name("fjmedia.graph", "Graph", lambda graph, p, cycle: p.text(repr(graph)))


@pytest.fixture(autouse=True)
def residual_hook(monkeypatch):
    """Every solve in the suite meets its tol as the residual is measured.

    Wraps ``numerics._pcg`` and recomputes ||A x - b|| / ||b|| with the
    operator's own ``apply``, captured before the test runs, so the check
    holds whether the solve measured its residual or certified it, and a
    test that counts applies never sees the extra product.  Yields the
    unwrapped ``_pcg``.
    """
    real_pcg = numerics._pcg
    real_apply = numerics.DiagPlusLaplacianOperator.apply

    def checked(op, b, b_norm, tol, max_iter):
        rep = real_pcg(op, b, b_norm, tol, max_iter)
        measured = float(np.linalg.norm(real_apply(op, rep.solution) - b)) / b_norm
        if not measured <= tol:
            how = "certified" if rep.certified else "measured"
            raise AssertionError(
                f"a {how} solve stopped at iteration {rep.iterations} with residual "
                f"{measured:.3e} > tol {tol:g} (reported {rep.residual:.3e})")
        return rep

    monkeypatch.setattr(numerics, "_pcg", checked)
    yield real_pcg


@pytest.fixture
def opened(monkeypatch):
    """The file argument of every ``open`` call made during the test, in order."""
    calls = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        calls.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    return calls
