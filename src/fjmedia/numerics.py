"""Matrix-free solves for operators of the form gamma*I_diag + L.

Every linear system in this package is symmetric positive definite with the
shape (diagonal + graph Laplacian), so one conjugate-gradient routine covers
them all without ever forming a matrix.  CG is preconditioned with the
operator's own diagonal, gamma_diag + degree (Jacobi; Saad, *Iterative
Methods for Sparse Linear Systems*, section 9.2).  On hub-heavy graphs the
diagonal spans orders of magnitude and Jacobi cuts the iteration count
several-fold; on a graph whose diagonal is constant the scaled
preconditioner is exactly the identity, so the iterates are those of plain
CG, bit for bit.

A solve allocates its vectors once and updates them in place: every operator
product goes through ``apply(x, out=...)``, and each in-place update adds and
multiplies the same operands as the plain expression would, so the iterates
do not move by a bit.  A right-hand side whose norm overflows, or a CG
scalar that turns non-finite, stops the solve at once with an error; one
whose norm would underflow is solved scaled up by a power of two, which is
exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, neighbor_sum

__all__ = [
    "DiagPlusLaplacianOperator",
    "SolveReport",
    "ConvergenceError",
    "solve_spd",
]

# below this max|b|, the squares in ||b||_2 can underflow to 0
_TINY = 2.0 ** -500


class ConvergenceError(RuntimeError):
    """Raised when conjugate gradient hits its iteration cap or breaks down.

    Carries the iteration count and the last residual so callers can report
    how close the solve got.
    """

    def __init__(self, message: str, iterations: int, residual: float):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


@dataclass(frozen=True, eq=False)
class DiagPlusLaplacianOperator:
    """The SPD operator x -> gamma_diag * x + L x.

    ``gamma_diag`` must be strictly positive everywhere, which makes the
    operator positive definite (L alone is only semidefinite).  ``inv_diag``,
    the Jacobi scaling of ``solve_spd``, is diag.max() / diag for the operator's
    diagonal gamma_diag + degree, so a constant diagonal gives exactly 1.0.
    In the package only ``media.MediaSystem`` builds one.
    """

    graph: Graph
    gamma_diag: np.ndarray
    inv_diag: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        g = np.asarray(self.gamma_diag, dtype=np.float64).ravel()
        if g.shape != (self.graph.n,):
            raise ValueError(f"gamma_diag must have length {self.graph.n}")
        if np.any(~np.isfinite(g)) or np.any(g <= 0):
            raise ValueError("gamma_diag entries must be positive and finite")
        g = g.copy()
        diag = g + self.graph.degree
        for name, arr in (("gamma_diag", g), ("inv_diag", diag.max() / diag)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``gamma_diag * x + L x``, written into ``out`` when given.

        L x is formed as ``degree * x - W x``, with W x from :func:`neighbor_sum`.
        """
        x = np.asarray(x, dtype=np.float64)
        gx = self.gamma_diag * x
        dx = self.graph.degree * x
        out = neighbor_sum(self.graph, x, out=out)
        np.subtract(dx, out, out=out)
        out += gx  # (dx - Wx) + gx adds the same two numbers as gx + (dx - Wx)
        return out


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Solution plus how hard the solver worked.

    ``residual`` is relative: ||A x - b|| / ||b|| in the 2-norm, and
    ``rhs_norm`` is ||b||_2 of the right-hand side as given.
    """

    solution: np.ndarray
    iterations: int
    residual: float
    rhs_norm: float

    def __post_init__(self) -> None:
        sol = np.asarray(self.solution, dtype=np.float64)
        sol.setflags(write=False)
        object.__setattr__(self, "solution", sol)


def solve_spd(op: DiagPlusLaplacianOperator, rhs: np.ndarray, tol: float = 1e-10,
              max_iter: int | None = None) -> SolveReport:
    """Jacobi-preconditioned conjugate gradient on ``op.apply(x) = rhs``.

    Stops when the relative residual ||A x - b||_2 / ||b||_2 drops to ``tol``,
    which must lie in (0, 1) (verified against a freshly computed residual,
    not just the CG recursion).  The stop test reads the unpreconditioned
    residual.
    ``max_iter`` defaults to 10n.  Raises :class:`ConvergenceError` if the cap
    is hit first, or as soon as a CG scalar or the residual is not finite;
    raises ``ValueError`` when ||b||_2 is not finite (it overflows, or b holds
    inf or nan).  A right-hand side whose largest entry is below 2**-500 is
    solved scaled up by a power of two, since its norm would underflow to 0.
    """
    b = np.asarray(rhs, dtype=np.float64).ravel()
    n = b.size
    if not 0 < tol < 1:  # also rejects nan
        raise ValueError(f"tol must lie in (0, 1), got {tol:g}")
    if max_iter is None:
        max_iter = 10 * n
    # an overflow is reported once, as the error below, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        b_max = float(np.abs(b).max(initial=0.0))
        if 0.0 < b_max < _TINY:
            # ||b||_2 would underflow to 0; solve for b * 2**k and scale back,
            # both exact, with the same iterations and relative residual
            k = -math.frexp(b_max)[1]
            scaled = solve_spd(op, np.ldexp(b, k), tol, max_iter)
            return SolveReport(np.ldexp(scaled.solution, -k), scaled.iterations,
                               scaled.residual, math.ldexp(scaled.rhs_norm, -k))
        b_norm = float(np.linalg.norm(b))
        if not math.isfinite(b_norm):
            raise ValueError(f"conjugate gradient cannot start: ||b||_2 is {b_norm} at "
                             "iteration 0 (the right-hand side is too large or not finite)")
        if b_norm == 0.0:
            return SolveReport(np.zeros(n), 0, 0.0, 0.0)
        return _pcg(op, b, b_norm, tol, max_iter)


def _pcg(op: DiagPlusLaplacianOperator, b: np.ndarray, b_norm: float, tol: float,
         max_iter: int) -> SolveReport:
    n = b.size
    inv_diag = op.inv_diag
    x = np.zeros(n)
    r = b.copy()
    p = inv_diag * r
    z, ap, work = np.empty(n), np.empty(n), np.empty(n)
    rz = _finite("r.z", float(r @ p), 0)
    for k in range(1, max_iter + 1):
        op.apply(p, out=ap)
        alpha = rz / _finite("p.Ap", float(p @ ap), k)
        x += np.multiply(alpha, p, out=work)
        r -= np.multiply(alpha, ap, out=work)
        if np.sqrt(_finite("r.r", float(r @ r), k)) <= tol * b_norm:
            # the recursion residual drifts from the true one; trust but verify
            op.apply(x, out=ap)
            true_res = _finite("the residual", float(np.linalg.norm(
                np.subtract(ap, b, out=work))) / b_norm, k)
            if true_res <= tol:
                return SolveReport(x, k, true_res, b_norm)
            np.subtract(b, ap, out=r)  # ap still holds A x
            np.multiply(inv_diag, r, out=p)
            rz = _finite("r.z", float(r @ p), k)
            continue
        np.multiply(inv_diag, r, out=z)
        rz_new = _finite("r.z", float(r @ z), k)
        p *= rz_new / rz  # then z + p, the same sum as z + (rz_new / rz) * p
        p += z
        rz = rz_new
    op.apply(x, out=ap)
    final = float(np.linalg.norm(np.subtract(ap, b, out=work))) / b_norm
    raise ConvergenceError(
        f"conjugate gradient did not reach tol={tol:g} in {max_iter} iterations "
        f"(residual {final:.3e})",
        iterations=max_iter,
        residual=final,
    )


def _finite(name: str, value: float, iteration: int) -> float:
    # a non-finite CG scalar only ever spreads, so the solve stops on the spot
    if not math.isfinite(value):
        raise ConvergenceError(
            f"conjugate gradient broke down: {name} is {value} at iteration "
            f"{iteration} (the system's entries are too large)",
            iterations=iteration,
            residual=math.nan,
        )
    return value
