"""Matrix-free solves for operators of the form gamma*I_diag + L.

Every linear system in this package is symmetric positive definite with the
shape (diagonal + graph Laplacian), so one conjugate-gradient routine covers
them all without ever forming a matrix.  A plain CG loop is enough at the
sizes we run; no preconditioning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, laplacian_apply

__all__ = [
    "DiagPlusLaplacianOperator",
    "SolveReport",
    "ConvergenceError",
    "solve_spd",
]


class ConvergenceError(RuntimeError):
    """Raised when conjugate gradient hits its iteration cap.

    Carries the iteration count and the last residual so callers can report
    how close the solve got.
    """

    def __init__(self, message: str, iterations: int, residual: float):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


@dataclass(frozen=True)
class DiagPlusLaplacianOperator:
    """The SPD operator x -> gamma_diag * x + L x.

    ``gamma_diag`` must be strictly positive everywhere, which makes the
    operator positive definite (L alone is only semidefinite).
    """

    graph: Graph
    gamma_diag: np.ndarray

    def __post_init__(self) -> None:
        g = np.asarray(self.gamma_diag, dtype=np.float64).ravel()
        if g.shape != (self.graph.n,):
            raise ValueError(f"gamma_diag must have length {self.graph.n}")
        if np.any(~np.isfinite(g)) or np.any(g <= 0):
            raise ValueError("gamma_diag entries must be positive and finite")
        g = g.copy()
        g.setflags(write=False)
        object.__setattr__(self, "gamma_diag", g)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return self.gamma_diag * x + laplacian_apply(self.graph, x)


@dataclass(frozen=True)
class SolveReport:
    """Solution plus how hard the solver worked.

    ``residual`` is relative: ||A x - b|| / ||b|| in the 2-norm.
    """

    solution: np.ndarray
    iterations: int
    residual: float

    def __post_init__(self) -> None:
        sol = np.asarray(self.solution, dtype=np.float64)
        sol.setflags(write=False)
        object.__setattr__(self, "solution", sol)


def solve_spd(op: DiagPlusLaplacianOperator, rhs: np.ndarray, tol: float = 1e-10,
              max_iter: int | None = None) -> SolveReport:
    """Conjugate gradient on ``op.apply(x) = rhs``.

    Stops when the relative residual ||A x - b||_2 / ||b||_2 drops to ``tol``
    (verified against a freshly computed residual, not just the CG recursion).
    ``max_iter`` defaults to 10n.  Raises :class:`ConvergenceError` if the cap
    is hit first.
    """
    b = np.asarray(rhs, dtype=np.float64).ravel()
    n = b.size
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter is None:
        max_iter = 10 * n
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return SolveReport(np.zeros(n), 0, 0.0)
    x = np.zeros(n)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    for k in range(1, max_iter + 1):
        ap = op.apply(p)
        alpha = rs / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        rs_new = float(r @ r)
        if np.sqrt(rs_new) <= tol * b_norm:
            # the recursion residual drifts from the true one; trust but verify
            true_res = float(np.linalg.norm(op.apply(x) - b)) / b_norm
            if true_res <= tol:
                return SolveReport(x, k, true_res)
            r = b - op.apply(x)
            rs_new = float(r @ r)
            p = r.copy()
            rs = rs_new
            continue
        p = r + (rs_new / rs) * p
        rs = rs_new
    final = float(np.linalg.norm(op.apply(x) - b)) / b_norm
    raise ConvergenceError(
        f"conjugate gradient did not reach tol={tol:g} in {max_iter} iterations "
        f"(residual {final:.3e})",
        iterations=max_iter,
        residual=final,
    )
