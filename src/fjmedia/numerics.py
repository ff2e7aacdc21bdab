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
do not move by a bit.  CG runs on the right-hand side scaled by the power
of two that puts its largest entry in [1, 2), and the solution is scaled
back.  Both scalings are exact and CG's iterates scale with them, so ||b||_2
can neither underflow nor overflow inside the solve.  A right-hand side that
holds inf or nan, or whose own ||b||_2 overflows, a CG scalar that turns
non-finite and a solution past the float range stop the solve at once with
an error.

The stop is certified.  CG updates its residual by recursion, and in floating
point r_k drifts from b - A x_k.  A solve may stop only when the residual as
``solve_spd`` measures it, ||fl(A x) - b||_2 / ||b||_2, is at most tol, and it
proves that without the product A x whenever a rounding bound on the drift
allows (Greenbaum 1997, *Estimating the attainable accuracy of recursively
computed residual methods*, SIMAX 18(3); van der Vorst & Ye 2000, *Residual
replacement strategies for Krylov subspace iterative methods*, SISC 22(3)).
With u = 2**-53 and gamma_m = m u / (1 - m u), each operation is exact times
(1 + delta), |delta| <= u, plus at most 2**-1075 for a product that
underflows; a dot product of n terms is off by at most gamma_n times the
sum of their magnitudes, in any summation order.  Let K be the longest
adjacency row (``Graph.longest_row``), g = gamma_diag, and
c_A = max_i(g_i + 2 d_i), the largest row sum of |A|, which bounds ||A||_2
and || |A| ||_2.  Then:

- fl(A p) = A p + eta with |eta| <= gamma_{K+3} |A| |p|: a neighbour term
  sees its weight product, at most K - 1 additions, the subtraction from
  d*p and the addition of g*p, and a diagonal term at most three
  roundings.
- The gap f_k = b - A x_k - r_k starts at f_0 = 0, as r_0 = b exactly.  The
  updates x_k = x_{k-1} + alpha p + xi and r_k = r_{k-1} - alpha fl(A p) +
  rho give f_k = f_{k-1} - A xi - rho + alpha eta.  The terms in
  |alpha| ||p|| (alpha eta and the roundings of alpha fl(A p) and alpha p)
  sum to at most gamma_{K+5} c_A |alpha| ||p||, so
  ||f_k|| <= ||f_{k-1}|| + c_A (gamma_{K+5} |alpha| ||p|| + u ||x_k||) + u ||r_k||
  with ||x_k|| <= X_k = X_{k-1} + |alpha| ||p||, the sum of the steps.
- A norm formed as sqrt(fl(v . v)) is within a factor 1 + gamma_{2n+1} of
  ||v||, plus sqrt(n) 2**-537 for squares that underflow.  Measuring adds
  gamma_{K+3} c_A ||x|| for fl(A x) and a factor 1 + gamma_{n+2} for the
  subtraction and the norm.

So the measured ||fl(A x_k) - b|| is at most

    B_k = (1 + (6n + 12) u) ||r_k|| + 2 (G_k + gamma_{K+3} c_A X_k),

where ||r_k|| is the computed norm, G_k sums the gap terms above, and both
G_k and the apply term carry absolute underflow terms of order sqrt(n)
2**-537.  The first factor is at least 1 + gamma_{3n+5}: the inflation of
||r_k|| by its norm and by the measurement, and the rounding of B_k itself.
The factor 2 covers the relative error of every other computed factor (the
norms, c_A, X_k and the sums and products that form B_k), which together
stay below gamma_{44n+20} <= 1 for n < 2**46.  Rounding is monotone, so
fl(B_k / ||b||) bounds the measured relative residual.  When the recursion
residual meets tol and that quotient is at most tol, the solve returns it
as the residual, marked certified.  Otherwise it forms A x, returns the
measured residual if that meets tol, and else restarts CG from
r = b - fl(A x) (residual replacement), where the gap restarts at
u ||b - fl(A x)|| + gamma_{K+3} c_A X_k.  A measured residual that is not
below the smallest one measured before it in the solve shows that tol lies
under the accuracy rounding lets CG attain: the solve then stops with an
error instead of measuring again at each iteration up to its cap.
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

# the unit roundoff of float64
_U = 2.0 ** -53


class ConvergenceError(RuntimeError):
    """Raised when conjugate gradient hits its cap, stagnates or breaks down.

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
    ``abs_norm`` = max(gamma_diag + 2 degree) bounds || |A| ||_2, a constant
    of the certified stop in ``solve_spd``.  In the package only
    ``media.MediaSystem`` builds one.
    """

    graph: Graph
    gamma_diag: np.ndarray
    inv_diag: np.ndarray = field(init=False, repr=False)
    abs_norm: float = field(init=False, repr=False)

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
        object.__setattr__(self, "abs_norm", float((diag + self.graph.degree).max()))

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

    ``residual`` is relative, ||A x - b|| / ||b|| in the 2-norm, and
    ``rhs_norm`` is ||b||_2 of the right-hand side as given.  When
    ``certified`` is False the residual was measured from a computed A x;
    when True it is a proven upper bound on that measured value, and no
    A x was formed (see the ``numerics`` module docstring).
    """

    solution: np.ndarray
    iterations: int
    residual: float
    rhs_norm: float
    certified: bool = False

    def __post_init__(self) -> None:
        sol = np.asarray(self.solution, dtype=np.float64)
        sol.setflags(write=False)
        object.__setattr__(self, "solution", sol)


def solve_spd(op: DiagPlusLaplacianOperator, rhs: np.ndarray,
              tol: float = 1e-10) -> SolveReport:
    """Jacobi-preconditioned conjugate gradient on ``op.apply(x) = rhs``.

    Stops when the relative residual ||A x - b||_2 / ||b||_2 drops to ``tol``,
    which must lie in (0, 1).  The stop test reads the unpreconditioned
    recursion residual; the true one is then either certified by a proven
    rounding bound or measured from a freshly computed A x, and
    ``SolveReport.certified`` says which.  CG runs on b scaled by the power
    of two that puts max|b| in [1, 2), and the solution is scaled back, both
    exactly, so the size of b alone stops no solve.
    Raises :class:`ConvergenceError` if the cap of 10n iterations is hit
    first, if a measured residual fails to drop below the smallest one
    measured before it (the solve stagnated above tol), or as soon as a CG
    scalar, the residual or the scaled-back solution is not finite;
    raises ``ValueError`` when ||b||_2 is not finite (it overflows, or b holds
    inf or nan).
    """
    b = np.asarray(rhs, dtype=np.float64).ravel()
    n = b.size
    if not 0 < tol < 1:  # also rejects nan
        raise ValueError(f"tol must lie in (0, 1), got {tol:g}")
    # an overflow is reported once, as an error, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        b_max = float(np.abs(b).max(initial=0.0))
        if b_max == 0.0:
            return SolveReport(np.zeros(n), 0, 0.0, 0.0)
        k = 1 - math.frexp(b_max)[1] if math.isfinite(b_max) else 0
        if k:
            b = np.ldexp(b, k)
        b_norm = math.sqrt(dot(b, b))
        rhs_norm = float(np.ldexp(b_norm, -k))
        if not math.isfinite(rhs_norm):
            raise ValueError(f"conjugate gradient cannot start: ||b||_2 is {rhs_norm} at "
                             "iteration 0 (the right-hand side is too large or not finite)")
        report = _pcg(op, b, b_norm, tol, 10 * n)
        if not k:
            return report
        x = np.ldexp(report.solution, -k)
        # max|x| from max and min: np.abs would allocate an n-vector per solve
        _finite("max|x|", max(float(x.max()), -float(x.min())), report.iterations)
    return SolveReport(x, report.iterations, report.residual, rhs_norm, report.certified)


def _pcg(op: DiagPlusLaplacianOperator, b: np.ndarray, b_norm: float, tol: float,
         max_iter: int) -> SolveReport:
    n = b.size
    inv_diag = op.inv_diag
    # the certified stop's constants and state, as in the module docstring:
    # gap bounds ||b - A x - r||, x_bound bounds ||x||, and tiny is the most
    # that underflow can hide in a norm
    c_a, k_max = op.abs_norm, op.graph.longest_row
    apply_err, step_err = _gamma(k_max + 3) * c_a, _gamma(k_max + 5) * c_a
    tiny = math.sqrt(n) * 2.0 ** -537
    under, under_alpha = tiny * (1.0 + c_a), tiny * (k_max + 3)
    r_factor = 1.0 + (6 * n + 12) * _U
    gap = x_bound = 0.0
    best = math.inf  # the smallest residual measured so far
    x = np.zeros(n)
    r = b.copy()
    p = inv_diag * r
    z, ap, work = np.empty(n), np.empty(n), np.empty(n)
    rz = _finite("r.z", dot(r, p, work), 0)
    for k in range(1, max_iter + 1):
        op.apply(p, out=ap)
        alpha = rz / _finite("p.Ap", dot(p, ap, work), k)
        x += np.multiply(alpha, p, out=work)
        r -= np.multiply(alpha, ap, out=work)
        r_norm = math.sqrt(_finite("r.r", dot(r, r, work), k))
        # an inf or nan here only ever blocks the certified stop
        step = abs(alpha) * (math.sqrt(dot(p, p, work)) + tiny)
        x_bound += step
        gap += (step_err * step + c_a * _U * x_bound + _U * r_norm
                + under + under_alpha * abs(alpha))
        if r_norm <= tol * b_norm:
            bound = r_factor * r_norm + _rounding_bound(gap, apply_err * x_bound, tiny)
            bound /= b_norm
            if bound <= tol:
                return SolveReport(x, k, bound, b_norm, certified=True)
            # the bound is too loose to decide: measure the true residual
            op.apply(x, out=ap)
            res_norm = _norm(np.subtract(ap, b, out=work))
            true_res = _finite("the residual", res_norm / b_norm, k)
            if true_res <= tol:
                return SolveReport(x, k, true_res, b_norm)
            if true_res >= best:
                raise ConvergenceError(
                    f"conjugate gradient did not reach tol={tol:g}: the measured "
                    f"residual stagnated at {best:.3e} (iteration {k}: {true_res:.3e})",
                    iterations=k, residual=true_res)
            best = true_res
            np.subtract(b, ap, out=r)  # ap still holds A x
            gap = _U * res_norm + apply_err * x_bound + 2.0 * tiny
            np.multiply(inv_diag, r, out=p)
            rz = _finite("r.z", dot(r, p, work), k)
            continue
        np.multiply(inv_diag, r, out=z)
        rz_new = _finite("r.z", dot(r, z, work), k)
        p *= rz_new / rz  # then z + p, the same sum as z + (rz_new / rz) * p
        p += z
        rz = rz_new
    op.apply(x, out=ap)
    final = _norm(np.subtract(ap, b, out=work)) / b_norm
    raise ConvergenceError(
        f"conjugate gradient did not reach tol={tol:g} in {max_iter} iterations "
        f"(residual {final:.3e})",
        iterations=max_iter,
        residual=final,
    )


def dot(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> float:
    """The dot product of two float64 vectors, summed in a fixed order.

    ``a @ b`` goes to BLAS, which may split a long sum between threads, so
    its rounding can follow the machine's thread count.  numpy's pairwise
    ``add.reduce`` sums in an order set by the length alone, so every
    output byte derived from a solve is the same on any machine with the
    same numpy.  The products are written into ``out`` when given; it may
    be ``a`` or ``b``.
    """
    return float(np.add.reduce(np.multiply(a, b, out=out)))


def _norm(v: np.ndarray) -> float:
    # ||v||_2 as np.linalg.norm forms it, sqrt(v . v); squares v in place
    return math.sqrt(dot(v, v, v))


def _gamma(m: int) -> float:
    # gamma_m: the relative error bound of m roundings
    return m * _U / (1.0 - m * _U)


def _rounding_bound(gap: float, apply_error: float, tiny: float) -> float:
    # what rounding can add to ||fl(A x) - b|| beyond the recursion residual:
    # the gap, fl(A x)'s own error, and underflow in A x, in the residual and
    # in its norm; doubled to cover the rounding of the bound itself
    return 2.0 * (gap + apply_error + 3.0 * tiny)


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
