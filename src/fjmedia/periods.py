"""Multi-period protocol: sources re-anchor to the drifting mean.

Each period the sources recompute (z_M, z_M') from the current innate mean,
the network equilibrates under that pull, and the equilibrium becomes the
next period's innate state.  With alpha > 1/2 on a regular graph the sum
grows geometrically until z_M hits the ceiling; with alpha = 1/2 it is
conserved forever and the opinions converge to a limit profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .fj import opinion_vector
from .graph import Graph
from .media import (MediaAssignment, MediaConfig, build_zeta,
                    equilibrium_with_media, source_opinions)
from .numerics import ConvergenceError, DiagPlusLaplacianOperator, solve_spd

__all__ = [
    "StopCriteria",
    "PeriodRecord",
    "PeriodTrajectory",
    "run_periods",
    "ell_star",
    "predicted_ell_star",
    "alpha_half_limit",
    "STOP_CAUSES",
]

STOP_CAUSES = ("radicalized_up", "radicalized_down", "max_periods", "fixed_point")


@dataclass(frozen=True)
class StopCriteria:
    """When to end a multi-period run.

    up_threshold     mean >= this means z_M would saturate next period
                     (normally 1/(1+gamma), see :meth:`for_run`)
    epsilon          mean <= this counts as radicalized down
    max_periods      hard cap on equilibration periods
    fixed_point_tol  stop once the per-period l-infinity opinion change is
                     this small; None disables the check
    """

    up_threshold: float
    epsilon: float
    max_periods: int
    fixed_point_tol: float | None = 1e-10

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < self.up_threshold <= 1.0:
            raise ValueError("need 0 < epsilon < up_threshold <= 1")
        if self.max_periods < 1:
            raise ValueError("max_periods must be >= 1")
        if self.fixed_point_tol is not None and self.fixed_point_tol < 0:
            raise ValueError("fixed_point_tol must be >= 0 or None")

    @classmethod
    def for_run(cls, gamma: float, n: int, max_periods: int = 1000,
                epsilon: float | None = None,
                fixed_point_tol: float | None = 1e-10) -> "StopCriteria":
        """Defaults: up at 1/(1+gamma), down at 10/n.

        The 10/n default needs n > 10 (1 + gamma); on smaller graphs pass
        ``epsilon`` explicitly.
        """
        up = 1.0 / (1.0 + gamma)
        if epsilon is None:
            epsilon = 10.0 / n
            if epsilon >= up:
                raise ValueError(
                    f"default epsilon 10/n = {epsilon:g} is not below the "
                    f"up threshold 1/(1+gamma) = {up:g}; pass an explicit "
                    f"epsilon (--epsilon on the command line)")
        return cls(up_threshold=up, epsilon=epsilon, max_periods=max_periods,
                   fixed_point_tol=fixed_point_tol)


@dataclass(frozen=True)
class PeriodRecord:
    """State after one period (period 0 is the untouched innate state)."""

    period: int
    sum_z: float
    mean_z: float
    z_M: float
    z_Mprime: float
    truncated: bool


@dataclass
class PeriodTrajectory:
    records: list[PeriodRecord] = field(default_factory=list)
    stop_cause: str = ""
    ell_star_predicted: float | None = None
    final_state: np.ndarray | None = None  # per-node opinions at stop time

    @property
    def periods_run(self) -> int:
        return self.records[-1].period if self.records else 0

    @property
    def sums(self) -> np.ndarray:
        return np.array([r.sum_z for r in self.records])


def _clamp_unit(z: np.ndarray, slack: float = 1e-9) -> np.ndarray:
    # equilibria live in [0,1] mathematically; tolerate solver-sized spill
    lo, hi = float(z.min()), float(z.max())
    if lo < -slack or hi > 1.0 + slack:
        raise ValueError(f"opinions left [0,1] by more than {slack:g} "
                         f"(range [{lo:.3e}, {hi:.3e}])")
    return np.clip(z, 0.0, 1.0)


def run_periods(graph: Graph, s0: np.ndarray, config: MediaConfig,
                assignment: MediaAssignment, stop: StopCriteria,
                tol: float = 1e-10) -> PeriodTrajectory:
    """Run the period protocol until a stop criterion fires.

    The assignment stays fixed across periods; only the source opinions move.
    Record 0 holds the initial innate state together with the source opinions
    computed from it (the pair period 1 consumes).  Stop checks run after
    each period in the order radicalized_up, radicalized_down, fixed_point,
    with max_periods as the fallback, so at least one period always runs.
    The trajectory keeps the last equilibrium as ``final_state``.
    """
    s = opinion_vector(s0, graph.n)
    if assignment.n != graph.n:
        raise ValueError("assignment size does not match graph")

    traj = PeriodTrajectory()
    realized = replace(config, alpha=assignment.count_M / graph.n)
    traj.ell_star_predicted = predicted_ell_star(graph, float(s.sum()), realized)

    src = source_opinions(s, config.gamma)
    traj.records.append(PeriodRecord(0, float(s.sum()), float(s.mean()),
                                     src.z_M, src.z_Mprime, src.truncated))

    for t in range(1, stop.max_periods + 1):
        src = source_opinions(s, config.gamma)
        zeta = build_zeta(assignment, src.z_M, src.z_Mprime)
        try:
            z = equilibrium_with_media(graph, s, config.beta, zeta, tol=tol)
        except ConvergenceError as exc:
            raise ConvergenceError(f"period {t}: {exc}", exc.iterations,
                                   exc.residual) from exc
        z = _clamp_unit(z)
        mean_z = float(z.mean())
        traj.final_state = z
        traj.records.append(PeriodRecord(t, float(z.sum()), mean_z,
                                         src.z_M, src.z_Mprime, src.truncated))
        if mean_z >= stop.up_threshold:
            traj.stop_cause = "radicalized_up"
            return traj
        if mean_z <= stop.epsilon:
            traj.stop_cause = "radicalized_down"
            return traj
        change = float(np.max(np.abs(z - s)))
        s = z
        if stop.fixed_point_tol is not None and change <= stop.fixed_point_tol:
            traj.stop_cause = "fixed_point"
            return traj
    traj.stop_cause = "max_periods"
    return traj


def ell_star(n: int, sum_s0: float, d: float, config: MediaConfig) -> float:
    """Periods until z_M saturates, on a d-regular graph with alpha > 1/2.

    Solves (1+gamma) * F^ell * sum_s0 / n = 1 for the per-period growth
    factor F = 1 + gamma (d+1) beta (2 alpha - 1) / ((d+1) beta + 1):

        ell* = log(n / (sum_s0 (1+gamma)))
               / log(1 + gamma (d+1) beta (2 alpha - 1) / ((d+1) beta + 1))

    Returns 0 when the start already sits on the ceiling.  alpha <= 1/2 has
    no finite crossing and is rejected, as are sum_s0 <= 0 or a start already
    past the ceiling.
    """
    if config.alpha <= 0.5:
        raise ValueError("ell_star needs alpha > 1/2 (no growth otherwise)")
    if config.beta <= 0.0 or config.gamma <= 0.0:
        raise ValueError("ell_star needs beta > 0 and gamma > 0")
    if sum_s0 <= 0.0:
        raise ValueError("ell_star needs sum_s0 > 0")
    if (1.0 + config.gamma) * sum_s0 / n > 1.0:
        raise ValueError("start is already truncated")
    b = (d + 1.0) * config.beta
    growth = 1.0 + config.gamma * b * (2.0 * config.alpha - 1.0) / (b + 1.0)
    return math.log(n / (sum_s0 * (1.0 + config.gamma))) / math.log(growth)


def predicted_ell_star(graph: Graph, sum_s0: float,
                       config: MediaConfig) -> float | None:
    """:func:`ell_star` on ``graph`` where its closed form applies, else None.

    It applies on a regular graph inside the domain :func:`ell_star` checks.
    The caller picks the alpha: the period protocol passes the realized
    attachment fraction, the bounds mode the nominal one.
    """
    if not graph.stats.is_regular:
        return None
    try:
        return ell_star(graph.n, sum_s0, graph.stats.d_max, config)
    except ValueError:  # outside the domain of the closed form
        return None


def alpha_half_limit(graph: Graph, beta: float, zeta0: np.ndarray,
                     tol: float = 1e-10) -> np.ndarray:
    """Limit opinion profile for the balanced protocol (alpha = 1/2).

    On a d-regular graph the period map contracts toward

        z_inf = (I + L / (beta (1+d)))^{-1} zeta0

    which depends only on the period-0 source profile zeta0, not on s0.
    Solved as (beta(1+d) I + L) z = beta(1+d) zeta0.  Requires a regular
    graph and beta > 0.
    """
    if not graph.stats.is_regular:
        raise ValueError("alpha_half_limit requires a d-regular graph")
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    zeta0 = np.asarray(zeta0, dtype=np.float64).ravel()
    if zeta0.shape != (graph.n,):
        raise ValueError(f"zeta0 must have length {graph.n}")
    scale = beta * (1.0 + graph.degree)
    op = DiagPlusLaplacianOperator(graph, scale)
    return solve_spd(op, scale * zeta0, tol=tol).solution
