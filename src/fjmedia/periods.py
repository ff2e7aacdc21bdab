"""Multi-period protocol: sources re-anchor to the drifting mean.

Each period the sources recompute (z_M, z_M') from the current innate mean,
the network equilibrates under that pull, and the equilibrium becomes the
next period's innate state.  With alpha > 1/2 on a regular graph the sum
grows geometrically until z_M hits the ceiling; with alpha = 1/2 it is
conserved forever and the opinions converge to a limit profile.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, field, replace

import numpy as np

from .graph import Graph
from .media import (MediaAssignment, MediaConfig, MediaSystem, build_zeta,
                    equilibrium_with_media, opinion_vector, regular_rise,
                    source_opinions, sum_bounds, truncated_regular_sum)
from .numerics import ConvergenceError, solve_spd

__all__ = [
    "StopCriteria",
    "PeriodRecord",
    "PeriodTrajectory",
    "run_periods",
    "ell_star",
    "analytic_summary",
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
                epsilon: float | None = None) -> "StopCriteria":
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
        return cls(up_threshold=up, epsilon=epsilon, max_periods=max_periods)


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
    final_state: np.ndarray | None = None  # per-node opinions at stop time

    @property
    def periods_run(self) -> int:
        return self.records[-1].period if self.records else 0

    @property
    def sums(self) -> np.ndarray:
        return np.array([r.sum_z for r in self.records])


def _clamp_unit(z: np.ndarray, slack: float) -> np.ndarray:
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
    system = MediaSystem(graph, config.beta)

    src = source_opinions(s, config.gamma)
    traj.records.append(PeriodRecord(0, float(s.sum()), float(s.mean()),
                                     src.z_M, src.z_Mprime, src.truncated))

    for t in range(1, stop.max_periods + 1):
        if t > 1:  # period 1 consumes record 0's pair
            src = source_opinions(s, config.gamma)
        zeta = build_zeta(assignment, src.z_M, src.z_Mprime)
        try:
            report = equilibrium_with_media(system, s, zeta, tol=tol)
        except ConvergenceError as exc:
            raise ConvergenceError(f"period {t}: {exc}", exc.iterations,
                                   exc.residual) from exc
        # the solve leaves ||A z - b|| <= tol ||b||, and every eigenvalue of
        # A = (1 + beta) I + beta D + L is >= 1, so z lies within tol ||b||_2
        # of the exact equilibrium
        z = _clamp_unit(report.solution, tol * report.rhs_norm)
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
    factor F = 1 + rise (:func:`media.regular_rise`), as

        ell* = log(n / (sum_s0 (1+gamma))) / log1p(rise)

    which keeps every digit of a small rise that log(F) would round away.
    Returns 0 when the start already sits on the ceiling.  Rejects a rise
    that is not > 0 (alpha <= 1/2, beta or gamma 0, or an underflow),
    sum_s0 <= 0, a start past the ceiling, and an ell* past the float range.
    """
    rise = regular_rise(d, config)
    if not rise > 0.0:
        raise ValueError(f"ell_star needs a growth factor above 1, got F - 1 = {rise:g}")
    if sum_s0 <= 0.0:
        raise ValueError("ell_star needs sum_s0 > 0")
    if (1.0 + config.gamma) * sum_s0 / n > 1.0:
        raise ValueError("start is already truncated")
    ell = math.log(n / (sum_s0 * (1.0 + config.gamma))) / math.log1p(rise)
    if not math.isfinite(ell):
        raise ValueError(f"ell_star overflows: F - 1 = {rise:g} is too small")
    return ell


def analytic_summary(graph: Graph, s: np.ndarray, config: MediaConfig,
                     assignment: MediaAssignment) -> dict[str, float | None]:
    """The closed forms for one period from ``s``, keyed by CSV column.

    ``lower``, ``upper``, ``exact_if_regular`` and ``ell_star`` (None where a
    form does not apply) read alpha as the realized ``count_M / n`` the solve
    sees, not ``config.alpha``.  Uncapped z_M: the :func:`sum_bounds` bracket,
    on a non-regular graph only for beta <= 1 (where it is proved; on a
    regular graph it is the exact sum for every beta), plus :func:`ell_star`
    on a regular graph inside the domain it checks.
    Capped z_M: :func:`truncated_regular_sum` on a regular graph only.
    """
    s = opinion_vector(s, graph.n)
    if assignment.n != graph.n:
        raise ValueError("assignment size does not match graph")
    realized = replace(config, alpha=assignment.count_M / graph.n)
    n, d, sum_s = graph.n, graph.stats.d_max, float(s.sum())
    out = dict.fromkeys(("lower", "upper", "exact_if_regular", "ell_star"))
    if source_opinions(s, config.gamma).truncated:
        if graph.stats.is_regular:
            out["exact_if_regular"] = truncated_regular_sum(d, n, sum_s, realized)
        return out
    b = sum_bounds(graph, s, realized)
    out["exact_if_regular"] = b.exact_if_regular
    if graph.stats.is_regular or config.beta <= 1.0:  # exact, or proved
        out.update(lower=b.lower, upper=b.upper)
    if graph.stats.is_regular:
        with suppress(ValueError):  # outside the domain of the closed form
            out["ell_star"] = ell_star(n, sum_s, d, realized)
    return out


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
    system = MediaSystem(graph, beta)
    zeta0 = np.asarray(zeta0, dtype=np.float64).ravel()
    if zeta0.shape != (graph.n,):
        raise ValueError(f"zeta0 must have length {graph.n}")
    return solve_spd(system.weight_op, system.weight * zeta0, tol=tol).solution
