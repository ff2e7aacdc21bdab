"""Stubborn external media sources attached to a Friedkin-Johnsen network.

Two sources, M and M', broadcast fixed opinions during an equilibration
period.  A fraction alpha of nodes follows M, the rest follow M'.  A node i
listens to its source through an edge of weight beta*(1 + d_i), so beta
measures media strength relative to a node's total social exposure.  Source
opinions track the innate mean s_bar:

    z_M  = min((1 + gamma) * s_bar, 1)        (capped at the opinion ceiling)
    z_M' = (1 - gamma) * s_bar

With D the degree diagonal, the media-augmented equilibrium solves

    ((1 + beta) I + beta D + L) z = s + beta (I + D) zeta

where zeta_i is the opinion of the source node i follows.  The sources are
never materialised as graph nodes; they enter only through the diagonal and
the right-hand side.

Closed-form consequences implemented here:

- sum_bounds: two-sided bracket for sum(z) in the uncapped regime, collapsing
  to an exact value on d-regular graphs,
      sum(z) = (1 + gamma * beta(d+1)(2 alpha - 1) / (beta(d+1) + 1)) * sum(s)
- truncated_regular_sum: exact regular-graph sum once z_M is capped at 1,
- truncated_lower_bound: the cap never pushes the sum below
      sum(s) * (1 - gamma + alpha * gamma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graph import Graph
from .graph import neighbor_sum  # noqa: F401  unused; bench/test_bench.py reads it here
from .numerics import DiagPlusLaplacianOperator, SolveReport, solve_spd

__all__ = [
    "opinion_vector",
    "MediaConfig",
    "MediaAssignment",
    "SourceOpinions",
    "SumBounds",
    "assign_media",
    "source_opinions",
    "build_zeta",
    "MediaSystem",
    "equilibrium_with_media",
    "sum_bounds",
    "truncated_regular_sum",
    "truncated_lower_bound",
]


def opinion_vector(values, n: int | None = None) -> np.ndarray:
    """Validate and return an opinion vector: finite floats in [0, 1]."""
    z = np.asarray(values, dtype=np.float64).ravel()
    if n is not None and z.shape != (n,):
        raise ValueError(f"expected {n} opinions, got {z.shape}")
    if z.size and (np.any(~np.isfinite(z)) or z.min() < 0.0 or z.max() > 1.0):
        raise ValueError("opinions must lie in [0, 1]")
    return z


@dataclass(frozen=True)
class MediaConfig:
    """Media parameters: follower fraction, strength, and opinion spread.

    alpha in [0, 1], beta >= 0, gamma in [0, 1].  The closed-form bounds are
    proved for beta <= 1; larger beta still solves fine, but on a non-regular
    graph the bracket is no longer guaranteed.
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if not (np.isfinite(self.beta) and self.beta >= 0.0):
            raise ValueError("beta must be >= 0")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")


@dataclass(frozen=True)
class MediaAssignment:
    """Which nodes follow source M (the rest follow M')."""

    attached_to_M: np.ndarray

    def __post_init__(self) -> None:
        mask = np.asarray(self.attached_to_M, dtype=bool).ravel().copy()
        mask.setflags(write=False)
        object.__setattr__(self, "attached_to_M", mask)

    @property
    def n(self) -> int:
        return int(self.attached_to_M.size)

    @property
    def count_M(self) -> int:
        return int(np.count_nonzero(self.attached_to_M))


@dataclass(frozen=True)
class SourceOpinions:
    """Broadcast opinions for one period; ``truncated`` marks a capped z_M."""

    z_M: float
    z_Mprime: float
    truncated: bool


@dataclass(frozen=True)
class SumBounds:
    """Bracket for sum(z) after one media-augmented period.

    ``exact_if_regular`` is the closed-form value on d-regular graphs (there
    lower == upper == exact) and None otherwise.
    """

    lower: float
    upper: float
    exact_if_regular: float | None


def _round_half_away_from_zero(x: float) -> int:
    # round() would bank 2019.5 to 2020 or 2018.5 to 2018; we always go up
    return int(math.floor(x + 0.5))


def assign_media(graph: Graph, alpha: float, seed: int) -> MediaAssignment:
    """Pick round(alpha * n) nodes uniformly at random to follow M.

    Rounding is half away from zero, so alpha=0.5 on odd n favours M by one
    node.  Deterministic for a fixed seed.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    n = graph.n
    count = _round_half_away_from_zero(alpha * n)
    rng = np.random.default_rng(seed)
    mask = np.zeros(n, dtype=bool)
    if count:
        mask[rng.choice(n, size=count, replace=False)] = True
    return MediaAssignment(mask)


def source_opinions(s: np.ndarray, gamma: float) -> SourceOpinions:
    """Source opinions for the current innate state.

    z_M pulls the mean up by a factor (1 + gamma) but saturates at 1; z_M'
    pulls it down by (1 - gamma).  ``truncated`` is True only for a strict
    overshoot, so (1 + gamma) * s_bar == 1 exactly still counts as uncapped.
    """
    s = opinion_vector(s)
    if s.size == 0:
        raise ValueError("need at least one opinion")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    s_bar = float(s.mean())
    raw = (1.0 + gamma) * s_bar
    truncated = raw > 1.0
    return SourceOpinions(
        z_M=min(raw, 1.0),
        z_Mprime=(1.0 - gamma) * s_bar,
        truncated=truncated,
    )


def build_zeta(assignment: MediaAssignment, z_M: float, z_Mprime: float) -> np.ndarray:
    """Per-node source opinion: z_M where attached to M, z_M' elsewhere."""
    return np.where(assignment.attached_to_M, float(z_M), float(z_Mprime))


def check_media_weight(beta: float, d_max: float) -> None:
    """Reject a beta for which the largest media weight beta * (1 + d_max) overflows.

    Every solve and closed form forms that weight; past the float range it
    would turn into inf and nan without an error.
    """
    if not math.isfinite(float(beta) * (1.0 + d_max)):
        raise ValueError(f"beta {beta:g} is too large: beta * (1 + d_max) overflows "
                         f"at d_max = {d_max:g}")


@dataclass(frozen=True, eq=False)
class MediaSystem:
    """The media operators of one (graph, beta), built once and shared by solves.

    ``weight`` is the media weight beta * (1 + d_i), formed only here.  ``op``
    is (1 + beta) I + beta D + L, the operator with diagonal 1 + weight, and
    ``weight_op`` is diag(weight) + L, which needs beta > 0.  Each is built on
    first use; no other code in the package builds an operator.  beta must be
    finite and >= 0 with beta * (1 + d_max) finite; arrays are read-only.
    """

    graph: Graph
    beta: float
    weight: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not (np.isfinite(self.beta) and self.beta >= 0.0):
            raise ValueError(f"beta must be finite and >= 0, got {self.beta:g}")
        check_media_weight(self.beta, self.graph.stats.d_max)
        weight = self.beta * (1.0 + self.graph.degree)
        weight.setflags(write=False)
        object.__setattr__(self, "weight", weight)

    @cached_property
    def op(self) -> DiagPlusLaplacianOperator:
        # diagonal (1 + beta) + beta d_i written as 1 + beta (1 + d_i)
        return DiagPlusLaplacianOperator(self.graph, 1.0 + self.weight)

    @cached_property
    def weight_op(self) -> DiagPlusLaplacianOperator:
        return DiagPlusLaplacianOperator(self.graph, self.weight)


def equilibrium_with_media(system: MediaSystem, s: np.ndarray, zeta: np.ndarray,
                           tol: float = 1e-10) -> SolveReport:
    """Equilibrium under media influence, by conjugate gradient on

        ((1+beta) I + beta D + L) z = s + beta (I+D) zeta

    where zeta_i is the opinion of the source node i follows.  beta = 0
    reduces to the plain FJ equilibrium; s == zeta == c*1 returns the
    consensus c.  The report carries the iteration count, the relative
    residual and ||b||_2 beside the solution.
    """
    s = opinion_vector(s, system.graph.n)
    zeta = np.asarray(zeta, dtype=np.float64).ravel()
    if zeta.shape != s.shape:
        raise ValueError("zeta must match the graph size")
    return solve_spd(system.op, s + system.weight * zeta, tol=tol)


def regular_rise(d: float, config: MediaConfig) -> float:
    """F - 1, the rise of sum(z) per period on a d-regular graph; F is formed only here."""
    alpha, beta, gamma = config.alpha, config.beta, config.gamma
    return gamma * beta * (d + 1.0) * (2.0 * alpha - 1.0) / (beta * (d + 1.0) + 1.0)


def sum_bounds(graph: Graph, s: np.ndarray, config: MediaConfig) -> SumBounds:
    """Two-sided bracket for sum of the media-augmented equilibrium.

    Valid only while z_M is uncapped; a truncated instance is rejected
    because the linear growth argument breaks once z_M saturates (use
    :func:`truncated_regular_sum` there).  Proved for beta <= 1.  Rejects a
    beta for which a bound overflows.
    """
    s = opinion_vector(s, graph.n)
    if source_opinions(s, config.gamma).truncated:
        raise ValueError("truncated regime: (1 + gamma) * mean(s) > 1; "
                         "sum_bounds only covers the uncapped case")
    sum_s = float(s.sum())
    stats = graph.stats
    check_media_weight(config.beta, stats.d_max)
    alpha, beta, gamma = config.alpha, config.beta, config.gamma
    swing = (2.0 * alpha - 1.0) * gamma + 1.0
    lower = (1.0 + (stats.d_min + 1.0) * beta * swing) / (beta * (stats.d_max + 1.0) + 1.0) * sum_s
    upper = (1.0 + (stats.d_max + 1.0) * beta * swing) / (beta * (stats.d_min + 1.0) + 1.0) * sum_s
    exact = (1.0 + regular_rise(stats.d_max, config)) * sum_s if stats.is_regular else None
    if not (math.isfinite(lower) and math.isfinite(upper)):  # exact is at most 2 sum_s
        raise ValueError(f"beta {beta:g} is too large: the sum bounds overflow")
    return SumBounds(lower=lower, upper=upper, exact_if_regular=exact)


def truncated_regular_sum(d: float, n: int, sum_s: float, config: MediaConfig) -> float:
    """Exact equilibrium sum on a d-regular graph once z_M is capped at 1.

    ((1 + beta(1+d)(1-alpha)(1-gamma)) sum_s + alpha beta (1+d) n)
        / (1 + beta(1+d))

    Rejects a beta for which the sum overflows.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if d < 0:
        raise ValueError("d must be >= 0")
    check_media_weight(config.beta, d)
    b = config.beta * (1.0 + d)
    total = ((1.0 + b * (1.0 - config.alpha) * (1.0 - config.gamma)) * sum_s
             + config.alpha * b * n) / (1.0 + b)
    if not math.isfinite(total):  # alpha * b * n overflows before b does
        raise ValueError(f"beta {config.beta:g} is too large: the capped sum overflows")
    return total


def truncated_lower_bound(sum_s: float, alpha: float, gamma: float) -> float:
    """Floor on the equilibrium sum in the capped regime.

    sum(z) stays strictly above sum_s * (1 - gamma + alpha*gamma) whenever
    sum_s < n; equality would need every opinion pinned at the ceiling.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    return sum_s * (1.0 - gamma + alpha * gamma)
