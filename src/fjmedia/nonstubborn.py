"""A single media source that argues back.

Instead of broadcasting a fixed opinion, the source joins the network as an
ordinary FJ node: innate opinion s_M = min((1+gamma) * mean(s), 1), connected
to every node i by an edge of weight beta * (1 + d_i).  Sum conservation on
the augmented graph then caps the influence hard:

    sum(z) + z_M = sum(s) + s_M   =>   sum(z) <= (1 + (1+gamma)/n) * sum(s)

so a persuadable source moves the total by at most a 1/n-sized factor, versus
the n-independent gain a stubborn source achieves.  ``nonstubborn_sum_bound``
is that cap, the ``bound`` column of a ``nonstubborn`` row.  Only full
attachment (alpha = 1) is modelled.

The augmented graph is never built.  With w = beta * (1 + d) and
A = I + diag(w) + L, the operator ``equilibrium_with_media`` solves for the
stubborn sources, the augmented FJ system splits into the node rows and the
source row:

    A z = s + w z_M                      (node rows)
    (1 + sum(w)) z_M - w^T z = s_M       (source row)

Substituting z = A^{-1} s + z_M b with b = A^{-1} w, and using that A is
symmetric (w^T A^{-1} s = b^T s), gives z_M = (s_M + b^T s) / (1 + sum(w) -
w^T b).  A 1 = 1 + w, so (1 + w)^T b = 1^T A b = sum(w): the denominator is
exactly 1 + sum(b), a sum of non-negative terms that no beta cancels, and

    z_M = (s_M + b^T s) / (1 + sum(b))

Two solves of the stubborn media operator give the equilibrium: b, the
equilibrium at s = 0 with every source opinion 1 (its right-hand side
0 + w * 1 is w), then z with every source opinion z_M.  As beta grows, b
tends to 1 and z to the consensus (sum(s) + s_M) / (n + 1); at beta = 0,
b = 0 and z_M = s_M.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph
from .media import MediaSystem, equilibrium_with_media, opinion_vector, source_opinions
from .numerics import dot

__all__ = ["nonstubborn_equilibrium", "nonstubborn_sum_bound"]


def nonstubborn_equilibrium(graph: Graph, s: np.ndarray, beta: float, gamma: float,
                            tol: float = 1e-10) -> tuple[np.ndarray, float, float]:
    """Equilibrium with one non-stubborn source; returns (node opinions, z_M*, s_M).

    Every node hears the source (alpha = 1 is part of the model).  s_M is
    the source's innate opinion.  Eliminates the source node and solves the
    stubborn media operator twice, dividing by 1 + sum(b) (see the module
    docstring).
    """
    s = opinion_vector(s, graph.n)
    s_M = source_opinions(s, gamma).z_M
    system = MediaSystem(graph, beta)
    b = equilibrium_with_media(system, np.zeros(graph.n), np.ones(graph.n), tol=tol).solution
    z_M = (s_M + dot(b, s)) / (1.0 + float(b.sum()))
    z = equilibrium_with_media(system, s, np.full(graph.n, z_M), tol=tol).solution
    return z, z_M, s_M


def nonstubborn_sum_bound(sum_s: float, n: int, gamma: float) -> float:
    """Cap on the equilibrium sum with one persuadable source.

    sum(z) <= (1 + (1+gamma)/n) * sum_s, from sum conservation on the
    augmented graph and s_M <= (1+gamma) * sum_s / n (see the module
    docstring).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    return (1.0 + (1.0 + gamma) / n) * sum_s
