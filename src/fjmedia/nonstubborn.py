"""A single media source that argues back.

Instead of broadcasting a fixed opinion, the source joins the network as an
ordinary FJ node: innate opinion s_M = min((1+gamma) * mean(s), 1), connected
to every node i by an edge of weight beta * (1 + d_i).  Sum conservation on
the augmented graph then caps the influence hard:

    sum(z) + z_M = sum(s) + s_M   =>   sum(z) <= (1 + (1+gamma)/n) * sum(s)

so a persuadable source moves the total by at most a 1/n-sized factor, versus
the n-independent gain a stubborn source achieves.  Only full attachment
(alpha = 1) is modelled.

The augmented graph is never built.  With w = beta * (1 + d) and
A = I + diag(w) + L, the operator ``equilibrium_with_media`` solves for the
stubborn sources, the augmented FJ system splits into the node rows and the
source row:

    A z = s + w z_M                      (node rows)
    (1 + sum(w)) z_M - w^T z = s_M       (source row)

Substituting z = A^{-1} s + z_M b with b = A^{-1} w, and using that A is
symmetric (w^T A^{-1} s = b^T s), gives

    z_M = (s_M + b^T s) / (1 + sum(w) - w^T b)

so two solves of the stubborn media operator give the equilibrium: b, then z
with every node's source opinion set to z_M.  L is positive semidefinite, so
A dominates I + diag(w) and w^T A^{-1} w <= sum(w^2 / (1 + w)); the
denominator is therefore at least 1 + sum(w / (1 + w)), which is > 1 for
beta > 0.  At beta = 0, b = 0 and z_M = s_M exactly, with no branch.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph
from .media import (MediaConfig, MediaSystem, equilibrium_with_media, opinion_vector,
                    source_opinions)
from .numerics import dot

__all__ = ["nonstubborn_equilibrium"]


def nonstubborn_equilibrium(graph: Graph, s: np.ndarray, config: MediaConfig,
                            tol: float = 1e-10) -> tuple[np.ndarray, float]:
    """Equilibrium with one non-stubborn source; returns (node opinions, z_M*).

    Eliminates the source node and solves the stubborn media operator twice
    (see the module docstring).  Rejects alpha != 1: the single-source
    analysis assumes everyone listens to M.
    """
    if config.alpha != 1.0:
        raise ValueError("non-stubborn mode requires alpha = 1")
    s = opinion_vector(s, graph.n)
    n = graph.n
    system = MediaSystem(graph, config.beta)
    w = system.weight
    b = equilibrium_with_media(system, np.zeros(n), np.ones(n), tol=tol).solution
    s_M = source_opinions(s, config.gamma).z_M
    z_M = (s_M + dot(b, s)) / (1.0 + float(w.sum()) - dot(w, b))
    z = equilibrium_with_media(system, s, np.full(n, z_M), tol=tol).solution
    return z, z_M
