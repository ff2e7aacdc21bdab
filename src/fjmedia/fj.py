"""Friedkin-Johnsen opinion dynamics on a fixed graph.

Each agent i keeps an innate opinion s_i and repeatedly averages it with its
neighbors' expressed opinions:

    z_i <- (s_i + sum_j w_ij z_j) / (1 + sum_j w_ij)

The map is a contraction toward the unique equilibrium z* = (I + L)^{-1} s,
and column sums of (I + L)^{-1} being 1 gives sum(z*) == sum(s) exactly.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, neighbor_sum
from .media import MediaSystem, equilibrium_with_media, opinion_vector

__all__ = ["fj_step", "fj_equilibrium"]


def fj_step(graph: Graph, s: np.ndarray, z: np.ndarray) -> np.ndarray:
    """One synchronous update of every node's expressed opinion.

    Each output entry is a convex combination of s_i and neighboring z_j, so
    the result stays inside the interval spanned by the inputs.  Isolated
    nodes return to s_i immediately.
    """
    s = opinion_vector(s, graph.n)
    z = opinion_vector(z, graph.n)
    return (s + neighbor_sum(graph, z)) / (1.0 + graph.degree)


def fj_equilibrium(graph: Graph, s: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Equilibrium opinions z* = (I + L)^{-1} s, by conjugate gradient.

    This is the media system at beta = 0: its weight is exactly 0, so the
    operator is I + L and the right-hand side is s itself.  On a graph with
    no edges this returns s.
    """
    return equilibrium_with_media(MediaSystem(graph, 0.0), s, s, tol).solution
