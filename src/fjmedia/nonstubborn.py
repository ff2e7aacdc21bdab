"""A single media source that argues back.

Instead of broadcasting a fixed opinion, the source joins the network as an
ordinary FJ node: innate opinion s_M = min((1+gamma) * mean(s), 1), connected
to every node i by an edge of weight beta * (1 + d_i).  Sum conservation on
the augmented graph then caps the influence hard:

    sum(z) + z_M = sum(s) + s_M   =>   sum(z) <= (1 + (1+gamma)/n) * sum(s)

so a persuadable source moves the total by at most a 1/n-sized factor, versus
the n-independent gain a stubborn source achieves.  Only full attachment
(alpha = 1) is modelled.
"""

from __future__ import annotations

import numpy as np

from .fj import fj_equilibrium, opinion_vector
from .graph import Graph
from .media import MediaConfig, source_opinions

__all__ = ["nonstubborn_equilibrium"]


def nonstubborn_equilibrium(graph: Graph, s: np.ndarray, config: MediaConfig,
                            tol: float = 1e-10) -> tuple[np.ndarray, float]:
    """Equilibrium with one non-stubborn source; returns (node opinions, z_M*).

    Builds the (n+1)-node graph, with the source as node n, and solves plain
    FJ on it.  Rejects alpha != 1: the single-source analysis assumes
    everyone listens to M.
    """
    if config.alpha != 1.0:
        raise ValueError("non-stubborn mode requires alpha = 1")
    s = opinion_vector(s, graph.n)
    n = graph.n
    weight = config.beta * (1.0 + graph.degree)
    keep = weight > 0.0  # zero-weight edges are no edges
    src_u = np.nonzero(keep)[0].astype(np.int64)
    aug = Graph(n + 1,
                np.concatenate([graph.edge_u, src_u]),
                np.concatenate([graph.edge_v, np.full(src_u.size, n, dtype=np.int64)]),
                np.concatenate([graph.edge_w, weight[keep]]))
    s_M = source_opinions(s, config.gamma).z_M
    z = fj_equilibrium(aug, np.append(s, s_M), tol=tol)
    return z[:n], float(z[n])
