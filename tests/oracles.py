"""Independent dense references for the test suite.

Everything here is built naively from the edge tuple list and solved with
numpy.linalg, on purpose: these are the oracles the matrix-free code paths
get checked against, so they must not share any machinery with the package.
"""

import numpy as np


def adjacency(graph):
    W = np.zeros((graph.n, graph.n))
    for u, v, w in graph.edges:
        W[u, v] += w
        W[v, u] += w
    return W


def laplacian(graph):
    W = adjacency(graph)
    return np.diag(W.sum(axis=1)) - W


def fj_matrix(graph):
    return np.eye(graph.n) + laplacian(graph)


def media_matrix(graph, beta):
    """(1+beta) I + beta D + L, dense."""
    W = adjacency(graph)
    d = W.sum(axis=1)
    return (1.0 + beta) * np.eye(graph.n) + beta * np.diag(d) + laplacian(graph)


def media_rhs(graph, s, beta, zeta):
    d = adjacency(graph).sum(axis=1)
    return np.asarray(s, float) + beta * (1.0 + d) * np.asarray(zeta, float)


def solve(A, b):
    return np.linalg.solve(A, np.asarray(b, float))


def iterate_media(graph, s, beta, zeta, tol=1e-10, max_iter=100_000):
    """Fixed-point iteration of the media-augmented averaging map,

        z <- (s + W z + beta (1 + d) zeta) / (1 + d + beta (1 + d)),

    from z = s until the l-infinity change drops to ``tol``.  beta = 0 is
    the plain FJ update.
    """
    W = adjacency(graph)
    d = W.sum(axis=1)
    s = np.asarray(s, float)
    pull = s + beta * (1.0 + d) * np.asarray(zeta, float)
    denom = 1.0 + d + beta * (1.0 + d)
    z = s.copy()
    for _ in range(max_iter):
        z_next = (pull + W @ z) / denom
        if np.max(np.abs(z_next - z)) <= tol:
            return z_next
        z = z_next
    raise AssertionError(f"iteration did not reach tol={tol:g} in {max_iter} steps")
