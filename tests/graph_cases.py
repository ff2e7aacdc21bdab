"""Graphs that reach every branch of the Laplacian kernel, by name.

Unit weights (the kernel skips the weight multiply), weights all 2.0 and
mixed weights (it must not); regular graphs (every entry in the head, no
tail); a star and a 4-regular graph with one pendant node (K = 1: one head
row, and a tail on the hub's row alone, or on every row but the pendant's);
nodes without edges first, in the middle and last (K = 0: no head, and rows
``np.add.reduceat`` must not reduce, as it would return x[start]); and
graphs with no edge at all.  A graph keeps no edge list, so ``KERNEL_EDGES``
gives the arrays each graph is built from.
"""

import numpy as np

from fjmedia import Graph
from fjmedia.graph import _ba_edges, _regular_edges


def _mixed(m):
    w = np.linspace(0.5, 2.0, m)
    w[::4] = 1.0
    return w


def _generated(edges, n, k, seed, weight):
    # a generator's edges, in its order, with the given weights
    u, v = edges(n, k, seed)
    return n, u, v, weight(u.size)


def _isolated(labels, weight):
    # node i of a 12-node BA graph becomes labels[i]; the 3 labels left out
    # have no edges
    u, v = _ba_edges(12, 2, 1)
    return 15, labels[u], labels[v], weight(u.size)


def _no_edges(n):
    none = np.empty(0, dtype=np.int64)
    return n, none, none, np.empty(0)


def _twos(m):
    return np.full(m, 2.0)


def _star(weight):
    # hub 4 in the middle of the ids, so its tail holds ids on both sides
    leaves = np.r_[0:4, 5:10]
    return 10, np.full(9, 4), leaves, weight(9)


def _pendant(weight):
    # node 30 hangs off node 7 of a 4-regular graph
    u, v = _regular_edges(30, 4, 1)
    return 31, np.r_[u, 7], np.r_[v, 30], weight(u.size + 1)


# name -> the (n, u, v, w) arrays its graph is built from
KERNEL_EDGES = {
    "unit dreg": lambda: _generated(_regular_edges, 30, 4, 1, np.ones),
    "weights 2.0": lambda: _generated(_regular_edges, 30, 4, 1, _twos),
    "mixed weights": lambda: _generated(_ba_edges, 40, 3, 2, _mixed),
    "star": lambda: _star(np.ones),
    "star, mixed weights": lambda: _star(_mixed),
    "4-regular plus pendant": lambda: _pendant(np.ones),
    "4-regular plus pendant, mixed weights": lambda: _pendant(_mixed),
    "isolated first": lambda: _isolated(np.arange(3, 15), np.ones),
    "isolated middle": lambda: _isolated(np.r_[0:6, 9:15], _mixed),
    "isolated last": lambda: _isolated(np.arange(12), _twos),
    "no edges, n=1": lambda: _no_edges(1),
    "no edges, n=4": lambda: _no_edges(4),
}

KERNEL_GRAPHS = {name: (lambda edges=edges: Graph(*edges()))
                 for name, edges in KERNEL_EDGES.items()}
