"""Graphs that reach every branch of the Laplacian kernel, by name.

Unit weights (the kernel skips the weight multiply), weights all 2.0 and
mixed weights (it must not); regular graphs (every entry in the head, no
tail); a star and a 4-regular graph with one pendant node (K = 1: one head
row, and a tail on the hub's row alone, or on every row but the pendant's);
nodes without edges first, in the middle and last (K = 0: no head, and rows
``np.add.reduceat`` must not reduce, as it would return x[start]); and
graphs with no edge at all.
"""

import numpy as np

from fjmedia import Graph, gen_barabasi_albert, gen_random_regular


def _mixed(m):
    w = np.linspace(0.5, 2.0, m)
    w[::4] = 1.0
    return w


def _reweighted(g, weight):
    return Graph(g.n, g.edge_u, g.edge_v, weight(g.m))


def _isolated(labels, weight):
    # node i of a 12-node BA graph becomes labels[i]; the 3 labels left out
    # have no edges
    ba = gen_barabasi_albert(12, 2, seed=1)
    return Graph(15, labels[ba.edge_u], labels[ba.edge_v], weight(ba.m))


def _no_edges(n):
    none = np.empty(0, dtype=np.int64)
    return Graph(n, none, none, np.empty(0))


def _twos(m):
    return np.full(m, 2.0)


def _star(weight):
    # hub 4 in the middle of the ids, so its tail holds ids on both sides
    leaves = np.r_[0:4, 5:10]
    return Graph(10, np.full(9, 4), leaves, weight(9))


def _pendant(weight):
    # node 30 hangs off node 7 of a 4-regular graph
    g = gen_random_regular(30, 4, seed=1)
    return Graph(31, np.r_[g.edge_u, 7], np.r_[g.edge_v, 30], weight(g.m + 1))


KERNEL_GRAPHS = {
    "unit dreg": lambda: gen_random_regular(30, 4, seed=1),
    "weights 2.0": lambda: _reweighted(gen_random_regular(30, 4, seed=1), _twos),
    "mixed weights": lambda: _reweighted(gen_barabasi_albert(40, 3, seed=2), _mixed),
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
