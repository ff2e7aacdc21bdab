"""Independent dense references for the test suite.

Everything here is built naively from the edge tuple list and solved with
numpy.linalg, on purpose: these are the oracles the matrix-free code paths
get checked against, so they must not share any machinery with the package.
A graph keeps no edge list, so ``edge_tuples`` reads its edges back from
its layout; ``input_adjacency`` builds the dense adjacency from the arrays
a graph is given instead, and ``assert_layout_is`` holds a graph's layout
against it, which ties every dense oracle to the edges a graph was built from.
``mmatrix_solve`` is the one solve not from numpy.linalg: a dense elimination
that stays accurate to rounding where a dense LU loses the system to cancellation.
``plain_cg``, the reference for the solver's own iterates, touches the
package only through the operator's ``apply``.  ``barabasi_albert_urn`` is
the preferential-attachment urn loop the generator replays, one
``rng.integers`` call per draw, and ``regular_pairing`` the d-regular
pairing loop, one stub pair at a time.
"""

import numpy as np


def edge_tuples(graph):
    """The graph's edges as ``(u, v, w)`` tuples of Python numbers with u < v,
    in id order, read from its layout through ``neighbors``."""
    return [(i, j, w) for i in range(graph.n) for j, w in neighbors(graph, i) if i < j]


def neighbors(graph, i):
    """Node ``i``'s ``(neighbour, weight)`` pairs as the graph stores them:
    its head column, then its tail run.  Not an oracle: ``assert_layout_is``
    holds this read of the layout against the edges the graph was given."""
    if not 0 <= i < graph.n:
        raise ValueError(f"node {i} out of range")
    k = int(np.searchsorted(graph.tail_rows, i))
    rest = slice(0, 0)
    if k < graph.tail_rows.size and graph.tail_rows[k] == i:
        ends = np.append(graph.tail_starts[1:], graph.tail.size)
        rest = slice(graph.tail_starts[k], ends[k])
    ids = np.concatenate([graph.head[:, i], graph.tail[rest]])
    if graph.head_w is None:
        weights = np.ones(ids.size)
    else:
        weights = np.concatenate([graph.head_w[:, i], graph.tail_w[rest]])
    return [(int(j), float(w)) for j, w in zip(ids, weights)]


def input_adjacency(n, u, v, w):
    """The dense adjacency of the edges ``Graph(n, u, v, w)`` is given, from
    those arrays alone: edge k joins u[k] and v[k] with weight w[k], or with
    ``w`` on every edge when it is one number."""
    W = np.zeros((n, n))
    w = np.broadcast_to(np.asarray(w, dtype=float), np.shape(u))
    for a, b, c in zip(np.asarray(u).tolist(), np.asarray(v).tolist(), w.tolist()):
        W[a, b] += c
        W[b, a] += c
    return W


def assert_layout_is(graph, W):
    """Assert that each node's row of ``graph`` is its row of the dense
    adjacency ``W``, sorted by id: the first K entries in the head, K the
    shortest row, the rest in the tail, and ``m`` half the entries."""
    row_lengths = np.count_nonzero(W, axis=1)
    k = int(row_lengths.min())
    assert graph.head.shape == (k, graph.n)
    assert graph.tail.size == row_lengths.sum() - k * graph.n
    assert graph.longest_row == row_lengths.max()
    assert graph.m == row_lengths.sum() // 2
    for i in range(graph.n):
        assert neighbors(graph, i) == [(int(j), float(W[i, j])) for j in np.flatnonzero(W[i])]


def stored_bytes(g):
    """n, m, longest_row and the bytes of every array ``g`` keeps (None for
    an absent one).  Not an oracle: two graphs that give equal values hold
    the same layout, bit for bit."""
    return g.n, g.m, g.longest_row, [None if (a := getattr(g, f)) is None else a.tobytes()
                                     for f in STORED]


STORED = ("degree", "head", "head_w", "tail", "tail_w", "tail_rows", "tail_starts")


def adjacency(graph):
    W = np.zeros((graph.n, graph.n))
    for u, v, w in edge_tuples(graph):
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


def jacobi_solve(A, b):
    """``A x = b`` for SPD ``A``, solved as D^-1/2 A D^-1/2 y = D^-1/2 b with D
    its diagonal, then x = D^-1/2 y: entries near 1e300 stay in range."""
    scale = 1.0 / np.sqrt(np.diag(A))
    y = np.linalg.solve(scale[:, None] * A * scale[None, :], scale * np.asarray(b, float))
    return scale * y


def mmatrix_solve(W, excess, b):
    """``(diag(excess + W 1) - W) x = b`` for weights ``W >= 0`` with a zero
    diagonal, row excesses ``excess >= 0`` and ``b >= 0``.

    Gaussian elimination on the weights and the row excesses, never on the
    diagonal: pivot k adds W_ik W_kj / a_kk to W_ij and W_ik e_k / a_kk to e_i,
    and a_kk is e_k plus row k's remaining weights.  No step subtracts, so
    every entry of x is within gamma_m of the exact value, m = 2n(n + 3)
    roundings, however large the weights; a dense matrix of I + L with weights
    of 1e300 has already lost the 1 when it is formed.  Products that
    underflow add at most 2**-1000 in all.
    """
    W = np.array(W, dtype=np.float64)
    e = np.array(excess, dtype=np.float64)
    x = np.array(b, dtype=np.float64)
    n = x.size
    pivots = np.empty(n)
    for k in range(n):
        rest = slice(k + 1, n)
        pivots[k] = e[k] + W[k, rest].sum()
        f = W[rest, k] / pivots[k]
        W[rest, rest] += np.outer(f, W[k, rest])
        np.fill_diagonal(W[rest, rest], 0.0)
        e[rest] += f * e[k]
        x[rest] += f * x[k]
    for k in range(n - 1, -1, -1):
        x[k] = (x[k] + W[k, k + 1:] @ x[k + 1:]) / pivots[k]
    return x


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


def plain_cg(op, b, tol):
    """Unpreconditioned conjugate gradient on ``op.apply(x) = b``, the loop
    ``solve_spd`` ran before it gained its Jacobi step; returns
    (x, iterations).  On a constant operator diagonal ``solve_spd`` must
    reproduce it bit for bit.  Its dot products are summed as ``solve_spd``
    sums them, by numpy's pairwise ``add.reduce``, not by BLAS."""
    b = np.asarray(b, dtype=np.float64).ravel()
    n = b.size
    max_iter = 10 * n
    b_norm = np.sqrt(_dot(b, b))
    x = np.zeros(n)
    r = b.copy()
    p = r.copy()
    rs = _dot(r, r)
    for k in range(1, max_iter + 1):
        ap = op.apply(p)
        alpha = rs / _dot(p, ap)
        x += alpha * p
        r -= alpha * ap
        rs_new = _dot(r, r)
        if np.sqrt(rs_new) <= tol * b_norm:
            # the recursion residual drifts from the true one; trust but verify
            res = op.apply(x) - b
            true_res = np.sqrt(_dot(res, res)) / b_norm
            if true_res <= tol:
                return x, k
            r = b - op.apply(x)
            rs_new = _dot(r, r)
            p = r.copy()
            rs = rs_new
            continue
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise AssertionError(f"plain CG did not reach tol={tol:g} in {max_iter} iterations")


def _dot(a, b):
    return float(np.add.reduce(a * b))


def barabasi_albert_urn(n, m, seed):
    """The preferential-attachment urn loop, one draw at a time.

    Returns ``(targets, sources)``: the K_m core's edges ``(i, j)`` for
    i < j < m, row by row, then each node's m distinct targets in the order
    drawn.  The urn holds one entry per unit of degree, and every draw is
    ``int(rng.integers(len(urn)))`` on ``default_rng(seed)``.
    """
    rng = np.random.default_rng(seed)
    targets = [i for j in range(m) for i in range(j)]
    sources = [j for j in range(m) for _ in range(j)]
    urn = [node for node in range(m) for _ in range(m - 1)]
    for source in range(m, n):
        if urn:
            picked, chosen = [], set()
            while len(picked) < m:
                t = urn[int(rng.integers(len(urn)))]
                if t not in chosen:
                    chosen.add(t)
                    picked.append(t)
        else:
            picked = list(range(source))  # m == 1: K_1 has no degree mass
        targets.extend(picked)
        sources.extend([source] * m)
        urn.extend(picked)
        urn.extend([source] * m)
    return targets, sources


def regular_pairing(n, d, seed):
    """The pairing loop of the d-regular generator, one stub pair at a time.

    Returns ``(lo, hi)`` lists: the edges in the order accepted, restarting
    at each dead end on the same ``default_rng(seed)``; or, for
    ``2d > n - 1``, the complement of the (n-1-d)-regular pairing, row by row.
    """
    dense = 2 * d > n - 1
    k = n - 1 - d if dense else d
    edges = []
    if k:
        rng = np.random.default_rng(seed)
        edges = None
        while edges is None:
            edges = _pairing_attempt(rng, n, k)
    if dense:
        taken = set(edges)
        edges = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in taken]
    return [a for a, _ in edges], [b for _, b in edges]


def _pairing_attempt(rng, n: int, d: int):
    edge_set: set[tuple[int, int]] = set()
    edge_list: list[tuple[int, int]] = []
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    while True:
        rng.shuffle(stubs)
        failed: list[int] = []
        for k in range(0, stubs.size, 2):
            a = int(stubs[k])
            b = int(stubs[k + 1])
            if a > b:
                a, b = b, a
            if a == b or (a, b) in edge_set:
                failed.append(a)
                failed.append(b)
            else:
                edge_set.add((a, b))
                edge_list.append((a, b))
        if not failed:
            return edge_list
        if not _placeable(edge_set, failed):
            return None  # dead end, caller restarts from fresh stubs
        stubs = np.array(failed, dtype=np.int64)


def _placeable(edge_set, failed) -> bool:
    # is there any pair of leftover stubs that could still become an edge?
    nodes = sorted(set(failed))
    for i, b in enumerate(nodes):
        for a in nodes[:i]:
            if (a, b) not in edge_set:
                return True
    return False
