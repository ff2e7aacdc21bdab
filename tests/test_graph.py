import dataclasses
import hashlib
import io
import tracemalloc

import numpy as np
import pytest

import fjmedia.graph as graph_module
from fjmedia import (DiagPlusLaplacianOperator, Graph, gen_barabasi_albert,
                     gen_random_regular, load_edge_list, neighbor_sum,
                     write_edge_list)
from fjmedia.cli import main as cli_main
from fjmedia.graph import _ba_edges, _regular_edges
from graph_cases import KERNEL_EDGES, KERNEL_GRAPHS
from oracles import (adjacency, assert_layout_is, barabasi_albert_urn, edge_tuples,
                     input_adjacency, neighbors, regular_pairing, stored_bytes)
from oracles import laplacian as dense_laplacian


def path3():
    return Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])


# ---------------------------------------------------------------------------
# construction and validation


def test_degrees_from_edges():
    g = path3()
    assert np.array_equal(g.degree, [1.0, 2.0, 1.0])
    assert g.m == 2
    assert g.stats.d_min == 1.0 and g.stats.d_max == 2.0
    assert not g.stats.is_regular
    assert g.head_w is None and g.tail_w is None  # unit weights are not stored


def test_weighted_degrees():
    g = Graph.from_edges(3, [(0, 1, 0.5), (1, 2, 2.0)])
    assert np.array_equal(g.degree, [0.5, 2.5, 2.0])


def test_neighbors():
    g = path3()
    assert neighbors(g, 1) == [(0, 1.0), (2, 1.0)]
    assert neighbors(g, 0) == [(1, 1.0)]
    with pytest.raises(ValueError):
        neighbors(g, 3)


def test_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        Graph.from_edges(2, [(0, 0, 1.0)])


def test_rejects_duplicate_edge_either_orientation():
    with pytest.raises(ValueError, match="duplicate"):
        Graph.from_edges(3, [(0, 1, 1.0), (1, 0, 2.0)])


def test_rejects_bad_weight():
    for w in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 1, w)])


def test_rejects_out_of_range_endpoint():
    for edge in ((0, 2, 1.0), (1, -1, 1.0)):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(2, [edge])


def test_error_names_the_earliest_bad_edge():
    cases = [
        ([(0, 1), (2, 2), (1, 0)], "self-loop 2-2 at edge index 1"),
        ([(0, 1), (1, 0), (2, 2)], "duplicate edge 1-0 at edge index 1"),
        ([(0, 1), (2, 3, 0.0), (0, 9)], "weight 0 .* 2-3 at edge index 1"),
    ]
    for edges, pattern in cases:
        with pytest.raises(ValueError, match=pattern):
            Graph.from_edges(4, edges)


def test_arrays_read_only():
    # a weighted star: its hub has a tail, and every array has an entry
    g = Graph.from_edges(4, [(0, 1, 0.5), (0, 2, 2.0), (0, 3, 1.5)])
    for name in ("degree", "head", "head_w", "tail", "tail_w", "tail_rows", "tail_starts"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(g, name).flat[0] = 1


def test_graph_keeps_its_degree_and_adjacency_only():
    # the edge arrays are read at construction and not kept
    assert [f.name for f in dataclasses.fields(Graph)] == [
        "n", "degree", "head", "head_w", "tail", "tail_w", "tail_rows", "tail_starts",
        "longest_row"]
    g = path3()
    assert not any(hasattr(g, name) for name in ("edge_u", "edge_v", "edge_w"))


@pytest.mark.parametrize("w", [1.0, 2.5])
def test_one_weight_for_every_edge_may_be_a_scalar(w):
    # a generator's unit weights and a 2-column file's are one 1.0, never an array
    edges = ([0, 1, 0], [1, 2, 3])
    assert stored_bytes(Graph(4, *edges, w)) == stored_bytes(Graph(4, *edges, [w] * 3))


@pytest.mark.parametrize("n, u, v, w, pattern", [
    (0, [], [], [], "at least one node"),
    (3, [0, 1], [1], [1.0, 1.0], "identical length"),
])
def test_rejects_malformed_graph_arrays(n, u, v, w, pattern):
    with pytest.raises(ValueError, match=pattern):
        Graph(n, np.array(u, dtype=np.int64), np.array(v, dtype=np.int64), np.array(w))


def test_a_graph_of_2_31_nodes_is_refused_before_any_allocation(monkeypatch):
    # node ids are int32, so n = 2**31 would wrap; it is refused by name
    # before any n-sized array is made (each allocator below refuses one)
    n = 2**31

    def refusing(real):
        def call(*args, **kwargs):
            for a in (*args, *kwargs.values()):
                if isinstance(a, (int, tuple)) and np.prod(a) >= n:
                    raise AssertionError(f"np.{real.__name__} asked for {n} entries")
            return real(*args, **kwargs)
        return call

    for name in ("empty", "zeros", "ones", "full", "arange", "bincount"):
        monkeypatch.setattr(np, name, refusing(getattr(np, name)))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^graph has 2147483648 nodes; .*2\*\*31 nodes$"):
            Graph(n, [], [], 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16, f"peaks at {peak} bytes"
    Graph(2, [0], [1], 1.0)  # a small graph passes the allocators


def test_ids_are_int32_and_integer_edge_arrays_are_read_as_they_are():
    u, v = np.array([0, 1, 2, 0], dtype=np.int32), np.array([1, 2, 0, 3], dtype=np.int32)
    read = graph_module._edge_arrays(u, v, 1.0)[:2]
    assert all(np.shares_memory(a, b) for a, b in zip(read, (u, v)))
    g = Graph(4, u, v, 1.0)
    assert g.head.dtype == g.tail.dtype == np.int32
    assert stored_bytes(g) == stored_bytes(Graph(4, u.astype(np.uint8), v.tolist(), 1.0))


@pytest.mark.parametrize("unit", [True, False], ids=["unit weights", "weighted"])
def test_construction_holds_little_beyond_what_it_keeps(unit):
    # a 20-regular circulant: every key in the head, as on the bench file.
    # The graph keeps its head of int32 ids, 8 bytes per edge, the head's
    # weights on a weighted graph (16 more) and its degree (0.8 here);
    # construction holds the int64 sort keys (16) until their int32 copy (8)
    # is made, and only a weighted graph forms their permutation (16) and
    # the head's weights (16), which it holds with that copy while it fills
    # the head.  The rest of each bound is for the per-node arrays (up to
    # about 5 bytes per edge here)
    n, d = 10_000, 20
    u = np.tile(np.arange(n), d // 2)
    v = (u + np.repeat(np.arange(1, d // 2 + 1), n)) % n
    w = np.ones(u.size) if unit else np.linspace(0.5, 2.0, u.size)
    tracemalloc.start()
    try:
        g = Graph(n, u, v, w)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.head.shape == (d, n)
    assert kept / u.size <= (9 if unit else 25), f"keeps {kept / u.size:.2f} bytes per edge"
    assert peak / u.size <= (28 if unit else 56), f"peaks at {peak / u.size:.2f} bytes per edge"


def test_single_node_graph():
    g = Graph(1, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
              np.empty(0))
    assert g.degree.tolist() == [0.0]
    assert g.stats.is_regular  # vacuously 0-regular


# ---------------------------------------------------------------------------
# Laplacian products: the L x inside DiagPlusLaplacianOperator.apply


def identity_plus_laplacian(g):
    """I + L, whose ``apply(x) - x`` is L x up to roundoff."""
    return DiagPlusLaplacianOperator(g, np.ones(g.n))


def test_laplacian_kills_constants():
    # the operator maps a constant c to gamma_diag * c, as L c = 0
    g = gen_barabasi_albert(40, 2, seed=5)
    gamma = np.linspace(0.5, 2.0, g.n)
    op = DiagPlusLaplacianOperator(g, gamma)
    assert np.allclose(op.apply(np.full(40, 0.7)), 0.7 * gamma, atol=1e-14)
    assert np.array_equal(op.apply(np.ones(40)), gamma)  # unit weights: d - W 1 is 0


def test_laplacian_path_indicator():
    # L e_0 = (1, -1, 0) on the path 0-1-2
    op = identity_plus_laplacian(path3())
    assert np.array_equal(op.apply([1.0, 0.0, 0.0]), [2.0, -1.0, 0.0])


def test_laplacian_matches_dense_oracle():
    # graphs with isolated nodes or no edges: the KERNEL_GRAPHS test below
    rng = np.random.default_rng(11)
    for g in [gen_barabasi_albert(30 + seed, 3, seed=seed) for seed in range(8)]:
        L = dense_laplacian(g)
        W = np.diag(np.diag(L)) - L
        op = identity_plus_laplacian(g)
        for _ in range(3):
            x = rng.normal(size=g.n)
            assert np.allclose(neighbor_sum(g, x), W @ x, atol=1e-10)
            assert np.allclose(op.apply(x), x + L @ x, atol=1e-10)


@pytest.mark.parametrize("name", sorted(KERNEL_GRAPHS))
def test_out_gives_the_same_bits_and_matches_the_dense_oracle(name):
    # the operator's apply is checked the same way in test_numerics
    g = KERNEL_GRAPHS[name]()
    W = adjacency(g)
    x = np.random.default_rng(5).normal(size=g.n)
    want = neighbor_sum(g, x)
    buf = np.full(g.n, np.nan)
    got = neighbor_sum(g, x, out=buf)
    assert got is buf
    assert got.tobytes() == want.tobytes()
    assert np.allclose(want, W @ x, atol=1e-10)


@pytest.mark.parametrize("name", sorted(KERNEL_GRAPHS))
def test_neighbors_are_the_dense_adjacency_row_sorted_by_id(name):
    # the dense adjacency of the arrays the graph is built from, not of the graph
    n, u, v, w = KERNEL_EDGES[name]()
    assert_layout_is(Graph(n, u, v, w), input_adjacency(n, u, v, w))


# (generator, n, k, seed): BA graphs with m = k, d-regular ones with d = k,
# dense ones through the complement and the complete graph among them
LAYOUT_GRID = ([("ba", n, m, seed) for n, m in ((2, 1), (10, 3), (60, 5), (300, 3), (40, 39))
                for seed in (0, 1)]
               + [("dreg", n, d, seed) for n, d in ((4, 2), (5, 0), (30, 4), (200, 6), (61, 58),
                                                     (8, 7))
                  for seed in (0, 1)])


@pytest.mark.parametrize("kind, n, k, seed", LAYOUT_GRID,
                         ids=[f"{kind}-n{n}-k{k}-seed{seed}" for kind, n, k, seed in LAYOUT_GRID])
def test_a_generated_layout_is_the_sorted_input_edges(kind, n, k, seed):
    lo, hi = (_ba_edges if kind == "ba" else _regular_edges)(n, k, seed)
    # as generated, each edge turned round, and with weights that are not all 1.0
    for u, v, w in ((lo, hi, 1.0), (hi, lo, 1.0), (lo, hi, np.linspace(0.5, 2.0, lo.size))):
        assert_layout_is(Graph(n, u, v, w), input_adjacency(n, u, v, w))
    gen = gen_barabasi_albert if kind == "ba" else gen_random_regular
    assert stored_bytes(gen(n, k, seed)) == stored_bytes(Graph(n, lo, hi, 1.0))


def test_unit_weights_is_derived_from_the_weights():
    # weights are stored only when some edge weight is not exactly 1.0
    for name, unit in (("unit dreg", True), ("no edges, n=4", True), ("star", True),
                       ("weights 2.0", False), ("mixed weights", False),
                       ("star, mixed weights", False)):
        g = KERNEL_GRAPHS[name]()
        assert (g.head_w is None, g.tail_w is None) == (unit, unit), name


def test_out_must_be_a_float64_vector_of_length_n():
    g = path3()
    for bad in (np.empty(2), np.empty(3, dtype=np.float32), np.empty((3, 1)), [0.0] * 3):
        with pytest.raises(ValueError, match="out must be"):
            neighbor_sum(g, np.ones(3), out=bad)
    x = np.ones(3)
    with pytest.raises(ValueError, match="out must not overlap x"):
        neighbor_sum(g, x, out=x)
    with pytest.raises(ValueError, match=r"expected vector of length 3, got shape \(2,\)"):
        neighbor_sum(g, np.ones(2))


def test_laplacian_psd_and_zero_row_sums():
    rng = np.random.default_rng(3)
    for seed in range(6):
        g = gen_random_regular(24, 4, seed=seed)
        x = rng.normal(size=g.n)
        lx = identity_plus_laplacian(g).apply(x) - x
        assert x @ lx >= -1e-12          # positive semidefinite
        assert abs(lx.sum()) < 1e-10     # 1^T L x = 0


def test_neighbor_sum_star():
    g = Graph.from_edges(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 2.0)])
    out = neighbor_sum(g, [0.0, 1.0, 1.0, 1.0])
    assert np.array_equal(out, [4.0, 0.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# edge-list ingestion


def test_load_remaps_by_first_appearance(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("5 9 2.5\n9 7\n", encoding="utf-8")
    g = load_edge_list(p)
    # 5 -> 0, 9 -> 1, 7 -> 2
    assert g.n == 3
    assert edge_tuples(g) == [(0, 1, 2.5), (1, 2, 1.0)]
    assert np.array_equal(g.degree, [2.5, 3.5, 1.0])


def test_load_remaps_an_id_whose_run_crosses_a_remap_chunk(tmp_path):
    # the remap reads the sorted ids a chunk at a time: the hub's run of
    # sorted entries starts after leaves 0-2 and runs past the first chunk,
    # and is still one node, numbered first
    leaves = np.r_[0:3, 10:10 + graph_module._CHUNK]
    p = tmp_path / "star.txt"
    p.write_text("".join(f"5 {leaf}\n" for leaf in leaves), encoding="utf-8")
    g = load_edge_list(p)
    assert g.n == leaves.size + 1 and g.degree[0] == leaves.size
    assert stored_bytes(g) == stored_bytes(graph_module._load_lines(p.read_bytes()))


def test_load_skips_comments_and_blanks(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# a comment\n\n0 1\n   \n# another\n1 2 3.0\n", encoding="utf-8")
    g = load_edge_list(p)
    assert g.n == 3 and g.m == 2


def test_load_errors_carry_line_numbers(tmp_path):
    cases = [
        ("0 1\n1 1\n", "line 2.*self-loop"),
        ("0 1\n1 0\n", "line 2.*duplicate"),
        ("0 1\n1 2 0\n", "line 2.*weight"),
        ("0 1\n1 2 -3\n", "line 2.*weight"),
        ("0 1\nx 2\n", "line 2.*node id"),
        ("0 1\n1 2 zzz\n", "line 2.*weight"),
        ("0 1\n1 2 3 4\n", "line 2"),
        ("0 1\n-1 2\n", "line 2.*non-negative"),
        (b"0 1\n1 2\n2 \xff0\n", "^line 3: not valid UTF-8$"),
        # still inside the first 8 KB that text mode decodes at once
        (_path_lines(300) + b"2 \xff0\n", "^line 301: not valid UTF-8$"),
        # errors come in file order: line 2's, not the bad byte's on line 301
        (b"0 1\nx y\n" + _path_lines(298) + b"2 \xff0\n",
         "^line 2: unparsable node id in 'x y'$"),
        (b"0 1\n1 2 3 4\n" + _path_lines(298) + b"\xff\n", "^line 2: expected"),
        # lines end as text mode ends them: at a lone CR too
        (b"0 1\r1 2\r2 3\r3 \xff4\r", "^line 4: not valid UTF-8$"),
        (b"0 1\r\n1 2\r\n\r\n\xff\r\n", "^line 4: not valid UTF-8$"),
        (b"0 1\r\xff", "^line 2: not valid UTF-8$"),
        (b"\xff0 1\n", "^line 1: not valid UTF-8$"),
        # a comment ends at a lone CR: line 3 is data, and its edge is checked
        (b"0 1\n# c\r1 1\n", "^line 3: self-loop 1-1$"),
        # the table parse words an edge error past the lines it skipped, and
        # so does the line reader, which takes a file of 2 and 3 columns
        (b"# c\n5 9\n\n9 7\n7 7\n", "^line 5: self-loop 7-7$"),
        (b"# c\n5 9\n\n9 7 2\n7 7\n", "^line 5: self-loop 7-7$"),
    ]
    for text, pattern in cases:
        p = tmp_path / "bad.txt"
        p.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        with pytest.raises(ValueError, match=pattern):
            load_edge_list(p)


def _path_lines(count):
    # the edges of a path, one "i i+1" line each
    return "".join(f"{i} {i + 1}\n" for i in range(count)).encode("ascii")


def test_load_rejects_empty(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("# nothing here\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_edge_list(p)


def test_write_load_roundtrip(tmp_path):
    # a BA graph's nodes first appear in id order, so its file loads back to it
    lo, hi = _ba_edges(60, 3, 9)
    g = gen_barabasi_albert(60, 3, seed=9)
    p = tmp_path / "ba.txt"
    write_edge_list(lo, hi, 1.0, p, comment="roundtrip check")
    g2 = load_edge_list(p)
    assert g2.n == g.n
    assert edge_tuples(g2) == edge_tuples(g)
    # through streams, which both functions leave open
    text, data = io.StringIO(), io.BytesIO(p.read_bytes())
    write_edge_list(lo, hi, 1.0, text, comment="roundtrip check")
    assert text.getvalue().encode() == data.getvalue()
    assert edge_tuples(load_edge_list(data)) == edge_tuples(g)
    assert not (text.closed or data.closed)


def test_load_handles_crlf(tmp_path):
    p = tmp_path / "g.txt"
    p.write_bytes(b"0 1 1.5\r\n1 2\r\n")
    g = load_edge_list(p)
    assert edge_tuples(g) == [(0, 1, 1.5), (1, 2, 1.0)]


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["CRLF", "lone CR"])
def test_the_table_parse_holds_the_only_copy_of_the_file_bytes(tmp_path, monkeypatch,
                                                                 newline):
    # the LF-only bytes replace the raw bytes, which are freed before the
    # parse: a raw copy kept beside them would double what the parse starts with
    p = tmp_path / "g.txt"
    p.write_bytes(newline.join(f"{i} {i + 1}" for i in range(20_000)).encode())
    held, real_parse_table = [], graph_module._parse_table

    def spying_parse_table(data):
        held.append(tracemalloc.get_traced_memory()[0] - base)
        return real_parse_table(data)

    monkeypatch.setattr(graph_module, "_parse_table", spying_parse_table)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        load_edge_list(p)
    finally:
        tracemalloc.stop()
    assert len(held) == 1 and held[0] < 1.5 * p.stat().st_size, held


# name, file bytes (None: written by `fjmedia generate`), whether
# load_edge_list builds the graph from numpy's whole-table parse, which
# takes a file whose lines after its header of comment and blank lines are
# all edges; when it does, it also words an edge error, with the file's ids
# and the line past the header
LOADER_CASES = [
    ("comments and blanks", b"# head # er\n\n5 9\n  \t\n   # indented\n9 7\n7 5\n", False),
    ("generated, 3 columns", None, True),
    ("CRLF", b"0 1 1.5\r\n1 2 0.25\r\n", True),
    ("lone CR", b"0 1 1.5\r1 2 0.25\r", True),
    ("lone CR, 2 and 3 columns", b"# c\r0 1\r1 2 3\r", False),
    ("comment ended by a lone CR", b"# c\r0 1\n1 2\n", True),
    ("2 and 3 columns", b"0 1\n1 2 3\n", False),
    ("id above 2**63", b"0 1\n1 9223372036854775808\n", False),
    # ids at or above 2**(63 - bits) are replaced by their codes before the
    # remap packs each id with its position; shifted by 3 bits unreplaced,
    # 2**62 would wrap onto 0
    ("ids 2**63 - 1 and 2**62",
     b"9223372036854775807 4611686018427387904\n4611686018427387904 0\n"
     b"0 9223372036854775807\n5 0\n", True),
    ("ids repeat out of order", b"7 3\n3 9\n9 7\n3 1\n1 7\n12 9\n0 1\n", True),
    ("negative id", b"0 1\n-1 2\n", False),
    ("inline #", b"0 1\n1 2 # x\n", False),
    ("# glued to a weight", b"0 1 1\n1 2 3#\n", False),
    ("ragged", b"0 1\n1\n", False),
    ("float id", b"0 1\n1.0 2\n", False),
    ("non-ASCII digit", "0 1\n1 2\u01fe\n".encode(), False),  # numpy reads it as 482
    ("inf weight", b"0 1 1\n1 2 inf\n", True),
    ("duplicate reversed", b"0 1\n1 2\n1 0\n", True),
    # relabelled, these ids would read 1-0 and 2-2
    ("duplicate of remapped ids", b"5 9\n9 7\n9 5\n", True),
    ("self-loop after skipped lines", b"# c\n\n5 9\n  \n9 7\n\t# x\n7 7\n8 5\n", False),
    # skipped lines in every 64 KiB of the file
    ("self-loop after skipped lines in six chunks of bytes",
     b"".join(line + b"# c\n \n" * (i % 1000 == 999) for i, line in
              enumerate(_path_lines(30_000).splitlines(keepends=True))) + b"7 7\n", False),
    ("self-loop after a comment header", b"# c\n# d\n5 9\n9 7\n7 7\n", True),
    ("self-loop after a header of blank and comment lines", b"# c\n\n  \n# d\n5 9\n9 7\n7 7\n",
     True),
    ("self-loop, contiguous edges, no final line end", b"5 9\n9 7\n7 7", True),
    ("self-loop before a trailing blank line", b"# c\n5 9\n9 7\n7 7\n\n", False),
    ("self-loop after a CRLF comment header", b"# c\r\n# d\r\n5 9\r\n9 7\r\n7 7\r\n", True),
    ("self-loop before a blank line", b"5 9\n\n9 9\n\n7 5\n", False),
    ("self-loop after lone-CR blank lines", b"5 9\r\r9 7\r \r7 7\r", False),
    ("self-loop after CRLF blank lines", b"# c\r\n\r\n5 9\r\n \t\r\n9 7\r\n7 7\r\n", False),
    ("self-loop after mixed line ends", b"5 9\r\n\r9 7\r\n \r\r\n7 7\n8 5\r", False),
    ("self-loop, CRLF, no final line end", b"5 9\r\n  \r\n9 9", False),
    ("self-loop, no final line end", b"5 9\n\n9 9", False),
    ("comment as the last line, no final line end", b"5 9\n9 7\n# end", False),
    ("self-loop, 2 and 3 columns", b"# c\n5 9\n\n9 7 2\n7 7\n", False),
    # the other ASCII blanks str.split splits at, which a bytes regex's \s
    # and bytes.split do not: \x0b, \x0c and \x1c-\x1f
    ("other blanks as blank lines", b"# c\n5 9\n\x1c\n\x0b\x1d\n9 7\n\x0c\x1e\x1f\n7 7\n", False),
    ("other blanks as lone-CR blank lines", b"# c\r5 9\r\x1c\r\x0b\x1d\r9 7\r\x0c\x1e\x1f\r7 7\r",
     False),
    ("other blanks between tokens", b"5\x1c9\x1d2\n9\x0b\x1f\x1e7\x0c1\n7\x0c\x1d7 3\n", True),
    ("other blanks between tokens, lone CR", b"5\x1c9\x1d2\r9\x0b\x1f\x1e7\x0c1\r7\x0c\x1d7 3\r",
     True),
    ("other blanks before comments", b"5 9\n\x1f# c\n\x0b\x0c# d\n\x1c\x1d\x1e#\n9 9\n", False),
    ("other blanks before comments, lone CR", b"5 9\r\x1f# c\r\x0b\x0c# d\r\x1c\x1d\x1e#\r9 9\r",
     False),
    ("other blanks after data", b"5 9\x1d\n9 7\x0b\x0c\n7 5\x1e\x1f\n8 8\x1c\n", True),
    ("other blanks after data, lone CR", b"5 9\x1d\r9 7\x0b\x0c\r7 5\x1e\x1f\r8 8\x1c\r", True),
    ("a \\x1c blank line after a comment", b"# c\n5 9\n\x1c\n9 7\n7 7\n", False),
    ("other blanks, LF and lone-CR ends", b"5 9\n\x1f\n\x0c\n9 7\r\x1d\r7 7\r", False),
    # loadtxt reads it as Latin-1, where \x85 is a blank; the line reader
    # refuses the line as not UTF-8
    ("NEL byte between ids", b"0 1\n1\x852\n", False),
    ("empty", b"", False),
]


@pytest.mark.parametrize("name, data, whole_table", LOADER_CASES,
                         ids=[c[0] for c in LOADER_CASES])
def test_load_table_parse_matches_the_line_reader(tmp_path, capsys, monkeypatch, name,
                                                  data, whole_table):
    p = tmp_path / "g.txt"
    if data is None:
        assert cli_main(["generate", "--gen", "ba", "--n", "60", "--m", "3",
                         "--seed", "9", "--out", str(p)]) == 0
    else:
        p.write_bytes(data)

    def outcome(load):
        try:
            return stored_bytes(load(p))
        except ValueError as exc:
            return str(exc)

    data = p.read_bytes()
    tables, real_table_graph = [], graph_module._table_graph
    monkeypatch.setattr(graph_module, "_table_graph",
                        lambda *table: tables.append(table) or real_table_graph(*table))
    loaded = outcome(load_edge_list)
    assert loaded == outcome(lambda _: graph_module._load_lines(data))
    assert bool(tables) == whole_table
    if not isinstance(loaded, str):  # the layout holds the file's edges
        assert_layout_is(load_edge_list(p), input_adjacency(*_file_edges(data)))


def _file_edges(data):
    # (n, u, v, w) of a file that loads: each data line's ids numbered by
    # first appearance, and its weight or 1.0
    ids, edges = {}, []
    for line in io.StringIO(data.decode(), newline=None):
        parts = line.split()
        if parts and not parts[0].startswith("#"):
            a, b = (ids.setdefault(int(t), len(ids)) for t in parts[:2])
            edges.append((a, b, float(parts[2]) if len(parts) == 3 else 1.0))
    return len(ids), *zip(*edges)


@pytest.mark.parametrize("data, error", [
    (b"0 1\n1 2\n", None),
    (b"0 1\n1 2 3\n", None),  # the table parse does not take it
    (b"0 1\n1 1\n", "^line 2: self-loop 1-1$"),
], ids=["table", "line reader", "error"])
def test_load_opens_the_file_once(tmp_path, opened, data, error):
    # the table parse, the line reader and the error all read the same bytes
    p = tmp_path / "g.txt"
    p.write_bytes(data)
    if error is None:
        assert load_edge_list(p).m == 2
    else:
        with pytest.raises(ValueError, match=error):
            load_edge_list(p)
    assert opened == [p]


# ---------------------------------------------------------------------------
# Barabasi-Albert generator


def test_ba_edge_count_formula():
    for n, m in [(50, 1), (80, 3), (200, 5)]:
        g = gen_barabasi_albert(n, m, seed=4)
        assert g.m == m * (m - 1) // 2 + (n - m) * m
        assert g.head_w is None and g.tail_w is None  # unit weights


def test_ba_large_instance_edge_count():
    # 22*21/2 core edges + (4039-22)*22 = 88605
    g = gen_barabasi_albert(4039, 22, seed=0)
    assert g.m == 88605


def test_ba_small_complete_core():
    # n=5, m=4: K_4 core, then node 4 must attach to all four others
    g = gen_barabasi_albert(5, 4, seed=1)
    assert g.m == 10  # K_5


def test_ba_m1_is_tree():
    g = gen_barabasi_albert(64, 1, seed=2)
    assert g.m == 63
    assert _connected(g)


def test_ba_connected():
    for seed in range(5):
        assert _connected(gen_barabasi_albert(120, 2, seed=seed))


def test_ba_determinism():
    a = gen_barabasi_albert(150, 3, seed=42)
    b = gen_barabasi_albert(150, 3, seed=42)
    assert edge_tuples(a) == edge_tuples(b)
    c = gen_barabasi_albert(150, 3, seed=43)
    assert edge_tuples(a) != edge_tuples(c)


def test_ba_rejects_bad_m():
    with pytest.raises(ValueError):
        gen_barabasi_albert(10, 10, seed=0)
    with pytest.raises(ValueError):
        gen_barabasi_albert(10, 0, seed=0)


def test_ba_min_degree_is_m():
    g = gen_barabasi_albert(100, 3, seed=7)
    assert g.degree.min() >= 3.0


# sha256 of targets ++ sources as little-endian int64, from the generator
# that called rng.integers(len(urn)) once per urn draw
BA_DIGESTS = [
    (2, 1, 0, "9d34149fbd1fe777eb238799054c8cbfbce372255f219f8740838def9bfd02db"),
    (2, 1, 2**64 - 1, "9d34149fbd1fe777eb238799054c8cbfbce372255f219f8740838def9bfd02db"),
    (3, 1, 7, "7acccfef7a7e85ef7264470497c1a438a1f281c784c4df9658b37135ba552cc1"),
    (3, 2, 1, "b8d04b8e4644977df092c27fedde0c770d5fb5f0ef931471306a21f8d18c3aea"),
    (10, 1, 0, "5e2a64a4644a7bd54f06e513000b4b4d5d56f67706b0b55ebb72b0af59ed6738"),
    (10, 9, 2**64 - 1, "d058fd933c0c739eb75e8d4665f8f38fb7a1e2bbd61f586a3e4c437a7a71b7f8"),
    (50, 1, 2**64 - 1, "c88c6436c58bfb7ffeee9cc94ddbc2fcbce02e0d8b728367ca21002f8e44d617"),
    (50, 4, 3, "ca31a85ed2f745ffa8e488c0341dff69f1eac96f50bf8dd651fa7f4bc2401a0d"),
    (50, 49, 0, "ce3288dd82722ab7f909060a3631162e9e6be28d8a177a2e860a7b19d5f65e89"),
    (200, 5, 2**64 - 1, "8a1cb9afc7e981804ba236b59b938ae579783c7cc2e0e38bb6cd388d63441620"),
    (200, 199, 5, "b841601a512413e9ecde08ef53eb4871f895d89d8fbd8eb8f3c444822dbb4bf5"),
    (500, 7, 11, "99127a2dc93ad80f83c86dd655e96b1fc7961d5709b8886bad91bb2fb1da25c1"),
    (1000, 3, 0, "f23b100012aeffa5014bb808781171c18a025ff5f815b98515b5db662f0808c8"),
    (1000, 30, 2**63, "b73cc3495a7e312ecec363a97cafabd91c763b741a44403043e1d9f20f09bf5f"),
    (5000, 2, 2**64 - 1, "425657508b1354ae22c1096150d5b907ebdacfee6f533a153837d4f5f16e8368"),
    (20000, 3, 0, "e910c3f7df81245195b0f7d0570aa906b149741153f349a9ab37aea90f07102a"),
    (20000, 3, 2**64 - 1, "513dcf0d2c2bad675e6494fdbe0a24b3511997d90692d3b95a5181d724fdc1fb"),
]


@pytest.mark.parametrize("n, m, seed, digest", BA_DIGESTS,
                         ids=[f"n{n}-m{m}-seed{seed}" for n, m, seed, _ in BA_DIGESTS])
def test_ba_edges_are_pinned_for_every_seed(n, m, seed, digest):
    edges = np.concatenate(_ba_edges(n, m, seed)).astype("<i8")
    assert hashlib.sha256(edges.tobytes()).hexdigest() == digest


# n up to 20 000 with m in {1, 2, 3, 5, 22, n - 1}, plus the two dense cases
# the speed table names.  The urn loop takes about 1 s per 10**5 draws, so
# the grid keeps n * m <= 10**5.  m = n - 1 draws about m ln m times, but the
# loop's urn list starts with m(m - 1) entries, so it stops at n = 1000
BA_GRID = sorted({(n, m) for n in (2, 3, 10, 23, 60, 200, 1000, 5000, 20000)
                  for m in (1, 2, 3, 5, 22, n - 1)
                  if 1 <= m < n and (n * m <= 10**5 or m == n - 1 <= 999)}
                 | {(4039, 22), (1000, 30)})


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
@pytest.mark.parametrize("n, m", BA_GRID, ids=[f"n{n}-m{m}" for n, m in BA_GRID])
def test_ba_replays_the_urn_loop_edge_for_edge(n, m, seed):
    targets, sources = barabasi_albert_urn(n, m, seed)
    lo, hi = _ba_edges(n, m, seed)
    assert lo.tolist() == targets
    assert hi.tolist() == sources


def test_ba_refuses_an_urn_of_2_to_the_32_entries():
    # m(m-1) + 2m(n-m) urn entries: 2**33 - 6 here, refused before anything
    # is built
    with pytest.raises(ValueError, match=r"n = 2147483648 and m = 2 need a degree urn"):
        gen_barabasi_albert(2**31, 2, seed=0)


# ---------------------------------------------------------------------------
# random regular generator


def test_dreg_four_cycle():
    g = gen_random_regular(4, 2, seed=0)
    assert np.all(g.degree == 2.0)
    assert g.m == 4
    assert g.stats.is_regular


def test_dreg_exact_degrees_across_d():
    for d in (4, 10, 44):
        for seed in (0, 1):
            n = 60 if d < 44 else 90
            g = gen_random_regular(n, d, seed=seed)
            assert np.all(g.degree == float(d)), (d, seed)
            assert g.stats.is_regular
            assert g.m == n * d // 2


def test_dreg_large_instance_edge_count():
    g = gen_random_regular(4038, 44, seed=1)
    assert g.m == 88836
    assert np.all(g.degree == 44.0)


@pytest.mark.parametrize("n,d", [(60, 56), (61, 58), (40, 36), (8, 7)])
def test_dreg_dense_is_the_complement_of_a_sparse_pairing(n, d):
    # 2d > n - 1: pairing the (n-1-d)-regular complement instead finishes fast
    # ((8, 7) is the complete graph from an empty sparse side)
    g = gen_random_regular(n, d, seed=0)
    assert g.m == n * d // 2
    assert np.all(g.degree == float(d))
    pairs = list(zip(*(a.tolist() for a in _regular_edges(n, d, 0))))
    assert all(u < v for u, v in pairs) and len(set(pairs)) == g.m
    assert pairs == sorted(pairs)  # row-major
    assert edge_tuples(gen_random_regular(n, d, seed=0)) == edge_tuples(g)


# (24, 7, 4) meets a dead end 4 times before its pairing completes
REGULAR_LARGE = [(24, 7, 4), (500, 20, 1), (1000, 6, 11), (200, 30, 2), (60, 56, 0),
                 (4038, 44, 1)]


@pytest.mark.parametrize("n", range(1, 41))
def test_regular_generator_replays_the_pairing_loop(n):
    # every legal d, d = 0 and the dense complements included
    for d in range(n):
        if n * d % 2 == 0:
            for seed in (0, 1, 2, 2**64 - 1):
                lo, hi = _regular_edges(n, d, seed)
                assert (lo.tolist(), hi.tolist()) == regular_pairing(n, d, seed), (n, d, seed)


@pytest.mark.parametrize("n, d, seed", REGULAR_LARGE,
                         ids=[f"n{n}-d{d}-seed{s}" for n, d, s in REGULAR_LARGE])
def test_regular_generator_replays_the_pairing_loop_on_larger_graphs(n, d, seed):
    lo, hi = _regular_edges(n, d, seed)
    assert (lo.tolist(), hi.tolist()) == regular_pairing(n, d, seed)


def test_a_dead_end_restarts_the_pairing_on_the_same_generator(monkeypatch):
    # (24, 7, 4) meets 4 dead ends; the replay above holds its edges to the loop's
    real, dead_ends = graph_module._pairing_attempt, []

    def spy(*args):
        keys = real(*args)
        dead_ends.append(keys is None)
        return keys

    monkeypatch.setattr(graph_module, "_pairing_attempt", spy)
    _regular_edges(24, 7, 4)
    assert dead_ends == [True] * 4 + [False]


def test_the_pairing_holds_one_round_of_arrays():
    # the peak is the first round, which pairs all n*d stubs: the stubs
    # (two int64 per edge, 16 bytes), sorted in place into pairs, each
    # pair's key (8), and np.unique's flattened copy, permutation and sorted
    # copy of the keys (24) and its outputs, the distinct keys and each one's
    # first pair (16).  The bound allows 9 int64 per edge; pairs sorted into
    # a copy of the stubs (16), or an edge held as a Python tuple, break it
    n, d = 20_000, 6
    _regular_edges(10, 2, 0)  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        lo, hi = _regular_edges(n, d, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lo.size == n * d // 2
    assert peak <= 72 * lo.size, f"peaks at {peak / lo.size:.1f} bytes per edge"


def test_dreg_determinism():
    a = gen_random_regular(50, 6, seed=5)
    b = gen_random_regular(50, 6, seed=5)
    assert edge_tuples(a) == edge_tuples(b)


def test_dreg_zero_degree():
    g = gen_random_regular(5, 0, seed=0)
    assert g.m == 0
    assert g.stats.is_regular


def test_dreg_rejects_impossible():
    with pytest.raises(ValueError, match="even"):
        gen_random_regular(5, 3, seed=0)  # n*d odd
    with pytest.raises(ValueError):
        gen_random_regular(5, 5, seed=0)  # d >= n
    with pytest.raises(ValueError):
        gen_random_regular(5, -1, seed=0)


def _connected(g) -> bool:
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j, _ in neighbors(g, i):
            if j not in seen:
                seen.add(j)
                frontier.append(j)
    return len(seen) == g.n
