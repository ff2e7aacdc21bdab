"""Weighted undirected graphs with matrix-free Laplacian products.

A graph is stored as its weighted degree vector and its symmetrised
adjacency, split in two and built once from one sort of the edges it is
given; the edge arrays themselves are read at construction and not kept.
With K the smallest row length, the *head* is a (K, n) ELLPACK block whose
column i holds node i's K smallest neighbour ids; the *tail* holds the rest
of each longer row, row by row (Saad, *Iterative Methods for Sparse Linear
Systems*, section 3.4; the split is that of SELL-C-sigma).  ``neighbor_sum``
adds the head one row of n gathers at a time, left to right, and then each
tail row with one ``np.add.reduceat``: a regular graph has no tail, and a
graph with an isolated node has K = 0 and no head.  ``neighbor_sum`` takes
``out=`` so a solver can reuse its vectors.  Per-entry weights are stored
only when some weight is not exactly 1.0, so a unit-weight graph skips the
weight multiply.  Its adjacency keys are then sorted by value, in place;
only a weighted graph also forms their sorting permutation, to carry each
entry's weight.  An edge list lives only where it is made and written: the
generators' edge producers give (lo, hi) arrays that ``fjmedia generate``
writes in the order they were made.

Node ids are dense 0..n-1 and stored as int32, so a graph holds fewer than
2**31 nodes; the sort keys, and the tail's row list and offsets, stay int64.
``neighbor_sum`` gathers through ``ndarray.take``, which casts int32 ids at
about a third of the cost of fancy indexing.  Only ``Graph`` knows the edge
rules; ``load_edge_list`` parses text, remaps ids by first appearance and
names a rejected edge's line.  The remap, too, is a value sort: each id is
packed with its position, so the sorted values give what a stable argsort of
the ids would; it gives int32 labels, and the file's int64 ids are dropped
before the graph is built from them.  A file's line ends are made LF once,
as text mode reads them, before any parse; every step of the table path then
reads those LF-only bytes, and only the line reader ``_load_lines``, the
reference that path is tested against, keeps text mode's own line rules.
The table path takes one file shape: a header of comment and blank lines,
then lines that are all edges, as SNAP files and every file ``fjmedia
generate`` writes are.  Such a file is parsed by numpy as one table and
built without its bytes, which are dropped once parsed, and with its unit
weights as a scalar 1.0 (a unit-weight degree is its row count).  That path
words an edge error itself, from the file ids the remap returns and the
header's line count.  Any other file goes to the line reader.
"""

from __future__ import annotations

import io
import re
import warnings
from contextlib import nullcontext
from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Graph",
    "GraphStats",
    "load_edge_list",
    "write_edge_list",
    "gen_barabasi_albert",
    "gen_random_regular",
    "neighbor_sum",
]


_NODE_LIMIT = 2**31  # node ids are int32


@dataclass(frozen=True)
class GraphStats:
    """Summary invariants of a graph.

    Attributes
    ----------
    n, m : int
        Node and edge counts.
    d_min, d_max : float
        Extreme weighted degrees.
    is_regular : bool
        True when every weighted degree agrees (up to 1e-12 relative slack,
        so unit-weight generated graphs compare exactly).
    """

    n: int
    m: int
    d_min: float
    d_max: float
    is_regular: bool


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable weighted undirected graph.

    ``Graph(n, edge_u, edge_v, edge_w)`` takes edge k as
    ``edge_u[k]``-``edge_v[k]`` with weight ``edge_w[k]`` (``edge_w`` may be one
    scalar weight for every edge), checks the edge rules and keeps only what is
    derived from the edges: the weighted degree vector and the symmetrised
    adjacency.  Node ids are int32, so ``n`` must be below 2**31; a larger ``n``
    is refused before anything is allocated.  Integer edge arrays are read as
    they are, with no int64 copy.  With K the smallest row length, ``head`` is a
    (K, n) int32 array whose ``head[k, i]`` is node i's k-th smallest neighbour
    id.  ``tail`` holds the remaining neighbours of every row longer than K, row
    by row and sorted by id.  ``tail_rows`` lists the nodes that have tail
    entries, in id order, and ``tail_starts`` the offsets of their runs in
    ``tail``; each run ends where the next begins.  ``head_w`` and ``tail_w``
    hold the edge weights alongside, or are both None when every edge weight is
    exactly 1.0.  ``longest_row`` is the largest row length, K plus the longest
    tail run.  Arrays are set read-only so instances can be shared freely
    between runs.

    Construct through :meth:`from_edges`, the generators, or
    :func:`load_edge_list` rather than passing raw arrays.
    """

    n: int
    edge_u: InitVar[np.ndarray]
    edge_v: InitVar[np.ndarray]
    edge_w: InitVar[np.ndarray | float]
    degree: np.ndarray = field(init=False)
    head: np.ndarray = field(init=False, repr=False)
    head_w: np.ndarray | None = field(init=False, repr=False)
    tail: np.ndarray = field(init=False, repr=False)
    tail_w: np.ndarray | None = field(init=False, repr=False)
    tail_rows: np.ndarray = field(init=False, repr=False)
    tail_starts: np.ndarray = field(init=False, repr=False)
    longest_row: int = field(init=False, repr=False)

    def __post_init__(self, edge_u, edge_v, edge_w) -> None:
        n = self.n
        if n < 1:
            raise ValueError("graph needs at least one node")
        if n >= _NODE_LIMIT:
            raise ValueError(f"graph has {n} nodes; node ids are int32, so a graph "
                             f"holds fewer than 2**31 nodes")
        u, v, w = _edge_arrays(edge_u, edge_v, edge_w)  # read, never kept
        m = u.size
        if m and not (min(u.min(), v.min()) >= 0 and max(u.max(), v.max()) < n
                      and not np.any(u == v)
                      and not (np.any(~np.isfinite(w)) or np.any(w <= 0))):
            raise _first_bad_edge(n, u, v, w)
        # each edge gives the directed entries (u, v) and (v, u); one sort of
        # their keys row*n + col lists every row's neighbours in id order,
        # and a pair given twice in either orientation shows as two equal
        # adjacent keys.  With unit weights the keys are sorted by value;
        # otherwise their permutation also carries each entry's weight
        keys = np.empty(2 * m, dtype=np.int64)
        keys[:m], keys[m:] = u, v  # the rows, until scaled in place
        counts = np.bincount(keys, minlength=n)
        keys *= n
        keys[:m] += v
        keys[m:] += u
        unit = bool(np.all(w == 1.0))
        order = None
        if not unit:
            order = np.argsort(keys)
            order %= m  # directed key k came from edge k mod m
        keys.sort()
        if np.any(keys[1:] == keys[:-1]):
            raise _first_bad_edge(n, u, v, w)
        keys %= n
        keys = keys.astype(np.int32)  # the neighbour ids, each below n < 2**31
        # row i starts at sorted position row_start[i]; its first K entries
        # go to the head, the rest to the tail.  The head is filled a row at
        # a time: one (K, n) index array would raise peak memory by up to
        # 16 bytes per edge.  Only a row longer than K has a tail, so a
        # graph without one marks no entries
        k_min, longest = int(counts.min()), int(counts.max())
        row_start = np.cumsum(counts) - counts
        head = np.empty((k_min, n), dtype=np.int32)
        head_w = None if unit else np.empty((k_min, n))
        in_tail = (np.ones(keys.size, dtype=bool) if longest > k_min
                   else np.empty(0, dtype=np.intp))  # no tail: an index of nothing
        for k in range(k_min):
            at = row_start + k
            head[k] = keys[at]
            if head_w is not None:
                head_w[k] = w[order[at]]
            if in_tail.size:
                in_tail[at] = False
        tail = keys[in_tail]
        tail_w = None if unit else w[order[in_tail]]
        del keys, order, in_tail, row_start
        tail_len = counts - k_min
        tail_rows = np.flatnonzero(tail_len)
        tail_starts = (np.cumsum(tail_len) - tail_len)[tail_rows]
        del tail_len
        if unit:  # a sum of ones is exact: the weighted sums give these bits
            deg = counts.astype(np.float64)
        else:
            # summed over the edges a node is the lower end of, then the
            # upper end: the same bits whichever way round an edge is given
            lo, hi = np.minimum(u, v), np.maximum(u, v)
            deg = (np.bincount(lo, weights=w, minlength=n)
                   + np.bincount(hi, weights=w, minlength=n))
        stored = (("degree", deg), ("head", head), ("tail", tail), ("head_w", head_w),
                  ("tail_w", tail_w), ("tail_rows", tail_rows), ("tail_starts", tail_starts))
        for name, arr in stored:
            if arr is not None:
                arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "longest_row", longest)

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build from an iterable of ``(u, v)`` or ``(u, v, w)`` tuples."""
        us, vs, ws = [], [], []
        for e in edges:
            a, b, c = e if len(e) == 3 else (*e, 1.0)
            us.append(a)
            vs.append(b)
            ws.append(c)
        return cls(n, np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64),
                   np.array(ws, dtype=np.float64))

    @property
    def m(self) -> int:
        return (self.head.size + self.tail.size) // 2  # each edge is two entries

    @cached_property
    def stats(self) -> GraphStats:
        d_min = float(self.degree.min())
        d_max = float(self.degree.max())
        regular = (d_max - d_min) <= 1e-12 * max(1.0, d_max)
        return GraphStats(
            n=self.n,
            m=self.m,
            d_min=d_min,
            d_max=d_max,
            is_regular=bool(regular),
        )


def _edge_arrays(edge_u, edge_v, edge_w) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # the edges as flat arrays of one length; one weight for every edge is
    # broadcast, and reshape, unlike ravel, copies no broadcast array.  Ids
    # of an integer type that int64 holds are read as they are, with no copy
    u, v = _ids(edge_u), _ids(edge_v)
    w = np.asarray(edge_w, dtype=np.float64)
    w = np.broadcast_to(w, u.shape) if w.ndim == 0 else w.reshape(-1)
    if not (u.size == v.size == w.size):
        raise ValueError("edge arrays must have identical length")
    return u, v, w


def _ids(ids) -> np.ndarray:
    arr = np.asarray(ids)
    if not (arr.dtype.kind in "iu" and np.can_cast(arr.dtype, np.int64)):
        arr = np.asarray(ids, dtype=np.int64)  # cast as given, e.g. a list of floats
    return arr.reshape(-1)


class _EdgeError(ValueError):
    """An edge breaking a rule: ``index`` is its input position, ``reason`` the rule."""


def _first_bad_edge(n: int, u, v, w) -> _EdgeError:
    # runs only once validation failed: the earliest edge that breaks any rule
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    out = (lo < 0) | (hi >= n)
    bad_w = ~(np.isfinite(w) & (w > 0))
    keys = np.where(out, -1 - np.arange(u.size), lo * np.int64(n) + hi)
    dup = ~np.isin(np.arange(u.size), np.unique(keys, return_index=True)[1])
    k = int(np.argmax(out | (u == v) | bad_w | dup))
    reason = ("endpoint out of range in edge" if out[k] else
              "self-loop" if u[k] == v[k] else
              f"weight {w[k]:g} is not positive and finite on edge" if bad_w[k] else
              "duplicate edge")
    err = _EdgeError(f"{reason} {u[k]}-{v[k]} at edge index {k}")
    err.index, err.reason = k, reason
    return err


def neighbor_sum(graph: Graph, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Weighted neighbor sums ``(W x)_i = sum_j w_ij x_j``.

    Each node's K head neighbours are added left to right, one head row of n
    gathers at a time, and then its tail run, reduced by ``np.add.reduceat``.
    Written into ``out`` (a float64 vector of length n, not overlapping
    ``x``) when given.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (graph.n,):
        raise ValueError(f"expected vector of length {graph.n}, got shape {x.shape}")
    if out is None:
        out = np.empty(graph.n)
    elif not (isinstance(out, np.ndarray) and out.shape == x.shape and out.dtype == x.dtype):
        raise ValueError(f"out must be a float64 vector of length {graph.n}")
    elif np.may_share_memory(out, x):
        raise ValueError("out must not overlap x")
    head, head_w = graph.head, graph.head_w
    # x.take(ids, mode="wrap") gathers: it skips the bounds-check buffer, as
    # every id is in range, and casts int32 ids at a third of the cost of x[ids]
    if head.shape[0]:
        x.take(head[0], out=out, mode="wrap")
        if head_w is not None:
            out *= head_w[0]
    else:  # an isolated node leaves K = 0
        out.fill(0.0)
    terms = np.empty(graph.n) if head.shape[0] > 1 else None
    for k in range(1, head.shape[0]):
        x.take(head[k], out=terms, mode="wrap")
        if head_w is not None:
            terms *= head_w[k]
        out += terms
    if graph.tail_rows.size:
        terms = x.take(graph.tail, mode="wrap")
        if graph.tail_w is not None:
            terms *= graph.tail_w
        out[graph.tail_rows] += np.add.reduceat(terms, graph.tail_starts)
    return out


# ---------------------------------------------------------------------------
# ingestion


def load_edge_list(path) -> Graph:
    """Read a whitespace-separated edge list.

    Lines are ``u v`` (weight 1.0) or ``u v w``, ended by LF, CRLF or a lone
    CR; ``#`` starts a comment line and blank lines are skipped.  Ids are
    non-negative integers of any size, remapped to 0..n-1 by first
    appearance.  A malformed line is rejected as it is read; the edge rules
    ``Graph`` checks on the whole edge set then name the earliest offending
    line and its original ids.

    ``path`` is a file path, or a binary stream (anything with ``read``) that
    is read to its end and left open.  The bytes are read once, and each
    CRLF or lone CR in them becomes an LF, once, before any parse: text mode
    ends a line there too.  An ASCII file whose lines after a header of
    comment and blank lines are all edges is parsed by numpy as one table,
    and then the bytes are dropped: the graph is built from the table alone,
    and an edge that breaks a rule is named from the table, with the file's
    ids and its row counted past the header.  Any other file, one with a
    comment or blank line among or after its edges included, is parsed from
    the same bytes by the line reader, which also words any error; it holds
    each line's numbers as Python objects, so it takes several times the
    table's time and memory.
    """
    with (nullcontext(path) if hasattr(path, "read") else open(path, "rb")) as fh:
        data = fh.read()
    if b"\r" in data:  # rebound, so the raw bytes go before the parse
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    # numpy reads other bytes as Latin-1, the line reader as UTF-8
    table = _parse_table(data) if data.isascii() else None
    if table is None:
        return _load_lines(data)
    del data  # the only reference: the graph is built without the file's bytes
    ids, w, head = table
    del table
    labels, file_ids = _relabel_by_first_appearance(ids)
    del ids  # the table's int64 ids: the graph is built from the int32 labels
    return _table_graph(labels, file_ids, w, head)


# the bytes str.split splits at within a line: ASCII whitespace but the LF
# that ends it.  The table path splits at these alone, as bytes.split and a
# bytes regex's \s miss \x1c-\x1f
_BLANKS = bytes(c for c in range(128) if c != ord("\n") and chr(c).isspace())
# the first line whose first token does not start with '#'
_DATA_LINE = re.compile(b"^[%s]*[^%s\n#].*" % (_BLANKS, _BLANKS), re.MULTILINE)


def _parse_table(data: bytes) -> tuple[np.ndarray, np.ndarray | float, int] | None:
    # the LF-only ASCII ``data`` through np.loadtxt when its lines after the
    # header are all edges: its ids in file order, u0 v0 u1 v1 ..., its
    # weights and the header's line count; or None to leave the file to
    # _load_lines.  With no comment character a '#' past the header fails
    # the parse, and a blank line, which loadtxt skips, fails the line count
    ncols, head = _table_columns(data)
    if not ncols:
        return None
    dtype = [("u", np.int64), ("v", np.int64), ("w", np.float64)][:ncols]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. a float read into an id
            table = np.loadtxt(io.BytesIO(data), dtype=dtype, comments=None,
                               skiprows=head, ndmin=1)
    except (ValueError, OverflowError, Warning):
        return None
    if data.count(b"\n") + (not data.endswith(b"\n")) != head + table.size:
        return None
    if ncols == 2:
        ids = table.view(np.int64)  # u0 v0 u1 v1 ...: two int64 fields, no padding
        w = 1.0  # one weight for every edge: no array of ones
    else:
        ids = np.empty(2 * table.size, dtype=np.int64)
        ids[0::2], ids[1::2] = table["u"], table["v"]
        w = table["w"].copy()
    del table
    if ids.min() < 0:
        return None
    return ids, w, head


def _table_graph(labels: np.ndarray, file_ids: np.ndarray, w: np.ndarray | float,
                 head: int) -> Graph:
    # the graph of a parsed table, its ids relabelled; an edge that breaks a
    # rule is named as _load_lines names it, by its line and the file's ids
    ids = labels.reshape(-1, 2)  # Graph reads the columns as they lie
    try:
        return Graph(file_ids.size, ids[:, 0], ids[:, 1], w)
    except _EdgeError as exc:
        k = exc.index  # every line past the header is a row: row k is line head + k + 1
        raise _edge_error(head + k + 1, exc, *file_ids[ids[k]]) from None


def _edge_error(line: int, exc: _EdgeError, a, b) -> ValueError:
    # an edge rule broken on a line, named with the file's ids of its ends
    return ValueError(f"line {line}: {exc.reason} {a}-{b}")


def _table_columns(data: bytes) -> tuple[int, int]:
    # (2 or 3, the lines before the first data line), or (0, 0) when the
    # first data line has another number of tokens or there is none
    first = _DATA_LINE.search(data)
    # str.split, not bytes.split: it splits at every byte of _BLANKS
    ncols = len(first.group().decode().split()) if first else 0
    if ncols not in (2, 3):
        return 0, 0
    return ncols, data.count(b"\n", 0, first.start())


def _relabel_by_first_appearance(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # dense int32 labels for the non-empty, non-negative ``ids``, numbered by
    # first appearance, and the id of each label, one per distinct id; the
    # ids are overwritten.  Each id is packed with its position, id << bits
    # | position, and the packed values are sorted in place: that orders the
    # ids as a stable argsort would, and each id's run starts at its first
    # appearance.  Positions are packed, and labels scattered, a chunk at a
    # time, so the packed ids and the labels are the only arrays as long as
    # ``ids``.  The packing needs ids below 2**(63 - bits); larger ones are
    # first replaced by their codes in sorted order, which keep equality and
    # first appearance (the codes fit while there are fewer than 2**31 ids)
    size = ids.size
    bits = (size - 1).bit_length()
    codes = None
    if int(ids.max()) >> (63 - bits):
        codes, inverse = np.unique(ids, return_inverse=True)
        ids[:] = inverse.reshape(-1)
        del inverse
    for start in range(0, size, _CHUNK):
        chunk = ids[start:start + _CHUNK]
        chunk <<= bits
        chunk |= np.arange(start, start + chunk.size)
    ids.sort()
    mask = (1 << bits) - 1
    first_seen, run_ids = [], []
    for chunk, run_id, heads in _sorted_runs(ids, bits):
        first_seen.append(chunk[heads] & mask)
        run_ids.append(run_id[heads])
    first_seen = np.concatenate(first_seen)
    by_appearance = np.argsort(first_seen)
    file_ids = np.concatenate(run_ids)[by_appearance]
    # each run's label; past 2**31 distinct ids these wrap, and Graph refuses n
    rank = np.empty(first_seen.size, dtype=np.int32)
    rank[by_appearance] = np.arange(first_seen.size)
    del first_seen, run_ids, by_appearance
    labels = np.empty(size, dtype=np.int32)
    runs = 0  # the runs before the chunk
    for chunk, run, heads in _sorted_runs(ids, bits):
        np.cumsum(heads, out=run)  # entry -> the run heads in the chunk up to it
        run += runs - 1
        runs = int(run[-1]) + 1
        labels[chunk & mask] = rank[run]
    return labels, (file_ids if codes is None else codes[file_ids])


def _sorted_runs(packed: np.ndarray, bits: int):
    # each chunk of the sorted ``packed`` values with its ids and a flag on
    # every entry that starts a run of equal ids: the first entry of a chunk
    # is compared with the last entry of the chunk before
    last = -1
    for start in range(0, packed.size, _CHUNK):
        chunk = packed[start:start + _CHUNK]
        ids = chunk >> bits
        heads = np.empty(ids.size, dtype=bool)
        heads[0] = ids[0] != last
        np.not_equal(ids[1:], ids[:-1], out=heads[1:])
        last = ids[-1]
        yield chunk, ids, heads


_CHUNK = 1 << 16  # entries per step of the remap


def _load_lines(data: bytes) -> Graph:
    # the reference reader: one line at a time, and every error names its
    # line.  Errors come in file order: an undecodable byte is reported only
    # once every line before its own has parsed
    try:
        text, undecodable = data.decode("utf-8"), False
    except UnicodeDecodeError as exc:
        # the lines before the one that holds the bad byte
        cut = max(data.rfind(b"\n", 0, exc.start), data.rfind(b"\r", 0, exc.start)) + 1
        text, undecodable = data[:cut].decode("utf-8"), True
    ids: dict[int, int] = {}
    us, vs, ws, lines = [], [], [], []
    lineno = 0
    # newline=None splits lines as text mode does, at "\n", "\r\n" and "\r"
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) not in (2, 3):
            raise ValueError(f"line {lineno}: expected 'u v' or 'u v w', "
                             f"got {raw.strip()!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: unparsable node id "
                             f"in {raw.strip()!r}") from exc
        if a < 0 or b < 0:
            raise ValueError(f"line {lineno}: node ids must be non-negative")
        try:
            ws.append(float(parts[2]) if len(parts) == 3 else 1.0)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: unparsable weight "
                             f"in {raw.strip()!r}") from exc
        us.append(ids.setdefault(a, len(ids)))
        vs.append(ids.setdefault(b, len(ids)))
        lines.append(lineno)
    if undecodable:
        raise ValueError(f"line {lineno + 1}: not valid UTF-8")
    if not ids:
        raise ValueError("edge list contains no edges")
    try:
        return Graph(len(ids), np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64),
                     np.array(ws, dtype=np.float64))
    except _EdgeError as exc:
        k, label = exc.index, list(ids)  # label[i]: the file's id of node i
        raise _edge_error(lines[k], exc, label[us[k]], label[vs[k]]) from None


def write_edge_list(edge_u, edge_v, edge_w, path, comment: str | None = None) -> None:
    """Write one ``u v w`` line per edge (0-based ids), optionally preceded by a comment.

    The edges are given as :class:`Graph` takes them (a graph keeps none),
    and written in that order.  ``path`` is a file path, or a text stream
    (anything with ``write``) that is written to and left open.
    """
    u, v, w = _edge_arrays(edge_u, edge_v, edge_w)
    with (nullcontext(path) if hasattr(path, "write")
          else open(path, "w", encoding="utf-8", newline="\n")) as fh:
        if comment:
            for line in comment.splitlines():
                fh.write(f"# {line}\n")
        for a, b, c in zip(u, v, w):
            fh.write(f"{int(a)} {int(b)} {c:.17g}\n")


# ---------------------------------------------------------------------------
# generators


def gen_barabasi_albert(n: int, m: int, seed: int) -> Graph:
    """Preferential-attachment graph: K_m core, then m distinct edges per node.

    Each node m..n-1 picks m distinct existing targets with probability
    proportional to current degree: it draws uniform indices into an urn
    that holds one entry per unit of degree, and draws again on a target it
    already picked.  Unit weights.  Each urn index is the one
    ``rng.integers(len(urn))`` on ``default_rng(seed)`` would give, so the
    edges and their order depend on the seed alone.  The urn must stay below
    2**32 entries: at that size the two int64 edge arrays alone take 32 GiB.

    Edge count is m(m-1)/2 + (n-m)m.
    """
    return Graph(n, *_ba_edges(n, m, seed), 1.0)


def _ba_edges(n: int, m: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The edges of ``gen_barabasi_albert(n, m, seed)`` as (targets, sources),
    each target below its source: the K_m core row by row, then each node's
    m targets in the order drawn.

    The urn is never built.  Before node j draws, it holds
    ``m(m-1) + 2m(j-m)`` entries: m-1 for each core node, then for each
    earlier node its m picks followed by m copies of itself, so arithmetic
    on an index names its node or the earlier pick it copies.  The draws
    are replayed in blocks.  A block speculates that each of its nodes
    draws exactly m indices and makes all of them in one ``rng.integers``
    call with one bound per node; numpy draws an array of bounds element by
    element, as one call per index would.  The block resolves picks of
    picks, keeps the nodes before the first one that picks a target twice,
    and rewinds the generator to draw those nodes' indices alone.  That
    node is drawn by itself, and the next block starts after it.  Blocks
    grow while they run clean; where repeats come close together (small j,
    large m), nodes are drawn one at a time.  Either way every seed gives
    the edges the plain urn loop gives, edge for edge.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m >= n:
        raise ValueError("m must be < n")
    core, span = m * (m - 1), 2 * m  # span: the urn entries each node adds
    if core + span * (n - m) >= 2**32:
        raise ValueError(f"n = {n} and m = {m} need a degree urn of 2**32 or more entries")
    rng = np.random.default_rng(seed)
    # edge k joins targets[k] and sources[k]: the K_m core row by row, then
    # node j's m targets in draw order at picks[(j - m) * m + o]
    core_edges = core // 2
    edges = core_edges + (n - m) * m
    targets, sources = np.empty(edges, dtype=np.int64), np.empty(edges, dtype=np.int64)
    sources[core_edges:].reshape(n - m, m)[:] = np.arange(m, n)[:, None]
    picks = targets[core_edges:]
    plain = memoryview(picks)  # reads and writes plain ints

    j = m
    if m == 1:
        # K_1 has no edge and no degree mass: node 1 takes node 0, its only
        # legal target, and draws nothing
        picks[0] = 0
        j = 2
    else:
        sources[:core_edges], targets[:core_edges] = np.nonzero(np.tri(m, k=-1, dtype=bool))
    # run counts the nodes in a row that picked no target twice; a block
    # pays for its numpy calls only past _BLOCK_WORDS draws' worth of them
    run, least = 0, -(-_BLOCK_WORDS // m)
    while j < n:
        if run >= least:
            size = min(2 * run, -(-_MAX_BLOCK_WORDS // m), n - j)
            kept = _draw_block(rng, picks, m, j, size)
            j += kept
            if kept == size:
                run += kept
                continue
            run = kept  # node j picked a target twice: it is drawn alone below
        # node j on plain ints.  It asks for as many indices as it lacks
        # targets, so it draws nothing the urn loop would not
        k, at = core + span * (j - m), (j - m) * m
        stop, asked = at + m, 0
        chosen: set[int] = set()
        while at < stop:
            asked += 1
            # a lone index as a scalar draw: the same value and generator
            # state as size=1, without the array
            lack = stop - at
            for idx in ([int(rng.integers(k))] if lack == 1
                        else rng.integers(k, size=lack).tolist()):
                rel = idx - core
                if rel < 0:
                    t = idx // (m - 1)
                else:  # rel = 2mb + o: o < m is pick o of node m + b, at picks[mb + o]
                    o = rel % span
                    t = plain[(rel + o) >> 1] if o < m else m + rel // span
                if t not in chosen:
                    chosen.add(t)
                    plain[at] = t
                    at += 1
        run = run + 1 if asked == 1 else run // 2
        j += 1
    return targets, sources


def _draw_block(rng: np.random.Generator, picks: np.ndarray, m: int, j: int,
                size: int) -> int:
    """Draw nodes j..j+size-1 of the urn replay at m indices each, into ``picks``.

    Returns how many of them, from j on, picked no target twice; their picks
    are final, and ``rng`` has made their draws and no others.
    """
    core, span = m * (m - 1), 2 * m
    k0 = core + span * (j - m)
    k = np.arange(k0, k0 + span * size, span)[:, None]
    state = rng.bit_generator.state
    idx = rng.integers(0, k, size=(size, m)).ravel()
    rel = idx - core
    base = (j - m) * m
    seg = picks[base:base + size * m]
    o = rel % span
    seg[:] = np.where(rel < 0, idx // max(m - 1, 1), m + rel // span)
    # entries that copy an earlier pick: one before the block is final, one
    # inside it once its own copy is.  Each copies an earlier node's pick,
    # so the copies stop changing after as many rounds as the longest chain
    ref = np.flatnonzero((rel >= 0) & (o < m))
    src = (rel[ref] + o[ref]) >> 1
    seg[ref] = picks[src]
    inner = src >= base
    ref, src = ref[inner], src[inner]
    while ref.size:
        got = picks[src]
        if np.array_equal(got, seg[ref]):
            break
        seg[ref] = got
    if m > 1:
        rows = np.sort(seg.reshape(size, m), axis=1)
        repeats = np.flatnonzero((rows[:, 1:] == rows[:, :-1]).any(axis=1))
        if repeats.size:
            kept = int(repeats[0])
            rng.bit_generator.state = state  # redraw the kept nodes' indices alone
            rng.integers(0, k[:kept], size=(kept, m))
            return kept
    return size


_BLOCK_WORDS = 96  # clean draws in a row before a block is tried
_MAX_BLOCK_WORDS = 2**15  # most draws a speculative block makes


def gen_random_regular(n: int, d: int, seed: int) -> Graph:
    """Random simple d-regular graph via the pairing model with stub repair
    (Bollobas 1980).

    All nd stubs are shuffled and paired; pairs that would create a self-loop
    or duplicate edge put their stubs back for the next shuffle.  The
    leftover stubs are a dead end when their nodes are one node, or already
    pairwise joined: then everything restarts on the same generator.  Pairing
    stalls on dense graphs, so for ``2d > n - 1`` the sparser
    ``(n-1-d)``-regular graph is paired from the same seed and its complement
    returned, edges in row-major order.  Unit weights; deterministic for a
    fixed seed.  ``n*d`` must be even and ``d < n``.
    """
    return Graph(n, *_regular_edges(n, d, seed), 1.0)


def _regular_edges(n: int, d: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The edges of ``gen_random_regular(n, d, seed)`` as (lo, hi), lo < hi
    on each: in pairing order, or row-major for a complement."""
    if d < 0:
        raise ValueError("d must be >= 0")
    if d >= n:
        raise ValueError("d must be < n")
    if (n * d) % 2 != 0:
        raise ValueError("n*d must be even for a d-regular graph to exist")
    dense = 2 * d > n - 1
    k = n - 1 - d if dense else d  # n*k is even too, as n*(n-1) is
    rng, keys = np.random.default_rng(seed), None
    while keys is None:
        keys = _pairing_attempt(rng, n, k)
    u, v = np.divmod(keys, n)
    if dense:
        keep = np.triu(np.ones((n, n), dtype=bool), 1)
        keep[u, v] = False
        u, v = np.nonzero(keep)
    return u, v


def _pairing_attempt(rng: np.random.Generator, n: int, k: int) -> np.ndarray | None:
    """One pairing of n nodes' k stubs each, in rounds: the keys ``lo*n + hi``
    of its edges in the order accepted, or None at a dead end.  A round
    accepts a pair unless it is a self-loop or its key was taken before it,
    and queues the rejected stubs again as (lo, hi), in pair order."""
    stubs = np.repeat(np.arange(n, dtype=np.int64), k)
    keys = np.empty(0, dtype=np.int64)
    # the keys accepted among the stubs' nodes, the only ones a round can
    # repeat: sorted, then one above any pair's
    among = np.array([n * n])
    while True:
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        pairs.sort(axis=1)
        key = pairs[:, 0] * n + pairs[:, 1]
        uniq, first = np.unique(key, return_index=True)  # each key's first pair
        new = (among[np.searchsorted(among, uniq)] != uniq) & (pairs[first, 0] != pairs[first, 1])
        rejected = np.ones(key.size, dtype=bool)
        rejected[first[new]] = False
        keys = np.append(keys, key[~rejected])
        stubs = pairs[rejected].ravel()
        if not stubs.size:
            return keys
        inside = np.zeros(n, dtype=bool)
        inside[stubs] = True
        among = np.sort(keys[inside[keys // n] & inside[keys % n]])
        s = np.count_nonzero(inside)
        if among.size == s * (s - 1) // 2:  # a dead end: the leftover nodes are a clique
            return None  # the caller restarts from fresh stubs
        among = np.append(among, n * n)
