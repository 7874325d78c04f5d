"""Green sequences: the verifying walk, exhaustive search, the exchange graph.

A green sequence mutates only green vertices of the framed quiver; it is
maximal when the final state has every mutable vertex red, and that state is
then the co-framing with the mutable vertices permuted by the induced sigma.
``verify_green`` makes this one walk for every caller and returns a
``GreenTrace``: where the walk first met a red vertex, its final state, and
sigma when the sequence is maximal.  It keeps no state on the way, so it
mutates rows of its own in place and wraps them into one ``ExtendedQuiver``
at the end, or at the violating step.

The census search and the exchange graph walk one store of green states,
``_GreenStates``: every state a call reaches from the framing, held once and
keyed by its c-vectors, each interned to a small id whose colour is read
once.  A mutation re-keys only the rows whose c-vector it changes, and a
state is mutated, through ``matrix_mutate``, at most once per green vertex:
the search walks the store depth first, ``exchange_graph`` breadth first.
States whose keys meet must have equal rows, so deduplication stays exact.
The DOT names hash each state's rows through one int64 buffer.
"""

from __future__ import annotations

import hashlib
import heapq
from array import array
from dataclasses import dataclass
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from .quiver import (
    ExtendedQuiver,
    Permutation,
    Quiver,
    QuiverError,
    _exact_ints,
    _extended_lines,
    _frame_rows,
    _index,
    _mutate_rows,
    _row_color,
    frame,
    matrix_mutate,
)
from .typea import NotTypeAError, is_type_a


class NotMaximalGreenError(QuiverError):
    """The given sequence is not a maximal green sequence."""


class NotAcyclicError(QuiverError):
    """The quiver has a directed cycle."""


class DepthGuardExceeded(QuiverError):
    """Search hit the length bound on a branch that still had green vertices."""

    def __init__(self, max_len: int, partial: tuple[tuple[int, ...], ...]):
        super().__init__(f"depth guard {max_len} exceeded on a still-green branch")
        self.max_len = max_len
        self.partial = partial


class NodeBoundExceeded(QuiverError):
    """Exchange-graph exploration exceeded the node bound."""


@dataclass(frozen=True)
class GreenTrace:
    """One walk of ``sequence`` from the framing.

    The walk stops at the first mutation of a non-green vertex:
    ``violation_step`` is its 1-based index and ``final_state`` the state
    just before it.  ``vertex_color`` answers only green or red, so every
    vertex mutated before ``violation_step`` was green and the one at it was
    red.  ``induced`` is the sigma with final state [B_{Q sigma} | -M(sigma)],
    set exactly when the whole sequence ran green and left every vertex red.
    """

    sequence: tuple[int, ...]
    violation_step: int | None
    final_state: ExtendedQuiver
    induced: Permutation | None

    @property
    def is_green(self) -> bool:
        return self.violation_step is None

    @property
    def is_maximal(self) -> bool:
        return self.induced is not None


def verify_green(q: Quiver, seq: Sequence[int]) -> GreenTrace:
    """Apply ``seq`` to frame(q), checking each mutated vertex is green and,
    at the end, whether every vertex is red with its induced permutation.

    A step that is not an integer is refused as ``vertex_color`` refuses
    it, before anything is mutated.  A vertex outside 1..n is refused so
    when the walk reaches it: a red step before it is reported instead,
    and the green steps before it have changed only the walk's own rows.
    """
    seq = _exact_ints(seq, "vertex")
    n = q.n
    rows = _frame_rows(q)
    for index, k in enumerate(seq, start=1):
        if not 1 <= k <= n:
            raise QuiverError(f"vertex {k} out of range 1..{n}")
        if _row_color(rows[k - 1], n, k) != "green":
            return GreenTrace(seq, index, ExtendedQuiver._trusted(n, n, tuple(rows)), None)
        _mutate_rows(rows, n, k, False)
    final = ExtendedQuiver._trusted(n, n, tuple(rows))
    # a permuted co-framing is all red: colours are read only when it is not one
    sigma = _read_final_permutation(q, rows)
    if sigma is None and "green" not in [_row_color(row, n, i) for i, row in enumerate(rows, 1)]:
        # All-red but not co-framed-up-to-permutation: cannot happen for
        # states reached from a framing; treat as corrupted input.
        raise QuiverError("all-red state is not a permuted co-framing")
    return GreenTrace(seq, None, final, sigma)


def _read_final_permutation(q: Quiver, rows: Sequence[dict[int, int]]) -> Permutation | None:
    """If the sparse rows are [B_{Q sigma} | -M(sigma)], return sigma; else None."""
    n = q.n
    images = []
    for row in rows:
        frozen = [(j, v) for j, v in row.items() if j >= n]
        if len(frozen) != 1 or frozen[0][1] != -1:
            return None
        images.append(frozen[0][0] - n + 1)
    try:
        sigma = Permutation(tuple(images))
    except QuiverError:
        return None
    # (B_{Q sigma})_{ij} = (B_Q)_{i sigma, j sigma}: each arrow s -> d of Q
    # sits at (s, d) sigma^-1, and no other mutable entry is nonzero
    inv = sigma.inverse().images
    if sum(map(len, rows)) - n != 2 * len(q.arrows) or any(
        rows[inv[s - 1] - 1].get(inv[d - 1] - 1) != m for s, d, m in q.arrows
    ):
        return None
    return sigma


def _successors(q: Quiver) -> dict[int, list[int]]:
    succ: dict[int, list[int]] = {v: [] for v in range(1, q.n + 1)}
    for s, d, _ in q.arrows:
        succ[s].append(d)
    return succ


def _min_first_order(succ: Mapping[int, Collection[int]]) -> list[int]:
    """Kahn's topological order of the nodes of ``succ``, always taking the
    smallest ready node.

    ``succ[v]`` lists v's successors, a repeated one once per edge.  A node
    on a directed cycle, or after one, is never ready and is left out, so a
    short order tells the caller that a cycle exists.
    """
    indeg = dict.fromkeys(succ, 0)
    for ws in succ.values():
        for w in ws:
            indeg[w] += 1
    ready = [v for v, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    return order


def acyclic_mgs(q: Quiver) -> tuple[int, ...]:
    """Source-order sequence for an acyclic quiver, smallest index first.

    Mutates each vertex exactly once, always at the smallest vertex that is
    a source among the not-yet-mutated ones.
    """
    order = _min_first_order(_successors(q))
    if len(order) != q.n:
        raise NotAcyclicError("quiver has a directed cycle")
    return tuple(order)


def _c_vector(row: dict[int, int], n: int) -> frozenset[tuple[int, int]]:
    """The c-vector of a sparse row of an n-vertex state: its frozen part."""
    return frozenset([(j, v) for j, v in row.items() if j >= n])


class _GreenStates:
    """Every state one call reaches from frame(q) by green moves, each once.

    A state is an ``ExtendedQuiver`` keyed by its c-vectors: entry r of its
    key is the id under which the c-vector of row r was interned.  Each
    distinct c-vector's colour is read once, when it is interned, so a
    mixed-sign one still raises ``SignCoherenceError``, and a state's green
    vertices are read from its key.  ``move(s, idx)`` mutates state s at its
    idx-th green vertex through ``matrix_mutate`` and records the result in
    ``moves``; each walk asks for a move once, so every state is mutated at
    most once per green vertex.  States are numbered in the order they are
    first reached; state 0 is the framing.  Two states meet only when their keys do, and
    then their rows must be equal too, or the store raises QuiverError:
    deduplication stays exact on the matrix.
    """

    __slots__ = ("n", "states", "keys", "greens", "moves", "_index", "_ids", "_green", "_neg")

    def __init__(self, q: Quiver) -> None:
        self.n = q.n
        root = frame(q)
        self._ids: dict[frozenset[tuple[int, int]], int] = {}
        self._green: list[bool] = []  # by c-vector id
        # measured and kept: without this memo a census-small pass ran x0.91
        self._neg: dict[int, int] = {}  # c-vector id -> id of its negative
        key = tuple([self._intern(row, i) for i, row in enumerate(root.sparse_rows)])
        greens = tuple([i for i, c in enumerate(key, 1) if self._green[c]])
        self.states = [root]
        self.keys = [key]
        self.greens = [greens]
        self.moves = [[-1] * len(greens)]
        self._index = {key: 0}

    def _intern(self, row: dict[int, int], i: int) -> int:
        """Id of the c-vector of ``row``, the row of vertex i + 1."""
        c = _c_vector(row, self.n)
        cid = self._ids.get(c)
        if cid is None:
            cid = self._ids[c] = len(self._green)
            self._green.append(_row_color(row, self.n, i + 1) == "green")
        return cid

    def move(self, s: int, idx: int) -> int:
        """The state reached from state s at its idx-th green vertex; each move is asked once."""
        eq = self.states[s]
        k = self.greens[s][idx]
        nxt = matrix_mutate(eq, k)
        rows = nxt.sparse_rows
        key = list(self.keys[s])
        # k is green, so its c-vector is positive: mutation negates it, and
        # adds |b_ki| times it to the c-vector of each row i with b_ki < 0;
        # every other c-vector stays as it was
        for i, u in eq.sparse_rows[k - 1].items():
            if u < 0 and i < self.n:
                key[i] = self._intern(rows[i], i)
        c = key[k - 1]
        neg = self._neg.get(c)
        if neg is None:
            neg = self._neg[c] = self._intern(rows[k - 1], k - 1)
            self._neg[neg] = c
        key[k - 1] = neg
        key = tuple(key)
        t = self._index.get(key)
        if t is None:
            t = self._index[key] = len(self.states)
            green = self._green
            greens = tuple([i for i, c in enumerate(key, 1) if green[c]])
            self.states.append(nxt)
            self.keys.append(key)
            self.greens.append(greens)
            self.moves.append([-1] * len(greens))
        elif self.states[t].sparse_rows != rows:
            raise QuiverError("two green states share their c-vectors but not their matrix")
        self.moves[s][idx] = t
        return t


def _green_search(q: Quiver, max_len: int | None) -> Iterator[tuple[int, ...]]:
    """Maximal green sequences of ``q`` in lexicographic order.

    Depth-first walk over the green states of ``q``, trying green vertices
    in ascending order; no maximal sequence extends another, so this meets
    them in lexicographic order.  A state reached again by another path
    reuses the moves found from it before.  Hitting ``max_len`` on a branch
    that still has a green vertex raises DepthGuardExceeded carrying the
    sequences yielded so far.
    """
    if max_len is not None:
        max_len = _index(max_len, "max_len")
    found: list[tuple[int, ...]] = []
    store = _GreenStates(q)
    greens, moves = store.greens, store.moves
    path = [0]  # state ids from the framing
    tried = [0]  # moves tried so far from each state on the path
    prefix: list[int] = []
    while path:
        s = path[-1]
        idx = tried[-1]
        ks = greens[s]
        if not ks:
            found.append(tuple(prefix))
            yield found[-1]
        if idx >= len(ks):
            path.pop()
            tried.pop()
            if prefix:
                prefix.pop()
            continue
        if max_len is not None and len(prefix) >= max_len:
            raise DepthGuardExceeded(max_len, tuple(found))
        tried[-1] = idx + 1
        t = moves[s][idx]
        prefix.append(ks[idx])
        path.append(t if t >= 0 else store.move(s, idx))
        tried.append(0)


def enumerate_mgs(q: Quiver, max_len: int | None = None) -> tuple[tuple[int, ...], ...]:
    """All maximal green sequences of ``q``, sorted lexicographically.

    Type-A input is of finite mutation type, so the search terminates
    unbounded; anything else must pass ``max_len`` explicitly.  Hitting the
    bound on a branch that still has a green vertex raises DepthGuardExceeded
    carrying the census found so far.
    """
    if max_len is None and not is_type_a(q).verdict:
        raise NotTypeAError(
            "input is not recognized as type A: pass max_len to bound the search"
        )
    return tuple(_green_search(q, max_len))


def first_mgs(q: Quiver, max_len: int | None = None) -> tuple[int, ...]:
    """Lexicographically first maximal green sequence, by early-exit search.

    Same walk as enumerate_mgs, stopping at the first all-red state; useful
    as a cheap independent oracle when the full census is not needed.
    """
    for seq in _green_search(q, max_len):
        return seq
    raise NotMaximalGreenError("search exhausted without an all-red state")


# ---------------------------------------------------------------------------
# Oriented exchange graph (green part)


@dataclass(frozen=True)
class ExchangeGraphSlice:
    """Green-mutation closure of the framed quiver.

    Nodes are distinct extended matrices (exact equality); edges carry the
    mutated green vertex.  Node 0 is the framing, the unique all-green
    state; sinks are the all-red states.
    """

    quiver: Quiver
    nodes: tuple[ExtendedQuiver, ...]
    edges: tuple[tuple[int, int, int], ...]  # (src index, vertex, dst index)
    source: int
    sinks: tuple[int, ...]

    def maximal_chain_count(self) -> int:
        """Number of source-to-sink directed paths.

        Green mutation strictly advances the c-vector fan, so the graph is a
        DAG: each node's count is 1 at a sink, else the sum over its edges of
        the count at the far end, filled in along a topological order read
        backwards.
        """
        succ: dict[int, list[int]] = {i: [] for i in range(len(self.nodes))}
        for src, _, dst in self.edges:
            succ[src].append(dst)
        order = _min_first_order(succ)
        if len(order) != len(succ):
            raise QuiverError("green-move graph unexpectedly has a cycle")
        paths = [1] * len(order)
        for i in reversed(order):
            if succ[i]:
                paths[i] = sum(paths[j] for j in succ[i])
        return paths[self.source]

    def iso_class_count(self) -> int:
        """Node count after identifying states that differ only by a
        relabelling of mutable vertices (frozen vertices fixed pointwise).

        Two reachable states are identified exactly when they have the same
        set of c-vectors (frozen rows): the c-vectors determine the exchange
        matrix up to the same relabelling (Nakanishi-Zelevinsky).
        """
        n = self.quiver.n
        return len({frozenset([_c_vector(r, n) for r in node.sparse_rows]) for node in self.nodes})


def exchange_graph(q: Quiver, max_nodes: int = 10000) -> ExchangeGraphSlice:
    """Breadth-first closure of green moves with exact-matrix deduplication."""
    max_nodes = _index(max_nodes, "max_nodes")
    store = _GreenStates(q)
    edges: list[tuple[int, int, int]] = []
    sinks: list[int] = []
    # the store numbers states as they are reached, so its lists are the
    # queue too: a new state is appended and visited in turn
    for i, greens in enumerate(store.greens):
        if not greens:
            sinks.append(i)
            continue
        for idx, k in enumerate(greens):
            j = store.move(i, idx)
            if j >= max_nodes:
                raise NodeBoundExceeded(f"more than {max_nodes} nodes reachable")
            edges.append((i, k, j))
    return ExchangeGraphSlice(q, tuple(store.states), tuple(edges), 0, tuple(sinks))


def matrix_hash(eq: ExtendedQuiver) -> str:
    """Stable 16-hex-digit content hash of an extended matrix.

    The payload is the ``extb`` header plus the row-major entries as native
    int64 bytes, zeros included, hashed one row at a time.  A matrix with an
    entry outside int64 hashes its ``format_extended`` text after a ``big``
    tag instead.
    """
    return _matrix_hashes((eq,))[0]


# Most int64 bytes ``_matrix_hashes`` gathers before it feeds the hasher:
# all of a state at census sizes, and a bounded buffer however large n is.
_HASH_BLOCK = 1 << 16


def _matrix_hashes(states: Iterable[ExtendedQuiver]) -> list[str]:
    """``matrix_hash`` of each of ``states``.

    The header is hashed once per shape and copied per state.  A state's
    rows are written into one zeroed int64 buffer, fed to the hasher each
    time it fills.
    """
    shape = None
    names = []
    for eq in states:
        if (eq.n, eq.m) != shape:
            shape = (eq.n, eq.m)
            header = hashlib.sha256(f"extb {eq.n} {eq.m}\n".encode())
            width = eq.n + eq.m
            block = width * max(1, min(eq.n, _HASH_BLOCK // (8 * width)))
            zeros = array("q", bytes(8 * block))
        digest = header.copy()
        cells = zeros[:]
        base = 0
        try:
            for row in eq.sparse_rows:
                if base == block:
                    digest.update(cells)
                    cells = zeros[:]
                    base = 0
                for j, v in row.items():
                    cells[base + j] = v
                base += width
        except OverflowError:
            digest = header.copy()
            digest.update(b"big\n")
            for line in _extended_lines(eq):
                digest.update(line.encode())
        else:
            digest.update(memoryview(cells)[:base])
        names.append(digest.hexdigest()[:16])
    return names


def exchange_graph_dot(slice_: ExchangeGraphSlice) -> str:
    """DOT text for the slice; nodes named by content hash, edges by vertex."""
    names = _matrix_hashes(slice_.nodes)
    sink_set = set(slice_.sinks)
    lines = ["digraph exchange {"]
    for i in sorted(range(len(names)), key=lambda i: names[i]):
        marks = ""
        if i == slice_.source:
            marks = ', role="source"'
        elif i in sink_set:
            marks = ', role="sink"'
        lines.append(f'  "{names[i]}" [label="{names[i]}"{marks}];')
    for src, k, dst in sorted(slice_.edges, key=lambda e: (names[e[0]], e[1], names[e[2]])):
        lines.append(f'  "{names[src]}" -> "{names[dst]}" [label="{k}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
