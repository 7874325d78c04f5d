"""Green sequences: the verifying walk, exhaustive search, the exchange graph.

A green sequence mutates only green vertices of the framed quiver; it is
maximal when the final state has every mutable vertex red, and that state is
then the co-framing with the mutable vertices permuted by the induced sigma.
``verify_green`` makes this one walk for every caller and returns a
``GreenTrace``: where the walk first met a red vertex, its final state, and
sigma when the sequence is maximal.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Iterator, Sequence

from .quiver import (
    ExtendedQuiver,
    Permutation,
    Quiver,
    QuiverError,
    all_colors,
    format_extended,
    frame,
    green_vertices,
    matrix_mutate,
    vertex_color,
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
    at the end, whether every vertex is red with its induced permutation."""
    seq = tuple(seq)
    eq = frame(q)
    for index, k in enumerate(seq, start=1):
        if vertex_color(eq, k) != "green":
            return GreenTrace(seq, index, eq, None)
        eq = matrix_mutate(eq, k)
    if "green" in all_colors(eq):
        return GreenTrace(seq, None, eq, None)
    sigma = _read_final_permutation(q, eq)
    if sigma is None:
        # All-red but not co-framed-up-to-permutation: cannot happen for
        # states reached from a framing; treat as corrupted input.
        raise QuiverError("all-red state is not a permuted co-framing")
    return GreenTrace(seq, None, eq, sigma)


def _read_final_permutation(q: Quiver, eq: ExtendedQuiver) -> Permutation | None:
    """If eq = [B_{Q sigma} | -M(sigma)], return sigma; else None."""
    n, rows = eq.n, eq.sparse_rows
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


def induced_permutation(q: Quiver, seq: Sequence[int]) -> Permutation:
    """Permutation sigma with final matrix [B_{Q sigma} | -M(sigma)]."""
    trace = verify_green(q, seq)
    if not trace.is_maximal:
        raise NotMaximalGreenError(f"{trace.sequence} is not a maximal green sequence")
    return trace.induced


def acyclic_mgs(q: Quiver) -> tuple[int, ...]:
    """Source-order sequence for an acyclic quiver, smallest index first.

    Mutates each vertex exactly once, always at a vertex that is a source
    among the not-yet-mutated ones.
    """
    indeg = {v: 0 for v in range(1, q.n + 1)}
    outs: dict[int, list[int]] = {v: [] for v in range(1, q.n + 1)}
    for src, dst, _ in q.arrows:
        indeg[dst] += 1
        outs[src].append(dst)
    order: list[int] = []
    ready = sorted(v for v, d in indeg.items() if d == 0)
    while ready:
        v = ready.pop(0)
        order.append(v)
        for w in outs[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
        ready.sort()
    if len(order) != q.n:
        raise NotAcyclicError("quiver has a directed cycle")
    return tuple(order)


def _green_search(q: Quiver, max_len: int | None) -> Iterator[tuple[int, ...]]:
    """Maximal green sequences of ``q`` in lexicographic order.

    Depth-first search over green moves from the framing, trying green
    vertices in ascending order; no maximal sequence extends another, so
    this meets them in lexicographic order.  Hitting ``max_len`` on a branch
    that still has a green vertex raises DepthGuardExceeded carrying the
    sequences yielded so far.
    """
    found: list[tuple[int, ...]] = []
    root = frame(q)
    stack: list[list] = [[root, green_vertices(root), 0]]
    prefix: list[int] = []
    while stack:
        top = stack[-1]
        eq, greens, idx = top
        if not greens:
            found.append(tuple(prefix))
            yield found[-1]
        if not greens or idx >= len(greens):
            stack.pop()
            if prefix:
                prefix.pop()
            continue
        if max_len is not None and len(prefix) >= max_len:
            raise DepthGuardExceeded(max_len, tuple(found))
        top[2] += 1
        k = greens[idx]
        prefix.append(k)
        nxt = matrix_mutate(eq, k)
        stack.append([nxt, green_vertices(nxt), 0])


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
        """Number of source-to-sink directed paths."""
        succ: dict[int, list[int]] = {i: [] for i in range(len(self.nodes))}
        for src, _, dst in self.edges:
            succ[src].append(dst)
        memo: dict[int, int] = {}

        # depth-first with memo; the graph is a DAG because green mutation
        # strictly advances the c-vector fan.
        def count(i: int, stack: set[int]) -> int:
            if i in memo:
                return memo[i]
            if i in stack:
                raise QuiverError("green-move graph unexpectedly has a cycle")
            if not succ[i]:
                memo[i] = 1
                return 1
            stack.add(i)
            total = sum(count(j, stack) for j in succ[i])
            stack.remove(i)
            memo[i] = total
            return total

        return count(self.source, set())

    def iso_class_count(self) -> int:
        """Node count after identifying states that differ only by a
        relabelling of mutable vertices (frozen vertices fixed pointwise).

        Two reachable states are identified exactly when they have the same
        set of c-vectors (frozen rows): the c-vectors determine the exchange
        matrix up to the same relabelling (Nakanishi-Zelevinsky).
        """
        n = self.quiver.n
        return len({frozenset(row[n:] for row in node.rows) for node in self.nodes})


def exchange_graph(q: Quiver, max_nodes: int = 10000) -> ExchangeGraphSlice:
    """Breadth-first closure of green moves with exact-matrix deduplication."""
    start = frame(q)
    nodes: list[ExtendedQuiver] = [start]
    index: dict[ExtendedQuiver, int] = {start: 0}
    edges: list[tuple[int, int, int]] = []
    sinks: list[int] = []
    # ``nodes`` is the queue too: a new node is appended and visited in turn
    for i, eq in enumerate(nodes):
        greens = green_vertices(eq)
        if not greens:
            sinks.append(i)
            continue
        for k in greens:
            nxt = matrix_mutate(eq, k)
            j = index.get(nxt)
            if j is None:
                if len(nodes) >= max_nodes:
                    raise NodeBoundExceeded(f"more than {max_nodes} nodes reachable")
                j = len(nodes)
                nodes.append(nxt)
                index[nxt] = j
            edges.append((i, k, j))
    return ExchangeGraphSlice(q, tuple(nodes), tuple(edges), 0, tuple(sorted(sinks)))


def matrix_hash(eq: ExtendedQuiver) -> str:
    """Stable 16-hex-digit content hash of an extended matrix.

    The payload is the ``extb`` header plus the row-major entries as native
    int64 bytes, zeros included.  A matrix with an entry outside int64
    hashes its ``format_extended`` text after a ``big`` tag instead.
    """
    width = eq.n + eq.m
    flat = [0] * (eq.n * width)
    for i, row in enumerate(eq.sparse_rows):
        for j, v in row.items():
            flat[i * width + j] = v
    try:
        body = struct.pack(f"{len(flat)}q", *flat)
    except struct.error:
        body = b"big\n" + format_extended(eq).encode()
    return hashlib.sha256(f"extb {eq.n} {eq.m}\n".encode() + body).hexdigest()[:16]


def exchange_graph_dot(slice_: ExchangeGraphSlice) -> str:
    """DOT text for the slice; nodes named by content hash, edges by vertex."""
    names = [matrix_hash(node) for node in slice_.nodes]
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
