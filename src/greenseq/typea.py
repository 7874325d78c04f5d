"""Structural recognition of type-A quivers and their trees of 3-cycles.

A quiver is of type A exactly when (i) every cycle of the underlying graph
is an oriented 3-cycle, (ii) no vertex has more than four neighbors,
(iii) a degree-4 vertex splits its arrows into two 3-cycles, and (iv) a
degree-3 vertex has one 3-cycle plus one arrow on no cycle.  Irreducible
type-A quivers other than a single vertex are trees of oriented 3-cycles
glued at shared vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .quiver import Quiver, QuiverError


class NotTypeAError(QuiverError):
    """Not type A; ``condition`` is the first failing condition when known."""

    def __init__(self, message: str, condition: ConditionResult | None = None):
        super().__init__(message)
        self.condition = condition


class NotIrreducibleError(QuiverError):
    pass


class NoCyclesError(QuiverError):
    """The quiver has no 3-cycle (single vertex or acyclic shape)."""


@dataclass(frozen=True)
class ConditionResult:
    name: str
    passed: bool
    witness: str | None = None


@dataclass(frozen=True)
class TypeAReport:
    verdict: bool
    conditions: tuple[ConditionResult, ...]

    def condition(self, name: str) -> ConditionResult:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)


def _oriented_cycles(q: Quiver) -> list[tuple[tuple[int, int, int], tuple[int, int, int]]]:
    """All directed 3-cycles, each as its sorted vertex triple paired with
    the cycle along its arrows from its smallest vertex, sorted.

    Each 3-cycle is read once, from the arrow a -> b leaving its smallest
    vertex a: the third vertex c is a neighbor of b above a with b -> c
    and c -> a.
    """
    arrow = q.multiplicity
    out = []
    for a, b, _ in q.arrows:
        if a < b:
            for c in q._adj[b]:  # unchecked: neighbors() range-checks each call
                if c > a and arrow(b, c) and arrow(c, a):
                    cyc = (a, b, c)
                    out.append((cyc if b < c else (a, c, b), cyc))
    out.sort(key=itemgetter(0))
    return out


def oriented_triangles(q: Quiver) -> tuple[tuple[int, int, int], ...]:
    """All directed 3-cycles, as sorted vertex triples, sorted."""
    return tuple([tri for tri, _ in _oriented_cycles(q)])


def _non_triangle_cycle(
    q: Quiver, tris: tuple[tuple[int, int, int], ...], tri_edges: set[tuple[int, int]]
) -> list[int] | None:
    """Vertices of a simple cycle that is not one of ``tris``, or None.

    ``tris`` must be edge-disjoint, with ``tri_edges`` their edges as sorted
    pairs.  The underlying graph then has only oriented 3-cycles exactly
    when E - V + C equals #triangles, i.e. when two edges of each triangle
    plus every edge on no triangle form a forest.  Union-find contracts each
    triangle, then adds the other edges; the first edge whose ends are
    already joined closes a cycle, read off the forest by a breadth-first
    path.
    """
    root = list(range(q.n + 1))
    forest: list[list[int]] = [[] for _ in range(q.n + 1)]

    def find(a: int) -> int:
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    edges = [e for a, b, c in tris for e in ((a, b), (b, c))]
    edges += [(s, d) for s, d, _ in q.arrows if ((s, d) if s < d else (d, s)) not in tri_edges]
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            prev = {u: u}
            queue = [u]
            for x in queue:
                for y in forest[x]:
                    if y not in prev:
                        prev[y] = x
                        queue.append(y)
            path = [v]
            while path[-1] != u:
                path.append(prev[path[-1]])
            return sorted(path)
        root[ru] = rv
        forest[u].append(v)
        forest[v].append(u)
    return None


def _recognise(q: Quiver) -> tuple[
    TypeAReport,
    tuple[tuple[int, int, int], ...],
    tuple[tuple[int, int, int], ...],
    set[tuple[int, int]],
    dict[int, list[int]],
]:
    """The four type-A conditions, plus the facts read on the way.

    Returns ``(report, tris, oriented, tri_edges, by_vertex)``: the oriented
    3-cycles as sorted triples, each along its arrows from its smallest
    vertex, their edges as sorted pairs, and for each vertex the indices
    into ``tris`` of the 3-cycles through it.  ``tri_edges`` is complete
    whenever condition i passes.
    """
    cycles = _oriented_cycles(q)
    tris = tuple([tri for tri, _ in cycles])
    tri_edges: set[tuple[int, int]] = set()

    # (i) every underlying cycle is an oriented 3-cycle.
    witness_i: str | None = None
    for s, d, m in q.arrows:
        if m >= 2:
            witness_i = f"double arrow {s} -> {d}"
            break
    if witness_i is None:
        for tri in tris:
            for edge in ((tri[0], tri[1]), (tri[0], tri[2]), (tri[1], tri[2])):
                if edge in tri_edges:
                    witness_i = f"edge {edge[0]}-{edge[1]} lies in two 3-cycles"
                    break
                tri_edges.add(edge)
            if witness_i:
                break
    if witness_i is None:
        cycle = _non_triangle_cycle(q, tris, tri_edges)
        if cycle is not None:
            witness_i = f"cycle through {cycle} is not an oriented 3-cycle"
    cond_i = ConditionResult("i", witness_i is None, witness_i)

    by_vertex: dict[int, list[int]] = {v: [] for v in range(1, q.n + 1)}
    for i, tri in enumerate(tris):
        for v in tri:
            by_vertex[v].append(i)

    # (ii) at most four neighbors; (iii) a degree-4 vertex has two arrow
    # pairs, each a 3-cycle; (iv) a degree-3 vertex has one 3-cycle plus one
    # non-cycle arrow.  Each witness is the first vertex failing its condition.
    witness_ii = witness_iii = witness_iv = None
    for v, owners in by_vertex.items():
        adjacent = q._adj[v]  # unchecked, as in _oriented_cycles
        deg = len(adjacent)
        if deg > 4:
            witness_ii = witness_ii or f"vertex {v} has {deg} neighbors"
        elif deg == 4 and witness_iii is None:
            covered = {u for i in owners for u in tris[i] if u != v}
            if len(owners) != 2 or covered != set(adjacent):
                witness_iii = f"vertex {v} has 4 neighbors but not two 3-cycles"
        elif deg == 3 and len(owners) != 1:
            witness_iv = witness_iv or f"vertex {v} has 3 neighbors but {len(owners)} 3-cycles"

    conditions = (
        cond_i,
        ConditionResult("ii", witness_ii is None, witness_ii),
        ConditionResult("iii", witness_iii is None, witness_iii),
        ConditionResult("iv", witness_iv is None, witness_iv),
    )
    report = TypeAReport(all(c.passed for c in conditions), conditions)
    return report, tris, tuple([cyc for _, cyc in cycles]), tri_edges, by_vertex


def is_type_a(q: Quiver) -> TypeAReport:
    """Evaluate the four type-A conditions, with a witness on each failure."""
    return _recognise(q)[0]


def type_a_report_text(report: TypeAReport) -> str:
    lines = []
    for c in report.conditions:
        if c.passed:
            lines.append(f"condition {c.name}: PASS")
        else:
            lines.append(f"condition {c.name}: FAIL witness: {c.witness}")
    lines.append(f"verdict: {'type A' if report.verdict else 'not type A'}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Tree of 3-cycles


@dataclass(frozen=True)
class CycleTree:
    """The 3-cycles of an irreducible type-A quiver and their sharing tree.

    ``nodes`` are sorted vertex triples and ``oriented[i]`` is node i along
    its arrows, from its smallest vertex.  ``edges`` connect triangles that
    share a vertex, labelled by it, and ``adjacency[i]`` lists node i's
    (other node index, shared vertex) pairs, sorted.  Every vertex lies in
    at most two triangles and every arrow in exactly one.
    """

    quiver: Quiver
    nodes: tuple[tuple[int, int, int], ...]
    edges: tuple[tuple[int, int, int], ...]  # (node index, node index, shared vertex)
    adjacency: tuple[tuple[tuple[int, int], ...], ...]
    oriented: tuple[tuple[int, int, int], ...]


def cycle_tree(q: Quiver) -> CycleTree:
    """Extract the tree of 3-cycles of an irreducible type-A quiver.

    One pass evaluates the four type-A conditions; the first that fails is
    raised as a NotTypeAError, which carries it.  A type-A quiver is then
    refused with NoCyclesError when it has no 3-cycle, and with
    NotIrreducibleError when an arrow lies on no 3-cycle, a vertex is
    isolated, or the 3-cycles fall into several components.  Acyclic
    summands are the caller's job.
    """
    report, tris, oriented, tri_edges, by_vertex = _recognise(q)
    if not report.verdict:
        bad = next(c for c in report.conditions if not c.passed)
        raise NotTypeAError(f"condition {bad.name} fails: {bad.witness}", bad)
    if not tris:
        raise NoCyclesError("quiver has no 3-cycle")
    for s, d, _ in q.arrows:
        if ((s, d) if s < d else (d, s)) not in tri_edges:
            raise NotIrreducibleError(f"arrow {s} -> {d} lies on no 3-cycle")
    edges = []
    adj: list[list[tuple[int, int]]] = [[] for _ in tris]
    for v, owners in by_vertex.items():
        if not owners:
            raise NotIrreducibleError("isolated vertices present")
        if len(owners) == 2:
            a, b = owners
            edges.append((a, b, v))
            adj[a].append((b, v))
            adj[b].append((a, v))
    # type A makes the sharing graph a forest, so it is a tree exactly
    # when it has one edge fewer than nodes
    if len(edges) != len(tris) - 1:
        raise NotIrreducibleError("3-cycle sharing graph is disconnected")
    return CycleTree(q, tris, tuple(edges), tuple(tuple(sorted(nb)) for nb in adj), oriented)


def leaf_cycles(tree: CycleTree) -> tuple[tuple[int, int, int], ...]:
    """Triangles of tree degree <= 1, sorted by smallest contained vertex."""
    leaves = [tri for tri, nb in zip(tree.nodes, tree.adjacency) if len(nb) <= 1]
    return tuple(sorted(leaves, key=min))
