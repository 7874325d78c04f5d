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

from .quiver import Quiver, QuiverError


class NotTypeAError(QuiverError):
    pass


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


def oriented_triangles(q: Quiver) -> tuple[tuple[int, int, int], ...]:
    """All directed 3-cycles, as sorted vertex triples, sorted."""
    mult = q.arrow_dict()
    out = set()
    for (a, b) in mult:
        for c in q.neighbors(b):
            if c != a and (b, c) in mult and (c, a) in mult:
                out.add(tuple(sorted((a, b, c))))
    return tuple(sorted(out))


def _non_triangle_cycle(q: Quiver, tris: tuple[tuple[int, int, int], ...]) -> list[int] | None:
    """Vertices of a simple cycle that is not one of ``tris``, or None.

    ``tris`` must be edge-disjoint.  The underlying graph then has only
    oriented 3-cycles exactly when E - V + C equals #triangles, i.e. when
    two edges of each triangle plus every edge on no triangle form a forest.
    Union-find contracts each triangle, then adds the other edges; the
    first edge whose ends are already joined closes a cycle, read off the
    forest by a breadth-first path.
    """
    root = list(range(q.n + 1))
    forest: list[list[int]] = [[] for _ in range(q.n + 1)]

    def find(a: int) -> int:
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    on_tri = {frozenset(e) for a, b, c in tris for e in ((a, b), (b, c), (a, c))}
    edges = [e for a, b, c in tris for e in ((a, b), (b, c))]
    edges += [(s, d) for s, d, _ in q.arrows if frozenset((s, d)) not in on_tri]
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


def is_type_a(q: Quiver) -> TypeAReport:
    """Evaluate the four type-A conditions, with a witness on each failure."""
    mult = q.arrow_dict()
    tris = oriented_triangles(q)
    tri_edges: dict[tuple[int, int], int] = {}

    # (i) every underlying cycle is an oriented 3-cycle.
    witness_i: str | None = None
    for (s, d), m in mult.items():
        if m >= 2:
            witness_i = f"double arrow {s} -> {d}"
            break
    if witness_i is None:
        for tri in tris:
            for u, v in ((tri[0], tri[1]), (tri[0], tri[2]), (tri[1], tri[2])):
                edge = (u, v)
                if edge in tri_edges:
                    witness_i = f"edge {u}-{v} lies in two 3-cycles"
                    break
                tri_edges[edge] = 1
            if witness_i:
                break
    if witness_i is None:
        cycle = _non_triangle_cycle(q, tris)
        if cycle is not None:
            witness_i = f"non-oriented cycle through {cycle}"
    cond_i = ConditionResult("i", witness_i is None, witness_i)

    # (ii) at most four neighbors.
    witness_ii = None
    for v in range(1, q.n + 1):
        if q.degree(v) > 4:
            witness_ii = f"vertex {v} has {q.degree(v)} neighbors"
            break
    cond_ii = ConditionResult("ii", witness_ii is None, witness_ii)

    by_vertex: dict[int, list[tuple[int, int, int]]] = {v: [] for v in range(1, q.n + 1)}
    for tri in tris:
        for v in tri:
            by_vertex[v].append(tri)

    # (iii) degree-4 vertices: two arrow pairs, each a 3-cycle.
    witness_iii = None
    for v in range(1, q.n + 1):
        if q.degree(v) == 4:
            covered = {u for tri in by_vertex[v] for u in tri if u != v}
            if len(by_vertex[v]) != 2 or covered != set(q.neighbors(v)):
                witness_iii = f"vertex {v} has 4 neighbors but not two 3-cycles"
                break
    cond_iii = ConditionResult("iii", witness_iii is None, witness_iii)

    # (iv) degree-3 vertices: one 3-cycle plus one non-cycle arrow.
    witness_iv = None
    for v in range(1, q.n + 1):
        if q.degree(v) == 3 and len(by_vertex[v]) != 1:
            witness_iv = f"vertex {v} has 3 neighbors but {len(by_vertex[v])} 3-cycles"
            break
    cond_iv = ConditionResult("iv", witness_iv is None, witness_iv)

    conditions = (cond_i, cond_ii, cond_iii, cond_iv)
    return TypeAReport(all(c.passed for c in conditions), conditions)


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

    ``edges`` connect triangles that share a vertex, labelled by it.  Every
    vertex lies in at most two triangles and every arrow in exactly one.
    """

    quiver: Quiver
    nodes: tuple[tuple[int, int, int], ...]
    edges: tuple[tuple[int, int, int], ...]  # (node index, node index, shared vertex)

    def degree(self, i: int) -> int:
        return sum(1 for a, b, _ in self.edges if i in (a, b))

    def neighbors_of(self, i: int) -> tuple[tuple[int, int], ...]:
        """(other node index, shared vertex) pairs."""
        out = []
        for a, b, v in self.edges:
            if a == i:
                out.append((b, v))
            elif b == i:
                out.append((a, v))
        return tuple(sorted(out))


def cycle_tree(q: Quiver) -> CycleTree:
    """Extract the tree of 3-cycles of an irreducible type-A quiver.

    Raises NotTypeAError / NotIrreducibleError / NoCyclesError when the
    input is outside this shape; acyclic summands are the caller's job.
    A tree of 3-cycles meets all four type-A conditions, so ``is_type_a``
    runs only when the shape check fails, to name the failing condition.
    """
    try:
        return _tree_shape(q)
    except QuiverError:
        report = is_type_a(q)
        if report.verdict:
            raise
        bad = next(c for c in report.conditions if not c.passed)
        raise NotTypeAError(f"condition {bad.name} fails: {bad.witness}") from None


def _tree_shape(q: Quiver) -> CycleTree:
    """The tree of 3-cycles, checking only its shape: every arrow simple and
    on an oriented 3-cycle, every vertex on one or two of them, and the
    sharing graph a tree.  The tree makes the 3-cycles edge-disjoint and
    every cycle of the underlying graph one of them (condition i); degrees
    are then 2 or 4, with two 3-cycles at each degree-4 vertex (ii-iv)."""
    tris = oriented_triangles(q)
    if not tris:
        raise NoCyclesError("quiver has no 3-cycle")
    tri_edges = {
        frozenset((tri[a], tri[b])) for tri in tris for a, b in ((0, 1), (0, 2), (1, 2))
    }
    for s, d, m in q.arrows:
        if frozenset((s, d)) not in tri_edges:
            raise NotIrreducibleError(f"arrow {s} -> {d} lies on no 3-cycle")
        if m > 1:
            raise NotTypeAError(f"double arrow {s} -> {d}")
    in_tris: dict[int, list[int]] = {}
    for i, tri in enumerate(tris):
        for v in tri:
            in_tris.setdefault(v, []).append(i)
    edges = []
    for v, owners in sorted(in_tris.items()):
        if len(owners) > 2:
            raise NotTypeAError(f"vertex {v} lies in {len(owners)} 3-cycles")
        if len(owners) == 2:
            edges.append((owners[0], owners[1], v))
    covered = {v for tri in tris for v in tri}
    if covered != set(range(1, q.n + 1)):
        raise NotIrreducibleError("isolated vertices present")
    # connected + |edges| = |nodes| - 1 makes the sharing graph a tree
    if len(edges) != len(tris) - 1:
        raise NotIrreducibleError("3-cycle sharing graph is not a tree")
    adj: dict[int, list[int]] = {i: [] for i in range(len(tris))}
    for a, b, _ in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in adj[i]:
            if j not in seen:
                seen.add(j)
                frontier.append(j)
    if len(seen) != len(tris):
        raise NotIrreducibleError("3-cycle sharing graph is disconnected")
    return CycleTree(q, tris, tuple(edges))


def leaf_cycles(tree: CycleTree) -> tuple[tuple[int, int, int], ...]:
    """Triangles of tree degree <= 1, sorted by smallest contained vertex."""
    leaves = [tree.nodes[i] for i in range(len(tree.nodes)) if tree.degree(i) <= 1]
    return tuple(sorted(leaves, key=min))
