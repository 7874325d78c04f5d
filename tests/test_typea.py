"""Structural type-A recognition and the tree of 3-cycles."""

from __future__ import annotations

import ast
import itertools
import random

import pytest

import greenseq as gs
from conftest import load
from helpers import canonical_form, mutation_class, random_quiver, random_tree_quiver


class TestIsTypeA:
    def test_triangle(self, a3cycle):
        assert gs.is_type_a(a3cycle).verdict

    def test_four_cycle_fails_condition_i(self):
        q = gs.Quiver.from_arrows(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
        report = gs.is_type_a(q)
        assert not report.verdict
        cond = report.condition("i")
        assert not cond.passed and "cycle" in cond.witness

    def test_unknown_condition_name_raises_key_error(self, a3cycle):
        with pytest.raises(KeyError):
            gs.is_type_a(a3cycle).condition("v")

    def test_non_oriented_triangle_fails(self):
        q = gs.Quiver.from_arrows(3, [(1, 2), (1, 3), (2, 3)])
        assert not gs.is_type_a(q).condition("i").passed

    def test_double_arrow_fails(self):
        q = gs.Quiver.from_arrows(2, [(1, 2, 2)])
        report = gs.is_type_a(q)
        assert "double arrow" in report.condition("i").witness

    def test_edge_in_two_triangles_fails(self):
        q = gs.Quiver.from_arrows(4, [(1, 2), (2, 3), (3, 1), (3, 4), (4, 2)])
        # triangles {1,2,3} and {2,3,4} share the edge 2-3
        assert not gs.is_type_a(q).verdict

    def test_degree_five_fails_condition_ii(self):
        arrows = [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 3), (3, 6), (7, 3)]
        report = gs.is_type_a(gs.Quiver.from_arrows(7, arrows))
        assert not report.condition("ii").passed

    def test_degree_three_condition_iv(self):
        # vertex 3 has three neighbors and no second 3-cycle: fine
        q = gs.Quiver.from_arrows(4, [(1, 2), (2, 3), (3, 1), (3, 4)])
        assert gs.is_type_a(q).verdict
        # two extra tails at the degree-4 vertex break condition iii instead
        q = gs.Quiver.from_arrows(5, [(1, 2), (2, 3), (3, 1), (3, 4), (5, 3)])
        report = gs.is_type_a(q)
        assert not report.condition("iii").passed

    def test_tree15_fixture(self, tree15):
        assert gs.is_type_a(tree15).verdict

    def test_report_text(self):
        text = gs.type_a_report_text(gs.is_type_a(load("a3cycle")))
        assert "condition i: PASS" in text and "verdict: type A" in text

    def test_whole_linear_class_up_to_a6(self):
        # closure of the equioriented path under mutation, deduplicated up
        # to relabelling: every member must pass
        sizes = {}
        for n in range(2, 7):
            path = gs.Quiver.from_arrows(n, [(i, i + 1) for i in range(1, n)])
            members = mutation_class(path)
            sizes[n] = len(members)
            for member in members:
                assert gs.is_type_a(member).verdict, member
        # class sizes grow with rank; n=2 has a single quiver up to relabelling
        assert sizes[2] == 1 and sizes[3] == 4
        assert sizes[3] < sizes[4] < sizes[5] < sizes[6]

    def test_random_perturbations_fail(self):
        rng = random.Random(91)
        base = [q for n in (4, 5, 6) for q in mutation_class(
            gs.Quiver.from_arrows(n, [(i, i + 1) for i in range(1, n)]))]
        rejected = 0
        attempts = 0
        while rejected < 1000:
            attempts += 1
            assert attempts < 20000
            q = base[rng.randrange(len(base))]
            mode = rng.random()
            pairs = {(s, d) for s, d, _ in q.arrows}
            if mode < 0.34:
                # double an existing arrow: creates a 2-cycle in the
                # underlying multigraph
                s, d, _ = q.arrows[rng.randrange(len(q.arrows))]
                bad = gs.Quiver.from_arrows(q.n, list(q.arrows) + [(s, d)])
            elif mode < 0.67:
                # fifth neighbor at a degree-4 vertex via a fresh vertex
                victims = [v for v in range(1, q.n + 1) if q.degree(v) == 4]
                if not victims:
                    continue
                v = victims[rng.randrange(len(victims))]
                bad = gs.Quiver.from_arrows(q.n + 1, list(q.arrows) + [(v, q.n + 1)])
            else:
                # chord between vertices at distance >= 3: a long cycle
                far = [
                    (u, v)
                    for u in range(1, q.n + 1)
                    for v in range(u + 1, q.n + 1)
                    if _distance(q, u, v) >= 3
                ]
                if not far:
                    continue
                u, v = far[rng.randrange(len(far))]
                if (u, v) in pairs or (v, u) in pairs:
                    continue
                bad = gs.Quiver.from_arrows(q.n, list(q.arrows) + [(u, v)])
            assert not gs.is_type_a(bad).verdict, bad
            rejected += 1


def _simple_cycles(q: gs.Quiver) -> list[tuple[int, ...]]:
    """Every simple cycle of the underlying graph, once, by brute force:
    paths from their least vertex through larger ones, kept in one of the
    two directions."""
    adj = {v: set() for v in range(1, q.n + 1)}
    for s, d, _ in q.arrows:
        adj[s].add(d)
        adj[d].add(s)
    out = []

    def extend(path: list[int]) -> None:
        for w in adj[path[-1]]:
            if w == path[0] and len(path) >= 3 and path[1] < path[-1]:
                out.append(tuple(path))
            elif w > path[0] and w not in path:
                extend(path + [w])

    for start in range(1, q.n + 1):
        extend([start])
    return out


def _is_oriented_triangle(q: gs.Quiver, cycle: tuple[int, ...]) -> bool:
    if len(cycle) != 3:
        return False
    a, b, c = cycle
    pairs = {(s, d) for s, d, _ in q.arrows}
    return {(a, b), (b, c), (c, a)} <= pairs or {(b, a), (c, b), (a, c)} <= pairs


class TestConditionOneOracle:
    def test_matches_brute_force_cycles(self):
        rng = random.Random(4417)
        verdicts = {True: 0, False: 0}
        for _ in range(3000):
            q = random_quiver(rng, max_n=7, max_mult=rng.choice((1, 2)))
            cycles = _simple_cycles(q)
            bad = [c for c in cycles if not _is_oriented_triangle(q, c)]
            expected = all(m == 1 for _, _, m in q.arrows) and not bad
            cond = gs.is_type_a(q).condition("i")
            assert cond.passed == expected, (q, cond)
            verdicts[expected] += 1
            prefix = "non-oriented cycle through "
            if cond.witness is not None and cond.witness.startswith(prefix):
                named = set(ast.literal_eval(cond.witness[len(prefix):]))
                assert any(set(c) == named for c in bad), (q, cond)
        assert min(verdicts.values()) >= 300

    def test_vertex_witnesses_name_the_first_failing_vertex(self):
        rng = random.Random(4419)
        failed = {"ii": 0, "iii": 0, "iv": 0}
        for _ in range(1500):
            q = random_quiver(rng, max_n=9, max_mult=1)
            tris = [set(c) for c in _simple_cycles(q) if _is_oriented_triangle(q, c)]
            want = {"ii": None, "iii": None, "iv": None}
            for v in range(q.n, 0, -1):
                mine = [t for t in tris if v in t]
                if q.degree(v) > 4:
                    want["ii"] = f"vertex {v} has {q.degree(v)} neighbors"
                elif q.degree(v) == 4 and not (
                    len(mine) == 2 and set.union(*mine) - {v} == set(q.neighbors(v))
                ):
                    want["iii"] = f"vertex {v} has 4 neighbors but not two 3-cycles"
                elif q.degree(v) == 3 and len(mine) != 1:
                    want["iv"] = f"vertex {v} has 3 neighbors but {len(mine)} 3-cycles"
            report = gs.is_type_a(q)
            for name, witness in want.items():
                assert report.condition(name).witness == witness, (q, name)
                failed[name] += witness is not None
        assert min(failed.values()) >= 100, failed

    def test_tree_shape_implies_type_a(self):
        # cycle_tree refuses each input with the class a brute-force oracle
        # fixes, and on success its nodes are every oriented 3-cycle
        rng = random.Random(4418)
        quivers = [random_quiver(rng, max_n=7, max_mult=1) for _ in range(500)]
        for _ in range(700):
            q, _ = random_tree_quiver(rng, 5)
            arrows = list(q.arrows)
            i = rng.randrange(len(arrows))
            s, d, _ = arrows[i]
            u, v = rng.sample(range(1, q.n + 1), 2)
            n = q.n
            roll = rng.randrange(7)
            if roll == 1:
                arrows[i] = (s, d, 2)
            elif roll == 2:
                arrows[i] = (d, s, 1)
            elif roll == 3 and v not in q.neighbors(u):
                arrows.append((u, v, 1))  # may close a new oriented 3-cycle
            elif roll == 4 and v not in q.neighbors(u):
                # a 3-cycle through two old vertices closes a ring of 3-cycles
                n += 1
                arrows += [(u, v, 1), (v, n, 1), (n, u, 1)]
            elif roll == 5:
                # a disjoint union with a second tree
                other, _ = random_tree_quiver(rng, 4)
                arrows += [(a + n, b + n, m) for a, b, m in other.arrows]
                n += other.n
            elif roll == 6:
                n += 1  # an isolated vertex, or a pendant one
                if rng.random() < 0.5:
                    arrows.append((u, n, 1))
            quivers.append(gs.Quiver(n, tuple(arrows)))
        seen = {}
        for q in quivers:
            want, triangles = _cycle_tree_oracle(q)
            try:
                tree = gs.cycle_tree(q)
                got = None
            except (gs.NotTypeAError, gs.NotIrreducibleError, gs.NoCyclesError) as exc:
                got = type(exc)
            assert got is want, q
            if got is None:
                assert tree.nodes == triangles, q
            seen[want] = seen.get(want, 0) + 1
        assert min(seen.values()) >= 100 and len(seen) == 4, seen


def _cycle_tree_oracle(q: gs.Quiver):
    """The class ``cycle_tree`` must raise on q (None for a tree of 3-cycles)
    and the oriented 3-cycles, from the brute-force cycle list: type A means
    simple arrows, every cycle an oriented 3-cycle, at most four neighbors,
    two 3-cycles at each degree-4 vertex and one at each degree-3 vertex."""
    cycles = _simple_cycles(q)
    triangles = tuple(sorted(tuple(sorted(c)) for c in cycles if _is_oriented_triangle(q, c)))
    through = {v: sum(v in t for t in triangles) for v in range(1, q.n + 1)}
    type_a = (
        all(m == 1 for _, _, m in q.arrows)
        and len(triangles) == len(cycles)
        and all(q.degree(v) <= 4 for v in through)
        and all(through[v] == 2 for v in through if q.degree(v) == 4)
        and all(through[v] == 1 for v in through if q.degree(v) == 3)
    )
    if not type_a:
        return gs.NotTypeAError, triangles
    if not triangles:
        return gs.NoCyclesError, triangles
    on_no_cycle = any(not any({s, d} <= set(t) for t in triangles) for s, d, _ in q.arrows)
    isolated = any(q.degree(v) == 0 for v in through)
    disconnected = any(_distance(q, 1, v) == 10**6 for v in through)
    if on_no_cycle or isolated or disconnected:
        return gs.NotIrreducibleError, triangles
    return None, triangles


def _distance(q: gs.Quiver, u: int, v: int) -> int:
    dist = {u: 0}
    frontier = [u]
    while frontier:
        nxt = []
        for w in frontier:
            for x in q.neighbors(w):
                if x not in dist:
                    dist[x] = dist[w] + 1
                    nxt.append(x)
        frontier = nxt
    return dist.get(v, 10**6)


class TestOrientedTriangles:
    @staticmethod
    def brute_force(q: gs.Quiver) -> tuple[tuple[int, int, int], ...]:
        arrow = q.multiplicity
        return tuple(
            (a, b, c) for a, b, c in itertools.combinations(range(1, q.n + 1), 3)
            if (arrow(a, b) and arrow(b, c) and arrow(c, a))
            or (arrow(a, c) and arrow(c, b) and arrow(b, a))
        )

    def test_matches_brute_force_triples(self):
        # dense random quivers with multiplicities up to 3: many 3-cycles
        # share vertices and edges, and each must come out once
        rng = random.Random(4420)
        found = 0
        for _ in range(600):
            n = rng.randint(1, 9)
            density = rng.choice((0.35, 0.7, 1.0))
            arrows = [
                (i, j, rng.randint(1, 3)) if rng.random() < 0.5 else (j, i, rng.randint(1, 3))
                for i, j in itertools.combinations(range(1, n + 1), 2)
                if rng.random() < density
            ]
            q = gs.Quiver(n, tuple(arrows))
            want = self.brute_force(q)
            assert gs.oriented_triangles(q) == want, q
            found += len(want)
        assert found >= 1000

    def test_trees_and_fixtures(self):
        rng = random.Random(4421)
        quivers = [random_tree_quiver(rng, 12)[0] for _ in range(60)]
        quivers += [load(name) for name in ("zigzag7", "tree15", "tree16", "sum26")]
        for q in quivers:
            assert gs.oriented_triangles(q) == self.brute_force(q)


class TestCycleTree:
    def test_orientation_follows_the_arrows(self):
        # each node read along its arrows from its smallest vertex, as the
        # recogniser found it, so that embed needs no arrow lookups
        rng = random.Random(4422)
        quivers = [random_tree_quiver(rng, 20)[0] for _ in range(60)]
        quivers += [load(name) for name in ("zigzag7", "tree15", "tree16")]
        for q in quivers:
            tree = gs.cycle_tree(q)
            assert len(tree.oriented) == len(tree.nodes)
            for tri, (a, b, c) in zip(tree.nodes, tree.oriented):
                assert tuple(sorted((a, b, c))) == tri and a == tri[0]
                assert q.multiplicity(a, b) and q.multiplicity(b, c) and q.multiplicity(c, a)

    def test_single_triangle(self, a3cycle):
        tree = gs.cycle_tree(a3cycle)
        assert tree.nodes == ((1, 2, 3),)
        assert tree.edges == ()

    def test_zigzag(self, zigzag7):
        tree = gs.cycle_tree(zigzag7)
        assert tree.nodes == ((1, 2, 3), (3, 4, 5), (5, 6, 7))
        shared = sorted(v for _, _, v in tree.edges)
        assert shared == [3, 5]
        assert [len(nb) for nb in tree.adjacency] == [1, 2, 1]

    def test_tree15_branching(self, tree15):
        tree = gs.cycle_tree(tree15)
        assert len(tree.nodes) == 15
        assert [len(nb) for nb in tree.adjacency].count(3) == 2

    def test_vertex_count_identity(self, tree15, zigzag7):
        for q in (tree15, zigzag7):
            tree = gs.cycle_tree(q)
            assert 3 * len(tree.nodes) - (len(tree.nodes) - 1) == q.n

    def test_not_type_a_rejected(self):
        q = gs.Quiver.from_arrows(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
        with pytest.raises(gs.NotTypeAError):
            gs.cycle_tree(q)

    def test_dangling_arrow_rejected(self):
        q = gs.Quiver.from_arrows(4, [(1, 2), (2, 3), (3, 1), (3, 4)])
        with pytest.raises(gs.NotIrreducibleError):
            gs.cycle_tree(q)

    def test_no_cycles_rejected(self):
        with pytest.raises(gs.NoCyclesError):
            gs.cycle_tree(load("a3linear"))

    def test_random_trees_roundtrip(self):
        rng = random.Random(14)
        for _ in range(100):
            q, _ = random_tree_quiver(rng, 10)
            tree = gs.cycle_tree(q)
            n_cycles = len(tree.nodes)
            assert q.n == 2 * n_cycles + 1
            assert len(tree.edges) == n_cycles - 1
            for v in range(1, q.n + 1):
                assert q.degree(v) in (2, 4)


    def test_adjacency_matches_edge_scan(self):
        # oracle: degree, neighbors and leaves read off the edge list
        rng = random.Random(15)
        for _ in range(60):
            q, _ = random_tree_quiver(rng, 30)
            tree = gs.cycle_tree(q)
            for a, b, v in tree.edges:
                assert v in tree.nodes[a] and v in tree.nodes[b]
            for i in range(len(tree.nodes)):
                scan = [(b, v) for a, b, v in tree.edges if a == i]
                scan += [(a, v) for a, b, v in tree.edges if b == i]
                assert tree.adjacency[i] == tuple(sorted(scan))
            leaves = [
                tri for i, tri in enumerate(tree.nodes)
                if sum(i in (a, b) for a, b, _ in tree.edges) <= 1
            ]
            assert gs.leaf_cycles(tree) == tuple(sorted(leaves, key=min))


class TestLeafCycles:
    def test_single(self, a3cycle):
        assert gs.leaf_cycles(gs.cycle_tree(a3cycle)) == ((1, 2, 3),)

    def test_zigzag(self, zigzag7):
        assert gs.leaf_cycles(gs.cycle_tree(zigzag7)) == ((1, 2, 3), (5, 6, 7))

    def test_tree15_leaves(self, tree15):
        tree = gs.cycle_tree(tree15)
        leaves = gs.leaf_cycles(tree)
        # computed from tree degrees: the three chain ends and both stubs
        assert leaves == tuple(
            tree.nodes[i] for i in sorted(
                (i for i in range(15) if len(tree.adjacency[i]) <= 1),
                key=lambda i: min(tree.nodes[i]),
            )
        )
        assert (1, 2, 3) in leaves and (11, 12, 13) in leaves
        assert len(leaves) == 4

    def test_sorted_by_min_vertex(self):
        rng = random.Random(8)
        for _ in range(40):
            q, _ = random_tree_quiver(rng, 8)
            leaves = gs.leaf_cycles(gs.cycle_tree(q))
            assert [min(t) for t in leaves] == sorted(min(t) for t in leaves)


class TestCanonicalization:
    def test_canonical_form_identifies_relabelings(self):
        q = gs.Quiver.from_arrows(3, [(1, 2), (2, 3), (3, 1)])
        relabeled = gs.Quiver.from_arrows(3, [(2, 3), (3, 1), (1, 2)])
        assert canonical_form(q) == canonical_form(relabeled)
        other = gs.Quiver.from_arrows(3, [(1, 2), (2, 3)])
        assert canonical_form(q) != canonical_form(other)
