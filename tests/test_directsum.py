"""Direct sums, junction coloring, decomposition, and concatenation."""

from __future__ import annotations

import random

import pytest

import greenseq as gs
from conftest import load
from helpers import random_tree_quiver

E35_GLUING = ((1, 5), (1, 8), (1, 11), (3, 8), (4, 9), (4, 11))


def e35_parts():
    q = load("sum11")
    first, _ = gs.subquiver(q, range(1, 5))
    second_prime, second_map = gs.subquiver(q, range(5, 12))
    return q, first, second_prime, second_map


class TestDirectSum:
    def test_rebuilds_eleven_vertex_fixture(self):
        q, first, second_prime, second_map = e35_parts()
        assert second_map == (5, 6, 7, 8, 9, 10, 11)
        assert gs.direct_sum(first, second_prime, E35_GLUING) == q

    def test_empty_gluing_is_disjoint_union(self):
        a = gs.Quiver.from_arrows(2, [(1, 2)])
        b = gs.Quiver.from_arrows(2, [(2, 1)])
        out = gs.direct_sum(a, b, ())
        assert out.arrow_dict() == {(1, 2): 1, (4, 3): 1}

    def test_one_pair_gives_linear_a2(self):
        a1 = gs.Quiver(1, ())
        assert gs.direct_sum(a1, a1, ((1, 2),)).arrows == ((1, 2, 1),)

    def test_bad_endpoints(self):
        a1 = gs.Quiver(1, ())
        with pytest.raises(gs.DirectSumError):
            gs.direct_sum(a1, a1, ((2, 2),))
        with pytest.raises(gs.DirectSumError):
            gs.direct_sum(a1, a1, ((1, 1),))


class TestColorCount:
    def test_three_colors(self):
        _, first, second_prime, _ = e35_parts()
        assert gs.color_count(first, second_prime, E35_GLUING) == 3

    def test_two_colors_other_bracketing(self):
        q = load("sum11")
        first_prime, mapping = gs.subquiver(q, (1, 2, 3, 4, 6, 7, 8, 9, 10, 11))
        third, _ = gs.subquiver(q, (5,))
        # junction sources 1 and 6 sit at local positions 1 and 5
        assert mapping.index(1) == 0 and mapping.index(6) == 4
        pairs = ((1, 11), (5, 11))
        assert gs.color_count(first_prime, third, pairs) == 2
        rebuilt = gs.direct_sum(first_prime, third, pairs)
        relabel = {old: new for new, old in enumerate(mapping + (5,), start=1)}
        expected = gs.Quiver.from_arrows(
            11, [(relabel[s], relabel[d], m) for s, d, m in q.arrows]
        )
        assert rebuilt == expected

    def test_single_pair(self):
        a1 = gs.Quiver(1, ())
        assert gs.color_count(a1, a1, ((1, 2),)) == 1

    def test_double_arrow_junction_rejected(self):
        a1 = gs.Quiver(1, ())
        with pytest.raises(gs.DirectSumError, match="double arrow"):
            gs.color_count(a1, a1, ((1, 2), (1, 2)))


class TestNetArrows:
    def test_plain_quiver(self, a3cycle):
        assert gs.net_arrows(a3cycle, 1, 2) == 1
        assert gs.net_arrows(a3cycle, 2, 1) == -1

    def test_framed_unit(self, a3cycle):
        eq = gs.frame(a3cycle)
        assert gs.net_arrows(eq, 1, 1, frozen=True) == 1
        assert gs.net_arrows(eq, 1, 2, frozen=True) == 0

    def test_after_one_mutation(self, a3cycle):
        assert gs.net_arrows(gs.mutate(a3cycle, 1), 2, 1) == 1

    def test_frozen_on_plain_quiver_rejected(self, a3cycle):
        with pytest.raises(gs.QuiverError):
            gs.net_arrows(a3cycle, 1, 1, frozen=True)


class TestDecompose:
    def test_sum11(self):
        dec = gs.decompose(load("sum11"))
        assert dec.summands == ((1, 2, 3, 4), (6, 7, 8, 9, 10, 11), (5,))
        assert dec.cross_arrows == (
            (1, 5, 1), (1, 8, 1), (1, 11, 1), (3, 8, 1), (4, 9, 1), (4, 11, 1), (6, 5, 1),
        )
        assert dec.colors == (1, 1, 1, 2, 3, 3, 4)
        assert dec.color_counts() == (3, 1, 0)

    def test_report_text(self):
        text = gs.decomposition_report(gs.decompose(load("sum11")))
        assert "summand 1: vertices {1,2,3,4} irreducible" in text
        assert "junction 1 -> 5 color f1" in text
        assert "junction 6 -> 5 color f4" in text

    def test_triangle_is_irreducible(self, a3cycle):
        dec = gs.decompose(a3cycle)
        assert dec.summands == ((1, 2, 3),)
        assert dec.cross_arrows == ()

    def test_linear_a3_splits_to_singletons(self):
        dec = gs.decompose(load("a3linear"))
        assert dec.summands == ((1,), (2,), (3,))

    def test_cross_arrows_all_forward(self):
        rng = random.Random(21)
        for _ in range(60):
            parts = [random_tree_quiver(rng, 3)[0] for _ in range(rng.randint(1, 3))]
            q = parts[0]
            for part in parts[1:]:
                a = rng.randint(1, q.n)
                b = q.n + rng.randint(1, part.n)
                q = gs.direct_sum(q, part, ((a, b),))
            dec = gs.decompose(q)
            pos = {v: p for p, vs in enumerate(dec.summands) for v in vs}
            for s, d, _ in dec.cross_arrows:
                assert pos[s] < pos[d]

    def test_double_arrow_junction_stays_fused(self):
        q = gs.Quiver.from_arrows(2, [(1, 2, 2)])
        dec = gs.decompose(q)
        assert dec.summands == ((1, 2),)
        assert "summand 1: vertices {1,2} fused" in gs.decomposition_report(dec)

    def test_two_way_merge(self):
        # 1 => 2 double arrow forces fusion; 3 feeding and fed by the fused
        # pair must join it as well
        q = gs.Quiver.from_arrows(3, [(1, 2, 2), (1, 3), (3, 2)])
        assert gs.decompose(q).summands == ((1, 2, 3),)

    def test_fusion_closing_a_longer_cycle_fuses_the_cycle(self):
        # fusing 1 => 2 leaves the path 1 -> 3 -> 4 -> 2 running out of and
        # back into one summand, so the whole cycle of groups fuses
        q = gs.Quiver.from_arrows(4, [(1, 2, 2), (1, 3), (3, 4), (4, 2)])
        dec = gs.decompose(q)
        assert dec.summands == ((1, 2, 3, 4),) and dec.cross_arrows == ()
        assert gs.decomposition_report(dec) == "summand 1: vertices {1,2,3,4} fused\n"


class TestJunctionInvariants:
    def _one_colored_sum(self, rng):
        q1, _ = random_tree_quiver(rng, 3)
        q2, _ = random_tree_quiver(rng, 3)
        a = rng.randint(1, q1.n)
        targets = rng.sample(range(q1.n + 1, q1.n + q2.n + 1), rng.randint(1, min(2, q2.n)))
        pairs = tuple((a, b) for b in targets)
        return gs.direct_sum(q1, q2, pairs), q1, a, targets

    def test_one_colored_common_value_and_sign_coherence(self):
        # along any mutation run on the first summand, all junction targets
        # of a vertex carry the same net count, which also equals the count
        # into the source's frozen companion
        rng = random.Random(31)
        for _ in range(80):
            q, q1, a, targets = self._one_colored_sum(rng)
            eq = gs.frame(q)
            for _ in range(rng.randint(1, 12)):
                k = rng.randint(1, q1.n)
                eq = gs.matrix_mutate(eq, k)
                for x in range(1, q1.n + 1):
                    counts = {eq.entry(x, b) for b in targets}
                    assert len(counts) == 1
                    assert eq.entry(x, a, frozen=True) == counts.pop()

    def test_t_colored_junction_decomposition(self):
        # per-color counts in the frozen companions add up to the visible
        # arrow counts into each target
        rng = random.Random(41)
        for _ in range(60):
            q1, _ = random_tree_quiver(rng, 3)
            q2, _ = random_tree_quiver(rng, 4)
            sources = rng.sample(range(1, q1.n + 1), min(q1.n, rng.randint(1, 3)))
            pairs = []
            for a in sources:
                for b in rng.sample(range(q1.n + 1, q1.n + q2.n + 1), rng.randint(1, min(3, q2.n))):
                    pairs.append((a, b))
            pairs = sorted(set(pairs))
            q = gs.direct_sum(q1, q2, pairs)
            eq = gs.frame(q)
            for _ in range(rng.randint(1, 12)):
                eq = gs.matrix_mutate(eq, rng.randint(1, q1.n))
            for x in range(1, q1.n + 1):
                for b in range(q1.n + 1, q.n + 1):
                    expected = sum(eq.entry(x, a, frozen=True) for a, bb in pairs if bb == b)
                    assert eq.entry(x, b) == expected


class TestConcatMgs:
    def test_two_singletons(self):
        q = gs.Quiver.from_arrows(2, [(1, 2)])
        dec = gs.decompose(q)
        assert dec.summands == ((1,), (2,))
        assert gs.concat_mgs(dec, ((1,), (1,))) == (1, 2)

    def test_sum11_with_per_part_sequences(self):
        # the first summand is finite type (enumerable); the six-vertex one
        # is not, so a breadth-first-found sequence is pinned and verified
        q = load("sum11")
        dec = gs.decompose(q)
        first, _ = dec.part(0)
        # the four-vertex circuit is finite type but not type A: bounded search
        parts = [gs.enumerate_mgs(first, max_len=24)[0], (1, 3, 4, 5, 6, 2, 1, 4), (1,)]
        for p, seq in enumerate(parts):
            sub, _ = dec.part(p)
            assert gs.is_maximal_green(sub, seq).is_maximal
        seq = gs.concat_mgs(dec, parts)
        assert gs.is_maximal_green(q, seq).is_maximal
        assert len(seq) == sum(map(len, parts))

    def test_bad_part_rejected(self):
        q = gs.Quiver.from_arrows(2, [(1, 2)])
        dec = gs.decompose(q)
        with pytest.raises(gs.directsum.SummandNotGreenError):
            gs.concat_mgs(dec, ((1, 1), (1,)))

    def test_random_sums_of_small_parts(self):
        # oracle sequences per summand always concatenate to one of the sum
        rng = random.Random(55)
        for _ in range(200):
            n_parts = rng.randint(2, 3)
            parts = []
            for _ in range(n_parts):
                if rng.random() < 0.25:
                    n = rng.randint(1, 3)
                    parts.append(
                        gs.Quiver.from_arrows(
                            n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < 0.5]
                        )
                    )
                else:
                    parts.append(random_tree_quiver(rng, 2)[0])
            q = parts[0]
            for part in parts[1:]:
                sources = rng.sample(range(1, q.n + 1), rng.randint(1, min(2, q.n)))
                pairs = sorted(
                    {(a, q.n + rng.randint(1, part.n)) for a in sources for _ in range(rng.randint(1, 2))}
                )
                q = gs.direct_sum(q, part, pairs)
            dec = gs.decompose(q)
            seqs = [gs.first_mgs(dec.part(p)[0]) for p in range(len(dec.summands))]
            seq = gs.concat_mgs(dec, seqs)
            assert gs.is_maximal_green(q, seq).is_maximal
