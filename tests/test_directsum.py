"""Direct sums, junction coloring, decomposition, and concatenation."""

from __future__ import annotations

import dataclasses
import random
import re

import pytest

import greenseq as gs
from conftest import load
from greenseq.directsum import _strongly_connected_components, _successors
from helpers import color_counts, mutual_reachability_classes, random_quiver, random_tree_quiver

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
        assert out.arrows == ((1, 2, 1), (4, 3, 1))

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

    def test_pairs_read_once(self):
        # an iterator of pairs counts as the same pairs in a list: checking
        # the ends must not use it up before the count
        path = gs.Quiver(3, ((1, 2, 1), (2, 3, 1)))
        assert gs.color_count(path, path, iter([(1, 4), (2, 5)])) == 2
        with pytest.raises(gs.DirectSumError, match="^junction pair 1 -> 4 carries a double arrow$"):
            gs.color_count(path, path, iter([(1, 4), (1, 4)]))
        with pytest.raises(gs.QuiverError, match="^5 is not a sequence of gluing pair values$"):
            gs.color_count(path, path, 5)


class TestNetArrows:
    def test_plain_quiver(self, a3cycle):
        assert a3cycle.multiplicity(1, 2) - a3cycle.multiplicity(2, 1) == 1
        assert a3cycle.multiplicity(2, 1) - a3cycle.multiplicity(1, 2) == -1

    def test_framed_unit(self, a3cycle):
        eq = gs.frame(a3cycle)
        assert eq.entry(1, 1, frozen=True) == 1
        assert eq.entry(1, 2, frozen=True) == 0

    def test_after_one_mutation(self, a3cycle):
        assert gs.frame(gs.mutate(a3cycle, 1)).entry(2, 1) == 1


class TestDecompose:
    def test_sum11(self):
        dec = gs.decompose(load("sum11"))
        assert dec.summands == ((1, 2, 3, 4), (6, 7, 8, 9, 10, 11), (5,))
        assert dec.cross_arrows == (
            (1, 5, 1), (1, 8, 1), (1, 11, 1), (3, 8, 1), (4, 9, 1), (4, 11, 1), (6, 5, 1),
        )
        assert dec.colors == (1, 1, 1, 2, 3, 3, 4)
        assert color_counts(dec) == (3, 1, 0)

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

    @pytest.mark.parametrize("p, message", [
        (-1, "summand index -1 out of range 0..2"), (3, "summand index 3 out of range 0..2"),
        (1.0, "summand index 1.0 is not an integer"),
    ])
    def test_part_refuses_an_index_outside_the_summands(self, p, message):
        # -1 must not read the last summand
        dec = gs.decompose(load("a3linear"))
        with pytest.raises(gs.QuiverError, match=f"^{re.escape(message)}$"):
            dec.part(p)

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

    def test_report_kinds_match_per_summand_components(self):
        # reference: components found again on each summand's own subquiver
        rng = random.Random(22)
        fused = 0
        for _ in range(400):
            q = random_quiver(rng, max_n=9, max_mult=2)
            dec = gs.decompose(q)
            want = []
            for p, verts in enumerate(dec.summands, start=1):
                part, _ = dec.part(p - 1)
                strong = len(_strongly_connected_components(_successors(part))) == 1
                fused += not strong
                want.append(
                    f"summand {p}: vertices {{{','.join(map(str, verts))}}} "
                    + ("irreducible" if strong else "fused")
                )
            lines = gs.decomposition_report(dec).splitlines()
            assert lines[: len(want)] == want, q
        assert fused >= 100


class TestColorCounts:
    """``decompose`` gives each summand one colour per distinct source of
    its cross arrows."""

    @staticmethod
    def by_scan(dec: gs.Decomposition) -> tuple[int, ...]:
        # the oracle: find each source's summand by scanning the summands
        sources = [set() for _ in dec.summands]
        for src, _, _ in dec.cross_arrows:
            sources[next(p for p, verts in enumerate(dec.summands) if src in verts)].add(src)
        return tuple(len(s) for s in sources)

    def test_matches_summand_scan(self):
        rng = random.Random(24)
        for _ in range(300):
            q = random_quiver(rng, max_n=rng.choice((6, 12)), max_mult=2)
            dec = gs.decompose(q)
            assert color_counts(dec) == self.by_scan(dec), q
        for _ in range(40):
            parts = [random_tree_quiver(rng, 4)[0] for _ in range(rng.randint(2, 4))]
            q = parts[0]
            for part in parts[1:]:
                pairs = {(rng.randint(1, q.n), q.n + rng.randint(1, part.n)) for _ in range(3)}
                q = gs.direct_sum(q, part, sorted(pairs))
            dec = gs.decompose(q)
            assert color_counts(dec) == self.by_scan(dec), q

    def test_long_path(self):
        # one summand per vertex, so the oracle's scan is quadratic here
        n = 4000
        dec = gs.decompose(gs.Quiver(n, tuple((i, i + 1, 1) for i in range(1, n))))
        assert len(dec.summands) == n
        assert color_counts(dec) == (1,) * (n - 1) + (0,) == self.by_scan(dec)


class TestComponents:
    def test_components_match_mutual_reachability(self):
        # the graph decompose splits: Q with each double arrow also read
        # backwards
        rng = random.Random(23)
        for _ in range(300):
            q = random_quiver(rng, max_n=rng.choice((6, 12, 20)), max_mult=2)
            adj = _successors(q)
            for s, d, m in q.arrows:
                if m >= 2:
                    adj[d].append(s)
            assert sorted(_strongly_connected_components(adj)) == mutual_reachability_classes(adj), q

    def test_long_path_and_cycle(self):
        # no walk recurses, so twenty thousand vertices in a row are fine
        n = 20000
        path = gs.Quiver.from_arrows(n, [(i + 1, i) for i in range(1, n)])
        dec = gs.decompose(path)
        assert dec.summands == tuple((v,) for v in range(n, 0, -1))
        assert dec.colors == tuple(range(n - 1, 0, -1))  # vertex n is the first junction
        cycle = gs.Quiver.from_arrows(n, [(i, i % n + 1) for i in range(1, n + 1)])
        dec = gs.decompose(cycle)
        assert dec.summands == (tuple(range(1, n + 1)),) and dec.cross_arrows == ()
        assert gs.decomposition_report(dec).endswith("} irreducible\n")


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
        assert gs.concat_mgs(dec, ((1,), (1,))).sequence == (1, 2)

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
            assert gs.verify_green(sub, seq).is_maximal
        seq = gs.concat_mgs(dec, parts).sequence
        assert gs.verify_green(q, seq).is_maximal
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
            seq = gs.concat_mgs(dec, seqs).sequence
            assert gs.verify_green(q, seq).is_maximal

    def test_sequence_count_must_match_summands(self):
        dec = gs.decompose(gs.Quiver.from_arrows(2, [(1, 2)]))
        with pytest.raises(gs.DirectSumError, match=r"^expected 2 sequences, got 1$"):
            gs.concat_mgs(dec, ((1,),))

    def test_local_vertex_out_of_range(self):
        dec = gs.decompose(gs.Quiver.from_arrows(4, [(1, 2), (2, 3), (3, 1), (3, 4)]))
        assert dec.summands == ((1, 2, 3), (4,))
        with pytest.raises(gs.QuiverError, match=r"^vertex 2 out of range 1\.\.1$"):
            gs.concat_mgs(dec, ((1, 2, 3, 1), (2,)))
        # the range is checked before any walk: an out-of-range vertex in a
        # later summand is reported ahead of an earlier summand that is not
        # maximal, and ahead of a red step before it in its own summand
        with pytest.raises(gs.QuiverError, match=r"^vertex 2 out of range 1\.\.1$"):
            gs.concat_mgs(dec, ((1,), (2,)))
        with pytest.raises(gs.QuiverError, match=r"^vertex 0 out of range 1\.\.3$"):
            gs.concat_mgs(dec, ((1, 1, 0), (1,)))

    def test_whole_walk_failure_is_reported_when_every_part_passes(self, monkeypatch):
        # the direct-sum theorem rules this out; a walk of the sum that
        # disagrees with its parts is reported as such, not passed
        dec = gs.decompose(gs.Quiver.from_arrows(2, [(1, 2)]))
        walk = gs.directsum.verify_green

        def whole_not_maximal(q, seq):
            trace = walk(q, seq)
            return dataclasses.replace(trace, induced=None) if q is dec.quiver else trace

        monkeypatch.setattr(gs.directsum, "verify_green", whole_not_maximal)
        msg = r"^concatenation failed to verify on the full quiver$"
        with pytest.raises(gs.directsum.SummandNotGreenError, match=msg):
            gs.concat_mgs(dec, ((1,), (1,)))

    def test_whole_walk_decides_on_random_decompositions(self):
        # the concatenation verifies exactly when every part's sequence is
        # maximal on its part; otherwise the first part that is not is named
        rng = random.Random(57)
        quivers = [random_quiver(rng, max_n=6) for _ in range(60)]
        for _ in range(20):
            parts = [random_tree_quiver(rng, 3)[0] for _ in range(rng.randint(2, 3))]
            q = parts[0]
            for part in parts[1:]:
                sources = rng.sample(range(1, q.n + 1), rng.randint(1, min(2, q.n)))
                pairs = sorted({(a, q.n + rng.randint(1, part.n)) for a in sources})
                q = gs.direct_sum(q, part, pairs)
            quivers.append(q)
        checked = passed = summed = 0
        for q in quivers:
            dec = gs.decompose(q)
            subs = [dec.part(p)[0] for p in range(len(dec.summands))]
            options = [_candidate_sequences(rng, sub) for sub in subs]
            for _ in range(12):
                seqs = [rng.choice(opts) for opts in options]
                bad = [p for p, (sub, seq) in enumerate(zip(subs, seqs))
                       if not gs.verify_green(sub, seq).is_maximal]
                checked += 1
                if bad:
                    msg = rf"^sequence for summand {bad[0] + 1} is not a maximal green sequence$"
                    with pytest.raises(gs.directsum.SummandNotGreenError, match=msg):
                        gs.concat_mgs(dec, seqs)
                else:
                    whole = gs.concat_mgs(dec, seqs)
                    assert whole.is_maximal
                    assert whole.sequence == tuple(
                        verts[k - 1] for verts, seq in zip(dec.summands, seqs) for k in seq
                    )
                    passed += 1
                    summed += len(subs) > 1
        assert checked == 12 * len(quivers) and 0 < summed < passed < checked

    def test_pipeline_walks_the_sum_once(self, monkeypatch):
        # on success mgs_for_type_a builds each summand's subquiver once, to
        # construct its sequence, and makes one verifying walk, of the sum
        a3 = load("a3cycle")
        q = gs.direct_sum(a3, load("zig5"), [(1, 4), (2, 6)])
        q = gs.direct_sum(q, a3, [(1, q.n + 1), (5, q.n + 2)])
        walks, built = [], []
        walk, build = gs.directsum.verify_green, gs.directsum.subquiver

        def counted_walk(quiver, seq):
            walks.append(quiver)
            return walk(quiver, seq)

        def counted_build(quiver, vertices):
            built.append(tuple(vertices))
            return build(quiver, vertices)

        monkeypatch.setattr(gs.directsum, "verify_green", counted_walk)
        monkeypatch.setattr(gs.directsum, "subquiver", counted_build)
        result = gs.mgs_for_type_a(q)
        assert len(result.decomposition.summands) == 3
        assert result.trace.is_maximal and walks == [q]
        assert built == list(result.decomposition.summands)


def _candidate_sequences(rng: random.Random, q: gs.Quiver) -> list[tuple[int, ...]]:
    """Sequences for ``q``: random green walks (maximal when they end all
    red), their proper prefixes, and each with a repeated, so red, step."""
    out = []
    for _ in range(4):
        eq, seq = gs.frame(q), []
        while len(seq) < 4 * q.n and (greens := gs.green_vertices(eq)):
            k = rng.choice(greens)
            eq = gs.matrix_mutate(eq, k)
            seq.append(k)
        out.append(tuple(seq))
        if seq:
            out.append(tuple(seq[:rng.randrange(len(seq))]))
            i = rng.randrange(len(seq))
            out.append(tuple(seq[:i + 1] + seq[i:]))
    return out
