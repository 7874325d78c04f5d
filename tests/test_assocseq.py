"""Stage parts, the full constructed sequence, and the general pipeline."""

from __future__ import annotations

import random

import pytest

import greenseq as gs
from conftest import load
from helpers import random_tree_quiver

# The sixteen stage sequences of the 31-vertex fixture, application order.
TREE15_STAGES = {
    0: (1,),
    1: (2, 3, 1),
    2: (4, 5, 3, 1),
    3: (6, 7, 1, 4),
    4: (8, 9, 7, 1, 4),
    5: (10, 11, 4, 8),
    6: (12, 13, 11, 4, 8),
    7: (14, 15, 9, 7, 1, 13),
    8: (16, 17, 15, 9, 7, 1, 13),
    9: (18, 19, 17, 15, 9, 7, 1, 13),
    10: (20, 21, 13, 18),
    11: (22, 23, 18, 20),
    12: (24, 25, 20, 22),
    13: (26, 27, 25, 20, 22),
    14: (28, 29, 27, 25, 20, 22),
    15: (30, 31, 21, 13, 23),
}

ZIG_SEQ_123 = (1, 2, 3, 1, 4, 5, 3, 1, 6, 7, 5, 3, 1)
ZIG_SEQ_567 = (6, 7, 5, 6, 3, 4, 5, 6, 1, 2, 6, 3)


class TestStageParts:
    def test_stage_zero(self, t15):
        parts = gs.stage_parts(t15, 0)
        assert parts.sequence() == (1,)
        assert parts.d == parts.c == parts.b == ()

    def test_tree15_all_sixteen(self, t15):
        for k, expected in TREE15_STAGES.items():
            assert gs.stage_parts(t15, k).sequence() == expected, k

    def test_part_shapes(self, t15):
        for k in range(1, 16):
            parts = gs.stage_parts(t15, k)
            cyc = t15.cycle(k)
            assert parts.d == (cyc.y, cyc.z)
            assert (parts.c == ()) == cyc.up
            assert (parts.b == ()) == (gs.base_cycle(t15, k) == 1)
            assert parts.a == (gs.closing_vertex(t15, k),)

    def test_zigzag_stage_one(self, zigzag7):
        e = gs.embed(zigzag7, (1, 2, 3))
        assert gs.stage_parts(e, 1).sequence() == (2, 3, 1)

    def test_out_of_range(self, t15):
        with pytest.raises(gs.EmbeddingError):
            gs.stage_parts(t15, 16)


class TestAssociatedSequence:
    def test_zigzag_both_roots(self, zigzag7):
        assert gs.associated_sequence(gs.embed(zigzag7, (1, 2, 3))) == ZIG_SEQ_123
        assert gs.associated_sequence(gs.embed(zigzag7, (5, 6, 7))) == ZIG_SEQ_567
        assert gs.verify_green(zigzag7, ZIG_SEQ_123).is_maximal
        assert gs.verify_green(zigzag7, ZIG_SEQ_567).is_maximal

    def test_tree15_concatenation(self, t15, tree15):
        seq = gs.associated_sequence(t15)
        assert seq == tuple(v for k in range(16) for v in TREE15_STAGES[k])
        assert gs.verify_green(tree15, seq).is_maximal

    def test_single_cycle_length_four(self, a3cycle):
        seq = gs.associated_sequence(gs.embed(a3cycle))
        assert seq == (1, 2, 3, 1)
        assert gs.verify_green(a3cycle, seq).is_maximal

    def test_random_trees_always_maximal_green(self):
        rng = random.Random(61)
        for _ in range(120)[:120]:
            q, _ = random_tree_quiver(rng, 12)
            for leaf in gs.leaf_cycles(gs.cycle_tree(q)):
                e = gs.embed(q, leaf)
                trace = gs.verify_green(q, gs.associated_sequence(e))
                assert trace.is_green
                assert gs.green_vertices(trace.final_state) == ()

    def test_b_part_constant_along_descent_path(self):
        # every cycle on a descent path, and the base cycle itself, shares
        # one B sub-sequence with the stage at the top of the path
        rng = random.Random(62)
        checked = 0
        for _ in range(60):
            q, root = random_tree_quiver(rng, 12)
            e = gs.embed(q, root)
            for k in range(1, e.n_cycles + 1):
                path = gs.descent_path(e, k)
                if not path:
                    continue
                b = gs.stage_parts(e, k).b
                for j in list(path) + [gs.base_cycle(e, k)]:
                    assert gs.stage_parts(e, j).b == b
                    checked += 1
        assert checked > 100

    def test_stage_support_inside_processed_cycles(self, t15):
        for k in range(16):
            allowed = {t15.cycle(1).x}
            for j in range(1, k + 1):
                c = t15.cycle(j)
                allowed |= {c.x, c.y, c.z}
            assert set(gs.stage_parts(t15, k).sequence()) <= allowed

    def test_prefix_restricts_to_subquiver_mgs(self, zigzag7, tree15):
        for q, root in ((zigzag7, (1, 2, 3)), (tree15, (1, 2, 3))):
            e = gs.embed(q, root)
            for i in range(1, e.n_cycles + 1):
                verts = sorted(
                    {e.cycle(1).x}
                    | {v for j in range(1, i + 1) for v in e.cycle(j).triple}
                )
                sub, mapping = gs.subquiver(q, verts)
                local = {v: idx + 1 for idx, v in enumerate(mapping)}
                prefix = [
                    local[v] for k in range(i + 1) for v in gs.stage_parts(e, k).sequence()
                ]
                assert gs.verify_green(sub, prefix).is_maximal, (root, i)

    def test_first_stage_and_d_parts_hit_green_vertices(self, tree15, t15):
        # positional check: the opening pair of every stage lands on
        # vertices that are still green at that point
        seq = gs.associated_sequence(t15)
        assert gs.verify_green(tree15, seq).is_green
        d_steps = set()
        pos = 0
        for k in range(16):
            parts = gs.stage_parts(t15, k)
            d_steps.update(range(pos, pos + len(parts.d)))
            pos += len(parts.sequence())
        # replay the prefix independently and read each D vertex's colour
        eq = gs.frame(tree15)
        for pos, v in enumerate(seq):
            if pos in d_steps:
                assert gs.vertex_color(eq, v) == "green", pos
            eq = gs.matrix_mutate(eq, v)


class TestPipeline:
    def test_linear_path_source_order(self):
        q = load("a3linear")
        result = gs.mgs_for_type_a(q)
        assert result.sequence == (1, 2, 3)

    def test_zigzag_whole(self, zigzag7):
        result = gs.mgs_for_type_a(zigzag7)
        assert result.sequence == ZIG_SEQ_123  # default root is the leaf at 1,2,3
        assert len(result.decomposition.summands) == 1

    def test_tail_fixture_part_sequences(self):
        q1 = load("tail10")
        r1 = gs.mgs_for_type_a(q1)
        assert [tuple(s) for s in r1.summand_sequences] == [
            ((1,) + (2, 3, 1) + (4, 5, 3, 1) + (6, 7, 1, 4)),
            (1,), (1,), (1,),
        ]
        assert r1.sequence == (1, 2, 3, 1, 4, 5, 3, 1, 6, 7, 1, 4, 10, 9, 8)

        q2 = load("tail13")
        r2 = gs.mgs_for_type_a(q2)
        assert r2.summand_sequences[0] == (
            (1,) + (2, 3, 1) + (4, 5, 3, 1) + (6, 7, 1, 4) + (8, 9, 4, 6) + (10, 11, 7, 1, 9)
        )
        assert r2.sequence == r2.summand_sequences[0] + (12, 13)

        r = load("spread3")
        assert gs.mgs_for_type_a(r).sequence == (1, 2, 3)

    def test_three_part_sum_pipeline(self):
        q = load("sum26")
        result = gs.mgs_for_type_a(q)
        assert gs.verify_green(q, result.sequence).is_maximal
        # whole = q1 pipeline, then q2 shifted by 10, then the acyclic tail
        q1_seq = (1, 2, 3, 1, 4, 5, 3, 1, 6, 7, 1, 4, 10, 9, 8)
        q2_seq = tuple(
            v + 10 for v in (1, 2, 3, 1, 4, 5, 3, 1, 6, 7, 1, 4, 8, 9, 4, 6, 10, 11, 7, 1, 9, 12, 13)
        )
        assert result.sequence == q1_seq + q2_seq + (24, 25, 26)

    def test_rejects_non_type_a_summand(self):
        q = gs.Quiver.from_arrows(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
        with pytest.raises(gs.NotTypeAError):
            gs.mgs_for_type_a(q)

    def test_random_mixed_sums(self):
        rng = random.Random(71)
        for _ in range(50):
            parts = []
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.3:
                    n = rng.randint(1, 3)
                    parts.append(
                        gs.Quiver.from_arrows(
                            n,
                            [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < 0.5],
                        )
                    )
                else:
                    parts.append(random_tree_quiver(rng, 4)[0])
            q = parts[0]
            for part in parts[1:]:
                sources = rng.sample(range(1, q.n + 1), rng.randint(1, min(2, q.n)))
                pairs = sorted({(a, q.n + rng.randint(1, part.n)) for a in sources})
                q = gs.direct_sum(q, part, pairs)
            result = gs.mgs_for_type_a(q)
            assert gs.verify_green(q, result.sequence).is_maximal
