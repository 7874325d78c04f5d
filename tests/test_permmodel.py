"""Stage rotations, cumulative permutations, and the identity report."""

from __future__ import annotations

import random

import pytest

import greenseq as gs
from helpers import random_tree_quiver


class TestStageRotation:
    def test_stage_zero_identity(self, t15):
        assert gs.stage_rotation(t15, 0).is_identity()

    def test_zigzag_stage_one(self, zigzag7):
        e = gs.embed(zigzag7, (1, 2, 3))
        # applied order (2, 3, 1): drop the first step, cycle the rest
        tau = gs.stage_rotation(e, 1)
        assert tau.apply(3) == 1 and tau.apply(1) == 3 and tau.apply(2) == 2

    def test_tree15_stage_five(self, t15):
        # applied order (10, 11, 4, 8) gives the 3-cycle (11 4 8)
        tau = gs.stage_rotation(t15, 5)
        assert tau.apply(11) == 4 and tau.apply(4) == 8 and tau.apply(8) == 11
        assert tau.apply(10) == 10

    def test_rotation_moves_exactly_the_tail(self, t15):
        for k in range(1, 16):
            seq = gs.stage_parts(t15, k).sequence()
            tau = gs.stage_rotation(t15, k)
            moved = {v for v in range(1, 32) if tau.apply(v) != v}
            assert moved == set(seq[1:])


class TestStagePermutation:
    def test_zero_is_identity(self, t15):
        assert gs.stage_permutation(t15, 0).is_identity()

    def test_final_matches_induced(self, zigzag7, tree15, tree16):
        for q in (zigzag7, tree15, tree16):
            for leaf in gs.leaf_cycles(gs.cycle_tree(q)):
                e = gs.embed(q, leaf)
                seq = gs.associated_sequence(e)
                assert gs.stage_permutation(e, e.n_cycles) == gs.induced_permutation(q, seq)

    def test_prefix_matches_subquiver_induced(self, t15, tree15):
        # the stage-k permutation equals the one induced on the subquiver
        # of the first k cycles, under the local numbering
        for k in range(1, 16):
            verts = sorted(
                {t15.cycle(1).x} | {v for j in range(1, k + 1) for v in t15.cycle(j).triple}
            )
            sub, mapping = gs.subquiver(tree15, verts)
            local = {v: i + 1 for i, v in enumerate(mapping)}
            prefix = [local[v] for j in range(k + 1) for v in gs.stage_parts(t15, j).sequence()]
            induced = gs.induced_permutation(sub, prefix)
            sigma = gs.stage_permutation(t15, k)
            for v in verts:
                assert local[sigma.apply(v)] == induced.apply(local[v])

    def test_random_final_agreement(self):
        rng = random.Random(81)
        for _ in range(80):
            q, root = random_tree_quiver(rng, 10)
            e = gs.embed(q, root)
            seq = gs.associated_sequence(e)
            assert gs.stage_permutation(e, e.n_cycles) == gs.induced_permutation(q, seq)

    def test_rotation_table_consistent(self, t16):
        table = gs.rotation_table(t16)
        assert len(table) == 17
        sigma = gs.Permutation.identity(t16.quiver.n)
        for k in range(17):
            tau = gs.stage_rotation(t16, k)
            sigma = tau.then(sigma)
            assert table[k] == (tau, sigma)
            assert gs.stage_permutation(t16, k) == sigma

    def test_stage_permutation_folds_only_to_k(self, t16, monkeypatch):
        calls = []
        original = gs.permmodel.stage_rotation

        def counted(e, k):
            calls.append(k)
            return original(e, k)

        monkeypatch.setattr(gs.permmodel, "stage_rotation", counted)
        for k in range(17):
            calls.clear()
            gs.stage_permutation(t16, k)
            assert calls == list(range(1, k + 1))

    def test_out_of_range_stage_rejected(self, t15):
        # sigma_k exists for k = 0..n only; -1 must not read as the last stage
        for k in (-1, t15.n_cycles + 1):
            with pytest.raises(gs.EmbeddingError, match=rf"^stage {k} out of range 0\.\.15$"):
                gs.stage_permutation(t15, k)


class TestIdentityReport:
    def test_fixtures_all_clean(self, zigzag7, tree15, tree16):
        for q in (zigzag7, tree15, tree16):
            for leaf in gs.leaf_cycles(gs.cycle_tree(q)):
                report = gs.check_permutation_identities(gs.embed(q, leaf))
                assert report.ok, report.text()

    def test_single_upward_cycle_clause_i(self, a3cycle):
        e = gs.embed(a3cycle)
        report = gs.check_permutation_identities(e)
        assert report.ok
        # base cycle is T1: its z and x swap under the full permutation
        sigma = gs.stage_permutation(e, 1)
        assert sigma.apply(e.cycle(1).z) == e.cycle(1).x
        assert sigma.apply(e.cycle(1).x) == e.cycle(1).z

    def test_randomized_embeddings_clean(self):
        rng = random.Random(91)
        for _ in range(150):
            q, root = random_tree_quiver(rng, 12)
            report = gs.check_permutation_identities(gs.embed(q, root))
            assert report.ok, report.text()

    def test_degree_two_y_fixed_by_all(self):
        rng = random.Random(92)
        for _ in range(40):
            q, root = random_tree_quiver(rng, 10)
            e = gs.embed(q, root)
            for j in range(1, e.n_cycles + 1):
                if e.child_at_y(j) is None:
                    yv = e.cycle(j).y
                    for k in range(e.n_cycles + 1):
                        assert gs.stage_permutation(e, k).apply(yv) == yv

    def test_report_text_format(self, t15):
        text = gs.check_permutation_identities(t15).text()
        assert "stage-action clause i): checked=" in text
        assert "violations=0" in text
        assert text.rstrip().endswith("all identities hold")

    def test_report_flags_corrupted_embedding(self, t15):
        # swapping two cycle orientations flips attachment sides and breaks
        # the identities; the report must say so rather than pass
        cycles = []
        for c in t15.cycles:
            if c.label == 10:
                cycles.append(gs.EmbeddedCycle(c.label, c.up, c.x, c.z, c.y, c.parent, c.parent_role))
            else:
                cycles.append(c)
        bad = gs.EmbeddedQuiver(t15.quiver, cycles)
        report = gs.check_permutation_identities(bad)
        assert not report.ok
