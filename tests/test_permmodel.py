"""Stage rotations, cumulative permutations, and the identity report."""

from __future__ import annotations

import random
import sys
import threading

import pytest

import greenseq as gs
from helpers import (
    random_tree_quiver,
    stage_permutation,
    stage_rotation,
    stage_table,
    walk_pending,
)


class TestStageRotation:
    def test_stage_zero_identity(self, t15):
        assert stage_rotation(t15, 0) == gs.Permutation.identity(31)

    def test_zigzag_stage_one(self, zigzag7):
        e = gs.embed(zigzag7, (1, 2, 3))
        # applied order (2, 3, 1): drop the first step, cycle the rest
        tau = stage_rotation(e, 1)
        assert tau.apply(3) == 1 and tau.apply(1) == 3 and tau.apply(2) == 2

    def test_tree15_stage_five(self, t15):
        # applied order (10, 11, 4, 8) gives the 3-cycle (11 4 8)
        tau = stage_rotation(t15, 5)
        assert tau.apply(11) == 4 and tau.apply(4) == 8 and tau.apply(8) == 11
        assert tau.apply(10) == 10

    def test_rotation_moves_exactly_the_tail(self, t15):
        for k in range(1, 16):
            seq = gs.stage_parts(t15, k).sequence()
            tau = stage_rotation(t15, k)
            moved = {v for v in range(1, 32) if tau.apply(v) != v}
            assert moved == set(seq[1:])


class TestStagePermutation:
    def test_zero_is_identity(self, t15):
        assert stage_permutation(t15, 0) == gs.Permutation.identity(31)

    def test_final_matches_induced(self, zigzag7, tree15, tree16):
        for q in (zigzag7, tree15, tree16):
            for leaf in gs.leaf_cycles(gs.cycle_tree(q)):
                e = gs.embed(q, leaf)
                seq = gs.associated_sequence(e)
                assert stage_permutation(e, e.n_cycles) == gs.verify_green(q, seq).induced

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
            induced = gs.verify_green(sub, prefix).induced
            sigma = stage_permutation(t15, k)
            for v in verts:
                assert local[sigma.apply(v)] == induced.apply(local[v])

    def test_random_final_agreement(self):
        rng = random.Random(81)
        for _ in range(80):
            q, root = random_tree_quiver(rng, 10)
            e = gs.embed(q, root)
            seq = gs.associated_sequence(e)
            assert stage_permutation(e, e.n_cycles) == gs.verify_green(q, seq).induced

    def test_rotation_table_consistent(self, t16):
        # each stage of the oracle table against tau_k rebuilt for its stage
        # alone, and the package's fold and sigma stream against the table
        table = stage_table(t16)
        assert len(table) == 17
        sigma = gs.Permutation.identity(t16.quiver.n)
        for k in range(17):
            tau = stage_rotation(t16, k)
            sigma = tau.then(sigma)
            assert table[k] == (gs.stage_parts(t16, k).sequence(), tau, sigma, sigma.inverse())
        fold = gs.embedding._stage_fold(t16)
        for (seq, tau), stage in zip(fold, table, strict=True):
            assert seq == stage.sequence
            assert tau == {v: w for v, w in enumerate(stage.tau.images, 1) if v != w}
        for k, seq, tau, sigma, inv in gs.embedding._sigma_stream(t16):
            assert (tuple(sigma), tuple(inv)) == (table[k].sigma.images, table[k].sigma_inv.images)

    def test_stage_fold_built_once(self, t16, monkeypatch):
        # the stage models and the identity check, and a second walk of
        # the prediction, fold the stages once, for the fold kept on t16
        calls = []
        original = gs.embedding.stage_parts

        def counted(e, k):
            calls.append(k)
            return original(e, k)

        monkeypatch.setattr(gs.embedding, "stage_parts", counted)
        gs.verify_model(t16)
        gs.check_permutation_identities(t16)
        assert len(walk_pending(t16)) == 17
        assert calls == list(range(17))

    def test_out_of_range_stage_rejected(self, t15):
        # sigma_k exists for k = 0..n only: the walk yields those stages,
        # and with the fold built, -1 must still not read as the last stage
        assert [k for k, *_ in gs.embedding._sigma_stream(t15)] == list(range(16))
        for k in (-1, t15.n_cycles + 1):
            with pytest.raises(gs.EmbeddingError, match=rf"^stage {k} out of range 0\.\.15$"):
                gs.stage_parts(t15, k)


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
        sigma = stage_permutation(e, 1)
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
                        assert stage_permutation(e, k).apply(yv) == yv

    def test_shared_embedding_across_threads(self, tree16):
        # the stage fold and the per-cycle geometry are filled in on first
        # use; threads racing to fill them must each read whole values and
        # report what one thread reports
        want = (
            gs.verify_model(gs.embed(tree16, (1, 2, 3))).text(),
            gs.check_permutation_identities(gs.embed(tree16, (1, 2, 3))).text(),
        )
        e = gs.embed(tree16, (1, 2, 3))
        results = []

        def work():
            results.append((gs.verify_model(e).text(), gs.check_permutation_identities(e).text()))

        threads = [threading.Thread(target=work) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [want] * 4

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
        # every count and witness, byte for byte
        assert report.text() == (
            "fixed-points clause path-support): checked=156 violations=0\n"
            "fixed-points clause closing-vertex): checked=12 violations=0\n"
            "stage-action clause i): checked=17 violations=1\n"
            "  k=15: got 21, expected 19\n"
            "stage-action clause ii): checked=8 violations=0\n"
            "stage-action clause iii): checked=13 violations=2\n"
            "  k=11: got 19, expected 20\n"
            "  k=15: got 20, expected 21\n"
            "stage-action clause iv): checked=15 violations=0\n"
            "stage-action clause v): checked=12 violations=0\n"
            "inverse-action clause y-vertices): checked=25 violations=1\n"
            "  k=15 label=10: got 21, expected 18\n"
            "inverse-action clause y-stability): checked=25 violations=1\n"
            "  k=15 label=10: got 31, expected 21\n"
            "fixed-points clause degree-2-y): checked=160 violations=0\n"
            "result: violations found\n"
        )
