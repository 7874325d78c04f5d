"""Pending cycles, frontier entries, c-vectors, and predicted matrices,
read from the one walk of the stage model."""

from __future__ import annotations

import contextlib
import io
import random
import tracemalloc

import pytest

import greenseq as gs
from conftest import FIXTURES
from greenseq.cli import main
from helpers import (
    b_matrix,
    block_matrix,
    one_swaps,
    permutation_matrix,
    permute_b_matrix,
    predicted_stages,
    random_tree_quiver,
    reference_identities,
    reference_pending_cycles,
    reference_verify_model,
    stage_permutation,
    stage_rows,
    stage_table,
    walk_pending,
)


class TestPendingCycles:
    """The pending cycles the walk works out, stage by stage."""

    @staticmethod
    def _pending_labels(e) -> list[int]:
        return sorted({pc.label for pending in walk_pending(e) for pc in pending})

    def test_pending_set_614(self, t16):
        assert self._pending_labels(t16) == [11, 12, 16]

    def test_pending_set_needs_branching_anchor(self, zigzag7):
        assert self._pending_labels(gs.embed(zigzag7, (1, 2, 3))) == []

    def test_stage_table_614(self, t16):
        expected = {
            tuple(): (1, 2, 3, 16),
            (16,): (4, 12, 13, 14, 15),
            (12, 16): (5, 6, 7, 11),
            (11, 12, 16): (8, 9, 10),
        }
        table = {}
        for k, pending in enumerate(walk_pending(t16)[1:], start=1):
            table.setdefault(tuple(pc.label for pc in pending), []).append(k)
        assert {labels: tuple(ks) for labels, ks in table.items()} == expected

    def test_anchors_and_chain_starts_614(self, t16):
        rows = {}
        for pending in walk_pending(t16):
            for pc in pending:
                rows[pc.label] = (pc.anchor, pc.chain[0])
        assert rows == {11: (8, 9), 12: (5, 6), 16: (4, 5)}

    def test_chains_614(self, t16):
        chains = {pc.label: pc.chain for pc in walk_pending(t16)[10]}
        assert chains == {11: (9, 10), 12: (6,), 16: (5, 12, 13, 14)}

    def test_case_tables_614(self, t16):
        cases = {11: {}, 12: {}, 16: {}}
        for k, pending in enumerate(walk_pending(t16)):
            for pc in pending:
                cases[pc.label][k] = pc.case
        assert cases[11] == {8: 3, 9: 1, 10: 2}
        assert cases[12] == {5: 3, **{k: 2 for k in range(6, 12)}}
        assert cases[16] == {4: 3, **{k: 1 for k in range(5, 14)}, 14: 2, 15: 2}

    def test_progress_absent_iff_anchor_is_stage(self, t16):
        for k, pending in enumerate(walk_pending(t16)):
            for pc in pending:
                assert (pc.progress is None) == (pc.anchor == k)

    def test_stage_zero_and_final_empty(self, t15):
        pending = walk_pending(t15)
        assert len(pending) == 16
        assert pending[0] == pending[15] == ()

    def test_chain_must_start_after_its_anchor(self, t16):
        # swapping the labels T5 and T9 makes T9 the y-child of T4, so the
        # chain of the pending T16 no longer starts at T5: the walk yields
        # stages 0-3 and refuses T16 as it enters, at its anchor's stage
        swap = {5: 9, 9: 5}
        cycles = sorted(
            (
                gs.EmbeddedCycle(
                    swap.get(c.label, c.label), c.up, c.x, c.y, c.z,
                    swap.get(c.parent, c.parent), c.parent_role,
                )
                for c in t16.cycles
            ),
            key=lambda c: c.label,
        )
        bad = gs.EmbeddedQuiver(t16.quiver, cycles)
        walk = gs.matrixmodel._kept_prediction(bad)
        assert [next(walk)[0] for _ in range(4)] == [0, 1, 2, 3]
        with pytest.raises(gs.EmbeddingError, match=r"^pending T16 has no chain starting at T5$"):
            next(walk)
        with pytest.raises(gs.EmbeddingError, match=r"^pending T16 has no chain starting at T5$"):
            gs.verify_model(bad)


class TestFrontierMatrix:
    """The composite entries, read at the frontier rows of the prediction."""

    def test_stage_zero_entries(self, t15):
        pm = predicted_stages(t15)[0]
        first = t15.cycle(1)
        inner = pm.processed + pm.frontier
        entries = {
            (i, j, pm.state.entry(i, j)) for i in pm.frontier for j in inner if pm.state.entry(i, j)
        }
        assert entries == {
            (first.y, first.x, 1),
            (first.z, first.x, -1),
        }

    def test_final_stage_empty(self, t15):
        assert predicted_stages(t15)[15].frontier == ()

    def test_case1_entry_tracks_next_chain_cycle(self, t16):
        # stage 9: the pending cycle anchored at T4 has chain (5, 12, 13, 14)
        # with only label 5 processed, so its y row points at z of T12
        state = predicted_stages(t16)[9].state
        y16, z12 = t16.cycle(16).y, t16.cycle(12).z
        assert state.entry(y16, z12) == -1

    def test_downward_next_cycle_entries(self, t15):
        # at stage 1 the next cycle T2 is downward: its z row points at x2
        state = predicted_stages(t15)[1].state
        c2 = t15.cycle(2)
        assert state.entry(c2.z, c2.x) == -1
        assert state.entry(c2.y, gs.closing_vertex(t15, 2)) == 1


class TestCVectors:
    """Base c-vectors: the frozen part of a frontier row in the prediction,
    without the vertex's own unit."""

    @staticmethod
    def _base_c_vector(pm, v):
        vec = [pm.state.entry(v, j, frozen=True) for j in range(1, pm.state.n + 1)]
        vec[v - 1] -= 1
        return tuple(vec)

    def test_y_rows_are_zero(self, t15):
        for pm in predicted_stages(t15)[:15]:
            assert self._base_c_vector(pm, t15.cycle(pm.k + 1).y) == (0,) * 31

    def test_first_stage_z_row(self, t15):
        vec = self._base_c_vector(predicted_stages(t15)[0], t15.cycle(1).z)
        expected = [0] * 31
        expected[t15.cycle(1).x - 1] = 1
        assert vec == tuple(expected)

    def test_descent_stage_support(self, t15):
        # z of stage 7 collects x of the base cycle, z one below it, and the
        # descent path's x vertices
        vec = self._base_c_vector(predicted_stages(t15)[6], t15.cycle(7).z)
        support = {i + 1 for i, c in enumerate(vec) if c}
        assert support == {4, 5, 9, 7}

    def test_matches_true_c_vector(self, t16):
        # the predicted frozen row of every frontier vertex, its base
        # c-vector plus its own unit, equals the row that mutation gives
        rng = random.Random(104)
        cases = [t16] + [gs.embed(*random_tree_quiver(rng, 12)) for _ in range(50)]
        for e in cases:
            n = e.quiver.n
            eq = gs.frame(e.quiver)
            for pm in predicted_stages(e):
                eq = gs.apply_sequence(eq, pm.sequence)
                for v in pm.frontier:
                    assert pm.state.rows[v - 1][n:] == eq.rows[v - 1][n:]


class TestPredictedMatrix:
    def test_stage_zero_direct(self, a3cycle):
        e = gs.embed(a3cycle)
        predicted = predicted_stages(e)[0]
        actual = gs.matrix_mutate(gs.frame(a3cycle), 1)
        assert predicted.state == actual
        assert predicted.state.rows == actual.rows

    def test_state_equals_mutation_every_stage(self, tree16):
        # every stage the walk yields, not only the comparison verify_model
        # makes, is the framed quiver mutated along stages 0..k
        rng = random.Random(103)
        cases = [gs.embed(tree16, leaf) for leaf in gs.leaf_cycles(gs.cycle_tree(tree16))]
        cases += [gs.embed(*random_tree_quiver(rng, 12)) for _ in range(20)]
        for e in cases:
            eq = gs.frame(e.quiver)
            stages = predicted_stages(e)
            assert [pm.k for pm in stages] == list(range(e.n_cycles + 1))
            for pm in stages:
                eq = gs.apply_sequence(eq, gs.stage_parts(e, pm.k).sequence())
                assert pm.state == eq

    def test_final_stage_is_permuted_coframing(self, t15, tree15):
        predicted = predicted_stages(t15)[15].state.rows
        sigma = stage_permutation(t15, 15)
        b0 = b_matrix(tree15)
        assert tuple(row[:31] for row in predicted) == permute_b_matrix(b0, sigma)
        assert tuple(row[31:] for row in predicted) == tuple(
            tuple(-v for v in row) for row in permutation_matrix(sigma)
        )

    def test_block_split_sizes(self, t16):
        pm = predicted_stages(t16)[8]
        assert len(pm.processed) == 2 * 8 + 1
        assert len(pm.frontier) == 2 * (len(pm.pending) + 1)
        assert len(pm.processed) + len(pm.frontier) + len(pm.rest) == 33

    def test_block_matrix_reorders(self, t16):
        pm = predicted_stages(t16)[8]
        block = block_matrix(pm)
        order = pm.processed + pm.frontier + pm.rest
        for a, va in enumerate(order):
            for b, vb in enumerate(order):
                assert block[a][b] == pm.state.rows[va - 1][vb - 1]

    def test_zero_blocks(self, t16):
        # processed rows never touch rest columns and vice versa
        stages = predicted_stages(t16)
        for k in (3, 8, 12):
            pm = stages[k]
            rows = pm.state.rows
            for i in pm.processed:
                for j in pm.rest:
                    assert rows[i - 1][j - 1] == 0

    def test_frozen_block_shape(self, t16):
        # frozen columns: processed rows carry only the negated permutation
        # entry, frontier rows their c-vector plus a unit, rest rows a unit
        n = 33
        stages = predicted_stages(t16)
        for k in (0, 5, 9, 16):
            pm = stages[k]
            rows = pm.state.rows
            sigma = stage_permutation(t16, k)
            for i in pm.processed:
                row = rows[i - 1][n:]
                assert row[sigma.apply(i) - 1] == -1 and n - row.count(0) == 1
            for i in pm.rest:
                row = rows[i - 1][n:]
                assert row[i - 1] == 1 and n - row.count(0) == 1
            for i in pm.frontier:
                assert rows[i - 1][n + i - 1] == 1
                assert min(rows[i - 1][n:]) >= 0


class TestVerifyModel:
    def test_fixtures_all_stages(self, zigzag7, tree15, tree16):
        from conftest import load

        fixtures = [zigzag7, tree15, tree16, load("chain10"), load("chain11")]
        for q in fixtures:
            for leaf in gs.leaf_cycles(gs.cycle_tree(q)):
                report = gs.verify_model(gs.embed(q, leaf))
                assert report.ok, report.text()

    def test_report_text(self, t15):
        text = gs.verify_model(t15).text()
        assert text.splitlines()[0] == "k=0 model==actual: true"
        assert len(text.splitlines()) == 16

    def test_randomized(self):
        rng = random.Random(101)
        for _ in range(120):
            q, root = random_tree_quiver(rng, 12)
            report = gs.verify_model(gs.embed(q, root))
            assert report.ok, report.text()

    def test_randomized_larger_trees(self):
        # both stage models on trees of 20-40 cycles, past the fixtures'
        # 16 and the 12-cycle bound above
        rng = random.Random(102)
        done = 0
        while done < 10:
            q, root = random_tree_quiver(rng, 40)
            e = gs.embed(q, root)
            if e.n_cycles < 20:
                continue
            report = gs.verify_model(e)
            assert report.ok, report.text()
            perms = gs.check_permutation_identities(e)
            assert perms.ok, perms.text()
            done += 1

    def test_pending_set_built_once(self, t16, monkeypatch):
        # embedding a quiver tests no cycle for branching; one walk
        # tests the parent of each z-attached downward cycle once, before
        # its first stage, and no stage tests it again
        calls = []
        original = gs.EmbeddedQuiver.is_branching

        def counted(e, k):
            calls.append(k)
            return original(e, k)

        monkeypatch.setattr(gs.EmbeddedQuiver, "is_branching", counted)
        e = gs.embed(t16.quiver, t16.cycle(1).triple)
        assert e == t16 and calls == []
        walk = gs.matrixmodel._kept_prediction(e)
        next(walk)
        anchors = [c.parent for c in e.cycles if not c.up and c.parent_role == "z"]
        assert calls == anchors and len(set(anchors)) == len(anchors)
        for _ in walk:
            pass
        assert calls == anchors
        assert gs.verify_model(e).ok
        assert calls == anchors * 2

    def test_stage_facts_built_once_per_model_check(self, monkeypatch):
        # one model-check --permutations run builds each stage's sequence
        # once, for the fold both checks share, streams sigma_k once per
        # check, and reads each pending cycle's chain once, as it enters
        parts, chains, streams = [], [], []

        def counting(calls, original):
            def counted(e, *args):
                calls.append(args)
                return original(e, *args)
            return counted

        monkeypatch.setattr(
            gs.embedding, "stage_parts", counting(parts, gs.embedding.stage_parts)
        )
        monkeypatch.setattr(
            gs.matrixmodel, "hanging_chain", counting(chains, gs.matrixmodel.hanging_chain)
        )
        stream = counting(streams, gs.embedding._sigma_stream)
        monkeypatch.setattr(gs.permmodel, "_sigma_stream", stream)
        monkeypatch.setattr(gs.matrixmodel, "_sigma_stream", stream)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["model-check", str(FIXTURES / "tree16.quiver"), "--permutations"])
        assert code == 0 and out.getvalue().endswith("result: all identities hold\n")
        assert parts == [(k,) for k in range(17)]
        # T16, T12 and T11 enter at the stages of their anchors T4, T5, T8
        assert chains == [(16,), (12,), (11,)]
        assert len(streams) == 2  # verify_model's walk and the identity check

    def test_detects_wrong_prediction(self, t15):
        # breaking one orientation flips frontier entries: the comparison
        # must report a first differing entry, not pass silently
        cycles = []
        for c in t15.cycles:
            if c.label == 11:
                cycles.append(gs.EmbeddedCycle(c.label, c.up, c.x, c.z, c.y, c.parent, c.parent_role))
            else:
                cycles.append(c)
        bad = gs.EmbeddedQuiver(t15.quiver, cycles)
        report = gs.verify_model(bad)
        assert not report.ok
        # the sparse comparison names the row-major first differing entry
        # of the dense prediction and the dense mutated state
        eq = gs.frame(t15.quiver)
        for check, pm in zip(report.checks, predicted_stages(bad), strict=True):
            eq = gs.apply_sequence(eq, pm.sequence)
            predicted = pm.state.rows
            diffs = [
                (str(r + 1), str(c + 1) if c < 31 else f"{c - 30}'", p, v)
                for r, (p_row, row) in enumerate(zip(predicted, eq.rows))
                for c, (p, v) in enumerate(zip(p_row, row)) if p != v
            ]
            assert check.first_diff == (diffs[0] if diffs else None)

    def test_report_text_names_each_first_difference(self, t15):
        cycles = [
            gs.EmbeddedCycle(c.label, c.up, c.x, c.z, c.y, c.parent, c.parent_role)
            if c.label == 11 else c
            for c in t15.cycles
        ]
        report = gs.verify_model(gs.EmbeddedQuiver(t15.quiver, cycles))
        lines = report.text().splitlines()
        assert len(lines) == 16 and not report.ok
        for check, line in zip(report.checks, lines):
            if check.ok:
                assert line == f"k={check.k} model==actual: true"
            else:
                row, col, model, actual = check.first_diff
                assert line == (
                    f"k={check.k} model==actual: false ({row}, {col}): "
                    f"model={model} actual={actual}"
                )
        report = gs.ModelReport((gs.matrixmodel.StageCheck(3, False, ("7", "2'", 1, -1)),))
        assert report.text() == "k=3 model==actual: false (7, 2'): model=1 actual=-1\n"

    def test_red_green_interface_interpretation(self, t16, tree16):
        # frontier rows into the processed block connect a green frontier
        # vertex to red processed vertices; frontier-frontier and
        # frontier-rest entries connect green pairs
        eq = gs.frame(tree16)
        for pm in predicted_stages(t16):
            eq = gs.apply_sequence(eq, pm.sequence)
            processed = set(pm.processed)
            for i in pm.frontier:
                assert gs.vertex_color(eq, i) == "green"
                for j in range(1, 34):
                    if pm.state.entry(i, j):
                        expected = "red" if j in processed else "green"
                        assert gs.vertex_color(eq, j) == expected


class TestStreamedModel:
    """The kept prediction and the streamed sigma_k against the references
    built from whole permutations and full per-stage rebuilds."""

    @staticmethod
    def _same_as_references(e) -> tuple[bool, bool]:
        table = stage_table(e)
        for k, _, pending, rows in gs.matrixmodel._kept_prediction(e):
            assert pending == reference_pending_cycles(e, k), k
            assert rows == stage_rows(e, k, table[k]), k
        model, perms = gs.verify_model(e), gs.check_permutation_identities(e)
        assert model == reference_verify_model(e)
        assert perms == reference_identities(e)
        return model.ok, perms.ok

    def test_random_embeddings_match_references(self):
        rng = random.Random(171)
        trees = embeddings = 0
        while trees < 200:
            q, _ = random_tree_quiver(rng, 14)
            leaves = gs.leaf_cycles(gs.cycle_tree(q))
            if len(leaves) < 2:
                continue
            trees += 1
            for leaf in leaves[:3]:
                assert self._same_as_references(gs.embed(q, leaf)) == (True, True)
                embeddings += 1
        assert embeddings >= 400

    def test_swapped_embeddings_match_references(self, tree15, tree16):
        # one cycle's y and z swapped: the stage models fail, and both
        # reports fail the way the references do, witness for witness
        rng = random.Random(172)
        quivers = [tree15, tree16] + [random_tree_quiver(rng, 14)[0] for _ in range(40)]
        swaps = 0
        for q in quivers:
            for bad in one_swaps(gs.embed(q)):
                assert self._same_as_references(bad) != (True, True)
                swaps += 1
        assert swaps >= 300

    def test_repeated_vertex_in_stage_matches_references(self, zigzag7):
        # T2 made upward at x1 by hand: stage 2's order (4, 5, 1, 1) names
        # x1 twice, and its relabelling is the one the general cycle writes
        c1, c2, c3 = gs.embed(zigzag7, (1, 2, 3)).cycles
        bad = gs.EmbeddedQuiver(zigzag7, [
            c1, gs.EmbeddedCycle(2, True, c1.x, c2.y, c2.z, 1, "y"), c3,
        ])
        assert gs.stage_parts(bad, 2).sequence() == (4, 5, 1, 1)
        assert gs.embedding._stage_fold(bad)[2][1] == {5: 1, 1: 5}
        assert self._same_as_references(bad) == (False, False)

    def test_crafted_stages_match_references(self, t16, monkeypatch):
        # stages 1 and 3 swap two degree-2 y vertices and stage 2 leaves
        # them alone, so sigma_1 and sigma_2 move them and sigma_3 puts
        # them back: a fold no embedding gives, read alike by both sides
        free = [j for j in range(4, 17) if t16.child_at_y(j) is None]
        v, w = t16.cycle(free[0]).y, t16.cycle(free[1]).y
        real = gs.stage_parts

        def crafted(e, k):
            if k in (1, 3):
                return gs.StageParts(k, (), (), (), (t16.cycle(k).y, v, w))
            return real(e, k)

        monkeypatch.setattr(gs.embedding, "stage_parts", crafted)
        monkeypatch.setattr(gs, "stage_parts", crafted)
        e = gs.EmbeddedQuiver(t16.quiver, t16.cycles)
        assert self._same_as_references(e) == (False, False)
        moved = gs.check_permutation_identities(e).clauses[-1].violations
        assert [text.split(":")[0] for text in moved] == [
            f"y of T{free[0]}, sigma_1", f"y of T{free[0]}, sigma_2",
            f"y of T{free[1]}, sigma_1", f"y of T{free[1]}, sigma_2",
        ]

    def test_predicted_matrix_is_the_full_build(self, t16):
        # the stages as the tests copy them out of the walk
        table = stage_table(t16)
        for pm in predicted_stages(t16):
            assert list(pm.state.sparse_rows) == stage_rows(t16, pm.k, table[pm.k])

    def test_model_check_memory_is_linear(self):
        # 497 stages on 993 vertices: whole permutations per stage would
        # hold about 35 MB
        q, root = random_tree_quiver(random.Random(134), 700)
        e = gs.embed(q, root)
        assert q.n == 993
        tracemalloc.start()
        try:
            report = gs.verify_model(e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok
        assert peak < 8_000_000, f"traced peak {peak / 1e6:.1f} MB"
