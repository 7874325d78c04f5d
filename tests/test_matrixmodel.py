"""Pending cycles, frontier entries, c-vectors, and predicted matrices."""

from __future__ import annotations

import random

import pytest

import greenseq as gs
from helpers import random_tree_quiver


class TestPendingCycles:
    def test_pending_set_614(self, t16):
        assert gs.pending_set(t16) == (11, 12, 16)

    def test_pending_set_needs_branching_anchor(self, zigzag7):
        assert gs.pending_set(gs.embed(zigzag7, (1, 2, 3))) == ()

    def test_stage_table_614(self, t16):
        expected = {
            tuple(): (1, 2, 3, 16),
            (16,): (4, 12, 13, 14, 15),
            (12, 16): (5, 6, 7, 11),
            (11, 12, 16): (8, 9, 10),
        }
        table = {}
        for k in range(1, 17):
            labels = tuple(pc.label for pc in gs.pending_cycles(t16, k))
            table.setdefault(labels, []).append(k)
        assert {labels: tuple(ks) for labels, ks in table.items()} == expected

    def test_anchors_and_chain_starts_614(self, t16):
        rows = {}
        for k in range(1, 17):
            for pc in gs.pending_cycles(t16, k):
                rows[pc.label] = (pc.anchor, pc.chain[0])
        assert rows == {11: (8, 9), 12: (5, 6), 16: (4, 5)}

    def test_chains_614(self, t16):
        chains = {}
        for pc in gs.pending_cycles(t16, 10):
            chains[pc.label] = pc.chain
        assert chains == {11: (9, 10), 12: (6,), 16: (5, 12, 13, 14)}

    def test_case_tables_614(self, t16):
        cases = {11: {}, 12: {}, 16: {}}
        for k in range(1, 17):
            for pc in gs.pending_cycles(t16, k):
                cases[pc.label][k] = pc.case
        assert cases[11] == {8: 3, 9: 1, 10: 2}
        assert cases[12] == {5: 3, **{k: 2 for k in range(6, 12)}}
        assert cases[16] == {4: 3, **{k: 1 for k in range(5, 14)}, 14: 2, 15: 2}

    def test_progress_absent_iff_anchor_is_stage(self, t16):
        for k in range(1, 17):
            for pc in gs.pending_cycles(t16, k):
                assert (pc.progress is None) == (pc.anchor == k)

    def test_stage_zero_and_final_empty(self, t15):
        assert gs.pending_cycles(t15, 0) == ()
        assert gs.pending_cycles(t15, 15) == ()


class TestFrontierMatrix:
    def test_stage_zero_entries(self, t15):
        fm = gs.frontier_matrix(t15, 0)
        first = t15.cycle(1)
        assert set(fm.entries) == {
            (first.y, first.x, 1),
            (first.z, first.x, -1),
        }

    def test_final_stage_empty(self, t15):
        assert gs.frontier_matrix(t15, 15).entries == ()

    def test_case1_entry_tracks_next_chain_cycle(self, t16):
        # stage 9: the pending cycle anchored at T4 has chain (5, 12, 13, 14)
        # with only label 5 processed, so its y row points at z of T12
        fm = dict(((i, j), v) for i, j, v in gs.frontier_matrix(t16, 9).entries)
        y16, z12 = t16.cycle(16).y, t16.cycle(12).z
        assert fm[(y16, z12)] == -1

    def test_downward_next_cycle_entries(self, t15):
        # at stage 1 the next cycle T2 is downward: its z row points at x2
        fm = dict(((i, j), v) for i, j, v in gs.frontier_matrix(t15, 1).entries)
        c2 = t15.cycle(2)
        assert fm[(c2.z, c2.x)] == -1
        assert fm[(c2.y, gs.closing_vertex(t15, 2))] == 1


class TestCVectors:
    def test_y_rows_are_zero(self, t15):
        for k in range(15):
            nxt = t15.cycle(k + 1)
            assert gs.base_c_vector(t15, k, nxt.y) == (0,) * 31

    def test_first_stage_z_row(self, t15):
        vec = gs.base_c_vector(t15, 0, t15.cycle(1).z)
        expected = [0] * 31
        expected[t15.cycle(1).x - 1] = 1
        assert vec == tuple(expected)

    def test_descent_stage_support(self, t15):
        # z of stage 7 collects x of the base cycle, z one below it, and the
        # descent path's x vertices
        vec = gs.base_c_vector(t15, 6, t15.cycle(7).z)
        support = {i + 1 for i, c in enumerate(vec) if c}
        assert support == {4, 5, 9, 7}

    def test_non_frontier_vertex_rejected(self, t15):
        with pytest.raises(gs.EmbeddingError):
            gs.base_c_vector(t15, 0, t15.cycle(5).y)

    def test_matches_true_c_vector(self, t16, tree16):
        # frozen rows of the true mutated matrix equal the model vector plus
        # the unit at the vertex's own frozen companion
        eq = gs.frame(tree16)
        for k in range(17):
            eq = gs.apply_sequence(eq, gs.stage_parts(t16, k).sequence())
            for pc in gs.pending_cycles(t16, k):
                for v in (t16.cycle(pc.label).y, t16.cycle(pc.label).z):
                    expected = list(gs.base_c_vector(t16, k, v))
                    expected[v - 1] += 1
                    assert eq.rows[v - 1][33:] == tuple(expected)


class TestPredictedMatrix:
    def test_stage_zero_direct(self, a3cycle):
        e = gs.embed(a3cycle)
        predicted = gs.predicted_matrix(e, 0)
        actual = gs.matrix_mutate(gs.frame(a3cycle), 1)
        assert predicted.matrix == actual.rows

    def test_final_stage_is_permuted_coframing(self, t15, tree15):
        predicted = gs.predicted_matrix(t15, 15)
        sigma = gs.stage_permutation(t15, 15)
        b0 = tree15.b_matrix()
        assert tuple(row[:31] for row in predicted.matrix) == gs.quiver.permute_b_matrix(b0, sigma)
        assert tuple(row[31:] for row in predicted.matrix) == tuple(
            tuple(-v for v in row) for row in sigma.matrix()
        )

    def test_block_split_sizes(self, t16):
        pm = gs.predicted_matrix(t16, 8)
        assert len(pm.processed) == 2 * 8 + 1
        pending = {pc.label for pc in gs.pending_cycles(t16, 8)}
        assert len(pm.frontier) == 2 * (len(pending) + 1)
        assert len(pm.processed) + len(pm.frontier) + len(pm.rest) == 33

    def test_block_matrix_reorders(self, t16):
        pm = gs.predicted_matrix(t16, 8)
        block = pm.block_matrix()
        order = pm.processed + pm.frontier + pm.rest
        for a, va in enumerate(order):
            for b, vb in enumerate(order):
                assert block[a][b] == pm.matrix[va - 1][vb - 1]

    def test_zero_blocks(self, t16):
        # processed rows never touch rest columns and vice versa
        for k in (3, 8, 12):
            pm = gs.predicted_matrix(t16, k)
            for i in pm.processed:
                for j in pm.rest:
                    assert pm.matrix[i - 1][j - 1] == 0

    def test_frozen_block_shape(self, t16):
        # frozen columns: processed rows carry only the negated permutation
        # entry, frontier rows their c-vector plus a unit, rest rows a unit
        n = 33
        for k in (0, 5, 9, 16):
            pm = gs.predicted_matrix(t16, k)
            sigma = gs.stage_permutation(t16, k)
            for i in pm.processed:
                row = pm.matrix[i - 1][n:]
                assert row[sigma.apply(i) - 1] == -1 and n - row.count(0) == 1
            for i in pm.rest:
                row = pm.matrix[i - 1][n:]
                assert row[i - 1] == 1 and n - row.count(0) == 1
            for i in pm.frontier:
                assert pm.matrix[i - 1][n + i - 1] == 1
                assert min(pm.matrix[i - 1][n:]) >= 0


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
        # the pending set is worked out when the embedding is built: no
        # stage tests a cycle for branching again
        calls = []
        original = gs.EmbeddedQuiver.is_branching

        def counted(e, k):
            calls.append(k)
            return original(e, k)

        monkeypatch.setattr(gs.EmbeddedQuiver, "is_branching", counted)
        assert gs.verify_model(t16).ok
        assert calls == []

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
        for check in report.checks:
            eq = gs.apply_sequence(eq, gs.stage_parts(bad, check.k).sequence())
            predicted = gs.predicted_matrix(bad, check.k).matrix
            diffs = [
                (str(r + 1), str(c + 1) if c < 31 else f"{c - 30}'", p, v)
                for r, (p_row, row) in enumerate(zip(predicted, eq.rows))
                for c, (p, v) in enumerate(zip(p_row, row)) if p != v
            ]
            assert check.first_diff == (diffs[0] if diffs else None)

    def test_red_green_interface_interpretation(self, t16, tree16):
        # frontier rows into the processed block connect a green frontier
        # vertex to red processed vertices; frontier-frontier and
        # frontier-rest entries connect green pairs
        eq = gs.frame(tree16)
        for k in range(17):
            eq = gs.apply_sequence(eq, gs.stage_parts(t16, k).sequence())
            pm = gs.predicted_matrix(t16, k)
            processed = set(pm.processed)
            for i, j, _ in gs.frontier_matrix(t16, k).entries:
                assert gs.vertex_color(eq, i) == "green"
                if j in processed:
                    assert gs.vertex_color(eq, j) == "red"
                else:
                    assert gs.vertex_color(eq, j) == "green"
