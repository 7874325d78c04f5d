"""Standard labelling, outlets, branches, descent paths, and closing vertices."""

from __future__ import annotations

import functools
import itertools
import random
import re

import pytest

import greenseq as gs
from conftest import load
from greenseq.cli import main
from helpers import (
    consecutive_run_region,
    random_tree_quiver,
    walked_base_cycle,
    walked_closing_vertex,
    walked_descent_path,
    walked_first_stage,
    walked_hanging_chain,
    walked_pending_set,
    with_cycle,
)


# the public reads of a cycle's geometry, each taking a label
GEOMETRY_READS = (
    gs.base_cycle, gs.descent_path, gs.hanging_chain, gs.closing_vertex, gs.northeast_region,
)


@pytest.fixture
def echain10():
    return gs.embed(load("chain10"), (1, 2, 3))


@pytest.fixture
def echain11():
    return gs.embed(load("chain11"), (1, 2, 3))


@pytest.fixture
def ezig(zigzag7):
    return gs.embed(zigzag7, (1, 2, 3))


class TestEmbed:
    def test_zigzag_root_123(self, ezig):
        got = [(c.label, c.up, c.x, c.y, c.z, c.parent, c.parent_role) for c in ezig.cycles]
        assert got == [
            (1, True, 1, 2, 3, None, None),
            (2, False, 3, 4, 5, 1, "z"),
            (3, False, 5, 6, 7, 2, "z"),
        ]

    def test_zigzag_root_567(self, zigzag7):
        e = gs.embed(zigzag7, (5, 6, 7))
        got = [(c.label, c.up, c.x, c.y, c.z) for c in e.cycles]
        assert got == [(1, True, 6, 7, 5), (2, False, 5, 3, 4), (3, True, 3, 1, 2)]

    @pytest.mark.parametrize("k", [99, 0, -1, "T1", [], 1.0, 2.0])
    def test_label_lookups_refuse_a_label_with_no_cycle(self, ezig, k):
        # the child lookups and the geometry refuse as cycle() does, not
        # with a KeyError; a float equal to a label is not an index
        for lookup in (
            ezig.cycle, ezig.child_at_y, ezig.child_at_z, ezig.is_branching,
            *(functools.partial(read, ezig) for read in GEOMETRY_READS),
        ):
            with pytest.raises(gs.EmbeddingError, match=f"^{re.escape(f'no cycle labelled T{k}')}$"):
                lookup(k)

    def test_parent_label_with_no_cycle_is_refused(self, ezig):
        # T3 names parent 99 by hand: the child lookups refuse the label
        # 99 as cycle() does, though T3 hangs at its z
        bad = with_cycle(ezig, 3, parent=99)
        for lookup in (bad.cycle, bad.child_at_y, bad.child_at_z, bad.is_branching):
            with pytest.raises(gs.EmbeddingError, match="^no cycle labelled T99$"):
                lookup(99)

    def test_bool_label_reads_t1(self, ezig):
        # True is an index, as it is for a vertex, and 1.0 is not
        with pytest.raises(gs.EmbeddingError, match=r"^no cycle labelled T1\.0$"):
            ezig.cycle(1.0)
        assert ezig.cycle(True) is ezig.cycle(1)
        assert ezig.child_at_y(True) is None and ezig.child_at_z(True) == 2
        assert not ezig.is_branching(True)
        for read in GEOMETRY_READS:
            assert read(ezig, True) == read(ezig, 1)

    def test_single_cycle_pins_rotation(self, a3cycle):
        e = gs.embed(a3cycle)
        c = e.cycle(1)
        assert (c.x, c.y, c.z) == (1, 2, 3) and c.up

    @pytest.mark.parametrize("walk", list(itertools.permutations((1, 2, 3))))
    def test_lone_cycle_every_relabelling(self, walk):
        # x1 is the smallest vertex and y1 its successor, whichever way
        # the arrows run, with the root given or not
        q = gs.Quiver.from_arrows(3, [(walk[i], walk[(i + 1) % 3]) for i in range(3)])
        y = walk[(walk.index(1) + 1) % 3]
        expected = (gs.EmbeddedCycle(1, True, 1, y, 5 - y, None, None),)
        assert gs.embed(q).cycles == expected
        assert gs.embed(q, (3, 1, 2)).cycles == expected

    def test_default_root_smallest_leaf(self, zigzag7):
        assert gs.embed(zigzag7) == gs.embed(zigzag7, (1, 2, 3))

    def test_non_leaf_root_rejected(self, zigzag7):
        with pytest.raises(gs.EmbeddingError, match="not a leaf"):
            gs.embed(zigzag7, (3, 4, 5))

    def test_root_that_is_not_a_triple_rejected(self, zigzag7):
        message = r"^root must be a vertex triple, got \(1, 2\)$"
        with pytest.raises(gs.EmbeddingError, match=message):
            gs.embed(zigzag7, (1, 2))

    def test_non_type_a_rejected(self):
        with pytest.raises(gs.NotTypeAError):
            gs.embed(gs.Quiver.from_arrows(4, [(1, 2), (2, 3), (3, 4), (4, 1)]))

    def test_tree16_standard_labels(self, t16):
        expected = [
            (1, 2, 3), (3, 4, 5), (4, 6, 7), (6, 8, 9), (8, 10, 11), (10, 12, 13),
            (12, 14, 15), (15, 16, 17), (16, 18, 19), (19, 20, 21), (17, 22, 23),
            (11, 24, 25), (25, 26, 27), (27, 28, 29), (28, 30, 31), (9, 32, 33),
        ]
        for label, (x, y, z) in enumerate(expected, start=1):
            c = t16.cycle(label)
            assert (c.x, c.y, c.z) == (x, y, z)
        ups = [c.label for c in t16.cycles if c.up]
        assert ups == [1, 3, 4, 5, 6, 7, 9, 15]

    def test_deterministic_and_reembeddable(self):
        rng = random.Random(23)
        for _ in range(60):
            q, root = random_tree_quiver(rng, 10)
            e = gs.embed(q, root)
            assert gs.embed(q, root) == e
            gs.validate_embedding(e)

    def test_equal_only_to_an_embedding(self, ezig):
        assert ezig.__eq__(ezig.quiver) is NotImplemented
        assert ezig != ezig.quiver and ezig != ezig.cycles

    def test_long_chain_past_recursion_limit(self, tmp_path, capsys):
        # 1,200 3-cycles, each hung on the newest vertex of the one before:
        # the depth-first labelling must not recurse once per cycle
        arrows = []
        for k in range(1, 1201):
            x, y, z = 2 * k - 1, 2 * k, 2 * k + 1
            arrows += [(x, y), (y, z), (z, x)]
        q = gs.Quiver.from_arrows(2401, arrows)
        e = gs.embed(q)
        assert [c.label for c in e.cycles] == list(range(1, 1201))
        for c in e.cycles:
            k = c.label
            assert c.triple == (2 * k - 1, 2 * k, 2 * k + 1)
            assert c.parent == (None if k == 1 else k - 1)
        path = tmp_path / "chain1200.quiver"
        path.write_text(gs.serialize_quiver(q))
        assert main(["embed", str(path)]) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.startswith("T1 up ")

    def test_all_roots_valid(self):
        rng = random.Random(24)
        for _ in range(30):
            q, _ = random_tree_quiver(rng, 8)
            for leaf in gs.leaf_cycles(gs.cycle_tree(q)):
                e = gs.embed(q, leaf)
                gs.validate_embedding(e)
                assert e.cycle(1).triple == leaf

    def test_validator_rejects_relabeled_order(self, t15):
        # swapping the labels of the two subtrees under the second branching
        # cycle attaches the later branch at a dead outlet
        relabel = {11: 15, 12: 11, 13: 12, 14: 13, 15: 14}
        cycles = []
        for c in sorted(t15.cycles, key=lambda c: relabel.get(c.label, c.label)):
            cycles.append(
                gs.EmbeddedCycle(
                    relabel.get(c.label, c.label), c.up, c.x, c.y, c.z,
                    relabel.get(c.parent, c.parent) if c.parent else None,
                    c.parent_role,
                )
            )
        bad = gs.EmbeddedQuiver(t15.quiver, cycles)
        with pytest.raises(gs.EmbeddingError):
            gs.validate_embedding(bad)

    def test_degree_facts(self):
        rng = random.Random(25)
        for _ in range(50):
            q, root = random_tree_quiver(rng, 10)
            e = gs.embed(q, root)
            for c in e.cycles:
                assert len(q.neighbors(c.y)) in (2, 4)
                assert len(q.neighbors(c.z)) in (2, 4)

    def test_standard_labelling_is_unique(self):
        # among all label orders of a small tree, exactly the constructed
        # one survives the replay validator
        rng = random.Random(33)
        for _ in range(25):
            q, root = random_tree_quiver(rng, 5)
            e = gs.embed(q, root)
            n = e.n_cycles
            if n < 2:
                continue
            accepted = 0
            for perm in itertools.permutations(range(2, n + 1)):
                relabel = {1: 1, **{old: new for old, new in zip(range(2, n + 1), perm)}}
                cycles = sorted(
                    (
                        gs.EmbeddedCycle(
                            relabel[c.label], c.up, c.x, c.y, c.z,
                            relabel[c.parent] if c.parent else None, c.parent_role,
                        )
                        for c in e.cycles
                    ),
                    key=lambda c: c.label,
                )
                try:
                    gs.validate_embedding(gs.EmbeddedQuiver(q, cycles))
                    accepted += 1
                except gs.EmbeddingError:
                    pass
            assert accepted == 1

    def test_relabeling_equivariance(self):
        # the construction depends only on structure: renaming vertices
        # renames the produced sequence pointwise (multi-cycle trees; the
        # single-cycle rotation is pinned to the smallest id instead)
        rng = random.Random(34)
        done = 0
        while done < 30:
            q, root = random_tree_quiver(rng, 8)
            if len(gs.oriented_triangles(q)) < 2:
                continue
            perm = list(range(1, q.n + 1))
            rng.shuffle(perm)
            rho = {v: perm[v - 1] for v in range(1, q.n + 1)}
            q2 = gs.Quiver.from_arrows(q.n, [(rho[s], rho[d], m) for s, d, m in q.arrows])
            seq = gs.associated_sequence(gs.embed(q, root))
            seq2 = gs.associated_sequence(gs.embed(q2, tuple(sorted(rho[v] for v in root))))
            assert seq2 == tuple(rho[v] for v in seq)
            done += 1


class TestValidatorRefusals:
    # hand-built embeddings whose roles follow the arrows, each refused by
    # the replay for one reason
    TWO_AT_Z = gs.Quiver.from_arrows(5, [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 3)])
    T1 = gs.EmbeddedCycle(1, True, 1, 2, 3, None, None)

    def refused(self, q, cycles, msg):
        with pytest.raises(gs.EmbeddingError, match=rf"^{msg}$"):
            gs.validate_embedding(gs.EmbeddedQuiver(q, cycles))

    def test_attached_t1(self):
        q = gs.Quiver.from_arrows(3, [(1, 2), (2, 3), (3, 1)])
        cycles = [gs.EmbeddedCycle(1, True, 1, 2, 3, 1, "z")]
        self.refused(q, cycles, "T1 must be upward-pointing and unattached")

    def test_parent_not_earlier(self):
        cycles = [self.T1, gs.EmbeddedCycle(2, False, 3, 4, 5, 2, "z")]
        self.refused(self.TWO_AT_Z, cycles, "T2 must attach to an earlier cycle")

    def test_x_not_shared_with_parent(self):
        # T2's roles turned once along its arrows: x is 4, not z1 = 3
        cycles = [self.T1, gs.EmbeddedCycle(2, False, 4, 5, 3, 1, "z")]
        self.refused(self.TWO_AT_Z, cycles, "T2 does not share its x vertex with the parent")

    def test_orientation_against_attachment_side(self):
        cycles = [self.T1, gs.EmbeddedCycle(2, True, 3, 4, 5, 1, "z")]
        self.refused(self.TWO_AT_Z, cycles, "T2 orientation disagrees with its attachment side")

    def test_t2_at_y_of_t1(self):
        q = gs.Quiver.from_arrows(5, [(1, 2), (2, 3), (3, 1), (2, 4), (4, 5), (5, 2)])
        cycles = [self.T1, gs.EmbeddedCycle(2, True, 2, 4, 5, 1, "y")]
        self.refused(q, cycles, "T2 must be downward-pointing at z of T1")

    def test_upward_cycle_not_continuing_the_previous_one(self):
        # T2 = (3, 4, 2) leaves outlets 4 and 2, and 2 is also y1: an upward
        # T3 hung there from T1 passes the outlet test but not continuity
        q = gs.Quiver.from_arrows(4, [(1, 2), (2, 3), (3, 1), (3, 4), (4, 2)])
        cycles = [
            self.T1,
            gs.EmbeddedCycle(2, False, 3, 4, 2, 1, "z"),
            gs.EmbeddedCycle(3, True, 2, 3, 1, 1, "y"),
        ]
        self.refused(q, cycles, "upward T3 must continue the previous cycle")


class TestOutlets:
    def test_chain10(self, echain10):
        assert gs.validate_embedding(echain10) == (20, 21, 13, 9, 7, 5)

    def test_chain10_extended(self, echain11):
        assert gs.validate_embedding(echain11) == (22, 23, 5)

    def test_single_cycle(self, a3cycle):
        assert gs.validate_embedding(gs.embed(a3cycle)) == (3, 2)

    def test_tree15(self, t15):
        assert gs.validate_embedding(t15) == (30, 31, 19, 5)

    def test_outlets_have_degree_two(self):
        rng = random.Random(26)
        for _ in range(40):
            q, root = random_tree_quiver(rng, 9)
            e = gs.embed(q, root)
            for v in gs.validate_embedding(e):
                assert len(q.neighbors(v)) == 2


class TestBranches:
    def test_tree15(self, t15):
        got = [(b.labels, b.terminal) for b in gs.branches(t15)]
        assert got == [
            ((1, 2, 3, 4), "branching"),
            ((5, 6), "leaf"),
            ((7, 8, 9, 10), "branching"),
            ((11, 12, 13, 14), "leaf"),
            ((15,), "leaf"),
        ]

    def test_single_branch(self, ezig):
        assert [b.labels for b in gs.branches(ezig)] == [(1, 2, 3)]

    def test_no_cycles_no_branches(self, a3cycle):
        assert gs.branches(gs.EmbeddedQuiver(a3cycle, ())) == ()

    def test_partition(self):
        rng = random.Random(27)
        for _ in range(40):
            q, root = random_tree_quiver(rng, 12)
            e = gs.embed(q, root)
            labels = [l for b in gs.branches(e) for l in b.labels]
            assert labels == list(range(1, e.n_cycles + 1))
            for b in gs.branches(e):
                for l in b.labels[:-1]:
                    assert not e.is_branching(l)


class TestDescent:
    def test_upward_cycle(self, ezig):
        assert gs.descent_path(ezig, 1) == ()
        assert gs.base_cycle(ezig, 1) == 1

    def test_zigzag_chain(self, ezig):
        assert gs.descent_path(ezig, 2) == (2,)
        assert gs.base_cycle(ezig, 2) == 1
        assert gs.descent_path(ezig, 3) == (3, 2)
        assert gs.base_cycle(ezig, 3) == 1

    def test_tree15_paths(self, t15):
        assert gs.descent_path(t15, 9) == (9, 8, 7, 4)
        assert gs.base_cycle(t15, 9) == 3
        assert gs.descent_path(t15, 15) == (15,)
        assert gs.base_cycle(t15, 15) == 10

    def test_path_cycles_point_down(self):
        rng = random.Random(28)
        for _ in range(40):
            q, root = random_tree_quiver(rng, 10)
            e = gs.embed(q, root)
            for k in range(1, e.n_cycles + 1):
                path = gs.descent_path(e, k)
                assert all(not e.cycle(j).up for j in path)
                assert e.cycle(gs.base_cycle(e, k)).up


class TestClosingVertex:
    def test_upward(self, ezig):
        assert gs.closing_vertex(ezig, 1) == 1
        assert gs.hanging_chain(ezig, 1) == ()

    def test_zigzag_degree_two_case(self, ezig):
        # all y vertices below have degree 2, so the base cycle's x closes
        assert gs.closing_vertex(ezig, 2) == 1
        assert gs.hanging_chain(ezig, 2) == ()

    def test_tree15_values(self, t15):
        # the chain over the first branching cycle closes stages 7, 8, 9
        assert gs.hanging_chain(t15, 7) == (5, 6)
        assert gs.closing_vertex(t15, 7) == 13
        assert gs.closing_vertex(t15, 9) == 13
        # over the second branching cycle
        assert gs.hanging_chain(t15, 15) == (11,)
        assert gs.closing_vertex(t15, 15) == 23

    def test_tree16_chain_skips_labels(self, t16):
        assert gs.hanging_chain(t16, 16) == (5, 12, 13, 14)
        assert gs.closing_vertex(t16, 16) == 29


class TestStoredGeometry:
    """What an embedding and the stage walk work out agrees with the
    definitions by walking parents."""

    @staticmethod
    def assert_matches_walks(e):
        for k in range(1, e.n_cycles + 1):
            assert gs.descent_path(e, k) == walked_descent_path(e, k)
            assert gs.base_cycle(e, k) == walked_base_cycle(e, k)
            assert gs.hanging_chain(e, k) == walked_hanging_chain(e, k)
            assert gs.closing_vertex(e, k) == walked_closing_vertex(e, k)
        # the stage walk's own facts: the pending cycles, and the stage that
        # first mutates each vertex, from which on its predicted row is red
        n, first, pending = e.quiver.n, walked_first_stage(e), set()
        for k, _, stage_pending, rows in gs.matrixmodel._kept_prediction(e):
            pending.update(pc.label for pc in stage_pending)
            red = {r + 1 for r, row in enumerate(rows) if any(v < 0 for c, v in row.items() if c >= n)}
            assert red == {v for v, s in first.items() if s <= k}, k
        assert tuple(sorted(pending)) == walked_pending_set(e)

    def test_random_trees_every_root(self):
        rng = random.Random(41)
        for _ in range(40):
            q, _ = random_tree_quiver(rng, 12)
            for leaf in gs.leaf_cycles(gs.cycle_tree(q)):
                self.assert_matches_walks(gs.embed(q, leaf))

    def test_tree_fixtures_every_root(self):
        for name in ("a3cycle", "chain10", "chain11", "tree15", "tree16", "zig5", "zigzag7"):
            q = load(name)
            for leaf in gs.leaf_cycles(gs.cycle_tree(q)):
                self.assert_matches_walks(gs.embed(q, leaf))

    def test_y_z_swapped_embeddings(self, t15, t16):
        # the corrupted embeddings the model checks must reject
        for e in (t15, t16):
            for label in range(1, e.n_cycles + 1):
                cycles = [
                    gs.EmbeddedCycle(c.label, c.up, c.x, c.z, c.y, c.parent, c.parent_role)
                    if c.label == label else c
                    for c in e.cycles
                ]
                self.assert_matches_walks(gs.EmbeddedQuiver(e.quiver, cycles))

    def test_downward_cycle_without_parent_refused(self, a3cycle):
        with pytest.raises(gs.EmbeddingError, match="^downward T1 has no parent$"):
            gs.EmbeddedQuiver(a3cycle, [gs.EmbeddedCycle(1, False, 1, 2, 3, None, None)])


class TestNortheastRegion:
    def test_single_cycle(self, a3cycle):
        assert gs.northeast_region(gs.embed(a3cycle), 1) == ()

    def test_zigzag(self, ezig):
        assert gs.northeast_region(ezig, 2) == (3,)

    def test_total_on_occupied_z(self, ezig):
        # the scan is total even when z of the stage carries a cycle
        assert gs.northeast_region(ezig, 1) == (2, 3)

    def test_tree15_spot_values(self, t15):
        assert gs.northeast_region(t15, 6) == ()
        assert gs.northeast_region(t15, 9) == (5, 6, 10, 11, 12, 13, 14, 15)

    def test_matches_brute_force_scan(self):
        rng = random.Random(29)
        checked = 0
        for _ in range(40):
            q, root = random_tree_quiver(rng, 10)
            e = gs.embed(q, root)
            for k in range(1, e.n_cycles + 1):
                if e.child_at_z(k) is not None:
                    continue
                assert gs.northeast_region(e, k) == consecutive_run_region(e, k)
                checked += 1
        assert checked > 50


class TestReport:
    def test_zigzag_report(self, ezig):
        text = gs.embedding_report(ezig)
        assert "T1 up x=1 y=2 z=3 parent=-" in text
        assert "T2 down x=3 y=4 z=5 parent=T1@z" in text
        assert "outlets: 6 7" in text
        assert "branch S(1): T1..T3" in text

    def test_tree15_report_branches(self, t15):
        text = gs.embedding_report(t15)
        assert "branch S(5): T15" in text
        assert "outlets: 30 31 19 5" in text

    def test_report_reuses_the_replay_of_embed(self, t15, monkeypatch):
        # the replay reads one arrow per role pair of every cycle; the
        # report of an embedding that embed built and validated reads none
        reads = []
        multiplicity = gs.Quiver.multiplicity

        def counted(q, src, dst):
            reads.append((src, dst))
            return multiplicity(q, src, dst)

        monkeypatch.setattr(gs.Quiver, "multiplicity", counted)
        text = gs.embedding_report(t15)
        assert reads == [] and "outlets: 30 31 19 5" in text
        # the same cycles built by hand are replayed once, by the report
        by_hand = gs.EmbeddedQuiver(t15.quiver, t15.cycles)
        assert gs.embedding_report(by_hand) == text
        assert len(reads) == 3 * t15.n_cycles
        assert gs.embedding_report(by_hand) == text and len(reads) == 3 * t15.n_cycles

    def test_report_refuses_an_illegal_hand_built_embedding(self, ezig):
        first, *rest = ezig.cycles
        swapped = gs.EmbeddedCycle(1, True, first.x, first.z, first.y, None, None)
        bad = gs.EmbeddedQuiver(ezig.quiver, [swapped, *rest])
        with pytest.raises(gs.EmbeddingError, match="T1 roles do not follow the arrows"):
            gs.embedding_report(bad)
        # refused again: a replay that fails keeps nothing
        with pytest.raises(gs.EmbeddingError):
            gs.embedding_report(bad)


class TestHandBuiltRefusals:
    """Hand-built embeddings the stage walks cannot read are refused as
    EmbeddingError, naming what is wrong."""

    def test_parent_loop(self, ezig):
        # T2 hangs from T3 and T3 from T2: no climb reaches an upward cycle
        loop = with_cycle(ezig, 2, parent=3)
        for read in (
            lambda e: gs.base_cycle(e, 2), gs.associated_sequence, gs.verify_model,
            gs.check_permutation_identities,
        ):
            with pytest.raises(gs.EmbeddingError, match="^the parents of T2 form a loop$"):
                read(loop)

    def test_stage_vertex_beyond_n(self, ezig):
        message = r"^stage 3 order \(6, 9, 5, 3, 1\) does not permute vertices of 1\.\.7$"
        with pytest.raises(gs.EmbeddingError, match=message):
            gs.check_permutation_identities(with_cycle(ezig, 3, z=9))

    def test_vertex_on_no_cycle(self, ezig):
        # T3's y moved off the quiver leaves vertex 6 on no cycle
        bad = with_cycle(ezig, 3, y=9)
        with pytest.raises(gs.EmbeddingError, match="^vertex 6 lies on no cycle$"):
            gs.verify_model(bad)
        with pytest.raises(gs.EmbeddingError, match=r"^stage 3 order \(9, 7, 5, 3, 1\)"):
            gs.check_permutation_identities(bad)
