"""Core mutation, framing, coloring, and text format tests."""

from __future__ import annotations

import copy
import hashlib
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greenseq as gs
from conftest import load
from helpers import (
    b_matrix, coframe, dense_mutate, extended_part, format_extended_dense, from_cycle,
    random_quiver, reference_parse_quiver,
)


def quivers(max_n=8):
    @st.composite
    def build(draw):
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        return random_quiver(rng, max_n=max_n)

    return build()


def quiver_texts():
    """Texts near the quiver format: a random quiver's lines, shuffled, a
    multiplicity sometimes split over repeated lines, plus up to two
    planted lines (bad counts or fields, loops, 2-cycles, comments, blanks)."""
    planted = st.sampled_from([
        "arrow 1 1", "arrow 2 1", "arrow 3 1 2", "arrow 1 9", "arrow 0 1", "arrow 1 2 0",
        "arrow 1 2 -1", "arrow x 2", "arrow 1 2 1 1", "arrow", "quiver 3", "quiver 0",
        "quiver x", "quiver", "edge 1 2", "# note", "", " \t", "#arrow 1 1",
    ])

    @st.composite
    def build(draw):
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        q = random_quiver(rng, max_n=6, max_mult=3)
        lines = []
        for s, d, m in q.arrows:
            split = rng.randint(1, m)
            lines += [f"arrow {s} {d}"] * (split - 1) + [f"arrow {s} {d} {m - split + 1}"]
        rng.shuffle(lines)
        lines.insert(0, f"quiver {q.n}")
        for pos, line in draw(st.lists(st.tuples(st.integers(0, 30), planted), max_size=2)):
            lines.insert(pos % (len(lines) + 1), line)
        return draw(st.sampled_from(["\n", "\r\n", " \n\t"])).join(lines)

    return build()


class TestQuiverBasics:
    def test_rejects_loops(self):
        with pytest.raises(gs.QuiverError, match="loop"):
            gs.Quiver(2, ((1, 1, 1),))

    def test_rejects_two_cycles(self):
        with pytest.raises(gs.QuiverError, match="2-cycle"):
            gs.Quiver(2, ((1, 2, 1), (2, 1, 1)))

    def test_rejects_out_of_range(self):
        with pytest.raises(gs.QuiverError, match="out of range"):
            gs.Quiver(2, ((1, 3, 1),))

    def test_from_arrows_sums_repeats(self):
        q = gs.Quiver.from_arrows(3, [(1, 2), (1, 2), (2, 3, 2)])
        assert q.arrows == ((1, 2, 2), (2, 3, 2))

    def test_adjacency_matches_arrow_scan(self):
        rng = random.Random(31)
        for _ in range(200):
            q = random_quiver(rng, max_n=9)
            for v in range(1, q.n + 1):
                scan = {d for s, d, _ in q.arrows if s == v} | {s for s, d, _ in q.arrows if d == v}
                assert q.neighbors(v) == tuple(sorted(scan)) and q.degree(v) == len(scan)
                for w in range(1, q.n + 1):
                    mult = sum(m for s, d, m in q.arrows if (s, d) == (v, w))
                    assert q.multiplicity(v, w) == mult

    def test_b_matrix_skew(self, a3cycle):
        b = b_matrix(a3cycle)
        assert all(b[i][j] == -b[j][i] for i in range(3) for j in range(3))
        assert b[0][1] == 1 and b[1][2] == 1 and b[2][0] == 1


class TestMutate:
    def test_cyclic_triangle_at_1(self, a3cycle):
        # hand application of the three-step rule: composite 3->2 cancels
        # against 2->3, arrows at 1 reverse
        assert gs.mutate(a3cycle, 1).arrows == ((1, 3, 1), (2, 1, 1))

    def test_sink_reversal(self):
        q = gs.Quiver.from_arrows(2, [(1, 2)])
        assert gs.mutate(q, 2).arrows == ((2, 1, 1),)

    def test_out_of_range(self, a3cycle):
        with pytest.raises(gs.QuiverError):
            gs.mutate(a3cycle, 4)

    @given(quivers(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_involution(self, q, data):
        k = data.draw(st.integers(1, q.n))
        assert gs.mutate(gs.mutate(q, k), k) == q

    def test_matrix_agreement_bulk(self):
        # the arrow-rule and matrix-formula implementations agree
        rng = random.Random(2024)
        for _ in range(10_000):
            q = random_quiver(rng, max_n=12)
            k = rng.randint(1, q.n)
            via_matrix = gs.matrix_mutate(gs.frame(q), k).quiver()
            assert via_matrix == gs.mutate(q, k)

    @given(quivers(), st.lists(st.integers(1, 8), max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_kernel_matches_arrow_rule_along_sequences(self, q, ks):
        # random quivers with multiplicities, mostly not type A: the sparse
        # kernel gives the dense formula's whole extended matrix, and the
        # arrow rule's quiver
        eq = gs.frame(q)
        dense = [list(row) for row in eq.rows]
        for k in ks:
            k = (k - 1) % q.n + 1
            q, eq, dense = gs.mutate(q, k), gs.matrix_mutate(eq, k), dense_mutate(dense, k)
            assert eq.rows == tuple(map(tuple, dense))
            assert eq.quiver() == q
            # the checked constructor finds the mutable block skew-symmetric
            # (mutated states skip that check), and the state stores no zero:
            # a stored zero would break exact equality, and exchange_graph's
            # dedup with it
            again = gs.ExtendedQuiver(eq.n, eq.m, eq.rows)
            assert again == eq and hash(again) == hash(eq)

    def test_degree_bound_in_type_a_class(self, zigzag7):
        # within a type-A mutation class every vertex keeps at most two
        # outgoing and two incoming arrows among mutable neighbors
        rng = random.Random(5)
        q = zigzag7
        for _ in range(400):
            q = gs.mutate(q, rng.randint(1, q.n))
            for row in b_matrix(q):
                assert sum(v > 0 for v in row) <= 2
                assert sum(v < 0 for v in row) <= 2


class TestExtended:
    def test_frame_a1(self):
        eq = gs.frame(gs.Quiver(1, ()))
        assert eq.rows == ((0, 1),)
        assert gs.matrix_mutate(eq, 1).rows == ((0, -1),)

    def test_frame_triangle(self, a3cycle):
        eq = gs.frame(a3cycle)
        assert extended_part(eq) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert tuple(gs.vertex_color(eq, i) for i in (1, 2, 3)) == ("green", "green", "green")

    def test_coframe_all_red(self, a3cycle):
        eq = coframe(a3cycle)
        assert tuple(gs.vertex_color(eq, i) for i in (1, 2, 3)) == ("red", "red", "red")

    def test_matrix_mutation_involution(self, zigzag7):
        eq = gs.frame(zigzag7)
        rng = random.Random(1)
        for _ in range(50):
            k = rng.randint(1, 7)
            assert gs.matrix_mutate(gs.matrix_mutate(eq, k), k) == eq
            eq = gs.matrix_mutate(eq, k)

    def test_frozen_row_after_one_step(self, a3cycle):
        eq = gs.matrix_mutate(gs.frame(a3cycle), 1)
        assert gs.vertex_color(eq, 1) == "red"
        assert gs.vertex_color(eq, 2) == "green"
        assert gs.vertex_color(eq, 3) == "green"
        # frozen block: row 1 negated, rows 2 and 3 by the formula
        assert extended_part(eq) == ((-1, 0, 0), (0, 1, 0), (1, 0, 1))

    def test_mutating_frozen_rejected(self, a3cycle):
        with pytest.raises(gs.QuiverError, match="frozen or out of range"):
            gs.matrix_mutate(gs.frame(a3cycle), 4)

    def test_apply_sequence_identity_cases(self, a3cycle):
        eq = gs.frame(a3cycle)
        assert gs.apply_sequence(eq, ()) == eq
        assert gs.apply_sequence(eq, (2, 2)) == eq

    def test_full_sequence_reaches_coframing(self, a3cycle):
        final = gs.apply_sequence(gs.frame(a3cycle), (1, 3, 2, 1))
        ext = extended_part(final)
        # -permutation matrix in the frozen block
        assert sorted(tuple(-v for v in row) for row in ext) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]

    def test_sign_coherence_invariant(self, zigzag7):
        rng = random.Random(9)
        eq = gs.frame(zigzag7)
        for _ in range(300):
            eq = gs.matrix_mutate(eq, rng.randint(1, 7))
            for i in range(1, 8):
                assert gs.vertex_color(eq, i) in ("green", "red")

    def test_sign_coherence_error_on_corrupt_state(self):
        bad = gs.ExtendedQuiver(1, 2, [[0, 1, -1]])
        with pytest.raises(gs.SignCoherenceError, match="mixed"):
            gs.vertex_color(bad, 1)
        zero = gs.ExtendedQuiver(1, 1, [[0, 0]])
        with pytest.raises(gs.SignCoherenceError, match="zero"):
            gs.vertex_color(zero, 1)

    def test_entry_range_checked(self):
        eq = gs.ExtendedQuiver(2, 3, [[0, 1, 1, 0, 2], [-1, 0, 0, 1, 0]])
        assert eq.entry(1, 2) == 1 and eq.entry(1, 3, frozen=True) == 2
        assert eq.entry(2, 1, frozen=True) == 0
        for i, j, frozen in ((0, 1, False), (3, 1, False), (1, 0, False), (1, 3, False),
                             (1, 0, True), (1, 4, True), (3, 1, True)):
            with pytest.raises(gs.QuiverError, match="out of range"):
                eq.entry(i, j, frozen=frozen)

    def test_rows_shared_and_no_zero_stored(self):
        eq = gs.frame(gs.Quiver.from_arrows(4, [(1, 2), (2, 3), (3, 1)]))
        # vertex 4 is not joined to 1: its row is shared, not copied
        assert gs.matrix_mutate(eq, 1).sparse_rows[3] is eq.sparse_rows[3]
        # 2 -> 3 cancels against the composite 3 -> 1 -> 2
        after = gs.matrix_mutate(eq, 1)
        assert 2 not in after.sparse_rows[1] and 1 not in after.sparse_rows[2]
        assert after.entry(2, 3) == 0

    def test_states_are_immutable(self, a3cycle):
        eq = gs.frame(a3cycle)
        with pytest.raises(AttributeError):
            eq.n = 4
        with pytest.raises(AttributeError):
            eq.rows = ()
        assert pickle.loads(pickle.dumps(eq)) == eq and copy.deepcopy(eq) == eq

    def test_entries_exact_past_int64(self):
        big = 2**32
        mat = [[0, big, 1, 0], [-big, 0, 0, 1]]
        for k in (1, 2):
            got = gs.matrix_mutate(gs.ExtendedQuiver(2, 2, mat), k).rows
            assert got == tuple(map(tuple, dense_mutate(mat, k)))
        # a wild quiver with 2^32 arrows: entries pass 2^63 within a few steps
        q = gs.Quiver(3, ((1, 2, 3), (2, 3, big), (3, 1, 2)))
        eq = gs.frame(q)
        dense = [list(row) for row in eq.rows]
        for k in (1, 2, 3) * 4:
            q, eq, dense = gs.mutate(q, k), gs.matrix_mutate(eq, k), dense_mutate(dense, k)
            assert eq.quiver() == q
            assert eq.rows == tuple(map(tuple, dense))
        assert max(abs(v) for row in eq.rows for v in row) > 2**63


class Index:
    """An integer-like value that is not an int: ``operator.index`` takes it."""

    def __init__(self, value: int) -> None:
        self.value = value

    def __index__(self) -> int:
        return self.value


class TestExactValuesAtTheBoundary:
    # every constructor takes what operator.index takes, stores plain ints,
    # and refuses anything else with a QuiverError naming the value

    @pytest.mark.parametrize("bad", [1.5, "2", 2.0, None])
    def test_extended_quiver_refuses_a_non_integer_entry(self, bad):
        with pytest.raises(gs.QuiverError, match=rf"^matrix entry {re.escape(repr(bad))} is not"):
            gs.ExtendedQuiver(1, 1, [[0, bad]])

    def test_extended_quiver_stores_plain_ints(self):
        eq = gs.ExtendedQuiver(Index(1), 1, [[0, Index(3)]])
        assert eq.n == 1 and type(eq.n) is int
        assert eq.sparse_rows == ({1: 3},) and type(eq.sparse_rows[0][1]) is int
        assert gs.ExtendedQuiver(1, 1, [[False, True]]).rows == ((0, 1),)
        assert type(gs.ExtendedQuiver(1, 1, [[False, True]]).sparse_rows[0][1]) is int

    def test_quiver_refuses_a_float_multiplicity(self):
        with pytest.raises(gs.QuiverError, match=r"^arrow entry 1\.5 is not an integer$"):
            gs.Quiver(2, ((1, 2, 1.5),))
        with pytest.raises(gs.QuiverError, match=r"^vertex count 2\.0 is not an integer$"):
            gs.Quiver(2.0, ())

    def test_quiver_stores_plain_ints(self):
        q = gs.Quiver(Index(2), ((Index(1), 2, Index(3)),))
        assert q.arrows == ((1, 2, 3),) and q.n == 2
        assert all(type(v) is int for v in (q.n, *q.arrows[0]))
        assert gs.frame(q).rows == ((0, 3, 1, 0), (-3, 0, 0, 1))
        assert all(type(v) is int for row in gs.frame(q).sparse_rows for v in row.values())

    def test_permutation_refuses_a_float_image(self):
        with pytest.raises(gs.QuiverError, match=r"^permutation image 1\.0 is not an integer$"):
            gs.Permutation((1.0, 2))

    def test_permutation_stores_plain_ints(self):
        p = gs.Permutation((Index(2), True))
        assert p.images == (2, 1) and all(type(v) is int for v in p.images)
        assert p == gs.Permutation((2, 1)) and hash(p) == hash(gs.Permutation((2, 1)))

    def test_from_arrows_refuses_a_short_entry(self):
        with pytest.raises(gs.QuiverError, match=r"^arrow entry \(1,\) is not \(src, dst\)"):
            gs.Quiver.from_arrows(3, [(1,)])

    def test_from_arrows_refuses_a_long_entry(self):
        with pytest.raises(gs.QuiverError, match=r"^arrow entry \(1, 2, 1, 9\) is not \(src, dst\)"):
            gs.Quiver.from_arrows(3, [(1, 2, 1, 9)])

    def test_from_arrows_names_the_negative_entry(self):
        # summing first would report "multiplicity 0" for the pair
        with pytest.raises(gs.QuiverError, match=r"^arrow entry \(1, 2, -1\) has multiplicity -1$"):
            gs.Quiver.from_arrows(3, [(1, 2, 1), (1, 2, -1)])

    def test_from_arrows_refuses_a_float_entry(self):
        with pytest.raises(gs.QuiverError, match=r"^arrow entry 1\.5 is not an integer$"):
            gs.Quiver.from_arrows(3, [(1, 2, 1.5)])


class TestMalformedEntries:
    # an entry of the wrong shape is refused with a QuiverError naming it,
    # not a ValueError or TypeError from unpacking it

    def test_quiver_refuses_an_arrow_without_multiplicity(self):
        msg = r"^arrow entry \(1, 2\) is not \(src, dst, mult\)$"
        with pytest.raises(gs.QuiverError, match=msg):
            gs.Quiver(2, ((1, 2),))

    def test_from_arrows_refuses_an_entry_that_is_not_a_sequence(self):
        with pytest.raises(gs.QuiverError, match=r"^arrow entry 5 is not \(src, dst\)"):
            gs.Quiver.from_arrows(3, [5])

    def test_direct_sum_refuses_a_short_gluing_pair(self):
        one = gs.Quiver(1, ())
        msg = r"^gluing pair \(1,\) is not \(source, target\)$"
        with pytest.raises(gs.DirectSumError, match=msg):
            gs.direct_sum(one, one, [(1,)])

    def test_direct_sum_names_a_float_gluing_end(self):
        # the end is named, not the arrow of the sum it would become; out
        # of range, a float keeps the range message
        path = gs.Quiver(3, ((1, 2, 1), (2, 3, 1)))
        with pytest.raises(gs.QuiverError, match=r"^gluing end 1\.0 is not an integer$"):
            gs.direct_sum(path, path, [(1.0, 5)])
        with pytest.raises(gs.QuiverError, match=r"^gluing end 5\.0 is not an integer$"):
            gs.direct_sum(path, path, [(1, 5.0)])
        msg = r"^gluing source 9\.0 is not a vertex of the first summand$"
        with pytest.raises(gs.DirectSumError, match=msg):
            gs.direct_sum(path, path, [(9.0, 5)])

    @pytest.mark.parametrize("vertices, msg", [
        ([9], r"^vertex 9 out of range 1\.\.3$"),
        ([2, 0], r"^vertex 0 out of range 1\.\.3$"),
        ([1, 2.5], r"^vertex 2\.5 is not an integer$"),
        (5, r"^5 is not a sequence of vertex values$"),
    ], ids=["above", "zero", "float", "not-a-sequence"])
    def test_subquiver_refuses_a_vertex_outside_the_quiver(self, vertices, msg):
        path = gs.Quiver(3, ((1, 2, 1), (2, 3, 1)))
        with pytest.raises(gs.QuiverError, match=msg):
            gs.subquiver(path, vertices)

    @pytest.mark.parametrize("call, msg", [
        (lambda q: gs.verify_green(q, ["a"]), r"^vertex 'a' is not an integer$"),
        (lambda q: gs.verify_green(q, [1, 1.0]), r"^vertex 1\.0 is not an integer$"),
        (lambda q: gs.mutate(q, "1"), r"^mutation vertex '1' is not an integer$"),
        (lambda q: gs.concat_mgs(gs.decompose(q), [[1], ["a"], [1]]),
         r"^vertex 'a' is not an integer$"),
    ], ids=["verify-str", "verify-float", "mutate-str", "concat-str"])
    def test_non_integer_steps_are_refused(self, call, msg):
        path = gs.Quiver(3, ((1, 2, 1), (2, 3, 1)))
        with pytest.raises(gs.QuiverError, match=msg):
            call(path)

    @pytest.mark.parametrize("call, msg", [
        (lambda: gs.Quiver(2, 5), r"^5 is not a sequence of arrow values$"),
        (lambda: gs.Quiver.from_arrows(2, 5), r"^5 is not a sequence of arrow values$"),
        (lambda: gs.ExtendedQuiver(1, 1, 5), r"^5 is not a sequence of matrix row values$"),
    ], ids=["quiver", "from-arrows", "extended-quiver"])
    def test_containers_that_are_not_sequences_are_refused(self, call, msg):
        with pytest.raises(gs.QuiverError, match=msg):
            call()

    @pytest.mark.parametrize("call, msg", [
        (lambda q, eq: gs.vertex_color(eq, 1.0), r"^vertex 1\.0 is not an integer$"),
        (lambda q, eq: eq.entry(1.0, 1), r"^vertex 1\.0 is not an integer$"),
        (lambda q, eq: gs.matrix_mutate(eq, 1.0), r"^mutation vertex 1\.0 is not an integer$"),
        (lambda q, eq: gs.apply_sequence(eq, ["a"]), r"^mutation vertex 'a' is not an integer$"),
        (lambda q, eq: gs.enumerate_mgs(q, max_len="x"), r"^max_len 'x' is not an integer$"),
        (lambda q, eq: gs.exchange_graph(q, "x"), r"^max_nodes 'x' is not an integer$"),
        (lambda q, eq: gs.stage_parts(gs.embed(gs.Quiver(3, ((1, 2, 1), (2, 3, 1), (3, 1, 1)))),
                                      1.0), r"^stage 1\.0 is not an integer$"),
    ], ids=["vertex-color", "entry", "matrix-mutate", "apply-sequence", "max-len", "max-nodes",
            "stage-parts"])
    def test_non_integer_arguments_are_refused(self, call, msg):
        path = gs.Quiver(3, ((1, 2, 1), (2, 3, 1)))
        with pytest.raises(gs.QuiverError, match=msg):
            call(path, gs.frame(path))

    def test_direct_sum_refuses_a_gluing_end_that_is_not_a_number(self):
        path = gs.Quiver(3, ((1, 2, 1), (2, 3, 1)))
        msg = r"^gluing source a is not a vertex of the first summand$"
        with pytest.raises(gs.DirectSumError, match=msg):
            gs.direct_sum(path, path, [("a", 5)])
        msg = r"^gluing target None is not a shifted vertex of the second summand$"
        with pytest.raises(gs.DirectSumError, match=msg):
            gs.direct_sum(path, path, [(1, None)])

    def test_concat_refuses_per_summand_sequences_that_are_not_a_sequence(self):
        dec = gs.decompose(gs.Quiver(3, ((1, 2, 1), (2, 3, 1))))
        msg = r"^5 is not a sequence of per-summand sequences$"
        with pytest.raises(gs.DirectSumError, match=msg):
            gs.concat_mgs(dec, 5)

    def test_extended_quiver_refuses_a_row_that_is_not_a_sequence(self):
        with pytest.raises(gs.QuiverError, match=r"^5 is not a sequence of matrix entry values$"):
            gs.ExtendedQuiver(1, 1, [5])

    def test_permutation_refuses_images_that_are_not_a_sequence(self):
        msg = r"^5 is not a sequence of permutation image values$"
        with pytest.raises(gs.QuiverError, match=msg):
            gs.Permutation(5)


class TestRefusals:
    # each refusal names its reason, word for word

    def test_extended_quiver_refuses_a_wrong_shape(self):
        with pytest.raises(gs.QuiverError, match=r"^matrix is not 2 x 4$"):
            gs.ExtendedQuiver(2, 2, [[0, 1, 1, 0]])
        with pytest.raises(gs.QuiverError, match=r"^matrix is not 2 x 4$"):
            gs.ExtendedQuiver(2, 2, [[0, 1, 1, 0], [-1, 0, 0]])

    def test_vertex_color_refuses_a_vertex_beyond_n(self):
        eq = gs.frame(gs.Quiver(3, ((1, 2, 1), (2, 3, 1))))
        with pytest.raises(gs.QuiverError, match=r"^vertex 4 out of range 1\.\.3$"):
            gs.vertex_color(eq, 4)

    def test_extended_quiver_refuses_a_block_that_is_not_skew_symmetric(self):
        with pytest.raises(gs.QuiverError, match=r"^mutable block is not skew-symmetric$"):
            gs.ExtendedQuiver(2, 0, [[0, 1], [1, 0]])
        with pytest.raises(gs.QuiverError, match=r"^mutable block is not skew-symmetric$"):
            gs.ExtendedQuiver(1, 1, [[2, 1]])

    @pytest.mark.parametrize("n", [0, -3])
    def test_quiver_refuses_a_non_positive_vertex_count(self, n):
        with pytest.raises(gs.QuiverError, match=rf"^vertex count must be positive, got {n}$"):
            gs.Quiver(n, ())

    @pytest.mark.parametrize("m", [0, -1])
    def test_quiver_refuses_a_multiplicity_below_one(self, m):
        with pytest.raises(gs.QuiverError, match=rf"^arrow 1 -> 2 has multiplicity {m}$"):
            gs.Quiver(2, ((1, 2, m),))

    def test_quiver_refuses_a_duplicate_arrow(self):
        with pytest.raises(gs.QuiverError, match=r"^duplicate arrow entry 1 -> 2$"):
            gs.Quiver(3, ((1, 2, 1), (2, 3, 1), (1, 2, 2)))


class TestPermutation:
    def test_from_cycle_and_apply(self):
        p = from_cycle(4, (3, 1))
        assert p.apply(3) == 1 and p.apply(1) == 3 and p.apply(2) == 2

    @pytest.mark.parametrize("i, message", [
        (0, "vertex 0 out of range 1..3"), (4, "vertex 4 out of range 1..3"),
        (-1, "vertex -1 out of range 1..3"), (1.0, "vertex 1.0 is not an integer"),
        ("1", "vertex '1' is not an integer"),
    ])
    def test_apply_refuses_a_vertex_outside_1_to_n(self, i, message):
        # 0 must not read images[-1], the image of n
        with pytest.raises(gs.QuiverError, match=f"^{re.escape(message)}$"):
            gs.Permutation((2, 3, 1)).apply(i)

    def test_then_order(self):
        first = from_cycle(3, (1, 2))
        second = from_cycle(3, (2, 3))
        assert first.then(second).apply(1) == 3  # 1 -> 2 -> 3

    def test_inverse_roundtrip(self):
        rng = random.Random(0)
        for _ in range(30):
            images = list(range(1, 9))
            rng.shuffle(images)
            p = gs.Permutation(tuple(images))
            assert p.then(p.inverse()) == gs.Permutation.identity(8)

    def test_cycle_string(self):
        assert gs.Permutation.identity(3).cycle_string() == "()"
        assert gs.Permutation((2, 1, 3)).cycle_string() == "(1 2)"

    @pytest.mark.parametrize("images", [(1, 1, 3), (0, 2, 3), (-1, 2, 3), (1, 2, 4), (3, 1, 1)])
    def test_rejects_non_bijections(self, images):
        # 0 and -1 must be refused by range, not read as seen[0] or seen[-1]
        with pytest.raises(gs.QuiverError, match=r"^not a bijection on 1\.\.3: "):
            gs.Permutation(images)

    def test_accepts_bijections(self):
        assert gs.Permutation((3, 1, 2)).images == (3, 1, 2)
        assert gs.Permutation(()).n == 0


class TestTextFormat:
    def test_parse_basics(self):
        q = gs.parse_quiver("# comment\n\nquiver 3\narrow 1 2\narrow 1 2\narrow 2 3 2\n")
        assert q.arrows == ((1, 2, 2), (2, 3, 2))

    def test_parse_rejects_two_cycle_naming_pair(self):
        with pytest.raises(gs.QuiverParseError, match="2-cycle between 1 and 2"):
            gs.parse_quiver("quiver 2\narrow 1 2\narrow 2 1\n")

    def test_parse_rejects_loop(self):
        with pytest.raises(gs.QuiverParseError, match="loop"):
            gs.parse_quiver("quiver 2\narrow 1 1\n")

    @pytest.mark.parametrize(
        "text",
        ["arrow 1 2\n", "quiver 0\n", "quiver 2\narrow 1 5\n", "quiver two\n", "size 3\n"],
    )
    def test_parse_errors(self, text):
        with pytest.raises(gs.QuiverParseError):
            gs.parse_quiver(text)

    def test_roundtrip_idempotent(self):
        rng = random.Random(77)
        for _ in range(50):
            q = random_quiver(rng, max_n=9)
            once = gs.serialize_quiver(q)
            assert gs.parse_quiver(once) == q
            assert gs.serialize_quiver(gs.parse_quiver(once)) == once

    def test_fixture_files_normalized(self):
        for name in ("a3cycle", "zigzag7", "tree15", "tree16", "sum26"):
            q = load(name)
            assert gs.parse_quiver(gs.serialize_quiver(q)) == q

    @pytest.mark.parametrize("count", [gs.quiver.MAX_VERTICES + 1, 10**9])
    def test_parse_refuses_vertex_count_above_limit(self, count):
        # refused before anything is allocated per vertex
        with pytest.raises(gs.QuiverParseError, match=f"exceeds the limit {gs.quiver.MAX_VERTICES}"):
            gs.parse_quiver(f"quiver {count}\narrow 1 2\n")

    def test_extended_format(self):
        text = gs.format_extended(gs.frame(gs.Quiver(1, ())))
        assert text == "extb 1 1\n0\t1\n"

    def test_extended_format_builds_no_dense_view(self, monkeypatch):
        # each line comes from its row's nonzeros; the text and the big-entry
        # hash payload are those of the dense rows
        states = []
        for name in ("a3cycle", "zigzag7", "tree15", "tree16", "sum26"):
            q = load(name)
            states += [gs.frame(q), gs.apply_sequence(gs.frame(q), range(1, q.n + 1))]
        big = gs.apply_sequence(gs.frame(gs.Quiver(2, ((1, 2, 2**40),))), (2, 1))
        assert max(max(row) for row in big.rows) >= 2**63
        want = [format_extended_dense(eq) for eq in states + [big]]
        big_hash = hashlib.sha256(b"extb 2 2\nbig\n" + want[-1].encode()).hexdigest()[:16]

        def no_dense(self):
            raise AssertionError("dense view built")

        monkeypatch.setattr(gs.ExtendedQuiver, "rows", property(no_dense))
        assert [gs.format_extended(eq) for eq in states + [big]] == want
        assert gs.matrix_hash(big) == big_hash

    @given(quiver_texts())
    @settings(max_examples=400, deadline=None)
    def test_parser_skips_no_check_of_the_constructor(self, text):
        # the parser hands its counts to the builder unchecked: whatever it
        # accepts, the checking constructor accepts with equal arrows,
        # neighbors and arrow-dict order; whatever it refuses, the reference
        # refuses with the same message, naming the same first bad line
        try:
            want = reference_parse_quiver(text)
        except gs.QuiverParseError as exc:
            with pytest.raises(gs.QuiverParseError) as got:
                gs.parse_quiver(text)
            assert str(got.value) == str(exc)
            return
        q = gs.parse_quiver(text)
        checked = gs.Quiver(q.n, q.arrows)
        assert q == want == checked
        assert q.arrows == checked.arrows == want.arrows
        for s, d, m in want.arrows:
            assert q.multiplicity(s, d) == checked.multiplicity(s, d) == m
        for v in range(1, q.n + 1):
            assert q.neighbors(v) == checked.neighbors(v) == want.neighbors(v)

    def test_constructor_builds_sorted_views_from_any_order(self):
        rng = random.Random(78)
        for _ in range(200):
            q = random_quiver(rng, max_n=9, max_mult=3)
            shuffled = list(q.arrows)
            rng.shuffle(shuffled)
            again = gs.Quiver(q.n, tuple(shuffled))
            assert again.arrows == tuple(sorted(shuffled))
            assert all(again.multiplicity(s, d) == m for s, d, m in shuffled)
            for v in range(1, q.n + 1):
                assert again.neighbors(v) == q.neighbors(v)

    @given(st.text(alphabet="quivero arw 0123#-\n\t ", max_size=120))
    @settings(max_examples=200, deadline=None)
    def test_parser_fuzz_never_crashes(self, text):
        try:
            q = gs.parse_quiver(text)
        except gs.QuiverParseError:
            return
        assert gs.parse_quiver(gs.serialize_quiver(q)) == q
