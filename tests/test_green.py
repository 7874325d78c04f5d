"""Green traces, maximality, census enumeration, and the exchange graph."""

from __future__ import annotations

import hashlib
import random
import re
import time
from array import array
from itertools import chain

import pytest

import greenseq as gs
from conftest import load
from helpers import (
    coframe,
    dense_matrix_hash,
    extended_part,
    iso_class_count_exhaustive,
    random_quiver,
    smallest_source_order,
)

# Census of the oriented triangle, exhaustively enumerated and verified
# (every member is maximal under verify_green; the exchange graph's chain count
# agrees).  Six of length 4 and three of length 5.
A3_CENSUS = (
    (1, 2, 3, 1),
    (1, 3, 1, 2, 1),
    (1, 3, 2, 1),
    (2, 1, 2, 3, 2),
    (2, 1, 3, 2),
    (2, 3, 1, 2),
    (3, 1, 2, 3),
    (3, 2, 1, 3),
    (3, 2, 3, 1, 3),
)


class TestVerifyGreen:
    def test_zigzag_eleven_step(self, zigzag7):
        trace = gs.verify_green(zigzag7, (7, 4, 1, 5, 2, 6, 7, 3, 4, 1, 3))
        assert trace.is_green
        assert gs.green_vertices(trace.final_state) == ()

    def test_full_green_trace(self, a3cycle):
        seq = (1, 3, 2, 1)
        trace = gs.verify_green(a3cycle, seq)
        assert trace.is_green and trace.sequence == seq
        colors = [gs.vertex_color(gs.apply_sequence(gs.frame(a3cycle), seq[:i]), k)
                  for i, k in enumerate(seq)]
        assert colors == ["green"] * 4
        assert tuple(gs.vertex_color(trace.final_state, i) for i in (1, 2, 3)) == ("red", "red", "red")

    def test_violation_truncates(self, a3cycle):
        trace = gs.verify_green(a3cycle, (1, 1))
        assert not trace.is_green and not trace.is_maximal
        assert trace.violation_step == 2
        # the walk stops before the offending mutation
        assert trace.final_state == gs.matrix_mutate(gs.frame(a3cycle), 1)
        assert gs.vertex_color(trace.final_state, 1) == "red"


class TestMaximality:
    def test_green_but_not_maximal(self, a3cycle):
        trace = gs.verify_green(a3cycle, (1, 3, 2))
        assert trace.is_green and not trace.is_maximal
        assert trace.induced is None

    def test_a1(self):
        trace = gs.verify_green(gs.Quiver(1, ()), (1,))
        assert trace.is_maximal and trace.induced == gs.Permutation.identity(1)

    def test_zigzag_thirteen_step(self, zigzag7):
        seq = (1, 2, 3, 1, 4, 5, 3, 1, 6, 7, 5, 3, 1)
        assert gs.verify_green(zigzag7, seq).is_maximal

    def test_induced_permutation_transposition(self):
        # 2 -> 1 orientation: the length-3 sequence swaps the two vertices
        q = gs.Quiver.from_arrows(2, [(2, 1)])
        assert gs.verify_green(q, (1, 2, 1)).induced.cycle_string() == "(1 2)"
        q = gs.Quiver.from_arrows(2, [(1, 2)])
        assert gs.verify_green(q, (2, 1, 2)).induced.cycle_string() == "(1 2)"

    def test_induced_permutation_oracle(self, a3cycle):
        # read the permutation straight off the final frozen block
        final = gs.apply_sequence(gs.frame(a3cycle), (1, 3, 2, 1))
        images = []
        for row in extended_part(final):
            images.append(row.index(-1) + 1)
        assert gs.verify_green(a3cycle, (1, 3, 2, 1)).induced.images == tuple(images)


class TestAcyclicMgs:
    def test_linear_a3(self):
        q = load("a3linear")
        assert gs.acyclic_mgs(q) == (1, 2, 3)
        assert gs.verify_green(q, (1, 2, 3)).is_maximal

    def test_single_vertex(self):
        assert gs.acyclic_mgs(gs.Quiver(1, ())) == (1,)

    def test_fork_tie_break(self):
        q = load("fork3")
        assert gs.acyclic_mgs(q) == (1, 2, 3)
        assert gs.verify_green(q, (1, 2, 3)).is_maximal

    def test_cycle_rejected(self, a3cycle):
        with pytest.raises(gs.NotAcyclicError):
            gs.acyclic_mgs(a3cycle)

    def test_random_source_orders_verify(self):
        rng = random.Random(12)
        for _ in range(40):
            n = rng.randint(1, 7)
            arrows = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < 0.4]
            q = gs.Quiver.from_arrows(n, arrows)
            assert gs.verify_green(q, gs.acyclic_mgs(q)).is_maximal

    def test_random_dags_match_definition(self):
        # arrows run forward along a shuffled order, so vertex ids do not
        # give the topological order away
        rng = random.Random(13)
        for _ in range(200):
            n = rng.randint(1, 12)
            topo = rng.sample(range(1, n + 1), n)
            arrows = [(topo[i], topo[j]) for i in range(n) for j in range(i + 1, n)
                      if rng.random() < 0.3]
            q = gs.Quiver.from_arrows(n, arrows)
            assert gs.acyclic_mgs(q) == smallest_source_order(q), q

    def test_many_isolated_vertices(self):
        q = gs.Quiver(30000, ())
        start = time.perf_counter()
        assert gs.acyclic_mgs(q) == tuple(range(1, 30001))
        assert time.perf_counter() - start < 1.5


class TestEnumerate:
    def test_a3_cycle_census(self, a3cycle):
        census = gs.enumerate_mgs(a3cycle)
        assert census == A3_CENSUS
        lengths = sorted(len(s) for s in census)
        assert lengths == [4] * 6 + [5] * 3
        for seq in census:
            assert gs.verify_green(a3cycle, seq).is_maximal

    def test_census_is_lex_sorted(self, a3cycle):
        census = gs.enumerate_mgs(a3cycle)
        assert list(census) == sorted(census)

    def test_a1(self):
        assert gs.enumerate_mgs(gs.Quiver(1, ())) == ((1,),)

    def test_linear_a2(self):
        # source order first, then the long route through the pentagon
        q = gs.Quiver.from_arrows(2, [(1, 2)])
        assert gs.enumerate_mgs(q) == ((1, 2), (2, 1, 2))
        q = gs.Quiver.from_arrows(2, [(2, 1)])
        assert gs.enumerate_mgs(q) == ((1, 2, 1), (2, 1))

    def test_prefix_leaves_a_green_vertex(self, a3cycle):
        for seq in gs.enumerate_mgs(a3cycle):
            for cut in range(len(seq)):
                trace = gs.verify_green(a3cycle, seq[:cut])
                assert gs.green_vertices(trace.final_state)
                assert trace.is_green and not trace.is_maximal

    def test_depth_guard(self):
        # the double arrow quiver has no maximal green bound at depth 4
        q = gs.Quiver.from_arrows(2, [(1, 2, 2)])
        with pytest.raises(gs.DepthGuardExceeded) as exc:
            gs.enumerate_mgs(q, max_len=4)
        assert exc.value.max_len == 4
        assert isinstance(exc.value.partial, tuple)

    def test_unbounded_search_needs_type_a(self):
        q = gs.Quiver.from_arrows(2, [(1, 2, 2)])
        with pytest.raises(gs.QuiverError, match="max_len"):
            gs.enumerate_mgs(q)

    def test_bounded_census_on_finite_non_type_a(self):
        # the oriented 4-circuit is finite type though not type A: a
        # generous bound returns its full census
        q = gs.Quiver.from_arrows(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
        census = gs.enumerate_mgs(q, max_len=40)
        assert census
        for seq in census:
            assert gs.verify_green(q, seq).is_maximal
        slice_ = gs.exchange_graph(q)
        assert slice_.maximal_chain_count() == len(census)


class TestExchangeGraph:
    def test_a1(self):
        slice_ = gs.exchange_graph(gs.Quiver(1, ()))
        assert len(slice_.nodes) == 2 and len(slice_.edges) == 1
        assert slice_.maximal_chain_count() == 1

    def test_a2_pentagon(self):
        q = gs.Quiver.from_arrows(2, [(1, 2)])
        slice_ = gs.exchange_graph(q)
        # five states up to relabelling the mutable vertices; the two
        # all-red endpoints differ as exact matrices
        assert slice_.iso_class_count() == 5
        assert len(slice_.nodes) == 6
        assert slice_.maximal_chain_count() == 2

    def test_a3_linear_associahedron(self):
        q = load("a3linear")
        slice_ = gs.exchange_graph(q)
        assert slice_.iso_class_count() == 14
        assert slice_.maximal_chain_count() == len(gs.enumerate_mgs(q))

    def test_iso_classes_match_exhaustive_relabelling(self):
        for name in ("a1", "a2linear", "a3linear", "a3cycle", "fork3", "spread3", "zig5"):
            slice_ = gs.exchange_graph(load(name))
            assert slice_.iso_class_count() == iso_class_count_exhaustive(slice_)
        rng = random.Random(43)
        done = 0
        while done < 60:
            q = random_quiver(rng, max_n=5)
            try:
                slice_ = gs.exchange_graph(q, max_nodes=1000)
            except gs.NodeBoundExceeded:
                continue  # infinite, or too large for the exhaustive oracle
            assert slice_.iso_class_count() == iso_class_count_exhaustive(slice_)
            done += 1

    def test_iso_classes_past_eight_vertices(self):
        # nine isolated vertices: every subset of them mutated once, and no
        # two subsets related by a relabelling that fixes the frozen vertices
        slice_ = gs.exchange_graph(gs.Quiver(9, ()))
        assert slice_.iso_class_count() == 512

    def test_chain_census_agreement_small_fixtures(self):
        for name in ("a1", "a2linear", "a3linear", "a3cycle", "fork3", "zig5"):
            q = load(name)
            slice_ = gs.exchange_graph(q)
            assert slice_.maximal_chain_count() == len(gs.enumerate_mgs(q))

    def test_source_and_sinks(self, a3cycle):
        slice_ = gs.exchange_graph(a3cycle)
        assert slice_.nodes[slice_.source] == gs.frame(a3cycle)
        for i in slice_.sinks:
            assert gs.green_vertices(slice_.nodes[i]) == ()
        for i, node in enumerate(slice_.nodes):
            greens = gs.green_vertices(node)
            assert (len(greens) == a3cycle.n) == (i == slice_.source)
            assert (not greens) == (i in slice_.sinks)

    def test_chain_count_refuses_a_cycle(self):
        q = gs.Quiver(1, ())
        nodes = (gs.frame(q), gs.matrix_mutate(gs.frame(q), 1))
        slice_ = gs.ExchangeGraphSlice(q, nodes, ((0, 1, 1), (1, 1, 0)), 0, ())
        with pytest.raises(gs.QuiverError, match="^green-move graph unexpectedly has a cycle$"):
            slice_.maximal_chain_count()

    def test_node_bound(self, a3cycle):
        with pytest.raises(gs.NodeBoundExceeded):
            gs.exchange_graph(a3cycle, max_nodes=4)


class TestDot:
    def test_hash_is_stable_and_content_sensitive(self, a3cycle):
        h1 = gs.matrix_hash(gs.frame(a3cycle))
        assert len(h1) == 16 and int(h1, 16) >= 0
        assert h1 == gs.matrix_hash(gs.frame(a3cycle))
        assert h1 != gs.matrix_hash(coframe(a3cycle))

    def test_hash_bytes_match_int64_layout(self):
        # rows hash to the same bytes as a signed 64-bit array of the entries
        for node in gs.exchange_graph(load("zig5")).nodes:
            payload = f"extb {node.n} {node.m}\n".encode()
            payload += array("q", chain.from_iterable(node.rows)).tobytes()
            assert gs.matrix_hash(node) == hashlib.sha256(payload).hexdigest()[:16]

    def test_streamed_hash_matches_dense_oracle(self):
        states = []
        for name in ("a3cycle", "zigzag7", "tree15", "tree16", "sum26"):
            q = load(name)
            states += [gs.frame(q), gs.apply_sequence(gs.frame(q), range(1, q.n + 1))]
        # the entry past int64 sits in the last row, after a row that packs
        big = gs.apply_sequence(gs.frame(gs.Quiver(2, ((1, 2, 2**40),))), (2, 1))
        assert max(big.rows[-1]) >= 2**63 and max(map(abs, big.rows[0])) < 2**63
        for eq in states + [big]:
            assert gs.matrix_hash(eq) == dense_matrix_hash(eq)

    def test_hash_of_entries_past_int64(self):
        eq = gs.apply_sequence(gs.frame(gs.Quiver(2, ((1, 2, 2**40),))), (2, 1))
        assert max(max(row) for row in eq.rows) >= 2**63
        payload = b"extb 2 2\nbig\n" + gs.format_extended(eq).encode()
        assert gs.matrix_hash(eq) == hashlib.sha256(payload).hexdigest()[:16]

    def test_dot_names_are_dense_hashes(self):
        slice_ = gs.exchange_graph(load("zig5"))
        names = [dense_matrix_hash(node) for node in slice_.nodes]
        dot = gs.exchange_graph_dot(slice_)
        assert sorted(re.findall(r'^  "(\w+)" \[label="\1"', dot, re.M)) == sorted(names)
        assert f'  "{names[0]}" [label="{names[0]}", role="source"];' in dot
        assert sorted(re.findall(r'^  "(\w+)" -> "(\w+)" \[label="(\d+)"\];$', dot, re.M)) == sorted(
            (names[src], names[dst], str(k)) for src, k, dst in slice_.edges)

    def test_dot_hashes_mixed_states_like_the_dense_oracle(self):
        # a state past int64 between states that pack, and a 210-vertex
        # path whose rows fill the hash buffer many times over
        big_q = gs.Quiver(2, ((1, 2, 2**40),))
        path = gs.Quiver.from_arrows(210, [(i, i + 1) for i in range(1, 210)])
        nodes = (
            gs.frame(big_q), gs.apply_sequence(gs.frame(big_q), (2, 1)),
            gs.matrix_mutate(gs.frame(big_q), 1), gs.frame(path),
            gs.apply_sequence(gs.frame(path), range(1, 210, 3)),
        )
        assert max(nodes[1].rows[-1]) >= 2**63
        slice_ = gs.ExchangeGraphSlice(big_q, nodes, (), 0, ())
        names = re.findall(r'^  "(\w+)" \[label="\1"', gs.exchange_graph_dot(slice_), re.M)
        assert sorted(names) == sorted(map(dense_matrix_hash, nodes))
        assert [gs.matrix_hash(eq) for eq in nodes] == list(map(dense_matrix_hash, nodes))

    def test_dot_structure(self, a3cycle):
        slice_ = gs.exchange_graph(a3cycle)
        dot = gs.exchange_graph_dot(slice_)
        assert dot.startswith("digraph exchange {")
        assert dot.count('role="source"') == 1
        assert dot.count('role="sink"') == len(slice_.sinks)
        assert dot.count("->") == len(slice_.edges)
        # deterministic output
        assert dot == gs.exchange_graph_dot(gs.exchange_graph(a3cycle))
