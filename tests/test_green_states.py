"""The green-state store behind the census search and the exchange graph.

``enumerate_mgs``, ``first_mgs`` and ``exchange_graph`` walk one store of
green states keyed by their c-vectors, so each state is mutated once per
green vertex.  Here both walks are held against the searches they replaced
(``reference_green_search`` and ``reference_exchange_graph`` in
``tests/helpers.py``, which mutate every path afresh and deduplicate by the
whole matrix) on whole type-A mutation classes and on wild quivers, the
saving is pinned as a count of mutations, and a forced clash of keys is
shown to raise rather than merge two states.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greenseq as gs
from conftest import load
from greenseq import green
from helpers import mutation_class, reference_exchange_graph, reference_green_search, wild_quivers


CLASSES = {
    n: mutation_class(gs.Quiver.from_arrows(n, [(i, i + 1) for i in range(1, n)]))
    for n in (3, 4, 5)
}
TYPE_A = [(f"A{n}-{i}", q) for n, qs in CLASSES.items() for i, q in enumerate(qs)]
TYPE_A += [(name, load(name)) for name in ("a3cycle", "zig5")]

KRONECKER = gs.Quiver(2, ((1, 2, 2),))
MARKOV = gs.Quiver(3, ((1, 2, 2), (2, 3, 2), (3, 1, 2)))


def search_outcome(search, q: gs.Quiver, max_len: int | None):
    """The census, or the bound and partial census of a depth guard."""
    try:
        return "census", tuple(search(q, max_len))
    except gs.DepthGuardExceeded as exc:
        return "guard", exc.max_len, exc.partial


def graph_outcome(build, q: gs.Quiver, max_nodes: int):
    """Nodes by rows, edges, source and sinks, or the node bound's message."""
    try:
        graph = build(q, max_nodes)
    except gs.NodeBoundExceeded as exc:
        return "bound", str(exc)
    return "graph", [node.rows for node in graph.nodes], graph.edges, graph.source, graph.sinks


def first_outcome(first, q: gs.Quiver, max_len: int):
    try:
        return "first", first(q, max_len)
    except gs.DepthGuardExceeded as exc:
        return "guard", exc.max_len, exc.partial


def reference_first(q: gs.Quiver, max_len: int) -> tuple[int, ...]:
    return next(reference_green_search(q, max_len))


@pytest.mark.parametrize("q", [q for _, q in TYPE_A], ids=[name for name, _ in TYPE_A])
def test_walks_match_the_reference_on_type_a(q):
    census = search_outcome(gs.enumerate_mgs, q, None)
    assert census == search_outcome(reference_green_search, q, None)
    assert census[0] == "census"
    assert gs.first_mgs(q) == census[1][0]
    assert graph_outcome(gs.exchange_graph, q, 10000) == graph_outcome(
        reference_exchange_graph, q, 10000)


def test_type_a_classes_are_whole():
    # A3, A4 and A5 have 4, 6 and 19 quivers up to relabelling
    assert [len(CLASSES[n]) for n in (3, 4, 5)] == [4, 6, 19]


@given(wild_quivers(max_n=4), st.integers(4, 7))
@settings(max_examples=60, deadline=None)
def test_walks_match_the_reference_on_wild_quivers(q, max_len):
    assert search_outcome(gs.enumerate_mgs, q, max_len) == search_outcome(
        reference_green_search, q, max_len)
    assert first_outcome(gs.first_mgs, q, max_len) == first_outcome(reference_first, q, max_len)
    assert graph_outcome(gs.exchange_graph, q, 60) == graph_outcome(reference_exchange_graph, q, 60)


@pytest.mark.parametrize("max_len", [4, 5, 6, 7])
@pytest.mark.parametrize("q", [KRONECKER, MARKOV], ids=["kronecker", "markov"])
def test_depth_guard_carries_the_same_partial(q, max_len):
    outcome = search_outcome(gs.enumerate_mgs, q, max_len)
    assert outcome[:2] == ("guard", max_len)
    assert outcome == search_outcome(reference_green_search, q, max_len)
    assert first_outcome(gs.first_mgs, q, max_len) == first_outcome(reference_first, q, max_len)


def test_kronecker_partial_holds_its_one_finite_sequence():
    # the source-first sequence ends; every branch starting at 2 runs on
    assert search_outcome(gs.enumerate_mgs, KRONECKER, 5) == ("guard", 5, ((1, 2),))
    assert search_outcome(gs.enumerate_mgs, MARKOV, 5) == ("guard", 5, ())


@pytest.fixture
def mutations(monkeypatch):
    """Count the searches' calls to ``matrix_mutate``."""
    calls = []
    mutate = green.matrix_mutate

    def counted(eq, k):
        calls.append(k)
        return mutate(eq, k)

    monkeypatch.setattr(green, "matrix_mutate", counted)
    return calls


def test_census_mutates_each_state_once_per_green_vertex(mutations):
    zig5 = load("zig5")
    edges = len(gs.exchange_graph(zig5).edges)
    assert edges == len(mutations) == 1088
    mutations.clear()
    census = gs.enumerate_mgs(zig5)
    assert len(census) == 2242
    assert len(mutations) == edges


def test_first_sequence_builds_only_its_path(mutations):
    first = gs.first_mgs(load("zig5"))
    assert len(mutations) == len(first)
    assert tuple(mutations) == first


def test_clashing_keys_raise_instead_of_merging(monkeypatch):
    # every c-vector interned under one id: the first move lands on the
    # framing's key with other rows
    monkeypatch.setattr(green, "_c_vector", lambda row, n: 0)
    q = load("a3cycle")
    message = "^two green states share their c-vectors but not their matrix$"
    with pytest.raises(gs.QuiverError, match=message):
        gs.enumerate_mgs(q)
    with pytest.raises(gs.QuiverError, match=message):
        gs.first_mgs(q)
    with pytest.raises(gs.QuiverError, match=message):
        gs.exchange_graph(q)
