"""In-place walks and copy-on-write states.

The one mutation kernel changes rows where they lie.  A walk that keeps
only its last state (``apply_sequence``, ``verify_green``, ``verify_model``)
owns its rows; ``matrix_mutate`` and the searches keep every state, so the
rows they change are copied first.  Here every state a call was given, and
every state any call returned before, is held against a dense snapshot
taken before the call, on random quivers with multiplicities of 2 and more
and with 2^40 arrows, whose entries soon pass int64.
"""

from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greenseq as gs
from conftest import FIXTURES
from greenseq.cli import main
from helpers import dense_mutate, wild_quivers


def dense_fold(q: gs.Quiver, seq) -> list[list[int]]:
    rows = [list(row) for row in gs.frame(q).rows]
    for k in seq:
        rows = dense_mutate(rows, k)
    return rows


def arrow_fold(q: gs.Quiver, seq) -> gs.Quiver:
    for k in seq:
        q = gs.mutate(q, k)
    return q


def dense_color(row: list[int], n: int) -> str:
    return "green" if min(row[n:]) >= 0 else "red"


class Keeper:
    """States seen so far, each with the dense rows it had when first seen."""

    def __init__(self) -> None:
        self.kept: list[tuple[gs.ExtendedQuiver, tuple[tuple[int, ...], ...]]] = []

    def keep(self, *states: gs.ExtendedQuiver) -> None:
        for eq in states:
            # no two slots of one state hold the same row dict
            assert len({id(row) for row in eq.sparse_rows}) == eq.n
            self.kept.append((eq, eq.rows))

    def check(self) -> None:
        for eq, snapshot in self.kept:
            assert eq.rows == snapshot
            # exact equality on the sparse rows: no zero was stored either
            assert eq == gs.ExtendedQuiver(eq.n, eq.m, snapshot)


def walk(q: gs.Quiver, picks: list[int]) -> tuple[int, ...]:
    """A sequence that mostly mutates green vertices (by the dense colour),
    every fifth pick any vertex, so that some walks meet a red one."""
    rows, seq = dense_fold(q, ()), []
    for pick in picks:
        greens = [i + 1 for i, row in enumerate(rows) if dense_color(row, q.n) == "green"]
        if pick % 5 == 0 or not greens:
            k = pick % q.n + 1
        else:
            k = greens[pick % len(greens)]
        seq.append(k)
        rows = dense_mutate(rows, k)
    return tuple(seq)


PICKS = st.lists(st.integers(0, 2**16), max_size=10)


@given(wild_quivers(), PICKS, st.lists(st.tuples(st.integers(0, 99), st.integers(1, 5)), max_size=6))
@settings(max_examples=120, deadline=None)
def test_matrix_mutate_copies_on_write(q, picks, branches):
    keeper = Keeper()
    states = [gs.frame(q)]
    dense = [dense_fold(q, ())]
    arrow = [q]
    keeper.keep(states[0])
    # a chain, then branches off earlier states, which share their rows
    steps = [(len(states) - 1 + t, k) for t, k in enumerate(walk(q, picks))]
    steps += [(at % (len(steps) + 1), (k - 1) % q.n + 1) for at, k in branches]
    for at, k in steps:
        nxt = gs.matrix_mutate(states[at], k)
        keeper.check()
        dense.append(dense_mutate(dense[at], k))
        arrow.append(gs.mutate(arrow[at], k))
        assert nxt.rows == tuple(map(tuple, dense[-1]))
        assert nxt.quiver() == arrow[-1]
        keeper.keep(nxt)
        states.append(nxt)


@given(wild_quivers(), PICKS, PICKS)
@settings(max_examples=120, deadline=None)
def test_apply_sequence_walks_its_own_rows(q, first, second):
    keeper = Keeper()
    seq1, seq2 = walk(q, first), walk(q, second)
    # start from a state that shares rows with another kept state
    start = gs.matrix_mutate(gs.frame(q), 1)
    keeper.keep(gs.frame(q), start)
    mid = gs.apply_sequence(start, seq1)
    keeper.check()
    assert mid.rows == tuple(map(tuple, dense_fold(q, (1,) + seq1)))
    keeper.keep(mid)
    end = gs.apply_sequence(mid, seq2)
    keeper.check()
    assert end.rows == tuple(map(tuple, dense_fold(q, (1,) + seq1 + seq2)))
    assert end.quiver() == arrow_fold(q, (1,) + seq1 + seq2)
    keeper.keep(end, gs.apply_sequence(end, ()))
    keeper.check()


@given(wild_quivers(), PICKS, PICKS)
@settings(max_examples=120, deadline=None)
def test_verify_green_wraps_its_walk_once(q, first, second):
    keeper = Keeper()
    for picks in (first, second):
        seq = walk(q, picks)
        trace = gs.verify_green(q, seq)
        keeper.check()
        keeper.keep(trace.final_state)
        # matrix_mutate and apply_sequence on the walk's state leave it be
        keeper.keep(gs.matrix_mutate(trace.final_state, 1), gs.apply_sequence(trace.final_state, seq))
        keeper.check()
        done = seq if trace.violation_step is None else seq[: trace.violation_step - 1]
        assert trace.final_state == gs.apply_sequence(gs.frame(q), done)
        assert trace.final_state.rows == tuple(map(tuple, dense_fold(q, done)))
        # every step before the violation was green by the dense colour,
        # and the one at it red
        rows = dense_fold(q, ())
        for index, k in enumerate(seq, start=1):
            color = dense_color(rows[k - 1], q.n)
            if index == trace.violation_step:
                assert color == "red"
                break
            assert color == "green"
            rows = dense_mutate(rows, k)
        if trace.is_green:
            all_red = all(dense_color(row, q.n) == "red" for row in rows)
            assert trace.is_maximal == all_red


@given(wild_quivers(max_n=4))
@settings(max_examples=60, deadline=None)
def test_searches_keep_every_state(q):
    keeper = Keeper()
    keeper.keep(gs.frame(q))
    try:
        graph = gs.exchange_graph(q, max_nodes=80)
    except gs.NodeBoundExceeded:
        graph = None
    keeper.check()
    if graph is not None:
        assert graph.nodes[0] == gs.frame(q)
        keeper.keep(*graph.nodes)
        for src, k, dst in graph.edges:
            after = dense_mutate([list(row) for row in graph.nodes[src].rows], k)
            assert graph.nodes[dst].rows == tuple(map(tuple, after))
    try:
        census = gs.enumerate_mgs(q, max_len=6)
    except gs.DepthGuardExceeded as exc:
        census = exc.partial
    keeper.check()
    for seq in census:
        assert gs.verify_green(q, seq).is_maximal
        rows = dense_fold(q, seq)
        assert all(dense_color(row, q.n) == "red" for row in rows)
    keeper.check()


class TestBadVertexOnTheWalk:
    @pytest.mark.parametrize("bad", [0, 4, -3])
    @pytest.mark.parametrize("before", [(), (1,), (1, 3)])
    def test_verify_green_refuses_like_vertex_color(self, a3cycle, bad, before):
        with pytest.raises(gs.QuiverError, match=rf"^vertex {bad} out of range 1\.\.3$"):
            gs.verify_green(a3cycle, before + (bad,))

    @pytest.mark.parametrize("seq", ["0", "4", "-3", "1 3 4", "1 -3"])
    def test_verify_command_exits_two(self, seq):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", str(FIXTURES / "a3cycle.quiver"), "--seq", seq])
        bad = seq.split()[-1]
        assert (code, out.getvalue(), err.getvalue()) == (
            2, "", f"error: vertex {bad} out of range 1..3\n"
        )

    def test_red_step_is_reported_before_a_bad_one(self, a3cycle):
        trace = gs.verify_green(a3cycle, (1, 1, 9))
        assert trace.violation_step == 2
        assert trace.final_state == gs.apply_sequence(gs.frame(a3cycle), (1,))
