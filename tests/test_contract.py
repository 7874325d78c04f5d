"""The error contract: every callable the package exports, and the public
methods in ``METHODS``, called with drawn values, returns or raises a
QuiverError subclass.

Each parameter gets an out-of-range int, a bool, a float, a string, None, a
huge int or a nested list of these; a parameter that names one of the
package's records (a ``Quiver``, an ``EmbeddedQuiver``, ...) also gets real
ones, hand-built embeddings the walks must refuse among them.  A call that
raises anything else is accepted only when a parameter got a value that is
not of the kind it names, and ``NOT_OF_ITS_KIND`` gives the reason for each
such kind.  The only quivers drawn are small ones whose every green
sequence is short, and every census call is bounded by ``max_len`` or
``max_nodes``, so no draw can start an unbounded search.
"""

from __future__ import annotations

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greenseq as gs
from conftest import load
from helpers import with_cycle

A3 = gs.Quiver(3, ((1, 2, 1), (2, 3, 1), (3, 1, 1)))
PATH = gs.Quiver(3, ((1, 2, 1), (2, 3, 1)))
SQUARE = gs.Quiver(4, ((1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 1, 1)))  # not type A
QUIVERS = (A3, PATH, SQUARE, gs.Quiver(1, ()))


ZIGZAG = gs.embed(load("zigzag7"), (1, 2, 3))
EMBEDDINGS = (
    gs.embed(A3), ZIGZAG,
    with_cycle(ZIGZAG, 2, parent=3),  # the parents of T2 and T3 loop
    with_cycle(ZIGZAG, 3, parent=8),  # a parent with no cycle
    with_cycle(ZIGZAG, 3, y=9),  # vertex 6 on no cycle, 9 beyond n
    with_cycle(ZIGZAG, 3, z=0),
    with_cycle(ZIGZAG, 2, y=5, z=4),  # y and z swapped
    with_cycle(ZIGZAG, 2, up=True, x=1, parent=1, parent_role="y"),  # a stage names x1 twice
    gs.EmbeddedQuiver(A3, ZIGZAG.cycles),  # cycles of another quiver
    gs.EmbeddedQuiver(A3, ()),
)

# real values for each parameter kind that names a package record
RECORDS = {
    "Quiver": QUIVERS,
    "ExtendedQuiver": (
        gs.frame(A3), gs.matrix_mutate(gs.frame(PATH), 2),
        gs.ExtendedQuiver(2, 0, [[0, 1], [-1, 0]]),  # no frozen row: no colour
        gs.ExtendedQuiver(1, 2, [[0, 1, -1]]),  # a mixed-sign frozen row
    ),
    "EmbeddedQuiver": EMBEDDINGS,
    "Sequence[EmbeddedCycle]": tuple(e.cycles for e in EMBEDDINGS),
    "Decomposition": tuple(gs.decompose(q) for q in QUIVERS),
    "ExchangeGraphSlice": (gs.exchange_graph(PATH),),
    "TypeAReport": (gs.is_type_a(A3), gs.is_type_a(SQUARE)),
    "Permutation": (gs.Permutation((2, 3, 1)), gs.Permutation((2, 1)), gs.Permutation((1,))),
    "CycleTree": (gs.cycle_tree(A3), gs.cycle_tree(load("zigzag7"))),
}

# what each kind of parameter may raise besides QuiverError when it is
# given a value not of its kind, and why that is not refused
NOT_OF_ITS_KIND = {
    kind: f"a value that is not a {kind} passed where one is required, as in "
          "is_type_a(5): the package reads the fields of its own records and "
          "does not check their type"
    for kind in RECORDS
}
NOT_OF_ITS_KIND["Sequence[EmbeddedCycle]"] = (
    "cycles that are not EmbeddedCycle records: a hand-built embedding's "
    "cycles are read as the records they must be"
)
NOT_OF_ITS_KIND["str"] = (
    "quiver text that is not a string: parse_quiver reads the lines of "
    "the text it is given"
)


def _of_kind(kind: str, value: object) -> bool:
    if kind == "str":
        return isinstance(value, str)
    if kind == "Sequence[EmbeddedCycle]":
        return isinstance(value, (list, tuple)) and all(
            isinstance(c, gs.EmbeddedCycle) for c in value
        )
    return isinstance(value, type(RECORDS[kind][0]))


SCALARS = st.one_of(
    st.integers(-2, 10),
    st.booleans(),
    st.floats(),
    st.text(max_size=3),
    st.none(),
    st.integers(2**63, 2**80),
    st.integers(-(2**80), -(2**63)),
)
JUNK = st.one_of(
    SCALARS, st.lists(SCALARS, max_size=3), st.lists(st.lists(SCALARS, max_size=3), max_size=3)
)
# a census call always gets a bound, and a vertex count allocates per
# vertex, so neither is drawn absent or huge
BOUNDED = JUNK.filter(lambda v: v is not None and not (isinstance(v, int) and v > 64))
BOUNDED_PARAMETERS = {"max_len", "max_nodes", "n"}


def _exports() -> list[tuple[str, object]]:
    return sorted(
        (name, obj) for name, obj in vars(gs).items()
        if not name.startswith("_") and callable(obj) and not inspect.ismodule(obj)
    )


def _parameters(obj) -> list[inspect.Parameter]:
    try:
        return list(inspect.signature(obj).parameters.values())
    except ValueError:  # an exception class: any arguments
        return [inspect.Parameter("args", inspect.Parameter.VAR_POSITIONAL)]


def _strategy(p: inspect.Parameter):
    kind = p.annotation if isinstance(p.annotation, str) else None
    if kind in RECORDS:
        return st.one_of(st.sampled_from(RECORDS[kind]), JUNK)
    if p.name in BOUNDED_PARAMETERS:
        return BOUNDED
    return JUNK


# public methods of exported classes that take a vertex, a label or an
# index, each bound to a real record; TypeAReport.condition stays out, as
# an unknown condition name is pinned to raise KeyError, as a mapping does
METHODS = {
    "ExtendedQuiver.entry": gs.frame(A3).entry,
    "Permutation.apply": gs.Permutation((2, 3, 1)).apply,
    "Permutation.then": gs.Permutation((2, 3, 1)).then,
    "Quiver.neighbors": PATH.neighbors,
    "Decomposition.part": gs.decompose(PATH).part,
    "EmbeddedQuiver.cycle": ZIGZAG.cycle,
    "EmbeddedQuiver.child_at_y": ZIGZAG.child_at_y,
    "EmbeddedQuiver.child_at_z": ZIGZAG.child_at_z,
    "EmbeddedQuiver.is_branching": ZIGZAG.is_branching,
}
CALLABLES = _exports() + sorted(METHODS.items())


@pytest.mark.parametrize("name, obj", CALLABLES, ids=[name for name, _ in CALLABLES])
@settings(max_examples=12, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_every_export_returns_or_raises_a_quiver_error(name, obj, data):
    args, kwargs, wrong_kinds = [], {}, []
    for p in _parameters(obj):
        if p.kind is p.VAR_POSITIONAL:
            args += data.draw(st.lists(JUNK, max_size=2), label=p.name)
            continue
        value = data.draw(_strategy(p), label=p.name)
        kind = p.annotation if p.annotation in NOT_OF_ITS_KIND else None
        if kind and not _of_kind(kind, value):
            wrong_kinds.append(kind)
        if p.kind is p.KEYWORD_ONLY:
            kwargs[p.name] = value
        else:
            args.append(value)
    try:
        obj(*args, **kwargs)
    except gs.QuiverError:
        pass
    except Exception as exc:
        if not wrong_kinds:
            raise AssertionError(f"{name} raised {type(exc).__name__}: {exc}") from exc
