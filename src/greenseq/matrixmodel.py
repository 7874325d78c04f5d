"""Predicted extended exchange matrices for every stage of the sequence.

After stages 0..k the mutable vertices split three ways: the processed part
(cycles T1..Tk, all red, carrying the permuted co-framing), the frontier
(the next cycle T_{k+1} together with the pending cycles whose entry vertex
x was mutated when a branching cycle was processed but whose y and z were
not), and the untouched rest.  The frontier's arrows to the rest are the
original ones; its arrows into the processed part and among itself follow a
short list of composite entries; its c-vectors have an explicit closed
form.

``_kept_prediction`` is the one reading of this model: it keeps the
prediction as the walk keeps the actual state, one list of sparse rows
from the framing through every stage, with sigma_k streamed from
``embedding``, which owns the stages.  It derives the stage facts it
reads in one pass over the cycles, and the pending cycles as their
anchors are processed; a stage rebuilds only the rows whose role
changes.  The composite entries are the rows' entries at frontier rows,
and the c-vectors the frozen parts of those rows.  ``verify_model``
compares the rows at every stage with direct mutation of rows it owns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .embedding import (
    EmbeddedQuiver,
    EmbeddingError,
    _sigma_stream,
    base_cycle,
    closing_vertex,
    descent_path,
    hanging_chain,
)
from .quiver import _frame_rows, _mutate_rows


@dataclass(frozen=True)
class PendingCycle:
    """A cycle whose x vertex was mutated but whose y and z were not.

    ``anchor`` is the branching cycle it hangs from (at the anchor's z);
    ``chain`` is the run of cycles over the anchor (its y-child, then
    z-children); ``progress`` is the largest chain label already processed
    at the stage in question, absent exactly when the anchor is the current
    stage.
    """

    label: int
    anchor: int
    chain: tuple[int, ...]
    progress: int | None

    @property
    def case(self) -> int:
        """Whether the chain is partially processed (1), fully processed
        (2), or untouched (3)."""
        if self.progress is None:
            return 3
        return 2 if self.progress == self.chain[-1] else 1


def _frontier_entries(
    e: EmbeddedQuiver, k: int, pending: tuple[PendingCycle, ...]
) -> tuple[tuple[int, int, int], ...]:
    """The stage-k composite entries (row, column, value) at the frontier
    vertices, per pending-cycle case and for T_{k+1}; each one's skew mirror
    is implied."""
    entries: list[tuple[int, int, int]] = []
    for pc in pending:
        cm = e.cycle(pc.label)
        # the y arrow tracks the pending cycle's closing vertex as seen in
        # the processed subquiver: the anchor's closing vertex before its
        # chain starts, then z of the last processed chain cycle
        closing = closing_vertex(e, pc.anchor) if pc.progress is None else e.cycle(pc.progress).z
        entries.append((cm.y, closing, 1))
        entries.append((cm.z, cm.x, -1))
        if pc.case != 2:
            # z of the first chain cycle not yet processed
            nxt = 0 if pc.progress is None else pc.chain.index(pc.progress) + 1
            entries.append((cm.y, e.cycle(pc.chain[nxt]).z, -1))
    if k < e.n_cycles:
        nc = e.cycle(k + 1)
        entries.append((nc.y, closing_vertex(e, k + 1), 1))
        # an upward T_{k+1} meets the vertex closing stage k; at stage 0
        # that is x1, the x of T_{k+1} = T1
        if not nc.up or k == 0:
            entries.append((nc.z, nc.x, -1))
        else:
            entries.append((nc.z, closing_vertex(e, k), -1))
    return tuple(sorted(entries))


def _z_c_support(e: EmbeddedQuiver, i: int) -> list[int]:
    """The frozen coordinates counted in the base c-vector of z_i, one each
    (repeats add up): x of the base cycle, z of the cycle just below it
    unless the base cycle is T1, and x of each descent-path cycle."""
    r = base_cycle(e, i)
    support = [e.cycle(r).x]
    if r > 1:
        support.append(e.cycle(r - 1).z)
    support.extend(e.cycle(j).x for j in descent_path(e, i))
    return support


def _kept_prediction(
    e: EmbeddedQuiver,
) -> Iterator[tuple[int, tuple[int, ...], tuple[PendingCycle, ...], list[dict[int, int]]]]:
    """Yield ``(k, sequence, pending, rows)`` for k = 0..n: stage k's
    mutation order, pending cycles (by label) and predicted sparse rows,
    one list changed in place from the framing on (nothing processed, no
    frontier).

    A pending cycle enters at its anchor's stage, where its hanging chain
    is read and checked, moves on at each stage of that chain, and leaves
    at its own label.  Only the rows of vertices moved by tau_k, first
    mutated at stage k, or in T_k, T_{k+1} or a pending cycle that enters,
    leaves or moves on can change outside the columns of such rows, so a
    stage rebuilds those rows whole and rewrites their mirror entries by
    skew-symmetry.
    """
    q = e.quiver
    n = q.n
    # the stage facts, in one pass: the stage that first mutates each vertex
    # (x1 at 0, y_k and z_k at k, any other x at its parent's), the rows
    # each stage rebuilds, and the pending labels by entry stage (a parent
    # label with no cycle is refused by the walks that read it)
    labels = {c.label for c in e.cycles}
    owner: dict[int, int] = {}
    roles: dict[int, set[int]] = {}
    entering: dict[int, list[int]] = {}
    for c in e.cycles:
        roles.setdefault(c.label, set()).update((c.y - 1, c.z - 1))
        for v, first in ((c.x, c.parent or 0), (c.y, c.label), (c.z, c.label)):
            if v not in owner:
                owner[v] = first
                roles.setdefault(first, set()).add(v - 1)
        anchor = c.parent
        if (
            not c.up and c.parent_role == "z" and anchor in labels
            and anchor < c.label and e.is_branching(anchor)
        ):
            entering.setdefault(anchor, []).append(c.label)
    # rows and columns are 0-based below, as in the sparse rows; a vertex
    # beyond n is refused by the stage fold
    try:
        own = [owner[v] for v in range(1, n + 1)]
    except KeyError as exc:
        raise EmbeddingError(f"vertex {exc.args[0]} lies on no cycle") from None
    rows = _frame_rows(q)
    # Q's mutable block, kept apart from the rows changed in place
    b0 = [{c: m for c, m in row.items() if c < n} for row in rows]
    active: dict[int, PendingCycle] = {}
    for k, seq, tau, sigma, inv in _sigma_stream(e):
        # a pending cycle's label and progress fix its entries; one that
        # leaves is T_k, whose rows are rebuilt anyway
        active.pop(k, None)
        changed = []
        for m, pc in active.items():
            if k in pc.chain:
                active[m] = PendingCycle(m, pc.anchor, pc.chain, k)
                changed.append(m)
        for m in sorted(entering.get(k, ())):
            chain = hanging_chain(e, m)
            if not chain or chain[0] != k + 1:
                raise EmbeddingError(f"pending T{m} has no chain starting at T{k + 1}")
            active[m] = PendingCycle(m, k, chain, max((s for s in chain if s <= k), default=None))
            changed.append(m)
        pending = tuple(active[m] for m in sorted(active))
        redo = {v - 1 for v in tau}
        redo.update(roles.get(k, ()), roles.get(k + 1, ()))
        for m in changed:
            redo.update(roles[m])
        # frontier entries of the rows to rebuild, both directions, later
        # ones overwriting
        composite: dict[int, dict[int, int]] = {}
        for i, j, val in _frontier_entries(e, k, pending):
            i -= 1
            j -= 1
            if i in redo:
                composite.setdefault(i, {})[j] = val
            if j in redo:
                composite.setdefault(j, {})[i] = -val

        for r in redo:
            # Q's arrows, relabelled by sigma_k (which permutes the
            # processed vertices) within the processed block, as they are
            # among the untouched vertices bar a frontier cycle's y-z
            # arrow, cancelled when its x was mutated; only the frontier
            # entries join the two blocks.  Frozen columns: the permuted
            # co-framing on the processed vertices, a unit elsewhere, plus
            # a frontier z vertex's base c-vector.  No zero is stored.
            first = own[r]
            if first <= k:
                image = sigma[r] - 1
                row = {inv[c] - 1: m for c, m in b0[image].items() if own[c] <= k}
                row[n + image] = -1
            elif first == k + 1 or first in active:
                row = {c: m for c, m in b0[r].items() if own[c] > k and own[c] != first}
                row[n + r] = 1
                if e.cycle(first).z == r + 1:
                    for u in _z_c_support(e, first):
                        row[n + u - 1] = row.get(n + u - 1, 0) + 1
            else:
                row = {c: m for c, m in b0[r].items() if own[c] > k}
                row[n + r] = 1
            if r in composite:
                row.update(composite[r])
            # the mirror entries in the rows kept
            for c in rows[r]:
                if c < n and c not in row and c not in redo:
                    del rows[c][r]
            for c, val in row.items():
                if c < n and c not in redo:
                    rows[c][r] = -val
            rows[r] = row
        yield k, seq, pending, rows


@dataclass(frozen=True)
class StageCheck:
    k: int
    ok: bool
    first_diff: tuple[str, str, int, int] | None  # (row, col, model, actual)


@dataclass(frozen=True)
class ModelReport:
    checks: tuple[StageCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def text(self) -> str:
        lines = []
        for c in self.checks:
            if c.ok:
                lines.append(f"k={c.k} model==actual: true")
            else:
                row, col, model, actual = c.first_diff
                lines.append(
                    f"k={c.k} model==actual: false ({row}, {col}): model={model} actual={actual}"
                )
        return "\n".join(lines) + "\n"


def verify_model(e: EmbeddedQuiver) -> ModelReport:
    """Compare predicted and directly mutated matrices for every stage.

    The actual side is one walk from the framing over every stage's
    mutations, on rows this call owns and mutates in place, beside the
    kept prediction.
    """
    n = e.quiver.n
    actual = _frame_rows(e.quiver)
    checks = []
    for k, seq, _, predicted in _kept_prediction(e):
        for v in seq:
            _mutate_rows(actual, n, v, False)
        if predicted == actual:
            checks.append(StageCheck(k, True, None))
            continue
        # the row-major first differing entry; neither side stores a zero
        r, p_row, row = next(
            (r, p_row, row) for r, (p_row, row) in enumerate(zip(predicted, actual))
            if p_row != row
        )
        c = min(j for j in p_row.keys() | row.keys() if p_row.get(j, 0) != row.get(j, 0))
        col_name = str(c + 1) if c < n else f"{c - n + 1}'"
        checks.append(StageCheck(k, False, (str(r + 1), col_name, p_row.get(c, 0), row.get(c, 0))))
    return ModelReport(tuple(checks))
