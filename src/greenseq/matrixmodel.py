"""Predicted extended exchange matrices for every stage of the sequence.

After stages 0..k the mutable vertices split three ways: the processed part
(cycles T1..Tk, all red, carrying the permuted co-framing), the frontier
(the next cycle T_{k+1} together with the pending cycles whose entry vertex
x was mutated when a branching cycle was processed but whose y and z were
not), and the untouched rest.  The frontier's arrows to the rest are the
original ones; its arrows into the processed part and among itself follow a
short list of composite entries; its c-vectors have an explicit closed
form.  ``predicted_matrix`` assembles the whole matrix from these pieces
and ``verify_model`` compares it, row by sparse row, against direct
mutation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .assocseq import stage_parts
from .embedding import (
    EmbeddedQuiver,
    EmbeddingError,
    base_cycle,
    closing_vertex,
    descent_path,
    hanging_chain,
)
from .permmodel import rotation_table, stage_permutation
from .quiver import Permutation, _dense, apply_sequence, frame


@dataclass(frozen=True)
class PendingCycle:
    """A cycle whose x vertex was mutated but whose y and z were not.

    ``anchor`` is the branching cycle it hangs from (at the anchor's z);
    ``chain`` is the run of cycles over the anchor (its y-child, then
    z-children); ``progress`` is the largest chain label already processed
    at the stage in question, absent exactly when the anchor is the current
    stage.  ``case`` records whether the chain is partially processed (1),
    fully processed (2), or untouched (3).
    """

    label: int
    anchor: int
    chain: tuple[int, ...]
    progress: int | None
    case: int


def pending_set(e: EmbeddedQuiver) -> tuple[int, ...]:
    """Downward cycles hanging at the z vertex of a branching cycle."""
    return e.pending


def pending_cycles(e: EmbeddedQuiver, k: int) -> tuple[PendingCycle, ...]:
    """Pending cycles at stage k: anchor processed, own y and z not."""
    if not 0 <= k <= e.n_cycles:
        raise EmbeddingError(f"stage {k} out of range 0..{e.n_cycles}")
    entries = []
    for m in e.pending:
        anchor = e.cycle(m).parent
        if not anchor <= k < m:
            continue
        chain = hanging_chain(e, m)
        if not chain or chain[0] != anchor + 1:
            raise EmbeddingError(f"pending T{m} has no chain starting at T{anchor + 1}")
        progress = max((s for s in chain if s <= k), default=None)
        if progress is None and anchor != k:
            raise EmbeddingError(f"pending T{m} has an unprocessed chain at stage {k}")
        case = 3 if progress is None else (2 if progress == chain[-1] else 1)
        entries.append(PendingCycle(m, anchor, chain, progress, case))
    return tuple(entries)


@dataclass(frozen=True)
class FrontierMatrix:
    """The stage-k composite arrows incident to frontier vertices.

    ``entries`` lists only the defining directed entries; the skew mirror is
    implied.
    """

    n: int
    entries: tuple[tuple[int, int, int], ...]  # (row vertex, col vertex, value)


def frontier_matrix(e: EmbeddedQuiver, k: int) -> FrontierMatrix:
    """Composite entries for stage k, per pending-cycle case and next cycle."""
    entries: list[tuple[int, int, int]] = []
    for pc in pending_cycles(e, k):
        cm = e.cycle(pc.label)
        # the y arrow tracks the pending cycle's closing vertex as seen in
        # the processed subquiver: the anchor's closing vertex before its
        # chain starts, then z of the last processed chain cycle
        closing = closing_vertex(e, pc.anchor) if pc.progress is None else e.cycle(pc.progress).z
        entries.append((cm.y, closing, 1))
        entries.append((cm.z, cm.x, -1))
        if pc.case == 1:
            nxt = pc.chain[pc.chain.index(pc.progress) + 1]
            entries.append((cm.y, e.cycle(nxt).z, -1))
        elif pc.case == 3:
            entries.append((cm.y, e.cycle(pc.chain[0]).z, -1))
    if k < e.n_cycles:
        nc = e.cycle(k + 1)
        entries.append((nc.y, closing_vertex(e, k + 1), 1))
        if not nc.up:
            entries.append((nc.z, nc.x, -1))
        elif k >= 1:
            entries.append((nc.z, closing_vertex(e, k), -1))
        else:
            # the only mutation so far is the one at x1
            entries.append((nc.z, e.cycle(1).x, -1))
    return FrontierMatrix(e.quiver.n, tuple(sorted(entries)))


def _frontier_labels(e: EmbeddedQuiver, k: int, pending: tuple[PendingCycle, ...]) -> set[int]:
    """Labels of the stage-k frontier cycles: the pending ones and T_{k+1}."""
    labels = {pc.label for pc in pending}
    if k < e.n_cycles:
        labels.add(k + 1)
    return labels


def base_c_vector(e: EmbeddedQuiver, k: int, v: int) -> tuple[int, ...]:
    """Frozen coordinates of a frontier vertex, without its own unit entry.

    Zero for a y vertex.  For z of cycle i: a unit at x' of the base cycle,
    one at z' of the cycle just below it when the base cycle is not T1, and
    one per descent-path x vertex of stage i.
    """
    vec = [0] * e.quiver.n
    for i in _frontier_labels(e, k, pending_cycles(e, k)):
        cyc = e.cycle(i)
        if v == cyc.y:
            return tuple(vec)
        if v == cyc.z:
            for u in _z_c_support(e, i):
                vec[u - 1] += 1
            return tuple(vec)
    raise EmbeddingError(f"vertex {v} is not a frontier y or z vertex at stage {k}")


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


@dataclass(frozen=True)
class PredictedMatrix:
    """Assembled stage-k prediction with its three-way vertex split.

    ``matrix`` is in natural vertex order (row v at position v-1, frozen
    column v' at n+v-1); ``block_matrix`` reorders rows and columns to the
    processed/frontier/rest split in the standard ordering.
    """

    k: int
    processed: tuple[int, ...]
    frontier: tuple[int, ...]
    rest: tuple[int, ...]
    matrix: tuple[tuple[int, ...], ...]

    def block_matrix(self) -> tuple[tuple[int, ...], ...]:
        order = [v - 1 for v in self.processed + self.frontier + self.rest]
        cols = order + [len(self.matrix) + i for i in order]
        return tuple(tuple(self.matrix[i][j] for j in cols) for i in order)


def predicted_matrix(e: EmbeddedQuiver, k: int) -> PredictedMatrix:
    """Predicted extended matrix after stages 0..k, assembled from parts."""
    sigma = stage_permutation(e, k)  # raises for k outside 0..n
    processed, front, rest, rows = _assemble(e, k, sigma)
    return PredictedMatrix(k, processed, front, rest, _dense(rows, 2 * e.quiver.n))


def _assemble(e: EmbeddedQuiver, k: int, sigma: Permutation):
    """Stage k from sigma_k: its processed/frontier/rest split and its sparse
    ``{column: value}`` rows, in the layout of ``ExtendedQuiver.sparse_rows``."""
    n = e.quiver.n
    owner = e.first_stage
    std = e.standard_order()
    frontier_cycles = _frontier_labels(e, k, pending_cycles(e, k))
    # lists, not generators: CPython builds tuple(generator) by resizing,
    # and once freed such tuples pile up in its tuple free lists
    processed = tuple([v for v in std if owner[v] <= k])
    front = tuple([v for v in std if owner[v] in frontier_cycles])
    rest = tuple([v for v in std if owner[v] > k and owner[v] not in frontier_cycles])

    # Q's arrows, relabelled by sigma_k (which permutes the processed
    # vertices) within the processed block, as they are among the untouched
    # vertices bar a frontier cycle's y-z arrow, cancelled when its x was
    # mutated; only the frontier entries join the two blocks.  Every
    # value written is nonzero, so no zero is stored.
    rows: list[dict[int, int]] = [{} for _ in range(n)]
    preimage = sigma.inverse().images
    for s, d, m in e.quiver.arrows:
        if owner[s] <= k and owner[d] <= k:
            i, j = preimage[s - 1], preimage[d - 1]
        elif owner[s] > k and owner[d] > k and not owner[s] == owner[d] in frontier_cycles:
            i, j = s, d
        else:
            continue
        rows[i - 1][j - 1] = m
        rows[j - 1][i - 1] = -m
    image = sigma.images
    for i in processed:
        rows[i - 1][n + image[i - 1] - 1] = -1

    for i, j, val in frontier_matrix(e, k).entries:
        rows[i - 1][j - 1] = val
        rows[j - 1][i - 1] = -val

    for v in front + rest:
        row = rows[v - 1]
        row[n + v - 1] = 1
        # a frontier y vertex has a zero base c-vector
        if owner[v] in frontier_cycles and v == e.cycle(owner[v]).z:
            for u in _z_c_support(e, owner[v]):
                row[n + u - 1] = row.get(n + u - 1, 0) + 1

    return processed, front, rest, tuple(rows)


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
    """Compare predicted and directly mutated matrices for every stage."""
    n = e.quiver.n
    eq = frame(e.quiver)
    checks = []
    for k, (_, sigma) in enumerate(rotation_table(e)):
        eq = apply_sequence(eq, stage_parts(e, k).sequence())
        predicted = _assemble(e, k, sigma)[3]
        if predicted == eq.sparse_rows:
            checks.append(StageCheck(k, True, None))
            continue
        # the row-major first differing entry; neither side stores a zero
        r, p_row, row = next(
            (r, p_row, row) for r, (p_row, row) in enumerate(zip(predicted, eq.sparse_rows))
            if p_row != row
        )
        c = min(j for j in p_row.keys() | row.keys() if p_row.get(j, 0) != row.get(j, 0))
        col_name = str(c + 1) if c < n else f"{c - n + 1}'"
        checks.append(StageCheck(k, False, (str(r + 1), col_name, p_row.get(c, 0), row.get(c, 0))))
    return ModelReport(tuple(checks))
