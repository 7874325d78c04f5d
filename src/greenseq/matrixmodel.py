"""Predicted extended exchange matrices for every stage of the sequence.

After stages 0..k the mutable vertices split three ways: the processed part
(cycles T1..Tk, all red, carrying the permuted co-framing), the frontier
(the next cycle T_{k+1} together with the pending cycles whose entry vertex
x was mutated when a branching cycle was processed but whose y and z were
not), and the untouched rest.  The frontier's arrows to the rest are the
original ones; its arrows into the processed part and among itself follow a
short list of composite entries; its c-vectors have an explicit closed
form.  ``predicted_matrix`` assembles the whole matrix from these pieces
and ``verify_model`` compares it entrywise against direct mutation.
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
from .permmodel import stage_permutation
from .quiver import apply_sequence, frame


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
    out = []
    for c in e.cycles:
        if not c.up and c.parent is not None and c.parent_role == "z" and e.is_branching(c.parent):
            out.append(c.label)
    return tuple(sorted(out))


def pending_cycles(e: EmbeddedQuiver, k: int) -> tuple[PendingCycle, ...]:
    """Pending cycles at stage k: anchor processed, own y and z not."""
    if not 0 <= k <= e.n_cycles:
        raise EmbeddingError(f"stage {k} out of range 0..{e.n_cycles}")
    entries = []
    for m in pending_set(e):
        anchor = e.cycle(m).parent
        if not anchor <= k < m:
            continue
        chain = hanging_chain(e, m)
        if not chain or chain[0] != anchor + 1:
            raise EmbeddingError(f"pending T{m} has no chain starting at T{anchor + 1}")
        done = [s for s in chain if s <= k]
        progress = max(done) if done else None
        if progress is None:
            if anchor != k:
                raise EmbeddingError(f"pending T{m} has an unprocessed chain at stage {k}")
            case = 3
        elif progress == chain[-1]:
            case = 2
        else:
            case = 1
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
        # the processed subquiver: the anchor's x side before its chain
        # starts, then z of the last processed chain cycle
        entries.append((cm.y, closing_vertex(e, pc.label, upto=k), 1))
        entries.append((cm.z, cm.x, -1))
        if pc.case == 1:
            nxt = pc.chain[pc.chain.index(pc.progress) + 1]
            entries.append((cm.y, e.cycle(nxt).z, -1))
        elif pc.case == 3:
            entries.append((cm.y, e.cycle(pc.chain[0]).z, -1))
    if k < e.n_cycles:
        nc = e.cycle(k + 1)
        entries.append((nc.y, closing_vertex(e, k + 1, upto=k), 1))
        if not nc.up:
            entries.append((nc.z, nc.x, -1))
        elif k >= 1:
            entries.append((nc.z, closing_vertex(e, k, upto=k), -1))
        else:
            # the only mutation so far is the one at x1
            entries.append((nc.z, e.cycle(1).x, -1))
    return FrontierMatrix(e.quiver.n, tuple(sorted(entries)))


def base_c_vector(e: EmbeddedQuiver, k: int, v: int) -> tuple[int, ...]:
    """Frozen coordinates of a frontier vertex, without its own unit entry.

    Zero for a y vertex.  For z of cycle i: a unit at x' of the base cycle,
    one at z' of the cycle just below it when the base cycle is not T1, and
    one per descent-path x vertex of stage i.
    """
    vec = [0] * e.quiver.n
    owner = None
    for cyc in _frontier_cycles(e, k):
        if v == cyc.y:
            return tuple(vec)
        if v == cyc.z:
            owner = cyc.label
            break
    if owner is None:
        raise EmbeddingError(f"vertex {v} is not a frontier y or z vertex at stage {k}")
    r = base_cycle(e, owner)
    vec[e.cycle(r).x - 1] += 1
    if r > 1:
        vec[e.cycle(r - 1).z - 1] += 1
    for j in descent_path(e, owner):
        vec[e.cycle(j).x - 1] += 1
    return tuple(vec)


def _frontier_cycles(e: EmbeddedQuiver, k: int):
    labels = {pc.label for pc in pending_cycles(e, k)}
    if k < e.n_cycles:
        labels.add(k + 1)
    return [e.cycle(i) for i in sorted(labels)]


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
    if not 0 <= k <= e.n_cycles:
        raise EmbeddingError(f"stage {k} out of range 0..{e.n_cycles}")
    n = e.quiver.n
    b0 = e.quiver.b_matrix()

    frontier_cycles = {c.label for c in _frontier_cycles(e, k)}
    owner: dict[int, int] = {e.cycle(1).x: 0}
    for c in e.cycles:
        owner.setdefault(c.y, c.label)
        owner.setdefault(c.z, c.label)
    std = e.standard_order()
    processed = tuple(v for v in std if owner[v] <= k)
    front = tuple(v for v in std if owner[v] in frontier_cycles)
    rest = tuple(v for v in std if owner[v] > k and owner[v] not in frontier_cycles)

    mat = [[0] * (2 * n) for _ in range(n)]
    sigma = stage_permutation(e, k)

    for i in processed:
        row, b_row = mat[i - 1], b0[sigma.apply(i) - 1]
        for j in processed:
            row[j - 1] = b_row[sigma.apply(j) - 1]
        row[n + sigma.apply(i) - 1] = -1

    untouched = front + rest
    for u in untouched:
        row, b_row = mat[u - 1], b0[u - 1]
        for w in untouched:
            row[w - 1] = b_row[w - 1]
    for i in frontier_cycles:
        cyc = e.cycle(i)
        # the y-z arrow of a frontier cycle was cancelled when x was mutated
        mat[cyc.y - 1][cyc.z - 1] = 0
        mat[cyc.z - 1][cyc.y - 1] = 0

    for i, j, val in frontier_matrix(e, k).entries:
        mat[i - 1][j - 1] = val
        mat[j - 1][i - 1] = -val

    for v in untouched:
        mat[v - 1][n + v - 1] = 1
        if owner[v] in frontier_cycles:
            for j, c in enumerate(base_c_vector(e, k, v), start=n):
                mat[v - 1][j] += c

    return PredictedMatrix(k, processed, front, rest, tuple(map(tuple, mat)))


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
    for k in range(e.n_cycles + 1):
        eq = apply_sequence(eq, stage_parts(e, k).sequence())
        predicted = predicted_matrix(e, k).matrix
        if predicted == eq.rows:
            checks.append(StageCheck(k, True, None))
        else:
            r, c = next(
                (r, c) for r, (p_row, row) in enumerate(zip(predicted, eq.rows))
                for c, (p, v) in enumerate(zip(p_row, row)) if p != v
            )
            col_name = str(c + 1) if c < n else f"{c - n + 1}'"
            checks.append(
                StageCheck(k, False, (str(r + 1), col_name, predicted[r][c], eq.rows[r][c]))
            )
    return ModelReport(tuple(checks))
