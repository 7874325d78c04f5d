"""Direct sums of quivers and decomposition into irreducible summands.

A direct sum glues two quivers with forward arrows a_i -> b_i; it is
t-colored when t distinct sources are used and no junction pair carries a
double arrow.  Maximal green sequences of the summands concatenate (first
summand first) to one of the whole sum, which is what ``concat_mgs``
builds and verifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Sized

from .green import GreenTrace, _min_first_order, _successors, verify_green
from .quiver import Quiver, QuiverError, _exact_ints, _sequence, subquiver


class DirectSumError(QuiverError):
    """Invalid gluing data or a junction pair with a double arrow."""


class SummandNotGreenError(QuiverError):
    """A per-summand sequence failed maximal-green verification."""


GluingSpec = tuple[tuple[int, int], ...]


def direct_sum(q1: Quiver, q2: Quiver, pairs: Sequence[Sequence[int]]) -> Quiver:
    """Disjoint union of q1 and q2 (shifted by n1) plus arrows a_i -> b_i.

    The b_i are given in shifted coordinates n1+1 .. n1+n2, matching how the
    summed quiver is addressed afterwards.
    """
    n1, n2 = q1.n, q2.n
    counts: dict[tuple[int, int], int] = {}
    for s, d, m in q1.arrows:
        counts[(s, d)] = m
    for s, d, m in q2.arrows:
        counts[(s + n1, d + n1)] = m
    for pair in _sequence(pairs, "gluing pair"):
        if not isinstance(pair, Sized) or len(pair) != 2:
            raise DirectSumError(f"gluing pair {pair!r} is not (source, target)")
        a, b = pair
        if not _between(1, a, n1):
            raise DirectSumError(f"gluing source {a} is not a vertex of the first summand")
        if not _between(n1 + 1, b, n1 + n2):
            raise DirectSumError(
                f"gluing target {b} is not a shifted vertex of the second summand"
            )
        # after the range checks, so an out-of-range float keeps their message
        a, b = _exact_ints(pair, "gluing end")
        counts[(a, b)] = counts.get((a, b), 0) + 1
    return Quiver(n1 + n2, tuple((s, d, m) for (s, d), m in counts.items()))


def _between(lo: int, v: object, hi: int) -> bool:
    """lo <= v <= hi, and false for a value that does not compare with ints."""
    try:
        return lo <= v <= hi
    except TypeError:
        return False


def color_count(q1: Quiver, q2: Quiver, pairs: Sequence[Sequence[int]]) -> int:
    """Number of colors of the sum: distinct gluing sources.

    Raises if some ordered pair (a_i, b_j) occurs with multiplicity >= 2,
    which disqualifies the sum from being t-colored.
    """
    pairs = _sequence(pairs, "gluing pair")  # read once: it may be an iterator
    direct_sum(q1, q2, pairs)  # validate endpoints
    seen: dict[tuple[int, int], int] = {}
    for a, b in pairs:
        seen[(a, b)] = seen.get((a, b), 0) + 1
        if seen[(a, b)] >= 2:
            raise DirectSumError(f"junction pair {a} -> {b} carries a double arrow")
    return len({a for a, _ in pairs})


# ---------------------------------------------------------------------------
# Decomposition


@dataclass(frozen=True)
class Decomposition:
    """Ordered split of a quiver into summands with forward cross arrows.

    ``summands`` are vertex sets (ascending); all arrows between distinct
    summands point from an earlier one to a later one.  ``colors`` gives a
    color index per cross arrow, one color per distinct (summand, source
    vertex) junction.  ``irreducible`` tells, per summand, whether it is
    one strongly connected component of the quiver, rather than several
    fused over double-arrow junctions.
    """

    quiver: Quiver
    summands: tuple[tuple[int, ...], ...]
    cross_arrows: tuple[tuple[int, int, int], ...]  # (src, dst, mult)
    colors: tuple[int, ...]
    irreducible: tuple[bool, ...]

    def part(self, p: int) -> tuple[Quiver, tuple[int, ...]]:
        """Summand ``p`` as a quiver on 1..size, plus its global vertex ids."""
        return subquiver(self.quiver, self.summands[p])


def _strongly_connected_components(adj: dict[int, list[int]]) -> list[list[int]]:
    """Kosaraju's two passes (Sharir, 1981) over successor lists ``adj``.

    The first depth-first pass records the order in which vertices are left;
    the second takes the vertices latest-left first and collects what each
    reaches along reversed arrows among the vertices not yet placed.  Each
    component comes out sorted.
    """
    seen: set[int] = set()
    left: list[int] = []
    for root in adj:
        if root in seen:
            continue
        seen.add(root)
        work = [(root, iter(adj[root]))]
        while work:
            v, ahead = work[-1]
            for w in ahead:
                if w not in seen:
                    seen.add(w)
                    work.append((w, iter(adj[w])))
                    break
            else:
                work.pop()
                left.append(v)
    pred: dict[int, list[int]] = {v: [] for v in adj}
    for v, ws in adj.items():
        for w in ws:
            pred[w].append(v)
    placed: set[int] = set()
    comps: list[list[int]] = []
    for root in reversed(left):
        if root in placed:
            continue
        placed.add(root)
        comp = [root]
        for v in comp:  # grows while it is read: a breadth-first sweep
            for w in pred[v]:
                if w not in placed:
                    placed.add(w)
                    comp.append(w)
        comps.append(sorted(comp))
    return comps


def decompose(q: Quiver) -> Decomposition:
    """Finest ordered decomposition with t-colored junctions.

    A junction carrying a double arrow cannot be part of a t-colored sum,
    so its ends share a summand, and so must all groups on a cycle of the
    group quotient, until the quotient is a DAG.  That fixpoint is the
    strongly connected components of the quiver with each double arrow also
    read backwards.  Kosaraju runs once over Q; the fixpoint is then taken
    on the quotient of Q's components, where a double arrow inside one
    component adds nothing.  A summand is irreducible exactly when it is
    one component of Q.  Summand order is the topological order of the
    quotient with smallest-minimum-vertex tie-break.
    """
    comps = _strongly_connected_components(_successors(q))
    # each component and each group is named by its minimum vertex, so the
    # min-first order of the groups breaks ties by smallest minimum vertex
    members = {comp[0]: comp for comp in comps}
    comp_of = {v: comp[0] for comp in comps for v in comp}
    quotient: dict[int, list[int]] = {c: [] for c in members}
    for s, d, m in q.arrows:
        cs, cd = comp_of[s], comp_of[d]
        if cs != cd:
            quotient[cs].append(cd)
            if m >= 2:
                quotient[cd].append(cs)
    groups = _strongly_connected_components(quotient)
    group_of = {c: group[0] for group in groups for c in group}
    succ: dict[int, set[int]] = {group[0]: set() for group in groups}
    for c, targets in quotient.items():
        for t in targets:
            if group_of[c] != group_of[t]:
                succ[group_of[c]].add(group_of[t])
    parts = {group[0]: group for group in groups}
    order = _min_first_order(succ)

    summands = tuple(tuple(sorted(v for c in parts[g] for v in members[c])) for g in order)
    irreducible = tuple(len(parts[g]) == 1 for g in order)
    position = {v: p for p, verts in enumerate(summands) for v in verts}
    cross = tuple(
        sorted((s, d, m) for s, d, m in q.arrows if position[s] != position[d])
    )

    junctions = sorted({(position[s], s) for s, _, _ in cross})
    color_index = {key: i + 1 for i, key in enumerate(junctions)}
    colors = tuple(color_index[(position[s], s)] for s, _, _ in cross)
    return Decomposition(q, summands, cross, colors, irreducible)


def decomposition_report(dec: Decomposition) -> str:
    """Text report: one line per summand, then the colored junction arrows.

    A summand fused from several components over double-arrow junctions is
    reducible, but cannot be split without losing the color condition.
    """
    lines = []
    for p, (verts, strong) in enumerate(zip(dec.summands, dec.irreducible), start=1):
        vs = ",".join(str(v) for v in verts)
        kind = "irreducible" if strong else "fused"
        lines.append(f"summand {p}: vertices {{{vs}}} {kind}")
    for (src, dst, mult), color in zip(dec.cross_arrows, dec.colors):
        for _ in range(mult):
            lines.append(f"junction {src} -> {dst} color f{color}")
    return "\n".join(lines) + "\n"


def concat_mgs(dec: Decomposition, per_summand: Sequence[Sequence[int]]) -> GreenTrace:
    """Concatenate verified per-summand sequences into one for the whole quiver.

    ``per_summand[p]`` is a maximal green sequence of ``dec.part(p)`` in that
    subquiver's local numbering.  The concatenation, first summand first, is
    walked once on the full quiver and that walk returned; by the direct-sum
    theorem it is maximal exactly when every part is, so the parts are walked
    only after it fails, to name the first that is not.
    """
    if not isinstance(per_summand, Sized):
        raise DirectSumError(f"{per_summand!r} is not a sequence of per-summand sequences")
    if len(per_summand) != len(dec.summands):
        raise DirectSumError(
            f"expected {len(dec.summands)} sequences, got {len(per_summand)}"
        )
    steps = [_exact_ints(seq, "vertex") for seq in per_summand]
    out = []
    for verts, seq in zip(dec.summands, steps):
        for k in seq:
            if not 1 <= k <= len(verts):
                raise QuiverError(f"vertex {k} out of range 1..{len(verts)}")
            out.append(verts[k - 1])
    whole = verify_green(dec.quiver, out)
    if whole.is_maximal:
        return whole
    for p, seq in enumerate(steps):
        if not verify_green(dec.part(p)[0], seq).is_maximal:
            raise SummandNotGreenError(
                f"sequence for summand {p + 1} is not a maximal green sequence"
            )
    raise SummandNotGreenError("concatenation failed to verify on the full quiver")
