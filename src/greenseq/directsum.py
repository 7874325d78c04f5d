"""Direct sums of quivers and decomposition into irreducible summands.

A direct sum glues two quivers with forward arrows a_i -> b_i; it is
t-colored when t distinct sources are used and no junction pair carries a
double arrow.  Maximal green sequences of the summands concatenate (first
summand first) to one of the whole sum, which is what ``concat_mgs``
builds and verifies.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

from .green import MgsReport, is_maximal_green
from .quiver import ExtendedQuiver, Quiver, QuiverError, subquiver


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
    for a, b in pairs:
        if not 1 <= a <= n1:
            raise DirectSumError(f"gluing source {a} is not a vertex of the first summand")
        if not n1 + 1 <= b <= n1 + n2:
            raise DirectSumError(
                f"gluing target {b} is not a shifted vertex of the second summand"
            )
        counts[(a, b)] = counts.get((a, b), 0) + 1
    return Quiver(n1 + n2, tuple((s, d, m) for (s, d), m in counts.items()))


def color_count(q1: Quiver, q2: Quiver, pairs: Sequence[Sequence[int]]) -> int:
    """Number of colors of the sum: distinct gluing sources.

    Raises if some ordered pair (a_i, b_j) occurs with multiplicity >= 2,
    which disqualifies the sum from being t-colored.
    """
    direct_sum(q1, q2, pairs)  # validate endpoints
    seen: dict[tuple[int, int], int] = {}
    for a, b in pairs:
        seen[(a, b)] = seen.get((a, b), 0) + 1
        if seen[(a, b)] >= 2:
            raise DirectSumError(f"junction pair {a} -> {b} carries a double arrow")
    return len({a for a, _ in pairs})


def net_arrows(state: Quiver | ExtendedQuiver, x: int, y: int, *, frozen: bool = False) -> int:
    """Signed arrow count from x to y; y may address a frozen vertex."""
    if isinstance(state, ExtendedQuiver):
        if frozen:
            if not 1 <= y <= state.m:
                raise QuiverError(f"frozen vertex {y} out of range 1..{state.m}")
            return state.entry(x, y, frozen=True)
        return state.entry(x, y)
    if frozen:
        raise QuiverError("plain quivers have no frozen vertices")
    if not (1 <= x <= state.n and 1 <= y <= state.n):
        raise QuiverError(f"vertex pair ({x}, {y}) out of range 1..{state.n}")
    return state.multiplicity(x, y) - state.multiplicity(y, x)


# ---------------------------------------------------------------------------
# Decomposition


@dataclass(frozen=True)
class Decomposition:
    """Ordered split of a quiver into summands with forward cross arrows.

    ``summands`` are vertex sets (ascending); all arrows between distinct
    summands point from an earlier one to a later one.  ``colors`` gives a
    color index per cross arrow, one color per distinct (summand, source
    vertex) junction.
    """

    quiver: Quiver
    summands: tuple[tuple[int, ...], ...]
    cross_arrows: tuple[tuple[int, int, int], ...]  # (src, dst, mult)
    colors: tuple[int, ...]

    def summand_of(self, v: int) -> int:
        for p, verts in enumerate(self.summands):
            if v in verts:
                return p
        raise QuiverError(f"vertex {v} not in any summand")

    def part(self, p: int) -> tuple[Quiver, tuple[int, ...]]:
        """Summand ``p`` as a quiver on 1..size, plus its global vertex ids."""
        return subquiver(self.quiver, self.summands[p])

    def color_counts(self) -> tuple[int, ...]:
        """Distinct cross-arrow sources per summand (its t towards later parts)."""
        sources: list[set[int]] = [set() for _ in self.summands]
        for src, _, _ in self.cross_arrows:
            sources[self.summand_of(src)].add(src)
        return tuple(len(s) for s in sources)


def _successors(q: Quiver) -> dict[int, list[int]]:
    succ: dict[int, list[int]] = {v: [] for v in range(1, q.n + 1)}
    for s, d, _ in q.arrows:
        succ[s].append(d)
    return succ


def _strongly_connected_components(adj: dict[int, list[int]]) -> list[list[int]]:
    """Iterative Tarjan on the graph with successor lists ``adj``."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in adj:
        if root in index:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack.add(v)
            advanced = False
            while pi < len(adj[v]):
                w = adj[v][pi]
                pi += 1
                if w not in index:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.remove(w)
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return comps


def decompose(q: Quiver) -> Decomposition:
    """Finest ordered decomposition with t-colored junctions.

    A junction carrying a double arrow cannot be part of a t-colored sum,
    so its ends share a summand, and so must all groups on a cycle of the
    group quotient, until the quotient is a DAG.  That fixpoint is the
    strongly connected components of the quiver with each double arrow also
    read backwards.  Summand order is the topological order of the quotient
    with smallest-minimum-vertex tie-break.
    """
    adj = _successors(q)
    for s, d, m in q.arrows:
        if m >= 2:
            adj[d].append(s)
    comps = _strongly_connected_components(adj)
    group_of = {v: g for g, comp in enumerate(comps) for v in comp}

    # Topological order of the quotient, smallest minimum vertex first.
    succ: list[set[int]] = [set() for _ in comps]
    indeg = [0] * len(comps)
    for s, d, _ in q.arrows:
        gs, gd = group_of[s], group_of[d]
        if gs != gd and gd not in succ[gs]:
            succ[gs].add(gd)
            indeg[gd] += 1
    heap = [(comp[0], g) for g, comp in enumerate(comps) if indeg[g] == 0]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        _, g = heapq.heappop(heap)
        order.append(g)
        for h in succ[g]:
            indeg[h] -= 1
            if indeg[h] == 0:
                heapq.heappush(heap, (comps[h][0], h))

    summands = tuple(tuple(comps[g]) for g in order)
    position = {v: p for p, verts in enumerate(summands) for v in verts}
    cross = tuple(
        sorted((s, d, m) for s, d, m in q.arrows if position[s] != position[d])
    )

    junctions = sorted({(position[s], s) for s, _, _ in cross})
    color_index = {key: i + 1 for i, key in enumerate(junctions)}
    colors = tuple(color_index[(position[s], s)] for s, _, _ in cross)
    return Decomposition(q, summands, cross, colors)


def decomposition_report(dec: Decomposition) -> str:
    """Text report: one line per summand, then the colored junction arrows."""
    lines = []
    for p, verts in enumerate(dec.summands, start=1):
        vs = ",".join(str(v) for v in verts)
        part, _ = dec.part(p - 1)
        # a summand fused over a double-arrow junction is reducible but
        # cannot be split without losing the color condition
        strong = len(_strongly_connected_components(_successors(part))) == 1
        kind = "irreducible" if strong else "fused"
        lines.append(f"summand {p}: vertices {{{vs}}} {kind}")
    for (src, dst, mult), color in zip(dec.cross_arrows, dec.colors):
        for _ in range(mult):
            lines.append(f"junction {src} -> {dst} color f{color}")
    return "\n".join(lines) + "\n"


def concat_mgs(dec: Decomposition, per_summand: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Concatenate verified per-summand sequences into one for the whole quiver.

    ``per_summand[p]`` is a maximal green sequence of ``dec.part(p)`` in that
    subquiver's local numbering.  The result (first summand's steps first) is
    verified as a maximal green sequence of the full quiver before returning.
    """
    return concat_mgs_report(dec, per_summand)[0]


def concat_mgs_report(
    dec: Decomposition, per_summand: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], MgsReport]:
    """``concat_mgs`` plus the whole quiver's report from its verifying walk."""
    if len(per_summand) != len(dec.summands):
        raise DirectSumError(
            f"expected {len(dec.summands)} sequences, got {len(per_summand)}"
        )
    failure = "concatenation failed to verify on the full quiver"
    if len(dec.summands) == 1:
        # the one summand is the whole quiver in its own numbering, so the
        # whole-quiver walk is the per-summand walk
        out = list(per_summand[0])
        failure = "sequence for summand 1 is not a maximal green sequence"
    else:
        out = []
        for p, seq in enumerate(per_summand):
            part, globals_ = dec.part(p)
            if not is_maximal_green(part, seq).is_maximal:
                raise SummandNotGreenError(
                    f"sequence for summand {p + 1} is not a maximal green sequence"
                )
            out.extend(globals_[k - 1] for k in seq)
    whole = is_maximal_green(dec.quiver, out)
    if not whole.is_maximal:
        raise SummandNotGreenError(failure)
    return tuple(out), whole
