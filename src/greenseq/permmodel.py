"""Predicted permutations of the staged green sequence.

Each stage k >= 1 contributes the cyclic relabelling tau_k = (i_2 ... i_d)
built from its mutation order (y_k, i_2, ..., i_d) with the first step
dropped.  The cumulative permutation sigma_k after stage k applies tau_k
first, then tau_{k-1}, and so on down to tau_1; after the last stage it
equals the permutation induced by the whole sequence, which is checked
against ground truth in the test suite.

``check_permutation_identities`` streams sigma_k and its inverse from
``embedding``, which owns the stages, to evaluate the fixed-point and
action identities these permutations satisfy on a concrete embedding,
and reports any violation with a witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .embedding import (
    EmbeddedQuiver,
    _sigma_stream,
    _stage_fold,
    base_cycle,
    closing_vertex,
    descent_path,
    northeast_region,
)


@dataclass(frozen=True)
class ClauseResult:
    family: str
    clause: str
    checked: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class PermIdentityReport:
    clauses: tuple[ClauseResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.clauses)

    def text(self) -> str:
        lines = []
        for c in self.clauses:
            lines.append(
                f"{c.family} clause {c.clause}): checked={c.checked} violations={len(c.violations)}"
            )
            lines.extend(f"  {v}" for v in c.violations)
        lines.append("result: " + ("all identities hold" if self.ok else "violations found"))
        return "\n".join(lines) + "\n"


def _chain_end_below(e: EmbeddedQuiver, top: int, upto: int) -> int:
    """Last cycle labelled at most ``upto`` on the chain of z-children from ``top``."""
    cur = top
    while (nxt := e.child_at_z(cur)) is not None and nxt <= upto:
        cur = nxt
    return cur


class _Tally:
    """One clause being checked; a witness is formatted only when it fails."""

    __slots__ = ("family", "clause", "checked", "violations")

    def __init__(self, family: str, clause: str) -> None:
        self.family = family
        self.clause = clause
        self.checked = 0
        self.violations: list[str] = []

    def expect(self, got: int, want: int, desc: str, *args: int) -> None:
        self.checked += 1
        if got != want:
            self.violations.append(f"{desc.format(*args)}: got {got}, expected {want}")

    def result(self) -> ClauseResult:
        return ClauseResult(self.family, self.clause, self.checked, tuple(self.violations))


def _pool_size(lo: int, k: int, region: tuple[int, ...], excluded: set[int]) -> int:
    """How many labels lie in lo..k or in ``region`` but not in ``excluded``."""
    size = max(k - lo + 1, 0) + sum(1 for ell in region if not lo <= ell <= k)
    return size - sum(1 for ell in excluded if lo <= ell <= k or ell in region)


def check_permutation_identities(e: EmbeddedQuiver) -> PermIdentityReport:
    """Evaluate the permutation identities clause by clause on ``e``.

    One pass streams sigma_k and its inverse over the stages and reads each
    stage's cycle, base cycle, descent path, closing vertices and (when z_k
    has degree 2) northeast region once, feeding every clause from them.
    The fixed-point clauses count their pairs and look up only the stages
    whose tau moves a checked vertex.  Pairs whose preconditions fail are
    skipped (counted as not applicable), never as passes.
    """
    n = e.n_cycles
    x1 = e.cycle(1).x
    # for each vertex, the stages whose tau moves it, with its image there
    moves: dict[int, list[tuple[int, int]]] = {}
    for ell, (_, tau) in enumerate(_stage_fold(e)):
        for v, w in tau.items():
            moves.setdefault(v, []).append((ell, w))
    # degree-2 y vertices, each with the labels whose y it is
    free_y: dict[int, list[int]] = {}
    for j in range(1, n + 1):
        if e.child_at_y(j) is None:
            free_y.setdefault(e.cycle(j).y, []).append(j)

    def y_expected(k: int, j_label: int) -> int:
        """Expected image of y_{j_label} under sigma_{k-1}^{-1}."""
        upto = k - 1
        child = e.child_at_y(j_label)
        if child is None or child > upto:
            return e.cycle(j_label).y
        end = _chain_end_below(e, child, upto)
        if end != child:
            return e.cycle(end).x
        return closing_vertex(e, j_label)

    path_support = _Tally("fixed-points", "path-support")
    closing = _Tally("fixed-points", "closing-vertex")
    act_i, act_ii, act_iii, act_iv, act_v = (
        _Tally("stage-action", clause) for clause in ("i", "ii", "iii", "iv", "v")
    )
    y_vertices = _Tally("inverse-action", "y-vertices")
    y_stability = _Tally("inverse-action", "y-stability")
    degree_2_y = _Tally("fixed-points", "degree-2-y")
    unfixed: set[int] = set()  # degree-2 y vertices sigma_k moves
    free_y_moved: list[tuple[int, int, int]] = []  # (label, k, image)
    for k, _, tau, sigma, inv in _sigma_stream(e):
        # degree-2 y vertices are fixed by every cumulative permutation;
        # sigma_k moves one only if sigma_{k-1} did or tau_k moves it
        for v in tau:
            if v in free_y:
                if sigma[v - 1] != v:
                    unfixed.add(v)
                else:
                    unfixed.discard(v)
        for v in unfixed:
            free_y_moved.extend((j, k, sigma[v - 1]) for j in free_y[v])
        if k == 0:
            continue
        cyc = e.cycle(k)
        r = base_cycle(e, k)
        path = descent_path(e, k)
        xs = [e.cycle(j).x for j in path]
        close_k = closing_vertex(e, k)
        close_below = closing_vertex(e, r - 1) if r != 1 else None

        # fixed points of tau_l northeast of a descent path (z_k and the
        # path's x vertices; y_k itself can be moved by an upper child's
        # stage), and of the closing vertex below a downward path's base:
        # the labels l are those up to k or in the region, bar the path and
        # its base, and only the stages moving a vertex can fail
        if e.child_at_z(k) is None:
            region = northeast_region(e, k)
            in_region = set(region)
            excluded = {*path, r}
            fixed = (cyc.z, *xs)
            path_support.checked += _pool_size(1, k, region, excluded) * len(fixed)
            hits = [
                (ell, t, v, w) for t, v in enumerate(fixed) for ell, w in moves.get(v, ())
                if (ell <= k or ell in in_region) and ell not in excluded
            ]
            hits.sort()
            path_support.violations.extend(
                f"k={k} l={ell} v={v}: got {w}, expected {v}" for ell, _, v, w in hits
            )
            if not cyc.up and r != 1:
                # the same labels with the pool's 1..k cut to r..k
                closing.checked += _pool_size(r, k, region, excluded)
                closing.violations.extend(
                    f"k={k} l={ell}: got {w}, expected {close_below}"
                    for ell, w in moves.get(close_below, ())
                    if (r <= ell <= k or ell in in_region) and ell not in excluded
                )

        # action of sigma_k on the stage support
        if r == 1:
            act_i.expect(sigma[cyc.z - 1], x1, "k={} z", k)
            # the converse direction presupposes the stage closes at x1
            if close_k == x1:
                act_i.expect(sigma[x1 - 1], cyc.z, "k={} x1", k)
        else:
            act_i.expect(sigma[cyc.z - 1], e.cycle(r - 1).z, "k={}", k)
            act_iii.expect(sigma[close_below - 1], cyc.x, "k={}", k)
            if not cyc.up:
                act_ii.expect(sigma[cyc.x - 1], e.cycle(r).x, "k={}", k)
        act_iv.expect(sigma[close_k - 1], cyc.z, "k={}", k)
        if cyc.up:
            continue
        d = len(path)
        if r == 1:
            pairs = ((j, xs[j - 1], xs[d - j]) for j in range(1, (d + 1) // 2 + 1))
        else:
            pairs = ((j, xs[j - 1], xs[d + 1 - j]) for j in range(2, (d + 2) // 2 + 1))
        for j, a, b in pairs:
            act_v.expect(sigma[a - 1], b, "k={} j={}", k, j)
            act_v.expect(sigma[b - 1], a, "k={} j={} rev", k, j)

        # inverse action on the y vertices along the descent path; the case
        # split sees only the processed part (cycles up to stage k-1), and
        # sigma_{k-1}^-1 is sigma_k^-1 followed by tau_k
        for j_label in (r, *path):
            yv = e.cycle(j_label).y
            after = inv[yv - 1]
            before = tau.get(after, after)
            y_vertices.expect(before, y_expected(k, j_label), "k={} label={}", k, j_label)
            y_stability.expect(after, before, "k={} label={}", k, j_label)

    degree_2_y.checked = sum(map(len, free_y.values())) * (n + 1)
    free_y_moved.sort()
    degree_2_y.violations.extend(
        f"y of T{j}, sigma_{k}: got {w}, expected {e.cycle(j).y}" for j, k, w in free_y_moved
    )

    tallies = (path_support, closing, act_i, act_ii, act_iii, act_iv, act_v,
               y_vertices, y_stability, degree_2_y)
    return PermIdentityReport(tuple(t.result() for t in tallies))
