"""Predicted permutations of the staged green sequence.

Each stage k >= 1 contributes the cyclic relabelling tau_k = (i_2 ... i_d)
built from its mutation order (y_k, i_2, ..., i_d) with the first step
dropped.  The cumulative permutation after stage k applies tau_k first,
then tau_{k-1}, and so on down to tau_1; after the last stage it equals
the permutation induced by the whole sequence, which is checked against
ground truth in the test suite.

``stage_table`` is the one fold of the stages: it works out each stage's
mutation order, tau_k, sigma_k and sigma_k^-1 once per embedding, and
``stage_permutation``, ``predicted_matrix``, ``verify_model`` and
``check_permutation_identities`` all read it.  The last numerically
evaluates the fixed-point and action identities these permutations satisfy
on a concrete embedding and reports any violation with a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .assocseq import stage_parts
from .embedding import (
    EmbeddedQuiver,
    EmbeddingError,
    base_cycle,
    closing_vertex,
    descent_path,
    northeast_region,
)
from .quiver import Permutation


class Stage(NamedTuple):
    """One stage's facts: its mutation order, tau_k, sigma_k and sigma_k^-1."""

    sequence: tuple[int, ...]
    tau: Permutation
    sigma: Permutation
    sigma_inv: Permutation


def stage_table(e: EmbeddedQuiver) -> tuple[Stage, ...]:
    """Every stage k = 0..n in one fold, worked out on first use and kept on
    ``e``, so the stage models and the identity check share it.

    tau_k cycles stage k's mutation order with the first step dropped (the
    identity for stage 0, the single mutation at x1); sigma_k applies tau_k,
    then sigma_{k-1}.
    """
    table = e._stage_table
    if table is None:
        n = e.quiver.n
        sigma = Permutation.identity(n)
        stages = []
        for k in range(e.n_cycles + 1):
            seq = stage_parts(e, k).sequence()
            tau = Permutation.from_cycle(n, seq[1:])
            sigma = tau.then(sigma)
            stages.append(Stage(seq, tau, sigma, sigma.inverse()))
        # racing threads build equal tables, so either may be kept
        table = e._stage_table = tuple(stages)
    return table


def stage_permutation(e: EmbeddedQuiver, k: int) -> Permutation:
    """sigma_k: apply tau_k, then tau_{k-1}, ..., then tau_1."""
    # checked before indexing: table[-1] would read as the last stage
    if not 0 <= k <= e.n_cycles:
        raise EmbeddingError(f"stage {k} out of range 0..{e.n_cycles}")
    return stage_table(e)[k].sigma


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


def check_permutation_identities(e: EmbeddedQuiver) -> PermIdentityReport:
    """Evaluate the permutation identities clause by clause on ``e``.

    One pass over the stages reads each stage's cycle, base cycle, descent
    path, closing vertices and (when z_k has degree 2) northeast region once
    and feeds every clause from them; the degree-2-y clause has its own
    loop.  Pairs whose preconditions fail are skipped (counted as not
    applicable), never as passes.
    """
    n = e.n_cycles
    stages = stage_table(e)
    taus = [s.tau.images for s in stages]
    sigmas = [s.sigma.images for s in stages]
    inv = [s.sigma_inv.images for s in stages]
    x1 = e.cycle(1).x

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
    for k in range(1, n + 1):
        cyc = e.cycle(k)
        r = base_cycle(e, k)
        path = descent_path(e, k)
        xs = [e.cycle(j).x for j in path]
        close_k = closing_vertex(e, k)
        close_below = closing_vertex(e, r - 1) if r != 1 else None

        # fixed points of tau_l northeast of a descent path (z_k and the
        # path's x vertices; y_k itself can be moved by an upper child's
        # stage), and of the closing vertex below a downward path's base
        if e.child_at_z(k) is None:
            region = set(northeast_region(e, k))
            labels = sorted((region | set(range(1, k + 1))) - set(path) - {r})
            for ell in labels:
                tau = taus[ell]
                for v in (cyc.z, *xs):
                    path_support.expect(tau[v - 1], v, "k={} l={} v={}", k, ell, v)
            if not cyc.up and r != 1:
                # the same labels with the pool's 1..k cut to r..k
                for ell in labels:
                    if ell >= r or ell in region:
                        closing.expect(taus[ell][close_below - 1], close_below,
                                       "k={} l={}", k, ell)

        # action of sigma_k on the stage support
        sigma = sigmas[k]
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
        # split sees only the processed part (cycles up to stage k-1)
        for j_label in (r, *path):
            yv = e.cycle(j_label).y
            before = inv[k - 1][yv - 1]
            y_vertices.expect(before, y_expected(k, j_label), "k={} label={}", k, j_label)
            y_stability.expect(inv[k][yv - 1], before, "k={} label={}", k, j_label)

    # degree-2 y vertices are fixed by every cumulative permutation
    degree_2_y = _Tally("fixed-points", "degree-2-y")
    for j in range(1, n + 1):
        if e.child_at_y(j) is None:
            yv = e.cycle(j).y
            for k in range(n + 1):
                degree_2_y.expect(sigmas[k][yv - 1], yv, "y of T{}, sigma_{}", j, k)

    tallies = (path_support, closing, act_i, act_ii, act_iii, act_iv, act_v,
               y_vertices, y_stability, degree_2_y)
    return PermIdentityReport(tuple(t.result() for t in tallies))
