"""Predicted permutations of the staged green sequence.

Each stage k >= 1 contributes the cyclic relabelling tau_k = (i_2 ... i_d)
built from its mutation order (y_k, i_2, ..., i_d) with the first step
dropped.  The cumulative permutation after stage k applies tau_k first,
then tau_{k-1}, and so on down to tau_1; after the last stage it equals
the permutation induced by the whole sequence, which is checked against
ground truth in the test suite.

``check_permutation_identities`` numerically evaluates the fixed-point and
action identities these permutations satisfy on a concrete embedding and
reports any violation with a witness.
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
    northeast_region,
)
from .quiver import Permutation


def stage_rotation(e: EmbeddedQuiver, k: int) -> Permutation:
    """tau_k: the cycle on stage k's mutation order with the first step dropped."""
    n = e.quiver.n
    if k == 0:
        return Permutation.identity(n)
    seq = stage_parts(e, k).sequence()
    return Permutation.from_cycle(n, seq[1:])


def rotation_table(e: EmbeddedQuiver) -> tuple[tuple[Permutation, Permutation], ...]:
    """(tau_k, sigma_k) for k = 0..n, in one fold: sigma_k applies tau_k,
    then sigma_{k-1}."""
    sigma = Permutation.identity(e.quiver.n)
    table = []
    for k in range(e.n_cycles + 1):
        tau = stage_rotation(e, k)
        sigma = tau.then(sigma)
        table.append((tau, sigma))
    return tuple(table)


def stage_permutation(e: EmbeddedQuiver, k: int) -> Permutation:
    """sigma_k: apply tau_k, then tau_{k-1}, ..., then tau_1."""
    if not 0 <= k <= e.n_cycles:
        raise EmbeddingError(f"stage {k} out of range 0..{e.n_cycles}")
    return rotation_table(e)[k][1]


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


def check_permutation_identities(e: EmbeddedQuiver) -> PermIdentityReport:
    """Evaluate the permutation identities clause by clause on ``e``.

    Pairs whose preconditions fail are skipped (counted as not applicable),
    never as passes.
    """
    n = e.n_cycles
    table = rotation_table(e)
    taus = [t for t, _ in table]
    sigmas = [s for _, s in table]
    inv = [s.inverse() for s in sigmas]
    results: list[ClauseResult] = []

    def run(family: str, clause: str, items) -> None:
        checked = 0
        violations = []
        for desc, got, want in items:
            checked += 1
            if got != want:
                violations.append(f"{desc}: got {got}, expected {want}")
        results.append(ClauseResult(family, clause, checked, tuple(violations)))

    def allowed_labels(k: int) -> tuple[int, ...]:
        path = set(descent_path(e, k))
        r = base_cycle(e, k)
        pool = set(northeast_region(e, k)) | set(range(1, k + 1))
        return tuple(sorted(pool - path - {r}))

    # fixed points of tau_l northeast of a descent path (z_k and the path's
    # x vertices; y_k itself can be moved by an upper child's stage)
    items = []
    for k in range(1, n + 1):
        if e.child_at_z(k) is not None:
            continue
        cyc = e.cycle(k)
        support = [cyc.z] + [e.cycle(j).x for j in descent_path(e, k)]
        for ell in allowed_labels(k):
            for v in support:
                items.append((f"k={k} l={ell} v={v}", taus[ell].apply(v), v))
    run("fixed-points", "path-support", items)

    items = []
    for k in range(1, n + 1):
        if e.child_at_z(k) is not None or e.cycle(k).up:
            continue
        r = base_cycle(e, k)
        if r == 1:
            continue
        path = set(descent_path(e, k))
        pool = set(northeast_region(e, k)) | set(range(r, k + 1))
        v = closing_vertex(e, r - 1)
        for ell in sorted(pool - path - {r}):
            items.append((f"k={k} l={ell}", taus[ell].apply(v), v))
    run("fixed-points", "closing-vertex", items)

    # action of sigma_k on the stage support
    i_items, ii_items, iii_items, iv_items, v_items = [], [], [], [], []
    for k in range(1, n + 1):
        cyc = e.cycle(k)
        r = base_cycle(e, k)
        path = descent_path(e, k)
        d = len(path)
        if r == 1:
            i_items.append((f"k={k} z", sigmas[k].apply(cyc.z), e.cycle(1).x))
            # the converse direction presupposes the stage closes at x1
            if closing_vertex(e, k) == e.cycle(1).x:
                i_items.append((f"k={k} x1", sigmas[k].apply(e.cycle(1).x), cyc.z))
        else:
            i_items.append((f"k={k}", sigmas[k].apply(cyc.z), e.cycle(r - 1).z))
            iii_items.append((f"k={k}", sigmas[k].apply(closing_vertex(e, r - 1)), cyc.x))
            if not cyc.up:
                ii_items.append((f"k={k}", sigmas[k].apply(cyc.x), e.cycle(r).x))
        iv_items.append((f"k={k}", sigmas[k].apply(closing_vertex(e, k)), cyc.z))
        if not cyc.up:
            xs = [e.cycle(j).x for j in path]
            if r == 1:
                for j in range(1, (d + 1) // 2 + 1):
                    a, b = xs[j - 1], xs[d - j]
                    v_items.append((f"k={k} j={j}", sigmas[k].apply(a), b))
                    v_items.append((f"k={k} j={j} rev", sigmas[k].apply(b), a))
            else:
                for j in range(2, (d + 2) // 2 + 1):
                    a, b = xs[j - 1], xs[d + 1 - j]
                    v_items.append((f"k={k} j={j}", sigmas[k].apply(a), b))
                    v_items.append((f"k={k} j={j} rev", sigmas[k].apply(b), a))
    run("stage-action", "i", i_items)
    run("stage-action", "ii", ii_items)
    run("stage-action", "iii", iii_items)
    run("stage-action", "iv", iv_items)
    run("stage-action", "v", v_items)

    # inverse action on the y vertices along a descent path; the case split
    # sees only the processed part (cycles up to stage k-1)
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

    inv_items = []
    for k in range(1, n + 1):
        if e.cycle(k).up:
            continue
        labels = [base_cycle(e, k)] + list(descent_path(e, k))
        for j_label in labels:
            yv = e.cycle(j_label).y
            inv_items.append(
                (f"k={k} label={j_label}", inv[k - 1].apply(yv), y_expected(k, j_label))
            )
    run("inverse-action", "y-vertices", inv_items)

    stab_items = []
    for k in range(1, n + 1):
        if e.cycle(k).up:
            continue
        labels = [base_cycle(e, k)] + list(descent_path(e, k))
        for j_label in labels:
            yv = e.cycle(j_label).y
            stab_items.append(
                (f"k={k} label={j_label}", inv[k].apply(yv), inv[k - 1].apply(yv))
            )
    run("inverse-action", "y-stability", stab_items)

    # degree-2 y vertices are fixed by every cumulative permutation
    fix_items = []
    for j in range(1, n + 1):
        if e.child_at_y(j) is None:
            yv = e.cycle(j).y
            for k in range(n + 1):
                fix_items.append((f"y of T{j}, sigma_{k}", sigmas[k].apply(yv), yv))
    run("fixed-points", "degree-2-y", fix_items)

    return PermIdentityReport(tuple(results))
