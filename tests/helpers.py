"""Shared test utilities: random generators and brute-force oracles."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import random
import struct
from typing import Iterator, NamedTuple

from hypothesis import strategies as st

import greenseq as gs


def random_quiver(rng: random.Random, max_n: int = 12, max_mult: int = 2) -> gs.Quiver:
    """Arbitrary loop-free, 2-cycle-free quiver with small multiplicities."""
    n = rng.randint(1, max_n)
    arrows = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            roll = rng.random()
            if roll < 0.35:
                mult = rng.randint(1, max_mult)
                if rng.random() < 0.5:
                    arrows.append((i, j, mult))
                else:
                    arrows.append((j, i, mult))
    return gs.Quiver.from_arrows(n, arrows)


MULTS = st.sampled_from([0, 0, 1, 2, 3, 2**40])


@st.composite
def wild_quivers(draw, max_n: int = 5) -> gs.Quiver:
    """Hypothesis quivers on up to ``max_n`` vertices with multiplicities of
    2 and more and with 2^40 arrows, whose entries soon pass int64."""
    n = draw(st.integers(1, max_n))
    arrows = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            m = draw(MULTS)
            if m:
                arrows.append((i, j, m) if draw(st.booleans()) else (j, i, m))
    return gs.Quiver(n, tuple(arrows))


def dense_mutate(rows, k):
    """Reference matrix mutation: the dense formula on plain Python ints."""
    k0 = k - 1
    return [
        [
            -b[j] if k0 in (i, j)
            else b[j] + (abs(b[k0]) * rows[k0][j] + b[k0] * abs(rows[k0][j])) // 2
            for j in range(len(b))
        ]
        for i, b in enumerate(rows)
    ]


def reference_parse_quiver(text: str) -> gs.Quiver:
    """The quiver text format read line by line, its counts then handed to
    the checking ``Quiver`` constructor: the oracle for ``parse_quiver``,
    which skips that second check.  Messages are the parser's, word for word.
    """
    n = None
    counts: dict[tuple[int, int], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        where = f"line {lineno}: "
        if fields[0] == "quiver":
            if n is not None:
                raise gs.QuiverParseError(where + "duplicate quiver directive")
            if len(fields) != 2:
                raise gs.QuiverParseError(where + "expected 'quiver <N>'")
            try:
                n = int(fields[1])
            except ValueError:
                raise gs.QuiverParseError(where + f"bad vertex count {fields[1]!r}") from None
            if n < 1:
                raise gs.QuiverParseError(where + "vertex count must be positive")
            if n > gs.quiver.MAX_VERTICES:
                raise gs.QuiverParseError(
                    where + f"vertex count {n} exceeds the limit {gs.quiver.MAX_VERTICES}"
                )
        elif fields[0] == "arrow":
            if n is None:
                raise gs.QuiverParseError(where + "arrow before quiver directive")
            if len(fields) not in (3, 4):
                raise gs.QuiverParseError(where + "expected 'arrow <i> <j> [<mult>]'")
            try:
                src, dst = int(fields[1]), int(fields[2])
                mult = int(fields[3]) if len(fields) == 4 else 1
            except ValueError:
                raise gs.QuiverParseError(where + "non-integer arrow field") from None
            if not (1 <= src <= n and 1 <= dst <= n):
                raise gs.QuiverParseError(where + f"arrow {src} -> {dst} out of range 1..{n}")
            if src == dst:
                raise gs.QuiverParseError(where + f"loop at vertex {src}")
            if mult < 1:
                raise gs.QuiverParseError(where + "multiplicity must be >= 1")
            counts[(src, dst)] = counts.get((src, dst), 0) + mult
        else:
            raise gs.QuiverParseError(where + f"unknown directive {fields[0]!r}")
    if n is None:
        raise gs.QuiverParseError("missing quiver directive")
    for src, dst in counts:
        if (dst, src) in counts and src < dst:
            raise gs.QuiverParseError(f"2-cycle between {src} and {dst}")
    return gs.Quiver(n, tuple((s, d, m) for (s, d), m in counts.items()))


def random_tree_quiver(rng: random.Random, max_cycles: int, relabel: bool = True):
    """Random irreducible type-A quiver (tree of oriented 3-cycles).

    Grows the tree by repeatedly attaching a fresh 3-cycle at a y or z
    vertex, then optionally shuffles vertex ids.  Returns the quiver and
    the vertex triple of the construction's first cycle (always a leaf).
    """
    arrows: list[tuple[int, int]] = []
    counter = itertools.count(1)
    x, y, z = next(counter), next(counter), next(counter)
    arrows += [(x, y), (y, z), (z, x)]
    cycles = [(x, y, z)]
    budget = rng.randint(1, max_cycles)
    frontier = [z]
    while len(cycles) < budget and frontier:
        w = frontier.pop(rng.randrange(len(frontier)))
        a, b = next(counter), next(counter)
        arrows += [(w, a), (a, b), (b, w)]
        cycles.append((w, a, b))
        for v in (a, b):
            if rng.random() < 0.75:
                frontier.append(v)
    n = next(counter) - 1
    if relabel:
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        mapping = {i + 1: perm[i] for i in range(n)}
    else:
        mapping = {v: v for v in range(1, n + 1)}
    q = gs.Quiver.from_arrows(n, [(mapping[s], mapping[d]) for s, d in arrows])
    root = tuple(sorted(mapping[v] for v in cycles[0]))
    return q, root


def canonical_form(q: gs.Quiver) -> tuple:
    """Canonical arrow tuple under exhaustive vertex relabelling (n <= 7)."""
    assert q.n <= 7, "exhaustive canonicalization is for tiny quivers only"
    best = None
    for perm in itertools.permutations(range(1, q.n + 1)):
        relabeled = tuple(sorted((perm[s - 1], perm[d - 1], m) for s, d, m in q.arrows))
        if best is None or relabeled < best:
            best = relabeled
    return (q.n, best)


def mutation_class(q: gs.Quiver, max_size: int = 2000) -> list[gs.Quiver]:
    """Closure of q under mutation, one representative per iso class."""
    seen = {canonical_form(q)}
    queue = [q]
    out = [q]
    while queue:
        cur = queue.pop()
        for k in range(1, cur.n + 1):
            nxt = gs.mutate(cur, k)
            key = canonical_form(nxt)
            if key not in seen:
                seen.add(key)
                queue.append(nxt)
                out.append(nxt)
                assert len(out) <= max_size
    return out


def consecutive_run_region(e, k: int) -> tuple[int, ...]:
    """Independent oracle for the northeast region: brute-force scan.

    For every start label on the descent path or at the base cycle and
    every consecutive label window, BFS over the vertex-sharing graph of
    the window's 3-cycles and record the endpoint when it is connected.
    """
    starts = set(gs.descent_path(e, k)) | {gs.base_cycle(e, k)}
    reachable: set[int] = set()
    for a in starts:
        for s in range(a, e.n_cycles + 1):
            labels = list(range(a, s + 1))
            triples = {lab: set(e.cycle(lab).triple) for lab in labels}
            seen = {labels[0]}
            stack = [labels[0]]
            while stack:
                cur = stack.pop()
                for other in labels:
                    if other not in seen and triples[cur] & triples[other]:
                        seen.add(other)
                        stack.append(other)
            if len(seen) == len(labels):
                reachable.add(s)
    return tuple(sorted(reachable - starts))


def iso_class_count_exhaustive(slice_) -> int:
    """Reference oracle for ``ExchangeGraphSlice.iso_class_count``: the
    least relabelling of each node over all n! relabellings of the mutable
    vertices (frozen vertices fixed), counted once per distinct minimum."""
    n = slice_.quiver.n
    keys = set()
    for node in slice_.nodes:
        rows = node.rows
        keys.add(min(
            tuple(tuple(rows[i][j] for j in p) + rows[i][n:] for i in p)
            for p in itertools.permutations(range(n))
        ))
    return len(keys)


# Reference oracles for the geometry an embedding stores: the definitions
# by walking parents, read only off labels, orientations and children.


def walked_descent_path(e, k: int) -> tuple[int, ...]:
    if e.cycle(k).up:
        return ()
    path = [k]
    while not e.cycle(e.cycle(path[-1]).parent).up:
        path.append(e.cycle(path[-1]).parent)
    return tuple(path)


def walked_base_cycle(e, k: int) -> int:
    if e.cycle(k).up:
        return k
    return e.cycle(walked_descent_path(e, k)[-1]).parent


def walked_hanging_chain(e, k: int) -> tuple[int, ...]:
    """The highest-labelled cycle with a y-child among the base cycle and
    the descent path bar T_k, then its y-child and that child's z-children."""
    if e.cycle(k).up:
        return ()
    candidates = [walked_base_cycle(e, k)] + list(walked_descent_path(e, k)[1:])
    anchor = max((j for j in candidates if e.child_at_y(j) is not None), default=None)
    if anchor is None:
        return ()
    chain = [e.child_at_y(anchor)]
    while e.child_at_z(chain[-1]) is not None:
        chain.append(e.child_at_z(chain[-1]))
    return tuple(chain)


def walked_closing_vertex(e, k: int) -> int:
    c = e.cycle(k)
    if c.up:
        return c.x
    chain = walked_hanging_chain(e, k)
    if not chain:
        return e.cycle(walked_base_cycle(e, k)).x
    return e.cycle(chain[-1]).z


def walked_pending_set(e) -> tuple[int, ...]:
    return tuple(sorted(
        c.label for c in e.cycles
        if not c.up and c.parent is not None and c.parent_role == "z"
        and e.is_branching(c.parent)
    ))


def walked_standard_order(e) -> tuple[int, ...]:
    """Vertices by first cycle: x, y, z within an upward one, x, z, y within
    a downward one."""
    out: list[int] = []
    for c in e.cycles:
        for v in (c.x, c.y, c.z) if c.up else (c.x, c.z, c.y):
            if v not in out:
                out.append(v)
    return tuple(out)


def walked_first_stage(e) -> dict[int, int]:
    """The stage that first mutates each vertex, keyed in standard order:
    x1 at stage 0, y_k and z_k at stage k, and every other x, its parent's
    y or z, at its parent's stage."""
    first: dict[int, int] = {}
    for c in e.cycles:
        for v, k in ((c.x, c.parent or 0), (c.y, c.label), (c.z, c.label)):
            first.setdefault(v, k)
    return {v: first[v] for v in walked_standard_order(e)}


# Dense oracles: the engine keeps one sparse matrix format and one stage
# fold; these dense forms and per-stage rebuilds are the references that
# the sparse values are compared against.


def b_matrix(q: gs.Quiver) -> tuple[tuple[int, ...], ...]:
    """Signed n x n exchange matrix as int rows: entry (i,j) = #(i->j) - #(j->i)."""
    rows = [[0] * q.n for _ in range(q.n)]
    for src, dst, mult in q.arrows:
        rows[src - 1][dst - 1] = mult
        rows[dst - 1][src - 1] = -mult
    return tuple(map(tuple, rows))


def extended_part(eq: gs.ExtendedQuiver) -> tuple[tuple[int, ...], ...]:
    """The frozen columns, one int row per mutable vertex."""
    return tuple(row[eq.n:] for row in eq.rows)


def permutation_matrix(sigma: gs.Permutation) -> tuple[tuple[int, ...], ...]:
    """0/1 int rows with entry (i, j) = 1 iff i maps to j."""
    return tuple(tuple(int(j == v) for j in range(1, sigma.n + 1)) for v in sigma.images)


def permute_b_matrix(mat, sigma: gs.Permutation) -> tuple[tuple[int, ...], ...]:
    """(B sigma)_{i,j} = B_{i*sigma, j*sigma} on n x n int rows."""
    idx = [v - 1 for v in sigma.images]
    return tuple(tuple(mat[i][j] for j in idx) for i in idx)


def coframe(q: gs.Quiver) -> gs.ExtendedQuiver:
    """Adjoin frozen vertices with arrows i' -> i: extended part = -identity.
    Built through the checked dense constructor."""
    b = b_matrix(q)
    return gs.ExtendedQuiver(q.n, q.n, [
        b[i] + tuple(-int(j == i) for j in range(q.n)) for i in range(q.n)
    ])


class PredictedStage(NamedTuple):
    """One stage of the kept prediction, copied out of the walk: the
    stage's mutation order, its pending cycles, the predicted framed state
    in natural vertex order and the three-way vertex split, each part in
    the standard ordering."""

    k: int
    sequence: tuple[int, ...]
    pending: tuple
    state: gs.ExtendedQuiver
    processed: tuple[int, ...]
    frontier: tuple[int, ...]
    rest: tuple[int, ...]


def predicted_stages(e) -> list[PredictedStage]:
    """Every stage k = 0..n of ``matrixmodel._kept_prediction``, read from
    one pass of the walk; each stage's rows are copied through the checked
    dense constructor, and the split is read from ``walked_first_stage``
    and the stage's pending labels."""
    n = e.quiver.n
    owner = walked_first_stage(e)
    std = tuple(owner)  # keyed in the standard ordering
    out = []
    for k, seq, pending, rows in gs.matrixmodel._kept_prediction(e):
        dense = [[row.get(j, 0) for j in range(2 * n)] for row in rows]
        frontier_cycles = frontier_labels(e, k, pending)
        out.append(PredictedStage(
            k, seq, pending, gs.ExtendedQuiver(n, n, dense),
            tuple(v for v in std if owner[v] <= k),
            tuple(v for v in std if owner[v] in frontier_cycles),
            tuple(v for v in std if owner[v] > k and owner[v] not in frontier_cycles),
        ))
    return out


def walk_pending(e) -> list[tuple]:
    """The pending cycles of every stage k = 0..n, read from one pass of
    ``matrixmodel._kept_prediction``."""
    return [pending for _, _, pending, _ in gs.matrixmodel._kept_prediction(e)]


def frontier_labels(e, k: int, pending) -> set[int]:
    """Labels of the stage-k frontier cycles: the pending ones and T_{k+1}."""
    labels = {pc.label for pc in pending}
    if k < e.n_cycles:
        labels.add(k + 1)
    return labels


def block_matrix(stage: PredictedStage) -> tuple[tuple[int, ...], ...]:
    """The predicted dense matrix with rows and columns reordered to the
    processed/frontier/rest split in the standard ordering."""
    rows = stage.state.rows
    order = [v - 1 for v in stage.processed + stage.frontier + stage.rest]
    cols = order + [len(rows) + i for i in order]
    return tuple(tuple(rows[i][j] for j in cols) for i in order)


def reference_pending_cycles(e, k: int) -> tuple:
    """Pending cycles at stage k by a scan of every pending label: anchor
    processed, own y and z not.  The reference for the pending cycles the
    walk works out as their anchors are processed."""
    entries = []
    for m in walked_pending_set(e):
        anchor = e.cycle(m).parent
        if not anchor <= k < m:
            continue
        chain = gs.hanging_chain(e, m)
        if not chain or chain[0] != anchor + 1:
            raise gs.EmbeddingError(f"pending T{m} has no chain starting at T{anchor + 1}")
        progress = max((s for s in chain if s <= k), default=None)
        entries.append(gs.matrixmodel.PendingCycle(m, anchor, chain, progress))
    return tuple(entries)


def from_cycle(n: int, cycle) -> gs.Permutation:
    """Permutation of 1..n mapping cycle[t] to cycle[t+1] (cyclically); a
    vertex named twice takes its last image.  The reference relabelling
    for the package's stage fold, written apart from it."""
    images = list(range(1, n + 1))
    for t, v in enumerate(cycle):
        images[v - 1] = cycle[(t + 1) % len(cycle)]
    return gs.Permutation(tuple(images))


class Stage(NamedTuple):
    """One stage's facts: its mutation order, tau_k, sigma_k and sigma_k^-1."""

    sequence: tuple[int, ...]
    tau: gs.Permutation
    sigma: gs.Permutation
    sigma_inv: gs.Permutation


def stage_table(e) -> tuple[Stage, ...]:
    """Every stage k = 0..n with tau_k, sigma_k and sigma_k^-1 as whole
    permutations: tau_k cycles stage k's mutation order with the first step
    dropped, and sigma_k applies tau_k, then sigma_{k-1}."""
    n = e.quiver.n
    sigma = gs.Permutation.identity(n)
    stages = []
    for k in range(e.n_cycles + 1):
        seq = gs.stage_parts(e, k).sequence()
        tau = from_cycle(n, seq[1:])
        sigma = tau.then(sigma)
        stages.append(Stage(seq, tau, sigma, sigma.inverse()))
    return tuple(stages)


def stage_permutation(e, k: int) -> gs.Permutation:
    """sigma_k: apply tau_k, then tau_{k-1}, ..., then tau_1."""
    return stage_table(e)[k].sigma


def stage_rows(e, k: int, stage: Stage | None = None) -> list[dict[int, int]]:
    """Stage k's predicted sparse rows built whole from sigma_k, its
    inverse and the stage's pending cycles found by the reference scan:
    the reference for the prediction that the package keeps from stage to
    stage."""
    mm = gs.matrixmodel
    if stage is None:
        stage = stage_table(e)[k]
    pending = reference_pending_cycles(e, k)
    n = e.quiver.n
    image, preimage = stage.sigma.images, stage.sigma_inv.images
    owner = walked_first_stage(e)
    frontier_cycles = frontier_labels(e, k, pending)
    rows: list[dict[int, int]] = [{} for _ in range(n)]
    for s, d, m in e.quiver.arrows:
        first_s, first_d = owner[s], owner[d]
        if first_s <= k and first_d <= k:
            i, j = preimage[s - 1], preimage[d - 1]
        elif first_s > k and first_d > k and not first_s == first_d in frontier_cycles:
            i, j = s, d
        else:
            continue
        rows[i - 1][j - 1] = m
        rows[j - 1][i - 1] = -m
    for i, j, val in mm._frontier_entries(e, k, pending):
        rows[i - 1][j - 1] = val
        rows[j - 1][i - 1] = -val
    for v, first in owner.items():
        if first <= k:
            rows[v - 1][n + image[v - 1] - 1] = -1
        else:
            rows[v - 1][n + v - 1] = 1
    for i in frontier_cycles:
        z = e.cycle(i).z
        if owner[z] == i:
            row = rows[z - 1]
            for u in mm._z_c_support(e, i):
                row[n + u - 1] = row.get(n + u - 1, 0) + 1
    return rows


def reference_verify_model(e) -> gs.ModelReport:
    """``verify_model`` from whole permutations: each stage's prediction
    built in full by ``stage_rows`` and compared with the framed quiver
    mutated through the public ``apply_sequence``."""
    n = e.quiver.n
    state = gs.frame(e.quiver)
    checks = []
    for k, stage in enumerate(stage_table(e)):
        state = gs.apply_sequence(state, stage.sequence)
        predicted, actual = stage_rows(e, k, stage), list(state.sparse_rows)
        diff = None
        for r, (p_row, row) in enumerate(zip(predicted, actual)):
            cols = sorted(j for j in p_row.keys() | row.keys() if p_row.get(j, 0) != row.get(j, 0))
            if cols:
                c = cols[0]
                col_name = str(c + 1) if c < n else f"{c - n + 1}'"
                diff = (str(r + 1), col_name, p_row.get(c, 0), row.get(c, 0))
                break
        checks.append(gs.matrixmodel.StageCheck(k, diff is None, diff))
    return gs.ModelReport(tuple(checks))


def reference_identities(e) -> gs.PermIdentityReport:
    """``check_permutation_identities`` read off the table of whole
    permutations, every pair of every clause checked one by one."""
    pm = gs.permmodel
    n = e.n_cycles
    stages = stage_table(e)
    taus = [s.tau.images for s in stages]
    sigmas = [s.sigma.images for s in stages]
    inv = [s.sigma_inv.images for s in stages]
    x1 = e.cycle(1).x

    def y_expected(k: int, j_label: int) -> int:
        child = e.child_at_y(j_label)
        if child is None or child > k - 1:
            return e.cycle(j_label).y
        end = pm._chain_end_below(e, child, k - 1)
        if end != child:
            return e.cycle(end).x
        return gs.closing_vertex(e, j_label)

    tallies = [pm._Tally(family, clause) for family, clause in (
        ("fixed-points", "path-support"), ("fixed-points", "closing-vertex"),
        ("stage-action", "i"), ("stage-action", "ii"), ("stage-action", "iii"),
        ("stage-action", "iv"), ("stage-action", "v"), ("inverse-action", "y-vertices"),
        ("inverse-action", "y-stability"), ("fixed-points", "degree-2-y"),
    )]
    path_support, closing, act_i, act_ii, act_iii, act_iv, act_v = tallies[:7]
    y_vertices, y_stability, degree_2_y = tallies[7:]
    for k in range(1, n + 1):
        cyc = e.cycle(k)
        r = gs.base_cycle(e, k)
        path = gs.descent_path(e, k)
        xs = [e.cycle(j).x for j in path]
        close_k = gs.closing_vertex(e, k)
        close_below = gs.closing_vertex(e, r - 1) if r != 1 else None
        if e.child_at_z(k) is None:
            region = set(gs.northeast_region(e, k))
            labels = sorted((region | set(range(1, k + 1))) - set(path) - {r})
            for ell in labels:
                for v in (cyc.z, *xs):
                    path_support.expect(taus[ell][v - 1], v, "k={} l={} v={}", k, ell, v)
            if not cyc.up and r != 1:
                for ell in labels:
                    if ell >= r or ell in region:
                        closing.expect(taus[ell][close_below - 1], close_below,
                                       "k={} l={}", k, ell)
        sigma = sigmas[k]
        if r == 1:
            act_i.expect(sigma[cyc.z - 1], x1, "k={} z", k)
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
            pairs = [(j, xs[j - 1], xs[d - j]) for j in range(1, (d + 1) // 2 + 1)]
        else:
            pairs = [(j, xs[j - 1], xs[d + 1 - j]) for j in range(2, (d + 2) // 2 + 1)]
        for j, a, b in pairs:
            act_v.expect(sigma[a - 1], b, "k={} j={}", k, j)
            act_v.expect(sigma[b - 1], a, "k={} j={} rev", k, j)
        for j_label in (r, *path):
            yv = e.cycle(j_label).y
            before = inv[k - 1][yv - 1]
            y_vertices.expect(before, y_expected(k, j_label), "k={} label={}", k, j_label)
            y_stability.expect(inv[k][yv - 1], before, "k={} label={}", k, j_label)
    for j in range(1, n + 1):
        if e.child_at_y(j) is None:
            yv = e.cycle(j).y
            for k in range(n + 1):
                degree_2_y.expect(sigmas[k][yv - 1], yv, "y of T{}, sigma_{}", j, k)
    return gs.PermIdentityReport(tuple(t.result() for t in tallies))


def with_cycle(e, label: int, **fields) -> gs.EmbeddedQuiver:
    """``e`` built again by hand with the named fields of cycle ``label``
    replaced."""
    return gs.EmbeddedQuiver(e.quiver, [
        dataclasses.replace(c, **fields) if c.label == label else c for c in e.cycles
    ])


def one_swaps(e):
    """Every mis-embedding made from ``e`` by swapping one cycle's y and z."""
    for c in e.cycles:
        swapped = gs.EmbeddedCycle(c.label, c.up, c.x, c.z, c.y, c.parent, c.parent_role)
        yield gs.EmbeddedQuiver(e.quiver, [swapped if d is c else d for d in e.cycles])


def stage_rotation(e, k: int) -> gs.Permutation:
    """tau_k rebuilt for one stage: the cycle on stage k's mutation order
    with the first step dropped (the identity for stage 0, the single
    mutation at x1)."""
    return from_cycle(e.quiver.n, gs.stage_parts(e, k).sequence()[1:])


def format_extended_dense(eq: gs.ExtendedQuiver) -> str:
    """``format_extended`` written over the dense ``rows`` view."""
    lines = [f"extb {eq.n} {eq.m}"]
    for row in eq.rows:
        lines.append("\t".join(map(str, row)))
    return "\n".join(lines) + "\n"


def dense_matrix_hash(eq: gs.ExtendedQuiver) -> str:
    """``matrix_hash`` over the dense ``rows`` view: the whole int64 payload
    packed at once, or the ``big`` text form when an entry does not fit."""
    flat = [v for row in eq.rows for v in row]
    try:
        body = struct.pack(f"{len(flat)}q", *flat)
    except struct.error:
        body = b"big\n" + format_extended_dense(eq).encode()
    return hashlib.sha256(f"extb {eq.n} {eq.m}\n".encode() + body).hexdigest()[:16]


def mutual_reachability_classes(adj: dict[int, list[int]]) -> list[list[int]]:
    """Strongly connected components by definition: v and w share one
    exactly when each reaches the other.  Sorted, each sorted."""
    reach = {}
    for v in adj:
        seen = {v}
        stack = [v]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        reach[v] = seen
    classes = {tuple(w for w in sorted(adj) if w in reach[v] and v in reach[w]) for v in adj}
    return sorted(map(list, classes))


def color_counts(dec: gs.Decomposition) -> tuple[int, ...]:
    """Colours per summand: the distinct colours of the cross arrows whose
    source lies in it, read from ``dec.colors``."""
    position = {v: p for p, verts in enumerate(dec.summands) for v in verts}
    colors: list[set[int]] = [set() for _ in dec.summands]
    for (src, _, _), color in zip(dec.cross_arrows, dec.colors):
        colors[position[src]].add(color)
    return tuple(map(len, colors))


def smallest_source_order(q: gs.Quiver) -> tuple[int, ...]:
    """Source order by definition: mutate the smallest source among the
    vertices not yet mutated, until none is left or none is a source."""
    left = set(range(1, q.n + 1))
    order = []
    while True:
        sources = [v for v in left if not any(s in left and d == v for s, d, _ in q.arrows)]
        if not sources:
            return tuple(order)
        order.append(min(sources))
        left.remove(order[-1])


def reference_green_search(q: gs.Quiver, max_len: int | None) -> Iterator[tuple[int, ...]]:
    """Maximal green sequences of ``q`` in lexicographic order, by a
    depth-first search that mutates a fresh state for every path and reads
    all colours of each: the oracle for the search over the green-state
    store, which mutates each state once per green vertex."""
    found: list[tuple[int, ...]] = []
    root = gs.frame(q)
    stack: list[list] = [[root, gs.green_vertices(root), 0]]
    prefix: list[int] = []
    while stack:
        top = stack[-1]
        eq, greens, idx = top
        if not greens:
            found.append(tuple(prefix))
            yield found[-1]
        if not greens or idx >= len(greens):
            stack.pop()
            if prefix:
                prefix.pop()
            continue
        if max_len is not None and len(prefix) >= max_len:
            raise gs.DepthGuardExceeded(max_len, tuple(found))
        top[2] += 1
        k = greens[idx]
        prefix.append(k)
        nxt = gs.matrix_mutate(eq, k)
        stack.append([nxt, gs.green_vertices(nxt), 0])


def reference_exchange_graph(q: gs.Quiver, max_nodes: int = 10000) -> gs.ExchangeGraphSlice:
    """Breadth-first closure of green moves, deduplicated by hashing whole
    ``ExtendedQuiver`` states and reading all colours of each new one: the
    oracle for ``exchange_graph``."""
    start = gs.frame(q)
    nodes: list[gs.ExtendedQuiver] = [start]
    index: dict[gs.ExtendedQuiver, int] = {start: 0}
    edges: list[tuple[int, int, int]] = []
    sinks: list[int] = []
    for i, eq in enumerate(nodes):
        greens = gs.green_vertices(eq)
        if not greens:
            sinks.append(i)
            continue
        for k in greens:
            nxt = gs.matrix_mutate(eq, k)
            j = index.get(nxt)
            if j is None:
                if len(nodes) >= max_nodes:
                    raise gs.NodeBoundExceeded(f"more than {max_nodes} nodes reachable")
                j = len(nodes)
                nodes.append(nxt)
                index[nxt] = j
            edges.append((i, k, j))
    return gs.ExchangeGraphSlice(q, tuple(nodes), tuple(edges), 0, tuple(sorted(sinks)))
