"""Shared test utilities: random generators and brute-force oracles."""

from __future__ import annotations

import itertools
import random

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
