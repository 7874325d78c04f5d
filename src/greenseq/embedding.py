"""Canonical planar embedding of an irreducible tree of 3-cycles.

Fixing a root leaf 3-cycle determines everything: 3-cycles get standard
labels T1..Tn in depth-first construction order (a cycle's child hanging at
its y vertex is built, with its whole subtree, before the child at its z
vertex), each cycle is upward- or downward-pointing (attached at the
parent's y resp. z), and each carries the role triple x/y/z with arrows
x -> y -> z -> x, the x being the vertex shared with the parent.

T1 is upward; its sole neighbor hangs at z1 and is downward.  Within an
upward cycle the standard vertex order is x < y < z, within a downward one
x < z < y; vertices are ordered first by the label of the first cycle
containing them.

The outlet list tracks where further cycles may legally attach while
replaying the construction: attaching downward at an outlet other than the
last cycle's free pair starts a new branch and removes every outlet
northeast of it.

Stage k is defined by the embedding alone, so its parts (``stage_parts``),
its mutation order and tau_k (``_stage_fold``) and sigma_k
(``_sigma_stream``) are worked out here, for the stage models to read.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .quiver import Quiver, QuiverError, _exact_ints, _index
from .typea import cycle_tree, leaf_cycles


class EmbeddingError(QuiverError):
    pass


@dataclass(frozen=True)
class EmbeddedCycle:
    label: int
    up: bool
    x: int
    y: int
    z: int
    parent: int | None
    parent_role: str | None  # 'y' or 'z': which vertex of the parent we share

    @property
    def triple(self) -> tuple[int, int, int]:
        return tuple(sorted((self.x, self.y, self.z)))


@dataclass(frozen=True)
class Branch:
    labels: tuple[int, ...]
    terminal: str  # 'leaf' or 'branching'


class EmbeddedQuiver:
    """Embedded irreducible type-A quiver: labelled, oriented 3-cycles.

    Construction keeps the cycles by label and each cycle's y- and
    z-children, and works out no stage fact: the pending set and the stage
    that first mutates each vertex belong to the stage-matrix walk
    (``matrixmodel``), which derives them once per walk.  Each cycle's base
    cycle, descent path, hanging chain and closing vertex come from one
    climb of its parents, kept by the first call that asks for one of
    them, and the stage fold by its first use, so ``embed`` alone pays for
    neither; the outlet list is kept by the first ``validate_embedding``
    that accepts the embedding.
    """

    def __init__(self, quiver: Quiver, cycles: Sequence[EmbeddedCycle]):
        self.quiver = quiver
        self.cycles = tuple(cycles)
        self._by_label = {c.label: c for c in self.cycles}
        self._child_y: dict[int, int | None] = {c.label: None for c in self.cycles}
        self._child_z: dict[int, int | None] = {c.label: None for c in self.cycles}
        for c in self.cycles:
            if c.parent is not None:
                if c.parent_role == "y":
                    self._child_y[c.parent] = c.label
                else:
                    self._child_z[c.parent] = c.label
            elif not c.up:
                raise EmbeddingError(f"downward T{c.label} has no parent")
        self._geometry: dict[int, tuple[int, tuple[int, ...], tuple[int, ...], int]] = {}
        self._stage_fold = None
        self._outlets: tuple[int, ...] | None = None

    @property
    def n_cycles(self) -> int:
        return len(self.cycles)

    def cycle(self, k: int) -> EmbeddedCycle:
        """The cycle labelled T_k: the one checked read of a label, which the
        child lookups share.  It takes an int, in one class test and one
        dict read, or a value ``operator.index`` takes; anything else, and a
        label with no cycle, is refused."""
        try:
            return self._by_label[k if k.__class__ is int else operator.index(k)]
        except (KeyError, TypeError):  # TypeError: k is no index
            raise EmbeddingError(f"no cycle labelled T{k}") from None

    def child_at_y(self, k: int) -> int | None:
        return self._child_y[self.cycle(k).label]

    def child_at_z(self, k: int) -> int | None:
        return self._child_z[self.cycle(k).label]

    def is_branching(self, k: int) -> bool:
        c = self.cycle(k)
        return (
            c.parent is not None
            and self._child_y[c.label] is not None
            and self._child_z[c.label] is not None
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EmbeddedQuiver):
            return NotImplemented
        return self.quiver == other.quiver and self.cycles == other.cycles


# ---------------------------------------------------------------------------
# Construction


def _rotated_to(oriented: tuple[int, int, int], v: int) -> tuple[int, int, int]:
    """The 3-cycle along its arrows, starting at its vertex v: (x, y, z)
    when v is x, (z, x, y) when v is z."""
    a, b, c = oriented
    return oriented if v == a else (b, c, a) if v == b else (c, a, b)


def embed(q: Quiver, root: Iterable[int] | None = None) -> EmbeddedQuiver:
    """Embed an irreducible type-A quiver with respect to a root leaf 3-cycle.

    The result is the unique standard labelling; ``root`` defaults to the
    leaf 3-cycle with the smallest vertex id.
    """
    tree = cycle_tree(q)
    leaves = leaf_cycles(tree)
    if root is None:
        root_tri = leaves[0]
    else:
        root_tri = tuple(sorted(_exact_ints(root, "root vertex")))
        if len(root_tri) != 3:
            raise EmbeddingError(f"root must be a vertex triple, got {root_tri}")
    if root_tri not in leaves:
        raise EmbeddingError(f"root {root_tri} is not a leaf 3-cycle")
    root_idx = tree.nodes.index(root_tri)

    # z1 is the vertex the root shares with its one neighbour; a lone
    # 3-cycle takes the one before its smallest vertex, which becomes x1
    neighbors = tree.adjacency[root_idx]
    shared = neighbors[0][1] if neighbors else tree.oriented[root_idx][2]
    _, x1, y1 = _rotated_to(tree.oriented[root_idx], shared)
    cycles: list[EmbeddedCycle] = [EmbeddedCycle(1, True, x1, y1, shared, None, None)]

    # depth-first on an explicit stack, since a chain of 3-cycles may be
    # longer than the recursion limit; a cycle is labelled when it is popped
    stack = [(idx, v, 1, "z") for idx, v in neighbors]
    while stack:
        tri_idx, attach_vertex, parent_label, parent_role = stack.pop()
        label = len(cycles) + 1
        _, y, z = _rotated_to(tree.oriented[tri_idx], attach_vertex)
        cycles.append(
            EmbeddedCycle(label, parent_role == "y", attach_vertex, y, z, parent_label, parent_role)
        )
        # no third 3-cycle meets the entry vertex: it would have 6 neighbours (condition ii)
        children = {v: other_idx for other_idx, v in tree.adjacency[tri_idx]}
        # y-side subtree first (pushed last): building it keeps the z outlet
        # alive, while the reverse order would kill the y attachment point.
        for role, vertex in (("z", z), ("y", y)):
            if vertex in children:
                stack.append((children[vertex], vertex, label, role))
    e = EmbeddedQuiver(q, cycles)
    validate_embedding(e)
    return e


def validate_embedding(e: EmbeddedQuiver) -> tuple[int, ...]:
    """Replay the construction, checking every attachment hits a live outlet.

    This is the northeast-kill legality check: once a new branch is created
    at an outlet, everything northeast of it is gone, so any labelling that
    attaches there later fails the membership test below.  Returns the
    final outlet list, northeast to southwest.  The first replay that
    passes keeps the list on ``e``, and later calls return it.
    """
    if e._outlets is not None:
        return e._outlets
    q = e.quiver
    for c in e.cycles:
        if not (q.multiplicity(c.x, c.y) and q.multiplicity(c.y, c.z) and q.multiplicity(c.z, c.x)):
            raise EmbeddingError(f"T{c.label} roles do not follow the arrows")
    first = e.cycle(1)
    if not first.up or first.parent is not None:
        raise EmbeddingError("T1 must be upward-pointing and unattached")
    outlets = [first.z, first.y]
    for k in range(2, e.n_cycles + 1):
        c = e.cycle(k)
        if c.parent is None or c.parent >= k:
            raise EmbeddingError(f"T{k} must attach to an earlier cycle")
        parent = e.cycle(c.parent)
        attach = parent.y if c.parent_role == "y" else parent.z
        if attach != c.x:
            raise EmbeddingError(f"T{k} does not share its x vertex with the parent")
        if c.up != (c.parent_role == "y"):
            raise EmbeddingError(f"T{k} orientation disagrees with its attachment side")
        if k == 2 and (c.parent != 1 or c.parent_role != "z"):
            raise EmbeddingError("T2 must be downward-pointing at z of T1")
        if attach not in outlets:
            raise EmbeddingError(f"T{k} attaches at {attach}, which is not an outlet")
        j = outlets.index(attach)
        if c.up:
            if c.parent != k - 1:
                raise EmbeddingError(f"upward T{k} must continue the previous cycle")
            prev = e.cycle(k - 1)
            outlets = [c.z, c.y, prev.z] + outlets[2:]
        else:
            outlets = [c.y, c.z] + outlets[max(j + 1, 2):]
    # racing threads replay to equal lists, so either may be kept
    e._outlets = tuple(outlets)
    return e._outlets


def branches(e: EmbeddedQuiver) -> tuple[Branch, ...]:
    """Partition of the cycle labels into branches, in standard order.

    A branch is a maximal run of consecutive labels; a new one starts when
    the parent is a branching cycle.  Only the last cycle of a branch may be
    branching.
    """
    if not e.cycles:
        return ()
    starts = [1]
    for k in range(2, e.n_cycles + 1):
        c = e.cycle(k)
        if c.parent != k - 1 or e.is_branching(c.parent):
            starts.append(k)
    starts.append(e.n_cycles + 1)
    out = []
    for lo, hi in zip(starts, starts[1:]):
        labels = tuple(range(lo, hi))
        terminal = "branching" if e.is_branching(labels[-1]) else "leaf"
        out.append(Branch(labels, terminal))
    return tuple(out)


# ---------------------------------------------------------------------------
# Descent paths, hanging chains, closing vertices


def _geometry(e: EmbeddedQuiver, k: int) -> tuple[int, tuple[int, ...], tuple[int, ...], int]:
    """T_k's base cycle, descent path, hanging chain and closing vertex,
    worked out together on first use and kept on ``e``.  A climb that
    meets more downward cycles than ``e`` has is on a parent loop, and
    is refused."""
    c = e.cycle(k)
    geo = e._geometry.get(c.label)
    if geo is None:
        if c.up:
            geo = (c.label, (), (), c.x)
        else:
            path = [c.label]
            base = c.parent
            while not e.cycle(base).up:
                if len(path) == e.n_cycles:
                    raise EmbeddingError(f"the parents of T{c.label} form a loop")
                path.append(base)
                base = e.cycle(base).parent
            # the chain hangs from the highest label with a y-child among
            # the base cycle and the path bar T_k
            chain = []
            candidates = (base, *path[1:])
            anchor = max((j for j in candidates if e.child_at_y(j) is not None), default=None)
            if anchor is not None:
                chain.append(e.child_at_y(anchor))
                while (nxt := e.child_at_z(chain[-1])) is not None:
                    chain.append(nxt)
            closing = e.cycle(chain[-1]).z if chain else e.cycle(base).x
            geo = (base, tuple(path), tuple(chain), closing)
        # racing threads work out equal values, so either may be kept
        e._geometry[c.label] = geo
    return geo


def descent_path(e: EmbeddedQuiver, k: int) -> tuple[int, ...]:
    """Labels of the chain of downward cycles from T_k to its base cycle.

    Empty when T_k is upward; otherwise starts at k and walks parents while
    they are downward-pointing.
    """
    return _geometry(e, k)[1]


def base_cycle(e: EmbeddedQuiver, k: int) -> int:
    """The nearest upward-pointing cycle at or below T_k along parents."""
    return _geometry(e, k)[0]


def hanging_chain(e: EmbeddedQuiver, k: int) -> tuple[int, ...]:
    """The chain of cycles hanging over T_k's descent path (its twig).

    Looks for the highest-labelled cycle on the path (the base cycle or any
    interior one, never T_k itself) whose y vertex has a cycle attached,
    takes that y-child, and follows z-children as far as they go.  Empty for
    upward T_k and when no such y vertex exists.
    """
    return _geometry(e, k)[2]


def closing_vertex(e: EmbeddedQuiver, k: int) -> int:
    """The vertex mutated last in stage k.

    x_k for an upward cycle; for a downward cycle, x of the base cycle when
    nothing hangs over the path, else z of the last chain cycle.
    """
    return _geometry(e, k)[3]


def northeast_region(e: EmbeddedQuiver, k: int) -> tuple[int, ...]:
    """Labels reachable by consecutive-label connected runs from T_k's
    descent path or base cycle, excluding those starting points themselves.

    A run T_a..T_s counts when its cycles form a connected piece of the
    sharing tree, i.e. every cycle after T_a hangs on an earlier run member.
    The permutation identities consult this only for stages whose z vertex
    has degree 2, but the scan itself is total.
    """
    starts = set(descent_path(e, k)) | {base_cycle(e, k)}
    reach: set[int] = set()
    n, cycle = e.n_cycles, e.cycle
    for a in starts:
        s = a
        while s < n and cycle(s + 1).parent >= a:
            s += 1
        reach.update(range(a, s + 1))
    return tuple(sorted(reach - starts))


def embedding_report(e: EmbeddedQuiver) -> str:
    """Per-cycle role lines, then the outlet list, then the branches.

    The outlet list is the one ``validate_embedding`` kept when ``embed``
    built ``e``; an embedding built by hand is replayed here, and refused
    if it is illegal.
    """
    lines = []
    for c in e.cycles:
        orient = "up" if c.up else "down"
        parent = "-" if c.parent is None else f"T{c.parent}@{c.parent_role}"
        lines.append(f"T{c.label} {orient} x={c.x} y={c.y} z={c.z} parent={parent}")
    lines.append("outlets: " + " ".join(str(v) for v in validate_embedding(e)))
    for i, br in enumerate(branches(e), start=1):
        lo, hi = br.labels[0], br.labels[-1]
        span = f"T{lo}" if lo == hi else f"T{lo}..T{hi}"
        lines.append(f"branch S({i}): {span}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Stages


@dataclass(frozen=True)
class StageParts:
    """The four sub-sequences of one stage, each in application order."""

    k: int
    d: tuple[int, ...]
    c: tuple[int, ...]
    b: tuple[int, ...]
    a: tuple[int, ...]

    def sequence(self) -> tuple[int, ...]:
        return self.d + self.c + self.b + self.a


def stage_parts(e: EmbeddedQuiver, k: int) -> StageParts:
    """Parts of stage k; stage 0 is the single mutation at x1."""
    k = _index(k, "stage")
    if not 0 <= k <= e.n_cycles:
        raise EmbeddingError(f"stage {k} out of range 0..{e.n_cycles}")
    if k == 0:
        return StageParts(0, (), (), (), (e.cycle(1).x,))
    cyc = e.cycle(k)
    d = (cyc.y, cyc.z)
    c = tuple(e.cycle(j).x for j in descent_path(e, k))
    r = base_cycle(e, k)
    b = () if r == 1 else (closing_vertex(e, r - 1),)
    a = (closing_vertex(e, k),)
    return StageParts(k, d, c, b, a)


def _stage_fold(e: EmbeddedQuiver) -> tuple[tuple[tuple[int, ...], dict[int, int]], ...]:
    """(mutation order, tau_k) for every stage k = 0..n, worked out on first
    use and kept on ``e``.  tau_k cycles the order with its first step
    dropped (the identity for stage 0, the single mutation at x1), kept as
    the map of the points it moves to their images; a vertex named twice
    takes its last image.  An order that names a vertex outside 1..n, or
    whose cycle is not a permutation, is refused."""
    fold = e._stage_fold
    if fold is None:
        n = e.quiver.n
        stages = []
        for k in range(e.n_cycles + 1):
            seq = stage_parts(e, k).sequence()
            cycle = seq[1:]
            tau = dict(zip(cycle, cycle[1:] + cycle[:1]))
            if not (1 <= min(seq) and max(seq) <= n and tau.keys() == set(tau.values())):
                raise EmbeddingError(f"stage {k} order {seq} does not permute vertices of 1..{n}")
            stages.append((seq, {v: w for v, w in tau.items() if v != w}))
        # racing threads build equal folds, so either may be kept
        fold = e._stage_fold = tuple(stages)
    return fold


def _sigma_stream(
    e: EmbeddedQuiver,
) -> Iterator[tuple[int, tuple[int, ...], dict[int, int], list[int], list[int]]]:
    """Yield ``(k, sequence, tau, sigma, sigma_inv)`` for k = 0..n, the last
    two listing the images of 1..n under sigma_k and its inverse: one pair
    of lists, changed at each stage only where tau_k moves a point."""
    n = e.quiver.n
    sigma = list(range(1, n + 1))
    inv = list(range(1, n + 1))
    for k, (seq, tau) in enumerate(_stage_fold(e)):
        moved = [sigma[w - 1] for w in tau.values()]
        for v, image in zip(tau, moved):
            sigma[v - 1] = image
            inv[image - 1] = v
        yield k, seq, tau, sigma, inv
