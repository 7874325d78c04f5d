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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .quiver import Quiver, QuiverError
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

    Construction works out, once, the facts every stage reads: each cycle's
    base cycle, the anchor its hanging chain starts over, the pending set
    (``pending``), and the stage that first mutates each vertex
    (``first_stage``, keyed in standard order).
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

        # one pass, parents before children whatever the labels (a
        # relabelled embedding may put a child first).  A downward cycle's
        # hanging-chain anchor is the highest label with a y-child among its
        # base cycle and the interior of its descent path, i.e. among its
        # parent's candidates and the parent itself.
        self._base: dict[int, int] = {}
        self._anchor: dict[int, int | None] = {}
        pending = []
        stack = [c.label for c in self.cycles if c.parent is None]
        while stack:
            j = stack.pop()
            c = self._by_label[j]
            p = c.parent
            if c.up:
                self._base[j], self._anchor[j] = j, None
            elif p is None:
                raise EmbeddingError(f"downward T{j} has no parent")
            else:
                self._base[j] = p if self._by_label[p].up else self._base[p]
                anchor = self._anchor[p]
                if self._child_y[p] is not None and (anchor is None or p > anchor):
                    anchor = p
                self._anchor[j] = anchor
                if c.parent_role == "z" and self.is_branching(p):
                    pending.append(j)
            for child in (self._child_y[j], self._child_z[j]):
                if child is not None:
                    stack.append(child)
        self.pending: tuple[int, ...] = tuple(sorted(pending))
        # x1 is mutated at stage 0, y_k and z_k first at stage k, and every
        # other x is the parent's y or z
        self.first_stage: dict[int, int] = {}
        for c in self.cycles:
            self.first_stage.setdefault(c.x, c.parent or 0)
            for v in (c.y, c.z) if c.up else (c.z, c.y):
                self.first_stage.setdefault(v, c.label)
        self._standard_order = tuple(self.first_stage)

    @property
    def n_cycles(self) -> int:
        return len(self.cycles)

    def cycle(self, k: int) -> EmbeddedCycle:
        try:
            return self._by_label[k]
        except KeyError:
            raise EmbeddingError(f"no cycle labelled T{k}") from None

    def child_at_y(self, k: int) -> int | None:
        return self._child_y[k]

    def child_at_z(self, k: int) -> int | None:
        return self._child_z[k]

    def is_branching(self, k: int) -> bool:
        c = self.cycle(k)
        return (
            c.parent is not None
            and self.child_at_y(k) is not None
            and self.child_at_z(k) is not None
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EmbeddedQuiver):
            return NotImplemented
        return self.quiver == other.quiver and self.cycles == other.cycles

    def standard_order(self) -> tuple[int, ...]:
        """All vertices in the standard ordering."""
        return self._standard_order


# ---------------------------------------------------------------------------
# Construction


def _arrow_order(q: Quiver, tri: tuple[int, int, int], v: int) -> tuple[int, int, int]:
    """The oriented triangle's vertices along its arrows, starting at v:
    (x, y, z) when v is x, (z, x, y) when v is z."""
    a, b = (u for u in tri if u != v)
    for second, third in ((a, b), (b, a)):
        if q.multiplicity(v, second) and q.multiplicity(second, third) and q.multiplicity(third, v):
            return v, second, third
    raise EmbeddingError(f"triangle {tri} is not oriented through {v}")


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
        root_tri = tuple(sorted(root))
        if len(root_tri) != 3:
            raise EmbeddingError(f"root must be a vertex triple, got {root_tri}")
    if root_tri not in leaves:
        raise EmbeddingError(f"root {root_tri} is not a leaf 3-cycle")
    root_idx = tree.nodes.index(root_tri)

    if tree.degree(root_idx) == 0:
        x1 = min(root_tri)
        _, y1, z1 = _arrow_order(q, root_tri, x1)
        e = EmbeddedQuiver(q, [EmbeddedCycle(1, True, x1, y1, z1, None, None)])
        validate_embedding(e)
        return e

    ((neighbor_idx, shared),) = tree.neighbors_of(root_idx)
    _, x1, y1 = _arrow_order(q, root_tri, shared)
    cycles: list[EmbeddedCycle] = [EmbeddedCycle(1, True, x1, y1, shared, None, None)]

    # depth-first on an explicit stack, since a chain of 3-cycles may be
    # longer than the recursion limit; a cycle is labelled when it is popped
    stack = [(neighbor_idx, shared, 1, "z", root_idx)]
    while stack:
        tri_idx, attach_vertex, parent_label, parent_role, parent_idx = stack.pop()
        tri = tree.nodes[tri_idx]
        label = len(cycles) + 1
        _, y, z = _arrow_order(q, tri, attach_vertex)
        cycles.append(
            EmbeddedCycle(label, parent_role == "y", attach_vertex, y, z, parent_label, parent_role)
        )
        children = {}
        for other_idx, v in tree.neighbors_of(tri_idx):
            if other_idx == parent_idx:
                continue
            if v == y:
                children["y"] = other_idx
            elif v == z:
                children["z"] = other_idx
            else:
                raise EmbeddingError(
                    f"cycle {tree.nodes[other_idx]} attaches at the entry vertex of {tri}"
                )
        # y-side subtree first (pushed last): building it keeps the z outlet
        # alive, while the reverse order would kill the y attachment point.
        for role, vertex in (("z", z), ("y", y)):
            if role in children:
                stack.append((children[role], vertex, label, role, tri_idx))
    e = EmbeddedQuiver(q, cycles)
    validate_embedding(e)
    return e


def validate_embedding(e: EmbeddedQuiver) -> tuple[int, ...]:
    """Replay the construction, checking every attachment hits a live outlet.

    This is the northeast-kill legality check: once a new branch is created
    at an outlet, everything northeast of it is gone, so any labelling that
    attaches there later fails the membership test below.  Returns the
    final outlet list, northeast to southwest.
    """
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
    return tuple(outlets)


def branches(e: EmbeddedQuiver) -> tuple[Branch, ...]:
    """Partition of the cycle labels into branches, in standard order.

    A branch is a maximal run of consecutive labels; a new one starts when
    the parent is a branching cycle.  Only the last cycle of a branch may be
    branching.
    """
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


def descent_path(e: EmbeddedQuiver, k: int) -> tuple[int, ...]:
    """Labels of the chain of downward cycles from T_k to its base cycle.

    Empty when T_k is upward; otherwise starts at k and walks parents while
    they are downward-pointing.
    """
    if e.cycle(k).up:
        return ()
    path = [k]
    while (parent := e.cycle(path[-1]).parent) != e._base[k]:
        path.append(parent)
    return tuple(path)


def base_cycle(e: EmbeddedQuiver, k: int) -> int:
    """The nearest upward-pointing cycle at or below T_k along parents."""
    return e._base[e.cycle(k).label]


def hanging_chain(e: EmbeddedQuiver, k: int) -> tuple[int, ...]:
    """The chain of cycles hanging over T_k's descent path (its twig).

    Looks for the highest-labelled cycle on the path (the base cycle or any
    interior one, never T_k itself) whose y vertex has a cycle attached,
    takes that y-child, and follows z-children as far as they go.  Empty for
    upward T_k and when no such y vertex exists.
    """
    anchor = e._anchor[e.cycle(k).label]
    if anchor is None:
        return ()
    chain = [e.child_at_y(anchor)]
    while (nxt := e.child_at_z(chain[-1])) is not None:
        chain.append(nxt)
    return tuple(chain)


def closing_vertex(e: EmbeddedQuiver, k: int) -> int:
    """The vertex mutated last in stage k.

    x_k for an upward cycle; for a downward cycle, x of the base cycle when
    nothing hangs over the path, else z of the last chain cycle.
    """
    c = e.cycle(k)
    if c.up:
        return c.x
    chain = hanging_chain(e, k)
    if not chain:
        return e.cycle(e._base[k]).x
    return e.cycle(chain[-1]).z


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
    for a in starts:
        s = a
        while s < e.n_cycles and e.cycle(s + 1).parent >= a:
            s += 1
        reach.update(range(a, s + 1))
    return tuple(sorted(reach - starts))


def embedding_report(e: EmbeddedQuiver) -> str:
    """Per-cycle role lines, then the outlet list, then the branches."""
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
