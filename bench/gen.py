"""Seeded inputs for the greenseq benchmark.

Everything here is plain Python on arrow lists: the generator never calls
the package under test, so the same seed gives the same inputs on every
commit.  The seed picks shapes, vertex labels, gluings and commands; the
sizes follow a fixed low-discrepancy schedule, so runs with different
seeds do the same amount of work up to shape.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from oracle import is_type_a, plain_mutate, to_signed

_PHI = (5 ** 0.5 - 1) / 2


def spread(i: int, lo: int, hi: int) -> int:
    """Point ``i`` of a golden-ratio walk over lo..hi; every prefix covers it evenly."""
    return lo + int((hi - lo + 1) * ((i + 1) * _PHI % 1.0))


@dataclass
class Case:
    """One input quiver and what the generator knows about it."""

    name: str
    n: int
    arrows: tuple[tuple[int, int, int], ...]  # (src, dst, mult)
    triangles: tuple[tuple[int, int, int], ...] = ()  # oriented 3-cycles, sorted triples
    root: tuple[int, int, int] | None = None  # first grown cycle, always a leaf
    parts: tuple[tuple[int, ...], ...] = ()  # vertex sets of the glued summands
    type_a: bool = True
    flaw: str | None = None  # 'cycle' (closes a non-oriented cycle) or 'degree' (5 neighbours)
    known_count: int | None = None  # published number of maximal green sequences
    path: str = ""

    def text(self) -> str:
        lines = [f"quiver {self.n}"]
        for s, d, m in sorted(self.arrows):
            lines.append(f"arrow {s} {d}" if m == 1 else f"arrow {s} {d} {m}")
        return "\n".join(lines) + "\n"


@dataclass
class Item:
    """One CLI call: ``argv`` without the quiver path, plus how to check it."""

    cmd: str
    case: Case
    extra: tuple[str, ...] = ()
    planted: bool = False  # verify: repeat one step right after itself
    pick: int = 0  # verify: which step a planted violation repeats, modulo the length
    follows: "Item | None" = None  # verify: takes its sequence from this mgs item
    seq: list[int] = field(default_factory=list)  # verify: the sequence it was last given
    out: str = ""  # mgs: the stdout of its last call, which the following verify reads

    def argv(self) -> list[str]:
        return [self.cmd, self.case.path, *self.extra]

    def verify_input(self, seq: list[int]) -> list[int]:
        """The sequence a verify item checks: the mgs output it follows, with
        one step repeated right after itself when a violation is planted."""
        if not self.planted:
            return list(seq)
        p = self.pick % len(seq)
        return seq[: p + 1] + [seq[p]] + seq[p + 1:]


def _relabel(rng: random.Random, n: int, arrows, triangles=(), root=None):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    to = {i + 1: perm[i] for i in range(n)}
    arrows = tuple((to[s], to[d], m) for s, d, m in arrows)
    triangles = tuple(sorted(tuple(sorted(to[v] for v in t)) for t in triangles))
    root = tuple(sorted(to[v] for v in root)) if root else None
    return arrows, triangles, root


def tree(rng: random.Random, cycles: int, name: str) -> Case:
    """Tree of exactly ``cycles`` oriented 3-cycles, grown like the test suite's
    ``random_tree_quiver``: attach a fresh cycle at a random frontier y or z
    vertex, each new vertex joining the frontier with probability 3/4.  A
    growth whose frontier dies out early is drawn again."""
    while True:
        arrows = [(1, 2, 1), (2, 3, 1), (3, 1, 1)]
        tris = [(1, 2, 3)]
        frontier = [3]
        nxt = 4
        while len(tris) < cycles and frontier:
            w = frontier.pop(rng.randrange(len(frontier)))
            a, b = nxt, nxt + 1
            nxt += 2
            arrows += [(w, a, 1), (a, b, 1), (b, w, 1)]
            tris.append((w, a, b))
            for v in (a, b):
                if rng.random() < 0.75:
                    frontier.append(v)
        if len(tris) == cycles:
            break
    n = nxt - 1
    arrows, tris, root = _relabel(rng, n, arrows, tris, tris[0])
    return Case(name, n, arrows, tris, root, (tuple(range(1, n + 1)),))


def colored_sum(rng: random.Random, parts: list[Case], name: str) -> Case:
    """Glue trees left to right with forward junction arrows, as the test
    suite's concatenation criterion does: 1-3 sources in the quiver so far,
    each sending one or two arrows into the next tree, no pair doubled."""
    n = 0
    arrows: list[tuple[int, int, int]] = []
    tris: list[tuple[int, ...]] = []
    vsets: list[tuple[int, ...]] = []
    for part in parts:
        if n:
            sources = rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))
            pairs = sorted({(a, n + rng.randint(1, part.n)) for a in sources
                            for _ in range(rng.randint(1, 2))})
            arrows += [(a, b, 1) for a, b in pairs]
        arrows += [(s + n, d + n, m) for s, d, m in part.arrows]
        tris += [tuple(v + n for v in t) for t in part.triangles]
        vsets.append(tuple(range(n + 1, n + part.n + 1)))
        n += part.n
    return Case(name, n, tuple(arrows), tuple(tris), None, tuple(vsets), is_type_a(n, arrows))


def _distances(n: int, arrows, src: int) -> dict[int, int]:
    adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for s, d, _ in arrows:
        adj[s].append(d)
        adj[d].append(s)
    dist = {src: 0}
    todo = [src]
    for v in todo:
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                todo.append(w)
    return dist


def flawed(rng: random.Random, base: Case, flaw: str) -> Case:
    """A tree made non-type-A by one extra arrow.

    'cycle': join two vertices at distance >= 3, closing a cycle of length
    >= 4 (fails condition i).  'degree': hang a new vertex on a vertex shared
    by two 3-cycles, giving it five neighbours (fails condition ii).
    """
    arrows = list(base.arrows)
    n = base.n
    parts = base.parts
    if flaw == "cycle":
        while True:
            u = rng.randint(1, n)
            far = sorted(v for v, d in _distances(n, arrows, u).items() if d >= 3)
            if far:
                v = rng.choice(far)
                break
        arrows.append((u, v, 1) if rng.random() < 0.5 else (v, u, 1))
    else:
        shared = sorted({v for t in base.triangles for v in t
                         if sum(v in t2 for t2 in base.triangles) == 2})
        w = rng.choice(shared)
        n += 1
        arrows.append((w, n, 1) if rng.random() < 0.5 else (n, w, 1))
        parts = parts + ((n,),)
    return Case(f"{base.name}-{flaw}", n, tuple(arrows), base.triangles, None, parts, False, flaw)


def _type_a_member(rng: random.Random, n: int, steps: int, name: str) -> Case:
    """Random member of the mutation class of A_n: a random orientation of the
    path, then ``steps`` random arrow-rule mutations, then a random labelling."""
    arrows = [(i, i + 1, 1) if rng.random() < 0.5 else (i + 1, i, 1) for i in range(1, n)]
    b = to_signed(n, arrows)
    for _ in range(steps):
        plain_mutate(b, rng.randint(1, n))
    arrows = [(i, j, m) for i in range(1, n + 1) for j, m in b[i].items() if m > 0]
    arrows, _, _ = _relabel(rng, n, arrows)
    return Case(name, n, arrows)


def _fixed(rng: random.Random, n: int, arrows, name: str, known: int | None = None) -> Case:
    arrows, _, _ = _relabel(rng, n, [(s, d, 1) for s, d in arrows])
    return Case(name, n, arrows, known_count=known)


A3CYCLE = [(1, 2), (2, 3), (3, 1)]
ZIG5 = [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 3)]
LINEAR_A6 = [(i, i + 1) for i in range(1, 6)]


# ---------------------------------------------------------------------------
# Workload pools.  Each returns the items of one pass, in run order.  The
# counts are fixed per pass so that every seed, and every prefix of passes,
# has the same mix of commands and sizes.


def mgs_tree(rng: random.Random) -> list[Item]:
    """50 inputs of 20-50 cycles (n = 41..104): 34 trees and 16 colored sums
    of 2-4 trees.  Each gets `mgs`, then `verify` of the printed sequence;
    12 of the 50 verify items carry a planted violation."""
    cases = []
    for i in range(50):
        cycles = spread(i, 20, 50)
        if i % 3 == 2:
            k = 2 + (i // 3) % 3
            sizes = [cycles // k + (j < cycles % k) for j in range(k)]
            parts = [tree(rng, c, f"p{j}") for j, c in enumerate(sizes)]
            cases.append(colored_sum(rng, parts, f"sum{i}"))
        else:
            cases.append(tree(rng, cycles, f"tree{i}"))
    planted = set(rng.sample(range(50), 12))
    items = []
    for i in rng.sample(range(50), 50):
        mgs = Item("mgs", cases[i])
        verify = Item("verify", cases[i], planted=i in planted,
                      pick=rng.randrange(1 << 30), follows=mgs)
        items += [mgs, verify]
    return items


def census_small(rng: random.Random) -> list[Item]:
    """100 small type-A inputs: `enumerate` on the oriented triangle (x2), on
    26 members of the A3 class, 44 of the A4 class and on zig5 (two glued
    triangles, a member of A5); `graph --max-nodes 100000` on 26 members of
    the A5 class and on the linearly oriented A6."""
    items = [Item("enumerate", _fixed(rng, 3, A3CYCLE, "a3cycle", 9)) for _ in range(2)]
    items += [Item("enumerate", _type_a_member(rng, 3, rng.randint(0, 4), "a3")) for _ in range(26)]
    items += [Item("enumerate", _type_a_member(rng, 4, rng.randint(0, 6), "a4")) for _ in range(44)]
    items.append(Item("enumerate", _fixed(rng, 5, ZIG5, "zig5", 2242)))
    graph = ("--max-nodes", "100000")
    items += [Item("graph", _type_a_member(rng, 5, rng.randint(0, 8), "a5"), graph) for _ in range(26)]
    items.append(Item("graph", _fixed(rng, 6, LINEAR_A6, "a6linear"), graph))
    return rng.sample(items, len(items))


def model_check_tree(rng: random.Random) -> list[Item]:
    """100 trees of 10-40 cycles (n = 21..81), `model-check --permutations`
    rooted at the generator's first cycle."""
    items = []
    for i in range(100):
        case = tree(rng, spread(i, 10, 40), f"tree{i}")
        root = ",".join(str(v) for v in case.root)
        items.append(Item("model-check", case, ("--root", root, "--permutations")))
    return rng.sample(items, len(items))


def structure_large(rng: random.Random) -> list[Item]:
    """34 inputs of 100-240 cycles (n = 201..483), each given to
    `check-type-a`, `decompose` and `embed`: 20 trees, 7 colored sums of 2-3
    trees, and 7 trees with one flaw (4 closing a non-oriented cycle, 3 with
    a vertex of 5 neighbours)."""
    cases = []
    for i in range(34):
        cycles = spread(i, 100, 240)
        if i % 5 == 1:
            k = 2 + (i // 5) % 2
            sizes = [cycles // k + (j < cycles % k) for j in range(k)]
            parts = [tree(rng, c, f"p{j}") for j, c in enumerate(sizes)]
            cases.append(colored_sum(rng, parts, f"sum{i}"))
        elif i % 5 == 3:
            cases.append(flawed(rng, tree(rng, cycles, f"tree{i}"), ("cycle", "degree")[(i // 5) % 2]))
        else:
            cases.append(tree(rng, cycles, f"tree{i}"))
    items = [Item(cmd, case) for case in cases for cmd in ("check-type-a", "decompose", "embed")]
    return rng.sample(items, len(items))


WORKLOADS = {
    "mgs-tree": mgs_tree,
    "census-small": census_small,
    "model-check-tree": model_check_tree,
    "structure-large": structure_large,
}


def pool(workload: str, seed: int) -> list[Item]:
    """The items of one pass of ``workload`` for ``seed``; cases are named uniquely."""
    items = WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
    seen: dict[int, Case] = {}
    for item in items:
        seen.setdefault(id(item.case), item.case)
    for i, case in enumerate(seen.values()):
        case.name = f"{i:03d}-{case.name}"
    return items
