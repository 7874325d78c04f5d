"""Exact quivers, framed quivers, and mutation.

A quiver is a finite directed multigraph without loops or 2-cycles, with
vertices 1..n.  Framing adjoins one frozen vertex i' per mutable vertex i;
the frozen columns of the extended exchange matrix track c-vector data and
the green/red state of each mutable vertex.

An extended matrix stores each row as a map from column to nonzero entry,
so a mutation costs time in the number of nonzeros it touches, not in n:
on type-A quivers every row stays a handful of entries long.  One kernel,
``_mutate_rows``, mutates a list of such rows in place.  A walk that keeps
only its last state (``apply_sequence``, and ``verify_green`` and
``verify_model`` beside it) owns its rows and changes them where they lie;
``matrix_mutate``, whose input stays alive, has the kernel copy each row
before changing it, so a new state shares every row it does not change.

All values here are immutable: every operation returns a new value and
leaves its inputs untouched, so instances can be shared freely between
threads.  A walk's rows are private to the call until they are wrapped
into the state it returns.  Every integer given to a constructor passes
``operator.index`` and is stored as a plain int.
"""

from __future__ import annotations

import operator
from dataclasses import FrozenInstanceError, dataclass
from typing import Iterable, Iterator, Sequence, Sized


class QuiverError(Exception):
    """Base class for errors raised by this package."""


class QuiverParseError(QuiverError):
    """Malformed quiver text input."""


class SignCoherenceError(QuiverError):
    """A frozen row is mixed-sign or all zero (state not reachable from a framing)."""


# Largest vertex count ``parse_quiver`` accepts: the text is outside input,
# and a quiver allocates per vertex before any arrow is read.
MAX_VERTICES = 10**5

# Largest quiver file the command line reads, in bytes, checked before the
# text is read.  A path on MAX_VERTICES vertices is about 1.8 MB of text,
# and a chain of 49,999 3-cycles about 2.7 MB.
MAX_INPUT_BYTES = 2**23


def _sequence(values: Iterable[object], what: str) -> tuple[object, ...]:
    """``values`` as a tuple; a non-iterable ``values`` raises QuiverError
    naming it."""
    try:
        return tuple(values)
    except TypeError:
        raise QuiverError(f"{values!r} is not a sequence of {what} values") from None


def _index(value: object, what: str) -> int:
    """``value`` as a plain int by ``operator.index``; a value it refuses
    (a float, a string) raises QuiverError naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise QuiverError(f"{what} {value!r} is not an integer") from None


def _exact_ints(values: Iterable[object], what: str) -> tuple[int, ...]:
    """``values`` as plain ints, each taken as ``_index`` takes it, refused
    as ``_sequence`` and ``_index`` refuse them."""
    values = _sequence(values, what)
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        for v in values:
            _index(v, what)
        raise


# ---------------------------------------------------------------------------
# Quiver


@dataclass(frozen=True)
class Quiver:
    """Loop-free, 2-cycle-free integer multidigraph on vertices 1..n.

    ``arrows`` holds (src, dst, multiplicity) triples, sorted, with
    multiplicity >= 1 and at most one direction per vertex pair.  The
    constructor checks every arrow; the sorted arrows, the arrow dict and
    the neighbor adjacency are then built once, by ``_fill_quiver``.
    """

    n: int
    arrows: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        (n,) = _exact_ints((self.n,), "vertex count")
        if n < 1:
            raise QuiverError(f"vertex count must be positive, got {n}")
        mult: dict[tuple[int, int], int] = {}
        for arrow in _sequence(self.arrows, "arrow"):
            entry = _exact_ints(arrow, "arrow entry")
            if len(entry) != 3:
                raise QuiverError(f"arrow entry {arrow!r} is not (src, dst, mult)")
            src, dst, m = entry
            if src == dst:
                raise QuiverError(f"loop at vertex {src}")
            if not (1 <= src <= n and 1 <= dst <= n):
                raise QuiverError(f"arrow {src} -> {dst} out of range 1..{n}")
            if m < 1:
                raise QuiverError(f"arrow {src} -> {dst} has multiplicity {m}")
            if (src, dst) in mult:
                raise QuiverError(f"duplicate arrow entry {src} -> {dst}")
            if (dst, src) in mult:
                raise QuiverError(f"2-cycle between {src} and {dst}")
            mult[(src, dst)] = m
        _fill_quiver(self, n, mult)

    @classmethod
    def from_arrows(cls, n: int, arrows: Iterable[Sequence[int]]) -> "Quiver":
        """Build a quiver, summing repeated (src, dst) entries.

        Each item is (src, dst) or (src, dst, mult) with mult >= 1, and each
        is refused on its own if it is not.  Opposite directions on the same
        pair are rejected, not cancelled.
        """
        counts: dict[tuple[int, int], int] = {}
        for item in _sequence(arrows, "arrow"):
            if not isinstance(item, Sized) or len(item) not in (2, 3):
                raise QuiverError(f"arrow entry {item!r} is not (src, dst) or (src, dst, mult)")
            src, dst, mult = _exact_ints(item, "arrow entry") + (1,) * (3 - len(item))
            if mult < 1:
                raise QuiverError(f"arrow entry {item!r} has multiplicity {mult}")
            counts[(src, dst)] = counts.get((src, dst), 0) + mult
        return cls(n, tuple((s, d, m) for (s, d), m in counts.items()))

    def multiplicity(self, src: int, dst: int) -> int:
        return self._mult.get((src, dst), 0)

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Sorted neighbors of vertex v in the underlying graph."""
        return self._adj[v]

    def degree(self, v: int) -> int:
        """Number of distinct neighbors in the underlying graph."""
        return len(self._adj[v])

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        return iter(self.arrows)


def _fill_quiver(q: Quiver, n: int, mult: dict[tuple[int, int], int]) -> Quiver:
    """Set the fields of ``q`` from arrow counts that passed every check.

    ``mult`` maps (src, dst) to a multiplicity >= 1, in any order, with both
    ends in 1..n, no loop and no 2-cycle.  One sort gives the sorted
    ``arrows`` and ``_mult``, and one pass over them the neighbor lists.
    Only ``Quiver.__post_init__``, after its checks, and ``parse_quiver``,
    which makes the same checks line by line, may call this.
    """
    arrows = tuple(sorted([(s, d, m) for (s, d), m in mult.items()]))
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for s, d, _ in arrows:
        adj[s].append(d)
        adj[d].append(s)
    for vs in adj:
        vs.sort()
    object.__setattr__(q, "n", n)
    object.__setattr__(q, "arrows", arrows)
    object.__setattr__(q, "_mult", {(s, d): m for s, d, m in arrows})
    object.__setattr__(q, "_adj", tuple(map(tuple, adj)))
    return q


def mutate(q: Quiver, k: int) -> Quiver:
    """Mutate ``q`` at mutable vertex ``k`` by the three-step arrow rule.

    (1) for every 2-path i -> k -> j adjoin i -> j, (2) reverse all arrows
    at k, (3) cancel any 2-cycles.  Implemented directly on arrow counts so
    it stays an independent cross-check of the matrix formula.
    """
    k = _index(k, "mutation vertex")
    if not (1 <= k <= q.n):
        raise QuiverError(f"mutation vertex {k} out of range 1..{q.n}")
    net: dict[tuple[int, int], int] = {}

    def add(src: int, dst: int, mult: int) -> None:
        if src > dst:
            src, dst, mult = dst, src, -mult
        net[(src, dst)] = net.get((src, dst), 0) + mult

    into_k = [(s, m) for s, d, m in q.arrows if d == k]
    out_of_k = [(d, m) for s, d, m in q.arrows if s == k]
    for s, d, m in q.arrows:
        if s == k or d == k:
            add(d, s, m)  # reversal at k
        else:
            add(s, d, m)
    for i, mi in into_k:
        for j, mj in out_of_k:
            add(i, j, mi * mj)  # composite of the 2-path i -> k -> j
    arrows = []
    for (a, b), m in net.items():
        if m > 0:
            arrows.append((a, b, m))
        elif m < 0:
            arrows.append((b, a, -m))
    return Quiver(q.n, tuple(arrows))


def subquiver(q: Quiver, vertices: Sequence[int]) -> tuple[Quiver, tuple[int, ...]]:
    """Full subquiver on ``vertices``, relabelled 1..len ascending.

    Returns the subquiver and the tuple mapping new index -> old vertex.
    A vertex that is not an integer in 1..n is refused.
    """
    vertices = _exact_ints(vertices, "vertex")
    for v in vertices:
        if not 1 <= v <= q.n:
            raise QuiverError(f"vertex {v} out of range 1..{q.n}")
    order = tuple(sorted(set(vertices)))
    index = {v: i + 1 for i, v in enumerate(order)}
    arrows = [
        (index[s], index[d], m) for s, d, m in q.arrows if s in index and d in index
    ]
    return Quiver(len(order), tuple(arrows)), order


# ---------------------------------------------------------------------------
# Extended (framed) quivers


class ExtendedQuiver:
    """Integer exchange matrix with n mutable rows and n+m columns.

    Columns 1..n are mutable, columns n+1..n+m are frozen.  The mutable
    block is skew-symmetric.  Each row is stored sparse, as a ``{column:
    value}`` map of its nonzero exact Python ints (columns 0-based, frozen
    column j' at n+j-1), so entries have no size limit and a zero entry is
    never stored; states made by mutation share every row they do not
    change.  ``sparse_rows`` is that shared storage and must not be
    modified; ``rows`` is the dense view, built on each access.

    ``ExtendedQuiver(n, m, rows)`` takes dense rows of integers and checks
    their shape and skew-symmetry.  Equality and hashing are exact on the
    matrix.
    """

    __slots__ = ("n", "m", "sparse_rows")

    def __init__(self, n: int, m: int, rows: Sequence[Sequence[int]]) -> None:
        n, m = _exact_ints((n, m), "matrix size")
        dense = tuple(_exact_ints(row, "matrix entry") for row in _sequence(rows, "matrix row"))
        if len(dense) != n or any(len(row) != n + m for row in dense):
            raise QuiverError(f"matrix is not {n} x {n + m}")
        if any(dense[i][j] != -dense[j][i] for i in range(n) for j in range(i + 1)):
            raise QuiverError("mutable block is not skew-symmetric")
        _set_n(self, n)
        _set_m(self, m)
        _set_rows(self, tuple({j: v for j, v in enumerate(row) if v} for row in dense))

    @classmethod
    def _trusted(cls, n: int, m: int, rows: tuple[dict[int, int], ...]) -> "ExtendedQuiver":
        """State built by framing or mutation, which keep the mutable block
        skew-symmetric and store no zero: skip the constructor's checks."""
        eq = object.__new__(cls)
        _set_n(eq, n)
        _set_m(eq, m)
        _set_rows(eq, rows)
        return eq

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExtendedQuiver):
            return NotImplemented
        return (self.n, self.m, self.sparse_rows) == (other.n, other.m, other.sparse_rows)

    def __hash__(self) -> int:
        return hash((self.n, self.m, tuple(map(frozenset, map(dict.items, self.sparse_rows)))))

    def __repr__(self) -> str:
        return f"ExtendedQuiver(n={self.n}, m={self.m}, rows={self.rows!r})"

    def __reduce__(self):
        return ExtendedQuiver, (self.n, self.m, self.rows)

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """Dense view: one tuple of n+m ints per mutable row."""
        out = []
        for row in self.sparse_rows:
            dense = [0] * (self.n + self.m)
            for j, v in row.items():
                dense[j] = v
            out.append(tuple(dense))
        return tuple(out)

    def entry(self, i: int, j: int, *, frozen: bool = False) -> int:
        """Entry for mutable row i and column j (frozen column j' if asked).

        Raises QuiverError for i outside 1..n or j outside 1..n (1..m if frozen).
        """
        i, j = _exact_ints((i, j), "vertex")
        if not 1 <= i <= self.n:
            raise QuiverError(f"vertex {i} out of range 1..{self.n}")
        if frozen and not 1 <= j <= self.m:
            raise QuiverError(f"frozen vertex {j} out of range 1..{self.m}")
        if not frozen and not 1 <= j <= self.n:
            raise QuiverError(f"vertex {j} out of range 1..{self.n}")
        return self.sparse_rows[i - 1].get(self.n + j - 1 if frozen else j - 1, 0)

    def quiver(self) -> Quiver:
        """Quiver of the mutable block."""
        return Quiver(self.n, tuple(
            (i, j + 1, v) for i, row in enumerate(self.sparse_rows, 1)
            for j, v in row.items() if j < self.n and v > 0
        ))


# The class refuses attribute assignment, so its slots are filled through
# their descriptors (faster than object.__setattr__ on every new state).
_set_n = ExtendedQuiver.n.__set__
_set_m = ExtendedQuiver.m.__set__
_set_rows = ExtendedQuiver.sparse_rows.__set__


def _frame_rows(q: Quiver) -> list[dict[int, int]]:
    """Fresh sparse rows of frame(q), owned by the caller."""
    rows = [{q.n + i: 1} for i in range(q.n)]
    for src, dst, mult in q.arrows:
        rows[src - 1][dst - 1] = mult
        rows[dst - 1][src - 1] = -mult
    return rows


def frame(q: Quiver) -> ExtendedQuiver:
    """Adjoin frozen vertices with arrows i -> i': extended part = identity."""
    return ExtendedQuiver._trusted(q.n, q.n, tuple(_frame_rows(q)))


# `shared` stays: matrix_mutate copying rows for an in-place kernel ran census-small x0.90
def _mutate_rows(rows: list[dict[int, int]], n: int, k: int, shared: bool) -> None:
    """Matrix mutation at mutable vertex ``k``, in place on the list ``rows``.

    b'_ij = -b_ij when i = k or j = k, else b_ij + (|b_ik| b_kj + b_ik |b_kj|)/2.
    The bump is nonzero only when b_ik and b_kj share a sign.  As b_ik = -b_ki,
    row i changes only when b_ki != 0, and then by |b_ki| times each pivot
    entry b_kj of the sign opposite to b_ki; an entry that cancels to zero is
    deleted.  Row k is negated.  When ``shared`` is true the row dicts also
    belong to a kept state, so each changed row, row k included, is written
    into its slot as a new dict; otherwise the caller owns every row dict
    and they change where they lie.  A bad ``k`` is refused before anything
    changes.
    """
    if not (1 <= k <= n):
        raise QuiverError(f"mutation vertex {k} is frozen or out of range 1..{n}")
    k0 = k - 1
    pivot = rows[k0]
    for i, u in pivot.items():
        if i < n:
            row = rows[i]
            if shared:
                row = rows[i] = row.copy()
            for j, v in pivot.items():
                if u * v < 0:
                    w = row.get(j, 0) + abs(u) * v
                    if w:
                        row[j] = w
                    else:
                        del row[j]
            row[k0] = u
    if shared:
        rows[k0] = {j: -v for j, v in pivot.items()}
    else:
        for j, v in pivot.items():
            pivot[j] = -v


def matrix_mutate(eq: ExtendedQuiver, k: int) -> ExtendedQuiver:
    """Mutate the extended matrix at mutable vertex ``k``; the new state
    shares every row it does not change with ``eq``."""
    rows = list(eq.sparse_rows)
    _mutate_rows(rows, eq.n, _index(k, "mutation vertex"), True)
    return ExtendedQuiver._trusted(eq.n, eq.m, tuple(rows))


def apply_sequence(eq: ExtendedQuiver, seq: Sequence[int]) -> ExtendedQuiver:
    """Left fold of matrix mutation over ``seq`` (first entry applied first).

    The walk copies ``eq``'s rows once and then mutates its copies in
    place, so no state is built per step and ``eq`` is left as it was.
    """
    rows = list(map(dict.copy, eq.sparse_rows))
    for k in _exact_ints(seq, "mutation vertex"):
        _mutate_rows(rows, eq.n, k, False)
    return ExtendedQuiver._trusted(eq.n, eq.m, tuple(rows))


def vertex_color(eq: ExtendedQuiver, i: int) -> str:
    """'green' or 'red' for mutable vertex i, from the sign of its frozen row."""
    i = _index(i, "vertex")
    if not (1 <= i <= eq.n):
        raise QuiverError(f"vertex {i} out of range 1..{eq.n}")
    return _row_color(eq.sparse_rows[i - 1], eq.n, i)


def _row_color(row: dict[int, int], n: int, i: int) -> str:
    """``vertex_color`` on the sparse row of vertex i of an n-vertex state,
    for walks that hold rows rather than states; i only names the vertex
    in the error."""
    pos = neg = False
    for j, v in row.items():
        if j >= n:
            if v > 0:
                pos = True
            else:
                neg = True
    if pos and not neg:
        return "green"
    if neg and not pos:
        return "red"
    if not pos:
        raise SignCoherenceError(f"frozen row of vertex {i} is all zero")
    raise SignCoherenceError(f"frozen row of vertex {i} has mixed signs")


def green_vertices(eq: ExtendedQuiver) -> tuple[int, ...]:
    n = eq.n
    return tuple([i for i, row in enumerate(eq.sparse_rows, 1) if _row_color(row, n, i) == "green"])


# ---------------------------------------------------------------------------
# Permutations (right action: i * sigma)


@dataclass(frozen=True)
class Permutation:
    """Bijection on 1..n acting on the right; images[i-1] is the image of i."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        images = _exact_ints(self.images, "permutation image")
        object.__setattr__(self, "images", images)
        n = len(images)
        seen = [False] * (n + 1)
        for v in images:
            # range first: seen[0] or seen[-1] would index without complaint
            if not 1 <= v <= n or seen[v]:
                raise QuiverError(f"not a bijection on 1..{n}: {images}")
            seen[v] = True

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.images)

    def apply(self, i: int) -> int:
        i = _index(i, "vertex")
        if not 1 <= i <= self.n:
            raise QuiverError(f"vertex {i} out of range 1..{self.n}")
        return self.images[i - 1]

    def then(self, other: "Permutation") -> "Permutation":
        """Apply self first, then ``other``."""
        return Permutation(tuple(other.images[v - 1] for v in self.images))

    def inverse(self) -> "Permutation":
        images = [0] * self.n
        for i, v in enumerate(self.images):
            images[v - 1] = i + 1
        return Permutation(tuple(images))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each starting at its minimum, sorted by minimum."""
        images = self.images
        seen: set[int] = set()
        out = []
        for start in range(1, self.n + 1):
            if start in seen or images[start - 1] == start:
                continue
            cyc = [start]
            seen.add(start)
            v = images[start - 1]
            while v != start:
                cyc.append(v)
                seen.add(v)
                v = images[v - 1]
            out.append(tuple(cyc))
        return tuple(out)

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(v) for v in c) + ")" for c in cycs)


# ---------------------------------------------------------------------------
# Text I/O


def parse_quiver(text: str) -> Quiver:
    """Parse the line-based quiver format.

    ``quiver <N>`` then ``arrow <i> <j> [<mult>]`` lines; '#' lines are
    comments; repeated (i, j) lines sum.  Loops and 2-cycles are rejected.
    Each line is checked as it is read, with every check the ``Quiver``
    constructor makes, so the counts go straight to the shared builder.
    """
    n: int | None = None
    counts: dict[tuple[int, int], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0][0] == "#":
            continue
        if fields[0] == "quiver":
            if n is not None:
                raise QuiverParseError(f"line {lineno}: duplicate quiver directive")
            if len(fields) != 2:
                raise QuiverParseError(f"line {lineno}: expected 'quiver <N>'")
            try:
                n = int(fields[1])
            except ValueError:
                raise QuiverParseError(f"line {lineno}: bad vertex count {fields[1]!r}") from None
            if n < 1:
                raise QuiverParseError(f"line {lineno}: vertex count must be positive")
            if n > MAX_VERTICES:
                raise QuiverParseError(
                    f"line {lineno}: vertex count {n} exceeds the limit {MAX_VERTICES}"
                )
        elif fields[0] == "arrow":
            if n is None:
                raise QuiverParseError(f"line {lineno}: arrow before quiver directive")
            if len(fields) not in (3, 4):
                raise QuiverParseError(f"line {lineno}: expected 'arrow <i> <j> [<mult>]'")
            try:
                src, dst = int(fields[1]), int(fields[2])
                mult = int(fields[3]) if len(fields) == 4 else 1
            except ValueError:
                raise QuiverParseError(f"line {lineno}: non-integer arrow field") from None
            if not (1 <= src <= n and 1 <= dst <= n):
                raise QuiverParseError(f"line {lineno}: arrow {src} -> {dst} out of range 1..{n}")
            if src == dst:
                raise QuiverParseError(f"line {lineno}: loop at vertex {src}")
            if mult < 1:
                raise QuiverParseError(f"line {lineno}: multiplicity must be >= 1")
            key = (src, dst)
            counts[key] = counts.get(key, 0) + mult
        else:
            raise QuiverParseError(f"line {lineno}: unknown directive {fields[0]!r}")
    if n is None:
        raise QuiverParseError("missing quiver directive")
    for (src, dst) in counts:
        if (dst, src) in counts and src < dst:
            raise QuiverParseError(f"2-cycle between {src} and {dst}")
    return _fill_quiver(object.__new__(Quiver), n, counts)


def serialize_quiver(q: Quiver) -> str:
    """Normalized text form: sorted arrows, multiplicity shown only when > 1."""
    lines = [f"quiver {q.n}"]
    for src, dst, mult in q.arrows:
        lines.append(f"arrow {src} {dst}" if mult == 1 else f"arrow {src} {dst} {mult}")
    return "\n".join(lines) + "\n"


def format_extended(eq: ExtendedQuiver) -> str:
    """`extb <n> <m>` header plus tab-separated integer rows."""
    return "".join(_extended_lines(eq))


def _extended_lines(eq: ExtendedQuiver) -> Iterator[str]:
    """``format_extended`` one line at a time, each filled from its row's
    nonzeros, so neither a dense matrix nor the whole text is held."""
    yield f"extb {eq.n} {eq.m}\n"
    for row in eq.sparse_rows:
        cells = ["0"] * (eq.n + eq.m)
        for j, v in row.items():
            cells[j] = str(v)
        yield "\t".join(cells) + "\n"
