"""The constructed maximal green sequence of an embedded quiver.

Stage 0 mutates x1.  Stage k >= 1 runs four parts, applied in order D, C,
B, A: D mutates y_k then z_k; C walks the descent path's x vertices (empty
for an upward cycle); B mutates the closing vertex of the cycle just below
the base cycle (empty when the base cycle is T1); A mutates the closing
vertex of T_k.  Concatenating stages 0..n gives a maximal green sequence
of the whole quiver.

For a general type-A quiver the pipeline decomposes into irreducible
summands, handles each (embedded construction when it has a 3-cycle,
source order when acyclic), and concatenates in summand order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .directsum import Decomposition, concat_mgs_report, decompose
from .embedding import (
    EmbeddedQuiver,
    EmbeddingError,
    base_cycle,
    closing_vertex,
    descent_path,
    embed,
)
from .green import MgsReport, NotAcyclicError, acyclic_mgs
from .quiver import Quiver
from .typea import NotTypeAError


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


def associated_sequence(e: EmbeddedQuiver) -> tuple[int, ...]:
    """Concatenation of all stages, first-applied first."""
    out: list[int] = []
    for k in range(e.n_cycles + 1):
        out.extend(stage_parts(e, k).sequence())
    return tuple(out)


@dataclass(frozen=True)
class PipelineResult:
    sequence: tuple[int, ...]
    decomposition: Decomposition
    summand_sequences: tuple[tuple[int, ...], ...]  # local numbering per summand
    embeddings: tuple[EmbeddedQuiver | None, ...]  # None for acyclic summands
    report: MgsReport  # the whole quiver's, from the walk that verified ``sequence``


def mgs_for_type_a(q: Quiver) -> PipelineResult:
    """Maximal green sequence of any quiver whose summands are type A.

    Every irreducible summand must be type A (tree of 3-cycles) or acyclic;
    acyclic summands get their source order.  A summand that is neither is
    reported by its first failing type-A condition, which is recognised only
    on that failure path.  The concatenation is verified before returning.
    """
    dec = decompose(q)
    parts: list[tuple[int, ...]] = []
    embeddings: list[EmbeddedQuiver | None] = []
    for p in range(len(dec.summands)):
        part, _ = dec.part(p)
        try:
            parts.append(acyclic_mgs(part))
            embeddings.append(None)
            continue
        except NotAcyclicError:
            pass  # a directed cycle: a tree of 3-cycles, or not type A
        try:
            emb = embed(part)
        except NotTypeAError as exc:
            bad = exc.condition
            if bad is None:
                raise
            raise NotTypeAError(
                f"summand {p + 1} fails condition {bad.name}: {bad.witness}", bad
            ) from None
        parts.append(associated_sequence(emb))
        embeddings.append(emb)
    seq, report = concat_mgs_report(dec, parts)
    return PipelineResult(seq, dec, tuple(parts), tuple(embeddings), report)
