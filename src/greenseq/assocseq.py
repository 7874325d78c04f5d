"""The constructed maximal green sequence of an embedded quiver.

Stage 0 mutates x1.  Stage k >= 1 runs four parts, applied in order D, C,
B, A: D mutates y_k then z_k; C walks the descent path's x vertices (empty
for an upward cycle); B mutates the closing vertex of the cycle just below
the base cycle (empty when the base cycle is T1); A mutates the closing
vertex of T_k.  The parts are ``embedding.stage_parts``; concatenating
stages 0..n gives a maximal green sequence of the whole quiver.

For a general type-A quiver the pipeline decomposes into irreducible
summands, handles each (embedded construction when it has a 3-cycle,
source order when acyclic), and concatenates in summand order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .directsum import Decomposition, concat_mgs, decompose
from .embedding import EmbeddedQuiver, embed, stage_parts
from .green import GreenTrace, NotAcyclicError, acyclic_mgs
from .quiver import Quiver
from .typea import NotTypeAError


def associated_sequence(e: EmbeddedQuiver) -> tuple[int, ...]:
    """Concatenation of all stages, first-applied first."""
    out: list[int] = []
    for k in range(e.n_cycles + 1):
        out.extend(stage_parts(e, k).sequence())
    return tuple(out)


@dataclass(frozen=True)
class PipelineResult:
    trace: GreenTrace  # the whole quiver's walk that verified ``sequence``
    decomposition: Decomposition
    summand_sequences: tuple[tuple[int, ...], ...]  # local numbering per summand

    @property
    def sequence(self) -> tuple[int, ...]:
        return self.trace.sequence


def mgs_for_type_a(q: Quiver) -> PipelineResult:
    """Maximal green sequence of any quiver whose summands are type A.

    Every irreducible summand must be type A (tree of 3-cycles) or acyclic;
    acyclic summands get their source order.  Any other summand goes through
    the one type-A recognition in ``cycle_tree``, and a failure is reported
    by its first failing condition.  The concatenation is verified before
    returning.
    """
    dec = decompose(q)
    parts: list[tuple[int, ...]] = []
    for p in range(len(dec.summands)):
        part, _ = dec.part(p)
        try:
            parts.append(acyclic_mgs(part))
            continue
        except NotAcyclicError:
            pass  # a directed cycle: a tree of 3-cycles, or not type A
        try:
            emb = embed(part)
        except NotTypeAError as exc:
            bad = exc.condition
            raise NotTypeAError(
                f"summand {p + 1} fails condition {bad.name}: {bad.witness}", bad
            ) from None
        parts.append(associated_sequence(emb))
    return PipelineResult(concat_mgs(dec, parts), dec, tuple(parts))
