"""Commutator spans and orthogonally factorizable square-zero elements.

An element x is an *orthogonally factorizable* square-zero element when
x = yz with zy = 0; then automatically x² = 0 and x = [y, z].  In
zero-product balanced idempotent algebras the span of these elements equals
the whole commutator span; the containment span(factorizable) ⊆ span of
commutators holds unconditionally.  `check_span_equality` checks both, and
decides balancedness only for exact spans that differ in an idempotent
algebra, where a YES would contradict the theorem.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from zpbal.algebra import Algebra, Element, commutator
from zpbal.config import DEFAULT_CONFIG, SweepConfig
from zpbal.errors import SoundnessAlarm
from zpbal.linalg import SpanBuilder
from zpbal.sweep import EXACT, Pair, sweep_blocks
from zpbal.tensorsquare import YES, compute_zero_product_span, is_zero_product_balanced


def commutator_span(algebra: Algebra) -> SpanBuilder:
    """Span of [e_i, e_j] over basis pairs (sufficient by bilinearity)."""
    f = algebra.field
    d = algebra.dim
    table = algebra.table
    return SpanBuilder(f, d, ([f.sub(a, b) for a, b in zip(table[i][j], table[j][i])]
                              for i in range(d) for j in range(i + 1, d)))


class FactorizableWitness(NamedTuple):
    """x = yz with zy = 0; re-verified together with x² = 0 and x = [y,z]."""

    x: Element
    y: Element
    z: Element

    def verify(self) -> bool:
        x, y, z = self.x, self.y, self.z
        return (
            x == y * z
            and (z * y).is_zero()
            and (x * x).is_zero()
            and x == commutator(y, z)
        )


class FactorizableSpanReport(NamedTuple):
    subspace: SpanBuilder
    status: str  # EXACT / LOWER_BOUND
    witnesses: List[FactorizableWitness]  # one per retained generator


def factorizable_square_zero_span(
    algebra: Algebra, config: SweepConfig = DEFAULT_CONFIG
) -> FactorizableSpanReport:
    """Span of {yz : zy = 0}; exhaustive over finite algebras within budget.

    Adds ba for the zero-product pairs (a, b) that `zpbal.sweep.sweep_blocks`
    hands out, the pairs whose tensors a⊗b span the zero-product span: this
    span is that span's image under a⊗b -> ba.  Each ba equals [b, a], so the
    sweep stops once the span reaches the commutator span.
    """
    ceiling = commutator_span(algebra).dim
    builder = SpanBuilder(algebra.field, algebra.dim)
    witnesses: List[FactorizableWitness] = []

    def offer(pairs: List[Pair]) -> int:
        added = 0
        for z, y in pairs:
            x = algebra.multiply_coords(y, z)
            if builder.add(x):
                w = FactorizableWitness(x=algebra.element(x), y=algebra.element(y), z=algebra.element(z))
                if not w.verify():
                    raise SoundnessAlarm("factorizable witness failed re-verification")
                witnesses.append(w)
                added += 1
        return added

    status, _ = sweep_blocks(algebra, config, offer, lambda: builder.dim >= ceiling)
    return FactorizableSpanReport(subspace=builder, status=status, witnesses=witnesses)


class SpanEqualityReport(NamedTuple):
    """Comparison of the commutator span with the factorizable square-zero span."""

    commutator_dim: int
    factorizable_dim: int
    factorizable_status: str
    containment_ok: bool  # factorizable span inside commutator span (unconditional)
    equal: Optional[bool]  # None when the factorizable span is only a lower bound


def check_span_equality(algebra: Algebra, config: SweepConfig = DEFAULT_CONFIG) -> SpanEqualityReport:
    """Compare the two spans, with a soundness alarm on either theorem.

    An escape from the commutator span is an alarm in every algebra.  Unequal
    exact spans are an alarm when the algebra is idempotent and zero-product
    balanced, so the zero-product span and the balanced decider run only on
    that branch; elsewhere their verdict is never read.
    """
    comm = commutator_span(algebra)
    fact = factorizable_square_zero_span(algebra, config)
    containment = comm.contains_subspace(fact.subspace)
    if not containment:
        raise SoundnessAlarm("factorizable square-zero span escapes the commutator span")
    equal = comm.dim == fact.subspace.dim
    if fact.status == EXACT and not equal and algebra.predicates().is_idempotent:
        span = compute_zero_product_span(algebra, config)
        if is_zero_product_balanced(algebra, span).status == YES:
            raise SoundnessAlarm("balanced idempotent algebra with exact spans violating span equality")
    return SpanEqualityReport(
        commutator_dim=comm.dim,
        factorizable_dim=fact.subspace.dim,
        factorizable_status=fact.status,
        containment_ok=containment,
        # a lower bound that reaches the commutator span still proves equality
        equal=equal if fact.status == EXACT or equal else None,
    )
