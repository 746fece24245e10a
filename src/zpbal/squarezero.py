"""Commutator spans and orthogonally factorizable square-zero elements.

An element x is an *orthogonally factorizable* square-zero element when
x = yz with zy = 0; then automatically x² = 0 and x = [y, z].  In
zero-product balanced idempotent algebras the span of these elements equals
the whole commutator span; the containment span(factorizable) ⊆ span of
commutators holds unconditionally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from zpbal.algebra import Algebra, Element, commutator
from zpbal.config import DEFAULT_CONFIG, SweepConfig
from zpbal.errors import SoundnessAlarm
from zpbal.linalg import SpanBuilder, Subspace
from zpbal.sweep import LEFT, AnnihilatorSweep, projective_points, random_elements, structured_elements
from zpbal.tensorsquare import (
    EXACT,
    LOWER_BOUND,
    YES,
    ZeroProductSpanReport,
    compute_zero_product_span,
    is_zero_product_balanced,
)


def commutator_span(algebra: Algebra) -> Subspace:
    """Span of [e_i, e_j] over basis pairs (sufficient by bilinearity)."""
    f = algebra.field
    d = algebra.dim
    builder = SpanBuilder(f, d)
    for i in range(d):
        for j in range(i + 1, d):
            diff = [f.sub(a, b) for a, b in zip(algebra.table[i][j], algebra.table[j][i])]
            builder.add(diff)
    return builder.to_subspace()


@dataclass
class FactorizableWitness:
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


@dataclass
class FactorizableSpanReport:
    subspace: Subspace
    status: str  # EXACT / LOWER_BOUND
    witnesses: List[FactorizableWitness]  # one per retained generator


def factorizable_square_zero_span(
    algebra: Algebra, config: SweepConfig = DEFAULT_CONFIG
) -> FactorizableSpanReport:
    """Span of {yz : zy = 0}; exhaustive over finite algebras within budget.

    For fixed y the eligible products form a subspace (the image of the left
    annihilator of y under left multiplication by y), so sweeping y suffices;
    the annihilator sweep (see `zpbal.sweep`) visits projective points only
    and skips y whose products were all offered already.  Each yz equals
    [y, z], so the sweep stops once the span reaches the commutator span.
    """
    f = algebra.field
    d = algebra.dim
    ceiling = commutator_span(algebra).dim
    builder = SpanBuilder(f, d)
    witnesses: List[FactorizableWitness] = []
    sweep = AnnihilatorSweep(algebra, LEFT)

    def offer(y) -> int:
        added = 0
        for z in sweep.visit(y):
            x = algebra.multiply_coords(y, z)
            if builder.add(x):
                w = FactorizableWitness(x=algebra.element(x), y=algebra.element(y), z=algebra.element(z))
                if not w.verify():
                    raise SoundnessAlarm("factorizable witness failed re-verification")
                witnesses.append(w)
                added += 1
        return added

    size = algebra.n_elements()
    if size is not None and size <= config.enumeration_cap:
        for y in projective_points(algebra):
            if builder.dim >= ceiling:
                break
            offer(y)
        status = EXACT
    else:
        for y in structured_elements(algebra, idempotent_pairs=False):
            offer(y)
        stall = 0
        for y in random_elements(f, d, config.seed):
            if stall >= config.stall_rounds or builder.dim >= ceiling:
                break
            stall = 0 if offer(y) else stall + 1
        status = LOWER_BOUND
    return FactorizableSpanReport(subspace=builder.to_subspace(), status=status, witnesses=witnesses)


@dataclass
class SpanEqualityReport:
    """Comparison of the commutator span with the factorizable square-zero span."""

    commutator_dim: int
    factorizable_dim: int
    factorizable_status: str
    containment_ok: bool  # factorizable span inside commutator span (unconditional)
    applicable: bool  # balanced YES and idempotent
    equal: Optional[bool]  # None when the factorizable span is only a lower bound
    balanced_status: str
    is_idempotent: bool


def check_span_equality(
    algebra: Algebra,
    config: SweepConfig = DEFAULT_CONFIG,
    span_report: Optional[ZeroProductSpanReport] = None,
) -> SpanEqualityReport:
    """Where balancedness and idempotency hold, the two spans must coincide;
    a verified counterexample would be a soundness alarm."""
    if span_report is None:
        span_report = compute_zero_product_span(algebra, config)
    balanced = is_zero_product_balanced(algebra, span_report)
    comm = commutator_span(algebra)
    fact = factorizable_square_zero_span(algebra, config)
    containment = comm.contains_subspace(fact.subspace)
    if not containment:
        raise SoundnessAlarm("factorizable square-zero span escapes the commutator span")
    idem = algebra.predicates().is_idempotent
    applicable = balanced.status == YES and idem
    equal: Optional[bool]
    if fact.status == EXACT:
        equal = comm.dim == fact.subspace.dim
        if applicable and not equal:
            raise SoundnessAlarm(
                "balanced idempotent algebra with exact spans violating span equality"
            )
    else:
        equal = True if comm.dim == fact.subspace.dim else None
    return SpanEqualityReport(
        commutator_dim=comm.dim,
        factorizable_dim=fact.subspace.dim,
        factorizable_status=fact.status,
        containment_ok=containment,
        applicable=applicable,
        equal=equal,
        balanced_status=balanced.status,
        is_idempotent=idem,
    )
