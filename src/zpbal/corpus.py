"""Built-in golden corpus and its suite runner (`zpbal corpus run`).

Each corpus entry pins expected verdicts with a provenance note saying how
the expectation was obtained ("known": a worked example family with published
behaviour; "derived": re-derived here by independent enumeration; "trivial":
immediate from the definitions).  The suite runner re-checks every
expectation against the engines and re-verifies every emitted certificate.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from zpbal.algebra import Algebra
from zpbal.config import DEFAULT_CONFIG, SweepConfig
from zpbal.constructions import (
    direct_sum,
    function_algebra,
    matrix_algebra,
    matrix_over,
    nilpotent_algebra,
    poly_quotient_algebra,
    scalar_algebra,
    tensor_product,
    zero_algebra,
)
from zpbal.fields import PrimeField
from zpbal.rationals import QQ
from zpbal.tensorsquare import (
    NO,
    SEPARATING,
    YES,
    Certificate,
    compute_zero_product_span,
    is_zero_product_balanced,
    is_zero_product_determined,
    verify_certificate,
)

F2 = PrimeField(2)
F3 = PrimeField(3)


class CorpusEntry(NamedTuple):
    name: str
    algebra: Algebra
    expected: Dict[str, object]
    provenance: Dict[str, str]
    config: SweepConfig
    hand_certificates: List[Tuple[str, Certificate, bool]]  # (label, certificate, expected verdict)


def _separating_certificate(algebra: Algebra, span_generators, a: int) -> Certificate:
    """Hand refutation of zero-product determination: the coordinate
    functional at e_a⊗e_0 separates e_a⊗e_0 - e_0⊗e_a from every
    zero-product tensor.

    a = 1 for the one-generator nilpotent families of order >= 5 (x^2⊗x -
    x⊗x^2); a = 2 for D ⊗ (order-3 nilpotent) with D = Q[t]/(t^2-2), whose
    basis order is 1⊗x, 1⊗x^2, t⊗x, t⊗x^2 ((t⊗x)⊗(1⊗x) - (1⊗x)⊗(t⊗x))."""
    f = algebra.field
    d = algebra.dim
    target = [f.zero] * (d * d)
    target[a * d] = f.one
    target[a] = f.neg(f.one)
    functional = [f.zero] * (d * d)
    functional[a * d] = f.one
    return Certificate(
        kind=SEPARATING,
        target=target,
        functional=functional,
        generators=list(span_generators),
        meta={"claim": "not-zero-product-determined", "construction": "hand"},
    )


def golden_corpus() -> List[CorpusEntry]:
    entries: List[CorpusEntry] = []

    def add(name, algebra, expected, provenance, config=DEFAULT_CONFIG):
        entry = CorpusEntry(name=name, algebra=algebra, expected=expected,
                            provenance=provenance, config=config, hand_certificates=[])
        entries.append(entry)
        return entry

    for fld, fname in ((F2, "F2"), (F3, "F3"), (QQ, "Q")):
        add(f"N2/{fname}", nilpotent_algebra(fld, 2),
            {"balanced": "YES", "zpd": "YES"},
            {"balanced": "trivial: zero multiplication", "zpd": "trivial: kernel equals the span"})
        add(f"N3/{fname}", nilpotent_algebra(fld, 3),
            {"balanced": "YES", "zpd": "YES"},
            {"balanced": "known: order-3 nilpotent family", "zpd": "known: order-3 nilpotent family"})
    for fld, fname in ((F2, "F2"), (F3, "F3")):
        for m in (4, 5):
            add(f"N{m}/{fname}", nilpotent_algebra(fld, m),
                {"balanced": "NO", "zpd": "NO"},
                {"balanced": "known: nilpotent family fails from order 4 on",
                 "zpd": "known: x^2⊗x - x⊗x^2 escapes the span"})
    for m in (4, 5):
        alg = nilpotent_algebra(QQ, m)
        entry = add(f"N{m}/Q", alg,
                    {"balanced": "UNKNOWN", "zpd": "UNKNOWN"},
                    {"balanced": "derived: refutation needs an exhaustive span, impossible over Q",
                     "zpd": "derived: engine stays honest over Q; hand functional refutes externally"})
        span = compute_zero_product_span(alg)
        entry.hand_certificates.append(
            ("hand separating functional", _separating_certificate(alg, span.generators, 1), True)
        )

    add("N4/F2:dims", nilpotent_algebra(F2, 4),
        {"z2_dim": 6, "kernel_dim": 7},
        {"z2_dim": "derived: 64-pair enumeration oracle", "kernel_dim": "derived: rank of the product table"})

    f4 = poly_quotient_algebra(F2, [1, 1, 1])
    add("F4⊗N3/F2", tensor_product(f4, nilpotent_algebra(F2, 3)),
        {"balanced": "YES", "zpd": "NO"},
        {"balanced": "known: triple products vanish", "zpd": "known: commutator tensor escapes the span"})

    dq = poly_quotient_algebra(QQ, [-2, 0, 1])
    dn3 = tensor_product(dq, nilpotent_algebra(QQ, 3))
    entry = add("D⊗N3/Q", dn3,
                {"balanced": "YES", "zpd": "UNKNOWN"},
                {"balanced": "known: triple products vanish",
                 "zpd": "derived: refutation over Q only via the hand functional"})
    span = compute_zero_product_span(dn3)
    entry.hand_certificates.append(
        ("hand separating functional", _separating_certificate(dn3, span.generators, 2), True)
    )

    add("M2/F2", matrix_algebra(F2, 2), {"balanced": "YES", "zpd": "YES"},
        {"balanced": "known: matrix algebras", "zpd": "known: unital balanced"})
    add("M2/F3", matrix_algebra(F3, 2), {"balanced": "YES", "zpd": "YES"},
        {"balanced": "known: matrix algebras", "zpd": "known: unital balanced"})
    add("M3/F2", matrix_algebra(F2, 3), {"balanced": "YES", "zpd": "YES"},
        {"balanced": "known: matrix algebras", "zpd": "known: unital balanced"})
    add("M3/F3", matrix_algebra(F3, 3), {"balanced": "YES", "zpd": "YES"},
        {"balanced": "known: matrix algebras", "zpd": "known: unital balanced"},
        config=SweepConfig(enumeration_cap=3 ** 9))
    add("M2(N3)/F2", matrix_over(nilpotent_algebra(F2, 3), 2),
        {"balanced": "YES", "zpd": "YES", "z2_dim": 60, "kernel_dim": 60},
        {"balanced": "known: matrix algebras over nonunital coefficients",
         "zpd": "derived: independent 65536-pair enumeration gives span 60 = kernel 60",
         "z2_dim": "derived: independent pair enumeration",
         "kernel_dim": "derived: rank of the product table"})

    add("F2^3", function_algebra(F2, 3), {"balanced": "YES", "zpd": "YES"},
        {"balanced": "trivial: spanned by idempotents", "zpd": "trivial: unital"})
    add("F3^2", function_algebra(F3, 2), {"balanced": "YES", "zpd": "YES"},
        {"balanced": "trivial: spanned by idempotents", "zpd": "trivial: unital"})
    add("Q^2", function_algebra(QQ, 2), {"balanced": "YES", "zpd": "YES"},
        {"balanced": "trivial: spanned by idempotents", "zpd": "derived: span reaches the kernel ceiling"})

    add("F2×N3", direct_sum(scalar_algebra(F2), nilpotent_algebra(F2, 3)),
        {"balanced": "YES", "zpd": "YES"},
        {"balanced": "derived: 8-element sweep", "zpd": "derived: span dim 7 = kernel dim 7"})
    add("F3×F3×N4", direct_sum(function_algebra(F3, 2), nilpotent_algebra(F3, 4)),
        {"balanced": "NO", "zpd": "NO"},
        {"balanced": "derived: the order-4 summand defect survives",
         "zpd": "derived: refuted by the exhaustive span"})

    add("zero(1)/F2", zero_algebra(F2, 1), {"balanced": "YES", "zpd": "YES"},
        {"balanced": "trivial: zero multiplication", "zpd": "trivial: zero multiplication"})
    add("zero(2)/Q", zero_algebra(QQ, 2), {"balanced": "YES", "zpd": "YES"},
        {"balanced": "trivial: zero multiplication", "zpd": "trivial: zero multiplication"})

    add("F4/F2", f4, {"balanced": "NO", "zpd": "NO"},
        {"balanced": "derived: reduced but not spanned by idempotents",
         "zpd": "derived: exhaustive span is zero, kernel is not"})
    add("D/Q", dq, {"balanced": "UNKNOWN", "zpd": "UNKNOWN"},
        {"balanced": "derived: no refutation over an infinite field",
         "zpd": "derived: no refutation over an infinite field"})
    return entries


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------


class SuiteResult(NamedTuple):
    entry: str
    check: str
    passed: bool
    detail: str = ""


def run_entry_checks(entry: CorpusEntry) -> List[SuiteResult]:
    """Golden expectations, certificate round-trips, and implications for one entry."""
    results: List[SuiteResult] = []
    alg = entry.algebra
    span = compute_zero_product_span(alg, entry.config)
    balanced = is_zero_product_balanced(alg, span)
    zpd = is_zero_product_determined(alg, span)

    def check(name, passed, detail=""):
        results.append(SuiteResult(entry=entry.name, check=name, passed=passed, detail=detail))

    if "balanced" in entry.expected:
        check("balanced verdict", balanced.status == entry.expected["balanced"],
              f"got {balanced.status}, expected {entry.expected['balanced']}")
    if "zpd" in entry.expected:
        check("zpd verdict", zpd.status == entry.expected["zpd"],
              f"got {zpd.status}, expected {entry.expected['zpd']}")
    if "z2_dim" in entry.expected:
        check("span dim", span.dim == entry.expected["z2_dim"],
              f"got {span.dim}, expected {entry.expected['z2_dim']}")
    if "kernel_dim" in entry.expected:
        check("kernel dim", span.kernel_dim == entry.expected["kernel_dim"],
              f"got {span.kernel_dim}, expected {entry.expected['kernel_dim']}")

    # implication: determined implies balanced
    if zpd.status == YES:
        check("determined implies balanced", balanced.status == YES, balanced.status)
    # unital specialization: both verdicts coincide on complete spans
    if alg.predicates().is_unital and span.is_complete:
        check("unital: balanced iff determined", balanced.status == zpd.status,
              f"balanced {balanced.status} vs determined {zpd.status}")
    # every emitted certificate re-verifies
    if balanced.status == YES:
        ok = all(verify_certificate(alg, c) for c in balanced.certificates)
        check("membership certificates verify", ok, f"{len(balanced.certificates)} certificates")
    for label, verdict in (("separating certificate verifies", balanced),
                           ("determined refutation verifies", zpd)):
        if verdict.status == NO:
            check(label, verify_certificate(alg, verdict.certificates[0]))
    for label, cert, expected_ok in entry.hand_certificates:
        check(label, verify_certificate(alg, cert) == expected_ok)
    return results


def run_suites(name_filter: Optional[str] = None) -> List[SuiteResult]:
    results: List[SuiteResult] = []
    for entry in golden_corpus():
        if name_filter and name_filter not in entry.name:
            continue
        results.extend(run_entry_checks(entry))
    return results
