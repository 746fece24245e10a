"""Deciders against independent brute-force oracles.

Derived expectations (span dimensions, kernel dimensions) were computed with
the all-pairs enumeration oracles in oracles.py and are asserted both against
the frozen numbers and against a live oracle run, so a regression in either
side is caught.
"""

import pytest

from oracles import (
    brute_mul_kernel_dim,
    brute_span_dim_zero_products,
    in_span_mod_p,
    brute_zero_product_tensors,
)
from references import balanced_defect
from zpbal.errors import MalformedCertificate
from zpbal.fields import PrimeField, QQ
from zpbal.algebra import (
    direct_sum,
    function_algebra,
    matrix_algebra,
    nilpotent_algebra,
    poly_quotient_algebra,
    scalar_algebra,
    tensor_product,
    zero_algebra,
)
from zpbal.config import SweepConfig
from zpbal.tensorsquare import (
    Certificate,
    MEMBERSHIP,
    compute_zero_product_span,
    is_zero_product_balanced,
    is_zero_product_determined,
    verify_certificate,
)

F2 = PrimeField(2)
F3 = PrimeField(3)


def test_mul_map_matches_table():
    n3 = nilpotent_algebra(F2, 3)
    span = compute_zero_product_span(n3)
    ts = span.tensor
    for i in range(n3.dim):
        for j in range(n3.dim):
            ei = [1 if t == i else 0 for t in range(n3.dim)]
            ej = [1 if t == j else 0 for t in range(n3.dim)]
            assert ts.apply_mul(ts.tensor_coords(ei, ej)) == n3.table[i][j]


@pytest.mark.parametrize(
    "builder,expected_span,expected_kernel",
    [
        (lambda: nilpotent_algebra(F2, 3), 3, 3),
        (lambda: nilpotent_algebra(F2, 4), 6, 7),
        (lambda: matrix_algebra(F2, 2), 12, 12),
    ],
)
def test_exact_span_dims_against_oracle(builder, expected_span, expected_kernel):
    alg = builder()
    assert brute_span_dim_zero_products(alg) == expected_span
    assert brute_mul_kernel_dim(alg) == expected_kernel
    span = compute_zero_product_span(alg)
    assert span.status == "EXACT"
    assert span.dim == expected_span
    assert span.kernel_dim == expected_kernel


def test_n3_span_is_exactly_the_annihilator_tensors():
    # span{x⊗x^2, x^2⊗x, x^2⊗x^2}: unit vectors at flat positions 1, 2, 3
    n3 = nilpotent_algebra(F2, 3)
    span = compute_zero_product_span(n3)
    assert span.subspace.basis == [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


def test_kernel_of_n3_multiplication():
    # the multiplication map of the order-3 nilpotent algebra over F2 has a
    # 3-dimensional kernel inside the 4-dimensional tensor square
    n3 = nilpotent_algebra(F2, 3)
    span = compute_zero_product_span(n3)
    assert span.tensor.ambient == 4
    assert span.tensor.kernel().dim == 3


def test_generators_are_zero_product_pairs():
    for alg in (nilpotent_algebra(F2, 4), matrix_algebra(F2, 2),
                function_algebra(QQ, 2)):
        span = compute_zero_product_span(alg)
        for u, v in span.generators:
            assert all(a == 0 for a in alg.multiply_coords(u, v))
        # the span always sits inside the multiplication kernel
        for row in span.subspace.basis:
            assert all(a == 0 for a in span.tensor.apply_mul(row))


def test_determined_verdicts():
    n3 = nilpotent_algebra(F2, 3)
    assert is_zero_product_determined(n3, compute_zero_product_span(n3)).status == "YES"

    n4 = nilpotent_algebra(F2, 4)
    span4 = compute_zero_product_span(n4)
    v4 = is_zero_product_determined(n4, span4)
    assert v4.status == "NO"
    assert v4.witness is not None
    # the witness is in the kernel and outside the span
    assert all(a == 0 for a in span4.tensor.apply_mul(v4.witness))
    assert not span4.subspace.contains_vector(v4.witness)
    assert verify_certificate(n4, v4.certificate)


def test_commutator_tensor_escapes_span_in_n4():
    # x^2⊗x - x⊗x^2 lies in the kernel but outside the zero-product span
    n4 = nilpotent_algebra(F2, 4)
    d = n4.dim
    span = compute_zero_product_span(n4)
    t = [0] * (d * d)
    t[1 * d + 0] = 1
    t[0 * d + 1] = 1  # -1 == 1 over F2
    assert all(a == 0 for a in span.tensor.apply_mul(t))
    assert not span.subspace.contains_vector(t)
    # against the oracle too
    assert not in_span_mod_p(brute_zero_product_tensors(n4), t, 2)


def test_balanced_verdicts_with_certificates():
    n3 = nilpotent_algebra(F2, 3)
    span = compute_zero_product_span(n3)
    verdict = is_zero_product_balanced(n3, span, with_certificates=True)
    assert verdict.status == "YES"
    assert all(verify_certificate(n3, c) for c in verdict.certificates)

    n4 = nilpotent_algebra(F2, 4)
    span4 = compute_zero_product_span(n4)
    v4 = is_zero_product_balanced(n4, span4)
    assert v4.status == "NO"
    assert v4.witness_triple == (0, 0, 0)  # the generator cubed
    assert verify_certificate(n4, v4.certificate)


def test_balanced_but_not_determined():
    f4 = poly_quotient_algebra(F2, [1, 1, 1])
    a = tensor_product(f4, nilpotent_algebra(F2, 3))
    span = compute_zero_product_span(a)
    assert span.status == "EXACT"
    assert is_zero_product_balanced(a, span).status == "YES"
    verdict = is_zero_product_determined(a, span)
    assert verdict.status == "NO"
    assert verify_certificate(a, verdict.certificate)


def test_unknown_over_rationals():
    n4 = nilpotent_algebra(QQ, 4)
    span = compute_zero_product_span(n4)
    assert span.status == "LOWER_BOUND"
    assert is_zero_product_balanced(n4, span).status == "UNKNOWN"
    assert is_zero_product_determined(n4, span).status == "UNKNOWN"


def test_lower_bound_reaching_ceiling_decides():
    # over Q the basis-pair generators already exhaust the kernel here
    kk = function_algebra(QQ, 2)
    span = compute_zero_product_span(kk)
    assert span.status == "LOWER_BOUND"
    assert span.is_complete
    assert is_zero_product_determined(kk, span).status == "YES"
    assert is_zero_product_balanced(kk, span).status == "YES"


def test_zero_multiplication_algebra():
    z = zero_algebra(F3, 2)
    span = compute_zero_product_span(z)
    assert span.dim == span.kernel_dim == 4
    assert is_zero_product_determined(z, span).status == "YES"
    assert is_zero_product_balanced(z, span).status == "YES"


def test_balanced_defect():
    m2 = matrix_algebra(F2, 2)
    total, excess = balanced_defect(m2, compute_zero_product_span(m2))
    assert excess == 0

    n4 = nilpotent_algebra(F2, 4)
    total, excess = balanced_defect(n4, compute_zero_product_span(n4))
    assert excess == 1  # only the direction of x^2⊗x - x⊗x^2 is missing

    z = zero_algebra(F2, 1)
    _, excess = balanced_defect(z, compute_zero_product_span(z))
    assert excess == 0


def test_membership_certificate_roundtrip_and_corruption():
    # telescoping decomposition in K x K: (1,0)⊗(1,1) - (1,1)⊗(1,0)
    kk = function_algebra(QQ, 2)
    f = QQ
    one = f.one
    target = [f.zero] * 4
    target[0 * 2 + 0] = f.add(target[0], f.zero)
    # (1,0)⊗(1,1) has entries at (0,0), (0,1); (1,1)⊗(1,0) at (0,0), (1,0)
    target = [f.zero, one, f.neg(one), f.zero]
    cert = Certificate(
        kind=MEMBERSHIP,
        target=target,
        terms=[(one, (one, f.zero), (f.zero, one)),
               (f.neg(one), (f.zero, one), (one, f.zero))],
    )
    assert verify_certificate(kk, cert)
    # corrupt one coefficient: the weighted sum no longer matches
    bad = Certificate(kind=MEMBERSHIP, target=target,
                      terms=[(one, (one, f.zero), (f.zero, one)),
                             (one, (f.zero, one), (one, f.zero))])
    assert not verify_certificate(kk, bad)
    # a term that is not a zero-product pair is rejected
    bad2 = Certificate(kind=MEMBERSHIP, target=[f.zero] * 4,
                       terms=[(one, (one, f.zero), (one, f.zero))])
    assert not verify_certificate(kk, bad2)


def test_hand_separating_functional_for_n4():
    # the coordinate functional at x^2⊗x kills every zero-product tensor of the
    # order-4 nilpotent algebra but not x^2⊗x - x⊗x^2
    n4 = nilpotent_algebra(F2, 4)
    d = n4.dim
    span = compute_zero_product_span(n4)
    target = [0] * (d * d)
    target[1 * d + 0] = 1
    target[0 * d + 1] = 1
    functional = [0] * (d * d)
    functional[1 * d + 0] = 1
    cert = Certificate(kind="separating-functional", target=target,
                       functional=functional, generators=list(span.generators))
    assert verify_certificate(n4, cert)


def test_malformed_certificates():
    kk = function_algebra(F2, 2)
    with pytest.raises(MalformedCertificate):
        verify_certificate(kk, Certificate(kind="membership-decomposition", target=[0, 0]))
    with pytest.raises(MalformedCertificate):
        verify_certificate(kk, Certificate(kind="separating-functional",
                                           target=[0, 0, 0, 0], functional=None))
    with pytest.raises(MalformedCertificate):
        verify_certificate(kk, Certificate(kind="nonsense", target=[0, 0, 0, 0]))


def test_triple_certificates_are_bound_to_their_defect_tensor():
    m2 = matrix_algebra(F2, 2)
    span = compute_zero_product_span(m2)
    certs = is_zero_product_balanced(m2, span, with_certificates=True).certificates
    cert = next(c for c in certs if c.terms)
    assert verify_certificate(m2, cert)
    # the same decomposition, stored without its target, still proves its triple
    assert verify_certificate(m2, Certificate(MEMBERSHIP, None, cert.terms, meta=cert.meta))
    # a stored target that is not the triple's defect tensor is refused, not an error
    altered = [1 - a for a in cert.target]
    assert verify_certificate(m2, Certificate(MEMBERSHIP, altered, cert.terms, meta=cert.meta)) is False
    other = next(c for c in certs if c.target != cert.target)
    forged = Certificate(MEMBERSHIP, other.target, other.terms, meta=cert.meta)
    assert verify_certificate(m2, Certificate(MEMBERSHIP, other.target, other.terms)) is True
    assert verify_certificate(m2, forged) is False
    # an empty decomposition proves only a zero defect
    assert verify_certificate(m2, Certificate(MEMBERSHIP, None, [], meta=cert.meta)) is False
    with pytest.raises(MalformedCertificate):
        verify_certificate(m2, Certificate(MEMBERSHIP, None, [], meta={"triple": [0, 0, 4]}))
    with pytest.raises(MalformedCertificate):
        verify_certificate(m2, Certificate(MEMBERSHIP, None, []))


def test_certificate_json_roundtrip():
    n4 = nilpotent_algebra(F3, 4)
    span = compute_zero_product_span(n4)
    verdict = is_zero_product_balanced(n4, span)
    cert = verdict.certificate
    table = []  # the file's generator table; this one repeats equal pairs
    data = cert.to_dict(F3, lambda pair: table.append(pair) or len(table) - 1)
    assert data["generators"] == list(range(len(span.generators)))
    back = Certificate.from_dict(data, F3, table)
    assert back.kind == cert.kind
    assert back.target == cert.target
    assert back.functional == cert.functional
    assert back.generators == cert.generators
    assert verify_certificate(n4, back)


def test_enumeration_cap_forces_lower_bound():
    m2 = matrix_algebra(F2, 2)
    span = compute_zero_product_span(m2, SweepConfig(enumeration_cap=8))
    assert span.status == "LOWER_BOUND"
    # the structured sweep still reaches the ceiling here, so verdicts stay decisive
    assert span.is_complete
    assert is_zero_product_balanced(m2, span).status == "YES"


def test_direct_sum_with_unbalanced_summand():
    a = direct_sum(function_algebra(F3, 2), nilpotent_algebra(F3, 4))
    span = compute_zero_product_span(a)
    assert span.status == "EXACT"
    assert is_zero_product_balanced(a, span).status == "NO"
    assert is_zero_product_determined(a, span).status == "NO"


def test_zpd_implies_balanced_across_small_corpus():
    for alg in (nilpotent_algebra(F2, 3), matrix_algebra(F2, 2), function_algebra(F3, 2),
                zero_algebra(F2, 2), direct_sum(scalar_algebra(F2), nilpotent_algebra(F2, 3))):
        span = compute_zero_product_span(alg)
        zpd = is_zero_product_determined(alg, span)
        bal = is_zero_product_balanced(alg, span)
        if zpd.status == "YES":
            assert bal.status == "YES"
        if bal.status == "NO":
            assert zpd.status == "NO"
