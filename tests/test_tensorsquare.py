"""Deciders against independent brute-force oracles.

Derived expectations (span dimensions, kernel dimensions) were computed with
the all-pairs enumeration oracles in oracles.py and are asserted both against
the frozen numbers and against a live oracle run, so a regression in either
side is caught.
"""

import json
import random

import pytest

from oracles import (
    brute_mul_kernel_dim,
    brute_span_dim_zero_products,
    in_span_mod_p,
    brute_zero_product_tensors,
    certificate_to_dict,
    certificates_to_dict,
    random_change_of_basis,
    reference_balanced,
)
from references import SHAPES, DenseTensorSquare, balanced_defect, dense_kernel, random_algebra
from zpbal.corpus import golden_corpus
from zpbal.errors import MalformedCertificate
from zpbal.fields import PrimeField
from zpbal.rationals import QQ
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
from zpbal.config import DEFAULT_CONFIG, SweepConfig
from zpbal.linalg import Matrix, SpanBuilder, _dense, _sparse
from zpbal.tensorsquare import (
    Certificate,
    MEMBERSHIP,
    SEPARATING,
    ZeroProductSpanReport,
    _apply_mul,
    _multiplication_rows,
    compute_zero_product_span,
    is_zero_product_balanced,
    is_zero_product_determined,
    verify_certificate,
)

F2 = PrimeField(2)
F3 = PrimeField(3)


def _mul_map_cases():
    """The golden corpus and the random algebras of every shape, each also in a
    random basis."""
    rng = random.Random(21)
    cases = [(e.name, e.algebra, e.config) for e in golden_corpus()]
    cases += [(f"{shape}/{field.name}/{seed}", random_algebra(seed, field, shape), DEFAULT_CONFIG)
              for field in (F2, F3, QQ) for shape in SHAPES for seed in range(3)]
    for name, alg, config in cases:
        yield name, alg, config
        yield f"{name} rebased", random_change_of_basis(alg, rng), config


def test_mul_map_matches_table():
    """μ read as sparse rows of the structure constants gives the dense d × d²
    reference's kernel dimension, kernel basis, products and determination
    witness, and the span's complement functionals are the dense null space
    of its basis."""
    rng = random.Random(3)
    for name, alg, config in _mul_map_cases():
        f, d = alg.field, alg.dim
        ts = DenseTensorSquare(alg)
        rows = _multiplication_rows(alg)
        kernel = ts.kernel()
        span = compute_zero_product_span(alg, config)
        assert span.kernel_dim == ts.kernel_dim() == len(kernel), name
        assert SpanBuilder(f, d * d, rows).null_space().basis == kernel, name
        for i in range(d):
            for j in range(d):
                ei = [f.one if t == i else f.zero for t in range(d)]
                ej = [f.one if t == j else f.zero for t in range(d)]
                assert _apply_mul(alg, _sparse(ts.tensor_coords(ei, ej), d * d)) == alg.table[i][j], name
        for _ in range(4):
            t = [f.of_int(rng.randint(-2, 2)) if rng.random() < 0.4 else f.zero for _ in range(d * d)]
            assert _apply_mul(alg, _sparse(t, d * d)) == ts.apply_mul(t), name
        basis = span.subspace.basis
        assert span.subspace.complement_functionals() == dense_kernel(Matrix(f, basis, cols=d * d)), name
        determined = is_zero_product_determined(alg, span)
        if determined.status == "NO":  # the first dense kernel vector outside the span
            witness = determined.certificates[0].target
            assert witness == next(v for v in kernel if not span.subspace.contains_vector(v)), name


def test_a_check_reduces_the_multiplication_map_once(monkeypatch):
    """The span report keeps the row space of μ, and the determined decider
    reads its kernel from it: a check that refutes determination reads μ's
    rows once."""
    calls = []
    monkeypatch.setattr("zpbal.tensorsquare._multiplication_rows",
                        lambda alg: calls.append(alg) or _multiplication_rows(alg))
    n4 = nilpotent_algebra(F2, 4)
    span = compute_zero_product_span(n4)
    assert is_zero_product_balanced(n4, span).status == is_zero_product_determined(n4, span).status == "NO"
    assert calls == [n4]


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
    assert span.kernel_dim == 3
    assert DenseTensorSquare(n3).ambient == 4
    assert len(DenseTensorSquare(n3).kernel()) == 3


def test_generators_are_zero_product_pairs():
    for alg in (nilpotent_algebra(F2, 4), matrix_algebra(F2, 2),
                function_algebra(QQ, 2)):
        span = compute_zero_product_span(alg)
        for u, v in span.generators:
            assert all(a == 0 for a in alg.multiply_coords(u, v))
        # the span always sits inside the multiplication kernel
        for row in span.subspace.basis:
            assert all(a == 0 for a in DenseTensorSquare(alg).apply_mul(row))


def test_determined_verdicts():
    n3 = nilpotent_algebra(F2, 3)
    assert is_zero_product_determined(n3, compute_zero_product_span(n3)).status == "YES"

    n4 = nilpotent_algebra(F2, 4)
    span4 = compute_zero_product_span(n4)
    v4 = is_zero_product_determined(n4, span4)
    assert v4.status == "NO"
    [cert] = v4.certificates
    # the witness is in the kernel and outside the span
    assert all(a == 0 for a in DenseTensorSquare(n4).apply_mul(cert.target))
    assert not span4.subspace.contains_vector(cert.target)
    assert verify_certificate(n4, cert)


def test_commutator_tensor_escapes_span_in_n4():
    # x^2⊗x - x⊗x^2 lies in the kernel but outside the zero-product span
    n4 = nilpotent_algebra(F2, 4)
    d = n4.dim
    span = compute_zero_product_span(n4)
    t = [0] * (d * d)
    t[1 * d + 0] = 1
    t[0 * d + 1] = 1  # -1 == 1 over F2
    assert all(a == 0 for a in DenseTensorSquare(n4).apply_mul(t))
    assert not span.subspace.contains_vector(t)
    # against the oracle too
    assert not in_span_mod_p(brute_zero_product_tensors(n4), t, 2)


def test_balanced_verdicts_with_certificates():
    n3 = nilpotent_algebra(F2, 3)
    span = compute_zero_product_span(n3)
    verdict = is_zero_product_balanced(n3, span)
    assert verdict.status == "YES"
    assert all(verify_certificate(n3, c) for c in verdict.certificates)

    n4 = nilpotent_algebra(F2, 4)
    span4 = compute_zero_product_span(n4)
    v4 = is_zero_product_balanced(n4, span4)
    assert v4.status == "NO"
    [cert] = v4.certificates
    assert cert.meta["triple"] == [0, 0, 0]  # the generator cubed
    assert verify_certificate(n4, cert)


def test_balanced_but_not_determined():
    f4 = poly_quotient_algebra(F2, [1, 1, 1])
    a = tensor_product(f4, nilpotent_algebra(F2, 3))
    span = compute_zero_product_span(a)
    assert span.status == "EXACT"
    assert is_zero_product_balanced(a, span).status == "YES"
    verdict = is_zero_product_determined(a, span)
    assert verdict.status == "NO"
    assert verify_certificate(a, verdict.certificates[0])


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
                       functional=functional, generators=list(span.generators),
                       meta={"claim": "not-zero-product-determined"})
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


def test_certificates_do_not_share_default_lists():
    first, second = Certificate(MEMBERSHIP, None), Certificate(SEPARATING, None)
    first.terms.append((1, (1,), (0,)))
    first.generators.append(((1,), (0,)))
    first.meta["triple"] = [0, 0, 0]
    assert (second.terms, second.generators, second.meta) == ([], [], {})
    assert first.terms is not second.terms and first.meta is not second.meta


def test_triple_certificates_are_bound_to_their_defect_tensor():
    m2 = matrix_algebra(F2, 2)
    span = compute_zero_product_span(m2)
    certs = is_zero_product_balanced(m2, span).certificates
    cert = next(c for c in certs if c.terms)
    assert verify_certificate(m2, cert)
    # the same decomposition, stored without its target, still proves its triple
    assert verify_certificate(m2, Certificate(MEMBERSHIP, None, cert.terms, meta=cert.meta))
    # a stored target that is not the triple's defect tensor is refused, not an error
    altered = [1 - a for a in cert.target]
    assert verify_certificate(m2, Certificate(MEMBERSHIP, altered, cert.terms, meta=cert.meta)) is False
    other = next(c for c in certs if c.target not in (None, cert.target))
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
    [cert] = verdict.certificates
    table = []  # the file's generator table; this one repeats equal pairs
    data = certificate_to_dict(cert, F3, lambda pair: table.append(pair) or len(table) - 1)
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


def _balanced_oracle_cases():
    yield from ((e.name, e.algebra, e.config) for e in golden_corpus() if e.algebra.field.is_finite())
    for field in (F2, F3, QQ):
        for shape in SHAPES:
            for seed in range(3):
                yield f"{shape}/{field.name}/{seed}", random_algebra(seed, field, shape), DEFAULT_CONFIG
    yield "M4/F2", matrix_algebra(F2, 4), SweepConfig(seed=7)
    yield "M3(N3)/F2", matrix_over(nilpotent_algebra(F2, 3), 3), SweepConfig(seed=7)
    yield "N8/Q", nilpotent_algebra(QQ, 8), SweepConfig(seed=7)  # UNKNOWN: a lower-bound span
    yield "N9/F3 cap 3^7", nilpotent_algebra(F3, 9), SweepConfig(enumeration_cap=3 ** 7, seed=7)  # UNKNOWN


def test_balanced_decider_equals_the_two_step_reference():
    """One reduction per triple gives the verdict, note and certificate file
    (with a NO's refuted triple) of the former route: a membership test, then a decomposition."""
    verdicts, unknown_finite = set(), set()
    for name, alg, config in _balanced_oracle_cases():
        span = compute_zero_product_span(alg, config)
        got = is_zero_product_balanced(alg, span)
        want = reference_balanced(alg, span)
        assert (got.status, got.note) == (want.status, want.note), name
        files = [json.dumps(certificates_to_dict(v.certificates, alg.field, config.seed, name,
                                                 balanced=v.status), sort_keys=True) for v in (got, want)]
        assert files[0] == files[1], name
        if got.status == "UNKNOWN":  # an UNKNOWN carries no certificate
            assert got.certificates == [], name
            unknown_finite.add(alg.field.is_finite())
        verdicts.add(got.status)
    assert verdicts == {"YES", "NO", "UNKNOWN"}
    assert unknown_finite == {True, False}  # the notes of both causes were compared


def test_balanced_decider_reduces_each_distinct_defect_once(monkeypatch):
    """A YES asks the span for one decomposition per distinct nonzero defect;
    a triple whose defect repeats reuses it, and only the defect's first
    certificate stores the target."""
    reduced = []
    terms = ZeroProductSpanReport.membership_terms
    monkeypatch.setattr(ZeroProductSpanReport, "membership_terms",
                        lambda self, t: reduced.append(dict(t)) or terms(self, t))
    cases = [(e.name, e.algebra, e.config) for e in golden_corpus() if e.algebra.field.is_finite()]
    cases += [(f"{shape}/{field.name}/{seed}", random_algebra(seed, field, shape), DEFAULT_CONFIG)
              for field in (F2, F3, QQ) for shape in SHAPES for seed in range(3)]
    repeats = 0
    for name, alg, config in cases:
        span = compute_zero_product_span(alg, config)
        reduced.clear()
        verdict = is_zero_product_balanced(alg, span)
        if verdict.status != "YES":
            continue
        ts = DenseTensorSquare(alg)
        defects = [tuple(ts.defect_tensor(*c.meta["triple"])) for c in verdict.certificates]
        distinct = {t for t in defects if any(t)}
        assert len(reduced) == len(distinct), name
        assert {tuple(_dense(alg.field, t, alg.dim ** 2)) for t in reduced} == distinct, name
        stored = [t for t, c in zip(defects, verdict.certificates) if c.target is not None]
        assert sorted(stored) == sorted(distinct), name
        repeats += sum(map(any, defects)) - len(distinct)
    assert repeats > 0  # some input repeats a defect
