import pytest

from oracles import all_elements, enumerate_idempotents, mult
from zpbal.errors import BudgetExceeded, NotIdempotent
from zpbal.fields import PrimeField
from zpbal.rationals import QQ
from zpbal.linalg import Matrix
from zpbal.constructions import function_algebra, matrix_algebra, nilpotent_algebra
from zpbal.config import SweepConfig
from multiplier import (
    idempotent_generated_certificate,
    idempotent_transfer_witness,
    multiplier_algebra,
    transferable_elements,
)
from zpbal.tensorsquare import compute_zero_product_span, verify_certificate

F2 = PrimeField(2)
F3 = PrimeField(3)


def test_multiplier_of_unital_algebra_is_itself():
    m2 = matrix_algebra(F2, 2)
    m = multiplier_algebra(m2)
    assert m.dim == 4
    assert m.mu_kernel().dim == 0
    assert m.algebra.predicates().is_unital
    # the canonical map is multiplicative
    for i in range(4):
        for j in range(4):
            lhs = m.mu(m2.basis_element(i) * m2.basis_element(j))
            rhs = m.mu(m2.basis_element(i)) * m.mu(m2.basis_element(j))
            assert lhs == rhs


def test_multiplier_of_order3_nilpotent():
    # pairs are determined by L(x) = ax + bx^2, R(x) = ax + cx^2: dimension 3,
    # with x^2 mapping to zero under the canonical map
    n3 = nilpotent_algebra(QQ, 3)
    m = multiplier_algebra(n3)
    assert m.dim == 3
    assert m.mu(n3.basis_element(1)).is_zero()
    assert m.mu_kernel().dim == 1
    assert m.algebra.predicates().is_unital  # (id, id) is always a multiplier


def test_multiplier_of_function_algebra():
    kk = function_algebra(QQ, 2)
    m = multiplier_algebra(kk)
    assert m.dim == 2
    assert m.mu_kernel().dim == 0


def test_defining_identities_hold_on_carrier():
    n3 = nilpotent_algebra(F2, 3)
    m = multiplier_algebra(n3)
    d = n3.dim
    for vec in m.carrier.basis:
        L, R = m._split(vec)
        for i in range(d):
            ei = [F2.one if t == i else F2.zero for t in range(d)]
            for j in range(d):
                ej = [F2.one if t == j else F2.zero for t in range(d)]
                # x L(y) = R(x) y
                assert n3.multiply_coords(ei, L.column(j)) == n3.multiply_coords(R.column(i), ej)
                # L(xy) = L(x) y and R(xy) = x R(y)
                assert L.apply(n3.table[i][j]) == n3.multiply_coords(L.column(i), ej)
                assert R.apply(n3.table[i][j]) == n3.multiply_coords(ei, R.column(j))


def test_transferable_everything_when_balanced():
    m2 = matrix_algebra(F2, 2)
    span = compute_zero_product_span(m2)
    rep = transferable_elements(m2, span, "inner")
    assert rep.subspace.dim == m2.dim  # balanced algebras transfer everything
    assert rep.certified == "exact"
    assert rep.closed_under_products


def test_transferable_subspace_of_n4():
    # oracle: brute-force the transfer condition elementwise over all 8 elements
    n4 = nilpotent_algebra(F2, 4)
    span = compute_zero_product_span(n4)
    from oracles import brute_zero_product_tensors, in_span_mod_p, tensor_vec
    tensors = brute_zero_product_tensors(n4)
    d = n4.dim
    transferable = []
    for b in all_elements(n4):
        ok = True
        for a in all_elements(n4):
            for c in all_elements(n4):
                ab = mult(n4, a, b)
                bc = mult(n4, b, c)
                t = [(x - y) % 2 for x, y in
                     zip(tensor_vec(d, ab, c, 2), tensor_vec(d, a, bc, 2))]
                if any(t) and not in_span_mod_p(tensors, t, 2):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            transferable.append(b)
    assert sorted(transferable) == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)]

    rep = transferable_elements(n4, span, "inner")
    assert rep.subspace.basis == [[0, 1, 0], [0, 0, 1]]  # span{x^2, x^3}
    assert rep.closed_under_products


def test_transferable_certified_partial_over_rationals():
    n4 = nilpotent_algebra(QQ, 4)
    span = compute_zero_product_span(n4)
    assert span.status == "LOWER_BOUND" and not span.is_complete
    rep = transferable_elements(n4, span, "inner")
    assert rep.certified == "partial"
    # the partial solution set is still a certified subset of the true one
    assert rep.subspace.dim <= 2


def test_multiplier_idempotents_are_transferable():
    for alg in (nilpotent_algebra(F2, 3), function_algebra(F2, 2), matrix_algebra(F2, 2)):
        span = compute_zero_product_span(alg)
        m = multiplier_algebra(alg)
        rep = transferable_elements(alg, span, "multiplier", mult=m)
        idems = enumerate_idempotents(m)
        assert idems.exhaustive
        for e in idems.items:
            assert rep.subspace.contains_vector(list(e.coords))


def test_transfer_witness_in_kxk():
    kk = function_algebra(QQ, 2)
    e = kk.element([QQ.one, QQ.zero])
    a = kk.element([QQ.one, QQ.one])
    cert = idempotent_transfer_witness(kk, e, a, a)
    assert verify_certificate(kk, cert)
    assert cert.terms[0][1] == (QQ.one, QQ.zero)  # ae = (1,0)
    assert cert.terms[0][2] == (QQ.zero, QQ.one)  # c - ec = (0,1)


def test_transfer_witness_matrix_units():
    m2 = matrix_algebra(QQ, 2)
    e11 = m2.basis_element(0)
    cert = idempotent_transfer_witness(m2, e11, m2.basis_element(1), m2.basis_element(2))
    assert verify_certificate(m2, cert)


def test_transfer_witness_zero_idempotent():
    kk = function_algebra(F3, 2)
    cert = idempotent_transfer_witness(kk, kk.zero_element(), kk.basis_element(0),
                                       kk.basis_element(1))
    assert verify_certificate(kk, cert)


def test_transfer_witness_multiplier_pair():
    n3 = nilpotent_algebra(F2, 3)
    m = multiplier_algebra(n3)
    # the unit pair (id, id) is an idempotent multiplier
    ident = Matrix.identity(F2, n3.dim)
    cert = idempotent_transfer_witness(n3, (ident, ident), n3.basis_element(0),
                                       n3.basis_element(0))
    assert verify_certificate(n3, cert)


def test_transfer_witness_rejects_non_idempotent():
    m2 = matrix_algebra(QQ, 2)
    with pytest.raises(NotIdempotent):
        idempotent_transfer_witness(m2, m2.basis_element(1), m2.basis_element(0),
                                    m2.basis_element(0))


def test_enumerate_idempotents_counts():
    # oracle for M2(F2): sweep all 16 matrices
    m2 = matrix_algebra(F2, 2)
    expected = [u for u in all_elements(m2) if mult(m2, u, u) == u]
    assert len(expected) == 8
    il = enumerate_idempotents(m2)
    assert il.exhaustive and len(il.items) == 8

    kk = function_algebra(F2, 2)
    assert {tuple(e.coords) for e in enumerate_idempotents(kk).items} == {
        (0, 0), (1, 0), (0, 1), (1, 1)}

    n4 = nilpotent_algebra(F2, 4)
    il = enumerate_idempotents(n4)
    assert len(il.items) == 1 and il.items[0].is_zero()


def test_enumerate_idempotents_budget_and_registry():
    m2 = matrix_algebra(F2, 2)
    with pytest.raises(BudgetExceeded):
        enumerate_idempotents(m2, SweepConfig(enumeration_cap=8))
    m2q = matrix_algebra(QQ, 2)
    il = enumerate_idempotents(m2q)
    assert not il.exhaustive
    assert any(e.is_zero() for e in il.items)
    for e in il.items:
        assert (e * e) == e


def test_idempotent_generated_certificate():
    m2 = matrix_algebra(F2, 2)
    res = idempotent_generated_certificate(m2, m2.registered_idempotents)
    assert res.status == "CONTAINED"
    assert res.dimension_trace[-1] == 4

    kk = function_algebra(QQ, 2)
    res = idempotent_generated_certificate(kk, kk.registered_idempotents)
    assert res.status == "CONTAINED"

    n3 = nilpotent_algebra(QQ, 3)
    res = idempotent_generated_certificate(n3, [])
    assert res.status == "NOT_BY_THESE"
    assert res.missing_basis == [0]  # x is not reachable; x^2 dies under mu

    with pytest.raises(NotIdempotent):
        idempotent_generated_certificate(m2, [m2.basis_element(1)])


def test_contained_matches_balanced_verdict():
    # the idempotent route and the direct decider agree where both are certified
    from zpbal.tensorsquare import is_zero_product_balanced
    m2 = matrix_algebra(F3, 2)
    span = compute_zero_product_span(m2)
    assert span.status == "EXACT"
    assert is_zero_product_balanced(m2, span).status == "YES"
    assert idempotent_generated_certificate(m2, m2.registered_idempotents).status == "CONTAINED"
