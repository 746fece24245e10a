import random
from fractions import Fraction

import pytest

from oracles import brute_factorizable_elements, rank_mod_p
from references import factorizable_pair_product_span, matrix_trace
from zpbal.fields import PrimeField, QQ
from zpbal.algebra import (
    commutator,
    function_algebra,
    matrix_algebra,
    matrix_over,
    nilpotent_algebra,
    poly_quotient_algebra,
    scalar_algebra,
    tensor_product,
    zero_algebra,
)
from zpbal.squarezero import (
    check_span_equality,
    commutator_span,
    factorizable_square_zero_span,
)

F2 = PrimeField(2)
F3 = PrimeField(3)


def test_square_zero():
    def square_zero(a):
        return (a * a).is_zero()

    m2 = matrix_algebra(QQ, 2)
    assert square_zero(m2.basis_element(1))  # E12
    n3 = nilpotent_algebra(F2, 3)
    assert not square_zero(n3.basis_element(0))
    assert square_zero(n3.basis_element(1))
    ones = matrix_algebra(F2, 2).element([1, 1, 1, 1])
    assert square_zero(ones)  # (1 1; 1 1) squares to zero in characteristic 2


def test_commutator_span_m2():
    # trace-zero matrices: dimension 3
    m2 = matrix_algebra(F2, 2)
    span = commutator_span(m2)
    assert span.dim == 3
    assert span.contains_vector([1, 0, 0, 1])  # E11 + E22 = E11 - E22 over F2
    assert not span.contains_vector([1, 0, 0, 0])

    kk = function_algebra(QQ, 3)
    assert commutator_span(kk).dim == 0


def test_commutator_span_contains_5x5_display():
    m5 = matrix_algebra(QQ, 5)

    def unit(r, c):
        v = [QQ.zero] * 25
        v[(r - 1) * 5 + (c - 1)] = QQ.one
        return m5.element(v)

    d = (unit(1, 1).scale(Fraction(4)) - unit(2, 2) - unit(3, 3) - unit(4, 4)
         - unit(5, 5))
    assert commutator_span(m5).contains_vector(list(d.coords))


def test_factorizable_span_m2_against_oracle():
    m2 = matrix_algebra(F2, 2)
    xs = [list(x) for x in brute_factorizable_elements(m2)]
    assert rank_mod_p(xs, 2) == 3
    rep = factorizable_square_zero_span(m2)
    assert rep.status == "EXACT"
    assert rep.subspace.dim == 3
    for w in rep.witnesses:
        assert w.verify()


def test_factorizable_span_commutative_is_zero():
    # in a commutative algebra zy = yz, so yz != 0 never qualifies
    for alg in (nilpotent_algebra(F2, 4), function_algebra(F3, 2)):
        assert brute_factorizable_elements(alg) == [tuple([0] * alg.dim)]
        rep = factorizable_square_zero_span(alg)
        assert rep.status == "EXACT" and rep.subspace.dim == 0


def test_factorizable_span_zero_multiplication():
    z = zero_algebra(F2, 2)
    rep = factorizable_square_zero_span(z)
    assert rep.subspace.dim == 0


def test_span_equality_m2():
    eq = check_span_equality(matrix_algebra(F2, 2))
    assert eq.applicable and eq.equal and eq.containment_ok
    assert eq.commutator_dim == eq.factorizable_dim == 3


def test_span_equality_not_applicable_for_nilpotent():
    eq = check_span_equality(nilpotent_algebra(F2, 3))
    assert not eq.applicable  # not idempotent
    assert eq.containment_ok
    assert eq.commutator_dim == eq.factorizable_dim == 0


def test_span_equality_commutative():
    eq = check_span_equality(function_algebra(F2, 2))
    assert eq.applicable
    assert eq.commutator_dim == 0 and eq.factorizable_dim == 0 and eq.equal


def test_containment_on_everything():
    f4 = poly_quotient_algebra(F2, [1, 1, 1])
    for alg in (matrix_algebra(F3, 2), nilpotent_algebra(F3, 5),
                tensor_product(f4, nilpotent_algebra(F2, 3)),
                matrix_over(nilpotent_algebra(F2, 3), 2)):
        eq = check_span_equality(alg)
        assert eq.containment_ok


def test_pair_product_span_m2():
    m2 = matrix_algebra(F2, 2)
    span, status = factorizable_pair_product_span(m2)
    assert status == "EXACT"
    assert span.dim == 4  # E11 = E12 E21, E22 = E21 E12, products recover everything


def test_pair_product_span_commutative_zero():
    span, _ = factorizable_pair_product_span(function_algebra(F3, 2))
    assert span.dim == 0
    f4 = poly_quotient_algebra(F2, [1, 1, 1])
    span, _ = factorizable_pair_product_span(tensor_product(f4, nilpotent_algebra(F2, 3)))
    assert span.dim == 0


@pytest.mark.parametrize("field", [F2, F3, QQ])
@pytest.mark.parametrize("n", [2, 3])
def test_matrix_trace_criterion(field, n):
    # over a commutative base, a matrix lies in the commutator span exactly
    # when its trace vanishes
    mn = matrix_algebra(field, n)
    span = commutator_span(mn)
    rng = random.Random(17)
    for _ in range(25):
        if field.characteristic == 0:
            coords = [Fraction(rng.randint(-3, 3)) for _ in range(mn.dim)]
        else:
            coords = [rng.randrange(field.characteristic) for _ in range(mn.dim)]
        a = mn.element(coords)
        in_span = span.contains_vector(list(a.coords))
        assert in_span == matrix_trace(a, n, scalar_algebra(field)).is_zero()


def test_factorizable_lower_bound_over_rationals():
    m2 = matrix_algebra(QQ, 2)
    rep = factorizable_square_zero_span(m2)
    assert rep.status == "LOWER_BOUND"
    assert rep.subspace.dim == 3  # sweep still finds the full trace-zero space
    for w in rep.witnesses:
        assert w.verify()
