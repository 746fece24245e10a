import random
from fractions import Fraction

import pytest

from zpbal.errors import HypothesisFailed, NotSemimultiplicative
from zpbal.fields import PrimeField
from zpbal.rationals import QQ
from zpbal.linalg import Matrix
from zpbal.constructions import (
    direct_sum,
    function_algebra,
    matrix_algebra,
    nilpotent_algebra,
)
from references import centralizer_space, is_invertible, matrix_from_flat, zero_matrix
from zpbal.linmaps import (
    AlgMap,
    is_semimultiplicative,
    is_zero_product_preserving,
    semimultiplicative_witness,
    weighted_factorization,
)
from zpbal.tensorsquare import compute_zero_product_span, is_zero_product_balanced

F2 = PrimeField(2)
F3 = PrimeField(3)


def identity_map(algebra):
    return AlgMap(algebra, algebra, Matrix.identity(algebra.field, algebra.dim))


def diag_scaling_map():
    kk = function_algebra(QQ, 2)
    return AlgMap(kk, kk, Matrix(QQ, [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]]))


def test_diag_scaling_semimultiplicative():
    # both sides evaluate to (4 a1 b1 c1, 9 a2 b2 c2)
    assert is_semimultiplicative(diag_scaling_map())


def test_weighted_maps_are_semimultiplicative():
    # coordinate swap composed with a scaling centralizer
    kk = function_algebra(QQ, 2)
    swap = Matrix(QQ, [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
    weight = Matrix(QQ, [[Fraction(5), Fraction(0)], [Fraction(0), Fraction(7)]])
    assert is_semimultiplicative(AlgMap(kk, kk, weight.mul(swap)))


def test_nilpotent_shift_map_semimultiplicative():
    # x -> x, x^2 -> x^3, x^3 -> 0 on the order-4 family: all 27 triples agree
    n4 = nilpotent_algebra(F2, 4)
    f = AlgMap(n4, n4, Matrix(F2, [[1, 0, 0], [0, 0, 0], [0, 1, 0]]))
    assert semimultiplicative_witness(f) is None


def test_diag_scaling_factorization():
    w = weighted_factorization(diag_scaling_map())
    assert w.T.rows == [[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1, 3)]]
    assert w.S.rows == [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]]
    assert w.pi0.matrix == Matrix.identity(QQ, 2)
    assert w.kernel_ideal.dim == 0
    # the weight is left multiplication by the image of the unit
    kk = w.pi.source
    unit = kk.element(kk.predicates().unit)
    pi_one = w.pi.apply(unit)
    assert w.S == kk.left_mult_matrix(list(pi_one.coords))


def test_swap_factorization_over_f2():
    kk = function_algebra(F2, 2)
    swap = AlgMap(kk, kk, Matrix(F2, [[0, 1], [1, 0]]))
    span = compute_zero_product_span(kk)
    assert is_zero_product_preserving(swap, span).status == "YES"
    w = weighted_factorization(swap)
    assert w.pi0.matrix == swap.matrix
    assert w.T == Matrix.identity(F2, 2)


def test_conjugation_with_central_weight_on_m2f3():
    m2 = matrix_algebra(F3, 2)
    p = Matrix(F3, [[1, 1], [0, 1]])
    pinv = p.inverse()
    conj_cols = []
    for idx in range(4):
        r, c = divmod(idx, 2)
        e = Matrix(F3, [[1 if (i, j) == (r, c) else 0 for j in range(2)] for i in range(2)])
        img = p.mul(e).mul(pinv)
        conj_cols.append([img.rows[0][0], img.rows[0][1], img.rows[1][0], img.rows[1][1]])
    conj = Matrix.from_columns(F3, conj_cols, 4)
    pi0 = AlgMap(m2, m2, conj)
    assert pi0.is_multiplicative() is None
    weight = Matrix.identity(F3, 4).scale(2)  # central invertible scaling
    pi = AlgMap(m2, m2, weight.mul(conj))
    w = weighted_factorization(pi)
    assert w.pi0.matrix == conj
    assert w.S == weight
    assert w.T == weight.inverse()


def test_factorization_unique_for_quotient_projection():
    # projecting a direct sum onto its first summand: T is the identity
    m2 = matrix_algebra(F2, 2)
    amalg = direct_sum(m2, function_algebra(F2, 2))
    proj_cols = [[1 if t == i else 0 for t in range(4)] for i in range(4)] + [[0] * 4] * 2
    proj = AlgMap(amalg, m2, Matrix.from_columns(F2, proj_cols, 4))
    assert proj.is_multiplicative() is None
    w = weighted_factorization(proj)
    assert w.T == Matrix.identity(F2, 4)
    assert w.pi0.matrix == proj.matrix
    assert w.kernel_ideal.dim == 2
    assert w.quotient_iso.is_bijective()


def test_perturbed_map_raises_with_witness():
    m2 = matrix_algebra(F3, 2)
    pi = identity_map(m2)
    rows = [list(r) for r in pi.matrix.rows]
    rows[1][2] = 1  # break multiplicativity but keep surjectivity
    bad = AlgMap(m2, m2, Matrix(F3, rows))
    assert bad.is_surjective()
    with pytest.raises(NotSemimultiplicative) as exc:
        weighted_factorization(bad)
    i, j, k = exc.value.triple
    assert semimultiplicative_witness(bad) == (i, j, k)


def test_algmap_refuses_mismatched_fields_and_wrong_shape():
    m2 = matrix_algebra(F2, 2)
    with pytest.raises(ValueError, match="share the base field"):
        AlgMap(m2, matrix_algebra(F3, 2), Matrix.identity(F2, 4))
    with pytest.raises(ValueError, match="wrong shape"):
        AlgMap(m2, nilpotent_algebra(F2, 4), Matrix.identity(F2, 4))
    with pytest.raises(ValueError, match="wrong shape"):
        AlgMap(nilpotent_algebra(F2, 4), m2, Matrix.identity(F2, 4))


def test_hypothesis_failures_are_named():
    n4 = nilpotent_algebra(F2, 4)
    with pytest.raises(HypothesisFailed) as exc:
        weighted_factorization(identity_map(n4))
    assert "idempotent" in str(exc.value)

    m2 = matrix_algebra(F2, 2)
    non_surjective = AlgMap(m2, m2, zero_matrix(F2, 4, 4))
    with pytest.raises(HypothesisFailed) as exc:
        weighted_factorization(non_surjective)
    assert "surjective" in str(exc.value)


def test_zero_product_preserving_verdicts():
    n4 = nilpotent_algebra(F2, 4)
    span = compute_zero_product_span(n4)
    # quotient-like squeeze: x -> x^3, x^2 -> x, x^3 -> 0 breaks preservation
    bad = AlgMap(n4, n4, Matrix(F2, [[0, 1, 0], [0, 0, 0], [1, 0, 0]]))
    verdict = is_zero_product_preserving(bad, span)
    assert verdict.status == "NO"
    u, v = verdict.witness
    assert all(a == 0 for a in n4.multiply_coords(u, v))
    pu = bad.apply_coords(u)
    pv = bad.apply_coords(v)
    assert any(a != 0 for a in n4.multiply_coords(pu, pv))

    # homomorphisms always preserve zero products
    assert is_zero_product_preserving(identity_map(n4), span).status == "YES"


def test_semimultiplicative_surjection_preserves_zero_products():
    # on idempotent source + faithful target, semimultiplicative surjections
    # preserve zero products; checked on constructed weighted maps
    kk = function_algebra(F3, 3)
    span = compute_zero_product_span(kk)
    rng = random.Random(5)
    for _ in range(10):
        perm = list(range(3))
        rng.shuffle(perm)
        pcols = [[1 if t == perm[i] else 0 for t in range(3)] for i in range(3)]
        weight = Matrix(F3, [[rng.choice([1, 2]) if i == j else 0 for j in range(3)]
                             for i in range(3)])
        pi = AlgMap(kk, kk, weight.mul(Matrix.from_columns(F3, pcols, 3)))
        assert is_semimultiplicative(pi)
        assert is_zero_product_preserving(pi, span).status == "YES"


def test_zero_product_preserving_implies_semimultiplicative_on_balanced():
    # no surjectivity needed for this direction: random maps out of a balanced
    # source must satisfy the product-shift law whenever they preserve
    # zero products, and possibly-singular weights give genuine positives
    m2 = matrix_algebra(F2, 2)
    span = compute_zero_product_span(m2)
    assert is_zero_product_balanced(m2, span).status == "YES"
    rng = random.Random(23)
    for _ in range(60):
        mat = Matrix(F2, [[rng.randrange(2) for _ in range(4)] for _ in range(4)])
        f = AlgMap(m2, m2, mat)
        if is_zero_product_preserving(f, span).status == "YES":
            assert is_semimultiplicative(f)

    kk = function_algebra(F3, 3)
    span3 = compute_zero_product_span(kk)
    assert is_zero_product_balanced(kk, span3).status == "YES"
    preserved = 0
    for _ in range(20):
        perm = list(range(3))
        rng.shuffle(perm)
        pcols = [[1 if t == perm[i] else 0 for t in range(3)] for i in range(3)]
        # a possibly-singular diagonal weight is still a centralizer on K^3
        weight = Matrix(F3, [[rng.randrange(3) if i == j else 0 for j in range(3)]
                             for i in range(3)])
        f = AlgMap(kk, kk, weight.mul(Matrix.from_columns(F3, pcols, 3)))
        verdict = is_zero_product_preserving(f, span3)
        assert verdict.status == "YES"
        assert is_semimultiplicative(f)
        if not f.is_surjective():
            preserved += 1
    assert preserved >= 1  # the sweep hit genuinely non-surjective positives


def test_centralizer_space():
    m2 = matrix_algebra(F2, 2)
    cen = centralizer_space(m2)
    assert cen.dim == 1  # scalars only, for a central-simple algebra
    s = matrix_from_flat(m2, cen.basis[0])
    assert s == Matrix.identity(F2, 4) or is_invertible(s)

    kk = function_algebra(QQ, 2)
    assert centralizer_space(kk).dim == 2  # componentwise scalings
