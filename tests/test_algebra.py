import random
from fractions import Fraction

import pytest

from zpbal.errors import NotAnIdeal, NotAssociative, NotIdempotent, ParentMismatch
from zpbal.fields import PrimeField
from zpbal.rationals import QQ
from zpbal.linalg import SpanBuilder
from zpbal.algebra import Algebra, commutator
from zpbal.corpus import golden_corpus
from zpbal.constructions import (
    direct_sum,
    function_algebra,
    ideal_closure,
    is_ideal,
    matrix_algebra,
    matrix_over,
    nilpotent_algebra,
    poly_quotient_algebra,
    quotient_algebra,
    scalar_algebra,
    tensor_product,
    zero_algebra,
)
from oracles import mult, random_change_of_basis
from references import (
    SHAPES,
    dense_associativity_failure,
    dense_predicates,
    matrix_trace,
    operator_matrix,
    random_algebra,
    subalgebra,
)

F2 = PrimeField(2)
F3 = PrimeField(3)


def test_nilpotent_algebra_relations():
    n3 = nilpotent_algebra(F2, 3)
    x = n3.basis_element(0)
    x2 = n3.basis_element(1)
    assert x * x == x2
    assert (x * x2).is_zero() and (x2 * x).is_zero() and (x2 * x2).is_zero()
    assert x.power(3).is_zero() and not x.power(2).is_zero()


def test_non_associative_rejected():
    # e1*e1 = e2, e2*e1 = e1 and all else zero: (e1 e1)e1 = e1 but e1(e1 e1) = 0
    table = [[[0, 1], [0, 0]], [[1, 0], [0, 0]]]
    with pytest.raises(NotAssociative) as exc:
        Algebra(F2, ["e1", "e2"], table)
    assert exc.value.triple == (0, 0, 0)


def test_associativity_check_names_the_dense_reference_triple():
    """Tables with one to three random entries changed: the sparse check at
    construction fails exactly when the dense reference does, on its triple."""
    rng = random.Random(23)
    failures = 0
    for trial in range(120):
        field = rng.choice([F2, F3, QQ])
        alg = random_algebra(trial, field, rng.choice(SHAPES))
        d = alg.dim
        table = [[list(v) for v in row] for row in alg.table]
        for _ in range(rng.randint(1, 3)):
            v = table[rng.randrange(d)][rng.randrange(d)]
            v[rng.randrange(d)] = field.of_int(rng.randint(-1, 2))
        want = dense_associativity_failure(field, table)
        if want is None:
            Algebra(field, alg.names, table)
            continue
        failures += 1
        with pytest.raises(NotAssociative) as exc:
            Algebra(field, alg.names, table)
        assert exc.value.triple == want
    assert failures > 60


def test_associativity_check_passes_over_only_zero_triples():
    """Random sparse tables, where most e_i e_j are 0: the check passes over
    the triples with e_i e_j = 0 = e_j e_k, and still names the dense
    reference's first failing triple, also when skipped triples precede it."""
    rng = random.Random(30)
    after_a_skip = 0
    for trial in range(150):
        field = [F2, F3, QQ][trial % 3]
        d = rng.randint(2, 6)
        table = [[[field.zero] * d for _ in range(d)] for _ in range(d)]
        for _ in range(rng.randint(1, d)):
            v = table[rng.randrange(d)][rng.randrange(d)]
            v[rng.randrange(d)] = field.of_int(rng.choice([1, -1, 2]))
        want = dense_associativity_failure(field, table)
        names = [f"e{i}" for i in range(d)]
        if want is None:
            Algebra(field, names, table)
            continue
        with pytest.raises(NotAssociative) as exc:
            Algebra(field, names, table)
        assert exc.value.triple == want
        after_a_skip += any(not any(table[a][b]) and not any(table[b][c])
                            for a in range(want[0] + 1) for b in range(d) for c in range(d)
                            if (a, b, c) < want)
    assert after_a_skip > 60


def test_matrix_units():
    m2 = matrix_algebra(QQ, 2)
    e12 = m2.basis_element(1)
    e21 = m2.basis_element(2)
    e11 = m2.basis_element(0)
    assert e12 * e21 == e11
    assert (e12 * e12).is_zero()
    c = commutator(e12, e21)
    assert c == e11 - m2.basis_element(3)


def test_parent_mismatch():
    a = nilpotent_algebra(F2, 3)
    b = nilpotent_algebra(F2, 3)
    with pytest.raises(ParentMismatch):
        a.basis_element(0) * b.basis_element(0)


def test_predicates():
    n3 = nilpotent_algebra(F2, 3)
    p = n3.predicates()
    assert not p.is_unital and not p.is_idempotent and not p.is_faithful
    assert p.is_commutative and not p.has_zero_multiplication

    m2 = matrix_algebra(F2, 2)
    p = m2.predicates()
    assert p.is_unital and p.is_idempotent and p.is_faithful and not p.is_commutative
    unit = m2.element(p.unit)
    for i in range(4):
        e = m2.basis_element(i)
        assert unit * e == e and e * unit == e

    z = zero_algebra(F2, 1)
    assert z.predicates().has_zero_multiplication


def _b_algebra(field):
    """span(e, n) with e² = e, en = n and ne = n² = 0: LAnn = span(n), RAnn = 0."""
    zero, one = field.zero, field.one
    return Algebra(field, ["e", "n"], [[[one, zero], [zero, one]], [[zero, zero], [zero, zero]]])


PREDICATE_INPUTS = (
    [(e.name, lambda e=e: e.algebra) for e in golden_corpus()]
    + [(f"{shape}/{field.name}/{seed}", lambda shape=shape, field=field, seed=seed:
        random_change_of_basis(random_algebra(seed, field, shape), random.Random(seed)))
       for field in (F2, F3, QQ) for shape in SHAPES for seed in range(3)]
    + [("B/F3", lambda: _b_algebra(F3)), ("M2 in a random basis/Q",
                                          lambda: random_change_of_basis(matrix_algebra(QQ, 2), random.Random(5)))]
    + [(f"dim {d} {kind}/{field.name}", make)
       for field in (F2, QQ)
       for d, kind, make in ((0, "zero", lambda field=field: zero_algebra(field, 0)),
                             (1, "zero", lambda field=field: zero_algebra(field, 1)),
                             (1, "scalar", lambda field=field: scalar_algebra(field)),
                             (1, "e² = -e", lambda field=field: Algebra(field, ["e"], [[[field.neg(field.one)]]])))]
)


@pytest.mark.parametrize("make", [m for _, m in PREDICATE_INPUTS], ids=[n for n, _ in PREDICATE_INPUTS])
def test_predicates_match_the_dense_reference(make):
    """The sparse unit system, faithfulness ranks and A² span give what the
    dense rows of `references.dense_predicates` give, the unit included."""
    alg = make()
    assert alg.predicates() == dense_predicates(alg)


def test_predicate_inputs_hold_both_answers():
    found = {(name, value) for _, make in PREDICATE_INPUTS
             for name, value in dense_predicates(make())._asdict().items() if name != "unit"}
    assert len(found) == 10


def test_unital_implies_idempotent_and_faithful():
    for alg in (matrix_algebra(F3, 2), function_algebra(QQ, 3),
                poly_quotient_algebra(F2, [1, 1, 1])):
        p = alg.predicates()
        assert p.is_unital and p.is_idempotent and p.is_faithful


def test_function_algebra():
    kk = function_algebra(QQ, 2)
    a = kk.element([Fraction(1), Fraction(0)])
    b = kk.element([Fraction(0), Fraction(1)])
    assert (a * b).is_zero()
    assert a * a == a


def test_tensor_product_triple_products_vanish():
    f4 = poly_quotient_algebra(F2, [1, 1, 1])
    n3 = nilpotent_algebra(F2, 3)
    a = tensor_product(f4, n3)
    assert a.dim == 4
    # exhaustive: the product of any three elements is zero
    for u in a.coord_tuples():
        eu = a.element(u)
        for v in a.coord_tuples():
            prod = eu * a.element(v)
            if prod.is_zero():
                continue
            for w in a.coord_tuples():
                assert (prod * a.element(w)).is_zero()


def test_tensor_product_bilinear_rule():
    m2 = matrix_algebra(F2, 2)
    n3 = nilpotent_algebra(F2, 3)
    t = tensor_product(m2, n3)
    # (a⊗u)(b⊗v) = ab⊗uv on basis pairs
    for i in range(m2.dim):
        for u in range(n3.dim):
            for j in range(m2.dim):
                for v in range(n3.dim):
                    left = t.basis_element(i * n3.dim + u) * t.basis_element(j * n3.dim + v)
                    ab = m2.table[i][j]
                    uv = n3.table[u][v]
                    expected = [F2.mul(a, b) for a in ab for b in uv]
                    assert list(left.coords) == expected


def test_direct_sum_cross_products_vanish():
    a = matrix_algebra(F2, 2)
    b = nilpotent_algebra(F2, 3)
    s = direct_sum(a, b)
    for i in range(a.dim):
        for j in range(b.dim):
            assert (s.basis_element(i) * s.basis_element(a.dim + j)).is_zero()
            assert (s.basis_element(a.dim + j) * s.basis_element(i)).is_zero()


def test_matrix_over_nonunital():
    m2n3 = matrix_over(nilpotent_algebra(F2, 3), 2)
    assert m2n3.dim == 8
    assert m2n3.names[0] == "E11⊗x"
    assert not m2n3.predicates().is_unital
    # (E12⊗x)(E21⊗x) = E11⊗x^2
    e12x = m2n3.element([1 if n == "E12⊗x" else 0 for n in m2n3.names])
    e21x = m2n3.element([1 if n == "E21⊗x" else 0 for n in m2n3.names])
    assert e12x * e21x == m2n3.element([1 if n == "E11⊗x^2" else 0 for n in m2n3.names])


def test_matrix_trace():
    m2 = matrix_algebra(QQ, 2)
    a = m2.element([Fraction(1), Fraction(5), Fraction(-2), Fraction(3)])
    tr = matrix_trace(a, 2, scalar_algebra(QQ))
    assert tr.coords == (Fraction(4),)


def test_commutator_five_by_five_display():
    # the classical 5x5 example: a diagonal trace-zero matrix realized as one commutator
    m5 = matrix_algebra(QQ, 5)

    def unit(r, c):
        v = [QQ.zero] * 25
        v[(r - 1) * 5 + (c - 1)] = QQ.one
        return m5.element(v)

    x = (unit(1, 2).scale(Fraction(4)) + unit(2, 3).scale(Fraction(3))
         + unit(3, 4).scale(Fraction(2)) + unit(4, 5))
    y = unit(2, 1) + unit(3, 2) + unit(4, 3) + unit(5, 4)
    expected = (unit(1, 1).scale(Fraction(4)) - unit(2, 2) - unit(3, 3)
                - unit(4, 4) - unit(5, 5))
    assert commutator(x, y) == expected


def test_quotient_algebra():
    n4 = nilpotent_algebra(F2, 4)
    ideal = ideal_closure(n4, [[0, 1, 0]])  # ideal generated by x^2
    assert ideal.dim == 2  # spans x^2, x^3
    quot = quotient_algebra(n4, ideal)
    q = quot.algebra
    assert q.dim == 1
    # projection is multiplicative
    for i in range(n4.dim):
        for j in range(n4.dim):
            lhs = quot.project(n4.basis_element(i) * n4.basis_element(j))
            rhs = quot.project(n4.basis_element(i)) * quot.project(n4.basis_element(j))
            assert lhs == rhs
    # the quotient is the order-2 nilpotent algebra (zero multiplication)
    assert q.predicates().has_zero_multiplication


def test_quotient_rejects_non_ideal():
    m2 = matrix_algebra(F2, 2)
    not_ideal = SpanBuilder(F2, 4, [[1, 0, 0, 0]])  # span{E11} is not an ideal
    ok, witness = is_ideal(m2, not_ideal)
    assert not ok and witness is not None
    with pytest.raises(NotAnIdeal):
        quotient_algebra(m2, not_ideal)


def test_subalgebra_closure():
    m2 = matrix_algebra(F2, 2)
    e12 = m2.basis_element(1)
    e21 = m2.basis_element(2)
    sub = subalgebra(m2, [e12, e21])
    assert sub.algebra.dim == 4  # e12, e21 generate everything
    n4 = nilpotent_algebra(F2, 4)
    sub2 = subalgebra(n4, [n4.basis_element(1)])  # x^2 generates just itself
    assert sub2.algebra.dim == 1


def test_register_idempotent_validates():
    m2 = matrix_algebra(F2, 2)
    with pytest.raises(NotIdempotent):
        m2.register_idempotent(m2.basis_element(1))


def test_associativity_on_random_elements():
    rng = random.Random(3)
    for alg in (matrix_algebra(F3, 2), tensor_product(poly_quotient_algebra(F2, [1, 1, 1]),
                                                      nilpotent_algebra(F2, 3)),
                direct_sum(scalar_algebra(QQ), nilpotent_algebra(QQ, 4))):
        f = alg.field
        for _ in range(20):
            def rand():
                if f.characteristic == 0:
                    return alg.element([Fraction(rng.randint(-2, 2)) for _ in range(alg.dim)])
                return alg.element([rng.randrange(f.characteristic) for _ in range(alg.dim)])
            a, b, c = rand(), rand(), rand()
            assert (a * b) * c == a * (b * c)


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=["F2", "F3", "Q"])
def test_multiply_coords_matches_the_dense_structure_constants(field):
    """multiply_coords walks only the nonzero structure constants; the oracle
    reads every one.  A random change of basis makes the constants dense, and
    over Q fractional."""
    rng = random.Random(26)
    for trial in range(12):
        alg = random_change_of_basis(random_algebra(trial, field, rng.choice(SHAPES)), rng)

        def scalar():
            a = field.of_int(rng.randint(-2, 2))
            return field.mul(a, field.inv(field.of_int(rng.randint(1, 3)))) if field is QQ else a

        for _ in range(10):
            u, v = ([scalar() for _ in range(alg.dim)] for _ in range(2))
            assert tuple(alg.multiply_coords(u, v)) == mult(alg, u, v)


def test_multiplication_matrices_match_products():
    rng = random.Random(5)
    for alg in (matrix_algebra(F3, 2), tensor_product(poly_quotient_algebra(F2, [1, 1, 1]),
                                                      nilpotent_algebra(F2, 3)),
                direct_sum(scalar_algebra(QQ), nilpotent_algebra(QQ, 4))):
        f = alg.field
        for _ in range(20):
            u, v = ([f.of_int(rng.randint(-2, 2)) for _ in range(alg.dim)] for _ in range(2))
            assert alg.left_mult_matrix(u).apply(v) == alg.multiply_coords(u, v)
            for left in (True, False):
                rows = alg._operator_rows(u, left)
                assert all(rows.values())
                if f.characteristic == 2:  # packed: bit j of row k is entry (k, j)
                    assert all(type(row) is int for row in rows.values())
                    dense = [[(rows.get(k, 0) >> j) & 1 for j in range(alg.dim)]
                             for k in range(alg.dim)]
                else:
                    assert all(all(row.values()) for row in rows.values())
                    dense = [[rows.get(k, {}).get(j, f.zero) for j in range(alg.dim)]
                             for k in range(alg.dim)]
                assert dense == operator_matrix(alg, u, left).rows


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=["F2", "F3", "Q"])
def test_operator_rows_drop_rows_whose_sums_cancel(field):
    """e0 e0 = e1 e0 = e2 and all else zero: for u = e0 - e1 every entry of
    L_u sums to zero, so no row is kept; R_u keeps its one nonzero row."""
    z = [field.zero] * 3
    e2 = [field.zero, field.zero, field.one]
    alg = Algebra(field, ["e0", "e1", "e2"], [[e2, z, z], [e2, z, z], [z, z, z]])
    u = [field.one, field.neg(field.one), field.zero]
    assert alg._operator_rows(u, True) == {}
    right = alg._operator_rows(u, False)
    assert list(right) == [2] and all(right.values())
    assert alg.left_mult_matrix(u).rows == [z, z, z]


def test_power_requires_positive():
    n3 = nilpotent_algebra(F2, 3)
    with pytest.raises(ValueError):
        n3.basis_element(0).power(0)
