import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import rank_over
from references import (
    DenseSpanBuilder,
    NotInSubspace,
    coefficients,
    dense_kernel,
    dot,
    intersect,
    linear_combination,
    random_algebra,
    rref,
    rref_matrix,
    subspace_sum,
    zero_matrix,
)
from test_sweep import random_change_of_basis
from zpbal.constructions import ideal_closure, matrix_algebra, nilpotent_algebra, quotient_algebra
from zpbal.errors import AmbientMismatch, ExpressionsNotTracked
from zpbal.fields import PrimeField
from zpbal.rationals import QQ
from zpbal.linalg import Matrix, SpanBuilder

F2 = PrimeField(2)
F3 = PrimeField(3)


def q(n, d=1):
    return Fraction(n, d)


def test_rref_identity():
    m = Matrix.identity(QQ, 2)
    r, rank = rref_matrix(m)
    assert r == m and rank == 2


def test_rref_rank_one():
    m = Matrix(QQ, [[q(1), q(2)], [q(2), q(4)]])
    r, rank = rref_matrix(m)
    assert rank == 1
    assert r.rows == [[q(1), q(2)], [q(0), q(0)]]


def test_rref_mod2():
    m = Matrix(F2, [[1, 1], [1, 1]])
    r, rank = rref_matrix(m)
    assert rank == 1 and r.rows == [[1, 1], [0, 0]]


def test_kernel_zero_and_identity():
    z = zero_matrix(QQ, 3, 3)
    assert z.kernel().dim == 3
    assert Matrix.identity(QQ, 3).kernel().dim == 0
    for n in (0, 1, 3):  # no equations: the whole space, in reduced form
        assert Matrix(F2, [], cols=n).kernel() == SpanBuilder(F2, n, Matrix.identity(F2, n).rows)


def test_solve():
    m = Matrix(QQ, [[q(1), q(1)], [q(1), q(-1)]])
    assert m.solve([q(2), q(0)]) == [q(1), q(1)]
    assert Matrix(QQ, [[q(0)]]).solve([q(1)]) is None  # inconsistent is a value


def test_inverse():
    m = Matrix(QQ, [[q(2), q(0)], [q(0), q(3)]])
    inv = m.inverse()
    assert inv.rows == [[q(1, 2), q(0)], [q(0), q(1, 3)]]
    assert Matrix(QQ, [[q(1), q(1)], [q(1), q(1)]]).inverse() is None


def test_subspace_ops():
    s1 = SpanBuilder(QQ, 3, [[q(1), q(0), q(0)]])
    s2 = SpanBuilder(QQ, 3, [[q(0), q(1), q(0)]])
    assert subspace_sum(s1, s2).dim == 2
    full2 = SpanBuilder(QQ, 2, [[q(1), q(0)], [q(0), q(1)]])
    diag = SpanBuilder(QQ, 2, [[q(1), q(1)]])
    meet = intersect(full2, diag)
    assert meet.dim == 1 and meet.basis == [[q(1), q(1)]]
    assert diag.contains_vector([q(2), q(2)])
    assert not diag.contains_vector([q(1), q(2)])
    assert full2.contains_subspace(diag)
    assert not diag.contains_subspace(full2)


def test_coefficients_roundtrip():
    s = SpanBuilder(QQ, 3, [[q(1), q(1), q(0)], [q(0), q(0), q(1)]])
    v = [q(2), q(2), q(5)]
    coeffs = coefficients(s, v)
    assert linear_combination(s, coeffs) == v
    with pytest.raises(NotInSubspace):
        coefficients(s, [q(1), q(0), q(0)])


def test_ambient_mismatch():
    s = SpanBuilder(QQ, 2, [[q(1), q(0)]])
    with pytest.raises(AmbientMismatch):
        s.contains_vector([q(1), q(0), q(0)])
    with pytest.raises(AmbientMismatch):
        subspace_sum(s, SpanBuilder(QQ, 3, []))


def test_span_builder_tracks_expressions():
    b = SpanBuilder(F3, 3, track_expressions=True)
    assert b.add([1, 1, 0])
    assert b.add([0, 1, 1])
    assert not b.add([1, 2, 1])  # sum of the two
    combo = b.generator_coefficients([1, 2, 1])
    assert combo == {0: 1, 1: 1}
    assert b.generator_coefficients([1, 0, 1]) is None
    with pytest.raises(ExpressionsNotTracked):
        SpanBuilder(F3, 3).generator_coefficients([1, 1, 0])


def _random_matrix(rng, field, rows, cols):
    if field.characteristic == 0:
        return Matrix(field, [[Fraction(rng.randint(-3, 3)) for _ in range(cols)]
                              for _ in range(rows)], cols=cols)
    p = field.characteristic
    return Matrix(field, [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)],
                  cols=cols)


@pytest.mark.parametrize("field", [QQ, F2, F3])
def test_rank_nullity_random(field):
    rng = random.Random(7)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = _random_matrix(rng, field, rows, cols)
        assert m.rank() + m.kernel().dim == cols


@pytest.mark.parametrize("field", [QQ, F2, F3])
def test_modular_dimension_law_random(field):
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 5)
        a = _random_matrix(rng, field, rng.randint(0, 3), n).rows
        b = _random_matrix(rng, field, rng.randint(0, 3), n).rows
        sa = SpanBuilder(field, n, a)
        sb = SpanBuilder(field, n, b)
        assert sa.dim + sb.dim == subspace_sum(sa, sb).dim + intersect(sa, sb).dim


@pytest.mark.parametrize("field", [QQ, F3])
def test_solve_consistency_random(field):
    rng = random.Random(13)
    for _ in range(25):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = _random_matrix(rng, field, rows, cols)
        x = _random_matrix(rng, field, 1, cols).rows[0]
        b = m.apply(x)
        sol = m.solve(b)
        assert sol is not None
        assert m.apply(sol) == b


def test_complement_functionals():
    s = SpanBuilder(QQ, 3, [[q(1), q(0), q(1)]])
    funcs = s.complement_functionals()
    assert len(funcs) == 2
    for phi in funcs:
        assert sum(a * b for a, b in zip(phi, [q(1), q(0), q(1)])) == 0
    assert SpanBuilder(QQ, 3, []).complement_functionals() == Matrix.identity(QQ, 3).rows


def _random_vector(rng, field, n):
    return _random_matrix(rng, field, 1, n).rows[0]


@pytest.mark.parametrize("field", [QQ, F2, F3])
def test_reduction_against_oracle_random(field):
    """Membership, coefficients and generator expressions against the oracle's rank."""
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 6)
        gens = _random_matrix(rng, field, rng.randint(0, 5), n).rows
        space = SpanBuilder(field, n, gens)
        builder = SpanBuilder(field, n, track_expressions=True)
        retained = [g for g in gens if builder.add(g)]
        for _ in range(4):
            v = _random_vector(rng, field, n)
            if gens and rng.random() < 0.5:  # a random combination of the generators
                v = Matrix.from_columns(field, gens, n).apply(_random_vector(rng, field, len(gens)))
            inside = rank_over(field, gens + [v]) == rank_over(field, gens)
            assert space.contains_vector(v) == inside
            combo = builder.generator_coefficients(v)
            assert (combo is not None) == inside
            if not inside:
                with pytest.raises(NotInSubspace):
                    coefficients(space, v)
                continue
            assert linear_combination(space, coefficients(space, v)) == v
            rebuilt = [field.zero] * n
            for g, lam in combo.items():
                rebuilt = [field.add(a, field.mul(lam, b)) for a, b in zip(rebuilt, retained[g])]
            assert rebuilt == v


@pytest.mark.parametrize("make", [
    lambda: nilpotent_algebra(F2, 5),
    lambda: nilpotent_algebra(QQ, 4),
    lambda: matrix_algebra(F3, 2),
    lambda: random_algebra(0, F3, "direct_sum_mix"),
    lambda: random_algebra(1, QQ, "direct_sum_mix"),
], ids=["N5/F2", "N4/Q", "M2/F3", "mix/F3", "mix/Q"])
def test_quotient_projection_random(make):
    """The projection kills the ideal and is multiplicative on random pairs."""
    rng = random.Random(19)
    alg = random_change_of_basis(make(), rng)  # so that no ideal is spanned by basis vectors
    f = alg.field
    for _ in range(3):
        seed = _random_vector(rng, f, alg.dim)
        ideal = ideal_closure(alg, [seed])
        quot = quotient_algebra(alg, ideal)
        for v in ideal.basis:
            assert quot.project(alg.element(v)).is_zero()
        for _ in range(10):
            a = alg.element(_random_vector(rng, f, alg.dim))
            b = alg.element(_random_vector(rng, f, alg.dim))
            assert quot.project(a * b) == quot.project(a) * quot.project(b)


def _scalars(field):
    if field.characteristic:
        return st.integers(0, field.characteristic - 1)
    return st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _matrices(draw):
    """(field, columns, rows): random, zero or of full rank, 0 to 6 rows and columns."""
    field = draw(st.sampled_from([F2, F3, QQ]))
    ncols, nrows = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = _scalars(field)
    kind = draw(st.sampled_from(["random", "zero", "full rank"]))
    if kind == "zero":
        return field, ncols, [[field.zero] * ncols for _ in range(nrows)]
    if kind == "random":
        return field, ncols, [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    # unitriangular rows, then random ones, in a random order: rank min(nrows, ncols)
    rows = [[field.one if j == i else draw(entry) if j > i else field.zero for j in range(ncols)]
            for i in range(min(nrows, ncols))]
    rows += [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows - len(rows))]
    return field, ncols, draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@example((F2, 0, [[], []]))
@example((QQ, 3, [[QQ.zero] * 3] * 2))
@example((F3, 3, Matrix.identity(F3, 3).rows))
@given(_matrices())
def test_null_space_kernel_and_rank_match_the_dense_reference(case):
    field, ncols, rows = case
    m = Matrix(field, rows, cols=ncols)
    reduced, _ = rref(rows, field, ncols)
    kernel = dense_kernel(m)
    assert len(kernel) == ncols - len(reduced)
    assert all(dot(field, r, v) == 0 for r in rows for v in kernel)
    builder = SpanBuilder(field, ncols, rows)
    assert builder.null_space().basis == kernel
    assert builder.basis == reduced  # reading the null space leaves the rows as they were
    assert m.kernel().basis == kernel
    assert m.rank() == len(reduced)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sparse_builder_matches_the_dense_reference(data):
    """Zero, repeated, combined and fresh vectors, offered as lists or as maps of
    their nonzero entries, give the dense reducer's add results, rows, pivots,
    expressions and generator coefficients."""
    field = data.draw(st.sampled_from([F2, F3, QQ]), label="field")
    n = data.draw(st.integers(1, 7), label="n")
    scalar = _scalars(field)
    builder = SpanBuilder(field, n, track_expressions=True)
    dense = DenseSpanBuilder(field, n, track_expressions=True)
    offered = []

    def combination():
        coeffs = data.draw(st.lists(scalar, min_size=len(offered), max_size=len(offered)))
        out = [field.zero] * n
        for c, v in zip(coeffs, offered):
            out = [field.add(a, field.mul(c, b)) for a, b in zip(out, v)]
        return out

    for _ in range(data.draw(st.integers(0, 12), label="offers")):
        kind = data.draw(st.sampled_from(["zero", "repeat", "combination", "fresh"]))
        if kind == "zero":
            v = [field.zero] * n
        elif kind == "repeat" and offered:
            v = list(data.draw(st.sampled_from(offered)))
        elif kind == "combination" and offered:
            v = combination()
        else:
            v = data.draw(st.lists(scalar, min_size=n, max_size=n))
        as_map = data.draw(st.booleans())
        assert builder.add({j: a for j, a in enumerate(v) if a} if as_map else v) == dense.add(v)
        assert builder.basis == dense.rows  # the cached basis follows every add
        offered.append(v)
    assert builder.pivots == dense.pivots
    assert builder.exprs == dense.exprs
    probes = offered + [data.draw(st.lists(scalar, min_size=n, max_size=n))]
    if offered:
        probes.append(combination())
    for v in probes:
        want = dense.generator_coefficients(v)
        assert builder.generator_coefficients(v) == want
        assert builder.generator_coefficients({j: a for j, a in enumerate(v) if a}) == want
        assert builder.contains_vector(v) == (want is not None)


@pytest.mark.parametrize("seed", range(4))
def test_packed_rows_wider_than_a_machine_word_match_the_dense_reference(seed):
    """Over F2 rows are ints; in 256 columns, sparse tensors and sums of earlier
    ones, offered as lists, maps or ints, give the dense reducer's add results,
    pivots, rows, expressions, generator coefficients and null space."""
    rng = random.Random(seed)
    n = 256
    builder = SpanBuilder(F2, n, track_expressions=True)
    dense = DenseSpanBuilder(F2, n, track_expressions=True)
    offered = []
    for _ in range(90):
        if offered and rng.random() < 0.3:  # a sum of earlier vectors: never enlarges the span
            v = [0] * n
            for w in rng.sample(offered, rng.randint(1, min(4, len(offered)))):
                v = [a ^ b for a, b in zip(v, w)]
        else:  # u⊗w with one or two nonzero coordinates in each factor
            u, w = (rng.sample(range(16), rng.randint(1, 2)) for _ in range(2))
            v = [0] * n
            for i in u:
                for j in w:
                    v[i * 16 + j] = 1
        form = rng.choice(["list", "map", "int"])
        arg = (v if form == "list" else {j: 1 for j, a in enumerate(v) if a} if form == "map"
               else sum(1 << j for j, a in enumerate(v) if a))
        assert builder.add(arg) == dense.add(v)
        offered.append(v)
    assert builder.dim > 64 and max(builder.pivots) > 64
    assert builder.pivots == dense.pivots
    assert builder.basis == dense.rows
    assert builder.exprs == dense.exprs
    for v in offered[-20:] + [[rng.randint(0, 1) for _ in range(n)] for _ in range(5)]:
        want = dense.generator_coefficients(v)
        assert builder.generator_coefficients(v) == want
        assert builder.contains_vector(v) == (want is not None)
    kernel = dense_kernel(Matrix(F2, dense.rows, cols=n))
    assert builder.null_space().basis == kernel
    assert Matrix(F2, offered, cols=n).kernel().basis == kernel
