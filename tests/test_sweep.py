"""The annihilator sweep against the per-element loops it replaced.

The reference loops in oracles.py visit every element and offer u⊗w one
element at a time; the sweep offers closed annihilator blocks and visits one
projective point per coset of K = {u : op_u = 0}, or on a nilpotent algebra
one per orbit of u -> c(u + au) on those points.  The two emit different
generators in a different order, so they are held to the same span (equal
RREF rows), to re-verified generators and witnesses, one per span
dimension, and to certificates that still verify.
"""

import itertools
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from oracles import (
    all_elements,
    brute_span_dim_zero_products,
    mult,
    random_change_of_basis,
    reference_factorizable_span,
    reference_zero_product_span,
)
from references import SHAPES, dense_kernel, operator_matrix, random_algebra, rref
from zpbal.algebra import Algebra
from zpbal.constructions import (direct_sum, function_algebra, matrix_algebra, nilpotent_algebra,
                                 poly_quotient_algebra, scalar_algebra, tensor_product)
from zpbal.config import DEFAULT_CONFIG, SweepConfig
from zpbal.corpus import golden_corpus
from zpbal.fields import PrimeField, vec_is_zero
from zpbal.rationals import QQ
from zpbal.linalg import Matrix, SpanBuilder, _dense
from zpbal.squarezero import factorizable_square_zero_span
from zpbal.sweep import (CEILING, EXACT, EXHAUSTED, LEFT, LOWER_BOUND, RIGHT, STALL, AnnihilatorSweep,
                         is_nilpotent, projective_points, sweep_blocks)
from zpbal.tensorsquare import (
    MEMBERSHIP,
    _defect_tensor,
    compute_zero_product_span,
    is_zero_product_balanced,
    is_zero_product_determined,
    verify_certificate,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
SRC = Path(__file__).resolve().parent.parent / "src"


def b_algebra(field, opposite=False):
    """B = span(e, n) with e² = e, en = n and ne = n² = 0, or its opposite.

    LAnn(B) = span(n) and RAnn(B) = 0; in B^op the two swap."""
    zero, one = field.zero, field.one
    table = [[[zero, zero] for _ in range(2)] for _ in range(2)]
    table[0][0] = [one, zero]  # e·e = e
    product = (1, 0) if opposite else (0, 1)  # n·e = n in B^op, e·n = n in B
    table[product[0]][product[1]] = [zero, one]
    return Algebra(field, ["e", "n"], table)


def one_sided(field):
    """B ⊕ B^op: both annihilators of the algebra are nonzero and they differ."""
    return direct_sum(b_algebra(field), b_algebra(field, opposite=True))


ONE_SIDED = {"B+Bop/F3": lambda: one_sided(F3),
             "B+Bop+N3/F2": lambda: direct_sum(one_sided(F2), nilpotent_algebra(F2, 3))}


def assert_same_as_reference(alg, config):
    span = compute_zero_product_span(alg, config)
    _, builder = reference_zero_product_span(alg, config)
    assert span.subspace.basis == builder.rows
    assert len(span.generators) == span.dim
    for u, v in span.generators:
        assert vec_is_zero(alg.multiply_coords(u, v))

    balanced = is_zero_product_balanced(alg, span)
    determined = is_zero_product_determined(alg, span)
    assert all(verify_certificate(alg, c) for c in balanced.certificates + determined.certificates)

    fact = factorizable_square_zero_span(alg, config)
    _, fbuilder = reference_factorizable_span(alg, config)
    assert fact.subspace.basis == fbuilder.rows
    assert len(fact.witnesses) == fact.subspace.dim
    assert all(w.verify() for w in fact.witnesses)
    return span


FINITE_CORPUS = [e for e in golden_corpus() if e.algebra.field.is_finite()]
RATIONAL_CORPUS = [e for e in golden_corpus() if not e.algebra.field.is_finite()]


@pytest.mark.parametrize("entry", FINITE_CORPUS, ids=lambda e: e.name)
def test_exhaustive_sweep_matches_reference_on_finite_corpus(entry):
    span = assert_same_as_reference(entry.algebra, entry.config)
    assert span.status == "EXACT"


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
def test_exhaustive_sweep_matches_reference_on_random_algebras(field, shape):
    for seed in range(3):
        assert_same_as_reference(random_algebra(seed, field, shape), DEFAULT_CONFIG)


def test_lower_bound_route_matches_reference_below_the_cap():
    """Forced lower bounds on algebras with registered idempotents, in their
    own basis and in two random ones.  The reference still adds the zero
    basis pairs and the idempotent transfer tensors ae⊗(c-ec), (ae-a)⊗ec as
    stages of their own; the engine relies on its blocks to hold them, so
    equal rows show that those stages add nothing.  One random visit that
    adds nothing ends the second config's sweep, so there the structured
    elements, not the random ones, must reach the reference's span."""
    configs = (SweepConfig(enumeration_cap=8), SweepConfig(enumeration_cap=8, stall_rounds=1))
    rng = random.Random(5)
    for alg in (matrix_algebra(F2, 2), matrix_algebra(F3, 2), function_algebra(F3, 3),
                direct_sum(matrix_algebra(F2, 2), nilpotent_algebra(F2, 4)),
                direct_sum(function_algebra(F2, 2), nilpotent_algebra(F2, 5)),
                poly_quotient_algebra(F2, [0, 0, 0, 0, 1]),
                tensor_product(matrix_algebra(F2, 2), function_algebra(F2, 2))):
        for a in (alg, random_change_of_basis(alg, rng), random_change_of_basis(alg, rng)):
            assert a.registered_idempotents
            for config in configs:
                assert assert_same_as_reference(a, config).status == "LOWER_BOUND"


@pytest.mark.parametrize("entry", RATIONAL_CORPUS, ids=lambda e: e.name)
def test_lower_bound_route_matches_reference_on_rational_corpus(entry):
    span = assert_same_as_reference(entry.algebra, entry.config)
    assert span.status == "LOWER_BOUND"


def _inputs(fields, one_sided=()):
    """(id, algebra maker, config at its own cap): the finite corpus, then
    random algebras over `fields` (seeds 0-2)."""
    out = [(e.name, lambda e=e: e.algebra, e.config) for e in FINITE_CORPUS]
    out += [(name, make, DEFAULT_CONFIG) for name, make in one_sided]
    out += [(f"{shape}/{name}/{seed}", lambda seed=seed, field=field, shape=shape:
             random_algebra(seed, field, shape), DEFAULT_CONFIG)
            for name, field in fields for shape in SHAPES for seed in range(3)]
    return pytest.mark.parametrize("make, config", [i[1:] for i in out], ids=[i[0] for i in out])


@_inputs([("F2", F2), ("F3", F3), ("Q", QQ)], ONE_SIDED.items())
def test_every_offered_pair_has_a_zero_product(make, config):
    """Both routes, with nothing to stop them early: every pair (a, b) that
    `sweep_blocks` offers has ab = 0.  On the one-sided algebras the left
    and right annihilators differ, so a pair in the wrong order shows."""
    alg = make()
    for cfg in (config, SweepConfig(enumeration_cap=8)):
        offered = []

        def offer(pairs):
            offered.extend(pairs)
            return len(pairs)

        size = alg.n_elements()
        exact = size is not None and size <= cfg.enumeration_cap
        ended = (EXACT, EXHAUSTED) if exact else (LOWER_BOUND, STALL)  # nothing is ever full
        assert sweep_blocks(alg, cfg, offer, lambda: False) == ended
        assert all(vec_is_zero(alg.multiply_coords(a, b)) for a, b in offered)


@pytest.mark.parametrize("make, config, ended", [
    (lambda: matrix_algebra(F3, 3), SweepConfig(enumeration_cap=3 ** 9), (EXACT, CEILING)),
    (lambda: nilpotent_algebra(F2, 13), DEFAULT_CONFIG, (EXACT, EXHAUSTED)),
    (lambda: matrix_algebra(F2, 4), DEFAULT_CONFIG, (LOWER_BOUND, CEILING)),
    (lambda: nilpotent_algebra(QQ, 12), DEFAULT_CONFIG, (LOWER_BOUND, STALL)),
], ids=["M3/F3 at cap 3^9", "N13/F2", "M4/F2", "N12/Q"])
def test_the_span_says_why_its_sweep_stopped(make, config, ended):
    """The status says only whether the sweep was exhaustive; `stopped` says
    whether the span reached the kernel of μ, as M4/F2's LOWER_BOUND span
    does, or the walk ran out, or the random visits stalled."""
    report = compute_zero_product_span(make(), config)
    assert (report.status, report.stopped) == ended
    assert (report.dim == report.kernel_dim) == (report.stopped == CEILING)


@_inputs([("F2", F2), ("F3", F3)])
def test_factorizable_span_is_the_image_of_the_zero_product_span(make, config):
    """On the exhaustive route the factorizable span is spanned by vu over
    the zero-product generators (u, v), in the algebra's own basis and in a
    random one."""
    alg = make()
    for a in (alg, random_change_of_basis(alg, random.Random(alg.dim))):
        span = compute_zero_product_span(a, config)
        fact = factorizable_square_zero_span(a, config)
        assert span.status == fact.status == EXACT
        image = SpanBuilder(a.field, a.dim, (a.multiply_coords(v, u) for u, v in span.generators))
        assert fact.subspace.basis == image.basis


def _stacked_kernel(alg, vectors, left):
    """RREF basis of the common kernel of the operators of `vectors`."""
    rows = [row for w in vectors for row in operator_matrix(alg, w, left).rows]
    return dense_kernel(Matrix(alg.field, rows, cols=alg.dim))


@pytest.mark.parametrize("side", [RIGHT, LEFT])
def test_visit_matches_rebuilt_operators_on_random_elements(side):
    """Each block against from-scratch kernels: the annihilator is the kernel
    of u's operator and the closure the common kernel of the other side's
    operators of the annihilator's basis; a skipped u met that annihilator
    before and lies in its closure."""
    alg = matrix_algebra(F3, 2)
    sweep = AnnihilatorSweep(alg, side)
    rng = random.Random(7)
    closures = {}
    nonzero = 0
    for _ in range(200):
        u = [rng.randrange(3) for _ in range(alg.dim)]
        nonzero += any(u)
        kernel = dense_kernel(operator_matrix(alg, u, side == RIGHT))
        closure, annihilator = sweep.visit(u)
        key = tuple(map(tuple, kernel))
        if annihilator:
            assert annihilator == kernel
            assert closure == _stacked_kernel(alg, kernel, side == LEFT)
            assert key not in closures
            closures[key] = closure
        else:
            assert closure == []
            if any(u) and kernel:
                assert len(rref(closures[key] + [u], F3, alg.dim)[0]) == len(closures[key])
    assert sweep.visited == nonzero
    assert len(closures) > 1


@pytest.mark.parametrize("side", [RIGHT, LEFT])
@pytest.mark.parametrize("alg", [matrix_algebra(F3, 2), nilpotent_algebra(F3, 4),
                                 matrix_algebra(F2, 2), nilpotent_algebra(F2, 4)],
                         ids=["M2/F3", "N4/F3", "M2/F2", "N4/F2"])
def test_memo_keys_count_the_distinct_reference_kernels(alg, side):
    """Over every element, one memo entry per distinct annihilator: equal
    keys exactly when the reference kernels are equal."""
    sweep = AnnihilatorSweep(alg, side)
    kernels = set()
    for u in alg.coord_tuples():
        sweep.visit(u)
        if any(u):
            kernels.add(tuple(map(tuple, dense_kernel(operator_matrix(alg, u, side == RIGHT)))))
    assert sweep.distinct_annihilators == len(kernels) > 1


def _brute_is_nilpotent(alg):
    """A^(d+1) = 0: d rounds of A^(k+1) = span{x e_j : x in A^k}, from the
    dense structure constants, with no early exit."""
    f, d = alg.field, alg.dim
    units = [[f.one if t == j else f.zero for t in range(d)] for j in range(d)]
    power = units
    for _ in range(d):
        power = rref([mult(alg, x, e) for x in power for e in units], f, d)[0]
    return not power


def _class_point(alg, kernel, v):
    """The point of v's class modulo K (RREF rows `kernel`) that is zero at
    K's pivots, scaled to a leading 1; None for v in K."""
    p = alg.field.characteristic
    v = list(v)
    for k in kernel:
        c = v[k.index(1)]
        v = [(a - c * b) % p for a, b in zip(v, k)]
    lead = next((a for a in v if a), None)
    return None if lead is None else tuple(a * pow(lead, p - 2, p) % p for a in v)


def _brute_orbit_count(alg, side, kernel):
    """Orbits of u -> c(u + au) (c(u + ua) on the left) on the projective
    points of A/K, over every c != 0 and every a."""
    p = alg.field.characteristic
    elements = list(all_elements(alg))
    points = {_class_point(alg, kernel, u) for u in elements} - {None}
    orbits = set()
    for u in points:
        moved = [mult(alg, a, u) if side == RIGHT else mult(alg, u, a) for a in elements]
        orbits.add(frozenset(_class_point(alg, kernel, [c * (x + y) % p for x, y in zip(u, m)])
                             for m in moved for c in range(1, p)))
    return len(orbits)


@pytest.mark.parametrize("side", [RIGHT, LEFT])
@pytest.mark.parametrize("make", list(ONE_SIDED.values()) + [
    lambda: nilpotent_algebra(F2, 6), lambda: nilpotent_algebra(F3, 5)],
    ids=list(ONE_SIDED) + ["N6/F2", "N5/F3"])
def test_exhaustive_blocks_visit_one_projective_point_per_coset(make, side):
    """K = {u : op_u = 0} comes first, as the closure of the whole algebra;
    then the (p^(d-k) - 1)/(p - 1) projective points of A/K are visited, or
    on a nilpotent algebra one per orbit of u -> c(u + au) (c(u + ua) on
    the left) on them, the orbits counted here by brute force."""
    alg = make()
    p, d = alg.field.characteristic, alg.dim
    sweep = AnnihilatorSweep(alg, side)
    blocks = list(sweep.exhaustive_blocks())
    kernel, whole = blocks[0]
    assert whole == [[int(i == j) for j in range(d)] for i in range(d)]
    assert kernel == _stacked_kernel(alg, whole, side == LEFT)
    cosets = (p ** (d - len(kernel)) - 1) // (p - 1)
    if _brute_is_nilpotent(alg):
        assert sweep.visited == _brute_orbit_count(alg, side, kernel) < cosets
    else:
        assert sweep.visited == cosets


class _RecordingSweep(AnnihilatorSweep):
    """An annihilator sweep that records the points it visits."""

    def __init__(self, algebra, side):
        super().__init__(algebra, side)
        self.points = []

    def visit(self, u):
        self.points.append(tuple(u))
        return super().visit(u)


def _n4_plus_f2(field):
    return direct_sum(nilpotent_algebra(field, 4), scalar_algebra(field))


def strictly_upper(field, n):
    """Strictly upper triangular n × n matrices, e_ij e_jk = e_ik: nilpotent
    and noncommutative, with A² ≠ LAnn(A), so that u + Au and u + uA differ
    modulo LAnn(A)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = {pair: t for t, pair in enumerate(pairs)}
    table = [[[field.zero] * len(pairs) for _ in pairs] for _ in pairs]
    for i, j in pairs:
        for k, l in pairs:
            if j == k:
                table[index[i, j]][index[k, l]][index[i, l]] = field.one
    return Algebra(field, [f"e{i + 1}{j + 1}" for i, j in pairs], table)


SKIP_INPUTS = {
    "N7/F2": lambda: nilpotent_algebra(F2, 7),
    "N6/F3": lambda: nilpotent_algebra(F3, 6),
    "M2⊗N3/F2": lambda: tensor_product(matrix_algebra(F2, 2), nilpotent_algebra(F2, 3)),
    "M2⊗N3/F3": lambda: tensor_product(matrix_algebra(F3, 2), nilpotent_algebra(F3, 3)),
    "N4⊕N5/F2": lambda: direct_sum(nilpotent_algebra(F2, 4), nilpotent_algebra(F2, 5)),
    "N4⊕N5/F3": lambda: direct_sum(nilpotent_algebra(F3, 4), nilpotent_algebra(F3, 5)),
    "UT4/F2": lambda: strictly_upper(F2, 4),
    "UT4/F3": lambda: strictly_upper(F3, 4),
    "N4⊕F2/F2": lambda: _n4_plus_f2(F2),
    "M2/F3": lambda: matrix_algebra(F3, 2),
    **ONE_SIDED,
}


NILPOTENCY_INPUTS = ([(e.name, lambda e=e: e.algebra) for e in FINITE_CORPUS]
                     + [(f"{shape}/{name}/{seed}", lambda seed=seed, field=field, shape=shape:
                         random_algebra(seed, field, shape))
                        for name, field in (("F2", F2), ("F3", F3)) for shape in SHAPES for seed in range(3)]
                     + list(SKIP_INPUTS.items()))


@pytest.mark.parametrize("make", [m for _, m in NILPOTENCY_INPUTS], ids=[n for n, _ in NILPOTENCY_INPUTS])
def test_nilpotency_decision_matches_brute_force(make):
    """The chain that stops at A^(k+1) = A^k decides nilpotency as A^(d+1) = 0
    does, in the algebra's own basis and in a random one."""
    alg = make()
    for a in (alg, random_change_of_basis(alg, random.Random(3))):
        assert is_nilpotent(a) == _brute_is_nilpotent(alg)


def test_nilpotency_inputs_hold_both_answers():
    answers = [_brute_is_nilpotent(make()) for _, make in NILPOTENCY_INPUTS]
    assert answers.count(True) >= 5 and answers.count(False) >= 5


@pytest.mark.parametrize("make", list(SKIP_INPUTS.values()), ids=list(SKIP_INPUTS))
def test_points_the_exhaustive_sweep_skips_share_a_visited_points_annihilator(make):
    """On both sides, in the algebra's own basis and in two random ones:
    every projective point of A/K that the sweep passes over has the
    reference kernel of a point it visited, so the memo still meets every
    distinct kernel; the sweep passes over no point of an algebra that is
    not nilpotent; and the spans and certificates still match the
    per-element reference."""
    alg = make()
    rng = random.Random(alg.dim)
    nilpotent = _brute_is_nilpotent(alg)
    for a in (alg, random_change_of_basis(alg, rng), random_change_of_basis(alg, rng)):
        for side in (RIGHT, LEFT):
            sweep = _RecordingSweep(a, side)
            kernel = list(sweep.exhaustive_blocks())[0][0]
            pivots = [k.index(1) for k in kernel]

            def reference(u):
                return tuple(map(tuple, dense_kernel(operator_matrix(a, u, side == RIGHT))))

            visited = set(sweep.points)
            skipped = [u for u in projective_points(a, pivots) if u not in visited]
            kernels = {reference(u) for u in visited}
            assert {reference(u) for u in skipped} <= kernels
            assert sweep.distinct_annihilators == len(kernels) + 1  # and K's key ()
            assert nilpotent or not skipped
        assert_same_as_reference(a, DEFAULT_CONFIG)


def _d_n3(field):
    """D⊗N3 with D = F[t]/(t² - 2): A³ = 0, and over Q each element's orbit
    is its line modulo K."""
    return tensor_product(poly_quotient_algebra(field, [field.of_int(-2), field.zero, field.one]),
                          nilpotent_algebra(field, 3))


# (algebra maker, whether the lower-bound sweep passes over elements in the
# algebra's own basis): True on nilpotent algebras with A³ != 0, except UT4,
# whose span reaches its ceiling after 7 visits a side; False on the A³ = 0
# ones, whose structure constants show it, and on the controls M3/Q and
# N4⊕F2, which are not nilpotent.  UT4⊕N4 is a nilpotent input with
# LAnn(A) != RAnn(A) whose span never reaches its ceiling.
ORBIT_INPUTS = {
    "N5/Q": (lambda: nilpotent_algebra(QQ, 5), True),
    "N8/Q": (lambda: nilpotent_algebra(QQ, 8), True),
    "UT4/Q": (lambda: strictly_upper(QQ, 4), False),
    "UT4⊕N4/F3": (lambda: direct_sum(strictly_upper(F3, 4), nilpotent_algebra(F3, 4)), True),
    "N4⊕N5/F3": (lambda: direct_sum(nilpotent_algebra(F3, 4), nilpotent_algebra(F3, 5)), True),
    "D⊗N3/Q": (lambda: _d_n3(QQ), False),
    "M3⊗N3/F2": (lambda: tensor_product(matrix_algebra(F2, 3), nilpotent_algebra(F2, 3)), False),
    "M3/Q": (lambda: matrix_algebra(QQ, 3), False),
    "N4⊕F2/F2": (lambda: _n4_plus_f2(F2), False),
}


def _lower_bound_span(alg, config, visit_all=False):
    """`compute_zero_product_span` with each side's visited and passed-over
    elements recorded; with `visit_all` the orbit test never holds, so the
    sweep visits every element it meets, as it did before the test."""
    seen = {RIGHT: ([], []), LEFT: ([], [])}  # side -> (visited, passed over)
    real = AnnihilatorSweep.visit

    def visit(self, u):
        before = self.visited
        block = real(self, u)
        if any(u):
            seen[self.side][self.visited == before].append(tuple(u))
        return block

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(AnnihilatorSweep, "visit", visit)
        if visit_all:
            patch.setattr(AnnihilatorSweep, "_in_met_orbit", lambda self, u: False)
        return compute_zero_product_span(alg, config), seen


@pytest.mark.parametrize("make, passes", list(ORBIT_INPUTS.values()), ids=list(ORBIT_INPUTS))
def test_elements_the_lower_bound_sweep_passes_over_share_a_visited_elements_annihilator(make, passes):
    """Beyond the cap, in the algebra's own basis and in two random ones, at
    three seeds, on both sides: every element the sweep passes over has the
    reference kernel of an element it visited on that side, nothing is
    passed over on an algebra that is not nilpotent, and the span, its
    generators and its status are those of a sweep that visits every
    element.  An algebra that is not nilpotent has the sweep's own run as
    that reference."""
    alg = make()
    nilpotent = _brute_is_nilpotent(alg)
    rng = random.Random(alg.dim)
    for n, a in enumerate((alg, random_change_of_basis(alg, rng), random_change_of_basis(alg, rng))):
        kernels = {}

        def reference(u, side):
            if (u, side) not in kernels:
                kernels[u, side] = tuple(map(tuple, dense_kernel(operator_matrix(a, u, side == RIGHT))))
            return kernels[u, side]

        for seed in range(3):
            config = SweepConfig(enumeration_cap=1, seed=seed)
            span, seen = _lower_bound_span(a, config)
            every, every_seen = _lower_bound_span(a, config, visit_all=True) if nilpotent else (span, seen)
            assert span.status == every.status == LOWER_BOUND
            assert (span.generators, span.dim) == (every.generators, every.dim)
            for side, (visited, passed) in seen.items():
                assert not every_seen[side][1]
                if passed:
                    assert {reference(u, side) for u in passed} <= {reference(u, side) for u in visited}
                if n == 0:
                    assert bool(passed) == passes


def _two_step_balanced(alg, report):
    """The balanced decider's YES certificates as (kind, target, terms, meta),
    or None where it finds no membership: every triple's defect built and
    looked up, a zero defect included."""
    f, d = alg.field, alg.dim
    certs, shown = [], {frozenset(): []}
    for i, j, k in itertools.product(range(d), repeat=3):
        t = _defect_tensor(alg, i, j, k)
        key = frozenset(t.items())
        if key in shown:
            certs.append((MEMBERSHIP, None, shown[key], {"triple": [i, j, k]}))
            continue
        terms = report.membership_terms(t)
        if terms is None:
            return None
        shown[key] = terms
        certs.append((MEMBERSHIP, _dense(f, t, d * d), terms, {"triple": [i, j, k]}))
    return certs


@pytest.mark.parametrize("make", [m for m, _ in ORBIT_INPUTS.values()], ids=list(ORBIT_INPUTS))
def test_zero_defect_triples_get_the_certificates_of_the_two_step_decider(make):
    """Triples with e_i e_j = 0 = e_j e_k occur, and the decider, which does
    not build their defect, gives the certificates of one that does."""
    alg = make()
    nz = alg._nonzero
    zero = [(i, j, k) for i, j, k in itertools.product(range(alg.dim), repeat=3) if not nz[i][j] and not nz[j][k]]
    assert zero
    span = compute_zero_product_span(alg, SweepConfig(enumeration_cap=1, seed=1))
    verdict = is_zero_product_balanced(alg, span)
    want = _two_step_balanced(alg, span)
    if want is None:
        assert verdict.status == "UNKNOWN" and verdict.certificates == []
        return
    assert verdict.status == "YES"
    assert [(c.kind, c.target, list(c.terms), c.meta) for c in verdict.certificates] == \
        [(kind, target, list(terms), meta) for kind, target, terms, meta in want]
    assert all(verify_certificate(alg, c) for c in verdict.certificates)


def test_zero_defect_inputs_hold_both_verdicts():
    statuses = {is_zero_product_balanced(alg, compute_zero_product_span(
        alg, SweepConfig(enumeration_cap=1, seed=1))).status for alg in (m() for m, _ in ORBIT_INPUTS.values())}
    assert statuses == {"YES", "UNKNOWN"}


@pytest.mark.parametrize("make, k_dims", [
    (lambda: b_algebra(F3), (1, 0)),
    (lambda: b_algebra(F2, opposite=True), (0, 1)),
    (ONE_SIDED["B+Bop/F3"], (1, 1)),
    (ONE_SIDED["B+Bop+N3/F2"], (2, 2)),
], ids=["B/F3", "Bop/F2", *ONE_SIDED])
def test_quotient_route_on_algebras_with_different_one_sided_annihilators(make, k_dims):
    """B's zero-product span is n⊗A, reached only through the block of
    K = LAnn(B) = span(n); B^op's factorizable span is span(n'), reached only
    through the block of RAnn(B^op) = span(n')."""
    alg = make()
    left_k = next(AnnihilatorSweep(alg, RIGHT).exhaustive_blocks())[0]  # LAnn(A)
    right_k = next(AnnihilatorSweep(alg, LEFT).exhaustive_blocks())[0]  # RAnn(A)
    assert (len(left_k), len(right_k)) == k_dims and left_k != right_k
    span = assert_same_as_reference(alg, DEFAULT_CONFIG)
    assert span.status == "EXACT"
    assert span.dim == brute_span_dim_zero_products(alg)


def test_sweep_config_is_immutable():
    config = SweepConfig(enumeration_cap=8, seed=3)
    assert (config.enumeration_cap, config.stall_rounds, config.seed) == (8, 64, 3)
    for name in ("enumeration_cap", "stall_rounds", "seed", "other"):
        with pytest.raises(AttributeError):
            setattr(config, name, 1)
    assert (config.enumeration_cap, config.stall_rounds, config.seed) == (8, 64, 3)
    for caps in ({"enumeration_cap": 0}, {"stall_rounds": 0}, {"enumeration_cap": -1}):
        with pytest.raises(ValueError, match="caps must be positive"):
            SweepConfig(**caps)


_TAMPER = textwrap.dedent("""
    import sys
    from zpbal.algebra import Algebra
    from zpbal.config import SweepConfig
    from zpbal.constructions import matrix_algebra, nilpotent_algebra
    from zpbal.errors import ExpressionsNotTracked, SoundnessAlarm
    from zpbal.fields import PrimeField
    from zpbal.linalg import SpanBuilder
    from zpbal.rationals import QQ
    from zpbal.squarezero import factorizable_square_zero_span
    from zpbal.tensorsquare import compute_zero_product_span

    if not sys.flags.optimize:
        sys.exit("run with python -O")
    honest = Algebra.multiply_coords

    def alarms(run, pair):
        def tampered(self, u, v):
            out = honest(self, u, v)
            if (tuple(u), tuple(v)) == pair:
                out[0] = self.field.one
            return out
        Algebra.multiply_coords = tampered
        try:
            run()
        except SoundnessAlarm:
            return True
        finally:
            Algebra.multiply_coords = honest
        return False

    results = []
    for alg, config in ((nilpotent_algebra(PrimeField(2), 4), SweepConfig()),
                        (matrix_algebra(QQ, 2), SweepConfig()),
                        (matrix_algebra(PrimeField(2), 2), SweepConfig(enumeration_cap=8))):
        pair = compute_zero_product_span(alg, config).generators[-1]
        results.append(alarms(lambda: compute_zero_product_span(alg, config), pair))
    m2 = matrix_algebra(PrimeField(3), 2)
    w = factorizable_square_zero_span(m2).witnesses[0]
    results.append(alarms(lambda: factorizable_square_zero_span(m2), (w.z.coords, w.y.coords)))
    untracked = SpanBuilder(PrimeField(2), 2)
    untracked.add([1, 0])
    try:
        untracked.generator_coefficients([1, 0])
        results.append(False)
    except ExpressionsNotTracked:
        results.append(True)
    print(results)
""")


def test_soundness_checks_survive_python_O():
    """The soundness alarms and the untracked-builder guard are not asserts."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", _TAMPER], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[True, True, True, True, True]"


@pytest.mark.parametrize("make", [
    lambda: nilpotent_algebra(F2, 5),
    lambda: matrix_algebra(F2, 2),
    lambda: nilpotent_algebra(F3, 4),
    lambda: matrix_algebra(F3, 2),
    lambda: nilpotent_algebra(QQ, 3),
    lambda: matrix_algebra(QQ, 2),
    lambda: matrix_algebra(F2, 3),
    *ONE_SIDED.values(),
], ids=["N5/F2", "M2/F2", "N4/F3", "M2/F3", "N3/Q", "M2/Q", "M3/F2", *ONE_SIDED])
def test_span_dimensions_invariant_under_change_of_basis(make):
    alg = make()
    rng = random.Random(11)

    def dims(a):
        span = compute_zero_product_span(a)
        return span.dim, span.kernel_dim, factorizable_square_zero_span(a).subspace.dim

    before = dims(alg)
    for _ in range(3):
        assert dims(random_change_of_basis(alg, rng)) == before
