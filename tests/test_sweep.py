"""The annihilator sweep against the per-element loops it replaced.

The reference loops in oracles.py visit every element; the sweep visits
projective points and skips memo hits.  Neither shortcut may change a single
emitted generator, witness or reduced row.
"""

import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from oracles import random_change_of_basis, reference_factorizable_span, reference_zero_product_span
from references import SHAPES, dense_kernel, operator_matrix, random_algebra, rref
from zpbal.algebra import matrix_algebra, nilpotent_algebra
from zpbal.config import DEFAULT_CONFIG, SweepConfig
from zpbal.corpus import golden_corpus
from zpbal.fields import QQ, PrimeField
from zpbal.squarezero import factorizable_square_zero_span
from zpbal.sweep import LEFT, RIGHT, AnnihilatorSweep
from zpbal.tensorsquare import compute_zero_product_span

F2 = PrimeField(2)
F3 = PrimeField(3)
SRC = Path(__file__).resolve().parent.parent / "src"


def witness_triples(witnesses):
    return [(w.x.coords, w.y.coords, w.z.coords) for w in witnesses]


def assert_same_as_reference(alg, config):
    span = compute_zero_product_span(alg, config)
    generators, builder = reference_zero_product_span(alg, config)
    assert span.generators == generators
    assert span.subspace.basis == builder.rows
    assert span._builder.exprs == builder.exprs

    fact = factorizable_square_zero_span(alg, config)
    witnesses, fbuilder = reference_factorizable_span(alg, config)
    assert witness_triples(fact.witnesses) == witness_triples(witnesses)
    assert fact.subspace.basis == fbuilder.rows
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
    span = assert_same_as_reference(matrix_algebra(F2, 2), SweepConfig(enumeration_cap=8))
    assert span.status == "LOWER_BOUND"


@pytest.mark.parametrize("entry", RATIONAL_CORPUS, ids=lambda e: e.name)
def test_lower_bound_route_matches_reference_on_rational_corpus(entry):
    span = assert_same_as_reference(entry.algebra, entry.config)
    assert span.status == "LOWER_BOUND"


@pytest.mark.parametrize("side", [RIGHT, LEFT])
def test_visit_matches_rebuilt_operators_on_random_elements(side):
    """The memo against a from-scratch kernel."""
    alg = matrix_algebra(F3, 2)
    sweep = AnnihilatorSweep(alg, side)
    rng = random.Random(7)
    offered = {}
    nonzero = 0
    for _ in range(200):
        u = [rng.randrange(3) for _ in range(alg.dim)]
        nonzero += any(u)
        kernel = dense_kernel(operator_matrix(alg, u, side == RIGHT))
        got = sweep.visit(u)
        assert got in ([], kernel)
        if got:
            offered.setdefault(tuple(map(tuple, kernel)), []).append(u)
        elif any(u) and kernel:
            # a skipped element lies in the span of earlier ones with its annihilator
            earlier = offered.get(tuple(map(tuple, kernel)), [])
            assert len(rref(earlier + [u], F3, alg.dim)[0]) == len(rref(earlier, F3, alg.dim)[0])
    assert sweep.visited == nonzero


@pytest.mark.parametrize("side", [RIGHT, LEFT])
@pytest.mark.parametrize("alg", [matrix_algebra(F3, 2), nilpotent_algebra(F3, 4)], ids=["M2/F3", "N4/F3"])
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


_TAMPER = textwrap.dedent("""
    import sys
    from zpbal.algebra import Algebra, matrix_algebra, nilpotent_algebra
    from zpbal.config import SweepConfig
    from zpbal.errors import ExpressionsNotTracked, SoundnessAlarm
    from zpbal.fields import QQ, PrimeField
    from zpbal.linalg import SpanBuilder
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
], ids=["N5/F2", "M2/F2", "N4/F3", "M2/F3", "N3/Q", "M2/Q"])
def test_span_dimensions_invariant_under_change_of_basis(make):
    alg = make()
    rng = random.Random(11)

    def dims(a):
        span = compute_zero_product_span(a)
        return span.dim, span.kernel_dim, factorizable_square_zero_span(a).subspace.dim

    before = dims(alg)
    for _ in range(3):
        assert dims(random_change_of_basis(alg, rng)) == before
