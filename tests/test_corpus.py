from references import SHAPES, random_algebra, subalgebra
from zpbal.fields import PrimeField
from zpbal.algebra import direct_sum, matrix_over, quotient_algebra, ideal_closure
from zpbal.corpus import golden_corpus, run_suites
from zpbal.linalg import Subspace
from zpbal.squarezero import check_span_equality
from zpbal.tensorsquare import (
    compute_zero_product_span,
    is_zero_product_balanced,
    is_zero_product_determined,
)

F2 = PrimeField(2)
F3 = PrimeField(3)


def test_golden_suite_all_pass():
    results = run_suites()
    failures = [r for r in results if not r.passed]
    assert not failures, failures


def test_golden_corpus_coverage():
    names = {e.name for e in golden_corpus()}
    for needed in ("N2/F2", "N3/Q", "N4/F2", "N5/F3", "F4⊗N3/F2", "D⊗N3/Q",
                   "M2/F2", "M2/F3", "M3/F2", "M2(N3)/F2", "F2×N3", "zero(1)/F2"):
        assert needed in names


def test_every_expectation_has_provenance():
    for entry in golden_corpus():
        for key in entry.expected:
            assert key in entry.provenance, (entry.name, key)
            assert entry.provenance[key]


def test_random_algebras_validate():
    for shape in SHAPES:
        for seed in range(6):
            for field in (F2, F3):
                alg = random_algebra(seed, field, shape)
                assert alg.dim >= 1
                # construction went through the validating constructor, so a
                # re-build from its own table must validate too
                from zpbal.algebra import Algebra
                Algebra(alg.field, alg.names, alg.table)


def test_implication_lattice_on_random_corpus():
    for shape in SHAPES:
        for seed in range(4):
            alg = random_algebra(seed, F2, shape)
            if alg.n_elements() > 4096:
                continue
            span = compute_zero_product_span(alg)
            zpd = is_zero_product_determined(alg, span)
            bal = is_zero_product_balanced(alg, span)
            if zpd.status == "YES":
                assert bal.status == "YES"
            if alg.predicates().is_unital and span.is_complete:
                assert bal.status == zpd.status
            # balanced + idempotent forces the span equality
            eq = check_span_equality(alg)
            if eq.applicable and eq.factorizable_status == "EXACT":
                assert eq.equal


def test_quotients_of_balanced_are_balanced():
    for entry in golden_corpus():
        if entry.expected.get("balanced") != "YES":
            continue
        alg = entry.algebra
        if alg.field.characteristic == 0 or alg.dim > 8 or alg.dim == 0:
            continue
        span = compute_zero_product_span(alg)
        if not span.is_complete:
            continue
        # quotient by the ideal generated by the first basis vector
        seed_vec = [alg.field.one] + [alg.field.zero] * (alg.dim - 1)
        ideal = ideal_closure(alg, [seed_vec])
        if ideal.dim == alg.dim:
            continue
        quot = quotient_algebra(alg, ideal)
        qspan = compute_zero_product_span(quot.algebra)
        assert is_zero_product_balanced(quot.algebra, qspan).status == "YES", entry.name


def test_full_summand_ideals_of_balanced_are_balanced():
    # an ideal with span(I*A) = span(A*I) = I, re-presented as an algebra,
    # stays balanced; direct-sum summands of unital entries qualify
    from zpbal.algebra import matrix_algebra, function_algebra
    a = direct_sum(matrix_algebra(F2, 2), function_algebra(F2, 2))
    span = compute_zero_product_span(a)
    assert is_zero_product_balanced(a, span).status == "YES"
    f = a.field
    ideal_rows = [[f.one if t == i else f.zero for t in range(a.dim)] for i in range(4)]
    ideal = Subspace(f, a.dim, ideal_rows)
    # hypothesis check: span I*A = span A*I = I
    prods = []
    for v in ideal.basis:
        for i in range(a.dim):
            ei = [f.one if t == i else f.zero for t in range(a.dim)]
            prods.append(a.multiply_coords(v, ei))
            prods.append(a.multiply_coords(ei, v))
    assert Subspace(f, a.dim, prods) == ideal
    sub = subalgebra(a, [a.element(v) for v in ideal.basis])
    sspan = compute_zero_product_span(sub.algebra)
    assert is_zero_product_balanced(sub.algebra, sspan).status == "YES"


def test_direct_sums_of_balanced_are_balanced():
    balanced_entries = [e for e in golden_corpus()
                        if e.expected.get("balanced") == "YES"
                        and e.algebra.field == F2 and e.algebra.dim <= 4]
    for i in range(len(balanced_entries)):
        for j in range(i, min(i + 2, len(balanced_entries))):
            s = direct_sum(balanced_entries[i].algebra, balanced_entries[j].algebra)
            if s.n_elements() > 4096:
                continue
            span = compute_zero_product_span(s)
            assert is_zero_product_balanced(s, span).status == "YES", (
                balanced_entries[i].name, balanced_entries[j].name)


def test_matrices_over_anything_are_balanced():
    from zpbal.algebra import nilpotent_algebra, function_algebra, zero_algebra
    for base in (nilpotent_algebra(F2, 3), function_algebra(F2, 2), zero_algebra(F2, 1)):
        mn = matrix_over(base, 2)
        span = compute_zero_product_span(mn)
        assert is_zero_product_balanced(mn, span).status == "YES"
