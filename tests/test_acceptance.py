"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).

Every tolerance is exact equality; the only non-exact limits are the wall
clock budgets stated inline.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from oracles import enumerate_idempotents
from references import (
    centralizer_space,
    generated_by_nilpotents_check,
    is_invertible,
    linear_combination,
    matrix_from_flat,
)
from zpbal.cli import main as cli_main
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
)
from zpbal.corpus import golden_corpus
from zpbal.linalg import Matrix
from zpbal.linmaps import (
    AlgMap,
    is_semimultiplicative,
    is_zero_product_preserving,
    weighted_factorization,
)
from zpbal.squarezero import check_span_equality
from zpbal.structure import (
    ReducedQuotient,
    atoms_from_idempotents,
    decompose,
    dichotomy_commutative,
    dichotomy_general,
    nilradical,
    sigma_splitting,
)
from zpbal.tensorsquare import (
    compute_zero_product_span,
    is_zero_product_balanced,
    is_zero_product_determined,
    verify_certificate,
)

F2 = PrimeField(2)
F3 = PrimeField(3)


def report(n, text):
    print(f"\n[criterion {n:2d}] PASS: {text}")


def test_c01_order3_nilpotent_exact():
    t0 = time.monotonic()
    n3 = nilpotent_algebra(F2, 3)
    span = compute_zero_product_span(n3)
    assert span.status == "EXACT" and span.dim == 3
    assert span.kernel_dim == 3
    assert is_zero_product_determined(n3, span).status == "YES"
    assert is_zero_product_balanced(n3, span).status == "YES"
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(1, f"order-3 nilpotent over F2: span 3 = kernel 3, determined and balanced ({elapsed:.3f}s)")


def test_c02_order45_nilpotents_refuted():
    total = 0.0
    for field in (F2, F3):
        for order in (4, 5):
            t0 = time.monotonic()
            alg = nilpotent_algebra(field, order)
            span = compute_zero_product_span(alg)
            verdict = is_zero_product_balanced(alg, span)
            assert verdict.status == "NO"
            assert len(verdict.certificates) == 1
            assert verify_certificate(alg, verdict.certificates[0])
            elapsed = time.monotonic() - t0
            assert elapsed < 1.0
            total += elapsed
    n4 = nilpotent_algebra(F2, 4)
    span = compute_zero_product_span(n4)
    assert span.dim == 6 and span.kernel_dim == 7
    report(2, f"order-4/5 nilpotents over F2 and F3 refuted with verified functionals; "
              f"order-4/F2 dims 6 vs 7 ({total:.3f}s total)")


def test_c03_quadratic_extension_tensor():
    t0 = time.monotonic()
    f4 = poly_quotient_algebra(F2, [1, 1, 1])
    alg = tensor_product(f4, nilpotent_algebra(F2, 3))
    span = compute_zero_product_span(alg)
    balanced = is_zero_product_balanced(alg, span)
    assert balanced.status == "YES"
    assert all(verify_certificate(alg, c) for c in balanced.certificates)
    determined = is_zero_product_determined(alg, span)
    assert determined.status == "NO"
    assert verify_certificate(alg, determined.certificates[0])
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(3, f"quadratic-extension tensor: balanced with {len(balanced.certificates)} verified "
              f"membership certificates, not determined (verified functional) ({elapsed:.3f}s)")


def test_c04_matrix_algebras():
    t0 = time.monotonic()
    cases = [
        ("M2/F2", matrix_algebra(F2, 2), True),
        ("M2/F3", matrix_algebra(F3, 2), True),
        ("M3/F2", matrix_algebra(F2, 3), True),
        ("M2(N3)/F2", matrix_over(nilpotent_algebra(F2, 3), 2), False),
    ]
    for name, alg, unital in cases:
        span = compute_zero_product_span(alg)
        assert is_zero_product_balanced(alg, span).status == "YES", name
        assert alg.predicates().is_unital == unital
        if unital:
            assert is_zero_product_determined(alg, span).status == "YES", name
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(4, f"matrix algebras (incl. 9-dim sweep in an 81-dim tensor square) all balanced; "
              f"unital ones determined ({elapsed:.3f}s)")


# -- criterion 5 machinery ---------------------------------------------------


def _random_invertible(rng, field, n):
    while True:
        if field.characteristic == 0:
            m = Matrix(field, [[Fraction(rng.randint(-2, 2)) for _ in range(n)]
                               for _ in range(n)])
        else:
            p = field.characteristic
            m = Matrix(field, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
        if is_invertible(m):
            return m


def _conjugation_map(algebra, p_mat):
    n = int(len(p_mat.rows) ** 1)
    pinv = p_mat.inverse()
    cols = []
    size = p_mat.nrows
    for idx in range(algebra.dim):
        r, c = divmod(idx, size)
        e = Matrix(algebra.field, [[algebra.field.one if (i, j) == (r, c) else algebra.field.zero
                                    for j in range(size)] for i in range(size)])
        img = p_mat.mul(e).mul(pinv)
        cols.append([img.rows[i][j] for i in range(size) for j in range(size)])
    return AlgMap(algebra, algebra, Matrix.from_columns(algebra.field, cols, algebra.dim))


def _permutation_map(algebra, perm):
    f = algebra.field
    cols = [[f.one if t == perm[i] else f.zero for t in range(algebra.dim)]
            for i in range(algebra.dim)]
    return AlgMap(algebra, algebra, Matrix.from_columns(f, cols, algebra.dim))


def _random_bijective_centralizer(rng, algebra):
    space = centralizer_space(algebra)
    f = algebra.field
    for _ in range(200):
        if f.characteristic == 0:
            coeffs = [Fraction(rng.randint(-2, 2)) for _ in range(space.dim)]
        else:
            coeffs = [rng.randrange(f.characteristic) for _ in range(space.dim)]
        s = matrix_from_flat(algebra, linear_combination(space, coeffs))
        if is_invertible(s):
            return s
    raise AssertionError("no invertible centralizer found")


def _factorization_instance(seed):
    """Deterministic weighted map pi = S ∘ pi0 with known parts."""
    rng = random.Random(seed)
    kind = rng.choice(["m2f2", "m2f3", "kn", "m2q", "sum_proj"])
    if kind == "m2f2":
        alg = matrix_algebra(F2, 2)
        pi0 = _conjugation_map(alg, _random_invertible(rng, F2, 2))
    elif kind == "m2f3":
        alg = matrix_algebra(F3, 2)
        pi0 = _conjugation_map(alg, _random_invertible(rng, F3, 2))
    elif kind == "m2q":
        alg = matrix_algebra(QQ, 2)
        pi0 = _conjugation_map(alg, _random_invertible(rng, QQ, 2))
    elif kind == "kn":
        field = rng.choice([F2, F3, QQ])
        n = rng.choice([2, 3])
        alg = function_algebra(field, n)
        perm = list(range(n))
        rng.shuffle(perm)
        pi0 = _permutation_map(alg, perm)
    else:  # projection of a direct sum onto its first summand
        target = matrix_algebra(F2, 2)
        source = direct_sum(target, function_algebra(F2, 2))
        cols = [[F2.one if t == i else F2.zero for t in range(4)] for i in range(4)]
        cols += [[F2.zero] * 4] * 2
        pi0 = AlgMap(source, target, Matrix.from_columns(F2, cols, 4))
        alg = target
    s_mat = _random_bijective_centralizer(rng, pi0.target)
    pi = AlgMap(pi0.source, pi0.target, s_mat.mul(pi0.matrix))
    return pi, pi0, s_mat


def test_c05_factorization_roundtrip_200():
    t0 = time.monotonic()
    mismatches = 0
    for seed in range(200):
        pi, pi0, s_mat = _factorization_instance(seed)
        w = weighted_factorization(pi)
        if w.S != s_mat or w.pi0.matrix != pi0.matrix:
            mismatches += 1
            continue
        if pi.source.predicates().is_unital:
            unit = pi.source.element(pi.source.predicates().unit)
            pi_one = pi.apply(unit)
            assert w.S == pi.target.left_mult_matrix(list(pi_one.coords))
            # the image of the unit is central and invertible
            for i in range(pi.target.dim):
                e = pi.target.basis_element(i)
                assert pi_one * e == e * pi_one
            assert is_invertible(pi.target.left_mult_matrix(list(pi_one.coords)))
    elapsed = time.monotonic() - t0
    assert mismatches == 0
    assert elapsed < 30.0
    report(5, f"200 seeded weighted maps factor back to their exact (S, pi0); unital "
              f"weights equal multiplication by the unit image ({elapsed:.3f}s)")


def test_c06_equivalence_on_balanced_sources():
    t0 = time.monotonic()
    checked = 0
    for seed in range(60):
        pi, pi0, s_mat = _factorization_instance(seed)
        span = compute_zero_product_span(pi.source)
        balanced = is_zero_product_balanced(pi.source, span)
        if balanced.status != "YES" or not span.is_complete:
            continue
        # semimultiplicative surjection => zero-product preserving
        assert is_semimultiplicative(pi)
        assert is_zero_product_preserving(pi, span).status == "YES"
        # zero-product preserving surjection => factors (already exercised above)
        w = weighted_factorization(pi)
        assert w.S == s_mat
        checked += 1
    assert checked >= 40
    # a genuinely non-semimultiplicative surjection out of a balanced source
    # must also fail zero-product preservation
    m2 = matrix_algebra(F3, 2)
    rows = [list(r) for r in Matrix.identity(F3, 4).rows]
    rows[1][2] = 1
    bad = AlgMap(m2, m2, Matrix(F3, rows))
    span = compute_zero_product_span(m2)
    assert not is_semimultiplicative(bad)
    assert is_zero_product_preserving(bad, span).status == "NO"
    elapsed = time.monotonic() - t0
    report(6, f"equivalence of preserving/semimultiplicative/factoring on {checked} balanced "
              f"surjections, with a refuted negative ({elapsed:.3f}s)")


def test_c07_span_equality_across_corpus():
    t0 = time.monotonic()
    applicable = 0
    for entry in golden_corpus():
        alg = entry.algebra
        eq = check_span_equality(alg, entry.config)
        assert eq.containment_ok, entry.name  # unconditional direction
        if eq.factorizable_status == "EXACT" and alg.predicates().is_idempotent:
            span = compute_zero_product_span(alg, entry.config)
            if is_zero_product_balanced(alg, span).status == "YES":
                assert eq.equal, entry.name
                applicable += 1
    m2 = matrix_algebra(F2, 2)
    eq = check_span_equality(m2)
    assert eq.commutator_dim == 3 and eq.factorizable_dim == 3
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(7, f"commutator span = factorizable square-zero span on {applicable} applicable "
              f"entries; containment holds on all ({elapsed:.3f}s)")


def test_c08_commutative_pipeline():
    t0 = time.monotonic()
    for alg in (direct_sum(scalar_algebra(F2), nilpotent_algebra(F2, 3)),
                direct_sum(function_algebra(F3, 2), nilpotent_algebra(F3, 4))):
        nil = nilradical(alg)
        splitting = sigma_splitting(ReducedQuotient(alg))
        quot = splitting.quotient
        assert quot.projection.mul(splitting.sigma) == Matrix.identity(alg.field, quot.algebra.dim)
        assert AlgMap(quot.algebra, alg, splitting.sigma).is_multiplicative() is None
        assert splitting.quotient.ideal == nil
        for coords in alg.coord_tuples():
            a = alg.element(coords)
            dec = decompose(a, splitting)
            assert dec.reconstruct() == a and dec.verify()
    # three-way equivalence on every commutative corpus entry with a decided span
    checked = 0
    for entry in golden_corpus():
        alg = entry.algebra
        if not alg.predicates().is_commutative or alg.dim == 0:
            continue
        span = compute_zero_product_span(alg, entry.config)
        if not span.is_complete or not alg.field.is_finite():
            continue
        balanced = is_zero_product_balanced(alg, span).status == "YES"
        reduced = nilradical(alg).dim == 0
        idem = enumerate_idempotents(alg, entry.config)
        from zpbal.linalg import SpanBuilder
        builder = SpanBuilder(alg.field, alg.dim)
        for e in idem.items:
            builder.add(list(e.coords))
        spanned = builder.dim == alg.dim
        atoms = atoms_from_idempotents(idem.items)
        iso = spanned and len(atoms) == alg.dim
        assert (reduced and balanced) == spanned == iso, entry.name
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    assert checked >= 8
    report(8, f"nilradical/splitting/decomposition exhaustive on 8- and 243-element algebras; "
              f"three-way reduced+balanced equivalence on {checked} commutative entries ({elapsed:.3f}s)")


def test_c09_dichotomies():
    t0 = time.monotonic()
    # commutative dichotomy is exclusive on balanced commutative entries
    for entry in golden_corpus():
        alg = entry.algebra
        if not alg.predicates().is_commutative or alg.dim == 0:
            continue
        if entry.expected.get("balanced") != "YES":
            continue
        res = dichotomy_commutative(ReducedQuotient(alg, entry.config))
        assert res.kind in ("HAS_CHARACTER", "NILRADICAL"), entry.name
        if res.kind == "HAS_CHARACTER":
            assert res.nilradical_dim < alg.dim
        else:
            assert res.character_count == 0
    # general dichotomy branches
    res = dichotomy_general(matrix_algebra(F2, 2))
    assert res.kind == "RADICAL_OVER_COMMUTATOR_IDEAL" and res.exponents == [1, 1, 1, 1]
    f4 = poly_quotient_algebra(F2, [1, 1, 1])
    res = dichotomy_general(tensor_product(f4, nilpotent_algebra(F2, 3)))
    assert res.kind == "RADICAL_OVER_COMMUTATOR_IDEAL"
    # unital three-way equivalence
    for field in (F2, F3):
        rep = generated_by_nilpotents_check(matrix_algebra(field, 2))
        assert rep.agree and rep.no_character and rep.nilpotents_generate and rep.pair_products_span
    elapsed = time.monotonic() - t0
    report(9, f"dichotomies exclusive and branch-verified; unital nilpotent-generation "
              f"equivalence agrees on both matrix algebras ({elapsed:.3f}s)")


def test_c10_certificate_soundness_and_determinism(tmp_path, capsys, monkeypatch):
    t0 = time.monotonic()
    monkeypatch.chdir(tmp_path)
    battery = [
        ("Nm", ["--m", "3", "--field", "F2"]),
        ("Nm", ["--m", "4", "--field", "F3"]),
        ("Mn", ["--n", "2", "--field", "F2"]),
        ("Mn", ["--n", "2", "--field", "F3"]),
        ("DN3", ["--field", "F2"]),
        ("MnNm", ["--n", "2", "--m", "3", "--field", "F2"]),
        ("Kn", ["--n", "3", "--field", "F2"]),
        ("KxNm", ["--m", "3", "--field", "F2"]),
    ]
    total = 0
    from zpbal.serialize import load_algebra, load_certificates
    for idx, (name, extra) in enumerate(battery):
        algfile = f"alg{idx}.json"
        assert cli_main(["example", name, *extra, "--out", algfile]) == 0
        cert1 = f"cert{idx}a.json"
        cert2 = f"cert{idx}b.json"
        assert cli_main(["check", algfile, "--out", cert1]) == 0
        assert cli_main(["check", algfile, "--out", cert2]) == 0
        with open(cert1, "rb") as fh:
            b1 = fh.read()
        with open(cert2, "rb") as fh:
            b2 = fh.read()
        assert b1 == b2, "reruns must be byte-identical"
        alg = load_algebra(algfile)
        _, certs = load_certificates(cert1, alg.field, alg.dim)
        assert certs, algfile
        for cert in certs:
            assert verify_certificate(alg, cert), (algfile, cert.kind)
        total += len(certs)
        assert cli_main(["verify", cert1, algfile]) == 0
        out = capsys.readouterr().out
        assert "all certificates: true" in out
    elapsed = time.monotonic() - t0
    report(10, f"{total} emitted certificates across {len(battery)} algebras all re-verified "
               f"independently; reruns byte-identical ({elapsed:.3f}s)")
