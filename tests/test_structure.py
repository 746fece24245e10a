import itertools
import json
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import pytest

from oracles import (
    all_elements,
    assert_characters_agree,
    enumerate_idempotents,
    mult,
    random_change_of_basis,
    reference_clean,
    reference_nilradical,
)
from references import (
    SHAPES,
    boolean_ring_and_stone,
    boolean_sum,
    generated_by_nilpotents_check,
    random_algebra,
)
from zpbal.config import DEFAULT_CONFIG, SweepConfig
from zpbal.corpus import golden_corpus
from zpbal.errors import (
    BudgetExceeded,
    HypothesisFailed,
    NotCommutative,
    NotIdempotentModNil,
    ParentMismatch,
)
from zpbal.fields import PrimeField, QQ
from zpbal.algebra import (
    direct_sum,
    function_algebra,
    matrix_algebra,
    nilpotent_algebra,
    poly_quotient_algebra,
    quotient_algebra,
    scalar_algebra,
    tensor_product,
    zero_algebra,
)
from zpbal.structure import (
    ReducedQuotient,
    _reduced_atoms,
    atoms_from_idempotents,
    characters,
    decompose,
    dichotomy_commutative,
    dichotomy_general,
    lift_idempotent,
    nilradical,
    regular_and_clean_check,
    sigma_splitting,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
SRC = Path(__file__).resolve().parent.parent / "src"


def f2_x_n3():
    return direct_sum(scalar_algebra(F2), nilpotent_algebra(F2, 3))


def f3f3n4():
    return direct_sum(function_algebra(F3, 2), nilpotent_algebra(F3, 4))


def test_nilradical_cases():
    assert nilradical(nilpotent_algebra(QQ, 3)).dim == 2  # all of it
    assert nilradical(f2_x_n3()).dim == 2  # the nilpotent summand
    assert nilradical(function_algebra(F2, 2)).dim == 0  # reduced
    assert nilradical(poly_quotient_algebra(QQ, [-2, 0, 1])).dim == 0  # a field
    # oracle: exhaustive nilpotency sweep over the 8 elements of F2 x N3
    alg = f2_x_n3()
    nil_count = sum(
        1 for u in all_elements(alg)
        if not any(mult(alg, mult(alg, mult(alg, u, u), u), u))
    )
    assert nil_count == 4  # a 2-dimensional subspace over F2


def test_nilradical_requires_commutative():
    with pytest.raises(NotCommutative):
        nilradical(matrix_algebra(F2, 2))


def test_atom_budget_bounds_only_p():
    # the nilradical has no budget, and the atom search is bounded by p, not p^d
    alg = f3f3n4()  # 243 elements
    assert nilradical(alg).dim == 3
    rep = characters(alg, SweepConfig(enumeration_cap=3))
    assert rep.status == "EXACT" and len(rep.characters) == 2
    rep = characters(alg, SweepConfig(enumeration_cap=2))
    assert rep.status == "PARTIAL" and rep.characters == []
    with pytest.raises(BudgetExceeded):
        sigma_splitting(alg, SweepConfig(enumeration_cap=2))
    # atoms, characters and the splitting computed once under cap 3 are still
    # refused to a later call under cap 2, and handed out again under cap 3
    reduced = ReducedQuotient(alg)
    chars = characters(alg, SweepConfig(enumeration_cap=3), reduced)
    assert len(chars.characters) == 2
    splitting = sigma_splitting(alg, SweepConfig(enumeration_cap=3), reduced)
    assert characters(alg, SweepConfig(enumeration_cap=3), reduced) is chars
    assert sigma_splitting(alg, SweepConfig(enumeration_cap=3), reduced) is splitting
    rep = characters(alg, SweepConfig(enumeration_cap=2), reduced)
    assert rep.status == "PARTIAL" and rep.characters == []
    with pytest.raises(BudgetExceeded):
        sigma_splitting(alg, SweepConfig(enumeration_cap=2), reduced)
    with pytest.raises(BudgetExceeded):
        reduced.lifted_atoms(SweepConfig(enumeration_cap=2))
    with pytest.raises(ParentMismatch):
        characters(f3f3n4(), SweepConfig(enumeration_cap=3), reduced)


def test_structure_command_computes_the_reduced_quotient_once(tmp_path, capsys, monkeypatch):
    """`zpbal structure` on F3^7: one nilradical, one atom search, one lift per
    atom, one character table and one splitting, so one multiplicativity check
    per character and one for the splitting."""
    from zpbal import cli, linmaps, structure

    counts = Counter()

    def counted(owner, name):
        honest = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return honest(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for name in ("nilradical", "_reduced_atoms", "lift_idempotent", "_character_report", "_lift_splitting"):
        counted(structure, name)
    counted(linmaps.AlgMap, "is_multiplicative")
    path = str(tmp_path / "k7f3.json")
    assert cli.main(["example", "Kn", "--n", "7", "--field", "F3", "--out", path]) == 0
    assert cli.main(["structure", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out.split("\n", 1)[1])
    assert report["clean"] == "YES" and len(report["characters"]["table"]) == 7
    assert counts == {"nilradical": 1, "_reduced_atoms": 1, "lift_idempotent": 7,
                      "_character_report": 1, "_lift_splitting": 1, "is_multiplicative": 8}


def test_nilradical_is_idempotent_operation():
    alg = f3f3n4()
    nil = nilradical(alg)
    assert nil.dim == 3
    quot = quotient_algebra(alg, nil)
    assert nilradical(quot.algebra).dim == 0


def test_characters_cases():
    # the two coordinate projections
    chars = characters(function_algebra(F2, 2))
    assert chars.status == "EXACT" and len(chars.characters) == 2
    # nilpotent: none (any character kills nilpotents)
    chars = characters(nilpotent_algebra(QQ, 3))
    assert chars.status == "EXACT" and chars.characters == []
    # exactly one through the unital summand
    chars = characters(f2_x_n3())
    assert chars.status == "EXACT" and len(chars.characters) == 1
    # oracle: sweep all 8 functionals of F2 x N3 for multiplicativity
    alg = f2_x_n3()
    count = 0
    for phi in all_elements(alg):
        if not any(phi):
            continue
        ok = True
        for i in range(alg.dim):
            for j in range(alg.dim):
                lhs = sum(c * phi[t] for t, c in enumerate(alg.table[i][j])) % 2
                if lhs != (phi[i] * phi[j]) % 2:
                    ok = False
        if ok:
            count += 1
    assert count == 1


def test_characters_are_homomorphisms():
    for alg in (function_algebra(F3, 2), f2_x_n3(), f3f3n4()):
        for chi in characters(alg).characters:
            assert chi.is_multiplicative() is None
            assert any(a != 0 for a in chi.matrix.rows[0])


def test_characters_exact_over_rationals_with_spanning_registry():
    # spanning atoms identify the reduced quotient with K^r, so the atom route
    # is complete even without exhaustive enumeration
    kk = function_algebra(QQ, 2)
    rep = characters(kk)
    assert rep.status == "EXACT" and len(rep.characters) == 2


def test_character_count_equals_atom_count():
    # on commutative balanced algebras every character factors through an atom
    # of the reduced quotient, one character per atom
    for alg in (function_algebra(F2, 2), function_algebra(F3, 2), f2_x_n3(), f3f3n4()):
        rep = characters(alg)
        if rep.status != "EXACT":
            continue
        splitting = sigma_splitting(alg)
        assert len(rep.characters) == len(splitting.atoms)


def test_character_field_extension_has_none():
    # a quadratic field extension admits no base-field characters: the kernel
    # would be a one-dimensional ideal of a field
    f4 = poly_quotient_algebra(F2, [1, 1, 1])
    chars = characters(f4)
    assert chars.status == "EXACT" and chars.characters == []


def test_boolean_ring_and_stone():
    st = boolean_ring_and_stone(function_algebra(F2, 3))
    assert len(st.stone_points) == 3 and st.iso_check and st.ring.axioms_ok
    assert len(st.ring.elements) == 8

    st = boolean_ring_and_stone(function_algebra(F2, 2))
    assert len(st.stone_points) == 2 and st.iso_check

    # F4 over F2 is reduced with only trivial idempotents: one atom, no iso
    f4 = poly_quotient_algebra(F2, [1, 1, 1])
    st = boolean_ring_and_stone(f4)
    assert len(st.stone_points) == 1 and not st.iso_check


def test_boolean_ring_rejects_non_reduced():
    with pytest.raises(HypothesisFailed):
        boolean_ring_and_stone(f2_x_n3())


def test_boolean_sum():
    kk = function_algebra(F3, 2)
    e = kk.element([1, 0])
    g = kk.element([1, 1])
    s = boolean_sum(e, g)
    assert s * s == s
    assert s == kk.element([0, 1])  # symmetric difference of supports


def test_atoms_refinement():
    kk = function_algebra(QQ, 3)
    e12 = kk.element([QQ.one, QQ.one, QQ.zero])
    e23 = kk.element([QQ.zero, QQ.one, QQ.one])
    atoms = atoms_from_idempotents([e12, e23])
    assert sorted(tuple(a.coords) for a in atoms) == [
        (QQ.zero, QQ.zero, QQ.one), (QQ.zero, QQ.one, QQ.zero), (QQ.one, QQ.zero, QQ.zero)]


def test_lift_idempotent():
    alg = f2_x_n3()
    nil = nilradical(alg)
    quot = quotient_algebra(alg, nil)
    ebar = quot.project(alg.element([1, 1, 0]))  # class of (1, x)
    e = lift_idempotent(alg, quot, ebar)
    assert e == alg.element([1, 0, 0])
    # already idempotent: fixed point
    e2 = lift_idempotent(alg, quot, quot.project(alg.element([1, 0, 0])))
    assert e2 == alg.element([1, 0, 0])
    with pytest.raises(NotIdempotentModNil):
        bad = quot.project(alg.element([0, 1, 0]))
        if bad.is_zero():  # the class of x is zero mod nil; use a genuine non-idempotent
            alg3 = function_algebra(F3, 2)
            quot3 = quotient_algebra(alg3, nilradical(alg3))
            lift_idempotent(alg3, quot3, quot3.algebra.element([2, 0]))
        else:
            lift_idempotent(alg, quot, bad)


def test_sigma_splitting_and_decompose_exhaustive():
    for alg in (f2_x_n3(), f3f3n4()):
        splitting = sigma_splitting(alg)
        assert splitting.section_ok and splitting.multiplicative_ok
        for coords in alg.coord_tuples():
            a = alg.element(coords)
            dec = decompose(a, splitting)
            assert dec.reconstruct() == a
            assert dec.verify()


def test_decompose_special_shapes():
    alg = f2_x_n3()
    splitting = sigma_splitting(alg)
    nilpotent = decompose(alg.element([0, 1, 1]), splitting)
    assert nilpotent.terms == []
    idem = decompose(alg.element([1, 0, 0]), splitting)
    assert idem.nil_part.is_zero()
    assert len(idem.terms) == 1 and idem.terms[0][0] == F2.one
    mixed = decompose(alg.element([1, 1, 0]), splitting)
    assert mixed.nil_part == alg.element([0, 1, 0])
    assert mixed.terms == [(F2.one, alg.element([1, 0, 0]))]


def test_sigma_on_reduced_algebra_is_identity():
    kk = function_algebra(F3, 2)
    splitting = sigma_splitting(kk)
    assert splitting.quotient.ideal.dim == 0
    assert len(splitting.atoms) == 2


def test_sigma_trivial_for_nilpotent():
    splitting = sigma_splitting(nilpotent_algebra(QQ, 3))
    assert splitting.atoms == [] and splitting.sigma.ncols == 0


def test_regular_and_clean():
    rep = regular_and_clean_check(f2_x_n3())
    assert rep.regular_on_quotient is True
    assert rep.clean == "NOT_EVALUATED"  # nonunital input

    rep = regular_and_clean_check(function_algebra(F3, 2))
    assert rep.regular_on_quotient is True and rep.clean == "YES"

    rep = regular_and_clean_check(nilpotent_algebra(F2, 4))
    assert rep.regular_on_quotient is True  # zero quotient

    # no element is enumerated: 2^13 elements, over the default cap, for
    # F2^13 and for the local ring F2[t]/(t^13)
    assert regular_and_clean_check(function_algebra(F2, 13)).clean == "YES"
    assert regular_and_clean_check(poly_quotient_algebra(F2, [0] * 13 + [1])).clean == "YES"
    # over Q the registry's atoms span K^3, but not the field Q(√2)
    assert regular_and_clean_check(function_algebra(QQ, 3)).clean == "YES"
    rep = regular_and_clean_check(poly_quotient_algebra(QQ, [-2, 0, 1]))
    assert rep.clean == "UNKNOWN" and rep.witness is None
    assert "do not span" in rep.notes[-1]
    # p beyond the cap: no atom search, so no witness
    rep = regular_and_clean_check(function_algebra(F5, 2), SweepConfig(enumeration_cap=4))
    assert rep.clean == "UNKNOWN" and "exceeds cap" in rep.notes[-1]


def test_dichotomy_commutative():
    assert dichotomy_commutative(nilpotent_algebra(QQ, 3)).kind == "NILRADICAL"
    res = dichotomy_commutative(function_algebra(F2, 2))
    assert res.kind == "HAS_CHARACTER" and res.witness is not None
    # quadratic field extension: not balanced, honest INAPPLICABLE; the report
    # shows it has neither a character nor a full nilradical
    f4 = poly_quotient_algebra(F2, [1, 1, 1])
    res = dichotomy_commutative(f4)
    assert res.kind == "INAPPLICABLE"
    assert res.character_count == 0 and res.nilradical_dim == 0


def test_dichotomy_exclusive_on_balanced_entries():
    for alg in (function_algebra(F2, 2), function_algebra(F3, 2), f2_x_n3(),
                nilpotent_algebra(F2, 3), zero_algebra(F2, 2)):
        res = dichotomy_commutative(alg)
        assert res.kind in ("HAS_CHARACTER", "NILRADICAL")
        if res.kind == "HAS_CHARACTER":
            assert res.nilradical_dim < alg.dim
        else:
            assert res.character_count == 0


def test_dichotomy_general():
    res = dichotomy_general(matrix_algebra(F2, 2))
    assert res.kind == "RADICAL_OVER_COMMUTATOR_IDEAL"
    assert res.exponents == [1, 1, 1, 1]  # the commutator ideal is everything

    res = dichotomy_general(function_algebra(F2, 2))
    assert res.kind == "HAS_CHARACTER"
    assert res.witness.is_multiplicative() is None

    f4 = poly_quotient_algebra(F2, [1, 1, 1])
    res = dichotomy_general(tensor_product(f4, nilpotent_algebra(F2, 3)))
    assert res.kind == "RADICAL_OVER_COMMUTATOR_IDEAL"
    assert max(res.exponents) <= 3  # triple products vanish


def test_generated_by_nilpotents():
    rep = generated_by_nilpotents_check(matrix_algebra(F2, 2))
    assert rep.no_character and rep.nilpotents_generate and rep.pair_products_span
    rep = generated_by_nilpotents_check(matrix_algebra(F3, 2))
    assert rep.agree and rep.no_character

    rep = generated_by_nilpotents_check(function_algebra(F2, 2))
    assert rep.agree
    assert not rep.no_character and not rep.nilpotents_generate and not rep.pair_products_span

    with pytest.raises(HypothesisFailed):
        generated_by_nilpotents_check(nilpotent_algebra(F2, 3))  # not unital


def test_three_way_equivalence_on_commutative_corpus():
    # reduced + balanced <=> spanned by idempotents <=> direct sum of atom lines
    from zpbal.linalg import SpanBuilder
    from zpbal.tensorsquare import compute_zero_product_span, is_zero_product_balanced

    f4 = poly_quotient_algebra(F2, [1, 1, 1])
    candidates = [
        function_algebra(F2, 2), function_algebra(F2, 3), function_algebra(F3, 2),
        f2_x_n3(), f3f3n4(), nilpotent_algebra(F2, 3), nilpotent_algebra(F3, 4),
        zero_algebra(F2, 2), f4, tensor_product(f4, nilpotent_algebra(F2, 3)),
    ]
    for alg in candidates:
        span = compute_zero_product_span(alg)
        if not span.is_complete:
            continue
        balanced = is_zero_product_balanced(alg, span).status == "YES"
        reduced = nilradical(alg).dim == 0
        idem = enumerate_idempotents(alg)
        builder = SpanBuilder(alg.field, alg.dim)
        for e in idem.items:
            builder.add(list(e.coords))
        spanned = builder.dim == alg.dim
        atoms = atoms_from_idempotents(idem.items)
        iso = spanned and len(atoms) == alg.dim
        assert (reduced and balanced) == spanned == iso, alg


# --- the Frobenius nilradical and the Berlekamp atoms against element sweeps ---

def f4():
    return poly_quotient_algebra(F2, [1, 1, 1])


def _corpus_and_random_cases():
    cases = [(e.name, e.algebra) for e in golden_corpus()
             if e.algebra.field.is_finite() and e.algebra.predicates().is_commutative]
    for fld in (F2, F3):
        for shape in SHAPES:
            for seed in range(3):
                alg = random_algebra(seed, fld, shape)
                if alg.predicates().is_commutative:
                    cases.append((f"{shape}/{seed}/{fld.name}", alg))
    return cases


def _poly_quotients(degrees):
    """Every F_p[t]/(m) with m monic, for the degrees listed per field."""
    return [(f"{fld.name}[t]/{low}", poly_quotient_algebra(fld, list(low) + [1]))
            for fld, degs in degrees for degree in degs
            for low in itertools.product(range(fld.p), repeat=degree)]


def _commutative_cases():
    return (_corpus_and_random_cases() + _poly_quotients(((F2, [3]), (F3, [3]), (F5, [2])))
            + [("F4×F2²", direct_sum(f4(), function_algebra(F2, 2))),
               ("F4⊗N3", tensor_product(f4(), nilpotent_algebra(F2, 3))),
               ("F3²⊕N4", f3f3n4())])


@pytest.mark.parametrize("alg", [pytest.param(alg, id=name) for name, alg in _commutative_cases()])
def test_structure_equals_the_element_sweeps(alg):
    nil = nilradical(alg)
    assert nil == reference_nilradical(alg)
    q = quotient_algebra(alg, nil).algebra
    assert _reduced_atoms(q, DEFAULT_CONFIG) == atoms_from_idempotents(enumerate_idempotents(q).items)
    rep = characters(alg)
    assert rep.status == "EXACT"
    assert_characters_agree(rep, alg)


@pytest.mark.parametrize("make", [
    lambda: direct_sum(f4(), function_algebra(F2, 2)),
    lambda: tensor_product(f4(), nilpotent_algebra(F2, 3)),
    f3f3n4,
    lambda: poly_quotient_algebra(F5, [1, 0, 1]),  # t^2 + 1 = (t - 2)(t - 3)
], ids=["F4×F2²", "F4⊗N3", "F3²⊕N4", "F5[t]/(t²+1)"])
def test_structure_counts_invariant_under_change_of_basis(make):
    def counts(a):
        nil = nilradical(a)
        atoms = _reduced_atoms(quotient_algebra(a, nil).algebra, DEFAULT_CONFIG)
        return nil.dim, len(atoms), len(characters(a).characters)

    alg = make()
    before = counts(alg)
    rng = random.Random(5)
    for _ in range(3):
        assert counts(random_change_of_basis(alg, rng)) == before


def _clean_cases():
    return (_corpus_and_random_cases()
            + _poly_quotients(((F2, range(1, 6)), (F3, range(1, 5)), (F5, [2, 3])))
            + [("F4×F2²", direct_sum(f4(), function_algebra(F2, 2))),
               ("F4⊗N3", tensor_product(f4(), nilpotent_algebra(F2, 3)))])


@pytest.mark.parametrize("alg", [pytest.param(alg, id=name) for name, alg in _clean_cases()])
def test_clean_witness_equals_the_sweep(alg):
    rep = regular_and_clean_check(alg)
    if not alg.predicates().is_unital:
        assert rep.clean == "NOT_EVALUATED" and rep.witness is None
        return
    sweep = reference_clean(alg)
    assert rep.clean == sweep.verdict == "YES"
    for coords in all_elements(alg):
        a = alg.element(coords)
        e = rep.witness.idempotent(a)
        assert e.coords in sweep.idempotents
        assert (a - e).coords in sweep.units


def f2_6_n12():
    return direct_sum(function_algebra(F2, 6), nilpotent_algebra(F2, 12))


def test_structure_beyond_the_enumeration_cap():
    alg = f2_6_n12()  # dim 17: 2^17 elements, over the default cap
    assert alg.n_elements() > DEFAULT_CONFIG.enumeration_cap
    assert nilradical(alg).dim == 11
    rep = characters(alg)
    assert rep.status == "EXACT" and len(rep.characters) == 6
    splitting = sigma_splitting(alg)
    assert len(splitting.atoms) == 6 and splitting.multiplicative_ok


_TAMPER = textwrap.dedent("""
    import sys
    from zpbal import structure
    from zpbal.algebra import direct_sum, function_algebra, nilpotent_algebra, poly_quotient_algebra
    from zpbal.errors import SoundnessAlarm
    from zpbal.fields import PrimeField
    from zpbal.linalg import Matrix

    if not sys.flags.optimize:
        sys.exit("run with python -O")
    F3 = PrimeField(3)
    alg = direct_sum(function_algebra(F3, 2), nilpotent_algebra(F3, 3))
    unital = direct_sum(function_algebra(F3, 2), poly_quotient_algebra(F3, [0, 0, 1]))

    def alarms(name, tampered, check=lambda: structure.characters(alg)):
        honest = getattr(structure, name)
        setattr(structure, name, tampered(honest))
        try:
            check()
        except SoundnessAlarm:
            return True
        finally:
            setattr(structure, name, honest)
        return False

    def merge_two_atoms(honest):
        def tampered(q, config):
            atoms = honest(q, config)
            return [atoms[0] + atoms[1]] + atoms[2:]
        return tampered

    print([
        # ker of a zero Frobenius is everything: the nilpotency re-check fails
        alarms("_frobenius", lambda honest: lambda a: Matrix(a.field, [[0] * a.dim] * a.dim)),
        # one atom lost: the atoms no longer partition the unit
        alarms("atoms_from_idempotents", lambda honest: lambda idems: honest(idems)[1:]),
        # a doubled functional: chi(1) = 2 is not multiplicative over F3
        alarms("_atom_character",
               lambda honest: lambda quot, atom: structure.AlgMap(
                   quot.parent, structure.scalar_algebra(F3), honest(quot, atom).matrix.scale(2))),
        # two atoms merged: a basis idempotent minus its clean witness is no unit
        alarms("_reduced_atoms", merge_two_atoms, check=lambda: structure.regular_and_clean_check(unital)),
    ])
""")


def test_soundness_checks_survive_python_O():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", _TAMPER], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[True, True, True, True]"
