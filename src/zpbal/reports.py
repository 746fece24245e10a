"""The factorize, structure and fn2 reports, and the corpus run.

`zpbal.cli` imports this module only when one of these commands runs, so that
`check` and `verify`, which start a process per file, compile none of it.  Each
report handler returns its report dict; cli builds the configuration and prints
the dict.  Nothing here imports `zpbal.cli`: under `python -m zpbal.cli` that
would compile and run cli a second time.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from zpbal import serialize
from zpbal.algebra import Algebra
from zpbal.config import SweepConfig
from zpbal.errors import (
    BudgetExceeded,
    HypothesisFailed,
    NotSemimultiplicative,
    ParseError,
    SoundnessAlarm,
    SpanDeficient,
    WriteError,
    ZpbalError,
)
from zpbal.fields import Field
from zpbal.tensorsquare import YES, compute_zero_product_span, is_zero_product_balanced


def _strs(fld: Field, v) -> List[str]:
    return [str(fld.format(a)) for a in v]


def factorize(args, config: SweepConfig) -> Dict:
    from zpbal.linmaps import is_semimultiplicative, is_zero_product_preserving, weighted_factorization

    amap = serialize.load_map(args.map)
    fld = amap.source.field
    span = compute_zero_product_span(amap.source, config)
    zp = is_zero_product_preserving(amap, span)
    report: Dict = {
        "map": os.path.basename(args.map),
        "field": fld.name,
        "seed": config.seed,
        "source_dim": amap.source.dim,
        "target_dim": amap.target.dim,
        "zero_product_preserving": zp.status,
        "semimultiplicative": is_semimultiplicative(amap),
    }
    try:
        w = weighted_factorization(amap)
    except NotSemimultiplicative as exc:
        # weighted-epimorphism theorem: a zero-product preserving surjection
        # out of a balanced algebra factors, so a balanced YES here is an alarm
        if zp.status == YES and is_zero_product_balanced(amap.source, span).status == YES:
            raise SoundnessAlarm("zero-product preserving map out of a balanced algebra "
                                 f"failed to factor: {exc}") from exc
        report["factorization"] = f"failed: {exc}"
    except (HypothesisFailed, SpanDeficient) as exc:
        report["factorization"] = f"failed: {exc}"
    else:
        report["factorization"] = {
            "T": [_strs(fld, row) for row in w.T.rows],
            "S": [_strs(fld, row) for row in w.S.rows],
            "pi0": [_strs(fld, row) for row in w.pi0.matrix.rows],
            "kernel_ideal_dim": w.kernel_ideal.dim,
            "kernel_ideal_basis": [_strs(fld, row) for row in w.kernel_ideal.basis],
        }
    return report


def _parse_elements(texts: Optional[List[str]], alg: Algebra) -> List[List]:
    """The coordinates of each `--element`, checked against the field and the dimension."""
    elements = []
    for text in texts or []:
        parts = text.split(",") if text else []  # "" is the one vector of dimension 0
        if len(parts) != alg.dim:
            raise ZpbalError(f"--element {text!r}: expected {alg.dim} comma-separated "
                             f"coordinates, got {len(parts)}")
        try:
            elements.append(alg.field.parse_vector(parts))
        except ParseError as exc:
            raise ParseError(f"--element {text!r}: {exc}") from exc
    return elements


def structure(args, config: SweepConfig) -> Dict:
    from zpbal.structure import dichotomy_general

    alg = serialize.load_algebra(args.algebra)
    elements = _parse_elements(args.element, alg)
    report: Dict = {"algebra": os.path.basename(args.algebra), "field": alg.field.name,
                    "dim": alg.dim, "seed": config.seed,
                    "commutative": alg.predicates().is_commutative}
    if report["commutative"]:
        report.update(_commutative_report(alg, config, elements))
    elif elements:
        raise ZpbalError(f"--element: decompositions need a commutative algebra, "
                         f"and {report['algebra']} is not commutative")
    else:
        dich = dichotomy_general(alg, config)
        report["general_dichotomy"] = {"kind": dich.kind, "exponents": dich.exponents}
    return report


def _commutative_report(alg: Algebra, config: SweepConfig, elements: List[List]) -> Dict:
    """Nilradical, characters, splitting with the decomposition of each element,
    cleanness and dichotomy of a commutative algebra."""
    from zpbal.structure import (
        ReducedQuotient,
        characters,
        decompose,
        dichotomy_commutative,
        regular_and_clean_check,
        sigma_splitting,
    )

    fld = alg.field
    reduced = ReducedQuotient(alg, config)  # nilradical, quotient and atoms, shared by every report
    nil = reduced.nilradical
    chars = characters(reduced)
    report: Dict = {
        "nilradical": {"dim": nil.dim, "basis": [_strs(fld, row) for row in nil.basis]},
        "characters": {"status": chars.status,
                       "table": [_strs(fld, c.matrix.rows[0]) for c in chars.characters]},
    }
    try:
        splitting = sigma_splitting(reduced)
    except (HypothesisFailed, BudgetExceeded) as exc:  # as in regular_and_clean_check
        report["splitting"] = f"not available: {exc}"
    else:
        report["atoms"] = [_strs(fld, at.coords) for at in splitting.atoms]
        report["sigma"] = [_strs(fld, row) for row in splitting.sigma.rows]
        for coords in elements:
            dec = decompose(alg.element(coords), splitting)
            report.setdefault("decompositions", []).append({
                "element": _strs(fld, coords),
                "nil_part": _strs(fld, dec.nil_part.coords),
                "terms": [{"coefficient": str(fld.format(lam)), "idempotent": _strs(fld, e.coords)}
                          for lam, e in dec.terms],
            })
    rc = regular_and_clean_check(reduced)
    report["regular_on_quotient"] = rc.regular_on_quotient
    report["clean"] = rc.clean
    report["dichotomy"] = dichotomy_commutative(reduced).kind
    return report


def fn2(args, config: SweepConfig) -> Dict:
    from zpbal.squarezero import check_span_equality

    alg = serialize.load_algebra(args.algebra)
    eq = check_span_equality(alg, config)
    return {
        "algebra": os.path.basename(args.algebra),
        "field": alg.field.name,
        "dim": alg.dim,
        "seed": config.seed,
        "commutator_span_dim": eq.commutator_dim,
        "factorizable_span_dim": eq.factorizable_dim,
        "factorizable_status": eq.factorizable_status,
        "containment": eq.containment_ok,
        "equal": eq.equal,
    }


def corpus(args) -> int:
    """Run the golden corpus suites; print one line per check, and write
    JUnit-style XML to `--out` when given."""
    from xml.etree import ElementTree as ET

    from zpbal.corpus import run_suites

    results = run_suites(args.filter)
    failures = [r for r in results if not r.passed]
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        detail = f" :: {r.detail}" if (r.detail and not r.passed) else ""
        print(f"{mark} {r.entry} :: {r.check}{detail}")
    print(f"{len(results) - len(failures)}/{len(results)} checks passed")
    if args.out:
        suite = ET.Element("testsuite", name="zpbal-corpus", tests=str(len(results)),
                           failures=str(len(failures)))
        for r in results:
            case = ET.SubElement(suite, "testcase", classname=r.entry, name=r.check)
            if not r.passed:
                fail = ET.SubElement(case, "failure", message=r.detail or "expectation violated")
                fail.text = r.detail
        try:
            ET.ElementTree(suite).write(args.out, encoding="unicode", xml_declaration=True)
        except OSError as exc:
            raise WriteError(args.out, exc) from exc
        print(f"wrote {args.out}")
    return 0
