"""Command-line front end.

Subcommands: check, factorize, structure, fn2, verify, example, corpus.
Exit codes: 0 = analysis completed (whatever the verdict), 1 = input error,
2 = internal soundness alarm (a verified certificate chain contradicted a
proven implication; must never happen).

check, factorize, structure and fn2 each build one report dict.  With --json
it is printed as JSON; otherwise the text is rendered from that same dict, one
`key: value` line per top-level key.  All reports are deterministic for fixed
inputs and configuration; the seed is recorded in every emitted artifact.

factorize, structure, fn2 and corpus import their modules when they run, so
that check and verify, which start a process per file, load only what they use.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from typing import Dict, List, Optional

from zpbal.algebra import (
    Algebra,
    direct_sum,
    function_algebra,
    matrix_algebra,
    matrix_over,
    nilpotent_algebra,
    poly_quotient_algebra,
    scalar_algebra,
    tensor_product,
    zero_algebra,
)
from zpbal.config import SweepConfig
from zpbal.errors import (
    BudgetExceeded,
    HypothesisFailed,
    NotSemimultiplicative,
    ParseError,
    SoundnessAlarm,
    SpanDeficient,
    ZpbalError,
)
from zpbal.fields import Field, PrimeField, field_from_name
from zpbal import serialize
from zpbal.tensorsquare import (
    MEMBERSHIP,
    NO,
    SEPARATING,
    YES,
    compute_zero_product_span,
    is_zero_product_balanced,
    is_zero_product_determined,
    verify_certificate,
)


def _config_from_args(args) -> SweepConfig:
    return SweepConfig(enumeration_cap=args.cap, stall_rounds=args.stall, seed=args.seed)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--cap", type=int, default=6561,
                   help="enumeration cap: elements of an exhaustive span sweep, "
                        "and p in the atom search over F_p")
    p.add_argument("--stall", type=int, default=64, help="random-sweep stall rounds")
    p.add_argument("--seed", type=int, default=0, help="root random seed")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.add_argument("--out", help="output path for emitted artifacts")


def _emit(report: Dict, as_json: bool):
    """Print a report as JSON, or as one `key: value` line per top-level key."""
    if as_json:
        print(json.dumps(report, indent=1, sort_keys=True))
    else:
        for key, value in report.items():
            print(f"{key}: {_text(value)}")


def _text(value) -> str:
    """A report value on one line: strings bare, lists in brackets, dicts in braces."""
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_text(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_text, value)) + "]"
    return value if isinstance(value, str) else json.dumps(value)


def _strs(fld: Field, v) -> List[str]:
    return [str(fld.format(a)) for a in v]


def cmd_check(args) -> int:
    config = _config_from_args(args)
    alg = serialize.load_algebra(args.algebra)
    fld = alg.field
    span = compute_zero_product_span(alg, config)
    balanced = is_zero_product_balanced(alg, span)
    determined = is_zero_product_determined(alg, span)
    pred = alg.predicates()

    certs = []
    if balanced.certificates:
        certs.extend(balanced.certificates)
    if balanced.certificate is not None:
        certs.append(balanced.certificate)
    if determined.certificate is not None:
        certs.append(determined.certificate)
    cert_path = args.out or (os.path.splitext(os.path.basename(args.algebra))[0] + ".certs.json")
    serialize.save_certificates(certs, fld, config.seed, cert_path,
                                label=os.path.basename(args.algebra), balanced=balanced.status)

    # only a NO names a witness; an UNKNOWN's triple merely failed against a lower bound
    witness = balanced.witness_triple if balanced.status == NO else None
    report = {
        "algebra": os.path.basename(args.algebra),
        "field": fld.name,
        "dim": alg.dim,
        "seed": config.seed,
        "predicates": {
            "unital": pred.is_unital,
            "commutative": pred.is_commutative,
            "idempotent": pred.is_idempotent,
            "faithful": pred.is_faithful,
            "zero_multiplication": pred.has_zero_multiplication,
        },
        "zero_product_span": {"dim": span.dim, "status": span.status,
                              "kernel_dim": span.kernel_dim},
        "balanced": balanced.status,
        "balanced_witness": [alg.names[i] for i in witness] if witness else None,
        "balanced_note": balanced.note or None,
        "determined": determined.status,
        "determined_note": determined.note or None,
        "certificates": cert_path,
        "n_certificates": len(certs),
    }
    _emit(report, args.json)
    return 0


def cmd_factorize(args) -> int:
    from zpbal.linmaps import is_semimultiplicative, is_zero_product_preserving, weighted_factorization

    config = _config_from_args(args)
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
    _emit(report, args.json)
    return 0


def _parse_elements(texts: Optional[List[str]], alg: Algebra) -> List[List]:
    """The coordinates of each `--element`, checked against the field and the dimension."""
    elements = []
    for text in texts or []:
        parts = text.split(",")
        if len(parts) != alg.dim:
            raise ZpbalError(f"--element {text!r}: expected {alg.dim} comma-separated "
                             f"coordinates, got {len(parts)}")
        try:
            elements.append(alg.field.parse_vector(parts))
        except ParseError as exc:
            raise ParseError(f"--element {text!r}: {exc}") from exc
    return elements


def cmd_structure(args) -> int:
    from zpbal.structure import dichotomy_general

    config = _config_from_args(args)
    alg = serialize.load_algebra(args.algebra)
    elements = _parse_elements(args.element, alg)
    report: Dict = {"algebra": os.path.basename(args.algebra), "field": alg.field.name,
                    "dim": alg.dim, "seed": config.seed,
                    "commutative": alg.predicates().is_commutative}
    if report["commutative"]:
        report.update(_commutative_report(alg, config, elements))
    else:
        dich = dichotomy_general(alg, config)
        report["general_dichotomy"] = {"kind": dich.kind, "exponents": dich.exponents}
    _emit(report, args.json)
    return 0


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
    reduced = ReducedQuotient(alg)  # nilradical, quotient and atoms, shared by every report
    nil = reduced.nilradical
    chars = characters(alg, config, reduced)
    report: Dict = {
        "nilradical": {"dim": nil.dim, "basis": [_strs(fld, row) for row in nil.basis]},
        "characters": {"status": chars.status,
                       "table": [_strs(fld, c.matrix.rows[0]) for c in chars.characters]},
    }
    try:
        splitting = sigma_splitting(alg, config, reduced)
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
    rc = regular_and_clean_check(alg, config, reduced)
    report["regular_on_quotient"] = rc.regular_on_quotient
    report["clean"] = rc.clean
    report["dichotomy"] = dichotomy_commutative(alg, config, reduced).kind
    return report


def cmd_fn2(args) -> int:
    from zpbal.squarezero import check_span_equality

    config = _config_from_args(args)
    alg = serialize.load_algebra(args.algebra)
    eq = check_span_equality(alg, config)
    _emit({
        "algebra": os.path.basename(args.algebra),
        "field": alg.field.name,
        "dim": alg.dim,
        "seed": config.seed,
        "commutator_span_dim": eq.commutator_dim,
        "factorizable_span_dim": eq.factorizable_dim,
        "factorizable_status": eq.factorizable_status,
        "containment": eq.containment_ok,
        "equal": eq.equal,
    }, args.json)
    return 0


def cmd_verify(args) -> int:
    alg = serialize.load_algebra(args.algebra)
    balanced, certs = serialize.load_certificates(args.certificate, alg.field)
    all_ok = True
    refuted = False
    for idx, cert in enumerate(certs):
        ok = verify_certificate(alg, cert)
        all_ok = all_ok and ok
        refuted = refuted or (ok and cert.kind == SEPARATING
                              and cert.meta.get("claim") == "not-zero-product-balanced")
        print(f"certificate {idx} ({cert.kind}): {'true' if ok else 'false'}")
    # the file's balancedness claim needs its evidence: for YES all d^3
    # triples, each once; for NO a verified refutation
    triples = Counter(tuple(c.meta["triple"]) for c in certs
                      if c.kind == MEMBERSHIP and "triple" in c.meta)
    if balanced == NO and not refuted:
        all_ok = False
        print("balanced NO: false (no verified not-zero-product-balanced certificate)")
    if balanced == YES or triples:
        missing = alg.dim ** 3 - len(triples)
        repeated = sum(n - 1 for n in triples.values())
        covered = missing == 0 and repeated == 0
        all_ok = all_ok and covered
        print(f"triple coverage: {'true' if covered else 'false'} "
              f"({missing} of {alg.dim ** 3} triples missing, {repeated} repeated)")
    print(f"all certificates: {'true' if all_ok else 'false'}")
    return 0


EXAMPLE_NAMES = ("Nm", "Mn", "MnNm", "DN3", "Kn", "KxNm", "zero")


def _irreducible_quadratic(field: PrimeField):
    """Monic irreducible x^2 + ax + b over a prime field, by root search."""
    p = field.p
    for a in range(p):
        for b in range(p):
            if all((x * x + a * x + b) % p != 0 for x in range(p)):
                return [b % p, a % p, 1]
    raise ValueError("no irreducible quadratic found")


def build_example(name: str, field: Field, m: int, n: int) -> Algebra:
    if name == "Nm":
        return nilpotent_algebra(field, m)
    if name == "Mn":
        return matrix_algebra(field, n)
    if name == "MnNm":
        return matrix_over(nilpotent_algebra(field, m), n)
    if name == "DN3":
        if field.characteristic == 0:
            base = poly_quotient_algebra(field, [field.of_int(-2), field.zero, field.one])
        else:
            base = poly_quotient_algebra(field, _irreducible_quadratic(field))
        return tensor_product(base, nilpotent_algebra(field, 3))
    if name == "Kn":
        return function_algebra(field, n)
    if name == "KxNm":
        return direct_sum(scalar_algebra(field), nilpotent_algebra(field, m))
    if name == "zero":
        return zero_algebra(field, n)
    raise ZpbalError(f"unknown example {name!r}; choose from {', '.join(EXAMPLE_NAMES)}")


def cmd_example(args) -> int:
    m, n = args.m, args.n  # the dimension, known before the dim^3 table is built
    if n < 0:
        raise ZpbalError(f"--n must be at least 0, got {n}")
    if m < 1:  # Nm and MnNm have dimension m - 1
        raise ZpbalError(f"--m must be at least 1, got {m}")
    dim = {"Nm": m - 1, "Mn": n * n, "MnNm": n * n * (m - 1), "DN3": 4, "Kn": n, "KxNm": m,
           "zero": n}[args.name]
    if dim > serialize.MAX_DIM:  # a file `check` would refuse
        raise ZpbalError(f"dim {dim} exceeds the limit {serialize.MAX_DIM}")
    field = field_from_name(args.field)
    alg = build_example(args.name, field, m, n)
    out = args.out or f"{args.name.lower()}_{args.field.lower()}.json"
    serialize.save_algebra(alg, out)
    print(f"wrote {out} (dim {alg.dim} over {field.name})")
    return 0


def cmd_corpus(args) -> int:
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
        ET.ElementTree(suite).write(args.out, encoding="unicode", xml_declaration=True)
        print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zpbal",
        description="Exact, certificate-emitting analysis of zero-product structure "
                    "in finite-dimensional algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="balancedness / determination verdicts with certificates")
    p.add_argument("algebra", help="algebra JSON file")
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("factorize", help="weight ∘ homomorphism factorization of a map")
    p.add_argument("map", help="map JSON file")
    _add_common(p)
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("structure", help="commutative structure report")
    p.add_argument("algebra", help="algebra JSON file")
    p.add_argument("--element", action="append",
                   help="comma-separated coordinates to decompose (repeatable)")
    _add_common(p)
    p.set_defaults(func=cmd_structure)

    p = sub.add_parser("fn2", help="commutator span vs factorizable square-zero span")
    p.add_argument("algebra", help="algebra JSON file")
    _add_common(p)
    p.set_defaults(func=cmd_fn2)

    p = sub.add_parser("verify", help="independently re-check a certificate file")
    p.add_argument("certificate", help="certificate JSON file")
    p.add_argument("algebra", help="algebra JSON file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("example", help="write a built-in example algebra file")
    p.add_argument("name", choices=EXAMPLE_NAMES)
    p.add_argument("--m", type=int, default=4, help="nilpotency order for Nm/MnNm/KxNm")
    p.add_argument("--n", type=int, default=2, help="size for Mn/MnNm/Kn/zero")
    p.add_argument("--field", default="F2", help='base field ("Q", "F2", "F3", ...)')
    p.add_argument("--out", help="output path")
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("corpus", help="run the golden corpus suites")
    p.add_argument("action", choices=["run"])
    p.add_argument("--filter", help="substring filter on entry names")
    p.add_argument("--out", help="JUnit-style XML output path")
    p.set_defaults(func=cmd_corpus)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SoundnessAlarm as exc:
        print(f"SOUNDNESS ALARM: {exc}", file=sys.stderr)
        return 2
    except ZpbalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
