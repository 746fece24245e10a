"""Command-line front end.

Subcommands: check, factorize, structure, fn2, verify, example, corpus.
Exit codes: 0 = analysis completed (whatever the verdict), 1 = input error,
2 = internal soundness alarm (a verified certificate chain contradicted a
proven implication; must never happen).

All reports are deterministic for fixed inputs and configuration; the seed is
recorded in every emitted artifact.

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
    HypothesisFailed,
    NotSemimultiplicative,
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


def _emit(report: Dict, as_json: bool, lines: List[str]):
    if as_json:
        print(json.dumps(report, indent=1, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _fmt_vec(fld: Field, v) -> str:
    return "[" + ", ".join(str(fld.format(a)) for a in v) + "]"


def cmd_check(args) -> int:
    config = _config_from_args(args)
    alg = serialize.load_algebra(args.algebra)
    fld = alg.field
    span = compute_zero_product_span(alg, config)
    balanced = is_zero_product_balanced(alg, span, with_certificates=True)
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

    triple_names = None
    if balanced.witness_triple is not None:
        triple_names = tuple(alg.names[i] for i in balanced.witness_triple)
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
        "balanced_witness": list(triple_names) if triple_names else None,
        "determined": determined.status,
        "certificates": cert_path,
        "n_certificates": len(certs),
    }
    lines = [
        f"algebra: {report['algebra']} (dim {alg.dim} over {fld.name})",
        f"seed: {config.seed}",
        "predicates: " + " ".join(
            f"{k}={'yes' if v else 'no'}" for k, v in report["predicates"].items()),
        f"zero-product span: dim {span.dim} ({span.status}); multiplication kernel: dim {span.kernel_dim}",
        f"balanced: {balanced.status}" + (f" (witness triple {', '.join(triple_names)})" if triple_names else ""),
        f"determined: {determined.status}",
        f"certificates: {cert_path} ({len(certs)} entries)",
    ]
    _emit(report, args.json, lines)
    return 0


def cmd_factorize(args) -> int:
    from zpbal.linmaps import (
        is_semimultiplicative,
        is_zero_product_preserving,
        weighted_factorization,
        zp_implies_weighted,
    )

    config = _config_from_args(args)
    amap = serialize.load_map(args.map)
    fld = amap.source.field
    span = compute_zero_product_span(amap.source, config)
    balanced = is_zero_product_balanced(amap.source, span)
    zp = is_zero_product_preserving(amap, span)
    semi = is_semimultiplicative(amap)
    report: Dict = {
        "seed": config.seed,
        "source_dim": amap.source.dim,
        "target_dim": amap.target.dim,
        "zero_product_preserving": zp.status,
        "semimultiplicative": semi,
    }
    lines = [
        f"map: {amap.source.dim} -> {amap.target.dim} over {fld.name}",
        f"zero-product preserving: {zp.status}",
        f"semimultiplicative: {'yes' if semi else 'no'}",
    ]
    try:
        if balanced.status == YES and zp.status == YES:
            # weighted-epimorphism theorem: such a map must factor, else an alarm
            w = zp_implies_weighted(amap, span, balanced.status)
        else:
            w = weighted_factorization(amap)
    except (HypothesisFailed, NotSemimultiplicative, SpanDeficient) as exc:
        report["factorization"] = f"failed: {exc}"
        lines.append(f"factorization: failed ({exc})")
        _emit(report, args.json, lines)
        return 0
    report["factorization"] = {
        "T": [[str(fld.format(a)) for a in row] for row in w.T.rows],
        "S": [[str(fld.format(a)) for a in row] for row in w.S.rows],
        "pi0": [[str(fld.format(a)) for a in row] for row in w.pi0.matrix.rows],
        "kernel_ideal_dim": w.kernel_ideal.dim,
        "kernel_ideal_basis": [[str(fld.format(a)) for a in row] for row in w.kernel_ideal.basis],
    }
    lines.append("factorization: map = S ∘ pi0 with")
    lines.append("  T rows: " + "; ".join(_fmt_vec(fld, r) for r in w.T.rows))
    lines.append("  S rows: " + "; ".join(_fmt_vec(fld, r) for r in w.S.rows))
    lines.append("  pi0 rows: " + "; ".join(_fmt_vec(fld, r) for r in w.pi0.matrix.rows))
    lines.append(f"  kernel ideal: dim {w.kernel_ideal.dim}; quotient is isomorphic to the target")
    _emit(report, args.json, lines)
    return 0


def cmd_structure(args) -> int:
    from zpbal.structure import (
        ReducedQuotient,
        characters,
        decompose,
        dichotomy_commutative,
        dichotomy_general,
        regular_and_clean_check,
        sigma_splitting,
    )

    config = _config_from_args(args)
    alg = serialize.load_algebra(args.algebra)
    fld = alg.field
    report: Dict = {"algebra": os.path.basename(args.algebra), "seed": config.seed}
    lines = [f"algebra: {report['algebra']} (dim {alg.dim} over {fld.name})"]
    if not alg.predicates().is_commutative:
        dich = dichotomy_general(alg, config)
        report["commutative"] = False
        report["general_dichotomy"] = {"kind": dich.kind, "exponents": dich.exponents}
        lines.append("commutative: no")
        lines.append(f"general dichotomy: {dich.kind}"
                     + (f" (exponents {dich.exponents})" if dich.exponents else ""))
        _emit(report, args.json, lines)
        return 0
    reduced = ReducedQuotient(alg)  # nilradical, quotient and atoms, shared by every report
    nil = reduced.nilradical
    chars = characters(alg, config, reduced)
    report["commutative"] = True
    report["nilradical"] = {"dim": nil.dim,
                            "basis": [[str(fld.format(a)) for a in row] for row in nil.basis]}
    report["characters"] = {
        "status": chars.status,
        "table": [[str(fld.format(a)) for a in c.matrix.rows[0]] for c in chars.characters],
    }
    lines.append(f"nilradical: dim {nil.dim}")
    lines.append(f"characters: {len(chars.characters)} ({chars.status})")
    try:
        splitting = sigma_splitting(alg, config, reduced)
        report["atoms"] = [[str(fld.format(a)) for a in at.coords] for at in splitting.atoms]
        report["sigma"] = [[str(fld.format(a)) for a in row] for row in splitting.sigma.rows]
        lines.append(f"atoms of the reduced quotient: {len(splitting.atoms)}")
        lines.append("splitting: section and multiplicativity verified")
        for coords_text in args.element or []:
            coords = [fld.parse(c) for c in coords_text.split(",")]
            dec = decompose(alg.element(coords), splitting)
            terms = " + ".join(
                f"{fld.format(lam)}*{_fmt_vec(fld, e.coords)}" for lam, e in dec.terms)
            line = (f"decompose {_fmt_vec(fld, coords)}: nil {_fmt_vec(fld, dec.nil_part.coords)}"
                    + (f" + {terms}" if terms else ""))
            lines.append(line)
            report.setdefault("decompositions", []).append({
                "element": [str(fld.format(a)) for a in coords],
                "nil_part": [str(fld.format(a)) for a in dec.nil_part.coords],
                "terms": [{"coefficient": str(fld.format(lam)),
                           "idempotent": [str(fld.format(a)) for a in e.coords]}
                          for lam, e in dec.terms],
            })
    except ZpbalError as exc:
        report["splitting"] = f"not available: {exc}"
        lines.append(f"splitting: not available ({exc})")
    rc = regular_and_clean_check(alg, config, reduced)
    report["regular_on_quotient"] = rc.regular_on_quotient
    report["clean"] = rc.clean
    lines.append(f"regular on reduced quotient: {rc.regular_on_quotient}; clean: {rc.clean}")
    dich = dichotomy_commutative(alg, config, reduced)
    report["dichotomy"] = dich.kind
    lines.append(f"dichotomy: {dich.kind}")
    _emit(report, args.json, lines)
    return 0


def cmd_fn2(args) -> int:
    from zpbal.squarezero import check_span_equality

    config = _config_from_args(args)
    alg = serialize.load_algebra(args.algebra)
    eq = check_span_equality(alg, config)
    report = {
        "algebra": os.path.basename(args.algebra),
        "seed": config.seed,
        "commutator_span_dim": eq.commutator_dim,
        "factorizable_span_dim": eq.factorizable_dim,
        "factorizable_status": eq.factorizable_status,
        "containment": eq.containment_ok,
        "applicable": eq.applicable,
        "equal": eq.equal,
    }
    lines = [
        f"algebra: {report['algebra']}",
        f"commutator span: dim {eq.commutator_dim}",
        f"factorizable square-zero span: dim {eq.factorizable_dim} ({eq.factorizable_status})",
        f"containment (factorizable inside commutator span): {'yes' if eq.containment_ok else 'no'}",
        f"span equality criteria (balanced + idempotent): {'apply' if eq.applicable else 'do not apply'}",
        f"spans equal: {eq.equal}",
    ]
    _emit(report, args.json, lines)
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
