"""Command-line front end.

Subcommands: check, factorize, structure, fn2, verify, example, corpus.
Exit codes: 0 = analysis completed (whatever the verdict), 1 = input error,
2 = internal soundness alarm (a verified certificate chain contradicted a
proven implication; must never happen).

check, factorize, structure and fn2 each build one report dict.  With --json
it is printed as JSON; otherwise the text is rendered from that same dict, one
`key: value` line per top-level key.  All reports are deterministic for fixed
inputs and configuration; the seed is recorded in every emitted artifact.

check and verify start a process per file, and every process compiles the
modules it imports, so a module they import holds only what they run.  This
module holds their handlers.  factorize, structure and fn2 build their reports
in `zpbal.reports`, and corpus runs there; `main` imports that module only when
one of them runs.  example imports `zpbal.constructions` when it runs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from typing import Dict, List, Optional

from zpbal.config import SweepConfig
from zpbal.errors import SoundnessAlarm, WriteError, ZpbalError
from zpbal.fields import field_from_name
from zpbal import serialize
from zpbal.tensorsquare import (
    compute_zero_product_span,
    is_zero_product_balanced,
    is_zero_product_determined,
    refuted_triple,
    verify_file,
)


def _config_from_args(args) -> SweepConfig:
    for flag, value in (("--cap", args.cap), ("--stall", args.stall)):
        if value < 1:
            raise ZpbalError(f"{flag} must be at least 1, got {value}")
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


def cmd_check(args) -> int:
    config = _config_from_args(args)
    alg = serialize.load_algebra(args.algebra)
    fld = alg.field
    span = compute_zero_product_span(alg, config)
    balanced = is_zero_product_balanced(alg, span)
    determined = is_zero_product_determined(alg, span)
    pred = alg.predicates()

    certs = balanced.certificates + determined.certificates
    cert_path = args.out or (os.path.splitext(os.path.basename(args.algebra))[0] + ".certs.json")
    try:
        serialize.save_certificates(certs, fld, config.seed, cert_path,
                                    label=os.path.basename(args.algebra), balanced=balanced.status)
    except OSError as exc:
        raise WriteError(cert_path, exc) from exc

    witness = refuted_triple(balanced)
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
                              "kernel_dim": span.kernel_dim, "stopped": span.stopped},
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


def cmd_report(args) -> int:
    """factorize, structure and fn2: `zpbal.reports` builds the report, cli prints it."""
    from zpbal import reports

    build = {"factorize": reports.factorize, "structure": reports.structure,
             "fn2": reports.fn2}[args.command]
    _emit(build(args, _config_from_args(args)), args.json)
    return 0


def cmd_verify(args) -> int:
    # The loaded file is a large tree of objects that lives until the end, so
    # each pass of the cyclic collector would only walk it again.
    collecting = gc.isenabled()
    gc.disable()
    try:
        alg = serialize.load_algebra(args.algebra)
        balanced, certs = serialize.load_certificates(args.certificate, alg.field)
        lines: List[str] = []  # written in one call: a print per certificate is slower
        try:
            lines.extend(verify_file(alg, balanced, certs))
        finally:  # a malformed certificate still leaves the lines before it
            sys.stdout.write("".join(line + "\n" for line in lines))
    finally:
        if collecting:
            gc.enable()
    return 0


EXAMPLE_NAMES = ("Nm", "Mn", "MnNm", "DN3", "Kn", "KxNm", "zero")


def cmd_example(args) -> int:
    from zpbal.constructions import build_example

    m, n = args.m, args.n  # the dimension, known before the dim^3 table is built
    if n < 0:
        raise ZpbalError(f"--n must be at least 0, got {n}")
    least = 2 if args.name in ("Nm", "MnNm", "KxNm") else 1  # N_m has order m >= 2
    if m < least:
        raise ZpbalError(f"--m must be at least {least}, got {m}")
    dim = {"Nm": m - 1, "Mn": n * n, "MnNm": n * n * (m - 1), "DN3": 4, "Kn": n, "KxNm": m,
           "zero": n}[args.name]
    if dim > serialize.MAX_DIM:  # a file `check` would refuse
        raise ZpbalError(f"dim {dim} exceeds the limit {serialize.MAX_DIM}")
    field = field_from_name(args.field)
    alg = build_example(args.name, field, m, n)
    out = args.out or f"{args.name.lower()}_{args.field.lower()}.json"
    try:
        serialize.save_algebra(alg, out)
    except OSError as exc:
        raise WriteError(out, exc) from exc
    print(f"wrote {out} (dim {alg.dim} over {field.name})")
    return 0


def cmd_corpus(args) -> int:
    from zpbal import reports

    return reports.corpus(args)


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
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("structure", help="commutative structure report")
    p.add_argument("algebra", help="algebra JSON file")
    p.add_argument("--element", action="append",
                   help="comma-separated coordinates to decompose (repeatable)")
    _add_common(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("fn2", help="commutator span vs factorizable square-zero span")
    p.add_argument("algebra", help="algebra JSON file")
    _add_common(p)
    p.set_defaults(func=cmd_report)

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
