"""Benchmark workloads: input algebras, command lists and expected outputs.

Every input comes from the CLI's built-in constructors (``zpbal example``).
The workload seed is passed to each command that takes ``--seed``; ``verify``
takes none.  The reasons for each workload, the layers it loads and bypasses,
and the predicted effect of the ROADMAP optimisations are in ``design.json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Expect:
    """Expected `--json` verdict of one command; None means "not checked"."""

    status: Optional[str] = None  # zero-product span status (EXACT / LOWER_BOUND)
    span: Optional[Tuple[int, int]] = None  # (span dim, multiplication-kernel dim)
    span_within_kernel: bool = False  # span dim <= kernel dim (seed-dependent lower bounds)
    balanced: Optional[str] = None
    determined: Optional[str] = None
    fields: Dict[str, object] = field(default_factory=dict)  # dotted path -> value


@dataclass(frozen=True)
class Command:
    sub: str  # check / verify / structure / fn2
    alg: str  # algebra file stem
    opts: Tuple[str, ...] = ()
    expect: Optional[Expect] = None

    @property
    def key(self) -> str:
        return f"{self.sub}:{self.alg}"

    def argv(self, work: str, seed: int) -> List[str]:
        alg_path = f"{work}/{self.alg}.json"
        if self.sub == "verify":
            return ["verify", self.cert_path(work), alg_path]
        argv = [self.sub, alg_path, "--json", "--seed", str(seed), *self.opts]
        if self.sub == "check":
            argv += ["--out", self.cert_path(work)]
        return argv

    def cert_path(self, work: str) -> str:
        return f"{work}/{self.alg}.certs.json"


@dataclass(frozen=True)
class Group:
    """A named command list with its inputs; a workload runs one or more groups."""

    name: str
    algebras: Dict[str, Tuple[str, ...]]  # file stem -> `zpbal example` arguments
    commands: Tuple[Command, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    groups: Tuple[Group, ...]

    @property
    def algebras(self) -> Dict[str, Tuple[str, ...]]:
        return {stem: args for g in self.groups for stem, args in g.algebras.items()}

    @property
    def commands(self) -> Tuple[Command, ...]:
        return tuple(c for g in self.groups for c in g.commands)


def _check(alg: str, expect: Expect, *opts: str) -> Command:
    return Command("check", alg, tuple(opts), expect)


def _verify(alg: str) -> Command:
    return Command("verify", alg)


BIG_CAP = ("--cap", "19683")  # 3^9: lets the M3/F3 sweeps run exhaustively
M3F3 = {"m3f3": ("Mn", "--n", "3", "--field", "F3")}

SWEEP_EXHAUSTIVE = Group(
    "sweep-exhaustive",
    {"n13f2": ("Nm", "--m", "13", "--field", "F2"), "n9f3": ("Nm", "--m", "9", "--field", "F3"),
     **M3F3},
    (
        _check("n13f2", Expect("EXACT", (78, 133), balanced="NO", determined="NO")),
        _verify("n13f2"),
        _check("n9f3", Expect("EXACT", (36, 57), balanced="NO", determined="NO")),
        _verify("n9f3"),
        _check("m3f3", Expect("EXACT", (72, 72), balanced="YES", determined="YES"), *BIG_CAP),
        _verify("m3f3"),
    ),
)
STRUCTURE_FN2 = Group(
    "structure-fn2",
    # F3^7, not F3^8: its 2 s instead of 6 s lets a 55 s run hold five passes, not three
    {"k7f3": ("Kn", "--n", "7", "--field", "F3"), **M3F3},
    (
        Command("structure", "k7f3", (), Expect(fields={
            "nilradical.dim": 0, "characters.table#": 7, "atoms#": 7,
            "clean": "YES", "dichotomy": "HAS_CHARACTER"})),
        Command("fn2", "m3f3", BIG_CAP, Expect(fields={
            "commutator_span_dim": 8, "factorizable_span_dim": 8,
            "factorizable_status": "EXACT", "equal": True})),
    ),
)
CERTS_HEAVY = Group(
    "certs-heavy",
    {"m4f2": ("Mn", "--n", "4", "--field", "F2"),
     "m3n3f2": ("MnNm", "--n", "3", "--m", "3", "--field", "F2")},
    (
        _check("m4f2", Expect(span=(240, 240), balanced="YES", determined="YES")),
        _verify("m4f2"),
        _check("m3n3f2", Expect(span=(315, 315), balanced="YES", determined="YES")),
        _verify("m3n3f2"),
    ),
)
UNKNOWN = Expect(span_within_kernel=True, balanced="UNKNOWN", determined="UNKNOWN")
RATIONAL = Group(
    "rational",
    {"n12q": ("Nm", "--m", "12", "--field", "Q"), "n8q": ("Nm", "--m", "8", "--field", "Q"),
     "dn3q": ("DN3", "--field", "Q"), "m3q": ("Mn", "--n", "3", "--field", "Q")},
    (
        _check("n12q", UNKNOWN),
        _check("n8q", UNKNOWN),
        _check("dn3q", Expect(span=(12, 14), balanced="YES", determined="UNKNOWN")),
        _check("m3q", Expect(span=(72, 72), balanced="YES", determined="YES")),
        _verify("m3q"),
    ),
)

# Two workloads, not one per group: a 55 s run of either averages over the
# host's speed swings far better than four 25 s runs would, in the same total
# time.  The split follows the engine's two span strategies, so each sweep
# optimisation has a workload that runs it and one that bypasses it.
WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("exhaustive", (SWEEP_EXHAUSTIVE, STRUCTURE_FN2)),
        Workload("lower-bound", (CERTS_HEAVY, RATIONAL)),
    )
}


def _lookup(report: dict, path: str):
    """Value at a dotted path; a trailing '#' asks for the length."""
    want_len = path.endswith("#")
    node = report
    for part in path.rstrip("#").split("."):
        node = node[part]
    return len(node) if want_len else node


def check_output(cmd: Command, returncode: int, stdout: str, seed: int) -> Optional[str]:
    """Why the command's output is wrong, or None when it matches the table."""
    if returncode != 0:
        return f"exit code {returncode}"
    if cmd.sub == "verify":
        lines = stdout.strip().splitlines()
        if not lines or lines[-1] != "all certificates: true":
            return "verify did not print 'all certificates: true'"
        return None
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    exp = cmd.expect
    problems = []
    if report.get("seed") != seed:
        problems.append(f"seed {report.get('seed')!r} != {seed}")
    if cmd.sub == "check":
        try:
            span = report["zero_product_span"]
            got = (span["dim"], span["kernel_dim"])
            verdicts = {key: report[key] for key in ("balanced", "determined")}
        except (KeyError, TypeError) as exc:
            return f"check report lacks {exc}"
        if exp.status is not None and span.get("status") != exp.status:
            problems.append(f"span status {span.get('status')} != {exp.status}")
        if exp.span is not None and got != exp.span:
            problems.append(f"span {got[0]}/{got[1]} != {exp.span[0]}/{exp.span[1]}")
        if exp.span_within_kernel and got[0] > got[1]:
            problems.append(f"span {got[0]} exceeds kernel {got[1]}")
        for key, got_verdict in verdicts.items():
            want = getattr(exp, key)
            if want is not None and got_verdict != want:
                problems.append(f"{key} {got_verdict} != {want}")
    for path, want in exp.fields.items():
        try:
            got = _lookup(report, path)
        except (KeyError, TypeError):
            got = "<missing>"
        if got != want:
            problems.append(f"{path} {got!r} != {want!r}")
    return "; ".join(problems) or None

