"""Runs the zpbal CLI as child processes and turns passes into metrics.

Standard library only.  One client, closed loop: each command starts after the
previous one has been reaped, so the two cores never run two commands at once.

Times are reported in reference seconds: a child's wall time scaled by the
host's speed at the time, measured with a fixed loop (`probe_s`) run just
before and just after the child.  The shared 2-core host's speed swings by up
to 2x within minutes: over ten 55 s runs the run medians of raw wall time
spread 0.07-0.20 (quartile distance over median), those in reference seconds
0.03-0.08.  A change in the program moves the child but not the loop, so it
still shows one for one.  The raw wall times stay in the full report.
"""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from perfbench.workloads import Command, Workload, check_output

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
MIN_PASSES = 3  # a median needs at least three passes, even when one pass outlasts --seconds
PROBE_LOOPS = 600_000  # iterations of the host-speed probe
REFERENCE_S = 0.06  # about the probe's time on the 2-core Xeon host the bounds were set on


def program_env() -> Dict[str, str]:
    """Environment that runs the CLI from the checkout's source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCE), env.get("PYTHONPATH")]))
    return env


def zpbal_argv(args: Sequence[str]) -> List[str]:
    """Command line of the `zpbal` entry point (`zpbal.cli:main`) run from source."""
    return [sys.executable, "-m", "zpbal.cli", *args]


def probe_s() -> float:
    """Seconds a fixed pure-Python loop takes now: the host's speed, inverted."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


class HostSpeed:
    """Scales wall times by the host speed probed on both sides of each child.

    Children are timed one after another, so the probe after one child is also
    the probe before the next.
    """

    def __init__(self):
        self._before = probe_s()

    def reference_s(self, wall_s: float) -> float:
        after = probe_s()
        scaled = wall_s * REFERENCE_S / ((self._before + after) / 2)
        self._before = after
        return scaled


@dataclass
class Run:
    """One reaped child: wall time from spawn to reap, that time in reference
    seconds, and the child's own peak RSS."""

    returncode: int
    wall_s: float
    ref_s: float
    maxrss_kb: int
    stdout: str
    stderr: str


def run_child(argv: Sequence[str], work: Path, env: Dict[str, str], speed: HostSpeed) -> Run:
    """Run argv to completion and read its resource usage with os.wait4.

    `resource.getrusage(RUSAGE_CHILDREN)` would give the running maximum over
    every child reaped so far, so each child is reaped by pid instead.
    Output goes to files, not pipes, so a large output cannot block the child
    while the parent waits.
    """
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(proc.returncode, wall, speed.reference_s(wall), usage.ru_maxrss,
               out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def write_algebras(workload: Workload, work: Path, env: Dict[str, str]) -> float:
    """Write every input algebra with `zpbal example`; returns the time in reference seconds."""
    speed = HostSpeed()
    total = 0.0
    for stem, example_args in workload.algebras.items():
        run = run_child(zpbal_argv(["example", *example_args, "--out", str(work / f"{stem}.json")]),
                        work, env, speed)
        if run.returncode != 0:
            raise SystemExit(f"cannot write input {stem}: {run.stderr.strip()}")
        total += run.ref_s
    return total


@dataclass
class CommandResult:
    cmd: Command
    run: Run
    failure: Optional[str]
    cert_bytes: int = 0
    cert_digest: Optional[str] = None


@dataclass
class Pass:
    results: List[CommandResult] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(r.run.wall_s for r in self.results)

    def seconds(self, select: Callable[[Command], bool] = lambda cmd: True) -> float:
        """Reference seconds of the selected commands (all by default)."""
        return sum(r.run.ref_s for r in self.results if select(r.cmd))

    @property
    def cert_bytes(self) -> int:
        return sum(r.cert_bytes for r in self.results)

    @property
    def peak_rss_mb(self) -> float:
        return max(r.run.maxrss_kb for r in self.results) / 1024


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def run_pass(workload: Workload, work: Path, seed: int, env: Dict[str, str],
             reference: Dict[str, str]) -> Pass:
    """One pass over the command list, then the correctness checks.

    `reference` maps a check command to the digest of its certificate file in
    the first pass; a later pass whose file differs in any byte fails
    (reruns must be byte-identical).  The checks run after the timed part.
    """
    runs = []
    speed = HostSpeed()
    for cmd in workload.commands:
        if cmd.sub == "check":
            Path(cmd.cert_path(str(work))).unlink(missing_ok=True)
        runs.append(run_child(zpbal_argv(cmd.argv(str(work), seed)), work, env, speed))
    result = Pass()
    for cmd, run in zip(workload.commands, runs):
        failure = check_output(cmd, run.returncode, run.stdout, seed)
        res = CommandResult(cmd, run, failure)
        if cmd.sub == "check":
            # `verify` only reads the file, so after the pass it holds what `check` wrote.
            cert = Path(cmd.cert_path(str(work)))
            if cert.exists():
                res.cert_bytes = cert.stat().st_size
                res.cert_digest = file_digest(cert)
            expected = reference.setdefault(cmd.key, res.cert_digest)
            if res.failure is None and res.cert_digest != expected:
                res.failure = "certificate file differs from the first pass"
        result.results.append(res)
    return result


def measure(workload: Workload, work: Path, seed: int, seconds: float,
            env: Dict[str, str]) -> List[Pass]:
    """Passes until `seconds` are used, at least MIN_PASSES of them.

    A pass starts only when one more average pass still fits the budget, so a
    run ends near `seconds` instead of up to a whole pass after it.
    """
    passes: List[Pass] = []
    reference: Dict[str, str] = {}
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, work, seed, env, reference))
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) > seconds:
            return passes


def failures(passes: Sequence[Pass]) -> List[str]:
    return [f"{r.cmd.key}: {r.failure}" for p in passes for r in p.results if r.failure]


def median_seconds(passes: Sequence[Pass], select: Callable[[Command], bool]) -> float:
    """Median over passes of the summed reference seconds of the selected commands."""
    return statistics.median(p.seconds(select) for p in passes)


def end_to_end_metrics(passes: Sequence[Pass], setup_s: float) -> Dict[str, Dict]:
    """Every end-to-end metric that applies to the workload, with its unit."""
    subs = {r.cmd.sub for r in passes[0].results}
    attempted = sum(len(p.results) for p in passes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "pass_s": (statistics.median(p.seconds() for p in passes), "s"),
    }
    for sub in ("check", "verify", "structure", "fn2"):
        if sub in subs:
            metrics[f"{sub}_s"] = (median_seconds(passes, lambda c, sub=sub: c.sub == sub), "s")
    if "check" in subs:
        metrics["cert_bytes"] = (passes[0].cert_bytes, "B")
    metrics["peak_rss_mb"] = (statistics.median(p.peak_rss_mb for p in passes), "MB")
    metrics["failed_frac"] = (len(failures(passes)) / attempted, "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def machine() -> Dict[str, object]:
    """Facts about the host that the run can learn without reading outside the checkout."""
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "arch": platform.machine()}
