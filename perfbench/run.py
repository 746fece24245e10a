"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The last line of standard output is
one JSON object with the keys `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics declared in BENCHMARK.json for `--trace 0`, the
per-layer metrics for `--trace 1`.  The line before it is the full report,
which also holds the metrics BENCHMARK.json cannot declare for every workload
(see design.json).  Exits non-zero, printing no result, when the program's
source or a workload input is missing.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SETUPS = 3  # set-up repetitions per run; setup_s is their median
IMPORT_SAMPLES = 5  # `import zpbal.cli` timings per traced run; cli.import_s is their median


def declared(kind: str):
    with open(harness.ROOT / "BENCHMARK.json") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def setup(workload, work: Path, env, repeats: int) -> float:
    """Writes the inputs `repeats` times into a fresh directory; median seconds."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    return statistics.median(harness.write_algebras(workload, work, env) for _ in range(repeats))


def untraced(workload, work: Path, seed: int, seconds: float, env):
    # The set-up's `zpbal example` runs import every module of the program and
    # write the inputs, so .pyc files and page cache are warm before the first pass.
    setup_s = setup(workload, work, env, SETUPS)
    passes = harness.measure(workload, work, seed, seconds, env)
    failed = harness.failures(passes)
    attempted = len(workload.commands) * len(passes)
    metrics = harness.end_to_end_metrics(passes, setup_s)
    report = {"passes": len(passes), "commands_per_pass": len(workload.commands),
              "pass_times_s": [p.seconds() for p in passes],
              "pass_wall_s": [p.wall_s for p in passes],
              "group_s": {g.name: harness.median_seconds(passes, lambda c, g=g: c in g.commands)
                          for g in workload.groups},
              "command_times_s": {r.cmd.key: [p.results[i].run.ref_s for p in passes]
                                  for i, r in enumerate(passes[0].results)},
              "command_wall_s": {r.cmd.key: [p.results[i].run.wall_s for p in passes]
                                 for i, r in enumerate(passes[0].results)},
              "metrics": metrics}
    return attempted, failed, report, {k: metrics[k] for k in declared("end_to_end")}


def traced(workload, work: Path, seed: int, env):
    setup(workload, work, env, 1)
    speed = harness.HostSpeed()
    import_runs = [harness.run_child([sys.executable, "-c", "import zpbal.cli"], work, env, speed)
                   for _ in range(IMPORT_SAMPLES)]
    if any(r.returncode for r in import_runs):
        raise SystemExit(f"cannot import zpbal.cli: {import_runs[0].stderr.strip()}")
    child = harness.run_child([sys.executable, "-m", "perfbench.tracing", "--workload",
                               workload.name, "--seed", str(seed), "--work", str(work)],
                              work, env, speed)
    if child.returncode != 0:
        raise SystemExit(f"traced run failed:\n{child.stderr.strip()}")
    result = json.loads(child.stdout.strip().splitlines()[-1])
    values = {"cli.import_s": statistics.median(r.ref_s for r in import_runs), **result["metrics"]}
    metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    report = {"untraced_s": result["untraced_s"], "traced_s": result["traced_s"],
              "traced_process_rss_mb": child.maxrss_kb / 1024,
              "trace_files": [str(work / "trace.json"), str(work / "trace.bin")], "metrics": metrics}
    return result["attempted"], result["failures"], report, {k: metrics[k] for k in declared("per_layer")}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac") or metric.endswith("_ratio"):
        return "ratio"
    return "B" if metric.endswith("_bytes") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="zpbal CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (harness.SOURCE / "zpbal" / "cli.py").is_file():
        print(f"error: program source not found under {harness.SOURCE}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = harness.ROOT / ".perfbench_work" / workload.name
    env = harness.program_env()
    if args.trace:
        attempted, failed, report, metrics = traced(workload, work, args.seed, env)
    else:
        attempted, failed, report, metrics = untraced(workload, work, args.seed, args.seconds, env)

    report = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "machine": harness.machine(), "failures": failed, **report}
    for name, m in report["metrics"].items():
        print(f"{workload.name}  {name:32s} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
