"""The lazily imported span engine hides no call from perfbench's tracer.

`zpbal.linalg` and `zpbal.sweep` are imported inside the functions that
sweep or reduce, not at the top of the modules `check` and `verify` load.
`perfbench.tracing.instrument` wraps the public functions and methods of its
layers at every name a caller binds, so a traced pass must count the same
calls whether the engine was imported before `instrument` ran or first by
`instrument` itself.  This file reads `perfbench`; it does not change it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COUNTS = ("linalg.calls", "linalg.span_offered", "linalg.span_retained",
          "algebra.elements_enumerated", "tensorsquare.certs_verified")

# An M2/F2 check and verify and an N4/F2 check, as in
# perfbench/tests/test_harness.py::test_traced_pass_counts.
CHILD = """
import json, sys
early, work = sys.argv[1] == "early", sys.argv[2]
if early:
    import zpbal.linalg, zpbal.sweep
before = sorted(m for m in ("zpbal.linalg", "zpbal.sweep") if m in sys.modules)
from perfbench import tracing
from perfbench.workloads import Command, Expect, Group, Workload
commands = (Command("check", "m2f2", (), Expect("EXACT", (12, 12), balanced="YES", determined="YES")),
            Command("verify", "m2f2"),
            Command("check", "n4f2", (), Expect("EXACT", (6, 7), balanced="NO")))
workload = Workload("order", (Group("order", {}, commands),))
tracer = tracing.Tracer()
uninstall = tracing.instrument(tracer)
try:
    _, failed, _ = tracing.run_in_process(workload, work, 5, tracer)
finally:
    uninstall()
m = tracing.layer_metrics(tracer)
print(json.dumps({"before": before, "failed": failed, "counts": {k: m[k] for k in %r}}))
""" % (COUNTS,)


def test_traced_counts_do_not_depend_on_when_the_span_engine_is_imported(tmp_path):
    from zpbal.cli import main

    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    runs = {}
    for order in ("early", "lazy"):
        work = tmp_path / order
        work.mkdir()
        assert main(["example", "Mn", "--n", "2", "--field", "F2", "--out", str(work / "m2f2.json")]) == 0
        assert main(["example", "Nm", "--m", "4", "--field", "F2", "--out", str(work / "n4f2.json")]) == 0
        proc = subprocess.run([sys.executable, "-c", CHILD, order, str(work)], capture_output=True,
                              text=True, env=env, cwd=ROOT, timeout=120)
        assert proc.returncode == 0, proc.stderr
        runs[order] = json.loads(proc.stdout.strip().splitlines()[-1])
    assert runs["early"]["before"] == ["zpbal.linalg", "zpbal.sweep"]
    assert runs["lazy"]["before"] == []
    assert runs["early"]["failed"] == runs["lazy"]["failed"] == []
    assert runs["early"]["counts"] == runs["lazy"]["counts"]
    counts = runs["lazy"]["counts"]
    assert counts["tensorsquare.certs_verified"] == 64
    assert counts["linalg.span_offered"] >= counts["linalg.span_retained"] > 0
    assert counts["algebra.elements_enumerated"] > 2 ** 3
