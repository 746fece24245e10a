"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s perfbench/tests -t .

Each test that runs the CLI uses small algebras (dim <= 4) so the file takes a
few seconds.
"""

from __future__ import annotations

import ast
import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench import harness, tracing  # noqa: E402
from perfbench.workloads import WORKLOADS, Command, Expect, Group, Workload  # noqa: E402

M2 = {"m2f2": ("Mn", "--n", "2", "--field", "F2")}
M2_CHECK = Command("check", "m2f2", (), Expect("EXACT", (12, 12), balanced="YES", determined="YES"))


class CliCase(unittest.TestCase):
    def setUp(self):
        self.work = Path(tempfile.mkdtemp(prefix="perfbench-test-"))
        self.env = harness.program_env()

    def tearDown(self):
        shutil.rmtree(self.work)

    def one_pass(self, commands, reference=None):
        workload = Workload("test", (Group("test", M2, tuple(commands)),))
        harness.write_algebras(workload, self.work, self.env)
        p = harness.run_pass(workload, self.work, 5, self.env, {} if reference is None else reference)
        return p, harness.end_to_end_metrics([p], setup_s=0.0)["failed_frac"]["value"]


class FailedFracTest(CliCase):
    def test_expected_verdicts_pass(self):
        p, frac = self.one_pass([M2_CHECK, Command("verify", "m2f2")])
        self.assertEqual(harness.failures([p]), [])
        self.assertEqual(frac, 0.0)
        self.assertGreater(p.cert_bytes, 0)

    def test_wrong_expected_verdict_counts_as_failed(self):
        wrong = Command("check", "m2f2", (), Expect(balanced="NO"))
        p, frac = self.one_pass([wrong, Command("verify", "m2f2")])
        self.assertEqual(frac, 0.5)
        self.assertIn("balanced YES != NO", harness.failures([p])[0])

    def test_corrupted_certificate_counts_as_failed(self):
        self.one_pass([M2_CHECK])
        cert_path = Path(M2_CHECK.cert_path(str(self.work)))
        data = json.loads(cert_path.read_text())
        cert = next(c for c in data["certificates"] if c["terms"])
        cert["target"][cert["target"].index(1)] = 0  # flip one coefficient over F2
        cert_path.write_text(json.dumps(data))
        p, frac = self.one_pass([Command("verify", "m2f2")])
        self.assertEqual(frac, 1.0)
        self.assertIn("all certificates: true", harness.failures([p])[0])

    def test_certificate_differing_from_first_pass_counts_as_failed(self):
        p, frac = self.one_pass([M2_CHECK], reference={M2_CHECK.key: "0" * 64})
        self.assertEqual(frac, 1.0)
        self.assertIn("differs from the first pass", harness.failures([p])[0])

    def test_nonzero_exit_counts_as_failed(self):
        p, frac = self.one_pass([Command("check", "missing", (), Expect())])
        self.assertEqual(frac, 1.0)
        self.assertIn("exit code 1", harness.failures([p])[0])


class HostSpeedTest(unittest.TestCase):
    def test_wall_time_is_scaled_by_the_probes_on_both_sides(self):
        probes = iter([0.5, 1.5, 3.0])  # in units of REFERENCE_S
        original = harness.probe_s
        harness.probe_s = lambda: next(probes) * harness.REFERENCE_S
        try:
            speed = harness.HostSpeed()
            self.assertAlmostEqual(speed.reference_s(2.0), 2.0)  # probes 0.5 and 1.5: mean 1
            self.assertAlmostEqual(speed.reference_s(4.5), 2.0)  # probes 1.5 and 3.0
        finally:
            harness.probe_s = original


class SelfTimeTest(unittest.TestCase):
    # cli.check [0, 10]
    #   serialize.load [1, 3]
    #   tensorsquare.span [4, 9]
    #     linalg.kernel [5, 6]
    #     tensorsquare.span [6.5, 8.5]   (recursion)
    NAMES = ["cli.check", "serialize.load", "tensorsquare.span", "linalg.kernel",
             "tensorsquare.span"]
    PARENT = [-1, 0, 0, 2, 2]
    START = [0.0, 1.0, 4.0, 5.0, 6.5]
    END = [10.0, 3.0, 9.0, 6.0, 8.5]

    def test_self_times(self):
        own = tracing.self_times(self.PARENT, self.START, self.END)
        self.assertEqual(list(own), [3.0, 2.0, 2.0, 1.0, 2.0])

    def test_busy_self_and_calls_per_key(self):
        own = tracing.self_times(self.PARENT, self.START, self.END)
        by_name = tracing.totals(self.NAMES, self.PARENT, self.START, self.END, own)
        span = by_name["tensorsquare.span"]
        self.assertEqual((span.calls, span.busy_s, span.self_s), (2, 5.0, 4.0))
        layers = [tracing.layer_of(n) for n in self.NAMES]
        by_layer = tracing.totals(layers, self.PARENT, self.START, self.END, own)
        self.assertEqual(by_layer["cli"].busy_s, 10.0)
        self.assertEqual(by_layer["linalg"].self_s, 1.0)
        self.assertEqual(sum(t.self_s for t in by_layer.values()), 10.0)

    def test_sibling_subtrees_do_not_hide_busy_time(self):
        # two roots of one key, the second after a deep first subtree
        parent = [-1, 0, 1, -1]
        start, end = [0.0, 1.0, 2.0, 5.0], [4.0, 3.0, 2.5, 6.0]
        own = tracing.self_times(parent, start, end)
        by_key = tracing.totals(["a", "b", "a", "a"], parent, start, end, own)
        self.assertEqual(by_key["a"].busy_s, 5.0)
        self.assertEqual(by_key["a"].calls, 3)


class InstrumentTest(unittest.TestCase):
    def test_wraps_caller_bindings_and_undoes(self):
        from zpbal import cli, tensorsquare
        original = tensorsquare.compute_zero_product_span
        tracer = tracing.Tracer()
        uninstall = tracing.instrument(tracer)
        try:
            self.assertIsNot(cli.compute_zero_product_span, original)
            self.assertIs(cli.compute_zero_product_span, tensorsquare.compute_zero_product_span)
        finally:
            uninstall()
        self.assertIs(cli.compute_zero_product_span, original)
        self.assertIs(tensorsquare.compute_zero_product_span, original)

    def test_traced_pass_counts(self):
        n4_check = Command("check", "n4f2", (), Expect("EXACT", (6, 7), balanced="NO"))
        algebras = {**M2, "n4f2": ("Nm", "--m", "4", "--field", "F2")}
        workload = Workload("test", (Group("test", algebras,
                                           (M2_CHECK, Command("verify", "m2f2"), n4_check)),))
        with tempfile.TemporaryDirectory(prefix="perfbench-test-") as work:
            harness.write_algebras(workload, Path(work), harness.program_env())
            tracer = tracing.Tracer()
            uninstall = tracing.instrument(tracer)
            try:
                _, failed, _ = tracing.run_in_process(workload, work, 5, tracer)
            finally:
                uninstall()
        self.assertEqual(failed, [])
        m = tracing.layer_metrics(tracer)
        # N4/F2 (verdict NO) sweeps all 2^3 elements; M2/F2 stops at the kernel ceiling
        self.assertGreater(m["algebra.elements_enumerated"], 2 ** 3)
        self.assertLess(m["algebra.elements_enumerated"], 2 ** 3 + 2 ** 4)
        self.assertEqual((m["tensorsquare.span_dim"], m["tensorsquare.kernel_dim"]), (18, 19))
        self.assertEqual(m["tensorsquare.certs_verified"], 64)
        self.assertEqual(m["cli.calls"], 3)
        self.assertEqual(set(tracer.command), {0, 1, 2})
        self.assertLessEqual(m["tensorsquare.span_s"], m["tensorsquare.busy_s"])


class DeclaredMetricsTest(unittest.TestCase):
    def test_benchmark_json_declares_only_reported_metrics_with_their_units(self):
        from perfbench import run
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        child = harness.Run(0, 1.0, 1.0, 2048, "", "")
        for workload in WORKLOADS.values():  # every declared metric applies to every workload
            one_pass = harness.Pass([harness.CommandResult(c, child, None, cert_bytes=1)
                                     for c in workload.commands])
            reported = harness.end_to_end_metrics([one_pass], setup_s=0.5)
            for m in declared["end_to_end"]:
                self.assertEqual(reported[m["name"]]["unit"], m["unit"], m["name"])
                self.assertGreater(reported[m["name"]]["value"], 0, m["name"])
        per_layer = set(tracing.layer_metrics(tracing.Tracer())) | {
            "cli.import_s", "trace.overhead_frac", "trace.spans"}
        for m in declared["per_layer"]:
            self.assertIn(m["name"], per_layer)
            self.assertEqual(run.unit_of(m["name"]), m["unit"], m["name"])


class StandardLibraryOnlyTest(unittest.TestCase):
    def test_harness_imports_only_the_standard_library(self):
        allowed = set(sys.stdlib_module_names) | {"__future__", "perfbench", "zpbal"}
        for path in (ROOT / "perfbench").rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    self.assertIn(name.split(".")[0], allowed, f"{path.name} imports {name}")


if __name__ == "__main__":
    unittest.main()
