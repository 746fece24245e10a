"""End-to-end and per-layer benchmark of the zpbal command-line tool.

Run one workload with

    python3 perfbench/run.py --workload exhaustive --seed 1 --seconds 50 --trace 0

from the root of a source checkout.  ``--trace 0`` runs the CLI as
subprocesses and reports end-to-end metrics; ``--trace 1`` runs the same
commands in-process with every public function of the engine layers wrapped
in spans and reports per-layer metrics.  The workloads and their rationale
are in ``workloads.py`` and ``design.json``; the self-tests run with
``python3 -m unittest discover -s perfbench/tests -t .``.
"""
