"""Traced in-process run: spans and counters around the engine's public functions.

The benchmark must not edit the program, so it wraps, from outside, every
public function and public method of the engine layers below, at every name a
caller binds: `zpbal.cli.compute_zero_product_span` as well as
`zpbal.tensorsquare.compute_zero_product_span`.  Methods are wrapped on their
class, which every caller shares.

Each call becomes a span (name, start, end, parent span, command id).  Spans
are kept in compact arrays while the pass runs and written out when it ends.
A span's self time is its duration minus the time its child spans cover; a
group's busy time counts only spans with no ancestor in the same group, so
recursion is not counted twice.

Run as ``python3 -m perfbench.tracing --workload NAME --seed N --work DIR``
from the checkout root, with the program's source on PYTHONPATH; it prints one
JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib
import inspect
import io
import json
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

LAYERS = ("serialize", "algebra", "linalg", "tensorsquare", "structure", "squarezero")
UNTRACKED = "[untracked]"  # suffix for SpanBuilder.add on builders without expression tracking


class Tracer:
    """In-memory span store and counters for one traced pass."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.command = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Dict[str, int] = defaultdict(int)
        self.command_id = -1
        self._open: List[int] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.command.append(self.command_id)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._open.pop()

    def span_keys(self, key_of: Callable[[str], str] = lambda name: name) -> List[str]:
        """key_of(name) of every span; the strings are shared, one per name."""
        keys = [key_of(n) for n in self.names]
        return [keys[n] for n in self.name]

    def write(self, path: Path, header: Dict):
        """`path`.json holds the header, span names and counters; `path`.bin the
        span columns, each a raw array of the typecode and length given."""
        columns = (("span_name", self.name), ("parent", self.parent),
                   ("command", self.command), ("start", self.start), ("end", self.end))
        with open(path.with_suffix(".bin"), "wb") as fh:
            for _, col in columns:
                col.tofile(fh)
        meta = {**header, "names": self.names, "counters": dict(self.counters),
                "spans": len(self.start), "columns": [[n, c.typecode] for n, c in columns]}
        with open(path.with_suffix(".json"), "w") as fh:
            json.dump(meta, fh, indent=1)


@dataclass
class Totals:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


def self_times(parent: Sequence[int], start: Sequence[float], end: Sequence[float]) -> array:
    """Duration of each span minus the time covered by its direct children.

    Spans are in entry order (a parent precedes its children) and children of
    one parent never overlap, as calls in one thread do not.
    """
    own = array("d", (e - s for s, e in zip(start, end)))
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def totals(keys: Sequence[str], parent: Sequence[int], start: Sequence[float],
           end: Sequence[float], own: Sequence[float]) -> Dict[str, Totals]:
    """Calls, busy time and self time per key (a span name or a layer).

    Busy time sums the spans with no ancestor of the same key, i.e. the
    union of the intervals the key was active.
    """
    out: Dict[str, Totals] = defaultdict(Totals)
    path: List[int] = []
    on_path: Dict[str, int] = defaultdict(int)
    for i, key in enumerate(keys):
        p = parent[i]
        while path and path[-1] != p:
            on_path[keys[path.pop()]] -= 1
        t = out[key]
        t.calls += 1
        t.self_s += own[i]
        if on_path[key] == 0:
            t.busy_s += end[i] - start[i]
        path.append(i)
        on_path[key] += 1
    return dict(out)


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


# -- instrumentation ---------------------------------------------------------

def _counted(items, counters, key):
    for item in items:
        counters[key] += 1
        yield item


def _count(key: str, amount: Callable) -> Callable:
    def after(tracer: Tracer, args: tuple, result):
        tracer.counters[key] += amount(args, result)
        return result
    return after


def _span_dims(tracer: Tracer, args: tuple, report):
    tracer.counters["tensorsquare.span_dim"] += report.dim
    tracer.counters["tensorsquare.kernel_dim"] += report.kernel_dim
    return report


def _count_elements(tracer: Tracer, args: tuple, tuples):
    return _counted(tuples, tracer.counters, "algebra.elements_enumerated")


# Span name -> function run on (tracer, call args, result) after the call; it
# returns the result handed back to the caller.
AFTER: Dict[str, Callable] = {
    "algebra.Algebra.coord_tuples": _count_elements,
    "linalg.SpanBuilder.add": _count("linalg.span_retained", lambda a, r: int(r)),
    "tensorsquare.compute_zero_product_span": _span_dims,
    "tensorsquare.ZeroProductSpanReport.membership_terms":
        _count("tensorsquare.memberships", lambda a, r: int(r is not None)),
    "tensorsquare.verify_certificate":
        _count("tensorsquare.certs_verified", lambda a, r: int(r is True)),
    "serialize.save_certificates":
        _count("serialize.cert_bytes", lambda a, r: Path(a[3]).stat().st_size),
    "squarezero.factorizable_square_zero_span":
        _count("squarezero.witnesses", lambda a, r: len(r.witnesses)),
}


def _wrap(tracer: Tracer, fn: Callable, name: str) -> Callable:
    nid = tracer.name_id(name)
    after = AFTER.get(name)
    untracked = tracer.name_id(name + UNTRACKED) if name == "linalg.SpanBuilder.add" else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        use = untracked if untracked is not None and not args[0].track else nid
        idx = tracer.begin(use)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.finish(idx)
        if after is not None and use == nid:
            result = after(tracer, args, result)
        return result

    return wrapper


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Wrap every public function and method of LAYERS; returns the undo."""
    modules = {layer: importlib.import_module(f"zpbal.{layer}") for layer in LAYERS}
    importlib.import_module("zpbal.cli")
    callers = [m for n, m in sys.modules.items() if n == "zpbal" or n.startswith("zpbal.")]
    undo: List[Tuple[object, str, object]] = []

    def rebind(owner, attr, old, new):
        setattr(owner, attr, new)
        undo.append((owner, attr, old))

    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                new = _wrap(tracer, obj, f"{layer}.{obj.__qualname__}")
                for caller in callers:
                    for bound, value in list(vars(caller).items()):
                        if value is obj:
                            rebind(caller, bound, obj, new)
            elif inspect.isclass(obj):
                for meth, value in list(vars(obj).items()):
                    if meth.startswith("_"):
                        continue
                    if inspect.isfunction(value):
                        new = _wrap(tracer, value, f"{layer}.{value.__qualname__}")
                    elif isinstance(value, (classmethod, staticmethod)):
                        fn = value.__func__
                        new = type(value)(_wrap(tracer, fn, f"{layer}.{fn.__qualname__}"))
                    else:
                        continue  # properties and data
                    rebind(obj, meth, value, new)

    def uninstall():
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)

    return uninstall


# -- metrics -----------------------------------------------------------------

# Per-layer metric -> span names whose busy time (or call count) it reports.
BUSY = {
    "serialize.load_algebra_s": ("serialize.load_algebra",),
    "serialize.cert_write_s": ("serialize.save_certificates",),
    "serialize.cert_load_s": ("serialize.load_certificates",),
    "algebra.predicates_s": ("algebra.Algebra.predicates",),
    "algebra.mult_matrix_s": ("algebra.Algebra.left_mult_matrix",
                              "algebra.Algebra.right_mult_matrix"),
    "linalg.kernel_s": ("linalg.Matrix.kernel",),
    "linalg.span_add_s": ("linalg.SpanBuilder.add",),
    "tensorsquare.span_s": ("tensorsquare.compute_zero_product_span",),
    "tensorsquare.balanced_s": ("tensorsquare.is_zero_product_balanced",),
    "tensorsquare.determined_s": ("tensorsquare.is_zero_product_determined",),
    "tensorsquare.verify_s": ("tensorsquare.verify_certificate",),
    "structure.nilradical_s": ("structure.nilradical",),
    "structure.characters_s": ("structure.characters",),
    "structure.sigma_splitting_s": ("structure.sigma_splitting",),
    "structure.regular_clean_s": ("structure.regular_and_clean_check",),
    "structure.dichotomy_s": ("structure.dichotomy_commutative",),
    "squarezero.commutator_span_s": ("squarezero.commutator_span",),
    "squarezero.factorizable_s": ("squarezero.factorizable_square_zero_span",),
}
CALLS = {
    "algebra.mult_matrices": BUSY["algebra.mult_matrix_s"],
    "linalg.kernel_calls": ("linalg.Matrix.kernel",),
    "linalg.span_offered": ("linalg.SpanBuilder.add",),
}
COUNTERS = ("serialize.cert_bytes", "algebra.elements_enumerated", "linalg.span_retained",
            "tensorsquare.span_dim", "tensorsquare.kernel_dim", "tensorsquare.memberships",
            "tensorsquare.certs_verified", "squarezero.witnesses")


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer busy/self/calls plus the named function metrics of one traced pass."""
    own = self_times(tracer.parent, tracer.start, tracer.end)
    by_name = totals(tracer.span_keys(), tracer.parent, tracer.start, tracer.end, own)
    by_layer = totals(tracer.span_keys(layer_of), tracer.parent, tracer.start, tracer.end, own)
    out: Dict[str, float] = {}
    for layer in ("cli",) + LAYERS:
        t = by_layer.get(layer, Totals())
        out.update({f"{layer}.busy_s": t.busy_s, f"{layer}.self_s": t.self_s,
                    f"{layer}.calls": t.calls})
    for metric, names in BUSY.items():
        out[metric] = sum(by_name[n].busy_s for n in names if n in by_name)
    for metric, names in CALLS.items():
        out[metric] = sum(by_name[n].calls for n in names if n in by_name)
    for key in COUNTERS:
        out[key] = tracer.counters.get(key, 0)
    offered = out["linalg.span_offered"]
    out["linalg.span_retain_ratio"] = out["linalg.span_retained"] / offered if offered else 0.0
    return out


# -- the in-process pass -----------------------------------------------------

def run_in_process(workload, work: str, seed: int, tracer: Optional[Tracer]):
    """One pass through `zpbal.cli.main`; returns (seconds, failures, digests)."""
    from zpbal import cli
    from perfbench.workloads import check_output

    failures, digests, elapsed = [], {}, 0.0
    for cmd_id, cmd in enumerate(workload.commands):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        if tracer is not None:
            tracer.command_id = cmd_id
            root = tracer.begin(tracer.name_id(f"cli.{cmd.sub}"))
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(cmd.argv(work, seed))
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an uncaught error fails this command, not the run
            rc, err = 1, io.StringIO(f"{type(exc).__name__}: {exc}")
        finally:
            if tracer is not None:
                tracer.finish(root)
        elapsed += time.perf_counter() - start
        failure = check_output(cmd, rc, out.getvalue(), seed)
        if failure is None and cmd.sub == "check":
            with open(cmd.cert_path(work), "rb") as fh:
                digests[cmd.key] = hashlib.sha256(fh.read()).hexdigest()
        if failure:
            failures.append(f"{cmd.key}: {failure} {err.getvalue().strip()[-300:]}")
    return elapsed, failures, digests


def main(argv: Optional[List[str]] = None) -> int:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, help="directory holding the input algebras")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    # Pass 1 fills caches and grows the heap, pass 2 is the untraced reference,
    # pass 3 is traced.  All three must write byte-identical certificates.
    tracer = Tracer()
    results = [run_in_process(workload, args.work, args.seed, None) for _ in range(2)]
    uninstall = instrument(tracer)
    try:
        results.append(run_in_process(workload, args.work, args.seed, tracer))
    finally:
        uninstall()
    failures = [f for _, fails, _ in results for f in fails]
    first = results[0][2]
    failures += [f"{key}: certificate of pass {n} differs from pass 1"
                 for n, (_, _, digests) in enumerate(results[1:], 2)
                 for key, digest in digests.items() if first.get(key) != digest]
    plain_s, traced_s = results[1][0], results[2][0]

    metrics = layer_metrics(tracer)
    metrics["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
    metrics["trace.spans"] = len(tracer.start)
    tracer.write(Path(args.work) / "trace", {"workload": workload.name, "seed": args.seed,
                                              "commands": [c.key for c in workload.commands]})
    print(json.dumps({"attempted": 3 * len(workload.commands), "failures": failures,
                      "untraced_s": plain_s, "traced_s": traced_s, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
