"""The library holds only what a command runs.

Every public top-level name of `src/zpbal` must be reachable from
`zpbal.cli` through the names the modules refer to; constructions that only
tests use live under `tests/` (`references`, `multiplier`, `oracles`).
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "zpbal"


def _modules():
    """Per module: top-level definitions with the names they refer to, the
    module's zpbal imports (at top level or in a function body), and the names
    its other top-level statements use."""
    defs, imports, loose = {}, {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        mod = path.stem
        imports[mod], loose[mod] = {}, []
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):  # also inside functions: a command imports what it runs
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("zpbal"):
                for a in node.names:  # "from zpbal import corpus" binds a module
                    where = ("module", a.name) if node.module == "zpbal" else (node.module[6:], a.name)
                    imports[mod][a.asname or a.name] = where
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[(mod, node.name)] = node
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        defs[(mod, target.id)] = node.value
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                loose[mod].append(node)
    return defs, imports, loose


def _referenced(mod, nodes, defs, imports):
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                yield from (k for k in ((mod, n.id), imports[mod].get(n.id)) if k in defs)
            elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
                kind, name = imports[mod].get(n.value.id, (None, None))
                if kind == "module" and (name, n.attr) in defs:
                    yield (name, n.attr)


def test_every_public_name_is_reached_from_the_cli():
    defs, imports, loose = _modules()
    seen = set()
    stack = [k for k in defs if k[0] == "cli"] + list(_referenced("cli", loose["cli"], defs, imports))
    while stack:
        key = stack.pop()
        if key not in seen:
            seen.add(key)
            stack.extend(_referenced(key[0], [defs[key]], defs, imports))
    unreached = sorted(f"{m}.{n}" for m, n in defs if (m, n) not in seen and not n.startswith("_"))
    assert unreached == []


def test_only_the_projective_sweep_enumerates_elements():
    callers = [path.name for path in PACKAGE.glob("*.py")
               if ".coord_tuples()" in path.read_text(encoding="utf-8")]
    assert callers == ["sweep.py"]
    assert "n_elements" not in (PACKAGE / "structure.py").read_text(encoding="utf-8")


def test_only_the_sweep_module_chooses_a_span_strategy():
    """Exhaustive or lower bound, and the structured and random phases of the
    latter, are decided in `zpbal.sweep.sweep_blocks` alone."""
    phases = {"structured_elements", "random_elements", "exhaustive_blocks"}
    callers = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in phases:
                    callers.add(path.name)
    assert callers == {"sweep.py"}


def test_only_the_sweep_module_knows_block_geometry():
    """Sides and blocks stay in `zpbal.sweep`: the spans receive zero-product
    pairs and never ask which side or block they came from."""
    geometry = {"RIGHT", "LEFT", "Block"}
    users = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = {node.id} if isinstance(node, ast.Name) else (
                {node.attr} if isinstance(node, ast.Attribute) else
                {a.name for a in node.names} if isinstance(node, ast.ImportFrom) else set())
            if names & geometry:
                users.add(path.name)
    assert users == {"sweep.py"}


def test_the_cli_holds_no_certificate_rule():
    """What proves a claim is decided in `zpbal.tensorsquare`: `cli.py` names
    neither certificate kind and reads no certificate's meta."""
    kinds = {"MEMBERSHIP", "SEPARATING", "membership-decomposition", "separating-functional"}
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            found |= {node.id} & kinds
        elif isinstance(node, ast.Attribute):
            found |= {node.attr} & (kinds | {"meta"})
        elif isinstance(node, ast.alias):
            found |= {node.name} & kinds
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found |= {node.value} & kinds
    assert found == set()


def test_no_module_loads_dataclasses_or_inspect():
    """Records are NamedTuples or plain classes: `dataclasses` pulls in
    `inspect`, `ast`, `dis` and `tokenize`, which every process would pay for."""
    code = ("import sys, zpbal.cli, zpbal.reports, zpbal.structure, zpbal.squarezero, zpbal.linmaps,"
            " zpbal.corpus\n"
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_check_and_verify_load_only_what_they_run(tmp_path):
    """`check` and `verify` load neither the constructors, nor the code of
    the other commands, nor `fractions` over F_p or over Q while every
    scalar stays integral, as on N4/Q.  A Q input with a non-integral
    scalar loads `fractions`, so the child does see what a command imports."""
    from zpbal.cli import main

    off_path = ("fractions", "zpbal.constructions", "zpbal.reports", "zpbal.structure",
                "zpbal.squarezero", "zpbal.linmaps", "zpbal.corpus")
    code = ("import sys\nfrom zpbal.cli import main\nalg, certs = sys.argv[1:]\n"
            "for argv in (['check', alg, '--out', certs], ['verify', certs, alg]):\n"
            "    assert main(argv) == 0\n"
            f"print(sorted(m for m in {off_path!r} if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    inputs = {}
    for field in ("F2", "Q"):
        inputs[field] = tmp_path / f"n4{field}.json"
        assert main(["example", "Nm", "--m", "4", "--field", field, "--out", str(inputs[field])]) == 0
    inputs["Q, e² = e/2"] = tmp_path / "half.json"  # (ee)e = e/4 = e(ee)
    inputs["Q, e² = e/2"].write_text(json.dumps(
        {"field": "Q", "dim": 1, "basis": ["e"], "products": [{"i": 0, "j": 0, "coords": ["1/2"]}]}))
    loaded = {}
    for name, alg in inputs.items():
        proc = subprocess.run([sys.executable, "-c", code, str(alg), str(tmp_path / "certs.json")],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        loaded[name] = proc.stdout.strip().splitlines()[-1]
    assert loaded == {"F2": "[]", "Q": "[]", "Q, e² = e/2": "['fractions']"}


def _engine_loaded(*argvs) -> str:
    """Which of `zpbal.sweep` and `zpbal.linalg` a fresh child loads that runs
    `zpbal.cli.main` on each argv in turn."""
    code = ("import json, sys\nfrom zpbal.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0\n"
            "print(sorted(m for m in ('zpbal.linalg', 'zpbal.sweep') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_only_a_process_that_sweeps_or_reduces_loads_the_span_engine(tmp_path):
    """`verify` loads neither `zpbal.sweep` nor `zpbal.linalg`; `example`
    loads no `sweep`, and `linalg` only where `matrix_over` asks its base for
    its unit through `Algebra.predicates`.  The `check` child, which loads
    both, shows that a child sees what a command imports."""
    from zpbal.cli import main

    files = {}
    for name, args in (("n4f2", ["Nm", "--m", "4", "--field", "F2"]),
                       ("m2q", ["Mn", "--n", "2", "--field", "Q"])):
        alg, certs = str(tmp_path / f"{name}.json"), str(tmp_path / f"{name}.certs.json")
        assert main(["example", *args, "--out", alg]) == 0
        assert main(["check", alg, "--out", certs]) == 0
        files[name] = (alg, certs)
    assert _engine_loaded(*(["verify", certs, alg] for alg, certs in files.values())) == "[]"
    alg, certs = files["n4f2"]
    assert _engine_loaded(["check", alg, "--out", str(tmp_path / "again.certs.json")]) == \
        "['zpbal.linalg', 'zpbal.sweep']"

    examples = {"Nm": ["--m", "4"], "Kn": [], "KxNm": [], "DN3": [], "zero": [],
                "Mn": ["--n", "2"], "MnNm": []}
    loaded = {name: _engine_loaded(["example", name, *args, "--out", str(tmp_path / f"{name}.json")])
              for name, args in examples.items()}
    assert loaded == {"Nm": "[]", "Kn": "[]", "KxNm": "[]", "DN3": "[]", "zero": "[]",
                      "Mn": "['zpbal.linalg']", "MnNm": "['zpbal.linalg']"}


def _unread_locals(tree):
    """(function, name) for each local name a function assigns and never reads;
    a nested function's reads count for the enclosing one, and names starting
    with `_` are exempt."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, read, shared = set(), set(), set()
        for node in ast.walk(func):
            if isinstance(node, ast.Name):
                (read if isinstance(node.ctx, ast.Load) else stored).add(node.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                shared.update(node.names)
        found += [(func.name, name) for name in sorted(stored - read - shared)
                  if not name.startswith("_")]
    return found


def test_every_assigned_local_is_read():
    unread = {path.name: _unread_locals(ast.parse(path.read_text(encoding="utf-8")))
              for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in unread.items() if found} == {}
