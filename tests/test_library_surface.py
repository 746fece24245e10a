"""The library holds only what a command runs.

Every public top-level name of `src/zpbal` must be reachable from
`zpbal.cli` through the names the modules refer to; constructions that only
tests use live under `tests/` (`references`, `multiplier`, `oracles`).
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "zpbal"


def _modules():
    """Per module: top-level definitions with the names they refer to, the
    module's zpbal imports, and the names its other top-level statements use."""
    defs, imports, loose = {}, {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        mod = path.stem
        imports[mod], loose[mod] = {}, []
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("zpbal"):
                for a in node.names:  # "from zpbal import corpus" binds a module
                    where = ("module", a.name) if node.module == "zpbal" else (node.module[6:], a.name)
                    imports[mod][a.asname or a.name] = where
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[(mod, node.name)] = node
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        defs[(mod, target.id)] = node.value
            elif not isinstance(node, ast.Import):
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
