"""JSON formats for algebras, linear maps, and certificate files.

Algebra files:
    { "field": "F2" | "Q",
      "dim": d,
      "basis": [names],
      "products": [ {"i": i, "j": j, "coords": [scalars]} ... ],   # nonzero only
      "idempotents": [ [scalars] ... ] }                            # optional registry

Map files:
    { "source": <algebra object or path>,
      "target": <algebra object or path>,
      "matrix": [[scalars]] }          # target.dim rows; columns are basis images

Certificate files:
    { "seed": int, "algebra": name, "certificates": [ <certificate> ... ] }

Scalars use the textual syntax of the base field ("p/q" over the rationals,
decimal residues over prime fields).  Output is deterministic: fixed key
order, no timestamps.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

from zpbal.algebra import Algebra
from zpbal.errors import NotAssociative, NotIdempotent, ParseError
from zpbal.fields import Field, field_from_name
from zpbal.linalg import Matrix, vec_is_zero
from zpbal.linmaps import AlgMap
from zpbal.tensorsquare import Certificate


def algebra_to_dict(algebra: Algebra) -> Dict:
    f = algebra.field
    products = []
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            v = algebra.table[i][j]
            if not vec_is_zero(v):
                products.append({"i": i, "j": j, "coords": [f.format(a) for a in v]})
    out = {
        "field": f.name,
        "dim": algebra.dim,
        "basis": list(algebra.names),
        "products": products,
    }
    if algebra.registered_idempotents:
        out["idempotents"] = [
            [f.format(a) for a in e.coords] for e in algebra.registered_idempotents
        ]
    return out


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _scalars(f: Field, coords, dim: int, what: str) -> List:
    if not isinstance(coords, list) or len(coords) != dim:
        raise ParseError(f"{what} must be a list of {dim} scalars, got {coords!r}")
    return [f.parse(c) for c in coords]


def algebra_from_dict(data: Dict) -> Algebra:
    """The algebra a JSON object describes; any malformed input raises ParseError."""
    if not isinstance(data, dict):
        raise ParseError(f"algebra must be a JSON object, got {type(data).__name__}")
    try:
        field_name, dim, names, products = data["field"], data["dim"], data["basis"], data["products"]
    except KeyError as exc:
        raise ParseError(f"algebra object missing field: {exc}") from exc
    if not isinstance(field_name, str):
        raise ParseError(f"field must be a name such as \"F2\" or \"Q\", got {field_name!r}")
    f = field_from_name(field_name)
    if not _is_int(dim) or dim < 0:
        raise ParseError("dim must be a nonnegative integer")
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ParseError("basis must be a list of names")
    if len(names) != dim:
        raise ParseError(f"basis has {len(names)} names for dim {dim}")
    if not isinstance(products, list):
        raise ParseError(f"products must be a list, got {type(products).__name__}")
    idempotents = data.get("idempotents", [])
    if not isinstance(idempotents, list):
        raise ParseError(f"idempotents must be a list, got {type(idempotents).__name__}")
    zero = [f.zero] * dim
    table = [[list(zero) for _ in range(dim)] for _ in range(dim)]
    for entry in products:
        try:
            i, j, coords = entry["i"], entry["j"], entry["coords"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"product entry malformed: {entry!r}") from exc
        if not (_is_int(i) and _is_int(j)):
            raise ParseError(f"product indices must be integers: {entry!r}")
        if not (0 <= i < dim and 0 <= j < dim):
            raise ParseError(f"product entry out of range: {entry!r}")
        table[i][j] = _scalars(f, coords, dim, f"coords of product ({i}, {j})")
    try:
        alg = Algebra(f, names, table)
        for coords in idempotents:
            alg.register_idempotent(alg.element(_scalars(f, coords, dim, "registered idempotent")))
    except (NotAssociative, NotIdempotent) as exc:
        raise ParseError(str(exc)) from exc
    return alg


def load_algebra(path: str) -> Algebra:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    return algebra_from_dict(data)


def save_algebra(algebra: Algebra, path: str):
    with open(path, "w") as fh:
        json.dump(algebra_to_dict(algebra), fh, indent=1, sort_keys=True)
        fh.write("\n")


def map_from_dict(data: Dict, base_dir: str = ".") -> AlgMap:
    def resolve(ref) -> Algebra:
        if isinstance(ref, str):
            return load_algebra(os.path.join(base_dir, ref))
        if isinstance(ref, dict):
            return algebra_from_dict(ref)
        raise ParseError(f"algebra reference must be a path or object, got {type(ref).__name__}")

    try:
        source = resolve(data["source"])
        target = resolve(data["target"])
        matrix = data["matrix"]
    except KeyError as exc:
        raise ParseError(f"map object missing field: {exc}") from exc
    f = source.field
    if target.field != f:
        raise ParseError("source and target fields differ")
    if len(matrix) != target.dim or any(len(r) != source.dim for r in matrix):
        raise ParseError(
            f"matrix must be {target.dim} rows x {source.dim} cols (columns are basis images)"
        )
    rows = [[f.parse(c) for c in r] for r in matrix]
    return AlgMap(source, target, Matrix(f, rows, cols=source.dim))


def load_map(path: str) -> AlgMap:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    return map_from_dict(data, base_dir=os.path.dirname(path) or ".")


def certificates_to_dict(certs: List[Certificate], fld: Field, seed: int,
                         label: str = "") -> Dict:
    return {
        "field": fld.name,
        "label": label,
        "seed": seed,
        "certificates": [c.to_dict(fld) for c in certs],
    }


def save_certificates(certs: List[Certificate], fld: Field, seed: int, path: str,
                      label: str = ""):
    with open(path, "w") as fh:
        json.dump(certificates_to_dict(certs, fld, seed, label), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_certificates(path: str, fld: Field) -> List[Certificate]:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    if isinstance(data, dict) and "certificates" in data:
        return [Certificate.from_dict(c, fld) for c in data["certificates"]]
    if isinstance(data, dict):
        return [Certificate.from_dict(data, fld)]
    raise ParseError("certificate file must hold an object")
