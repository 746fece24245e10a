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
    { "balanced": "YES" | "NO" | "UNKNOWN",      # the verdict the file backs
      "field": "F2" | "Q", "label": str, "seed": int,
      "convention": "row-major i*d+j",            # e_i⊗e_j sits at flat index i*d+j
      "generators": [ {"u": [scalars], "v": [scalars]} ... ],   # zero-product pairs
      "certificates": [ <certificate> ... ] }

    Each zero-product pair is stored once, in the order certificates first use
    it.  A certificate is an object with optional "meta", the fields of its
    kind, and a dense "target" (d*d scalars) when it has one:
      membership-decomposition: "terms": [ [generator index, lambda] ... ]
      separating-functional:    "kind": "separating-functional",
                                "functional": [scalars], "generators": [indices]
    A certificate without "kind" is a membership decomposition, so the
    writer names the kind of every certificate but a membership, and the
    reader also takes an explicit "membership-decomposition".  A certificate
    that holds a field of the other kind is malformed.  The reader also
    takes a term as the object {"generator": index, "lambda": scalar}, the
    form files had before the pair.

    The n-th membership of a file, separating certificates not counted, is
    about basis triple n = (n // d², n // d % d, n % d), its place
    (`tensorsquare.basis_triples`).  The writer leaves a membership's meta
    off when it names only that triple, so a zero defect is the line
    {"terms":[]}, and the reader gives a membership without "meta" the
    triple of its place.  Every other meta is written, an empty one as
    {}, so a membership whose meta names no triple reads back about its
    target alone.  A membership that names a triple still loads, and
    verifies false unless the triple is its place's; one past the d³-th
    does not load.  The balanced decider gives a triple's certificate its
    defect tensor as target only the first time it shows that defect, and a
    zero defect none; the verifier recomputes every triple's defect, so a
    stored target only shows the reader the claim.
    `tensorsquare.verify_file` also holds the file to its "balanced" claim:
    YES needs d³ memberships, and NO a verified separating certificate with
    claim "not-zero-product-balanced".

Algebra files may declare at most MAX_DIM basis vectors.  Scalars use the
textual syntax of the base field ("p/q" over the rationals,
decimal residues over prime fields), and the reader also takes an integer
for either.  A certificate file writes an integral rational as a JSON
integer and any other as its "p/q" string.  Output is deterministic: fixed
key order, no timestamps.

Certificate files are compact JSON with sorted keys and one certificate per
line, and `save_certificates` is their one writer.  It builds each line as
text straight from the `Certificate`, with no intermediate dict: a per-file
token table formats and encodes each distinct scalar once, so a dense target
of d*d scalars is a single join, and each line goes to the file as soon as it
is built.  `tests/oracles.py` keeps the dict form and the `sort_keys` encoder it
replaced, and the tests hold the writer to their bytes.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Callable, Dict, List, Tuple

from zpbal.algebra import Algebra
from zpbal.errors import MalformedCertificate, NotAssociative, NotIdempotent, ParseError
from zpbal.fields import Field, field_from_name, vec_is_zero
from zpbal.tensorsquare import (MEMBERSHIP, NO, NO_TERMS, SEPARATING, TENSOR_CONVENTION, UNKNOWN, YES,
                                Certificate, basis_triples)

if TYPE_CHECKING:
    from zpbal.linmaps import AlgMap

MAX_DIM = 64  # largest algebra dimension a file may declare


def algebra_to_dict(algebra: Algebra) -> Dict:
    f = algebra.field
    products = []
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            v = algebra.table[i][j]
            if not vec_is_zero(v):
                products.append({"i": i, "j": j, "coords": f.format_vector(v)})
    out = {
        "field": f.name,
        "dim": algebra.dim,
        "basis": list(algebra.names),
        "products": products,
    }
    if algebra.registered_idempotents:
        out["idempotents"] = [f.format_vector(e.coords) for e in algebra.registered_idempotents]
    return out


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _scalars(f: Field, coords, dim: int, what: str) -> List:
    if not isinstance(coords, list) or len(coords) != dim:
        raise ParseError(f"{what} must be a list of {dim} scalars, got {coords!r}")
    return f.parse_vector(coords)


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
    if dim > MAX_DIM:  # before the d^3 table and the d^4 associativity check
        raise ParseError(f"dim {dim} exceeds the limit {MAX_DIM}")
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


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    except (OSError, ValueError, RecursionError) as exc:  # unreadable, not UTF-8, too deep
        raise ParseError(f"cannot read {path}: {exc}") from exc


def load_algebra(path: str) -> Algebra:
    return algebra_from_dict(_read_json(path))


def save_algebra(algebra: Algebra, path: str):
    with open(path, "w") as fh:
        json.dump(algebra_to_dict(algebra), fh, indent=1, sort_keys=True)
        fh.write("\n")


def map_from_dict(data: Dict, base_dir: str = ".") -> AlgMap:
    from zpbal.linalg import Matrix  # only `factorize` reads maps
    from zpbal.linmaps import AlgMap

    def resolve(ref) -> Algebra:
        if isinstance(ref, str):
            return load_algebra(os.path.join(base_dir, ref))
        if isinstance(ref, dict):
            return algebra_from_dict(ref)
        raise ParseError(f"algebra reference must be a path or object, got {type(ref).__name__}")

    if not isinstance(data, dict):
        raise ParseError(f"map must be a JSON object, got {type(data).__name__}")
    try:
        source = resolve(data["source"])
        target = resolve(data["target"])
        matrix = data["matrix"]
    except KeyError as exc:
        raise ParseError(f"map object missing field: {exc}") from exc
    f = source.field
    if target.field != f:
        raise ParseError("source and target fields differ")
    if not isinstance(matrix, list) or len(matrix) != target.dim:
        raise ParseError(
            f"matrix must be {target.dim} rows x {source.dim} cols (columns are basis images)"
        )
    rows = [_scalars(f, r, source.dim, f"matrix row {n}") for n, r in enumerate(matrix)]
    return AlgMap(source, target, Matrix(f, rows, cols=source.dim))


def load_map(path: str) -> AlgMap:
    return map_from_dict(_read_json(path), base_dir=os.path.dirname(path) or ".")


class _Tokens(dict):
    """Scalar -> its JSON text; each distinct value is formatted and encoded
    once.  A residue and an integral rational are JSON integers, any other
    rational its "p/q" string."""

    def __init__(self, fld: Field, encode: Callable[[object], str]):
        super().__init__()
        self.format, self.encode = fld.format, encode

    def __missing__(self, a) -> str:
        text = str(self.format(a))
        token = self[a] = self.encode(text) if "/" in text else text
        return token

    def vector(self, v) -> str:
        return ",".join(map(self.__getitem__, v))


# the line of a membership of a zero defect at its place, with the "," and
# line break before it: the terms `NO_TERMS`, no target and no meta
_ZERO_DEFECT = ',\n{"terms":[]}'


def _certificate_line(cert: Certificate, meta: Dict, tokens: _Tokens,
                      index: Callable[[tuple, tuple], int]) -> str:
    """One certificate with the meta `meta`, unless it is None, as a JSON
    object with sorted keys, and no "kind" when it is a membership; a
    zero-product pair becomes its index in the file's generator table, and a
    term the pair [index, lambda]."""
    kind, target = cert.kind, cert.target
    fields = []
    if kind == SEPARATING:
        fields += ['"functional":[' + tokens.vector(cert.functional) + "]",
                   '"generators":[' + ",".join([str(index(u, v)) for u, v in cert.generators]) + "]"]
    if kind != MEMBERSHIP:
        fields.append('"kind":' + tokens.encode(kind))
    if meta is not None:
        fields.append('"meta":' + tokens.encode(meta))
    if target is not None:
        fields.append('"target":[' + tokens.vector(target) + "]")
    if kind == MEMBERSHIP:
        fields.append('"terms":[' + ",".join(["[%d,%s]" % (index(u, v), tokens[lam])
                                               for lam, u, v in cert.terms]) + "]")
    return "{" + ",".join(fields) + "}"


def save_certificates(certs: List[Certificate], fld: Field, seed: int, path: str,
                      label: str = "", *, balanced: str, dim: int):
    """Compact JSON with sorted keys, one certificate per line, each line written
    as it is built, for an algebra of dimension `dim`.  Scalars come from a
    per-file token table, so a dense target is one join; zero-product pairs are
    indexed in the order certificates first use them; a membership whose meta
    names only the triple of its place has no meta, and any other membership
    meta is written, an empty one too, since the reader gives a membership
    without meta its place's triple.  A separating certificate's meta is
    written when it is not empty."""
    encode = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode
    tokens = _Tokens(fld, encode)
    table: Dict[Tuple[tuple, tuple], int] = {}  # zero-product pair -> table position

    def index(u, v) -> int:
        return table.setdefault((tuple(u), tuple(v)), len(table))

    places = basis_triples(dim)
    with open(path, "w") as fh:
        fh.write('{"balanced":' + encode(balanced) + ',"certificates":[')
        for n, cert in enumerate(certs):
            meta = cert.meta
            if cert.kind == MEMBERSHIP:
                place = next(places, None)
                t = meta.get("triple")
                # the place's own triple, in ints: True == 1 and 1.0 == 1
                if t == place and place and len(meta) == 1 and type(t[0]) is type(t[1]) is type(t[2]) is int:
                    if cert.terms is NO_TERMS and cert.target is None:
                        fh.write(_ZERO_DEFECT if n else _ZERO_DEFECT[1:])
                        continue
                    meta = None
            elif not meta:
                meta = None
            fh.write(("," if n else "") + "\n" + _certificate_line(cert, meta, tokens, index))
        generators = ",".join(['{"u":[' + tokens.vector(u) + '],"v":[' + tokens.vector(v) + "]}"
                               for u, v in table])
        fh.write('\n],"convention":' + encode(TENSOR_CONVENTION) + ',"field":' + encode(fld.name)
                 + ',"generators":[' + generators + '],"label":' + encode(label)
                 + ',"seed":' + encode(seed) + "}\n")


def certificates_from_dict(data: Dict, fld: Field, dim: int) -> Tuple[str, List[Certificate]]:
    """The balancedness claim and the certificates of a certificate file for an
    algebra of dimension `dim`; any malformed field raises ParseError (file
    level) or MalformedCertificate (one certificate)."""
    if not isinstance(data, dict):
        raise ParseError(f"certificate file must hold an object, got {type(data).__name__}")
    try:
        field_name, label, seed = data["field"], data["label"], data["seed"]
        convention, table, entries = data["convention"], data["generators"], data["certificates"]
        balanced = data["balanced"]
    except KeyError as exc:
        raise ParseError(f"certificate file missing field: {exc}") from exc
    if balanced not in (YES, NO, UNKNOWN):
        raise ParseError(f"balanced must be \"YES\", \"NO\" or \"UNKNOWN\", got {balanced!r}")
    if field_name != fld.name:
        raise ParseError(f"certificates are over {field_name!r}, the algebra over {fld.name}")
    if not isinstance(label, str) or not _is_int(seed):
        raise ParseError(f"label must be a string and seed an integer, got {label!r}, {seed!r}")
    if convention != TENSOR_CONVENTION:
        raise ParseError(f"unknown tensor convention {convention!r}")
    if not isinstance(table, list) or not isinstance(entries, list):
        raise ParseError("generators and certificates must be lists")
    generators = []
    for g in table:
        if not (isinstance(g, dict) and set(g) == {"u", "v"} and isinstance(g["u"], list)):
            raise MalformedCertificate(f"generator must be {{u: [scalars], v: [scalars]}}, got {g!r}")
        generators.append((tuple(_scalars(fld, g["u"], dim, "generator u")),
                           tuple(_scalars(fld, g["v"], dim, "generator v"))))
    parsed: Dict[tuple, tuple] = {}  # raw term -> its parsed tuple, shared by the certificates
    places = basis_triples(dim)
    place = next(places, None)  # the triple of the next membership
    certs = []
    for entry in entries:
        cert = Certificate.from_dict(entry, fld, generators, parsed, place)
        if cert.kind == MEMBERSHIP:
            if place is None:
                raise MalformedCertificate(f"certificate {len(certs)} is a membership past the last of "
                                           f"the {dim ** 3} basis triples")
            place = next(places, None)
        certs.append(cert)
    return balanced, certs


def load_certificates(path: str, fld: Field, dim: int) -> Tuple[str, List[Certificate]]:
    return certificates_from_dict(_read_json(path), fld, dim)
