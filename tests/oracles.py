"""Independent brute-force oracles used to freeze expected test values.

Deliberately reimplemented from scratch: rank via plain forward elimination
(no reduced echelon machinery), spans via all-pairs enumeration.  These must
not share code paths with the package so that agreement is evidence.  The
reference sweeps, the two-step balanced decider, the certificate encoding and
the certificate reader at the end are the exception, explained there: they
are the code the package replaced, kept to pin down its results.
"""

import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import List, Union

from multiplier import MultiplierAlgebra
from references import DenseSpanBuilder, DenseTensorSquare, dense_kernel, dot, operator_matrix
from zpbal.algebra import Algebra, Element
from zpbal.config import DEFAULT_CONFIG, SweepConfig
from zpbal.errors import BudgetExceeded, MalformedCertificate, ParseError, SoundnessAlarm
from zpbal.fields import vec_is_zero
from zpbal.linalg import Matrix, SpanBuilder
from zpbal.squarezero import FactorizableWitness
from zpbal.tensorsquare import (
    EXACT,
    MEMBERSHIP,
    NO,
    SEPARATING,
    TENSOR_CONVENTION,
    UNKNOWN,
    YES,
    Certificate,
    Verdict,
)


def rank_mod_p(rows, p):
    rows = [[a % p for a in r] for r in rows if any(a % p for a in r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col] % p:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for r in range(rank + 1, len(rows)):
            factor = (rows[r][col] * inv) % p
            if factor:
                rows[r] = [(a - factor * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def rank_q(rows):
    rows = [[Fraction(a) for a in r] for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                factor = rows[r][col] / rows[rank][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def rank_over(field, rows):
    if field.characteristic == 0:
        return rank_q(rows)
    return rank_mod_p(rows, field.characteristic)


def all_elements(algebra):
    """Every coordinate tuple of a finite-field algebra (independent sweep)."""
    p = algebra.field.characteristic
    return product(range(p), repeat=algebra.dim)


def mult(algebra, u, v):
    """Product of coordinate tuples straight from the dense structure
    constants, reduced mod p over F_p and exact over Q."""
    p = algebra.field.characteristic
    d = algebra.dim
    out = [0] * d
    for i in range(d):
        if not u[i]:
            continue
        for j in range(d):
            if not v[j]:
                continue
            for k, c in enumerate(algebra.table[i][j]):
                out[k] += u[i] * v[j] * c
    return tuple(x % p for x in out) if p else tuple(out)


def tensor_vec(d, u, v, p):
    out = [0] * (d * d)
    for i in range(d):
        for j in range(d):
            out[i * d + j] = (u[i] * v[j]) % p
    return out


def brute_zero_product_tensors(algebra):
    """All tensors u⊗v over zero-product pairs, by full pair enumeration."""
    p = algebra.field.characteristic
    d = algebra.dim
    tensors = []
    for u in all_elements(algebra):
        for v in all_elements(algebra):
            if all(x == 0 for x in mult(algebra, u, v)):
                t = tensor_vec(d, u, v, p)
                if any(t):
                    tensors.append(t)
    return tensors


def brute_span_dim_zero_products(algebra):
    return rank_mod_p(brute_zero_product_tensors(algebra), algebra.field.characteristic)


def brute_mul_kernel_dim(algebra):
    """Nullity of the multiplication map on the tensor square."""
    p = algebra.field.characteristic
    d = algebra.dim
    rows = []
    for k in range(d):
        row = []
        for i in range(d):
            for j in range(d):
                row.append(algebra.table[i][j][k] % p)
        rows.append(row)
    return d * d - rank_mod_p(rows, p)


def in_span_mod_p(vectors, target, p):
    base = rank_mod_p(vectors, p) if vectors else 0
    return rank_mod_p(vectors + [target], p) == base


def brute_factorizable_elements(algebra):
    """All x = yz with zy = 0, by full pair enumeration."""
    found = set()
    for y in all_elements(algebra):
        for z in all_elements(algebra):
            if all(a == 0 for a in mult(algebra, z, y)):
                found.add(mult(algebra, y, z))
    return sorted(found)


def random_change_of_basis(alg, rng):
    """The same algebra presented in a random basis (registered idempotents carried over)."""
    f = alg.field
    d = alg.dim
    while True:
        p = Matrix(f, [[f.of_int(rng.randint(-2, 2)) for _ in range(d)] for _ in range(d)])
        inv = p.inverse()
        if inv is not None:
            break
    cols = [p.column(j) for j in range(d)]
    table = [[inv.apply(alg.multiply_coords(cols[i], cols[j])) for j in range(d)] for i in range(d)]
    out = Algebra(f, [f"b{i + 1}" for i in range(d)], table)
    for e in alg.registered_idempotents:
        out.register_idempotent(out.element(inv.apply(list(e.coords))))
    return out


# ---------------------------------------------------------------------------
# Reference sweeps: the per-element loops the annihilator sweep replaced.
#
# Unlike the oracles above these reuse the package's tensor square, and they
# follow the engine's routes (exhaustive within the cap, the seeded lower
# bound beyond it), so that the span of the block sweep can be required to
# equal theirs row for row; their generators come one element at a time and
# differ from the engine's.  They build each operator from products of basis
# vectors and reduce rows with the dense reference builder, not with the
# package's operator rows and sparse reducer.
# ---------------------------------------------------------------------------


def _annihilator_tensors(report_builder, ts, u, side, generators):
    """Insert u⊗w (right annihilators w of u) or w⊗u (left) into the span."""
    alg = ts.algebra
    if all(a == 0 for a in u):
        return 0
    added = 0
    for w in dense_kernel(operator_matrix(alg, u, side == "right")):
        t = ts.tensor_coords(u, w) if side == "right" else ts.tensor_coords(w, u)
        pair = (tuple(u), tuple(w)) if side == "right" else (tuple(w), tuple(u))
        if report_builder.add(t):
            assert vec_is_zero(alg.multiply_coords(pair[0], pair[1]))
            generators.append(pair)
            added += 1
    return added


def reference_zero_product_span(algebra, config):
    """(generators, tracking builder) of the full per-element sweep."""
    ts = DenseTensorSquare(algebra)
    f = algebra.field
    d = algebra.dim
    ker_dim = ts.kernel_dim()
    builder = DenseSpanBuilder(f, ts.ambient, track_expressions=True)
    generators = []

    size = algebra.n_elements()
    if size is not None and size <= config.enumeration_cap:
        for u in algebra.coord_tuples():
            if builder.dim >= ker_dim:
                break
            _annihilator_tensors(builder, ts, list(u), "right", generators)
    else:
        # (i) basis pairs with zero product
        for i in range(d):
            if builder.dim >= ker_dim:
                break
            for j in range(d):
                if vec_is_zero(algebra.table[i][j]):
                    ei = tuple(f.one if t == i else f.zero for t in range(d))
                    ej = tuple(f.one if t == j else f.zero for t in range(d))
                    if builder.add(ts.tensor_coords(ei, ej)):
                        generators.append((ei, ej))
        # (ii) annihilator sweeps over structured elements
        sweep = []
        for i in range(d):
            sweep.append([f.one if t == i else f.zero for t in range(d)])
        for i in range(d):
            for j in range(i + 1, d):
                v = [f.zero] * d
                v[i] = f.one
                v[j] = f.one
                sweep.append(list(v))
                if f.characteristic != 2:
                    w = list(v)
                    w[j] = f.neg(f.one)
                    sweep.append(w)
        idems = [list(e.coords) for e in algebra.registered_idempotents]
        sweep.extend(idems)
        for a in range(len(idems)):
            for b in range(a + 1, len(idems)):
                sweep.append([f.add(x, y) for x, y in zip(idems[a], idems[b])])
                sweep.append([f.sub(x, y) for x, y in zip(idems[a], idems[b])])
        for u in sweep:
            if builder.dim >= ker_dim:
                break
            _annihilator_tensors(builder, ts, u, "right", generators)
            _annihilator_tensors(builder, ts, u, "left", generators)
        # (iii) idempotent transfer tensors: ae⊗(c-ec) and (ae-a)⊗ec
        for e in algebra.registered_idempotents:
            if builder.dim >= ker_dim:
                break
            for i in range(d):
                a = algebra.basis_element(i)
                ae = a * e
                for k in range(d):
                    c = algebra.basis_element(k)
                    ec = e * c
                    for u, v in ((ae, c - ec), (ae - a, ec)):
                        t = ts.tensor_coords(u.coords, v.coords)
                        if builder.add(t):
                            assert vec_is_zero(algebra.multiply_coords(u.coords, v.coords))
                            generators.append((u.coords, v.coords))
        # (iv) seeded random elements until the span stalls
        rng = random.Random(config.seed)
        stall = 0
        while stall < config.stall_rounds and builder.dim < ker_dim:
            if f.characteristic == 0:
                u = [f.of_int(rng.randint(-3, 3)) for _ in range(d)]
            else:
                u = [rng.randrange(f.characteristic) for _ in range(d)]
            added = _annihilator_tensors(builder, ts, u, "right", generators)
            added += _annihilator_tensors(builder, ts, u, "left", generators)
            stall = 0 if added else stall + 1
    return generators, builder


def _factor_sweep(algebra, builder, witnesses, y_coords):
    """For fixed y adjoin {yz : zy = 0} = image under y of y's left annihilator."""
    if all(a == 0 for a in y_coords):
        return 0
    added = 0
    for z in dense_kernel(operator_matrix(algebra, y_coords, False)):
        x = algebra.multiply_coords(y_coords, z)
        if builder.add(x):
            w = FactorizableWitness(
                x=algebra.element(x), y=algebra.element(y_coords), z=algebra.element(z)
            )
            if not w.verify():
                raise SoundnessAlarm("factorizable witness failed re-verification")
            witnesses.append(w)
            added += 1
    return added


def reference_factorizable_span(algebra, config):
    """(witnesses, builder) of the full per-element factorizable sweep."""
    f = algebra.field
    d = algebra.dim
    builder = DenseSpanBuilder(f, d)
    witnesses = []
    size = algebra.n_elements()
    if size is not None and size <= config.enumeration_cap:
        for y in algebra.coord_tuples():
            if builder.dim >= d:
                break
            _factor_sweep(algebra, builder, witnesses, list(y))
    else:
        sweep = []
        for i in range(d):
            sweep.append([f.one if t == i else f.zero for t in range(d)])
        for i in range(d):
            for j in range(i + 1, d):
                v = [f.zero] * d
                v[i] = f.one
                v[j] = f.one
                sweep.append(list(v))
                if f.characteristic != 2:
                    w = list(v)
                    w[j] = f.neg(f.one)
                    sweep.append(w)
        sweep.extend([list(e.coords) for e in algebra.registered_idempotents])
        for y in sweep:
            _factor_sweep(algebra, builder, witnesses, y)
        rng = random.Random(config.seed)
        stall = 0
        while stall < config.stall_rounds and builder.dim < d:
            if f.characteristic == 0:
                y = [f.of_int(rng.randint(-3, 3)) for _ in range(d)]
            else:
                y = [rng.randrange(f.characteristic) for _ in range(d)]
            stall = 0 if _factor_sweep(algebra, builder, witnesses, y) else stall + 1
    return witnesses, builder


# ---------------------------------------------------------------------------
# The balanced decider as it was before membership and decomposition became
# one reduction: a membership test first, then a decomposition whose
# coefficients are read off the RREF pivots, over every row of the span.  The
# span is the report's generators reduced again by the dense reference
# builder, so neither step runs the package's reducer.
# ---------------------------------------------------------------------------


def reference_span_builder(report):
    """The report's generator tensors, in order, in a tracking dense builder."""
    ts = DenseTensorSquare(report.algebra)
    builder = DenseSpanBuilder(report.algebra.field, ts.ambient, track_expressions=True)
    for u, v in report.generators:
        if not builder.add(ts.tensor_coords(u, v)):
            raise AssertionError(f"generator {(u, v)} does not enlarge the span")
    return builder


def reference_membership_terms(report, builder, target):
    """target as Σ λ·(u⊗v) over the report's generators, or None when outside.

    `builder` is `reference_span_builder(report)`.  Its rows are in reduced
    echelon form, so the multiple of each row in a member is the member's
    entry at that row's pivot.
    """
    if not builder.contains(target):
        return None
    f = report.algebra.field
    combo = {}
    for rexpr, p in zip(builder.exprs, builder.pivots):
        c = target[p]
        if c == 0:
            continue
        for g, val in rexpr.items():
            combo[g] = f.add(combo.get(g, f.zero), f.mul(c, val))
    return [(lam, *report.generators[g]) for g, lam in sorted(combo.items()) if lam != 0]


def reference_balanced(algebra, report):
    """The two-step decider: a membership test, then the decomposition.  Every
    nonzero defect is decomposed again; only its first certificate keeps the
    target, and a zero defect has none."""
    ts = DenseTensorSquare(algebra)
    d = algebra.dim
    builder = reference_span_builder(report)
    certs = []
    shown = set()
    for i, j, k in product(range(d), repeat=3):
        t = ts.defect_tensor(i, j, k)
        if vec_is_zero(t):
            certs.append(Certificate(kind=MEMBERSHIP, target=None, terms=[], meta={"triple": [i, j, k]}))
            continue
        if builder.contains(t):
            terms = reference_membership_terms(report, builder, t)
            if terms is None:
                raise SoundnessAlarm("membership reported but no decomposition found")
            target = None if tuple(t) in shown else t
            shown.add(tuple(t))
            certs.append(Certificate(kind=MEMBERSHIP, target=target, terms=terms, meta={"triple": [i, j, k]}))
            continue
        if report.status == EXACT:
            phi = next(phi for phi in report.subspace.complement_functionals() if dot(algebra.field, phi, t))
            cert = Certificate(kind=SEPARATING, target=t, functional=phi, generators=list(report.generators),
                               meta={"claim": "not-zero-product-balanced", "triple": [i, j, k],
                                     "span_status": report.status, "seed": report.config.seed})
            return Verdict(NO, [cert])
        f = algebra.field
        cause = (f"the algebra has {f.characteristic}^{d} elements, more than --cap "
                 f"{report.config.enumeration_cap}; a larger --cap sweeps it exhaustively"
                 if f.is_finite() else "no certificate kind refutes over Q")
        return Verdict(UNKNOWN, [], f"membership failed against a lower-bound span: {cause}")
    return Verdict(YES, certs)



# ---------------------------------------------------------------------------
# Reference certificate encoding: the dict form and the per-line `sort_keys`
# encode that `serialize.save_certificates` replaced with a token table.  The
# writer must produce exactly these bytes.
# ---------------------------------------------------------------------------


def certificate_to_dict(cert: Certificate, fld, generator_index) -> dict:
    """JSON form of one certificate; zero-product pairs become indices into the file's generator table."""
    out = {"kind": cert.kind}
    if cert.target is not None:
        out["target"] = fld.format_vector(cert.target)
    if cert.kind == MEMBERSHIP:
        lams = fld.format_vector([lam for lam, _, _ in cert.terms])
        out["terms"] = [{"generator": generator_index((tuple(u), tuple(v))), "lambda": lam}
                        for lam, (_, u, v) in zip(lams, cert.terms)]
    if cert.kind == SEPARATING:
        out["functional"] = fld.format_vector(cert.functional)
        out["generators"] = [generator_index((tuple(u), tuple(v))) for u, v in cert.generators]
    if cert.meta:
        out["meta"] = cert.meta
    return out


def certificates_to_dict(certs, fld, seed: int, label: str = "", *, balanced: str) -> dict:
    """The whole certificate file as one JSON object."""
    index = {}  # zero-product pair -> table position, first use first
    entries = [certificate_to_dict(c, fld, lambda pair: index.setdefault(pair, len(index))) for c in certs]
    fmt = fld.format_vector
    return {
        "balanced": balanced,
        "field": fld.name,
        "label": label,
        "seed": seed,
        "convention": TENSOR_CONVENTION,
        "generators": [{"u": fmt(u), "v": fmt(v)} for u, v in index],
        "certificates": entries,
    }


def reference_certificate_text(certs, fld, seed: int, label: str = "", *, balanced: str) -> str:
    """The certificate file's text: compact JSON with sorted keys, one certificate per line."""
    encode = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode
    data = certificates_to_dict(certs, fld, seed, label, balanced=balanced)
    claim, entries = data.pop("balanced"), data.pop("certificates")  # the first keys in sorted order
    lines = ",".join("\n" + encode(entry) for entry in entries)
    return '{"balanced":' + encode(claim) + ',"certificates":[' + lines + "\n]," + encode(data)[1:] + "\n"

# ---------------------------------------------------------------------------
# Reference reader: the loader and the verifier that check every certificate
# on its own, before `verify_file` shared one memo of pair products and
# term-list sums across a file and the loader shared each parsed term.  The
# reader must print exactly these lines and raise exactly these errors.  It
# multiplies with `mult`, the dense structure constants.
# ---------------------------------------------------------------------------


def _reference_certificate(data, fld, generators) -> Certificate:
    if not isinstance(data, dict):
        raise MalformedCertificate(f"certificate must be an object, got {type(data).__name__}")
    kind = data.get("kind")
    if not isinstance(kind, str):
        raise MalformedCertificate(f"certificate kind must be a string, got {kind!r}")
    meta = data.get("meta", {})
    if not isinstance(meta, dict):
        raise MalformedCertificate(f"meta must be an object, got {meta!r}")

    def listed(value, what):
        if not isinstance(value, list):
            raise MalformedCertificate(f"{what} must be a list, got {type(value).__name__}")
        return value

    def generator(index):
        if type(index) is not int or not 0 <= index < len(generators):
            raise MalformedCertificate(f"generator index {index!r} is not below {len(generators)}")
        return generators[index]

    def term(t):
        if not isinstance(t, dict) or set(t) != {"generator", "lambda"}:
            raise MalformedCertificate(f"term must be {{generator, lambda}}, got {t!r}")
        return (fld.parse(t["lambda"]), *generator(t["generator"]))

    return Certificate(
        kind=kind,
        target=fld.parse_vector(listed(data["target"], "target")) if "target" in data else None,
        terms=[term(t) for t in listed(data.get("terms", []), "terms")],
        functional=fld.parse_vector(listed(data["functional"], "functional")) if "functional" in data else None,
        generators=[generator(g) for g in listed(data.get("generators", []), "generators")],
        meta=meta,
    )


def reference_certificates_from_dict(data, fld, dim):
    """`serialize.certificates_from_dict`, each certificate parsed on its own."""
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
    if not isinstance(label, str) or not (isinstance(seed, int) and not isinstance(seed, bool)):
        raise ParseError(f"label must be a string and seed an integer, got {label!r}, {seed!r}")
    if convention != TENSOR_CONVENTION:
        raise ParseError(f"unknown tensor convention {convention!r}")
    if not isinstance(table, list) or not isinstance(entries, list):
        raise ParseError("generators and certificates must be lists")
    generators = []
    for g in table:
        if not (isinstance(g, dict) and set(g) == {"u", "v"} and isinstance(g["u"], list)):
            raise MalformedCertificate(f"generator must be {{u: [scalars], v: [scalars]}}, got {g!r}")
        pair = []
        for what, coords in (("generator u", g["u"]), ("generator v", g["v"])):
            if not isinstance(coords, list) or len(coords) != dim:
                raise ParseError(f"{what} must be a list of {dim} scalars, got {coords!r}")
            pair.append(tuple(fld.parse_vector(coords)))
        generators.append(tuple(pair))
    return balanced, [_reference_certificate(c, fld, generators) for c in entries]


def _dense_tensor(f, d, u, v):
    return [f.mul(u[i], v[j]) for i in range(d) for j in range(d)]


def _dense_defect(algebra, i, j, k):
    """(e_i e_j)⊗e_k - e_i⊗(e_j e_k), dense."""
    f = algebra.field
    d = algebra.dim
    out = [f.zero] * (d * d)
    for s, c in enumerate(algebra.table[i][j]):
        out[s * d + k] = f.add(out[s * d + k], c)
    for t, c in enumerate(algebra.table[j][k]):
        out[i * d + t] = f.sub(out[i * d + t], c)
    return out


def _reference_triple(meta, d):
    if "triple" not in meta:
        return None
    triple = meta["triple"]
    if not (isinstance(triple, (list, tuple)) and len(triple) == 3
            and all(type(i) is int and 0 <= i < d for i in triple)):
        raise MalformedCertificate(f"triple {triple!r} is not three basis indices below {d}")
    return tuple(triple)


def reference_verify_certificate(algebra, cert) -> bool:
    """`tensorsquare.verify_certificate` on one certificate, dense throughout."""
    f = algebra.field
    d = algebra.dim
    ambient = d * d
    target = cert.target
    if target is not None and len(target) != ambient:
        raise MalformedCertificate("target has wrong length")
    triple = _reference_triple(cert.meta, d)
    if triple is not None:
        claimed = _dense_defect(algebra, *triple)
        if target is not None and list(target) != claimed:
            return False
    elif target is None:
        raise MalformedCertificate("certificate has neither a target nor a triple")
    else:
        claimed = list(target)
    if cert.kind == MEMBERSHIP:
        acc = [f.zero] * ambient
        for lam, u, v in cert.terms:
            if len(u) != d or len(v) != d:
                raise MalformedCertificate("term vector has wrong length")
            if not vec_is_zero(mult(algebra, u, v)):
                return False
            acc = [f.add(a, f.mul(lam, b)) for a, b in zip(acc, _dense_tensor(f, d, u, v))]
        return acc == claimed
    if cert.kind == SEPARATING:
        if cert.functional is None or len(cert.functional) != ambient:
            raise MalformedCertificate("separating certificate lacks a functional")
        claim = cert.meta.get("claim")
        image = [f.zero] * d  # μ(claimed)
        for ij, a in enumerate(claimed):
            for k, c in enumerate(algebra.table[ij // d][ij % d]):
                image[k] = f.add(image[k], f.mul(a, c))
        if not (claim == "not-zero-product-balanced" and triple is not None
                or claim == "not-zero-product-determined" and vec_is_zero(image)):
            return False
        if dot(f, cert.functional, claimed) == 0:
            return False
        for u, v in cert.generators:
            if len(u) != d or len(v) != d:
                raise MalformedCertificate("generator vector has wrong length")
            if not vec_is_zero(mult(algebra, u, v)):
                return False
            if dot(f, cert.functional, _dense_tensor(f, d, u, v)) != 0:
                return False
        return True
    raise MalformedCertificate(f"unknown certificate kind {cert.kind!r}")


def reference_verify_file(algebra, balanced, certs):
    """The lines of `tensorsquare.verify_file`, each certificate verified on its own."""
    all_ok = True
    refuted = False
    for idx, cert in enumerate(certs):
        ok = reference_verify_certificate(algebra, cert)
        all_ok = all_ok and ok
        refuted = refuted or (ok and cert.kind == SEPARATING
                              and cert.meta.get("claim") == "not-zero-product-balanced")
        yield f"certificate {idx} ({cert.kind}): {'true' if ok else 'false'}"
    triples = Counter(tuple(c.meta["triple"]) for c in certs if c.kind == MEMBERSHIP and "triple" in c.meta)
    if balanced == NO and not refuted:
        all_ok = False
        yield "balanced NO: false (no verified not-zero-product-balanced certificate)"
    if balanced == YES or triples:
        n = algebra.dim ** 3
        missing = n - len(triples)
        repeated = sum(k - 1 for k in triples.values())
        covered = missing == 0 and repeated == 0
        all_ok = all_ok and covered
        yield (f"triple coverage: {'true' if covered else 'false'} "
               f"({missing} of {n} triples missing, {repeated} repeated)")
    yield f"all certificates: {'true' if all_ok else 'false'}"


# ---------------------------------------------------------------------------
# Reference sweeps of commutative structure: the element loops that the
# Frobenius nilradical, the Berlekamp atoms and the clean witness from the
# lifted atoms replaced in zpbal.structure.
# ---------------------------------------------------------------------------


def _is_nilpotent_coords(algebra, coords) -> bool:
    """Repeated squaring: nilpotent iff the 2^k-th power vanishes, 2^k > dim."""
    v = list(coords)
    steps = max(1, (algebra.dim + 1).bit_length())
    for _ in range(steps):
        if vec_is_zero(v):
            return True
        v = algebra.multiply_coords(v, v)
    return vec_is_zero(v)


def reference_nilradical(algebra, config: SweepConfig = DEFAULT_CONFIG):
    """Span of the nilpotent elements, by the exhaustive F_p nilpotency sweep."""
    f = algebra.field
    d = algebra.dim
    size = algebra.n_elements()
    if size > config.enumeration_cap:
        raise BudgetExceeded(
            f"nilpotency sweep over {size} elements exceeds cap {config.enumeration_cap}"
        )
    builder = SpanBuilder(f, d)
    for coords in algebra.coord_tuples():
        if _is_nilpotent_coords(algebra, coords):
            builder.add(list(coords))
    return builder


def reference_character_table(algebra):
    """Sorted rows of all characters, by the sweep of every functional."""
    f = algebra.field
    d = algebra.dim
    found = []
    for phi in algebra.coord_tuples():
        if all(a == 0 for a in phi):
            continue
        ok = True
        for i in range(d):
            for j in range(d):
                lhs = f.zero
                for t, c in enumerate(algebra.table[i][j]):
                    if c != 0 and phi[t] != 0:
                        lhs = f.add(lhs, f.mul(c, phi[t]))
                if lhs != f.mul(phi[i], phi[j]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(tuple(phi))
    return sorted(found)


def assert_characters_agree(report, algebra):
    """The character routes must agree: the atom route against the functional sweep."""
    rows = sorted(tuple(c.matrix.rows[0]) for c in report.characters)
    if rows != reference_character_table(algebra):
        raise SoundnessAlarm("character routes disagree")


@dataclass
class CleanSweep:
    verdict: str  # YES / NO
    units: set  # coordinate tuples of the units
    idempotents: set  # coordinate tuples of the idempotents


def reference_clean(algebra, config: SweepConfig = DEFAULT_CONFIG) -> CleanSweep:
    """Cleanness of a unital algebra over F_p: every element minus some
    idempotent is a unit, by the sweep of every element."""
    f = algebra.field
    unit = list(algebra.predicates().unit)
    size = algebra.n_elements()
    if size > config.enumeration_cap:
        raise BudgetExceeded(f"clean sweep over {size} elements exceeds cap {config.enumeration_cap}")
    units, idems = set(), set()
    for coords in algebra.coord_tuples():
        if (operator_matrix(algebra, coords, True).solve(unit) is not None
                and operator_matrix(algebra, coords, False).solve(unit) is not None):
            units.add(tuple(coords))
        if algebra.multiply_coords(coords, coords) == list(coords):
            idems.add(tuple(coords))
    verdict = "YES"
    for coords in algebra.coord_tuples():
        if not any(tuple(f.sub(a, b) for a, b in zip(coords, e)) in units for e in idems):
            verdict = "NO"
            break
    return CleanSweep(verdict=verdict, units=units, idempotents=idems)


@dataclass
class IdempotentList:
    items: List[Element]
    exhaustive: bool


def enumerate_idempotents(
    target: Union[Algebra, MultiplierAlgebra],
    config: SweepConfig = DEFAULT_CONFIG,
) -> IdempotentList:
    """All solutions of e*e = e, exhaustively over a finite carrier.

    Over the rationals only the registered idempotents (plus zero) are
    returned, flagged non-exhaustive: no quadratic solving is attempted.
    """
    alg = target.algebra if isinstance(target, MultiplierAlgebra) else target
    if alg.field.is_finite():
        size = alg.n_elements()
        if size > config.enumeration_cap:
            raise BudgetExceeded(f"{size} elements exceed cap {config.enumeration_cap}")
        items = []
        for coords in alg.coord_tuples():
            if alg.multiply_coords(coords, coords) == list(coords):
                items.append(alg.element(coords))
        return IdempotentList(items=items, exhaustive=True)
    items = [alg.zero_element()] + list(alg.registered_idempotents)
    return IdempotentList(items=items, exhaustive=False)
