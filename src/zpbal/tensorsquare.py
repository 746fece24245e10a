"""The tensor square of an algebra and the certified deciders built on it.

The central object is the span of all tensors u⊗v with uv = 0 inside the
tensor square.  An algebra is *zero-product balanced* when every shifted
product tensor ab⊗c - a⊗bc lies in that span, and *zero-product determined*
when the span exhausts the kernel of the multiplication map.  Both deciders
return machine-verifiable evidence: membership decompositions into certified
zero-product tensors for YES, separating functionals for NO.

Tensor index convention: e_i ⊗ e_j sits at flat index i*d + j (row-major).
Tensors are built sparse, as maps {flat index: nonzero entry}, and stay so
until the span reduces them; the public methods return dense lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from zpbal.algebra import Algebra
from zpbal.config import DEFAULT_CONFIG, SweepConfig
from zpbal.errors import MalformedCertificate, SoundnessAlarm
from zpbal.fields import Field, Scalar
from zpbal.linalg import Matrix, Sparse, SpanBuilder, Subspace, Vector, _dense, _sparse, dot, vec_is_zero
from zpbal.sweep import (
    LEFT,
    RIGHT,
    AnnihilatorSweep,
    projective_points,
    random_elements,
    structured_elements,
)

TENSOR_CONVENTION = "row-major i*d+j"

EXACT = "EXACT"
LOWER_BOUND = "LOWER_BOUND"
YES = "YES"
NO = "NO"
UNKNOWN = "UNKNOWN"


class TensorSquare:
    """Tensor square A⊗A with the linear multiplication map a⊗b -> ab."""

    def __init__(self, algebra: Algebra):
        self.algebra = algebra
        d = algebra.dim
        self.ambient = d * d
        f = algebra.field
        # mul matrix: d rows, d*d columns; column i*d+j holds coords of e_i e_j
        rows = [[f.zero] * self.ambient for _ in range(d)]
        for i in range(d):
            for j in range(d):
                cij = algebra.table[i][j]
                for k, c in enumerate(cij):
                    if c != 0:
                        rows[k][i * d + j] = c
        self.mul_matrix = Matrix(f, rows, cols=self.ambient)
        self._kernel: Optional[Subspace] = None

    def kernel(self) -> Subspace:
        if self._kernel is None:
            self._kernel = self.mul_matrix.kernel()
        return self._kernel

    def kernel_dim(self) -> int:
        return self.ambient - self.mul_matrix.rank()

    def tensor_coords(self, u: Sequence[Scalar], v: Sequence[Scalar]) -> Vector:
        alg = self.algebra
        return _dense(alg.field, _tensor(alg.field, alg.dim, u, v), self.ambient)

    def apply_mul(self, t: Vector) -> Vector:
        return self.mul_matrix.apply(t)

    def defect_tensor(self, i: int, j: int, k: int) -> Vector:
        """(e_i e_j)⊗e_k - e_i⊗(e_j e_k)."""
        return _dense(self.algebra.field, _defect_tensor(self.algebra, i, j, k), self.ambient)


def _tensor(f: Field, d: int, u: Sequence[Scalar], v: Sequence[Scalar]) -> Sparse:
    """u⊗v as {flat index: nonzero entry}."""
    right = [(j, b) for j, b in enumerate(v) if b]
    out: Sparse = {}
    for i, a in enumerate(u):
        if a:
            base = i * d
            for j, b in right:
                out[base + j] = f.mul(a, b)
    return out


def _defect_tensor(algebra: Algebra, i: int, j: int, k: int) -> Sparse:
    """(e_i e_j)⊗e_k - e_i⊗(e_j e_k) as {flat index: nonzero entry}."""
    f = algebra.field
    d = algebra.dim
    out: Sparse = {s * d + k: c for s, c in algebra._nonzero[i][j]}
    base = i * d
    for t, c in algebra._nonzero[j][k]:
        x = f.sub(out.get(base + t, f.zero), c)
        if x:
            out[base + t] = x
        else:
            del out[base + t]
    return out


@dataclass
class ZeroProductSpanReport:
    """Computed (or lower-bounded) span of zero-product tensors.

    Every generator pair (u, v) was re-verified to satisfy uv = 0 before
    insertion, so the recorded subspace is a certified subset of the true
    span regardless of status.  Status EXACT means the generating sweep was
    exhaustive over the whole (finite) algebra.
    """

    algebra: Algebra
    tensor: TensorSquare
    subspace: Subspace
    status: str
    generators: List[Tuple[Tuple[Scalar, ...], Tuple[Scalar, ...]]]
    strategy_log: List[str]
    kernel_dim: int
    config: SweepConfig
    _builder: SpanBuilder = dc_field(repr=False, default=None)

    @property
    def dim(self) -> int:
        return self.subspace.dim

    @property
    def is_complete(self) -> bool:
        """Whether the subspace provably equals the full zero-product span.

        True for exhaustive sweeps, and also when a lower bound reaches the
        kernel ceiling (the span always sits inside that kernel).
        """
        return self.status == EXACT or self.dim == self.kernel_dim

    def membership_terms(self, target: Union[Vector, Sparse]
                         ) -> Optional[List[Tuple[Scalar, tuple, tuple]]]:
        """target = sum of lambda * (u⊗v) over recorded generators, or None.

        target is a list or a map {flat index: nonzero entry}.
        """
        combo = self._builder.generator_coefficients(target)
        if combo is None:
            return None
        return [(lam, self.generators[g][0], self.generators[g][1]) for g, lam in sorted(combo.items())]


def _offer_annihilator_tensors(sweep: AnnihilatorSweep, u, builder: SpanBuilder, ts: TensorSquare,
                               generators) -> int:
    """Offer u⊗w (right annihilators w of u) or w⊗u (left) to the span."""
    alg = ts.algebra
    u = tuple(u)
    added = 0
    for w in sweep.visit(u):
        pair = (u, tuple(w)) if sweep.side == RIGHT else (tuple(w), u)
        if builder.add(_tensor(alg.field, alg.dim, *pair)):
            if not vec_is_zero(alg.multiply_coords(*pair)):
                raise SoundnessAlarm(f"annihilator pair {pair} has a nonzero product")
            generators.append(pair)
            added += 1
    return added


def compute_zero_product_span(algebra: Algebra, config: SweepConfig = DEFAULT_CONFIG) -> ZeroProductSpanReport:
    """Span of {u⊗v : uv = 0}, exhaustive over finite algebras within budget.

    Exhaustive route: sweep the elements u and adjoin u ⊗ (right annihilator
    of u); this reaches the whole span because each zero-product pair (u, v)
    appears with v in the annihilator of u.  The annihilator sweep visits
    projective points only and skips elements whose tensors were all offered
    already (see `zpbal.sweep`), which leaves the generators unchanged.
    Otherwise a lower bound is grown from zero basis pairs, one- and
    two-basis-vector annihilator sweeps, registered idempotents (with their
    transfer tensors), and seeded random elements until the span stalls.
    """
    ts = TensorSquare(algebra)
    f = algebra.field
    d = algebra.dim
    ker_dim = ts.kernel_dim()
    builder = SpanBuilder(f, ts.ambient, track_expressions=True)
    generators: List[Tuple[tuple, tuple]] = []
    log: List[str] = [f"seed={config.seed}", f"convention={TENSOR_CONVENTION}"]
    right = AnnihilatorSweep(algebra, RIGHT)

    size = algebra.n_elements()
    if size is not None and size <= config.enumeration_cap:
        for u in projective_points(algebra):
            if builder.dim >= ker_dim:
                break
            _offer_annihilator_tensors(right, u, builder, ts, generators)
        stop = "stopped at the kernel ceiling" if builder.dim >= ker_dim else "ran to the end"
        log.append(f"exhaustive annihilator sweep: {right.visited} projective points of {size} "
                   f"elements, {right.distinct_annihilators} distinct annihilators, {stop}")
        status = EXACT
    else:
        reason = "infinite field" if size is None else f"{size} elements exceed cap {config.enumeration_cap}"
        log.append(f"lower-bound strategy ({reason})")
        left = AnnihilatorSweep(algebra, LEFT)
        # (i) basis pairs with zero product
        for i in range(d):
            if builder.dim >= ker_dim:
                break
            for j in range(d):
                if vec_is_zero(algebra.table[i][j]):
                    ei = tuple(f.one if t == i else f.zero for t in range(d))
                    ej = tuple(f.one if t == j else f.zero for t in range(d))
                    if builder.add(_tensor(f, d, ei, ej)):
                        generators.append((ei, ej))
        log.append(f"zero basis pairs: dim {builder.dim}")
        # (ii) annihilator sweeps over structured elements
        sweep = structured_elements(algebra, idempotent_pairs=True)
        for u in sweep:
            if builder.dim >= ker_dim:
                break
            _offer_annihilator_tensors(right, u, builder, ts, generators)
            _offer_annihilator_tensors(left, u, builder, ts, generators)
        log.append(f"structured annihilator sweep ({len(sweep)} elements): dim {builder.dim}")
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
                        if builder.add(_tensor(f, d, u.coords, v.coords)):
                            if not vec_is_zero(algebra.multiply_coords(u.coords, v.coords)):
                                raise SoundnessAlarm(f"transfer pair {(u, v)} has a nonzero product")
                            generators.append((u.coords, v.coords))
        log.append(f"idempotent transfer tensors: dim {builder.dim}")
        # (iv) seeded random elements until the span stalls
        stall = 0
        samples = 0
        for u in random_elements(f, d, config.seed):
            if stall >= config.stall_rounds or builder.dim >= ker_dim:
                break
            samples += 1
            added = _offer_annihilator_tensors(right, u, builder, ts, generators)
            added += _offer_annihilator_tensors(left, u, builder, ts, generators)
            stall = 0 if added else stall + 1
        log.append(f"random sweep: {samples} samples, dim {builder.dim}")
        status = LOWER_BOUND
        if builder.dim == ker_dim:
            log.append("lower bound reached the multiplication-kernel ceiling")

    subspace = builder.to_subspace()
    if subspace.dim > ker_dim:
        raise SoundnessAlarm("zero-product span exceeds multiplication kernel")
    return ZeroProductSpanReport(
        algebra=algebra,
        tensor=ts,
        subspace=subspace,
        status=status,
        generators=generators,
        strategy_log=log,
        kernel_dim=ker_dim,
        config=config,
        _builder=builder,
    )


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

MEMBERSHIP = "membership-decomposition"
SEPARATING = "separating-functional"
NOT_VERIFIED = "not-verified"


@dataclass
class Certificate:
    """Independently re-checkable evidence for one membership/refutation claim.

    membership-decomposition: target = sum lambda*(u⊗v) with every uv = 0.
    separating-functional: functional vanishing on all stored zero-product
    generator tensors but not on the target; refutes membership whenever the
    stored generators span the whole zero-product span (status EXACT).

    A certificate whose meta names a basis triple is about that triple's
    defect tensor, which the verifier recomputes; its stored target, if any,
    must equal it.  A loaded certificate of a zero defect has no target.
    """

    kind: str
    target: Optional[Vector]
    terms: List[Tuple[Scalar, tuple, tuple]] = dc_field(default_factory=list)
    functional: Optional[Vector] = None
    generators: List[Tuple[tuple, tuple]] = dc_field(default_factory=list)
    convention: str = TENSOR_CONVENTION
    meta: Dict = dc_field(default_factory=dict)

    def to_dict(self, fld: Field, generator_index: Callable[[Tuple[tuple, tuple]], int]) -> Dict:
        """JSON form; zero-product pairs become indices into the file's generator table."""
        out: Dict = {"kind": self.kind}
        if self.target is not None and not ("triple" in self.meta and not any(self.target)):
            out["target"] = fld.format_vector(self.target)
        if self.kind == MEMBERSHIP:
            lams = fld.format_vector([lam for lam, _, _ in self.terms])
            out["terms"] = [{"generator": generator_index((tuple(u), tuple(v))), "lambda": lam}
                            for lam, (_, u, v) in zip(lams, self.terms)]
        if self.kind == SEPARATING:
            out["functional"] = fld.format_vector(self.functional)
            out["generators"] = [generator_index((tuple(u), tuple(v))) for u, v in self.generators]
        if self.meta:
            out["meta"] = self.meta
        return out

    @classmethod
    def from_dict(cls, data: Dict, fld: Field, generators: Sequence[Tuple[tuple, tuple]]) -> "Certificate":
        """Inverse of `to_dict`; `generators` is the file's parsed generator table."""
        if not isinstance(data, dict):
            raise MalformedCertificate(f"certificate must be an object, got {type(data).__name__}")
        kind = data.get("kind")
        if not isinstance(kind, str):
            raise MalformedCertificate(f"certificate kind must be a string, got {kind!r}")
        meta = data.get("meta", {})
        if not isinstance(meta, dict):
            raise MalformedCertificate(f"meta must be an object, got {meta!r}")

        def generator(index):
            if type(index) is not int or not 0 <= index < len(generators):
                raise MalformedCertificate(f"generator index {index!r} is not below {len(generators)}")
            return generators[index]

        def term(t):
            if not isinstance(t, dict) or set(t) != {"generator", "lambda"}:
                raise MalformedCertificate(f"term must be {{generator, lambda}}, got {t!r}")
            return (fld.parse(t["lambda"]), *generator(t["generator"]))

        return cls(
            kind=kind,
            target=_parse_vector(fld, data["target"], "target") if "target" in data else None,
            terms=[term(t) for t in _list(data.get("terms", []), "terms")],
            functional=_parse_vector(fld, data["functional"], "functional") if "functional" in data else None,
            generators=[generator(g) for g in _list(data.get("generators", []), "generators")],
            meta=meta,
        )


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise MalformedCertificate(f"{what} must be a list, got {type(value).__name__}")
    return value


def _parse_vector(fld: Field, value, what: str) -> Vector:
    return fld.parse_vector(_list(value, what))


def _claimed_triple(meta: Dict, d: int) -> Optional[Tuple[int, int, int]]:
    """The basis triple a certificate is about, or None when it names none."""
    if "triple" not in meta:
        return None
    triple = meta["triple"]
    if not (isinstance(triple, (list, tuple)) and len(triple) == 3
            and all(type(i) is int and 0 <= i < d for i in triple)):
        raise MalformedCertificate(f"triple {triple!r} is not three basis indices below {d}")
    return tuple(triple)


def verify_certificate(algebra: Algebra, cert: Certificate) -> bool:
    """Re-check a certificate using only algebra multiplication and arithmetic.

    Deliberately independent of the span engine: a third party holding the
    structure constants can re-run this check.  The claim binds the target:
    a certificate naming a basis triple is about that triple's defect tensor,
    and a refutation of determination must separate a kernel tensor.
    """
    f = algebra.field
    d = algebra.dim
    ambient = d * d
    target = cert.target
    if target is not None and len(target) != ambient:
        raise MalformedCertificate("target has wrong length")
    triple = _claimed_triple(cert.meta, d)
    if triple is not None:
        claimed = _defect_tensor(algebra, *triple)
        if target is not None and list(target) != _dense(f, claimed, ambient):
            return False
    elif target is None:
        raise MalformedCertificate("certificate has neither a target nor a triple")
    else:
        claimed = _sparse(target, ambient)
    if cert.kind == MEMBERSHIP:
        acc: Sparse = {}
        for lam, u, v in cert.terms:
            if len(u) != d or len(v) != d:
                raise MalformedCertificate("term vector has wrong length")
            if not vec_is_zero(algebra.multiply_coords(u, v)):
                return False
            for j, a in _tensor(f, d, u, v).items():
                acc[j] = f.add(acc.get(j, f.zero), f.mul(lam, a))
        got = {j: a for j, a in acc.items() if a}  # a zero lambda or cancelling terms leave zeros
        return got == claimed
    if cert.kind == SEPARATING:
        if cert.functional is None or len(cert.functional) != ambient:
            raise MalformedCertificate("separating certificate lacks a functional")
        target = _dense(f, claimed, ambient)
        if dot(f, cert.functional, target) == 0:
            return False
        if (cert.meta.get("claim") == "not-zero-product-determined"
                and not vec_is_zero(TensorSquare(algebra).apply_mul(target))):
            return False
        for u, v in cert.generators:
            if len(u) != d or len(v) != d:
                raise MalformedCertificate("generator vector has wrong length")
            if not vec_is_zero(algebra.multiply_coords(u, v)):
                return False
            if dot(f, cert.functional, _dense(f, _tensor(f, d, u, v), ambient)) != 0:
                return False
        return True
    if cert.kind == NOT_VERIFIED:
        return False
    raise MalformedCertificate(f"unknown certificate kind {cert.kind!r}")


def _separating_functional(report: ZeroProductSpanReport, target: Vector) -> Vector:
    """A functional orthogonal to the span with nonzero value on the target."""
    f = report.algebra.field
    for phi in report.subspace.complement_functionals():
        if dot(f, phi, target) != 0:
            return phi
    raise SoundnessAlarm("target reported outside the span but no functional separates it")


# ---------------------------------------------------------------------------
# deciders
# ---------------------------------------------------------------------------


@dataclass
class DeterminedVerdict:
    status: str  # YES / NO / UNKNOWN
    span_dim: int
    kernel_dim: int
    witness: Optional[Vector] = None  # kernel tensor outside the span
    certificate: Optional[Certificate] = None
    note: str = ""


def is_zero_product_determined(algebra: Algebra, report: ZeroProductSpanReport) -> DeterminedVerdict:
    """Decide whether the zero-product span exhausts the multiplication kernel."""
    span_dim = report.dim
    ker_dim = report.kernel_dim
    if span_dim == ker_dim:
        return DeterminedVerdict(YES, span_dim, ker_dim)
    if report.status != EXACT:
        return DeterminedVerdict(
            UNKNOWN,
            span_dim,
            ker_dim,
            note="span is a lower bound below the kernel ceiling; no refutation over this field",
        )
    witness = next(
        (v for v in report.tensor.kernel().basis if not report.subspace.contains_vector(v)),
        None,
    )
    if witness is None:
        raise SoundnessAlarm("kernel dimension exceeds span but every kernel basis vector is inside")
    phi = _separating_functional(report, witness)
    cert = Certificate(
        kind=SEPARATING,
        target=witness,
        functional=phi,
        generators=list(report.generators),
        meta={"claim": "not-zero-product-determined", "span_status": report.status,
              "seed": report.config.seed},
    )
    return DeterminedVerdict(NO, span_dim, ker_dim, witness=witness, certificate=cert)


@dataclass
class BalancedVerdict:
    status: str  # YES / NO / UNKNOWN
    witness_triple: Optional[Tuple[int, int, int]] = None
    certificate: Optional[Certificate] = None  # separating functional for NO
    certificates: Optional[List[Certificate]] = None  # per-triple memberships for YES
    n_triples: int = 0
    note: str = ""


def is_zero_product_balanced(
    algebra: Algebra,
    report: ZeroProductSpanReport,
    with_certificates: bool = False,
) -> BalancedVerdict:
    """Decide whether every shifted product tensor lies in the zero-product span.

    By trilinearity it suffices to test the basis triples.  A YES obtained
    from a lower-bound span is still sound (membership in a subset implies
    membership); a NO needs the exhaustive span.
    """
    f = algebra.field
    d = algebra.dim
    ambient = report.tensor.ambient
    certs: List[Certificate] = [] if with_certificates else None
    for i in range(d):
        for j in range(d):
            for k in range(d):
                t = _defect_tensor(algebra, i, j, k)
                if not t:
                    if with_certificates:
                        certs.append(Certificate(kind=MEMBERSHIP, target=[f.zero] * ambient, terms=[],
                                                 meta={"triple": [i, j, k]}))
                    continue
                if with_certificates:
                    # one reduction decides membership and gives the decomposition
                    terms = report.membership_terms(t)
                    if terms is not None:
                        certs.append(Certificate(kind=MEMBERSHIP, target=_dense(f, t, ambient),
                                                 terms=terms, meta={"triple": [i, j, k]}))
                        continue
                elif report.subspace.contains_vector(t):
                    continue
                if report.status == EXACT:
                    target = _dense(f, t, ambient)
                    phi = _separating_functional(report, target)
                    cert = Certificate(
                        kind=SEPARATING,
                        target=target,
                        functional=phi,
                        generators=list(report.generators),
                        meta={"claim": "not-zero-product-balanced", "triple": [i, j, k],
                              "span_status": report.status, "seed": report.config.seed},
                    )
                    return BalancedVerdict(NO, witness_triple=(i, j, k), certificate=cert,
                                           n_triples=d ** 3)
                return BalancedVerdict(
                    UNKNOWN,
                    witness_triple=(i, j, k),
                    n_triples=d ** 3,
                    note="membership failed against a lower-bound span; not refutable over this field",
                )
    return BalancedVerdict(YES, certificates=certs, n_triples=d ** 3)
