"""The tensor square of an algebra and the certified deciders built on it.

The central object is the span of all tensors u⊗v with uv = 0 inside the
tensor square.  An algebra is *zero-product balanced* when every shifted
product tensor ab⊗c - a⊗bc lies in that span, and *zero-product determined*
when the span exhausts the kernel of the multiplication map.  Both deciders
return a `Verdict` whose certificate list is its evidence: membership
decompositions into zero-product tensors for a balanced YES, one separating
functional for a NO.  `verify_file` holds a certificate file to its claim.

Tensor index convention: e_i ⊗ e_j sits at flat index i*d + j (row-major).
Tensors are built sparse, as maps {flat index: nonzero entry}, and stay so
until the span reduces them; certificates and verdicts hold dense lists.
The multiplication map μ: a⊗b -> ab is never a dense d × d² matrix: its d
rows are read sparse from the structure constants (`_multiplication_rows`)
and reduced once per span report, ker μ is their null space, and
`_apply_mul` evaluates μ on a sparse tensor for the verifier.

The verifier and the certificate loader need only multiplication and
arithmetic, so this module imports the span engine, `zpbal.sweep` and
`zpbal.linalg`, inside `compute_zero_product_span` alone: a process that
only verifies never loads it.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from zpbal.algebra import Algebra
from zpbal.config import DEFAULT_CONFIG, EXACT, SweepConfig  # EXACT re-exported
from zpbal.errors import MalformedCertificate, SoundnessAlarm
from zpbal.fields import Field, Scalar, _dense, _sparse, vec_is_zero

if TYPE_CHECKING:
    from zpbal.linalg import Sparse, SpanBuilder, Vector
    from zpbal.sweep import Pair

TENSOR_CONVENTION = "row-major i*d+j"

YES = "YES"
NO = "NO"
UNKNOWN = "UNKNOWN"


def _multiplication_rows(algebra: Algebra) -> List[Sparse]:
    """Row k of the multiplication map μ: A⊗A -> A, as {i*d+j: (e_i e_j)_k}."""
    d = algebra.dim
    rows: List[Sparse] = [{} for _ in range(d)]
    for i, products in enumerate(algebra._nonzero):
        for j, nonzero in enumerate(products):
            for k, c in nonzero:
                rows[k][i * d + j] = c
    return rows


def _apply_mul(algebra: Algebra, t: Sparse) -> Vector:
    """μ(t) in coordinates, for a tensor t given as {flat index: nonzero entry}."""
    f = algebra.field
    d = algebra.dim
    out = [f.zero] * d
    for ij, a in t.items():
        for k, c in algebra._nonzero[ij // d][ij % d]:
            out[k] = f.add(out[k], f.mul(a, c))
    return out


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


class ZeroProductSpanReport:
    """Computed (or lower-bounded) span of zero-product tensors.

    Every generator pair (u, v) was re-verified to satisfy uv = 0 before
    insertion, so the recorded subspace is a certified subset of the true
    span regardless of status.  Status EXACT means the generating sweep was
    exhaustive over the whole (finite) algebra.  `stopped` says why the
    sweep ended: "ceiling" when the span reached `kernel_dim`, "exhausted"
    when the exhaustive walk ended, "stall" when the random visits stopped
    adding to it.  `subspace` is the expression-tracking row space of the
    generators; membership decompositions are read from it.
    `multiplication` is the row space of μ, whose null space (of dimension
    `kernel_dim`) holds the span.
    """

    def __init__(self, algebra: Algebra, subspace: SpanBuilder, status: str, stopped: str,
                 generators: List[Tuple[Tuple[Scalar, ...], Tuple[Scalar, ...]]],
                 multiplication: SpanBuilder, config: SweepConfig):
        self.algebra = algebra
        self.subspace = subspace
        self.status = status
        self.stopped = stopped
        self.generators = generators
        self.multiplication = multiplication
        self.kernel_dim = multiplication.ambient - multiplication.dim
        self.config = config

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
        combo = self.subspace.generator_coefficients(target)
        if combo is None:
            return None
        return [(lam, self.generators[g][0], self.generators[g][1]) for g, lam in sorted(combo.items())]


def compute_zero_product_span(algebra: Algebra, config: SweepConfig = DEFAULT_CONFIG) -> ZeroProductSpanReport:
    """Span of {u⊗v : uv = 0}, exhaustive over finite algebras within budget.

    Adds a⊗b for the zero-product pairs (a, b) that `zpbal.sweep.sweep_blocks`
    hands out, block by block, until the span reaches the kernel ceiling;
    `zpbal.sweep` says why its blocks reach the whole span.
    """
    from zpbal.linalg import SpanBuilder  # the span engine: only a process that sweeps loads it
    from zpbal.sweep import sweep_blocks

    f = algebra.field
    d = algebra.dim
    multiplication = SpanBuilder(f, d * d, _multiplication_rows(algebra))
    ker_dim = d * d - multiplication.dim
    builder = SpanBuilder(f, d * d, track_expressions=True)
    generators: List[Tuple[tuple, tuple]] = []

    def offer(pairs: List[Pair]) -> int:
        added = 0
        for pair in pairs:
            if builder.add(_tensor(f, d, *pair)):
                if not vec_is_zero(algebra.multiply_coords(*pair)):
                    raise SoundnessAlarm(f"annihilator pair {pair} has a nonzero product")
                generators.append(pair)
                added += 1
        return added

    status, stopped = sweep_blocks(algebra, config, offer, lambda: builder.dim >= ker_dim)
    if builder.dim > ker_dim:
        raise SoundnessAlarm("zero-product span exceeds multiplication kernel")
    return ZeroProductSpanReport(
        algebra=algebra,
        subspace=builder,
        status=status,
        stopped=stopped,
        generators=generators,
        multiplication=multiplication,
        config=config,
    )


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

MEMBERSHIP = "membership-decomposition"
SEPARATING = "separating-functional"
# The terms of each membership certificate `is_zero_product_balanced` gives a
# zero defect, shared and immutable; `serialize.save_certificates` writes such
# a certificate from a template.
NO_TERMS: tuple = ()
# The fields a certificate of each kind must not hold: those of the other kind.
_OTHER_KINDS_FIELDS = {MEMBERSHIP: ("functional", "generators"), SEPARATING: ("terms",)}


class Certificate:
    """Independently re-checkable evidence for one membership/refutation claim.

    membership-decomposition: target = sum lambda*(u⊗v) with every uv = 0.
    separating-functional: functional vanishing on all stored zero-product
    generator tensors but not on the target; refutes membership whenever the
    stored generators span the whole zero-product span (status EXACT).

    A certificate whose meta names a basis triple is about that triple's
    defect tensor, which the verifier recomputes; its stored target, if any,
    must equal it.  The decider stores a triple's target only on the first
    certificate of each nonzero defect, so a loaded certificate of a zero or
    a repeated defect has no target.

    In a file, a certificate without "kind" is a membership decomposition,
    and one that holds a field of the other kind ("functional" or
    "generators" on a membership, "terms" on a separating functional) does
    not load.
    """

    def __init__(self, kind: str, target: Optional[Vector],
                 terms: Optional[List[Tuple[Scalar, tuple, tuple]]] = None,
                 functional: Optional[Vector] = None,
                 generators: Optional[List[Tuple[tuple, tuple]]] = None,
                 meta: Optional[Dict] = None):
        self.kind = kind
        self.target = target
        self.terms = [] if terms is None else terms
        self.functional = functional
        self.generators = [] if generators is None else generators
        self.meta = {} if meta is None else meta

    @classmethod
    def from_dict(cls, data: Dict, fld: Field, generators: Sequence[Tuple[tuple, tuple]],
                  parsed: Optional[Dict[tuple, tuple]] = None) -> "Certificate":
        """The certificate a file's JSON object describes (the writer is
        `serialize.save_certificates`); `generators` is the file's parsed
        generator table.  `parsed` maps a raw term (generator, lambda) to its
        parsed tuple; certificates that share it share each term's tuple.  An
        absent "kind" reads as a membership, and an absent or empty "terms"
        or "generators" is handed on as None."""
        if not isinstance(data, dict):
            raise MalformedCertificate(f"certificate must be an object, got {type(data).__name__}")
        kind = data.get("kind", MEMBERSHIP)
        if not isinstance(kind, str):
            raise MalformedCertificate(f"certificate kind must be a string, got {kind!r}")
        for key in _OTHER_KINDS_FIELDS.get(kind, ()):
            if key in data:
                raise MalformedCertificate(f"a {kind} certificate holds no {key!r}")
        meta = data.get("meta", {})
        if not isinstance(meta, dict):
            raise MalformedCertificate(f"meta must be an object, got {meta!r}")
        if parsed is None:
            parsed = {}
        terms = _list(data["terms"], "terms") if "terms" in data else None
        pairs = _list(data["generators"], "generators") if "generators" in data else None
        return cls(
            kind=kind,
            target=_parse_vector(fld, data["target"], "target") if "target" in data else None,
            terms=[_term(t, fld, generators, parsed) for t in terms] if terms else None,
            functional=_parse_vector(fld, data["functional"], "functional") if "functional" in data else None,
            generators=[_generator(g, generators) for g in pairs] if pairs else None,
            meta=meta,
        )


def _generator(index, generators: Sequence[Tuple[tuple, tuple]]) -> Tuple[tuple, tuple]:
    if type(index) is not int or not 0 <= index < len(generators):
        raise MalformedCertificate(f"generator index {index!r} is not below {len(generators)}")
    return generators[index]


def _term(t, fld: Field, generators: Sequence[Tuple[tuple, tuple]],
          parsed: Dict[tuple, tuple]) -> Tuple[Scalar, tuple, tuple]:
    """(lambda, u, v) of a raw term, parsed once per distinct (generator, lambda).
    The memo is read only for an int index and an int or str lambda, since
    True == 1 and 1.0 == 1 would otherwise find the entry of a valid term."""
    if not isinstance(t, dict) or set(t) != {"generator", "lambda"}:
        raise MalformedCertificate(f"term must be {{generator, lambda}}, got {t!r}")
    key = (t["generator"], t["lambda"])
    term = parsed.get(key) if type(key[0]) is int and type(key[1]) in (int, str) else None
    if term is None:  # an invalid term raises before it is stored
        term = parsed[key] = (fld.parse(key[1]), *_generator(key[0], generators))
    return term


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
    if isinstance(triple, (list, tuple)) and len(triple) == 3:
        i, j, k = triple
        if type(i) is type(j) is type(k) is int and 0 <= i < d and 0 <= j < d and 0 <= k < d:
            return i, j, k
    raise MalformedCertificate(f"triple {triple!r} is not three basis indices below {d}")


class _VerifyMemo:
    """What `verify_certificate` computes from a certificate's zero-product
    pairs, done once per value: uv = 0 and u⊗v per pair, and the sum of each
    term list.  `verify_file` shares one across a file; keys are values, so a
    tampered copy of a pair or of a term list is a key of its own."""

    def __init__(self, algebra: Algebra):
        self.algebra = algebra
        self._tensors: Dict[Tuple[tuple, tuple], Optional[Sparse]] = {}  # (u, v) -> u⊗v, None if uv != 0
        self._sums: Dict[tuple, Optional[Sparse]] = {}  # terms -> their sum, None if some uv != 0

    def tensor(self, u: Sequence[Scalar], v: Sequence[Scalar], what: str) -> Optional[Sparse]:
        """u⊗v, or None when uv != 0; a vector of the wrong length raises."""
        key = (u, v)
        try:
            return self._tensors[key]
        except KeyError:
            pass
        except TypeError:  # a list vector from a library caller: computed, not stored
            key = None
        alg = self.algebra
        d = alg.dim
        if len(u) != d or len(v) != d:
            raise MalformedCertificate(f"{what} vector has wrong length")
        t = None if not vec_is_zero(alg.multiply_coords(u, v)) else _tensor(alg.field, d, u, v)
        if key is not None:
            self._tensors[key] = t
        return t

    def combination(self, terms: Sequence[Tuple[Scalar, tuple, tuple]]) -> Optional[Sparse]:
        """sum of lambda * (u⊗v) over the terms as {flat index: nonzero entry},
        or None when a term's uv != 0; the terms are read in order, so a term
        after the first nonzero product is not checked."""
        try:
            key = tuple(terms)
            return self._sums[key]
        except KeyError:
            pass
        except TypeError:
            key = None
        f = self.algebra.field
        acc: Optional[Sparse] = {}
        for lam, u, v in terms:
            t = self.tensor(u, v, "term")
            if t is None:
                acc = None
                break
            for j, a in t.items():
                acc[j] = f.add(acc.get(j, f.zero), f.mul(lam, a))
        if acc is not None:
            acc = {j: a for j, a in acc.items() if a}  # a zero lambda or cancelling terms leave zeros
        if key is not None:
            self._sums[key] = acc
        return acc


def verify_certificate(algebra: Algebra, cert: Certificate, memo: Optional[_VerifyMemo] = None) -> bool:
    """Re-check a certificate using only algebra multiplication and arithmetic.

    Deliberately independent of the span engine: a third party holding the
    structure constants can re-run this check.  The claim binds the target:
    a certificate naming a basis triple is about that triple's defect tensor,
    a refutation of balancedness must name one, a refutation of
    determination must separate a kernel tensor, and a refutation that
    claims neither proves nothing.  `memo` holds the pair products and
    term-list sums that earlier certificates computed; each certificate's
    claim is still checked on its own.  A triple with e_i e_j = 0 = e_j e_k
    has defect 0 without its tensor being built, and an empty term list
    sums to 0 without the memo.
    """
    f = algebra.field
    d = algebra.dim
    ambient = d * d
    if memo is None:
        memo = _VerifyMemo(algebra)
    target = cert.target
    if target is not None and len(target) != ambient:
        raise MalformedCertificate("target has wrong length")
    triple = _claimed_triple(cert.meta, d)
    if triple is not None:
        i, j, k = triple
        nz = algebra._nonzero
        claimed = _defect_tensor(algebra, i, j, k) if nz[i][j] or nz[j][k] else {}
        if target is not None and list(target) != _dense(f, claimed, ambient):
            return False
    elif target is None:
        raise MalformedCertificate("certificate has neither a target nor a triple")
    else:
        claimed = _sparse(target, ambient)
    if cert.kind == MEMBERSHIP:
        return memo.combination(cert.terms) == claimed if cert.terms else not claimed
    if cert.kind == SEPARATING:
        phi = cert.functional
        if phi is None or len(phi) != ambient:
            raise MalformedCertificate("separating certificate lacks a functional")
        claim = cert.meta.get("claim")
        if not (claim == "not-zero-product-balanced" and triple is not None
                or claim == "not-zero-product-determined" and vec_is_zero(_apply_mul(algebra, claimed))):
            return False
        if _evaluate(f, phi, claimed) == 0:
            return False
        for u, v in cert.generators:
            t = memo.tensor(u, v, "generator")
            if t is None or _evaluate(f, phi, t) != 0:
                return False
        return True
    raise MalformedCertificate(f"unknown certificate kind {cert.kind!r}")


def _evaluate(f: Field, phi: Vector, t: Sparse) -> Scalar:
    """phi(t) for a tensor t given as {flat index: nonzero entry}."""
    acc = f.zero
    for j, a in t.items():
        if phi[j]:
            acc = f.add(acc, f.mul(phi[j], a))
    return acc


def verify_file(algebra: Algebra, balanced: str, certs: Sequence[Certificate]) -> Iterator[str]:
    """The lines `zpbal verify` prints: one per certificate, as
    `verify_certificate` finds it, then the file's balancedness claim, then
    the whole file.  A NO needs a verified not-zero-product-balanced
    refutation; a YES, or a file with any triple membership, needs one
    membership of every basis triple.  One `_VerifyMemo` serves every
    certificate, so each distinct pair and term list is computed once."""
    memo = _VerifyMemo(algebra)
    all_ok = True
    refuted = False
    for idx, cert in enumerate(certs):
        ok = verify_certificate(algebra, cert, memo)
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
# deciders
# ---------------------------------------------------------------------------


def _lower_bound_cause(report: ZeroProductSpanReport) -> str:
    """Why a lower-bound span refutes nothing: over F_p the sweep stopped at the
    cap, and over Q no certificate kind refutes."""
    f = report.algebra.field
    if f.is_finite():
        return (f"the algebra has {f.characteristic}^{report.algebra.dim} elements, more than "
                f"--cap {report.config.enumeration_cap}; a larger --cap sweeps it exhaustively")
    return "no certificate kind refutes over Q"


class Verdict(NamedTuple):
    status: str  # YES / NO / UNKNOWN
    certificates: List[Certificate]  # the memberships of a YES, or the one refutation of a NO
    note: str = ""  # why a verdict is UNKNOWN


def refuted_triple(verdict: Verdict) -> Optional[List[int]]:
    """The basis triple a balancedness NO refutes, as its certificate names it."""
    return verdict.certificates[0].meta["triple"] if verdict.status == NO else None


def _refuted(report: ZeroProductSpanReport, target: Vector, meta: Dict) -> Verdict:
    """A NO backed by a functional that vanishes on the exhaustive span but
    not on the target."""
    f = report.algebra.field
    t = _sparse(target, len(target))
    phi = next((phi for phi in report.subspace.complement_functionals() if _evaluate(f, phi, t) != 0), None)
    if phi is None:
        raise SoundnessAlarm("target reported outside the span but no functional separates it")
    cert = Certificate(kind=SEPARATING, target=target, functional=phi, generators=list(report.generators),
                       meta=dict(meta, span_status=report.status, seed=report.config.seed))
    return Verdict(NO, [cert])


def is_zero_product_determined(algebra: Algebra, report: ZeroProductSpanReport) -> Verdict:
    """Decide whether the zero-product span exhausts the multiplication kernel.

    A NO carries one separating certificate whose target is the first kernel
    basis vector outside the span; a YES and an UNKNOWN carry none.
    """
    if report.dim == report.kernel_dim:
        return Verdict(YES, [])
    if report.status != EXACT:
        return Verdict(UNKNOWN, [],
                       f"span is a lower bound below the kernel ceiling: {_lower_bound_cause(report)}")
    kernel = report.multiplication.null_space()
    witness = next((v for v in kernel.basis if not report.subspace.contains_vector(v)), None)
    if witness is None:
        raise SoundnessAlarm("kernel dimension exceeds span but every kernel basis vector is inside")
    return _refuted(report, witness, {"claim": "not-zero-product-determined"})


def is_zero_product_balanced(algebra: Algebra, report: ZeroProductSpanReport) -> Verdict:
    """Decide whether every shifted product tensor lies in the zero-product span.

    By trilinearity it suffices to test the basis triples.  One reduction per
    distinct defect decides membership and gives its decomposition, so a YES
    carries a membership certificate for every triple.  Only the first
    certificate of a nonzero defect stores its dense target; a zero defect
    and a later triple with the same defect carry none, since the verifier
    recomputes every triple's defect.  A triple with e_i e_j = 0 = e_j e_k
    has defect 0 and gets its certificate, with the terms `NO_TERMS`,
    without the defect being built.  A NO carries the one separating
    certificate of its refuted triple.  A YES obtained from a lower-bound
    span is still sound (membership in a subset implies membership); a NO
    needs the exhaustive span.
    """
    f = algebra.field
    d = algebra.dim
    ambient = d * d
    certs: List[Certificate] = []
    shown: Dict[frozenset, Sequence] = {frozenset(): NO_TERMS}  # defect -> its decomposition
    nz = algebra._nonzero
    for i in range(d):
        for j in range(d):
            vanishes = not nz[i][j]
            for k in range(d):
                if vanishes and not nz[j][k]:  # e_i e_j = 0 = e_j e_k: a zero defect
                    certs.append(Certificate(MEMBERSHIP, None, NO_TERMS, meta={"triple": [i, j, k]}))
                    continue
                t = _defect_tensor(algebra, i, j, k)
                key = frozenset(t.items())
                if key in shown:  # the verifier recomputes the defect from the triple
                    certs.append(Certificate(kind=MEMBERSHIP, target=None, terms=shown[key],
                                             meta={"triple": [i, j, k]}))
                    continue
                terms = report.membership_terms(t)
                if terms is not None:
                    shown[key] = terms
                    certs.append(Certificate(kind=MEMBERSHIP, target=_dense(f, t, ambient),
                                             terms=terms, meta={"triple": [i, j, k]}))
                    continue
                if report.status == EXACT:
                    return _refuted(report, _dense(f, t, ambient),
                                    {"claim": "not-zero-product-balanced", "triple": [i, j, k]})
                return Verdict(UNKNOWN, [],
                               f"membership failed against a lower-bound span: {_lower_bound_cause(report)}")
    return Verdict(YES, certs)
