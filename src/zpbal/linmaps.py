"""Linear maps between algebras: zero-product preservation, the three-slot
product-shift law pi(ab)pi(c) = pi(a)pi(bc) ("semimultiplicative"), and the
constructive factorization of such surjections as weight ∘ homomorphism.

The factorization builds the connecting map T from the basis-pair relations
T(pi(e_i)pi(e_j)) = pi(e_i e_j) by exact linear solving and then re-verifies
every claimed property (centralizer identities, bijectivity, multiplicativity
of the homomorphism part) rather than trusting the derivation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from zpbal.algebra import Algebra, Element, Quotient, quotient_algebra
from zpbal.errors import (
    HypothesisFailed,
    NotSemimultiplicative,
    SoundnessAlarm,
    SpanDeficient,
)
from zpbal.linalg import Matrix, SpanBuilder, Subspace, Vector, vec_is_zero
from zpbal.tensorsquare import NO, UNKNOWN, YES, ZeroProductSpanReport


@dataclass
class AlgMap:
    """Linear map between algebras over one field; columns are basis images."""

    source: Algebra
    target: Algebra
    matrix: Matrix  # target.dim rows, source.dim columns

    def __post_init__(self):
        if self.source.field != self.target.field:
            raise ValueError("source and target must share the base field")
        if self.matrix.nrows != self.target.dim or self.matrix.ncols != self.source.dim:
            raise ValueError("map matrix has wrong shape")

    def apply(self, a: Element) -> Element:
        return self.target.element(self.matrix.apply(list(a.coords)))

    def apply_coords(self, coords) -> Vector:
        return self.matrix.apply(list(coords))

    def basis_image(self, i: int) -> Vector:
        return self.matrix.column(i)

    def rank(self) -> int:
        return self.matrix.rank()

    def is_surjective(self) -> bool:
        return self.rank() == self.target.dim

    def is_bijective(self) -> bool:
        return self.source.dim == self.target.dim and self.is_surjective()

    def kernel_subspace(self) -> Subspace:
        return self.matrix.kernel()

    def is_multiplicative(self) -> Optional[Tuple[int, int]]:
        """None if pi(e_i e_j) = pi(e_i)pi(e_j) everywhere, else a witness pair."""
        src, tgt = self.source, self.target
        for i in range(src.dim):
            for j in range(src.dim):
                lhs = self.apply_coords(src.table[i][j])
                rhs = tgt.multiply_coords(self.basis_image(i), self.basis_image(j))
                if lhs != rhs:
                    return (i, j)
        return None


def semimultiplicative_witness(f: AlgMap) -> Optional[Tuple[int, int, int]]:
    """First basis triple violating pi(ab)pi(c) = pi(a)pi(bc), or None.

    Basis triples suffice by trilinearity of both sides.
    """
    src, tgt = f.source, f.target
    d = src.dim
    images = [f.basis_image(i) for i in range(d)]
    prod_images = [[f.apply_coords(src.table[i][j]) for j in range(d)] for i in range(d)]
    for i in range(d):
        for j in range(d):
            lhs_left = prod_images[i][j]
            for k in range(d):
                lhs = tgt.multiply_coords(lhs_left, images[k])
                rhs = tgt.multiply_coords(images[i], prod_images[j][k])
                if lhs != rhs:
                    return (i, j, k)
    return None


def is_semimultiplicative(f: AlgMap) -> bool:
    return semimultiplicative_witness(f) is None


@dataclass
class ZeroProductPreservingVerdict:
    status: str  # YES / NO / UNKNOWN
    witness: Optional[Tuple[tuple, tuple]] = None  # pair with uv = 0, pi(u)pi(v) != 0
    note: str = ""


def is_zero_product_preserving(f: AlgMap, source_span: ZeroProductSpanReport) -> ZeroProductPreservingVerdict:
    """Whether uv = 0 forces pi(u)pi(v) = 0, decided against the known span.

    The induced linear map on the tensor square kills the span iff it kills
    the recorded generators, and each violated generator is itself an honest
    zero-product pair, hence a concrete witness.
    """
    tgt = f.target
    for u, v in source_span.generators:
        img = tgt.multiply_coords(f.apply_coords(u), f.apply_coords(v))
        if not vec_is_zero(img):
            return ZeroProductPreservingVerdict(NO, witness=(u, v))
    if source_span.is_complete:
        return ZeroProductPreservingVerdict(YES)
    return ZeroProductPreservingVerdict(
        UNKNOWN,
        note="all recorded zero-product generators are preserved, but the span is only a lower bound",
    )


@dataclass
class WeightedFactorization:
    """pi = S ∘ pi0 with pi0 a surjective homomorphism and S = T^-1 a
    bijective centralizer; T satisfies T(pi(a)pi(b)) = pi(ab)."""

    pi: AlgMap
    pi0: AlgMap
    T: Matrix
    S: Matrix
    kernel_ideal: Subspace
    quotient: Quotient
    quotient_iso: AlgMap  # induced isomorphism source/kernel -> target


def _centralizer_witness(tgt: Algebra, T: Matrix) -> Optional[Tuple[int, int]]:
    """First basis pair violating T(bc) = T(b)c or T(cb) = cT(b)."""
    d = tgt.dim
    cols = [T.column(j) for j in range(d)]
    for b in range(d):
        for c in range(d):
            prod = tgt.table[b][c]
            lhs = T.apply(prod)
            eb = [tgt.field.one if t == b else tgt.field.zero for t in range(d)]
            ec = [tgt.field.one if t == c else tgt.field.zero for t in range(d)]
            if lhs != tgt.multiply_coords(cols[b], ec):
                return (b, c)
            prod2 = tgt.table[c][b]
            if T.apply(prod2) != tgt.multiply_coords(ec, cols[b]):
                return (c, b)
    return None


def weighted_factorization(f: AlgMap) -> WeightedFactorization:
    """Factor a surjective, semimultiplicative map as weight ∘ epimorphism.

    Hypotheses (verified, named): source and target idempotent, target
    faithful, map surjective.  Inconsistency of the defining relations for T
    is equivalent to failure of the product-shift law, reported as
    NotSemimultiplicative with a witness triple.
    """
    src, tgt = f.source, f.target
    fld = src.field
    if not src.predicates().is_idempotent:
        raise HypothesisFailed("source not idempotent")
    if not tgt.predicates().is_idempotent:
        raise HypothesisFailed("target not idempotent")
    if not tgt.predicates().is_faithful:
        raise HypothesisFailed("target not faithful")
    if not f.is_surjective():
        raise HypothesisFailed("map not surjective")

    def fail():
        witness = semimultiplicative_witness(f)
        if witness is None:
            raise SoundnessAlarm(
                "factorization verification failed for a semimultiplicative surjection"
            )
        raise NotSemimultiplicative(witness)

    dB = tgt.dim
    d = src.dim
    images = [f.basis_image(i) for i in range(d)]
    builder = SpanBuilder(fld, dB, track_expressions=True)
    defining: List[Tuple[Vector, Vector]] = []  # (pi(e_i)pi(e_j), pi(e_i e_j)) retained
    for i in range(d):
        for j in range(d):
            v = tgt.multiply_coords(images[i], images[j])
            w = f.apply_coords(src.table[i][j])
            if builder.add(v):
                defining.append((v, w))
            else:
                combo = builder.generator_coefficients(v)
                expected = [fld.zero] * dB
                for g, lam in combo.items():
                    for t, a in enumerate(defining[g][1]):
                        if a != 0:
                            expected[t] = fld.add(expected[t], fld.mul(lam, a))
                if expected != w:
                    fail()
    if builder.dim != dB:
        raise SpanDeficient("products of images do not span the target")

    cols = []
    for k in range(dB):
        ek = [fld.one if t == k else fld.zero for t in range(dB)]
        combo = builder.generator_coefficients(ek)
        col = [fld.zero] * dB
        for g, lam in combo.items():
            for t, a in enumerate(defining[g][1]):
                if a != 0:
                    col[t] = fld.add(col[t], fld.mul(lam, a))
        cols.append(col)
    T = Matrix.from_columns(fld, cols, dB)

    if _centralizer_witness(tgt, T) is not None:
        fail()
    S = T.inverse()
    if S is None:
        fail()
    pi0 = AlgMap(src, tgt, T.mul(f.matrix))
    if pi0.is_multiplicative() is not None:
        fail()
    # weight identity: S(pi(e_i e_j)) = pi(e_i)pi(e_j) on basis pairs
    for i in range(d):
        for j in range(d):
            lhs = S.apply(f.apply_coords(src.table[i][j]))
            rhs = tgt.multiply_coords(images[i], images[j])
            if lhs != rhs:
                fail()

    kernel = f.kernel_subspace()
    quot = quotient_algebra(src, kernel)
    iso_cols = [pi0.apply_coords(quot.section.column(k)) for k in range(quot.algebra.dim)]
    iso = AlgMap(quot.algebra, tgt, Matrix.from_columns(fld, iso_cols, dB))
    if not iso.is_bijective() or iso.is_multiplicative() is not None:
        raise SoundnessAlarm("induced quotient map is not an isomorphism")
    return WeightedFactorization(pi=f, pi0=pi0, T=T, S=S, kernel_ideal=kernel,
                                 quotient=quot, quotient_iso=iso)


def zp_implies_weighted(
    f: AlgMap,
    source_span: ZeroProductSpanReport,
    balanced_status: str,
) -> WeightedFactorization:
    """Factorization guaranteed for zero-product preserving surjections out of
    a balanced algebra; any NotSemimultiplicative outcome under the verified
    hypotheses falsifies a certificate chain and is escalated.
    """
    if balanced_status != YES:
        raise HypothesisFailed("source not certified zero-product balanced")
    zp = is_zero_product_preserving(f, source_span)
    if zp.status == NO:
        raise HypothesisFailed("map does not preserve zero products")
    if zp.status == UNKNOWN:
        raise HypothesisFailed("zero-product preservation not certified (span is a lower bound)")
    try:
        return weighted_factorization(f)
    except NotSemimultiplicative as exc:
        raise SoundnessAlarm(
            f"zero-product preserving map out of a balanced algebra failed to factor: {exc}"
        ) from exc
