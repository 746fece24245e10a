"""Multiplier algebras, transferable elements, and idempotent certificates.

A multiplier of an algebra is a pair (L, R) of linear maps satisfying
x·L(y) = R(x)·y, L(xy) = L(x)·y and R(xy) = x·R(y); the pairs form a unital
algebra under (L1,R1)(L2,R2) = (L1·L2, R2·R1).  Idempotent multipliers are
always *transferable* (their shifted product tensors fall in the
zero-product span, with an explicit two-term decomposition), which yields a
balancedness certificate that bypasses the span computation entirely: an
algebra contained in the subalgebra of its multiplier algebra generated by
idempotents is zero-product balanced.

No `zpbal` command runs this module; the tests keep it as a reference for
the multiplier results and for `oracles.enumerate_idempotents`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from zpbal.algebra import Algebra, Element
from zpbal.errors import NotIdempotent
from zpbal.linalg import Matrix, SpanBuilder, Subspace, Vector
from zpbal.tensorsquare import (
    MEMBERSHIP,
    Certificate,
    ZeroProductSpanReport,
)


class MultiplierAlgebra:
    """The algebra of multiplier pairs, computed as an explicit linear carrier.

    Carrier vectors flatten L row-major, then R row-major (length 2*d*d).
    """

    def __init__(self, parent: Algebra, carrier: Subspace):
        self.parent = parent
        self.carrier = carrier
        d = parent.dim
        f = parent.field
        basis_pairs = [self._split(v) for v in carrier.basis]
        dm = carrier.dim
        table = []
        for a in range(dm):
            row = []
            for b in range(dm):
                prod = self._pair_product(basis_pairs[a], basis_pairs[b])
                row.append(carrier.coefficients(self._flatten(prod)))
            table.append(row)
        self.algebra = Algebra(f, [f"m{k+1}" for k in range(dm)], table)
        # canonical map a -> (left mult by a, right mult by a)
        cols = []
        for i in range(d):
            ei = [f.one if t == i else f.zero for t in range(d)]
            vec = self._flatten((parent.left_mult_matrix(ei), parent.right_mult_matrix(ei)))
            cols.append(carrier.coefficients(vec))
        self.mu_matrix = Matrix.from_columns(f, cols, dm)
        for e in parent.registered_idempotents:
            img = self.mu(e)
            if not img.is_zero() and (img * img) == img:
                self.algebra.register_idempotent(img)
        unit_vec = self._flatten((Matrix.identity(f, d), Matrix.identity(f, d)))
        if carrier.contains_vector(unit_vec):
            one = self.algebra.element(carrier.coefficients(unit_vec))
            self.algebra.register_idempotent(one)

    @property
    def dim(self) -> int:
        return self.carrier.dim

    def _split(self, v: Vector) -> Tuple[Matrix, Matrix]:
        d = self.parent.dim
        L = Matrix(self.parent.field, [v[r * d:(r + 1) * d] for r in range(d)], cols=d)
        off = d * d
        R = Matrix(self.parent.field, [v[off + r * d:off + (r + 1) * d] for r in range(d)], cols=d)
        return L, R

    def _flatten(self, pair: Tuple[Matrix, Matrix]) -> Vector:
        L, R = pair
        out = []
        for row in L.rows:
            out.extend(row)
        for row in R.rows:
            out.extend(row)
        return out

    @staticmethod
    def _pair_product(p1: Tuple[Matrix, Matrix], p2: Tuple[Matrix, Matrix]) -> Tuple[Matrix, Matrix]:
        L1, R1 = p1
        L2, R2 = p2
        return L1.mul(L2), R2.mul(R1)

    def mu(self, a: Element) -> Element:
        """Canonical image of an algebra element among the multipliers."""
        return self.algebra.element(self.mu_matrix.apply(list(a.coords)))

    def mu_kernel(self) -> Subspace:
        """Kernel of the canonical map: the two-sided annihilators."""
        return self.mu_matrix.kernel()


def multiplier_algebra(parent: Algebra) -> MultiplierAlgebra:
    """Solve the three defining identities (linear in (L, R)) on basis pairs."""
    f = parent.field
    d = parent.dim
    n2 = d * d
    rows: List[Vector] = []
    table = parent.table
    for i in range(d):
        for j in range(d):
            for k in range(d):
                # identity 1: e_i L(e_j) = R(e_i) e_j, coordinate k
                row = [f.zero] * (2 * n2)
                for l in range(d):
                    c = table[i][l][k]
                    if c != 0:
                        row[l * d + j] = f.add(row[l * d + j], c)
                    c = table[l][j][k]
                    if c != 0:
                        row[n2 + l * d + i] = f.sub(row[n2 + l * d + i], c)
                rows.append(row)
                # identity 2: L(e_i e_j) = L(e_i) e_j, coordinate k
                row = [f.zero] * (2 * n2)
                for t, c in enumerate(table[i][j]):
                    if c != 0:
                        row[k * d + t] = f.add(row[k * d + t], c)
                for l in range(d):
                    c = table[l][j][k]
                    if c != 0:
                        row[l * d + i] = f.sub(row[l * d + i], c)
                rows.append(row)
                # identity 3: R(e_i e_j) = e_i R(e_j), coordinate k
                row = [f.zero] * (2 * n2)
                for t, c in enumerate(table[i][j]):
                    if c != 0:
                        row[n2 + k * d + t] = f.add(row[n2 + k * d + t], c)
                for l in range(d):
                    c = table[i][l][k]
                    if c != 0:
                        row[n2 + l * d + j] = f.sub(row[n2 + l * d + j], c)
                rows.append(row)
    carrier = Matrix(f, rows, cols=2 * n2).kernel()
    return MultiplierAlgebra(parent, carrier)


# ---------------------------------------------------------------------------
# transferable elements
# ---------------------------------------------------------------------------


@dataclass
class TransferableReport:
    """Solution space of the transfer condition against the known span.

    With a complete span this is exactly the transferable set; with a lower
    bound it is a certified subset (flag certified="partial").
    """

    subspace: Subspace
    scope: str  # "inner" | "multiplier"
    certified: str  # "exact" | "partial"
    closed_under_products: bool


def transferable_elements(
    algebra: Algebra,
    report: ZeroProductSpanReport,
    scope: str = "inner",
    mult: Optional[MultiplierAlgebra] = None,
) -> TransferableReport:
    """Elements b with ab⊗c - a⊗bc in the zero-product span for all a, c.

    scope "inner" solves inside the algebra; scope "multiplier" inside the
    multiplier carrier, reading ab as R(a) and bc as L(c).
    """
    f = algebra.field
    d = algebra.dim
    functionals = report.subspace.complement_functionals()
    rows: List[Vector] = []
    if scope == "inner":
        unknowns = d
        for phi in functionals:
            for i in range(d):
                for k in range(d):
                    row = []
                    for l in range(d):
                        acc = f.zero
                        for s, c in enumerate(algebra.table[i][l]):
                            if c != 0 and phi[s * d + k] != 0:
                                acc = f.add(acc, f.mul(phi[s * d + k], c))
                        for t, c in enumerate(algebra.table[l][k]):
                            if c != 0 and phi[i * d + t] != 0:
                                acc = f.sub(acc, f.mul(phi[i * d + t], c))
                        row.append(acc)
                    rows.append(row)
        space = Matrix(f, rows, cols=unknowns).kernel()
        closed = all(
            space.contains_vector(algebra.multiply_coords(u, v))
            for u in space.basis
            for v in space.basis
        )
    elif scope == "multiplier":
        if mult is None:
            mult = multiplier_algebra(algebra)
        pairs = [mult._split(v) for v in mult.carrier.basis]
        unknowns = mult.dim
        for phi in functionals:
            for i in range(d):
                for k in range(d):
                    row = []
                    for L, R in pairs:
                        acc = f.zero
                        for s in range(d):
                            c = R.rows[s][i]
                            if c != 0 and phi[s * d + k] != 0:
                                acc = f.add(acc, f.mul(phi[s * d + k], c))
                        for t in range(d):
                            c = L.rows[t][k]
                            if c != 0 and phi[i * d + t] != 0:
                                acc = f.sub(acc, f.mul(phi[i * d + t], c))
                        row.append(acc)
                    rows.append(row)
        space = Matrix(f, rows, cols=unknowns).kernel()
        closed = all(
            space.contains_vector(list((mult.algebra.element(u) * mult.algebra.element(v)).coords))
            for u in space.basis
            for v in space.basis
        )
    else:
        raise ValueError(f"unknown scope {scope!r}")
    certified = "exact" if report.is_complete else "partial"
    return TransferableReport(subspace=space, scope=scope, certified=certified,
                              closed_under_products=closed)


def idempotent_transfer_witness(
    algebra: Algebra,
    e: Union[Element, Tuple[Matrix, Matrix]],
    a: Element,
    c: Element,
) -> Certificate:
    """Two-term decomposition of ae⊗c - a⊗ec for an idempotent e.

    Splits as ae⊗(c-ec) + (ae-a)⊗ec; both pairs multiply to zero because
    e is idempotent.
    """
    if isinstance(e, Element):
        if (e * e) != e:
            raise NotIdempotent("e*e != e")
        ae = a * e
        ec = e * c
    else:
        L, R = e
        if L.mul(L) != L or R.mul(R) != R:
            raise NotIdempotent("multiplier pair is not idempotent")
        ae = algebra.element(R.apply(list(a.coords)))
        ec = algebra.element(L.apply(list(c.coords)))
    f = algebra.field
    d = algebra.dim
    target = [f.zero] * (d * d)
    for i, x in enumerate(ae.coords):
        if x != 0:
            for j, y in enumerate(c.coords):
                if y != 0:
                    target[i * d + j] = f.add(target[i * d + j], f.mul(x, y))
    for i, x in enumerate(a.coords):
        if x != 0:
            for j, y in enumerate(ec.coords):
                if y != 0:
                    target[i * d + j] = f.sub(target[i * d + j], f.mul(x, y))
    terms = [
        (f.one, ae.coords, (c - ec).coords),
        (f.one, (ae - a).coords, ec.coords),
    ]
    return Certificate(kind=MEMBERSHIP, target=target, terms=terms,
                       meta={"claim": "idempotent-transfer"})


# ---------------------------------------------------------------------------
# idempotent generation certificates
# ---------------------------------------------------------------------------


@dataclass
class GeneratedResult:
    status: str  # "CONTAINED" | "NOT_BY_THESE"
    generated: Subspace  # inside the multiplier algebra coordinates
    dimension_trace: List[int]  # per closure round
    missing_basis: List[int]  # parent basis indices whose image falls outside


def idempotent_generated_certificate(
    algebra: Algebra,
    idempotents: Sequence[Element],
    mult: Optional[MultiplierAlgebra] = None,
) -> GeneratedResult:
    """Test containment of the algebra in the multiplier subalgebra generated
    by the given idempotents.

    CONTAINED certifies zero-product balancedness without any span sweep.
    """
    if mult is None:
        mult = multiplier_algebra(algebra)
    malg = mult.algebra
    gens: List[Element] = []
    for idx, e in enumerate(idempotents):
        if isinstance(e, Element) and e.parent is algebra:
            m = mult.mu(e)
        elif isinstance(e, Element) and e.parent is malg:
            m = e
        else:
            raise ValueError(f"idempotent #{idx} belongs to neither the algebra nor its multipliers")
        if (m * m) != m:
            raise NotIdempotent(f"idempotent #{idx} fails e*e = e")
        gens.append(m)
    f = algebra.field
    builder = SpanBuilder(f, malg.dim)
    for g in gens:
        builder.add(list(g.coords))
    trace = [builder.dim]
    stable = False
    while not stable:
        stable = True
        current = [list(r) for r in builder.rows]
        for u in current:
            for v in current:
                if builder.add(malg.multiply_coords(u, v)):
                    stable = False
        trace.append(builder.dim)
    generated = builder.to_subspace()
    missing = [
        i for i in range(algebra.dim)
        if not generated.contains_vector(list(mult.mu(algebra.basis_element(i)).coords))
    ]
    status = "CONTAINED" if not missing else "NOT_BY_THESE"
    return GeneratedResult(status=status, generated=generated, dimension_trace=trace,
                           missing_basis=missing)
