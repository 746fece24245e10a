"""Finite-dimensional associative algebras presented by structure constants.

An algebra stores a d*d table of coordinate vectors: table[i][j] holds the
coordinates of the product of basis vectors i and j.  Associativity is
verified exhaustively at construction, on the nonzero entries of the
table; everything downstream assumes it.  The matrices of x -> ux and
x -> xu are built as nonzero rows in the representation `zpbal.linalg`
reduces: over F2 an int per row, the XOR of precomputed per-basis rows,
and otherwise a map {column: nonzero entry}.

Known idempotents can be registered on an algebra; the constructors carry
registries through so that idempotent-based strategies keep working over
infinite fields, where exhaustive enumeration is impossible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from zpbal.errors import (
    InfiniteFieldError,
    NotAnIdeal,
    NotAssociative,
    NotIdempotent,
    ParentMismatch,
)
from zpbal.fields import Field, Scalar
from zpbal.linalg import Matrix, Row, Sparse, SpanBuilder, Subspace, Vector, _dense, vec_is_zero


@dataclass
class Predicates:
    """Cached structural predicates of an algebra."""

    is_unital: bool
    unit: Optional[Tuple[Scalar, ...]]
    is_commutative: bool
    is_idempotent: bool
    is_faithful: bool
    has_zero_multiplication: bool


class Algebra:
    """Associative algebra over an exact field, given by structure constants."""

    def __init__(
        self,
        field: Field,
        basis_names: Sequence[str],
        table: Sequence[Sequence[Sequence[Scalar]]],
        check: bool = True,
    ):
        self.field = field
        self.names = list(basis_names)
        self.dim = len(self.names)
        if len(table) != self.dim or any(len(row) != self.dim for row in table):
            raise ValueError("structure-constant table has wrong shape")
        self.table = [[list(v) for v in row] for row in table]
        for row in self.table:
            for v in row:
                if len(v) != self.dim:
                    raise ValueError("structure-constant vector has wrong length")
        # nonzero[i][j]: the (k, c) with c != 0 in e_i e_j
        self._nonzero = [[[(k, c) for k, c in enumerate(v) if c != 0] for v in row] for row in self.table]
        if check:
            self._check_associative()
        self.registered_idempotents: List[Element] = []
        self._predicates: Optional[Predicates] = None
        self._bit_operators = self._packed_operators() if field.characteristic == 2 else None

    def _check_associative(self):
        """NotAssociative names the first (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k)."""
        f = self.field
        add, sub, mul, zero = f.add, f.sub, f.mul, f.zero
        nz = self._nonzero
        d = self.dim
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    diff: Dict[int, Scalar] = {}
                    for l, c in nz[i][j]:
                        for t, a in nz[l][k]:
                            diff[t] = add(diff.get(t, zero), mul(c, a))
                    for l, c in nz[j][k]:
                        for t, a in nz[i][l]:
                            diff[t] = sub(diff.get(t, zero), mul(c, a))
                    if any(diff.values()):
                        raise NotAssociative((i, j, k))

    # -- elements ---------------------------------------------------------

    def element(self, coords: Sequence[Scalar]) -> "Element":
        if len(coords) != self.dim:
            raise ValueError("coordinate length mismatch")
        return Element(self, tuple(coords))

    def basis_element(self, i: int) -> "Element":
        f = self.field
        return Element(self, tuple(f.one if j == i else f.zero for j in range(self.dim)))

    def zero_element(self) -> "Element":
        return Element(self, (self.field.zero,) * self.dim)

    def multiply_coords(self, u: Sequence[Scalar], v: Sequence[Scalar]) -> Vector:
        f = self.field
        out = [f.zero] * self.dim
        for i, a in enumerate(u):
            if a == 0:
                continue
            row = self.table[i]
            for j, b in enumerate(v):
                if b == 0:
                    continue
                ab = f.mul(a, b)
                for t, c in enumerate(row[j]):
                    if c != 0:
                        out[t] = f.add(out[t], f.mul(ab, c))
        return out

    def coord_tuples(self) -> Iterator[Tuple[Scalar, ...]]:
        """All coordinate tuples, lexicographically; finite fields only."""
        if not self.field.is_finite():
            raise InfiniteFieldError("cannot enumerate elements over an infinite field")
        return itertools.product(*[list(self.field.elements()) for _ in range(self.dim)])

    def n_elements(self) -> Optional[int]:
        if not self.field.is_finite():
            return None
        return self.field.characteristic ** self.dim

    # -- multiplication operators ------------------------------------------

    def _packed_operators(self) -> Tuple[List[List[Tuple[int, int]]], List[List[Tuple[int, int]]]]:
        """Over F2, the nonzero rows (k, bits over j) of L_{e_i} and of R_{e_i}, per i."""
        d = self.dim
        left: List[Dict[int, int]] = [{} for _ in range(d)]
        right: List[Dict[int, int]] = [{} for _ in range(d)]
        for i in range(d):
            for j in range(d):
                for k, _ in self._nonzero[i][j]:  # e_i e_j is column j of L_{e_i}, column i of R_{e_j}
                    left[i][k] = left[i].get(k, 0) | 1 << j
                    right[j][k] = right[j].get(k, 0) | 1 << i
        return [list(m.items()) for m in left], [list(m.items()) for m in right]

    def _operator_rows(self, u: Sequence[Scalar], left: bool) -> Dict[int, Row]:
        """Nonzero rows of the matrix of x -> u*x (left) or x -> x*u, keyed by k.

        Over F2 a row is an int with bit j set for each nonzero column j, the
        XOR of the rows of the basis operators that u sums; over every other
        field it is a map {j: nonzero entry}.
        """
        if self._bit_operators is not None:
            per_basis = self._bit_operators[0 if left else 1]
            bits: Dict[int, int] = {}
            for i, a in enumerate(u):
                if a:
                    for k, m in per_basis[i]:
                        bits[k] = bits.get(k, 0) ^ m
            return {k: m for k, m in bits.items() if m}  # sums may cancel
        f = self.field
        add, mul = f.add, f.mul
        rows: Dict[int, Sparse] = {}
        for i, a in enumerate(u):
            if a == 0:
                continue
            # column j is e_i e_j (left) or e_j e_i (right), scaled by a
            cells = self._nonzero[i] if left else [row[i] for row in self._nonzero]
            for j, cell in enumerate(cells):
                for k, c in cell:
                    row = rows.setdefault(k, {})
                    x = mul(a, c)
                    row[j] = add(row[j], x) if j in row else x
        out: Dict[int, Sparse] = {}
        for k, row in rows.items():
            row = {j: x for j, x in row.items() if x}  # sums may cancel
            if row:
                out[k] = row
        return out

    def left_mult_matrix(self, u: Sequence[Scalar]) -> Matrix:
        """Matrix of x -> u*x in the chosen basis."""
        f = self.field
        rows = self._operator_rows(u, True)
        zero = [f.zero] * self.dim
        return Matrix(f, [_dense(f, rows[k], self.dim) if k in rows else zero for k in range(self.dim)],
                      cols=self.dim)

    # -- predicates ---------------------------------------------------------

    def predicates(self) -> Predicates:
        if self._predicates is not None:
            return self._predicates
        f = self.field
        d = self.dim
        commutative = all(
            self.table[i][j] == self.table[j][i] for i in range(d) for j in range(i + 1, d)
        )
        zero_mult = all(vec_is_zero(self.table[i][j]) for i in range(d) for j in range(d))
        products = SpanBuilder(f, d)
        for i in range(d):
            for j in range(d):
                products.add(self.table[i][j])
        idempotent = products.dim == d

        # rows (j, k) of u -> (u e_j)_k and of u -> (e_j u)_k
        lmap_rows = [[self.table[i][j][k] for i in range(d)] for j in range(d) for k in range(d)]
        rmap_rows = [[self.table[j][i][k] for i in range(d)] for j in range(d) for k in range(d)]
        delta = [f.one if j == k else f.zero for j in range(d) for k in range(d)]
        # a unit solves u e_j = e_j = e_j u, and a two-sided unit is unique
        unit = Matrix(f, lmap_rows + rmap_rows, cols=d).solve(delta + delta) if d > 0 else None
        unital = unit is not None
        # faithful: no nonzero one-sided annihilator of the whole algebra
        faithful = (Matrix(f, lmap_rows, cols=d).rank() == d
                    and Matrix(f, rmap_rows, cols=d).rank() == d)

        self._predicates = Predicates(
            is_unital=unital,
            unit=tuple(unit) if unit is not None else None,
            is_commutative=commutative,
            is_idempotent=idempotent,
            is_faithful=faithful,
            has_zero_multiplication=zero_mult,
        )
        return self._predicates

    # -- idempotent registry --------------------------------------------------

    def register_idempotent(self, e: "Element"):
        if e.parent is not self:
            raise ParentMismatch("idempotent belongs to another algebra")
        if (e * e) != e:
            raise NotIdempotent(f"{e} is not idempotent")
        if not e.is_zero() and e not in self.registered_idempotents:
            self.registered_idempotents.append(e)

    def __eq__(self, other):
        return (
            isinstance(other, Algebra)
            and self.field == other.field
            and self.names == other.names
            and self.table == other.table
        )

    def __repr__(self):
        return f"Algebra(dim {self.dim} over {self.field.name}, basis {self.names})"


class Element:
    """Element of an algebra, held as an exact coordinate tuple."""

    __slots__ = ("parent", "coords")

    def __init__(self, parent: Algebra, coords: Tuple[Scalar, ...]):
        self.parent = parent
        self.coords = coords

    def _check(self, other: "Element"):
        if self.parent is not other.parent:
            raise ParentMismatch("elements of different algebras")

    def __add__(self, other):
        self._check(other)
        f = self.parent.field
        return Element(self.parent, tuple(f.add(a, b) for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        f = self.parent.field
        return Element(self.parent, tuple(f.sub(a, b) for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        f = self.parent.field
        return Element(self.parent, tuple(f.neg(a) for a in self.coords))

    def scale(self, c: Scalar) -> "Element":
        f = self.parent.field
        return Element(self.parent, tuple(f.mul(c, a) for a in self.coords))

    def __mul__(self, other):
        self._check(other)
        return Element(self.parent, tuple(self.parent.multiply_coords(self.coords, other.coords)))

    def power(self, m: int) -> "Element":
        """a^m for m >= 1, by square-and-multiply."""
        if m < 1:
            raise ValueError("power requires m >= 1")
        out, square = None, self
        while True:
            if m & 1:
                out = square if out is None else out * square
            m >>= 1
            if not m:
                return out
            square = square * square

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def is_nilpotent(self) -> bool:
        """a is nilpotent iff a^(2^k) = 0 with 2^k > dim, because a nilpotent a
        has a^(dim+1) = 0 (its nonzero powers are linearly independent)."""
        a = self
        for _ in range(self.parent.dim.bit_length()):
            if a.is_zero():
                return True
            a = a * a
        return a.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.parent is other.parent
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        f = self.parent.field
        terms = [
            f"{f.format(c)}*{name}"
            for c, name in zip(self.coords, self.parent.names)
            if c != 0
        ]
        return " + ".join(terms) if terms else "0"


def commutator(a: Element, b: Element) -> Element:
    """[a, b] = ab - ba."""
    return a * b - b * a


# ---------------------------------------------------------------------------
# constructors for the built-in families
# ---------------------------------------------------------------------------


def zero_algebra(field: Field, dim: int) -> Algebra:
    """dim-dimensional algebra with identically zero multiplication."""
    z = [field.zero] * dim
    table = [[list(z) for _ in range(dim)] for _ in range(dim)]
    return Algebra(field, [f"z{i+1}" for i in range(dim)], table, check=False)


def nilpotent_algebra(field: Field, order: int) -> Algebra:
    """Algebra generated by one nilpotent element x with x^order = 0.

    Basis x, x^2, ..., x^(order-1); dimension order-1.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    d = order - 1
    f = field
    names = ["x"] + [f"x^{k}" for k in range(2, order)]
    table = []
    for i in range(d):
        row = []
        for j in range(d):
            v = [f.zero] * d
            if i + j + 2 <= d:  # powers are 1-based: e_i = x^(i+1)
                v[i + j + 1] = f.one
            row.append(v)
        table.append(row)
    return Algebra(field, names, table)


def function_algebra(field: Field, n: int) -> Algebra:
    """K^n with pointwise multiplication (functions on n points)."""
    f = field
    table = []
    for i in range(n):
        row = []
        for j in range(n):
            v = [f.zero] * n
            if i == j:
                v[i] = f.one
            row.append(v)
        table.append(row)
    alg = Algebra(field, [f"e{i+1}" for i in range(n)], table, check=False)
    for i in range(n):
        alg.register_idempotent(alg.basis_element(i))
    return alg


def scalar_algebra(field: Field) -> Algebra:
    """The base field as a one-dimensional unital algebra."""
    alg = function_algebra(field, 1)
    alg.names = ["1"]
    return alg


def poly_quotient_algebra(field: Field, modulus: Sequence[Scalar], var: str = "t") -> Algebra:
    """K[t]/(m(t)) for a monic modulus, given by coefficients (constant first)."""
    f = field
    coeffs = [f.of_int(c) if isinstance(c, int) else c for c in modulus]
    if not coeffs or coeffs[-1] != f.one:
        raise ValueError("modulus must be monic")
    d = len(coeffs) - 1
    if d < 1:
        raise ValueError("modulus must have positive degree")
    # powers[k] = coordinates of t^k after reduction, for k < 2d-1
    powers = []
    for k in range(d):
        v = [f.zero] * d
        v[k] = f.one
        powers.append(v)
    for k in range(d, 2 * d - 1):
        prev = powers[k - 1]
        shifted = [f.zero] + prev[:-1]
        lead = prev[-1]
        v = [f.sub(a, f.mul(lead, c)) for a, c in zip(shifted, coeffs[:d])]
        powers.append(v)
    table = [[list(powers[i + j]) for j in range(d)] for i in range(d)]
    names = ["1"] + ([var] if d > 1 else []) + [f"{var}^{k}" for k in range(2, d)]
    alg = Algebra(field, names, table)
    alg.register_idempotent(alg.basis_element(0))
    return alg


def matrix_over(base: Algebra, n: int) -> Algebra:
    """n x n matrices with entries in a base algebra."""
    f = base.field
    dA = base.dim
    d = n * n * dA
    scalar_base = dA == 1 and base.names == ["1"]

    def idx(r, s, t):
        return (r * n + s) * dA + t

    names = []
    for r in range(n):
        for s in range(n):
            for t in range(dA):
                if scalar_base:
                    names.append(f"E{r+1}{s+1}")
                else:
                    names.append(f"E{r+1}{s+1}⊗{base.names[t]}")
    zero = [f.zero] * d
    table = [[list(zero) for _ in range(d)] for _ in range(d)]
    for r in range(n):
        for s in range(n):
            for t in range(dA):
                i = idx(r, s, t)
                for u in range(n):
                    for t2 in range(dA):
                        j = idx(s, u, t2)  # only E_rs * E_su survives
                        prod = base.table[t][t2]
                        v = table[i][j]
                        for t3, c in enumerate(prod):
                            if c != 0:
                                v[idx(r, u, t3)] = c
    alg = Algebra(base.field, names, table)
    bunit = base.predicates().unit
    if bunit is not None:
        def embed(mat_coords):
            v = [f.zero] * d
            for (r, s), c in mat_coords.items():
                for t, b in enumerate(bunit):
                    if b != 0 and c != 0:
                        v[idx(r, s, t)] = f.mul(c, b)
            return alg.element(v)

        for r in range(n):
            alg.register_idempotent(embed({(r, r): f.one}))
            for s in range(n):
                if s != r:
                    alg.register_idempotent(embed({(r, r): f.one, (r, s): f.one}))
    for e in base.registered_idempotents:
        for r in range(n):
            v = [f.zero] * d
            for t, c in enumerate(e.coords):
                v[idx(r, r, t)] = c
            alg.register_idempotent(alg.element(v))
    return alg


def matrix_algebra(field: Field, n: int) -> Algebra:
    """n x n matrices over the base field (matrix-unit basis)."""
    return matrix_over(scalar_algebra(field), n)


def direct_sum(left: Algebra, right: Algebra) -> Algebra:
    """External direct sum; cross products vanish."""
    if left.field != right.field:
        raise ValueError("direct sum requires a common base field")
    f = left.field
    dl, dr = left.dim, right.dim
    d = dl + dr
    names = [f"{nm}⊕0" for nm in left.names] + [f"0⊕{nm}" for nm in right.names]
    zero = [f.zero] * d
    table = [[list(zero) for _ in range(d)] for _ in range(d)]
    for i in range(dl):
        for j in range(dl):
            for k, c in enumerate(left.table[i][j]):
                table[i][j][k] = c
    for i in range(dr):
        for j in range(dr):
            for k, c in enumerate(right.table[i][j]):
                table[dl + i][dl + j][dl + k] = c
    alg = Algebra(f, names, table)
    for e in left.registered_idempotents:
        alg.register_idempotent(alg.element(list(e.coords) + [f.zero] * dr))
    for e in right.registered_idempotents:
        alg.register_idempotent(alg.element([f.zero] * dl + list(e.coords)))
    return alg


def tensor_product(left: Algebra, right: Algebra) -> Algebra:
    """Tensor product with multiplication (a⊗u)(b⊗v) = ab⊗uv."""
    if left.field != right.field:
        raise ValueError("tensor product requires a common base field")
    f = left.field
    dl, dr = left.dim, right.dim
    d = dl * dr
    names = [f"{a}⊗{b}" for a in left.names for b in right.names]
    zero = [f.zero] * d
    table = [[list(zero) for _ in range(d)] for _ in range(d)]
    for i in range(dl):
        for u in range(dr):
            for j in range(dl):
                for v in range(dr):
                    pl = left.table[i][j]
                    pr = right.table[u][v]
                    cell = table[i * dr + u][j * dr + v]
                    for k, c in enumerate(pl):
                        if c == 0:
                            continue
                        for w, e in enumerate(pr):
                            if e != 0:
                                cell[k * dr + w] = f.add(cell[k * dr + w], f.mul(c, e))
    alg = Algebra(f, names, table)
    for e in left.registered_idempotents:
        for g in right.registered_idempotents:
            v = [f.zero] * d
            for k, c in enumerate(e.coords):
                if c == 0:
                    continue
                for w, b in enumerate(g.coords):
                    if b != 0:
                        v[k * dr + w] = f.mul(c, b)
            alg.register_idempotent(alg.element(v))
    return alg


# ---------------------------------------------------------------------------
# ideals and quotients
# ---------------------------------------------------------------------------


def is_ideal(alg: Algebra, space: Subspace) -> Tuple[bool, Optional[Tuple[int, int, str]]]:
    """Whether the subspace is a two-sided ideal; witness (row, basis, side)."""
    for m, v in enumerate(space.basis):
        for i in range(alg.dim):
            ei = [alg.field.one if t == i else alg.field.zero for t in range(alg.dim)]
            if not space.contains_vector(alg.multiply_coords(v, ei)):
                return False, (m, i, "right")
            if not space.contains_vector(alg.multiply_coords(ei, v)):
                return False, (m, i, "left")
    return True, None


def ideal_closure(alg: Algebra, seeds: Sequence[Vector]) -> Subspace:
    """Smallest two-sided ideal containing the seed vectors."""
    f = alg.field
    builder = SpanBuilder(f, alg.dim)
    frontier = [list(s) for s in seeds if not vec_is_zero(s)]
    for s in frontier:
        builder.add(s)
    basis_vecs = [
        [f.one if t == i else f.zero for t in range(alg.dim)] for i in range(alg.dim)
    ]
    while frontier:
        new_frontier = []
        for v in frontier:
            for ei in basis_vecs:
                for w in (alg.multiply_coords(v, ei), alg.multiply_coords(ei, v)):
                    if builder.add(w):
                        new_frontier.append(w)
        frontier = new_frontier
    return builder.to_subspace()


@dataclass
class Quotient:
    """Quotient algebra with the projection and a linear section."""

    algebra: Algebra
    projection: Matrix  # q.dim x a.dim
    section: Matrix  # a.dim x q.dim; projection @ section = identity
    ideal: Subspace
    parent: Algebra

    def project(self, a: Element) -> Element:
        return self.algebra.element(self.projection.apply(list(a.coords)))

    def lift(self, q: Element) -> Element:
        return self.parent.element(self.section.apply(list(q.coords)))


def quotient_algebra(alg: Algebra, ideal: Subspace) -> Quotient:
    """Quotient by a verified two-sided ideal."""
    ok, witness = is_ideal(alg, ideal)
    if not ok:
        raise NotAnIdeal(witness)
    f = alg.field
    d = alg.dim
    pivot_set = set(ideal.pivots)
    complement = [i for i in range(d) if i not in pivot_set]
    dq = len(complement)

    def reduce_coords(v: Vector) -> Vector:
        r = ideal.residual(v)
        return [r[c] for c in complement]

    proj_rows = []
    for k in range(dq):
        proj_rows.append([])
    for i in range(d):
        ei = [f.one if t == i else f.zero for t in range(d)]
        col = reduce_coords(ei)
        for k in range(dq):
            proj_rows[k].append(col[k])
    projection = Matrix(f, proj_rows, cols=d)

    sec_rows = [[f.zero] * dq for _ in range(d)]
    for k, c in enumerate(complement):
        sec_rows[c][k] = f.one
    section = Matrix(f, sec_rows, cols=dq)

    table = []
    for a in range(dq):
        row = []
        for b in range(dq):
            prod = alg.table[complement[a]][complement[b]]
            row.append(reduce_coords(prod))
        table.append(row)
    names = [alg.names[c] + "~" for c in complement]
    q = Algebra(f, names, table)
    quot = Quotient(algebra=q, projection=projection, section=section, ideal=ideal, parent=alg)
    for e in alg.registered_idempotents:
        img = q.element(projection.apply(list(e.coords)))
        if not img.is_zero() and (img * img) == img:
            q.register_idempotent(img)
    return quot
