"""Finite-dimensional associative algebras presented by structure constants.

An algebra stores a d*d table of coordinate vectors: table[i][j] holds the
coordinates of the product of basis vectors i and j.  Associativity is
verified exhaustively at construction, on the nonzero entries of the
table; everything downstream assumes it.  The matrices of x -> ux and
x -> xu are built as nonzero rows in the representation `zpbal.linalg`
reduces: over F2 an int per row, the XOR of precomputed per-basis rows,
and otherwise a map {column: nonzero entry}.  Only the methods that reduce
import `zpbal.linalg`, so loading and multiplying, all that `zpbal verify`
asks of an algebra, load no linear algebra.

Known idempotents can be registered on an algebra; the constructors in
`zpbal.constructions` carry registries through so that idempotent-based
strategies keep working over infinite fields, where exhaustive enumeration is
impossible.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from zpbal.errors import InfiniteFieldError, NotAssociative, NotIdempotent, ParentMismatch
from zpbal.fields import Field, Scalar, _dense

if TYPE_CHECKING:
    from zpbal.linalg import Matrix, Row, Sparse, Vector


class Predicates(NamedTuple):
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
        self._check_associative()
        self.registered_idempotents: List[Element] = []
        self._predicates: Optional[Predicates] = None
        self._bit_operators = self._packed_operators() if field.characteristic == 2 else None

    def _check_associative(self):
        """NotAssociative names the first (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k).

        A triple with e_i e_j = 0 = e_j e_k has both sides 0 and is passed over.
        """
        f = self.field
        add, sub, mul, zero = f.add, f.sub, f.mul, f.zero
        nz = self._nonzero
        d = self.dim
        every = range(d)
        right = [[k for k in every if nz[j][k]] for j in every]  # the k with e_j e_k != 0
        for i in every:
            for j in every:
                for k in every if nz[i][j] else right[j]:
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
        """uv in coordinates, from the nonzero structure constants."""
        f = self.field
        out = [f.zero] * self.dim
        right = [(j, b) for j, b in enumerate(v) if b]
        for i, a in enumerate(u):
            if not a:
                continue
            row = self._nonzero[i]
            for j, b in right:
                ab = f.mul(a, b)
                for t, c in row[j]:
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
            if not a:
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
        from zpbal.linalg import Matrix

        f = self.field
        rows = self._operator_rows(u, True)
        zero = [f.zero] * self.dim
        return Matrix(f, [_dense(f, rows[k], self.dim) if k in rows else zero for k in range(self.dim)],
                      cols=self.dim)

    # -- predicates ---------------------------------------------------------

    def predicates(self) -> Predicates:
        """From the nonzero structure constants: a unit solves u e_j = e_j =
        e_j u, with rows (j, k) of u -> (u e_j)_k and of u -> (e_j u)_k, and
        is unique when it exists; A is faithful when each of those two row
        sets has rank d, and idempotent when A² = A."""
        if self._predicates is not None:
            return self._predicates
        from zpbal.linalg import SpanBuilder

        f, d, nz = self.field, self.dim, self._nonzero
        commutative = all(
            self.table[i][j] == self.table[j][i] for i in range(d) for j in range(i + 1, d)
        )
        idempotent = SpanBuilder(f, d, (dict(v) for row in nz for v in row if v)).dim == d
        lrows: Dict[Tuple[int, int], Sparse] = {}  # (j, k) -> {i: (e_i e_j)_k}
        rrows: Dict[Tuple[int, int], Sparse] = {}  # (j, k) -> {i: (e_j e_i)_k}
        for i in range(d):
            for j in range(d):
                for k, c in nz[i][j]:
                    lrows.setdefault((j, k), {})[i] = c
                    rrows.setdefault((i, k), {})[j] = c
        faithful = SpanBuilder(f, d, lrows.values()).dim == d == SpanBuilder(f, d, rrows.values()).dim
        # each row with its right-hand side, 1 for k = j and 0 otherwise, at column d
        system = SpanBuilder(f, d + 1, (row for rows in (lrows, rrows) for (j, k), row in rows.items() if j != k))
        for rows in (lrows, rrows):
            for j in range(d):
                system.add({**rows.get((j, j), {}), d: f.one})
        unit = None
        if d and d not in system.pivots:  # consistent: the free coordinates are 0
            unit = [f.zero] * d
            for p, row in zip(system.pivots, system.basis):
                unit[p] = row[d]

        self._predicates = Predicates(
            is_unital=unit is not None,
            unit=tuple(unit) if unit is not None else None,
            is_commutative=commutative,
            is_idempotent=idempotent,
            is_faithful=faithful,
            has_zero_multiplication=not any(map(any, nz)),
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
        return not any(self.coords)

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
