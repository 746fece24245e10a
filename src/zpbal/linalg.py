"""Exact dense linear algebra over a base field.

Vectors are plain lists of scalars; matrices are row-major lists of rows.
Subspaces are kept in reduced row-echelon form, so subspace equality is
grid equality and coefficient extraction is a direct read-off.

All row reduction goes through one private loop, `_eliminate`: the span
builder's forward reduction and back-elimination, membership tests,
coefficient extraction and residuals modulo a subspace.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from zpbal.errors import AmbientMismatch, ExpressionsNotTracked
from zpbal.fields import Field, Scalar

Vector = List[Scalar]


def vec_scale(field, c, u):
    return [field.mul(c, a) for a in u]


def vec_is_zero(u) -> bool:
    return not any(u)  # int residues and Fractions are falsy exactly at zero


def _eliminate(field: Field, rows: Sequence[Vector], pivots: Sequence[int], v: Vector,
               coeffs: Optional[List[Tuple[int, Scalar]]] = None) -> Vector:
    """Residual of a copy of v after subtracting multiples of RREF rows.

    Each row has a 1 at its pivot and zeros at the other rows' pivots, so the
    multiple of a row is the residual's entry at its pivot.  When `coeffs` is
    given, (row index, multiple) is appended for each row used, that is each
    row whose multiple is nonzero, in row order.
    """
    sub, mul = field.sub, field.mul
    v = list(v)
    n = len(v)
    for idx, p in enumerate(pivots):
        c = v[p]
        if not c:
            continue
        if coeffs is not None:
            coeffs.append((idx, c))
        row = rows[idx]
        for j in range(p, n):
            if row[j] != 0:
                v[j] = sub(v[j], mul(c, row[j]))
    return v


def rref(rows: Sequence[Vector], field: Field) -> Tuple[List[Vector], List[int]]:
    """Reduced row-echelon form; returns (nonzero rows, pivot columns)."""
    builder = SpanBuilder(field, len(rows[0]) if rows else 0)
    for r in rows:
        builder.add(r)
    return builder.rows, builder.pivots


class Matrix:
    """Dense matrix with exact entries over a fixed field."""

    def __init__(self, field: Field, rows: Sequence[Sequence[Scalar]], cols: Optional[int] = None):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        if self.rows:
            self.ncols = len(self.rows[0])
            if any(len(r) != self.ncols for r in self.rows):
                raise ValueError("ragged matrix")
        else:
            self.ncols = 0 if cols is None else cols

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        rows = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
        return cls(field, rows, cols=n)

    @classmethod
    def from_columns(cls, field: Field, columns: Sequence[Vector], nrows: int) -> "Matrix":
        rows = [[col[i] for col in columns] for i in range(nrows)]
        return cls(field, rows, cols=len(columns))

    def column(self, j: int) -> Vector:
        return [r[j] for r in self.rows]

    def apply(self, v: Vector) -> Vector:
        """Matrix-vector product."""
        f = self.field
        out = []
        for row in self.rows:
            acc = f.zero
            for a, x in zip(row, v):
                if a != 0 and x != 0:
                    acc = f.add(acc, f.mul(a, x))
            out.append(acc)
        return out

    def mul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch in matrix product")
        f = self.field
        out = []
        for row in self.rows:
            new = [f.zero] * other.ncols
            for k, a in enumerate(row):
                if a == 0:
                    continue
                orow = other.rows[k]
                for j, b in enumerate(orow):
                    if b != 0:
                        new[j] = f.add(new[j], f.mul(a, b))
            out.append(new)
        return Matrix(f, out, cols=other.ncols)

    def scale(self, c: Scalar) -> "Matrix":
        f = self.field
        return Matrix(f, [vec_scale(f, c, r) for r in self.rows], cols=self.ncols)

    def rank(self) -> int:
        return len(rref(self.rows, self.field)[0])

    def kernel(self) -> "Subspace":
        """Null space {v : self @ v = 0} as a row-reduced subspace."""
        f = self.field
        rows, pivots = rref(self.rows, f)
        pivot_set = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivot_set]
        basis = []
        for j in free:
            v = [f.zero] * self.ncols
            v[j] = f.one
            for row, p in zip(rows, pivots):
                if row[j] != 0:
                    v[p] = f.neg(row[j])
            basis.append(v)
        return Subspace(f, self.ncols, basis)

    def solve(self, b: Vector) -> Optional[Vector]:
        """One exact solution of self @ x = b, or None when inconsistent."""
        f = self.field
        builder = SpanBuilder(f, self.ncols + 1)
        for row, rhs in zip(self.rows, b):
            builder.add(list(row) + [rhs])
        x = [f.zero] * self.ncols
        for row, p in zip(builder.rows, builder.pivots):
            if p == self.ncols:
                return None
            x[p] = row[self.ncols]
        return x

    def inverse(self) -> Optional["Matrix"]:
        """Exact inverse, or None when singular."""
        if self.nrows != self.ncols:
            return None
        f = self.field
        n = self.nrows
        builder = SpanBuilder(f, 2 * n)
        ident = Matrix.identity(f, n)
        for row, erow in zip(self.rows, ident.rows):
            builder.add(list(row) + list(erow))
        if builder.pivots[:n] != list(range(n)) or len(builder.rows) != n:
            return None
        return Matrix(f, [r[n:] for r in builder.rows], cols=n)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field.name})"


class SpanBuilder:
    """Incremental span accumulator kept in reduced row-echelon form.

    `add` reports whether the vector enlarged the span.  With
    `track_expressions=True` each row also carries its expression over the
    retained (span-enlarging) input vectors, so members of the span can be
    written exactly in terms of the original generators.
    """

    def __init__(self, field: Field, ambient: int, track_expressions: bool = False):
        self.field = field
        self.ambient = ambient
        self.rows: List[Vector] = []
        self.pivots: List[int] = []
        self.track = track_expressions
        self.exprs: List[dict] = []  # generator index -> coefficient
        self.n_retained = 0

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _expression(self, coeffs: List[Tuple[int, Scalar]]) -> dict:
        """Sum of c times the expression of row idx, (idx, c) running over coeffs."""
        f = self.field
        expr: dict = {}
        for idx, c in coeffs:
            for g, val in self.exprs[idx].items():
                expr[g] = f.add(expr.get(g, f.zero), f.mul(c, val))
        return expr

    def add(self, v: Vector) -> bool:
        if len(v) != self.ambient:
            raise AmbientMismatch(f"vector length {len(v)} != ambient {self.ambient}")
        f = self.field
        coeffs = [] if self.track else None
        v = _eliminate(f, self.rows, self.pivots, v, coeffs)
        pivot = next((j for j, a in enumerate(v) if a != 0), None)
        if pivot is None:
            return False
        inv = f.inv(v[pivot])
        if inv != f.one:
            v = [f.mul(inv, a) for a in v]
        if self.track:
            # v = inv * (input - sum of c * row), written over the retained inputs
            expr = {self.n_retained: inv}
            for g, val in self._expression(coeffs).items():
                expr[g] = f.mul(inv, f.neg(val))
        # eliminate the new pivot from existing rows to keep RREF
        for idx, row in enumerate(self.rows):
            c = row[pivot]
            if c == 0:
                continue
            self.rows[idx] = _eliminate(f, [v], [pivot], row)
            if self.track:
                rexpr = self.exprs[idx]
                for g, val in expr.items():
                    rexpr[g] = f.sub(rexpr.get(g, f.zero), f.mul(c, val))
        pos = next((i for i, p in enumerate(self.pivots) if p > pivot), len(self.pivots))
        self.rows.insert(pos, v)
        self.pivots.insert(pos, pivot)
        if self.track:
            self.exprs.insert(pos, expr)
            self.n_retained += 1
        return True

    def generator_coefficients(self, v: Vector) -> Optional[dict]:
        """Expression of v over the retained generators, or None if outside."""
        if not self.track:
            raise ExpressionsNotTracked("builder was created without expression tracking")
        coeffs: List[Tuple[int, Scalar]] = []
        if not vec_is_zero(_eliminate(self.field, self.rows, self.pivots, v, coeffs)):
            return None
        combo = self._expression(coeffs)
        return {g: val for g, val in combo.items() if val != 0}

    def to_subspace(self) -> "Subspace":
        return Subspace(self.field, self.ambient, self.rows, _already_reduced=True)


class Subspace:
    """Subspace of K^n held as a reduced row-echelon basis."""

    def __init__(self, field: Field, ambient: int, vectors: Sequence[Vector], _already_reduced=False):
        self.field = field
        self.ambient = ambient
        if _already_reduced:
            self.basis = [list(v) for v in vectors]
            self.pivots = [next(j for j, a in enumerate(v) if a != 0) for v in self.basis]
        else:
            builder = SpanBuilder(field, ambient)
            for v in vectors:
                builder.add(v)
            self.basis = builder.rows
            self.pivots = builder.pivots

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _check_compat(self, other: "Subspace"):
        if self.ambient != other.ambient or self.field != other.field:
            raise AmbientMismatch("subspaces live in different ambient spaces")

    def contains_vector(self, v: Vector) -> bool:
        if len(v) != self.ambient:
            raise AmbientMismatch(f"vector length {len(v)} != ambient {self.ambient}")
        return vec_is_zero(_eliminate(self.field, self.basis, self.pivots, v))

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_compat(other)
        return all(self.contains_vector(v) for v in other.basis)

    def residual(self, v: Vector) -> Vector:
        """v minus its component along the basis; zero at every pivot column."""
        return _eliminate(self.field, self.basis, self.pivots, v)

    def complement_functionals(self) -> List[Vector]:
        """Basis of {phi : phi(v) = 0 for all v in the subspace}."""
        return Matrix(self.field, self.basis, cols=self.ambient).kernel().basis

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __repr__(self):
        return f"Subspace(dim {self.dim} of K^{self.ambient} over {self.field.name})"


def dot(field: Field, u: Vector, v: Vector) -> Scalar:
    acc = field.zero
    for a, b in zip(u, v):
        if a != 0 and b != 0:
            acc = field.add(acc, field.mul(a, b))
    return acc
