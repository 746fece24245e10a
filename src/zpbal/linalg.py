"""Exact linear algebra over a base field, on sparse rows behind a dense API.

Vectors are plain lists of scalars and matrices are row-major lists of rows,
at every public entry and exit.  Subspaces are kept in reduced row-echelon
form, so subspace equality is grid equality and coefficient extraction is a
direct read-off.

Inside, each reduced row is a map {column: nonzero entry} keyed by its pivot
column, because the spans this package builds are almost empty: a row of the
zero-product span has one or two nonzero entries among d² columns.  All row
reduction goes through one private loop, `_eliminate`, which touches only
nonzero entries: the span builder's forward reduction and back-elimination,
membership tests, coefficient extraction and residuals modulo a subspace.
`SpanBuilder.add` also accepts such a map, so that a caller that builds its
vectors sparse never expands them.  `SpanBuilder.null_space` is the one
read-off of a null space from reduced rows; `Matrix.kernel` reduces and
calls it.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, List, Optional, Sequence, Tuple, Union

from zpbal.errors import AmbientMismatch, ExpressionsNotTracked
from zpbal.fields import Field, Scalar

Vector = List[Scalar]
Sparse = Dict[int, Scalar]  # column -> nonzero entry


def vec_scale(field, c, u):
    return [field.mul(c, a) for a in u]


def vec_is_zero(u) -> bool:
    return not any(u)  # int residues and Fractions are falsy exactly at zero


# The two conversions at the dense boundary are private, so that they stay
# plain calls under perfbench's tracer, which wraps every public function.
def _dense(field: Field, v: Sparse, n: int) -> Vector:
    """The length-n list with v's entries and zeros elsewhere."""
    out = [field.zero] * n
    for j, a in v.items():
        out[j] = a
    return out


def _sparse(v: Union[Vector, Sparse], ambient: int) -> Sparse:
    """v as a map: a dict is taken as given, a list is checked for length."""
    if type(v) is dict:
        return v
    if len(v) != ambient:
        raise AmbientMismatch(f"vector length {len(v)} != ambient {ambient}")
    return {j: a for j, a in enumerate(v) if a}


def _eliminate(field: Field, rows: Dict[int, Sparse], v: Sparse,
               coeffs: Optional[List[Tuple[int, Scalar]]] = None) -> Sparse:
    """Residual of v after subtracting multiples of RREF rows keyed by pivot.

    Each row has a 1 at its pivot and zeros at the other rows' pivots, so
    subtracting one row changes no other row's pivot entry: the multiple of
    the row with pivot p is v's own entry at p.  Only v's nonzero entries at
    pivot columns are visited, and only the nonzero entries of the rows used.
    When `coeffs` is given, (pivot, multiple) is appended for each row used,
    in pivot order.  v is never modified, and is returned itself when no
    row applies.
    """
    if len(rows) < len(v):
        used = [p for p in rows if p in v]
    else:
        used = [p for p in v if p in rows]
    if not used:
        return v
    if coeffs is not None:
        used.sort()
    out = dict(v)
    sub, mul, neg = field.sub, field.mul, field.neg
    for p in used:
        c = v[p]
        if coeffs is not None:
            coeffs.append((p, c))
        for j, a in rows[p].items():
            if j not in out:
                out[j] = neg(mul(c, a))
                continue
            x = sub(out[j], mul(c, a))
            if x:
                out[j] = x
            else:
                del out[j]
    return out


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

    def _row_space(self) -> "SpanBuilder":
        builder = SpanBuilder(self.field, self.ncols)
        for r in self.rows:
            builder.add(r)
        return builder

    def rank(self) -> int:
        return self._row_space().dim

    def kernel(self) -> "Subspace":
        """Null space {v : self @ v = 0} as a row-reduced subspace."""
        return self._row_space().null_space()

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
    written exactly in terms of the original generators.  `rows`, `pivots`
    and `exprs` are lists in pivot order; the rows are dense.
    """

    def __init__(self, field: Field, ambient: int, track_expressions: bool = False):
        self.field = field
        self.ambient = ambient
        self._rows: Dict[int, Sparse] = {}  # pivot -> RREF row
        self.pivots: List[int] = []
        self.track = track_expressions
        self._exprs: Dict[int, dict] = {}  # pivot -> {generator index: coefficient}
        self.n_retained = 0

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> List[Vector]:
        return [_dense(self.field, self._rows[p], self.ambient) for p in self.pivots]

    @property
    def exprs(self) -> List[dict]:
        return [self._exprs[p] for p in self.pivots]

    def _expression(self, coeffs: List[Tuple[int, Scalar]]) -> dict:
        """Sum of c times the expression of row p, (p, c) running over coeffs."""
        f = self.field
        expr: dict = {}
        for p, c in coeffs:
            for g, val in self._exprs[p].items():
                expr[g] = f.add(expr.get(g, f.zero), f.mul(c, val))
        return expr

    def add(self, v: Union[Vector, Sparse]) -> bool:
        """Offer v, a list or a map {column: nonzero entry}; True when the span grew."""
        f = self.field
        coeffs = [] if self.track else None
        given = v
        v = _eliminate(f, self._rows, _sparse(v, self.ambient), coeffs)
        if not v:
            return False
        pivot = min(v)
        inv = f.inv(v[pivot])
        if inv != f.one:
            v = {j: f.mul(inv, a) for j, a in v.items()}
        elif v is given:
            v = dict(v)  # the row must not alias the caller's map
        if self.track:
            # v = inv * (input - sum of c * row), written over the retained inputs
            expr = {self.n_retained: inv}
            for g, val in self._expression(coeffs).items():
                expr[g] = f.mul(inv, f.neg(val))
        # eliminate the new pivot from the rows that have it, to keep RREF
        new_row = {pivot: v}
        for p, row in self._rows.items():
            c = row.get(pivot)
            if c is None:
                continue
            self._rows[p] = _eliminate(f, new_row, row)
            if self.track:
                rexpr = self._exprs[p]
                for g, val in expr.items():
                    rexpr[g] = f.sub(rexpr.get(g, f.zero), f.mul(c, val))
        self._rows[pivot] = v
        insort(self.pivots, pivot)
        if self.track:
            self._exprs[pivot] = expr
            self.n_retained += 1
        return True

    def generator_coefficients(self, v: Union[Vector, Sparse]) -> Optional[dict]:
        """Expression of v over the retained generators, or None if outside."""
        if not self.track:
            raise ExpressionsNotTracked("builder was created without expression tracking")
        coeffs: List[Tuple[int, Scalar]] = []
        if _eliminate(self.field, self._rows, _sparse(v, self.ambient), coeffs):
            return None
        combo = self._expression(coeffs)
        return {g: val for g, val in combo.items() if val != 0}

    def null_space(self) -> "Subspace":
        """{x : r·x = 0 for every row r} as a row-reduced subspace.

        Each free column j gives the vector with 1 at j, minus row p's entry
        at j at each pivot p, and zeros elsewhere.  A row's entries off its
        pivot all sit at free columns, so only the nonzero entries are read.
        """
        f = self.field
        free = {j: {j: f.one} for j in range(self.ambient) if j not in self._rows}
        for p, row in self._rows.items():
            for j, a in row.items():
                if j != p:
                    free[j][p] = f.neg(a)
        return Subspace(f, self.ambient, list(free.values()))

    def to_subspace(self) -> "Subspace":
        # rows are replaced, never changed in place, so the subspace may share them
        return Subspace(self.field, self.ambient, (), _rows=dict(self._rows))


class Subspace:
    """Subspace of K^n held as a reduced row-echelon basis (`basis`, in pivot order)."""

    def __init__(self, field: Field, ambient: int, vectors: Sequence[Union[Vector, Sparse]],
                 _rows: Optional[Dict[int, Sparse]] = None):
        self.field = field
        self.ambient = ambient
        if _rows is None:
            builder = SpanBuilder(field, ambient)
            for v in vectors:
                builder.add(v)
            _rows = builder._rows
        self._rows = _rows
        self.pivots = sorted(_rows)
        self._basis: Optional[List[Vector]] = None

    @property
    def basis(self) -> List[Vector]:
        if self._basis is None:
            self._basis = [_dense(self.field, self._rows[p], self.ambient) for p in self.pivots]
        return self._basis

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _check_compat(self, other: "Subspace"):
        if self.ambient != other.ambient or self.field != other.field:
            raise AmbientMismatch("subspaces live in different ambient spaces")

    def contains_vector(self, v: Union[Vector, Sparse]) -> bool:
        """Whether v, a list or a map {column: nonzero entry}, lies in the subspace."""
        return not _eliminate(self.field, self._rows, _sparse(v, self.ambient))

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_compat(other)
        return all(self.contains_vector(v) for v in other.basis)

    def residual(self, v: Vector) -> Vector:
        """v minus its component along the basis; zero at every pivot column."""
        f = self.field
        return _dense(f, _eliminate(f, self._rows, _sparse(v, self.ambient)), self.ambient)

    def complement_functionals(self) -> List[Vector]:
        """Basis of {phi : phi(v) = 0 for all v in the subspace}."""
        return Matrix(self.field, self.basis, cols=self.ambient).kernel().basis

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient == other.ambient
            and self._rows == other._rows
        )

    def __repr__(self):
        return f"Subspace(dim {self.dim} of K^{self.ambient} over {self.field.name})"


def dot(field: Field, u: Vector, v: Vector) -> Scalar:
    acc = field.zero
    for a, b in zip(u, v):
        if a != 0 and b != 0:
            acc = field.add(acc, field.mul(a, b))
    return acc
