"""Exact linear algebra over a base field, on sparse or packed rows behind a dense API.

Vectors are plain lists of scalars and matrices are row-major lists of rows,
at every public entry and exit.  Subspaces are kept in reduced row-echelon
form, so subspace equality is grid equality and coefficient extraction is a
direct read-off.

Inside, each reduced row is keyed by its pivot column, and the field picks
the row's representation.  Over F2 a row is a Python int with bit j set for
column j, and subtracting a row is XOR.  Over every other field a row is a
map {column: nonzero entry}, because the spans this package builds are
almost empty: a row of the zero-product span has one or two nonzero entries
among d² columns.  Each representation has one private reduction loop,
`_eliminate_bits` or `_eliminate`, which touches only the rows whose pivots
the vector meets: the span builder's forward reduction and
back-elimination, membership tests, coefficient extraction and residuals
modulo a subspace.  `SpanBuilder.add` also accepts a map or, over F2, an
int, so that a caller that builds its vectors sparse never expands them.
`SpanBuilder.null_space` is the one read-off of a null space from reduced
rows; `Matrix.kernel` reduces and calls it.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from zpbal.errors import AmbientMismatch, ExpressionsNotTracked
from zpbal.fields import Field, Scalar

Vector = List[Scalar]
Sparse = Dict[int, Scalar]  # column -> nonzero entry
Row = Union[Sparse, int]  # a map, or over F2 the bit mask of its nonzero columns


def vec_scale(field, c, u):
    return [field.mul(c, a) for a in u]


def vec_is_zero(u) -> bool:
    return not any(u)  # int residues and Fractions are falsy exactly at zero


# The conversions at the dense boundary are private, so that they stay plain
# calls under perfbench's tracer, which wraps every public function.
def _dense(field: Field, v: Row, n: int) -> Vector:
    """The length-n list with v's entries and zeros elsewhere."""
    if type(v) is int:
        return [(v >> j) & 1 for j in range(n)]
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


def _entries(row: Row) -> Iterator[Tuple[int, Scalar]]:
    """(column, nonzero entry) of a row in either representation."""
    if type(row) is not int:
        yield from row.items()
        return
    while row:
        low = row & -row
        yield low.bit_length() - 1, 1
        row ^= low


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


def _eliminate_bits(rows: Dict[int, int], pivot_mask: int, v: int,
                    coeffs: Optional[List[Tuple[int, Scalar]]] = None) -> int:
    """`_eliminate` over F2 on packed rows: XOR in the row of each pivot set in v.

    `pivot_mask` has the bits of the rows' pivots.  A row changes no other
    row's pivot bit, so the pivots to clear are read once, lowest first.
    """
    hit = v & pivot_mask
    while hit:
        low = hit & -hit
        p = low.bit_length() - 1
        v ^= rows[p]
        if coeffs is not None:
            coeffs.append((p, 1))
        hit ^= low
    return v


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


class _Echelon:
    """Reduced rows keyed by pivot, in the representation the field picks:
    ints over F2, maps {column: nonzero entry} otherwise.  A subclass sets
    `field`, `ambient`, `_packed`, `_rows` (pivot -> RREF row), `pivots` and,
    over F2, `_pivot_mask` (the bits of the pivots, for `_eliminate_bits`)."""

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _reduce(self, v: Union[Vector, Sparse, int],
                coeffs: Optional[List[Tuple[int, Scalar]]] = None) -> Row:
        """v in this field's row representation, reduced by the rows; a list
        is checked for length."""
        if self._packed:
            if type(v) is not int:  # bit j for each nonzero entry j
                v = sum(1 << j for j in _sparse(v, self.ambient))
            return _eliminate_bits(self._rows, self._pivot_mask, v, coeffs)
        return _eliminate(self.field, self._rows, _sparse(v, self.ambient), coeffs)

    def _dense_rows(self) -> List[Vector]:
        return [_dense(self.field, self._rows[p], self.ambient) for p in self.pivots]


class SpanBuilder(_Echelon):
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
        self._packed = field.characteristic == 2
        self._rows: Dict[int, Row] = {}
        self.pivots: List[int] = []
        self._pivot_mask = 0
        self.track = track_expressions
        self._exprs: Dict[int, dict] = {}  # pivot -> {generator index: coefficient}
        self.n_retained = 0

    @property
    def rows(self) -> List[Vector]:
        return self._dense_rows()

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

    def add(self, v: Union[Vector, Sparse, int]) -> bool:
        """Offer v, a list, a map {column: nonzero entry} or over F2 an int
        with bit j set for column j; True when the span grew."""
        f = self.field
        coeffs = [] if self.track else None
        rows = self._rows
        # reduce v, scale it to a leading 1 and eliminate its pivot from the
        # rows that have it, to keep RREF; `hit` lists (pivot, entry) of those
        if self._packed:
            if type(v) is not int:
                v = sum(1 << j for j in _sparse(v, self.ambient))
            v = _eliminate_bits(rows, self._pivot_mask, v, coeffs)
            if not v:
                return False
            bit = v & -v  # the lowest set bit; its entry is 1
            pivot = bit.bit_length() - 1
            inv = f.one
            hit = []
            for p, row in rows.items():
                if row & bit:
                    rows[p] = row ^ v
                    hit.append((p, 1))
            self._pivot_mask |= bit
        else:
            given = v
            v = _eliminate(f, rows, _sparse(v, self.ambient), coeffs)
            if not v:
                return False
            pivot = min(v)
            inv = f.inv(v[pivot])
            if inv != f.one:
                v = {j: f.mul(inv, a) for j, a in v.items()}
            elif v is given:
                v = dict(v)  # the row must not alias the caller's map
            hit = []
            new_row = {pivot: v}
            for p, row in rows.items():
                c = row.get(pivot)
                if c is not None:
                    rows[p] = _eliminate(f, new_row, row)
                    hit.append((p, c))
        rows[pivot] = v
        insort(self.pivots, pivot)
        if self.track:
            # v = inv * (input - sum of c * row), written over the retained inputs
            expr = {self.n_retained: inv}
            for g, val in self._expression(coeffs).items():
                expr[g] = f.mul(inv, f.neg(val))
            for p, c in hit:
                rexpr = self._exprs[p]
                for g, val in expr.items():
                    rexpr[g] = f.sub(rexpr.get(g, f.zero), f.mul(c, val))
            self._exprs[pivot] = expr
            self.n_retained += 1
        return True

    @property
    def row_space_key(self) -> tuple:
        """The reduced rows in a hashable form.  RREF is unique, so two
        builders over one field give equal keys exactly when their row spaces
        are equal."""
        if self._packed:
            return tuple(self._rows[p] for p in self.pivots)
        return tuple(tuple(sorted(self._rows[p].items())) for p in self.pivots)

    def generator_coefficients(self, v: Union[Vector, Sparse, int]) -> Optional[dict]:
        """Expression of v over the retained generators, or None if outside."""
        if not self.track:
            raise ExpressionsNotTracked("builder was created without expression tracking")
        coeffs: List[Tuple[int, Scalar]] = []
        if self._reduce(v, coeffs):
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
            for j, a in _entries(row):
                if j != p:
                    free[j][p] = f.neg(a)
        return Subspace(f, self.ambient, list(free.values()))

    def to_subspace(self) -> "Subspace":
        # rows are replaced, never changed in place, so the subspace may share them
        return Subspace(self.field, self.ambient, (), _rows=dict(self._rows))


class Subspace(_Echelon):
    """Subspace of K^n held as a reduced row-echelon basis (`basis`, in pivot order)."""

    def __init__(self, field: Field, ambient: int, vectors: Sequence[Union[Vector, Sparse, int]],
                 _rows: Optional[Dict[int, Row]] = None):
        if _rows is None:
            builder = SpanBuilder(field, ambient)
            for v in vectors:
                builder.add(v)
            _rows = builder._rows
        self.field = field
        self.ambient = ambient
        self._packed = field.characteristic == 2
        self._rows = _rows
        self.pivots = sorted(_rows)
        self._pivot_mask = sum(1 << p for p in _rows) if self._packed else 0
        self._basis: Optional[List[Vector]] = None

    @property
    def basis(self) -> List[Vector]:
        if self._basis is None:
            self._basis = self._dense_rows()
        return self._basis

    def _check_compat(self, other: "Subspace"):
        if self.ambient != other.ambient or self.field != other.field:
            raise AmbientMismatch("subspaces live in different ambient spaces")

    def contains_vector(self, v: Union[Vector, Sparse, int]) -> bool:
        """Whether v, a list, a map {column: nonzero entry} or over F2 an int,
        lies in the subspace."""
        return not self._reduce(v)

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_compat(other)
        return all(self.contains_vector(v) for v in other.basis)

    def residual(self, v: Vector) -> Vector:
        """v minus its component along the basis; zero at every pivot column."""
        return _dense(self.field, self._reduce(v), self.ambient)

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
