"""Constructions that no `zpbal` command runs, kept as test fixtures.

The seeded random-algebra generator feeds the property tests.  A few
matrix and subspace operations serve only tests.  `DenseSpanBuilder` is the
dense row reducer the package's sparse one replaced; `rref`, `dense_kernel`
and the reference sweeps in `oracles` run on it, with operators built by
`operator_matrix` from products of basis vectors, so that they share no
reduction and no operator builder with the code they pin down.  The rest each
state a property of the paper's objects that the tests check on small
algebras: the Boolean ring of idempotents and its Stone space, the
nilpotent-generation equivalence for unital balanced algebras, the balanced
defect of the tensor square, the centralizer space, the subalgebra closure
and the matrix trace.  They reuse the package's operators and row reducer,
so they are references, not independent oracles (see `oracles`).
"""

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from zpbal.algebra import (
    Algebra,
    Element,
    direct_sum,
    function_algebra,
    ideal_closure,
    matrix_algebra,
    matrix_over,
    nilpotent_algebra,
    quotient_algebra,
    scalar_algebra,
    zero_algebra,
)
from zpbal.config import DEFAULT_CONFIG, SweepConfig
from zpbal.errors import (
    AmbientMismatch,
    BudgetExceeded,
    ExpressionsNotTracked,
    HypothesisFailed,
    SoundnessAlarm,
    ZpbalError,
)
from zpbal.fields import Field
from zpbal.linalg import Matrix, SpanBuilder, Subspace, Vector, vec_is_zero
from zpbal.squarezero import factorizable_square_zero_span
from zpbal.structure import (
    CharacterReport,
    _reduced_atoms,
    _require_commutative,
    characters,
    commutator_ideal,
    nilradical,
)
from zpbal.tensorsquare import (
    EXACT,
    YES,
    ZeroProductSpanReport,
    compute_zero_product_span,
    is_zero_product_balanced,
)


# ---------------------------------------------------------------------------
# matrix and subspace operations that only tests use
# ---------------------------------------------------------------------------


class NotInSubspace(ZpbalError):
    """Coefficient extraction requested for a vector outside the span."""


def zero_matrix(field: Field, nrows: int, ncols: int) -> Matrix:
    return Matrix(field, [[field.zero] * ncols for _ in range(nrows)], cols=ncols)


def is_invertible(m: Matrix) -> bool:
    return m.nrows == m.ncols and m.rank() == m.nrows


def rref_matrix(m: Matrix) -> Tuple[Matrix, int]:
    """The reduced row-echelon form padded with zero rows to m's shape, and the rank."""
    rows, _ = rref(m.rows, m.field, m.ncols)
    rank = len(rows)
    padded = rows + [[m.field.zero] * m.ncols for _ in range(m.nrows - rank)]
    return Matrix(m.field, padded, cols=m.ncols), rank


def coefficients(space: Subspace, v: Vector) -> Vector:
    """Expansion of v over the reduced basis; raises NotInSubspace.

    Each basis row has a 1 at its pivot and zeros at the other pivots, so the
    coefficient of a row is v's entry at its pivot.
    """
    if not space.contains_vector(v):
        raise NotInSubspace("vector outside subspace")
    return [v[p] for p in space.pivots]


def linear_combination(space: Subspace, coeffs: Vector) -> Vector:
    f = space.field
    out = [f.zero] * space.ambient
    for c, row in zip(coeffs, space.basis):
        if c == 0:
            continue
        for j, a in enumerate(row):
            if a != 0:
                out[j] = f.add(out[j], f.mul(c, a))
    return out


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    a._check_compat(b)
    return Subspace(a.field, a.ambient, a.basis + b.basis)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Zassenhaus: reduce [A|A] over [B|0]; zero-left rows give the meet."""
    a._check_compat(b)
    f = a.field
    n = a.ambient
    stacked = [list(v) + list(v) for v in a.basis]
    stacked += [list(v) + [f.zero] * n for v in b.basis]
    rows, pivots = rref(stacked, f, 2 * n)
    return Subspace(f, n, [row[n:] for row, p in zip(rows, pivots) if p >= n])


# ---------------------------------------------------------------------------
# The dense row reducer that `zpbal.linalg` replaced by sparse rows, kept as
# the reference that the sparse one must reproduce row for row.
# ---------------------------------------------------------------------------


def dense_eliminate(field: Field, rows: Sequence[Vector], pivots: Sequence[int], v: Vector,
                    coeffs: Optional[List[Tuple[int, object]]] = None) -> Vector:
    """Residual of a copy of v after subtracting multiples of RREF rows.

    Each row has a 1 at its pivot and zeros at the other rows' pivots, so the
    multiple of a row is the residual's entry at its pivot.  When `coeffs` is
    given, (row index, multiple) is appended for each row used, in row order.
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


class DenseSpanBuilder:
    """`SpanBuilder` on dense rows: the same rows, pivots and expressions."""

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

    def _expression(self, coeffs) -> dict:
        f = self.field
        expr: dict = {}
        for idx, c in coeffs:
            for g, val in self.exprs[idx].items():
                expr[g] = f.add(expr.get(g, f.zero), f.mul(c, val))
        return expr

    def contains(self, v: Vector) -> bool:
        return vec_is_zero(dense_eliminate(self.field, self.rows, self.pivots, v))

    def add(self, v: Vector) -> bool:
        if len(v) != self.ambient:
            raise AmbientMismatch(f"vector length {len(v)} != ambient {self.ambient}")
        f = self.field
        coeffs = [] if self.track else None
        v = dense_eliminate(f, self.rows, self.pivots, v, coeffs)
        pivot = next((j for j, a in enumerate(v) if a != 0), None)
        if pivot is None:
            return False
        inv = f.inv(v[pivot])
        if inv != f.one:
            v = [f.mul(inv, a) for a in v]
        if self.track:
            expr = {self.n_retained: inv}
            for g, val in self._expression(coeffs).items():
                expr[g] = f.mul(inv, f.neg(val))
        for idx, row in enumerate(self.rows):
            c = row[pivot]
            if c == 0:
                continue
            self.rows[idx] = dense_eliminate(f, [v], [pivot], row)
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
        if not self.track:
            raise ExpressionsNotTracked("builder was created without expression tracking")
        coeffs: list = []
        if not vec_is_zero(dense_eliminate(self.field, self.rows, self.pivots, v, coeffs)):
            return None
        return {g: val for g, val in self._expression(coeffs).items() if val != 0}


def rref(rows: Sequence[Vector], field: Field, ncols: int) -> Tuple[List[Vector], List[int]]:
    """Reduced row-echelon form on the dense reference builder: (nonzero rows, pivots)."""
    builder = DenseSpanBuilder(field, ncols)
    for r in rows:
        builder.add(list(r))
    return builder.rows, builder.pivots


def dense_kernel(m: Matrix) -> List[Vector]:
    """RREF basis of {x : m x = 0}, computed on the dense reference builder."""
    f, n = m.field, m.ncols
    rows, pivots = rref(m.rows, f, n)
    free = []
    for j in range(n):
        if j in pivots:
            continue
        v = [f.zero] * n
        v[j] = f.one
        for row, p in zip(rows, pivots):
            v[p] = f.neg(row[j])
        free.append(v)
    return rref(free, f, n)[0]


def operator_matrix(alg: Algebra, u: Sequence, left: bool) -> Matrix:
    """Matrix of x -> u*x (left) or x -> x*u, column j from multiplying basis vector j."""
    f = alg.field
    cols = []
    for j in range(alg.dim):
        ej = [f.one if t == j else f.zero for t in range(alg.dim)]
        cols.append(alg.multiply_coords(u, ej) if left else alg.multiply_coords(ej, u))
    return Matrix.from_columns(f, cols, alg.dim)


def dense_associativity_failure(field: Field, table) -> Optional[Tuple[int, int, int]]:
    """The first (i, j, k) in loop order with (e_i e_j) e_k != e_i (e_j e_k),
    both sides summed as dense vectors, or None when the table is associative."""
    d = len(table)

    def combo(coeffs, vec_of):
        out = [field.zero] * d
        for l, c in enumerate(coeffs):
            if c != 0:
                for t, a in enumerate(vec_of(l)):
                    if a != 0:
                        out[t] = field.add(out[t], field.mul(c, a))
        return out

    for i in range(d):
        for j in range(d):
            for k in range(d):
                if (combo(table[i][j], lambda l: table[l][k])
                        != combo(table[j][k], lambda l: table[i][l])):
                    return (i, j, k)
    return None


# ---------------------------------------------------------------------------
# random algebras (always built from validated constructors)
# ---------------------------------------------------------------------------

SHAPES = ("quotient_of_free_nilpotent", "matrix_over_random", "direct_sum_mix")


def random_algebra(seed: int, field: Field, shape: str) -> Algebra:
    rng = random.Random(seed)
    if shape == "quotient_of_free_nilpotent":
        m = rng.choice([4, 5, 6])
        alg = nilpotent_algebra(field, m)
        coords = [field.of_int(rng.randint(0, 2)) for _ in range(alg.dim)]
        if vec_is_zero(coords):
            coords[rng.randrange(alg.dim)] = field.one
        ideal = ideal_closure(alg, [coords])
        if ideal.dim == alg.dim:
            return zero_algebra(field, 1)
        return quotient_algebra(alg, ideal).algebra
    if shape == "matrix_over_random":
        base = rng.choice([
            scalar_algebra(field),
            function_algebra(field, 2),
            nilpotent_algebra(field, 3),
        ])
        return matrix_over(base, 2)
    if shape == "direct_sum_mix":
        pool = [
            scalar_algebra(field),
            function_algebra(field, 2),
            nilpotent_algebra(field, 3),
            matrix_algebra(field, 2),
            zero_algebra(field, 1),
        ]
        parts = rng.sample(pool, rng.choice([2, 3]))
        out = parts[0]
        for p in parts[1:]:
            out = direct_sum(out, p)
        return out
    raise ValueError(f"unknown shape {shape!r}")


# ---------------------------------------------------------------------------
# test-only constructions
# ---------------------------------------------------------------------------


def matrix_trace(a: Element, n: int, base: Algebra) -> Element:
    """Trace of an element of `matrix_over(base, n)`, valued in the base."""
    f = base.field
    out = [f.zero] * base.dim
    for r in range(n):
        off = (r * n + r) * base.dim
        for t in range(base.dim):
            out[t] = f.add(out[t], a.coords[off + t])
    return base.element(out)


@dataclass
class Subalgebra:
    """Subalgebra re-presented as an algebra in its own right."""

    algebra: Algebra
    span: Subspace  # rows are the chosen basis, in parent coordinates
    parent: Algebra


def subalgebra(alg: Algebra, generators: Sequence[Element]) -> Subalgebra:
    """Close generators under span and products; re-present as an algebra."""
    f = alg.field
    builder = SpanBuilder(f, alg.dim)
    for g in generators:
        builder.add(list(g.coords))
    stable = False
    while not stable:
        stable = True
        current = [list(r) for r in builder.rows]
        for u in current:
            for v in current:
                if builder.add(alg.multiply_coords(u, v)):
                    stable = False
    span = builder.to_subspace()
    table = [[coefficients(span, alg.multiply_coords(a, b)) for b in span.basis] for a in span.basis]
    sub = Algebra(f, [f"s{k+1}" for k in range(span.dim)], table)
    for e in alg.registered_idempotents:
        if span.contains_vector(list(e.coords)):
            img = sub.element(coefficients(span, list(e.coords)))
            if not img.is_zero():
                sub.register_idempotent(img)
    return Subalgebra(algebra=sub, span=span, parent=alg)


def balanced_defect(algebra: Algebra, report: ZeroProductSpanReport) -> Tuple[Subspace, int]:
    """Span of all shifted-product tensors plus the zero-product span.

    The excess over the span dimension is 0 exactly when the algebra is
    balanced (granted a complete span).
    """
    ts = report.tensor
    d = algebra.dim
    builder = SpanBuilder(algebra.field, ts.ambient)
    for row in report.subspace.basis:
        builder.add(row)
    for i in range(d):
        for j in range(d):
            for k in range(d):
                builder.add(ts.defect_tensor(i, j, k))
    total = builder.to_subspace()
    return total, total.dim - report.dim


def centralizer_space(algebra: Algebra) -> Subspace:
    """All linear S with S(ab) = S(a)b = aS(b), as flattened matrices."""
    f = algebra.field
    d = algebra.dim
    n2 = d * d
    rows: List[Vector] = []
    for i in range(d):
        for j in range(d):
            prod = algebra.table[i][j]
            for k in range(d):
                # S(e_i e_j) - S(e_i) e_j = 0, coordinate k
                row = [f.zero] * n2
                for t, c in enumerate(prod):
                    if c != 0:
                        row[k * d + t] = f.add(row[k * d + t], c)
                for l in range(d):
                    c = algebra.table[l][j][k]
                    if c != 0:
                        row[l * d + i] = f.sub(row[l * d + i], c)
                rows.append(row)
                # S(e_i e_j) - e_i S(e_j) = 0, coordinate k
                row = [f.zero] * n2
                for t, c in enumerate(prod):
                    if c != 0:
                        row[k * d + t] = f.add(row[k * d + t], c)
                for l in range(d):
                    c = algebra.table[i][l][k]
                    if c != 0:
                        row[l * d + j] = f.sub(row[l * d + j], c)
                rows.append(row)
    return Matrix(f, rows, cols=n2).kernel()


def matrix_from_flat(algebra: Algebra, flat: Vector) -> Matrix:
    d = algebra.dim
    return Matrix(algebra.field, [flat[r * d:(r + 1) * d] for r in range(d)], cols=d)


# ---------------------------------------------------------------------------
# the Boolean ring of idempotents
# ---------------------------------------------------------------------------


def boolean_sum(e: Element, g: Element) -> Element:
    """e + g - 2eg: the addition of the Boolean ring of idempotents."""
    two = e.parent.field.of_int(2)
    return e + g - (e * g).scale(two)


def subset_sums(atoms: List[Element], zero: Element) -> List[Element]:
    """Every sum of a subset of the atoms: the idempotents they generate."""
    sums = [zero]
    for a in atoms:
        sums += [s + a for s in sums]
    return sums


@dataclass
class BooleanRingInfo:
    """The Boolean ring of idempotents under e+f-2ef and ring multiplication."""

    elements: List[Element]
    atoms: List[Element]
    axioms_ok: bool  # closure under both operations within the element list
    exhaustive: bool


@dataclass
class StoneReport:
    ring: BooleanRingInfo
    stone_points: List[Element]  # atoms; the finite Stone space
    iso_check: bool  # algebra = direct sum of the lines through the atoms


def boolean_ring_and_stone(algebra: Algebra, config: SweepConfig = DEFAULT_CONFIG) -> StoneReport:
    """Boolean ring of idempotents of a commutative reduced algebra, its atoms,
    and the check that the algebra is the span of the atom lines.

    The ring is listed as the subset sums of the atoms: every idempotent over
    F_p, the ring the registered idempotents generate over Q.
    """
    _require_commutative(algebra)
    if nilradical(algebra).dim != 0:
        raise HypothesisFailed("algebra is not reduced")
    atoms = _reduced_atoms(algebra, config)
    if 2 ** len(atoms) > config.enumeration_cap:
        raise BudgetExceeded(f"{2 ** len(atoms)} idempotents exceed cap {config.enumeration_cap}")
    elements = subset_sums(atoms, algebra.zero_element())
    axioms_ok = True
    coords_set = {e.coords for e in elements}
    for a in elements:
        if (a * a) != a:
            axioms_ok = False
        for b in elements:
            if (a * b).coords not in coords_set or boolean_sum(a, b).coords not in coords_set:
                axioms_ok = False
    return StoneReport(
        ring=BooleanRingInfo(elements=elements, atoms=atoms, axioms_ok=axioms_ok,
                             exhaustive=algebra.field.is_finite()),
        stone_points=atoms,
        iso_check=len(atoms) == algebra.dim,  # the atoms are independent
    )


# ---------------------------------------------------------------------------
# generation by nilpotents
# ---------------------------------------------------------------------------


def factorizable_pair_product_span(
    algebra: Algebra, config: SweepConfig = DEFAULT_CONFIG
) -> Tuple[Subspace, str]:
    """Span of pairwise products of factorizable square-zero elements.

    Generators of the factorizable span suffice: any product of two such
    elements expands bilinearly over them.
    """
    fact = factorizable_square_zero_span(algebra, config)
    builder = SpanBuilder(algebra.field, algebra.dim)
    xs = [list(w.x.coords) for w in fact.witnesses]
    for u in xs:
        for v in xs:
            builder.add(algebra.multiply_coords(u, v))
    return builder.to_subspace(), fact.status


@dataclass
class NilpotentGenerationReport:
    """Three equivalent statements for unital balanced algebras: no character,
    generated by nilpotents as an ideal, spanned by products of pairs of
    orthogonally factorizable square-zero elements."""

    no_character: bool
    nilpotents_generate: bool
    pair_products_span: bool
    agree: bool


def generated_by_nilpotents_check(algebra: Algebra, config: SweepConfig = DEFAULT_CONFIG) -> NilpotentGenerationReport:
    """The three statements, the nilpotents found by sweeping every element."""
    span = compute_zero_product_span(algebra, config)
    balanced = is_zero_product_balanced(algebra, span)
    if not algebra.predicates().is_unital:
        raise HypothesisFailed("algebra not unital")
    if balanced.status != YES:
        raise HypothesisFailed("algebra not certified zero-product balanced")
    quot = quotient_algebra(algebra, commutator_ideal(algebra))
    chars = characters(quot.algebra, config) if quot.algebra.dim > 0 else CharacterReport([], EXACT, [])
    if chars.status != EXACT:
        raise BudgetExceeded("character search on the abelianization is incomplete")
    no_char = not chars.characters

    size = algebra.n_elements()
    if size is None or size > config.enumeration_cap:
        raise BudgetExceeded("nilpotent sweep needs exhaustive enumeration")
    builder = SpanBuilder(algebra.field, algebra.dim)
    for coords in algebra.coord_tuples():
        if algebra.element(coords).is_nilpotent():
            builder.add(list(coords))
    nilpotents_generate = ideal_closure(algebra, builder.rows).dim == algebra.dim

    pair_span, pair_status = factorizable_pair_product_span(algebra, config)
    if pair_status != EXACT:
        raise BudgetExceeded("factorizable-span sweep is incomplete")
    pair_products_span = pair_span.dim == algebra.dim

    agree = no_char == nilpotents_generate == pair_products_span
    if not agree:
        raise SoundnessAlarm("three-way nilpotent-generation equivalence violated")
    return NilpotentGenerationReport(
        no_character=no_char,
        nilpotents_generate=nilpotents_generate,
        pair_products_span=pair_products_span,
        agree=agree,
    )
