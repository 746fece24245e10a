"""Constructors of algebras: the built-in families, ideals and quotients.

Every function here builds a new `Algebra` from a field or from other
algebras, and carries the registered idempotents through.  `check` and
`verify` read their algebra from a file and never build one, so they do not
import this module; `example`, `factorize`, `structure` and `corpus` do.
The built-in families reduce nothing, so only the ideal closure and the
quotient import `zpbal.linalg`; `matrix_over` reads its base's unit from
`Algebra.predicates`, which does.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence, Tuple

from zpbal.algebra import Algebra, Element
from zpbal.errors import NotAnIdeal, ZpbalError
from zpbal.fields import Field, PrimeField, Scalar, vec_is_zero

if TYPE_CHECKING:
    from zpbal.linalg import Matrix, SpanBuilder, Vector


# ---------------------------------------------------------------------------
# constructors for the built-in families
# ---------------------------------------------------------------------------


def zero_algebra(field: Field, dim: int) -> Algebra:
    """dim-dimensional algebra with identically zero multiplication."""
    z = [field.zero] * dim
    table = [[list(z) for _ in range(dim)] for _ in range(dim)]
    return Algebra(field, [f"z{i+1}" for i in range(dim)], table)


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
    alg = Algebra(field, [f"e{i+1}" for i in range(n)], table)
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


def is_ideal(alg: Algebra, space: SpanBuilder) -> Tuple[bool, Optional[Tuple[int, int, str]]]:
    """Whether the subspace is a two-sided ideal; witness (row, basis, side)."""
    for m, v in enumerate(space.basis):
        for i in range(alg.dim):
            ei = [alg.field.one if t == i else alg.field.zero for t in range(alg.dim)]
            if not space.contains_vector(alg.multiply_coords(v, ei)):
                return False, (m, i, "right")
            if not space.contains_vector(alg.multiply_coords(ei, v)):
                return False, (m, i, "left")
    return True, None


def ideal_closure(alg: Algebra, seeds: Sequence[Vector]) -> SpanBuilder:
    """Smallest two-sided ideal containing the seed vectors."""
    from zpbal.linalg import SpanBuilder

    f = alg.field
    frontier = [list(s) for s in seeds if not vec_is_zero(s)]
    builder = SpanBuilder(f, alg.dim, frontier)
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
    return builder


class Quotient(NamedTuple):
    """Quotient algebra with the projection and a linear section."""

    algebra: Algebra
    projection: Matrix  # q.dim x a.dim
    section: Matrix  # a.dim x q.dim; projection @ section = identity
    ideal: SpanBuilder
    parent: Algebra

    def project(self, a: Element) -> Element:
        return self.algebra.element(self.projection.apply(list(a.coords)))

    def lift(self, q: Element) -> Element:
        return self.parent.element(self.section.apply(list(q.coords)))


def quotient_algebra(alg: Algebra, ideal: SpanBuilder) -> Quotient:
    """Quotient by a verified two-sided ideal."""
    from zpbal.linalg import Matrix

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


# ---------------------------------------------------------------------------
# the examples `zpbal example` writes
# ---------------------------------------------------------------------------


def _irreducible_quadratic(field: PrimeField):
    """Monic irreducible x^2 + ax + b over a prime field, by root search."""
    p = field.p
    for a in range(p):
        for b in range(p):
            if all((x * x + a * x + b) % p != 0 for x in range(p)):
                return [b % p, a % p, 1]
    raise ValueError("no irreducible quadratic found")


def build_example(name: str, field: Field, m: int, n: int) -> Algebra:
    if name == "Nm":
        return nilpotent_algebra(field, m)
    if name == "Mn":
        return matrix_algebra(field, n)
    if name == "MnNm":
        return matrix_over(nilpotent_algebra(field, m), n)
    if name == "DN3":
        if field.characteristic == 0:
            base = poly_quotient_algebra(field, [field.of_int(-2), field.zero, field.one])
        else:
            base = poly_quotient_algebra(field, _irreducible_quadratic(field))
        return tensor_product(base, nilpotent_algebra(field, 3))
    if name == "Kn":
        return function_algebra(field, n)
    if name == "KxNm":
        return direct_sum(scalar_algebra(field), nilpotent_algebra(field, m))
    if name == "zero":
        return zero_algebra(field, n)
    raise ZpbalError(f"unknown example {name!r}")
