"""Independent brute-force oracles used to freeze expected test values.

Deliberately reimplemented from scratch: rank via plain forward elimination
(no reduced echelon machinery), spans via all-pairs enumeration.  These must
not share code paths with the package so that agreement is evidence.  The
reference sweeps and the two-step balanced decider at the end are the
exception, explained there: they are the loops the package replaced, kept to
pin down its results.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import List, Union

from multiplier import MultiplierAlgebra
from references import DenseSpanBuilder
from zpbal.algebra import Algebra, Element
from zpbal.config import DEFAULT_CONFIG, SweepConfig
from zpbal.errors import BudgetExceeded, SoundnessAlarm
from zpbal.linalg import Matrix, SpanBuilder, dot, vec_is_zero
from zpbal.squarezero import FactorizableWitness
from zpbal.tensorsquare import (
    EXACT,
    MEMBERSHIP,
    NO,
    SEPARATING,
    UNKNOWN,
    YES,
    BalancedVerdict,
    Certificate,
    TensorSquare,
)


def rank_mod_p(rows, p):
    rows = [[a % p for a in r] for r in rows if any(a % p for a in r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col] % p:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for r in range(rank + 1, len(rows)):
            factor = (rows[r][col] * inv) % p
            if factor:
                rows[r] = [(a - factor * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def rank_q(rows):
    rows = [[Fraction(a) for a in r] for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                factor = rows[r][col] / rows[rank][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def rank_over(field, rows):
    if field.characteristic == 0:
        return rank_q(rows)
    return rank_mod_p(rows, field.characteristic)


def all_elements(algebra):
    """Every coordinate tuple of a finite-field algebra (independent sweep)."""
    p = algebra.field.characteristic
    return product(range(p), repeat=algebra.dim)


def mult(algebra, u, v):
    """Product of coordinate tuples straight from the structure constants."""
    p = algebra.field.characteristic
    d = algebra.dim
    out = [0] * d
    for i in range(d):
        if not u[i]:
            continue
        for j in range(d):
            if not v[j]:
                continue
            for k, c in enumerate(algebra.table[i][j]):
                out[k] = (out[k] + u[i] * v[j] * c) % p
    return tuple(out)


def tensor_vec(d, u, v, p):
    out = [0] * (d * d)
    for i in range(d):
        for j in range(d):
            out[i * d + j] = (u[i] * v[j]) % p
    return out


def brute_zero_product_tensors(algebra):
    """All tensors u⊗v over zero-product pairs, by full pair enumeration."""
    p = algebra.field.characteristic
    d = algebra.dim
    tensors = []
    for u in all_elements(algebra):
        for v in all_elements(algebra):
            if all(x == 0 for x in mult(algebra, u, v)):
                t = tensor_vec(d, u, v, p)
                if any(t):
                    tensors.append(t)
    return tensors


def brute_span_dim_zero_products(algebra):
    return rank_mod_p(brute_zero_product_tensors(algebra), algebra.field.characteristic)


def brute_mul_kernel_dim(algebra):
    """Nullity of the multiplication map on the tensor square."""
    p = algebra.field.characteristic
    d = algebra.dim
    rows = []
    for k in range(d):
        row = []
        for i in range(d):
            for j in range(d):
                row.append(algebra.table[i][j][k] % p)
        rows.append(row)
    return d * d - rank_mod_p(rows, p)


def in_span_mod_p(vectors, target, p):
    base = rank_mod_p(vectors, p) if vectors else 0
    return rank_mod_p(vectors + [target], p) == base


def brute_factorizable_elements(algebra):
    """All x = yz with zy = 0, by full pair enumeration."""
    found = set()
    for y in all_elements(algebra):
        for z in all_elements(algebra):
            if all(a == 0 for a in mult(algebra, z, y)):
                found.add(mult(algebra, y, z))
    return sorted(found)


def random_change_of_basis(alg, rng):
    """The same algebra presented in a random basis (registered idempotents carried over)."""
    f = alg.field
    d = alg.dim
    while True:
        p = Matrix(f, [[f.of_int(rng.randint(-2, 2)) for _ in range(d)] for _ in range(d)])
        inv = p.inverse()
        if inv is not None:
            break
    cols = [p.column(j) for j in range(d)]
    table = [[inv.apply(alg.multiply_coords(cols[i], cols[j])) for j in range(d)] for i in range(d)]
    out = Algebra(f, [f"b{i + 1}" for i in range(d)], table)
    for e in alg.registered_idempotents:
        out.register_idempotent(out.element(inv.apply(list(e.coords))))
    return out


# ---------------------------------------------------------------------------
# Reference sweeps: the per-element loops the annihilator sweep replaced.
#
# Unlike the oracles above these reuse the package's operators: they pin down
# *which* generators the engine emits, in which order, so that the optimised
# sweep can be required to reproduce them exactly.  They reduce rows with the
# dense reference builder, not with the package's sparse one.
# ---------------------------------------------------------------------------


def _annihilator_tensors(report_builder, ts, u, side, generators):
    """Insert u⊗w (right annihilators w of u) or w⊗u (left) into the span."""
    alg = ts.algebra
    if all(a == 0 for a in u):
        return 0
    mat = alg.left_mult_matrix(u) if side == "right" else alg.right_mult_matrix(u)
    added = 0
    for w in mat.kernel().basis:
        t = ts.tensor_coords(u, w) if side == "right" else ts.tensor_coords(w, u)
        pair = (tuple(u), tuple(w)) if side == "right" else (tuple(w), tuple(u))
        if report_builder.add(t):
            assert vec_is_zero(alg.multiply_coords(pair[0], pair[1]))
            generators.append(pair)
            added += 1
    return added


def reference_zero_product_span(algebra, config):
    """(generators, tracking builder) of the full per-element sweep."""
    ts = TensorSquare(algebra)
    f = algebra.field
    d = algebra.dim
    ker_dim = ts.kernel_dim()
    builder = DenseSpanBuilder(f, ts.ambient, track_expressions=True)
    generators = []

    size = algebra.n_elements()
    if size is not None and size <= config.enumeration_cap:
        for u in algebra.coord_tuples():
            if builder.dim >= ker_dim:
                break
            _annihilator_tensors(builder, ts, list(u), "right", generators)
    else:
        # (i) basis pairs with zero product
        for i in range(d):
            if builder.dim >= ker_dim:
                break
            for j in range(d):
                if vec_is_zero(algebra.table[i][j]):
                    ei = tuple(f.one if t == i else f.zero for t in range(d))
                    ej = tuple(f.one if t == j else f.zero for t in range(d))
                    if builder.add(ts.tensor_coords(ei, ej)):
                        generators.append((ei, ej))
        # (ii) annihilator sweeps over structured elements
        sweep = []
        for i in range(d):
            sweep.append([f.one if t == i else f.zero for t in range(d)])
        for i in range(d):
            for j in range(i + 1, d):
                v = [f.zero] * d
                v[i] = f.one
                v[j] = f.one
                sweep.append(list(v))
                if f.characteristic != 2:
                    w = list(v)
                    w[j] = f.neg(f.one)
                    sweep.append(w)
        idems = [list(e.coords) for e in algebra.registered_idempotents]
        sweep.extend(idems)
        for a in range(len(idems)):
            for b in range(a + 1, len(idems)):
                sweep.append([f.add(x, y) for x, y in zip(idems[a], idems[b])])
                sweep.append([f.sub(x, y) for x, y in zip(idems[a], idems[b])])
        for u in sweep:
            if builder.dim >= ker_dim:
                break
            _annihilator_tensors(builder, ts, u, "right", generators)
            _annihilator_tensors(builder, ts, u, "left", generators)
        # (iii) idempotent transfer tensors: ae⊗(c-ec) and (ae-a)⊗ec
        for e in algebra.registered_idempotents:
            if builder.dim >= ker_dim:
                break
            for i in range(d):
                a = algebra.basis_element(i)
                ae = a * e
                for k in range(d):
                    c = algebra.basis_element(k)
                    ec = e * c
                    for u, v in ((ae, c - ec), (ae - a, ec)):
                        t = ts.tensor_coords(u.coords, v.coords)
                        if builder.add(t):
                            assert vec_is_zero(algebra.multiply_coords(u.coords, v.coords))
                            generators.append((u.coords, v.coords))
        # (iv) seeded random elements until the span stalls
        rng = random.Random(config.seed)
        stall = 0
        while stall < config.stall_rounds and builder.dim < ker_dim:
            if f.characteristic == 0:
                u = [f.of_int(rng.randint(-3, 3)) for _ in range(d)]
            else:
                u = [rng.randrange(f.characteristic) for _ in range(d)]
            added = _annihilator_tensors(builder, ts, u, "right", generators)
            added += _annihilator_tensors(builder, ts, u, "left", generators)
            stall = 0 if added else stall + 1
    return generators, builder


def _factor_sweep(algebra, builder, witnesses, y_coords):
    """For fixed y adjoin {yz : zy = 0} = image under y of y's left annihilator."""
    if all(a == 0 for a in y_coords):
        return 0
    added = 0
    for z in algebra.right_mult_matrix(y_coords).kernel().basis:
        x = algebra.multiply_coords(y_coords, z)
        if builder.add(x):
            w = FactorizableWitness(
                x=algebra.element(x), y=algebra.element(y_coords), z=algebra.element(z)
            )
            if not w.verify():
                raise SoundnessAlarm("factorizable witness failed re-verification")
            witnesses.append(w)
            added += 1
    return added


def reference_factorizable_span(algebra, config):
    """(witnesses, builder) of the full per-element factorizable sweep."""
    f = algebra.field
    d = algebra.dim
    builder = DenseSpanBuilder(f, d)
    witnesses = []
    size = algebra.n_elements()
    if size is not None and size <= config.enumeration_cap:
        for y in algebra.coord_tuples():
            if builder.dim >= d:
                break
            _factor_sweep(algebra, builder, witnesses, list(y))
    else:
        sweep = []
        for i in range(d):
            sweep.append([f.one if t == i else f.zero for t in range(d)])
        for i in range(d):
            for j in range(i + 1, d):
                v = [f.zero] * d
                v[i] = f.one
                v[j] = f.one
                sweep.append(list(v))
                if f.characteristic != 2:
                    w = list(v)
                    w[j] = f.neg(f.one)
                    sweep.append(w)
        sweep.extend([list(e.coords) for e in algebra.registered_idempotents])
        for y in sweep:
            _factor_sweep(algebra, builder, witnesses, y)
        rng = random.Random(config.seed)
        stall = 0
        while stall < config.stall_rounds and builder.dim < d:
            if f.characteristic == 0:
                y = [f.of_int(rng.randint(-3, 3)) for _ in range(d)]
            else:
                y = [rng.randrange(f.characteristic) for _ in range(d)]
            stall = 0 if _factor_sweep(algebra, builder, witnesses, y) else stall + 1
    return witnesses, builder


# ---------------------------------------------------------------------------
# The balanced decider as it was before membership and decomposition became
# one reduction: a membership test first, then a decomposition whose
# coefficients are read off the RREF pivots, over every row of the span.  The
# span is the report's generators reduced again by the dense reference
# builder, so neither step runs the package's reducer.
# ---------------------------------------------------------------------------


def reference_span_builder(report):
    """The report's generator tensors, in order, in a tracking dense builder."""
    ts = report.tensor
    builder = DenseSpanBuilder(report.algebra.field, ts.ambient, track_expressions=True)
    for u, v in report.generators:
        if not builder.add(ts.tensor_coords(u, v)):
            raise AssertionError(f"generator {(u, v)} does not enlarge the span")
    return builder


def reference_membership_terms(report, builder, target):
    """target as Σ λ·(u⊗v) over the report's generators, or None when outside.

    `builder` is `reference_span_builder(report)`.  Its rows are in reduced
    echelon form, so the multiple of each row in a member is the member's
    entry at that row's pivot.
    """
    if not builder.contains(target):
        return None
    f = report.algebra.field
    combo = {}
    for rexpr, p in zip(builder.exprs, builder.pivots):
        c = target[p]
        if c == 0:
            continue
        for g, val in rexpr.items():
            combo[g] = f.add(combo.get(g, f.zero), f.mul(c, val))
    return [(lam, *report.generators[g]) for g, lam in sorted(combo.items()) if lam != 0]


def reference_balanced(algebra, report, with_certificates=False):
    """The two-step decider: a membership test, then the decomposition."""
    ts = report.tensor
    d = algebra.dim
    builder = reference_span_builder(report)
    certs = [] if with_certificates else None
    for i, j, k in product(range(d), repeat=3):
        t = ts.defect_tensor(i, j, k)
        if vec_is_zero(t):
            if with_certificates:
                certs.append(Certificate(kind=MEMBERSHIP, target=t, terms=[], meta={"triple": [i, j, k]}))
            continue
        if builder.contains(t):
            if with_certificates:
                terms = reference_membership_terms(report, builder, t)
                if terms is None:
                    raise SoundnessAlarm("membership reported but no decomposition found")
                certs.append(Certificate(kind=MEMBERSHIP, target=t, terms=terms, meta={"triple": [i, j, k]}))
            continue
        if report.status == EXACT:
            phi = next(phi for phi in report.subspace.complement_functionals() if dot(algebra.field, phi, t))
            cert = Certificate(kind=SEPARATING, target=t, functional=phi, generators=list(report.generators),
                               meta={"claim": "not-zero-product-balanced", "triple": [i, j, k],
                                     "span_status": report.status, "seed": report.config.seed})
            return BalancedVerdict(NO, witness_triple=(i, j, k), certificate=cert, n_triples=d ** 3)
        return BalancedVerdict(UNKNOWN, witness_triple=(i, j, k), n_triples=d ** 3,
                               note="membership failed against a lower-bound span; not refutable over this field")
    return BalancedVerdict(YES, certificates=certs, n_triples=d ** 3)


# ---------------------------------------------------------------------------
# Reference sweeps of commutative structure: the element loops that the
# Frobenius nilradical, the Berlekamp atoms and the clean witness from the
# lifted atoms replaced in zpbal.structure.
# ---------------------------------------------------------------------------


def _is_nilpotent_coords(algebra, coords) -> bool:
    """Repeated squaring: nilpotent iff the 2^k-th power vanishes, 2^k > dim."""
    v = list(coords)
    steps = max(1, (algebra.dim + 1).bit_length())
    for _ in range(steps):
        if vec_is_zero(v):
            return True
        v = algebra.multiply_coords(v, v)
    return vec_is_zero(v)


def reference_nilradical(algebra, config: SweepConfig = DEFAULT_CONFIG):
    """Span of the nilpotent elements, by the exhaustive F_p nilpotency sweep."""
    f = algebra.field
    d = algebra.dim
    size = algebra.n_elements()
    if size > config.enumeration_cap:
        raise BudgetExceeded(
            f"nilpotency sweep over {size} elements exceeds cap {config.enumeration_cap}"
        )
    builder = SpanBuilder(f, d)
    for coords in algebra.coord_tuples():
        if _is_nilpotent_coords(algebra, coords):
            builder.add(list(coords))
    return builder.to_subspace()


def reference_character_table(algebra):
    """Sorted rows of all characters, by the sweep of every functional."""
    f = algebra.field
    d = algebra.dim
    found = []
    for phi in algebra.coord_tuples():
        if all(a == 0 for a in phi):
            continue
        ok = True
        for i in range(d):
            for j in range(d):
                lhs = f.zero
                for t, c in enumerate(algebra.table[i][j]):
                    if c != 0 and phi[t] != 0:
                        lhs = f.add(lhs, f.mul(c, phi[t]))
                if lhs != f.mul(phi[i], phi[j]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(tuple(phi))
    return sorted(found)


def assert_characters_agree(report, algebra):
    """The character routes must agree: the atom route against the functional sweep."""
    rows = sorted(tuple(c.matrix.rows[0]) for c in report.characters)
    if rows != reference_character_table(algebra):
        raise SoundnessAlarm("character routes disagree")


@dataclass
class CleanSweep:
    verdict: str  # YES / NO
    units: set  # coordinate tuples of the units
    idempotents: set  # coordinate tuples of the idempotents


def reference_clean(algebra, config: SweepConfig = DEFAULT_CONFIG) -> CleanSweep:
    """Cleanness of a unital algebra over F_p: every element minus some
    idempotent is a unit, by the sweep of every element."""
    f = algebra.field
    unit = list(algebra.predicates().unit)
    size = algebra.n_elements()
    if size > config.enumeration_cap:
        raise BudgetExceeded(f"clean sweep over {size} elements exceeds cap {config.enumeration_cap}")
    units, idems = set(), set()
    for coords in algebra.coord_tuples():
        if (algebra.left_mult_matrix(list(coords)).solve(unit) is not None
                and algebra.right_mult_matrix(list(coords)).solve(unit) is not None):
            units.add(tuple(coords))
        if algebra.multiply_coords(coords, coords) == list(coords):
            idems.add(tuple(coords))
    verdict = "YES"
    for coords in algebra.coord_tuples():
        if not any(tuple(f.sub(a, b) for a, b in zip(coords, e)) in units for e in idems):
            verdict = "NO"
            break
    return CleanSweep(verdict=verdict, units=units, idempotents=idems)


@dataclass
class IdempotentList:
    items: List[Element]
    exhaustive: bool


def enumerate_idempotents(
    target: Union[Algebra, MultiplierAlgebra],
    config: SweepConfig = DEFAULT_CONFIG,
) -> IdempotentList:
    """All solutions of e*e = e, exhaustively over a finite carrier.

    Over the rationals only the registered idempotents (plus zero) are
    returned, flagged non-exhaustive: no quadratic solving is attempted.
    """
    alg = target.algebra if isinstance(target, MultiplierAlgebra) else target
    if alg.field.is_finite():
        size = alg.n_elements()
        if size > config.enumeration_cap:
            raise BudgetExceeded(f"{size} elements exceed cap {config.enumeration_cap}")
        items = []
        for coords in alg.coord_tuples():
            if alg.multiply_coords(coords, coords) == list(coords):
                items.append(alg.element(coords))
        return IdempotentList(items=items, exhaustive=True)
    items = [alg.zero_element()] + list(alg.registered_idempotents)
    return IdempotentList(items=items, exhaustive=False)
