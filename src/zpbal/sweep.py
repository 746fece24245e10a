"""The annihilator sweep: one element-sweep primitive for two spans.

Both the zero-product span (tensors u⊗w with uw = 0) and the factorizable
square-zero span (products yz with zy = 0) are grown by visiting elements u
and reading off an annihilator of u: the right annihilator ker L_u = {w :
uw = 0} or the left annihilator ker R_u = {w : wu = 0}.  Whatever a caller
then offers from u is linear in u for fixed annihilator W, which gives the
memo: once u lies in the span of earlier elements with the same W, every
vector it could offer has been offered already and u is skipped.  Each
visit reduces the nonzero rows of L_u or R_u once: the reduced rows are the
memo key, and a new key reads W off the same reduction.

Over F_p the exhaustive element source is `projective_points`: a nonzero
multiple cu has the same annihilator as u and comes after it in
coordinate-tuple order, so only tuples whose first nonzero coordinate is 1
need a visit.  Skipping cu, or a memo hit, removes only offers that would
not have enlarged a span, so callers emit the same generators as a sweep
over every element.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Tuple

from zpbal.algebra import Algebra
from zpbal.fields import Field, Scalar
from zpbal.linalg import SpanBuilder, Vector

RIGHT = "right"  # annihilator {w : uw = 0} = ker L_u
LEFT = "left"  # annihilator {w : wu = 0} = ker R_u


class AnnihilatorSweep:
    """Annihilators of a stream of elements, with the per-annihilator memo."""

    def __init__(self, algebra: Algebra, side: str):
        self.algebra = algebra
        self.field = algebra.field
        self.dim = algebra.dim
        self.side = side
        # operator row space (its sparse RREF rows) -> (RREF basis of its null
        # space W, span of the elements already handed out with that W)
        self._memo: Dict[tuple, Tuple[List[Vector], SpanBuilder]] = {}
        self.visited = 0

    @property
    def distinct_annihilators(self) -> int:
        return len(self._memo)

    def visit(self, u) -> List[Vector]:
        """RREF basis of u's annihilator, or [] when u can offer nothing new.

        A nonempty answer records u in the memo: the caller must offer every
        vector it derives from u and the returned basis.
        """
        u = tuple(u)
        if not any(u):
            return []
        self.visited += 1
        ops = SpanBuilder(self.field, self.dim)
        for row in self.algebra._operator_rows(u, self.side == RIGHT).values():
            ops.add(row)
        # RREF is unique, so equal keys are equal row spaces, hence equal null spaces
        key = tuple(tuple(sorted(ops._rows[p].items())) for p in ops.pivots)
        entry = self._memo.get(key)
        if entry is None:
            entry = (ops.null_space().basis, SpanBuilder(self.field, self.dim))
            self._memo[key] = entry
        annihilator, seen = entry
        if not annihilator or not seen.add(list(u)):
            return []
        return annihilator


def projective_points(algebra: Algebra) -> Iterator[Tuple[Scalar, ...]]:
    """The tuples of `Algebra.coord_tuples()` whose first nonzero coordinate is 1."""
    one = algebra.field.one
    for u in algebra.coord_tuples():
        if next((c for c in u if c != 0), None) == one:
            yield u


def structured_elements(algebra: Algebra, idempotent_pairs: bool) -> List[List[Scalar]]:
    """Basis vectors, e_i ± e_j (e_i - e_j outside characteristic 2), the
    registered idempotents and, with `idempotent_pairs`, their pairwise sums
    and differences."""
    f = algebra.field
    d = algebra.dim
    out: List[List[Scalar]] = [[f.one if t == i else f.zero for t in range(d)] for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            v = [f.zero] * d
            v[i] = f.one
            v[j] = f.one
            out.append(v)
            if f.characteristic != 2:
                w = list(v)
                w[j] = f.neg(f.one)
                out.append(w)
    idems = [list(e.coords) for e in algebra.registered_idempotents]
    out.extend(idems)
    if idempotent_pairs:
        for a in range(len(idems)):
            for b in range(a + 1, len(idems)):
                out.append([f.add(x, y) for x, y in zip(idems[a], idems[b])])
                out.append([f.sub(x, y) for x, y in zip(idems[a], idems[b])])
    return out


def random_elements(field: Field, dim: int, seed: int) -> Iterator[List[Scalar]]:
    """Endless seeded elements: coordinates in [-3, 3] over Q, uniform over F_p."""
    rng = random.Random(seed)
    while True:
        if field.characteristic == 0:
            yield [field.of_int(rng.randint(-3, 3)) for _ in range(dim)]
        else:
            yield [rng.randrange(field.characteristic) for _ in range(dim)]
