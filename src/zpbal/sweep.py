"""The annihilator sweep: the zero-product pairs both spans are built from.

The zero-product span keeps a⊗b and the factorizable square-zero span keeps
ba, for the same pairs (a, b) with ab = 0, so `sweep_blocks` hands both the
same pairs and is the one place that knows how they are grouped.  A visit to
u reads off an annihilator of u: the right annihilator W = ker L_u = {w : uw
= 0} or the left annihilator W = ker R_u = {w : wu = 0}.  The pairs that W
admits form a closed block.  On the right the block is LAnn(W) × W, where
LAnn(W) = {x : xW = 0} is W's closure: every x in it has xw = 0 for every w
in W, and u is one such x.  On the left the closure is RAnn(W) = {x : Wx =
0}, and the pairs are (w, x).  So the first visit that meets W hands out
W's basis with its closure's basis, and a later u with the same W is
skipped at once, because u lies in the closure and all its pairs are in the
block.  The memo is the set of operator row spaces already met.  Each visit
reduces the nonzero rows of L_u or R_u once: the reduced rows are the key,
and a new key reads W off the same reduction; one more reduction, of the
stacked operators of W's basis on the other side, gives the closure.  The
rows are in the representation `zpbal.linalg` picks for the field (ints
over F2, where the reduction is XOR, and maps of nonzero entries
otherwise); the sweep only hands them from `Algebra._operator_rows` to a
`SpanBuilder` and reads the key back, so it does not depend on that choice.

Over F_p, `AnnihilatorSweep.exhaustive_blocks` covers every element.  The
operator of u depends only on u modulo K = {u : op_u = 0}, the closure of
W = A (LAnn(A) on the right, RAnn(A) on the left), so K's block K × A
(A × K on the left) comes first, and then only one representative per coset
is visited: the tuples that are zero at K's pivot columns.  Of those,
`projective_points` keeps the tuples whose first nonzero coordinate is 1,
since a nonzero multiple cu has the same annihilator as u.  Every pair (u,
w) with uw = 0 lies in the right block of u's coset representative, so the
right blocks alone span the zero-product span, though not in the same order
or from the same generators as a sweep over every element.  The
factorizable span is that span's image under a⊗b -> ba, so the same right
blocks fill it too.

On a nilpotent algebra most of those points are not visited.  If A^n = 0
then every a in A has a^n = 0, so 1 + a is a unit of the unitization
F·1 ⊕ A, with inverse 1 - a + a² - … ± a^(n-1), and so is c(1 + a) for
every scalar c ≠ 0.  Hence (c(1 + a)u)w = c(1 + a)(uw) is zero exactly when
uw is, and adding k in K = LAnn(A) changes no product, so ker L_u is the
same for every element of c(u + Au) + K.  That set is u's orbit in A/K under
the group of the units c(1 + a), which acts on A/K because K is a left
ideal: (ak)A = a(kA) = 0.  On the left the units act as u -> c(u + ua) and
K = RAnn(A) is a right ideal.  So once u is visited, `AnnihilatorSweep.orbit`
lists the projective points of its orbit that are zero at K's pivots, and
`exhaustive_blocks` passes over them: their key is u's key, already in the
memo, so a visit would hand out nothing, and the blocks, their order and
everything built from them are those of a visit to every point.  Orbits
partition the points, so every point is listed at most once.
`is_nilpotent` decides which case holds; an algebra that is not nilpotent,
such as a unital one, has every point visited.

`sweep_blocks` is the one place that chooses between that exhaustive route
and a lower bound.  Beyond `--cap` it visits the structured elements (basis
vectors, e_i ± e_j, the registered idempotents and their pairwise sums and
differences) on the right and then on the left, then seeded random elements
until `stall_rounds` visits in a row add nothing.  The structured blocks
hold two families of zero-product pairs that therefore need no stage of
their own:

- a zero basis product e_i e_j = 0: the right visit of e_i gives
  W = ker L_{e_i}, which holds e_j, and its closure LAnn(W) holds e_i;
- the transfer pairs of a registered idempotent e: (ae, c - ec) lies in
  LAnn(W) × W for W = ker L_e, since e(c - ec) = 0 and ae·w = a(ew) = 0, and
  (ae - a, ec) lies in W' × RAnn(W') for the left annihilator W' = {w : we
  = 0}, since (ae - a)e = 0 and w·ec = (we)c = 0.

A visit offers nothing only when its block was offered before or the span
has reached the caller's ceiling, so both families lie in the span that the
structured phase leaves.

The orbit rule spares visits beyond `--cap` too, in both phases.  On a
nilpotent algebra (`AnnihilatorSweep.pass_over_orbits`) each side keeps
every v whose visit met a new key, most recently hit first, with S_v =
Av + K (vA + K on the left) and v's residual modulo S_v.  Av modulo K is
the reduction `orbit` makes.  The residual is nonzero unless v is in K: v =
av + k gives (1 - a)v = k, so v = (1 - a)⁻¹k lies in the left ideal K.  A
later u whose residual modulo some S_v is c times v's, with c ≠ 0, is u =
c(v + a'v) + k for some a' in A and k in K, so it lies in v's orbit: it has
v's annihilator, and its visit would have handed out nothing.  `visit`
passes over it without reducing L_u, and the caller counts the round as
one that added nothing, as before, so spans, generators and certificates
are those of a visit to every element.  The residuals are compared at v's
pivot by cross-multiplying, so no scalar is divided.  The test is not made
when A³ = 0, which `sweep_blocks` reads off the structure constants when no
basis vector in the support of a product e_i e_j has a nonzero product
with a basis vector: then Av ⊆ A² ⊆ K for every v, each orbit is a single
projective point of A/K, and a later element meets it only as a multiple of
v modulo K.  On D⊗N3/Q the test passed over 30 of 158 elements and on
M3(N3)/F2 4 of 44, and cost more time than those visits.
"""

from __future__ import annotations

import random
from operator import itemgetter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from zpbal.algebra import Algebra
from zpbal.config import EXACT, LOWER_BOUND, SweepConfig  # EXACT and LOWER_BOUND re-exported
from zpbal.fields import Field, Scalar
from zpbal.linalg import Row, Sparse, SpanBuilder, Vector, _entries

RIGHT = "right"  # annihilator {w : uw = 0} = ker L_u, closure {x : xW = 0}
LEFT = "left"  # annihilator {w : wu = 0} = ker R_u, closure {x : Wx = 0}

Block = Tuple[List[Vector], List[Vector]]  # RREF bases of (closure, annihilator)
Pair = Tuple[Tuple[Scalar, ...], Tuple[Scalar, ...]]  # (a, b) with ab = 0

# why `sweep_blocks` stopped
CEILING = "ceiling"  # `full()` held
EXHAUSTED = "exhausted"  # the exhaustive walk ended
STALL = "stall"  # `stall_rounds` random visits in a row added nothing


class AnnihilatorSweep:
    """Closed annihilator blocks of a stream of elements, each handed out once."""

    def __init__(self, algebra: Algebra, side: str):
        self.algebra = algebra
        self.field = algebra.field
        self.dim = algebra.dim
        self.side = side
        # operator row spaces (`SpanBuilder.row_space_key`) whose block was handed out
        self._keys: Set[tuple] = set()
        self.visited = 0
        self._kernel: Optional[SpanBuilder] = None  # K, once `pass_over_orbits` is called
        # per v kept by `_meet`, most recently hit first: Av modulo K, v's
        # residual modulo Av + K as `SpanBuilder` rows hold it, and its pivot
        self._met: List[Tuple[SpanBuilder, Row, Optional[int]]] = []

    @property
    def distinct_annihilators(self) -> int:
        return len(self._keys)

    def _closure(self, annihilator: List[Vector]) -> List[Vector]:
        """RREF basis of {x : xw = 0} (right) or {x : wx = 0} (left) for every
        w in `annihilator`: the null space of the stacked operators of w."""
        ops = SpanBuilder(self.field, self.dim)
        for w in annihilator:
            for row in self.algebra._operator_rows(w, self.side == LEFT).values():
                ops.add(row)
        return ops.null_space().basis

    def visit(self, u) -> Block:
        """(closure, annihilator) of u's annihilator W the first time W is
        met, or ([], []) when W is zero or its block was handed out already.
        After `pass_over_orbits`, u in the orbit of an element met before
        gets ([], []) without a visit, which `visited` does not count.

        A nonempty answer records W: the caller must offer every pair of the
        block.
        """
        if not any(u) or self._met and self._in_met_orbit(u):
            return [], []
        self.visited += 1
        ops = SpanBuilder(self.field, self.dim)
        for row in self.algebra._operator_rows(u, self.side == RIGHT).values():
            ops.add(row)
        # equal keys are equal row spaces, hence equal null spaces
        key = ops.row_space_key
        if key in self._keys:
            return [], []
        self._keys.add(key)
        if self._kernel is not None:
            self._meet(u)
        annihilator = ops.null_space().basis
        if not annihilator:
            return [], []
        return self._closure(annihilator), annihilator

    def pairs(self, block: Block) -> List[Pair]:
        """The block's pairs, closure-major: (x, w) on the right, (w, x) on the left."""
        closure, annihilator = block
        ws = [tuple(w) for w in annihilator]
        if self.side == RIGHT:
            return [(x, w) for x in map(tuple, closure) for w in ws]
        return [(w, x) for x in map(tuple, closure) for w in ws]

    def orbit(self, u: Sequence[Scalar], kernel: SpanBuilder) -> Iterator[Tuple[Scalar, ...]]:
        """Over F_p, on a nilpotent algebra: the projective points zero at
        K's pivots, K = `kernel`, in the orbit c(u + au) + K of u (c(u + ua)
        + K on the left), for u such a point itself.  Each has u's annihilator.
        Modulo K, u + Au is u + V with V zero at K's pivots; each of its
        p^dim(V) points is the last one plus a basis vector of V, the one a
        p-ary Gray code steps, and is then scaled to a leading 1."""
        f = self.field
        steps = self._moved(u, kernel).basis
        p = f.characteristic  # the scalars are residues mod p
        point = list(u)
        yield tuple(point)
        for n in range(1, p ** len(steps)):
            j = 0  # the p-adic valuation of n: the digit the Gray code steps by one
            while n % p == 0:
                n //= p
                j += 1
            point = [(a + b) % p for a, b in zip(point, steps[j])]
            lead = next(filter(None, point))
            if lead == 1:
                yield tuple(point)
            else:
                scale = f.inv(lead)
                yield tuple(scale * a % p for a in point)

    def _moved(self, u: Sequence[Scalar], kernel: SpanBuilder) -> SpanBuilder:
        """Au (uA on the left) modulo K = `kernel`: the span of the residuals
        of the products e_j u (u e_j), the columns of the operator x -> xu
        (x -> ux) whose rows `Algebra._operator_rows` gives."""
        columns: Dict[int, Sparse] = {}
        for k, row in self.algebra._operator_rows(u, self.side == LEFT).items():
            for j, c in _entries(row):
                columns.setdefault(j, {})[k] = c
        return SpanBuilder(self.field, self.dim, map(kernel.residual, columns.values()))

    def pass_over_orbits(self):
        """From now on `visit` passes over every element of the orbit
        c(v + Av) + K (c(v + vA) + K on the left) of each v whose visit met a
        new key.  Sound only on a nilpotent algebra."""
        f, d = self.field, self.dim
        self._kernel = SpanBuilder(f, d, self._closure(_unit_vectors(f, d)))

    def _meet(self, v: Sequence[Scalar]):
        moved = self._moved(v, self._kernel)
        residual = moved._reduce(self._kernel._reduce(v))
        if residual:  # zero only for v in K
            pivot = None if type(residual) is int else min(residual)
            self._met.insert(0, (moved, residual, pivot))

    def _in_met_orbit(self, u: Sequence[Scalar]) -> bool:
        """Whether u's residual modulo Av + K is c times v's, c != 0, for a v
        met before; the two are compared at v's pivot by cross-multiplying."""
        mul = self.field.mul
        reduced = self._kernel._reduce(u)
        for n, (moved, residual, pivot) in enumerate(self._met):
            x = moved._reduce(reduced)
            if pivot is None:  # over F2, packed: c = 1
                hit = x == residual
            else:
                c, r = x.get(pivot), residual[pivot]
                hit = c is not None and x.keys() == residual.keys() and all(
                    mul(a, r) == mul(residual[j], c) for j, a in x.items())
            if hit:
                self._met.insert(0, self._met.pop(n))
                return True
        return False

    def exhaustive_blocks(self) -> Iterator[Block]:
        """K's block for W = A, then the block of each new annihilator met
        on the projective points that are zero at K's pivot columns.  On a
        nilpotent algebra a point in the orbit of a point visited before is
        passed over: its annihilator, hence its key, is already known."""
        f = self.field
        whole = _unit_vectors(f, self.dim)
        kernel = self._closure(whole)
        self._keys.add(())  # op_u = 0 exactly on K
        yield kernel, whole
        pivots = [next(j for j, c in enumerate(k) if c) for k in kernel]
        points = projective_points(self.algebra, pivots)
        if is_nilpotent(self.algebra):
            points = self._orbit_representatives(points, SpanBuilder(f, self.dim, kernel))
        for u in points:
            block = self.visit(u)
            if block[1]:
                yield block

    def _orbit_representatives(self, points: Iterator[Tuple[Scalar, ...]],
                               kernel: SpanBuilder) -> Iterator[Tuple[Scalar, ...]]:
        """The points of `points` that lie in no orbit of a point yielded before."""
        met: Set[Tuple[Scalar, ...]] = set()
        for u in points:
            if u not in met:
                yield u
                met.update(self.orbit(u, kernel))


def is_nilpotent(algebra: Algebra) -> bool:
    """Whether A^n = 0 for some n, by the chain A ⊇ A² ⊇ A⁴ ⊇ …: A^(2k) is
    spanned by the products xy with x, y in a basis of A^k.  The chain ends
    at 0 or at the first A^(2k) = A^k, which is then every A^(2^m k), and
    it stops at once when A² = A."""
    f, d = algebra.field, algebra.dim
    power = SpanBuilder(f, d, (dict(v) for row in algebra._nonzero for v in row if v))  # A²
    size = d
    while 0 < power.dim < size:
        size = power.dim
        basis = power.basis
        power = SpanBuilder(f, d, (algebra.multiply_coords(x, y) for x in basis for y in basis))
    return not power.dim


def _unit_vectors(field: Field, dim: int) -> List[List[Scalar]]:
    return [[field.one if t == i else field.zero for t in range(dim)] for i in range(dim)]


def projective_points(algebra: Algebra, zero_at: Sequence[int] = ()) -> Iterator[Tuple[Scalar, ...]]:
    """The tuples of `Algebra.coord_tuples()` that are zero at every index in
    `zero_at` and whose first nonzero coordinate is 1."""
    one = algebra.field.one
    # u[:0] = () when there is no index to test; either way zeros is `at` of the zero tuple
    at = itemgetter(*zero_at) if zero_at else itemgetter(slice(0))
    zeros = at((algebra.field.zero,) * algebra.dim)
    for u in algebra.coord_tuples():
        if at(u) == zeros and next(filter(None, u), None) == one:
            yield u


def structured_elements(algebra: Algebra) -> List[List[Scalar]]:
    """Basis vectors, e_i ± e_j (e_i - e_j outside characteristic 2), the
    registered idempotents and their pairwise sums and differences."""
    f = algebra.field
    d = algebra.dim
    out = _unit_vectors(f, d)
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


def sweep_blocks(algebra: Algebra, config: SweepConfig, offer: Callable[[List[Pair]], int],
                 full: Callable[[], bool]) -> Tuple[str, str]:
    """Hand each block the sweep meets to `offer` as its zero-product pairs
    (a, b), closure-major: (x, w) on the right and (w, x) on the left, for x
    in the closure and w in the annihilator.  `offer` returns how many
    vectors it added; the sweep stops as soon as `full()` holds.

    With at most `config.enumeration_cap` elements, the exhaustive right
    blocks; the status is EXACT.  Otherwise each structured element, then
    each seeded random element until `config.stall_rounds` in a row add
    nothing, is visited on the right and then on the left; the status is
    LOWER_BOUND.  Returns (status, why the sweep stopped): CEILING,
    EXHAUSTED or STALL.
    """
    right = AnnihilatorSweep(algebra, RIGHT)
    size = algebra.n_elements()
    if size is not None and size <= config.enumeration_cap:
        for block in right.exhaustive_blocks():
            offer(right.pairs(block))
            if full():  # before the sweep looks for another block
                return EXACT, CEILING
        return EXACT, EXHAUSTED
    sweeps = (right, AnnihilatorSweep(algebra, LEFT))
    nz = algebra._nonzero
    # a product's support times A is zero, hence A³ = 0 and Av ⊆ A² ⊆ K for every v
    cube_zero = not any(any(nz[k]) for k in {k for row in nz for cell in row for k, _ in cell})
    if not cube_zero and is_nilpotent(algebra):
        for sweep in sweeps:
            sweep.pass_over_orbits()

    def visit(u) -> int:
        return sum(offer(sweep.pairs(sweep.visit(u))) for sweep in sweeps)

    for u in structured_elements(algebra):
        if full():
            return LOWER_BOUND, CEILING
        visit(u)
    stall = 0
    for u in random_elements(algebra.field, algebra.dim, config.seed):  # endless
        if full():
            return LOWER_BOUND, CEILING
        if stall >= config.stall_rounds:
            return LOWER_BOUND, STALL
        stall = 0 if visit(u) else stall + 1
