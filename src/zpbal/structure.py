"""Commutative structure theory: nilradical, characters, the atoms of the
reduced quotient, idempotent lifting, nil-plus-idempotent decompositions,
cleanness, and the character-or-radical dichotomies.

Over F_p the Frobenius map x -> x^p is linear on a commutative algebra, so
no element is enumerated for the nilradical, ker Frob^k with p^k > dim, or
for the atoms (primitive idempotents) of the reduced quotient, which come
from the Berlekamp subalgebra ker(Frob - I) = F_p^r.  Over Q they are the
trace-form radical and the refinement of the registered idempotents.  The
enumeration cap bounds only p in the atom search; the clean check builds a
decomposition from the lifted atoms instead of searching the elements.

A commutative report is read from one `ReducedQuotient`, built for one
algebra under one configuration: `characters`, `sigma_splitting`,
`regular_and_clean_check` and `dichotomy_commutative` each take it as their
only argument, so a run that reports all four computes each object once.

Everything here is verified by postconditions: nilradical basis vectors are
re-checked nilpotent, atoms orthogonal and idempotent, characters
multiplicative, lifted idempotents against e*e = e, sections against
multiplicativity, decompositions against exact reconstruction, clean
decompositions against invertibility on every basis element.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from zpbal.algebra import Algebra, Element
from zpbal.config import DEFAULT_CONFIG, SweepConfig
from zpbal.constructions import Quotient, ideal_closure, quotient_algebra, scalar_algebra
from zpbal.errors import (
    BudgetExceeded,
    HypothesisFailed,
    NotCommutative,
    NotIdempotentModNil,
    SoundnessAlarm,
)
from zpbal.fields import Scalar
from zpbal.linalg import Matrix, SpanBuilder, vec_scale
from zpbal.linmaps import AlgMap
from zpbal.squarezero import commutator_span
from zpbal.tensorsquare import (
    EXACT,
    UNKNOWN,
    YES,
    compute_zero_product_span,
    is_zero_product_balanced,
)

PARTIAL = "PARTIAL"


def _require_commutative(algebra: Algebra):
    if not algebra.predicates().is_commutative:
        raise NotCommutative("operation requires a commutative algebra")


def _frobenius(algebra: Algebra) -> Matrix:
    """Matrix of x -> x^p on a commutative algebra over F_p: column i holds e_i^p."""
    p = algebra.field.characteristic
    cols = [list(algebra.basis_element(i).power(p).coords) for i in range(algebra.dim)]
    return Matrix.from_columns(algebra.field, cols, algebra.dim)


def nilradical(algebra: Algebra) -> SpanBuilder:
    """The ideal of nilpotent elements of a commutative algebra.

    Characteristic 0: radical of the trace form (x,y) -> tr(L_x L_y).  Prime
    fields: ker Frob^k with p^k > dim, since a nilpotent x has x^(dim+1) = 0
    (the trace form is unreliable in small characteristic).  Every output
    basis vector is re-verified nilpotent.
    """
    _require_commutative(algebra)
    f = algebra.field
    d = algebra.dim
    if f.characteristic == 0:
        lmats = [algebra.left_mult_matrix(
            [f.one if t == i else f.zero for t in range(d)]) for i in range(d)]
        gram = []
        for i in range(d):
            row = []
            for j in range(d):
                prod = lmats[i].mul(lmats[j])
                tr = f.zero
                for t in range(d):
                    tr = f.add(tr, prod.rows[t][t])
                row.append(tr)
            gram.append(row)
        space = Matrix(f, gram, cols=d).kernel()
    else:
        frob = _frobenius(algebra)
        power, exponent = frob, f.characteristic
        while exponent <= d:
            power, exponent = power.mul(frob), exponent * f.characteristic
        space = power.kernel()
    for v in space.basis:
        if not algebra.element(v).is_nilpotent():
            raise SoundnessAlarm("nilradical contains a non-nilpotent vector")
    return space


# ---------------------------------------------------------------------------
# idempotents and atoms
# ---------------------------------------------------------------------------


def atoms_from_idempotents(idempotents: List[Element]) -> List[Element]:
    """Primitive pairwise-orthogonal idempotents refining the given ones.

    Standard partition refinement: each new idempotent splits every current
    part q into qe and q - qe, plus the remainder of e outside the current
    support.  Requires a commutative parent.
    """
    parts: List[Element] = []
    for e in idempotents:
        if e.is_zero():
            continue
        new_parts: List[Element] = []
        r = e
        for q in parts:
            qe = q * e
            r = r - qe
            if not qe.is_zero():
                new_parts.append(qe)
            rest = q - qe
            if not rest.is_zero():
                new_parts.append(rest)
        if not r.is_zero():
            new_parts.append(r)
        parts = new_parts
    return parts


def _reduced_atoms(q: Algebra, config: SweepConfig) -> List[Element]:
    """The atoms of a commutative reduced algebra.

    Over F_p, q is a product of fields and ker(Frob - I) = F_p^r holds the
    elements with F_p coordinates on its r field factors.  For x in a basis
    of that kernel and λ in F_p, 1 - (x - λ)^(p-1) is the sum of the atoms on
    which x takes the value λ, so refining these idempotents yields all r
    atoms, returned sorted by coordinates.  Over Q: the refinement of the
    registered idempotents, which need not be primitive.  BudgetExceeded when
    the search would run over more than `config.enumeration_cap` scalars (p of
    F_p; none over Q or for q = 0).
    """
    f = q.field
    if f.is_finite() and q.dim > 0 and f.characteristic > config.enumeration_cap:
        raise BudgetExceeded(f"atom search over the {f.characteristic} scalars of {f.name} "
                             f"exceeds cap {config.enumeration_cap}")
    if not f.is_finite():
        atoms = atoms_from_idempotents(list(q.registered_idempotents))
    elif q.dim == 0:
        return []
    else:
        p = f.characteristic
        unit = q.predicates().unit
        if unit is None:
            raise SoundnessAlarm("nonzero reduced algebra without a unit")
        one = q.element(unit)
        frob = _frobenius(q)
        for i in range(q.dim):
            frob.rows[i][i] = f.sub(frob.rows[i][i], f.one)
        split = frob.kernel()
        atoms = sorted(
            atoms_from_idempotents([one - (q.element(x) - one.scale(lam)).power(p - 1)
                                    for x in split.basis for lam in f.elements()]),
            key=lambda a: a.coords)
        if len(atoms) != split.dim or sum(atoms, q.zero_element()) != one:
            raise SoundnessAlarm("Berlekamp atoms do not partition the unit")
    for n, a in enumerate(atoms):
        if a.is_zero() or a * a != a or any(not (a * b).is_zero() for b in atoms[n + 1:]):
            raise SoundnessAlarm("atoms are not nonzero orthogonal idempotents")
    return atoms


class ReducedQuotient:
    """The nilradical N of a commutative algebra A, the reduced quotient
    Q = A/N, and the atoms of Q with their lifts to A, under one
    configuration, each computed once.

    The characters, the splitting, the clean check and the dichotomy all start
    from these and take one ReducedQuotient; `characters` and
    `sigma_splitting` keep their results here.  `config` bounds the atom
    search: when p exceeds its cap, `atoms` raises BudgetExceeded on every
    call, and nothing that needs the atoms is kept.
    """

    def __init__(self, algebra: Algebra, config: SweepConfig = DEFAULT_CONFIG):
        self.algebra = algebra
        self.config = config
        self.nilradical = nilradical(algebra)
        self.quotient = quotient_algebra(algebra, self.nilradical)
        self._atoms: Optional[List[Element]] = None
        self._lifted: Optional[List[Element]] = None
        self._characters: Optional[CharacterReport] = None
        self._splitting: Optional[SigmaSplitting] = None

    def atoms(self) -> List[Element]:
        """The atoms of Q (see `_reduced_atoms`)."""
        if self._atoms is None:
            self._atoms = _reduced_atoms(self.quotient.algebra, self.config)
        return self._atoms

    def lifted_atoms(self) -> List[Element]:
        """The idempotents of A over the atoms of Q, in the same order."""
        atoms = self.atoms()
        if self._lifted is None:
            self._lifted = [lift_idempotent(self.algebra, self.quotient, a) for a in atoms]
        return self._lifted


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------


class CharacterReport(NamedTuple):
    """Nonzero multiplicative functionals to the base field."""

    characters: List[AlgMap]
    status: str  # EXACT / PARTIAL
    notes: List[str]


def _atom_character(quot: Quotient, atom: Element) -> Optional[AlgMap]:
    """x -> c with atom·x̄ = c·atom, when atom·Q is the line through the atom
    (its field factor is the base field); None otherwise."""
    q = quot.algebra
    f = q.field
    mult = q.left_mult_matrix(list(atom.coords))
    if mult.rank() != 1:
        return None
    t = next(i for i, c in enumerate(atom.coords) if c != 0)
    row = vec_scale(f, f.inv(atom.coords[t]), mult.rows[t])
    return AlgMap(quot.parent, scalar_algebra(f), Matrix(f, [row], cols=q.dim).mul(quot.projection))


def characters(red: ReducedQuotient) -> CharacterReport:
    """All nonzero algebra homomorphisms to the base field (commutative case).

    A character kills the nilradical and all atoms of the reduced quotient Q
    but one atom a, and then a·Q must be the base field: so there is one
    character per atom a with dim(a·Q) = 1, each checked multiplicative.  The
    list is complete over F_p, where the atoms are all of them, and over Q
    when the atoms from the registry span Q.
    """
    try:
        atoms = red.atoms()
    except BudgetExceeded as exc:
        return CharacterReport(characters=[], status=PARTIAL, notes=[f"atoms not computed: {exc}"])
    if red._characters is None:
        red._characters = _character_report(red, atoms)
    return red._characters


def _character_report(red: ReducedQuotient, atoms: List[Element]) -> CharacterReport:
    quot = red.quotient
    chars = [chi for chi in (_atom_character(quot, a) for a in atoms) if chi is not None]
    for chi in chars:
        if chi.is_multiplicative() is not None:
            raise SoundnessAlarm("atom functional is not multiplicative")
    chars.sort(key=lambda c: tuple(c.matrix.rows[0]))
    notes = [f"{len(chars)} characters from {len(atoms)} atoms"]
    if red.algebra.field.is_finite() or len(atoms) == quot.algebra.dim:
        return CharacterReport(characters=chars, status=EXACT, notes=notes)
    notes.append("registered idempotents do not span the reduced quotient")
    return CharacterReport(characters=chars, status=PARTIAL, notes=notes)


# ---------------------------------------------------------------------------
# idempotent lifting and the nil + idempotent decomposition
# ---------------------------------------------------------------------------


def lift_idempotent(algebra: Algebra, quot: Quotient, ebar: Element) -> Element:
    """The unique idempotent congruent to ebar modulo the nilradical.

    Newton iteration e <- 3e² - 2e³ starting from any coset representative;
    uniqueness is asserted by running a second, shifted representative to the
    same fixed point.
    """
    _require_commutative(algebra)
    if (ebar * ebar) != ebar:
        raise NotIdempotentModNil("class is not idempotent in the quotient")

    def iterate(e: Element) -> Element:
        three = algebra.field.of_int(3)
        two = algebra.field.of_int(2)
        for _ in range(algebra.dim + 2):
            if (e * e) == e:
                return e
            e2 = e * e
            e = e2.scale(three) - (e2 * e).scale(two)
        raise SoundnessAlarm("idempotent lifting failed to converge")

    start = quot.lift(ebar)
    e = iterate(start)
    if quot.project(e) != ebar:
        raise SoundnessAlarm("lift drifted out of its coset")
    if quot.ideal.dim > 0:
        shift = algebra.element(quot.ideal.basis[0])
        e2 = iterate(start + shift)
        if e2 != e:
            raise SoundnessAlarm("idempotent lift is not unique")
    return e


class SigmaSplitting(NamedTuple):
    """Multiplicative linear section of the projection onto the reduced quotient."""

    quotient: Quotient
    sigma: Matrix  # algebra.dim x quotient.dim
    atoms: List[Element]  # atoms of the quotient
    lifted_atoms: List[Element]
    atom_expansion: Matrix  # quotient vector -> atom coefficients

    def apply(self, qbar: Element) -> Element:
        return self.quotient.parent.element(self.sigma.apply(list(qbar.coords)))


def sigma_splitting(red: ReducedQuotient) -> SigmaSplitting:
    """Split the projection onto the quotient by the nilradical by lifting the
    atoms; requires the quotient to be spanned by its atoms.  A zero quotient
    has no atoms, and its section has no column."""
    atoms = red.atoms()
    if len(atoms) != red.quotient.algebra.dim:
        raise HypothesisFailed("reduced quotient is not spanned by known idempotents")
    if red._splitting is None:
        red._splitting = _lift_splitting(red, atoms, red.lifted_atoms())
    return red._splitting


def _lift_splitting(red: ReducedQuotient, atoms: List[Element], lifted: List[Element]) -> SigmaSplitting:
    algebra = red.algebra
    f = algebra.field
    quot = red.quotient
    q = quot.algebra
    # orthogonal idempotents are independent: invert the atoms as columns
    expansion = Matrix.from_columns(f, [list(a.coords) for a in atoms], q.dim).inverse()
    # sigma = (lifted atoms as columns) ∘ (expansion in the atom basis)
    lift_cols = Matrix.from_columns(f, [list(a.coords) for a in lifted], algebra.dim)
    sigma = lift_cols.mul(expansion)
    if (quot.projection.mul(sigma) != Matrix.identity(f, q.dim)
            or AlgMap(q, algebra, sigma).is_multiplicative() is not None):
        raise SoundnessAlarm("sigma splitting failed verification")
    return SigmaSplitting(quotient=quot, sigma=sigma, atoms=atoms, lifted_atoms=lifted,
                          atom_expansion=expansion)


class Decomposition(NamedTuple):
    """a = nil_part + sum of lambda_i * e_i with orthogonal idempotents e_i and
    distinct nonzero coefficients; unique up to permutation, so coefficients
    are stored in a canonical sort order."""

    nil_part: Element
    terms: List[Tuple[Scalar, Element]]

    def reconstruct(self) -> Element:
        out = self.nil_part
        for lam, e in self.terms:
            out = out + e.scale(lam)
        return out

    def verify(self) -> bool:
        a = self.nil_part
        if not a.is_nilpotent():
            return False
        lams = [lam for lam, _ in self.terms]
        if len(set(lams)) != len(lams) or any(lam == 0 for lam in lams):
            return False
        for i, (_, e) in enumerate(self.terms):
            if (e * e) != e or e.is_zero():
                return False
            for j in range(i + 1, len(self.terms)):
                if not (e * self.terms[j][1]).is_zero():
                    return False
        return True


def decompose(a: Element, splitting: SigmaSplitting) -> Decomposition:
    """Nil-plus-idempotent normal form of an element."""
    quot = splitting.quotient
    abar = quot.project(a)
    sig = splitting.apply(abar)
    nil_part = a - sig
    # expand abar over the atoms; atoms with equal coefficients merge into one
    # idempotent so the coefficients of the normal form are pairwise distinct
    by_coeff: Dict[Scalar, Element] = {}
    coeffs = splitting.atom_expansion.apply(list(abar.coords))
    for lam, lifted in zip(coeffs, splitting.lifted_atoms):
        if lam == 0:
            continue
        if lam in by_coeff:
            by_coeff[lam] = by_coeff[lam] + lifted
        else:
            by_coeff[lam] = lifted
    terms = [(lam, by_coeff[lam]) for lam in sorted(by_coeff.keys())]
    dec = Decomposition(nil_part=nil_part, terms=terms)
    if dec.reconstruct() != a or not dec.verify():
        raise SoundnessAlarm("decomposition failed to reconstruct its input")
    return dec


# ---------------------------------------------------------------------------
# regularity / cleanness
# ---------------------------------------------------------------------------

NOT_EVALUATED = "NOT_EVALUATED"


class CleanWitness(NamedTuple):
    """Clean decompositions from the atoms ē_i of Q = A/N and their lifts e_i."""

    quotient: Quotient
    atoms: List[Element]
    lifted_atoms: List[Element]

    def idempotent(self, a: Element) -> Element:
        """f = Σ e_i over the atoms with ā·ē_i = 0 in Q: on each field factor
        ē_iQ, ā - f̄ is ā when ā·ē_i != 0 and -1 otherwise, so a - f is a unit
        of A (units lift modulo the nil ideal N)."""
        abar = self.quotient.project(a)
        f = a.parent.zero_element()
        for atom, e in zip(self.atoms, self.lifted_atoms):
            if (abar * atom).is_zero():
                f = f + e
        return f


class RegularCleanReport(NamedTuple):
    regular_on_quotient: Optional[bool]
    clean: str  # YES / NOT_EVALUATED / UNKNOWN
    notes: List[str]
    witness: Optional[CleanWitness] = None  # when clean is YES


def regular_and_clean_check(red: ReducedQuotient) -> RegularCleanReport:
    """Von Neumann regularity of the reduced quotient (via the atom formula)
    and cleanness (unit + idempotent) of unital algebras; cleanness of
    nonunital algebras is reported NOT_EVALUATED.

    A finite-dimensional commutative unital algebra is a finite product of
    local rings, hence clean (Nicholson 1977; Anderson and Camillo 2002).
    The verdict YES comes with `CleanWitness`, re-checked on every basis
    element.  It needs every atom of Q = A/N: over F_p with p within the cap,
    over Q when the registered atoms span Q; otherwise clean is UNKNOWN.
    """
    algebra = red.algebra
    f = algebra.field
    notes = []
    regular: Optional[bool] = None
    try:
        splitting = sigma_splitting(red)
        q = splitting.quotient.algebra
        regular = True
        for i in range(q.dim):
            x = q.basis_element(i)
            coeffs = splitting.atom_expansion.apply(list(x.coords))
            y = q.zero_element()
            for lam, at in zip(coeffs, splitting.atoms):
                if lam != 0:
                    y = y + at.scale(f.inv(lam))
            if (x * y * x) != x:
                regular = False
        notes.append("regularity via atom inverses")
    except (HypothesisFailed, BudgetExceeded) as exc:
        notes.append(f"regularity not decided: {exc}")

    witness: Optional[CleanWitness] = None
    if not algebra.predicates().is_unital:
        clean = NOT_EVALUATED
        notes.append("clean requires a unit; not evaluated for nonunital input")
    else:
        try:
            witness = _clean_witness(red)
            clean = YES
            notes.append("clean by the lifted atoms, witness checked on the basis")
        except (HypothesisFailed, BudgetExceeded) as exc:
            clean = UNKNOWN
            notes.append(f"clean not decided: {exc}")
    return RegularCleanReport(regular_on_quotient=regular, clean=clean, notes=notes, witness=witness)


def _clean_witness(red: ReducedQuotient) -> CleanWitness:
    """The witness from every atom of Q, checked on each basis element a:
    f = witness.idempotent(a) is idempotent and a - f is a unit."""
    algebra = red.algebra
    quot = red.quotient
    atoms = red.atoms()
    if not algebra.field.is_finite() and len(atoms) != quot.algebra.dim:
        raise HypothesisFailed("registered idempotents do not span the reduced quotient")
    witness = CleanWitness(quotient=quot, atoms=atoms, lifted_atoms=red.lifted_atoms())
    unit = list(algebra.predicates().unit)
    for i in range(algebra.dim):
        a = algebra.basis_element(i)
        f = witness.idempotent(a)
        if f * f != f or algebra.left_mult_matrix(list((a - f).coords)).solve(unit) is None:
            raise SoundnessAlarm(f"clean witness fails on basis element {i}")
    return witness


# ---------------------------------------------------------------------------
# dichotomies
# ---------------------------------------------------------------------------

HAS_CHARACTER = "HAS_CHARACTER"
NILRADICAL = "NILRADICAL"
INAPPLICABLE = "INAPPLICABLE"
RADICAL_OVER_COMMUTATOR_IDEAL = "RADICAL_OVER_COMMUTATOR_IDEAL"


class DichotomyResult(NamedTuple):
    kind: str
    witness: Optional[AlgMap] = None  # character, when found
    nilradical_dim: Optional[int] = None
    character_count: Optional[int] = None
    exponents: Optional[List[int]] = None  # per-basis nilpotency exponents mod the ideal
    note: str = ""


def dichotomy_commutative(red: ReducedQuotient) -> DichotomyResult:
    """The branch that holds: NILRADICAL when every element is nilpotent,
    HAS_CHARACTER when a character exists, otherwise INAPPLICABLE.

    A commutative balanced algebra is spanned by nilpotents and idempotents,
    so it lands on one of the first two branches.  Balancedness is decided
    only on the third, where a YES with a complete character search
    contradicts that theorem and raises SoundnessAlarm.
    """
    algebra = red.algebra
    nil = red.nilradical
    chars = characters(red)
    if nil.dim == algebra.dim:
        if chars.characters:
            raise SoundnessAlarm("nilradical algebra with a character")
        return DichotomyResult(kind=NILRADICAL, nilradical_dim=nil.dim, character_count=0)
    if chars.characters:
        return DichotomyResult(kind=HAS_CHARACTER, witness=chars.characters[0],
                               nilradical_dim=nil.dim, character_count=len(chars.characters))
    if chars.status != EXACT:
        return DichotomyResult(kind=INAPPLICABLE, nilradical_dim=nil.dim,
                               note="character search incomplete over this field")
    balanced = is_zero_product_balanced(algebra, compute_zero_product_span(algebra, red.config))
    if balanced.status == YES:
        raise SoundnessAlarm("balanced commutative algebra with neither character nor nilradical")
    return DichotomyResult(kind=INAPPLICABLE, nilradical_dim=nil.dim, character_count=0,
                           note=f"neither branch holds; balanced verdict {balanced.status}")


def commutator_ideal(algebra: Algebra) -> SpanBuilder:
    """Two-sided ideal generated by all commutators."""
    return ideal_closure(algebra, commutator_span(algebra).basis)


def dichotomy_general(algebra: Algebra, config: SweepConfig = DEFAULT_CONFIG) -> DichotomyResult:
    """Either a character exists, or every element has a power inside the
    commutator ideal (checked on basis images in the commutative quotient,
    which suffices since nilpotents there form an ideal).  When neither
    holds the result is INAPPLICABLE if the character search was exact and
    UNKNOWN otherwise."""
    ideal = commutator_ideal(algebra)
    quot = quotient_algebra(algebra, ideal)
    q = quot.algebra
    if not q.predicates().is_commutative:
        raise SoundnessAlarm("quotient by the commutator ideal is not commutative")
    chars = characters(ReducedQuotient(q, config))
    if chars.characters:
        chi = chars.characters[0]
        pulled = AlgMap(algebra, chi.target, chi.matrix.mul(quot.projection))
        return DichotomyResult(kind=HAS_CHARACTER, witness=pulled,
                               character_count=len(chars.characters))
    exponents = []
    radical = True
    for i in range(algebra.dim):
        image = q.element(quot.projection.apply(
            [algebra.field.one if t == i else algebra.field.zero for t in range(algebra.dim)]))
        m = None
        power = image
        for exp in range(1, q.dim + 2):
            if power.is_zero():
                m = exp
                break
            power = power * image
        if m is None:
            radical = False
            break
        exponents.append(m)
    if radical:
        return DichotomyResult(kind=RADICAL_OVER_COMMUTATOR_IDEAL, exponents=exponents,
                               character_count=0 if chars.status == EXACT else None)
    if chars.status == EXACT:
        return DichotomyResult(kind=INAPPLICABLE, character_count=0,
                               note="no character exists and not radical over the commutator ideal")
    return DichotomyResult(kind=UNKNOWN,
                           note="no character found (search incomplete) and not radical over the commutator ideal")
