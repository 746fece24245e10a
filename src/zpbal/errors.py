"""Exception types shared across the toolkit."""


class ZpbalError(Exception):
    """Base class for all toolkit errors."""


class InfiniteFieldError(ZpbalError):
    """Exhaustive enumeration requested over an infinite field."""


class AmbientMismatch(ZpbalError):
    """A row space and a vector or another row space live in different ambient spaces."""


class ExpressionsNotTracked(ZpbalError):
    """Generator coefficients requested from a span builder that does not track them."""


class NotAssociative(ZpbalError):
    """Structure-constant table violates associativity.

    Carries a witness basis triple (i, j, k).
    """

    def __init__(self, triple):
        self.triple = triple
        super().__init__(f"associativity fails on basis triple {triple}")


class ParentMismatch(ZpbalError):
    """Elements of different algebras combined."""


class NotAnIdeal(ZpbalError):
    """A subspace is not a two-sided ideal; carries a witness product."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"not an ideal: witness product {witness}")


class NotIdempotent(ZpbalError):
    """An element claimed idempotent fails e*e == e."""


class NotIdempotentModNil(ZpbalError):
    """Coset is not idempotent in the quotient by the nilradical."""


class NotCommutative(ZpbalError):
    """Operation requires a commutative algebra."""


class BudgetExceeded(ZpbalError):
    """Exhaustive enumeration would exceed the configured cap."""


class NotSemimultiplicative(ZpbalError):
    """Map fails the three-slot product-shift law; carries a witness triple."""

    def __init__(self, triple):
        self.triple = triple
        super().__init__(f"not semimultiplicative: witness triple {triple}")


class HypothesisFailed(ZpbalError):
    """A named precondition of a factorization theorem is violated."""

    def __init__(self, which):
        self.which = which
        super().__init__(f"hypothesis failed: {which}")


class SpanDeficient(ZpbalError):
    """Products of map images do not span the target algebra."""


class MalformedCertificate(ZpbalError):
    """Certificate payload is structurally invalid."""


class ParseError(ZpbalError):
    """Input file is syntactically or semantically invalid."""


class WriteError(ZpbalError):
    """An output file could not be written; carries the path and the reason."""

    def __init__(self, path: str, exc: OSError):
        super().__init__(f"cannot write {path}: {exc.strerror or exc}")


class SoundnessAlarm(ZpbalError):
    """A verified certificate chain contradicts a proven implication.

    Must never occur; reported with a dedicated process exit code so it is
    impossible to mistake for an ordinary verdict.
    """
