"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; all inherit from HullAttackError so CLI code can catch one base.
"""


class HullAttackError(Exception):
    """Base class for all package-specific errors."""


class ParseError(HullAttackError):
    """Malformed or inconsistent serialized input."""


class DimensionMismatch(HullAttackError):
    """Operands have incompatible shapes or lengths."""


class NonSquare(HullAttackError):
    """A square matrix was required."""


class BadModulus(HullAttackError):
    """The modulus is outside the supported classes (k ≡ 0 mod 4, or the
    wrong parity for the requested closure)."""


class NotLcd(HullAttackError):
    """Operation requires an LCD code: one that meets its dual only in 0."""


class NotIntegral(HullAttackError):
    """Lattice basis has non-integer entries where integers are required."""


class NotARotation(HullAttackError):
    """Lattice is not an orthonormal rotation of the scaled integer
    lattice, or no such rotation could be assembled."""


class NoCandidate(HullAttackError):
    """No (modulus, rank) pair is consistent with the lattice determinant."""


class HullNotTrivial(HullAttackError):
    """No candidate modulus gives a hull equal to the scaled lattice: the
    code is not LCD, or it is LCD but no recovered candidate is its true
    modulus (a non-free LCD code, attacked without k)."""


class ZlipFailed(HullAttackError):
    """Scaled lattice-isomorphism step failed."""


class SpepFailed(HullAttackError):
    """Signed permutation equivalence step failed."""


class ExtractionExhausted(HullAttackError):
    """Graph-isomorphism solutions ran out (or the retry cap or the node
    budget was hit) without a pair-respecting signed permutation."""


class VerificationFailed(HullAttackError):
    """A postcondition that is guaranteed by theory failed to verify."""


class Timeout(HullAttackError):
    """Rejection sampling exceeded its draw budget."""


class TooLarge(HullAttackError):
    """Input size exceeds a hard guard for an exhaustive operation."""
