"""Exception types shared across the package.

Every error that a caller can provoke through legitimate input carries
enough context (offending index, argument, or cap) to reproduce the
failure by direct evaluation.
"""


class UltrajetError(Exception):
    """Base class for all package errors."""


class NotAWeightSequence(UltrajetError):
    """The finite-range divergence certificate for M_k^{1/k} failed."""


class RangeExhausted(UltrajetError):
    """An inf/sup/counting index hit the end of the stored table, so the
    result is not certified within the configured index range."""


class GridExhausted(UltrajetError):
    """A conjugate argmax ran past the auto-extension cap of its grid."""


class NotLittleO(UltrajetError):
    """Operation requires a weight with a certified o(t) decay flag."""


class QuasianalyticInput(UltrajetError):
    """Operation requires a non-quasianalytic weight (convergent tail
    integral / summable reciprocal quotients)."""


class TailUnbounded(UltrajetError):
    """No certified bound for the tail sum beyond the stored index range
    (fitted quotient exponent too small, or a model tail sum that does not
    converge)."""


class OrderCapExceeded(UltrajetError):
    """Requested derivative or polynomial order exceeds the stored cap."""


class StageOverflow(UltrajetError):
    """Convolution radii cannot fit in the required fraction of the bump
    half-width at the requested smoothness degree."""


class BoundOverflow(UltrajetError):
    """A certified bound is not finite, so no certificate can rest on it."""


class DepthExhausted(UltrajetError):
    """Cube subdivision hit the depth cap while the uncovered collar is
    still wider than the configured minimum feature scale."""


class InvariantViolation(UltrajetError):
    """A structural invariant failed at a concrete witness point."""


class IncompatibleGeometry(UltrajetError):
    """Two pipeline stages reference different cube decompositions."""


class ConfigError(UltrajetError):
    """Experiment configuration failed schema validation."""
