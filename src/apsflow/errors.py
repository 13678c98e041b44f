"""Exception types raised across the package."""


class ApsflowError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(ApsflowError):
    """Operands live in different ambient dimensions."""


class EigendecompositionError(ApsflowError):
    """The dense Hermitian eigensolver failed to converge."""


class AmbiguousSpectralCutError(ApsflowError):
    """An eigenvalue sits too close to a spectral interval endpoint.

    The cut cannot be decided reliably at the configured tolerance; the
    offending eigenvalue is named in the message.
    """


class FamilyConstructionError(ApsflowError):
    """An operator family failed its construction checks."""


class NoAdmissibleLevelError(ApsflowError):
    """Flow-partition bisection bottomed out without finding a level.

    Signals an eigenvalue pinned near every candidate level on some
    segment, i.e. a pathological family at the configured clearance.
    """


class OffGridError(ApsflowError):
    """A time was requested that is not on the propagator grid."""


class StiffnessError(ApsflowError):
    """A non-unitary propagation would exceed double-precision range, shooting
    lost a direction of its boundary subspace to that range, or a
    boundary-value grid is too coarse for the norm of the family."""


class ConsistencyError(ApsflowError):
    """Two computation paths that must agree produced different answers."""

    def __init__(self, message: str, record=None):
        super().__init__(message)
        self.record = record


class ConfigError(ApsflowError):
    """An experiment configuration failed to parse or validate."""
