"""Exception types shared across the package."""


class NfdeError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(NfdeError):
    """Operands disagree on state dimension or torus dimension."""


class HorizonError(NfdeError):
    """History data does not cover a required time window."""


class SingularBError(NfdeError):
    """The instantaneous coefficient matrix is singular at some sampled phase."""

    def __init__(self, point, det):
        theta = [float(v) for v in point.theta]
        super().__init__(
            f"instantaneous coefficient matrix singular at theta={theta} (det={det:.3e})"
        )
        self.point = point
        self.det = det


class UnstableMarginError(NfdeError):
    """The delayed part of the difference operator is not a contraction."""

    def __init__(self, lam):
        super().__init__(
            f"operator norm estimate {lam:.6g} is not below 1; inversion unavailable"
        )
        self.lam = lam


class StructuralPreconditionError(NfdeError):
    """A structural requirement of the requested check is violated."""


class UnorderedPairError(NfdeError):
    """The initial pair of a comparison run is not ordered."""

    def __init__(self, witness, margin):
        super().__init__(
            f"initial pair not ordered: worst margin {margin:.3e} at {witness}"
        )
        self.witness = witness
        self.margin = margin


class NoReturnTimesError(NfdeError):
    """Too few near-returns of the driving phase were found in the log."""


class DivergenceError(NfdeError):
    """The integrated state exceeded the divergence guard."""

    def __init__(self, t, value):
        super().__init__(f"state norm {value:.3e} exceeded guard at t={t:.6g}")
        self.t = t
        self.value = value


class ConfigError(NfdeError):
    """An experiment configuration is malformed or inconsistent."""
