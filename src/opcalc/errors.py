"""Exception types shared across the package."""


class OpcalcError(Exception):
    """Base class for all library errors."""


class GridTooCoarseError(OpcalcError):
    """Sup-norm grid too coarse for the frequency support of the function."""


class NotNormalError(OpcalcError):
    """Input matrix fails the normality test at the requested tolerance."""

    def __init__(self, defect: float, tol: float):
        self.defect = defect
        self.tol = tol
        super().__init__(f"normality defect {defect:.3e} exceeds tolerance {tol:.3e}")


class IllSeparatedSpectrumError(OpcalcError):
    """Simultaneous diagonalization could not resolve eigenvalue clusters."""


class DivergentTailError(OpcalcError):
    """Tail integral of the modulus of continuity does not converge."""


class FactorizationError(OpcalcError):
    """Supplied Schur factorization does not reproduce the kernel."""

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(f"factorization residual {residual:.3e} too large")


class QuadratureError(OpcalcError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, achieved: float, requested: float):
        self.achieved = achieved
        self.requested = requested
        super().__init__(
            f"quadrature reached {achieved:.3e}, requested {requested:.3e}"
        )
