"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class, and each class carries the exit code the CLI returns for it
(``exit_code``): 2 hypothesis violation, 3 resonance, 4 numerical
regression or failed check, 5 anything else.
"""

from __future__ import annotations

import copyreg


class ParatoriError(Exception):
    """Base class for all package errors."""

    exit_code = 5

    def __reduce__(self):
        # unpickle from the message and the attributes, not through a
        # subclass's __init__, whose arguments are not the message
        return (copyreg.__newobj__, (type(self), *self.args), self.__dict__)


class HypothesisViolation(ParatoriError):
    """A structural or spectral hypothesis on the model fails."""

    exit_code = 2


class NonzeroAverage(ParatoriError):
    """Input to a small-divisors solver has a nonzero torus average."""

    exit_code = 2


class ResonantMode(ParatoriError):
    """A mode hit an (effectively) resonant divisor.

    Attributes
    ----------
    mode : tuple of int
        The offending Fourier multi-index.
    divisor : complex
        The divisor value that fell below the floor.
    """

    exit_code = 3

    def __init__(self, mode, divisor=0.0, message=""):
        self.mode = tuple(mode)
        self.divisor = divisor
        text = message or f"resonant mode k={self.mode}, divisor {abs(divisor):.3e}"
        super().__init__(text)


class ZeroDivisor(ParatoriError):
    """Exact rational resonance found during a Diophantine scan."""

    exit_code = 3

    def __init__(self, mode, l=None):
        self.mode = tuple(mode)
        self.l = l
        where = f"k={self.mode}" + (f", l={l}" if l is not None else "")
        super().__init__(f"exact resonance at {where}")


class DimensionMismatch(ParatoriError):
    """Operands live on different tori or have incompatible shapes."""


class DegreeOverflow(ParatoriError):
    """A jet operation asked for orders beyond the stored degree."""


class SingularBlock(ParatoriError):
    """The linear block (B̄ + j·ā·Id) is singular or badly conditioned."""

    exit_code = 4


class SingularB(ParatoriError):
    """B̄ is not diagonalizable within tolerance (Jordanization request)."""

    exit_code = 2


class OrderRegression(ParatoriError):
    """A recomputed invariance error fails its declared vanishing order."""

    exit_code = 4

    def __init__(self, component, order, norm, tol):
        self.component = component
        self.order = order
        self.norm = norm
        self.tol = tol
        super().__init__(
            f"error component {component} at order {order} has norm "
            f"{norm:.3e} > tolerance {tol:.3e}"
        )


class WindowTooWide(ParatoriError):
    """Residual sits at the rounding floor across the sampling window."""

    exit_code = 4


class BoundViolated(ParatoriError):
    """The parabolic iteration bound failed at some step."""

    exit_code = 4

    def __init__(self, step, value, bound):
        self.step = step
        self.value = value
        self.bound = bound
        super().__init__(f"bound violated at step {step}: |x_k|={value:.6e} > {bound:.6e}")


class EscapedSector(ParatoriError):
    """An iterate left the complex sector S(beta, rho)."""

    exit_code = 4

    def __init__(self, step, point):
        self.step = step
        self.point = point
        super().__init__(f"iterate left the sector at step {step}: x={point}")


class OrbitLeftDomain(ParatoriError):
    """A trajectory left the configured domain."""

    exit_code = 4

    def __init__(self, step, state=None):
        self.step = step
        self.state = state
        super().__init__(f"orbit left the domain at step {step}")


class StepUnderflow(ParatoriError):
    """The adaptive integrator could not continue (step size underflow)."""

    exit_code = 4


class InsufficientTorusData(ParatoriError):
    """The external torus-data record is missing required fields."""
