"""Exception hierarchy shared by all anacci modules."""


class AnacciError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveInput(AnacciError):
    """A quantity that must be finite and strictly positive was not."""


class NoConvergence(AnacciError):
    """An iteration budget was exhausted before the convergence test passed.

    For the root solver this signals a root below the representable
    floating-point range, not a mathematical failure; for ratio estimation
    it signals a too-small term budget or an initial condition with no
    component along the dominant direction.
    """


class CriticalRegime(AnacciError):
    """Operation undefined on the hyperbola p*q = 1 (merged double root)."""


class AllZeroInit(AnacciError):
    """A recurrence needs at least one nonzero initial term."""


class OrderOne(AnacciError):
    """Operation defined only for recurrence order n > 1."""


class LambdaOne(AnacciError):
    """The shell set is empty at dilation factor 1; use the limit point b_one."""


class OEqualsA(AnacciError):
    """The homothetic center must differ from the body's center of mass."""


class OOutsideBody(AnacciError):
    """The homothetic center must lie inside the body."""


class PTooSmall(AnacciError):
    """Distance ratio p <= 1/n admits no dilation factor > 1."""


class TargetUnreachable(AnacciError):
    """No positive dilation factor places the shell centroid at the target."""


class DegenerateShell(AnacciError):
    """Monte Carlo acceptance rate too low to estimate the shell centroid."""
