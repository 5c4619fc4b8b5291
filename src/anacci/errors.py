"""Exception hierarchy shared by all anacci modules, and the input contract:
the argument checks of every public function, next to the errors they raise."""

import math


class AnacciError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveInput(AnacciError):
    """A quantity that must be finite and strictly positive was not."""


class NoConvergence(AnacciError):
    """An iteration budget was exhausted before the convergence test passed.

    For the root solver this would mean 200 evaluations without reaching
    machine resolution, which has not been seen; for ratio estimation it
    signals a too-small term budget or an initial condition with no
    component along the dominant direction.
    """


class ZeroUnderflow(AnacciError):
    """A sub-critical zero of Q lies below the smallest positive double."""


class InputOutOfRange(AnacciError):
    """An input that is not a float, or a closed-form bound, is positive but
    has no positive finite double; or a derivative lies above the largest
    double; or a dilated body's size, base or axis offset has no double."""


class WeightUnderflow(AnacciError):
    """The weight p for a ratio limit lies below the smallest positive double."""


class WeightOverflow(AnacciError):
    """The weight p for a ratio limit lies above the largest finite double."""


class CriticalRegime(AnacciError):
    """Operation undefined on the hyperbola p*q = 1 (merged double root), or
    the zero is within rounding of 1."""


class AllZeroInit(AnacciError):
    """A recurrence needs at least one nonzero initial term."""


class TermOverflow(AnacciError):
    """A float recurrence term or its window sum lies beyond the double range."""


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


def _check_positive(**named):
    for name, value in named.items():
        if not 0 < value < math.inf:
            raise NonPositiveInput(f"{name} must be finite and > 0, got {value!r}")


# The two checks below take one value each, positionally: a keyword call
# costs several times as much, and every lattice lookup checks its m and n.
def _check_positive_int(value, name: str):
    if not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def _check_nonnegative(value, name: str, error=ValueError):
    if not 0 <= value < math.inf:
        raise error(f"{name} must be finite and >= 0, got {value!r}")


def _to_double(value) -> float:
    """float(value), saturated to +-inf where an exact value lies beyond the
    double range instead of raising OverflowError."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _double(name: str, value) -> float:
    """float(value) of a positive exact input; InputOutOfRange if it has none."""
    x = _to_double(value)
    if not 0.0 < x < math.inf:
        raise InputOutOfRange(f"{name} lies outside the positive double range")
    return x


def _weight(p, where: str, *args) -> float:
    """p as a double, once it is positive and finite there; the message names
    the weight as ``where % args``, formatted only when the check fails."""
    p = _to_double(p)
    if p == 0.0:
        raise WeightUnderflow(f"weight for {where % args} is below the smallest positive double")
    if p == math.inf:
        raise WeightOverflow(f"weight for {where % args} is above the largest finite double")
    return p


def _validated_make(cls, fields):
    """``_make`` of a named tuple whose ``__new__`` checks its fields: it goes
    through the constructor, so ``_replace`` checks the new fields too."""
    return cls(*fields)
