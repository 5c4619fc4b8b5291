"""Exception hierarchy shared by all anacci modules, and the input contract:
one reader that checks each real argument and returns the double its public
function computes on, next to the errors it raises."""

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


def _check_positive_int(value, name: str):
    if not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def _to_double(value) -> float:
    """float(value), saturated to +-inf where an exact value lies beyond the
    double range instead of raising OverflowError."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


# The reader takes its value and name positionally: a keyword call builds and
# walks a dict, several times the cost of the comparison, and every solve
# reads its p and q.  A Decimal NaN raises InvalidOperation from the
# comparison itself; it fails the check like any other nan.
def _real(value, name: str, error=NonPositiveInput, wanted: str = "finite and > 0", exact=()):
    """A real argument as the double its function computes on, checked and
    converted in one call.

    ``wanted`` is the range: "finite and > 0", "finite and >= 0" or "a
    finite double".  A value outside it raises ``error``, whose message
    starts with ``name``.  A value inside it whose double is not, such as
    an int, Fraction or Decimal past the doubles or a positive one that
    rounds to 0, raises InputOutOfRange, or ``error`` for "a finite
    double".  A value of one of the ``exact`` types, which are rationals,
    is returned as it is once it lies in range, so that exact arithmetic
    keeps it.  It is finite, and its denominator is positive, so its
    numerator's sign decides the range without a generic comparison.
    """
    if type(value) is float and 0.0 < value < math.inf:
        return value
    if isinstance(value, exact):
        sign = value.numerator
        if sign > 0 or wanted == "a finite double" or (sign == 0 and wanted == "finite and >= 0"):
            return value
        raise error(f"{name} must be {wanted}, got {value!r}")
    positive = wanted == "finite and > 0"
    try:
        if positive:
            inside = 0 < value < math.inf
        elif wanted == "finite and >= 0":
            inside = 0 <= value < math.inf
        else:
            inside = -math.inf < value < math.inf
    except ArithmeticError:
        inside = False
    if inside:
        x = _to_double(value)
        if (0.0 if positive else -math.inf) < x < math.inf:
            return x
        if wanted != "a finite double":
            raise InputOutOfRange(f"{name} lies outside the positive double range")
    raise error(f"{name} must be {wanted}, got {value!r}")


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
