"""The input contract, swept: a bad argument gets a named error, never a
non-finite result.

Every public numeric argument runs through nan, +-inf, 0 and -1, and every
order (an integer the recurrence, lattice or body is built on) through 0,
1.5 and -1, one argument at a time with the others valid.  A call must
either raise an ``AnacciError`` or a ``ValueError``, or return a result
whose floats are all finite.  Counts and sizes (``count``, ``m_max``,
``max_terms``, ...) run through 0 and -1; a non-integer count is a type
error, as for ``range``, and is not swept.  A body kind that is not a
``BodyKind`` gets one ``ValueError``, from every function that takes a kind.

The non-float sweep calls every real-valued function with its real
arguments as ``Fraction``, ``Decimal``, ``np.float32`` and ``np.int64``: the
result is a Python ``float``, or the exact ``Fraction`` where the function
promises one, and never a ``Decimal`` or a numpy scalar.

The CLI sweep feeds the same values to each command's flags through
``cli.main`` in-process: the exit code is 0 or 2, nothing escapes as a
traceback, and JSON output is strict (no NaN or Infinity).
"""

import json
import math
import re
from decimal import Decimal
from fractions import Fraction
from numbers import Rational

import numpy as np
import pytest

from anacci import (
    AnacciError,
    BodyKind,
    ConvexBody,
    DilationScene,
    NonPositiveInput,
    RecurrenceSpec,
    anacci,
    b_one,
    ball,
    bound_crossover,
    canonical_init,
    center_ordering,
    classify,
    cone,
    cube,
    dilate,
    dlambda_dp,
    dlambda_dq,
    dq_value,
    eval_P,
    generate,
    inverse_p,
    inverse_p_integer,
    lambda_from_p,
    lambda_min,
    lower_bound_basic,
    lower_bound_refined,
    mc_centroid,
    pyramid,
    q_value,
    ratio_limit,
    representation,
    scaled_seq_A,
    scaled_seq_B,
    scene_points,
    seq_diagonal,
    seq_fixed_m,
    seq_fixed_n,
    shell_centroid,
    solve_lambda,
    solve_scene_for_target,
    unit_ball_volume,
    volume,
)
from anacci.cli import main
from anacci.errors import _real

REALS = (math.nan, math.inf, -math.inf, 0.0, -1.0)
ORDERS = (0, 1.5, -1)
COUNTS = (0, -1)
KINDS = ("ball", None, 0, math.nan)


def _unit_ball_scene(O, lam):
    return DilationScene(ball(2, 1.0, 1.0), O, lam)


# name -> (function, valid keyword arguments, reals, orders, counts)
CASES = {
    "q_value": (q_value, dict(lam=2.0, p=1.0, q=2.0), "lam p q", "", ""),
    "dq_value": (dq_value, dict(lam=2.0, p=1.0, q=2.0), "lam p q", "", ""),
    "eval_P": (eval_P, dict(lam=2.0, p=1.0, n=2), "lam p", "n", ""),
    "lambda_min": (lambda_min, dict(p=1.0, q=2.0), "p q", "", ""),
    "classify": (classify, dict(p=1.0, q=2.0), "p q", "", ""),
    "solve_lambda": (solve_lambda, dict(p=1.0, q=2.0), "p q", "", ""),
    "inverse_p": (inverse_p, dict(lam=2.0, q=2.0), "lam q", "", ""),
    "inverse_p_integer": (inverse_p_integer, dict(m_lambda=2.0, n=2), "m_lambda", "n", ""),
    "dlambda_dp": (dlambda_dp, dict(p=1.0, q=2.0), "p q", "", ""),
    "dlambda_dq": (dlambda_dq, dict(p=1.0, q=2.0), "p q", "", ""),
    "lower_bound_basic": (lower_bound_basic, dict(p=1.0, q=2.0), "p q", "", ""),
    "lower_bound_refined": (lower_bound_refined, dict(p=1.0), "p", "", ""),
    "bound_crossover": (bound_crossover, dict(p=1.0), "p", "", ""),
    "anacci": (lambda m, n: anacci((m, n)), dict(m=2, n=3), "", "m n", ""),
    "seq_fixed_m": (seq_fixed_m, dict(m=2, n_max=4), "", "m", "n_max"),
    "seq_fixed_n": (seq_fixed_n, dict(n=2, m_max=4), "", "n", "m_max"),
    "seq_diagonal": (seq_diagonal, dict(k=2, count=4, which="kn"), "", "k", "count"),
    "scaled_seq_A": (scaled_seq_A, dict(n=2, m_max=4), "", "n", "m_max"),
    "scaled_seq_B": (scaled_seq_B, dict(n=2, m_max=4), "", "n", "m_max"),
    "RecurrenceSpec": (
        lambda p, n, a0: RecurrenceSpec(p, n, (a0, 1.0)),
        dict(p=1.0, n=2, a0=0.0), "p a0", "n", "",
    ),
    "canonical_init": (canonical_init, dict(n=3), "", "n", ""),
    "generate": (
        lambda p, a0, count: generate(RecurrenceSpec(p, 2, (a0, 1.0)), count),
        dict(p=1.0, a0=0.0, count=8), "p a0", "", "count",
    ),
    "ratio_limit": (
        lambda p, a0, tol, max_terms: ratio_limit(RecurrenceSpec(p, 2, (a0, 1.0)), tol, max_terms),
        dict(p=1.0, a0=0.0, tol=1e-12, max_terms=200), "p a0 tol", "", "max_terms",
    ),
    "ConvexBody": (
        lambda n, size, base, offset: ConvexBody(BodyKind.CONE, n, size, base, offset),
        dict(n=3, size=1.0, base=1.0, offset=0.0), "size base offset", "n", "",
    ),
    "ball": (ball, dict(n=2, radius=1.0, center=0.0), "radius center", "n", ""),
    "cube": (cube, dict(n=2, side=1.0, near_face=0.0), "side near_face", "n", ""),
    "cone": (cone, dict(n=2, height=1.0, apex=0.0, base_radius=1.0),
             "height apex base_radius", "n", ""),
    "pyramid": (pyramid, dict(n=2, height=1.0, apex=0.0, base_side=1.0),
                "height apex base_side", "n", ""),
    "unit_ball_volume": (unit_ball_volume, dict(n=3), "n", "", ""),
    "volume": (lambda n, size: volume(cone(n, size)), dict(n=3, size=2.0), "size", "n", ""),
    "dilate": (lambda O, lam: dilate(ball(2, 1.0, 1.0), O, lam), dict(O=0.5, lam=2.0),
               "O lam", "", ""),
    "DilationScene": (_unit_ball_scene, dict(O=0.5, lam=2.0), "O lam", "", ""),
    "shell_centroid": (lambda O, lam: shell_centroid(_unit_ball_scene(O, lam)),
                       dict(O=0.5, lam=2.0), "O lam", "", ""),
    "scene_points": (lambda O, lam: scene_points(_unit_ball_scene(O, lam)),
                     dict(O=0.5, lam=2.0), "O lam", "", ""),
    "center_ordering": (lambda O, lam: center_ordering(_unit_ball_scene(O, lam)),
                        dict(O=0.5, lam=2.0), "O lam", "", ""),
    "b_one": (lambda O: b_one(ball(2, 1.0, 1.0), O), dict(O=0.5), "O", "", ""),
    "lambda_from_p": (lambda_from_p, dict(n=2, p=1.0), "p", "n", ""),
    "solve_scene_for_target": (
        lambda O, target: solve_scene_for_target(ball(2, 1.0, 1.0), O, target),
        dict(O=0.0, target=2.0), "O target", "", "",
    ),
    "ball_representation": (lambda m, n: representation(BodyKind.BALL, m, n),
                            dict(m=2, n=3), "", "m n", ""),
    "cone_representation": (lambda m, n: representation(BodyKind.CONE, m, n),
                            dict(m=2, n=3), "", "m n", ""),
    "representation": (lambda m, n: [representation(kind, m, n) for kind in BodyKind],
                       dict(m=2, n=3), "", "m n", ""),
    "mc_centroid": (
        lambda O, lam, seed, samples: mc_centroid(_unit_ball_scene(O, lam), seed, samples),
        dict(O=0.0, lam=2.0, seed=7, samples=10_000), "O lam", "seed samples", "",
    ),
}


def _non_finite(value):
    """A path to the first non-finite float inside a result, or None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else ()
    if isinstance(value, tuple) and hasattr(value, "_asdict"):  # a record
        value = value._asdict()
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, (list, tuple)):
        items = enumerate(value)
    else:
        return None
    for key, item in items:
        path = _non_finite(item)
        if path is not None:
            return (key, *path)
    return None


@pytest.mark.parametrize("name", list(CASES))
def test_bad_argument_is_named_or_the_result_is_finite(name):
    func, valid, reals, orders, counts = CASES[name]
    assert _non_finite(func(**valid)) is None
    broken = []
    for args, bad_values in ((reals, REALS), (orders, ORDERS), (counts, COUNTS)):
        for arg in args.split():
            for bad in bad_values:
                try:
                    result = func(**{**valid, arg: bad})
                except (AnacciError, ValueError):
                    continue
                except Exception as exc:  # any other type breaks the contract
                    broken.append(f"{arg}={bad!r}: {type(exc).__name__}: {exc}")
                    continue
                if _non_finite(result) is not None:
                    broken.append(f"{arg}={bad!r}: non-finite result {result!r}")
    assert not broken, "\n".join(broken)


# name -> {real argument: the name its positivity check reports}, for every
# case whose real arguments reach the shared check for finite and > 0
CHECKED_NAMES = {
    "q_value": dict(lam="lam", p="p", q="q"),
    "dq_value": dict(lam="lam", p="p", q="q"),
    "eval_P": dict(lam="lam", p="p"),
    "lambda_min": dict(p="p", q="q"),
    "classify": dict(p="p", q="q"),
    "solve_lambda": dict(p="p", q="q"),
    "inverse_p": dict(lam="lam", q="q"),
    "inverse_p_integer": dict(m_lambda="m_lambda"),
    "dlambda_dp": dict(p="p", q="q"),
    "dlambda_dq": dict(p="p", q="q"),
    "lower_bound_basic": dict(p="p", q="q"),
    "lower_bound_refined": dict(p="p"),
    "RecurrenceSpec": dict(p="weight p"),
    "generate": dict(p="weight p"),
    "ratio_limit": dict(p="weight p"),
    "ConvexBody": dict(size="size", base="base"),
    "ball": dict(radius="size"),
    "cube": dict(side="size"),
    "cone": dict(height="size", base_radius="base"),
    "pyramid": dict(height="size", base_side="base"),
    "volume": dict(size="size"),
    "dilate": dict(lam="lam"),
    "DilationScene": dict(lam="lam"),
    "shell_centroid": dict(lam="lam"),
    "scene_points": dict(lam="lam"),
    "center_ordering": dict(lam="lam"),
    "lambda_from_p": dict(p="p"),
    "mc_centroid": dict(lam="lam"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_nan_is_reported_under_its_argument_name(name):
    # a wrong name at any call site of the positivity check shows here, and
    # so does a real argument that reaches the check but is missing above
    func, valid, reals, _, _ = CASES[name]
    expected = CHECKED_NAMES.get(name, {})
    reported = {}
    for arg in reals.split():
        try:
            func(**{**valid, arg: math.nan})
        except NonPositiveInput as exc:
            message = str(exc)
            suffix = " must be finite and > 0, got nan"
            if message.endswith(suffix):
                reported[arg] = message[: -len(suffix)]
        except (AnacciError, ValueError):
            pass
    assert reported == expected


# a Decimal NaN raises InvalidOperation from a bare comparison; the checks
# report it as the nan it is
DECIMAL_NANS = {
    "solve_lambda": (lambda: solve_lambda(Decimal("nan"), 2), NonPositiveInput),
    "q_value": (lambda: q_value(1.5, Decimal("snan"), 2.0), NonPositiveInput),
    "lambda_min": (lambda: lambda_min(Decimal("NaN"), 2), NonPositiveInput),
    "RecurrenceSpec": (lambda: RecurrenceSpec(Decimal("nan"), 2, (0, 1)), NonPositiveInput),
    "ConvexBody": (lambda: ConvexBody(BodyKind.BALL, 2, Decimal("nan"), 1.0, 0.0),
                   NonPositiveInput),
    "ratio_limit": (lambda: ratio_limit(RecurrenceSpec(1, 2, (0, 1)), Decimal("nan")),
                    ValueError),
    "unit_ball_volume": (lambda: unit_ball_volume(Decimal("nan")), ValueError),
}


@pytest.mark.parametrize("name", list(DECIMAL_NANS))
def test_decimal_nan_fails_the_check(name):
    call, error = DECIMAL_NANS[name]
    with pytest.raises(error, match="must be finite"):
        call()


@pytest.mark.parametrize("make", [
    lambda kind: ConvexBody(kind, 2, 1.0),
    lambda kind: representation(kind, 2, 3),
], ids=["ConvexBody", "representation"])
def test_bad_kind_is_named(make):
    for kind in KINDS:
        with pytest.raises(ValueError, match=re.escape(f"kind must be a BodyKind, got {kind!r}")):
            make(kind)


# command -> (valid argv, float flags, integer flags)
COMMANDS = {
    "solve": (["solve", "--p", "1", "--q", "2"], "--p --q", ""),
    "inverse-q": (["inverse", "--lam", "2", "--q", "2"], "--lam --q", ""),
    "inverse-n": (["inverse", "--lam", "2", "--n", "2"], "--lam", "--n"),
    "inverse-exact": (["inverse", "--lam", "2", "--n", "2", "--exact"], "--lam", "--n"),
    "recurrence": (["recurrence", "--p", "1.5", "--n", "2", "--count", "6"],
                   "--p --tol --init", "--n --count"),
    "recurrence-exact": (["recurrence", "--p", "2", "--n", "2", "--count", "6", "--exact"],
                         "--p --init", "--n --count"),
    "anacci": (["anacci", "--m", "2", "--n", "2"], "", "--m --n"),
    "anacci-seq": (["anacci", "--seq", "kn", "--k", "2", "--count", "3"], "", "--k --count"),
    "scene-ball": (["scene", "--body", "ball", "--n", "2", "--offset", "1", "--lam", "2"],
                   "--size --offset --center --lam", "--n"),
    "scene-cone": (["scene", "--body", "cone", "--n", "3", "--center", "0.1", "--lam", "2"],
                   "--size --base --center --lam", "--n"),
    "scene-target": (["scene", "--body", "ball", "--n", "2", "--offset", "1", "--target", "2"],
                     "--target --center", ""),
    "scene-mc": (["scene", "--body", "cube", "--n", "3", "--lam", "1.5", "--mc",
                  "--samples", "10000"], "--lam", "--seed --samples"),
    "fig1": (["fig", "--which", "fig1", "--p-steps", "3", "--q-steps", "3"],
             "--p-min --p-max --q-min --q-max", "--p-steps --q-steps"),
    "fig3": (["fig", "--which", "fig3", "--p-steps", "3", "--q-steps", "3"],
             "--p-min --p-max --q-min --q-max", "--p-steps"),
    "verify": (["verify", "--suite", "monotone", "--m-max", "2", "--n-max", "2"], "",
               "--m-max --n-max"),
}

_FLAG_VALUES = {"float": ("nan", "inf", "-inf", "0", "-1"), "int": ("0", "1.5", "-1")}


def _with_flag(argv, flag, value):
    """argv with ``flag`` set to ``value`` as one ``--flag=value`` word, so
    that argparse reads a negative value as a value, not as an option."""
    if flag == "--init":  # the first initial term; the second stays 1
        value = f"{value},1"
    if flag in argv:
        at = argv.index(flag)
        argv = argv[:at] + argv[at + 2:]
    return [*argv, f"{flag}={value}"]


def _refuse_constant(constant):
    raise ValueError(f"non-finite JSON constant {constant}")


def _check_run(capsys, argv):
    """Run one command line; return what breaks the contract, or None."""
    code = main(argv)
    out, err = capsys.readouterr()
    if code not in (0, 2) or "Traceback" in err:
        return f"exit {code}: {err.strip()}"
    if code == 2:
        return f"exit 2 with output {out!r}" if out else None
    if out.startswith("{"):
        try:
            json.loads(out, parse_constant=_refuse_constant)
        except ValueError as exc:
            return str(exc)
        return None
    # CSV or the verify report: no field reads nan or inf
    fields = out.replace("\n", ",").replace(" ", ",").split(",")
    if {f.lower().lstrip("+-") for f in fields} & {"nan", "inf", "infinity"}:
        return "non-finite field in the output"
    return None


@pytest.mark.parametrize("command", list(COMMANDS))
def test_cli_exits_zero_or_two_with_strict_output(capsys, command):
    argv, floats, ints = COMMANDS[command]
    assert _check_run(capsys, argv) is None
    broken = []
    for kind, flags in (("float", floats), ("int", ints)):
        for flag in flags.split():
            for value in _FLAG_VALUES[kind]:
                problem = _check_run(capsys, _with_flag(argv, flag, value))
                if problem is not None:
                    broken.append(f"{flag} {value}: {problem}")
    assert not broken, "\n".join(broken)


def test_cli_scene_volume_past_the_double_range(capsys):
    argv = ["scene", "--body", "cone", "--base", "1e308", "--lam", "2", "--center", "0.1"]
    assert _check_run(capsys, argv) is None


# name -> (function, valid keyword arguments, real arguments, the types for
# which a Fraction is promised once every real argument is one of them, and
# the reals of a result); the 18 public functions whose result is real
REAL_VALUED = {
    "q_value": (q_value, dict(lam=1.5, p=1.0, q=2.0), "lam p q", None, None),
    "dq_value": (dq_value, dict(lam=1.5, p=1.0, q=2.0), "lam p q", None, None),
    "eval_P": (eval_P, dict(lam=1.5, p=1.0, n=3), "lam p", Rational, None),
    "lambda_min": (lambda_min, dict(p=1.5, q=2.0), "p q", (int, Fraction), None),
    "solve_lambda": (solve_lambda, dict(p=1.5, q=2.0), "p q", None, lambda r: r[:6]),
    "inverse_p": (inverse_p, dict(lam=1.5, q=2.0), "lam q", None, None),
    "inverse_p_integer": (inverse_p_integer, dict(m_lambda=1.5, n=3), "m_lambda", Rational,
                          None),
    "dlambda_dp": (dlambda_dp, dict(p=1.5, q=2.0), "p q", None, None),
    "dlambda_dq": (dlambda_dq, dict(p=1.5, q=2.0), "p q", None, None),
    "lower_bound_basic": (lower_bound_basic, dict(p=1.5, q=2.0), "p q", None, None),
    "lower_bound_refined": (lower_bound_refined, dict(p=1.5), "p", None, None),
    "bound_crossover": (bound_crossover, dict(p=1.5), "p", None, None),
    "unit_ball_volume": (unit_ball_volume, dict(n=3.0), "n", None, None),
    "lambda_from_p": (lambda_from_p, dict(n=2, p=1.5), "p", None, None),
    "volume": (lambda size, base: volume(cone(3, size, 0.0, base)), dict(size=1.5, base=2.0),
               "size base", None, None),
    "shell_centroid": (lambda O, lam: shell_centroid(_unit_ball_scene(O, lam)),
                       dict(O=0.5, lam=1.5), "O lam", None, None),
    "b_one": (lambda O: b_one(ball(2, 1.0, 1.0), O), dict(O=0.5), "O", None, None),
    "ratio_limit": (lambda p, tol: ratio_limit(RecurrenceSpec(p, 2, (0, 1)), tol),
                    dict(p=1.5, tol=1e-12), "p tol", None, lambda r: [r.value]),
}

NON_FLOATS = {
    "Fraction": Fraction,
    "Decimal": lambda x: Decimal(repr(x)),
    "float32": np.float32,
    "int64": lambda x: np.int64(round(x)),
}


def _non_float_reads(valid, reals):
    """(label, arguments) with every real argument of one type, then each
    real argument alone of that type."""
    names = reals.split()
    for label, convert in NON_FLOATS.items():
        yield label, {**valid, **{a: convert(valid[a]) for a in names}}
        if len(names) > 1:
            for a in names:
                yield f"{label} {a}", {**valid, a: convert(valid[a])}


@pytest.mark.parametrize("name", list(REAL_VALUED))
def test_non_float_reals_give_float_results(name):
    func, valid, reals, exact, parts = REAL_VALUED[name]
    broken = []
    for label, args in _non_float_reads(valid, reals):
        try:
            result = func(**args)
        except (AnacciError, ValueError):
            continue
        except Exception as exc:  # a raw TypeError broke the contract here
            broken.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        promised = exact is not None and all(isinstance(args[a], exact) for a in reals.split())
        wanted = Fraction if promised else float
        for value in parts(result) if parts else [result]:
            if type(value) is not wanted:
                broken.append(f"{label}: {type(value).__name__} {value!r}, not {wanted.__name__}")
    assert not broken, "\n".join(broken)


# exact reals with the sign of each: _real decides their range by the
# numerator; np.int64 is a Rational but not an int
_EXACT_VALUES = [
    (3, 1), (0, 0), (-3, -1),
    (True, 1), (False, 0),
    (Fraction(3, 2), 1), (Fraction(0), 0), (Fraction(-3, 2), -1),
    (np.int64(3), 1), (np.int64(0), 0), (np.int64(-3), -1),
]
# each range and the signs inside it
_RANGES = {"finite and > 0": (1,), "finite and >= 0": (0, 1), "a finite double": (-1, 0, 1)}


@pytest.mark.parametrize("exact", [(int, Fraction), Rational], ids=["int-Fraction", "Rational"])
@pytest.mark.parametrize("wanted", list(_RANGES))
@pytest.mark.parametrize("value, sign", _EXACT_VALUES, ids=lambda v: repr(v))
def test_exact_read_is_the_comparison_read(value, sign, wanted, exact):
    if sign not in _RANGES[wanted]:
        with pytest.raises(NonPositiveInput) as info:
            _real(value, "x", NonPositiveInput, wanted, exact)
        assert str(info.value) == f"x must be {wanted}, got {value!r}"
    elif isinstance(value, exact):  # returned as it is, for exact arithmetic
        assert _real(value, "x", NonPositiveInput, wanted, exact) is value
    else:  # np.int64 outside (int, Fraction) is read as its double
        result = _real(value, "x", NonPositiveInput, wanted, exact)
        assert type(result) is float and result == sign * 3.0
