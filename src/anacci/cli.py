"""Command-line front end.

Subcommands: solve, inverse, recurrence, anacci, scene, fig, verify.
Single values print as JSON, grids as CSV.  Exit codes: 0 ok,
1 verification failure, 2 usage or domain error, 3 I/O error.  Each command
imports only the layers it runs, so ``--help`` and ``solve`` start without
the geometry, figure and verify modules, and ``--help`` also without the
standard ``fractions`` module.  No command loads the standard library's
data class module: every record type is a named tuple.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import AnacciError, _check_positive_int, _real, _weight


def _check_digits(exc: ValueError) -> None:
    """Raise ArgumentTypeError naming int()'s digit limit where ``exc`` is
    its refusal of a literal with more digits; the refusal itself names
    only the interpreter setting that lifts the limit."""
    if "set_int_max_str_digits" in str(exc):
        raise argparse.ArgumentTypeError(
            f"over {sys.get_int_max_str_digits()} digits, the limit for reading an integer"
        ) from None


def _number(text: str, exact: bool = False):
    """The number a literal names: an int for an integral literal ("2", not
    "2.0"), else a Fraction when ``exact`` is set and a float when not.  A
    malformed literal, "1/0" among them, raises ValueError, and one with
    more digits than int() reads raises ArgumentTypeError naming the limit:
    argparse reports it with the flag, and _flag_number does so for a
    literal read after parsing."""
    try:
        return int(text)
    except ValueError as exc:
        _check_digits(exc)
        if not exact:
            return float(text)
    from fractions import Fraction

    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    except ValueError as exc:
        _check_digits(exc)
        raise


def _flag_number(text: str, flag: str, exact: bool):
    """_number of a flag's literal read after parsing, its digit limit
    reported as argparse reports a literal it reads."""
    try:
        return _number(text, exact)
    except argparse.ArgumentTypeError as exc:
        raise AnacciError(f"argument {flag}: {exc}") from None


def _add_size(parser, flag: str, ceiling: int, what: str, **kwargs) -> None:
    """Add an integer size flag whose argparse type takes its int once it is
    at most ``ceiling``, which the help states: a huge count or order ended
    in a MemoryError or a run without end.  Values below 1 pass to the
    command, which names them."""
    def size(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            _check_digits(exc)
            raise
        if value > ceiling:
            raise argparse.ArgumentTypeError(f"must be at most {ceiling:_}")
        return value

    parser.add_argument(flag, type=size, help=f"{what}, at most {ceiling:_}", **kwargs)


def _write_text(args, text: str) -> None:
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _emit(args, payload: dict, table=None) -> None:
    """Render a command result as JSON (default) or CSV per --format; with no
    table, the CSV is the payload as one row.  A Fraction prints as its str.
    A value past the interpreter's digit limit for printing an integer raises
    AnacciError naming it, and nothing is written."""
    header, rows = table or (tuple(payload), [tuple(payload.values())])
    try:
        if args.format == "csv":
            from .figures import render_csv

            text = render_csv(header, rows)
        else:
            text = json.dumps(payload, indent=2, default=str) + "\n"
    except ValueError:  # str of an int past the limit: name the first such cell
        limit = sys.get_int_max_str_digits()
        for name, cell in ((label if len(rows) == 1 else f"{label} {k}", cell)
                           for k, row in enumerate(rows) for label, cell in zip(header, row)):
            try:
                str(cell)
            except ValueError:
                raise AnacciError(f"{name} is too long to print: over {limit} digits") from None
    _write_text(args, text)


def _cmd_solve(args) -> int:
    from .solver import solve_lambda

    result = solve_lambda(args.p, args.q)
    payload = result._asdict()
    payload["regime"] = result.regime.value
    if math.isinf(result.residual):  # -Infinity is not JSON; CSV prints the same -inf
        payload["residual"] = str(result.residual)
    _emit(args, payload)
    return 0


def _cmd_inverse(args) -> int:
    from .solver import inverse_p, inverse_p_integer

    lam = _flag_number(args.lam, "--lam", args.exact)
    if args.exact:
        if args.n is None:
            raise AnacciError("--exact needs an integer order --n")
        p = inverse_p_integer(lam, args.n)
        p_float = _weight(p, "lam=%s, n=%r", args.lam, args.n)
        payload = {"lam": str(lam), "n": args.n, "p": p, "p_float": p_float}
    else:
        lam = _real(lam, "lam")  # an integral literal past the doubles raises here
        if args.n is not None:
            payload = {"lam": lam, "n": args.n, "p": inverse_p_integer(lam, args.n)}
        else:
            payload = {"lam": lam, "q": args.q, "p": inverse_p(lam, args.q)}
    _emit(args, payload)
    return 0


def _parse_init(text: str, exact: bool):
    parts = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not parts:
        raise AnacciError(f"could not parse init list {text!r}")
    try:
        return tuple(_flag_number(piece, "--init", exact) for piece in parts)
    except ValueError as exc:
        raise AnacciError(f"malformed init entry in {text!r}: {exc}") from exc


def _cmd_recurrence(args) -> int:
    from .recurrence import RecurrenceSpec, canonical_init, generate, ratio_limit

    if args.exact and not isinstance(args.p, int):
        raise AnacciError("--exact needs an integer weight --p")
    init = (
        canonical_init(args.n)
        if args.init is None
        else _parse_init(args.init, args.exact)
    )
    spec = RecurrenceSpec(p=args.p, n=args.n, init=init)
    terms = generate(spec, args.count)
    payload = {"p": spec.p, "n": spec.n, "init": list(spec.init), "terms": terms}
    try:
        estimate = ratio_limit(spec, args.tol, max(args.count, 2 * args.n, 64))
        payload["ratio"] = estimate._asdict()
    except AnacciError as exc:
        payload["ratio"] = {"error": str(exc)}
    table = (("k", "term"), list(enumerate(terms)))
    _emit(args, payload, table)
    return 0


# the i-th lattice point (m, n) of each --seq family, i = 1..count
_SEQ_INDEX = {
    "fixed-m": lambda args, i: (args.m, i),
    "fixed-n": lambda args, i: (i, args.n),
    "kn": lambda args, i: (args.k * i, i),
    "km": lambda args, i: (i, args.k * i),
}


def _cmd_anacci(args) -> int:
    from .lattice import anacci
    from .solver import lower_bound_refined

    if args.seq is None:
        payload = {"m": args.m, "n": args.n, "value": anacci((args.m, args.n))}
        if args.n > 1:
            # the lattice enclosure m+1-1/(m+1) < phi(m, n) < m+1 of eq. (37)
            payload["lower"] = lower_bound_refined(args.m)
            payload["upper"] = args.m + 1.0
        _emit(args, payload)
        return 0
    _check_positive_int(args.count, "count")
    if args.seq in ("kn", "km"):
        _check_positive_int(args.k, "k")
    points = (_SEQ_INDEX[args.seq](args, i) for i in range(1, args.count + 1))
    rows = [(m, n, anacci((m, n))) for m, n in points]
    payload = {"sequence": [{"m": m, "n": n, "value": v} for m, n, v in rows]}
    if args.format is None:
        args.format = "csv"  # sequences default to CSV
    _emit(args, payload, (("m", "n", "value"), rows))
    return 0


def _cmd_scene(args) -> int:
    from .geometry import (
        BodyKind,
        ConvexBody,
        DilationScene,
        center_ordering,
        mc_centroid,
        scene_points,
        solve_scene_for_target,
        volume,
    )

    body = ConvexBody(
        kind=BodyKind(args.body),
        n=args.n,
        size=args.size,
        base=args.base,
        axis_offset=args.offset,
    )
    if args.target is not None:
        scene = solve_scene_for_target(body, args.center, args.target)
    else:
        scene = DilationScene(body, args.center, args.lam)
    points = scene_points(scene)
    body_volume = volume(body)
    if body_volume == math.inf:  # not JSON
        raise AnacciError(f"the {body.kind.value}'s volume lies above the largest double")
    payload = {
        "body": body.kind.value,
        "n": body.n,
        "size": body.size,
        "base": body.base,
        "axis_offset": body.axis_offset,
        "volume": body_volume,
        "lam": scene.lam,
        "points": points,
        "ordering": center_ordering(scene).value,
    }
    if args.mc:
        estimate, stderr = mc_centroid(scene, args.seed, args.samples)
        payload["mc_estimate"] = estimate
        payload["mc_stderr"] = stderr
    flat = dict(payload)
    flat.update((f"point_{k}", v) for k, v in flat.pop("points").items())
    _emit(args, payload, (("quantity", "value"), list(flat.items())))
    return 0


# grid steps per axis: fig3 at 500 x 500 peaks at 225 MB in 2.5 s, so a grid at
# both ceilings takes about 0.9 GB, where 10^8 steps ended in a MemoryError
_FIG_STEPS = 1_000


def _cmd_fig(args) -> int:
    from . import figures

    grid = None
    fields = figures.GridSpec._fields
    overrides = {f: getattr(args, f) for f in fields if getattr(args, f) is not None}
    if overrides:
        if args.which not in figures.DEFAULT_GRIDS:
            raise AnacciError(f"{args.which} has no sampling window to override")
        grid = figures.DEFAULT_GRIDS[args.which]._replace(**overrides)
        # after GridSpec's checks, so that steps past the doubles name their window
        for axis, steps in (("p", grid.p_steps), ("q", grid.q_steps)):
            if steps > _FIG_STEPS:
                raise AnacciError(f"argument --{axis}-steps: must be at most {_FIG_STEPS:_}")
    _write_text(args, figures.emit(args.which, grid))
    return 0


def _cmd_verify(args) -> int:
    from . import verify

    results = verify.run_suite(
        args.suite,
        m_max=args.m_max,
        n_max=args.n_max,
        seed=args.seed,
        samples=args.samples,
    )
    print(verify.format_report(results))
    return 0 if all(r.passed for r in results) else 1


def _add_output_flags(subparser) -> None:
    subparser.add_argument(
        "--format", choices=("json", "csv"),
        help="payload rendering (default json; sequences default to csv)",
    )
    subparser.add_argument("--output", help="write to a file instead of stdout")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors lead with the ``error:`` line
    that every other failure of a command prints, then give the usage."""

    def error(self, message):
        self.exit(2, f"error: {message}\n{self.format_usage()}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="anacci",
        description=(
            "Ratio limits of equal-weight linear recurrences and their "
            "realization by dilations of convex bodies."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve lam(p, q)")
    p_solve.add_argument("--p", type=float, required=True)
    p_solve.add_argument("--q", type=float, required=True)
    _add_output_flags(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_inverse = sub.add_parser("inverse", help="weight p with ratio limit lam")
    p_inverse.add_argument("--lam", "--lambda", dest="lam", required=True)
    order = p_inverse.add_mutually_exclusive_group(required=True)
    order.add_argument("--q", type=float, help="real order")
    _add_size(order, "--n", 10**5, "integer order (closed form)")
    p_inverse.add_argument(
        "--exact", action="store_true", help="rational arithmetic (needs --n)"
    )
    _add_output_flags(p_inverse)
    p_inverse.set_defaults(func=_cmd_inverse)

    p_rec = sub.add_parser("recurrence", help="generate terms and estimate the ratio")
    p_rec.add_argument("--p", type=_number, required=True)
    _add_size(p_rec, "--n", 10**4, "order", required=True)
    p_rec.add_argument("--init", help="comma-separated initial terms (default canonical)")
    _add_size(p_rec, "--count", 10**5, "terms", default=20)
    p_rec.add_argument("--tol", type=float, default=1e-12)
    p_rec.add_argument("--exact", action="store_true", help="exact integer/rational terms")
    _add_output_flags(p_rec)
    p_rec.set_defaults(func=_cmd_recurrence)

    p_anacci = sub.add_parser("anacci", help="lattice constants phi(m, n)")
    p_anacci.add_argument("--m", type=int, default=1)
    p_anacci.add_argument("--n", type=int, default=2)
    p_anacci.add_argument("--k", type=int, default=1, help="diagonal step")
    p_anacci.add_argument("--seq", choices=tuple(_SEQ_INDEX))
    _add_size(p_anacci, "--count", 10**5, "sequence length", default=10)
    _add_output_flags(p_anacci)
    p_anacci.set_defaults(func=_cmd_anacci)

    p_scene = sub.add_parser("scene", help="build a dilation scene")
    p_scene.add_argument(
        "--body", choices=("ball", "cube", "cone", "pyramid"), default="ball"
    )
    p_scene.add_argument("--n", type=int, default=2)
    p_scene.add_argument("--size", type=float, default=1.0)
    p_scene.add_argument("--base", type=float, default=1.0)
    p_scene.add_argument("--offset", type=float, default=0.0, help="body reference point")
    p_scene.add_argument("--center", type=float, default=0.0, help="homothetic center O")
    factor = p_scene.add_mutually_exclusive_group(required=True)
    factor.add_argument("--lam", type=float, help="dilation factor")
    factor.add_argument("--target", type=float, help="required shell centroid")
    p_scene.add_argument("--mc", action="store_true", help="Monte Carlo cross-check")
    p_scene.add_argument("--seed", type=int, default=42)
    _add_size(p_scene, "--samples", 10**9, "Monte Carlo points", default=1_000_000)
    _add_output_flags(p_scene)
    p_scene.set_defaults(func=_cmd_scene)

    p_fig = sub.add_parser("fig", help="emit figure data as CSV")
    p_fig.add_argument(
        "--which", choices=("fig1", "fig2", "fig3", "fig5", "fig6", "fig7"), required=True
    )
    p_fig.add_argument("--output", help="output path (default stdout)")
    p_fig.add_argument("--p-min", type=float, dest="p_min")
    p_fig.add_argument("--p-max", type=float, dest="p_max")
    p_fig.add_argument("--p-steps", type=int, dest="p_steps",
                       help=f"grid steps in p, at most {_FIG_STEPS:_}")
    p_fig.add_argument("--q-min", type=float, dest="q_min")
    p_fig.add_argument("--q-max", type=float, dest="q_max")
    p_fig.add_argument("--q-steps", type=int, dest="q_steps",
                       help=f"grid steps in q, at most {_FIG_STEPS:_}")
    p_fig.set_defaults(func=_cmd_fig)

    p_verify = sub.add_parser("verify", help="run the property suites")
    p_verify.add_argument(
        "--suite",
        choices=("bounds", "monotone", "appendices", "geometry", "all"),
        default="all",
    )
    _add_size(p_verify, "--m-max", 10**4, "largest lattice weight", dest="m_max", default=50)
    _add_size(p_verify, "--n-max", 10**4, "largest lattice order", dest="n_max", default=10)
    p_verify.add_argument("--seed", type=int, default=42)
    _add_size(p_verify, "--samples", 10**9, "Monte Carlo points", default=200_000)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args)
    except (AnacciError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
