"""Command-line front end.

Subcommands: solve, inverse, recurrence, anacci, scene, fig, verify.
Single values print as JSON, grids as CSV.  Exit codes: 0 ok,
1 verification failure, 2 usage or domain error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import figures, verify
from .errors import AnacciError
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
from .lattice import (
    AnacciIndex,
    anacci,
    bounds_eq37,
    seq_diagonal,
    seq_fixed_m,
    seq_fixed_n,
)
from .recurrence import RecurrenceSpec, canonical_init, generate, ratio_limit
from .solver import inverse_p, inverse_p_integer, solve_lambda


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    return value


def _number(text: str):
    """int when the literal is integral, float otherwise ("2.0" stays float)."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _write_text(args, text: str) -> None:
    output = getattr(args, "output", None)
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _emit(args, payload: dict, table) -> None:
    """Render a command result as JSON (default) or CSV per --format."""
    if (getattr(args, "format", None) or "json") == "csv":
        header, rows = table
        _write_text(args, figures.render_csv(header, rows))
    else:
        _write_text(args, json.dumps(payload, indent=2) + "\n")


def _cmd_solve(args) -> int:
    result = solve_lambda(args.p, args.q)
    payload = {
        "p": result.p,
        "q": result.q,
        "value": result.value,
        "bracket_lo": result.bracket_lo,
        "bracket_hi": result.bracket_hi,
        "residual": result.residual,
        "iterations": result.iterations,
        "regime": result.regime.value,
    }
    _emit(args, payload, (tuple(payload), [tuple(payload.values())]))
    return 0


def _cmd_inverse(args) -> int:
    if args.exact:
        if args.n is None:
            raise AnacciError("--exact needs an integer order --n")
        lam = Fraction(args.lam)
        p = inverse_p_integer(lam, args.n)
        payload = {"lam": str(lam), "n": args.n, "p": str(p), "p_float": float(p)}
    elif args.n is not None:
        p = inverse_p_integer(float(args.lam), args.n)
        payload = {"lam": float(args.lam), "n": args.n, "p": p}
    else:
        if args.q is None:
            raise AnacciError("provide --q (real order) or --n (integer order)")
        p = inverse_p(float(args.lam), args.q)
        payload = {"lam": float(args.lam), "q": args.q, "p": p}
    _emit(args, payload, (tuple(payload), [tuple(payload.values())]))
    return 0


def _parse_init(text: str, exact: bool):
    parts = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not parts:
        raise AnacciError(f"could not parse init list {text!r}")
    try:
        if exact:
            return tuple(
                int(piece) if piece.lstrip("+-").isdigit() else Fraction(piece)
                for piece in parts
            )
        return tuple(_number(piece) for piece in parts)
    except ValueError as exc:
        raise AnacciError(f"malformed init entry in {text!r}: {exc}") from exc


def _cmd_recurrence(args) -> int:
    if args.exact and not isinstance(args.p, int):
        raise AnacciError("--exact needs an integer weight --p")
    p = args.p
    init = (
        canonical_init(args.n)
        if args.init is None
        else _parse_init(args.init, args.exact)
    )
    spec = RecurrenceSpec(p=p, n=args.n, init=init)
    terms = generate(spec, args.count)
    payload = {
        "p": _jsonable(spec.p),
        "n": spec.n,
        "init": [_jsonable(t) for t in spec.init],
        "terms": [_jsonable(t) for t in terms],
    }
    try:
        estimate = ratio_limit(spec, args.tol, max(args.count, 2 * args.n, 64))
        payload["ratio"] = {
            "value": estimate.value,
            "k_used": estimate.k_used,
            "k0": estimate.k0,
            "converged": estimate.converged,
        }
    except AnacciError as exc:
        payload["ratio"] = {"error": str(exc)}
    table = (("k", "term"), list(enumerate(payload["terms"])))
    _emit(args, payload, table)
    return 0


def _cmd_anacci(args) -> int:
    if args.seq is None:
        idx = AnacciIndex(args.m, args.n)
        payload = {"m": idx.m, "n": idx.n, "value": anacci(idx)}
        if idx.n > 1:
            enclosure = bounds_eq37(idx)
            payload["lower"] = enclosure.lower
            payload["upper"] = enclosure.upper
        _emit(args, payload, (tuple(payload), [tuple(payload.values())]))
        return 0
    count = args.count
    if args.seq == "fixed-m":
        values = seq_fixed_m(args.m, count)
        labels = [(args.m, n) for n in range(1, count + 1)]
    elif args.seq == "fixed-n":
        values = seq_fixed_n(args.n, count)
        labels = [(m, args.n) for m in range(1, count + 1)]
    elif args.seq == "kn":
        values = seq_diagonal(args.k, count, "kn")
        labels = [(args.k * n, n) for n in range(1, count + 1)]
    else:
        values = seq_diagonal(args.k, count, "km")
        labels = [(m, args.k * m) for m in range(1, count + 1)]
    rows = [(m, n, value) for (m, n), value in zip(labels, values)]
    payload = {"sequence": [{"m": m, "n": n, "value": v} for m, n, v in rows]}
    if args.format is None:
        args.format = "csv"  # sequences default to CSV
    _emit(args, payload, (("m", "n", "value"), rows))
    return 0


def _make_body(args) -> ConvexBody:
    kind = BodyKind(args.body)
    return ConvexBody(
        kind=kind,
        n=args.n,
        size=args.size,
        base=args.base,
        axis_offset=args.offset,
    )


def _cmd_scene(args) -> int:
    body = _make_body(args)
    if args.target is not None:
        scene = solve_scene_for_target(body, args.center, args.target)
    elif args.lam is not None:
        scene = DilationScene(body, args.center, args.lam)
    else:
        raise AnacciError("provide --lam or --target")
    points = scene_points(scene)
    payload = {
        "body": body.kind.value,
        "n": body.n,
        "size": body.size,
        "base": body.base,
        "axis_offset": body.axis_offset,
        "volume": volume(body),
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


def _cmd_fig(args) -> int:
    grid = None
    overrides = (args.p_min, args.p_max, args.p_steps, args.q_min, args.q_max, args.q_steps)
    if any(v is not None for v in overrides):
        default = figures.DEFAULT_GRIDS[args.which]
        grid = figures.GridSpec(
            p_min=default.p_min if args.p_min is None else args.p_min,
            p_max=default.p_max if args.p_max is None else args.p_max,
            p_steps=default.p_steps if args.p_steps is None else args.p_steps,
            q_min=default.q_min if args.q_min is None else args.q_min,
            q_max=default.q_max if args.q_max is None else args.q_max,
            q_steps=default.q_steps if args.q_steps is None else args.q_steps,
        )
    _write_text(args, figures.emit(args.which, grid))
    return 0


def _cmd_verify(args) -> int:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p_inverse.add_argument("--q", type=float)
    p_inverse.add_argument("--n", type=int, help="integer order (closed form)")
    p_inverse.add_argument(
        "--exact", action="store_true", help="rational arithmetic (needs --n)"
    )
    _add_output_flags(p_inverse)
    p_inverse.set_defaults(func=_cmd_inverse)

    p_rec = sub.add_parser("recurrence", help="generate terms and estimate the ratio")
    p_rec.add_argument("--p", type=_number, required=True)
    p_rec.add_argument("--n", type=int, required=True)
    p_rec.add_argument("--init", help="comma-separated initial terms (default canonical)")
    p_rec.add_argument("--count", type=int, default=20)
    p_rec.add_argument("--tol", type=float, default=1e-12)
    p_rec.add_argument("--exact", action="store_true", help="exact integer/rational terms")
    _add_output_flags(p_rec)
    p_rec.set_defaults(func=_cmd_recurrence)

    p_anacci = sub.add_parser("anacci", help="lattice constants phi(m, n)")
    p_anacci.add_argument("--m", type=int, default=1)
    p_anacci.add_argument("--n", type=int, default=2)
    p_anacci.add_argument("--k", type=int, default=1, help="diagonal step")
    p_anacci.add_argument("--seq", choices=("fixed-m", "fixed-n", "kn", "km"))
    p_anacci.add_argument("--count", type=int, default=10)
    _add_output_flags(p_anacci)
    p_anacci.set_defaults(func=_cmd_anacci)

    p_scene = sub.add_parser("scene", help="build a dilation scene")
    p_scene.add_argument(
        "--body", choices=tuple(kind.value for kind in BodyKind), default="ball"
    )
    p_scene.add_argument("--n", type=int, default=2)
    p_scene.add_argument("--size", type=float, default=1.0)
    p_scene.add_argument("--base", type=float, default=1.0)
    p_scene.add_argument("--offset", type=float, default=0.0, help="body reference point")
    p_scene.add_argument("--center", type=float, default=0.0, help="homothetic center O")
    p_scene.add_argument("--lam", type=float, help="dilation factor")
    p_scene.add_argument("--target", type=float, help="required shell centroid")
    p_scene.add_argument("--mc", action="store_true", help="Monte Carlo cross-check")
    p_scene.add_argument("--seed", type=int, default=42)
    p_scene.add_argument("--samples", type=int, default=1_000_000)
    _add_output_flags(p_scene)
    p_scene.set_defaults(func=_cmd_scene)

    p_fig = sub.add_parser("fig", help="emit figure data as CSV")
    p_fig.add_argument("--which", choices=sorted(figures.FIGURES), required=True)
    p_fig.add_argument("--output", help="output path (default stdout)")
    p_fig.add_argument("--p-min", type=float, dest="p_min")
    p_fig.add_argument("--p-max", type=float, dest="p_max")
    p_fig.add_argument("--p-steps", type=int, dest="p_steps")
    p_fig.add_argument("--q-min", type=float, dest="q_min")
    p_fig.add_argument("--q-max", type=float, dest="q_max")
    p_fig.add_argument("--q-steps", type=int, dest="q_steps")
    p_fig.set_defaults(func=_cmd_fig)

    p_verify = sub.add_parser("verify", help="run the property suites")
    p_verify.add_argument(
        "--suite",
        choices=("bounds", "monotone", "geometry", "appendices", "all"),
        default="all",
    )
    p_verify.add_argument("--m-max", type=int, dest="m_max", default=50)
    p_verify.add_argument("--n-max", type=int, dest="n_max", default=10)
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--samples", type=int, default=200_000)
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
    except AnacciError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
