"""Generalized anacci constants: the ratio limits of equal-weight linear
recurrences, their analytic structure, and their geometric realization by
dilations of convex bodies.

``import anacci`` loads no layer.  A public name imports its home submodule
the first time it is read (PEP 562), so a caller pays only for the layers it
uses: ``anacci.solve_lambda`` loads the solver and the kernel, never the
geometry.
"""

import importlib

__version__ = "0.1.0"

# every public name, by the submodule it lives in
_PUBLIC = {
    "errors": (
        "AllZeroInit",
        "AnacciError",
        "CriticalRegime",
        "DegenerateShell",
        "InputOutOfRange",
        "LambdaOne",
        "NoConvergence",
        "NonPositiveInput",
        "OEqualsA",
        "OOutsideBody",
        "OrderOne",
        "PTooSmall",
        "TargetUnreachable",
        "TermOverflow",
        "WeightOverflow",
        "WeightUnderflow",
        "ZeroUnderflow",
    ),
    "geometry": (
        "BodyKind",
        "CenterOrdering",
        "ConvexBody",
        "DilationScene",
        "Representation",
        "axis_interval",
        "b_one",
        "ball",
        "center_ordering",
        "centroid",
        "cone",
        "cube",
        "dilate",
        "lambda_from_p",
        "mc_centroid",
        "pyramid",
        "representation",
        "scene_points",
        "shell_centroid",
        "solve_scene_for_target",
        "unit_ball_volume",
        "volume",
    ),
    "lattice": (
        "anacci",
        "scaled_seq_A",
        "scaled_seq_B",
        "seq_diagonal",
        "seq_fixed_m",
        "seq_fixed_n",
    ),
    "qkernel": (
        "RegionClass",
        "classify",
        "dq_value",
        "eval_P",
        "lambda_min",
        "q_value",
    ),
    "recurrence": (
        "RatioEstimate",
        "RecurrenceSpec",
        "canonical_init",
        "generate",
        "ratio_limit",
    ),
    "solver": (
        "AnacciConstant",
        "bound_crossover",
        "dlambda_dp",
        "dlambda_dq",
        "inverse_p",
        "inverse_p_integer",
        "lower_bound_basic",
        "lower_bound_refined",
        "solve_lambda",
    ),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    # Looked up on every read, never stored here, so a name rebound in its
    # home submodule (a test double, a tracing wrapper) shows through.
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _PUBLIC:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_PUBLIC})
