"""Generalized anacci constants: the ratio limits of equal-weight linear
recurrences, their analytic structure, and their geometric realization by
dilations of convex bodies."""

from .errors import (
    AllZeroInit,
    AnacciError,
    CriticalRegime,
    DegenerateShell,
    LambdaOne,
    NoConvergence,
    NonPositiveInput,
    OEqualsA,
    OOutsideBody,
    OrderOne,
    PTooSmall,
    TargetUnreachable,
)
from .geometry import (
    BallRepresentation,
    BodyKind,
    CenterOrdering,
    ConeRepresentation,
    ConvexBody,
    DilationScene,
    NestingReport,
    axis_interval,
    b_one,
    ball,
    ball_representation,
    center_ordering,
    centroid,
    centroid_ratio_theorem_check,
    cone,
    cone_representation,
    cube,
    dilate,
    height_interval_nesting,
    lambda_from_p,
    mc_centroid,
    pyramid,
    scene_points,
    shell_centroid,
    solve_scene_for_target,
    unit_ball_volume,
    volume,
)
from .lattice import (
    AnacciIndex,
    anacci,
    bounds_eq37,
    compare,
    scaled_seq_A,
    scaled_seq_B,
    seq_diagonal,
    seq_fixed_m,
    seq_fixed_n,
)
from .qkernel import (
    CRITICAL_TOL,
    RegionClass,
    classify,
    dq_value,
    eval_P,
    lambda_min,
    q_value,
)
from .recurrence import (
    RatioEstimate,
    RecurrenceSpec,
    canonical_init,
    generate,
    horadam_check,
    ratio_limit,
)
from .solver import (
    AnacciConstant,
    BoundPair,
    BoundSource,
    bound_crossover,
    dlambda_dp,
    dlambda_dq,
    inverse_p,
    inverse_p_integer,
    lower_bound_basic,
    lower_bound_refined,
    solve_lambda,
)

__version__ = "0.1.0"
