"""Quaternionic moving frames and (1,3)-Bertrand mates in R^3 and R^4."""

from .quaternion import (
    E1,
    E2,
    E3,
    ONE,
    ZERO,
    Quaternion,
    add,
    conjugate,
    inner,
    mul,
    norm,
    scale,
    spatial_cross_check,
)
from .curves import (
    ArcLengthTable,
    CurveSpec,
    ParametricCurve,
    arc_length,
    circle3,
    derivative,
    fourier_curve,
    helix3,
    is_unit_speed,
    torus_curve,
)
from .frames import (
    CurvatureProfile,
    Frame3,
    Frame4,
    curvature_profile,
    frame3_at,
    frame4_from_pair,
    frame4_intrinsic,
    frame_ode_residual,
    frames_on_grid,
)
from .bertrand import (
    BertrandConstants,
    BertrandReport,
    MateFrameClosedForm,
    check_conditions,
    construct_mate,
    fit_constants,
    mate_curvatures_Kk_form,
    mate_curvatures_closed_form,
    mate_frame_closed_form,
    mate_spatial_curvatures,
    phi_prime,
    verify_mate,
)
from .errors import DegeneracyError, FitError

__version__ = "0.1.0"
