"""Computational design of planispheric astrolabes.

Stereographic plate/rete/back geometry, a family of axis-viewpoint
projections for comparison, deterministic SVG engraving drawings, and
propagation of engraving errors to instrument readouts.
"""

from .back import (
    BackConfig,
    BackModel,
    Locality,
    MECCA,
    bearing_oracle,
    equation_of_center,
    build_back,
    calendar_ring,
    declination_from_alt_az,
    load_localities,
    midday_altitude,
    midday_curve,
    qibla_eq13,
    shadow_square,
    sine_quadrant,
    solar_declination,
    solar_longitude,
    solve_altitude_for_azimuth,
)
from .error_analysis import (
    ErrorReport,
    PerturbationSpec,
    alidade_offset_error,
    alidade_rotation_error,
    arc_displacement,
    arc_displacement_angular,
    band_misassignment,
    band_spacing,
    monte_carlo_readout,
    quadrant_chord_diagnosis,
)
from .exceptions import (
    ArcticLatitude,
    AstrolabeError,
    CoincidentCircles,
    CollinearPoints,
    DomainError,
    DuplicateStarName,
    EmptyModelWarning,
    NoSolution,
    OutsidePlate,
    ParseError,
    ScenarioInfeasible,
    TooFewPoints,
    UndefinedBearing,
    UnknownKey,
)
from .geometry import (
    Arc,
    Circle,
    FitResult,
    PlanePoint,
    Segment,
    chord_length,
    circle_circle_intersection,
    circumcircle,
    divide_arc_equal,
    fit_circle,
    normalize_angle,
)
from .plate import (
    AltitudeCurve,
    AzimuthCurve,
    HourLine,
    MeridianSolution,
    PlateConfig,
    PlateModel,
    almucantar_solution,
    azimuth_circle,
    build_plate,
    clip_circle_to_disc,
    hour_lines,
    night_arc,
    tropic_circles,
    tropic_radii,
    zenith_point,
)
from .projection import (
    STEREOGRAPHIC,
    ProjectionKind,
    SphereCircleSpec,
    SpherePoint,
    axis_projection_radius,
    circle_image_residual,
    from_plate_polar,
    plate_angle_deg,
    project_point,
    sample_sphere_circle,
    stereographic_radius,
    unproject_point,
)
from .render import LAYER_IDS, RenderStyle, arc_to_path, render_full, render_svg
from .rete import (
    ReteModel,
    StarEntry,
    ZodiacTick,
    build_rete,
    ecliptic_circle,
    ecliptic_point,
    load_star_catalog,
    star_pointer,
)

__version__ = "0.1.0"
