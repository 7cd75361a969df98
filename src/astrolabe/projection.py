"""Axis-viewpoint projections of the celestial sphere onto the
equatorial plane.

The sphere has unit radius with the north celestial pole at +z.  A
projection in this family looks from the axis point (0, 0, v) onto the
plane z = 1, with v != 1.  Presets:

* stereographic: v = -1 (south pole).  The classical astrolabe
  projection; the only member that maps every circle to a circle.
* gnomonic: v = 0 (center).
* external(q): v = -q with q > 1.
* orthographic: viewpoint at infinity, handled analytically.

Coordinates on the sphere are declination (degrees, +90 at the north
pole) and hour angle (degrees).  On the plate the +y axis points toward
the projection of the zenith's meridian and polar angle is measured
clockwise from +y, so a point at normalized radius r and hour angle H
lands at (r*sin H, r*cos H).

Radii are normalized so declination 0 maps to radius `scale` whenever
the viewpoint is off-center.  For the gnomonic member the equator
itself projects to infinity, so no such normalization exists; its
radius is the signed tangent-plane form scale*cos(dec)/sin(dec), where
a negative value marks the antipodal branch of the projecting ray, and
|r| = scale*tan(90 - dec).
"""

from __future__ import annotations

import math

from .exceptions import DomainError, NoSolution
from .geometry import FitResult, PlanePoint, _Record, fit_circle

# a projecting ray closer than this to parallel with the plane is rejected
DENOM_MIN = 1e-12

# ecliptic obliquity, degrees: the default of every face and of the CLI
OBLIQUITY = 23.44

# the equator radius (mm) of a plate or rete and the limb radius of a back must lie in
# this range: far below it arcs lose their sweep, far above it squared sizes overflow
SCALE_RANGE = (1e-6, 1e9)

# lowest plate latitude (degrees); below about 3e-6 the horizon cannot be drawn
MIN_LATITUDE = 0.001

# finest almucantar or azimuth step (degrees), one arcminute: the work grows as 1/step, and
# at lat 40 that plate (5,400 almucantars, 10,800 verticals) is drawn in about 0.4 s, 26 MB
MIN_STEP = 1.0 / 60.0

# finest band step (degrees), the margin the top band keeps below 90
MIN_BAND_STEP = 1e-9

# most trials one Monte Carlo run takes: 10^6 time_to_sunset trials at lat 40 run for
# about 200 s (Python 3.11, one core of a 2-vCPU host) and keep 10^6 samples
MAX_TRIALS = 10**6


class Range:
    """The domain of one input: its ends, whether each end is open, and the
    text that refuses a value outside it, by default "must lie in" the
    interval (`unit` follows it)."""

    __slots__ = ("lo", "hi", "lo_open", "hi_open", "text")

    def __init__(self, lo, hi, lo_open=False, hi_open=False, text=None, unit=""):
        self.lo, self.hi, self.lo_open, self.hi_open = lo, hi, lo_open, hi_open
        ends = ", ".join(str(v) if isinstance(v, int) else f"{v:g}" for v in (lo, hi))
        shown = f"{'(' if lo_open else '['}{ends}{')' if hi_open else ']'}"
        self.text = text or f"must lie in {shown}{unit}"

    def check(self, value, what: str) -> None:
        """Raise ValueError, "<what> <text>, got <value>", unless value lies in the range."""
        lo, hi = self.lo, self.hi
        if not ((lo < value if self.lo_open else lo <= value)
                and (value < hi if self.hi_open else value <= hi)):
            raise ValueError(f"{what} {self.text}, got {value!r}")


# the range table: each input's domain, written once, for the library and the CLI
FINITE = Range(-math.inf, math.inf, True, True, "must be a finite number")
NON_NEGATIVE = Range(0.0, math.inf, hi_open=True, text="must be finite and non-negative")
SCALE = Range(*SCALE_RANGE, unit=" mm")
LENGTH = Range(0.0, SCALE_RANGE[1], lo_open=True, unit=" mm")
LENGTH_OR_0 = Range(0.0, SCALE_RANGE[1], unit=" mm")
SIGNED_LENGTH = Range(-SCALE_RANGE[1], SCALE_RANGE[1], unit=" mm")
LATITUDE = Range(MIN_LATITUDE, 90.0, hi_open=True)  # a plate's, a back's, a horizon's
DECLINATION = Range(-90.0, 90.0)  # also a latitude on the globe
ALTITUDE = Range(0.0, 90.0)
ANGULAR_RADIUS = Range(0.0, 90.0, lo_open=True)
OBLIQUITIES = Range(0.0, 30.0, True, True)  # the tropics apart
DEGREES = Range(0.0, 360.0)  # at most one turn
SIGNED_DEGREES = Range(-360.0, 360.0)
RADIANS = Range(0.0, math.tau, text="must lie in [0, 2 pi]")
SIGNED_RADIANS = Range(-math.tau, math.tau, text="must lie in [-2 pi, 2 pi]")
FRACTION = Range(-1.0, 1.0)
VIEWPOINT = Range(1.0, 1e9, lo_open=True)  # an external viewpoint's q
STEP = Range(MIN_STEP, math.inf, text="must be at least 1/60 degree (one arcminute)")
BAND_STEP = Range(MIN_BAND_STEP, math.inf, hi_open=True,
                  text=f"must be a finite number >= {MIN_BAND_STEP}")
TRIALS = Range(1, MAX_TRIALS)
PRECISION = Range(1, 9, text="must be an int in [1, 9]")
SEED = Range(0, math.inf, text="must be a non-negative integer")


class SpherePoint(_Record):
    """A point on the celestial sphere: declination and hour angle, degrees.

    Hour angle is normalized into [0, 360)."""

    __slots__ = ("dec", "hour_angle")

    def __init__(self, dec: float, hour_angle: float):
        DECLINATION.check(dec, "declination")
        FINITE.check(hour_angle, "hour angle")
        super().__init__(dec, hour_angle % 360.0)


class SphereCircleSpec(_Record):
    """A circle on the sphere: its pole and angular radius (degrees)."""

    __slots__ = ("pole_dec", "pole_ha", "angular_radius")

    def __init__(self, pole_dec: float, pole_ha: float, angular_radius: float):
        DECLINATION.check(pole_dec, "declination")
        ANGULAR_RADIUS.check(angular_radius, "angular radius")
        super().__init__(pole_dec, pole_ha, angular_radius)


class ProjectionKind(_Record):
    """Viewpoint (0, 0, v) projecting onto the plane z = 1, v != 1.

    The orthographic limit is encoded as viewpoint_v = -inf.
    """

    __slots__ = ("viewpoint_v",)

    def __init__(self, viewpoint_v: float):
        if math.isnan(viewpoint_v):
            raise ValueError("projection parameters must not be NaN")
        if viewpoint_v == 1.0:
            raise ValueError("viewpoint must not lie on the projection plane")
        super().__init__(viewpoint_v)

    @classmethod
    def stereographic(cls) -> "ProjectionKind":
        return cls(viewpoint_v=-1.0)

    @classmethod
    def gnomonic(cls) -> "ProjectionKind":
        return cls(viewpoint_v=0.0)

    @classmethod
    def external(cls, q: float) -> "ProjectionKind":
        VIEWPOINT.check(q, "external viewpoint q")
        return cls(viewpoint_v=-q)

    @classmethod
    def orthographic(cls) -> "ProjectionKind":
        return cls(viewpoint_v=-math.inf)

    @property
    def is_orthographic(self) -> bool:
        return math.isinf(self.viewpoint_v)


STEREOGRAPHIC = ProjectionKind.stereographic()


def axis_projection_radius(dec: float, kind: ProjectionKind, scale: float) -> float:
    """Plate radius of the declination-dec parallel under the given
    projection, normalized so dec=0 maps to `scale` (see module notes
    for the gnomonic exception).  Raises DomainError when the parallel's
    projecting rays run parallel to the plane.
    """
    DECLINATION.check(dec, "declination")
    SCALE.check(scale, "scale")
    d = math.radians(dec)
    sind, cosd = math.sin(d), math.cos(d)
    if kind.is_orthographic:
        return scale * cosd
    v = kind.viewpoint_v
    if v == 0.0:
        if abs(sind) < DENOM_MIN:
            raise DomainError(
                "gnomonic projection is undefined on the equator (dec = 0)"
            )
        return scale * cosd / sind
    den = sind - v
    if abs(den) < DENOM_MIN:
        raise DomainError(
            f"projection undefined at dec = {dec}: ray parallel to the plane"
        )
    return scale * (-v) * cosd / den


def _stereographic(sind: float, cosd: float, scale: float) -> float:
    """The stereographic radius from the declination's sine and cosine,
    unchecked: scale * (-v) * cosd / (sind - v) at v = -1, bit for bit."""
    return scale * cosd / (sind + 1.0)


def stereographic_radius(dec: float, scale: float) -> float:
    """Stereographic plate radius: scale * tan(45 deg - dec/2)."""
    return axis_projection_radius(dec, STEREOGRAPHIC, scale)


def from_plate_polar(radius: float, angle_deg: float) -> PlanePoint:
    """Plate point at the given radius and plate angle (degrees,
    clockwise from +y): (r*sin, r*cos)."""
    a = math.radians(angle_deg)
    return PlanePoint(radius * math.sin(a), radius * math.cos(a))


def plate_angle_deg(p: PlanePoint) -> float:
    """Plate angle of a point (degrees clockwise from +y, in [0, 360))."""
    return math.degrees(math.atan2(p.x, p.y)) % 360.0


def project_point(p: SpherePoint, scale: float) -> PlanePoint:
    """Stereographic image of a sphere point in plate coordinates."""
    return from_plate_polar(stereographic_radius(p.dec, scale), p.hour_angle)


def _cos_sin_deg(angle: float) -> tuple[float, float]:
    """cos and sin of an angle in degrees, reduced by whole quarter turns
    first (exactly), so that each is exactly 0 at a multiple of 90."""
    quarter = round(angle / 90.0)
    rest = math.radians(angle - 90.0 * quarter)
    c, s = math.cos(rest), math.sin(rest)
    return ((c, s), (-s, c), (-c, -s), (s, -c))[quarter % 4]


def _sky_angles(sin_phi: float, cos_phi: float, sin_h: float, cos_h: float,
                cos_a: float, sin_a: float) -> tuple[float, float]:
    """Declination and hour angle (degrees, the hour angle as atan2 gives
    it, in [-180, 180]) of the sphere point seen from latitude phi at
    altitude h and compass azimuth A, from the sines and cosines of phi, h
    and A and the point's components toward the pole, the upper meridian
    and the east:

        sin(dec) = sin(phi) sin(h) + cos(phi) cos(h) cos(A)
    """
    pole = sin_phi * sin_h + cos_phi * cos_h * cos_a
    meridian = cos_phi * sin_h - sin_phi * cos_h * cos_a
    east = cos_h * sin_a
    return (math.degrees(math.atan2(pole, math.hypot(meridian, east))),
            math.degrees(math.atan2(-east, meridian)))


def horizon_to_sphere(latitude: float, altitude: float, azimuth: float) -> SpherePoint:
    """The sphere point seen from latitude phi at altitude h and compass
    azimuth A (degrees from north through east); see `_sky_angles`."""
    LATITUDE.check(latitude, "latitude")
    ALTITUDE.check(altitude, "altitude")
    FINITE.check(azimuth, "azimuth")
    phi, h = math.radians(latitude), math.radians(altitude)
    return SpherePoint(*_sky_angles(math.sin(phi), math.cos(phi), math.sin(h), math.cos(h),
                                    *_cos_sin_deg(azimuth)))


def solve_altitude_for_azimuth(latitude: float, declination: float, azimuth: float) -> float:
    """Altitude (degrees in [0, 90]) at which a body of the given
    declination crosses the given compass azimuth; inverse of
    `horizon_to_sphere` in its valid range.  Where two crossings exist
    the lower one is returned.  Raises NoSolution when the azimuth is
    never reached at that declination."""
    LATITUDE.check(latitude, "latitude")
    DECLINATION.check(declination, "declination")
    FINITE.check(azimuth, "azimuth")
    la = math.radians(latitude)
    return _altitude_for_azimuth(latitude, declination, azimuth, math.sin(la), math.cos(la),
                                 _cos_sin_deg(azimuth)[0])


def _altitude_for_azimuth(latitude: float, declination: float, azimuth: float,
                          sin_phi: float, cos_phi: float, cos_a: float) -> float:
    """`solve_altitude_for_azimuth` unchecked, from the sine and cosine of
    the latitude and the cosine of the azimuth."""
    cb = cos_phi * cos_a
    amp = math.hypot(sin_phi, cb)
    sd = math.sin(math.radians(declination))
    if abs(sd) > amp + 1e-12:
        raise NoSolution(
            f"declination {declination} never crosses azimuth {azimuth} "
            f"at latitude {latitude}"
        )
    psi = math.atan2(cb, sin_phi)
    base = math.asin(max(-1.0, min(1.0, sd / amp)))
    candidates = []
    for h in (math.degrees(base - psi), math.degrees(math.pi - base - psi)):
        h = (h + 180.0) % 360.0 - 180.0
        if -1e-9 <= h <= 90.0 + 1e-9:
            candidates.append(min(max(h, 0.0), 90.0))
    if not candidates:
        raise NoSolution(
            f"no altitude in [0, 90] at azimuth {azimuth} for declination "
            f"{declination} at latitude {latitude}"
        )
    return min(candidates)


def unproject_point(p: PlanePoint, scale: float) -> SpherePoint:
    """Inverse of project_point, back to declination / hour angle."""
    SCALE.check(scale, "scale")
    r = math.hypot(p.x, p.y)
    dec = 90.0 - 2.0 * math.degrees(math.atan(r / scale))
    return SpherePoint(dec, plate_angle_deg(p))


def _unit_vector(dec_rad: float, ha_rad: float) -> tuple[float, float, float]:
    # 3D frame with x, y components aligned to the plate axes: x at H=90, y at H=0
    return (
        math.cos(dec_rad) * math.sin(ha_rad),
        math.cos(dec_rad) * math.cos(ha_rad),
        math.sin(dec_rad),
    )


def sample_sphere_circle(spec: SphereCircleSpec, n: int) -> list[SpherePoint]:
    """n points equally spaced (in arc) around the sphere circle.

    The walk starts where the circle crosses the pole's own meridian on
    the southward side and advances toward increasing hour angle.  A
    great circle around the celestial pole with n divisible by 4
    therefore samples the cardinal hour angles exactly.
    """
    if n < 3:
        raise ValueError(f"need at least 3 samples, got {n}")
    rho = math.radians(spec.angular_radius)
    dp = math.radians(spec.pole_dec)
    hp = math.radians(spec.pole_ha)
    px, py, pz = _unit_vector(dp, hp)
    # southward meridian tangent and eastward tangent at the pole
    sx, sy, sz = math.sin(dp) * math.sin(hp), math.sin(dp) * math.cos(hp), -math.cos(dp)
    ex, ey = math.cos(hp), -math.sin(hp)
    cr, sr = math.cos(rho), math.sin(rho)
    out = []
    for k in range(n):
        u = 2.0 * math.pi * k / n
        cu, su = math.cos(u), math.sin(u)
        vx = cr * px + sr * (cu * sx + su * ex)
        vy = cr * py + sr * (cu * sy + su * ey)
        vz = cr * pz + sr * (cu * sz)
        dec = math.degrees(math.asin(max(-1.0, min(1.0, vz))))
        ha = math.degrees(math.atan2(vx, vy)) % 360.0
        out.append(SpherePoint(dec, ha))
    return out


def circle_image_residual(
    spec: SphereCircleSpec, kind: ProjectionKind, n: int, scale: float
) -> FitResult:
    """Fit a plane circle to the projected samples of a sphere circle.

    Under the stereographic member the image is an exact circle and the
    residual vanishes to machine precision; every other member breaks
    circle preservation and the residual is the measure of that failure.
    Raises DomainError if any sample is outside the projection's domain.
    """
    return fit_circle([from_plate_polar(axis_projection_radius(sp.dec, kind, scale), sp.hour_angle)
                       for sp in sample_sphere_circle(spec, n)])
