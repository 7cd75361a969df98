"""Back-face scales: limb degree graduation, sine quadrant, shadow
square, solar calendar ring, midday altitude curves, and qibla bearings.

The solar model is a two-term equation of center

    lambda_sun(day) = L(day) + 1.915 * sin M + 0.020 * sin 2M   (degrees)

with mean anomaly M = 360*(day - day_perihelion)/365 and mean longitude
L calibrated so lambda_sun is exactly zero at the March equinox.  The
epoch is 2025: the day numbers are that year's events (perihelion 4.56,
March equinox 79.38), and the resulting longitudes stay within about
0.2 degrees of the solstice/equinox dates, well inside the one-degree
engraving target.

Bearings are computed two ways on purpose: `bearing_oracle` works on 3D
unit vectors and is the reference; `qibla_eq13` is the closed tangent
form kept verbatim for comparison.  They agree on the symmetric family
where the observer shares Mecca's latitude and disagree elsewhere; the
command line prints both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Union

from .exceptions import DomainError, NoSolution, UndefinedBearing
from .geometry import Arc, Circle, PlanePoint, Segment, circumcircle
from .projection import OBLIQUITY, from_plate_polar
from .rete import _load_csv

Element = Union[Arc, Segment, PlanePoint]


@dataclass(frozen=True)
class Locality:
    """A named place: latitude north-positive, longitude east-positive,
    degrees.  Longitude is normalized into (-180, 180]."""

    name: str
    latitude: float
    longitude: float

    def __post_init__(self):
        if not self.name:
            raise ValueError("locality name must be non-empty")
        if not (-90.0 <= self.latitude <= 90.0):
            raise ValueError(f"latitude must lie in [-90, 90], got {self.latitude!r}")
        if not math.isfinite(self.longitude):
            raise ValueError(f"non-finite longitude: {self.longitude!r}")
        lon = self.longitude % 360.0
        if lon > 180.0:
            lon -= 360.0
        object.__setattr__(self, "longitude", lon)


MECCA = Locality("Mecca", 21.4225, 39.8262)


# calibration of the solar model: the 2025 event day numbers, the year
# length in days and the two equation-of-center coefficients (degrees)
PERIHELION_DAY = 4.56
EQUINOX_DAY = 79.38
YEAR_DAYS = 365.0
CENTER1 = 1.915
CENTER2 = 0.020


@dataclass(frozen=True)
class DegreeTick:
    """Limb graduation mark: angle in degrees, major every tenth."""

    angle: float
    major: bool


@dataclass(frozen=True)
class SineQuadrant:
    """Sine/cosine grid in a quadrant: n equal radius divisions with
    spacing radius/n exactly, and the orthogonal chord lines (the k = n
    lines are zero-length and omitted)."""

    radius: float
    divisions: int
    spacing: float
    sine_lines: tuple[Segment, ...]
    cosine_lines: tuple[Segment, ...]


@dataclass(frozen=True)
class ShadowMark:
    """One shadow-square graduation: which scale it belongs to, its
    digit index, position fraction along the side, and the annotated
    shadow angle in degrees."""

    scale: str
    index: int
    fraction: float
    angle: float


@dataclass(frozen=True)
class ShadowSquare:
    """Shadow square of the given side length: an umbra recta scale and
    an umbra versa scale of `digits` marks each, meeting at the
    45-degree corner (index = digits on both scales)."""

    side: float
    digits: int
    marks: tuple[ShadowMark, ...]


@dataclass(frozen=True)
class MiddayCurve:
    """Noon altitude curve for one latitude: the three control altitudes
    at solar declination -eps, 0, +eps, their back-face points, and the
    arc through them."""

    latitude: float
    altitudes: tuple[float, float, float]
    points: tuple[PlanePoint, PlanePoint, PlanePoint]
    element: Element


@dataclass(frozen=True)
class BackConfig:
    """Inputs for the back face: the plate latitude (which sets the
    midday curve), the limb radius and the obliquity."""

    latitude: float
    radius: float
    obliquity: float = OBLIQUITY

    def __post_init__(self):
        if not (0.0 < self.latitude < 90.0):
            raise ValueError(f"latitude must lie in (0, 90), got {self.latitude!r}")
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError(f"radius must be positive, got {self.radius!r}")
        if not (0.0 < self.obliquity < 30.0):
            raise ValueError(f"obliquity must lie in (0, 30), got {self.obliquity!r}")


@dataclass(frozen=True)
class BackModel:
    config: BackConfig
    boundary: Circle
    degree_ticks: tuple[DegreeTick, ...]
    calendar_angles: tuple[float, ...]
    sine_quadrant: SineQuadrant
    shadow_square: ShadowSquare
    midday_curves: tuple[MiddayCurve, ...]
    qibla_marks: tuple[tuple[Locality, float], ...]


def equation_of_center(mean_anomaly: float) -> float:
    """Two-term equation of center, degrees, for a mean anomaly in degrees."""
    m = math.radians(mean_anomaly)
    return CENTER1 * math.sin(m) + CENTER2 * math.sin(2.0 * m)


def solar_longitude(day: float) -> float:
    """Ecliptic longitude of the sun (degrees in [0, 360)) on a day of
    the year (1-based; values outside [1, year] wrap, so the longitude
    is periodic in exactly one year by construction)."""
    if not math.isfinite(day):
        raise ValueError(f"non-finite day: {day!r}")
    d = (day - 1.0) % YEAR_DAYS + 1.0
    m = 360.0 * (d - PERIHELION_DAY) / YEAR_DAYS
    m_eq = 360.0 * (EQUINOX_DAY - PERIHELION_DAY) / YEAR_DAYS
    mean_lon = 360.0 * (d - EQUINOX_DAY) / YEAR_DAYS - equation_of_center(m_eq)
    return (mean_lon + equation_of_center(m)) % 360.0


def solar_declination(longitude: float, obliquity: float = OBLIQUITY) -> float:
    """Declination (degrees) of the sun at an ecliptic longitude."""
    s = math.sin(math.radians(obliquity)) * math.sin(math.radians(longitude))
    return math.degrees(math.asin(max(-1.0, min(1.0, s))))


def calendar_ring() -> tuple[float, ...]:
    """365 calendar tick angles (degrees), one per day, anchored so the
    day-1 tick sits at zero and each tick advances by that day's solar
    motion.  Strictly increasing and spanning exactly one turn."""
    n = int(round(YEAR_DAYS))
    lams = [solar_longitude(k + 1) for k in range(n)]
    angles = [0.0]
    for k in range(1, n):
        angles.append(angles[-1] + (lams[k] - lams[k - 1]) % 360.0)
    return tuple(angles)


def sine_quadrant(radius: float, divisions: int = 60) -> SineQuadrant:
    """Sine quadrant occupying the upper-left back quadrant (x <= 0,
    y >= 0), with `divisions` equal radius steps."""
    if radius <= 0.0:
        raise ValueError(f"radius must be positive, got {radius!r}")
    if divisions < 1:
        raise ValueError(f"divisions must be >= 1, got {divisions!r}")
    spacing = radius / divisions
    sine_lines = []
    cosine_lines = []
    for k in range(1, divisions):
        d = k * spacing
        reach = math.sqrt(radius * radius - d * d)
        sine_lines.append(Segment(PlanePoint(-reach, d), PlanePoint(0.0, d)))
        cosine_lines.append(Segment(PlanePoint(-d, 0.0), PlanePoint(-d, reach)))
    return SineQuadrant(
        radius=radius,
        divisions=divisions,
        spacing=spacing,
        sine_lines=tuple(sine_lines),
        cosine_lines=tuple(cosine_lines),
    )


def shadow_square(side: float, digits: int = 12) -> ShadowSquare:
    """Shadow square graduation.  Mark k of the umbra recta scale is
    annotated arctan(digits/k) (gnomon shadow angle for shadow length
    k/digits of the gnomon); the versa scale carries the complement
    arctan(k/digits).  Both scales are strictly monotone in k and meet
    at 45 degrees on the corner mark k = digits."""
    if side <= 0.0:
        raise ValueError(f"side must be positive, got {side!r}")
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits!r}")
    marks = []
    for k in range(1, digits + 1):
        frac = k / digits
        marks.append(
            ShadowMark("recta", k, frac, math.degrees(math.atan2(digits, k)))
        )
    for k in range(1, digits + 1):
        frac = k / digits
        marks.append(
            ShadowMark("versa", k, frac, math.degrees(math.atan2(k, digits)))
        )
    return ShadowSquare(side=side, digits=digits, marks=tuple(marks))


def midday_altitude(latitude: float, declination: float) -> float:
    """Noon solar altitude: h = 90 - phi + delta (degrees)."""
    return 90.0 - latitude + declination


def midday_curve(latitude: float, obliquity: float, radius: float) -> MiddayCurve:
    """Noon altitude curve through the three control declinations
    -obliquity, 0, +obliquity.

    Back-face polar mapping: altitude is linear in radius (0 degrees on
    the limb, 90 at the center) and the polar angle equals the control
    declination, measured from the noon direction (+y).  Raises
    DomainError when any control altitude leaves (0, 90].
    """
    if radius <= 0.0:
        raise ValueError(f"radius must be positive, got {radius!r}")
    decs = (-obliquity, 0.0, obliquity)
    alts = tuple(midday_altitude(latitude, d) for d in decs)
    for h in alts:
        if not (0.0 < h <= 90.0):
            raise DomainError(
                f"midday altitude {h:.3f} outside (0, 90] at latitude {latitude}"
            )
    points = tuple(
        from_plate_polar(radius * (1.0 - h / 90.0), d) for h, d in zip(alts, decs)
    )
    if latitude >= 90.0 - 1e-12:
        # degenerate: all three points collapse; not reachable through
        # validated configs but kept as a guard
        raise DomainError("midday curve undefined at the pole")
    circ = circumcircle(*points)
    a0 = circ.angle_of(points[0])
    a1 = circ.angle_of(points[1])
    a2 = circ.angle_of(points[2])
    arc = Arc(circ, a0, a2, "ccw")
    if not arc.contains_angle(a1):
        arc = Arc(circ, a0, a2, "cw")
    return MiddayCurve(latitude=latitude, altitudes=alts, points=points, element=arc)


def _unit(latitude: float, longitude: float) -> tuple[float, float, float]:
    la, lo = math.radians(latitude), math.radians(longitude)
    return (math.cos(la) * math.cos(lo), math.cos(la) * math.sin(lo), math.sin(la))


def bearing_oracle(origin: Locality, target: Locality) -> float:
    """Initial great-circle bearing from origin to target, degrees
    clockwise from true north in [0, 360).  Works entirely on 3D unit
    vectors.  Raises UndefinedBearing for coincident or antipodal
    endpoints and for an origin at a pole."""
    u1 = _unit(origin.latitude, origin.longitude)
    u2 = _unit(target.latitude, target.longitude)
    dot = max(-1.0, min(1.0, sum(a * b for a, b in zip(u1, u2))))
    ang = math.acos(dot)
    if ang < 1e-9:
        raise UndefinedBearing("origin and target coincide")
    if math.pi - ang < 1e-9:
        raise UndefinedBearing("origin and target are antipodal")
    ex, ey, ez = -u1[1], u1[0], 0.0
    norm = math.hypot(ex, ey)
    if norm < 1e-12:
        raise UndefinedBearing("bearing undefined at the pole")
    ex, ey = ex / norm, ey / norm
    nx = u1[1] * ez - u1[2] * ey
    ny = u1[2] * ex - u1[0] * ez
    nz = u1[0] * ey - u1[1] * ex
    te = u2[0] * ex + u2[1] * ey
    tn = u2[0] * nx + u2[1] * ny + u2[2] * nz
    return math.degrees(math.atan2(te, tn)) % 360.0


def qibla_eq13(observer: Locality, mecca: Locality = MECCA) -> float:
    """Closed tangent form of the qibla angle, kept verbatim:

        tan a = cos(phi_M) sin(dlon)
                / (cos(phi_M) sin(phi) - sin(phi_M) cos(phi) cos(dlon))

    with dlon the longitude of Mecca minus the observer's.  Returned in
    [0, 360).  Disagrees with `bearing_oracle` except on the symmetric
    family phi = phi_M; both are reported by the command line tool.
    Raises UndefinedBearing when numerator and denominator both vanish.
    """
    phi = math.radians(observer.latitude)
    phi_m = math.radians(mecca.latitude)
    dlon = math.radians(mecca.longitude - observer.longitude)
    num = math.cos(phi_m) * math.sin(dlon)
    den = math.cos(phi_m) * math.sin(phi) - math.sin(phi_m) * math.cos(phi) * math.cos(
        dlon
    )
    if abs(num) < 1e-15 and abs(den) < 1e-15:
        raise UndefinedBearing("qibla angle undefined: observer at Mecca")
    return math.degrees(math.atan2(num, den)) % 360.0


def declination_from_alt_az(latitude: float, altitude: float, azimuth: float) -> float:
    """Solar declination (degrees) from an observed altitude and compass
    azimuth (degrees clockwise from north):

        sin(delta) = sin(phi) sin(h) + cos(phi) cos(h) cos(A)
    """
    if not (0.0 < latitude < 90.0):
        raise ValueError(f"latitude must lie in (0, 90), got {latitude!r}")
    if not (0.0 <= altitude <= 90.0):
        raise ValueError(f"altitude must lie in [0, 90], got {altitude!r}")
    la, h, a = (math.radians(v) for v in (latitude, altitude, azimuth))
    s = math.sin(la) * math.sin(h) + math.cos(la) * math.cos(h) * math.cos(a)
    if abs(s) > 1.0 + 1e-12:
        raise DomainError(f"sin(declination) = {s!r} outside [-1, 1]")
    return math.degrees(math.asin(max(-1.0, min(1.0, s))))


def solve_altitude_for_azimuth(
    latitude: float, declination: float, azimuth: float
) -> float:
    """Altitude (degrees in [0, 90]) at which a body of the given
    declination crosses the given compass azimuth; inverse of
    `declination_from_alt_az` in its valid range.  Where two crossings
    exist the lower one is returned.  Raises NoSolution when the azimuth
    is never reached at that declination."""
    if not (0.0 < latitude < 90.0):
        raise ValueError(f"latitude must lie in (0, 90), got {latitude!r}")
    if not (-90.0 <= declination <= 90.0):
        raise ValueError(f"declination must lie in [-90, 90], got {declination!r}")
    la, a = math.radians(latitude), math.radians(azimuth)
    ca = math.sin(la)
    cb = math.cos(la) * math.cos(a)
    amp = math.hypot(ca, cb)
    sd = math.sin(math.radians(declination))
    if abs(sd) > amp + 1e-12:
        raise NoSolution(
            f"declination {declination} never crosses azimuth {azimuth} "
            f"at latitude {latitude}"
        )
    psi = math.atan2(cb, ca)
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


def build_back(cfg: BackConfig, localities: Iterable[Locality] = ()) -> BackModel:
    """Assemble the full back face.  Qibla bearings use the 3D oracle;
    UndefinedBearing from a degenerate locality propagates."""
    ticks = tuple(DegreeTick(float(a), a % 10 == 0) for a in range(360))
    marks = tuple((loc, bearing_oracle(loc, MECCA)) for loc in localities)
    return BackModel(
        config=cfg,
        boundary=Circle(PlanePoint(0.0, 0.0), cfg.radius),
        degree_ticks=ticks,
        calendar_angles=calendar_ring(),
        sine_quadrant=sine_quadrant(cfg.radius),
        shadow_square=shadow_square(0.45 * cfg.radius),
        midday_curves=(midday_curve(cfg.latitude, cfg.obliquity, cfg.radius),),
        qibla_marks=marks,
    )


def load_localities(path: Union[str, Path]) -> list[Locality]:
    """Read a locality CSV (`name,lat_deg,lon_deg`); format rules as for
    star catalogs."""
    return _load_csv(path, ("name", "lat_deg", "lon_deg"), "locality file", Locality)
