"""Back-face scales: the solar calendar ring, midday altitude curves and
qibla bearings.  The limb graduation, sine quadrant and shadow square
follow from the limb radius alone, so the renderer draws them from it.

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

import functools
import math
from pathlib import Path
from typing import Iterable, Union

from .exceptions import DomainError, UndefinedBearing
from .geometry import Arc, Circle, PlanePoint, Segment, _Record, arc_through
from .projection import (ALTITUDE, DECLINATION, LATITUDE, OBLIQUITIES, OBLIQUITY, OPEN_LATITUDE,
                         POSITIVE, SCALE, from_plate_polar, horizon_to_sphere)
from .rete import _load_csv


class Locality(_Record):
    """A named place: latitude north-positive, longitude east-positive,
    degrees.  Longitude is normalized into (-180, 180]."""

    __slots__ = ("name", "latitude", "longitude")

    def __init__(self, name: str, latitude: float, longitude: float):
        if not name:
            raise ValueError("locality name must be non-empty")
        DECLINATION.check(latitude, "latitude")
        if not math.isfinite(longitude):
            raise ValueError(f"non-finite longitude: {longitude!r}")
        lon = longitude % 360.0
        if lon > 180.0:
            lon -= 360.0
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "latitude", latitude)
        object.__setattr__(self, "longitude", lon)


MECCA = Locality("Mecca", 21.4225, 39.8262)


# calibration of the solar model: the 2025 event day numbers, the year
# length in days and the two equation-of-center coefficients (degrees)
PERIHELION_DAY = 4.56
EQUINOX_DAY = 79.38
YEAR_DAYS = 365.0
CENTER1 = 1.915
CENTER2 = 0.020


class BackConfig(_Record):
    """Inputs for the back face: the plate latitude (which sets the
    midday curve), the limb radius and the obliquity."""

    __slots__ = ("latitude", "radius", "obliquity")

    def __init__(self, latitude: float, radius: float, obliquity: float = OBLIQUITY):
        LATITUDE.check(latitude, "latitude")
        SCALE.check(radius, "radius")
        OBLIQUITIES.check(obliquity, "obliquity")
        object.__setattr__(self, "latitude", latitude)
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "obliquity", obliquity)


class BackModel(_Record):
    """The back face.  Its fixed scales are drawn by the renderer from
    the boundary radius r alone: on the limb, 360 one-degree ticks, a
    long one every tenth and a number every 30 degrees; in the upper-left
    quadrant, a sine quadrant of radius r with 60 equal divisions; below
    the center, a shadow square of side 0.45*r with 12 digits on each of
    its two scales.  The calendar ring holds one tick angle (degrees) per
    day; `midday` is the config latitude's midday curve (`midday_curve`),
    an Arc, or a Segment at an obliquity too small to bend it."""

    __slots__ = ("config", "boundary", "calendar_angles", "midday", "qibla_marks")

    def __init__(self, config: BackConfig, boundary: Circle,
                 calendar_angles: tuple[float, ...], midday: Union[Arc, Segment],
                 qibla_marks: tuple[tuple[Locality, float], ...]):
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "boundary", boundary)
        object.__setattr__(self, "calendar_angles", calendar_angles)
        object.__setattr__(self, "midday", midday)
        object.__setattr__(self, "qibla_marks", qibla_marks)


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
    if not (math.isfinite(longitude) and math.isfinite(obliquity)):
        raise ValueError(f"non-finite longitude or obliquity: {longitude!r}, {obliquity!r}")
    s = math.sin(math.radians(obliquity)) * math.sin(math.radians(longitude))
    return math.degrees(math.asin(max(-1.0, min(1.0, s))))


@functools.cache
def calendar_ring() -> tuple[float, ...]:
    """365 calendar tick angles (degrees), one per day, anchored so the
    day-1 tick sits at zero and each tick advances by that day's solar
    motion.  Strictly increasing and spanning exactly one turn.  Computed
    once: every call returns the same tuple."""
    n = int(round(YEAR_DAYS))
    lams = [solar_longitude(k + 1) for k in range(n)]
    angles = [0.0]
    for k in range(1, n):
        angles.append(angles[-1] + (lams[k] - lams[k - 1]) % 360.0)
    return tuple(angles)


def midday_altitude(latitude: float, declination: float) -> float:
    """Noon solar altitude: h = 90 - phi + delta (degrees)."""
    return 90.0 - latitude + declination


def midday_curve(latitude: float, obliquity: float, radius: float) -> Union[Arc, Segment]:
    """Noon altitude curve: the arc through the back-face points of the
    three control declinations -obliquity, 0, +obliquity.

    Back-face polar mapping: altitude is linear in radius (0 degrees on
    the limb, 90 at the center) and the polar angle equals the control
    declination, measured from the noon direction (+y).  At an obliquity
    so small that the three points coincide or are collinear, the curve
    is the Segment between its ends (`arc_through`).  Raises DomainError
    when any control altitude leaves (0, 90].
    """
    POSITIVE.check(radius, "radius")
    decs = (-obliquity, 0.0, obliquity)
    alts = tuple(midday_altitude(latitude, d) for d in decs)
    for h in alts:
        if not (0.0 < h <= 90.0):
            raise DomainError(
                f"midday altitude {h:.3f} outside (0, 90] at latitude {latitude}"
            )
    return arc_through(*(from_plate_polar(radius * (1.0 - h / 90.0), d)
                         for h, d in zip(alts, decs)))


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
    azimuth (degrees clockwise from north), by `horizon_to_sphere`:

        sin(delta) = sin(phi) sin(h) + cos(phi) cos(h) cos(A)
    """
    OPEN_LATITUDE.check(latitude, "latitude")
    ALTITUDE.check(altitude, "altitude")
    return horizon_to_sphere(latitude, altitude, azimuth).dec


def build_back(cfg: BackConfig, localities: Iterable[Locality] = ()) -> BackModel:
    """Assemble the full back face.  Qibla bearings use the 3D oracle;
    UndefinedBearing from a degenerate locality propagates."""
    marks = tuple((loc, bearing_oracle(loc, MECCA)) for loc in localities)
    return BackModel(
        config=cfg,
        boundary=Circle(PlanePoint(0.0, 0.0), cfg.radius),
        calendar_angles=calendar_ring(),
        midday=midday_curve(cfg.latitude, cfg.obliquity, cfg.radius),
        qibla_marks=marks,
    )


def load_localities(path: Union[str, Path]) -> list[Locality]:
    """Read a locality CSV (`name,lat_deg,lon_deg`); format rules as for
    star catalogs."""
    return _load_csv(path, ("name", "lat_deg", "lon_deg"), "locality file", Locality)
