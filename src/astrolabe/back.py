"""Back-face scales: the solar calendar ring, midday altitude curves and
qibla bearings.  The limb graduation, sine quadrant and shadow square
follow from the limb radius alone.  `build_back` computes every element
that the back face draws, and the renderer only prints them.

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
import os
from collections.abc import Iterable

from .exceptions import DomainError, UndefinedBearing
from .geometry import Arc, Circle, Label, Lines, PlanePoint, Segment, Ticks, _Record, arc_through
from .projection import (DECLINATION, FINITE, LATITUDE, OBLIQUITIES, OBLIQUITY, SCALE,
                         from_plate_polar, horizon_to_sphere)
from .rete import _load_csv


class Locality(_Record):
    """A named place: latitude north-positive, longitude east-positive,
    degrees.  Longitude is normalized into (-180, 180]."""

    __slots__ = ("name", "latitude", "longitude")

    def __init__(self, name: str, latitude: float, longitude: float):
        if not name:
            raise ValueError("locality name must be non-empty")
        DECLINATION.check(latitude, "latitude")
        FINITE.check(longitude, "longitude")
        lon = longitude % 360.0
        if lon > 180.0:
            lon -= 360.0
        super().__init__(name, latitude, lon)


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
        super().__init__(latitude, radius, obliquity)


class BackModel(_Record):
    """The back face, every element it draws as `build_back` computes it:
    on the limb `boundary` of radius r, `limb_ticks` (360, a long one
    every tenth) and `limb_labels` (every 30 degrees); `calendar_angles`,
    one tick angle (degrees) per day, drawn as `calendar_ticks` between
    the two `calendar_rings`; a sine quadrant of radius r, upper left
    (`quadrant_frame`, and its axes and 59 sines and cosines as
    `quadrant_chords`); the `shadow_square` of side 0.45*r below the
    center, 12 digits on each scale; `midday`, the latitude's midday curve
    (`midday_curve`: an Arc, or a Segment at an obliquity too small to
    bend it), and its `midday_label`; `qibla_marks`, (Locality, bearing in
    degrees) pairs, with one of `qibla_rays` and of `qibla_labels` each."""

    __slots__ = ("config", "boundary", "limb_ticks", "limb_labels", "calendar_angles",
                 "calendar_rings", "calendar_ticks", "quadrant_frame", "quadrant_chords",
                 "shadow_square", "midday", "midday_label", "qibla_marks", "qibla_rays",
                 "qibla_labels")


# the limb's range(360), and the calendar's angles: every built back holds one tuple
@functools.lru_cache(maxsize=2)
def _unit_table(degrees) -> tuple:
    """A scale's `Ticks.unit`: (sin, cos, sin, cos) of each angle in
    degrees, flat, one run of four per tick."""
    return tuple(v for a in map(math.radians, degrees) for v in (math.sin(a), math.cos(a)) * 2)


def equation_of_center(mean_anomaly: float) -> float:
    """Two-term equation of center, degrees, for a finite mean anomaly in degrees."""
    FINITE.check(mean_anomaly, "mean anomaly")
    m = math.radians(mean_anomaly)
    return CENTER1 * math.sin(m) + CENTER2 * math.sin(2.0 * m)


def solar_longitude(day: float) -> float:
    """Ecliptic longitude of the sun (degrees in [0, 360)) on a day of
    the year (1-based; values outside [1, year] wrap, so the longitude
    is periodic in exactly one year by construction)."""
    FINITE.check(day, "day")
    d = (day - 1.0) % YEAR_DAYS + 1.0
    m = 360.0 * (d - PERIHELION_DAY) / YEAR_DAYS
    m_eq = 360.0 * (EQUINOX_DAY - PERIHELION_DAY) / YEAR_DAYS
    mean_lon = 360.0 * (d - EQUINOX_DAY) / YEAR_DAYS - equation_of_center(m_eq)
    return (mean_lon + equation_of_center(m)) % 360.0


def solar_declination(longitude: float, obliquity: float = OBLIQUITY) -> float:
    """Declination (degrees) of the sun at an ecliptic longitude."""
    FINITE.check(longitude, "longitude")
    OBLIQUITIES.check(obliquity, "obliquity")
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
    """Noon solar altitude: h = 90 - phi + delta (degrees), for a latitude
    and a declination on the globe, each in [-90, 90]."""
    DECLINATION.check(latitude, "latitude")
    DECLINATION.check(declination, "declination")
    return 90.0 - latitude + declination


def midday_curve(latitude: float, obliquity: float, radius: float) -> Arc | Segment:
    """Noon altitude curve: the arc through the back-face points of the
    three control declinations -obliquity, 0, +obliquity.

    Back-face polar mapping: altitude is linear in radius (0 degrees on
    the limb, 90 at the center) and the polar angle equals the control
    declination, measured from the noon direction (+y).  At an obliquity
    so small that the three points coincide or are collinear, the curve
    is the Segment between its ends (`arc_through`).  Raises DomainError
    when any control altitude leaves (0, 90].
    """
    SCALE.check(radius, "radius")
    LATITUDE.check(latitude, "latitude")
    OBLIQUITIES.check(obliquity, "obliquity")
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
    return horizon_to_sphere(latitude, altitude, azimuth).dec


def build_back(cfg: BackConfig, localities: Iterable[Locality] = ()) -> BackModel:
    """Assemble the full back face.  Qibla bearings use the 3D oracle;
    UndefinedBearing from a degenerate locality propagates."""
    marks = tuple((loc, bearing_oracle(loc, MECCA)) for loc in localities)
    r = cfg.radius
    origin = PlanePoint(0.0, 0.0)
    angles = calendar_ring()

    d = [k * (r / 60) for k in range(1, 60)]  # the k = 60 chords have no length
    reach = [math.sqrt(r * r - dk * dk) for dk in d]
    chords = [-r, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, r]
    for dk, w in zip(d, reach):  # sines
        chords += (-w, dk, 0.0, dk)
    for dk, w in zip(d, reach):  # cosines
        chords += (-dk, 0.0, -dk, w)

    side = 0.45 * r
    half = side / 2.0
    digits = [k / 12 for k in range(1, 13)]
    square = [-half, 0.0, half, 0.0, -half, 0.0, -half, -side,
              half, 0.0, half, -side, -half, -side, half, -side]
    for f in digits:  # umbra recta: 12 digits along the bottom
        square += (-half + f * side, -side, -half + f * side, -side + 1.5)
    for f in digits:  # umbra versa: 12 digits down the right side
        square += (half, -f * side, half - 1.5, -f * side)

    # the latitude, 2 mm above the midday curve's equinox point
    equinox = from_plate_polar(r * (1.0 - midday_altitude(cfg.latitude, 0.0) / 90.0), 0.0)
    # a ray from the center toward each bearing, named along it
    rays = [(loc, from_plate_polar(r * 0.82, b), from_plate_polar(r * 0.6, b))
            for loc, b in marks]
    return BackModel(
        config=cfg,
        boundary=Circle(origin, r),
        limb_ticks=Ticks(_unit_table(range(360)), r, r * 0.94, r * 0.97),
        limb_labels=tuple(Label(p.x, p.y, f"{a}", "middle") for a, p in
                          ((a, from_plate_polar(r * 0.905, a)) for a in range(0, 360, 30))),
        calendar_angles=angles,
        calendar_rings=(Circle(origin, r * 0.88), Circle(origin, r * 0.84)),
        calendar_ticks=Ticks(_unit_table(angles), r * 0.88, r * 0.84, r * 0.86),
        quadrant_frame=Arc(Circle(origin, r), PlanePoint(0.0, r), PlanePoint(-r, 0.0), "ccw"),
        quadrant_chords=Lines(tuple(chords)),
        shadow_square=Lines(tuple(square)),
        midday=midday_curve(cfg.latitude, cfg.obliquity, r),
        midday_label=Label(equinox.x, equinox.y + 2.0, f"{cfg.latitude:g}", "middle"),
        qibla_marks=marks,
        qibla_rays=Lines(tuple(v for _, p, _ in rays for v in (p.x, p.y, 0.0, 0.0))),
        qibla_labels=tuple(Label(q.x, q.y, loc.name, "start") for loc, _, q in rays),
    )


def load_localities(path: str | os.PathLike) -> list[Locality]:
    """Read a locality CSV (`name,lat_deg,lon_deg`); format rules as for
    star catalogs."""
    return _load_csv(path, ("name", "lat_deg", "lon_deg"), "locality file", Locality)
