"""Plate (tympan) geometry for a given latitude: tropic circles,
horizon, almucantars, azimuth arcs, and unequal-hour lines.

Plate coordinates: origin at the celestial pole's projection, +y toward
the projection of the zenith's meridian (south up, as engraved), hour
angle measured clockwise from +y.  The plate boundary is the Tropic of
Capricorn circle; everything else is clipped against it.

Closed forms for the meridian crossings: an almucantar at altitude h
seen from latitude phi crosses the meridian at

    y_upper = scale / tan((phi + h)/2)        (toward the south point)
    y_lower = -scale * tan((phi - h)/2)       (toward the north point)

and is the circle on that diameter.  Azimuth circles all pass through
the zenith point (0, y_z) and its nadir counterpart (0, y_n) with

    y_z = scale * tan(45 - phi/2),   y_n = -scale * tan(45 + phi/2),

so their centers share y_c = (y_z + y_n)/2; the circle for azimuth A
(measured from the prime vertical) has center (p_c * tan A, y_c) and
radius p_c / |cos A| with p_c = (y_z - y_n)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

from .exceptions import ArcticLatitude, DomainError
from .geometry import (
    TAU,
    Arc,
    Circle,
    CoincidentCircles,
    CollinearPoints,
    PlanePoint,
    Segment,
    circle_circle_intersection,
    circumcircle,
    divide_arc_equal,
)
from .projection import OBLIQUITY, stereographic_radius

_FULL = "full"

Element = Union[Circle, Arc, Segment, PlanePoint]


def _divides(whole: float, step: float) -> bool:
    if not (0.0 < step <= whole):
        return False
    ratio = whole / step
    return abs(ratio - round(ratio)) < 1e-9


@dataclass(frozen=True)
class PlateConfig:
    """Inputs for a plate: geographic latitude (degrees), equator radius
    `scale` (mm), ecliptic obliquity (degrees), grid steps, and whether
    to draw the unequal-hour lines."""

    latitude: float
    scale: float
    obliquity: float = OBLIQUITY
    almucantar_step: float = 5.0
    azimuth_step: float = 10.0
    hour_lines: bool = True

    def __post_init__(self):
        if not (0.0 < self.latitude < 90.0):
            raise ValueError(f"latitude must lie in (0, 90), got {self.latitude!r}")
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValueError(f"scale must be positive, got {self.scale!r}")
        if not (0.0 < self.obliquity < 30.0):
            raise ValueError(f"obliquity must lie in (0, 30), got {self.obliquity!r}")
        if not _divides(90.0, self.almucantar_step):
            raise ValueError(
                f"almucantar step must divide 90, got {self.almucantar_step!r}"
            )
        if not _divides(360.0, self.azimuth_step):
            raise ValueError(
                f"azimuth step must divide 360, got {self.azimuth_step!r}"
            )


@dataclass(frozen=True)
class MeridianSolution:
    """An almucantar's two meridian crossings and the circle they span."""

    y_upper: float
    y_lower: float
    y_center: float
    radius: float

    @property
    def circle(self) -> Circle:
        return Circle(PlanePoint(0.0, self.y_center), self.radius)


@dataclass(frozen=True)
class AltitudeCurve:
    """One almucantar entry: altitude (deg) and its clipped element.
    The zenith (h = 90) degenerates to a point marker."""

    altitude: float
    element: Element


@dataclass(frozen=True)
class AzimuthCurve:
    """One azimuth entry: azimuth from the prime vertical (deg, in
    [0, 180); each value also covers its A+180 compass pair) and the
    above-horizon element, clipped to the plate."""

    azimuth: float
    element: Element


@dataclass(frozen=True)
class HourLine:
    """Unequal-hour boundary k (1..11).  Normally a three-point circular
    arc from its Capricorn point to its Cancer point; `degenerate` marks
    the collinear fallback (a straight segment)."""

    index: int
    element: Element
    degenerate: bool = False


@dataclass(frozen=True)
class PlateModel:
    """All engraved geometry of one plate."""

    config: PlateConfig
    boundary: Circle
    tropics: tuple[Circle, Circle, Circle]
    horizon: Element
    almucantars: tuple[AltitudeCurve, ...]
    azimuths: tuple[AzimuthCurve, ...]
    hour_lines: tuple[HourLine, ...] = field(default=())


def tropic_radii(scale: float, obliquity: float) -> tuple[float, float, float]:
    """(capricorn, equator, cancer) radii.  With obliquity 0 the tropics
    collapse onto the equator and all three radii equal `scale`."""
    if scale <= 0.0:
        raise ValueError(f"scale must be positive, got {scale!r}")
    if not (0.0 <= obliquity < 30.0):
        raise ValueError(f"obliquity must lie in [0, 30), got {obliquity!r}")
    r_cap = stereographic_radius(-obliquity, scale)
    r_can = stereographic_radius(+obliquity, scale)
    return (r_cap, scale, r_can)


def tropic_circles(cfg: PlateConfig) -> tuple[Circle, Circle, Circle]:
    """The three concentric tropic circles, centered on the pole."""
    origin = PlanePoint(0.0, 0.0)
    return tuple(Circle(origin, r) for r in tropic_radii(cfg.scale, cfg.obliquity))


def almucantar_solution(latitude: float, altitude: float, scale: float) -> MeridianSolution:
    """Meridian-crossing solution for the altitude-h circle at the given
    latitude.  altitude = 0 is the horizon.  Raises DomainError at the
    zenith (h = 90), where the circle degenerates to a point."""
    if not (0.0 < latitude < 90.0):
        raise ValueError(f"latitude must lie in (0, 90), got {latitude!r}")
    if scale <= 0.0:
        raise ValueError(f"scale must be positive, got {scale!r}")
    if not (0.0 <= altitude <= 90.0):
        raise ValueError(f"altitude must lie in [0, 90], got {altitude!r}")
    if altitude >= 90.0 - 1e-12:
        raise DomainError("the zenith almucantar is a point, not a circle")
    y_upper = scale / math.tan(math.radians((latitude + altitude) / 2.0))
    y_lower = -scale * math.tan(math.radians((latitude - altitude) / 2.0))
    return MeridianSolution(
        y_upper=y_upper,
        y_lower=y_lower,
        y_center=(y_upper + y_lower) / 2.0,
        radius=(y_upper - y_lower) / 2.0,
    )


def zenith_point(latitude: float, scale: float) -> PlanePoint:
    """Projection of the zenith: (0, scale * tan(45 - phi/2))."""
    return PlanePoint(0.0, scale * math.tan(math.radians(45.0 - latitude / 2.0)))


def azimuth_circle(latitude: float, azimuth: float, scale: float) -> Circle:
    """Full circle carrying the azimuth-A vertical (A in degrees from
    the prime vertical; A and A+180 share a circle).  Raises DomainError
    for A = 90 mod 180, where the vertical is the straight meridian."""
    if not (0.0 < latitude < 90.0):
        raise ValueError(f"latitude must lie in (0, 90), got {latitude!r}")
    if scale <= 0.0:
        raise ValueError(f"scale must be positive, got {scale!r}")
    a = azimuth % 360.0
    if abs(math.cos(math.radians(a))) < 1e-11:
        raise DomainError("azimuth 90/270 is the meridian line, not a circle")
    y_z = scale * math.tan(math.radians(45.0 - latitude / 2.0))
    y_n = -scale * math.tan(math.radians(45.0 + latitude / 2.0))
    y_c = (y_z + y_n) / 2.0
    p_c = (y_z - y_n) / 2.0
    ar = math.radians(a)
    return Circle(PlanePoint(p_c * math.tan(ar), y_c), p_c / abs(math.cos(ar)))


def _inside_interval(subject: Circle, clip: Circle):
    """Angular interval (start, extent), ccw, of the part of the subject
    circle inside the clip disc; _FULL if entirely inside, None if
    entirely outside."""
    try:
        pts = circle_circle_intersection(subject, clip)
    except CoincidentCircles:
        return _FULL
    if len(pts) < 2:
        inside = clip.signed_distance(subject.point_at(0.0)) <= 0.0
        return _FULL if inside else None
    a1 = subject.angle_of(pts[0])
    a2 = subject.angle_of(pts[1])
    ext = (a2 - a1) % TAU
    mid = subject.point_at(a1 + ext / 2.0)
    if clip.signed_distance(mid) <= 0.0:
        return (a1, ext)
    return (a2, (a1 - a2) % TAU)


def _component_at(ref: float, *intervals):
    """Intersection of angular intervals, restricted to the connected
    component containing the reference angle."""
    if any(i is None for i in intervals):
        return None
    real = [i for i in intervals if i is not _FULL]
    if not real:
        return _FULL
    back = fwd = TAU
    for start, ext in real:
        offset = (ref - start) % TAU
        if offset > ext + 1e-12:
            return None
        back = min(back, offset)
        fwd = min(fwd, ext - offset)
    if back + fwd <= 1e-12:
        return None
    return ((ref - back) % TAU, back + fwd)


def _as_element(subject: Circle, interval):
    if interval is None:
        return None
    if interval is _FULL:
        return subject
    start, ext = interval
    return Arc(subject, start, start + ext, "ccw")


def clip_circle_to_disc(subject: Circle, disc: Circle):
    """Subject circle clipped to the inside of a disc: the full Circle,
    an Arc, or None when no part lies inside."""
    return _as_element(subject, _inside_interval(subject, disc))


def night_arc(circle: Circle, horizon: Circle) -> Arc:
    """Below-horizon arc of a pole-centered circle, from its western
    (setting) horizon crossing clockwise to the eastern one."""
    pts = circle_circle_intersection(circle, horizon)
    if len(pts) < 2:
        raise ArcticLatitude(
            "a tropic never crosses the horizon at this latitude; "
            "hour lines are undefined"
        )
    west = max(pts, key=lambda p: p.x)
    east = min(pts, key=lambda p: p.x)
    return Arc(circle, circle.angle_of(west), circle.angle_of(east), "cw")


def hour_lines(cfg: PlateConfig) -> tuple[HourLine, ...]:
    """The eleven unequal-hour boundaries under the horizon.

    Each tropic's night arc is divided into 12 equal parts from the
    western end; boundary k is the circle through the three k-th
    division points, kept as the arc from the Capricorn point to the
    Cancer point that passes the equator point.  Near-collinear triples
    (the midnight boundary at k = 6) fall back to a flagged segment.
    Raises ArcticLatitude when latitude >= 90 - obliquity.
    """
    if cfg.latitude >= 90.0 - cfg.obliquity - 1e-12:
        raise ArcticLatitude(
            f"latitude {cfg.latitude} >= {90.0 - cfg.obliquity}: the Tropic of "
            "Cancer never sets; hour lines are undefined"
        )
    horizon = almucantar_solution(cfg.latitude, 0.0, cfg.scale).circle
    night_points = [
        divide_arc_equal(night_arc(c, horizon), 12) for c in tropic_circles(cfg)
    ]
    out = []
    for k in range(1, 12):
        p_cap, p_eq, p_can = (night_points[i][k] for i in range(3))
        try:
            circ = circumcircle(p_cap, p_eq, p_can)
        except CollinearPoints:
            out.append(HourLine(k, Segment(p_cap, p_can), degenerate=True))
            continue
        a_cap = circ.angle_of(p_cap)
        a_eq = circ.angle_of(p_eq)
        a_can = circ.angle_of(p_can)
        arc = Arc(circ, a_cap, a_can, "ccw")
        if not arc.contains_angle(a_eq):
            arc = Arc(circ, a_cap, a_can, "cw")
        out.append(HourLine(k, arc, degenerate=False))
    return tuple(out)


def build_plate(cfg: PlateConfig) -> PlateModel:
    """Assemble the full plate for a configuration.

    Almucantars run h = 0 .. 90 inclusive in config steps (h = 90 is the
    zenith point marker); azimuth verticals cover [0, 180) in config
    steps, the 90-degree member being the meridian segment.  Everything
    is clipped to the Capricorn boundary, azimuth arcs additionally to
    the above-horizon region.  Hour lines are included unless disabled
    or the latitude is arctic for the configured obliquity.
    """
    phi, s = cfg.latitude, cfg.scale
    cap, eq, can = tropic_circles(cfg)
    boundary = cap
    zen = zenith_point(phi, s)

    horizon_circle = almucantar_solution(phi, 0.0, s).circle
    horizon = clip_circle_to_disc(horizon_circle, boundary)

    almucantars = []
    n_alm = int(round(90.0 / cfg.almucantar_step))
    for k in range(n_alm + 1):
        h = k * cfg.almucantar_step
        if h >= 90.0 - 1e-12:
            almucantars.append(AltitudeCurve(90.0, zen))
            continue
        circ = almucantar_solution(phi, h, s).circle
        element = clip_circle_to_disc(circ, boundary)
        if element is not None:
            almucantars.append(AltitudeCurve(h, element))

    azimuths = []
    n_az = int(round(360.0 / cfg.azimuth_step))
    values = sorted({(k * cfg.azimuth_step) % 180.0 for k in range(n_az)})
    for a in values:
        if abs(math.cos(math.radians(a))) < 1e-11:
            south_y = min(s / math.tan(math.radians(phi / 2.0)), boundary.radius)
            azimuths.append(
                AzimuthCurve(a, Segment(PlanePoint(0.0, horizon_circle.center.y - horizon_circle.radius), PlanePoint(0.0, south_y)))
            )
            continue
        circ = azimuth_circle(phi, a, s)
        ref = circ.angle_of(zen)
        component = _component_at(
            ref, _inside_interval(circ, horizon_circle), _inside_interval(circ, boundary)
        )
        element = _as_element(circ, component)
        if element is not None:
            azimuths.append(AzimuthCurve(a, element))

    hours: tuple[HourLine, ...] = ()
    if cfg.hour_lines:
        try:
            hours = hour_lines(cfg)
        except ArcticLatitude:
            hours = ()

    return PlateModel(
        config=cfg,
        boundary=boundary,
        tropics=(cap, eq, can),
        horizon=horizon,
        almucantars=tuple(almucantars),
        azimuths=tuple(azimuths),
        hour_lines=hours,
    )
