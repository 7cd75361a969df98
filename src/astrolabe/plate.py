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
from typing import Union

from .exceptions import ArcticLatitude, DomainError
from .geometry import (
    COINCIDENT_REL,
    TAU,
    Arc,
    Circle,
    CoincidentCircles,
    CollinearPoints,
    PlanePoint,
    Segment,
    _Record,
    arc_through,
    circle_circle_intersection,
    divide_arc_equal,
)
from .projection import OBLIQUITY, check_scale, stereographic_radius

_FULL = "full"

# lowest plate latitude (degrees); below about 3e-6 the horizon cannot be drawn
MIN_LATITUDE = 0.001

# a vertical whose circle is over this many boundary radii wide is drawn as its tangent at
# the zenith: it leaves the circle by under 5e-6 radii, about what rounding moves so wide a clip
STRAIGHT_REL = 1e5

Element = Union[Circle, Arc, Segment, PlanePoint]


def _divides(whole: float, step: float) -> bool:
    if not (0.0 < step <= whole):
        return False
    ratio = whole / step
    return abs(ratio - round(ratio)) < 1e-9


class PlateConfig(_Record):
    """Inputs for a plate: geographic latitude (degrees), equator radius
    `scale` (mm), ecliptic obliquity (degrees) and grid steps."""

    __slots__ = ("latitude", "scale", "obliquity", "almucantar_step", "azimuth_step")

    def __init__(self, latitude: float, scale: float, obliquity: float = OBLIQUITY,
                 almucantar_step: float = 5.0, azimuth_step: float = 10.0):
        if not (MIN_LATITUDE <= latitude < 90.0):
            raise ValueError(
                f"latitude must lie in [{MIN_LATITUDE}, 90), got {latitude!r}"
            )
        check_scale(scale)
        if not (0.0 < obliquity < 30.0):
            raise ValueError(f"obliquity must lie in (0, 30), got {obliquity!r}")
        if not _divides(90.0, almucantar_step):
            raise ValueError(
                f"almucantar step must divide 90, got {almucantar_step!r}"
            )
        if not _divides(360.0, azimuth_step):
            raise ValueError(
                f"azimuth step must divide 360, got {azimuth_step!r}"
            )
        object.__setattr__(self, "latitude", latitude)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "obliquity", obliquity)
        object.__setattr__(self, "almucantar_step", almucantar_step)
        object.__setattr__(self, "azimuth_step", azimuth_step)


class MeridianSolution(_Record):
    """An almucantar's two meridian crossings and the circle they span."""

    __slots__ = ("y_upper", "y_lower", "y_center", "radius")

    def __init__(self, y_upper: float, y_lower: float, y_center: float, radius: float):
        object.__setattr__(self, "y_upper", y_upper)
        object.__setattr__(self, "y_lower", y_lower)
        object.__setattr__(self, "y_center", y_center)
        object.__setattr__(self, "radius", radius)

    @property
    def circle(self) -> Circle:
        return Circle(PlanePoint(0.0, self.y_center), self.radius)


class PlateModel(_Record):
    """All engraved geometry of one plate.  Each curve is a plain element
    (Circle, Arc, Segment, or the zenith PlanePoint), one per grid value:

    - `almucantars[k]` is altitude k * almucantar_step; the last entry
      (altitude 90) is the zenith point;
    - `azimuths[j]` is vertical j of the m distinct ones (m = n/2 for an
      even count n = 360 / azimuth_step, n for an odd one), at the first
      multiple A = k * azimuth_step mod 180 within rounding of j * 180 / m,
      measured from the prime vertical (each also covers its A + 180
      pair); the 90-degree entry, if any, is the meridian Segment, and so
      is a vertical straight to rounding near the pole;
    - `hour_lines[k - 1]` is unequal-hour boundary k (1..11): an Arc, or
      a Segment where its three points are collinear (midnight); empty
      at arctic latitudes (latitude >= 90 - obliquity).
    """

    __slots__ = ("config", "boundary", "tropics", "horizon", "almucantars", "azimuths",
                 "hour_lines")

    def __init__(self, config: PlateConfig, boundary: Circle,
                 tropics: tuple[Circle, Circle, Circle], horizon: Element,
                 almucantars: tuple[Element, ...], azimuths: tuple[Element, ...],
                 hour_lines: tuple[Element, ...]):
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "boundary", boundary)
        object.__setattr__(self, "tropics", tropics)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "almucantars", almucantars)
        object.__setattr__(self, "azimuths", azimuths)
        object.__setattr__(self, "hour_lines", hour_lines)


def tropic_radii(scale: float, obliquity: float) -> tuple[float, float, float]:
    """(capricorn, equator, cancer) radii.  With obliquity 0 the tropics
    collapse onto the equator and all three radii equal `scale`."""
    if not (0.0 < scale < math.inf):
        raise ValueError(f"scale must be finite and positive, got {scale!r}")
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
    if not (0.0 < scale < math.inf):
        raise ValueError(f"scale must be finite and positive, got {scale!r}")
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
    if not (0.0 < scale < math.inf):
        raise ValueError(f"scale must be finite and positive, got {scale!r}")
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
    if len(pts) < 2:  # apart or touching: judge away from the touching point
        away = subject.angle_of(pts[0]) + math.pi if pts else 0.0
        inside = clip.signed_distance(subject.point_at(away)) <= 0.0
        return _FULL if inside else None
    a1, a2 = subject.angle_of(pts[0]), subject.angle_of(pts[1])
    ext = (a2 - a1) % TAU
    mid = subject.point_at(a1 + ext / 2.0)
    return (a1, ext) if clip.signed_distance(mid) <= 0.0 else (a2, (a1 - a2) % TAU)


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


def _line_in_discs(point: PlanePoint, theta: float, *discs: Circle) -> Segment:
    """The part of the line at angle theta (rad) through `point` inside the discs, which hold
    `point`."""
    ux, uy = math.cos(theta), math.sin(theta)
    lo, hi = -math.inf, math.inf
    for disc in discs:
        wx, wy = point.x - disc.center.x, point.y - disc.center.y
        b = wx * ux + wy * uy
        half = math.sqrt(b * b - (wx * wx + wy * wy - disc.radius * disc.radius))
        lo, hi = max(lo, -b - half), min(hi, -b + half)
    return Segment(PlanePoint(point.x + lo * ux, point.y + lo * uy),
                   PlanePoint(point.x + hi * ux, point.y + hi * uy))


def night_arc(circle: Circle, horizon: Circle) -> Arc:
    """Below-horizon arc of a pole-centered circle, from its western
    (setting) horizon crossing clockwise to the eastern one.  A touch in
    circle_circle_intersection's tangency window may be a short real
    chord, kept at the touching point's height (the horizon is centered
    on the meridian).  Raises ArcticLatitude for no chord, or one under
    COINCIDENT_REL of the radius."""
    pts = circle_circle_intersection(circle, horizon)
    if len(pts) == 1:
        y = pts[0].y
        half = math.sqrt(max(circle.radius * circle.radius - y * y, 0.0))
        if half > COINCIDENT_REL * circle.radius:
            pts = (PlanePoint(half, y), PlanePoint(-half, y))
    if len(pts) < 2:
        raise ArcticLatitude("a tropic does not cross the horizon at this latitude; "
                             "hour lines are undefined")
    west = max(pts, key=lambda p: p.x)
    east = min(pts, key=lambda p: p.x)
    return Arc(circle, circle.angle_of(west), circle.angle_of(east), "cw")


def hour_lines(cfg: PlateConfig) -> tuple[Element, ...]:
    """The eleven unequal-hour boundaries under the horizon.

    Each tropic's night arc is divided into 12 equal parts from the
    western end; boundary k is the circle through the three k-th
    division points, kept as the arc from the Capricorn point to the
    Cancer point that passes the equator point; entry k - 1 is boundary
    k.  Where the three points are collinear (the midnight boundary at
    k = 6), or the Capricorn and Cancer points fall on one angle of the
    circle (tropics nearly coincide), the boundary is the Segment from
    the Capricorn point to the Cancer point.
    Raises ArcticLatitude from 1e-12 degree below 90 - obliquity.
    """
    if cfg.latitude >= 90.0 - cfg.obliquity - 1e-12:
        raise ArcticLatitude(f"latitude {cfg.latitude} >= {90.0 - cfg.obliquity}: the Tropic "
                             "of Cancer never sets; hour lines are undefined")
    horizon = almucantar_solution(cfg.latitude, 0.0, cfg.scale).circle
    night_points = [divide_arc_equal(night_arc(c, horizon), 12) for c in tropic_circles(cfg)]
    out = []
    for k in range(1, 12):
        p_cap, p_eq, p_can = (night_points[i][k] for i in range(3))
        try:
            out.append(arc_through(p_cap, p_eq, p_can))
        except CollinearPoints:
            out.append(Segment(p_cap, p_can))
    return tuple(out)


def build_plate(cfg: PlateConfig) -> PlateModel:
    """Assemble the full plate for a configuration.

    Almucantars run h = 0 .. 90 inclusive in config steps (h = 90 is the
    zenith point marker); azimuth verticals cover [0, 180) in config
    steps, the 90-degree member being the meridian segment.  Everything
    is clipped to the Capricorn boundary, azimuth arcs additionally to
    the above-horizon region, as the component that holds the zenith.
    No curve drops out: an almucantar's northern crossing and every
    azimuth circle's zenith lie strictly inside the plate.  A vertical
    whose circle is over STRAIGHT_REL boundary radii wide (near the
    pole) is the Segment of its tangent at the zenith.  Hour lines are
    left out only when the latitude is arctic for the obliquity.
    """
    phi, s = cfg.latitude, cfg.scale
    boundary, eq, can = tropic_circles(cfg)
    zen = zenith_point(phi, s)

    horizon_circle = almucantar_solution(phi, 0.0, s).circle
    horizon = clip_circle_to_disc(horizon_circle, boundary)

    step = cfg.almucantar_step
    almucantars = [clip_circle_to_disc(almucantar_solution(phi, k * step, s).circle, boundary)
                   for k in range(int(round(90.0 / step)))] + [zen]

    # vertical j = round(A m / 180) mod m takes the first multiple
    # A = k * step mod 180 that reaches it: with n steps per turn, m = n/2
    # if n is even (A and A + 180 pair up), else m = n
    n_az = int(round(360.0 / cfg.azimuth_step))
    m_az = n_az // 2 if n_az % 2 == 0 else n_az
    first = {}
    for k in range(n_az):
        a = (k * cfg.azimuth_step) % 180.0
        first.setdefault(round(a * m_az / 180.0) % m_az, a)
    azimuths = []
    for _, a in sorted(first.items()):
        if abs(math.cos(math.radians(a))) < 1e-11:
            north_y = horizon_circle.center.y - horizon_circle.radius
            south_y = min(s / math.tan(math.radians(phi / 2.0)), boundary.radius)
            azimuths.append(Segment(PlanePoint(0.0, north_y), PlanePoint(0.0, south_y)))
            continue
        circ = azimuth_circle(phi, a, s)
        if circ.radius > STRAIGHT_REL * boundary.radius:
            azimuths.append(_line_in_discs(zen, math.radians(a), horizon_circle, boundary))
            continue
        inside = _inside_interval(circ, horizon_circle), _inside_interval(circ, boundary)
        azimuths.append(_as_element(circ, _component_at(circ.angle_of(zen), *inside)))

    try:
        hours = hour_lines(cfg)
    except ArcticLatitude:
        hours = ()

    return PlateModel(config=cfg, boundary=boundary, tropics=(boundary, eq, can), horizon=horizon,
                      almucantars=tuple(almucantars), azimuths=tuple(azimuths), hour_lines=hours)
