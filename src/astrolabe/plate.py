"""Plate (tympan) geometry for a given latitude: tropic circles,
horizon, almucantars, azimuth arcs, and unequal-hour lines.

Plate coordinates: origin at the celestial pole's projection, +y toward
the projection of the zenith's meridian (south up, as engraved), hour
angle measured clockwise from +y.  The plate boundary is the Tropic of
Capricorn circle, declination -obliquity.

Every end of an engraved curve is a sky point of known declination and
hour angle, projected in closed form; no two plane circles are
intersected.  The altitude-h circle meets the declination-dec circle at
hour angles -H and +H, from the half-angle sunrise equation

    sin^2(H/2) = sin((90 - h + phi - dec)/2) sin((90 - h - phi + dec)/2) / (cos phi cos dec)

whose sign tells a crossing from a touch or a miss (a difference within
TOUCH_DEG of a touch, the rounding of typed inputs, is a touch).  At dec =
-obliquity it ends the horizon and the almucantars on the boundary; at
h = 0 it gives each tropic's setting point, from which its night arc is
divided into the unequal hours.  A vertical ends at altitude 0 on its
azimuth, or where that azimuth meets the boundary, whichever comes first
from the zenith.

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

Checks run once per plate: `PlateConfig` checks its inputs when it is
built, and `build_plate` checks the latitude, scale and obliquity once,
then draws every curve through unchecked private kernels from values it
computes once per plate (sin and cos of phi, the tropic radii, y_c and
p_c).  The public helpers (`almucantar_solution`, `azimuth_circle`,
`hour_lines`, ...) run their checks and then the same kernels, so each
prints the same floats as the plate.

The plate is symmetric about its meridian, and only its western half
(x > 0, positive hour angles) is computed: the verticals with A in
[0, 90), each almucantar arc's western end, and hour lines 1-5.  The
western half is reflected, x -> -x exactly, for the eastern one, so the
two halves are mirror images bit for bit, and the elements on the
meridian (the almucantars' centers, the meridian, the prime vertical's
center and the midnight line) have x == 0.0.  `azimuth_circle` and
`_vertical_end` take the eastern half as the reflection of the western
one too, so at an eastern vertical's own azimuth A they print the
plate's floats wherever 180 - A is its twin's azimuth exactly: for every
step of whole or binary-fraction degrees, but not for a step such as 7.2,
whose multiples miss 180 - A by rounding.
"""

from __future__ import annotations

import math

from .exceptions import ArcticLatitude, DomainError
from .geometry import Arc, Circle, PlanePoint, Segment, _Record, arc_through, turns_ccw
from .projection import (ALTITUDE, FINITE, LATITUDE, OBLIQUITIES, OBLIQUITY, SCALE, STEP,
                         _altitude_for_azimuth, _cos_sin_deg, _sky_angles, _stereographic,
                         from_plate_polar, stereographic_radius)
from .projection import MIN_LATITUDE, MIN_STEP  # noqa: F401  (the plate's floors)

# a vertical whose circle is over this many boundary radii wide is drawn as the straight
# segment between its two ends, which leaves the circle by under 5e-6 boundary radii
STRAIGHT_REL = 1e5

# a crossing within this many degrees of a touch is a touch: it covers the rounding of inputs
# typed as decimals, and a curve drawn whole there leaves the boundary by ~2e-14 of its radius
TOUCH_DEG = 1e-12

Element = Circle | Arc | Segment | PlanePoint


class PlateConfig(_Record):
    """Inputs for a plate: geographic latitude (degrees), equator radius
    `scale` (mm), ecliptic obliquity (degrees) and grid steps."""

    __slots__ = ("latitude", "scale", "obliquity", "almucantar_step", "azimuth_step")

    def __init__(self, latitude: float, scale: float, obliquity: float = OBLIQUITY,
                 almucantar_step: float = 5.0, azimuth_step: float = 10.0):
        LATITUDE.check(latitude, "latitude")
        SCALE.check(scale, "scale")
        OBLIQUITIES.check(obliquity, "obliquity")
        for name, step, whole in (("almucantar", almucantar_step, 90.0),
                                  ("azimuth", azimuth_step, 360.0)):
            STEP.check(step, f"{name}_step")
            ratio = whole / step  # a step of at least MIN_STEP keeps it finite
            if not (step <= whole and abs(ratio - round(ratio)) < 1e-9):
                raise ValueError(f"{name} step must divide {whole:g}, got {step!r}")
        super().__init__(latitude, scale, obliquity, almucantar_step, azimuth_step)


class MeridianSolution(_Record):
    """An almucantar's two meridian crossings, `y_upper` and `y_lower`,
    and the circle they span, of center (0, `y_center`) and `radius`."""

    __slots__ = ("y_upper", "y_lower", "y_center", "radius")

    @property
    def circle(self) -> Circle:
        return Circle(PlanePoint(0.0, self.y_center), self.radius)


class PlateModel(_Record):
    """All engraved geometry of one plate: `config`, the `boundary`, the
    `tropics` (Capricorn, equator, Cancer), the `horizon` and the curves
    below.  Each is a plain element (Circle, Arc, Segment, or the zenith
    PlanePoint), one per grid value:

    - `almucantars[k]` is altitude k * almucantar_step; the last entry
      (altitude 90) is the zenith point;
    - `azimuths[j]` is vertical j of the m distinct ones (m = n/2 for an
      even count n = 360 / azimuth_step, n for an odd one).  For j < m/2
      it is at A = k * azimuth_step mod 180 from the prime vertical (each
      also covers its A + 180 pair), with k = j for an even n, and for an
      odd one k = j/2 for an even j, (j + n)/2 for an odd j; for j > m/2
      it is the exact reflection, x -> -x, of vertical m - j.  The
      90-degree entry (j = m/2), if any, is the meridian Segment, and so
      is a vertical whose circle is over STRAIGHT_REL boundary radii wide
      (near the pole), from one of its ends to the other;
    - `hour_lines[k - 1]` is unequal-hour boundary k (1..11): an Arc, or
      a Segment where its three points are collinear (midnight, on the
      meridian); boundary 12 - k is the exact reflection of boundary k;
      empty at arctic latitudes (latitude >= 90 - obliquity).

    Only the western half is computed; the eastern half is its reflection.
    """

    __slots__ = ("config", "boundary", "tropics", "horizon", "almucantars", "azimuths",
                 "hour_lines")


def tropic_radii(scale: float, obliquity: float) -> tuple[float, float, float]:
    """(capricorn, equator, cancer) radii."""
    SCALE.check(scale, "scale")
    OBLIQUITIES.check(obliquity, "obliquity")
    r_cap = stereographic_radius(-obliquity, scale)
    r_can = stereographic_radius(+obliquity, scale)
    return (r_cap, scale, r_can)


def tropic_circles(cfg: PlateConfig) -> tuple[Circle, Circle, Circle]:
    """The three concentric tropic circles, centered on the pole."""
    origin = PlanePoint(0.0, 0.0)
    return tuple(Circle(origin, r) for r in tropic_radii(cfg.scale, cfg.obliquity))


def almucantar_solution(latitude: float, altitude: float, scale: float) -> MeridianSolution:
    """Meridian-crossing solution for the altitude-h circle at a latitude
    in [MIN_LATITUDE, 90), the plate's range.  altitude = 0 is the horizon.
    Raises DomainError at the zenith (h = 90), where the circle is a point."""
    LATITUDE.check(latitude, "latitude")
    SCALE.check(scale, "scale")
    ALTITUDE.check(altitude, "altitude")
    if altitude >= 90.0 - 1e-12:
        raise DomainError("the zenith almucantar is a point, not a circle")
    return MeridianSolution(*_meridian(latitude, altitude, scale))


def _meridian(latitude: float, altitude: float, scale: float) -> tuple[float, float, float, float]:
    """`almucantar_solution`'s y_upper, y_lower, y_center and radius, unchecked."""
    y_upper = scale / math.tan(math.radians((latitude + altitude) / 2.0))
    y_lower = _y_lower(latitude, altitude, scale)
    return y_upper, y_lower, (y_upper + y_lower) / 2.0, (y_upper - y_lower) / 2.0


def _y_lower(latitude: float, altitude: float, scale: float) -> float:
    """The altitude-h circle's northern meridian crossing, unchecked; at
    h = 90 it is the zenith point's y."""
    return -scale * math.tan(math.radians((latitude - altitude) / 2.0))


def _almucantar_circle(latitude: float, altitude: float, scale: float) -> Circle:
    """`almucantar_solution(...).circle`, unchecked."""
    _, _, y_center, radius = _meridian(latitude, altitude, scale)
    return Circle(PlanePoint(0.0, y_center), radius)


def zenith_point(latitude: float, scale: float) -> PlanePoint:
    """Projection of the zenith: (0, scale * tan(45 - phi/2))."""
    LATITUDE.check(latitude, "latitude")
    SCALE.check(scale, "scale")
    return PlanePoint(0.0, scale * math.tan(math.radians(45.0 - latitude / 2.0)))


def azimuth_circle(latitude: float, azimuth: float, scale: float) -> Circle:
    """Full circle carrying the azimuth-A vertical (A in degrees from
    the prime vertical; A and A+180 share a circle).  For A mod 180 in
    (90, 180) it is the reflection, x -> -x, of the circle of 180 - A mod
    180, as the plate draws its eastern verticals.  Raises DomainError
    for A = 90 mod 180, where the vertical is the straight meridian."""
    LATITUDE.check(latitude, "latitude")
    SCALE.check(scale, "scale")
    FINITE.check(azimuth, "azimuth")
    a = azimuth % 180.0
    east = a > 90.0
    if east:
        a = 180.0 - a  # exact: a lies in (90, 180)
    ar = math.radians(a)
    cos_a = math.cos(ar)
    if cos_a < 1e-11:
        raise DomainError("azimuth 90/270 is the meridian line, not a circle")
    circle = _azimuth_circle(*_azimuth_axis(latitude, scale), ar, cos_a)
    return Circle(_mirror(circle.center), circle.radius) if east else circle


def _azimuth_axis(latitude: float, scale: float) -> tuple[float, float]:
    """The y_c and p_c that every azimuth circle of the latitude shares, unchecked."""
    y_z = scale * math.tan(math.radians(45.0 - latitude / 2.0))
    y_n = -scale * math.tan(math.radians(45.0 + latitude / 2.0))
    return (y_z + y_n) / 2.0, (y_z - y_n) / 2.0


def _azimuth_circle(y_c: float, p_c: float, ar: float, cos_a: float) -> Circle:
    """The circle of the azimuth A in [0, 90) from its latitude's y_c and
    p_c and A in radians with its cosine, unchecked."""
    return Circle(PlanePoint(p_c * math.tan(ar), y_c), p_c / cos_a)


def _mirror(p: PlanePoint) -> PlanePoint:
    """p reflected across the meridian: x -> -x, exactly."""
    return PlanePoint(-p.x, p.y)


def _reflect(el: Arc | Segment, keep_turn: bool) -> Arc | Segment:
    """The exact reflection, x -> -x, of a vertical or an hour line.  A
    Segment keeps its ends in order.  An Arc's reflection turns the other
    way between the same ends, or with `keep_turn` the same way from its
    end to its start."""
    if el.__class__ is Segment:
        return Segment(_mirror(el.a), _mirror(el.b))
    circle = Circle(_mirror(el.circle.center), el.circle.radius)
    start, end = _mirror(el.start_point), _mirror(el.end_point)
    if keep_turn:
        return Arc(circle, end, start, el.orientation)
    return Arc(circle, start, end, "cw" if el.orientation == "ccw" else "ccw")


def _vertical_azimuths(step: float) -> tuple[int, tuple[tuple[float, float, float], ...]]:
    """The count m of distinct verticals, and each computed vertical's
    azimuth A (degrees from the prime vertical, in [0, 90)) in vertical
    order, with A in radians and its cosine.  With n steps per turn, m =
    n/2 if n is even (A and A + 180 pair up), else m = n.  Verticals j <
    m/2 are computed, at A = k * step mod 180: k = j for an even n; for an
    odd one the multiples below 180 land on the even j and those past it
    on the odd j, so k = j/2 or (j + n)/2.  j = m/2 is the meridian, and j
    > m/2 the reflection of m - j."""
    n_az = int(round(360.0 / step))
    m_az = n_az // 2 if n_az % 2 == 0 else n_az
    odd = n_az % 2
    ks = [(j + n_az * (j % 2)) // 2 if odd else j for j in range((m_az + 1) // 2)]
    return m_az, tuple((a, math.radians(a), math.cos(math.radians(a)))
                       for a in ((k * step) % 180.0 for k in ks))


def crossing_hour_angle(latitude: float, declination: float, altitude: float = 0.0):
    """Hour angle H (degrees, in (0, 180)) at which the declination
    circle crosses the altitude-h almucantar, at -H (east) and +H (west);
    None where they touch at a meridian or miss.  H/2 is the atan2 of the
    roots of the module's half-angle equation and its twin, well
    conditioned at both ends:

        cos^2(H/2) = cos((90 - h + phi + dec)/2) cos((90 - h - phi - dec)/2) / (cos phi cos dec)

    They touch at the upper meridian where a sine's difference is 0, at
    the lower one where a cosine's is +-180, or within TOUCH_DEG of that.
    """
    phi, dec, h = latitude, declination, altitude
    # each difference as the exact sum of its terms, rounded once, so a tiny
    # one keeps its relative precision; a cosine's is taken as the sine of
    # its distance from 180, cos(x/2) = sin((180 - |x|)/2), for the same reason
    sin_a, sin_b = math.fsum((90.0, -h, phi, -dec)), math.fsum((90.0, -h, -phi, dec))
    cos_a, cos_b = math.fsum((90.0, h, -phi, -dec)), math.fsum((90.0, h, phi, dec))
    if cos_a > 180.0:
        cos_a = 360.0 - cos_a
    if cos_b > 180.0:
        cos_b = 360.0 - cos_b
    if min(sin_a, sin_b, cos_a, cos_b) <= TOUCH_DEG:
        return None
    half = math.radians(0.5)
    sin2 = math.sin(half * sin_a) * math.sin(half * sin_b)
    cos2 = math.sin(half * cos_a) * math.sin(half * cos_b)
    return math.degrees(2.0 * math.atan2(math.sqrt(sin2), math.sqrt(cos2)))


def _inside_boundary(circle: Circle, cfg: PlateConfig, altitude: float,
                     boundary_radius: float) -> Element:
    """The altitude circle's part inside the boundary, the declination
    -obliquity circle of the given radius: the whole circle where the two
    touch or miss, else the arc from the eastern crossing counterclockwise
    (through the north point) to the western one, whose reflection the
    eastern one is."""
    hc = crossing_hour_angle(cfg.latitude, -cfg.obliquity, altitude)
    if hc is None:
        return circle
    west = from_plate_polar(boundary_radius, hc)
    return Arc(circle, _mirror(west), west, "ccw")


def _vertical_end(cfg: PlateConfig, azimuth: float) -> PlanePoint:
    """Where the vertical of this compass azimuth, walked down from the
    zenith, leaves the plate: at altitude 0, or on the boundary above it.
    A compass azimuth mod 360 in [90, 180) or (270, 360) gives the
    reflection of the end at 360 minus it, as the plate draws it."""
    la = math.radians(cfg.latitude)
    args = (cfg, math.sin(la), math.cos(la), stereographic_radius(-cfg.obliquity, cfg.scale))
    z = azimuth % 360.0
    if 90.0 <= z < 180.0 or z > 270.0:
        return _mirror(_vertical_end_from(*args, 360.0 - z))
    return _vertical_end_from(*args, azimuth)


def _vertical_end_from(cfg: PlateConfig, sin_phi: float, cos_phi: float,
                       boundary_radius: float, azimuth: float) -> PlanePoint:
    """`_vertical_end` from the sine and cosine of the latitude and the
    boundary's radius, unchecked."""
    cos_a, sin_a = _cos_sin_deg(azimuth)
    # altitude 0 enters as its sine and cosine, 0.0 and 1.0, not folded into the
    # terms: the sign of a zero term reaches atan2
    dec, ha = _sky_angles(sin_phi, cos_phi, 0.0, 1.0, cos_a, sin_a)
    if dec < -cfg.obliquity:
        h = math.radians(_altitude_for_azimuth(cfg.latitude, -cfg.obliquity, azimuth,
                                               sin_phi, cos_phi, cos_a))
        ha = _sky_angles(sin_phi, cos_phi, math.sin(h), math.cos(h), cos_a, sin_a)[1]
        return from_plate_polar(boundary_radius, ha % 360.0)
    d = math.radians(dec)
    return from_plate_polar(_stereographic(math.sin(d), math.cos(d), cfg.scale), ha % 360.0)


def night_hours(latitude: float, declination: float) -> list[float]:
    """The 13 hour angles (degrees) that divide the declination circle's
    below-horizon arc into 12 equal parts, H_k = H_0 + k (360 - 2 H_0) / 12
    from its setting point H_0 westward.  Raises ArcticLatitude where the
    circle does not both rise and set."""
    h0 = crossing_hour_angle(latitude, declination)
    if h0 is None:
        raise ArcticLatitude(f"declination {declination} does not cross the horizon at "
                             f"latitude {latitude}; hour lines are undefined")
    return [h0 + k * (360.0 - 2.0 * h0) / 12.0 for k in range(13)]


def hour_lines(cfg: PlateConfig) -> tuple[Element, ...]:
    """The eleven unequal-hour boundaries under the horizon.

    Each tropic's night arc is divided into 12 equal parts of hour angle
    from its setting point (`night_hours`); boundary k is the circle
    through the three k-th division points, kept as the arc from the
    Capricorn point to the Cancer point that passes the equator point;
    entry k - 1 is boundary k.  Where the three points are collinear
    (the midnight boundary at k = 6, on the meridian) or coincide
    (tropics closer than rounding), the boundary is the Segment from the
    Capricorn point to the Cancer point.  Boundaries 1-5 are computed and
    boundary 12 - k is the exact reflection, x -> -x, of boundary k.
    Raises ArcticLatitude (from `night_hours`) where the tropics do not
    set, from TOUCH_DEG below 90 - obliquity.
    """
    return _hour_lines(cfg, tropic_radii(cfg.scale, cfg.obliquity))


def _hour_lines(cfg: PlateConfig, radii: tuple[float, float, float]) -> tuple[Element, ...]:
    """`hour_lines` from the (capricorn, equator, cancer) tropic radii,
    unchecked: boundaries 1-5 through their knots, at hour angles in (0,
    180), the midnight one at hour angle 180, and their reflections."""
    decs = (-cfg.obliquity, 0.0, cfg.obliquity)
    knots = [[from_plate_polar(r, h) for h in night_hours(cfg.latitude, dec)[1:6]]
             for dec, r in zip(decs, radii)]
    west = [arc_through(*points) for points in zip(*knots)]
    midnight = Segment(PlanePoint(0.0, -radii[0]), PlanePoint(0.0, -radii[2]))
    return (*west, midnight, *(_reflect(el, keep_turn=False) for el in reversed(west)))


def build_plate(cfg: PlateConfig) -> PlateModel:
    """Assemble the full plate for a configuration.

    Almucantars run h = 0 .. 90 inclusive in config steps (h = 90 is the
    zenith point marker); azimuth verticals cover [0, 180) in config
    steps, the 90-degree member being the meridian segment.  An
    almucantar that crosses the Capricorn boundary is the Arc between its
    two crossings that holds its northern meridian point; one that
    touches or misses the boundary is its whole Circle.  A vertical is
    the Arc through the zenith between its two ends, each at altitude 0
    or on the boundary, whichever its azimuth reaches first from the
    zenith.  No curve drops out: an almucantar's northern crossing and
    every azimuth circle's zenith lie strictly inside the plate.  A
    vertical whose circle is over STRAIGHT_REL boundary radii wide (near
    the pole) is the Segment between its two ends.  Hour lines are left
    out only when the latitude is arctic for the obliquity.  Only the
    western half is computed: each eastern vertical, almucantar end and
    hour line is the exact reflection, x -> -x, of its western twin.
    """
    phi, s = cfg.latitude, cfg.scale
    boundary, eq, can = tropic_circles(cfg)  # checks the scale and the obliquity
    zen = zenith_point(phi, s)  # checks the latitude
    r_b = boundary.radius

    step = cfg.almucantar_step
    almucantars = [_inside_boundary(_almucantar_circle(phi, k * step, s), cfg, k * step, r_b)
                   for k in range(int(round(90.0 / step)))] + [zen]
    horizon = almucantars[0]

    la = math.radians(phi)
    sin_phi, cos_phi = math.sin(la), math.cos(la)
    y_c, p_c = _azimuth_axis(phi, s)
    m_az, computed = _vertical_azimuths(cfg.azimuth_step)
    azimuths = []
    for a, ar, cos_a in computed:
        # from the zenith the vertical heads along (cos A, sin A) on the
        # plate toward compass azimuth 270 - A, and back toward 90 - A; the
        # prime vertical's back end is the reflection of its front end
        ahead = _vertical_end_from(cfg, sin_phi, cos_phi, r_b, 270.0 - a)
        behind = (_mirror(ahead) if a == 0.0
                  else _vertical_end_from(cfg, sin_phi, cos_phi, r_b, 90.0 - a))
        circ = _azimuth_circle(y_c, p_c, ar, cos_a)
        if circ.radius > STRAIGHT_REL * r_b:
            azimuths.append(Segment(behind, ahead))
            continue
        if not turns_ccw(ahead, zen, behind):  # so that the ccw arc holds the zenith
            ahead, behind = behind, ahead
        azimuths.append(Arc(circ, ahead, behind, "ccw"))
    if m_az % 2 == 0:
        north_y = _y_lower(phi, 0.0, s)
        south_y = min(s / math.tan(math.radians(phi / 2.0)), r_b)
        azimuths.append(Segment(PlanePoint(0.0, north_y), PlanePoint(0.0, south_y)))
    azimuths += [_reflect(azimuths[m_az - j], keep_turn=True)
                 for j in range(len(azimuths), m_az)]

    try:
        hours = _hour_lines(cfg, (r_b, eq.radius, can.radius))
    except ArcticLatitude:
        hours = ()

    return PlateModel(config=cfg, boundary=boundary, tropics=(boundary, eq, can), horizon=horizon,
                      almucantars=tuple(almucantars), azimuths=tuple(azimuths), hour_lines=hours)
