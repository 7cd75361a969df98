"""Planar circle primitives: circumcircles, arcs through three points,
least-squares fits, and circle intersections.

Everything here is instrument-agnostic plane geometry.  Angles are in
radians, measured counterclockwise from +x in the usual mathematical
sense; modules with an astronomical surface convert degrees at their own
boundary.  Lengths are millimeters throughout the package.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence

from .exceptions import CoincidentCircles, CollinearPoints, TooFewPoints

TAU = 2.0 * math.pi

# three points are collinear when |signed area| <= this times (max pairwise distance)^2
COLLINEAR_AREA_REL = 1e-12

# coincidence / tangency window for circle-circle intersection, relative to scale
COINCIDENT_REL = 1e-9


def normalize_angle(theta: float) -> float:
    """Map a finite angle in radians into [0, 2*pi); ValueError for nan or inf."""
    if not math.isfinite(theta):
        from .projection import FINITE  # projection imports this module

        FINITE.check(theta, "angle")
    r = math.fmod(theta, TAU)
    if r < 0.0:
        r += TAU
    if r >= TAU:
        r = 0.0
    return r


def _require_finite(*values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"non-finite coordinate: {v!r}")


class _Record:
    """Base of the package's immutable value records.  A subclass names its
    fields in `__slots__`, in order; `Name(*values, **named)` binds values to
    them in order, then by name, and raises TypeError naming the class on a
    missing, extra or unknown field.  A record that checks or normalizes its
    inputs has its own `__init__`, with its defaults, ending in one positional
    `super().__init__(...)`.  Each class gets one `operator.attrgetter` for its
    field tuple (a 1-tuple for one field) and `_setters`, its slots' setters
    in order, which PlanePoint, Segment, Circle and Arc call directly: an
    instrument set builds hundreds of them.  Equality (same type, equal
    fields), the hash of the field tuple and the repr are those of a frozen
    dataclass."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__slots__
        get = operator.attrgetter(*names)
        # an attrgetter is no descriptor: the class calls it as _fields(record)
        cls._fields = get if len(names) > 1 else staticmethod(lambda r: (get(r),))
        cls._setters = tuple(getattr(cls, name).__set__ for name in names)

    def __init__(self, *values, **named):
        names, name = self.__slots__, self.__class__.__qualname__
        if named:
            try:
                values += tuple(map(named.pop, names[len(values):]))
            except KeyError as exc:
                raise TypeError(f"{name} is missing field {exc.args[0]!r}") from None
            if named:  # no field's name, or a field's already bound by position
                raise TypeError(f"{name} got an unexpected field {[*named][0]!r}")
        if len(values) != len(names):
            raise TypeError(f"{name} takes the {len(names)} fields {', '.join(names)}, "
                            f"got {len(values)}")
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self._fields
        return fields(self) == fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # rebuilt through __init__, which keeps fields it has normalized as they are
        return self.__class__, self._fields(self)


class PlanePoint(_Record):
    """A point on the projection plane, coordinates in millimeters."""

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        if not (math.isfinite(x) and math.isfinite(y)):
            _require_finite(x, y)
        _set_x(self, x)
        _set_y(self, y)

    def distance_to(self, other: "PlanePoint") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


_set_x, _set_y = PlanePoint._setters


class Segment(_Record):
    """A straight segment between two plane points."""

    __slots__ = ("a", "b")

    def __init__(self, a: PlanePoint, b: PlanePoint):
        _set_a(self, a)
        _set_b(self, b)

    def length(self) -> float:
        return self.a.distance_to(self.b)


_set_a, _set_b = Segment._setters


class Circle(_Record):
    __slots__ = ("center", "radius")

    def __init__(self, center: PlanePoint, radius: float):
        if not (0.0 < radius < math.inf):
            _require_finite(radius)
            raise ValueError(f"circle radius must be positive, got {radius!r}")
        _set_center(self, center)
        _set_radius(self, radius)

    def angle_of(self, p: PlanePoint) -> float:
        """Polar angle of p as seen from the center, in [0, 2*pi)."""
        return normalize_angle(math.atan2(p.y - self.center.y, p.x - self.center.x))

    def signed_distance(self, p: PlanePoint) -> float:
        """Distance from the rim: negative inside the disc, positive outside."""
        return self.center.distance_to(p) - self.radius


_set_center, _set_radius = Circle._setters


class Arc(_Record):
    """A circular arc of `circle` from `start_point` to `end_point` along
    the stated orientation ("ccw" or "cw").  The ends are held as the
    caller computed them, on the circle to its rounding, and are printed
    as they are.  Equal ends are rejected: a full circle is not an Arc.
    """

    __slots__ = ("circle", "start_point", "end_point", "orientation")

    def __init__(self, circle: Circle, start_point: PlanePoint, end_point: PlanePoint,
                 orientation: str = "ccw"):
        if orientation not in ("ccw", "cw"):
            raise ValueError(f"orientation must be 'ccw' or 'cw', got {orientation!r}")
        if start_point == end_point:
            raise ValueError("arc has zero sweep; use Circle for a full circle")
        _set_circle(self, circle)
        _set_start_point(self, start_point)
        _set_end_point(self, end_point)
        _set_orientation(self, orientation)

    @property
    def sweep(self) -> float:
        """Signed angular extent in radians between the polar angles of
        the two ends: positive for ccw, negative for cw."""
        turn = self.circle.angle_of(self.end_point) - self.circle.angle_of(self.start_point)
        return turn % TAU if self.orientation == "ccw" else -(-turn % TAU)


_set_circle, _set_start_point, _set_end_point, _set_orientation = Arc._setters


class FitResult(_Record):
    """A fitted circle (`circle`) with its radial residual summary:
    `rms_residual` and `max_residual`, mm."""

    __slots__ = ("circle", "rms_residual", "max_residual")


def _center_offset(bx: float, by: float, cx: float, cy: float):
    """Offset (ux, uy) from p of the center of the circle through p,
    p + (bx, by) and p + (cx, cy); None where the three are collinear:
    the signed triangle area is at most COLLINEAR_AREA_REL times the
    squared max pairwise distance, as it is where two of them coincide.
    Solving from p keeps the arithmetic well conditioned for circles far
    from the origin."""
    dmax = max(math.hypot(bx, by), math.hypot(cx, cy), math.hypot(cx - bx, cy - by))
    area2 = bx * cy - by * cx
    if abs(area2) / 2.0 <= COLLINEAR_AREA_REL * dmax * dmax:
        return None
    b2, c2, d = bx * bx + by * by, cx * cx + cy * cy, 2.0 * area2
    return (cy * b2 - by * c2) / d, (bx * c2 - cx * b2) / d


def circumcircle(p1: PlanePoint, p2: PlanePoint, p3: PlanePoint) -> Circle:
    """Circle through three pairwise-distinct points.  Raises
    CollinearPoints where `_center_offset` finds them collinear."""
    if p1 == p2 == p3:
        raise ValueError("circumcircle requires pairwise distinct points")
    offset = _center_offset(p2.x - p1.x, p2.y - p1.y, p3.x - p1.x, p3.y - p1.y)
    if offset is None:
        raise CollinearPoints("points are collinear within tolerance")
    ux, uy = offset
    return Circle(PlanePoint(p1.x + ux, p1.y + uy), math.hypot(ux, uy))


def turns_ccw(a: PlanePoint, b: PlanePoint, c: PlanePoint) -> bool:
    """True when a, b, c turn counterclockwise: the doubled signed area
    of the triangle is positive.  Three points of a circle turn that way
    exactly when b lies on the ccw arc from a to c."""
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x) > 0.0


def arc_through(start: PlanePoint, via: PlanePoint, end: PlanePoint) -> Arc | Segment:
    """Arc of the circle through three points, from `start` to `end`
    and passing `via`, with those ends.  Where `_center_offset` finds
    the points collinear, which leaves the area's sign clear of rounding
    elsewhere, or all three coincide, it is the Segment from start to
    end.  Raises CollinearPoints where start and end alone coincide."""
    offset = _center_offset(via.x - start.x, via.y - start.y, end.x - start.x, end.y - start.y)
    if offset is None:
        if start == end != via:
            raise CollinearPoints("start and end coincide")
        return Segment(start, end)
    ux, uy = offset
    return Arc(Circle(PlanePoint(start.x + ux, start.y + uy), math.hypot(ux, uy)), start, end,
               "ccw" if turns_ccw(start, via, end) else "cw")


def _det3(m) -> float:
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _least_squares3(rows: list, rhs: list):
    """The x minimizing |A x - rhs| for A given by its rows of 3: the normal
    system A^T A x = A^T rhs by Cramer's rule, all NaN when it is singular."""
    a = [[math.fsum(r[i] * r[j] for r in rows) for j in range(3)] for i in range(3)]
    b = [math.fsum(r[i] * v for r, v in zip(rows, rhs)) for i in range(3)]
    det = _det3(a)
    if det == 0.0:
        return [math.nan] * 3
    return [_det3([row[:k] + [v] + row[k + 1:] for row, v in zip(a, b)]) / det for k in range(3)]


def fit_circle(points: Sequence[PlanePoint]) -> FitResult:
    """Least-squares circle through >= 3 points.

    Algebraic (Kasa) solve for the initial estimate, then one Gauss-Newton
    step on the geometric radial residuals, both centered on the points'
    mean, which keeps them well conditioned far from the origin.  Raises
    TooFewPoints for n < 3 and CollinearPoints when the points carry no
    curvature to fit.
    """
    n = len(points)
    if n < 3:
        raise TooFewPoints(f"circle fit needs at least 3 points, got {n}")
    xs, ys = [p.x for p in points], [p.y for p in points]
    diag = math.hypot(max(xs) - min(xs), max(ys) - min(ys))
    if diag == 0.0:
        raise CollinearPoints("all points coincide")
    mx, my = math.fsum(xs) / n, math.fsum(ys) / n
    us, vs = [x - mx for x in xs], [y - my for y in ys]

    # collinearity screen: the smaller singular value of the centered cloud, the
    # root of the sum of squared offsets along the scatter matrix's eigenvector
    # for its smaller eigenvalue (its quadratic formula would cancel for a line)
    suu, svv = math.fsum(u * u for u in us), math.fsum(v * v for v in vs)
    half = 0.5 * math.atan2(2.0 * math.fsum(u * v for u, v in zip(us, vs)), suu - svv)
    nx, ny = -math.sin(half), math.cos(half)
    smin = math.sqrt(math.fsum((nx * u + ny * v) ** 2 for u, v in zip(us, vs)))
    if smin / math.sqrt(n) < 1e-12 * diag:
        raise CollinearPoints("points are collinear within tolerance")

    # Kasa: u^2 + v^2 + D u + E v + F = 0 in the least-squares sense
    sol = _least_squares3([(u, v, 1.0) for u, v in zip(us, vs)],
                          [-(u * u + v * v) for u, v in zip(us, vs)])
    cx, cy = -sol[0] / 2.0, -sol[1] / 2.0
    r2 = cx * cx + cy * cy - sol[2]
    if not (r2 > 0.0 and math.isfinite(r2)):
        raise CollinearPoints("degenerate algebraic fit")
    r = math.sqrt(r2)

    # one Gauss-Newton step on f_i = |p_i - c| - r
    dist = [math.hypot(u - cx, v - cy) for u, v in zip(us, vs)]
    if min(dist) > 1e-12 * diag:
        step = _least_squares3([(-(u - cx) / d, -(v - cy) / d, -1.0)
                                for u, v, d in zip(us, vs, dist)], [r - d for d in dist])
        if all(map(math.isfinite, step)) and r + step[2] > 0.0:
            cx, cy, r = cx + step[0], cy + step[1], r + step[2]

    res = [abs(math.hypot(u - cx, v - cy) - r) for u, v in zip(us, vs)]
    return FitResult(
        circle=Circle(PlanePoint(mx + cx, my + cy), r),
        rms_residual=math.sqrt(math.fsum(e * e for e in res) / n),
        max_residual=max(res),
    )


def circle_circle_intersection(a: Circle, b: Circle) -> tuple[PlanePoint, ...]:
    """Intersection points of two circles.

    Returns two points, one point (tangency: the center distance lies
    within COINCIDENT_REL of r1 + r2 or |r1 - r2|), or an empty tuple.
    Raises CoincidentCircles when the circles coincide within
    COINCIDENT_REL of their size.  Ordering is deterministic: the point
    on the +90 degree side of the center-to-center axis first.
    """
    dx = b.center.x - a.center.x
    dy = b.center.y - a.center.y
    d = math.hypot(dx, dy)
    scale = max(a.radius, b.radius, d)
    tol = COINCIDENT_REL * scale
    if d <= tol and abs(a.radius - b.radius) <= tol:
        raise CoincidentCircles("circles coincide within tolerance")
    outer, inner = d - (a.radius + b.radius), abs(a.radius - b.radius) - d
    if outer > tol or inner > tol:
        return ()
    ex, ey = dx / d, dy / d
    along = (d * d + a.radius * a.radius - b.radius * b.radius) / (2.0 * d)
    px = a.center.x + along * ex
    py = a.center.y + along * ey
    # tangency is judged on the center distance, not on the half chord h:
    # h is a square root, so rounding of 1e-15 r*r in h*h is 3e-8 r in h
    if outer >= -tol or inner >= -tol:  # both are at most tol here
        return (PlanePoint(px, py),)
    h2 = a.radius * a.radius - along * along
    h = math.sqrt(h2) if h2 > 0.0 else 0.0
    return (
        PlanePoint(px - h * ey, py + h * ex),
        PlanePoint(px + h * ey, py - h * ex),
    )


def chord_length(circle: Circle, theta1: float, theta2: float) -> float:
    """Chord between the rim points at polar angles theta1, theta2 (rad).
    Raises ValueError naming an angle that is not finite, or the radius
    of a circle whose chord is beyond the float range."""
    if not (math.isfinite(theta1) and math.isfinite(theta2)):
        from .projection import FINITE  # projection imports this module

        FINITE.check(theta1, "theta1")
        FINITE.check(theta2, "theta2")
    # halving each angle first keeps the difference of two finite angles finite, and
    # doubling last lets r |sin| use the whole float range; both scalings are exact,
    # so the bits are those of 2 r |sin((theta2 - theta1) / 2)| wherever that is finite
    chord = 2.0 * (circle.radius * abs(math.sin(theta2 / 2.0 - theta1 / 2.0)))
    if chord == math.inf:
        raise ValueError(f"circle radius is too large for a finite chord, got {circle.radius!r}")
    return chord
