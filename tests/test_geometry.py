"""Plane-geometry primitives: points, arcs, circle fits, intersections."""

import math

import numpy as np
import pytest

from astrolabe import (
    Arc,
    Circle,
    CoincidentCircles,
    CollinearPoints,
    PlanePoint,
    Segment,
    TooFewPoints,
    chord_length,
    circle_circle_intersection,
    circumcircle,
    fit_circle,
    normalize_angle,
)
from astrolabe.geometry import arc_through


def point_at(circle, theta):
    """The circle's point at polar angle theta (rad, ccw from +x)."""
    return PlanePoint(circle.center.x + circle.radius * math.cos(theta),
                      circle.center.y + circle.radius * math.sin(theta))


def arc_point(arc, t):
    """The point at fraction t of an arc's sweep from its start."""
    return point_at(arc.circle, arc.circle.angle_of(arc.start_point) + t * arc.sweep)


def arc_holds(arc, p):
    """True when the polar angle of p lies on the arc, ends included,
    with 1e-12 rad of slack at each end."""
    start, theta = arc.circle.angle_of(arc.start_point), arc.circle.angle_of(p)
    offset = (theta - start if arc.orientation == "ccw" else start - theta) % math.tau
    return offset <= abs(arc.sweep) + 1e-12 or offset >= math.tau - 1e-12


def as_drawn(el):
    """An Arc or a Segment as the curve it draws, whichever way it runs: an
    Arc as its circle with its ends in ccw order, a Segment as the set of
    its ends."""
    if isinstance(el, Segment):
        return frozenset((el.a, el.b))
    ends = (el.start_point, el.end_point)
    return (el.circle, *(ends if el.orientation == "ccw" else ends[::-1]))


def mirrored(p):
    """A point's exact reflection x -> -x."""
    return PlanePoint(-p.x, p.y)


def mirror_image(el):
    """`as_drawn` of an Arc's or a Segment's exact reflection x -> -x, which
    turns the other way: the ccw arc from s to e reflects to the ccw arc
    from the reflection of e to that of s."""
    if isinstance(el, Segment):
        return as_drawn(Segment(mirrored(el.a), mirrored(el.b)))
    circle = Circle(mirrored(el.circle.center), el.circle.radius)
    return as_drawn(Arc(circle, mirrored(el.end_point), mirrored(el.start_point), el.orientation))


def bisector_circumcenter(p1, p2, p3):
    """Independent route: intersect the two perpendicular bisectors."""
    a = np.array(
        [
            [p2.x - p1.x, p2.y - p1.y],
            [p3.x - p1.x, p3.y - p1.y],
        ]
    )
    b = 0.5 * np.array(
        [
            p2.x**2 - p1.x**2 + p2.y**2 - p1.y**2,
            p3.x**2 - p1.x**2 + p3.y**2 - p1.y**2,
        ]
    )
    cx, cy = np.linalg.solve(a, b)
    return float(cx), float(cy), math.hypot(p1.x - cx, p1.y - cy)


def geometric_fit(points):
    """Independent route: Gauss-Newton on true radial residuals, seeded
    from the centroid.  Slow but fully independent of the Kasa algebra."""
    xs = np.array([p.x for p in points])
    ys = np.array([p.y for p in points])
    cx, cy = xs.mean(), ys.mean()
    r = np.hypot(xs - cx, ys - cy).mean()
    for _ in range(60):
        dx, dy = xs - cx, ys - cy
        d = np.hypot(dx, dy)
        res = d - r
        j = np.column_stack([-dx / d, -dy / d, -np.ones_like(d)])
        step, *_ = np.linalg.lstsq(j, -res, rcond=None)
        cx, cy, r = cx + step[0], cy + step[1], r + step[2]
        if np.max(np.abs(step)) < 1e-14:
            break
    d = np.hypot(xs - cx, ys - cy)
    return float(cx), float(cy), float(r), float(np.sqrt(np.mean((d - r) ** 2)))


def test_normalize_angle_wraps_into_zero_tau():
    assert normalize_angle(0.0) == 0.0
    assert normalize_angle(math.tau) == 0.0
    assert normalize_angle(-math.pi / 2) == pytest.approx(1.5 * math.pi, abs=1e-15)
    assert normalize_angle(5.0 * math.pi) == pytest.approx(math.pi, abs=1e-12)
    rng = np.random.default_rng(7)
    for theta in rng.uniform(-40.0, 40.0, size=200):
        w = normalize_angle(float(theta))
        assert 0.0 <= w < math.tau
        # same direction on the unit circle
        assert math.cos(w) == pytest.approx(math.cos(theta), abs=1e-9)
        assert math.sin(w) == pytest.approx(math.sin(theta), abs=1e-9)


def test_point_distance_and_segment_length():
    a = PlanePoint(1.0, 2.0)
    b = PlanePoint(4.0, 6.0)
    assert a.distance_to(b) == pytest.approx(5.0)
    assert Segment(a, b).length() == pytest.approx(5.0)


def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        PlanePoint(float("nan"), 0.0)
    with pytest.raises(ValueError):
        PlanePoint(0.0, float("inf"))


def test_circle_point_angle_round_trip():
    c = Circle(PlanePoint(3.0, -2.0), 7.5)
    rng = np.random.default_rng(11)
    for theta in rng.uniform(0.0, math.tau, size=50):
        p = point_at(c, float(theta))
        assert c.angle_of(p) == pytest.approx(theta, abs=1e-9)
        assert c.signed_distance(p) == pytest.approx(0.0, abs=1e-12)


def test_circle_rejects_bad_radius():
    with pytest.raises(ValueError):
        Circle(PlanePoint(0.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        Circle(PlanePoint(0.0, 0.0), -1.0)


@pytest.mark.parametrize("make, message", [
    *((lambda v=v: PlanePoint(v, 0.0), f"non-finite coordinate: {v!r}")
      for v in (math.nan, math.inf, -math.inf)),
    *((lambda v=v: PlanePoint(1.0, v), f"non-finite coordinate: {v!r}")
      for v in (math.nan, math.inf, -math.inf)),
    # the first of two non-finite coordinates is the one named
    (lambda: PlanePoint(-math.inf, math.nan), "non-finite coordinate: -inf"),
    *((lambda v=v: Circle(PlanePoint(0.0, 0.0), v),
       f"circle radius must be a finite positive number, got {v!r}")
      for v in (math.nan, math.inf, -math.inf)),
    *((lambda v=v: Circle(PlanePoint(0.0, 0.0), v), f"circle radius must be positive, got {v!r}")
      for v in (0.0, -0.0, -1.0, -5e-324)),
])
def test_constructors_name_what_they_refuse(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_arc_sweep_and_orientation():
    c = Circle(PlanePoint(0.0, 0.0), 10.0)
    p0, p1 = point_at(c, math.radians(10.0)), point_at(c, math.radians(100.0))
    ccw = Arc(c, p0, p1, "ccw")
    cw = Arc(c, p1, p0, "cw")
    assert ccw.sweep == pytest.approx(math.pi / 2)
    assert cw.sweep == pytest.approx(-math.pi / 2)
    # both cover the same angular set
    for p in (p0, point_at(c, math.radians(55.0)), p1):
        assert arc_holds(ccw, p)
        assert arc_holds(cw, p)
    assert not arc_holds(ccw, point_at(c, math.radians(200.0)))
    assert not arc_holds(cw, point_at(c, math.radians(200.0)))


def test_arc_keeps_its_end_points_as_given():
    c = Circle(PlanePoint(1.0, 1.0), 2.0)
    p0, p1 = point_at(c, math.radians(350.0)), point_at(c, math.radians(30.0))
    arc = Arc(c, p0, p1, "ccw")  # crosses the wrap
    assert arc.start_point is p0 and arc.end_point is p1
    assert arc.sweep == pytest.approx(math.radians(40.0))
    assert Arc(c, p0, p1, "cw").sweep == pytest.approx(math.radians(40.0) - math.tau)
    assert arc_point(arc, 0.5).distance_to(point_at(c, math.radians(10.0))) < 1e-12


def test_arc_rejects_zero_sweep_and_bad_orientation():
    c = Circle(PlanePoint(0.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        Arc(c, PlanePoint(1.0, 0.0), PlanePoint(1.0, 0.0), "ccw")
    with pytest.raises(ValueError):
        Arc(c, PlanePoint(1.0, 0.0), PlanePoint(0.0, 1.0), "clockwise")


def test_circumcircle_matches_bisector_solution():
    rng = np.random.default_rng(23)
    for _ in range(200):
        cx, cy = rng.uniform(-50.0, 50.0, size=2)
        r = rng.uniform(0.5, 40.0)
        t1, t2, t3 = np.sort(rng.uniform(0.0, math.tau, size=3))
        if min(t2 - t1, t3 - t2) < 0.1:
            continue  # keep the triple well separated
        truth = Circle(PlanePoint(float(cx), float(cy)), float(r))
        pts = [point_at(truth, float(t)) for t in (t1, t2, t3)]
        got = circumcircle(*pts)
        ex, ey, er = bisector_circumcenter(*pts)
        assert got.center.x == pytest.approx(ex, abs=1e-7)
        assert got.center.y == pytest.approx(ey, abs=1e-7)
        assert got.radius == pytest.approx(er, rel=1e-9)


def test_circumcircle_known_right_triangle():
    # right angle at the origin: hypotenuse is the diameter
    c = circumcircle(PlanePoint(0.0, 0.0), PlanePoint(6.0, 0.0), PlanePoint(0.0, 8.0))
    assert c.center.x == pytest.approx(3.0, abs=1e-12)
    assert c.center.y == pytest.approx(4.0, abs=1e-12)
    assert c.radius == pytest.approx(5.0, abs=1e-12)


def test_circumcircle_collinear_raises():
    with pytest.raises(CollinearPoints):
        circumcircle(PlanePoint(0.0, 0.0), PlanePoint(1.0, 1.0), PlanePoint(2.0, 2.0))


def test_circumcircle_degenerate_inputs():
    # two coincident points leave no unique circle: collinear within tolerance
    with pytest.raises(CollinearPoints):
        circumcircle(PlanePoint(1.0, 1.0), PlanePoint(1.0, 1.0), PlanePoint(2.0, 0.0))
    with pytest.raises(ValueError):
        circumcircle(PlanePoint(1.0, 1.0), PlanePoint(1.0, 1.0), PlanePoint(1.0, 1.0))


def test_circumcircle_of_collinear_points_too_close_to_square_raises():
    # the squared spread underflows to zero, so the area test must not pass
    with pytest.raises(CollinearPoints):
        circumcircle(PlanePoint(0.0, 0.0), PlanePoint(1e-200, 0.0), PlanePoint(2e-200, 0.0))


def test_arc_through_refuses_an_arc_that_starts_where_it_ends():
    p, q = PlanePoint(1.0, 1.0), PlanePoint(2.0, 0.0)
    with pytest.raises(CollinearPoints):
        arc_through(p, q, p)
    # three equal points are the segment that has no length
    assert arc_through(p, p, p) == Segment(p, p)


def test_arc_through_collinear_points_is_the_segment_between_the_ends():
    a, b, c = PlanePoint(0.0, 0.0), PlanePoint(1.0, 1.0), PlanePoint(2.0, 2.0)
    assert arc_through(a, b, c) == Segment(a, c)
    # a bend of 1e-13 relative to the span is rounding: within COLLINEAR_AREA_REL
    assert arc_through(a, PlanePoint(1.0, 1.0 + 1e-13), c) == Segment(a, c)


def test_fit_circle_recovers_exact_circles():
    rng = np.random.default_rng(31)
    for _ in range(50):
        cx, cy = rng.uniform(-100.0, 100.0, size=2)
        r = rng.uniform(0.1, 80.0)
        n = int(rng.integers(5, 80))
        thetas = rng.uniform(0.0, math.tau, size=n)
        truth = Circle(PlanePoint(float(cx), float(cy)), float(r))
        # guard against near-degenerate angular clustering
        if np.ptp(np.sort(thetas)) < 0.5:
            continue
        fit = fit_circle([point_at(truth, float(t)) for t in thetas])
        assert fit.circle.center.distance_to(truth.center) < 1e-8 * max(1.0, r)
        assert fit.circle.radius == pytest.approx(r, rel=1e-9)
        assert fit.rms_residual < 1e-9 * max(1.0, r)
        assert fit.max_residual >= fit.rms_residual


def test_fit_circle_matches_geometric_fit_on_noisy_data():
    rng = np.random.default_rng(43)
    truth = Circle(PlanePoint(12.0, -7.0), 30.0)
    thetas = np.linspace(0.0, math.tau, 240, endpoint=False)
    noise = rng.normal(0.0, 0.05, size=(240, 2))
    pts = [
        PlanePoint(point_at(truth, float(t)).x + float(nx), point_at(truth, float(t)).y + float(ny))
        for t, (nx, ny) in zip(thetas, noise)
    ]
    fit = fit_circle(pts)
    ex, ey, er, erms = geometric_fit(pts)
    # full-coverage low-noise ring: Kasa and geometric agree tightly
    assert fit.circle.center.x == pytest.approx(ex, abs=1e-4)
    assert fit.circle.center.y == pytest.approx(ey, abs=1e-4)
    assert fit.circle.radius == pytest.approx(er, abs=1e-4)
    assert fit.rms_residual == pytest.approx(erms, rel=1e-3)


def lstsq_fit(points):
    """Oracle for fit_circle: the Kasa fit and one Gauss-Newton step, each
    by numpy's SVD least squares, in coordinates centered on the mean."""
    xy = np.array([(p.x, p.y) for p in points])
    mean = xy.mean(axis=0)
    u, v = (xy - mean).T
    (d, e, f), *_ = np.linalg.lstsq(np.column_stack((u, v, np.ones_like(u))),
                                    -(u * u + v * v), rcond=None)
    cx, cy = -d / 2.0, -e / 2.0
    r = math.sqrt(cx * cx + cy * cy - f)
    dx, dy = u - cx, v - cy
    dist = np.hypot(dx, dy)
    step, *_ = np.linalg.lstsq(np.column_stack((-dx / dist, -dy / dist, -np.ones_like(u))),
                               r - dist, rcond=None)
    return cx + step[0] + mean[0], cy + step[1] + mean[1], r + step[2]


@pytest.mark.parametrize("center", [(0.0, 0.0), (-40.0, 25.0), (1e6, 1e6)])
def test_fit_circle_matches_numpy_least_squares(center):
    """fit_circle solves its normal systems directly; numpy's SVD gives the
    same circle to 1e-11 radii on arcs of 0.5 rad and up, noisy or exact,
    also a million millimeters from the origin.  The normal systems square
    the condition number (about 200 at 0.5 rad), a relative error of about
    4e-12, within that bound."""
    rng = np.random.default_rng(3)
    for _ in range(60):
        r = float(rng.uniform(1.0, 100.0))
        n = int(rng.integers(5, 200))
        noise = float(rng.choice([0.0, 1e-3, 0.05]))
        thetas = rng.uniform(0.0, math.tau) + rng.uniform(0.5, math.tau) * rng.random(n)
        pts = [PlanePoint(center[0] + r * math.cos(t) + noise * a,
                          center[1] + r * math.sin(t) + noise * b)
               for t, a, b in zip(thetas, rng.normal(size=n), rng.normal(size=n))]
        fit = fit_circle(pts).circle
        ox, oy, orad = lstsq_fit(pts)
        gap = max(abs(fit.center.x - ox), abs(fit.center.y - oy), abs(fit.radius - orad))
        assert gap < 1e-11 * r


def test_fit_circle_too_few_and_collinear():
    with pytest.raises(TooFewPoints):
        fit_circle([PlanePoint(0.0, 0.0), PlanePoint(1.0, 0.0)])
    line = [PlanePoint(float(x), 2.0 * float(x) - 1.0) for x in np.linspace(0.0, 9.0, 12)]
    with pytest.raises(CollinearPoints):
        fit_circle(line)
    with pytest.raises(CollinearPoints, match="all points coincide"):
        fit_circle([PlanePoint(3.0, -4.0)] * 3)


def test_circle_intersection_two_points():
    a = Circle(PlanePoint(0.0, 0.0), 5.0)
    b = Circle(PlanePoint(6.0, 0.0), 5.0)
    pts = circle_circle_intersection(a, b)
    assert len(pts) == 2
    for p in pts:
        assert a.signed_distance(p) == pytest.approx(0.0, abs=1e-12)
        assert b.signed_distance(p) == pytest.approx(0.0, abs=1e-12)
    # classic 3-4-5: x = 3, y = +/-4
    xs = sorted(p.x for p in pts)
    ys = sorted(p.y for p in pts)
    assert xs == pytest.approx([3.0, 3.0])
    assert ys == pytest.approx([-4.0, 4.0])


def test_circle_intersection_tangent_and_disjoint():
    a = Circle(PlanePoint(0.0, 0.0), 2.0)
    outside = Circle(PlanePoint(5.0, 0.0), 3.0)  # externally tangent
    pts = circle_circle_intersection(a, outside)
    assert len(pts) == 1
    assert pts[0].x == pytest.approx(2.0, abs=1e-9)
    assert pts[0].y == pytest.approx(0.0, abs=1e-9)
    far = Circle(PlanePoint(10.0, 0.0), 1.0)
    assert circle_circle_intersection(a, far) == ()
    inner = Circle(PlanePoint(0.1, 0.0), 0.5)  # strictly inside
    assert circle_circle_intersection(a, inner) == ()


def test_circle_intersection_coincident_raises():
    a = Circle(PlanePoint(1.0, 2.0), 3.0)
    b = Circle(PlanePoint(1.0, 2.0 + 1e-12), 3.0)
    with pytest.raises(CoincidentCircles):
        circle_circle_intersection(a, b)


def test_chord_length_quarter_turn():
    c = Circle(PlanePoint(0.0, 0.0), 75.0)
    q = math.pi / 2
    # quarter-circle chord of a 75 mm circle
    assert chord_length(c, 0.0, q) == pytest.approx(106.06601717798212, abs=1e-9)
    assert chord_length(c, q / 2, 3 * q / 2) == pytest.approx(75.0 * math.sqrt(2.0), abs=1e-9)
    # chord is symmetric and wrap-safe
    assert chord_length(c, 6.1, 1.4) == pytest.approx(chord_length(c, 1.4, 6.1))
    assert chord_length(c, 0.7, 0.7) == 0.0
