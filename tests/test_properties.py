"""Property tests of the projection, the ecliptic and the plate's
almucantars and arcs over their whole input domains.  Derandomized and
without an example database, so every run draws the same examples and
writes nothing to disk."""

import inspect
import math
import re

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

import astrolabe
from astrolabe import (
    SCALE_RANGE,
    STEREOGRAPHIC,
    Arc,
    ArcticLatitude,
    BackConfig,
    Circle,
    Locality,
    PlanePoint,
    PlateConfig,
    ProjectionKind,
    RenderStyle,
    Segment,
    SpherePoint,
    StarEntry,
    almucantar_solution,
    axis_projection_radius,
    azimuth_circle,
    band_misassignment,
    build_back,
    build_plate,
    build_rete,
    chord_length,
    ecliptic_circle,
    render_full,
    project_point,
    solve_altitude_for_azimuth,
    tropic_radii,
    unproject_point,
    zenith_point,
)
from astrolabe.exceptions import AstrolabeError
from astrolabe.geometry import Label, Lines, Ticks, _Record, arc_through, circumcircle
from astrolabe.plate import (MIN_LATITUDE, STRAIGHT_REL, _vertical_azimuths, _vertical_end,
                             crossing_hour_angle, night_hours)
from astrolabe.projection import (ALTITUDE, BAND_STEP, DECLINATION, FINITE, FRACTION, LATITUDE,
                                  LENGTH, OBLIQUITIES, RADIANS, SCALE, SIGNED_LENGTH,
                                  SIGNED_RADIANS, Range, _stereographic, from_plate_polar,
                                  horizon_to_sphere)
from astrolabe.render import _Pen
from test_geometry import arc_holds, as_drawn, mirror_image, mirrored, point_at
from test_projection import ray_plane_radius

S = 100.0

REPRODUCIBLE = settings(derandomize=True, database=None, deadline=None)

# viewpoints off the plane z = 1 and away from the center, where the
# gnomonic member takes its own tangent form
VIEWPOINTS = st.one_of(
    st.floats(-10.0, -0.05), st.floats(0.05, 0.95), st.floats(1.05, 10.0)
)


@REPRODUCIBLE
@given(v=VIEWPOINTS, dec=st.floats(-90.0, 90.0))
def test_axis_projection_matches_ray_oracle(v, dec):
    # the oracle projects onto z = 0; after normalization the plane drops out
    assume(abs(math.sin(math.radians(dec)) - v) >= 1e-3)
    got = axis_projection_radius(dec, ProjectionKind(v), S)
    assert got == pytest.approx(ray_plane_radius(dec, v, S), rel=1e-9)


@REPRODUCIBLE
@given(dec=st.floats(-89.0, 89.0), ha=st.floats(0.0, 360.0, exclude_max=True))
def test_project_unproject_round_trip(dec, ha):
    back = unproject_point(project_point(SpherePoint(dec, ha), S), S)
    assert back.dec == pytest.approx(dec, abs=1e-10)
    wrapped = (back.hour_angle - ha + 180.0) % 360.0 - 180.0
    assert wrapped == pytest.approx(0.0, abs=1e-9)


@REPRODUCIBLE
@given(
    obliquity=st.floats(0.0, 30.0, exclude_min=True, exclude_max=True),
    scale=st.floats(1.0, 1000.0),
)
def test_ecliptic_tangent_to_both_tropics(obliquity, scale):
    c = ecliptic_circle(scale, obliquity)
    r_cap, _, r_can = tropic_radii(scale, obliquity)
    assert c.center.y + c.radius == pytest.approx(r_cap, rel=1e-12)
    assert c.center.y - c.radius == pytest.approx(-r_can, rel=1e-12)


# every latitude a PlateConfig accepts
LATITUDES = st.floats(MIN_LATITUDE, 90.0, exclude_max=True)


@REPRODUCIBLE
@given(
    latitude=LATITUDES,
    # almucantar_solution refuses the zenith, h >= 90 - 1e-12
    altitude=st.floats(0.0, 90.0 - 1e-12, exclude_max=True),
    azimuth=st.floats(0.0, 360.0),
)
def test_altitude_points_lie_on_closed_form_almucantar(latitude, altitude, azimuth):
    # the point at this altitude and azimuth (from north through east), in
    # equatorial components: toward the pole, the upper meridian, the east
    phi, h, a = (math.radians(v) for v in (latitude, altitude, azimuth))
    pole = math.sin(phi) * math.sin(h) + math.cos(phi) * math.cos(h) * math.cos(a)
    meridian = math.cos(phi) * math.sin(h) - math.sin(phi) * math.cos(h) * math.cos(a)
    east = math.cos(h) * math.sin(a)
    dec = math.degrees(math.atan2(pole, math.hypot(meridian, east)))
    hour_angle = math.degrees(math.atan2(-east, meridian))
    p = project_point(SpherePoint(dec, hour_angle), S)
    circle = almucantar_solution(latitude, altitude, S).circle
    distance = math.hypot(p.x - circle.center.x, p.y - circle.center.y)
    assert distance == pytest.approx(circle.radius, rel=1e-9)


ALMUCANTAR_STEPS = st.sampled_from((1.0, 2.0, 3.0, 5.0, 6.0, 10.0, 15.0, 30.0))
AZIMUTH_STEPS = st.sampled_from((1.0, 5.0, 10.0, 15.0, 30.0, 45.0, 90.0))


@REPRODUCIBLE
@given(latitude=LATITUDES, almucantar_step=ALMUCANTAR_STEPS, azimuth_step=AZIMUTH_STEPS)
def test_plate_arc_endpoints_lie_on_their_circle(latitude, almucantar_step, azimuth_step):
    model = build_plate(PlateConfig(latitude, S, almucantar_step=almucantar_step,
                                    azimuth_step=azimuth_step))
    elements = [model.horizon, *model.almucantars, *model.azimuths, *model.hour_lines]
    for arc in (el for el in elements if isinstance(el, Arc)):
        c = arc.circle
        for p in (arc.start_point, arc.end_point):
            assert math.hypot(p.x - c.center.x, p.y - c.center.y) == pytest.approx(
                c.radius, rel=1e-9)


@REPRODUCIBLE
@given(
    latitude=LATITUDES,
    obliquity=st.floats(0.0, 30.0, exclude_min=True, exclude_max=True),
    almucantar_step=ALMUCANTAR_STEPS,
    azimuth_step=AZIMUTH_STEPS,
)
# near the pole, where verticals turn straight, and 1e-9 degree below the
# arctic limit, where the tropics touch the horizon within tolerance
@example(latitude=89.99, obliquity=23.44, almucantar_step=1.0, azimuth_step=1.0)
@example(latitude=math.nextafter(90.0, 0.0), obliquity=23.44, almucantar_step=1.0,
         azimuth_step=1.0)
@example(latitude=90.0 - 23.44 - 1e-9, obliquity=23.44, almucantar_step=5.0, azimuth_step=10.0)
def test_plate_has_one_element_per_grid_value(latitude, obliquity, almucantar_step,
                                              azimuth_step):
    model = build_plate(PlateConfig(latitude, S, obliquity, almucantar_step, azimuth_step))
    zenith = zenith_point(latitude, S)
    # almucantars[k] is altitude k * step; the last is the zenith point
    assert len(model.almucantars) == round(90.0 / almucantar_step) + 1
    assert model.almucantars[-1] == zenith
    for k, el in enumerate(model.almucantars[:-1]):
        circle = el.circle if isinstance(el, Arc) else el
        assert circle == almucantar_solution(latitude, k * almucantar_step, S).circle
    # azimuths[j] is the j-th value of sorted({k * step mod 180}) (these
    # steps' multiples land on their verticals exactly), drawn
    # as the part of its circle that holds the zenith; the meridian is a
    # Segment through the zenith, and so, near the pole, is a circle over
    # STRAIGHT_REL boundary radii wide, to the 5e-6 radii that its arc
    # bows from the segment between its ends
    n = round(360.0 / azimuth_step)
    values = sorted({(k * azimuth_step) % 180.0 for k in range(n)})
    assert len(model.azimuths) == len(values)
    for a, el in zip(values, model.azimuths):
        if isinstance(el, Segment):
            assert a == 90.0 or (azimuth_circle(latitude, a, S).radius
                                 > STRAIGHT_REL * model.boundary.radius)
            ux, uy = el.b.x - el.a.x, el.b.y - el.a.y
            across = ux * (zenith.y - el.a.y) - uy * (zenith.x - el.a.x)
            bow = 1e-12 * S if a == 90.0 else 5e-6 * model.boundary.radius
            assert abs(across) <= bow * el.length()
            continue
        assert isinstance(el, Arc)
        assert el.circle == azimuth_circle(latitude, a, S)
        assert arc_holds(el, zenith)
    # eleven hour lines, none at arctic latitudes: from 1e-12 degree below
    # 90 - obliquity, where the Tropic of Cancer no longer sets
    if latitude >= 90.0 - obliquity - 1e-12:
        assert model.hour_lines == ()
    else:
        assert len(model.hour_lines) == 11



@mp.workdps(50)
def exact_ends(cfg, model, verticals):
    """(element, its two exact end points) for every curve of a plate
    that ends: the almucantars (the horizon first), the verticals, at
    these values from the prime vertical, and the hour lines, each end
    replayed from the sky in 50 digits.  An almucantar whose exact circle
    does not cross the boundary comes with None."""
    phi, eps = mp.radians(cfg.latitude), mp.radians(cfg.obliquity)
    s, sphi, cphi = mpf(cfg.scale), mp.sin(phi), mp.cos(phi)

    def project(dec, hour):
        r = s * mp.tan(mp.pi / 4 - dec / 2)
        return r * mp.sin(hour), r * mp.cos(hour)

    def meets(dec, h):  # hour angle where declination dec stands at altitude h
        c = (mp.sin(h) - sphi * mp.sin(dec)) / (cphi * mp.cos(dec))
        return mp.acos(c) if abs(c) < 1 else None

    def vertical_end(azimuth):  # compass azimuth, from north through east
        a = mp.radians(azimuth)
        dec = mp.asin(cphi * mp.cos(a))
        if dec >= -eps:  # on the horizon
            return project(dec, mp.atan2(-mp.sin(a), -sphi * mp.cos(a)))
        # sin(-eps) = sin(phi) sin(h) + cos(phi) cos(h) cos(a) = amp sin(h + psi)
        amp, psi = mp.hypot(sphi, cphi * mp.cos(a)), mp.atan2(cphi * mp.cos(a), sphi)
        h = mp.asin(-mp.sin(eps) / amp) - psi
        east, up = mp.cos(h) * mp.sin(a), cphi * mp.sin(h) - sphi * mp.cos(h) * mp.cos(a)
        return project(-eps, mp.atan2(-east, up))

    out = []
    for k, el in enumerate(model.almucantars[:-1]):
        hc = meets(-eps, mp.radians(k * mpf(cfg.almucantar_step)))
        out.append((el, None if hc is None else (project(-eps, -hc), project(-eps, hc))))
    for a, el in zip(verticals, model.azimuths):
        out.append((el, (vertical_end(270 - mpf(a)), vertical_end(90 - mpf(a)))))
    if model.hour_lines:
        division = []
        for dec in (-eps, eps):
            h0 = meets(dec, 0)
            division.append([project(dec, h0 + k * (2 * mp.pi - 2 * h0) / 12) for k in range(13)])
        for k, el in enumerate(model.hour_lines, start=1):
            out.append((el, (division[0][k], division[1][k])))
    return out


@REPRODUCIBLE
@given(
    latitude=LATITUDES,
    obliquity=st.floats(0.0, 30.0, exclude_min=True, exclude_max=True),
    almucantar_step=ALMUCANTAR_STEPS,
    azimuth_step=AZIMUTH_STEPS,
)
# near the pole, where intersecting the projected circles lost up to 3e-4 mm
@example(latitude=89.99, obliquity=23.44, almucantar_step=1.0, azimuth_step=1.0)
@example(latitude=89.9, obliquity=23.44, almucantar_step=5.0, azimuth_step=5.0)
# hour lines whose sunrise-equation differences are 5e-5 degree, not a touch
@example(latitude=89.99995, obliquity=1e-6, almucantar_step=5.0, azimuth_step=10.0)
def test_plate_end_points_match_a_50_digit_replay(latitude, obliquity, almucantar_step,
                                                  azimuth_step):
    # every end, an Arc's or a Segment's, is a point as computed
    cfg = PlateConfig(latitude, S, obliquity, almucantar_step, azimuth_step)
    model = build_plate(cfg)
    verticals = sorted({(k * azimuth_step) % 180.0 for k in range(round(360.0 / azimuth_step))})
    boundary = model.boundary
    for el, exact in exact_ends(cfg, model, verticals):
        if exact is None or isinstance(el, Circle):
            # drawn whole where it misses the boundary, or touches it
            # within TOUCH_DEG: then it leaves the plate by under 1e-9 mm
            assert isinstance(el, Circle)
            assert el.center.distance_to(boundary.center) + el.radius <= boundary.radius + 1e-9
            continue
        ends = (el.start_point, el.end_point) if isinstance(el, Arc) else (el.a, el.b)
        off = [[float(mp.hypot(p.x - x, p.y - y)) for x, y in exact] for p in ends]
        assert min(max(off[0][0], off[1][1]), max(off[0][1], off[1][0])) <= 1e-9, el


def orientation_by_angles(start, via, end):
    """The orientation of the arc from start through via to end, from
    the polar angles of the three points about their circumcircle's
    center: ccw when via lies within the ccw sweep from start to end,
    with 1e-12 rad of slack."""
    circle = circumcircle(start, via, end)
    a0, a1, a2 = (circle.angle_of(p) for p in (start, via, end))
    offset, extent = (a1 - a0) % math.tau, (a2 - a0) % math.tau
    return "ccw" if offset <= extent + 1e-12 or offset >= math.tau - 1e-12 else "cw"


@REPRODUCIBLE
@given(
    center=st.one_of(st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)),
                     st.tuples(st.floats(1e6 - 1.0, 1e6 + 1.0), st.floats(1e6 - 1.0, 1e6 + 1.0))),
    radius=st.floats(1.0, 1000.0),
    start=st.floats(0.0, math.tau),
    # a sweep up to almost a full turn, or within 1e-9 rad of half a turn
    sweep=st.one_of(st.floats(0.01, math.tau - 0.01), st.floats(math.pi - 1e-9, math.pi + 1e-9)),
    via=st.floats(0.01, 0.99),
    ccw=st.booleans(),
)
@example(center=(1e6, 1e6), radius=1.0, start=0.0, sweep=math.pi, via=0.5, ccw=False)
def test_arc_through_orients_by_area_as_by_angles(center, radius, start, sweep, via, ccw):
    # three distinct points of a circle, via between start and end along
    # the drawn direction; the area's sign picks the arc that the polar
    # angles pick, and that arc holds via
    sign, circle = (1.0 if ccw else -1.0), Circle(PlanePoint(*center), radius)
    start, via, end = (point_at(circle, t)
                       for t in (start, start + sign * via * sweep, start + sign * sweep))
    arc = arc_through(start, via, end)
    assert arc.orientation == orientation_by_angles(start, via, end) == ("ccw" if ccw else "cw")
    assert (arc.start_point, arc.end_point) == (start, end)
    assert arc_holds(arc, via)
    assert abs(arc.sweep) == pytest.approx(sweep, abs=1e-6)


def _printed_by_round_trip(value, precision):
    # the rule the pen's zero rule replaces: parse the printed string back to test for zero
    s = f"{value:.{precision}f}"
    if float(s) == 0.0:
        s = f"{0.0:.{precision}f}"
    return s


@st.composite
def values_near_rounding_to_zero(draw):
    precision = draw(st.integers(1, 9))
    half = 0.5 * 10.0 ** -precision
    value = draw(
        st.one_of(
            st.sampled_from([0.0, -0.0, -5e-324, half, -half]),
            st.floats(-1e-300, 0.0),
            st.builds(
                lambda sign, k: sign * (half + k * math.ulp(half)),
                st.sampled_from([1.0, -1.0]),
                st.integers(-4, 4),
            ),
            st.floats(-4.0 * half, 4.0 * half),
            st.floats(-1e6, 1e6),
        )
    )
    return value, precision


@REPRODUCIBLE
@given(case=values_near_rounding_to_zero())
def test_the_pen_prints_a_number_by_the_round_trip_rule(case):
    value, precision = case
    pen = _Pen(precision, 1.0, 1.0)
    assert pen.run(pen.number, (value,)) == _printed_by_round_trip(value, precision)


@REPRODUCIBLE
@given(case=values_near_rounding_to_zero(), mirror=st.booleans())
@example(case=(-0.0, 4), mirror=False)
@example(case=(-5e-324, 9), mirror=True)
@example(case=(-0.5e-3, 3), mirror=False)
@example(case=(0.5e-6, 6), mirror=True)
@example(case=(-(0.5e-4 + math.ulp(0.5e-4)), 4), mirror=True)
@example(case=(-(0.5e-4 - math.ulp(0.5e-4)), 4), mirror=False)
def test_every_element_kind_prints_numbers_by_the_round_trip_rule(case, mirror):
    # a segment, a circle, a small and a large arc, a star marker, lines, ticks and a
    # label at those coordinates: each printed number is the signed model value printed
    # by the round trip, alone through `emit` and in one run
    v, precision = case
    sx, sy = (-1.0 if mirror else 1.0), -1.0
    pen = _Pen(precision, sx, sy)
    arc = Arc(Circle(PlanePoint(v, v), 1.0), PlanePoint(v + 1.0, v), PlanePoint(v, v + 1.0))
    large = Arc(arc.circle, PlanePoint(v + 1.0, v), PlanePoint(v, v - 1.0))
    elements = [Segment(PlanePoint(v, -v), PlanePoint(-v, v)), Circle(PlanePoint(-v, v), 1.0),
                arc, large, PlanePoint(v, -v), Lines((v, -v, -v, v)),
                Ticks((v, -v, v, -v), 1.0, 1.0, 1.0)]
    cases = [(pen.emit(el), values) for el, values in zip(elements, [
        [sx * v, -sy * v, -sx * v, sy * v],
        [-sx * v, sy * v, 1.0],
        [sx * (v + 1.0), sy * v, 1.0, 1.0, sx * v, sy * (v + 1.0)],
        [sx * (v + 1.0), sy * v, 1.0, 1.0, sx * v, sy * (v - 1.0)],
        [sx * v, -sy * v, 0.8],
        [sx * v, -sy * v, -sx * v, sy * v],
        [sx * v, -sy * v, sx * v, -sy * v],
    ])]
    assert pen.elements(elements) == "".join(row for row, _ in cases)
    # a label's text is never a number: one that reads as a signed zero keeps its sign
    zero = "-0." + "0" * precision
    label = Label(v, -v, zero, "middle")
    text = pen.emit(label)
    assert text.endswith(f">{zero}</text>\n")
    # and a layer's labels print after its other rows
    assert pen.elements([label, *elements]) == "".join(row for row, _ in cases) + text
    cases.append((text, [sx * v, -sy * v]))
    for row, values in cases:
        printed = re.findall(r'(?<=[" ])-?[0-9]+\.[0-9]+(?=[" ])', row)
        assert printed == [_printed_by_round_trip(x, precision) for x in values], row


def band_by_band(latitude, scale, altitude, fraction, band_step):
    """The band search that band_misassignment's closed form replaced:
    step up one band at a time while the crossing stays within reach."""
    sol = almucantar_solution(latitude, altitude, scale)
    displacement = abs(fraction) * sol.radius
    m = 0
    while altitude + (m + 1) * band_step <= 90.0 - 1e-9:
        nxt = almucantar_solution(latitude, altitude + (m + 1) * band_step, scale)
        if abs(nxt.y_lower - sol.y_lower) <= displacement:
            m += 1
        else:
            break
    return displacement, altitude + m * band_step


@REPRODUCIBLE
@given(
    latitude=st.floats(0.5, 89.5),
    altitude=st.floats(0.0, 89.9),
    band_step=st.floats(0.1, 20.0),
    fraction=st.floats(0.0, 1.0),
    scale=st.floats(10.0, 200.0),
)
def test_band_misassignment_matches_the_band_by_band_search(
    latitude, altitude, band_step, fraction, scale
):
    args = (latitude, scale, altitude, fraction, band_step)
    assert band_misassignment(*args) == band_by_band(*args)


@REPRODUCIBLE
@given(
    latitude=st.floats(0.5, 89.5),
    altitude=st.floats(0.0, 80.0),
    band_step=st.floats(0.1, 20.0),
    share=st.floats(0.0, 1.0),
    scale=st.floats(10.0, 200.0),
)
def test_band_misassignment_matches_the_search_when_a_band_is_just_reached(
    latitude, altitude, band_step, share, scale
):
    # the displacement equals the gap to one band, up to the rounding of
    # fraction * radius: where the closed form's h* meets that band, the
    # crossing test decides
    top = math.floor((90.0 - 1e-9 - altitude) / band_step)
    assume(top >= 1)
    band = 1 + math.floor(share * (top - 1))
    sol = almucantar_solution(latitude, altitude, scale)
    gap = almucantar_solution(latitude, altitude + band * band_step, scale).y_lower - sol.y_lower
    args = (latitude, scale, altitude, gap / sol.radius, band_step)
    assert band_misassignment(*args) == band_by_band(*args)


@REPRODUCIBLE
@given(
    latitude=LATITUDES,
    back_latitude=st.floats(23.44, 66.55),
    scale=st.sampled_from(SCALE_RANGE),
    almucantar_step=ALMUCANTAR_STEPS,
    azimuth_step=AZIMUTH_STEPS,
    precision=st.integers(1, 9),
    mirror=st.booleans(),
)
def test_every_face_draws_at_both_ends_of_the_scale_range(
    latitude, back_latitude, scale, almucantar_step, azimuth_step, precision, mirror
):
    plate = build_plate(PlateConfig(latitude, scale, almucantar_step=almucantar_step,
                                    azimuth_step=azimuth_step))
    rete = build_rete([StarEntry("Vega", 279.235, 38.784, 0.03)], scale)
    back = build_back(BackConfig(back_latitude, scale), [Locality("Damascus", 33.513, 36.292)])
    doc = render_full(plate, rete, back, RenderStyle(precision, mirror))
    assert "nan" not in doc and "inf" not in doc
    # at scale 1e-6 the header, the translates and the rows print numbers that round
    # to zero: none of them keeps its sign
    assert not re.search(r"-0\.0+(?![0-9])", doc)
    # one group per face and per layer: plate limb..azimuths (+ hours), rete 3, back 6
    assert doc.count("<g id=") == 3 + 5 + bool(plate.hour_lines) + 3 + 6
    below, above = math.nextafter(SCALE_RANGE[0], 0.0), math.nextafter(SCALE_RANGE[1], math.inf)
    for outside in (below, above):
        with pytest.raises(ValueError, match="scale must lie in"):
            PlateConfig(latitude, outside)
        with pytest.raises(ValueError, match="scale must lie in"):
            build_rete([], outside)
        with pytest.raises(ValueError, match="radius must lie in"):
            BackConfig(back_latitude, outside)


def vertical_end_by_sphere_points(cfg, azimuth):
    """Where the vertical of a compass azimuth leaves the plate, composed
    from sphere points: its horizon point, or the boundary point at the
    altitude where it reaches declination -obliquity, projected."""
    p = horizon_to_sphere(cfg.latitude, 0.0, azimuth)
    if p.dec < -cfg.obliquity:
        h = solve_altitude_for_azimuth(cfg.latitude, -cfg.obliquity, azimuth)
        p = SpherePoint(-cfg.obliquity, horizon_to_sphere(cfg.latitude, h, azimuth).hour_angle)
    return project_point(p, cfg.scale)


def vertical_azimuths(step):
    """The azimuth A (from the prime vertical) of each entry of
    PlateModel.azimuths, as its docstring states them."""
    n = round(360.0 / step)
    m = n // 2 if n % 2 == 0 else n
    first = {}
    for k in range(n):
        a = (k * step) % 180.0
        first.setdefault(round(a * m / 180.0) % m, a)
    return [a for _, a in sorted(first.items())]


def accepted_azimuth_steps(n):
    """360 / n, the floats either side of it, and the farthest steps either
    side that PlateConfig still takes for n steps per turn."""
    step = 360.0 / n
    steps = {step, math.nextafter(step, 0.0), math.nextafter(step, math.inf),
             360.0 / (n + 0.9e-9), 360.0 / (n - 0.9e-9)}
    kept = []
    for s in sorted(steps):
        try:
            PlateConfig(40.0, S, azimuth_step=s)
        except ValueError:
            continue
        kept.append(s)
    return kept


def test_the_closed_form_vertical_azimuths_are_the_search_bit_for_bit():
    # every count up to 720 steps per turn, and the finest ones down to MIN_STEP
    checked = 0
    for n in [*range(1, 721), 7200, 10799, 10800, 21599, 21600]:
        for step in accepted_azimuth_steps(n):
            m, computed = _vertical_azimuths(step)
            search = vertical_azimuths(step)
            assert m == len(search) and len(computed) == (m + 1) // 2, (n, step)
            assert [a for a, _, _ in computed] == search[:len(computed)], (n, step)
            assert all(ar == math.radians(a) and c == math.cos(ar) for a, ar, c in computed)
            checked += 1
    assert checked > 4 * 725  # all but a few of the five steps of each count are accepted


@REPRODUCIBLE
@given(
    latitude=LATITUDES,
    scale=st.floats(10.0, 200.0),
    almucantar_step=st.sampled_from((1.0, 2.0, 3.0, 5.0, 7.5, 9.0, 10.0, 18.0, 45.0)),
    # 7.2 and 40 leave verticals off the whole degrees, 40 and 72 an odd count of steps
    azimuth_step=st.sampled_from((1.0, 4.0, 7.2, 10.0, 15.0, 40.0, 72.0, 90.0)),
)
def test_plate_curve_ends_are_the_projected_sphere_points(
    latitude, scale, almucantar_step, azimuth_step
):
    # each end the plate prints is the point project_point gives its sphere
    # point, float for float: not merely close, the same number
    cfg = PlateConfig(latitude, scale, almucantar_step=almucantar_step,
                      azimuth_step=azimuth_step)
    model = build_plate(cfg)
    obl = cfg.obliquity

    # the western half, that is: the eastern half is its reflection, and the
    # midnight line lies on the meridian (test_the_plate_is_its_own_mirror_image)
    for k, el in enumerate(model.almucantars[:-1]):
        hc = crossing_hour_angle(latitude, -obl, k * almucantar_step)
        assert isinstance(el, Arc) == (hc is not None)
        if hc is not None:
            assert el.end_point == project_point(SpherePoint(-obl, hc), scale)
            assert el.start_point == mirrored(el.end_point)

    azimuths = vertical_azimuths(azimuth_step)
    assert len(model.azimuths) == len(azimuths)
    for a, el in zip(azimuths[:len(azimuths) // 2 + 1], model.azimuths):
        if abs(math.cos(math.radians(a))) < 1e-11:
            continue  # the meridian, whose ends are closed-form y values
        ends = (el.start_point, el.end_point) if isinstance(el, Arc) else (el.a, el.b)
        ahead = vertical_end_by_sphere_points(cfg, 270.0 - a)
        want = (ahead, mirrored(ahead) if a == 0.0
                else vertical_end_by_sphere_points(cfg, 90.0 - a))
        assert ends in (want, want[::-1])

    if not model.hour_lines:
        with pytest.raises(ArcticLatitude):
            for dec in (-obl, 0.0, obl):
                night_hours(latitude, dec)
    for k, el in enumerate(model.hour_lines[:5], start=1):
        knots = [project_point(SpherePoint(dec, night_hours(latitude, dec)[k]), scale)
                 for dec in (-obl, 0.0, obl)]
        assert el == arc_through(*knots)
    if model.hour_lines:  # midnight: the tropics' points at hour angle 180, on the meridian
        ends = [project_point(SpherePoint(dec, 180.0), scale) for dec in (-obl, obl)]
        assert model.hour_lines[5] == Segment(*(PlanePoint(0.0, p.y) for p in ends))


@REPRODUCIBLE
@given(
    latitude=LATITUDES,
    scale=st.floats(*map(math.log, SCALE_RANGE)).map(
        lambda t: min(max(math.exp(t), SCALE_RANGE[0]), SCALE_RANGE[1])),
    obliquity=st.floats(0.0, 30.0, exclude_min=True, exclude_max=True),
    # 0.25, 0.75 and 1.2 divide the quarter and the whole turn, but not into whole degrees
    almucantar_step=st.sampled_from((0.25, 0.75, 1.2, 5.0, 10.0)),
    azimuth_step=st.sampled_from((0.25, 0.75, 1.2, 7.2, 10.0, 40.0)),
)
def test_plate_kernels_equal_the_public_helpers(latitude, scale, obliquity, almucantar_step,
                                                azimuth_step):
    # build_plate draws each curve from values it computes once per plate, with
    # no checks; every element is the one the checked helpers give, bit for bit
    cfg = PlateConfig(latitude, scale, obliquity, almucantar_step, azimuth_step)
    model = build_plate(cfg)
    r_b = tropic_radii(scale, obliquity)[0]

    for k, el in enumerate(model.almucantars[:-1]):
        h = k * almucantar_step
        circle = almucantar_solution(latitude, h, scale).circle
        hc = crossing_hour_angle(latitude, -obliquity, h)
        if hc is None:
            assert el == circle
        else:
            west = from_plate_polar(r_b, hc)
            assert el == Arc(circle, mirrored(west), west, "ccw")

    # the western verticals, A in [0, 90), and the meridian; each eastern one is the
    # reflection of its twin (test_the_plate_is_its_own_mirror_image)
    azimuths = vertical_azimuths(azimuth_step)
    assert len(model.azimuths) == len(azimuths)
    for a, el in zip(azimuths[:len(azimuths) // 2 + 1], model.azimuths):
        if abs(math.cos(math.radians(a))) < 1e-11:
            north_y = almucantar_solution(latitude, 0.0, scale).y_lower
            south_y = min(scale / math.tan(math.radians(latitude / 2.0)), r_b)
            assert el == Segment(PlanePoint(0.0, north_y), PlanePoint(0.0, south_y))
            continue
        ahead, behind = _vertical_end(cfg, 270.0 - a), _vertical_end(cfg, 90.0 - a)
        assert ahead == vertical_end_by_sphere_points(cfg, 270.0 - a)
        if a == 0.0:  # the prime vertical's other end is the reflection of the first
            assert behind == mirrored(ahead)
        else:
            assert behind == vertical_end_by_sphere_points(cfg, 90.0 - a)
        if isinstance(el, Segment):
            assert el == Segment(behind, ahead)
        else:
            assert el.circle == azimuth_circle(latitude, a, scale)
            assert (el.start_point, el.end_point) in ((ahead, behind), (behind, ahead))

    # the family's formula at v = -1 is the plates' stereographic kernel, bit for bit
    for dec in (-obliquity, 0.0, obliquity, latitude, 90.0):
        d = math.radians(dec)
        assert repr(axis_projection_radius(dec, STEREOGRAPHIC, scale)) == repr(
            _stereographic(math.sin(d), math.cos(d), scale))


@REPRODUCIBLE
@given(
    latitude=LATITUDES,
    scale=st.floats(*map(math.log, SCALE_RANGE)).map(
        lambda t: min(max(math.exp(t), SCALE_RANGE[0]), SCALE_RANGE[1])),
    obliquity=st.floats(0.0, 30.0, exclude_min=True, exclude_max=True),
    almucantar_step=st.sampled_from((0.75, 1.0, 5.0, 10.0)),
    # multiples of 7.2 and 360 / 14 miss 180 by an ulp; 40 has an odd count of steps
    azimuth_step=st.sampled_from((1.0, 7.2, 360.0 / 14, 40.0, 10.0, 1.2)),
)
# every vertical straight; the least latitude, whose hour lines are 3e7 mm wide
@example(latitude=math.nextafter(90.0, 0.0), scale=S, obliquity=23.44, almucantar_step=1.0,
         azimuth_step=1.0)
@example(latitude=MIN_LATITUDE, scale=S, obliquity=23.44, almucantar_step=1.0, azimuth_step=1.0)
def test_the_plate_is_its_own_mirror_image(latitude, scale, obliquity, almucantar_step,
                                           azimuth_step):
    # the plate is symmetric about its meridian, x -> -x, bit for bit: vertical
    # m - j is the reflection of vertical j by index (the prime vertical, j = 0,
    # and the meridian, j = m/2, are their own), hour line 12 - k that of hour
    # line k, and each almucantar arc's ends are each other's reflection
    model = build_plate(PlateConfig(latitude, scale, obliquity, almucantar_step, azimuth_step))
    m = len(model.azimuths)
    for j, el in enumerate(model.azimuths):
        assert as_drawn(model.azimuths[-j % m]) == mirror_image(el)
    for k, el in enumerate(model.hour_lines):
        assert as_drawn(model.hour_lines[10 - k]) == mirror_image(el)
    for el in model.almucantars[:-1]:
        if isinstance(el, Arc):
            assert el.start_point == mirrored(el.end_point)
    # the elements on the meridian have x == 0.0 exactly
    xs = [c.center.x for c in model.tropics] + [model.almucantars[-1].x]
    xs += [(el.circle if isinstance(el, Arc) else el).center.x for el in model.almucantars[:-1]]
    if isinstance(model.azimuths[0], Arc):
        xs.append(model.azimuths[0].circle.center.x)
    if m % 2 == 0:
        meridian = model.azimuths[m // 2]
        xs += [meridian.a.x, meridian.b.x]
    if model.hour_lines:
        midnight = model.hour_lines[5]
        assert isinstance(midnight, Segment)
        xs += [midnight.a.x, midnight.b.x]
    assert xs == [0.0] * len(xs)


# ---- the library's contract: finite numbers or a documented error ----

# every public function whose required arguments are all floats, with the range entry
# of each of its float arguments in order (the optional ones too); an argument that no
# entry checks (a plate angle, an ecliptic longitude, a polar radius) is drawn from FINITE
FLOAT_FUNCTIONS = {
    "alidade_offset_error": (LENGTH, RADIANS),
    "almucantar_solution": (LATITUDE, ALTITUDE, SCALE),
    "arc_displacement": (SIGNED_LENGTH, SIGNED_LENGTH),
    "arc_displacement_angular": (LENGTH, SIGNED_RADIANS, SIGNED_LENGTH),
    "azimuth_circle": (LATITUDE, FINITE, SCALE),
    "band_misassignment": (LATITUDE, SCALE, ALTITUDE, FRACTION, BAND_STEP),
    "band_spacing": (LATITUDE, SCALE, ALTITUDE, BAND_STEP),
    "declination_from_alt_az": (LATITUDE, ALTITUDE, FINITE),
    "ecliptic_circle": (SCALE, OBLIQUITIES),
    "ecliptic_point": (FINITE, SCALE, OBLIQUITIES),
    "equation_of_center": (FINITE,),
    "from_plate_polar": (FINITE, FINITE),
    "midday_altitude": (DECLINATION, DECLINATION),
    "midday_curve": (LATITUDE, OBLIQUITIES, SCALE),
    "normalize_angle": (FINITE,),
    "solar_declination": (FINITE, OBLIQUITIES),
    "solar_longitude": (FINITE,),
    "solve_altitude_for_azimuth": (LATITUDE, DECLINATION, FINITE),
    "stereographic_radius": (DECLINATION, SCALE),
    "tropic_radii": (SCALE, OBLIQUITIES),
    "zenith_point": (LATITUDE, SCALE),
}


# public functions that take a circle, then floats: the circle is built from the range
# entries of its own fields, its center's x and y and its radius, each drawn from the
# values its entry accepts; the floats after it are drawn as above
CIRCLE_FIELDS = (FINITE, FINITE, Range(0.0, math.inf, True, True, "must be positive"))
CIRCLE_FUNCTIONS = {
    "chord_length": (FINITE, FINITE),
}


def edge_values(domain) -> list[float]:
    """Each end of a range entry with the floats one ulp either side of it,
    and the values that every float input must survive."""
    values = [0.0, -0.0, 5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan]
    for end in (float(domain.lo), float(domain.hi)):
        values += [math.nextafter(end, -math.inf), end, math.nextafter(end, math.inf)]
    return values


def accepted(domain) -> list[float]:
    """The edge values that a range entry lets through."""
    values = []
    for v in edge_values(domain):
        try:
            domain.check(v, "value")
        except ValueError:
            continue
        values.append(v)
    return values


def returned_floats(value):
    """Every float in a returned number, tuple or record, nested ones too."""
    if isinstance(value, float):
        yield value
    elif isinstance(value, _Record):
        yield from returned_floats(value._fields(value))
    elif isinstance(value, tuple):
        for v in value:
            yield from returned_floats(v)
    else:
        assert isinstance(value, str), f"unexpected {type(value).__name__} {value!r}"


def test_the_float_table_holds_every_public_float_function():
    public = set()
    for name in dir(astrolabe):
        function = getattr(astrolabe, name)
        if name.startswith("_") or not inspect.isfunction(function):
            continue
        params = inspect.signature(function).parameters.values()
        required = [p for p in params if p.default is p.empty]
        if required and all(p.annotation in ("float", float) for p in required):
            public.add(name)
            floats = [p for p in params if p.annotation in ("float", float)]
            assert len(FLOAT_FUNCTIONS.get(name, ())) == len(floats), name
        elif (required and required[0].annotation == "Circle"
              and all(p.annotation == "float" for p in required[1:])):
            public.add(name)
            assert len(CIRCLE_FUNCTIONS.get(name, ())) == len(required) - 1, name
    assert public == set(FLOAT_FUNCTIONS) | set(CIRCLE_FUNCTIONS)


@pytest.mark.parametrize("name", sorted(FLOAT_FUNCTIONS) + sorted(CIRCLE_FUNCTIONS))
@settings(REPRODUCIBLE, max_examples=150)
@given(data=st.data())
def test_every_float_function_returns_finite_numbers_or_a_documented_error(name, data):
    # never OverflowError, ZeroDivisionError, TypeError or a nan: those fall through; a
    # ValueError names the input it refuses, as a range entry does: "..., got <value>"
    function = getattr(astrolabe, name)
    if name in CIRCLE_FUNCTIONS:
        fields = data.draw(st.tuples(*(st.sampled_from(accepted(d)) for d in CIRCLE_FIELDS)))
        floats = data.draw(st.tuples(*(st.sampled_from(edge_values(d))
                                       for d in CIRCLE_FUNCTIONS[name])))
        args = (Circle(PlanePoint(*fields[:2]), fields[2]), *floats)
        floats = fields + floats
    else:
        args = floats = data.draw(st.tuples(*(st.sampled_from(edge_values(d))
                                              for d in FLOAT_FUNCTIONS[name])))
    try:
        result = function(*args)
    except ValueError as exc:
        assert any(str(exc).endswith(f", got {v!r}") for v in floats), (
            f"{name}{args}: {exc!r} names no input")
        return
    except AstrolabeError as exc:
        named = [c.__name__ for c in type(exc).__mro__
                 if issubclass(c, AstrolabeError) and c is not AstrolabeError]
        assert any(n in function.__doc__ for n in named), f"{name}{args}: {exc!r} is not documented"
        return
    assert all(map(math.isfinite, returned_floats(result))), f"{name}{args} = {result!r}"


UNIT = Circle(PlanePoint(0.0, 0.0), 1.0)


@pytest.mark.parametrize("call, message", [
    ((from_plate_polar, 10.0, math.inf), "plate angle must be a finite number, got inf"),
    ((from_plate_polar, 10.0, math.nan), "plate angle must be a finite number, got nan"),
    ((from_plate_polar, -math.inf, 10.0), "radius must be a finite number, got -inf"),
    ((chord_length, UNIT, math.inf, 0.0), "theta1 must be a finite number, got inf"),
    ((chord_length, UNIT, 0.0, math.nan), "theta2 must be a finite number, got nan"),
    ((chord_length, UNIT, math.inf, math.inf), "theta1 must be a finite number, got inf"),
    ((chord_length, Circle(PlanePoint(0.0, 0.0), 1e308), 0.0, math.pi),
     "circle radius is too large for a finite chord, got 1e+308"),
])
def test_the_polar_point_and_the_chord_name_what_they_refuse(call, message):
    with pytest.raises(ValueError) as info:
        call[0](*call[1:])
    assert str(info.value) == message
    # finite angles whose difference is beyond the float range still have a chord
    assert chord_length(UNIT, -1e308, 1e308) == 2.0 * abs(math.sin(1e308))
