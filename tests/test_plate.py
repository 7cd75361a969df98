"""Plate geometry: tropics, almucantars, azimuth verticals, hour lines.

The almucantar and hour-line tests rebuild their expected geometry from
the sphere (sampled projection, sunset hour angles) rather than from the
closed forms under test.
"""

import math
import re

import numpy as np
import pytest
from mpmath import mp, mpf

from astrolabe import (
    Arc,
    ArcticLatitude,
    Circle,
    DomainError,
    PlanePoint,
    PlateConfig,
    Segment,
    SphereCircleSpec,
    SpherePoint,
    almucantar_solution,
    azimuth_circle,
    build_plate,
    chord_length,
    circle_circle_intersection,
    fit_circle,
    hour_lines,
    project_point,
    render_svg,
    sample_sphere_circle,
    stereographic_radius,
    tropic_circles,
    tropic_radii,
    zenith_point,
)
from astrolabe.plate import (
    MIN_LATITUDE,
    MIN_STEP,
    STRAIGHT_REL,
    TOUCH_DEG,
    crossing_hour_angle,
    night_hours,
)
from test_geometry import arc_holds, arc_point, as_drawn, mirror_image

S = 100.0


def sampled_almucantar_fit(latitude, altitude, scale, n=90):
    """Project n samples of the true spherical altitude circle and fit.
    Independent of the meridian-crossing closed form."""
    spec = SphereCircleSpec(latitude, 0.0, 90.0 - altitude)
    pts = [project_point(p, scale) for p in sample_sphere_circle(spec, n)]
    return fit_circle(pts)


def sunset_hour_angle(latitude, dec):
    """Hour angle of the western horizon crossing, degrees in (0, 180)."""
    c = -math.tan(math.radians(latitude)) * math.tan(math.radians(dec))
    return math.degrees(math.acos(c))


def night_division_points(latitude, dec, scale):
    """The 13 points dividing the below-horizon arc of the dec circle
    into 12 equal hours, from sunset eastward, straight off the sphere."""
    h_set = sunset_hour_angle(latitude, dec)
    step = (360.0 - 2.0 * h_set) / 12.0
    return [
        project_point(SpherePoint(dec, h_set + k * step), scale) for k in range(13)
    ]


def test_tropic_radii_closed_form():
    eps = 23.44
    cap, eq, can = tropic_radii(S, eps)
    assert eq == S
    # Capricorn (southern tropic) projects outermost from the south pole
    assert cap == pytest.approx(S * math.tan(math.radians(45.0 + eps / 2.0)), rel=1e-15)
    assert can == pytest.approx(S * math.tan(math.radians(45.0 - eps / 2.0)), rel=1e-15)
    assert can < eq < cap
    with pytest.raises(ValueError):
        tropic_radii(0.0, eps)
    with pytest.raises(ValueError):
        tropic_radii(S, 30.0)


def test_tropic_circles_concentric():
    cfg = PlateConfig(latitude=40.0, scale=S)
    cap, eq, can = tropic_circles(cfg)
    for c in (cap, eq, can):
        assert c.center.x == 0.0 and c.center.y == 0.0
    assert (cap.radius, eq.radius, can.radius) == tropic_radii(S, cfg.obliquity)


def test_almucantar_matches_sampled_projection():
    # sparse grid here; the full grid runs in the acceptance suite
    for phi in (15.0, 40.0, 65.0):
        for h in (0.0, 15.0, 45.0, 75.0):
            sol = almucantar_solution(phi, h, S)
            fit = sampled_almucantar_fit(phi, h, S)
            assert fit.circle.center.distance_to(sol.circle.center) < 1e-9 * S
            assert abs(fit.circle.radius - sol.radius) < 1e-9 * S
            assert fit.rms_residual < 1e-9 * S


def test_almucantar_meridian_crossings_are_extremes():
    sol = almucantar_solution(35.0, 20.0, S)
    assert sol.y_upper > sol.y_lower
    assert sol.y_center == pytest.approx((sol.y_upper + sol.y_lower) / 2.0)
    assert sol.radius == pytest.approx((sol.y_upper - sol.y_lower) / 2.0)
    # both crossings sit on the sampled circle
    fit = sampled_almucantar_fit(35.0, 20.0, S, n=180)
    for y in (sol.y_upper, sol.y_lower):
        assert abs(fit.circle.signed_distance(PlanePoint(0.0, y))) < 1e-9 * S


def test_horizon_radius_identity():
    for phi in np.arange(5.0, 90.0, 5.0):
        sol = almucantar_solution(float(phi), 0.0, S)
        want = S / math.sin(math.radians(float(phi)))
        assert sol.radius == pytest.approx(want, rel=1e-12)


def test_almucantar_zenith_raises():
    with pytest.raises(DomainError):
        almucantar_solution(40.0, 90.0, S)


def test_zenith_point_closed_form():
    for phi in (10.0, 40.0, 80.0):
        z = zenith_point(phi, S)
        assert z.x == 0.0
        assert z.y == pytest.approx(S * math.tan(math.radians(45.0 - phi / 2.0)), rel=1e-15)


def test_azimuth_circles_pass_through_zenith_and_nadir():
    for phi in (10.0, 30.0, 50.0, 70.0):
        zen = zenith_point(phi, S)
        nad = PlanePoint(0.0, -S * math.tan(math.radians(45.0 + phi / 2.0)))
        for a in np.arange(0.0, 180.0, 10.0):
            if abs(math.cos(math.radians(float(a)))) < 1e-11:
                continue
            c = azimuth_circle(phi, float(a), S)
            assert abs(c.signed_distance(zen)) < 1e-9 * S
            assert abs(c.signed_distance(nad)) < 1e-9 * S


def test_azimuth_meridian_raises():
    for a in (90.0, 270.0):
        with pytest.raises(DomainError):
            azimuth_circle(40.0, a, S)


def test_night_hours_span_below_horizon():
    phi = 40.0
    horizon = almucantar_solution(phi, 0.0, S).circle
    hours = night_hours(phi, 0.0)
    # from the sunset hour angle off the sphere westward to sunrise, through midnight
    h_set = sunset_hour_angle(phi, 0.0)
    assert hours[0] == pytest.approx(h_set, abs=1e-12)
    assert hours[12] == pytest.approx(360.0 - h_set, abs=1e-12)
    assert hours[6] == pytest.approx(180.0, abs=1e-12)
    west, east = (project_point(SpherePoint(0.0, h), S) for h in (hours[0], hours[12]))
    for p in (west, east):
        assert abs(horizon.signed_distance(p)) < 1e-9
    assert west.x > 0.0 > east.x


def test_night_hours_arctic_raises():
    with pytest.raises(ArcticLatitude):
        night_hours(75.0, 23.44)
    with pytest.raises(ArcticLatitude):
        hour_lines(PlateConfig(latitude=75.0, scale=S))


def test_hour_lines_pass_through_division_points():
    cfg = PlateConfig(latitude=40.0, scale=S)
    lines = hour_lines(cfg)
    assert len(lines) == 11  # lines[k - 1] is boundary k
    decs = (-cfg.obliquity, 0.0, cfg.obliquity)
    division = [night_division_points(cfg.latitude, d, S) for d in decs]
    for k, hl in enumerate(lines, start=1):
        pts = [division[i][k] for i in range(3)]
        if isinstance(hl, Segment):
            continue
        circ = hl.circle
        for p in pts:
            assert abs(circ.signed_distance(p)) < 1e-9
            assert arc_holds(hl, p)
        # arc runs from the Capricorn point to the Cancer point
        assert hl.start_point.distance_to(pts[0]) < 1e-9
        assert hl.end_point.distance_to(pts[2]) < 1e-9


def test_hour_line_midnight_degenerates_to_segment():
    lines = hour_lines(PlateConfig(latitude=40.0, scale=S))
    assert len(lines) == 11
    sixth = lines[6 - 1]
    assert isinstance(sixth, Segment)
    # the midnight boundary lies on the meridian
    assert abs(sixth.a.x) < 1e-9
    assert abs(sixth.b.x) < 1e-9
    assert not any(isinstance(hl, Segment) for k, hl in enumerate(lines, 1) if k != 6)


def test_equator_night_divisions_have_equal_chords():
    eq = Circle(PlanePoint(0.0, 0.0), S)
    # plate angles, counterclockwise from +x, of the hour angles
    angles = [math.radians(90.0 - h) for h in night_hours(40.0, 0.0)]
    chords = [chord_length(eq, a, b) for a, b in zip(angles, angles[1:])]
    for c in chords:
        assert c == pytest.approx(chords[0], abs=1e-9)


def test_hour_lines_arctic_latitude_raises():
    with pytest.raises(ArcticLatitude):
        hour_lines(PlateConfig(latitude=70.0, scale=S))


def test_build_plate_arctic_drops_hour_lines():
    model = build_plate(PlateConfig(latitude=70.0, scale=S))
    assert model.hour_lines == ()
    assert len(model.almucantars) > 0


def test_build_plate_structure():
    cfg = PlateConfig(latitude=40.0, scale=S, almucantar_step=10.0, azimuth_step=10.0)
    model = build_plate(cfg)
    assert model.boundary.radius == pytest.approx(stereographic_radius(-cfg.obliquity, S))
    # ten almucantar entries at step 10: almucantars[k] lies on the
    # altitude-10k circle, and the last is the zenith marker
    assert len(model.almucantars) == 10
    for k, el in enumerate(model.almucantars[:-1]):
        circle = el.circle if isinstance(el, Arc) else el
        assert circle == almucantar_solution(cfg.latitude, 10.0 * k, S).circle
    assert isinstance(model.almucantars[-1], PlanePoint)
    zen = zenith_point(cfg.latitude, S)
    assert model.almucantars[-1].distance_to(zen) < 1e-12
    # eighteen azimuth verticals covering [0, 180): azimuths[j] lies on
    # the azimuth-10j circle, and azimuths[9] is the meridian
    assert len(model.azimuths) == 18
    for j, el in enumerate(model.azimuths):
        if j != 9:
            assert el.circle == azimuth_circle(cfg.latitude, 10.0 * j, S)
    meridian = model.azimuths[9]
    assert isinstance(meridian, Segment)
    assert meridian.a.x == 0.0 and meridian.b.x == 0.0
    assert len(model.hour_lines) == 11


@pytest.mark.parametrize("field", ["almucantar_step", "azimuth_step"])
def test_grid_steps_below_one_arcminute_are_refused(field):
    # refused by the config, before any grid is built: 5e-324 once overflowed
    # a round(), and 1e-9 would draw 9e10 almucantars
    for step in (5e-324, 1e-300, 1e-9, math.nextafter(MIN_STEP, 0.0)):
        with pytest.raises(ValueError, match=re.escape(
                f"{field} must be at least 1/60 degree (one arcminute), got {step!r}")):
            PlateConfig(latitude=40.0, scale=S, **{field: step})
    assert getattr(PlateConfig(latitude=40.0, scale=S, **{field: MIN_STEP}), field) == MIN_STEP


@pytest.mark.parametrize("latitude", [0.001, 0.01, 0.1])
def test_the_meridian_ends_in_the_north_at_the_horizons_closed_form(latitude):
    # the horizon's center minus its radius cancels at its size (5.7e6 mm at
    # lat 0.001); y_lower = -s tan(phi / 2) does not
    meridian = build_plate(PlateConfig(latitude=latitude, scale=S)).azimuths[9]
    north = almucantar_solution(latitude, 0.0, S).y_lower
    assert meridian.a == PlanePoint(0.0, north)
    with mp.workdps(50):
        assert abs(mpf(north) + S * mp.tan(mp.radians(mpf(latitude)) / 2)) <= 1e-12


@pytest.mark.parametrize("step, verticals", [(7.2, 25), (360.0 / 14, 7), (0.05, 3600)])
def test_one_element_per_distinct_vertical(step, verticals):
    # multiples of these steps miss 180 by an ulp (25 * 7.2 % 180 is
    # 7.200000000000017), so a set of the values holds some verticals twice
    model = build_plate(PlateConfig(latitude=40.0, scale=S, azimuth_step=step))
    assert len(model.azimuths) == verticals


@pytest.mark.parametrize("step", [7.2, 360.0 / 14, 2.4, 360.0 / 7, 1.0, 5.0, 10.0, 15.0])
def test_each_vertical_keeps_its_value_bit_for_bit(step):
    # the values sorted({k * step % 180}) drew before duplicates were
    # dropped; of each run within 1e-9 degree (those near 180 join 0's),
    # the western vertical keeps the one of smallest k
    n = int(round(360.0 / step))
    multiples = sorted(((k * step) % 180.0, k) for k in range(n))
    groups = []
    for a, k in multiples:
        if a > 180.0 - 1e-9:
            continue  # the same vertical as k = 0
        if groups and a - groups[-1][-1][0] < 1e-9:
            groups[-1].append((a, k))
        else:
            groups.append([(a, k)])
    kept = [min(g, key=lambda ak: ak[1])[0] for g in groups]
    model = build_plate(PlateConfig(latitude=40.0, scale=S, azimuth_step=step))
    m = len(kept)
    assert len(model.azimuths) == m
    for j, (a, el) in enumerate(zip(kept, model.azimuths)):
        if 2 * j > m:
            # an eastern vertical is the exact reflection of its western twin
            # m - j, whose value is 180 - A to rounding, by index
            assert abs((180.0 - a) - kept[m - j]) < 1e-9
            assert as_drawn(el) == mirror_image(model.azimuths[m - j])
        elif isinstance(el, Segment):
            assert abs(math.cos(math.radians(a))) < 1e-11  # the meridian
        else:
            assert el.circle == azimuth_circle(40.0, a, S)


def test_build_plate_azimuth_arcs_end_on_horizon_or_boundary():
    cfg = PlateConfig(latitude=40.0, scale=S)
    model = build_plate(cfg)
    horizon = almucantar_solution(cfg.latitude, 0.0, S).circle
    for az in model.azimuths:
        if not isinstance(az, Arc):
            continue
        for p in (az.start_point, az.end_point):
            on_horizon = abs(horizon.signed_distance(p)) < 1e-6
            on_boundary = abs(model.boundary.signed_distance(p)) < 1e-6
            assert on_horizon or on_boundary


def test_build_plate_elements_stay_inside_boundary():
    cfg = PlateConfig(latitude=30.0, scale=S)
    model = build_plate(cfg)
    tol = 1e-6
    for el in model.almucantars:
        if isinstance(el, PlanePoint):
            assert model.boundary.signed_distance(el) <= tol
        elif isinstance(el, Arc):
            for t in np.linspace(0.0, 1.0, 33):
                assert model.boundary.signed_distance(arc_point(el, float(t))) <= tol
        elif isinstance(el, Circle):
            d = el.center.distance_to(model.boundary.center) + el.radius
            assert d <= model.boundary.radius + tol


def test_almucantars_end_at_their_boundary_crossings():
    # lat 40: the horizon and the almucantars up to 90 - 40 - 23.44 = 26.56
    # degrees cross the boundary, the higher ones lie inside it
    model = build_plate(PlateConfig(latitude=40.0, scale=S, almucantar_step=5.0))
    boundary = model.boundary
    for k, el in enumerate(model.almucantars[:-1]):
        circle = almucantar_solution(40.0, 5.0 * k, S).circle
        if 5.0 * k > 90.0 - 40.0 - 23.44:
            assert el == circle
            continue
        assert isinstance(el, Arc) and el.circle == circle
        for p in (el.start_point, el.end_point):
            assert abs(boundary.signed_distance(p)) < 1e-9
        # from the eastern crossing counterclockwise through the north point
        assert el.start_point.x < 0.0 < el.end_point.x
        assert arc_holds(el, PlanePoint(circle.center.x, circle.center.y - circle.radius))
        assert boundary.signed_distance(arc_point(el, 0.5)) < 0.0


def test_plate_config_validation():
    with pytest.raises(ValueError):
        PlateConfig(latitude=0.0, scale=S)
    with pytest.raises(ValueError):
        PlateConfig(latitude=90.0, scale=S)
    with pytest.raises(ValueError):
        PlateConfig(latitude=40.0, scale=-1.0)
    with pytest.raises(ValueError):
        PlateConfig(latitude=40.0, scale=S, almucantar_step=7.0)
    with pytest.raises(ValueError):
        PlateConfig(latitude=40.0, scale=S, azimuth_step=11.0)
    with pytest.raises(ValueError):
        PlateConfig(latitude=40.0, scale=S, obliquity=0.0)


# obliquities for the tangent families below
OBLIQUITIES = (1.0, 5.0, 10.0, 12.5, 15.0, 20.0, 23.44, 25.0, 27.5, 29.0)


def tangent_plates(step=5.0):
    """(k, plate) at each latitude 90 - obliquity - k * step, where the
    altitude-(k * step) almucantar touches the Capricorn boundary at the
    south point from inside: the latitude as that float difference, and
    as the decimal a user types (26.56 for obliquity 23.44 and altitude
    40), which misses the touch by the rounding of the decimals."""
    for obliquity in OBLIQUITIES:
        for k in range(1, int(round(90.0 / step))):
            difference = 90.0 - obliquity - k * step
            for latitude in sorted({difference, round(difference, 9)}):
                if latitude >= MIN_LATITUDE:
                    cfg = PlateConfig(latitude, S, obliquity, almucantar_step=step)
                    yield k, build_plate(cfg)


def test_an_almucantar_touching_the_boundary_is_a_whole_circle():
    for k, model in tangent_plates():
        assert isinstance(model.almucantars[k], Circle)
    # the configuration that printed a 3e-8 rad sliver, touching at one point
    cfg = PlateConfig(latitude=40.0, scale=S, obliquity=25.0)
    circle = almucantar_solution(40.0, 25.0, S).circle
    assert len(circle_circle_intersection(circle, tropic_circles(cfg)[0])) == 1
    # 0.5 + 77 = 90 - 12.5: the 77-degree almucantar, once a near-full arc
    model = build_plate(PlateConfig(0.5, S, 12.5, almucantar_step=1.0))
    assert model.almucantars[77] == almucantar_solution(0.5, 77.0, S).circle


def test_a_crossing_within_rounding_of_a_touch_is_a_touch():
    # typed as decimals, 26.56 + 23.44 + 40 is 90 - 2^-48: the 40-degree
    # almucantar is drawn whole, not as an arc whose ends print as one point
    assert ((90.0 - 23.44) - 40.0) - 26.56 == 2.0**-48
    model = build_plate(PlateConfig(26.56, S))
    assert model.almucantars[8] == almucantar_solution(26.56, 40.0, S).circle
    # TOUCH_DEG is the edge: closer is a touch, farther a crossing
    assert crossing_hour_angle(26.56 - TOUCH_DEG / 2, -23.44, 40.0) is None
    assert 0.0 < crossing_hour_angle(26.56 - 1e-10, -23.44, 40.0) < 1e-3
    assert isinstance(build_plate(PlateConfig(26.56 - 1e-10, S)).almucantars[8], Arc)
    # the Tropic of Cancer touches the horizon at the lower meridian at
    # the arctic limit, where the cosine's difference reaches 180
    assert crossing_hour_angle(90.0 - 23.44 - TOUCH_DEG / 2, 23.44) is None
    assert 179.99 < crossing_hour_angle(90.0 - 23.44 - 1e-10, 23.44) < 180.0


def test_prime_vertical_is_drawn_where_the_nadir_is_on_the_boundary():
    # at latitude = obliquity the nadir lies on the Tropic of Capricorn
    for obliquity in OBLIQUITIES:
        model = build_plate(PlateConfig(obliquity, S, obliquity, azimuth_step=10.0))
        assert len(model.azimuths) == 18
        prime = model.azimuths[0]
        assert prime.circle == azimuth_circle(obliquity, 0.0, S)
        assert arc_holds(prime, zenith_point(obliquity, S))


def test_no_plate_path_starts_where_it_ends():
    for step in (5.0, 1.0):
        for _, model in tangent_plates(step):
            for start, end in re.findall(r'<path d="M (\S+ \S+) A .* (\S+ \S+)"/>',
                                         render_svg(model)):
                assert start != end


@pytest.mark.parametrize("latitude, obliquity", [(40.0, 1e-6), (0.001, 0.05), (40.0, 1e-300)])
def test_hour_lines_of_nearly_coincident_tropics(latitude, obliquity):
    # the three points of a boundary lie on a line (midnight), or all
    # coincide: the boundary is the straight segment
    lines = hour_lines(PlateConfig(latitude, S, obliquity))
    assert len(lines) == 11
    assert any(isinstance(hl, Segment) for hl in lines)
    assert all(isinstance(hl, (Arc, Segment)) for hl in lines)


def horizon_point(latitude, azimuth, scale):
    """The plate point at altitude 0 and compass azimuth (from north
    through east), from its equatorial components."""
    phi, a = math.radians(latitude), math.radians(azimuth)
    pole, meridian, east = math.cos(phi) * math.cos(a), -math.sin(phi) * math.cos(a), math.sin(a)
    dec = math.degrees(math.atan2(pole, math.hypot(meridian, east)))
    return project_point(SpherePoint(dec, math.degrees(math.atan2(-east, meridian))), scale)


def test_verticals_near_the_pole_are_straight_through_the_zenith():
    # an azimuth circle's radius grows as 1 / (cos(latitude) cos(A)); over
    # STRAIGHT_REL boundary radii the vertical is the segment between its
    # ends, which near the pole lie on the horizon
    for latitude, straight in ((89.99, {88, 89, 90, 91, 92}),
                               (math.nextafter(90.0, 0.0), set(range(180)))):
        model = build_plate(PlateConfig(latitude, S, azimuth_step=1.0))
        assert len(model.azimuths) == 180
        assert {a for a, el in enumerate(model.azimuths) if isinstance(el, Segment)} == straight
        horizon = almucantar_solution(latitude, 0.0, S).circle
        zen = zenith_point(latitude, S)
        for a in straight - {90}:
            el = model.azimuths[a]
            assert azimuth_circle(latitude, a, S).radius > STRAIGHT_REL * model.boundary.radius
            # the closed-form crossings of compass azimuths 90 - A and 270 - A
            assert el.a.distance_to(horizon_point(latitude, 90.0 - a, S)) < 1e-9
            assert el.b.distance_to(horizon_point(latitude, 270.0 - a, S)) < 1e-9
            ux, uy = math.cos(math.radians(a)), math.sin(math.radians(a))
            for p in (el.a, el.b):
                assert abs(horizon.signed_distance(p)) < 1e-9
                # within 5e-6 radii of the vertical's tangent at the zenith
                assert abs(ux * (p.y - zen.y) - uy * (p.x - zen.x)) < 5e-6 * model.boundary.radius
                if latitude == 89.99:  # on the circle, to the rounding of its radius
                    circle = azimuth_circle(latitude, a, S)
                    assert abs(circle.signed_distance(p)) < 1e-14 * circle.radius


def test_hour_lines_reach_the_arctic_limit():
    # 1e-9 degree below the arctic limit the Tropic of Cancer sets for a
    # night arc some 1e-3 mm long, which still divides into hours
    cfg = PlateConfig(latitude=90.0 - 23.44 - 1e-9, scale=S)
    horizon = almucantar_solution(cfg.latitude, 0.0, S).circle
    hours = night_hours(cfg.latitude, cfg.obliquity)
    assert 0.0 < hours[12] - hours[0] < 1e-2
    for h in (hours[0], hours[12]):
        assert abs(horizon.signed_distance(project_point(SpherePoint(cfg.obliquity, h), S))) < 1e-9
    assert len(hour_lines(cfg)) == 11
    assert len(build_plate(cfg).hour_lines) == 11


@pytest.mark.parametrize("latitude, obliquity", [
    (MIN_LATITUDE, 23.44), (40.0, 23.44), (40.0, 1e-300), (90.0 - 23.44 - 1e-9, 23.44),
    (52.5, 29.9), (89.0, 0.5)])
def test_the_plates_hour_lines_are_hour_lines_from_its_own_tropics(latitude, obliquity):
    # build_plate hands the radii of its tropic circles to the hour-line kernel
    cfg = PlateConfig(latitude, 37.5, obliquity)
    assert build_plate(cfg).hour_lines == hour_lines(cfg)
