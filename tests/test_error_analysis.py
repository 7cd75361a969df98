"""Engraving-error propagation: closed-form budgets, band
misassignment, chord diagnosis, Monte Carlo readout statistics."""

import gc
import importlib.util
import math
import re
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp, mpf

import astrolabe
import astrolabe.error_analysis as ea
from astrolabe import (
    Arc,
    ArcticLatitude,
    Circle,
    CollinearPoints,
    DomainError,
    PlanePoint,
    PlateConfig,
    PerturbationSpec,
    ScenarioInfeasible,
    alidade_offset_error,
    alidade_rotation_error,
    arc_displacement,
    arc_displacement_angular,
    band_misassignment,
    band_spacing,
    monte_carlo_readout,
    quadrant_chord_diagnosis,
)
from astrolabe.error_analysis import SCENARIOS, _read_altitude, _sun_altitude, trial_draws
from astrolabe.geometry import COLLINEAR_AREA_REL, circle_circle_intersection, circumcircle
from astrolabe.plate import almucantar_solution, night_hours, tropic_circles, zenith_point
from astrolabe.projection import FRACTION, from_plate_polar, plate_angle_deg, stereographic_radius
from test_geometry import point_at

# section-4 style worked configuration: 150 mm plate
S4 = 49.228324
PHI4 = 22.693533


def y_lower(latitude, altitude, scale):
    """Northern meridian crossing of an almucantar, straight from the
    half-angle form."""
    return -scale * math.tan(math.radians((latitude - altitude) / 2.0))


def test_alidade_budget_terms():
    assert alidade_offset_error(150.0, 0.02) == pytest.approx(0.75)
    assert alidade_rotation_error(0.4, "deg") == pytest.approx(0.1)
    with pytest.raises(ValueError):
        alidade_offset_error(-1.0, 0.1)
    with pytest.raises(ValueError):
        alidade_offset_error(150.0, -0.1)
    with pytest.raises(ValueError):
        alidade_rotation_error(-0.4, "deg")
    with pytest.raises(ValueError, match="unit must be one of 'mm', 'deg', 'rad', got 'grad'"):
        alidade_rotation_error(0.4, "grad")


def test_arc_displacement_quadrature():
    assert arc_displacement(3.0, 4.0) == pytest.approx(5.0)
    assert arc_displacement(0.0, 0.7) == pytest.approx(0.7)
    # the angular form reduces to the tangential form exactly
    rng = np.random.default_rng(7)
    for _ in range(100):
        p = float(rng.uniform(1.0, 200.0))
        da = float(rng.uniform(0.0, 0.05))
        dp = float(rng.uniform(0.0, 2.0))
        assert arc_displacement_angular(p, da, dp) == arc_displacement(p * da, dp)


def test_band_spacing_matches_meridian_crossings():
    for h in (0.0, 6.0, 15.0, 30.0):
        for step in (3.0, 6.0):
            want = abs(y_lower(PHI4, h + step, S4) - y_lower(PHI4, h, S4))
            assert band_spacing(PHI4, S4, h, step) == pytest.approx(want, rel=1e-12)


def test_band_spacing_ends_the_top_band_on_the_zenith():
    want = abs(zenith_point(40.0, 100.0).y - almucantar_solution(40.0, 87.0, 100.0).y_lower)
    assert band_spacing(40.0, 100.0, 87.0, 3.0) == pytest.approx(want, rel=1e-12)
    with pytest.raises(DomainError, match="zenith"):
        band_spacing(40.0, 100.0, 90.0, 3.0)


def test_band_spacing_reference_values():
    assert band_spacing(PHI4, S4, 0.0, 3.0) == pytest.approx(1.333988, abs=1e-5)
    assert band_spacing(PHI4, S4, 0.0, 6.0) == pytest.approx(2.655905, abs=1e-5)


def test_band_misassignment_two_percent_horizon():
    # a 2 percent radius error on the horizon circle jumps one 3-degree
    # band: 2.55 mm displacement against 1.33 mm band spacing
    disp, band = band_misassignment(PHI4, S4, 0.0, 0.02, 3.0)
    assert disp == pytest.approx(2.552, abs=2e-3)
    assert band == 3.0


def test_band_misassignment_small_error_stays_put():
    disp, band = band_misassignment(PHI4, S4, 0.0, 0.005, 3.0)
    assert disp < band_spacing(PHI4, S4, 0.0, 3.0)
    assert band == 0.0


def test_band_misassignment_scales_with_error():
    _, band_large = band_misassignment(PHI4, S4, 0.0, 0.05, 3.0)
    assert band_large >= 6.0


@pytest.mark.parametrize("step", [0.0, 1e-300, 5e-10, -3.0, math.nan, math.inf])
def test_band_step_must_be_a_finite_step_of_at_least_1e_9_degrees(step):
    with pytest.raises(ValueError, match="band step"):
        band_misassignment(PHI4, S4, 0.0, 0.02, step)
    with pytest.raises(ValueError, match="band step"):
        band_spacing(PHI4, S4, 0.0, step)


def test_band_misassignment_lands_without_a_search(monkeypatch):
    # 600,000 bands of 1e-4 degrees lie above 30, 17,257 of them below the
    # band read: the closed form lands on it, and the crossing test only
    # confirms it (bands m and m + 1, a rounding step aside)
    calls = []
    crossing = ea._y_lower
    monkeypatch.setattr(ea, "_y_lower", lambda *a: calls.append(a) or crossing(*a))
    disp, band = band_misassignment(40.0, 100.0, 30.0, 0.02, 1e-4)
    assert len(calls) <= 3
    assert abs(y_lower(40.0, band, 100.0) - y_lower(40.0, 30.0, 100.0)) <= disp
    assert abs(y_lower(40.0, band + 1e-4, 100.0) - y_lower(40.0, 30.0, 100.0)) > disp
    # the finest step, one band per 1e-9 degrees, runs as fast
    _, fine = band_misassignment(40.0, 100.0, 30.0, 0.02, 1e-9)
    assert fine == pytest.approx(band, abs=1e-4)
    assert len(calls) <= 6
    with pytest.raises(ValueError, match=re.escape(
            f"radius error fraction {FRACTION.text}, got nan")):
        band_misassignment(40.0, 100.0, 30.0, math.nan, 3.0)


def test_quadrant_chord_diagnosis_cases():
    c = Circle(PlanePoint(0.0, 0.0), 75.0)
    ok = [0.0, 90.0, 180.0, 270.0]
    assert quadrant_chord_diagnosis(c, ok, 1e-6) == "ok"
    # tilting one diameter keeps opposite chords equal
    tilted = [0.0, 80.0, 180.0, 260.0]
    assert quadrant_chord_diagnosis(c, tilted, 1e-6) == "non_horizontal_axis"
    # graduating from an off-center point makes all chords distinct
    eccentric = [0.0, 85.0, 175.0, 280.0]
    assert quadrant_chord_diagnosis(c, eccentric, 1e-6) == "eccentric_graduation"
    mixed = [0.0, 90.0, 185.0, 275.0]
    assert quadrant_chord_diagnosis(c, mixed, 1e-6) == "mixed"
    with pytest.raises(ValueError):
        quadrant_chord_diagnosis(c, [0.0, 90.0, 180.0], 1e-6)
    for tol in (-1e-6, math.nan, math.inf):
        with pytest.raises(ValueError, match="tolerance"):
            quadrant_chord_diagnosis(c, ok, tol)


def test_quadrant_chord_diagnosis_rotation_invariant():
    c = Circle(PlanePoint(0.0, 0.0), 75.0)
    cases = {
        "ok": [0.0, 90.0, 180.0, 270.0],
        "non_horizontal_axis": [0.0, 80.0, 180.0, 260.0],
        "eccentric_graduation": [0.0, 85.0, 175.0, 280.0],
    }
    rng = np.random.default_rng(11)
    for label, marks in cases.items():
        for rot in rng.uniform(0.0, 360.0, size=12):
            rotated = [m + float(rot) for m in marks]
            assert quadrant_chord_diagnosis(c, rotated, 1e-6) == label


@pytest.mark.parametrize(
    "call",
    [
        lambda: alidade_offset_error(math.nan, 0.1),
        lambda: alidade_offset_error(150.0, math.nan),
        lambda: alidade_offset_error(math.inf, 0.1),
        lambda: alidade_rotation_error(math.nan, "mm"),
        lambda: arc_displacement_angular(math.nan, 0.1, 0.2),
        lambda: arc_displacement(math.nan, 0.4),
        lambda: arc_displacement(0.3, math.inf),
        lambda: band_spacing(40.0, math.nan, 10.0),
        lambda: almucantar_solution(40.0, 10.0, math.nan),
        lambda: astrolabe.tropic_radii(math.nan, 23.44),
        lambda: stereographic_radius(10.0, math.nan),
        lambda: astrolabe.axis_projection_radius(10.0, astrolabe.STEREOGRAPHIC, math.inf),
        lambda: astrolabe.solar_declination(math.nan),
        lambda: astrolabe.solar_declination(10.0, math.inf),
    ],
)
def test_library_guards_refuse_nan_and_inf(call):
    with pytest.raises(ValueError):
        call()


def test_perturbation_spec_validation():
    with pytest.raises(ValueError):
        PerturbationSpec(center_sigma=-0.1)
    with pytest.raises(ValueError):
        PerturbationSpec(seed=-1)
    with pytest.raises(ValueError):
        PerturbationSpec(seed=1.5)
    for bad in (math.nan, math.inf, -math.inf):
        for field in ("center_sigma", "radius_sigma", "graduation_sigma"):
            with pytest.raises(ValueError, match="finite"):
                PerturbationSpec(**{field: bad})


CFG = PlateConfig(latitude=40.0, scale=100.0)


def test_monte_carlo_trial_count_has_a_floor_and_a_ceiling(monkeypatch):
    # the count is read before any work: no trial is drawn
    monkeypatch.setattr(ea, "trial_draws", lambda *a: pytest.fail("a trial was drawn"))
    for n_trials in (0, -1, ea.MAX_TRIALS + 1):
        with pytest.raises(ValueError, match=re.escape(
                f"n_trials must lie in [1, {ea.MAX_TRIALS}], got {n_trials}")):
            monte_carlo_readout(CFG, PerturbationSpec(), "altitude", 10.0, 40.0, n_trials)


def test_monte_carlo_zero_sigma_is_exactly_zero():
    pert = PerturbationSpec(0.0, 0.0, 0.0, seed=0)
    for scenario in ("altitude", "time_to_sunset"):
        rep = monte_carlo_readout(CFG, pert, scenario, 10.0, 40.0, n_trials=20)
        assert rep.mean == 0.0
        assert rep.std == 0.0
        assert rep.max_abs == 0.0
        assert rep.samples == tuple([0.0] * 20)


def test_monte_carlo_deterministic_across_runs_and_workers():
    pert = PerturbationSpec(0.05, 0.05, 0.05, seed=42)
    a = monte_carlo_readout(CFG, pert, "time_to_sunset", 10.0, 40.0, n_trials=60)
    b = monte_carlo_readout(CFG, pert, "time_to_sunset", 10.0, 40.0, n_trials=60)
    assert a.samples == b.samples
    assert a.std == b.std
    assert a.n_trials == 60 and a.classification == "ok"


def perturbed_field(cfg, pert, n_trials):
    """Grid altitudes and each trial's perturbed almucantar center x,
    center y and radius, from the draws monte_carlo_readout makes."""
    step = cfg.almucantar_step
    grid = np.array([k * step for k in range(int(round(90.0 / step)))])
    sols = [almucantar_solution(cfg.latitude, h, cfg.scale) for h in grid]
    n = len(grid)
    draws = np.array([trial_draws(pert.seed, i, 3 * n + 75) for i in range(n_trials)])
    sc, sr = pert.center_sigma, pert.radius_sigma
    cx = sc * draws[:, :n]
    cy = np.array([m.y_center for m in sols]) + sc * draws[:, n : 2 * n]
    r = np.array([m.radius for m in sols]) + sr * draws[:, 2 * n : 3 * n]
    return grid, cx, cy, r


def bisected_altitude(point, grid, cx, cy, r):
    """Reference readout: plain bisection on the interpolated
    g(h) = |p - c(h)| - r(h) over the first grid bracket where g rises
    through zero; None when there is no such bracket."""

    def g(h):
        x, y = np.interp(h, grid, cx), np.interp(h, grid, cy)
        return math.hypot(point.x - x, point.y - y) - np.interp(h, grid, r)

    values = [g(h) for h in grid]
    for k in range(len(grid) - 1):
        if values[k] <= 0.0 <= values[k + 1]:
            break
    else:
        return None
    lo, hi = float(grid[k]), float(grid[k + 1])
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if g(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("latitude", (10.0, 25.0, 40.0, 60.0))
@pytest.mark.parametrize("step", (1.0, 2.0, 3.0, 5.0, 10.0))
def test_read_altitude_matches_bisection_reference(scenario, latitude, step):
    cfg = PlateConfig(latitude=latitude, scale=100.0, almucantar_step=step)
    for sigma in (0.0, 0.01, 0.1, 1.0):
        for seed, (dec, hour) in enumerate(((10.0, 40.0), (-15.0, 20.0))):
            # the scene can be set for this scenario
            quiet = PerturbationSpec(seed=seed)
            assert monte_carlo_readout(cfg, quiet, scenario, dec, hour, 1).samples == (0.0,)
            pert = PerturbationSpec(sigma, sigma, sigma, seed=seed)
            grid, cx, cy, r = perturbed_field(cfg, pert, 20)
            sun = from_plate_polar(stereographic_radius(dec, cfg.scale), hour)
            for i in range(20):
                got = _read_altitude(sun.x, sun.y, grid.tolist(), cx[i].tolist(),
                                     cy[i].tolist(), r[i].tolist())
                want = bisected_altitude(sun, grid, cx[i], cy[i], r[i])
                assert want is not None and got == pytest.approx(want, abs=1e-9)


def line_circle(a, b, radius):
    """Intersections of the line a-b with the circle |p| = radius."""
    dx, dy = b.x - a.x, b.y - a.y
    qa = dx * dx + dy * dy
    qb = 2.0 * (a.x * dx + a.y * dy)
    qc = a.x * a.x + a.y * a.y - radius * radius
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0.0:
        return ()
    sq = math.sqrt(disc)
    ts = ((-qb - sq) / (2.0 * qa), (-qb + sq) / (2.0 * qa))
    return tuple(PlanePoint(a.x + t * dx, a.y + t * dy) for t in ts)


def night_arc(circle, horizon):
    """Below-horizon arc of a pole-centered circle, from its western
    (setting) horizon crossing clockwise to the eastern one, found by
    intersecting the two plane circles: a route to the graduation
    independent of the sunrise equation the readout uses.  Raises
    ArcticLatitude where they do not cross at two points."""
    pts = circle_circle_intersection(circle, horizon)
    if len(pts) < 2:
        raise ArcticLatitude("a tropic does not cross the horizon at this latitude; "
                             "hour lines are undefined")
    west = max(pts, key=lambda p: p.x)
    east = min(pts, key=lambda p: p.x)
    return Arc(circle, west, east, "cw")


def divide_arc_equal(arc, n):
    """The n + 1 points that divide an arc into n equal angular parts,
    from its start point to its end point, both as stored."""
    start = arc.circle.angle_of(arc.start_point)
    inner = [point_at(arc.circle, start + arc.sweep * k / n) for k in range(1, n)]
    return [arc.start_point, *inner, arc.end_point]


def night_arc_hours(cfg, dec):
    """The 13 hour angles (degrees) dividing the night arc of the
    declination circle into 12 equal parts, from sunset: night_arc's
    arc between the plane crossings of the circle and the horizon."""
    circle = Circle(PlanePoint(0.0, 0.0), stereographic_radius(dec, cfg.scale))
    arc = night_arc(circle, almucantar_solution(cfg.latitude, 0.0, cfg.scale).circle)
    start = arc.circle.angle_of(arc.start_point)
    return [90.0 - math.degrees(start + arc.sweep * k / 12.0) for k in range(13)]


def sunset_replay(cfg, pert, sun_dec, hour_angle, graduation=night_arc_hours):
    """Scalar reference for the time_to_sunset readout, one trial at a
    time with Circle objects, circumcircle and circle_circle_intersection,
    each tropic divided at graduation(cfg, dec) (night_arc's division by
    default).  Returns read(draws), the hours left until sunset on the
    plate perturbed by one trial's draws, and the draws per trial."""
    s, sc, sr = cfg.scale, pert.center_sigma, pert.radius_sigma
    sg = math.radians(pert.graduation_sigma)
    altitude = _sun_altitude(cfg.latitude, sun_dec, hour_angle)
    step = cfg.almucantar_step
    grid = np.array([k * step for k in range(int(round(90.0 / step)))])
    sols = [almucantar_solution(cfg.latitude, h, s) for h in grid]
    grid_cy = np.array([m.y_center for m in sols])
    grid_r = np.array([m.radius for m in sols])
    n = len(grid)
    horizon = sols[0].circle
    tropics = tropic_circles(cfg)
    hours = [graduation(cfg, dec) for dec in (-cfg.obliquity, 0.0, cfg.obliquity)]
    origin = PlanePoint(0.0, 0.0)
    opp = Circle(origin, stereographic_radius(-sun_dec, s))
    guide = [from_plate_polar(opp.radius, h) for h in graduation(cfg, -sun_dec)]
    sun_circle = Circle(origin, stereographic_radius(sun_dec, s))

    def circle(x, y, radius):
        return Circle(PlanePoint(x, y), float(radius))

    def hour_crossings(draws):
        base_g, base_c = 3 * n + 3, 3 * n + 42
        horizon_p = circle(horizon.center.x + sc * draws[3 * n],
                           horizon.center.y + sc * draws[3 * n + 1],
                           horizon.radius + sr * draws[3 * n + 2])
        crossings = [0.0] * 13
        pts = circle_circle_intersection(opp, horizon_p)
        if len(pts) < 2:
            raise ScenarioInfeasible("perturbed horizon misses the sun's circle")
        crossings[0] = plate_angle_deg(max(pts, key=lambda p: p.x))
        crossings[12] = plate_angle_deg(min(pts, key=lambda p: p.x))
        for k in range(1, 12):
            # a positive graduation draw turns a point counterclockwise
            angles = [math.radians(hours[i][k]) - sg * draws[base_g + 13 * i + k]
                      for i in range(3)]
            trio = [PlanePoint(c.radius * math.sin(a), c.radius * math.cos(a))
                    for c, a in zip(tropics, angles)]
            j = base_c + 3 * (k - 1)
            try:
                hc = circumcircle(*trio)
                hc = circle(hc.center.x + sc * draws[j], hc.center.y + sc * draws[j + 1],
                            hc.radius + sr * draws[j + 2])
                pts = circle_circle_intersection(opp, hc)
            except CollinearPoints:
                pts = line_circle(trio[0], trio[2], opp.radius)
            if not pts:
                raise ScenarioInfeasible(
                    f"hour boundary {k} misses the sun's circle after perturbation")
            crossings[k] = plate_angle_deg(min(pts, key=lambda p: p.distance_to(guide[k])))
        return crossings

    def read(draws):
        alm = circle(np.interp(altitude, grid, sc * draws[:n]),
                     np.interp(altitude, grid, grid_cy + sc * draws[n : 2 * n]),
                     np.interp(altitude, grid, grid_r + sr * draws[2 * n : 3 * n]))
        pts = circle_circle_intersection(sun_circle, alm)
        if not pts:
            raise ScenarioInfeasible("the observed altitude band misses the sun's circle")
        theta_sun = plate_angle_deg(max(pts, key=lambda p: p.x))
        crossings = hour_crossings(draws)
        d = [(c - crossings[0]) % 360.0 for c in crossings]
        d[0] = 0.0
        theta = (theta_sun + 180.0 - crossings[0]) % 360.0
        if any(d[i + 1] <= d[i] for i in range(12)):
            raise ScenarioInfeasible("perturbed hour boundaries are out of order")
        if theta >= d[12]:
            k = 11
        else:
            k = max(i for i in range(12) if d[i] <= theta)
        return 12.0 - (k + (theta - d[k]) / (d[k + 1] - d[k]))

    return read, 3 * n + 75


def replayed_sunset_samples(cfg, pert, sun_dec, hour_angle, n_trials, graduation=night_arc_hours):
    read, n_draws = sunset_replay(cfg, pert, sun_dec, hour_angle, graduation)
    ref = read(np.zeros(n_draws))
    return [read(np.array(trial_draws(pert.seed, i, n_draws))) - ref for i in range(n_trials)]


def message_numbers(message):
    """A message split into its text and the numbers in it."""
    parts = re.split(r"(-?\d+(?:\.\d*)?(?:e-?\d+)?)", message)
    return parts[::2], [float(x) for x in parts[1::2]]


def outcome(run):
    try:
        return run()
    except (ScenarioInfeasible, ValueError) as exc:
        return type(exc), str(exc)


def sunset_scenes(rng, count):
    """(cfg, pert, sun_dec, hour_angle) scenes whose sun stands between
    the horizon and the top almucantar, under zero, workshop-range, large
    and destructive engraving noise in turn, and under noise that leaves
    the graduation exact, so that the midnight boundary stays a line."""
    for scene in range(count):
        latitude = float(rng.uniform(10.0, 60.0))
        step = float(rng.choice((1.0, 2.0, 3.0, 5.0, 6.0, 9.0, 10.0)))
        while True:
            dec, hour = float(rng.uniform(-23.44, 23.44)), float(rng.uniform(0.0, 180.0))
            if 0.0 < _sun_altitude(latitude, dec, hour) < 90.0 - step:
                break
        top = ((0.0,) * 3, (0.3,) * 3, (2.0,) * 3, (50.0,) * 3, (0.3, 0.3, 0.0))[scene % 5]
        pert = PerturbationSpec(*(float(rng.uniform(0.0, t)) for t in top),
                                seed=int(rng.integers(2**31)))
        yield PlateConfig(latitude=latitude, scale=100.0, almucantar_step=step), pert, dec, hour


RADIUS_ERROR = "circle radius must be positive"

# noise that turns a perturbed radius negative before any other check fails
NEGATIVE_RADIUS_SCENES = [
    (PlateConfig(latitude=28.44, scale=100.0, almucantar_step=3.0),
     PerturbationSpec(89.1, 55.44, 86.72, seed=1827265126), -1.82, 16.32),
    (PlateConfig(latitude=29.14, scale=100.0, almucantar_step=3.0),
     PerturbationSpec(47.14, 54.61, 38.26, seed=280760823), 9.9, 5.8),
]


def test_readout_graduation_matches_night_arc():
    """The readout divides each tropic's night arc, and the opposite
    circle that guides its pick, at the hour angles of the sunrise
    equation; dividing the arc between the plane crossings of the circle
    and the horizon puts the points within 1e-9 mm of them."""
    origin = PlanePoint(0.0, 0.0)
    for cfg, _, dec, _ in sunset_scenes(np.random.default_rng(2026), 50):
        horizon = almucantar_solution(cfg.latitude, 0.0, cfg.scale).circle
        for d in (-cfg.obliquity, 0.0, cfg.obliquity, -dec):
            circle = Circle(origin, stereographic_radius(d, cfg.scale))
            want = divide_arc_equal(night_arc(circle, horizon), 12)
            got = [from_plate_polar(circle.radius, h) for h in night_hours(cfg.latitude, d)]
            assert max(p.distance_to(q) for p, q in zip(got, want)) < 1e-9


def test_sunset_readout_matches_scalar_replay():
    """The time_to_sunset readout gives the scalar replay's
    samples to 1e-9, and aborts the same runs with the same message.  A
    radius <= 0, which the replay's Circle rejects with ValueError, is an
    infeasible scene to the readout."""
    # tropics 1e-6 degree apart leave each boundary's three graduation
    # points nearly collinear, where the readout's line test must agree
    # with circumcircle's.  They lie within 4e-14 mm of a line 4e-6 mm
    # long, so their circle is set by their last bits: night_arc's points,
    # 8e-14 mm from the readout's, move the samples by 6.9e-5 h.  To test
    # the line test this scene replays from the readout's own graduation;
    # test_readout_graduation_matches_night_arc checks that graduation.
    nearly_collinear = (PlateConfig(latitude=40.0, scale=100.0, obliquity=1e-6),
                        PerturbationSpec(0.3, 0.3, 0.0, seed=3), 0.0, 40.0,
                        lambda cfg, dec: night_hours(cfg.latitude, dec))
    scenes = [(*scene, night_arc_hours) for scene in (
        *sunset_scenes(np.random.default_rng(2026), 50), *NEGATIVE_RADIUS_SCENES)]
    kept, aborted = 0, []
    for cfg, pert, dec, hour, graduation in [*scenes, nearly_collinear]:
        want = outcome(lambda: replayed_sunset_samples(cfg, pert, dec, hour, 25, graduation))
        got = outcome(lambda: list(
            monte_carlo_readout(cfg, pert, "time_to_sunset", dec, hour, 25).samples))
        if isinstance(want, tuple):
            error, message = want
            if error is ValueError and message.startswith(RADIUS_ERROR):
                error = ScenarioInfeasible
            # the replay's graduation rounds apart from the readout's, so
            # a number in the message agrees to 1e-9, not to every digit
            text, numbers = message_numbers(message)
            assert got[0] is error
            assert message_numbers(got[1]) == (text, pytest.approx(numbers, abs=1e-9))
            aborted.append(got)
        else:
            assert got == pytest.approx(want, abs=1e-9)
            kept += 1
    assert kept >= 20 and len(aborted) >= 5
    assert {error for error, _ in aborted} == {ScenarioInfeasible}
    radius_aborts = [m for _, m in aborted if m.startswith(RADIUS_ERROR)]
    assert len(radius_aborts) == len(NEGATIVE_RADIUS_SCENES)


@mp.workdps(50)
def exact_sunset_samples(cfg, pert, sun_dec, hour_angle, n_trials):
    """The time_to_sunset samples replayed in 50-digit arithmetic from the
    same draws, taking the unperturbed plate's float geometry as exact."""
    s, sc, sr = cfg.scale, mpf(pert.center_sigma), mpf(pert.radius_sigma)
    sg = mp.radians(pert.graduation_sigma)
    altitude = _sun_altitude(cfg.latitude, sun_dec, hour_angle)
    step = cfg.almucantar_step
    grid = [k * step for k in range(int(round(90.0 / step)))]
    sols = [almucantar_solution(cfg.latitude, h, s) for h in grid]
    n, j = len(grid), int(altitude // step)
    horizon = sols[0].circle
    tropics = tropic_circles(cfg)
    hours = [night_hours(cfg.latitude, dec) for dec in (-cfg.obliquity, 0.0, cfg.obliquity)]
    r_sun, r_opp = stereographic_radius(sun_dec, s), stereographic_radius(-sun_dec, s)
    guide = [from_plate_polar(r_opp, h) for h in night_hours(cfg.latitude, -sun_dec)]

    def cross(nx, ny, e, radius, pick):
        # the two points where the line nx*x + ny*y = e meets |p| = radius
        n2 = nx * nx + ny * ny
        half, fx, fy = mp.sqrt(radius * radius * n2 - e * e) / n2, e * nx / n2, e * ny / n2
        p = pick([(fx - half * ny, fy + half * nx), (fx + half * ny, fy - half * nx)])
        return mp.degrees(mp.atan2(*p)) % 360

    def meet(x, y, rho, radius, pick):
        # the two points where the circle (x, y, rho) meets |p| = radius
        return cross(x, y, (x * x + y * y + radius * radius - rho * rho) / 2, radius, pick)

    def west(pts):
        return max(pts, key=lambda p: p[0])

    def read(draws):
        t = (mpf(altitude) - grid[j]) / step
        alm = [(1 - t) * f[j] + t * f[j + 1] for f in (
            [sc * v for v in draws[:n]],
            [m.y_center + sc * v for m, v in zip(sols, draws[n : 2 * n])],
            [m.radius + sr * v for m, v in zip(sols, draws[2 * n : 3 * n])])]
        theta_sun = meet(*alm, r_sun, west)
        hx, hy, hr = draws[3 * n : 3 * n + 3]
        hz = (horizon.center.x + sc * hx, horizon.center.y + sc * hy, horizon.radius + sr * hr)
        crossings = [meet(*hz, r_opp, west)] + [None] * 11 + [
            meet(*hz, r_opp, lambda pts: min(pts, key=lambda p: p[0]))]
        for k in range(1, 12):
            # a positive graduation draw turns a point counterclockwise
            (ax, ay), (bx, by), (ex, ey) = [
                (c.radius * mp.sin(a), c.radius * mp.cos(a)) for c, a in (
                    (c, math.radians(h[k]) - sg * draws[3 * n + 3 + 13 * i + k])
                    for i, (c, h) in enumerate(zip(tropics, hours)))]
            bx, by, ex, ey = bx - ax, by - ay, ex - ax, ey - ay
            area2, b2, e2 = 2 * (bx * ey - by * ex), bx * bx + by * by, ex * ex + ey * ey
            g = guide[k]

            def near(pts):
                return min(pts, key=lambda p: mp.hypot(p[0] - g.x, p[1] - g.y))

            dmax = max(mp.sqrt(b2), mp.sqrt(e2), mp.hypot(ex - bx, ey - by))
            if abs(area2) / 4 <= COLLINEAR_AREA_REL * dmax * dmax:
                # the unperturbed midnight boundary: its points lie on one ray
                crossings[k] = cross(ey, -ex, ey * ax - ex * ay, r_opp, near)
                continue
            ux, uy = (ey * b2 - by * e2) / area2, (bx * e2 - ex * b2) / area2
            dx, dy, dr = draws[3 * n + 39 + 3 * k : 3 * n + 42 + 3 * k]
            crossings[k] = meet(ax + ux + sc * dx, ay + uy + sc * dy,
                                mp.sqrt(ux * ux + uy * uy) + sr * dr, r_opp, near)
        d = [0] + [(c - crossings[0]) % 360 for c in crossings[1:]]
        theta = (theta_sun + 180 - crossings[0]) % 360
        k = min(11, max(i for i in range(12) if d[i] <= theta))
        return 12 - (k + (theta - d[k]) / (d[k + 1] - d[k]))

    ref = read([mpf(0)] * (3 * n + 75))
    return [read([mpf(v) for v in trial_draws(pert.seed, i, 3 * n + 75)]) - ref
            for i in range(n_trials)]


@pytest.mark.parametrize("center_radius_sigma", (0.0, 1e-4))
def test_sunset_samples_match_50_digit_replay(center_radius_sigma):
    """Near noon the reading falls between the hours beside the midnight
    boundary, whose three graduation points a 0.001 degree error leaves
    nearly collinear: a circle of radius of the order of 1e6 mm.  Formed
    as (|C|^2 + R^2 - r^2)/2, its line cancelled squares of that radius,
    and samples were up to 4.9e-11 h off the exact replay; expanded about
    the Capricorn point they are within 4e-14 h."""
    sigma = center_radius_sigma
    for latitude, dec, hour in ((40.0, 10.0, 3.0), (25.0, -10.0, 10.0), (40.0, 20.0, 0.5)):
        cfg = PlateConfig(latitude=latitude, scale=100.0, almucantar_step=3.0)
        pert = PerturbationSpec(sigma, sigma, 0.001, seed=7)
        got = monte_carlo_readout(cfg, pert, "time_to_sunset", dec, hour, 20).samples
        want = exact_sunset_samples(cfg, pert, dec, hour, 20)
        assert max(abs(g - float(w)) for g, w in zip(got, want)) < 1e-12


def test_aborted_run_leaves_no_reference_cycle():
    # a cycle through the raised error's traceback would keep every array
    # of the aborted run alive until the cycle collector runs
    pert = PerturbationSpec(50.0, 50.0, 50.0, seed=1)
    gc.collect()
    gc.disable()
    try:
        try:
            monte_carlo_readout(CFG, pert, "time_to_sunset", -10.0, 45.0, 25)
        except ScenarioInfeasible:
            pass
        else:
            pytest.fail("the run was expected to abort")
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


def test_traced_benchmark_patches_resolve():
    """bench/tracing.py wraps names it looks up in the package, in
    astrolabe.cli and in astrolabe.error_analysis; each must still exist."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    patches = tracing.install(tracing.Tracer(), astrolabe)
    patched = {name for _, name, _, _ in patches.items}
    assert {"circle_circle_intersection", "circumcircle", "monte_carlo_readout"} <= patched


def test_monte_carlo_seed_changes_samples():
    p1 = PerturbationSpec(0.05, 0.05, 0.05, seed=1)
    p2 = PerturbationSpec(0.05, 0.05, 0.05, seed=2)
    a = monte_carlo_readout(CFG, p1, "altitude", 10.0, 40.0, n_trials=30)
    b = monte_carlo_readout(CFG, p2, "altitude", 10.0, 40.0, n_trials=30)
    assert a.samples != b.samples


def test_monte_carlo_trial_order_independent_of_count():
    # substreams per (seed, trial): a longer run extends, never reshuffles
    pert = PerturbationSpec(0.05, 0.05, 0.05, seed=9)
    short = monte_carlo_readout(CFG, pert, "altitude", 10.0, 40.0, n_trials=10)
    long = monte_carlo_readout(CFG, pert, "altitude", 10.0, 40.0, n_trials=25)
    assert long.samples[:10] == short.samples


def test_monte_carlo_linear_regime_scaling():
    small = PerturbationSpec(0.01, 0.01, 0.01, seed=5)
    double = PerturbationSpec(0.02, 0.02, 0.02, seed=5)
    a = monte_carlo_readout(CFG, small, "altitude", 10.0, 40.0, n_trials=300)
    b = monte_carlo_readout(CFG, double, "altitude", 10.0, 40.0, n_trials=300)
    assert b.std / a.std == pytest.approx(2.0, rel=0.1)


def test_monte_carlo_scenario_validation():
    pert = PerturbationSpec(0.01, 0.01, 0.01, seed=0)
    with pytest.raises(ValueError):
        monte_carlo_readout(CFG, pert, "unknown", 10.0, 40.0, n_trials=5)
    with pytest.raises(ValueError):
        monte_carlo_readout(CFG, pert, "altitude", 10.0, 40.0, n_trials=0)
    # declination beyond the tropics is not a solar scene
    with pytest.raises(ValueError):
        monte_carlo_readout(CFG, pert, "altitude", 45.0, 40.0, n_trials=5)


def test_monte_carlo_infeasible_scenes():
    pert = PerturbationSpec(0.01, 0.01, 0.01, seed=0)
    # sun below the horizon
    with pytest.raises(ScenarioInfeasible):
        monte_carlo_readout(CFG, pert, "altitude", -20.0, 170.0, n_trials=5)
    # circumpolar sun never sets
    arctic = PlateConfig(latitude=80.0, scale=100.0, obliquity=23.44)
    with pytest.raises((ScenarioInfeasible, ValueError)):
        monte_carlo_readout(arctic, pert, "time_to_sunset", 20.0, 40.0, n_trials=5)
    # morning hour angle is not a sunset scene
    with pytest.raises(ValueError):
        monte_carlo_readout(CFG, pert, "time_to_sunset", 10.0, 300.0, n_trials=5)
    # a noon sun above the last almucantar of a coarse grid
    coarse = PlateConfig(latitude=40.0, scale=100.0, almucantar_step=30.0)
    with pytest.raises(ScenarioInfeasible) as exc:
        monte_carlo_readout(coarse, PerturbationSpec(), "altitude", 20.0, 0.0, 5)
    assert str(exc.value) == "sun altitude 70.00 is above the last engraved almucantar (60)"


def test_read_altitude_on_a_node_and_outside_every_band():
    # circles of radius 3, 2 and 1 about the origin, at altitudes 0, 10 and 20
    field = ([0.0, 10.0, 20.0], [0.0] * 3, [0.0] * 3, [3.0, 2.0, 1.0])
    assert _read_altitude(3.0, 0.0, *field) == 0.0  # on the altitude-0 circle itself
    with pytest.raises(ScenarioInfeasible, match="falls outside the readable altitude bands"):
        _read_altitude(30.0, 0.0, *field)


def test_trial_draws_are_pinned():
    """The first draws of (seed 0, trial 0), bit for bit: a Python whose
    random() stream or libm changed fails here, not in a drifting statistic."""
    assert [v.hex() for v in trial_draws(0, 0, 4)] == [
        "0x1.8abcec9c58fedp-4", "-0x1.ed3806590a271p+0",
        "-0x1.df3b8f053b0b1p-5", "0x1.0b06eb20dec65p+0"]
    # a shorter row starts a longer one; each trial and seed has its own stream
    assert trial_draws(0, 0, 3) == trial_draws(0, 0, 4)[:3]
    assert trial_draws(0, 1, 4) != trial_draws(0, 0, 4) != trial_draws(1, 0, 4)


@pytest.mark.parametrize("obliquity", (1e-13, 1e-300))
def test_unperturbed_plate_failure_names_no_perturbation(obliquity):
    """Tropics 1e-13 degrees apart leave an hour boundary of the plate as
    drawn missing the sun's circle, and at 1e-300 the boundary's line has
    no normal: a zero-sigma run either reads zero or says that the
    unperturbed plate failed, never that a perturbation did."""
    cfg = PlateConfig(latitude=40.0, scale=100.0, obliquity=obliquity)
    try:
        rep = monte_carlo_readout(cfg, PerturbationSpec(0.0, 0.0, 0.0), "time_to_sunset",
                                  0.0, 40.0, 5)
    except ScenarioInfeasible as exc:
        assert str(exc).startswith("the unperturbed plate cannot be read: ")
        assert "perturbation" not in str(exc)
    else:
        assert rep.samples == (0.0,) * 5


def test_monte_carlo_sunset_reference_matches_geometry():
    # with no perturbation the sunset readout equals the true unequal
    # hours remaining: (sunset hour angle - current) / hour width
    pert = PerturbationSpec(0.0, 0.0, 0.0, seed=0)
    rep = monte_carlo_readout(CFG, pert, "time_to_sunset", 10.0, 40.0, n_trials=1)
    assert rep.samples == (0.0,)
