"""Engraving-error propagation: closed-form budgets, band
misassignment, chord diagnosis, Monte Carlo readout statistics."""

import gc
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import astrolabe
from astrolabe import (
    Circle,
    CollinearPoints,
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
from astrolabe.error_analysis import SCENARIOS, _read_altitude, _sun_altitude
from astrolabe.geometry import circle_circle_intersection, circumcircle, divide_arc_equal
from astrolabe.plate import almucantar_solution, night_arc, tropic_circles
from astrolabe.projection import from_plate_polar, plate_angle_deg, stereographic_radius

# section-4 style worked configuration: 150 mm plate
S4 = 49.228324
PHI4 = 22.693533


def y_lower(latitude, altitude, scale):
    """Northern meridian crossing of an almucantar, straight from the
    half-angle form."""
    return -scale * math.tan(math.radians((latitude - altitude) / 2.0))


def test_alidade_budget_terms():
    assert alidade_offset_error(150.0, 0.02) == pytest.approx(0.75)
    assert alidade_rotation_error(0.4) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        alidade_offset_error(-1.0, 0.1)
    with pytest.raises(ValueError):
        alidade_offset_error(150.0, -0.1)
    with pytest.raises(ValueError):
        alidade_rotation_error(-0.4)


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


def test_perturbation_spec_validation():
    with pytest.raises(ValueError):
        PerturbationSpec(center_sigma=-0.1)
    with pytest.raises(ValueError):
        PerturbationSpec(seed=-1)
    with pytest.raises(ValueError):
        PerturbationSpec(seed=1.5)


CFG = PlateConfig(latitude=40.0, scale=100.0)


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
    draws = np.array([np.random.default_rng([pert.seed, i]).normal(size=3 * n + 75)
                      for i in range(n_trials)])
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
            got = _read_altitude(sun.x, sun.y, grid, cx, cy, r)
            for i in range(20):
                want = bisected_altitude(sun, grid, cx[i], cy[i], r[i])
                assert want is not None and got[i] == pytest.approx(want, abs=1e-9)


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


def sunset_replay(cfg, pert, sun_dec, hour_angle):
    """Scalar reference for the time_to_sunset readout, one trial at a
    time with Circle objects, circumcircle, circle_circle_intersection
    and night_arc.  Returns read(draws), the hours left until sunset on
    the plate perturbed by one trial's draws, and the draws per trial."""
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
    division = []
    for c in tropics:
        arc = night_arc(c, horizon)
        division.append([arc.start_angle + arc.sweep * k / 12.0 for k in range(13)])
    origin = PlanePoint(0.0, 0.0)
    opp = Circle(origin, stereographic_radius(-sun_dec, s))
    guide = divide_arc_equal(night_arc(opp, horizon), 12)
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
            trio = [c.point_at(division[i][k] + sg * draws[base_g + 13 * i + k])
                    for i, c in enumerate(tropics)]
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


def replayed_sunset_samples(cfg, pert, sun_dec, hour_angle, n_trials):
    read, n_draws = sunset_replay(cfg, pert, sun_dec, hour_angle)
    ref = read(np.zeros(n_draws))
    return [read(np.random.default_rng([pert.seed, i]).normal(size=n_draws)) - ref
            for i in range(n_trials)]


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
    (PlateConfig(latitude=11.22, scale=100.0, almucantar_step=3.0),
     PerturbationSpec(42.46, 90.14, 34.73, seed=1769376407), -7.31, 51.18),
    (PlateConfig(latitude=29.14, scale=100.0, almucantar_step=3.0),
     PerturbationSpec(47.14, 54.61, 38.26, seed=280760823), 9.9, 5.8),
]


def test_batched_sunset_matches_scalar_replay():
    """The batched time_to_sunset readout gives the scalar replay's
    samples to 1e-9, and aborts the same runs with the same message.  A
    radius <= 0, which the replay's Circle rejects with ValueError, is an
    infeasible scene to the readout."""
    scenes = [*sunset_scenes(np.random.default_rng(2026), 50), *NEGATIVE_RADIUS_SCENES]
    kept, aborted = 0, []
    for cfg, pert, dec, hour in scenes:
        want = outcome(lambda: replayed_sunset_samples(cfg, pert, dec, hour, 25))
        got = outcome(lambda: list(
            monte_carlo_readout(cfg, pert, "time_to_sunset", dec, hour, 25).samples))
        if isinstance(want, tuple):
            error, message = want
            if error is ValueError and message.startswith(RADIUS_ERROR):
                error = ScenarioInfeasible
            assert got == (error, message)
            aborted.append(got)
        else:
            assert got == pytest.approx(want, abs=1e-9)
            kept += 1
    assert kept >= 20 and len(aborted) >= 5
    assert {error for error, _ in aborted} == {ScenarioInfeasible}
    radius_aborts = [m for _, m in aborted if m.startswith(RADIUS_ERROR)]
    assert len(radius_aborts) == len(NEGATIVE_RADIUS_SCENES)


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


def test_monte_carlo_sunset_reference_matches_geometry():
    # with no perturbation the sunset readout equals the true unequal
    # hours remaining: (sunset hour angle - current) / hour width
    pert = PerturbationSpec(0.0, 0.0, 0.0, seed=0)
    rep = monte_carlo_readout(CFG, pert, "time_to_sunset", 10.0, 40.0, n_trials=1)
    assert rep.samples == (0.0,)
