"""Engraving-error propagation: closed-form budgets, band
misassignment, chord diagnosis, Monte Carlo readout statistics."""

import math

import numpy as np
import pytest

from astrolabe import (
    Circle,
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
from astrolabe.error_analysis import SCENARIOS, _ReadoutEngine

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


def bisected_altitude(engine, point, draws):
    """Reference readout: plain bisection on the interpolated
    g(h) = |p - c(h)| - r(h) over the first grid bracket where g rises
    through zero; None when there is no such bracket."""
    cx, cy, r = engine._field(draws)
    grid = engine.grid

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
            pert = PerturbationSpec(sigma, sigma, sigma, seed=seed)
            engine = _ReadoutEngine(cfg, pert, scenario, dec, hour)
            for i in range(20):
                draws = engine._draws(i)
                want = bisected_altitude(engine, engine.sun_point, draws)
                got = engine._read_altitude(engine.sun_point, draws)
                assert want is not None and got == pytest.approx(want, abs=1e-9)


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
