"""Release criteria for the astrolabe design engine.

Eleven checks, one test each, numbered c01..c11.  They exercise the
package end to end at documented tolerances: classical proportions of
the tropic circles, the circle-preservation property that makes the
instrument possible, agreement between closed-form construction and
brute-force projection, the worked engraving-error example, the two
qibla routes, calendar spacing, Monte Carlo determinism, and SVG
reproducibility.  ``tests/conftest.py`` prints one PASS/FAIL line per
criterion in the terminal summary.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from astrolabe import (
    Locality,
    MECCA,
    PerturbationSpec,
    PlateConfig,
    ProjectionKind,
    SphereCircleSpec,
    SpherePoint,
    band_misassignment,
    band_spacing,
    bearing_oracle,
    calendar_ring,
    circle_image_residual,
    declination_from_alt_az,
    almucantar_solution,
    azimuth_circle,
    fit_circle,
    hour_lines,
    monte_carlo_readout,
    project_point,
    qibla_eq13,
    sample_sphere_circle,
    solar_longitude,
    tropic_radii,
    zenith_point,
)
from astrolabe.cli import main as cli_main
from astrolabe.exceptions import CollinearPoints, DomainError
from astrolabe.geometry import Arc, Segment

SCALE = 100.0
OBLIQUITY = 23.44
SVG_NS = "{http://www.w3.org/2000/svg}"
DEMOS = Path(__file__).resolve().parents[1] / "demos"


def wrapped_difference(a: float, b: float) -> float:
    return abs((a - b + 180.0) % 360.0 - 180.0)


def distance_to_element(element, p) -> float:
    if isinstance(element, Arc):
        c = element.circle
        return abs(math.hypot(p.x - c.center.x, p.y - c.center.y) - c.radius)
    if isinstance(element, Segment):
        ax, ay = element.a.x, element.a.y
        bx, by = element.b.x, element.b.y
        cross = (bx - ax) * (p.y - ay) - (by - ay) * (p.x - ax)
        return abs(cross) / math.hypot(bx - ax, by - ay)
    raise TypeError(type(element))


def night_division_point(latitude: float, dec: float, k: int, scale: float):
    """k-th of twelve equal night divisions, counted from sunset."""
    h_set = math.degrees(
        math.acos(-math.tan(math.radians(latitude)) * math.tan(math.radians(dec)))
    )
    step = (360.0 - 2.0 * h_set) / 12.0
    return project_point(SpherePoint(dec, h_set + k * step), scale)


def test_c01_tropic_proportions():
    """The three circles keep their classical size relations at e = 23.5."""
    r_cap, r_eq, r_can = tropic_radii(1.0, 23.5)
    assert r_cap == pytest.approx(1.53, abs=0.01)
    assert r_eq == pytest.approx(1.00, abs=0.01)
    assert r_can == pytest.approx(0.66, abs=0.01)
    assert r_cap - r_eq == pytest.approx(0.53, abs=0.01)
    assert r_cap - r_can == pytest.approx(0.87, abs=0.01)


def test_c02_circle_preservation_versus_conic_image():
    # 1000 random sphere circles, every one at least a degree away from
    # the projection pole, must land on the plate as true circles
    rng = np.random.default_rng(20260814)
    worst = 0.0
    produced = 0
    while produced < 1000:
        pole_dec = float(rng.uniform(-90.0, 90.0))
        pole_ha = float(rng.uniform(0.0, 360.0))
        radius = float(rng.uniform(1.5, 90.0))
        if abs((90.0 + pole_dec) - radius) < 1.0:
            continue  # circle grazes the south pole
        spec = SphereCircleSpec(pole_dec, pole_ha, radius)
        fit = circle_image_residual(spec, ProjectionKind.stereographic(), 36, SCALE)
        worst = max(worst, fit.rms_residual)
        produced += 1
    assert worst < 1e-9 * SCALE

    # the gnomonic image of the ecliptic (a great circle) is a straight
    # line: either a sample hits the undefined nodes or the fit refuses
    # the collinear points; both mean an unbounded residual
    ecliptic = SphereCircleSpec(90.0 - OBLIQUITY, 0.0, 90.0)
    with pytest.raises(DomainError):
        circle_image_residual(ecliptic, ProjectionKind.gnomonic(), 360, SCALE)
    with pytest.raises(CollinearPoints):
        circle_image_residual(ecliptic, ProjectionKind.gnomonic(), 359, SCALE)
    gnomonic_rms = math.inf
    assert gnomonic_rms > 1e-3 * SCALE
    # one degree short of a great circle the image is a finite conic and
    # the best circle through it still misses by a visible margin
    near_great = SphereCircleSpec(90.0 - OBLIQUITY, 0.0, 89.0)
    finite = circle_image_residual(near_great, ProjectionKind.gnomonic(), 359, SCALE)
    assert math.isfinite(finite.rms_residual)
    assert finite.rms_residual > 1e-3 * SCALE


def test_c03_almucantar_closed_form_matches_pointwise_projection():
    worst = 0.0
    for latitude in range(5, 90, 5):
        for altitude in range(0, 90, 5):
            sol = almucantar_solution(float(latitude), float(altitude), SCALE)
            spec = SphereCircleSpec(float(latitude), 0.0, 90.0 - altitude)
            pts = [project_point(p, SCALE) for p in sample_sphere_circle(spec, 90)]
            fit = fit_circle(pts).circle
            worst = max(
                worst,
                abs(fit.center.x),
                abs(fit.center.y - sol.y_center),
                abs(fit.radius - sol.radius),
            )
    assert worst < 1e-9 * SCALE


def test_c04_azimuth_circles_pass_through_zenith_and_nadir():
    worst = 0.0
    for latitude in (20.0, 40.0, 55.0):
        zenith = zenith_point(latitude, SCALE)
        nadir = project_point(SpherePoint(-latitude, 180.0), SCALE)
        for azimuth in range(0, 180, 10):
            if azimuth == 90:
                # the east-west vertical projects to the meridian line;
                # both poles of the horizon system sit on x = 0
                worst = max(worst, abs(zenith.x), abs(nadir.x))
                continue
            circle = azimuth_circle(latitude, float(azimuth), SCALE)
            for p in (zenith, nadir):
                gap = abs(
                    math.hypot(p.x - circle.center.x, p.y - circle.center.y)
                    - circle.radius
                )
                worst = max(worst, gap)
    assert worst < 1e-9 * SCALE


def test_c05_hour_arcs_hit_their_division_points():
    cfg = PlateConfig(latitude=40.0, scale=SCALE)
    worst = 0.0
    for line in hour_lines(cfg):
        for dec in (-cfg.obliquity, 0.0, cfg.obliquity):
            point = night_division_point(cfg.latitude, dec, line.index, SCALE)
            worst = max(worst, distance_to_element(line.element, point))
    assert worst < 1e-9

    # the twelve equator divisions are equally spaced, so their chords agree
    pts = [night_division_point(40.0, 0.0, k, SCALE) for k in range(13)]
    chords = [
        math.hypot(q.x - p.x, q.y - p.y) for p, q in zip(pts[:-1], pts[1:])
    ]
    assert max(chords) - min(chords) < 1e-9


def test_c06_engraving_error_example_on_a_150mm_instrument():
    # 150 mm overall plate: the equator scale follows from the boundary,
    # and the horizon radius of 127.6 mm fixes the design latitude
    scale = 75.0 / math.tan(math.radians(45.0 + OBLIQUITY / 2.0))
    latitude = math.degrees(math.asin(scale / 127.6))
    assert latitude == pytest.approx(22.7, abs=0.1)

    spacing = band_spacing(latitude, scale, 0.0, 3.0)
    assert 1.0 <= spacing <= 3.0

    displacement, band = band_misassignment(latitude, scale, 0.0, 0.02, 3.0)
    assert displacement == pytest.approx(2.552, abs=0.01)
    assert band == 3.0  # a 2 percent radius error reads one band too high


def test_c07_meridian_declination_identity():
    worst = 0.0
    for latitude in range(5, 90, 5):
        for altitude in range(0, 90, 5):
            direct = declination_from_alt_az(float(latitude), float(altitude), 180.0)
            reduced = latitude + altitude - 90.0
            worst = max(worst, abs(direct - reduced))
    assert worst < 1e-12


def test_c08_qibla_routes_and_their_divergence():
    damascus = Locality("Damascus", 33.5130, 36.2920)
    oracle = bearing_oracle(damascus, MECCA)
    assert oracle == pytest.approx(164.6, abs=0.2)

    closed = qibla_eq13(damascus)
    divergence = wrapped_difference(oracle, closed)
    assert divergence > 1.0  # the printed closed form is not the bearing here

    # the two routes coincide exactly on the symmetric family where the
    # observer shares the target's latitude
    peer = Locality("peer", MECCA.latitude, 10.0)
    assert wrapped_difference(bearing_oracle(peer, MECCA), qibla_eq13(peer)) < 1e-9


def test_c09_calendar_ring_spacing_and_solar_events():
    ticks = np.asarray(calendar_ring())
    assert ticks.size == 365
    steps = np.diff(ticks)
    assert np.all(steps > 0.0)
    spacings = np.append(steps, 360.0 - ticks[-1] + ticks[0])
    assert spacings.sum() == pytest.approx(360.0, abs=1e-9)

    # the eccentric solar motion leaves the widest day about 3.4 percent
    # over the mean spacing, and about 6.9 percent over the narrowest
    assert 1.03 <= spacings.max() / spacings.mean() <= 1.04
    assert 1.06 <= spacings.max() / spacings.min() <= 1.08

    events = ((79.38, 0.0), (172.11, 90.0), (265.76, 180.0), (355.63, 270.0))
    for day, longitude in events:
        assert wrapped_difference(solar_longitude(day), longitude) <= 1.0


def test_c10_monte_carlo_zero_case_and_determinism():
    cfg = PlateConfig(latitude=40.0, scale=SCALE)
    quiet = PerturbationSpec(seed=5)
    for scenario, dec, hour in (("time_to_sunset", -10.0, 45.0), ("altitude", 10.0, 30.0)):
        report = monte_carlo_readout(cfg, quiet, scenario, dec, hour, 50)
        assert abs(report.mean) < 1e-9
        assert report.std < 1e-9
        assert report.max_abs < 1e-9

    noisy = PerturbationSpec(
        center_sigma=0.05, radius_sigma=0.05, graduation_sigma=0.1, seed=42
    )
    first = monte_carlo_readout(cfg, noisy, "time_to_sunset", -10.0, 45.0, 200)
    second = monte_carlo_readout(cfg, noisy, "time_to_sunset", -10.0, 45.0, 200)
    assert first == second
    assert [float(s).hex() for s in first.samples] == [
        float(s).hex() for s in second.samples
    ]


def test_c11_svg_golden_run_reproducibility(capsys):
    argv = ["plate", "--lat", "40", "--scale-mm", "100"]
    assert cli_main(list(argv)) == 0
    first = capsys.readouterr().out
    assert cli_main(list(argv)) == 0
    second = capsys.readouterr().out
    assert first == second

    root = ET.fromstring(first)
    ids = [g.get("id") for g in root.iter(f"{SVG_NS}g")]
    assert sorted(ids) == sorted(
        ["limb", "tropics", "horizon", "almucantars", "azimuths", "hours"]
    )
    for layer in ("limb", "tropics", "horizon", "almucantars", "azimuths", "hours"):
        assert ids.count(layer) == 1

    # the three demo configurations reproduce the committed documents
    data = DEMOS / "data"
    golden_cases = {
        "plate_lat40.svg": ["plate", "--lat", "40", "--scale-mm", "100"],
        "rete_bright_stars.svg": [
            "rete", "--catalog", str(data / "bright_stars.csv"), "--scale-mm", "100",
        ],
        "back_damascus.svg": [
            "back", "--lat", "33.513", "--diameter-mm", "300",
            "--localities", str(data / "cities.csv"),
        ],
    }
    for name, argv in golden_cases.items():
        assert cli_main(argv) == 0
        rendered = capsys.readouterr().out
        assert rendered == (DEMOS / "out" / name).read_text(encoding="utf-8"), name
