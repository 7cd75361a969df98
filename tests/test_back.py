"""Back face: solar calendar, sine quadrant, shadow square, midday
curve, and the two qibla routes.  The sine quadrant and the shadow square
follow from the limb radius alone and exist only in the rendered back,
so they are checked there."""

import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from astrolabe import (
    DomainError,
    Locality,
    MECCA,
    NoSolution,
    ParseError,
    PlanePoint,
    BackConfig,
    Segment,
    UndefinedBearing,
    bearing_oracle,
    build_back,
    calendar_ring,
    declination_from_alt_az,
    load_localities,
    midday_altitude,
    midday_curve,
    qibla_eq13,
    RenderStyle,
    render_svg,
    solar_declination,
    solar_longitude,
    solve_altitude_for_azimuth,
)
from astrolabe.back import EQUINOX_DAY
from test_geometry import arc_holds

DAMASCUS = Locality("Damascus", 33.5130, 36.2920)

# 2025 event days of year: March equinox, June solstice, September
# equinox, December solstice
EVENTS = ((79.38, 0.0), (172.11, 90.0), (265.76, 180.0), (355.63, 270.0))


def enu_bearing(origin, target):
    """Independent bearing oracle: rotate the target into the local
    east-north-up frame with numpy and read the compass angle."""
    def unit(lat, lon):
        la, lo = math.radians(lat), math.radians(lon)
        return np.array(
            [math.cos(la) * math.cos(lo), math.cos(la) * math.sin(lo), math.sin(la)]
        )

    u1 = unit(origin.latitude, origin.longitude)
    u2 = unit(target.latitude, target.longitude)
    up = u1
    east = np.cross(np.array([0.0, 0.0, 1.0]), u1)
    east /= np.linalg.norm(east)
    north = np.cross(up, east)
    return math.degrees(math.atan2(float(u2 @ east), float(u2 @ north))) % 360.0


def eq13_verbatim(observer, mecca=MECCA):
    """The printed flat-triangle qibla formula, transcribed directly."""
    phi = math.radians(observer.latitude)
    phi_m = math.radians(mecca.latitude)
    dlon = math.radians(mecca.longitude - observer.longitude)
    num = math.cos(phi_m) * math.sin(dlon)
    den = math.cos(phi_m) * math.sin(phi) - math.sin(phi_m) * math.cos(phi) * math.cos(dlon)
    return math.degrees(math.atan2(num, den)) % 360.0


def angdiff(a, b):
    return abs((a - b + 180.0) % 360.0 - 180.0)


def test_solar_longitude_calibration():
    # exactly zero at the March equinox by construction
    assert solar_longitude(EQUINOX_DAY) == 0.0
    for day, lam in EVENTS:
        assert angdiff(solar_longitude(day), lam) < 1.0


def test_solar_longitude_periodic_and_monotone_by_day():
    rng = np.random.default_rng(3)
    for d in rng.uniform(1.0, 365.0, size=60):
        assert solar_longitude(float(d) + 365.0) == pytest.approx(
            solar_longitude(float(d)), abs=1e-9
        )
    # daily motion stays close to the mean motion, never negative
    lams = [solar_longitude(float(d)) for d in range(1, 366)]
    steps = [(b - a) % 360.0 for a, b in zip(lams, lams[1:])]
    assert min(steps) > 0.9
    assert max(steps) < 1.05


def test_solar_longitude_day_79_reference():
    # one day before the equinox the sun sits just under 360 degrees
    lam = solar_longitude(79.0)
    assert lam == pytest.approx(359.6219, abs=1e-4)


def test_solar_declination_extremes():
    assert solar_declination(90.0) == pytest.approx(23.44, rel=1e-12)
    assert solar_declination(270.0) == pytest.approx(-23.44, rel=1e-12)
    assert solar_declination(0.0) == pytest.approx(0.0, abs=1e-12)
    assert solar_declination(180.0) == pytest.approx(0.0, abs=1e-12)


def test_calendar_ring_count_monotone_and_span():
    angles = calendar_ring()
    assert len(angles) == 365
    assert angles[0] == 0.0
    assert all(b > a for a, b in zip(angles, angles[1:]))
    closing = 360.0 - angles[-1]
    assert 0.0 < closing < 1.05
    # increments rebuild the full turn
    steps = [b - a for a, b in zip(angles, angles[1:])] + [closing]
    assert sum(steps) == pytest.approx(360.0, abs=1e-9)


def test_calendar_ring_is_computed_once():
    ring = calendar_ring()
    assert calendar_ring() is ring
    assert build_back(BackConfig(latitude=40.0, radius=150.0)).calendar_angles is ring
    assert build_back(BackConfig(latitude=52.0, radius=3.0)).calendar_angles is ring


def test_calendar_ring_spacing_ratios():
    angles = calendar_ring()
    steps = np.diff(np.asarray(angles + (360.0,)))
    ratio_mean = steps.max() / steps.mean()
    ratio_minmax = steps.max() / steps.min()
    assert ratio_mean == pytest.approx(1.03412, abs=1e-4)
    assert ratio_minmax == pytest.approx(1.06911, abs=1e-4)


def test_equinox_tick_lands_opposite():
    # the September equinox tick sits half a turn from the March one
    angles = calendar_ring()
    lam_day1 = solar_longitude(1.0)
    march = angdiff(solar_longitude(79.38), lam_day1)
    idx = 265  # day 266 is nearest the September equinox
    assert angdiff(angles[idx] + lam_day1, 180.0) < 1.0


SVG = "{http://www.w3.org/2000/svg}"


def back_layer(radius, layer):
    """The elements of one layer of a back face of the given radius,
    drawn at 9 decimals, as (tag, attributes) in document order (y down)."""
    model = build_back(BackConfig(latitude=40.0, radius=radius))
    doc = render_svg(model, RenderStyle(precision=9, include_layers={layer}))
    (group,) = ET.fromstring(doc).findall(f"{SVG}g")
    assert group.get("id") == layer
    return [(el.tag[len(SVG):], {k: float(v) for k, v in el.attrib.items() if k != "d"})
            for el in group]


def test_sine_quadrant_layout():
    r = 100.0
    elements = back_layer(r, "sine-quadrant")
    assert [tag for tag, _ in elements] == ["path"] + ["line"] * (2 + 59 + 59)
    lines = [a for _, a in elements[1:]]
    assert lines[:2] == [dict(x1=-r, y1=0.0, x2=0.0, y2=0.0), dict(x1=0.0, y1=0.0, x2=0.0, y2=-r)]
    sines, cosines = lines[2:61], lines[61:]
    # sine lines: horizontal chords from the rim to the vertical axis,
    # r/60 apart, climbing toward the top of the document
    for k, a in enumerate(sines, start=1):
        assert a["y1"] == a["y2"] == pytest.approx(-k * r / 60.0, abs=1e-9)
        assert a["x2"] == 0.0 and a["x1"] <= 0.0
        assert math.hypot(a["x1"], a["y1"]) == pytest.approx(r, abs=2e-9)
    # cosine lines: vertical chords from the horizontal axis to the rim
    for k, a in enumerate(cosines, start=1):
        assert a["x1"] == a["x2"] == pytest.approx(-k * r / 60.0, abs=1e-9)
        assert a["y1"] == 0.0
        assert math.hypot(a["x2"], a["y2"]) == pytest.approx(r, abs=2e-9)


def test_shadow_square_marks():
    r = 100.0
    side = 0.45 * r
    half = side / 2.0
    elements = back_layer(r, "shadow-square")
    assert [tag for tag, _ in elements] == ["line"] * (4 + 12 + 12)
    lines = [a for _, a in elements]
    assert lines[:4] == [
        dict(x1=-half, y1=0.0, x2=half, y2=0.0),
        dict(x1=-half, y1=0.0, x2=-half, y2=side),
        dict(x1=half, y1=0.0, x2=half, y2=side),
        dict(x1=-half, y1=side, x2=half, y2=side),
    ]
    recta, versa = lines[4:16], lines[16:]
    # umbra recta: 12 marks up from the bottom edge, side/12 apart, the
    # last on the corner
    for k, a in enumerate(recta, start=1):
        assert a["x1"] == a["x2"] == pytest.approx(-half + k * side / 12.0, abs=1e-9)
        assert (a["y1"], a["y2"]) == pytest.approx((side, side - 1.5), abs=1e-9)
    # umbra versa: 12 marks in from the right edge, side/12 apart, the
    # last on the same corner
    for k, a in enumerate(versa, start=1):
        assert a["y1"] == a["y2"] == pytest.approx(k * side / 12.0, abs=1e-9)
        assert (a["x1"], a["x2"]) == pytest.approx((half, half - 1.5), abs=1e-9)


def test_midday_altitude_and_curve():
    assert midday_altitude(40.0, 0.0) == 50.0
    arc = midday_curve(40.0, 23.44, 100.0)
    # control points: altitude linear in radius, polar angle = declination;
    # the arc runs from the winter point through the equinox point on the
    # noon line to the summer point, and interpolates all three
    equinox = PlanePoint(0.0, 100.0 * (1.0 - 50.0 / 90.0))
    points = (arc.start_point, equinox, arc.end_point)
    for h, d, p in zip((26.56, 50.0, 73.44), (-23.44, 0.0, 23.44), points):
        r = 100.0 * (1.0 - h / 90.0)
        assert math.hypot(p.x, p.y) == pytest.approx(r, rel=1e-12)
        assert math.degrees(math.atan2(p.x, p.y)) == pytest.approx(d, abs=1e-9)
        assert abs(arc.circle.signed_distance(p)) < 1e-9
    assert arc_holds(arc, equinox)


def test_midday_curve_domain_errors():
    with pytest.raises(DomainError):
        midday_curve(85.0, 23.44, 100.0)  # winter noon below the horizon
    with pytest.raises(DomainError):
        midday_curve(5.0, 23.44, 100.0)  # summer noon past the zenith


def test_a_midday_curve_too_flat_to_bend_is_the_segment_between_its_ends():
    # the three control points coincide (5e-324), or lie on a line
    for obliquity in (5e-324, 1e-300, 1e-13):
        winter, summer = (PlanePoint(100.0 * (1.0 - midday_altitude(40.0, d) / 90.0)
                                     * math.sin(math.radians(d)),
                                     100.0 * (1.0 - midday_altitude(40.0, d) / 90.0)
                                     * math.cos(math.radians(d)))
                          for d in (-obliquity, obliquity))
        assert midday_curve(40.0, obliquity, 100.0) == Segment(winter, summer)


def test_bearing_oracle_matches_enu_route():
    rng = np.random.default_rng(19)
    for _ in range(300):
        o = Locality("o", float(rng.uniform(-80.0, 80.0)), float(rng.uniform(-180.0, 180.0)))
        t = Locality("t", float(rng.uniform(-80.0, 80.0)), float(rng.uniform(-180.0, 180.0)))
        if o.latitude == t.latitude and o.longitude == t.longitude:
            continue
        assert angdiff(bearing_oracle(o, t), enu_bearing(o, t)) < 1e-9


def test_bearing_oracle_cardinal_directions():
    origin = Locality("o", 0.0, 0.0)
    assert bearing_oracle(origin, Locality("n", 10.0, 0.0)) == pytest.approx(0.0, abs=1e-12)
    assert bearing_oracle(origin, Locality("e", 0.0, 10.0)) == pytest.approx(90.0, abs=1e-12)
    assert bearing_oracle(origin, Locality("s", -10.0, 0.0)) == pytest.approx(180.0, abs=1e-12)
    assert bearing_oracle(origin, Locality("w", 0.0, -10.0)) == pytest.approx(270.0, abs=1e-12)


def test_bearing_oracle_degenerate_raises():
    a = Locality("a", 33.5130, 36.2920)
    with pytest.raises(UndefinedBearing):
        bearing_oracle(a, a)
    with pytest.raises(UndefinedBearing):
        bearing_oracle(a, Locality("anti", -33.5130, 36.2920 - 180.0))
    with pytest.raises(UndefinedBearing):
        bearing_oracle(Locality("np", 90.0, 0.0), MECCA)
    with pytest.raises(UndefinedBearing, match="observer at Mecca"):
        qibla_eq13(MECCA)


def test_damascus_to_mecca_bearing():
    b = bearing_oracle(DAMASCUS, MECCA)
    assert b == pytest.approx(164.61001486389492, abs=1e-9)
    assert abs(b - 164.6) < 0.2


def test_qibla_eq13_transcription_and_divergence():
    # the implementation reproduces the printed formula digit for digit
    rng = np.random.default_rng(23)
    for _ in range(200):
        o = Locality("o", float(rng.uniform(-80.0, 80.0)), float(rng.uniform(-180.0, 180.0)))
        assert qibla_eq13(o) == pytest.approx(eq13_verbatim(o), abs=1e-12)
    # it is not the great-circle bearing: Damascus lands far off
    e = qibla_eq13(DAMASCUS)
    assert e == pytest.approx(15.281275, abs=1e-5)
    assert angdiff(e, bearing_oracle(DAMASCUS, MECCA)) > 100.0


def test_qibla_eq13_agrees_on_equal_latitude_family():
    for lon in (10.0, 60.0, 120.0, -40.0):
        o = Locality("x", MECCA.latitude, lon)
        assert angdiff(qibla_eq13(o), bearing_oracle(o, MECCA)) < 1e-9


def test_declination_meridian_reduction():
    for phi in np.arange(5.0, 90.0, 5.0):
        for h in np.arange(0.0, 90.0, 5.0):
            got = declination_from_alt_az(float(phi), float(h), 180.0)
            want = float(phi) + float(h) - 90.0
            assert abs(got - want) < 1e-12


def test_declination_round_trip_through_altitude_solver():
    rng = np.random.default_rng(29)
    checked = 0
    for _ in range(400):
        phi = float(rng.uniform(5.0, 85.0))
        h = float(rng.uniform(1.0, 89.0))
        az = float(rng.uniform(0.0, 360.0))
        dec = declination_from_alt_az(phi, h, az)
        try:
            h2 = solve_altitude_for_azimuth(phi, dec, az)
        except NoSolution:
            continue
        back = declination_from_alt_az(phi, h2, az)
        assert abs(back - dec) < 1e-9
        checked += 1
    assert checked > 300


def test_solve_altitude_no_solution():
    # a deep-south body never reaches the northern azimuth
    with pytest.raises(NoSolution):
        solve_altitude_for_azimuth(45.0, -60.0, 0.0)
    # nor does a body 80 degrees north reach the east point, seen from latitude 40
    with pytest.raises(NoSolution, match="declination 80 never crosses azimuth 90"):
        solve_altitude_for_azimuth(40, 80, 90)


def test_locality_normalizes_longitude():
    assert Locality("x", 10.0, 190.0).longitude == pytest.approx(-170.0)
    assert Locality("x", 10.0, -180.0).longitude == pytest.approx(180.0)
    with pytest.raises(ValueError):
        Locality("", 10.0, 10.0)
    with pytest.raises(ValueError):
        Locality("x", 95.0, 10.0)


def test_build_back_structure():
    cfg = BackConfig(latitude=40.0, radius=150.0)
    model = build_back(cfg, [DAMASCUS])
    assert model.boundary.radius == 150.0
    assert len(model.calendar_angles) == 365
    assert model.midday == midday_curve(40.0, cfg.obliquity, 150.0)
    (loc, bearing), = model.qibla_marks
    assert loc.name == "Damascus"
    assert bearing == pytest.approx(bearing_oracle(DAMASCUS, MECCA))


def test_calendar_ring_steps_are_daily_solar_motion():
    # each tick advances by that day's solar motion; day 366 wraps to day 1
    steps = np.diff(np.asarray(calendar_ring() + (360.0,)))
    for day, step in enumerate(steps, start=1):
        advance = (solar_longitude(day + 1.0) - solar_longitude(float(day))) % 360.0
        assert step == pytest.approx(advance, abs=1e-9)


def test_load_localities(tmp_path):
    path = tmp_path / "loc.csv"
    path.write_text(
        "name,lat_deg,lon_deg\n"
        "Damascus,33.5130,36.2920\n"
        "# comment\n"
        "Cordoba,37.8845,-4.7796\n"
    )
    rows = load_localities(path)
    assert [r.name for r in rows] == ["Damascus", "Cordoba"]
    assert rows[1].longitude == pytest.approx(-4.7796)

    bad = tmp_path / "bad.csv"
    bad.write_text("name,lat,lon\nDamascus,33.5,36.3\n")
    with pytest.raises(ParseError):
        load_localities(bad)
