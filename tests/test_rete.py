"""Rete geometry: ecliptic ring, zodiac graduation, star pointers."""

import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from astrolabe import (
    DuplicateStarName,
    OutsidePlate,
    ParseError,
    PlanePoint,
    RenderStyle,
    StarEntry,
    build_rete,
    ecliptic_circle,
    ecliptic_point,
    from_plate_polar,
    load_star_catalog,
    plate_angle_deg,
    render_svg,
    star_pointer,
    stereographic_radius,
    tropic_radii,
    unproject_point,
)

S = 100.0
EPS = 23.44
SVG = "{http://www.w3.org/2000/svg}"


def tick_starts(model):
    """The first point of each zodiac tick: the point of that whole degree of longitude."""
    v = model.zodiac_ticks.values
    return [PlanePoint(v[i], v[i + 1]) for i in range(0, len(v), 4)]


def sun_dec(longitude, obliquity=EPS):
    """Declination of the sun at ecliptic longitude lambda, degrees."""
    return math.degrees(
        math.asin(math.sin(math.radians(obliquity)) * math.sin(math.radians(longitude)))
    )


def test_ecliptic_circle_closed_form():
    c = ecliptic_circle(S, EPS)
    e = math.radians(EPS)
    assert c.center.x == 0.0
    assert c.center.y == pytest.approx(S * math.tan(e), rel=1e-15)
    assert c.radius == pytest.approx(S / math.cos(e), rel=1e-15)
    assert c.center.y == pytest.approx(43.3568, abs=1e-4)
    assert c.radius == pytest.approx(108.9945, abs=1e-4)


def test_ecliptic_tangent_to_both_tropics():
    c = ecliptic_circle(S, EPS)
    r_cap, _, r_can = tropic_radii(S, EPS)
    # touches Capricorn at the winter solstice, Cancer at the summer one
    assert c.center.y + c.radius == pytest.approx(r_cap, rel=1e-12)
    assert c.center.y - c.radius == pytest.approx(-r_can, rel=1e-12)


def test_ecliptic_points_lie_on_the_ring():
    c = ecliptic_circle(S, EPS)
    for lam in np.arange(0.0, 360.0, 3.0):
        p = ecliptic_point(float(lam), S, EPS)
        assert abs(c.signed_distance(p)) < 1e-9 * S


def test_ecliptic_point_unprojects_to_solar_position():
    # inverse stereographic projection recovers the sun's declination
    for lam in np.arange(0.0, 360.0, 7.0):
        sp = unproject_point(ecliptic_point(float(lam), S, EPS), S)
        assert sp.dec == pytest.approx(sun_dec(float(lam)), abs=1e-9)


def test_ecliptic_solstice_points_on_the_colure():
    r_cap, _, r_can = tropic_radii(S, EPS)
    summer = ecliptic_point(90.0, S, EPS)
    winter = ecliptic_point(270.0, S, EPS)
    assert (summer.x, summer.y) == pytest.approx((0.0, -r_can), abs=1e-9)
    assert (winter.x, winter.y) == pytest.approx((0.0, r_cap), abs=1e-9)
    vernal = ecliptic_point(0.0, S, EPS)
    assert (vernal.x, vernal.y) == pytest.approx((S, 0.0), abs=1e-9)


def test_zodiac_ticks_on_circle_and_major_flags():
    model = build_rete([], S, EPS)
    assert len(model.zodiac_ticks.values) == 4 * 360
    for lam, point in enumerate(tick_starts(model)):
        assert abs(model.ecliptic.signed_distance(point)) < 1e-9 * S
        assert point == ecliptic_point(float(lam), S, EPS)
    # each sign opens with a long tick (2.8 mm) in the rendered layer; the
    # other 348 degrees get short ones (1.2 mm)
    doc = render_svg(model, RenderStyle(precision=9, include_layers={"ecliptic"}))
    (group,) = ET.fromstring(doc).findall(f"{SVG}g")
    lengths = [
        math.hypot(float(t.get("x2")) - float(t.get("x1")),
                   float(t.get("y2")) - float(t.get("y1")))
        for t in group.findall(f"{SVG}line")
    ]
    assert len(lengths) == 360
    long_ticks = [lam for lam, ln in enumerate(lengths) if abs(ln - 2.8) < 1e-8]
    assert long_ticks == list(range(0, 360, 30))
    assert sum(abs(ln - 1.2) < 1e-8 for ln in lengths) == 348


def parent_ecliptic_point(lam, scale, obliquity):
    """The plate point of longitude lambda through the projection's own
    radius and polar placement, as the rete formed it before its table."""
    lr, e = math.radians(lam), math.radians(obliquity)
    dec = math.degrees(math.asin(max(-1.0, min(1.0, math.sin(e) * math.sin(lr)))))
    ra = math.degrees(math.atan2(math.sin(lr) * math.cos(e), math.cos(lr)))
    return from_plate_polar(stereographic_radius(dec, scale), ra + 90.0)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 100.0, 1e6])
@pytest.mark.parametrize("obliquity", [1e-9, 10.0, 23.44, 29.999])
def test_zodiac_table_points_are_the_ecliptic_points_bit_for_bit(obliquity, scale):
    model = build_rete([], scale, obliquity)
    assert build_rete([], scale, obliquity).zodiac_ticks == model.zodiac_ticks  # cached table
    points = tick_starts(model)
    assert len(points) == 360
    for lam, point in enumerate(points):
        assert point == ecliptic_point(float(lam), scale, obliquity)
        assert point == parent_ecliptic_point(float(lam), scale, obliquity)
    for lam in (0.5, 123.456, -30.0, 719.0):
        assert ecliptic_point(lam, scale, obliquity) == parent_ecliptic_point(lam, scale, obliquity)


@pytest.mark.parametrize("args", [(10.0, 0.0, EPS), (10.0, math.inf, EPS), (10.0, S, -1.0),
                                  (10.0, S, 30.0), (10.0, S, math.nan)])
def test_ecliptic_point_validates_scale_and_obliquity(args):
    with pytest.raises(ValueError, match="scale|obliquity"):
        ecliptic_point(*args)


def test_zodiac_opposition_half_turn_apart():
    points = tick_starts(build_rete([], S, EPS))
    for lam in range(180):
        a = plate_angle_deg(points[lam])
        b = plate_angle_deg(points[lam + 180])
        diff = (b - a) % 360.0
        assert diff == pytest.approx(180.0, abs=math.degrees(1e-9))


def test_star_pointer_reference_position():
    star = StarEntry("First Point", 0.0, 0.0, 1.0)
    p = star_pointer(star, S, EPS)
    assert (p.x, p.y) == pytest.approx((0.0, S), abs=1e-12)


def test_star_pointer_round_trip():
    rng = np.random.default_rng(13)
    for _ in range(200):
        ra = float(rng.uniform(0.0, 360.0))
        dec = float(rng.uniform(-EPS + 0.5, 89.0))
        p = star_pointer(StarEntry("s", ra, dec, 0.0), S, EPS)
        sp = unproject_point(p, S)
        assert sp.dec == pytest.approx(dec, abs=1e-9)
        assert min(abs(sp.hour_angle - ra), 360.0 - abs(sp.hour_angle - ra)) < 1e-9


def test_star_pointer_outside_boundary_raises():
    with pytest.raises(OutsidePlate):
        star_pointer(StarEntry("far south", 10.0, -30.0, 0.0), S, EPS)
    # exactly on the boundary declination counts as outside
    with pytest.raises(OutsidePlate):
        star_pointer(StarEntry("rim", 10.0, -EPS, 0.0), S, EPS)


def test_build_rete_skips_and_reports_outside_stars():
    stars = [
        StarEntry("Vega", 279.235, 38.784, 0.03),
        StarEntry("Fomalhaut", 344.413, -29.622, 1.16),
    ]
    model = build_rete(stars, S, EPS)
    assert [s.name for s, _ in model.pointers] == ["Vega"]
    assert [s.name for s, _ in model.skipped] == ["Fomalhaut"]
    assert "Fomalhaut" in model.skipped[0][1]
    assert model.boundary.radius == pytest.approx(tropic_radii(S, EPS)[0])


def test_build_rete_duplicate_names_raise():
    stars = [StarEntry("Vega", 279.235, 38.784, 0.03), StarEntry("Vega", 100.0, 10.0, 2.0)]
    with pytest.raises(DuplicateStarName):
        build_rete(stars, S, EPS)


def test_star_entry_validation():
    with pytest.raises(ValueError):
        StarEntry("", 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        StarEntry("x", 0.0, 95.0, 0.0)
    assert StarEntry("x", 370.0, 0.0, 0.0).ra == pytest.approx(10.0)


def test_load_star_catalog_round_trip(tmp_path):
    path = tmp_path / "stars.csv"
    path.write_text(
        "# bright stars\n"
        "name,ra_deg,dec_deg,mag\n"
        "Sirius,101.287,-16.716,-1.46\n"
        "\n"
        "Vega,279.235,38.784,0.03\n"
    )
    rows = load_star_catalog(path)
    assert [r.name for r in rows] == ["Sirius", "Vega"]
    assert rows[0].dec == pytest.approx(-16.716)
    assert rows[1].magnitude == pytest.approx(0.03)


def test_load_star_catalog_errors(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("name,ra,dec,mag\nVega,1,2,3\n")
    with pytest.raises(ParseError):
        load_star_catalog(bad_header)

    bad_count = tmp_path / "c.csv"
    bad_count.write_text("name,ra_deg,dec_deg,mag\nVega,1,2\n")
    with pytest.raises(ParseError) as exc:
        load_star_catalog(bad_count)
    assert exc.value.line == 2

    bad_value = tmp_path / "v.csv"
    bad_value.write_text("name,ra_deg,dec_deg,mag\n# note\nVega,1,two,3\n")
    with pytest.raises(ParseError) as exc:
        load_star_catalog(bad_value)
    assert exc.value.line == 3

    out_of_range = tmp_path / "d.csv"
    out_of_range.write_text("name,ra_deg,dec_deg,mag\nVega,279.235,38.784,0.03\nNowhere,10,95,1\n")
    with pytest.raises(ParseError) as exc:
        load_star_catalog(out_of_range)
    assert str(exc.value) == "declination must lie in [-90, 90], got 95.0 (line 3)"

    empty = tmp_path / "e.csv"
    empty.write_text("# nothing here\n")
    with pytest.raises(ParseError):
        load_star_catalog(empty)
