"""SVG emission: arc path flags against an independent endpoint-
parameterization evaluator, layer structure, mirroring, determinism."""

import math
import re
import warnings
import xml.etree.ElementTree as ET
from collections import Counter

import numpy as np
import pytest

from astrolabe import (
    Arc,
    BackConfig,
    Circle,
    EmptyModelWarning,
    LAYER_IDS,
    Locality,
    PlanePoint,
    PlateConfig,
    RenderStyle,
    StarEntry,
    arc_to_path,
    build_back,
    build_plate,
    build_rete,
    render_full,
    render_svg,
)

SVG = "{http://www.w3.org/2000/svg}"


def parse_arc_path(d):
    """Pull (x1, y1, r, large, sweep, x2, y2) out of an M/A path."""
    m = re.fullmatch(
        r"M (\S+) (\S+) A (\S+) (\S+) 0 ([01]) ([01]) (\S+) (\S+)", d
    )
    assert m, d
    x1, y1, r1, r2, large, sweep, x2, y2 = m.groups()
    assert r1 == r2
    return (
        float(x1), float(y1), float(r1), int(large), int(sweep), float(x2), float(y2),
    )


def svg_arc_points(x1, y1, r, large, sweep, x2, y2, ts):
    """Evaluate the SVG circular-arc endpoint parameterization: recover
    the center per the implementation notes, then sample.  Independent
    of the library's arc representation."""
    xm = (x1 - x2) / 2.0
    ym = (y1 - y2) / 2.0
    num = r * r - xm * xm - ym * ym
    num = max(num, 0.0)
    co = math.sqrt(num / (xm * xm + ym * ym))
    if large == sweep:
        co = -co
    cx = co * ym + (x1 + x2) / 2.0
    cy = -co * xm + (y1 + y2) / 2.0
    th1 = math.atan2(y1 - cy, x1 - cx)
    th2 = math.atan2(y2 - cy, x2 - cx)
    dth = th2 - th1
    if sweep == 0 and dth > 0.0:
        dth -= 2.0 * math.pi
    if sweep == 1 and dth < 0.0:
        dth += 2.0 * math.pi
    return [
        (cx + r * math.cos(th1 + t * dth), cy + r * math.sin(th1 + t * dth))
        for t in ts
    ]


def test_arc_path_matches_svg_evaluator():
    rng = np.random.default_rng(37)
    ts = np.linspace(0.0, 1.0, 9)
    for _ in range(250):
        cx, cy = rng.uniform(-40.0, 40.0, size=2)
        r = float(rng.uniform(0.5, 60.0))
        a0 = float(rng.uniform(0.0, 2.0 * math.pi))
        sweep = float(rng.uniform(0.05, 2.0 * math.pi - 0.05))
        orient = "ccw" if rng.integers(2) else "cw"
        a1 = a0 + sweep if orient == "ccw" else a0 - sweep
        arc = Arc(Circle(PlanePoint(float(cx), float(cy)), r), a0, a1, orient)
        d = arc_to_path(arc, precision=8)
        rendered = svg_arc_points(*parse_arc_path(d), ts=ts)
        for (gx, gy), t in zip(rendered, ts):
            want = arc.point_at_fraction(float(t))
            assert math.hypot(gx - want.x, gy - want.y) < 5e-6


def test_arc_path_flags():
    c = Circle(PlanePoint(0.0, 0.0), 10.0)
    quarter_ccw = arc_to_path(Arc(c, 0.0, math.pi / 2.0, "ccw"))
    assert " 0 1 " in quarter_ccw  # small arc, positive-angle sweep
    quarter_cw = arc_to_path(Arc(c, math.pi / 2.0, 0.0, "cw"))
    assert " 0 0 " in quarter_cw
    major_ccw = arc_to_path(Arc(c, 0.0, 3.0 * math.pi / 2.0, "ccw"))
    assert " 1 1 " in major_ccw  # three-quarter turn sets the large flag
    major_cw = arc_to_path(Arc(c, 0.0, math.pi / 2.0, "cw"))
    assert " 1 0 " in major_cw
    semi = arc_to_path(Arc(c, 0.0, math.pi, "ccw"))
    assert " 0 1 " in semi  # exactly half a turn is not "large"


def test_negative_zero_never_printed():
    arc = Arc(Circle(PlanePoint(-10.0 - 1e-9, 0.0), 10.0), 0.0, math.pi / 2.0, "ccw")
    d = arc_to_path(arc, precision=4)
    assert d.startswith("M 0.0000 ")
    assert "-0.0000" not in d


def plate_model():
    return build_plate(PlateConfig(latitude=40.0, scale=100.0, almucantar_step=10.0))


def rete_model():
    stars = [StarEntry("Vega", 279.235, 38.784, 0.03), StarEntry("Sirius", 101.287, -16.716, -1.46)]
    return build_rete(stars, 100.0, 23.44)


def back_model():
    return build_back(BackConfig(latitude=40.0, radius=150.0))


def test_plate_document_structure():
    doc = render_svg(plate_model())
    root = ET.fromstring(doc)
    assert root.tag == f"{SVG}svg"
    assert root.get("width").endswith("mm")
    assert root.get("height").endswith("mm")
    groups = root.findall(f"{SVG}g")
    ids = [g.get("id") for g in groups]
    assert ids == ["limb", "tropics", "horizon", "almucantars", "azimuths", "hours"]
    for g in groups:
        assert g.get("fill") == "none"
        assert g.get("id") in LAYER_IDS
        assert float(g.get("stroke-width")) > 0.0
    # viewBox carries the 5 percent margin around the boundary circle
    half = 100.0 * math.tan(math.radians(45.0 + 23.44 / 2.0)) * 1.05
    vx, vy, vw, vh = (float(v) for v in root.get("viewBox").split())
    assert vx == pytest.approx(-half, abs=1e-3)
    assert vw == pytest.approx(2.0 * half, abs=1e-3)


def test_every_model_primitive_appears_exactly_once():
    m = plate_model()
    root = ET.fromstring(render_svg(m))
    by_id = {g.get("id"): g for g in root.findall(f"{SVG}g")}
    assert len(by_id["tropics"]) == len(m.tropics)
    assert len(by_id["almucantars"]) == len(m.almucantars)
    assert len(by_id["azimuths"]) == len(m.azimuths)
    assert len(by_id["hours"]) == len(m.hour_lines)
    assert len(by_id["limb"]) == 1
    assert len(by_id["horizon"]) == 1


def test_rete_and_back_documents():
    rete_doc = render_svg(rete_model())
    root = ET.fromstring(rete_doc)
    ids = [g.get("id") for g in root.findall(f"{SVG}g")]
    assert ids == ["limb", "ecliptic", "stars"]
    stars = root.findall(f"{SVG}g")[2]
    # marker dot plus name label per pointer
    assert len(stars.findall(f"{SVG}circle")) == 2
    texts = [t.text for t in stars.findall(f"{SVG}text")]
    assert sorted(texts) == ["Sirius", "Vega"]

    back_doc = render_svg(back_model())
    root = ET.fromstring(back_doc)
    ids = [g.get("id") for g in root.findall(f"{SVG}g")]
    assert ids == ["limb", "calendar", "sine-quadrant", "shadow-square", "midday"]
    calendar = root.findall(f"{SVG}g")[1]
    # two ring circles plus 365 day ticks
    assert len(calendar) == 2 + 365


def test_zodiac_labels_present():
    root = ET.fromstring(render_svg(rete_model()))
    ecliptic = next(g for g in root.findall(f"{SVG}g") if g.get("id") == "ecliptic")
    texts = [t.text for t in ecliptic.findall(f"{SVG}text")]
    assert len(texts) == 12
    assert "Aries" in texts and "Pisces" in texts


def test_include_layers_filter():
    style = RenderStyle(include_layers=frozenset({"tropics", "horizon"}))
    root = ET.fromstring(render_svg(plate_model(), style))
    ids = [g.get("id") for g in root.findall(f"{SVG}g")]
    assert ids == ["tropics", "horizon"]


def test_empty_layer_selection_warns_and_draws_boundary():
    style = RenderStyle(include_layers=frozenset({"qibla"}))  # plate has no qibla
    with pytest.warns(EmptyModelWarning):
        doc = render_svg(plate_model(), style)
    root = ET.fromstring(doc)
    ids = [g.get("id") for g in root.findall(f"{SVG}g")]
    assert ids == ["limb"]
    assert len(root.findall(f"{SVG}g")[0]) == 1


def test_render_style_validation():
    with pytest.raises(ValueError):
        RenderStyle(precision=0)
    with pytest.raises(ValueError):
        RenderStyle(precision=10)
    with pytest.raises(ValueError):
        RenderStyle(include_layers=frozenset({"bogus"}))


def test_byte_determinism():
    m = plate_model()
    style = RenderStyle(precision=5)
    assert render_svg(m, style) == render_svg(m, style)
    full_a = render_full(plate_model(), rete_model(), back_model())
    full_b = render_full(plate_model(), rete_model(), back_model())
    assert full_a == full_b


def test_precision_controls_decimals():
    doc3 = render_svg(plate_model(), RenderStyle(precision=3))
    doc6 = render_svg(plate_model(), RenderStyle(precision=6))
    assert doc3 != doc6
    root = ET.fromstring(doc3)
    circle = root.findall(f"{SVG}g")[0].find(f"{SVG}circle")
    assert re.fullmatch(r"-?\d+\.\d{3}", circle.get("r"))


def negated(s):
    """The formatted number s with its sign flipped; zero stays unsigned."""
    if s.startswith("-"):
        return s[1:]
    return s if float(s) == 0.0 else "-" + s


# step 1/1 plates over the back face's band, 0.731 degrees apart; the
# latitudes 26.924, 51.778 and 63.474 are among them
MIRROR_LATITUDES = [round(24.0 + 0.731 * k, 3) for k in range(58)]


def test_mirror_negates_x_only():
    """The mirror_ew document is the plain one with every x string negated,
    every arc sweep flag s replaced by 1 - s and every text-anchor start
    and end swapped; nothing else differs."""
    localities = [Locality("Damascus", 33.513, 36.292), Locality("Lisbon", 38.72, -9.14)]
    back = build_back(BackConfig(latitude=40.0, radius=150.0), localities)
    cases = [(plate_model(), 4), (rete_model(), 4), (back_model(), 4), (back, 4)] + [
        (build_plate(PlateConfig(latitude=lat, scale=100.0, almucantar_step=1.0,
                                 azimuth_step=1.0)), 9)
        for lat in MIRROR_LATITUDES
    ]
    anchors = Counter()
    for model, precision in cases:
        plain = ET.fromstring(render_svg(model, RenderStyle(precision=precision)))
        mirrored = ET.fromstring(
            render_svg(model, RenderStyle(precision=precision, mirror_ew=True))
        )
        assert plain.attrib == mirrored.attrib
        groups = zip(plain.findall(f"{SVG}g"), mirrored.findall(f"{SVG}g"), strict=True)
        for g_p, g_m in groups:
            assert g_p.attrib == g_m.attrib
            for el_p, el_m in zip(g_p, g_m, strict=True):
                assert el_p.tag == el_m.tag
                assert el_p.text == el_m.text
                assert el_p.attrib.keys() == el_m.attrib.keys()
                for key, value in el_p.attrib.items():
                    if key in ("cx", "x1", "x2", "x"):
                        assert el_m.get(key) == negated(value)
                    elif key == "text-anchor":
                        swapped = {"start": "end", "end": "start"}.get(value, value)
                        assert el_m.get(key) == swapped
                        anchors[value] += 1
                    elif key == "d":
                        x1, y1, radii, sweep, x2, y2 = re.fullmatch(
                            r"M (\S+) (\S+) A (\S+ \S+ 0 [01]) ([01]) (\S+) (\S+)", value
                        ).groups()
                        assert el_m.get(key) == (
                            f"M {negated(x1)} {y1} A {radii} {1 - int(sweep)} "
                            f"{negated(x2)} {y2}"
                        )
                    else:
                        assert el_m.get(key) == value
    # star labels (rete) and qibla labels (back) are anchored at their start
    assert anchors["start"] > 0 and anchors["middle"] > 0


def test_mirrored_arcs_trace_the_mirrored_geometry():
    m = plate_model()
    plain = ET.fromstring(render_svg(m))
    mirrored = ET.fromstring(render_svg(m, RenderStyle(mirror_ew=True)))
    ts = [0.25, 0.5, 0.75]
    for g_p, g_m in zip(plain.findall(f"{SVG}g"), mirrored.findall(f"{SVG}g")):
        for el_p, el_m in zip(g_p, g_m):
            if el_p.tag != f"{SVG}path":
                continue
            pts_p = svg_arc_points(*parse_arc_path(el_p.get("d")), ts=ts)
            pts_m = svg_arc_points(*parse_arc_path(el_m.get("d")), ts=ts)
            for (xp, yp), (xm, ym) in zip(pts_p, pts_m):
                assert xm == pytest.approx(-xp, abs=5e-3)
                assert ym == pytest.approx(yp, abs=5e-3)


def test_render_full_layout():
    doc = render_full(plate_model(), rete_model(), back_model())
    root = ET.fromstring(doc)
    tops = root.findall(f"{SVG}g")
    assert [g.get("id") for g in tops] == ["plate", "rete", "back"]
    # the widest face sets the cell size: the plate's Capricorn boundary
    half = 100.0 * math.tan(math.radians(45.0 + 23.44 / 2.0)) * 1.05
    for i, g in enumerate(tops):
        assert g.get("transform") == f"translate({2.0 * half * i:.4f} 0)"
    inner_ids = [g.get("id") for g in tops[0].findall(f"{SVG}g")]
    assert inner_ids[0] == "plate-limb"
    assert "plate-almucantars" in inner_ids
    rete_ids = [g.get("id") for g in tops[1].findall(f"{SVG}g")]
    assert rete_ids == ["rete-limb", "rete-ecliptic", "rete-stars"]
    # document is wide enough for the three faces
    _, _, vw, _ = (float(v) for v in root.get("viewBox").split())
    assert vw == pytest.approx(6.0 * half, abs=1e-3)


def test_label_text_is_escaped():
    stars = [StarEntry("A & B <c>", 100.0, 20.0, 1.0)]
    doc = render_svg(build_rete(stars, 100.0, 23.44))
    assert "A &amp; B &lt;c&gt;" in doc
    root = ET.fromstring(doc)  # must stay well-formed
    texts = root.findall(f".//{SVG}text")
    assert any(t.text == "A & B <c>" for t in texts)


def test_unknown_model_type_rejected():
    with pytest.raises(TypeError):
        render_svg(object())
