"""SVG emission: arc path flags against an independent endpoint-
parameterization evaluator, layer structure, mirroring, determinism."""

import math
import random
import re
import warnings
import xml.etree.ElementTree as ET
import xml.sax.saxutils as saxutils
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from astrolabe import (
    Arc,
    BackConfig,
    BackModel,
    Circle,
    EmptyModelWarning,
    LAYER_IDS,
    Lines,
    Locality,
    PlanePoint,
    PlateConfig,
    RenderStyle,
    Segment,
    StarEntry,
    Ticks,
    build_back,
    build_plate,
    build_rete,
    calendar_ring,
    ecliptic_point,
    render_full,
    render_svg,
)
from astrolabe.plate import STRAIGHT_REL, PlateModel, _vertical_end
from astrolabe.projection import OBLIQUITY
from astrolabe import render
from astrolabe.render import _Pen
from test_geometry import arc_point, point_at

SVG = "{http://www.w3.org/2000/svg}"


def angle_arc(circle, a0, a1, orientation):
    """The arc of a circle between its points at polar angles a0 and a1."""
    return Arc(circle, point_at(circle, a0), point_at(circle, a1), orientation)


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


def printed(value, precision):
    """One number as a document prints it: the pen's one-number template, by `_Pen.run`."""
    pen = _Pen(precision, 1.0, 1.0)
    return pen.run(pen.number, (value,))


def path_d(arc, precision=4):
    """The d attribute of an arc's row, as an unmirrored document pen prints it."""
    m = re.fullmatch(r'  <path d="([^"]*)"/>\n', _Pen(precision, 1.0, 1.0).emit(arc))
    assert m, arc
    return m.group(1)


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
        arc = angle_arc(Circle(PlanePoint(float(cx), float(cy)), r), a0, a1, orient)
        d = path_d(arc, precision=8)
        rendered = svg_arc_points(*parse_arc_path(d), ts=ts)
        for (gx, gy), t in zip(rendered, ts):
            want = arc_point(arc, float(t))
            assert math.hypot(gx - want.x, gy - want.y) < 5e-6


def test_arc_path_flags():
    c = Circle(PlanePoint(0.0, 0.0), 10.0)
    quarter_ccw = path_d(angle_arc(c, 0.0, math.pi / 2.0, "ccw"))
    assert " 0 1 " in quarter_ccw  # small arc, positive-angle sweep
    quarter_cw = path_d(angle_arc(c, math.pi / 2.0, 0.0, "cw"))
    assert " 0 0 " in quarter_cw
    major_ccw = path_d(angle_arc(c, 0.0, 3.0 * math.pi / 2.0, "ccw"))
    assert " 1 1 " in major_ccw  # three-quarter turn sets the large flag
    major_cw = path_d(angle_arc(c, 0.0, math.pi / 2.0, "cw"))
    assert " 1 0 " in major_cw
    semi = path_d(angle_arc(c, 0.0, math.pi, "ccw"))
    assert " 0 1 " in semi  # exactly half a turn is not "large"


def test_an_arc_whose_ends_print_as_one_point_is_its_circle():
    # SVG draws no arc between two equal points; over half a turn, the
    # arc is its circle to the printed precision
    c = Circle(PlanePoint(1.0, 2.0), 10.0)
    for pen in (_Pen(4, 1.0, 1.0), _Pen(4, -1.0, 1.0)):
        assert pen.emit(angle_arc(c, 0.0, 2.0 * math.pi - 1e-6, "ccw")) == pen.emit(c)
        assert pen.emit(angle_arc(c, 0.0, 1e-6, "cw")) == pen.emit(c)
        assert pen.emit(angle_arc(c, 0.0, 2.0 * math.pi - 1e-3, "ccw")).startswith("  <path")
        assert pen.emit(angle_arc(c, 0.0, 1e-6, "ccw")).startswith("  <path")
    assert _Pen(9, 1.0, 1.0).emit(angle_arc(c, 0.0, 2.0 * math.pi - 1e-6, "ccw")).startswith("  <path")


def test_a_near_pole_vertical_prints_its_computed_ends():
    # at lat 89.999 the verticals' circles are 6e6 to 1.3e7 mm wide; at
    # precision 9 the path's M and end numbers are the two points that
    # _vertical_end computed, formatted as they are
    cfg = PlateConfig(latitude=89.999, scale=100.0, azimuth_step=5.0)
    model = build_plate(cfg)
    pen = _Pen(9, 1.0, -1.0)
    arcs = 0
    for a, el in zip(range(0, 180, 5), model.azimuths):
        if not isinstance(el, Arc):
            continue
        assert el.circle.radius > 5e6
        arcs += 1
        m = re.fullmatch(r'  <path d="M (\S+) (\S+) A \S+ \S+ 0 [01] [01] (\S+) (\S+)"/>\n',
                         pen.emit(el))
        ends = {(printed(p.x, 9), printed(-p.y, 9))
                for p in (_vertical_end(cfg, 270.0 - a), _vertical_end(cfg, 90.0 - a))}
        assert {m.group(1, 2), m.group(3, 4)} == ends
    assert arcs > 10 and model.boundary.radius * STRAIGHT_REL > 1.2e7


def test_negative_zero_never_printed():
    arc = angle_arc(Circle(PlanePoint(-10.0 - 1e-9, 0.0), 10.0), 0.0, math.pi / 2.0, "ccw")
    d = path_d(arc, precision=4)
    assert d.startswith("M 0.0000 ")
    assert "-0.0000" not in d


@pytest.mark.parametrize("precision", range(1, 10))
def test_the_pen_unsigns_exactly_the_numbers_that_round_to_zero(precision):
    assert printed(-1e-300, precision) == printed(-0.0, precision) == "0." + "0" * precision
    assert printed(-10.0 ** -precision, precision) == "-0." + "0" * (precision - 1) + "1"


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
    limb, calendar = root.findall(f"{SVG}g")[:2]
    # boundary plus 360 one-degree ticks, 36 of them long, and a number every 30
    ticks = limb.findall(f"{SVG}line")
    assert len(limb.findall(f"{SVG}circle")) + len(ticks) == 1 + 360
    r = float(limb.find(f"{SVG}circle").get("r"))
    inner = [math.hypot(float(t.get("x2")), float(t.get("y2"))) for t in ticks]
    assert sum(abs(d - 0.94 * r) < 1e-3 for d in inner) == 36
    assert [t.text for t in limb.findall(f"{SVG}text")] == [str(a) for a in range(0, 360, 30)]
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


@pytest.mark.parametrize("build, layer, kept", [
    (lambda: build_rete([], 100.0), "stars", True),
    (lambda: build_back(BackConfig(40.0, 100.0)), "qibla", False),
    (lambda: build_plate(PlateConfig(70.0, 100.0)), "hours", False),
], ids=["rete-without-stars", "back-without-localities", "arctic-plate"])
def test_of_the_empty_layers_only_hours_and_qibla_are_left_out(build, layer, kept):
    model = build()
    groups = {g.get("id"): g for g in ET.fromstring(render_svg(model)).findall(f"{SVG}g")}
    assert (layer in groups) == kept
    if kept:  # an empty group
        assert len(groups[layer]) == 0
        assert render_svg(model, RenderStyle(include_layers={layer})).count("<g ") == 1
    else:  # selected alone, it leaves nothing to draw
        with pytest.warns(EmptyModelWarning):
            render_svg(model, RenderStyle(include_layers={layer}))


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


@pytest.mark.parametrize("precision", [4.0, 4.5, True, "4"])
def test_render_style_precision_must_be_an_int(precision):
    # int() accepts all four, but only an int that is not a bool is a precision
    with pytest.raises(ValueError, match="precision must be an int"):
        RenderStyle(precision=precision)


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
    # byte for byte as xml.sax.saxutils.escape, which render does without
    names = ["&amp; <> \"'", "&&<<>>", "Al-Dabarān «α Tau» & 天狼星", "a&lt;b", "'\"'", "é\u0301>"]
    doc = render_svg(build_rete([StarEntry(n, 100.0 + i, 20.0, 1.0)
                                 for i, n in enumerate(names)], 100.0, 23.44))
    for name in names:
        assert f">{saxutils.escape(name)}</text>" in doc
    assert [t.text for t in ET.fromstring(doc).findall(f".//{SVG}text")][-len(names):] == names


@pytest.mark.parametrize("mirror", [False, True])
def test_label_text_is_never_a_template(mirror):
    # format fields, a printf field and a negative zero in a name are text:
    # escaped, otherwise verbatim, with the sign of its -0.000 kept
    name = "a{0}{} -0.000 %s &<>"
    want = ">a{0}{} -0.000 %s &amp;&lt;&gt;</text>"
    style = RenderStyle(mirror_ew=mirror)
    rete = build_rete([StarEntry(name, 100.0, 20.0, 1.0)], 100.0, 23.44)
    back = build_back(BackConfig(latitude=40.0, radius=150.0), [Locality(name, 48.85, 2.35)])
    docs = [render_svg(rete, style), render_svg(back, style),
            render_full(plate_model(), rete, back, style)]
    assert [doc.count(want) for doc in docs] == [1, 1, 2]
    for doc in docs:
        texts = [t.text for t in ET.fromstring(doc).iter(f"{SVG}text")]
        assert texts.count(name) == doc.count(want)


def test_unknown_model_type_rejected():
    with pytest.raises(TypeError):
        render_svg(object())
    plate, back = plate_model(), back_model()
    render_full(plate, rete_model(), back)  # the memo now holds plate and back
    with pytest.raises(TypeError, match="cannot render SimpleNamespace"):
        render_full(plate, SimpleNamespace(boundary=back.boundary), back)
    # a plate built by hand that holds something other than an element
    fields = {name: getattr(plate, name) for name in PlateModel.__slots__}
    with pytest.raises(TypeError, match="cannot emit str"):
        render_svg(PlateModel(**dict(fields, tropics=("the equator",))))


# ---- the row memo: renders of one model object and style reuse its rows ----


@pytest.fixture
def emitted(monkeypatch):
    """A list that counts each run of rows the pen prints from here on (every
    element, line and tick goes through `_Pen.run`, in a template of rows,
    each ending in a newline; a document's header and each layer's labels
    print their numbers by `run` too, in templates that end in none): a
    render whose faces all reuse their rows adds nothing to it."""
    count, run = [], render._Pen.run

    def counted(pen, template, values):
        if template.endswith(b"\n"):
            count.append(1)
        return run(pen, template, values)

    monkeypatch.setattr(render._Pen, "run", counted)
    return count


def faces():
    """A fresh plate, rete and back, each a new object."""
    return plate_model(), rete_model(), back_model()


@pytest.mark.parametrize("mirror", [False, True])
@pytest.mark.parametrize("layers", [None, frozenset({"limb", "hours", "stars", "calendar"})])
@pytest.mark.parametrize("precision", range(1, 10))
def test_memo_hits_print_the_bytes_of_misses(precision, mirror, layers, emitted):
    style = RenderStyle(precision=precision, mirror_ew=mirror, include_layers=layers)
    single = [render_svg(m, style) for m in faces()]  # new objects: misses
    full = render_full(*faces(), style)
    models = faces()
    assert [render_svg(m, style) for m in models] == single  # misses, then
    before = len(emitted)
    assert render_full(*models, style) == full  # three hits
    assert [render_svg(m, style) for m in models] == single  # and three more
    assert len(emitted) == before


def test_memo_keys_on_the_object_and_the_whole_style(emitted):
    a, b = plate_model(), plate_model()
    assert a == b and a is not b
    style = RenderStyle(precision=5)
    doc = render_svg(a, style)
    before = len(emitted)
    assert render_svg(b, style) == doc  # an equal model that is another object misses
    assert len(emitted) > before
    # a style that differs in any field misses and prints what a fresh model prints
    for other in (RenderStyle(precision=6), RenderStyle(precision=5, mirror_ew=True),
                  RenderStyle(precision=5, include_layers={"tropics", "hours"})):
        render_svg(a, style)
        before = len(emitted)
        assert render_svg(a, other) == render_svg(plate_model(), other)
        assert len(emitted) > before
    style = RenderStyle(precision=5, include_layers={"hours", "tropics"})
    doc = render_svg(a, style)
    before = len(emitted)
    assert render_svg(a, RenderStyle(precision=5, include_layers={"tropics", "hours"})) == doc
    assert len(emitted) == before  # an equal style, built anew, hits
    # the memo keeps the object it drew, so no model built after it is let go can
    # take its address and hit: here one without hour lines, built straight after
    fields = a._fields(a)
    del a
    c = PlateModel(*fields[:-1], ())
    assert 'id="hours"' in doc and 'id="hours"' not in render_svg(c, style)
    assert len(emitted) > before


def test_memo_warns_on_every_call_to_an_empty_selection(emitted):
    m = plate_model()
    drawn = render_svg(m)
    style = RenderStyle(include_layers=frozenset({"qibla"}))  # plate has no qibla
    with pytest.warns(EmptyModelWarning):
        first = render_svg(m, style)
    for _ in range(2):  # drawn anew, with a warning, on every call
        before = len(emitted)
        with pytest.warns(EmptyModelWarning):
            assert render_svg(m, style) == first
        assert len(emitted) == before + 1
    before = len(emitted)
    assert render_svg(m) == drawn  # the plate drawn before is still kept
    assert len(emitted) == before


def test_memo_holds_one_instrument_set(emitted):
    rete, back = rete_model(), back_model()
    kept = [render_svg(rete), render_svg(back)]
    models = [build_plate(PlateConfig(latitude=10.0 + 5.0 * k, scale=100.0)) for k in range(10)]
    docs = [render_svg(m) for m in models]
    before = len(emitted)
    assert [render_svg(models[9]), render_svg(rete), render_svg(back)] == docs[9:] + kept
    assert len(emitted) == before  # the last plate and the other kinds' faces hit
    assert render_svg(models[8]) == docs[8]
    assert len(emitted) > before  # an earlier plate was let go


# ---- the flat emitter: every value prints as a per-row emission printed it ----


def printed(value, precision):
    """A number as a document prints it: fixed point, unsigned where it reads as zero."""
    text = f"{value:.{precision}f}"
    return text.lstrip("-") if float(text) == 0.0 else text


def reference_lines(rows, precision, sx, sy):
    """One <line> per (x1, y1, x2, y2) model row, formatted row by row, each
    value signed as sx * x or sy * y."""
    return "".join(
        f'  <line x1="{printed(sx * x1, precision)}" y1="{printed(sy * y1, precision)}" '
        f'x2="{printed(sx * x2, precision)}" y2="{printed(sy * y2, precision)}"/>\n'
        for x1, y1, x2, y2 in rows)


def reference_row(el, precision, sx, sy):
    """A model element's row as a per-row str emission printed it: each
    number formatted alone, x signed as sx * x and y as sy * y; a large arc
    whose two ends print as one point is its circle."""
    def p(value):
        return printed(value, precision)

    if isinstance(el, Arc):
        ends = [(p(sx * q.x), p(sy * q.y)) for q in (el.start_point, el.end_point)]
        large = abs(math.degrees(el.sweep)) > 180.0 + 1e-12
        if not (large and ends[0] == ends[1]):
            flag = (el.orientation == "ccw") != (sx * sy < 0)
            (x0, y0), (x1, y1), r = *ends, p(el.circle.radius)
            return f'  <path d="M {x0} {y0} A {r} {r} 0 {large:d} {flag:d} {x1} {y1}"/>\n'
        el = el.circle
    if isinstance(el, Circle):
        return (f'  <circle cx="{p(sx * el.center.x)}" cy="{p(sy * el.center.y)}" '
                f'r="{p(el.radius)}"/>\n')
    if isinstance(el, Segment):
        return reference_lines([(el.a.x, el.a.y, el.b.x, el.b.y)], precision, sx, sy)
    return (f'  <circle cx="{p(sx * el.x)}" cy="{p(sy * el.y)}" r="{p(0.8)}" '
            'fill="#000" stroke="none"/>\n')


def reference_ticks(degrees, r_out, r_long, r_short):
    """A scale's rows as r * sin and r * cos of each angle in degrees, in from
    r_out: the first of every ten to r_long, the rest to r_short."""
    rows = []
    for k, a in enumerate(degrees):
        s, c = math.sin(math.radians(a)), math.cos(math.radians(a))
        ri = r_long if k % 10 == 0 else r_short
        rows.append((r_out * s, r_out * c, ri * s, ri * c))
    return rows


def reference_zodiac(m, scale, obliquity):
    """The rete's one-degree ticks as rows: in from each longitude's
    `ecliptic_point` toward the ecliptic's center, 2.8 mm at each sign's
    start and 1.2 mm elsewhere."""
    rows = []
    cx, cy = m.ecliptic.center.x, m.ecliptic.center.y
    for lam in range(360):
        pt = ecliptic_point(float(lam), scale, obliquity)
        dx, dy = cx - pt.x, cy - pt.y
        norm = math.hypot(dx, dy)
        ln = 2.8 if lam % 30 == 0 else 1.2
        rows.append((pt.x, pt.y, pt.x + dx / norm * ln, pt.y + dy / norm * ln))
    return rows


def line_rows(text):
    return "".join(row for row in text.splitlines(keepends=True) if row.startswith("  <line"))


def layer_rows(model, name, precision, mirror):
    """The rows of one layer of a model, as `render_svg` prints that layer alone."""
    doc = render_svg(model, RenderStyle(precision=precision, mirror_ew=mirror,
                                        include_layers=frozenset({name})))
    return "".join(row for row in doc.splitlines(keepends=True) if row.startswith("  <"))


def unit_table(degrees):
    """(sin, cos, sin, cos) of each angle in degrees, flat: a Ticks' unit."""
    return tuple(v for a in degrees for v in (math.sin(math.radians(a)),
                                              math.cos(math.radians(a))) * 2)


# SCALE's two ends and four radii spread over it, log-uniform
RADII = (1e-6, 1e9) + tuple(10.0 ** random.Random(29).uniform(-6.0, 9.0) for _ in range(4))


@pytest.mark.parametrize("radius", RADII)
@pytest.mark.parametrize("mirror", [False, True])
@pytest.mark.parametrize("precision", range(1, 10))
def test_every_scale_tick_prints_the_per_row_reference(precision, mirror, radius):
    sx, sy = (-1.0 if mirror else 1.0), -1.0
    back, rete = build_back(BackConfig(40.0, radius)), build_rete([], radius)
    r = radius
    want = {
        "limb": reference_ticks(range(360), r, r * 0.94, r * 0.97),
        "calendar": reference_ticks(calendar_ring(), r * 0.88, r * 0.84, r * 0.86),
    }
    for name, rows in want.items():
        assert len(rows) in (360, 365)
        assert line_rows(layer_rows(back, name, precision, mirror)) == reference_lines(
            rows, precision, sx, sy)
    zodiac = reference_zodiac(rete, radius, OBLIQUITY)
    assert len(zodiac) == 360
    assert line_rows(layer_rows(rete, "ecliptic", precision, mirror)) == reference_lines(
        zodiac, precision, sx, sy)


@pytest.mark.parametrize("mirror", [False, True])
@pytest.mark.parametrize("precision", range(1, 10))
def test_lines_prints_each_run_of_four_values_as_one_reference_row(precision, mirror):
    sx, sy = (-1.0 if mirror else 1.0), -1.0
    rng = random.Random(precision)
    half_unit = 0.5 * 10.0 ** -precision  # the numbers either side of it round apart
    values = [0.0, -0.0, 5e-324, -5e-324, half_unit, -half_unit, math.nextafter(half_unit, 1.0),
              -math.nextafter(half_unit, 1.0), 1e9, -1e9, 1e-6, -1e-6]
    values += [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, 9.0) for _ in range(388)]
    rows = list(zip(*[iter(values)] * 4))
    want = reference_lines(rows, precision, sx, sy)
    pen = _Pen(precision, sx, sy)
    assert pen.elements([Lines(values)]) == pen.emit(Lines(tuple(values))) == want
    assert pen.emit(Ticks(unit_table(range(360)), 1.0, 1.0, 1.0)) == reference_lines(
        reference_ticks(range(360), 1.0, 1.0, 1.0), precision, sx, sy)
    # every element kind at those values, in one run and each alone
    points = [PlanePoint(x, y) for x, y in zip(values[::2], values[1::2])]
    elements = [Segment(a, b) for a, b in zip(points[::2], points[1::2])]
    elements += points  # star markers
    elements += [Circle(p, abs(r)) for p, r in zip(points, reversed(values)) if r]
    elements += [angle_arc(Circle(p, 1.0), 0.0, a, o) for p in points[:12]
                 for a, o in ((0.5 * math.pi, "ccw"), (1.5 * math.pi, "ccw"), (0.5 * math.pi, "cw"))]
    # large arcs either side of the circle rule: ends a thousandth of a unit apart print
    # as one point (the last pair's x either side of 0, so only once unsigned), ten
    # units apart as two; a small arc stays a path either way
    c, gap = Circle(PlanePoint(1.0, 2.0), 10.0), 1e-4 * 10.0 ** -precision
    top = Circle(PlanePoint(0.0, -10.0), 10.0)
    near = [angle_arc(c, 0.0, 2.0 * math.pi - gap, "ccw"), angle_arc(c, 0.0, gap, "cw"),
            angle_arc(top, 0.5 * (math.pi + gap), 0.5 * (math.pi - gap), "ccw")]
    apart = [angle_arc(c, 0.0, 2.0 * math.pi - 10.0 ** (1 - precision), "ccw"),
             angle_arc(c, 0.0, 10.0 ** (1 - precision), "cw"),
             angle_arc(c, 0.0, gap, "ccw")]
    assert [pen.emit(arc) for arc in near] == [pen.emit(c)] * 2 + [pen.emit(top)]
    assert all(pen.emit(arc).startswith("  <path") for arc in apart)
    elements += near + apart
    random.Random(precision).shuffle(elements)
    want = "".join(reference_row(el, precision, sx, sy) for el in elements)
    assert pen.elements(elements) == "".join(map(pen.emit, elements)) == want
    # and the model elements of each plate layer, one run per layer
    plate = plate_model()
    owned = {"limb": [plate.boundary], "tropics": plate.tropics, "horizon": [plate.horizon],
             "almucantars": plate.almucantars, "azimuths": plate.azimuths,
             "hours": plate.hour_lines}
    for name, elements in owned.items():
        assert layer_rows(plate, name, precision, mirror) == "".join(
            reference_row(el, precision, sx, sy) for el in elements)


def test_the_calendar_ticks_follow_the_model_angles():
    back = build_back(BackConfig(40.0, 100.0))
    fields = {name: getattr(back, name) for name in BackModel.__slots__}
    ring = back.calendar_angles
    assert ring is calendar_ring()
    r = 100.0
    assert back.calendar_ticks == Ticks(unit_table(ring), r * 0.88, r * 0.84, r * 0.86)
    # a hand-built model with its own 37 angles and their ticks draws its own ticks
    angles = [a + 0.5 for a in ring[:37]]
    own = BackModel(**dict(fields, calendar_angles=angles,
                           calendar_ticks=Ticks(unit_table(angles), r * 0.88, r * 0.84, r * 0.86)))
    for model, degrees in ((own, angles), (back, ring), (own, angles)):  # no rows are reused
        assert line_rows(layer_rows(model, "calendar", 6, True)) == reference_lines(
            reference_ticks(degrees, r * 0.88, r * 0.84, r * 0.86), 6, -1.0, -1.0)
    doc = render_svg(own, RenderStyle(precision=6, mirror_ew=True,
                                      include_layers=frozenset({"calendar"})))
    assert doc.count("<line ") == 37
