"""Deterministic SVG emission for plate, rete, and back models.

Output is SVG 1.1, UTF-8, millimeter units, one ``<g>`` per drawn layer
with a stable id, elements in construction order, and every coordinate
rounded to a fixed number of decimals (so the same model and style
always produce byte-identical documents).

Model coordinates are mathematical (y up); the document negates y so
the plate reads upright on screen, and `mirror_ew` additionally negates
x for the mirrored engraving convention.  Both reflections are sign
factors (sx, sy) applied to each coordinate as it is formatted; the
model geometry itself is emitted unchanged, and an arc's sweep flag is
inverted when sx*sy < 0.  Rounding is symmetric in sign, so a
`mirror_ew` document is the exact x-negation of the plain one: every x
string gains or loses its minus sign (zero stays unsigned), and a label
anchored at its start or end swaps the two, so that it still runs away
from its marker.  Nothing else changes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional
from xml.sax.saxutils import escape

from .back import BackModel
from .exceptions import EmptyModelWarning
from .geometry import Arc, Circle, PlanePoint, Segment
from .plate import PlateModel
from .projection import from_plate_polar
from .rete import ReteModel

LAYER_IDS = (
    "limb",
    "tropics",
    "horizon",
    "almucantars",
    "azimuths",
    "hours",
    "ecliptic",
    "stars",
    "calendar",
    "shadow-square",
    "sine-quadrant",
    "midday",
    "qibla",
)

_STROKES = {
    "limb": 0.5,
    "tropics": 0.35,
    "horizon": 0.4,
    "almucantars": 0.2,
    "azimuths": 0.2,
    "hours": 0.25,
    "ecliptic": 0.4,
    "stars": 0.3,
    "calendar": 0.2,
    "shadow-square": 0.25,
    "sine-quadrant": 0.15,
    "midday": 0.3,
    "qibla": 0.3,
}

_ZODIAC = (
    "Aries", "Taurus", "Gemini", "Cancer", "Leo", "Virgo",
    "Libra", "Scorpio", "Sagittarius", "Capricorn", "Aquarius", "Pisces",
)

_STAR_MARKER_R = 0.8

_LABEL_FONT_SIZE = 3.0


@dataclass(frozen=True)
class RenderStyle:
    """Presentation settings.  `precision` is the coordinate decimal
    count (1..9); `mirror_ew` negates x for the mirrored engraving
    convention; `include_layers` of None draws every layer the model
    has.  Stroke widths (one fixed width per layer) and the 3 mm label
    font size are not settable."""

    precision: int = 4
    mirror_ew: bool = False
    include_layers: Optional[frozenset] = None

    def __post_init__(self):
        if not (1 <= int(self.precision) <= 9):
            raise ValueError(f"precision must lie in [1, 9], got {self.precision!r}")
        if self.include_layers is not None:
            bad = set(self.include_layers) - set(LAYER_IDS)
            if bad:
                raise ValueError(f"unknown layer ids: {sorted(bad)}")
            object.__setattr__(self, "include_layers", frozenset(self.include_layers))


@dataclass(frozen=True)
class _Label:
    x: float
    y: float
    text: str
    anchor: str = "middle"


def _fmt(value: float, precision: int) -> str:
    s = f"{value:.{precision}f}"
    if float(s) == 0.0:
        s = f"{0.0:.{precision}f}"
    return s


# ---- element emission --------------------------------------------------


def _arc_path(arc: Arc, precision: int, sx: float, sy: float) -> str:
    p0 = arc.start_point
    p1 = arc.end_point
    sweep_deg = abs(math.degrees(arc.sweep))
    large = 1 if sweep_deg > 180.0 + 1e-12 else 0
    flag = 1 if arc.orientation == "ccw" else 0
    if sx * sy < 0:  # a reflection in one axis reverses the sense of rotation
        flag = 1 - flag
    r = _fmt(arc.circle.radius, precision)
    return (
        f"M {_fmt(sx * p0.x, precision)} {_fmt(sy * p0.y, precision)} "
        f"A {r} {r} 0 {large} {flag} "
        f"{_fmt(sx * p1.x, precision)} {_fmt(sy * p1.y, precision)}"
    )


def arc_to_path(arc: Arc, precision: int = 4) -> str:
    """SVG path fragment for an arc: M to the start point, one elliptical
    arc command to the end point.  The sweep flag follows the arc's
    orientation in coordinate algebra (ccw = positive-angle = 1); the
    large-arc flag is set only for sweeps beyond a semicircle."""
    return _arc_path(arc, precision, 1.0, 1.0)


def _emit(el, precision: int, sx: float, sy: float) -> str:
    if isinstance(el, Circle):
        return (
            f'<circle cx="{_fmt(sx * el.center.x, precision)}" '
            f'cy="{_fmt(sy * el.center.y, precision)}" r="{_fmt(el.radius, precision)}"/>'
        )
    if isinstance(el, Arc):
        return f'<path d="{_arc_path(el, precision, sx, sy)}"/>'
    if isinstance(el, Segment):
        return (
            f'<line x1="{_fmt(sx * el.a.x, precision)}" y1="{_fmt(sy * el.a.y, precision)}" '
            f'x2="{_fmt(sx * el.b.x, precision)}" y2="{_fmt(sy * el.b.y, precision)}"/>'
        )
    if isinstance(el, PlanePoint):
        return (
            f'<circle cx="{_fmt(sx * el.x, precision)}" cy="{_fmt(sy * el.y, precision)}" '
            f'r="{_fmt(_STAR_MARKER_R, precision)}" fill="#000" stroke="none"/>'
        )
    raise TypeError(f"cannot emit {type(el).__name__}")


def _radial_tick(angle_deg: float, r_out: float, r_in: float) -> Segment:
    return Segment(from_plate_polar(r_out, angle_deg), from_plate_polar(r_in, angle_deg))


# ---- per-model layer assembly -------------------------------------------


def _plate_layers(m: PlateModel) -> list[tuple[str, list, list[_Label]]]:
    layers = [
        ("limb", [m.boundary], []),
        ("tropics", list(m.tropics), []),
        ("horizon", [m.horizon], []),
        ("almucantars", [c.element for c in m.almucantars], []),
        ("azimuths", [c.element for c in m.azimuths], []),
    ]
    if m.hour_lines:
        layers.append(("hours", [h.element for h in m.hour_lines], []))
    return layers


def _rete_layers(m: ReteModel) -> list[tuple[str, list, list[_Label]]]:
    ecl_els: list = [m.ecliptic]
    labels: list[_Label] = []
    cx, cy = m.ecliptic.center.x, m.ecliptic.center.y
    for tick in m.zodiac_ticks:
        px, py = tick.point.x, tick.point.y
        dx, dy = cx - px, cy - py
        norm = math.hypot(dx, dy)
        ln = 2.8 if tick.major else 1.2
        ecl_els.append(
            Segment(tick.point, PlanePoint(px + dx / norm * ln, py + dy / norm * ln))
        )
        lam = int(round(tick.longitude))
        if lam % 30 == 15:
            lx = px + dx / norm * 7.0
            ly = py + dy / norm * 7.0
            labels.append(_Label(lx, ly, _ZODIAC[lam // 30]))
    star_els: list = []
    star_labels: list[_Label] = []
    for entry, pt in m.pointers:
        star_els.append(pt)
        star_labels.append(_Label(pt.x + 1.5, pt.y + 1.5, entry.name, anchor="start"))
    return [
        ("limb", [m.boundary], []),
        ("ecliptic", ecl_els, labels),
        ("stars", star_els, star_labels),
    ]


def _back_layers(m: BackModel) -> list[tuple[str, list, list[_Label]]]:
    r = m.boundary.radius
    limb_els: list = [m.boundary]
    limb_labels: list[_Label] = []
    for tick in m.degree_ticks:
        inner = 0.94 if tick.major else 0.97
        limb_els.append(_radial_tick(tick.angle, r, r * inner))
        if tick.major and int(tick.angle) % 30 == 0:
            pos = from_plate_polar(r * 0.905, tick.angle)
            limb_labels.append(_Label(pos.x, pos.y, f"{int(tick.angle)}"))

    origin = PlanePoint(0.0, 0.0)
    cal_els: list = [Circle(origin, r * 0.88), Circle(origin, r * 0.84)]
    for i, ang in enumerate(m.calendar_angles):
        inner = 0.84 if i % 10 == 0 else 0.86
        cal_els.append(_radial_tick(ang, r * 0.88, r * inner))

    sq = m.sine_quadrant
    quad_els: list = [
        Arc(Circle(origin, sq.radius), math.pi / 2.0, math.pi, "ccw"),
        Segment(PlanePoint(-sq.radius, 0.0), origin),
        Segment(origin, PlanePoint(0.0, sq.radius)),
    ]
    quad_els.extend(sq.sine_lines)
    quad_els.extend(sq.cosine_lines)

    sh = m.shadow_square
    side, half = sh.side, sh.side / 2.0
    shadow_els: list = [
        Segment(PlanePoint(-half, 0.0), PlanePoint(half, 0.0)),
        Segment(PlanePoint(-half, 0.0), PlanePoint(-half, -side)),
        Segment(PlanePoint(half, 0.0), PlanePoint(half, -side)),
        Segment(PlanePoint(-half, -side), PlanePoint(half, -side)),
    ]
    for mark in sh.marks:
        if mark.scale == "recta":
            x = -half + mark.fraction * side
            shadow_els.append(Segment(PlanePoint(x, -side), PlanePoint(x, -side + 1.5)))
        else:
            y = -mark.fraction * side
            shadow_els.append(Segment(PlanePoint(half, y), PlanePoint(half - 1.5, y)))

    midday_els = [c.element for c in m.midday_curves]
    midday_labels = [
        _Label(c.points[1].x, c.points[1].y + 2.0, f"{c.latitude:g}")
        for c in m.midday_curves
    ]

    qibla_els: list = []
    qibla_labels: list[_Label] = []
    for loc, bearing in m.qibla_marks:
        qibla_els.append(_radial_tick(bearing, r * 0.82, 0.0))
        pos = from_plate_polar(r * 0.6, bearing)
        qibla_labels.append(_Label(pos.x, pos.y, loc.name, anchor="start"))

    layers = [
        ("limb", limb_els, limb_labels),
        ("calendar", cal_els, []),
        ("sine-quadrant", quad_els, []),
        ("shadow-square", shadow_els, []),
        ("midday", midday_els, midday_labels),
    ]
    if qibla_els:
        layers.append(("qibla", qibla_els, qibla_labels))
    return layers


def _layers_for(model) -> list[tuple[str, list, list[_Label]]]:
    if isinstance(model, PlateModel):
        return _plate_layers(model)
    if isinstance(model, ReteModel):
        return _rete_layers(model)
    if isinstance(model, BackModel):
        return _back_layers(model)
    raise TypeError(f"cannot render {type(model).__name__}")


# ---- document assembly ---------------------------------------------------


def _group(
    name: str,
    elements: list,
    labels: list[_Label],
    style: RenderStyle,
    sx: float,
    sy: float,
    prefix: str,
) -> str:
    p = style.precision
    parts = [
        f'<g id="{prefix}{name}" fill="none" stroke="#000" '
        f'stroke-width="{_STROKES[name]:g}" '
        f'stroke-linecap="round">'
    ]
    for el in elements:
        parts.append("  " + _emit(el, p, sx, sy))
    # a mirrored label runs the other way from its anchor point
    anchors = {"start": "end", "end": "start"} if sx < 0 else {}
    for lab in labels:
        parts.append(
            f'  <text x="{_fmt(sx * lab.x, p)}" y="{_fmt(sy * lab.y, p)}" '
            f'font-size="{_LABEL_FONT_SIZE:g}" '
            f'text-anchor="{anchors.get(lab.anchor, lab.anchor)}" '
            f'fill="#000" stroke="none">{escape(lab.text)}</text>'
        )
    parts.append("</g>")
    return "\n".join(parts)


def _bodies(style: RenderStyle, faces) -> list[str]:
    """The joined layer groups of each (id prefix, model) face.  The
    document negates y, and x too under `mirror_ew`; an empty layer
    selection warns (EmptyModelWarning) and draws the boundary alone."""
    sx = -1.0 if style.mirror_ew else 1.0
    sy = -1.0
    bodies = []
    for prefix, model in faces:
        layers = _layers_for(model)
        if style.include_layers is not None:
            layers = [l for l in layers if l[0] in style.include_layers]
        if not layers:
            warnings.warn(
                "model has no layers to draw; emitting the boundary only",
                EmptyModelWarning,
                stacklevel=3,
            )
            layers = [("limb", [model.boundary], [])]
        bodies.append(
            "\n".join(
                _group(name, els, labels, style, sx, sy, prefix)
                for name, els, labels in layers
            )
        )
    return bodies


def _document(body: str, half_extent: float, style: RenderStyle, width: float = None) -> str:
    p = style.precision
    w = width if width is not None else 2.0 * half_extent
    vb = (
        f"{_fmt(-half_extent, p)} {_fmt(-half_extent, p)} "
        f"{_fmt(w, p)} {_fmt(2.0 * half_extent, p)}"
    )
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(w, p)}mm" height="{_fmt(2.0 * half_extent, p)}mm" '
        f'viewBox="{vb}">\n'
        f"{body}\n"
        "</svg>\n"
    )


def render_svg(model, style: Optional[RenderStyle] = None) -> str:
    """Render one model (plate, rete, or back) to a complete SVG
    document.  Layer selection via style.include_layers; an empty
    selection warns (EmptyModelWarning) and draws the boundary alone."""
    style = style or RenderStyle()
    (body,) = _bodies(style, [("", model)])
    return _document(body, model.boundary.radius * 1.05, style)


def render_full(
    plate_model: PlateModel,
    rete_model: ReteModel,
    back_model: BackModel,
    style: Optional[RenderStyle] = None,
) -> str:
    """Render all three faces side by side in one document: top-level
    groups `plate`, `rete`, `back`, inner layer ids prefixed (e.g.
    `plate-tropics`) to keep ids unique."""
    style = style or RenderStyle()
    faces = {"plate": plate_model, "rete": rete_model, "back": back_model}
    half = max(m.boundary.radius for m in faces.values()) * 1.05
    bodies = _bodies(style, [(f"{top}-", m) for top, m in faces.items()])
    parts = [
        f'<g id="{top}" transform="translate({_fmt(2.0 * half * i, style.precision)} 0)">'
        f"\n{inner}\n</g>"
        for i, (top, inner) in enumerate(zip(faces, bodies))
    ]
    return _document("\n".join(parts), half, style, width=6.0 * half)
