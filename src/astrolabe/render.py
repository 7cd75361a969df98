"""Deterministic SVG emission for plate, rete, and back models.

Output is SVG 1.1, UTF-8, millimeter units, one ``<g>`` per drawn layer
with a stable id, elements in construction order, and every coordinate
rounded to a fixed number of decimals (so the same model and style
always produce byte-identical documents).

Each layer is an id and a function that writes its elements, with one
pen per call: the model's own circles, arcs, segments and star markers,
and the fixed scales (limb ticks, sine quadrant, shadow square, the
zodiac's long and short ticks, labels) straight from the boundary radius
or the degree index.  Model coordinates are mathematical (y up); the pen
negates y, and x too under `mirror_ew`, as it formats each coordinate,
and inverts an arc's sweep flag when sx*sy < 0.  Rounding is symmetric
in sign, so a `mirror_ew` document is the exact x-negation of the plain
one (zero stays unsigned), except that a label anchored at its start or
end swaps the two, so that it still runs away from its marker.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

from .back import BackModel
from .exceptions import EmptyModelWarning
from .geometry import Arc, Circle, PlanePoint, Segment
from .plate import PlateModel
from .rete import ReteModel

# every layer id with its one stroke width (mm), in LAYER_IDS order
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
LAYER_IDS = tuple(_STROKES)

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
        if type(self.precision) is not int or not 1 <= self.precision <= 9:
            raise ValueError(f"precision must be an int in [1, 9], got {self.precision!r}")
        if self.include_layers is not None:
            bad = set(self.include_layers) - set(LAYER_IDS)
            if bad:
                raise ValueError(f"unknown layer ids: {sorted(bad)}")
            object.__setattr__(self, "include_layers", frozenset(self.include_layers))


def _fmt(value: float, precision: int) -> str:
    s = f"{value:.{precision}f}"
    if s[0] == "-" and not s.strip("-0."):  # rounds to zero: print it unsigned
        return s[1:]
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


def _polar(radius: float, angle_deg: float) -> tuple[float, float]:
    a = math.radians(angle_deg)  # plate angle: degrees clockwise from +y
    return radius * math.sin(a), radius * math.cos(a)


class _Pen:
    """Writes SVG elements from plain model coordinates (y up): each x
    and y is multiplied by its sign factor and rounded as it is written."""

    def __init__(self, precision: int, sx: float, sy: float):
        self.p, self.sx, self.sy = precision, sx, sy
        # a mirrored label runs the other way from its anchor point
        self.anchors = {"start": "end", "end": "start"} if sx < 0 else {}

    def line(self, x1: float, y1: float, x2: float, y2: float) -> str:
        p, sx, sy = self.p, self.sx, self.sy
        return (
            f'<line x1="{_fmt(sx * x1, p)}" y1="{_fmt(sy * y1, p)}" '
            f'x2="{_fmt(sx * x2, p)}" y2="{_fmt(sy * y2, p)}"/>'
        )

    def circle(self, cx: float, cy: float, r: float, tail: str = "") -> str:
        p = self.p
        return (
            f'<circle cx="{_fmt(self.sx * cx, p)}" '
            f'cy="{_fmt(self.sy * cy, p)}" r="{_fmt(r, p)}"{tail}/>'
        )

    def tick(self, angle_deg: float, r_out: float, r_in: float) -> str:
        """Radial segment at a plate angle, from r_out in to r_in."""
        a = math.radians(angle_deg)
        s, c = math.sin(a), math.cos(a)
        return self.line(r_out * s, r_out * c, r_in * s, r_in * c)

    def label(self, x: float, y: float, text: str, anchor: str = "middle") -> str:
        p = self.p
        # xml.sax.saxutils.escape, without its import: `&` first
        text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        return (
            f'<text x="{_fmt(self.sx * x, p)}" y="{_fmt(self.sy * y, p)}" '
            f'font-size="{_LABEL_FONT_SIZE:g}" '
            f'text-anchor="{self.anchors.get(anchor, anchor)}" '
            f'fill="#000" stroke="none">{text}</text>'
        )

    def emit(self, el) -> str:
        """A model-owned element: Circle, Arc, Segment or star marker."""
        if isinstance(el, Circle):
            return self.circle(el.center.x, el.center.y, el.radius)
        if isinstance(el, Arc):
            return f'<path d="{_arc_path(el, self.p, self.sx, self.sy)}"/>'
        if isinstance(el, Segment):
            return self.line(el.a.x, el.a.y, el.b.x, el.b.y)
        if isinstance(el, PlanePoint):
            return self.circle(el.x, el.y, _STAR_MARKER_R, ' fill="#000" stroke="none"')
        raise TypeError(f"cannot emit {type(el).__name__}")


# ---- per-model layers: (id, draw), draw(pen) -> element lines -----------


def _plate_layers(m: PlateModel) -> list:
    layers = [
        ("limb", lambda pen: [pen.emit(m.boundary)]),
        ("tropics", lambda pen: [pen.emit(c) for c in m.tropics]),
        ("horizon", lambda pen: [pen.emit(m.horizon)]),
        ("almucantars", lambda pen: [pen.emit(el) for el in m.almucantars]),
        ("azimuths", lambda pen: [pen.emit(el) for el in m.azimuths]),
    ]
    if m.hour_lines:
        layers.append(("hours", lambda pen: [pen.emit(el) for el in m.hour_lines]))
    return layers


def _rete_layers(m: ReteModel) -> list:
    def ecliptic(pen):
        lines, labels = [pen.emit(m.ecliptic)], []
        cx, cy = m.ecliptic.center.x, m.ecliptic.center.y
        for lam, pt in enumerate(m.zodiac_points):  # one tick per degree of longitude
            px, py = pt.x, pt.y
            dx, dy = cx - px, cy - py
            norm = math.hypot(dx, dy)
            ln = 2.8 if lam % 30 == 0 else 1.2
            lines.append(pen.line(px, py, px + dx / norm * ln, py + dy / norm * ln))
            if lam % 30 == 15:
                lx, ly = px + dx / norm * 7.0, py + dy / norm * 7.0
                labels.append(pen.label(lx, ly, _ZODIAC[lam // 30]))
        return lines + labels

    def stars(pen):
        return [pen.emit(pt) for _, pt in m.pointers] + [
            pen.label(pt.x + 1.5, pt.y + 1.5, star.name, "start") for star, pt in m.pointers
        ]

    boundary = ("limb", lambda pen: [pen.emit(m.boundary)])
    return [boundary, ("ecliptic", ecliptic), ("stars", stars)]


def _back_layers(m: BackModel) -> list:
    r = m.boundary.radius
    side = 0.45 * r
    half = side / 2.0

    def limb(pen):  # 360 one-degree ticks, long every tenth, numbered every 30
        return (
            [pen.emit(m.boundary)]
            + [pen.tick(a, r, r * (0.94 if a % 10 == 0 else 0.97)) for a in range(360)]
            + [pen.label(*_polar(r * 0.905, a), f"{a}") for a in range(0, 360, 30)]
        )

    def calendar(pen):
        return [pen.circle(0.0, 0.0, r * 0.88), pen.circle(0.0, 0.0, r * 0.84)] + [
            pen.tick(ang, r * 0.88, r * (0.84 if i % 10 == 0 else 0.86))
            for i, ang in enumerate(m.calendar_angles)
        ]

    def sine_quadrant(pen):  # 60 radius divisions; the k = 60 chords have no length
        frame = Arc(Circle(PlanePoint(0.0, 0.0), r), math.pi / 2.0, math.pi, "ccw")
        d = [k * (r / 60) for k in range(1, 60)]
        reach = [math.sqrt(r * r - dk * dk) for dk in d]
        return (
            [pen.emit(frame), pen.line(-r, 0.0, 0.0, 0.0), pen.line(0.0, 0.0, 0.0, r)]
            + [pen.line(-w, dk, 0.0, dk) for dk, w in zip(d, reach)]  # sines
            + [pen.line(-dk, 0.0, -dk, w) for dk, w in zip(d, reach)]  # cosines
        )

    def shadow_square(pen):
        lines = [
            pen.line(-half, 0.0, half, 0.0),
            pen.line(-half, 0.0, -half, -side),
            pen.line(half, 0.0, half, -side),
            pen.line(-half, -side, half, -side),
        ]
        for k in range(1, 13):  # umbra recta: 12 digits along the bottom
            x = -half + k / 12 * side
            lines.append(pen.line(x, -side, x, -side + 1.5))
        for k in range(1, 13):  # umbra versa: 12 digits down the right side
            y = -(k / 12) * side
            lines.append(pen.line(half, y, half - 1.5, y))
        return lines

    def midday(pen):
        return [pen.emit(c.element) for c in m.midday_curves] + [
            pen.label(c.points[1].x, c.points[1].y + 2.0, f"{c.latitude:g}")
            for c in m.midday_curves
        ]

    def qibla(pen):
        return [pen.tick(bearing, r * 0.82, 0.0) for _, bearing in m.qibla_marks] + [
            pen.label(*_polar(r * 0.6, bearing), loc.name, "start")
            for loc, bearing in m.qibla_marks
        ]

    layers = [
        ("limb", limb),
        ("calendar", calendar),
        ("sine-quadrant", sine_quadrant),
        ("shadow-square", shadow_square),
        ("midday", midday),
    ]
    if m.qibla_marks:
        layers.append(("qibla", qibla))
    return layers


_LAYERS = {PlateModel: _plate_layers, ReteModel: _rete_layers, BackModel: _back_layers}


# ---- document assembly ---------------------------------------------------


def _bodies(style: RenderStyle, faces) -> list[str]:
    """The joined layer groups of each (id prefix, model) face.  The
    document negates y, and x too under `mirror_ew`.  Only the selected
    layers are drawn; an empty selection warns (EmptyModelWarning) and
    draws the boundary alone."""
    pen = _Pen(style.precision, -1.0 if style.mirror_ew else 1.0, -1.0)
    bodies = []
    for prefix, model in faces:
        if type(model) not in _LAYERS:
            raise TypeError(f"cannot render {type(model).__name__}")
        layers = _LAYERS[type(model)](model)
        if style.include_layers is not None:
            layers = [l for l in layers if l[0] in style.include_layers]
        if not layers:
            warnings.warn("model has no layers to draw; emitting the boundary only",
                          EmptyModelWarning, stacklevel=3)
            layers = [("limb", lambda pen: [pen.emit(model.boundary)])]
        bodies.append(
            "\n".join(
                f'<g id="{prefix}{name}" fill="none" stroke="#000" '
                f'stroke-width="{_STROKES[name]:g}" stroke-linecap="round">\n'
                + "".join(f"  {line}\n" for line in draw(pen))
                + "</g>"
                for name, draw in layers
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
