"""Deterministic SVG emission for plate, rete, and back models.

Output is SVG 1.1, UTF-8, millimeter units, one ``<g>`` per drawn layer
with a stable id, elements in construction order, and every coordinate
rounded to a fixed number of decimals (so the same model and style
always produce byte-identical documents).

Each layer is an id and a function that returns its rows of text: the
model's own circles, arcs, segments and star markers, and the fixed
scales (limb ticks, sine quadrant, shadow square, the zodiac's long and
short ticks, labels) straight from the boundary radius or the degree
index.  One pen per document holds a printf-style row template for each
element kind (`<line>`, `<circle>`, arc `<path>`, a label's x and y),
built once from the precision with the indent and newline in it; a run
of lines is one `%` format over the repeated line template, and a model
element is one row.  Model coordinates are mathematical (y up); the pen negates y, and x
too under `mirror_ew`, and inverts an arc's sweep flag when sx*sy < 0.
One rule prints a number that rounds to zero unsigned: the regex
`_NEGATIVE_ZERO`, run on formatted numbers only (never on label text).
Rounding is symmetric in sign, so a `mirror_ew` document is the exact
x-negation of the plain one, except that a label anchored at its start
or end swaps the two, so that it still runs away from its marker.

Renders of the same model object with the same style reuse its layer
rows: `render_full` after `render_svg` of each face emits nothing anew.
The memo is keyed by the object's identity and the whole style, and
holds the last instrument set only (three faces); models are immutable,
so reused rows are the bytes a fresh emission would print.
"""

from __future__ import annotations

import math
import re
import warnings
from typing import Optional

from .back import BackModel, midday_altitude
from .exceptions import EmptyModelWarning
from .geometry import Arc, Circle, PlanePoint, Segment, _Record
from .plate import PlateModel
from .projection import PRECISION, from_plate_polar
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


class RenderStyle(_Record):
    """Presentation settings.  `precision` is the coordinate decimal
    count (1..9); `mirror_ew` negates x for the mirrored engraving
    convention; `include_layers` of None draws every layer the model
    has.  Stroke widths (one fixed width per layer) and the 3 mm label
    font size are not settable."""

    __slots__ = ("precision", "mirror_ew", "include_layers")

    def __init__(self, precision: int = 4, mirror_ew: bool = False,
                 include_layers: Optional[frozenset] = None):
        if type(precision) is not int:
            raise ValueError(f"precision {PRECISION.text}, got {precision!r}")
        PRECISION.check(precision, "precision")
        if include_layers is not None:
            bad = set(include_layers) - set(LAYER_IDS)
            if bad:
                raise ValueError(f"unknown layer ids: {sorted(bad)}")
            # sorted, so that equal sets iterate (and print) alike once a copy rebuilt one
            include_layers = frozenset(sorted(include_layers))
        object.__setattr__(self, "precision", precision)
        object.__setattr__(self, "mirror_ew", mirror_ew)
        object.__setattr__(self, "include_layers", include_layers)


# a "-" before a number that rounds to zero at the printed precision
_NEGATIVE_ZERO = re.compile(r"-(?=0\.0+(?![0-9]))")


def _unsigned_zero(numbers: str) -> str:
    """Formatted numbers with each one that rounds to zero unsigned."""
    return _NEGATIVE_ZERO.sub("", numbers) if "-0." in numbers else numbers


def _fmt(value: float, precision: int) -> str:
    return _unsigned_zero(f"{value:.{precision}f}")


# sine and cosine of each whole-degree plate angle
_WHOLE_DEGREES = tuple((math.sin(math.radians(a)), math.cos(math.radians(a))) for a in range(360))


# ---- element emission --------------------------------------------------


class _Pen:
    """Writes indented SVG element rows from plain model coordinates
    (y up): each x and y is multiplied by its sign factor and formatted
    through the pen's row templates."""

    def __init__(self, precision: int, sx: float, sy: float):
        self.sx, self.sy = sx, sy
        f = f"%.{precision}f"
        self.line_row = f'  <line x1="{f}" y1="{f}" x2="{f}" y2="{f}"/>\n'
        self.circle_row = f'  <circle cx="{f}" cy="{f}" r="{f}"%s/>\n'
        self.arc_row = f'  <path d="M {f} {f} A {f} {f} 0 %d %d {f} {f}"/>\n'
        self.xy = f'x="{f}" y="{f}"'
        self.point = f"{f} {f}"
        # a mirrored label runs the other way from its anchor point
        self.anchors = {"start": "end", "end": "start"} if sx < 0 else {}

    def lines(self, rows) -> str:
        """One <line> row per (x1, y1, x2, y2), in one format call."""
        sx, sy = self.sx, self.sy
        return self._line_rows([v for x1, y1, x2, y2 in rows
                                for v in (sx * x1, sy * y1, sx * x2, sy * y2)])

    def ticks(self, rays) -> str:
        """Radial lines, one per (sin, cos, r_out, r_in) of a plate angle."""
        sx, sy = self.sx, self.sy
        return self._line_rows([v for s, c, ro, ri in rays
                                for v in (sx * ro * s, sy * ro * c, sx * ri * s, sy * ri * c)])

    def _line_rows(self, values: list) -> str:
        return _unsigned_zero((self.line_row * (len(values) // 4)) % tuple(values))

    def label(self, x: float, y: float, text: str, anchor: str = "middle") -> str:
        # xml.sax.saxutils.escape, without its import: `&` first
        text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        return (
            f"  <text {_unsigned_zero(self.xy % (self.sx * x, self.sy * y))} "
            f'font-size="{_LABEL_FONT_SIZE:g}" '
            f'text-anchor="{self.anchors.get(anchor, anchor)}" '
            f'fill="#000" stroke="none">{text}</text>\n'
        )

    def emit(self, el) -> str:
        """A model-owned element: Circle, Arc, Segment or star marker."""
        sx, sy = self.sx, self.sy
        if isinstance(el, Circle):
            row = self.circle_row % (sx * el.center.x, sy * el.center.y, el.radius, "")
        elif isinstance(el, Arc):
            p0, p1, r = el.start_point, el.end_point, el.circle.radius
            large = abs(math.degrees(el.sweep)) > 180.0 + 1e-12
            if large and (_unsigned_zero(self.point % (sx * p0.x, sy * p0.y))
                          == _unsigned_zero(self.point % (sx * p1.x, sy * p1.y))):
                # SVG draws no arc between equal points: this one is its circle to the precision
                return self.emit(el.circle)
            # a reflection in one axis reverses the sense of rotation
            flag = (el.orientation == "ccw") != (sx * sy < 0)
            row = self.arc_row % (sx * p0.x, sy * p0.y, r, r, large, flag,
                                  sx * p1.x, sy * p1.y)
        elif isinstance(el, Segment):
            return self.lines([(el.a.x, el.a.y, el.b.x, el.b.y)])
        elif isinstance(el, PlanePoint):
            row = self.circle_row % (sx * el.x, sy * el.y, _STAR_MARKER_R,
                                     ' fill="#000" stroke="none"')
        else:
            raise TypeError(f"cannot emit {type(el).__name__}")
        return _unsigned_zero(row)


def arc_to_path(arc: Arc, precision: int = 4) -> str:
    """SVG path fragment for an arc: M to the start point, one elliptical
    arc command to the end point.  The sweep flag follows the arc's
    orientation in coordinate algebra (ccw = positive-angle = 1); the
    large-arc flag is set only for sweeps beyond a semicircle."""
    return _Pen(precision, 1.0, 1.0).emit(arc).split('"')[1]


# ---- per-model layers: (id, draw), draw(pen) -> element rows -------------


def _plate_layers(m: PlateModel) -> list:
    def rows(elements):
        return lambda pen: "".join(map(pen.emit, elements))

    layers = [
        ("limb", rows([m.boundary])),
        ("tropics", rows(m.tropics)),
        ("horizon", rows([m.horizon])),
        ("almucantars", rows(m.almucantars)),
        ("azimuths", rows(m.azimuths)),
    ]
    if m.hour_lines:
        layers.append(("hours", rows(m.hour_lines)))
    return layers


def _rete_layers(m: ReteModel) -> list:
    def ecliptic(pen):
        ticks, labels = [], []
        cx, cy = m.ecliptic.center.x, m.ecliptic.center.y
        for lam, pt in enumerate(m.zodiac_points):  # one tick per degree of longitude
            px, py = pt.x, pt.y
            dx, dy = cx - px, cy - py
            norm = math.hypot(dx, dy)
            ln = 2.8 if lam % 30 == 0 else 1.2
            ticks.append((px, py, px + dx / norm * ln, py + dy / norm * ln))
            if lam % 30 == 15:
                lx, ly = px + dx / norm * 7.0, py + dy / norm * 7.0
                labels.append(pen.label(lx, ly, _ZODIAC[lam // 30]))
        return pen.emit(m.ecliptic) + pen.lines(ticks) + "".join(labels)

    def stars(pen):
        return "".join(pen.emit(pt) for _, pt in m.pointers) + "".join(
            pen.label(pt.x + 1.5, pt.y + 1.5, star.name, "start") for star, pt in m.pointers
        )

    boundary = ("limb", lambda pen: pen.emit(m.boundary))
    return [boundary, ("ecliptic", ecliptic), ("stars", stars)]


def _back_layers(m: BackModel) -> list:
    r = m.boundary.radius
    side = 0.45 * r
    half = side / 2.0

    def limb(pen):  # 360 one-degree ticks, long every tenth, numbered every 30
        return (
            pen.emit(m.boundary)
            + pen.ticks((s, c, r, r * (0.94 if a % 10 == 0 else 0.97))
                        for a, (s, c) in enumerate(_WHOLE_DEGREES))
            + "".join(pen.label(p.x, p.y, f"{a}") for a, p in
                      ((a, from_plate_polar(r * 0.905, a)) for a in range(0, 360, 30)))
        )

    def calendar(pen):
        return (
            pen.emit(Circle(PlanePoint(0.0, 0.0), r * 0.88))
            + pen.emit(Circle(PlanePoint(0.0, 0.0), r * 0.84))
            + pen.ticks((math.sin(a), math.cos(a), r * 0.88, r * (0.84 if i % 10 == 0 else 0.86))
                        for i, a in enumerate(map(math.radians, m.calendar_angles)))
        )

    def sine_quadrant(pen):  # 60 radius divisions; the k = 60 chords have no length
        frame = Arc(Circle(PlanePoint(0.0, 0.0), r), PlanePoint(0.0, r), PlanePoint(-r, 0.0), "ccw")
        d = [k * (r / 60) for k in range(1, 60)]
        reach = [math.sqrt(r * r - dk * dk) for dk in d]
        return pen.emit(frame) + pen.lines(
            [(-r, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, r)]
            + [(-w, dk, 0.0, dk) for dk, w in zip(d, reach)]  # sines
            + [(-dk, 0.0, -dk, w) for dk, w in zip(d, reach)]  # cosines
        )

    def shadow_square(pen):
        digits = [k / 12 for k in range(1, 13)]
        return pen.lines(
            [(-half, 0.0, half, 0.0), (-half, 0.0, -half, -side),
             (half, 0.0, half, -side), (-half, -side, half, -side)]
            # umbra recta: 12 digits along the bottom
            + [(-half + f * side, -side, -half + f * side, -side + 1.5) for f in digits]
            # umbra versa: 12 digits down the right side
            + [(half, -f * side, half - 1.5, -f * side) for f in digits]
        )

    def midday(pen):  # labelled with the latitude 2 mm above its equinox point
        lat = m.config.latitude
        equinox = from_plate_polar(r * (1.0 - midday_altitude(lat, 0.0) / 90.0), 0.0)
        return pen.emit(m.midday) + pen.label(equinox.x, equinox.y + 2.0, f"{lat:g}")

    def qibla(pen):  # a ray from the center toward each bearing, labelled along it
        marks = [(loc, from_plate_polar(r * 0.82, b), from_plate_polar(r * 0.6, b))
                 for loc, b in m.qibla_marks]
        return pen.lines((p.x, p.y, 0.0, 0.0) for _, p, _ in marks) + "".join(
            pen.label(q.x, q.y, loc.name, "start") for loc, _, q in marks)

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


# the (model, warns, layer rows) of the last instrument set's faces, by (id(model), style);
# each entry holds its model, so the id cannot be reused while the entry lives.  Threads
# that race here can at worst drop an entry or add one past the bound, never share rows
_ROWS: dict = {}
_ROWS_MAX = 3


def _layer_rows(model, style: RenderStyle, pen: _Pen) -> list:
    """The (layer id, rows) of each selected layer of a model; an empty
    selection warns (EmptyModelWarning) and draws the boundary alone.
    Reuses the rows of an earlier call on the same object and style."""
    key = (id(model), style)
    entry = _ROWS.get(key)
    if entry is None or entry[0] is not model:
        layers = _LAYERS[type(model)](model)
        if style.include_layers is not None:
            layers = [l for l in layers if l[0] in style.include_layers]
        warns = not layers
        if warns:
            layers = [("limb", lambda pen: pen.emit(model.boundary))]
        if len(_ROWS) >= _ROWS_MAX:
            _ROWS.clear()
        entry = _ROWS[key] = (model, warns, [(name, draw(pen)) for name, draw in layers])
    if entry[1]:
        warnings.warn("model has no layers to draw; emitting the boundary only",
                      EmptyModelWarning, stacklevel=4)
    return entry[2]


def _bodies(style: RenderStyle, faces) -> list[str]:
    """The joined layer groups of each (id prefix, model) face.  The
    document negates y, and x too under `mirror_ew`."""
    pen = _Pen(style.precision, -1.0 if style.mirror_ew else 1.0, -1.0)
    bodies = []
    for prefix, model in faces:
        if type(model) not in _LAYERS:
            raise TypeError(f"cannot render {type(model).__name__}")
        bodies.append(
            "\n".join(
                f'<g id="{prefix}{name}" fill="none" stroke="#000" '
                f'stroke-width="{_STROKES[name]:g}" stroke-linecap="round">\n{rows}</g>'
                for name, rows in _layer_rows(model, style, pen)
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
