"""Deterministic SVG emission for plate, rete, and back models.

Output is SVG 1.1, UTF-8, millimeter units, one ``<g>`` per drawn layer
with a stable id, elements in construction order, and every coordinate
rounded to a fixed number of decimals (so the same model and style
always produce byte-identical documents).

Each layer is an id and a function that returns its rows of text: the
model's own circles, arcs, segments and star markers, and the fixed
scales (limb ticks, sine quadrant, shadow square, the zodiac's long and
short ticks, labels) straight from the boundary radius or the degree
index.  One pen per document holds a printf-style bytes template for
each row kind (`<line>`, `<circle>`, a star marker, an arc's `<path>`),
built once from the precision with the indent and newline in it, and
`_Pen.elements` is the one printer of an Arc.  A run of rows (a layer's
model elements, or a run of lines) is printed by one `%` of its rows'
templates joined over one flat tuple of signed values, and decoded once
(`_Pen.run`); an element drawn alone is a run of one.  `_Pen.lines`
signs a flat sequence of model values (x1, y1, x2, y2, ...) in one `map`
pass; the zodiac's ticks are signed as they are computed; the limb's and
the calendar's come from `_Pen.ticks`, which multiplies a flat unit
table (sin, cos, sin, cos per tick, from `_unit_table`: the one tick
table cache, filled on first use) by radii with the signs folded in.
Bytes and str `%` print a float through the same routine, so the bytes
are those of a str format.  A label stays str: its x and y are formatted
apart, and its text is never formatted.  Model coordinates are
mathematical (y up); the pen negates y, and x too under `mirror_ew`,
and inverts an arc's sweep flag when sx*sy < 0.
One rule prints a number that rounds to zero unsigned: at precision p
such a number prints as exactly "-0." and p zeros, followed by a
non-digit, so one exact `replace` of that text by its unsigned form
(`_zeros`), run on a run's formatted bytes or a label's formatted x and
y (never on label text), drops the sign.
Rounding is symmetric in sign, so a `mirror_ew` document is the exact
x-negation of the plain one, except that a label anchored at its start
or end swaps the two, so that it still runs away from its marker.

The last model drawn of each kind (plate, rete, back) keeps its layer
rows with its style: a render of that same object with an equal style
reuses them, so `render_full` after `render_svg` of each face emits
nothing anew.  Models are immutable, so reused rows are the bytes a
fresh emission would print.  An empty layer selection is not kept.
"""

from __future__ import annotations

import functools
import math
import operator

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
                 include_layers: frozenset | None = None):
        if type(precision) is not int:
            raise ValueError(f"precision {PRECISION.text}, got {precision!r}")
        PRECISION.check(precision, "precision")
        if include_layers is not None:
            bad = set(include_layers) - set(LAYER_IDS)
            if bad:
                raise ValueError(f"unknown layer ids: {sorted(bad)}")
            # sorted, so that equal sets iterate (and print) alike once a copy rebuilt one
            include_layers = frozenset(sorted(include_layers))
        super().__init__(precision, mirror_ew, include_layers)


def _zeros(precision: int) -> tuple[str, str]:
    """The text of a number that rounds to zero at the precision, signed and
    unsigned: in numbers printed at that precision, `.replace(*_zeros(p))`
    unsigns each such number and touches no other."""
    zero = "0." + "0" * precision
    return "-" + zero, zero


def _fmt(value: float, precision: int) -> str:
    return f"{value:.{precision}f}".replace(*_zeros(precision))


# the limb's range(360), and the calendar's angles: every built back holds one tuple
@functools.lru_cache(maxsize=2)
def _unit_table(degrees) -> tuple:
    """A scale's unit table for `_Pen.ticks`: (sin, cos, sin, cos) of each
    angle in degrees, flat, one run of four per tick."""
    return tuple(v for a in map(math.radians, degrees) for v in (math.sin(a), math.cos(a)) * 2)


# ---- element emission --------------------------------------------------


class _Pen:
    """Writes indented SVG element rows from plain model coordinates
    (y up): each x and y is multiplied by its sign factor, and each run
    of rows is printed through the pen's bytes row templates by `run`."""

    def __init__(self, precision: int, sx: float, sy: float):
        self.sx, self.sy = sx, sy
        self.signs = (sx, sy, sx, sy)
        f = f"%.{precision}f"
        self.zeros = _zeros(precision)
        self.bytes_zeros = tuple(z.encode() for z in self.zeros)
        self.line_row = f'  <line x1="{f}" y1="{f}" x2="{f}" y2="{f}"/>\n'.encode()
        self.circle_row = f'  <circle cx="{f}" cy="{f}" r="{f}"/>\n'.encode()
        self.marker_row = (f'  <circle cx="{f}" cy="{f}" r="{_fmt(_STAR_MARKER_R, precision)}" '
                           'fill="#000" stroke="none"/>\n').encode()
        self.path_row = f'  <path d="M {f} {f} A {f} {f} 0 %d %d {f} {f}"/>\n'.encode()
        self.point = f"{f} {f}".encode()
        self.xy = f'x="{f}" y="{f}"'
        # a mirrored label runs the other way from its anchor point
        self.anchors = {"start": "end", "end": "start"} if sx < 0 else {}

    def run(self, template: bytes, values) -> str:
        """A run of rows: one `%` of its joined bytes templates over its
        signed values, the numbers that print as zero unsigned, decoded once."""
        return (template % tuple(values)).replace(*self.bytes_zeros).decode("ascii")

    def lines(self, values) -> str:
        """One <line> row per four model values x1, y1, x2, y2 of a flat
        sequence, signed in one pass."""
        return self.signed_lines(tuple(map(operator.mul, self.signs * (len(values) // 4), values)))

    def signed_lines(self, signed) -> str:
        """One <line> row per four values already signed, in one run."""
        return self.run(self.line_row * (len(signed) // 4), signed)

    def ticks(self, unit, r_out, r_long, r_short) -> str:
        """One tick per run of four in a unit table (`_unit_table`), in from
        r_out: the first of every ten to r_long, the rest to r_short.  The
        signs are folded into the radii; since they are exactly +-1, each
        (sx * r) * s is the bits of sx * (r * s)."""
        sx, sy = self.sx, self.sy
        long = (sx * r_out, sy * r_out, sx * r_long, sy * r_long)
        short = (sx * r_out, sy * r_out, sx * r_short, sy * r_short)
        pattern = (long + short * 9) * -(-len(unit) // 40)
        return self.signed_lines(tuple(map(operator.mul, pattern, unit)))

    def label(self, x: float, y: float, text: str, anchor: str = "middle") -> str:
        # xml.sax.saxutils.escape, without its import: `&` first
        text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        return (
            f"  <text {(self.xy % (self.sx * x, self.sy * y)).replace(*self.zeros)} "
            f'font-size="{_LABEL_FONT_SIZE:g}" '
            f'text-anchor="{self.anchors.get(anchor, anchor)}" '
            f'fill="#000" stroke="none">{text}</text>\n'
        )

    def elements(self, elements) -> str:
        """One row per model-owned element (Circle, Arc, Segment or star
        marker), in one run.  An arc is a <path> of M to its start and one
        A command to its end, its large-arc flag set only for sweeps
        beyond a semicircle: the only place an Arc is printed."""
        sx, sy = self.sx, self.sy
        flip = sx * sy < 0  # a reflection in one axis reverses the sense of rotation
        point, zeros = self.point, self.bytes_zeros
        rows, values = [], []
        for el in elements:
            if isinstance(el, Arc):
                p0, p1, r = el.start_point, el.end_point, el.circle.radius
                x0, y0, x1, y1 = sx * p0.x, sy * p0.y, sx * p1.x, sy * p1.y
                large = abs(math.degrees(el.sweep)) > 180.0 + 1e-12
                if not (large and (point % (x0, y0)).replace(*zeros)
                        == (point % (x1, y1)).replace(*zeros)):
                    rows.append(self.path_row)
                    values += (x0, y0, r, r, large, (el.orientation == "ccw") != flip, x1, y1)
                    continue
                # SVG draws no arc between equal points: this large one is its circle to
                # the precision
                el = el.circle
            if isinstance(el, Circle):
                rows.append(self.circle_row)
                values += (sx * el.center.x, sy * el.center.y, el.radius)
            elif isinstance(el, Segment):
                rows.append(self.line_row)
                values += (sx * el.a.x, sy * el.a.y, sx * el.b.x, sy * el.b.y)
            elif isinstance(el, PlanePoint):
                rows.append(self.marker_row)
                values += (sx * el.x, sy * el.y)
            else:
                raise TypeError(f"cannot emit {type(el).__name__}")
        return self.run(b"".join(rows), values)

    def emit(self, el) -> str:
        """A model-owned element alone: a run of one."""
        return self.elements((el,))


# ---- per-model layers: (id, draw), draw(pen) -> element rows -------------


def _plate_layers(m: PlateModel) -> list:
    def rows(elements):
        return lambda pen: pen.elements(elements)

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
        sx, sy = pen.sx, pen.sy
        cx, cy = m.ecliptic.center.x, m.ecliptic.center.y
        for lam, pt in enumerate(m.zodiac_points):  # one tick per degree of longitude
            px, py = pt.x, pt.y
            dx, dy = cx - px, cy - py
            norm = math.hypot(dx, dy)
            ln = 2.8 if lam % 30 == 0 else 1.2
            ticks += (sx * px, sy * py, sx * (px + dx / norm * ln), sy * (py + dy / norm * ln))
            if lam % 30 == 15:
                lx, ly = px + dx / norm * 7.0, py + dy / norm * 7.0
                labels.append(pen.label(lx, ly, _ZODIAC[lam // 30]))
        return pen.emit(m.ecliptic) + pen.signed_lines(ticks) + "".join(labels)

    def stars(pen):
        return pen.elements([pt for _, pt in m.pointers]) + "".join(
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
            + pen.ticks(_unit_table(range(360)), r, r * 0.94, r * 0.97)
            + "".join(pen.label(p.x, p.y, f"{a}") for a, p in
                      ((a, from_plate_polar(r * 0.905, a)) for a in range(0, 360, 30)))
        )

    def calendar(pen):
        return (
            pen.elements((Circle(PlanePoint(0.0, 0.0), r * 0.88),
                          Circle(PlanePoint(0.0, 0.0), r * 0.84)))
            + pen.ticks(_unit_table(tuple(m.calendar_angles)), r * 0.88, r * 0.84, r * 0.86)
        )

    def sine_quadrant(pen):  # 60 radius divisions; the k = 60 chords have no length
        frame = Arc(Circle(PlanePoint(0.0, 0.0), r), PlanePoint(0.0, r), PlanePoint(-r, 0.0), "ccw")
        d = [k * (r / 60) for k in range(1, 60)]
        reach = [math.sqrt(r * r - dk * dk) for dk in d]
        chords = [-r, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, r]
        for dk, w in zip(d, reach):  # sines
            chords += (-w, dk, 0.0, dk)
        for dk, w in zip(d, reach):  # cosines
            chords += (-dk, 0.0, -dk, w)
        return pen.emit(frame) + pen.lines(chords)

    def shadow_square(pen):
        digits = [k / 12 for k in range(1, 13)]
        lines = [-half, 0.0, half, 0.0, -half, 0.0, -half, -side,
                 half, 0.0, half, -side, -half, -side, half, -side]
        for f in digits:  # umbra recta: 12 digits along the bottom
            lines += (-half + f * side, -side, -half + f * side, -side + 1.5)
        for f in digits:  # umbra versa: 12 digits down the right side
            lines += (half, -f * side, half - 1.5, -f * side)
        return pen.lines(lines)

    def midday(pen):  # labelled with the latitude 2 mm above its equinox point
        lat = m.config.latitude
        equinox = from_plate_polar(r * (1.0 - midday_altitude(lat, 0.0) / 90.0), 0.0)
        return pen.emit(m.midday) + pen.label(equinox.x, equinox.y + 2.0, f"{lat:g}")

    def qibla(pen):  # a ray from the center toward each bearing, labelled along it
        marks = [(loc, from_plate_polar(r * 0.82, b), from_plate_polar(r * 0.6, b))
                 for loc, b in m.qibla_marks]
        return pen.lines([v for _, p, _ in marks for v in (p.x, p.y, 0.0, 0.0)]) + "".join(
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


# the (model, style, layer rows) last drawn of each model type; an entry is one tuple,
# replaced whole, so a thread that races another reads one entry or the other
_LAST: dict = {}


def _layer_rows(model, style: RenderStyle, pen: _Pen) -> list:
    """The (layer id, rows) of each selected layer of a model; an empty
    selection warns (EmptyModelWarning) and draws the boundary alone.
    Reuses the rows of the last call on the same object with an equal style."""
    last = _LAST.get(type(model))
    if last is not None and last[0] is model and last[1] == style:
        return last[2]
    layers = _LAYERS[type(model)](model)
    if style.include_layers is not None:
        layers = [l for l in layers if l[0] in style.include_layers]
    if not layers:
        import warnings

        warnings.warn("model has no layers to draw; emitting the boundary only",
                      EmptyModelWarning, stacklevel=4)
        return [("limb", pen.emit(model.boundary))]
    rows = [(name, draw(pen)) for name, draw in layers]
    _LAST[type(model)] = (model, style, rows)
    return rows


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


def render_svg(model, style: RenderStyle | None = None) -> str:
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
    style: RenderStyle | None = None,
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
