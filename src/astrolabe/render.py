"""Deterministic SVG emission for plate, rete, and back models.

Output is SVG 1.1, UTF-8, millimeter units, one ``<g>`` per drawn layer
with a stable id, elements in construction order, and every coordinate
rounded to a fixed number of decimals (so the same model and style
always produce byte-identical documents).

The renderer computes no geometry: it prints the builders' model fields.
One table, `_LAYERS`, maps each model type's layer ids to the fields
each layer prints, in order; `hours` and `qibla` are drawn only when they
have rows.  One printer, `_Pen.elements`, prints every element kind
(Circle, Arc, Segment, star marker, Lines, Ticks, Label) through the
pen's printf-style bytes row templates, built once from the precision: a
layer's rows are one `%` of their joined templates over one flat tuple
of signed values, decoded once (`_Pen.run`), and its labels follow, their
x and y in one more run and their text never formatted.  Ticks fold the
signs into their radii.  Every number a document prints at its precision
goes through `_Pen.run`; only the fixed stroke widths are written by
`:g`, and the label font size is literal text.  Model coordinates are
mathematical (y up); the pen negates y, and x too under `mirror_ew`, and
inverts an arc's sweep flag when sx*sy < 0.
One rule prints a number that rounds to zero unsigned: at precision p
such a number prints as exactly "-0." and p zeros, followed by a
non-digit, so one exact `replace` of that text by its unsigned form
(the pen's `zeros`), run on each run's formatted bytes, drops the sign.
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

import math
import operator

from .back import BackModel
from .exceptions import EmptyModelWarning
from .geometry import Arc, Circle, Label, Lines, PlanePoint, Segment, Ticks, _Record
from .plate import PlateModel
from .projection import PRECISION
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

_STAR_MARKER_R = 0.8


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


# ---- element emission --------------------------------------------------


class _Pen:
    """Writes indented SVG element rows from plain model coordinates
    (y up): each x and y is multiplied by its sign factor, and each run
    of rows is printed through the pen's bytes row templates by `run`,
    as every other number of its document is."""

    def __init__(self, precision: int, sx: float, sy: float):
        self.sx, self.sy = sx, sy
        self.signs = (sx, sy, sx, sy)
        f = f"%.{precision}f"
        # the text of a number that rounds to zero at the precision, signed and unsigned:
        # in numbers printed at that precision, replacing one by the other unsigns each
        # such number and touches no other
        zero = b"0." + b"0" * precision
        self.zeros = (b"-" + zero, zero)
        self.number = f.encode()
        self.line_row = f'  <line x1="{f}" y1="{f}" x2="{f}" y2="{f}"/>\n'.encode()
        self.circle_row = f'  <circle cx="{f}" cy="{f}" r="{f}"/>\n'.encode()
        marker_r = self.run(self.number, (_STAR_MARKER_R,))
        self.marker_row = (f'  <circle cx="{f}" cy="{f}" r="{marker_r}" '
                           'fill="#000" stroke="none"/>\n').encode()
        self.path_row = f'  <path d="M {f} {f} A {f} {f} 0 %d %d {f} {f}"/>\n'.encode()
        self.point = f"{f} {f}".encode()
        self.xy = f'x="{f}" y="{f}"'.encode()
        # a mirrored label runs the other way from its anchor point
        self.anchors = {"start": "end", "end": "start"} if sx < 0 else {}

    def run(self, template: bytes, values) -> str:
        """A run of rows (or a document's or a label's numbers): one `%` of
        its joined bytes templates over its signed values, the numbers that
        print as zero unsigned, decoded once."""
        return (template % tuple(values)).replace(*self.zeros).decode("ascii")

    def elements(self, elements) -> str:
        """The rows of a layer's model elements (Circle, Arc, Segment, star
        marker, Lines and Ticks) in one run, then those of its labels.  An
        arc is a <path> of M to its start and one A command to its end, its
        large-arc flag set only for sweeps beyond a semicircle.  A Ticks'
        signs are folded into its radii; since they are exactly +-1, each
        (sx * r) * s is the bits of sx * (r * s)."""
        sx, sy = self.sx, self.sy
        flip = sx * sy < 0  # a reflection in one axis reverses the sense of rotation
        point, zeros = self.point, self.zeros
        rows, values, labels = [], [], []
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
            elif isinstance(el, Lines):
                n = len(el.values) // 4
                rows.append(self.line_row * n)
                values += map(operator.mul, self.signs * n, el.values)
            elif isinstance(el, Ticks):
                r_out, r_long, r_short = el.r_out, el.r_long, el.r_short
                long = (sx * r_out, sy * r_out, sx * r_long, sy * r_long)
                short = (sx * r_out, sy * r_out, sx * r_short, sy * r_short)
                rows.append(self.line_row * (len(el.unit) // 4))
                values += map(operator.mul, (long + short * 9) * -(-len(el.unit) // 40), el.unit)
            elif isinstance(el, PlanePoint):
                rows.append(self.marker_row)
                values += (sx * el.x, sy * el.y)
            elif isinstance(el, Label):
                labels.append(el)
            else:
                raise TypeError(f"cannot emit {type(el).__name__}")
        text = self.run(b"".join(rows), values)
        if not labels:
            return text
        # every label's x and y in one run; its text is never formatted
        xys = self.run(b"\n".join([self.xy] * len(labels)),
                       [v for el in labels for v in (sx * el.x, sy * el.y)]).split("\n")
        return text + "".join(
            f'  <text {xy} font-size="3" '
            f'text-anchor="{self.anchors.get(el.anchor, el.anchor)}" fill="#000" stroke="none">'
            # xml.sax.saxutils.escape, without its import: `&` first
            f'{el.text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")}</text>\n'
            for xy, el in zip(xys, labels))

    def emit(self, el) -> str:
        """A model-owned element alone: a run of one."""
        return self.elements((el,))


# ---- per-model layers: id -> the model fields it prints, in order ----------

_LAYERS = {
    PlateModel: {
        "limb": ("boundary",),
        "tropics": ("tropics",),
        "horizon": ("horizon",),
        "almucantars": ("almucantars",),
        "azimuths": ("azimuths",),
        "hours": ("hour_lines",),
    },
    ReteModel: {
        "limb": ("boundary",),
        "ecliptic": ("ecliptic", "zodiac_ticks", "zodiac_labels"),
        "stars": ("star_markers", "star_labels"),
    },
    BackModel: {
        "limb": ("boundary", "limb_ticks", "limb_labels"),
        "calendar": ("calendar_rings", "calendar_ticks"),
        "sine-quadrant": ("quadrant_frame", "quadrant_chords"),
        "shadow-square": ("shadow_square",),
        "midday": ("midday", "midday_label"),
        "qibla": ("qibla_rays", "qibla_labels"),
    },
}

# drawn only when they have rows: on a plate without hour lines, a back without localities
_OPTIONAL = frozenset({"hours", "qibla"})


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
    rows = []
    for name, fields in _LAYERS[type(model)].items():
        if style.include_layers is not None and name not in style.include_layers:
            continue
        elements = []
        for field in fields:  # an element, or a collection of them
            value = getattr(model, field)
            elements += (value,) if isinstance(value, _Record) else value
        text = pen.elements(elements)
        if text or name not in _OPTIONAL:
            rows.append((name, text))
    if not rows:
        import warnings

        warnings.warn("model has no layers to draw; emitting the boundary only",
                      EmptyModelWarning, stacklevel=4)
        return [("limb", pen.emit(model.boundary))]
    _LAST[type(model)] = (model, style, rows)
    return rows


def _document_pen(style: RenderStyle) -> _Pen:
    """The pen of a document: it negates y, and x too under `mirror_ew`."""
    return _Pen(style.precision, -1.0 if style.mirror_ew else 1.0, -1.0)


def _bodies(style: RenderStyle, pen: _Pen, faces) -> list[str]:
    """The joined layer groups of each (id prefix, model) face."""
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


def _document(body: str, pen: _Pen, half_extent: float, width: float = None) -> str:
    w = width if width is not None else 2.0 * half_extent
    h = 2.0 * half_extent
    size = b'width="%smm" height="%smm" viewBox="%s %s %s %s"' % ((pen.number,) * 6)
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'{pen.run(size, (w, h, -half_extent, -half_extent, w, h))}>\n'
        f"{body}\n"
        "</svg>\n"
    )


def render_svg(model, style: RenderStyle | None = None) -> str:
    """Render one model (plate, rete, or back) to a complete SVG
    document.  Layer selection via style.include_layers; an empty
    selection warns (EmptyModelWarning) and draws the boundary alone."""
    style = style or RenderStyle()
    pen = _document_pen(style)
    (body,) = _bodies(style, pen, [("", model)])
    return _document(body, pen, model.boundary.radius * 1.05)


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
    pen = _document_pen(style)
    bodies = _bodies(style, pen, [(f"{top}-", m) for top, m in faces.items()])
    parts = [
        f'<g id="{top}" transform="translate({pen.run(pen.number, (2.0 * half * i,))} 0)">'
        f"\n{inner}\n</g>"
        for i, (top, inner) in enumerate(zip(faces, bodies))
    ]
    return _document("\n".join(parts), pen, half, width=6.0 * half)
