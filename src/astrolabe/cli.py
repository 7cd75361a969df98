"""Command line interface.

Subcommands: plate / rete / back / full (SVG emission), project
(single-point projection under any projection family member), qibla
(bearing to Mecca, both routes), and analyze (error propagation:
arc-displacement, quadrant-chords, band, alidade, montecarlo).

A command's handler returns what it made, an SVG document or (stat, value)
rows, and `main` writes it: a document to --out or stdout, rows as a table
to stdout and as CSV to --out.  Every exit code is decided in `main`'s one
`try`: 0 success; 1 invalid usage or configuration (including config-file
and catalog parse errors and a duplicate star name); 2 mathematical domain
errors (arctic latitude, undefined projection, undefined bearing,
infeasible scenario); 3 input/output failure, the help text's too.
Diagnostics go to stderr.

A config file (--config) holds `key = value` lines; `#` starts a comment at
the start of a line or after whitespace, so a `#` inside a value
(`catalog = data/stars#2.csv`) is kept.  Command line flags override file
values.  Flags are long only, `--flag value` or `--flag=value` with the
exact name; a repeated flag keeps its last value.  Keys: lat, lon, scale_mm,
diameter_mm, obliquity, almucantar_step, azimuth_step, catalog, localities,
seed, out, mirror_ew, precision, each of its flag's type; a subcommand ignores
the keys it has no use for (only analyze montecarlo reads seed), but takes
only the flags it reads.  Every number, from a flag or the file, must be
finite and lie in the range that --help prints, from the library's range
table.  A flag that --help marks (required) may be set by the file; it is
checked once the file is read.
"""

from __future__ import annotations

import math
import sys
from types import SimpleNamespace

from . import error_analysis as ea
from .back import (
    BackConfig,
    BackModel,
    Locality,
    MECCA,
    bearing_oracle,
    build_back,
    load_localities,
    qibla_eq13,
)
from .exceptions import AstrolabeError, DuplicateStarName, ParseError, UnknownKey
from .geometry import Circle, PlanePoint
from .plate import PlateConfig, PlateModel, build_plate
from .projection import (ALTITUDE, BAND_STEP, DECLINATION, DEGREES, FINITE, FRACTION, LATITUDE,
                         LENGTH, LENGTH_OR_0, NON_NEGATIVE, OBLIQUITIES, OBLIQUITY, PRECISION,
                         RADIANS, SCALE, SEED, SIGNED_DEGREES, SIGNED_LENGTH, SIGNED_RADIANS, STEP,
                         TRIALS, VIEWPOINT, ProjectionKind, axis_projection_radius,
                         from_plate_polar)
from .render import RenderStyle, render_full, render_svg
from .rete import ReteModel, build_rete, load_star_catalog

# the keys a config file may set; each takes the type of its flag in _FLAGS
_CONFIG_KEYS = ("lat", "lon", "scale_mm", "diameter_mm", "obliquity", "almucantar_step",
                "azimuth_step", "catalog", "localities", "seed", "out", "mirror_ew", "precision")

_BOOLS = {"true": True, "yes": True, "1": True, "on": True,
          "false": False, "no": False, "0": False, "off": False}


def load_config(path) -> dict:
    """Parse a `key = value` config file into typed values.

    Raises ParseError (with 1-based line/column) for malformed lines or
    bad values and UnknownKey for keys outside the documented set.
    """
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            # the first `#` at the line start or after whitespace starts a comment
            hash_at = line.find("#")
            while hash_at > 0 and not line[hash_at - 1].isspace():
                hash_at = line.find("#", hash_at + 1)
            if hash_at >= 0:
                line = line[:hash_at]
            if not line.strip():
                continue
            if "=" not in line:
                raise ParseError(
                    "expected 'key = value'", line=lineno, column=len(line.rstrip()) + 1
                )
            left, right = line.split("=", 1)
            key = left.strip()
            value = right.strip()
            col = len(left) - len(left.lstrip()) + 1
            if not key.isidentifier():
                raise ParseError(f"bad key {key!r}", line=lineno, column=col)
            if key not in _CONFIG_KEYS:
                raise UnknownKey(f"unknown config key {key!r} (line {lineno})")
            if key in out:
                raise ParseError(f"duplicate key {key!r}", line=lineno, column=col)
            kind = _FLAGS[key].kind
            try:
                if kind is bool and value.lower() not in _BOOLS:
                    raise ValueError(f"bad boolean {value!r}")
                out[key] = _BOOLS[value.lower()] if kind is bool else kind(value)
            except ValueError as exc:
                raise ParseError(
                    str(exc), line=lineno, column=len(left) + 2
                ) from None
    return out


def _merge_config(args, prog: str, flags: list) -> None:
    """Fill unset flag values (None) from the config file, if any, then
    from the flags' defaults, and check that each required flag is set.
    A config key the command has no flag for is left out."""
    cfg = load_config(args.config) if args.config else {}
    defaults = {f.dest: f.default for f in flags if f.default is not None}
    for key, value in (*cfg.items(), *defaults.items()):
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, value)
    missing = [f.option for f in flags if f.required and getattr(args, f.dest) is None]
    if missing:
        raise ValueError(f"{prog}: the following arguments are required: {', '.join(missing)}")


def _geometry(args) -> tuple[float, float]:
    """(obliquity, scale) from the flags and config, with their defaults."""
    obliquity, scale, diameter = args.obliquity, args.scale_mm, args.diameter_mm
    if scale is not None and diameter is not None:
        raise ValueError("give either --scale-mm or --diameter-mm, not both")
    cap = math.tan(math.radians(45.0 + obliquity / 2.0))  # limb radius per unit of scale
    if scale is not None:
        flag, value, scale = "--scale-mm", scale, float(scale)
    elif diameter is not None:
        flag, value, scale = "--diameter-mm", diameter, (diameter / 2.0) / cap
    else:
        return obliquity, _SCALE
    # the back's limb radius, the widest of any face, must fit SCALE as the scale does
    if not (SCALE.lo <= scale and scale * cap <= SCALE.hi):
        raise ValueError(f"{flag} {value:g} gives a scale of {scale:g} mm and a limb radius "
                         f"of {scale * cap:g} mm; both {SCALE.text}")
    return obliquity, scale


def _plate_config(args, obliquity: float, scale: float) -> PlateConfig:
    optional = {key: getattr(args, key) for key in _STEPS if getattr(args, key, None) is not None}
    return PlateConfig(latitude=args.lat, scale=scale, obliquity=obliquity, **optional)


def _plate(args, obliquity: float, scale: float) -> PlateModel:
    return build_plate(_plate_config(args, obliquity, scale))


def _rete(args, obliquity: float, scale: float) -> ReteModel:
    """The rete; each star it leaves out gets a `note:` line on stderr."""
    catalog = load_star_catalog(args.catalog) if args.catalog else []
    model = build_rete(catalog, scale, obliquity)
    for _, reason in model.skipped:
        print(f"note: {reason}", file=sys.stderr)
    return model


def _back(args, obliquity: float, scale: float) -> BackModel:
    radius = scale * math.tan(math.radians(45.0 + obliquity / 2.0))
    cfg = BackConfig(latitude=args.lat, radius=radius, obliquity=obliquity)
    locs = load_localities(args.localities) if args.localities else []
    return build_back(cfg, locs)


def _svg(*faces):
    """The handler that builds each face, in order, from one geometry and
    renders one face as its own document or three as the full instrument.
    The builders and renderers are looked up when it runs, not bound here."""

    def handler(args) -> str:
        geometry = _geometry(args)
        models = [face(args, *geometry) for face in faces]
        style = RenderStyle(precision=args.precision, mirror_ew=bool(args.mirror_ew))
        return render_svg(*models, style) if len(models) == 1 else render_full(*models, style)

    return handler


_KINDS = ("stereographic", "gnomonic", "external", "orthographic")


def _cmd_project(args) -> list:
    if args.kind == "external":
        if args.q is None:
            raise ValueError(f"--kind external needs --q, which {VIEWPOINT.text}")
        kind = ProjectionKind.external(args.q)
    else:
        kind = getattr(ProjectionKind, args.kind)()
    _, scale = _geometry(args)
    r = axis_projection_radius(args.dec, kind, scale)
    p = from_plate_polar(r, args.hour_angle)
    return [
        ("kind", args.kind),
        ("dec_deg", f"{args.dec:.6f}"),
        ("hour_angle_deg", f"{args.hour_angle:.6f}"),
        ("radius_mm", f"{r:.6f}"),
        ("x_mm", f"{p.x:.6f}"),
        ("y_mm", f"{p.y:.6f}"),
    ]


def _cmd_qibla(args) -> list:
    obs = Locality(args.name or "observer", args.lat, args.lon)
    oracle = bearing_oracle(obs, MECCA)
    closed = qibla_eq13(obs, MECCA)
    diff = abs((oracle - closed + 180.0) % 360.0 - 180.0)
    if diff > 1e-6:
        print(
            "note: the closed tangent form disagrees with the great-circle "
            "bearing here; trust the bearing_oracle_deg value",
            file=sys.stderr,
        )
    return [
        ("observer_lat_deg", f"{obs.latitude:.6f}"),
        ("observer_lon_deg", f"{obs.longitude:.6f}"),
        ("bearing_oracle_deg", f"{oracle:.6f}"),
        ("qibla_eq13_deg", f"{closed:.6f}"),
        ("abs_difference_deg", f"{diff:.6f}"),
    ]


def _cmd_analyze_arc(args) -> list:
    has_ds = args.ds is not None
    has_angular = args.dalpha is not None or args.radius is not None
    if has_ds == has_angular:
        raise ValueError("give either --ds, or --radius with --dalpha")
    if has_ds:
        d = ea.arc_displacement(args.ds, args.dp)
        rows = [("ds_mm", f"{args.ds:.6f}")]
    else:
        if args.radius is None or args.dalpha is None:
            raise ValueError("--radius and --dalpha go together")
        d = ea.arc_displacement_angular(args.radius, args.dalpha, args.dp)
        rows = [
            ("radius_mm", f"{args.radius:.6f}"),
            ("dalpha_rad", f"{args.dalpha:.8f}"),
            ("ds_mm", f"{args.radius * args.dalpha:.6f}"),
        ]
    rows += [("dp_mm", f"{args.dp:.6f}"), ("displacement_mm", f"{d:.6f}")]
    return rows


def _cmd_analyze_chords(args) -> list:
    where = "astrolabe analyze quadrant-chords: argument --marks"
    marks = [_value(_Flag(float, "mark"), v, where) for v in args.marks.split(",")]
    for m in marks:  # each checked as a float flag is
        FINITE.check(m, "--marks")
    if len(marks) != 4:
        raise ValueError(f"--marks must list exactly 4 marks, got {len(marks)}")
    circle = Circle(PlanePoint(0.0, 0.0), args.radius)
    verdict = ea.quadrant_chord_diagnosis(circle, marks, args.tol)
    return [
        ("radius_mm", f"{args.radius:.6f}"),
        ("marks_deg", ";".join(f"{m:g}" for m in marks)),
        ("tol_mm", f"{args.tol:.6f}"),
        ("classification", verdict),
    ]


def _cmd_analyze_band(args) -> list:
    _, scale = _geometry(args)
    displacement, band = ea.band_misassignment(args.lat, scale, args.altitude,
                                               args.radius_error_fraction, args.band_step)
    spacing = ea.band_spacing(args.lat, scale, args.altitude, args.band_step)
    return [
        ("latitude_deg", f"{args.lat:.6f}"),
        ("scale_mm", f"{scale:.6f}"),
        ("altitude_deg", f"{args.altitude:.6f}"),
        ("radius_error_fraction", f"{args.radius_error_fraction:.6f}"),
        ("displacement_mm", f"{displacement:.6f}"),
        ("band_spacing_mm", f"{spacing:.6f}"),
        ("lands_on_band_deg", f"{band:.6f}"),
    ]


def _cmd_analyze_alidade(args) -> list:
    rows = []
    if args.offset is not None:
        if args.length_mm is None:
            raise ValueError("--offset needs --length-mm")
        offset = args.offset
        if args.offset_unit == "deg":
            offset = math.radians(offset)
        d1 = ea.alidade_offset_error(args.length_mm, offset)
        rows += [
            ("length_mm", f"{args.length_mm:.6f}"),
            ("offset_rad", f"{offset:.8f}"),
            ("offset_error_mm", f"{d1:.6f}"),
        ]
    if args.rotation is not None:
        if args.rotation_unit is None:
            raise ValueError(
                "--rotation needs an explicit --rotation-unit (its error "
                "passes through in the same unit)"
            )
        d2 = ea.alidade_rotation_error(args.rotation, args.rotation_unit)
        rows += [
            (f"rotation_{args.rotation_unit}", f"{args.rotation:.6f}"),
            (f"rotation_error_{args.rotation_unit}", f"{d2:.6f}"),
        ]
    if not rows:
        raise ValueError("give --offset and/or --rotation")
    return rows


def _cmd_analyze_mc(args) -> list:
    cfg = _plate_config(args, *_geometry(args))
    pert = ea.PerturbationSpec(
        center_sigma=args.center_sigma,
        radius_sigma=args.radius_sigma,
        graduation_sigma=args.graduation_sigma,
        seed=args.seed,
    )
    report = ea.monte_carlo_readout(cfg, pert, args.scenario, args.sun_dec, args.hour_angle,
                                    args.trials)
    unit = "deg" if args.scenario == "altitude" else "hours"
    return [
        ("scenario", args.scenario),
        ("n_trials", str(report.n_trials)),
        (f"mean_{unit}", f"{report.mean:.6f}"),
        (f"std_{unit}", f"{report.std:.6f}"),
        (f"max_abs_{unit}", f"{report.max_abs:.6f}"),
        ("classification", report.classification),
    ]


class _Flag:
    """One meaning of a flag: `kind` is its type (bool: a switch that takes
    no value) or its tuple of choices, `default` fills it when neither the
    command line nor the config file sets it, and a number's `domain` is its
    entry in the range table, or a dict of entries keyed by the value of its
    unit flag (`dest`_unit)."""

    __slots__ = ("kind", "help", "default", "required", "domain", "dest", "option")

    def __init__(self, kind, help, domain=None, default=None, required=False):
        self.kind, self.help, self.domain, self.default = kind, help, domain, default
        self.required = required


_SCALE = 100.0  # the equator radius, mm, when neither --scale-mm nor --diameter-mm is set

# every flag, declared once under its dest ("almucantar_step" is --almucantar-step);
# a flag that means different things in different commands has one entry for each
# meaning, keyed "dest:meaning"
_FLAGS = {
    "config": _Flag(str, "config file with key = value lines"),
    "out": _Flag(str, "output file (default: stdout)"),
    "lat": _Flag(float, "geographic latitude, degrees north", LATITUDE, required=True),
    "lat:qibla": _Flag(float, "geographic latitude, degrees north", DECLINATION, required=True),
    # _geometry checks the scale these two set, and the back's limb radius, against SCALE
    "scale_mm": _Flag(float, f"equator radius in mm (default {_SCALE:g} when no --diameter-mm); "
                      f"it and the back's limb radius {SCALE.text}", FINITE),
    "diameter_mm": _Flag(float, "overall plate diameter in mm (alternative to --scale-mm)",
                         FINITE),
    "obliquity": _Flag(float, "ecliptic obliquity, degrees", OBLIQUITIES, OBLIQUITY),
    "mirror_ew": _Flag(bool, "mirror east-west (negates document x coordinates)"),
    "precision": _Flag(int, "coordinate decimals in the SVG", PRECISION, 4),
    "almucantar_step": _Flag(float, "altitude circle step in degrees, divides 90", STEP, 5.0),
    "azimuth_step": _Flag(float, "azimuth arc step in degrees, divides 360", STEP, 10.0),
    "catalog": _Flag(str, "star catalog CSV (name,ra_deg,dec_deg,mag)"),
    "localities": _Flag(str, "locality CSV (name,lat_deg,lon_deg) for qibla marks"),
    "dec": _Flag(float, "declination, degrees", DECLINATION, required=True),
    "hour_angle:project": _Flag(float, "hour angle, degrees", SIGNED_DEGREES, 0.0),
    "kind": _Flag(_KINDS, "projection member", default="stereographic"),
    "q": _Flag(float, "external viewpoint distance (required for --kind external)", VIEWPOINT),
    "lon": _Flag(float, "longitude, degrees east", FINITE, required=True),
    "name": _Flag(str, "observer name for the report"),
    "ds": _Flag(float, "tangential offset, mm", SIGNED_LENGTH),
    "dp": _Flag(float, "radial offset, mm", SIGNED_LENGTH, required=True),
    "radius:arc": _Flag(float, "engraving radius, mm (angular form)", LENGTH),
    "dalpha": _Flag(float, "angular offset, radians (angular form)", SIGNED_RADIANS),
    "radius:chords": _Flag(float, "circle radius, mm", SCALE, required=True),
    "marks": _Flag(str, "four mark angles in degrees, comma separated (e.g. 0,90,180,270)",
                   required=True),
    "tol": _Flag(float, "chord equality tolerance, mm", LENGTH_OR_0, required=True),
    "altitude": _Flag(float, "true altitude band, degrees", ALTITUDE, required=True),
    "radius_error_fraction": _Flag(float, "relative radius error (e.g. 0.02 for 2%)", FRACTION,
                                   required=True),
    "band_step": _Flag(float, "band spacing in degrees", BAND_STEP, 3.0),
    "length_mm": _Flag(float, "alidade length, mm", LENGTH),
    "offset": _Flag(float, "sight-vane angular offset", {"rad": RADIANS, "deg": DEGREES}),
    "offset_unit": _Flag(("rad", "deg"), "unit of --offset", default="rad"),
    "rotation": _Flag(float, "rotation graduation error", ea.ROTATION),
    "rotation_unit": _Flag(tuple(ea.ROTATION),
                           "unit of --rotation (required with --rotation; the error keeps it)"),
    "scenario": _Flag(ea.SCENARIOS, "readout scenario", default="time_to_sunset"),
    "sun_dec": _Flag(float, "sun declination, degrees", DECLINATION, required=True),
    "hour_angle:mc": _Flag(float, "true hour angle, degrees", FINITE, required=True),
    "trials": _Flag(int, "number of trials", TRIALS, 200),
    "center_sigma": _Flag(float, "circle center noise per axis, mm", NON_NEGATIVE, 0.0),
    "radius_sigma": _Flag(float, "circle radius noise, mm", NON_NEGATIVE, 0.0),
    "graduation_sigma": _Flag(float, "hour graduation noise along the tropics, degrees",
                              NON_NEGATIVE, 0.0),
    "seed": _Flag(int, "random seed for the trials", SEED, 0),
}
for _key, _flag in _FLAGS.items():
    _flag.dest = _key.partition(":")[0]
    _flag.option = "--" + _flag.dest.replace("_", "-")
_GEOMETRY = ("scale_mm", "diameter_mm", "obliquity")
_RENDER = ("mirror_ew", "precision")
_STEPS = ("almucantar_step", "azimuth_step")

# command path -> (handler, one-line help, flags beyond --config and --out);
# a path without a handler groups the commands one word below it
_COMMANDS = {
    (): (None, "Design a planispheric astrolabe: plate, rete, and back geometry as SVG, "
         "plus projection and engraving-error analysis.", ()),
    ("plate",): (_svg(_plate), "plate (tympan) SVG for a latitude",
                 ("lat", *_GEOMETRY, *_RENDER, *_STEPS)),
    ("rete",): (_svg(_rete), "rete (star map) SVG", (*_GEOMETRY, *_RENDER, "catalog")),
    ("back",): (_svg(_back), "back face SVG (scales and calendar)",
                ("lat", *_GEOMETRY, *_RENDER, "localities")),
    ("full",): (_svg(_plate, _rete, _back), "plate + rete + back in one SVG",
                ("lat", *_GEOMETRY, *_RENDER, *_STEPS, "catalog", "localities")),
    ("project",): (_cmd_project, "project one sphere point under a projection family member",
                   (*_GEOMETRY, "dec", "hour_angle:project", "kind", "q")),
    ("qibla",): (_cmd_qibla, "bearing to Mecca: 3D great-circle oracle and the closed form",
                 ("lat:qibla", "lon", "name")),
    ("analyze",): (None, "error propagation analyses", ()),
    ("analyze", "arc-displacement"): (_cmd_analyze_arc, "arc displacement from tangential/"
                                      "radial offsets", ("ds", "dp", "radius:arc", "dalpha")),
    ("analyze", "quadrant-chords"): (_cmd_analyze_chords, "diagnose quadrant graduation from "
                                     "four chords", ("radius:chords", "marks", "tol")),
    ("analyze", "band"): (_cmd_analyze_band, "altitude band misassignment from a radius error",
                          ("lat", *_GEOMETRY, "altitude", "radius_error_fraction", "band_step")),
    ("analyze", "alidade"): (_cmd_analyze_alidade, "alidade sighting error budget", (
        "length_mm", "offset", "offset_unit", "rotation", "rotation_unit")),
    ("analyze", "montecarlo"): (
        _cmd_analyze_mc, "Monte Carlo readout error under engraving noise",
        ("lat", *_GEOMETRY, "almucantar_step", "scenario", "sun_dec", "hour_angle:mc",
         "trials", "center_sigma", "radius_sigma", "graduation_sigma", "seed")),
}
_HELP = ("-h", "--help")


def _children(path: tuple) -> list:
    return [p[-1] for p in _COMMANDS if p and p[:-1] == path]


def _value(flag: _Flag, text: str, where: str):
    if isinstance(flag.kind, tuple):
        if text in flag.kind:
            return text
        choices = ", ".join(map(repr, flag.kind))
        raise ValueError(f"{where}: invalid choice: {text!r} (choose from {choices})")
    try:
        return flag.kind(text)
    except ValueError:
        raise ValueError(f"{where}: invalid {flag.kind.__name__} value: {text!r}") from None


def _parse(argv: list):
    """(namespace, prog, flags) for argv, or None once a help text is printed.

    Long options only, `--flag value` or `--flag=value` with exact names; a
    value may start with one `-`, a repeated flag keeps its last value, and
    -h or --help anywhere asks for the help text.  The namespace holds the
    handler as `func` and every flag of the command, None where unset;
    `prog` names the command and `flags` are its _Flag entries."""
    path, extras, rest = (), [], list(argv)
    while _COMMANDS[path][0] is None:
        prog, dest = " ".join(("astrolabe", *path)), "mode" if path else "command"
        if not rest:
            raise ValueError(f"{prog}: the following arguments are required: {dest}")
        token = rest.pop(0)
        if token in _HELP:
            return _help(path)
        if token.startswith("-"):
            extras.append(token)
        elif token in _children(path):
            path += (token,)
        else:
            choices = ", ".join(map(repr, _children(path)))
            raise ValueError(
                f"{prog}: argument {dest}: invalid choice: {token!r} (choose from {choices})")
    if any(token in _HELP for token in rest):
        return _help(path)
    func, _, keys = _COMMANDS[path]
    prog, flags = " ".join(("astrolabe", *path)), [_FLAGS[k] for k in ("config", "out", *keys)]
    by_option = {flag.option: flag for flag in flags}
    args = SimpleNamespace(func=func, **{flag.dest: None for flag in flags})
    while rest:
        token = rest.pop(0)
        option, eq, text = token.partition("=")
        if option not in by_option:
            extras.append(token)
            continue
        flag, where = by_option[option], f"{prog}: argument {option}"
        if flag.kind is bool:
            if eq:
                raise ValueError(f"{where}: ignored explicit argument {text!r}")
            value = True
        else:
            if not eq:
                if not rest or rest[0].startswith("--"):
                    raise ValueError(f"{where}: expected one argument")
                text = rest.pop(0)
            value = _value(flag, text, where)
        setattr(args, flag.dest, value)
    if extras:
        raise ValueError(f"astrolabe: unrecognized arguments: {' '.join(extras)}")
    return args, prog, flags


def _help(path: tuple) -> None:
    """Print the help text of a command, or of a group and its commands."""
    func, about, keys = _COMMANDS[path]
    prog = " ".join(("astrolabe", *path))
    if func is None:
        usage, heading = f"{prog} {{{','.join(_children(path))}}} ...", "commands:"
        rows = [(name, _COMMANDS[(*path, name)][1]) for name in _children(path)]
    else:
        usage, heading, rows = f"{prog} [options]", "options:", []
        for flag in (_FLAGS[k] for k in ("config", "out", *keys)):
            shown = flag.option
            if isinstance(flag.kind, tuple):
                shown += " {" + ",".join(flag.kind) + "}"
            elif flag.kind is not bool:
                shown += " " + flag.dest.upper()
            text = flag.help
            if isinstance(flag.domain, dict):
                text += "".join(f"; in {unit} {d.text}" for unit, d in flag.domain.items())
            elif flag.domain:
                text += f"; {flag.domain.text}"
            text += " (required)" if flag.required else ""
            if flag.default is not None:
                text += f" (default {flag.default})"
            rows.append((shown, text))
    rows.append(("-h, --help", "show this help message and exit"))
    lines = [f"usage: {usage}", "", about, "", heading]
    for left, text in rows:
        lines.append(f"  {left:<24}{text}" if len(left) < 23 else f"  {left}\n  {'':<24}{text}")
    sys.stdout.write("\n".join(lines) + "\n")


def _write_text(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(args, rows) -> None:
    """Plain-text table to stdout; CSV (stat,value) to --out if given."""
    width = max(len(k) for k, _ in rows)
    text = "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows) + "\n"
    sys.stdout.write(text)
    if args.out:
        import csv

        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([("stat", "value"), *rows])


def main(argv: list | None = None) -> int:
    try:
        parsed = _parse(sys.argv[1:] if argv is None else argv)
        if parsed is None:  # a help text was printed
            return 0
        args, prog, flags = parsed
        _merge_config(args, prog, flags)
        for flag in flags:  # a number first must be finite, then lie in its range
            value, domain = getattr(args, flag.dest), flag.domain
            if isinstance(domain, dict):  # the range of its unit, once that is set
                domain = domain.get(getattr(args, flag.dest + "_unit"), FINITE)
            if value is not None and domain is not None:
                FINITE.check(value, flag.option)
                domain.check(value, flag.option)
        out = args.func(args)
        if isinstance(out, str):
            _write_text(args, out)
        else:
            _report(args, out)
        return 0
    except (ParseError, UnknownKey, DuplicateStarName, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AstrolabeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    """Console-script entry point."""
    raise SystemExit(main())


if __name__ == "__main__":
    run()
