"""Command line interface.

Subcommands: plate / rete / back / full (SVG emission), project
(single-point projection under any projection family member), qibla
(bearing to Mecca, both routes), and analyze (error propagation:
arc-displacement, quadrant-chords, band, alidade, montecarlo).

Exit codes: 0 success; 1 invalid usage or configuration (including
config-file parse errors); 2 mathematical domain errors (arctic
latitude, undefined projection, undefined bearing, infeasible
scenario); 3 input/output failure.  Diagnostics go to stderr.

A config file (--config) holds `key = value` lines; `#` starts a
comment at the start of a line or after whitespace, so a `#` inside a
value (`catalog = data/stars#2.csv`) is kept.  Command line flags
override file values.  Keys: lat, lon, scale_mm, diameter_mm,
obliquity, almucantar_step, azimuth_step, hour_lines, catalog,
localities, seed, out, mirror_ew, precision; a subcommand ignores the
keys it has no use for (only analyze montecarlo reads seed), but takes
only the flags it reads.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import re
import sys
from pathlib import Path
from typing import Optional

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
from .exceptions import AstrolabeError, ParseError, UnknownKey
from .geometry import Circle, PlanePoint
from .plate import PlateConfig, build_plate
from .projection import OBLIQUITY, ProjectionKind, axis_projection_radius, from_plate_polar
from .render import RenderStyle, render_full, render_svg
from .rete import ReteModel, build_rete, load_star_catalog

_CONFIG_KEYS = {
    "lat": float,
    "lon": float,
    "scale_mm": float,
    "diameter_mm": float,
    "obliquity": float,
    "almucantar_step": float,
    "azimuth_step": float,
    "hour_lines": bool,
    "catalog": str,
    "localities": str,
    "seed": int,
    "out": str,
    "mirror_ew": bool,
    "precision": int,
}

_COMMENT = re.compile(r"(^|\s)#.*")
_TRUE = {"true", "yes", "1", "on"}
_FALSE = {"false", "no", "0", "off"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; this tool reserves 2 for
    # math domain errors, so usage problems are rerouted to exit 1
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def load_config(path) -> dict:
    """Parse a `key = value` config file into typed values.

    Raises ParseError (with 1-based line/column) for malformed lines or
    bad values and UnknownKey for keys outside the documented set.
    """
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = _COMMENT.sub("", raw.rstrip("\n"), count=1)
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
            typ = _CONFIG_KEYS[key]
            try:
                if typ is bool:
                    low = value.lower()
                    if low in _TRUE:
                        out[key] = True
                    elif low in _FALSE:
                        out[key] = False
                    else:
                        raise ValueError(f"bad boolean {value!r}")
                else:
                    out[key] = typ(value)
            except ValueError as exc:
                raise ParseError(
                    str(exc), line=lineno, column=len(left) + 2
                ) from None
    return out


def _merge_config(args) -> None:
    """Fill unset flag values (None) from the config file, if any."""
    if not getattr(args, "config", None):
        return
    cfg = load_config(args.config)
    for key, value in cfg.items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)


def _geometry(args) -> tuple[float, float]:
    """(obliquity, scale) from the flags and config, with their defaults."""
    obliquity = args.obliquity if args.obliquity is not None else OBLIQUITY
    scale = getattr(args, "scale_mm", None)
    diameter = getattr(args, "diameter_mm", None)
    if scale is not None and diameter is not None:
        raise ValueError("give either --scale-mm or --diameter-mm, not both")
    if scale is not None:
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        scale = float(scale)
    elif diameter is not None:
        if diameter <= 0:
            raise ValueError(f"diameter must be positive, got {diameter}")
        scale = (diameter / 2.0) / math.tan(math.radians(45.0 + obliquity / 2.0))
    else:
        scale = 100.0
    return obliquity, scale


def _style(args) -> RenderStyle:
    return RenderStyle(
        precision=getattr(args, "precision", None) or 4,
        mirror_ew=bool(getattr(args, "mirror_ew", None)),
    )


def _write_text(args, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _require(args, *names: str) -> None:
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise ValueError(f"missing required value(s): {flags}")


def _plate_config(args, obliquity: float, scale: float) -> PlateConfig:
    optional = {
        key: getattr(args, key)
        for key in ("almucantar_step", "azimuth_step", "hour_lines")
        if getattr(args, key, None) is not None
    }
    return PlateConfig(latitude=args.lat, scale=scale, obliquity=obliquity, **optional)


def _rete(args, obliquity: float, scale: float) -> ReteModel:
    """The rete; each star it leaves out gets a `note:` line on stderr."""
    catalog = load_star_catalog(args.catalog) if getattr(args, "catalog", None) else []
    model = build_rete(catalog, scale, obliquity)
    for _, reason in model.skipped:
        print(f"note: {reason}", file=sys.stderr)
    return model


def _back(args, obliquity: float, scale: float) -> BackModel:
    radius = scale * math.tan(math.radians(45.0 + obliquity / 2.0))
    cfg = BackConfig(latitude=args.lat, radius=radius, obliquity=obliquity)
    locs = (
        load_localities(args.localities) if getattr(args, "localities", None) else []
    )
    return build_back(cfg, locs)


def _cmd_plate(args) -> int:
    _require(args, "lat")
    model = build_plate(_plate_config(args, *_geometry(args)))
    _write_text(args, render_svg(model, _style(args)))
    return 0


def _cmd_rete(args) -> int:
    _write_text(args, render_svg(_rete(args, *_geometry(args)), _style(args)))
    return 0


def _cmd_back(args) -> int:
    _require(args, "lat")
    _write_text(args, render_svg(_back(args, *_geometry(args)), _style(args)))
    return 0


def _cmd_full(args) -> int:
    _require(args, "lat")
    geometry = _geometry(args)
    plate_model = build_plate(_plate_config(args, *geometry))
    rete_model = _rete(args, *geometry)
    back_model = _back(args, *geometry)
    _write_text(args, render_full(plate_model, rete_model, back_model, _style(args)))
    return 0


_KINDS = ("stereographic", "gnomonic", "external", "orthographic")


def _cmd_project(args) -> int:
    if args.kind == "external":
        if args.q is None:
            raise ValueError("--kind external needs --q > 1")
        kind = ProjectionKind.external(args.q)
    else:
        kind = getattr(ProjectionKind, args.kind)()
    _, scale = _geometry(args)
    r = axis_projection_radius(args.dec, kind, scale)
    p = from_plate_polar(r, args.hour_angle)
    rows = [
        ("kind", args.kind),
        ("dec_deg", f"{args.dec:.6f}"),
        ("hour_angle_deg", f"{args.hour_angle:.6f}"),
        ("radius_mm", f"{r:.6f}"),
        ("x_mm", f"{p.x:.6f}"),
        ("y_mm", f"{p.y:.6f}"),
    ]
    _report(args, rows)
    return 0


def _cmd_qibla(args) -> int:
    _require(args, "lat", "lon")
    obs = Locality(args.name or "observer", args.lat, args.lon)
    oracle = bearing_oracle(obs, MECCA)
    closed = qibla_eq13(obs, MECCA)
    rows = [
        ("observer_lat_deg", f"{obs.latitude:.6f}"),
        ("observer_lon_deg", f"{obs.longitude:.6f}"),
        ("bearing_oracle_deg", f"{oracle:.6f}"),
        ("qibla_eq13_deg", f"{closed:.6f}"),
        ("abs_difference_deg", f"{abs((oracle - closed + 180.0) % 360.0 - 180.0):.6f}"),
    ]
    _report(args, rows)
    if abs((oracle - closed + 180.0) % 360.0 - 180.0) > 1e-6:
        print(
            "note: the closed tangent form disagrees with the great-circle "
            "bearing here; trust the bearing_oracle_deg value",
            file=sys.stderr,
        )
    return 0


def _report(args, rows) -> None:
    """Plain-text table to stdout; CSV (stat,value) to --out if given."""
    width = max(len(k) for k, _ in rows)
    text = "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows) + "\n"
    sys.stdout.write(text)
    out = getattr(args, "out", None)
    if out:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["stat", "value"])
        writer.writerows(rows)
        Path(out).write_text(buf.getvalue(), encoding="utf-8")


def _cmd_analyze_arc(args) -> int:
    has_ds = args.ds is not None
    has_angular = args.dalpha is not None or args.radius is not None
    if has_ds == has_angular:
        raise ValueError("give either --ds, or --radius with --dalpha")
    if args.dp is None:
        raise ValueError("missing required value(s): --dp")
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
    _report(args, rows)
    return 0


def _cmd_analyze_chords(args) -> int:
    marks = [float(v) for v in args.marks.split(",")]
    circle = Circle(PlanePoint(0.0, 0.0), args.radius)
    verdict = ea.quadrant_chord_diagnosis(circle, marks, args.tol)
    rows = [
        ("radius_mm", f"{args.radius:.6f}"),
        ("marks_deg", ";".join(f"{m:g}" for m in marks)),
        ("tol_mm", f"{args.tol:.6f}"),
        ("classification", verdict),
    ]
    _report(args, rows)
    return 0


def _cmd_analyze_band(args) -> int:
    _require(args, "lat")
    _, scale = _geometry(args)
    displacement, band = ea.band_misassignment(
        args.lat, scale, args.altitude, args.radius_error_fraction, args.band_step
    )
    spacing = ea.band_spacing(args.lat, scale, args.altitude, args.band_step)
    rows = [
        ("latitude_deg", f"{args.lat:.6f}"),
        ("scale_mm", f"{scale:.6f}"),
        ("altitude_deg", f"{args.altitude:.6f}"),
        ("radius_error_fraction", f"{args.radius_error_fraction:.6f}"),
        ("displacement_mm", f"{displacement:.6f}"),
        ("band_spacing_mm", f"{spacing:.6f}"),
        ("lands_on_band_deg", f"{band:.6f}"),
    ]
    _report(args, rows)
    return 0


def _cmd_analyze_alidade(args) -> int:
    rows = []
    if args.offset is not None:
        _require(args, "length_mm")
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
        d2 = ea.alidade_rotation_error(args.rotation)
        rows += [
            (f"rotation_{args.rotation_unit}", f"{args.rotation:.6f}"),
            (f"rotation_error_{args.rotation_unit}", f"{d2:.6f}"),
        ]
    if not rows:
        raise ValueError("give --offset and/or --rotation")
    _report(args, rows)
    return 0


def _cmd_analyze_mc(args) -> int:
    _require(args, "lat", "sun_dec", "hour_angle")
    cfg = _plate_config(args, *_geometry(args))
    pert = ea.PerturbationSpec(
        center_sigma=args.center_sigma,
        radius_sigma=args.radius_sigma,
        graduation_sigma=args.graduation_sigma,
        seed=args.seed if args.seed is not None else 0,
    )
    report = ea.monte_carlo_readout(
        cfg,
        pert,
        args.scenario,
        args.sun_dec,
        args.hour_angle,
        args.trials,
    )
    unit = "deg" if args.scenario == "altitude" else "hours"
    rows = [
        ("scenario", args.scenario),
        ("n_trials", str(report.n_trials)),
        (f"mean_{unit}", f"{report.mean:.6f}"),
        (f"std_{unit}", f"{report.std:.6f}"),
        (f"max_abs_{unit}", f"{report.max_abs:.6f}"),
        ("classification", report.classification),
    ]
    _report(args, rows)
    return 0


# every flag shared by several subcommands, declared once; the option
# string is the dest with dashes ("almucantar_step" -> --almucantar-step)
_FLAGS = {
    "lat": dict(type=float, help="geographic latitude, degrees north"),
    "scale_mm": dict(
        type=float, help="equator radius in mm (default 100 when no --diameter-mm)"
    ),
    "diameter_mm": dict(
        type=float, help="overall plate diameter in mm (alternative to --scale-mm)"
    ),
    "obliquity": dict(
        type=float, help=f"ecliptic obliquity, degrees (default {OBLIQUITY})"
    ),
    "mirror_ew": dict(
        action="store_const", const=True,
        help="mirror east-west (negates document x coordinates)",
    ),
    "precision": dict(type=int, help="coordinate decimals in the SVG (1-9, default 4)"),
    "almucantar_step": dict(
        type=float, help="altitude circle step in degrees, divides 90 (default 5)"
    ),
    "azimuth_step": dict(
        type=float, help="azimuth arc step in degrees, divides 360 (default 10)"
    ),
    "catalog": dict(help="star catalog CSV (name,ra_deg,dec_deg,mag)"),
    "localities": dict(help="locality CSV (name,lat_deg,lon_deg) for qibla marks"),
}
_GEOMETRY = ("scale_mm", "diameter_mm", "obliquity")
_RENDER = ("mirror_ew", "precision")


def _add_flags(p: argparse.ArgumentParser, *names: str) -> None:
    """--config, --out, and the named shared flags: a subcommand gets only
    the flags it reads."""
    p.add_argument("--config", help="config file with key = value lines")
    p.add_argument("--out", help="output file (default: stdout)")
    for name in names:
        p.add_argument("--" + name.replace("_", "-"), dest=name, **_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="astrolabe",
        description="Design a planispheric astrolabe: plate, rete, and back "
        "geometry as SVG, plus projection and engraving-error analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_plate = sub.add_parser("plate", help="plate (tympan) SVG for a latitude")
    _add_flags(p_plate, "lat", *_GEOMETRY, *_RENDER, "almucantar_step", "azimuth_step")
    p_plate.set_defaults(func=_cmd_plate)

    p_rete = sub.add_parser("rete", help="rete (star map) SVG")
    _add_flags(p_rete, *_GEOMETRY, *_RENDER, "catalog")
    p_rete.set_defaults(func=_cmd_rete)

    p_back = sub.add_parser("back", help="back face SVG (scales and calendar)")
    _add_flags(p_back, "lat", *_GEOMETRY, *_RENDER, "localities")
    p_back.set_defaults(func=_cmd_back)

    p_full = sub.add_parser("full", help="plate + rete + back in one SVG")
    _add_flags(
        p_full, "lat", *_GEOMETRY, *_RENDER, "almucantar_step", "azimuth_step",
        "catalog", "localities",
    )
    p_full.set_defaults(func=_cmd_full)

    p_proj = sub.add_parser(
        "project", help="project one sphere point under a projection family member"
    )
    _add_flags(p_proj, *_GEOMETRY)
    p_proj.add_argument("--dec", type=float, required=True, help="declination, degrees")
    p_proj.add_argument(
        "--hour-angle", dest="hour_angle", type=float, default=0.0,
        help="hour angle, degrees (default 0)",
    )
    p_proj.add_argument(
        "--kind", choices=_KINDS, default="stereographic",
        help="projection member (default stereographic)",
    )
    p_proj.add_argument(
        "--q", type=float, help="external viewpoint distance (required for --kind external)"
    )
    p_proj.set_defaults(func=_cmd_project)

    p_qibla = sub.add_parser(
        "qibla", help="bearing to Mecca: 3D great-circle oracle and the closed form"
    )
    _add_flags(p_qibla, "lat")
    p_qibla.add_argument("--lon", type=float, help="longitude, degrees east")
    p_qibla.add_argument("--name", help="observer name for the report")
    p_qibla.set_defaults(func=_cmd_qibla)

    p_an = sub.add_parser("analyze", help="error propagation analyses")
    an_sub = p_an.add_subparsers(dest="mode", required=True)

    a_arc = an_sub.add_parser(
        "arc-displacement", help="arc displacement from tangential/radial offsets"
    )
    _add_flags(a_arc)
    a_arc.add_argument("--ds", type=float, help="tangential offset, mm")
    a_arc.add_argument("--dp", type=float, help="radial offset, mm")
    a_arc.add_argument("--radius", type=float, help="engraving radius, mm (angular form)")
    a_arc.add_argument(
        "--dalpha", type=float, help="angular offset, radians (angular form)"
    )
    a_arc.set_defaults(func=_cmd_analyze_arc)

    a_ch = an_sub.add_parser(
        "quadrant-chords", help="diagnose quadrant graduation from four chords"
    )
    _add_flags(a_ch)
    a_ch.add_argument("--radius", type=float, required=True, help="circle radius, mm")
    a_ch.add_argument(
        "--marks", required=True,
        help="four mark angles in degrees, comma separated (e.g. 0,90,180,270)",
    )
    a_ch.add_argument(
        "--tol", type=float, required=True, help="chord equality tolerance, mm"
    )
    a_ch.set_defaults(func=_cmd_analyze_chords)

    a_band = an_sub.add_parser(
        "band", help="altitude band misassignment from a radius error"
    )
    _add_flags(a_band, "lat", *_GEOMETRY)
    a_band.add_argument(
        "--altitude", type=float, required=True, help="true altitude band, degrees"
    )
    a_band.add_argument(
        "--radius-error-fraction", dest="radius_error_fraction", type=float,
        required=True, help="relative radius error (e.g. 0.02 for 2%%)",
    )
    a_band.add_argument(
        "--band-step", dest="band_step", type=float, default=3.0,
        help="band spacing in degrees (default 3)",
    )
    a_band.set_defaults(func=_cmd_analyze_band)

    a_al = an_sub.add_parser("alidade", help="alidade sighting error budget")
    _add_flags(a_al)
    a_al.add_argument("--length-mm", dest="length_mm", type=float, help="alidade length, mm")
    a_al.add_argument("--offset", type=float, help="sight-vane angular offset")
    a_al.add_argument(
        "--offset-unit", dest="offset_unit", choices=("rad", "deg"), default="rad",
        help="unit of --offset (default rad)",
    )
    a_al.add_argument("--rotation", type=float, help="rotation graduation error")
    a_al.add_argument(
        "--rotation-unit", dest="rotation_unit", choices=("mm", "deg", "rad"),
        help="unit of --rotation (required with --rotation; the error keeps it)",
    )
    a_al.set_defaults(func=_cmd_analyze_alidade)

    a_mc = an_sub.add_parser(
        "montecarlo", help="Monte Carlo readout error under engraving noise"
    )
    _add_flags(a_mc, "lat", *_GEOMETRY, "almucantar_step")
    a_mc.add_argument(
        "--scenario", choices=ea.SCENARIOS, default="time_to_sunset",
        help="readout scenario (default time_to_sunset)",
    )
    a_mc.add_argument("--sun-dec", dest="sun_dec", type=float, help="sun declination, degrees")
    a_mc.add_argument(
        "--hour-angle", dest="hour_angle", type=float, help="true hour angle, degrees"
    )
    a_mc.add_argument(
        "--trials", type=int, default=200, help="number of trials (default 200)"
    )
    a_mc.add_argument(
        "--center-sigma", dest="center_sigma", type=float, default=0.0,
        help="circle center noise per axis, mm",
    )
    a_mc.add_argument(
        "--radius-sigma", dest="radius_sigma", type=float, default=0.0,
        help="circle radius noise, mm",
    )
    a_mc.add_argument(
        "--graduation-sigma", dest="graduation_sigma", type=float, default=0.0,
        help="hour graduation noise along the tropics, degrees",
    )
    a_mc.add_argument(
        "--seed", type=int, help="random seed for the trials (default 0)"
    )
    a_mc.set_defaults(func=_cmd_analyze_mc)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        _merge_config(args)
        return args.func(args)
    except (ParseError, UnknownKey) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
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
