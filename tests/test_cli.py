"""Command line tests: wiring, config files, exit codes, report formats.

Everything runs in-process through ``cli.main`` (fast, capturable), except
two tests that check which modules a fresh interpreter loads, and one
subprocess smoke test that runs the console script that pyproject.toml
declares, the way pip's wrapper runs it, from this tree with no install, then
``python -m astrolabe`` and ``python -m astrolabe.cli``, and any
``astrolabe`` already on PATH.  The math behind each subcommand is
oracle-tested in the per-module files, so the assertions here pin the
adapter layer: flag plumbing, precedence, the text/CSV report shapes, and
the documented exit code map.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import astrolabe
import astrolabe.error_analysis as ea
from astrolabe.plate import MIN_LATITUDE, MIN_STEP
from astrolabe import cli, projection
from astrolabe.cli import load_config, main
from test_properties import REPRODUCIBLE


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_rows(text: str) -> dict:
    # _report pads keys with ljust, so key and value are split by >= 2 spaces
    rows = {}
    for line in text.strip().splitlines():
        key, value = re.split(r"\s{2,}", line, maxsplit=1)
        rows[key] = value
    return rows


# ---------------------------------------------------------------- help text


def test_every_flag_is_documented(capsys):
    """Each flag of each command, and each command of each group, appears
    with its non-empty help text in that command's or group's --help."""
    for path, (func, about, keys) in cli._COMMANDS.items():
        code, out, err = run_cli(capsys, *path, "--help")
        assert (code, err) == (0, ""), path
        assert about and about in out, path
        if func is None:
            children = [p for p in cli._COMMANDS if p[:-1] == path and p != path]
            assert children, path
            for child in children:
                assert re.search(rf"^  {child[-1]} +{re.escape(cli._COMMANDS[child][1])}$",
                                 out, re.M), child
            continue
        for key in ("config", "out", *keys):
            flag = cli._FLAGS[key]
            assert flag.help, (path, key)
            # the help follows on the flag's row, or on the next row when the flag is long
            assert re.search(rf"^  {flag.option}(?= |$).*(\n {{20,}})?{re.escape(flag.help)}",
                             out, re.M), (path, key)


def test_help_exits_zero_and_lists_flags(capsys):
    code, out, _ = run_cli(capsys, "plate", "--help")
    assert code == 0
    for flag in (
        "--lat",
        "--scale-mm",
        "--diameter-mm",
        "--obliquity",
        "--almucantar-step",
        "--azimuth-step",
        "--mirror-ew",
        "--precision",
        "--config",
        "--out",
    ):
        assert flag in out


def test_top_level_help_lists_subcommands(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    for name in ("plate", "rete", "back", "full", "project", "qibla", "analyze"):
        assert name in out


# ----------------------------------------------------------------- grammar

CFG = "<config>"  # stands for a config file holding `lat = 10` and `precision = 2`
COMMANDS = "'plate', 'rete', 'back', 'full', 'project', 'qibla', 'analyze'"
PLATE_40 = ("plate", "--lat", "40")

GRAMMAR = [
    # argv, exit code, stderr, and the argv whose stdout it must match (None: no
    # stdout; a string: the start of the help text it prints)
    pytest.param(("project", "--dec=30", "--hour-angle=90"), 0, "",
                 ("project", "--dec", "30", "--hour-angle", "90"), id="equals-and-space"),
    pytest.param(("project", "--dec", "-1e1", "--hour-angle", "-30"), 0, "",
                 ("project", "--dec=-10", "--hour-angle=-30"), id="negative-values"),
    pytest.param(("plate", "--lat", "10", "--precision", "9", "--lat=40", "--precision", "4"),
                 0, "", PLATE_40, id="last-wins"),
    pytest.param(("plate", "--lat"), 1,
                 "error: astrolabe plate: argument --lat: expected one argument\n", None,
                 id="missing-value-at-end"),
    pytest.param(("plate", "--lat", "--precision", "3"), 1,
                 "error: astrolabe plate: argument --lat: expected one argument\n", None,
                 id="missing-value-before-flag"),
    pytest.param(("plate", "--no-such-flag"), 1,
                 "error: astrolabe: unrecognized arguments: --no-such-flag\n", None,
                 id="unknown-flag"),
    pytest.param((*PLATE_40, "--alm", "5"), 1,
                 "error: astrolabe: unrecognized arguments: --alm 5\n", None, id="no-prefixes"),
    pytest.param(("qibla", "--lat", "10", "--lon", "10", "--obliquity", "9"), 1,
                 "error: astrolabe: unrecognized arguments: --obliquity 9\n", None,
                 id="flag-of-another-command"),
    pytest.param(("--verbose", *PLATE_40), 1,
                 "error: astrolabe: unrecognized arguments: --verbose\n", None,
                 id="flag-before-command"),
    pytest.param(("no-such-command",), 1,
                 "error: astrolabe: argument command: invalid choice: 'no-such-command' "
                 f"(choose from {COMMANDS})\n", None, id="unknown-command"),
    pytest.param(("analyze", "nosuch"), 1,
                 "error: astrolabe analyze: argument mode: invalid choice: 'nosuch' (choose from "
                 "'arc-displacement', 'quadrant-chords', 'band', 'alidade', 'montecarlo')\n",
                 None, id="unknown-mode"),
    pytest.param((), 1, "error: astrolabe: the following arguments are required: command\n",
                 None, id="no-command"),
    pytest.param(("plate", "--lat", "forty"), 1,
                 "error: astrolabe plate: argument --lat: invalid float value: 'forty'\n", None,
                 id="bad-float"),
    pytest.param((*PLATE_40, "--precision=4.0"), 1,
                 "error: astrolabe plate: argument --precision: invalid int value: '4.0'\n", None,
                 id="bad-int"),
    pytest.param(("project", "--dec", "1", "--kind", "polar"), 1,
                 "error: astrolabe project: argument --kind: invalid choice: 'polar' (choose from "
                 "'stereographic', 'gnomonic', 'external', 'orthographic')\n", None,
                 id="bad-choice"),
    pytest.param((*PLATE_40, "--mirror-ew=yes"), 1,
                 "error: astrolabe plate: argument --mirror-ew: ignored explicit argument 'yes'\n",
                 None, id="switch-with-value"),
    pytest.param(("analyze", "quadrant-chords", "--tol", "1"), 1,
                 "error: astrolabe analyze quadrant-chords: the following arguments are "
                 "required: --radius, --marks\n", None, id="missing-required"),
    pytest.param(("plate", "--config", CFG, "--lat", "40"), 0, "",
                 ("plate", "--lat", "40", "--precision", "2"), id="flag-overrides-config"),
    pytest.param(("--help", "plate"), 0, "", "usage: astrolabe {plate,rete,", id="help-top"),
    pytest.param(("analyze", "-h"), 0, "", "usage: astrolabe analyze {arc-displacement,",
                 id="help-group"),
    pytest.param(("plate", "--lat", "forty", "-h"), 0, "", "usage: astrolabe plate [options]\n",
                 id="help-command"),
]


@pytest.mark.parametrize("argv, code, err, out", GRAMMAR)
def test_command_line_grammar(capsys, tmp_path, argv, code, err, out):
    cfg = tmp_path / "grammar.cfg"
    cfg.write_text("lat = 10\nprecision = 2\n", encoding="utf-8")
    got_code, got_out, got_err = run_cli(capsys, *(str(cfg) if a == CFG else a for a in argv))
    assert (got_code, got_err) == (code, err)
    if out is None:
        assert got_out == ""
    elif isinstance(out, str):
        assert got_out.startswith(out)
    else:
        expected = run_cli(capsys, *out)
        assert expected[0] == 0 and expected[1] and got_out == expected[1]


# ------------------------------------------------------------- svg commands


def test_plate_writes_svg_to_stdout(capsys):
    code, out, err = run_cli(capsys, "plate", "--lat", "40")
    assert code == 0
    assert err == ""
    root = ET.fromstring(out)
    assert root.tag.endswith("svg")


def test_plate_is_byte_deterministic(capsys, tmp_path):
    args = ("plate", "--lat", "40", "--scale-mm", "100")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    target = tmp_path / "plate.svg"
    code3, out3, _ = run_cli(capsys, *args, "--out", str(target))
    assert code3 == 0
    assert out3 == ""  # --out redirects the document away from stdout
    assert target.read_text(encoding="utf-8") == out1


def test_rete_back_full_commands_run(capsys, tmp_path):
    for argv in (
        ("rete", "--scale-mm", "90"),
        ("back", "--lat", "35"),
        ("full", "--lat", "40"),
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        ET.fromstring(out)
    code, out, _ = run_cli(capsys, "full", "--lat", "40")
    assert out.count("translate(") == 3  # plate, rete, back side by side


def test_rete_reads_star_catalog(capsys, tmp_path):
    catalog = tmp_path / "stars.csv"
    catalog.write_text(
        "name,ra_deg,dec_deg,mag\nVega,279.235,38.784,0.03\n", encoding="utf-8"
    )
    code, out, _ = run_cli(capsys, "rete", "--catalog", str(catalog))
    assert code == 0
    assert "Vega" in out


def test_rete_and_full_note_each_skipped_star(capsys):
    demos = Path(__file__).resolve().parents[1] / "demos"
    catalog = str(demos / "data" / "bright_stars.csv")
    for argv in (("rete", "--catalog", catalog, "--scale-mm", "100"),
                 ("full", "--lat", "40", "--catalog", catalog)):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, argv
        notes = [line for line in err.splitlines() if line.startswith("note: ")]
        assert len(notes) == 3, argv
        assert all(any(name in n for n in notes) for name in ("Canopus", "Antares", "Fomalhaut"))
    code, out, _ = run_cli(capsys, "rete", "--catalog", catalog, "--scale-mm", "100")
    assert out == (demos / "out" / "rete_bright_stars.svg").read_text(encoding="utf-8")


def test_a_duplicate_star_name_is_a_usage_error(capsys, tmp_path):
    # like every other catalog defect it exits 1, not 2, the code of a domain error
    catalog = tmp_path / "dup.csv"
    catalog.write_text("name,ra_deg,dec_deg,mag\nVega,279.235,38.784,0.03\n"
                       "Vega,279.235,38.784,0.03\n", encoding="utf-8")
    for argv in (("rete",), ("full", "--lat", "40")):
        assert run_cli(capsys, *argv, "--catalog", str(catalog)) == (
            1, "", "error: star 'Vega' appears more than once\n")


def test_a_catalog_row_out_of_range_exits_one_naming_its_line(capsys, tmp_path):
    catalog = tmp_path / "far.csv"
    catalog.write_text("name,ra_deg,dec_deg,mag\nVega,279.235,38.784,0.03\nNowhere,10,95,1\n",
                       encoding="utf-8")
    assert run_cli(capsys, "rete", "--catalog", str(catalog)) == (
        1, "", "error: declination must lie in [-90, 90], got 95.0 (line 3)\n")


def test_back_reads_localities(capsys, tmp_path):
    places = tmp_path / "places.csv"
    places.write_text(
        "name,lat_deg,lon_deg\nDamascus,33.5130,36.2920\n", encoding="utf-8"
    )
    code, out, _ = run_cli(capsys, "back", "--lat", "33.5", "--localities", str(places))
    assert code == 0
    ET.fromstring(out)


def test_mirror_and_precision_change_output(capsys):
    _, plain, _ = run_cli(capsys, "plate", "--lat", "40")
    _, mirrored, _ = run_cli(capsys, "plate", "--lat", "40", "--mirror-ew")
    _, coarse, _ = run_cli(capsys, "plate", "--lat", "40", "--precision", "2")
    assert mirrored != plain
    assert coarse != plain
    assert re.search(r'r="\d+\.\d{2}"', coarse)
    assert not re.search(r'r="\d+\.\d{4}"', coarse)


# ---------------------------------------------------------------- project


def test_project_default_scale(capsys):
    code, out, _ = run_cli(capsys, "project", "--dec", "0")
    rows = report_rows(out)
    assert code == 0
    assert rows["kind"] == "stereographic"
    assert rows["radius_mm"] == "100.000000"
    assert rows["x_mm"] == "0.000000"
    assert rows["y_mm"] == "100.000000"


def test_project_equator_radius_same_for_all_defined_kinds(capsys):
    # the equator lies in the drawing plane, so every axis viewpoint maps
    # it to the scale radius
    for extra in ((), ("--kind", "orthographic"), ("--kind", "external", "--q", "2")):
        code, out, _ = run_cli(capsys, "project", "--dec", "0", *extra)
        assert code == 0
        assert report_rows(out)["radius_mm"] == "100.000000"


def test_project_positive_declination(capsys):
    code, out, _ = run_cli(capsys, "project", "--dec", "30", "--hour-angle", "90")
    rows = report_rows(out)
    expected = 100.0 * math.tan(math.radians(30.0))  # tan((90 - 30)/2)
    assert float(rows["radius_mm"]) == pytest.approx(expected, abs=1e-6)
    assert float(rows["x_mm"]) == pytest.approx(expected, abs=1e-6)
    assert float(rows["y_mm"]) == pytest.approx(0.0, abs=1e-6)


def test_project_diameter_sets_scale(capsys):
    code, out, _ = run_cli(capsys, "project", "--dec", "0", "--diameter-mm", "300")
    expected = 150.0 / math.tan(math.radians(45.0 + 23.44 / 2.0))
    assert float(report_rows(out)["radius_mm"]) == pytest.approx(expected, abs=1e-6)


def test_project_external_without_q_fails(capsys):
    code, _, err = run_cli(capsys, "project", "--dec", "10", "--kind", "external")
    assert code == 1
    assert "--q" in err


def test_project_gnomonic_equator_is_a_domain_error(capsys):
    code, _, err = run_cli(capsys, "project", "--dec", "0", "--kind", "gnomonic")
    assert code == 2
    assert err.startswith("error:")


# ---------------------------------------------------------------- exit map


def test_scale_and_diameter_are_mutually_exclusive(capsys):
    code, _, err = run_cli(
        capsys, "plate", "--lat", "40", "--scale-mm", "100", "--diameter-mm", "300"
    )
    assert code == 1
    assert "not both" in err


LO, HI = astrolabe.SCALE_RANGE


@pytest.mark.parametrize("command", ["plate", "rete", "back", "full"])
@pytest.mark.parametrize("flag, value, ok", [
    ("--scale-mm", LO, True),
    ("--diameter-mm", 2.0 * HI, True),  # the limb radius at the top of the range
    ("--scale-mm", math.nextafter(LO, 0.0), False),
    ("--diameter-mm", math.nextafter(2.0 * HI, math.inf), False),
    ("--scale-mm", HI, False),  # a limb radius of 1.52 HI
    ("--scale-mm", 1e-300, False),
    ("--scale-mm", 1e250, False),
    ("--diameter-mm", -300.0, False),
])
def test_scales_outside_the_range_exit_one_naming_the_flag(capsys, command, flag, value, ok):
    lat = () if command == "rete" else ("--lat", "40")
    code, out, err = run_cli(capsys, command, *lat, flag, repr(value))
    if ok:
        assert (code, err) == (0, "")
        assert out.endswith("</svg>\n")
    else:
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {flag} {value:g} ") and "mm" in err


@pytest.mark.parametrize("command", [
    ("plate", "--lat", "40"), ("rete",), ("back", "--lat", "40"), ("full", "--lat", "40"),
    ("project", "--dec", "10"),
    ("analyze", "band", "--lat", "40", "--altitude", "10", "--radius-error-fraction", "0.02"),
    ("analyze", "montecarlo", "--lat", "40", "--sun-dec", "10", "--hour-angle", "40"),
], ids=lambda argv: argv[1] if argv[0] == "analyze" else argv[0])
@pytest.mark.parametrize("obliquity", [-90.0, -1e-300, 0.0, 30.0, 179.99, 1e300])
def test_obliquities_outside_the_range_exit_one_naming_the_flag(capsys, command, obliquity):
    # every command that takes the flag refuses the same values: obliquity 0 too, which
    # would put the tropics on the equator
    argv = (*command, "--diameter-mm", "100", f"--obliquity={obliquity!r}")
    assert run_cli(capsys, *argv) == (
        1, "", f"error: --obliquity must lie in (0, 30), got {obliquity!r}\n"
    )


def test_missing_latitude_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "plate")
    assert code == 1
    assert "--lat" in err


@pytest.mark.parametrize("lat", ["5e-324", "1e-10", "1e-6"])
def test_plate_below_the_lowest_latitude_is_a_usage_error(capsys, lat):
    code, out, err = run_cli(capsys, "plate", "--lat", lat)
    assert code == 1
    assert err == f"error: --lat must lie in [{MIN_LATITUDE}, 90), got {float(lat)!r}\n"
    assert out == ""


MC_AT = ("--sun-dec", "10", "--hour-angle", "40")
BAND_AT = ("--altitude", "10", "--radius-error-fraction", "0.02")
BAND_AT_HORIZON = ("--altitude", "0", "--radius-error-fraction", "0.01")


@pytest.mark.parametrize("argv, message", [
    (("plate", "--lat", "40", "--obliquity", "0"), "--obliquity must lie in (0, 30), got 0.0"),
    (("back", "--lat", "40", "--obliquity", "0"), "--obliquity must lie in (0, 30), got 0.0"),
    (("full", "--lat", "40", "--obliquity", "0"), "--obliquity must lie in (0, 30), got 0.0"),
    (("analyze", "montecarlo", "--lat", "40", "--obliquity", "0", *MC_AT),
     "--obliquity must lie in (0, 30), got 0.0"),
    (("plate", "--lat", "95"), f"--lat must lie in [{MIN_LATITUDE}, 90), got 95.0"),
    (("back", "--lat", "95"), f"--lat must lie in [{MIN_LATITUDE}, 90), got 95.0"),
    (("full", "--lat", "95"), f"--lat must lie in [{MIN_LATITUDE}, 90), got 95.0"),
    (("analyze", "montecarlo", "--lat", "95", *MC_AT),
     f"--lat must lie in [{MIN_LATITUDE}, 90), got 95.0"),
    (("analyze", "band", "--lat", "95", *BAND_AT),
     f"--lat must lie in [{MIN_LATITUDE}, 90), got 95.0"),
    (("analyze", "band", "--lat", "0", *BAND_AT),
     f"--lat must lie in [{MIN_LATITUDE}, 90), got 0.0"),
    # below the plate's floor the band's displacement divided by zero (5e-324)
    # or printed 300 digits (1e-300)
    (("analyze", "band", "--lat", "5e-324", *BAND_AT_HORIZON),
     f"--lat must lie in [{MIN_LATITUDE}, 90), got 5e-324"),
    (("analyze", "band", "--lat", "1e-300", *BAND_AT_HORIZON),
     f"--lat must lie in [{MIN_LATITUDE}, 90), got 1e-300"),
    (("qibla", "--lat", "95", "--lon", "10"), "--lat must lie in [-90, 90], got 95.0"),
], ids=["plate-obliquity", "back-obliquity", "full-obliquity", "montecarlo-obliquity",
        "plate-lat", "back-lat", "full-lat", "montecarlo-lat", "band-lat", "band-lat-0",
        "band-lat-5e-324", "band-lat-1e-300", "qibla-lat"])
def test_range_errors_name_the_flag_and_the_commands_range(capsys, argv, message):
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


# report numbers that near the float range printed inf, 309 digits, or an error naming no flag
@pytest.mark.parametrize("argv, message", [
    (("analyze", "alidade", "--length-mm", "1e308", "--offset", "1e308"),
     "--length-mm must lie in (0, 1e+09] mm, got 1e+308"),
    (("analyze", "alidade", "--length-mm", "150", "--offset", "1e308"),
     "--offset must lie in [0, 2 pi], got 1e+308"),
    (("analyze", "alidade", "--length-mm", "150", "--offset", "361", "--offset-unit", "deg"),
     "--offset must lie in [0, 360], got 361.0"),
    (("analyze", "alidade", "--rotation", "1e308", "--rotation-unit", "deg"),
     "--rotation must lie in [0, 360], got 1e+308"),
    (("analyze", "alidade", "--rotation", "1e308", "--rotation-unit", "mm"),
     "--rotation must lie in [0, 1e+09] mm, got 1e+308"),
    (("analyze", "arc-displacement", "--ds", "1e308", "--dp", "1e308"),
     "--ds must lie in [-1e+09, 1e+09] mm, got 1e+308"),
    (("analyze", "arc-displacement", "--ds", "1", "--dp=-1e308"),
     "--dp must lie in [-1e+09, 1e+09] mm, got -1e+308"),
    (("analyze", "arc-displacement", "--radius", "1e9", "--dalpha", "1e308", "--dp", "1"),
     "--dalpha must lie in [-2 pi, 2 pi], got 1e+308"),
    (("analyze", "arc-displacement", "--radius", "1e308", "--dalpha", "1", "--dp", "1"),
     "--radius must lie in (0, 1e+09] mm, got 1e+308"),
    (("analyze", "quadrant-chords", "--radius", "100", "--marks", "0,90,180,270",
      "--tol", "1e308"), "--tol must lie in [0, 1e+09] mm, got 1e+308"),
    # each mark is read and checked as a float flag's value is
    (("analyze", "quadrant-chords", "--radius", "10", "--marks=", "--tol", "0.1"),
     "astrolabe analyze quadrant-chords: argument --marks: invalid float value: ''"),
    (("analyze", "quadrant-chords", "--radius", "10", "--marks", "0,90,x,270", "--tol", "0.1"),
     "astrolabe analyze quadrant-chords: argument --marks: invalid float value: 'x'"),
    (("analyze", "quadrant-chords", "--radius", "10", "--marks", "0,90,nan,270", "--tol", "0.1"),
     "--marks must be a finite number, got nan"),
    (("analyze", "quadrant-chords", "--radius", "10", "--marks", "0,90,inf,270", "--tol", "0.1"),
     "--marks must be a finite number, got inf"),
    (("analyze", "quadrant-chords", "--radius", "10", "--marks", "0,90,180", "--tol", "0.1"),
     "--marks must list exactly 4 marks, got 3"),
    (("analyze", "quadrant-chords", "--radius", "10", "--marks", "0,90,180,270,45",
      "--tol", "0.1"), "--marks must list exactly 4 marks, got 5"),
    (("analyze", "band", "--lat", "40", "--altitude", "10", "--radius-error-fraction", "1e308"),
     "--radius-error-fraction must lie in [-1, 1], got 1e+308"),
    (("project", "--dec", "10", "--hour-angle", "1e308"),
     "--hour-angle must lie in [-360, 360], got 1e+308"),
    (("project", "--dec", "10", "--kind", "external", "--q", "1e308"),
     "--q must lie in (1, 1e+09], got 1e+308"),
], ids=["alidade-length", "alidade-offset-rad", "alidade-offset-deg", "alidade-rotation-deg",
        "alidade-rotation-mm", "arc-ds", "arc-dp", "arc-dalpha", "arc-radius", "chords-tol",
        "chords-marks-empty", "chords-marks-x", "chords-marks-nan", "chords-marks-inf",
        "chords-marks-three", "chords-marks-five", "band-fraction", "project-hour-angle", "project-q"])
def test_report_numbers_outside_their_range_exit_one_naming_the_flag(capsys, argv, message):
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


LATITUDE_EDGES = [(MIN_LATITUDE, True), (math.nextafter(90.0, 0.0), True),
                  (math.nextafter(MIN_LATITUDE, 0.0), False), (90.0, False)]


@pytest.mark.parametrize("latitude, ok", LATITUDE_EDGES)
def test_every_face_and_report_takes_the_plates_latitudes(capsys, latitude, ok):
    makes = (lambda: astrolabe.PlateConfig(latitude, 100.0),
             lambda: astrolabe.BackConfig(latitude, 100.0))
    for make in makes:
        if ok:
            assert make().latitude == latitude
        else:
            with pytest.raises(ValueError, match=re.escape(
                    f"latitude must lie in [{MIN_LATITUDE}, 90), got {latitude!r}")):
                make()
    reports = (("analyze", "band", "--altitude", "10", "--radius-error-fraction", "0.02"),
               ("analyze", "montecarlo", "--scenario", "altitude", *MC_AT, "--trials", "5"))
    for argv in reports:
        code, out, err = run_cli(capsys, *argv, f"--lat={latitude!r}")
        if ok:
            assert (code, err) == (0, "") and out
        else:
            assert (code, out, err) == (
                1, "", f"error: --lat must lie in [{MIN_LATITUDE}, 90), got {latitude!r}\n")


FLOOR = "must be at least 1/60 degree (one arcminute)"


@pytest.mark.parametrize("argv, message", [
    (("plate", "--lat", "40", "--almucantar-step", "5e-324"),
     f"--almucantar-step {FLOOR}, got 5e-324"),
    (("full", "--lat", "40", "--azimuth-step", "5e-324"), f"--azimuth-step {FLOOR}, got 5e-324"),
    (("plate", "--lat", "40", "--azimuth-step", repr(math.nextafter(MIN_STEP, 0.0))),
     f"--azimuth-step {FLOOR}, got {math.nextafter(MIN_STEP, 0.0)!r}"),
    (("analyze", "montecarlo", "--lat", "40", *MC_AT, "--trials", str(ea.MAX_TRIALS + 1)),
     f"--trials must lie in [1, {ea.MAX_TRIALS}], got {ea.MAX_TRIALS + 1}"),
    (("analyze", "montecarlo", "--lat", "40", *MC_AT, "--trials", "0"),
     f"--trials must lie in [1, {ea.MAX_TRIALS}], got 0"),
], ids=["almucantar-step", "azimuth-step", "azimuth-step-below-floor", "trials-over", "trials-0"])
def test_the_grid_floor_and_the_trial_ceiling_name_their_flags(capsys, monkeypatch, argv,
                                                               message):
    # each limit is read before any work: no trial is drawn
    monkeypatch.setattr(ea, "trial_draws", lambda *a: pytest.fail("a trial was drawn"))
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, azimuths",
    [
        (("plate", "--lat", "89.9995"), 18),
        (("plate", "--lat", "89.99999999999999", "--azimuth-step", "1"), 180),
    ],
)
def test_plates_near_the_pole_draw_every_vertical(capsys, argv, azimuths):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    groups = {g.get("id"): list(g) for g in ET.fromstring(out) if g.get("id")}
    assert len(groups["azimuths"]) == azimuths


@pytest.mark.parametrize(
    "argv, almucantars, azimuths",
    [
        # the prime vertical touches the boundary at the nadir
        (("plate", "--lat", "23.44"), 19, 18),
        # the 25 and 30 degree almucantars touch it at the south point
        (("plate", "--lat", "40", "--obliquity", "25"), 19, 18),
        (("plate", "--lat", "50", "--obliquity", "10"), 19, 18),
        # typed as decimals these miss the touch of the 40 and 45 degree
        # almucantars by the rounding of 26.56, 21.56 and 23.44
        (("plate", "--lat", "26.56"), 19, 18),
        (("plate", "--lat", "21.56", "--precision", "2"), 19, 18),
        # 1e-10 degree short of the touch the 40-degree almucantar crosses
        # the boundary, at two points that print as one at precision 2
        (("plate", "--lat", "26.5599999999", "--precision", "2"), 19, 18),
    ],
)
def test_curves_touching_the_boundary_are_drawn(capsys, argv, almucantars, azimuths):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    groups = {g.get("id"): list(g) for g in ET.fromstring(out) if g.get("id")}
    assert len(groups["almucantars"]) == almucantars
    assert len(groups["azimuths"]) == azimuths
    for path in re.findall(r'<path d="M (\S+ \S+) A .* (\S+ \S+)"/>', out):
        assert path[0] != path[1]


@pytest.mark.parametrize(
    "argv",
    [
        ("plate", "--lat", "40", "--obliquity", "1e-6"),
        ("full", "--lat", "40", "--obliquity", "1e-6"),
        ("plate", "--lat", "0.001", "--obliquity", "0.05"),
        ("plate", "--lat", "40", "--obliquity", "1e-300"),
    ],
)
def test_nearly_coincident_tropics_draw(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    groups = {g.get("id"): list(g) for g in ET.fromstring(out).iter() if g.get("id")}
    assert len(groups["hours" if argv[0] == "plate" else "plate-hours"]) == 11


@pytest.mark.parametrize(
    "argv",
    [
        ("qibla", "--lat", "10", "--lon", "10", "--obliquity", "99", "--scale-mm", "-5"),
        ("project", "--dec", "10", "--lat", "95"),
        ("rete", "--lat", "95"),
    ],
)
def test_flags_a_subcommand_never_reads_are_rejected(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("error:")


def test_unwritable_output_exits_three(capsys, tmp_path):
    target = tmp_path / "missing" / "plate.svg"
    code, _, err = run_cli(capsys, "plate", "--lat", "40", "--out", str(target))
    assert code == 3
    assert err.startswith("error:")


class _Unwritable:
    """A stream whose every write fails, as a full disk's does."""

    def write(self, text):
        raise OSError(28, "No space left on device")

    def flush(self):
        pass


@pytest.mark.parametrize("argv", [["--help"], ["analyze", "-h"]])
def test_a_help_text_that_cannot_be_written_exits_three(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "stdout", _Unwritable())
    assert main(argv) == 3
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"


def test_missing_config_file_exits_three(capsys):
    code, _, _ = run_cli(capsys, "plate", "--lat", "40", "--config", "/no/such.cfg")
    assert code == 3


# -------------------------------------------------------------- config file


def test_config_parses_types_and_comments(tmp_path):
    cfg = tmp_path / "astro.cfg"
    cfg.write_text(
        "# build settings\n"
        "lat = 52.5   # Berlin\n"
        "scale_mm = 80\n"
        "mirror_ew = yes\n"
        "seed = 7\n"
        "catalog = stars.csv\n"
        "\n",
        encoding="utf-8",
    )
    values = load_config(cfg)
    assert values == {
        "lat": 52.5,
        "scale_mm": 80.0,
        "mirror_ew": True,
        "seed": 7,
        "catalog": "stars.csv",
    }
    assert isinstance(values["seed"], int)
    assert isinstance(values["scale_mm"], float)
    # a `#` inside a value is part of it; after whitespace it opens a comment
    cfg.write_text("catalog = data/stars#2.csv   # second catalog\n", encoding="utf-8")
    assert load_config(cfg) == {"catalog": "data/stars#2.csv"}
    cfg.write_text("mirror_ew = off\n", encoding="utf-8")
    assert load_config(cfg) == {"mirror_ew": False}


# every code point that the old comment regex's `\s` or `str.isspace` takes as whitespace
WHITESPACE = [c for c in map(chr, range(sys.maxunicode + 1))
              if c.isspace() or re.fullmatch(r"\s", c)]


@pytest.mark.parametrize("space", WHITESPACE, ids=lambda c: f"U+{ord(c):04X}")
def test_config_comments_are_cut_as_the_old_regex_cut_them(space, tmp_path):
    # reference: each line as the file yields it, cut by the regex that load_config used
    def parsed(path):
        try:
            return load_config(path)
        except (ValueError, astrolabe.AstrolabeError) as exc:
            return type(exc), str(exc)

    raw, cut = tmp_path / "raw.cfg", tmp_path / "cut.cfg"
    for text in (f"{space}# note\nlat = 40\n", f"#{space}note\nlat = 40\n",
                 f"lat = 40{space}# note\n", f"lat = 40{space}#\n", f"lat = 4{space}#0\n",
                 f"catalog = a#{space}b.csv\n", f"catalog = a{space}#b.csv # note\n",
                 f"catalog = a#b{space}{space}#{space}note\nlat = 40 #{space}\n"):
        raw.write_text(text, encoding="utf-8", newline="")
        with open(raw, encoding="utf-8") as fh:
            lines = [re.sub(r"(^|\s)#.*", "", line.rstrip("\n"), count=1) for line in fh]
        cut.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        assert parsed(raw) == parsed(cut), repr(text)


def test_config_comment_only_file_is_empty(tmp_path):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("# nothing\n   \n# more nothing\n", encoding="utf-8")
    assert load_config(cfg) == {}


def test_config_fills_values_and_flags_override(capsys, tmp_path):
    cfg = tmp_path / "q.cfg"
    cfg.write_text("lat = 52.5\nlon = 13.4\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "qibla", "--config", str(cfg))
    assert code == 0
    assert report_rows(out)["observer_lat_deg"] == "52.500000"
    code, out, _ = run_cli(capsys, "qibla", "--config", str(cfg), "--lat", "40")
    assert report_rows(out)["observer_lat_deg"] == "40.000000"
    assert report_rows(out)["observer_lon_deg"] == "13.400000"


def test_config_can_supply_the_output_path(capsys, tmp_path):
    out_path = tmp_path / "from_config.svg"
    cfg = tmp_path / "p.cfg"
    cfg.write_text(f"lat = 40\nout = {out_path}\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "plate", "--config", str(cfg))
    assert code == 0
    assert out == ""
    assert out_path.read_text(encoding="utf-8").lstrip().startswith("<")


def test_config_missing_equals(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("lat = 40\njust words\n", encoding="utf-8")
    from astrolabe.exceptions import ParseError

    with pytest.raises(ParseError) as info:
        load_config(cfg)
    assert info.value.line == 2
    assert info.value.column == len("just words") + 1
    assert "line 2" in str(info.value)


def test_config_bad_key_and_duplicate(tmp_path):
    from astrolabe.exceptions import ParseError

    cfg = tmp_path / "bad.cfg"
    cfg.write_text("9lives = 3\n", encoding="utf-8")
    with pytest.raises(ParseError, match="bad key"):
        load_config(cfg)
    cfg.write_text("lat = 1\nlat = 2\n", encoding="utf-8")
    with pytest.raises(ParseError, match="duplicate") as info:
        load_config(cfg)
    assert info.value.line == 2


def test_config_unknown_key(capsys, tmp_path):
    from astrolabe.exceptions import UnknownKey

    cfg = tmp_path / "bad.cfg"
    cfg.write_text("latt = 40\n", encoding="utf-8")
    with pytest.raises(UnknownKey, match=r"unknown config key 'latt' \(line 1\)"):
        load_config(cfg)
    code, _, err = run_cli(capsys, "plate", "--config", str(cfg))
    assert code == 1
    assert "latt" in err
    # the plate always draws its hour lines; the old switch is not a key
    cfg.write_text("lat = 40\nhour_lines = off\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "plate", "--config", str(cfg))
    assert code == 1
    assert "unknown config key 'hour_lines'" in err


def test_config_bad_values_carry_position(tmp_path):
    from astrolabe.exceptions import ParseError

    cfg = tmp_path / "bad.cfg"
    cfg.write_text("lat = fast\n", encoding="utf-8")
    with pytest.raises(ParseError) as info:
        load_config(cfg)
    assert info.value.line == 1
    assert info.value.column == len("lat ") + 2
    cfg.write_text("mirror_ew = maybe\n", encoding="utf-8")
    with pytest.raises(ParseError, match="bad boolean"):
        load_config(cfg)


# ------------------------------------------------------------------- qibla


def test_qibla_reports_both_routes_and_warns_on_divergence(capsys):
    code, out, err = run_cli(
        capsys, "qibla", "--lat", "33.5130", "--lon", "36.2920", "--name", "Damascus"
    )
    rows = report_rows(out)
    assert code == 0
    assert rows["bearing_oracle_deg"] == "164.610015"
    assert rows["qibla_eq13_deg"].startswith("15.2812")
    assert rows["abs_difference_deg"].startswith("149.3287")
    assert "trust the bearing_oracle_deg" in err


def test_qibla_routes_agree_at_equal_latitude(capsys):
    code, out, err = run_cli(capsys, "qibla", "--lat", "21.4225", "--lon", "10")
    rows = report_rows(out)
    assert code == 0
    assert rows["bearing_oracle_deg"] == rows["qibla_eq13_deg"]
    assert err == ""


def test_qibla_requires_longitude(capsys):
    code, _, err = run_cli(capsys, "qibla", "--lat", "30")
    assert code == 1
    assert "--lon" in err


# ----------------------------------------------------------------- reports


def test_out_report_is_csv(capsys, tmp_path):
    target = tmp_path / "point.csv"
    code, out, _ = run_cli(capsys, "project", "--dec", "20", "--out", str(target))
    assert code == 0
    assert "radius_mm" in out  # text table still goes to stdout
    with open(target, newline="", encoding="utf-8") as fh:
        records = list(csv.reader(fh))
    assert records[0] == ["stat", "value"]
    table = dict(records[1:])
    assert table["kind"] == "stereographic"
    expected = 100.0 * math.tan(math.radians(35.0))
    assert float(table["radius_mm"]) == pytest.approx(expected, abs=1e-6)


# ----------------------------------------------------------------- analyze


def test_analyze_arc_displacement_both_forms(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "arc-displacement", "--ds", "0.03", "--dp", "0.04"
    )
    assert code == 0
    assert report_rows(out)["displacement_mm"] == "0.050000"
    code, out, _ = run_cli(
        capsys,
        "analyze", "arc-displacement",
        "--radius", "10", "--dalpha", "0.003", "--dp", "0.04",
    )
    rows = report_rows(out)
    assert code == 0
    assert rows["ds_mm"] == "0.030000"
    assert rows["displacement_mm"] == "0.050000"


def test_analyze_arc_displacement_form_validation(capsys):
    base = ("analyze", "arc-displacement")
    assert run_cli(capsys, *base, "--dp", "0.1")[0] == 1  # no offset form chosen
    assert (
        run_cli(capsys, *base, "--ds", "1", "--radius", "2", "--dalpha", "3",
                "--dp", "0.1")[0]
        == 1
    )
    code, _, err = run_cli(capsys, *base, "--ds", "0.5")
    assert code == 1
    assert "--dp" in err


def test_analyze_quadrant_chords(capsys):
    code, out, _ = run_cli(
        capsys,
        "analyze", "quadrant-chords",
        "--radius", "100", "--marks", "0,90,180,270", "--tol", "1e-6",
    )
    assert code == 0
    assert report_rows(out)["classification"] == "ok"
    code, out, _ = run_cli(
        capsys,
        "analyze", "quadrant-chords",
        "--radius", "100", "--marks", "0,88,180,268", "--tol", "1e-6",
    )
    assert report_rows(out)["classification"] == "non_horizontal_axis"
    assert (
        run_cli(capsys, "analyze", "quadrant-chords", "--radius", "100",
                "--marks", "0,90", "--tol", "1e-6")[0]
        == 1
    )


def test_analyze_quadrant_chords_checks_the_radius_range(capsys):
    # at 1e308 every chord overflows to inf and the verdict came from NaN comparisons
    argv = ("analyze", "quadrant-chords", "--marks", "0,90,180,270", "--tol", "1")
    assert run_cli(capsys, *argv, "--radius", "1e308") == (
        1, "", "error: --radius must lie in [1e-06, 1e+09] mm, got 1e+308\n")
    code, out, err = run_cli(capsys, *argv, "--radius", "1e9")
    assert (code, err) == (0, "")
    assert report_rows(out)["classification"] == "ok"


def test_analyze_band_matches_library(capsys):
    code, out, _ = run_cli(
        capsys,
        "analyze", "band",
        "--lat", "40", "--altitude", "30", "--radius-error-fraction", "0.02",
    )
    rows = report_rows(out)
    assert code == 0
    displacement, band = ea.band_misassignment(40.0, 100.0, 30.0, 0.02, 3.0)
    assert float(rows["displacement_mm"]) == pytest.approx(displacement, abs=1e-6)
    assert float(rows["lands_on_band_deg"]) == pytest.approx(band, abs=1e-9)
    assert float(rows["band_spacing_mm"]) == pytest.approx(
        ea.band_spacing(40.0, 100.0, 30.0, 3.0), abs=1e-6
    )


def test_analyze_band_reports_the_top_band(capsys):
    argv = ("analyze", "band", "--lat", "40", "--radius-error-fraction", "0.01")
    code, out, err = run_cli(capsys, *argv, "--altitude", "87")
    assert (code, err) == (0, "")
    rows = report_rows(out)
    assert float(rows["band_spacing_mm"]) == pytest.approx(
        ea.band_spacing(40.0, 100.0, 87.0, 3.0), abs=1e-6)
    assert rows["lands_on_band_deg"] == "87.000000"
    code, out, err = run_cli(capsys, *argv, "--altitude", "90")
    assert (code, out) == (2, "")
    assert "zenith" in err


def test_analyze_alidade_terms_and_units(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "alidade", "--length-mm", "150", "--offset", "0.02"
    )
    assert code == 0
    assert report_rows(out)["offset_error_mm"] == "0.750000"
    code, out, _ = run_cli(
        capsys,
        "analyze", "alidade",
        "--length-mm", "150", "--offset", "1", "--offset-unit", "deg",
    )
    rows = report_rows(out)
    assert float(rows["offset_rad"]) == pytest.approx(math.radians(1.0), abs=1e-8)
    code, out, _ = run_cli(
        capsys, "analyze", "alidade", "--rotation", "0.4", "--rotation-unit", "deg"
    )
    rows = report_rows(out)
    assert rows["rotation_deg"] == "0.400000"
    assert rows["rotation_error_deg"] == "0.100000"


def test_analyze_alidade_validation(capsys):
    code, _, err = run_cli(capsys, "analyze", "alidade", "--rotation", "0.4")
    assert code == 1
    assert "--rotation-unit" in err
    code, _, err = run_cli(capsys, "analyze", "alidade")
    assert code == 1
    assert "--offset" in err
    assert run_cli(capsys, "analyze", "alidade", "--offset", "0.01") == (
        1, "", "error: --offset needs --length-mm\n")


def test_analyze_montecarlo_matches_library_and_workers(capsys):
    argv = (
        "analyze", "montecarlo",
        "--lat", "40", "--sun-dec", "-10", "--hour-angle", "45",
        "--trials", "40", "--center-sigma", "0.05", "--radius-sigma", "0.05",
        "--graduation-sigma", "0.1", "--seed", "11",
    )
    code, out1, _ = run_cli(capsys, *argv)
    assert code == 0
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2
    report = ea.monte_carlo_readout(
        __import__("astrolabe").PlateConfig(latitude=40.0, scale=100.0),
        ea.PerturbationSpec(
            center_sigma=0.05, radius_sigma=0.05, graduation_sigma=0.1, seed=11
        ),
        "time_to_sunset", -10.0, 45.0, 40,
    )
    rows = report_rows(out1)
    assert rows["n_trials"] == "40"
    assert float(rows["mean_hours"]) == pytest.approx(report.mean, abs=1e-6)
    assert float(rows["std_hours"]) == pytest.approx(report.std, abs=1e-6)
    assert rows["classification"] == report.classification


def test_analyze_band_and_montecarlo_read_config(capsys, tmp_path):
    cfg = tmp_path / "scene.cfg"
    cfg.write_text("lat = 40\nscale_mm = 80\nseed = 11\n", encoding="utf-8")
    band = ("analyze", "band", "--altitude", "30", "--radius-error-fraction", "0.02")
    mc = (
        "analyze", "montecarlo", "--scenario", "altitude",
        "--sun-dec", "10", "--hour-angle", "40", "--trials", "20",
        "--center-sigma", "0.05", "--radius-sigma", "0.05",
    )
    for argv, flags in (
        (band, ("--lat", "40", "--scale-mm", "80")),
        (mc, ("--lat", "40", "--scale-mm", "80", "--seed", "11")),
    ):
        code, from_flags, _ = run_cli(capsys, *argv, *flags)
        assert code == 0
        code, from_config, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == 0, err
        assert from_config == from_flags
    # the seed is read: without it the same scene draws other trials
    assert run_cli(capsys, *mc, "--lat", "40", "--scale-mm", "80")[1] != from_config


def test_config_keys_a_command_has_no_flag_for_are_ignored(capsys, tmp_path):
    # the Monte Carlo draws no verticals, so a step that plate refuses
    # does not reach it; plate still names the step
    cfg = tmp_path / "site.cfg"
    cfg.write_text("lat = 40\nazimuth_step = 7\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", "montecarlo", "--config", str(cfg),
                             "--sun-dec", "10", "--hour-angle", "40", "--scenario", "altitude",
                             "--trials", "5")
    assert code == 0, err
    assert report_rows(out)["n_trials"] == "5"
    code, _, err = run_cli(capsys, "plate", "--config", str(cfg))
    assert code == 1
    assert "azimuth step must divide 360, got 7.0" in err


def test_analyze_montecarlo_infeasible_scene_exits_two(capsys):
    # hour angle past sunset for a winter sun: nothing to read off the plate
    code, _, err = run_cli(
        capsys,
        "analyze", "montecarlo",
        "--lat", "40", "--sun-dec", "-20", "--hour-angle", "100",
    )
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("command", ["back", "full"])
@pytest.mark.parametrize("obliquity", ["5e-324", "1e-300"])
def test_an_obliquity_too_small_to_bend_the_midday_curve_draws_it_straight(
        capsys, command, obliquity):
    # the midday curve's three control points coincide (5e-324) or lie on
    # a line (1e-300): the curve is the one <line> of its group
    code, out, err = run_cli(capsys, command, "--lat", "40", "--obliquity", obliquity)
    assert (code, err) == (0, "")
    groups = {g.get("id"): list(g) for g in ET.fromstring(out).iter() if g.get("id")}
    midday = groups["midday" if command == "back" else "back-midday"]
    assert [el.tag.split("}")[1] for el in midday] == ["line", "text"]


@pytest.mark.parametrize("argv", [
    ("--scenario", "time_to_sunset", "--lat", "29.14", "--scale-mm", "100",
     "--almucantar-step", "3", "--center-sigma", "47.14", "--radius-sigma", "54.61",
     "--graduation-sigma", "38.26", "--seed", "280760823", "--sun-dec", "9.9",
     "--hour-angle", "5.8", "--trials", "25"),
    ("--scenario", "altitude", "--lat", "40", "--sun-dec", "10", "--hour-angle", "30",
     "--radius-sigma", "30"),
], ids=["time_to_sunset", "altitude"])
def test_analyze_montecarlo_nonpositive_radius_exits_two(capsys, argv):
    # the perturbation drives a circle the reading crosses to a radius <= 0
    code, out, err = run_cli(capsys, "analyze", "montecarlo", *argv)
    assert code == 2
    assert err.startswith("error: circle radius must be positive")
    assert out == ""


def test_render_style_validation_flows_to_exit_one(capsys, tmp_path):
    code, _, err = run_cli(capsys, "plate", "--lat", "40", "--precision", "12")
    assert code == 1
    assert "precision" in err
    # 0 is refused, not taken for the default of 4, from a flag or a file
    code, out, err = run_cli(capsys, "plate", "--lat", "40", "--precision", "0")
    assert (code, out) == (1, "")
    assert "precision" in err
    cfg = tmp_path / "p.cfg"
    cfg.write_text("lat = 40\nprecision = 0\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "plate", "--config", str(cfg))
    assert (code, out) == (1, "")
    assert "precision" in err


MC_SCENE = ("analyze", "montecarlo", "--lat", "40", "--sun-dec", "-10", "--hour-angle", "45")


@pytest.mark.parametrize("argv, flag", [
    (("analyze", "band", "--lat", "40", "--altitude", "30",
      "--radius-error-fraction", "nan"), "--radius-error-fraction"),
    (("analyze", "arc-displacement", "--ds", "nan", "--dp", "0.4"), "--ds"),
    (("analyze", "alidade", "--length-mm", "nan", "--offset", "0.02"), "--length-mm"),
    (("analyze", "quadrant-chords", "--radius", "100", "--marks", "0,88,180,268",
      "--tol", "nan"), "--tol"),
    (MC_SCENE + ("--center-sigma", "nan"), "--center-sigma"),
    (MC_SCENE + ("--radius-sigma", "inf"), "--radius-sigma"),
    (("project", "--dec", "10", "--hour-angle", "inf"), "--hour-angle"),
    (("plate", "--lat=-inf"), "--lat"),
])
def test_non_finite_numbers_are_usage_errors(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {flag} must be a finite number, got ")


def test_non_finite_config_value_names_its_flag(capsys, tmp_path):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("lat = 40\nscale_mm = nan\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "plate", "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err == "error: --scale-mm must be a finite number, got nan\n"


def test_band_steps_that_never_advance_exit_one_promptly():
    """Run in a child interpreter, so that a search that makes no progress
    fails this test on its timeout instead of hanging the suite."""
    argvs = [["analyze", "band", "--lat", "40", "--altitude", "30",
              "--radius-error-fraction", "0.02", "--band-step", step]
             for step in ("0", "1e-300", "-3")]
    code = (
        "import contextlib, io\n"
        "from astrolabe.cli import main\n"
        "with contextlib.redirect_stderr(io.StringIO()) as err:\n"
        f"    codes = [main(argv) for argv in {argvs!r}]\n"
        "print(codes, err.getvalue().count('--band-step must be'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=30, env=source_env(),
    )
    assert proc.stdout.strip() == "[1, 1, 1] 3", proc.stderr


def console_script_entry(name: str) -> tuple:
    """``(module, attr)`` of ``name`` in pyproject.toml's ``[project.scripts]``.

    A regex over that one table rather than ``tomllib``, which Python 3.10
    (the ``requires-python`` floor) lacks.
    """
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    table = re.search(r"^\[project\.scripts\]\s*$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert table, "pyproject.toml has no [project.scripts] table"
    entry = re.search(
        rf"^{re.escape(name)}\s*=\s*[\"']([\w.]+):([\w.]+)[\"']\s*$", table.group(1), re.M
    )
    assert entry, f"[project.scripts] declares no {name!r} entry"
    return entry.group(1), entry.group(2)


def source_env() -> dict:
    """Environment for a child interpreter that imports this package from
    the directory it was imported from here, with no install needed."""
    src = str(Path(astrolabe.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_child(code: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60, env=source_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_calls_load_no_numpy_xml_sax_or_scipy():
    """No call needs numpy, xml.sax, scipy, dataclasses, inspect, argparse,
    gettext or locale: a fresh interpreter that runs each face, the reports
    (the Monte Carlo readout among them), a circle fit, two help texts and a
    usage error has loaded none of them."""
    calls = [["plate", "--lat", "40"], ["rete"], ["back", "--lat", "33.5"],
             ["full", "--lat", "40"], ["project", "--dec", "10"],
             ["qibla", "--lat", "33.5", "--lon", "36.3"],
             ["analyze", "band", "--lat", "40", "--altitude", "10",
              "--radius-error-fraction", "0.02"],
             ["analyze", "montecarlo", "--lat", "40", "--sun-dec", "10", "--hour-angle", "40",
              "--graduation-sigma", "0.05", "--trials", "5"],
             ["--help"], ["plate", "--help"], ["plate", "--lat", "forty"]]
    code = (
        "import contextlib, io, sys\n"
        "from astrolabe import ProjectionKind, SphereCircleSpec, circle_image_residual\n"
        "from astrolabe.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), \\\n"
        "        contextlib.redirect_stderr(io.StringIO()):\n"
        f"    codes = [main(argv) for argv in {calls!r}]\n"
        "fit = circle_image_residual(SphereCircleSpec(20.0, 30.0, 40.0),\n"
        "                            ProjectionKind.stereographic(), 36, 100.0)\n"
        "print(codes, fit.rms_residual < 1e-9, sorted(m for m in sys.modules\n"
        "                    if m.startswith(('numpy', 'scipy', 'xml.sax'))\n"
        "                    or m in ('dataclasses', 'inspect', 'argparse', 'gettext', 'locale')))"
    )
    assert run_child(code) == f"{[0] * (len(calls) - 1) + [1]} True []"


def test_console_script_is_installed():
    """The declared ``astrolabe`` script runs the CLI in a separate process.

    The entry point is run as pip's generated wrapper runs it, with the
    directory of the imported package first on the child's path, so no
    install is needed; an installed script on PATH is run as well.
    """
    module, attr = console_script_entry("astrolabe")
    env = source_env()
    wrapper = f"import sys, {module}; sys.argv[0] = 'astrolabe'; sys.exit({module}.{attr}())"

    def project(prefix, dec):
        return subprocess.run(
            [*prefix, "project", "--dec", dec],
            capture_output=True, text=True, timeout=60, env=env,
        )

    entry = [sys.executable, "-c", wrapper]
    ok = project(entry, "45")
    assert ok.returncode == 0, ok.stderr
    assert "radius_mm" in ok.stdout
    # run() must carry main()'s exit code across the process boundary
    undefined = project(entry, "-90")
    assert undefined.returncode == 2, undefined.stderr
    assert undefined.stderr.startswith("error:")
    # with argparse gone nothing raises SystemExit inside main: help and
    # usage errors reach the process exit status through run() alone
    for argv, code, out, err in (
        (["--help"], 0, "usage: astrolabe ", ""),
        (["plate", "--lat", "forty"], 1, "", "error: astrolabe plate: argument --lat: invalid"),
    ):
        proc = subprocess.run([*entry, *argv], capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == code, proc.stderr
        assert proc.stdout.startswith(out) and proc.stderr.startswith(err)
        assert bool(proc.stdout) == bool(out) and bool(proc.stderr) == bool(err)

    for target in ("astrolabe", "astrolabe.cli"):
        proc = project([sys.executable, "-m", target], "45")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ok.stdout

    exe = shutil.which("astrolabe")
    if exe:
        proc = project([exe], "45")
        assert proc.returncode == 0
        assert "radius_mm" in proc.stdout


# ------------------------------------------------------------ the contract

DEMO_DATA = tuple(str(p) for p in
                  sorted((Path(__file__).resolve().parents[1] / "demos" / "data").glob("*.csv")))
# the range table's entries
_TABLE = [v for v in vars(projection).values() if isinstance(v, projection.Range)]
# each finite end of a range the CLI checks, and the floats one ulp to either side of it
_ENDS = tuple(sorted({float(end) for d in _TABLE for end in (d.lo, d.hi) if math.isfinite(end)}))
_RANGE_ERROR = re.compile(r"error: (\S+) (.*), got \S+$")
# plain values first: hypothesis draws the first ones most
FLOATS = (40.0, -10.0, 0.5, 1.0, 5.0, 10.0, 45.0, 100.0,
          0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e308, -1e308, 66.56, 26.56, *_ENDS, *(math.nextafter(end, to) for end in _ENDS for to in (-math.inf, math.inf)))
# steps that the plate accepts are drawn no finer than 0.5, so that each call stays quick
STEPS = tuple(v for v in FLOATS if not MIN_STEP <= v < 0.5)
INTS = (4, 1, 9, 50, 0, -1, 10)  # at most 50 trials


def _flag_values(key: str, flag):
    """One flag of a command, as [] (left out) or [token] with a value
    that fits its kind; a required flag is left out one time in four, any
    other three times in four."""
    if flag.kind is bool:
        return st.sampled_from(([], [flag.option]))
    if isinstance(flag.kind, tuple):
        values = st.sampled_from(flag.kind)
    elif flag.kind is int:
        values = st.sampled_from(INTS).map(str)
    elif flag.kind is float:
        values = st.sampled_from(STEPS if key.endswith("_step") else FLOATS).map(repr)
    else:
        values = st.sampled_from((CFG, *DEMO_DATA) if key == "config"
                                 else (*DEMO_DATA, "0,90,180,270"))
    given = values.map(lambda v: [f"{flag.option}={v}"])
    return st.integers(0, 3).flatmap(lambda k: given if (k == 3) != flag.required else st.just([]))


def _command_line(path: tuple):
    keys = ("config", *cli._COMMANDS[path][2])
    return st.tuples(*(_flag_values(k, cli._FLAGS[k]) for k in keys)).map(
        lambda tokens: [*path, *itertools.chain(*tokens)])


COMMAND_LINES = st.sampled_from([p for p, (func, _, _) in cli._COMMANDS.items() if func]).flatmap(
    _command_line)


@settings(REPRODUCIBLE, max_examples=200)
@given(argv=COMMAND_LINES)
@example(argv=["plate", "--lat=40", "--almucantar-step=5e-324"])
def test_every_command_line_ends_in_a_document_a_report_or_a_named_error(argv):
    """A command drawn from the CLI's own tables, each flag left out or
    given a value of its kind, ends in a drawing or a report (exit 0) or in
    an exit code of 1-3 whose last stderr line names the error; no
    exception escapes main.  Every number in a report is finite and below
    1e22 (the largest, a gnomonic radius at DENOM_MIN with scale 1e9, is
    1e21 mm), and a value outside a range of the table is named by an
    option on the command line."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp, "site.cfg"), Path(tmp, "out")
        cfg.write_text("lat = 40\nprecision = 2\n", encoding="utf-8")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([a.replace(CFG, str(cfg)) for a in argv] + ["--out", str(out)])
        if code == 0:
            text = out.read_text(encoding="utf-8")
            if text.startswith("<?xml"):
                ET.fromstring(text)
            else:
                head, *rows = csv.reader(io.StringIO(text))
                assert head == ["stat", "value"] and rows and all(len(r) == 2 for r in rows)
                for _, value in rows:
                    try:
                        number = float(value)
                    except ValueError:  # a name, a classification or a list of marks
                        continue
                    assert math.isfinite(number) and abs(number) < 1e22, (argv, rows)
        else:
            assert code in (1, 2, 3)
            last = stderr.getvalue().splitlines()[-1]
            assert last.startswith("error: "), stderr.getvalue()
            refused = _RANGE_ERROR.match(last)
            if code == 1 and refused and refused[2] in {d.text for d in _TABLE}:
                assert refused[1] in {a.partition("=")[0] for a in argv}, (argv, last)


def test_the_package_loads_neither_typing_nor_pathlib():
    """Annotations use builtins and files are opened with open(): under
    `python -S`, where no site hook has imported them first, importing the
    package and the CLI and writing a plate and a report to files loads
    neither `typing` nor `pathlib`.  A drawing loads only what it calls:
    after a plate and a full instrument with no catalog and no localities,
    neither `re` (nor its `enum`), `csv`, `random` nor `warnings` is loaded;
    the report's CSV then loads `csv`."""
    with tempfile.TemporaryDirectory() as tmp:
        plate, full = os.path.join(tmp, "plate.svg"), os.path.join(tmp, "full.svg")
        report = os.path.join(tmp, "report.csv")
        code = (
            "import sys, astrolabe, astrolabe.cli\n"
            f"codes = [astrolabe.cli.main(['plate', '--lat', '40', '--out', {plate!r}]),\n"
            f"         astrolabe.cli.main(['full', '--lat', '40', '--out', {full!r}])]\n"
            "unused = {'typing', 'pathlib', 're', 'enum', 'csv', 'random', 'warnings'}\n"
            "drawn = sorted(unused & set(sys.modules))\n"
            f"codes.append(astrolabe.cli.main(['project', '--dec', '10', '--out', {report!r}]))\n"
            "print(codes, drawn, sorted({'typing', 'pathlib'} & set(sys.modules)))"
        )
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                              text=True, timeout=60, env=source_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[0, 0, 0] [] []"
        with open(plate, encoding="utf-8") as fh:
            assert fh.read().endswith("</svg>\n")
        with open(report, newline="", encoding="utf-8") as fh:
            assert fh.readline() == "stat,value\r\n"


# ------------------------------------------------ every range end, one flag at a time

# a command line per command that exits 0; each case below adds one flag to it
SWEEP_BASES = {
    ("plate",): ["--lat", "40"],
    ("rete",): [],
    ("back",): ["--lat", "40"],
    ("full",): ["--lat", "40"],
    ("project",): ["--dec", "10"],
    ("qibla",): ["--lat", "33.5", "--lon", "36.3"],
    ("analyze", "arc-displacement"): ["--ds", "1", "--dp", "1"],
    ("analyze", "quadrant-chords"): ["--radius", "100", "--marks", "0,90,180,270",
                                     "--tol", "0.1"],
    ("analyze", "band"): ["--lat", "40", "--altitude", "10", "--radius-error-fraction", "0.02"],
    ("analyze", "alidade"): ["--length-mm", "150", "--offset", "0.01"],
    ("analyze", "montecarlo"): ["--lat", "40", "--sun-dec", "10", "--hour-angle", "40",
                                "--trials", "5"],
}
# _geometry checks the scale that these two set, and the back's limb radius (half the
# diameter), against SCALE
SIZE_DOMAINS = {"scale_mm": projection.SCALE,
                "diameter_mm": projection.Range(projection.SCALE.lo, 2 * projection.SCALE.hi)}
# the numeric flags whose range has an infinite end: a longitude and a true hour angle
# are read modulo a turn, a step must divide 90 or 360, and a band step, the noise
# magnitudes and the seed need no ceiling
OPEN_ENDED = {"lon", "hour_angle:mc", "almucantar_step", "azimuth_step", "band_step",
              "center_sigma", "radius_sigma", "graduation_sigma", "seed"}


def _numeric_flags():
    """(key, flag, {unit: domain}) for each number a command reads; a domain
    not keyed by a unit is keyed by None."""
    for key, flag in cli._FLAGS.items():
        if flag.kind in (int, float):
            domain = SIZE_DOMAINS.get(key, flag.domain)
            yield key, flag, domain if isinstance(domain, dict) else {None: domain}


def _just_outside(domain, kind) -> list:
    """The value of the kind nearest outside each finite end of the
    domain: the end itself where the end is open."""
    values = []
    for end, is_open, away in ((domain.lo, domain.lo_open, -1), (domain.hi, domain.hi_open, 1)):
        if not math.isfinite(end):
            continue
        if kind is int:
            values.append(int(end) if is_open else int(end) + away)
        else:
            values.append(float(end) if is_open else math.nextafter(float(end), away * math.inf))
    return values


def _sweep_cases() -> list:
    flags = {key: (flag, domains) for key, flag, domains in _numeric_flags()}
    cases = []
    for path, base in SWEEP_BASES.items():
        for key in cli._COMMANDS[path][2]:
            if key not in flags:
                continue
            flag, domains = flags[key]
            for unit, domain in domains.items():
                given = [] if unit is None else [cli._FLAGS[key + "_unit"].option, unit]
                for value in _just_outside(domain, flag.kind):
                    argv = [*path, *base, *given, f"{flag.option}={value!r}"]
                    cases.append(pytest.param(argv, flag.option, id=" ".join(argv)))
    return cases


def test_the_sweep_covers_every_command_and_every_open_ended_flag_is_listed():
    assert set(SWEEP_BASES) == {p for p, (func, _, _) in cli._COMMANDS.items() if func}
    open_ended = {key for key, _, domains in _numeric_flags()
                  if not all(math.isfinite(end) for d in domains.values() for end in (d.lo, d.hi))}
    assert open_ended == OPEN_ENDED


@pytest.mark.parametrize("path", list(SWEEP_BASES), ids=" ".join)
def test_each_sweep_base_exits_zero(capsys, tmp_path, path):
    code, out, err = run_cli(capsys, *path, *SWEEP_BASES[path], "--out", str(tmp_path / "out"))
    assert code == 0 and "error" not in err, err
    # with --out a document goes to the file alone, and rows go to stdout as the table and
    # to the file as CSV; either way the result is the one the same command prints
    code, printed, _ = run_cli(capsys, *path, *SWEEP_BASES[path])
    assert code == 0
    with open(tmp_path / "out", newline="", encoding="utf-8") as fh:
        written = fh.read()
    if written.startswith("<?xml"):
        assert (out, written) == ("", printed)
    else:
        head, *rows = csv.reader(io.StringIO(written))
        assert out == printed and head == ["stat", "value"]
        assert [tuple(r) for r in rows] == list(report_rows(printed).items())


@pytest.mark.parametrize("argv, option", _sweep_cases())
def test_each_number_just_outside_its_range_exits_one_naming_its_flag(capsys, argv, option):
    """Unlike the drawn contract test above, every end of every numeric
    flag of every command is tried, one flag at a time."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.splitlines()[-1].startswith(f"error: {option} "), err


def test_commands_call_the_names_the_benchmark_traces(capsys, monkeypatch, tmp_path):
    """bench/tracing.py traces a command by replacing these attributes of
    astrolabe.cli: each must be looked up when the command runs, not bound
    into a table when the module loads."""
    names = ("build_plate", "build_rete", "load_star_catalog", "build_back", "load_localities",
             "render_svg", "render_full", "axis_projection_radius", "load_config")
    ran = set()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            ran.add(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    data = Path(__file__).resolve().parents[1] / "demos" / "data"
    cfg = tmp_path / "site.cfg"
    cfg.write_text(f"lat = 40\ncatalog = {data / 'bright_stars.csv'}\n"
                   f"localities = {data / 'cities.csv'}\n", encoding="utf-8")
    for argv in (["plate"], ["rete"], ["back"], ["full"]):
        assert run_cli(capsys, *argv, "--config", str(cfg))[0] == 0
    assert run_cli(capsys, "project", "--dec", "10")[0] == 0
    assert set(names) - ran == set()
