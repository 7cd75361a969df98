"""Command line tests: wiring, config files, exit codes, report formats.

Everything runs in-process through ``cli.main`` (fast, capturable); one
subprocess smoke test runs the console script that pyproject.toml declares,
the way pip's wrapper runs it, from this tree with no install, then
``python -m astrolabe`` and ``python -m astrolabe.cli``, and any
``astrolabe`` already on PATH.  The math behind each subcommand is
oracle-tested in the per-module files, so the assertions here pin the
adapter layer: flag plumbing, precedence, the text/CSV report shapes, and
the documented exit code map.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import re
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import astrolabe
import astrolabe.error_analysis as ea
from astrolabe.cli import build_parser, load_config, main


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


def iter_all_parsers(parser):
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from iter_all_parsers(sub)


def test_every_flag_is_documented():
    """Each option of each (sub)command has help text shown by --help."""
    for parser in iter_all_parsers(build_parser()):
        rendered = parser.format_help()
        for action in parser._actions:
            if not action.option_strings:
                continue
            assert action.help, f"{parser.prog}: {action.option_strings} lacks help"
            assert action.option_strings[0] in rendered


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


def test_missing_latitude_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "plate")
    assert code == 1
    assert "--lat" in err


def test_argparse_problems_exit_one(capsys):
    assert run_cli(capsys, "plate", "--no-such-flag")[0] == 1
    assert run_cli(capsys, "plate", "--lat", "forty")[0] == 1
    assert run_cli(capsys, "no-such-command")[0] == 1


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
        "hour_lines = off\n"
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
        "hour_lines": False,
        "mirror_ew": True,
        "seed": 7,
        "catalog": "stars.csv",
    }
    assert isinstance(values["seed"], int)
    assert isinstance(values["scale_mm"], float)
    # a `#` inside a value is part of it; after whitespace it opens a comment
    cfg.write_text("catalog = data/stars#2.csv   # second catalog\n", encoding="utf-8")
    assert load_config(cfg) == {"catalog": "data/stars#2.csv"}


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


def test_analyze_montecarlo_infeasible_scene_exits_two(capsys):
    # hour angle past sunset for a winter sun: nothing to read off the plate
    code, _, err = run_cli(
        capsys,
        "analyze", "montecarlo",
        "--lat", "40", "--sun-dec", "-20", "--hour-angle", "100",
    )
    assert code == 2
    assert err.startswith("error:")


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


def test_render_style_validation_flows_to_exit_one(capsys):
    code, _, err = run_cli(capsys, "plate", "--lat", "40", "--precision", "12")
    assert code == 1
    assert "precision" in err


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


def test_cli_import_loads_no_scipy():
    code = (
        "import sys, astrolabe.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60, env=source_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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

    for target in ("astrolabe", "astrolabe.cli"):
        proc = project([sys.executable, "-m", target], "45")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ok.stdout

    exe = shutil.which("astrolabe")
    if exe:
        proc = project([exe], "45")
        assert proc.returncode == 0
        assert "radius_mm" in proc.stdout
