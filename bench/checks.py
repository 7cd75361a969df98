"""Correctness gates of the benchmark.

Each function returns a list of failure messages; an empty list passes.
Every message adds one to the run's `check_failures`.

* Golden SVGs: the three demo configurations must reproduce the
  documents in bench/golden/ byte for byte.  Those files are copies of
  demos/out/ at the commit that introduced the benchmark.
* Layer groups: every rendered document must parse with xml.etree and
  carry exactly the layer group ids its face should have.
* CLI reports: each `stat,value` CSV must hold its rows, with values that
  agree with one another.
* Monte Carlo: a zero-sigma run gives samples that are exactly zero, the
  same seed gives identical samples, and mean and std match
  bench/golden/mc_reference.json within tolerances derived from the trial
  count.  The tolerances admit any other random stream of the same
  distribution (two independent estimates, MC_K standard errors apart)
  and reject a readout that moves the mean or scales the spread.

Regenerate the reference statistics with
    python3 bench/checks.py --write-mc-reference
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden"
MC_REFERENCE = GOLDEN / "mc_reference.json"
CATALOG = "demos/data/bright_stars.csv"
CITIES = "demos/data/cities.csv"
OBLIQUITY = 23.44
MC_K = 6.0

# argv of the demo configurations (relative to the repo root) and the
# golden document each must reproduce
GOLDEN_CASES = {
    "plate_lat40.svg": ["plate", "--lat", "40", "--scale-mm", "100"],
    "rete_bright_stars.svg": ["rete", "--catalog", CATALOG, "--scale-mm", "100"],
    "back_damascus.svg": ["back", "--lat", "33.513", "--diameter-mm", "300",
                          "--localities", CITIES],
}

_SVG_G = "{http://www.w3.org/2000/svg}g"


def face_ids(face: str, latitude: float = None) -> set:
    """Layer group ids a face's document should carry (every benchmark
    back face is built with localities, so it has qibla marks)."""
    if face == "plate":
        ids = {"limb", "tropics", "horizon", "almucantars", "azimuths"}
        if latitude < 90.0 - OBLIQUITY:  # hour lines exist below the arctic limit
            ids.add("hours")
        return ids
    if face == "rete":
        return {"limb", "ecliptic", "stars"}
    if face == "back":
        return {"limb", "calendar", "sine-quadrant", "shadow-square", "midday", "qibla"}
    raise ValueError(face)


def full_ids(latitude: float) -> set:
    ids = {"plate", "rete", "back"}
    for face in ("plate", "rete", "back"):
        ids |= {f"{face}-{i}" for i in face_ids(face, latitude)}
    return ids


def svg_groups(doc: str, expected: set, what: str) -> list:
    try:
        root = ET.fromstring(doc.encode("utf-8"))
    except ET.ParseError as exc:
        return [f"{what}: not well-formed XML ({exc})"]
    ids = [g.get("id") for g in root.iter(_SVG_G)]
    if len(ids) != len(set(ids)) or set(ids) != expected:
        return [f"{what}: layer ids {sorted(ids)} != {sorted(expected)}"]
    return []


def golden(name: str, doc: str) -> list:
    if doc != (GOLDEN / name).read_text(encoding="utf-8"):
        return [f"{name}: output differs from the golden document"]
    return []


def demo_models(api) -> dict:
    """The demo configurations built with the library API, by face."""
    catalog = api.load_star_catalog(ROOT / CATALOG)
    cities = api.load_localities(ROOT / CITIES)
    return {
        "plate": api.build_plate(api.PlateConfig(latitude=40.0, scale=100.0)),
        "rete": api.build_rete(catalog, 100.0),
        "back": api.build_back(api.BackConfig(latitude=33.513, radius=150.0), cities),
    }


def golden_in_process(api) -> list:
    out = []
    for name, model in zip(GOLDEN_CASES, demo_models(api).values()):
        out += golden(name, api.render_svg(model, api.RenderStyle()))
    return out


# ---- CLI reports ----------------------------------------------------------

_REPORT_ROWS = {
    "project": ["kind", "dec_deg", "hour_angle_deg", "radius_mm", "x_mm", "y_mm"],
    "qibla": ["observer_lat_deg", "observer_lon_deg", "bearing_oracle_deg",
              "qibla_eq13_deg", "abs_difference_deg"],
    "band": ["latitude_deg", "scale_mm", "altitude_deg", "radius_error_fraction",
             "displacement_mm", "band_spacing_mm", "lands_on_band_deg"],
}


def cli_report(kind: str, text: str, argv: list) -> list:
    """Check one `stat,value` CSV written by a CLI call."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["stat", "value"]:
        return [f"{kind}: missing stat,value header"]
    stats = dict(rows[1:])
    if kind == "montecarlo":
        scenario = argv[argv.index("--scenario") + 1]
        unit = "deg" if scenario == "altitude" else "hours"
        names = ["scenario", "n_trials", f"mean_{unit}", f"std_{unit}",
                 f"max_abs_{unit}", "classification"]
    else:
        names = _REPORT_ROWS[kind]
    if [r[0] for r in rows[1:]] != names:
        return [f"{kind}: rows {[r[0] for r in rows[1:]]} != {names}"]
    try:
        num = {k: float(v) for k, v in stats.items()
               if k not in ("kind", "scenario", "classification")}
    except ValueError as exc:
        return [f"{kind}: non-numeric value ({exc})"]
    if not all(math.isfinite(v) for v in num.values()):
        return [f"{kind}: non-finite value"]
    ok = True
    if kind == "project":
        ok = abs(math.hypot(num["x_mm"], num["y_mm"]) - abs(num["radius_mm"])) < 1e-4
    elif kind == "qibla":
        gap = (num["bearing_oracle_deg"] - num["qibla_eq13_deg"] + 180.0) % 360.0 - 180.0
        ok = abs(abs(gap) - num["abs_difference_deg"]) < 2e-6
    elif kind == "montecarlo":
        ok = (stats["scenario"] == scenario and stats["n_trials"] == "200"
              and num[f"std_{unit}"] >= 0.0
              and num[f"max_abs_{unit}"] >= abs(num[f"mean_{unit}"]) - 1e-6)
    return [] if ok else [f"{kind}: inconsistent report {stats}"]


# ---- Monte Carlo ------------------------------------------------------------


def mc_run(api, case: dict, trials: int, sigmas=True):
    cfg = api.PlateConfig(latitude=case["lat"], scale=100.0)
    pert = api.PerturbationSpec(
        center_sigma=case["center_sigma"] if sigmas else 0.0,
        radius_sigma=case["radius_sigma"] if sigmas else 0.0,
        graduation_sigma=case["graduation_sigma"] if sigmas else 0.0,
        seed=case["seed"],
    )
    return api.monte_carlo_readout(cfg, pert, case["scenario"], case["sun_dec"],
                                   case["hour_angle"], trials)


def _kurtosis(samples) -> float:
    n = len(samples)
    m = sum(samples) / n
    var = sum((x - m) ** 2 for x in samples) / n
    return sum((x - m) ** 4 for x in samples) / n / var ** 2


def mc_gates(api) -> list:
    ref = json.loads(MC_REFERENCE.read_text(encoding="utf-8"))
    out = []
    for case in ref["cases"]:
        what = f"mc {case['scenario']} lat={case['lat']}"
        zero = mc_run(api, case, 50, sigmas=False)
        if any(v != 0.0 for v in zero.samples):
            out.append(f"{what}: zero-sigma samples are not exactly zero")
        first, again = mc_run(api, case, 50), mc_run(api, case, 50)
        if first.samples != again.samples:
            out.append(f"{what}: the same seed gave different samples")
        n = case["trials"]
        rep = mc_run(api, case, n)
        tol_mean = MC_K * case["std"] * math.sqrt(2.0 / n)
        tol_std = MC_K * case["std"] * math.sqrt(2.0 * (case["kurtosis"] - 1.0) / (4.0 * n))
        if abs(rep.mean - case["mean"]) > tol_mean:
            out.append(f"{what}: mean {rep.mean:.6g} vs reference {case['mean']:.6g} "
                       f"(tolerance {tol_mean:.3g})")
        if abs(rep.std - case["std"]) > tol_std:
            out.append(f"{what}: std {rep.std:.6g} vs reference {case['std']:.6g} "
                       f"(tolerance {tol_std:.3g})")
    return out


_REFERENCE_CASES = [
    dict(scenario="altitude", lat=40.0, sun_dec=-10.0, hour_angle=45.0),
    dict(scenario="altitude", lat=52.5, sun_dec=15.0, hour_angle=70.0),
    dict(scenario="time_to_sunset", lat=40.0, sun_dec=-10.0, hour_angle=45.0),
    dict(scenario="time_to_sunset", lat=33.513, sun_dec=20.0, hour_angle=60.0),
]


def write_mc_reference(trials: int = 1000) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import astrolabe as api

    cases = []
    for base in _REFERENCE_CASES:
        case = dict(base, center_sigma=0.2, radius_sigma=0.2, graduation_sigma=0.5,
                    seed=0, trials=trials)
        rep = mc_run(api, case, trials)
        cases.append(dict(case, mean=rep.mean, std=rep.std,
                          kurtosis=_kurtosis(rep.samples)))
    MC_REFERENCE.write_text(json.dumps({"cases": cases}, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-mc-reference"]:
        sys.exit("usage: python3 bench/checks.py --write-mc-reference")
    write_mc_reference()
