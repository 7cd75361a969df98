"""One benchmark process: set up one workload, run it for a fixed time,
check its outputs and write the raw result as JSON.

run.py starts it in a fresh interpreter, so that set-up time and peak
memory belong to one workload alone:

    python3 bench/worker.py --workload atlas --seed 1 --setup-only
    python3 bench/worker.py --workload atlas --seed 1 --seconds 10 --trace 0 --result FILE

With --setup-only the worker imports what the workload uses, loads its
data, runs one warm-up operation, prints `ready` and exits.

Load is one closed loop with one client and no threads: the next
operation starts when the previous one has ended.  `workers` is never
passed to the Monte Carlo engine.  Inputs come from --seed alone.

Workloads (BENCHMARK.json declares cli and atlas and says why):
  cli         one `astrolabe ...` process per operation, run one at a time
  atlas       one instrument set per operation: load both CSVs, build
              plate, rete and back, render the three faces and the sheet
  montecarlo  one workshop scene per operation: a long
              monte_carlo_readout run for each of the two scenarios
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import checks
import speed
import tracing

ROOT = checks.ROOT
OBL = checks.OBLIQUITY
# plate radius at the Capricorn tropic per unit equator radius: the rete
# and back share it, as in the CLI
CAPRICORN = math.tan(math.radians(45.0 + OBL / 2.0))

ALMUCANTAR_STEPS = (1, 2, 3, 5, 10)
AZIMUTH_STEPS = (1, 5, 10, 15)
PRECISIONS = (2, 4, 6)
MC_TRIALS = 1000
MC_STEP = 5.0  # the CLI's default almucantar step
SCENARIOS = ("altitude", "time_to_sunset")
CLI_KINDS = ("plate", "rete", "back", "full", "project", "qibla", "band", "montecarlo")
CLI_CODE = "from astrolabe.cli import run; run()"  # what the console script runs
PROBE_REPEATS = 5
TAIL_BEYOND = 10
# The back face exists for latitudes in [OBL, 90 - OBL) only (ROADMAP item
# 3); operations that build it draw from inside that band, so that no
# operation of a declared workload fails.  The layer probe sweeps the whole
# plate domain instead, and the share it finds outside the band is the
# `back.domain_errors` metric.
BACK_LATS = (OBL + 0.5, 90.0 - OBL - 0.5)
DOMAIN_SWEEP = tuple(5.0 + 10.0 * k for k in range(9))
MC_SWEEP_SCENES = 12
CLI_MC_TRIALS = 200  # the CLI's default

API_NAMES = (
    "PlateConfig", "BackConfig", "RenderStyle", "PerturbationSpec", "LAYER_IDS",
    "AstrolabeError", "DomainError",
    "build_plate", "build_rete", "build_back", "load_star_catalog",
    "load_localities", "render_svg", "render_full", "monte_carlo_readout",
)


def load_api() -> SimpleNamespace:
    sys.path.insert(0, str(ROOT / "src"))
    import astrolabe

    return SimpleNamespace(**{n: getattr(astrolabe, n) for n in API_NAMES})


# ---- seeded inputs ----------------------------------------------------------


def stratified(rng, lo, hi, strata=4):
    """Values in (lo, hi); each block of `strata` draws takes one from
    each equal sub-interval, so short runs still cover the whole range."""
    while True:
        order = list(range(strata))
        rng.shuffle(order)
        for k in order:
            yield lo + (hi - lo) * (k + rng.random()) / strata


def atlas_cases(rng):
    """Each cycle covers every step / mirror / precision combination once,
    paired with latitudes stratified over the band where all three faces
    exist (BACK_LATS), so the mix is the same for every seed and no part
    of the band is left out."""
    combos = [(a, z, m, p) for a in ALMUCANTAR_STEPS for z in AZIMUTH_STEPS
              for m in (False, True) for p in PRECISIONS]
    lats = stratified(rng, *BACK_LATS, len(combos))
    while True:
        rng.shuffle(combos)
        for alm, az, mirror, precision in combos:
            yield dict(lat=next(lats), scale=rng.uniform(60.0, 150.0), almucantar_step=alm,
                       azimuth_step=az, mirror_ew=mirror, precision=precision)


def _sun_altitude(lat, dec, hour_angle):
    la, d, h = (math.radians(v) for v in (lat, dec, hour_angle))
    return math.degrees(math.asin(
        math.sin(la) * math.sin(d) + math.cos(la) * math.cos(d) * math.cos(h)))


def mc_scene(rng, step):
    """An afternoon scene whose sun sets and stands between the horizon
    and the top almucantar, with workshop-range engraving noise.  The
    latitude stays below the arctic limit, where the plate has hour lines
    for the time_to_sunset readout."""
    while True:
        lat, dec = rng.uniform(0.0, 90.0 - OBL), rng.uniform(-OBL, OBL)
        hour_angle = rng.uniform(0.0, 180.0)
        sets = math.tan(math.radians(lat)) * abs(math.tan(math.radians(dec))) < 1.0
        if sets and 0.0 < _sun_altitude(lat, dec, hour_angle) < 90.0 - step:
            return dict(lat=lat, sun_dec=dec, hour_angle=hour_angle, almucantar_step=step,
                        center_sigma=rng.uniform(0.0, 0.5), radius_sigma=rng.uniform(0.0, 0.5),
                        graduation_sigma=rng.uniform(0.0, 1.0), seed=rng.randrange(2**31))


def mc_cases(rng):
    while True:
        yield mc_scene(rng, MC_STEP)


def feasible_mc_scene(api, rng, scenario):
    """A scene whose CLI run of the default trial count completes: one
    aborted trial aborts the whole run (ROADMAP item 5), so scenes are
    drawn until the same run, made in this process, succeeds."""
    while True:
        scene = mc_scene(rng, MC_STEP)
        try:
            checks.mc_run(api, dict(scene, scenario=scenario), CLI_MC_TRIALS)
        except api.AstrolabeError:
            continue
        return scene


def _cli_argv(api, rng, kind, lat, out, cfg_path):
    """argv for one CLI call, the config text (None: flags only) and the
    values it sets.  Half of the calls that can read a config file get one."""
    geo = {"lat": lat}
    if rng.random() < 0.5:
        geo["scale_mm"] = rng.uniform(50.0, 150.0)
    else:
        geo["diameter_mm"] = rng.uniform(150.0, 400.0)
    if kind in ("plate", "rete", "back", "full"):
        geo["precision"] = rng.choice(PRECISIONS)
        geo["mirror_ew"] = rng.random() < 0.5
    if kind in ("plate", "full"):
        geo["almucantar_step"] = rng.choice(ALMUCANTAR_STEPS)
        geo["azimuth_step"] = rng.choice(AZIMUTH_STEPS)
    if kind in ("rete", "full"):
        geo["catalog"] = checks.CATALOG
    if kind in ("back", "full"):
        geo["localities"] = checks.CITIES
    if kind == "rete":
        del geo["lat"]
    extra = []
    if kind == "project":
        pkind = rng.choice(("stereographic", "gnomonic", "external", "orthographic"))
        extra = [f"--dec={rng.uniform(-80.0, 80.0)!r}",
                 f"--hour-angle={rng.uniform(0.0, 360.0)!r}", "--kind", pkind]
        if pkind == "external":
            extra += [f"--q={rng.uniform(1.2, 4.0)!r}"]
        del geo["lat"]
    elif kind == "qibla":
        geo = {"lat": rng.uniform(-60.0, 70.0), "lon": rng.uniform(-180.0, 180.0)}
        extra = ["--name", f"site{rng.randrange(1000)}"]
    elif kind == "band":
        kind = ["analyze", "band"]
        extra = [f"--altitude={rng.uniform(0.0, 80.0)!r}",
                 f"--radius-error-fraction={rng.uniform(0.001, 0.05)!r}"]
    elif kind == "montecarlo":
        scenario = rng.choice(SCENARIOS)
        scene = feasible_mc_scene(api, rng, scenario)
        kind = ["analyze", "montecarlo"]
        geo = {"lat": scene["lat"], "scale_mm": 100.0}
        extra = ["--scenario", scenario,
                 f"--sun-dec={scene['sun_dec']!r}", f"--hour-angle={scene['hour_angle']!r}",
                 f"--center-sigma={scene['center_sigma']!r}",
                 f"--radius-sigma={scene['radius_sigma']!r}",
                 f"--graduation-sigma={scene['graduation_sigma']!r}",
                 "--seed", str(scene["seed"])]
    head = kind if isinstance(kind, list) else [kind]
    # the analyze subcommands do not read --config, so they get flags only
    if head[0] != "analyze" and rng.random() < 0.5:
        config = "".join(f"{k} = {'yes' if v is True else 'no' if v is False else v}\n"
                         for k, v in geo.items())
        return head + ["--config", str(cfg_path), "--out", str(out)] + extra, config, geo
    flags = []
    for k, v in geo.items():
        if v is True:
            flags.append("--" + k.replace("_", "-"))
        elif v is not False:
            flags.append(f"--{k.replace('_', '-')}={v}")
    return head + flags + ["--out", str(out)] + extra, None, geo


def cli_cases(api, rng, work_dir):
    """Each cycle runs every CLI subcommand of the mix once, shuffled, with
    latitudes stratified per subcommand over the plate's domain (0, 90),
    or over BACK_LATS for the calls that build the back face.  The config
    file and a cleared output path are prepared before the call is timed."""
    kinds = list(CLI_KINDS)
    lats = {kind: stratified(rng, *(BACK_LATS if kind in ("back", "full") else (0.0, 90.0)))
            for kind in kinds}
    cfg_path = work_dir / "call.ini"
    while True:
        rng.shuffle(kinds)
        for kind in kinds:
            ext = "svg" if kind in ("plate", "rete", "back", "full") else "csv"
            out = work_dir / f"out.{ext}"
            argv, config, geo = _cli_argv(api, rng, kind, next(lats[kind]),
                                          out.relative_to(ROOT),
                                          cfg_path.relative_to(ROOT))
            out.unlink(missing_ok=True)
            if config is not None:
                cfg_path.write_text(config, encoding="utf-8")
            yield dict(kind=kind, argv=argv, out=out, lat=geo.get("lat"))


# ---- operations ---------------------------------------------------------------
# Each returns (cause or None, completed work units, payload for the checks).


def atlas_op(api, c):
    style = api.RenderStyle(precision=c["precision"], mirror_ew=c["mirror_ew"])
    catalog = api.load_star_catalog(ROOT / checks.CATALOG)
    cities = api.load_localities(ROOT / checks.CITIES)
    plate = api.build_plate(api.PlateConfig(
        latitude=c["lat"], scale=c["scale"], almucantar_step=c["almucantar_step"],
        azimuth_step=c["azimuth_step"]))
    rete = api.build_rete(catalog, c["scale"])
    back = api.build_back(api.BackConfig(latitude=c["lat"], radius=c["scale"] * CAPRICORN),
                          cities)
    docs = [api.render_svg(m, style) for m in (plate, rete, back)]
    docs.append(api.render_full(plate, rete, back, style))
    return None, 1, docs


def atlas_check(c, docs):
    out = []
    for face, doc in zip(("plate", "rete", "back"), docs):
        out += checks.svg_groups(doc, checks.face_ids(face, c["lat"]), f"atlas {face} {c}")
    return out + checks.svg_groups(docs[3], checks.full_ids(c["lat"]), f"atlas full {c}")


def mc_op(api, c, log, trials=MC_TRIALS):
    """Both scenarios on one scene; a failed call does not stop the other.
    Each call's (scenario, ms, succeeded) goes to `log`."""
    cfg = api.PlateConfig(latitude=c["lat"], scale=100.0, almucantar_step=c["almucantar_step"])
    pert = api.PerturbationSpec(center_sigma=c["center_sigma"], radius_sigma=c["radius_sigma"],
                                graduation_sigma=c["graduation_sigma"], seed=c["seed"])
    calls, cause, done = [], None, 0
    for scenario in SCENARIOS:
        t0 = time.perf_counter()
        try:
            rep = api.monte_carlo_readout(cfg, pert, scenario, c["sun_dec"], c["hour_angle"],
                                          trials)
        except Exception as exc:  # recorded by cause; the loop goes on
            rep, cause = None, cause or type(exc).__name__
        ms = (time.perf_counter() - t0) * 1e3
        calls.append((scenario, ms, rep))
        log.append((scenario, ms, rep is not None))
        done += rep.n_trials if rep else 0
    return cause, done, calls


def mc_check(c, calls):
    out = []
    for scenario, _, rep in calls:
        if rep is None:
            continue
        s = rep.samples
        if (rep.n_trials != MC_TRIALS or len(s) != MC_TRIALS
                or not all(math.isfinite(v) for v in s)
                or abs(rep.mean - math.fsum(s) / len(s)) > 1e-12 * (1.0 + rep.max_abs)
                or rep.max_abs != max(abs(v) for v in s)):
            out.append(f"mc {scenario} {c}: report disagrees with its samples")
    return out


def cli_process_op(env, c):
    proc = subprocess.run([sys.executable, "-c", CLI_CODE, *c["argv"]], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)
    return (f"exit {proc.returncode}", 0, None) if proc.returncode else (None, 1, None)


def cli_in_process_op(main, c):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(c["argv"])
    return (f"exit {code}", 0, None) if code else (None, 1, None)


def cli_check(c, _):
    text = c["out"].read_text(encoding="utf-8")
    kind, argv = c["kind"], c["argv"]
    if kind not in ("plate", "rete", "back", "full"):
        return checks.cli_report(kind, text, argv)
    expected = checks.full_ids(c["lat"]) if kind == "full" else checks.face_ids(kind, c["lat"])
    return checks.svg_groups(text, expected, f"cli {argv}")


# ---- the loop and its summary ----------------------------------------------------


def run_loop(op, check, cases, seconds, tracer=None, patches=None, kernel=None):
    """Closed loop for `seconds`.  Given a `kernel` list, the host-speed
    kernel runs once before the first operation and once after each, and
    its times go to that list (bench/speed.py).  In the traced run every
    case runs twice, in alternating order: untraced, with
    the original functions, and traced, with the wrappers applied.  Only
    the pairs feed the tracing overhead, and per-layer numbers come from
    the traced half."""
    records, check_failures, pairs = [], [], []
    if kernel is not None:
        kernel.append(speed.kernel_ms())
    deadline = time.perf_counter() + seconds
    for i, case in enumerate(cases):
        if time.perf_counter() >= deadline:
            break
        modes = (False,) if tracer is None else ((False, True) if i % 2 else (True, False))
        timed = {}
        for traced in modes:
            if traced:
                patches.apply()
                tracer.enabled, tracer.op = True, i
            t0 = time.perf_counter()
            try:
                cause, work, payload = op(case)
            except Exception as exc:  # recorded by cause; the loop goes on
                cause, work, payload = type(exc).__name__, 0, None
            timed[traced] = (time.perf_counter() - t0) * 1e3
            if kernel is not None:
                kernel.append(speed.kernel_ms())
            if traced:
                tracer.enabled = False
                patches.restore()
            if tracer is None or traced:
                records.append((timed[traced], cause, work))
                if payload is not None or cause is None:
                    try:
                        check_failures += check(case, payload)
                    except Exception as exc:  # a check that cannot run has failed
                        check_failures.append(f"check of {case} raised {exc!r}")
        if tracer is not None:
            pairs.append((timed[False], timed[True]))
    return records, check_failures, pairs


def latency(values):
    """Median and tail of a list of times.  The tail is the highest
    percentile with at least TAIL_BEYOND samples beyond it: the
    (TAIL_BEYOND + 1)-th largest sample, at percentile 100 (n - 10) / n.
    With fewer samples it is the maximum, with none beyond."""
    v = sorted(values)
    n = len(v)
    beyond = TAIL_BEYOND if n > TAIL_BEYOND else 0
    return {"n": n, "p50": statistics.median(v), "tail": v[n - 1 - beyond],
            "tail_pct": 100.0 * (n - beyond) / n, "beyond": beyond}


def summarize(records, kernel=None):
    """Latency and throughput, from the times scaled to the reference host
    speed when there are kernel times; `raw_*` are the same from the times
    as the clock read them."""
    causes = {}
    for _, cause, _ in records:
        if cause is not None:
            causes[cause] = causes.get(cause, 0) + 1
    work = sum(w for _, _, w in records)
    out = dict(attempted=len(records), failed=sum(causes.values()), causes=causes, work=work)
    raw = [ms for ms, _, _ in records]
    for key, times in (("", speed.scaled(raw, kernel) if kernel else raw), ("raw_", raw)):
        busy_s = sum(times) / 1e3
        out[key + "op_ms"] = latency([t for t, r in zip(times, records) if r[1] is None])
        out[key + "busy_s"] = busy_s
        out[key + "work_per_s"] = work / busy_s if busy_s else 0.0
    return out


# ---- traced run: layer probe and per-layer metrics ---------------------------------


LAYER_OWNER = {"limb": "back", "tropics": "plate", "horizon": "plate", "almucantars": "plate",
               "azimuths": "plate", "hours": "plate", "ecliptic": "rete", "stars": "rete",
               "calendar": "back", "shadow-square": "back", "sine-quadrant": "back",
               "midday": "back", "qibla": "back"}


def layer_probe(api, raw, tracer, patches, work_dir):
    """A fixed pass over every layer, run in each traced run so that every
    per-layer metric exists on every workload: the demo instrument set,
    each layer id rendered alone on the face that owns it (`limb` on the
    back, where it is the degree scale), CLI calls through a config file,
    and Monte Carlo runs of 1 and 200 trials.  Then, once, the two failure
    sweeps, the same in every run: back faces at DOMAIN_SWEEP latitudes
    over the plate's domain, and 200-trial runs of both scenarios on
    MC_SWEEP_SCENES unscreened scenes."""
    cfg = (work_dir / "probe.ini").relative_to(ROOT)
    cfg.write_text(f"lat = 40\nscale_mm = 100\ncatalog = {checks.CATALOG}\n"
                   f"localities = {checks.CITIES}\n", encoding="utf-8")
    argvs = [["plate", "--config", str(cfg), "--out", str(work_dir / "probe.svg")],
             ["full", "--config", str(cfg), "--out", str(work_dir / "probe.svg")],
             ["project", "--dec=-23.44", "--hour-angle", "30", "--out", str(work_dir / "p.csv")]]
    ref = json.loads(checks.MC_REFERENCE.read_text(encoding="utf-8"))["cases"]
    import astrolabe.cli as cli

    patches.apply()
    tracer.enabled = True
    for rep in range(PROBE_REPEATS):
        tracer.op = f"probe{rep}"
        faces = checks.demo_models(api)
        for model in faces.values():
            api.render_svg(model, api.RenderStyle())
        api.render_full(faces["plate"], faces["rete"], faces["back"], api.RenderStyle())
        for lid in api.LAYER_IDS:
            tracer.span(f"render.layer.{lid}", raw.render_svg, faces[LAYER_OWNER[lid]],
                        api.RenderStyle(include_layers={lid}))
        for argv in argvs:
            cli_in_process_op(cli.main, {"argv": argv})
        for case in (ref[0], ref[2]):
            mc = dict(case, trials=200)
            tracer.span("error_analysis.mc_fixed", checks.mc_run, raw, mc, 1)
            checks.mc_run(api, mc, 200)
    tracer.op = "sweep"
    cities = api.load_localities(ROOT / checks.CITIES)
    for lat in DOMAIN_SWEEP:
        with contextlib.suppress(api.DomainError):
            api.build_back(api.BackConfig(latitude=lat, radius=100.0 * CAPRICORN), cities)
    rng = random.Random("mc-sweep")
    for _ in range(MC_SWEEP_SCENES):
        scene = mc_scene(rng, MC_STEP)
        for scenario in SCENARIOS:
            with contextlib.suppress(api.AstrolabeError):
                checks.mc_run(api, dict(scene, scenario=scenario), CLI_MC_TRIALS)
    tracer.enabled = False
    patches.restore()


def layer_metrics(tracer, api, pairs):
    st = tracer.self_times_ms()
    c = tracer.counts

    def med(name):
        if not st.get(name):
            raise RuntimeError(f"no span {name!r} was recorded")
        return statistics.median(st[name])

    def ok_ms(name):
        return [(s[2] - s[1]) * 1e3 for s in tracer.spans if s[0] == name and s[5] is None]

    m = {
        "cli.load_config_ms": med("cli.load_config"),
        "cli.main_self_ms": med("cli.main"),
        "plate.build_ms": statistics.median(ok_ms("plate.build")),
        "plate.elements": c["plate.elements"] / c["plate.builds"],
        "rete.build_ms": statistics.median(ok_ms("rete.build")),
        "rete.load_catalog_ms": med("rete.load_catalog"),
        "rete.stars_skipped": c["rete.stars_skipped"] / c["rete.builds"],
        "back.build_ms": statistics.median(ok_ms("back.build")),
        "back.load_localities_ms": med("back.load_localities"),
        "back.domain_errors": tracer.raised_share("back.build", api.DomainError, op="sweep"),
        "projection.axis_radius_us": med("projection.axis_radius") * 1e3,
    }
    faces = ("plate", "rete", "back", "full")
    for face in faces:
        m[f"render.{face}_ms"] = med(f"render.{face}")
    m["render.us_per_element"] = (
        sum(sum(st[f"render.{f}"]) for f in faces) / c["render.elements"] * 1e3)
    m["render.bytes"] = c["render.bytes"] / c["render.docs"]
    for lid in api.LAYER_IDS:
        m[f"render.layer.{lid}_ms"] = med(f"render.layer.{lid}")
    fixed = med("error_analysis.mc_fixed")
    m["error_analysis.mc_fixed_ms"] = fixed
    trials = 0
    for scenario in SCENARIOS:
        runs = ok_ms(f"error_analysis.mc.{scenario}")
        n = c[f"error_analysis.trials.{scenario}"]
        trials += n
        m[f"error_analysis.mc_us_per_trial.{scenario}"] = (
            (sum(runs) - len(runs) * fixed) / n * 1e3)
    m["error_analysis.mc_failed_runs"] = tracer.raised_share("error_analysis.mc.", op="sweep")
    m["geometry.intersections_per_trial"] = c["geometry.intersections"] / trials
    m["geometry.circumcircles_per_trial"] = c["geometry.circumcircles"] / trials
    untraced = sum(u for u, _ in pairs)
    m["trace.overhead_pct"] = (sum(t for _, t in pairs) / untraced - 1.0) * 100.0
    return m


# ---- entry --------------------------------------------------------------------------


def setup(workload, rng, work_dir, in_process):
    """Import, load data and run one warm-up operation.  Returns the
    workload's operation, its check and its case generator."""
    # every workload loads the API in the worker: cli draws its Monte Carlo
    # scenes with it, and its peak_rss_mb counts the CLI processes alone
    w = SimpleNamespace(api=load_api(), mc_calls=[])
    if workload == "cli":
        w.check, w.cases = cli_check, cli_cases(w.api, rng, work_dir)
        if in_process:
            import astrolabe.cli as cli

            w.op = lambda c: cli_in_process_op(cli.main, c)
        else:
            env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
            w.op = lambda c: cli_process_op(env, c)
        # warm-up: the demo configurations, checked against the goldens later
        for name, argv in checks.GOLDEN_CASES.items():
            w.op({"argv": argv + ["--out", str(work_dir / name)]})
        return w
    api = w.api
    if workload == "atlas":
        w.op, w.check, w.cases = (lambda c: atlas_op(api, c)), atlas_check, atlas_cases(rng)
        w.op(dict(lat=40.0, scale=100.0, almucantar_step=5, azimuth_step=10,
                  mirror_ew=False, precision=4))
        return w
    w.op, w.check, w.cases = (lambda c: mc_op(api, c, w.mc_calls)), mc_check, mc_cases(rng)
    mc_op(api, dict(lat=40.0, sun_dec=-10.0, hour_angle=45.0, almucantar_step=5,
                    center_sigma=0.1, radius_sigma=0.1, graduation_sigma=0.1, seed=0),
          [], trials=20)
    return w


def gates(workload, w, work_dir):
    """Output checks that run once per run, after the timed loop: the demo
    documents against the goldens (cli, atlas) and, on every workload, the
    Monte Carlo gates."""
    out = []
    if workload == "cli":
        for name in checks.GOLDEN_CASES:
            path = work_dir / name
            out += (checks.golden(name, path.read_text(encoding="utf-8")) if path.exists()
                    else [f"{name}: the demo call wrote no file"])
    elif workload == "atlas":
        out += checks.golden_in_process(w.api)
    return out + checks.mc_gates(w.api)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("cli", "atlas", "montecarlo"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--result", type=Path)
    args = ap.parse_args(argv)

    role = "setup" if args.setup_only else f"trace{args.trace}"
    work_dir = ROOT / ".bench_run" / f"{args.workload}-{args.seed}-{role}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    rng = random.Random(f"{args.workload}:{args.seed}")
    traced = bool(args.trace)
    # the measured cli run calls processes; its other roles run in-process
    w = setup(args.workload, rng, work_dir, in_process=args.setup_only or traced)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = patches = None
    if traced:
        raw = SimpleNamespace(**vars(w.api))
        tracer = tracing.Tracer()
        patches = tracing.install(tracer, w.api)
    # The kernel tracks the speed of warm in-process work; cli's calls are
    # process start-up and import, which it does not track, so they stay
    # as read.
    kernel = [] if args.workload != "cli" and not traced else None
    records, check_failures, pairs = run_loop(w.op, w.check, w.cases, args.seconds,
                                              tracer, patches, kernel)
    result = summarize(records, kernel)
    if not traced:
        # taken before the gates, so that it belongs to the operations alone
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    check_failures += gates(args.workload, w, work_dir)
    if traced:
        layer_probe(w.api, raw, tracer, patches, work_dir)
        result["layers"] = layer_metrics(tracer, w.api, pairs)
        result["pairs"] = len(pairs)
        tracer.dump(work_dir / "spans.json")
    else:
        if args.workload == "montecarlo":
            result["mc_runs"] = {
                s: latency([ms for sc, ms, ok in w.mc_calls if ok and s in ("all", sc)])
                for s in ("all",) + SCENARIOS}
    result["check_failures"] = check_failures
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
