"""The repository benchmark: one command, three seeded workloads.

    python3 bench/run.py --workload {cli,atlas,montecarlo,all} --seed N \\
        --seconds S --trace {0,1}

Run it from anywhere; it works on the checkout that holds it and writes
only under its `.bench_run/` directory.  Each workload runs in its own
fresh worker process (bench/worker.py), so set-up time and peak memory
belong to that workload alone.  BENCHMARK.json declares cli and atlas;
montecarlo runs by name and in `all`, but is not declared there, because
on a shared 2-CPU host its op_p50_ms, as read before times were scaled to
the host's speed, varied more between runs (IQR 21-29% of the median)
than the largest allowed bound of 25%.

--trace 0 measures the end-to-end metrics with no tracing installed.
The times of in-process operations (atlas, montecarlo) are scaled to a
reference host speed, measured by a fixed kernel run after each operation
(bench/speed.py), because the shared host's own speed swings more than
the bounds; the same numbers as the clock read them are printed and kept
in the result file as `raw_*`.  cli's calls and setup_s are as read: they
are process start-up and import, which the kernel's speed does not track
(scaled, their spread over seeds grew).
  setup_s      fresh interpreter to the first timed operation (imports,
               data loads, one warm-up), median of SETUP_SAMPLES fresh
               interpreters
  op_p50_ms    median time of one successful operation
  op_tail_ms   the highest percentile of the operation time that has at
               least ten samples beyond it (the percentile is printed)
  work_per_s   completed work per busy second, failed operations counted
               in the busy time
  peak_rss_mb  peak resident memory of the workload's process(es)
One operation is a whole `astrolabe ...` process call (cli), one
instrument set (atlas), or one scene read under both Monte Carlo
scenarios (montecarlo); work is calls, sets or completed trials.

--trace 1 is a separate run that records spans around every layer call
and reports the per-layer metrics, plus `trace.overhead_pct`: the traced
over the untraced time of the same operations, run in pairs, the untraced
one with the original functions in place.

After the timed loop every run checks its outputs (bench/checks.py): the
demo documents against the goldens, and on every workload the Monte Carlo
gates.  Each failed check adds to `check_failures`, and any makes the
result incorrect.

Before anything is timed, one untimed import fills the bytecode cache, as
an installed package's users never pay compilation on each run.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it name every metric with
its unit, and .bench_run/result-*.json keeps the full result with its
provenance.  Exit status 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("cli", "atlas", "montecarlo")
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
REQUIRED = ("BENCHMARK.json", "src/astrolabe/__init__.py", "src/astrolabe/cli.py",
            "demos/data/bright_stars.csv", "demos/data/cities.csv")
# what one operation and one unit of work are, per workload
NAMES = {
    "cli": ("call", "calls"),
    "atlas": ("sheet", "sheets"),
    "montecarlo": ("scene", "mc_trials"),
}


class BenchError(Exception):
    pass


def _env():
    """Environment of every process the benchmark starts: the package from
    src/, and bytecode caching on whatever the caller set, as for an
    installed package."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _worker(workload, seed, *extra):
    return [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--seed", str(seed), *extra]


def run_worker(cmd, timeout):
    """Start a fresh worker, wait for it to end and return the seconds
    from its start to its `ready` line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker timed out: {' '.join(cmd)}")
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {' '.join(cmd)}\n{err}")
    return ready


def warm_bytecode():
    subprocess.run([sys.executable, "-c", "import astrolabe.cli"], cwd=ROOT, env=_env(),
                   check=True, timeout=120, capture_output=True)


def import_times():
    """numpy, scipy and astrolabe-own import cost of `import astrolabe.cli`,
    from `-X importtime` in a fresh interpreter (ms)."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import astrolabe.cli"],
                          cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=120,
                          check=True)
    nodes = []  # post-order: children are printed before their parent
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, cum_us, name = line.split(":", 1)[1].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        nodes.append((depth, name.strip().split(".")[0], int(self_us), int(cum_us)))
    out = {"numpy": 0.0, "scipy": 0.0, "astrolabe_self": 0.0}
    stack = []  # (depth, package) of the ancestors, walking parents first
    for depth, pkg, self_us, cum_us in reversed(nodes):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if pkg in ("numpy", "scipy") and (not stack or stack[-1][1] != pkg):
            out[pkg] += cum_us / 1e3
        if pkg == "astrolabe":
            out["astrolabe_self"] += self_us / 1e3
        stack.append((depth, pkg))
    return out


def provenance(workload, seed, seconds, trace):
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = git.stdout.strip() or None
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": commit, "source_sha256": digest.hexdigest(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"), "platform": platform.platform(),
        "bytecode_cache": "warmed by one untimed import before timing",
    }


def measure(workload, seed, seconds, trace):
    """Run one workload; returns (contract metrics, full result)."""
    result_path = ROOT / ".bench_run" / f"result-{workload}-{seed}-trace{trace}.json"
    result_path.parent.mkdir(exist_ok=True)
    result_path.unlink(missing_ok=True)
    warm_bytecode()
    prov = provenance(workload, seed, seconds, trace)
    setup = []
    imports = []
    if trace:
        imports = [import_times() for _ in range(IMPORTTIME_SAMPLES)]
    else:
        setup = [run_worker(_worker(workload, seed, "--setup-only"), 300)
                 for _ in range(SETUP_SAMPLES)]
    run_worker(_worker(workload, seed, "--seconds", str(seconds), "--trace", str(trace),
                       "--result", str(result_path)), seconds + 300)
    res = json.loads(result_path.read_text(encoding="utf-8"))
    if res["attempted"] == res["failed"]:
        raise BenchError(f"{workload}: no operation succeeded: {res['causes']}")
    res["provenance"] = prov
    if trace:
        metrics = {f"setup.import_{k}_ms": statistics.median(s[k] for s in imports)
                   for k in ("numpy", "scipy", "astrolabe_self")}
        metrics.update(res["layers"])
    else:
        res["setup_s"] = {"median": statistics.median(setup), "samples": setup}
        metrics = {
            "setup_s": res["setup_s"]["median"],
            "op_p50_ms": res["op_ms"]["p50"],
            "op_tail_ms": res["op_ms"]["tail"],
            "work_per_s": res["work_per_s"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
    res["metrics"] = metrics
    result_path.write_text(json.dumps(res, indent=1), encoding="utf-8")
    return metrics, res


def declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this kind
    of run; the run must report exactly these metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _line(name, value, unit, note=""):
    text = f"{value:16d}" if isinstance(value, int) else f"{value:16.6f}"
    print(f"{name:44s} {text} {unit:10s} {note}".rstrip())


def report(workload, metrics, res):
    """Human-readable lines: every metric by name with its unit."""
    prov = res["provenance"]
    print(f"# workload={workload} seed={prov['seed']} seconds={prov['seconds']} "
          f"trace={prov['trace']} commit={prov['commit']} src={prov['source_sha256'][:12]} "
          f"nproc={prov['nproc']} python={prov['python']} numpy={prov['numpy']} "
          f"scipy={prov['scipy']}")
    print(f"# {prov['bytecode_cache']}; one client, closed loop, no threads")
    if prov["trace"]:
        units = declared_units(1)
        for name, value in metrics.items():
            _line(name, value, units[name])
        print(f"# tracing overhead over {res['pairs']} traced/untraced pairs of the same "
              f"operations; spans in .bench_run/{workload}-{prov['seed']}-trace1/spans.json")
    else:
        op, work = NAMES[workload]
        lat = res["op_ms"]
        tail = f"p{lat['tail_pct']:.1f}: {lat['beyond']} samples beyond, n={lat['n']}"
        scale, unit = (1e3, "s") if workload == "cli" else (1.0, "ms")
        _line(f"{op}_p50_{unit}", lat["p50"] / scale, unit, f"n={lat['n']}")
        _line(f"{op}_tail_{unit}", lat["tail"] / scale, unit, tail)
        for scenario, r in res.get("mc_runs", {}).items():
            name = "" if scenario == "all" else f".{scenario}"
            _line(f"mc_run_p50_ms{name}", r["p50"], "ms", f"one call, n={r['n']}")
            _line(f"mc_run_tail_ms{name}", r["tail"], "ms",
                  f"p{r['tail_pct']:.1f}: {r['beyond']} samples beyond, n={r['n']}")
        _line(f"{work}_per_s", res["work_per_s"], "1/s",
              f"{res['work']} in {res['busy_s']:.3f} busy s")
        _line("setup_s", res["setup_s"]["median"], "s",
              f"median of {len(res['setup_s']['samples'])} fresh interpreters")
        raw = res["raw_op_ms"]
        if workload != "cli":
            print(f"# {op} times above are at the reference host speed; as the clock read them: "
                  f"p50 {raw['p50'] / scale:.6g} {unit}, tail {raw['tail'] / scale:.6g} {unit}, "
                  f"{res['raw_work_per_s']:.6g} {work}/s")
        _line("peak_rss_mb", res["peak_rss_mb"], "MB")
        print(f"# in the JSON line: op_p50_ms and op_tail_ms are per {op}, "
              f"work_per_s is {work}_per_s")
    fails = ", ".join(f"{k}={v}" for k, v in sorted(res["causes"].items())) or "none"
    _line("failed_frac", res["failed"] / res["attempted"], "1",
          f"{res['failed']} failed / {res['attempted']} attempted; {fails}")
    _line("check_failures", len(res["check_failures"]), "count")
    for msg in res["check_failures"][:20]:
        print(f"  check failed: {msg}")


def main(argv=None):
    ap = argparse.ArgumentParser(description="astrolabe benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a checkout of the astrolabe repository: missing {missing}",
              file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in workloads:
            metrics, res = measure(workload, args.seed, args.seconds, args.trace)
            units = declared_units(args.trace)
            if set(metrics) != set(units):
                raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} differ "
                                 "from BENCHMARK.json")
            report(workload, metrics, res)
            prefix = f"{workload}." if args.workload == "all" else ""
            out["correct"] &= not res["check_failures"]
            out["attempted"] += res["attempted"]
            out["failed"] += res["failed"]
            out["metrics"].update({f"{prefix}{k}": {"value": v, "unit": units[k]}
                                   for k, v in metrics.items()})
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
