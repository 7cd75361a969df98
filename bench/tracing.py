"""Spans and counters for the traced benchmark run.

Spans are recorded from the benchmark's side only: `install` prepares
wrappers for the public functions that the benchmark and `astrolabe.cli`
call, and `Patches.apply` / `Patches.restore` swap them in and out, so
nothing under src/ is instrumented.  The untraced run never calls
`install`, and its end-to-end numbers carry no tracing cost at all.  In the
traced run the wrappers are in place only while a traced operation runs.

A span is (name, start, end, parent index, op id, exception class or None).
Spans stay in memory until `dump` writes them out at the end of the run.
A layer's self time is its span's duration minus the time its child spans
cover; the benchmark is single-threaded, so child spans never overlap.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.enabled = False
        self.op = None
        self._stack = []

    def span(self, name, fn, *args, **kwargs):
        """Call fn, recording a span around it while tracing is enabled."""
        if not self.enabled:
            return fn(*args, **kwargs)
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            rec[5] = type(exc)
            raise
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, after=None):
        """fn wrapped in a span; `name` may be a function of the arguments.
        `after(tracer, args, result)` records counts at the same boundary."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args) if callable(name) else name
            result = self.span(label, fn, *args, **kwargs)
            if after is not None and self.enabled:
                after(self, args, result)
            return result

        return traced

    def counted(self, key, fn):
        """fn wrapped in a call counter (no span: it runs per trial)."""

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            if self.enabled:
                self.counts[key] += 1
            return fn(*args, **kwargs)

        return counting

    def self_times_ms(self) -> dict:
        """Span name -> list of self times in ms, in recording order."""
        covered = [0.0] * len(self.spans)
        for _, t0, t1, parent, _, _ in self.spans:
            if parent is not None:
                covered[parent] += t1 - t0
        out = defaultdict(list)
        for (name, t0, t1, _, _, _), inner in zip(self.spans, covered):
            out[name].append((t1 - t0 - inner) * 1e3)
        return out

    def raised_share(self, prefix, base=Exception, op=None) -> float:
        """Share of the spans whose name starts with `prefix` that raised
        `base` or a subclass of it; with `op`, of that operation's spans only."""
        spans = [s for s in self.spans if s[0].startswith(prefix) and op in (None, s[4])]
        if not spans:
            raise RuntimeError(f"no span {prefix!r} was recorded")
        return sum(s[5] is not None and issubclass(s[5], base) for s in spans) / len(spans)

    def dump(self, path) -> None:
        fields = ["name", "start_s", "end_s", "parent", "op", "error"]
        spans = [s[:5] + [s[5] and s[5].__name__] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": spans, "counts": dict(self.counts)}, fh)


class Patches:
    """Module attributes to replace with wrappers, and their originals."""

    def __init__(self):
        self.items = []  # (owner, name, original, wrapper)

    def add(self, owner, name, wrapper) -> None:
        self.items.append((owner, name, getattr(owner, name), wrapper))

    def apply(self) -> None:
        for owner, name, _, wrapper in self.items:
            setattr(owner, name, wrapper)

    def restore(self) -> None:
        for owner, name, original, _ in self.items:
            setattr(owner, name, original)


def _face(model) -> str:
    return type(model).__name__.replace("Model", "").lower()


def _after_render(tracer, args, doc):
    # every drawn element and label is one line indented by two spaces
    tracer.counts["render.docs"] += 1
    tracer.counts["render.elements"] += doc.count("\n  <")
    tracer.counts["render.bytes"] += len(doc.encode("utf-8"))


def _after_plate(tracer, args, model):
    tracer.counts["plate.builds"] += 1
    tracer.counts["plate.elements"] += (
        2 + len(model.tropics) + len(model.almucantars)
        + len(model.azimuths) + len(model.hour_lines)
    )


def _after_rete(tracer, args, model):
    tracer.counts["rete.builds"] += 1
    tracer.counts["rete.stars_skipped"] += len(model.skipped)


def _after_mc(tracer, args, report):
    tracer.counts[f"error_analysis.trials.{args[2]}"] += report.n_trials


def install(tracer, layers) -> Patches:
    """Wrappers for the layer functions in `layers` (the benchmark's own
    handle on the package), for `astrolabe.cli.main` and for the same names
    inside astrolabe.cli and astrolabe.error_analysis.  Nothing is replaced
    until the returned patches are applied."""
    import astrolabe.cli as cli
    import astrolabe.error_analysis as ea

    wrappers = {
        "main": tracer.wrap("cli.main", cli.main),
        "load_config": tracer.wrap("cli.load_config", cli.load_config),
        "build_plate": tracer.wrap("plate.build", layers.build_plate, _after_plate),
        "build_rete": tracer.wrap("rete.build", layers.build_rete, _after_rete),
        "load_star_catalog": tracer.wrap("rete.load_catalog", layers.load_star_catalog),
        "build_back": tracer.wrap("back.build", layers.build_back),
        "load_localities": tracer.wrap("back.load_localities", layers.load_localities),
        "render_svg": tracer.wrap(lambda m, *_: f"render.{_face(m)}",
                                  layers.render_svg, _after_render),
        "render_full": tracer.wrap("render.full", layers.render_full, _after_render),
        "axis_projection_radius": tracer.wrap("projection.axis_radius",
                                              cli.axis_projection_radius),
        "monte_carlo_readout": tracer.wrap(
            lambda *a: f"error_analysis.mc.{a[2]}", ea.monte_carlo_readout, _after_mc
        ),
    }
    patches = Patches()
    for name, fn in wrappers.items():
        for owner in (layers, cli):
            if hasattr(owner, name):
                patches.add(owner, name, fn)
    patches.add(ea, "monte_carlo_readout", wrappers["monte_carlo_readout"])
    patches.add(ea, "circle_circle_intersection",
                tracer.counted("geometry.intersections", ea.circle_circle_intersection))
    patches.add(ea, "circumcircle", tracer.counted("geometry.circumcircles", ea.circumcircle))
    return patches
