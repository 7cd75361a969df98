"""Propagation of engraving and sighting errors.

Closed forms:

* alidade sight-vane offset delta (radians) over a length-l alidade
  reads the limb wrong by d1 = l*delta/4; a rotation graduation error
  eps passes through as d2 = eps/4 in whatever unit eps came in.
* an arc engraved with tangential offset ds and radial offset dp lands
  sqrt(ds^2 + dp^2) from its true position; with an angular offset
  dalpha at radius p the tangential term is p*dalpha.
* a radius error on an almucantar displaces its meridian crossing; when
  the displacement exceeds the local band spacing the readout snaps to
  the wrong altitude band (`band_misassignment`).

The Monte Carlo readout perturbs an engraved plate (almucantar centers
and radii, horizon, hour-line graduation) with independent Gaussian
errors.  Each scenario's reader is built once from the unperturbed plate
and reads, in plain floats with the closed forms the plate is drawn
with, a row of zeros (the plate as drawn) and then each trial's draws.
A trial's error is its reading minus the zero row's, so the hour-curve
approximation itself (negligible by construction) never contaminates
the statistics.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

from .exceptions import ScenarioInfeasible
from .geometry import Circle, PlanePoint, _Record, _center_offset, chord_length, normalize_angle
# unused here, but bench/tracing.py counts calls to them through this module
from .geometry import circle_circle_intersection, circumcircle  # noqa: F401
from .plate import PlateConfig, almucantar_solution, night_hours, tropic_circles
from .projection import (BAND_STEP, NON_NEGATIVE, POSITIVE, SEED, TRIALS,
                         from_plate_polar, plate_angle_deg, stereographic_radius)
from .projection import MAX_TRIALS, MIN_BAND_STEP  # noqa: F401  (the reports' limits)

SCENARIOS = ("time_to_sunset", "altitude")


def alidade_offset_error(length: float, offset_angle: float) -> float:
    """Limb reading error from a sight-vane offset: length*delta/4 (mm
    when length is mm and delta radians)."""
    POSITIVE.check(length, "length")
    NON_NEGATIVE.check(offset_angle, "offset")
    return length * offset_angle / 4.0


def alidade_rotation_error(rotation: float) -> float:
    """Limb reading error from a rotation graduation error: eps/4, in
    the unit eps was given in (pass-through)."""
    NON_NEGATIVE.check(rotation, "rotation error")
    return rotation / 4.0


def arc_displacement(ds: float, dp: float) -> float:
    """Total arc displacement from tangential and radial offsets."""
    if not (math.isfinite(ds) and math.isfinite(dp)):
        raise ValueError(f"offsets must be finite, got {ds!r}, {dp!r}")
    return math.hypot(ds, dp)


def arc_displacement_angular(radius: float, dalpha: float, dp: float) -> float:
    """Arc displacement when the tangential term is an angular offset
    dalpha (radians) at engraving radius `radius`."""
    POSITIVE.check(radius, "radius")
    return arc_displacement(radius * dalpha, dp)


def band_spacing(
    latitude: float, scale: float, altitude: float, band_step: float = 3.0
) -> float:
    """Meridian gap (mm) between the almucantar at `altitude` and the
    next band up, measured at the northern crossing.  Raises DomainError
    where that band reaches the zenith, as almucantar_solution does."""
    BAND_STEP.check(band_step, "band step")
    a = almucantar_solution(latitude, altitude, scale)
    b = almucantar_solution(latitude, min(altitude + band_step, 90.0), scale)
    return abs(b.y_lower - a.y_lower)


def band_misassignment(
    latitude: float,
    scale: float,
    altitude: float,
    radius_error_fraction: float,
    band_step: float = 3.0,
) -> tuple[float, float]:
    """Displacement of an almucantar's northern meridian crossing caused
    by a relative radius error, and the altitude band the displaced
    crossing is read as.

    Returns (displacement_mm, lands_on_band).  The reading moves up to
    the last band h = altitude + m*step below 90 whose crossing lies
    within the displacement D of the true one.  y_lower rises with h, so
    that is the last band at or below h* = phi - 2*atan(tan((phi -
    altitude)/2) - D/scale); the crossing test settles it against rounding.
    """
    BAND_STEP.check(band_step, "band step")
    if not math.isfinite(radius_error_fraction):
        raise ValueError(f"radius error fraction must be finite, got {radius_error_fraction!r}")
    sol = almucantar_solution(latitude, altitude, scale)
    displacement = abs(radius_error_fraction) * sol.radius

    def within(m: int) -> bool:  # band m lies below 90 and its crossing within reach
        h = altitude + m * band_step
        return h <= 90.0 - 1e-9 and (
            abs(almucantar_solution(latitude, h, scale).y_lower - sol.y_lower) <= displacement)

    half = math.tan(math.radians((latitude - altitude) / 2.0)) - displacement / scale
    h_star = latitude - 2.0 * math.degrees(math.atan(half))
    m = math.floor((h_star - altitude) / band_step)
    m = max(0, min(m, math.floor((90.0 - 1e-9 - altitude) / band_step)))
    while m > 0 and not within(m):
        m -= 1
    while within(m + 1):
        m += 1
    return displacement, altitude + m * band_step


def quadrant_chord_diagnosis(
    circle: Circle, marks: Sequence[float], tol: float
) -> str:
    """Diagnose a quadrant graduation from the chords between its four
    quadrant-boundary marks (degrees on the circle).

    All four chords equal within tol (a length): "ok".  Opposite chords
    equal but adjacent ones differing: the mark axis is tilted,
    "non_horizontal_axis".  All chords pairwise distinct: the marks were
    graduated from an off-center point, "eccentric_graduation".
    Anything else: "mixed".  The diagnosis is rotation-invariant.
    """
    if len(marks) != 4:
        raise ValueError(f"need exactly 4 marks, got {len(marks)}")
    NON_NEGATIVE.check(tol, "tolerance")
    angles = sorted(normalize_angle(math.radians(m)) for m in marks)
    chords = [
        chord_length(circle, angles[i], angles[(i + 1) % 4]) for i in range(4)
    ]

    def same(u: float, v: float) -> bool:
        return abs(u - v) <= tol

    if all(same(c, chords[0]) for c in chords[1:]):
        return "ok"
    if same(chords[0], chords[2]) and same(chords[1], chords[3]):
        return "non_horizontal_axis"
    if all(
        not same(chords[i], chords[j]) for i in range(4) for j in range(i + 1, 4)
    ):
        return "eccentric_graduation"
    return "mixed"


class PerturbationSpec(_Record):
    """Gaussian engraving-noise magnitudes: circle center offset (mm per
    axis), radius offset (mm), hour graduation offset (degrees along the
    tropic), and the base RNG seed."""

    __slots__ = ("center_sigma", "radius_sigma", "graduation_sigma", "seed")

    def __init__(self, center_sigma: float = 0.0, radius_sigma: float = 0.0,
                 graduation_sigma: float = 0.0, seed: int = 0):
        for what, sigma in zip(("center_sigma", "radius_sigma", "graduation_sigma"),
                               (center_sigma, radius_sigma, graduation_sigma)):
            NON_NEGATIVE.check(sigma, what)
        if not isinstance(seed, int):
            raise ValueError(f"seed {SEED.text}, got {seed!r}")
        SEED.check(seed, "seed")
        object.__setattr__(self, "center_sigma", center_sigma)
        object.__setattr__(self, "radius_sigma", radius_sigma)
        object.__setattr__(self, "graduation_sigma", graduation_sigma)
        object.__setattr__(self, "seed", seed)


class ErrorReport(_Record):
    """Summary of a Monte Carlo readout-error run.  `samples` holds the
    per-trial signed errors in trial order."""

    __slots__ = ("mean", "std", "max_abs", "n_trials", "classification", "samples")

    def __init__(self, mean: float, std: float, max_abs: float, n_trials: int,
                 classification: str, samples: tuple[float, ...]):
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)
        object.__setattr__(self, "max_abs", max_abs)
        object.__setattr__(self, "n_trials", n_trials)
        object.__setattr__(self, "classification", classification)
        object.__setattr__(self, "samples", samples)


def _sun_altitude(latitude: float, dec: float, hour_angle: float) -> float:
    la, d, h = (math.radians(v) for v in (latitude, dec, hour_angle))
    s = math.sin(la) * math.sin(d) + math.cos(la) * math.cos(d) * math.cos(h)
    return math.degrees(math.asin(max(-1.0, min(1.0, s))))


def trial_draws(seed: int, trial: int, count: int) -> list[float]:
    """The first `count` standard normals of trial `trial`, from its own
    stream random.Random((seed << 64) | trial).  Box-Muller turns each pair
    u1, u2 of random() into sqrt(-2 ln(1 - u1)) times cos and sin of 2 pi u2:
    Python keeps random()'s sequence across versions, and not gauss()'s."""
    rand = random.Random((seed << 64) | trial).random
    out = []
    for _ in range((count + 1) // 2):
        rho = math.sqrt(-2.0 * math.log(1.0 - rand()))
        theta = math.tau * rand()
        out += (rho * math.cos(theta), rho * math.sin(theta))
    return out[:count]


def _check_radius(radius: float) -> None:
    """The check `Circle` makes of a perturbed radius; a radius <= 0 leaves
    no scene to read, so it is infeasible, not a usage error."""
    if not radius > 0.0:
        raise ScenarioInfeasible(f"circle radius must be positive, got {radius!r}")


def _read_altitude(px, py, grid, cx, cy, r) -> float:
    """Altitude read at the point (px, py) from one perturbed almucantar
    field: center x, center y and radius at each grid altitude.

    Between grid nodes k and k+1 the interpolated center c(t) and
    radius r(t) are linear in t in [0, 1], so F(t) = |p - c(t)|^2 -
    r(t)^2 is a quadratic.  Radii are positive, so F has the sign of
    |p - c| - r at the nodes; on the first bracket where that sign
    goes from <= 0 to >= 0, F rises through zero exactly once.

    The reading crosses the nodes up to its bracket, or all of them when
    it finds none; a radius <= 0 among those nodes, or a missing bracket,
    raises ScenarioInfeasible.  A tiny circle near the zenith that the
    perturbation drove below zero does not stop a reading made lower down.
    """
    value = None
    for k, (x, y, rk) in enumerate(zip(cx, cy, r)):
        _check_radius(rk)
        below, value = value, math.hypot(px - x, py - y) - rk
        if k and below <= 0.0 <= value:
            break
    else:
        raise ScenarioInfeasible("the sighted point falls outside the readable altitude bands")
    k -= 1
    if below == 0.0:
        return grid[k]
    dx, dy, r0 = px - cx[k], py - cy[k], r[k]
    ddx, ddy, dr = cx[k + 1] - cx[k], cy[k + 1] - cy[k], r[k + 1] - r0
    a = ddx * ddx + ddy * ddy - dr * dr
    b = -2.0 * (dx * ddx + dy * ddy + r0 * dr)
    c = dx * dx + dy * dy - r0 * r0
    q = -0.5 * (b + math.copysign(math.sqrt(max(b * b - 4.0 * a * c, 0.0)), b))
    # F rises through zero at (-b + sqrt(disc)) / 2a: q/a when q > 0, else c/q;
    # q = 0 leaves the root t = 0 alone
    t = q / a if q > 0.0 else (c / q if q < 0.0 else 0.0)
    return grid[k] + min(max(t, 0.0), 1.0) * (grid[k + 1] - grid[k])


def _meet(nx: float, ny: float, e: float, radius: float):
    """Where the line nx*x + ny*y = e meets the pole-centered circle
    |p| = radius: two PlanePoints, or None where it misses or, its normal
    underflowing to 0 (tropics 1e-300 degrees apart), names no line."""
    n2 = nx * nx + ny * ny
    disc = radius * radius * n2 - e * e
    if not (disc >= 0.0 and n2 > 0.0):
        return None
    half, fx, fy = math.sqrt(disc) / n2, e * nx / n2, e * ny / n2
    return PlanePoint(fx - half * ny, fy + half * nx), PlanePoint(fx + half * ny, fy - half * nx)


def _sunset_reader(cfg, pert, sun_dec, altitude, grid, sols):
    """read(d): the unequal hours remaining until sunset on the plate
    perturbed by one trial's draws d.  Every intersection here is with a
    circle centered on the pole (the sun's date circle, or the opposite
    circle the hours are read on), so each is where a line meets that
    circle.  A failing check raises ScenarioInfeasible."""
    sc, sr, sg = pert.center_sigma, pert.radius_sigma, math.radians(pert.graduation_sigma)
    n, g = len(grid), 3 * len(grid)
    horizon = sols[0].circle
    # each tropic's radius and graduation: the hour angles dividing its night arc
    tropics = [(c.radius, [math.radians(h) for h in night_hours(cfg.latitude, dec)])
               for c, dec in zip(tropic_circles(cfg), (-cfg.obliquity, 0.0, cfg.obliquity))]
    r_sun, r_opp = (stereographic_radius(dec, cfg.scale) for dec in (sun_dec, -sun_dec))
    # expected boundary crossings guide the intersection pick
    guide = [from_plate_polar(r_opp, h) for h in night_hours(cfg.latitude, -sun_dec)]
    # the observed altitude's almucantar, interpolated between grid nodes j and j + 1
    j = sum(h <= altitude for h in grid) - 1
    lo, hi = sols[j], sols[j + 1]
    span, offset = grid[j + 1] - grid[j], altitude - grid[j]

    def read(d):
        # place the rete: the sun's date circle meets the almucantar of the
        # observed altitude; the western branch is the afternoon side
        ax, ay, ar = ((f1 - f0) / span * offset + f0 for f0, f1 in (
            (sc * d[j], sc * d[j + 1]),
            (lo.y_center + sc * d[n + j], hi.y_center + sc * d[n + j + 1]),
            (lo.radius + sr * d[2 * n + j], hi.radius + sr * d[2 * n + j + 1])))
        _check_radius(ar)
        pts = _meet(ax, ay, (ax * ax + ay * ay + r_sun * r_sun - ar * ar) / 2.0, r_sun)
        if pts is None:
            raise ScenarioInfeasible("the observed altitude band misses the sun's circle")
        theta_sun = plate_angle_deg(max(pts, key=lambda p: p.x))

        # boundaries 0 and 12: the perturbed horizon's crossings of the opposite circle
        hx, hy = horizon.center.x + sc * d[g], horizon.center.y + sc * d[g + 1]
        hr = horizon.radius + sr * d[g + 2]
        _check_radius(hr)
        pts = _meet(hx, hy, (hx * hx + hy * hy + r_opp * r_opp - hr * hr) / 2.0, r_opp)
        if pts is None:
            raise ScenarioInfeasible("perturbed horizon misses the sun's circle")
        east, west = sorted(pts, key=lambda p: p.x)
        crossings = [plate_angle_deg(west)] + [0.0] * 11 + [plate_angle_deg(east)]

        # boundaries 1-11: the circle through the perturbed division points
        # on the three tropics
        for k in range(1, 12):
            # a positive draw turns a point counterclockwise, toward smaller hour angles
            angles = [hours[k] - sg * d[g + 3 + 13 * i + k]
                      for i, (_, hours) in enumerate(tropics)]
            (x0, y0), (bx, by), (ex, ey) = [(radius * math.sin(a), radius * math.cos(a))
                                            for (radius, _), a in zip(tropics, angles)]
            bx, by, ex, ey = bx - x0, by - y0, ex - x0, ey - y0
            to_center = _center_offset(bx, by, ex, ey)
            if to_center is None:
                # a collinear triple (the midnight boundary): the line through its ends
                pts = _meet(ey, -ex, ey * x0 - ex * y0, r_opp)
            else:
                ux, uy = to_center
                h = g + 42 + 3 * (k - 1)
                u, dx, dy = math.hypot(ux, uy), sc * d[h], sc * d[h + 1]
                cr = u + sr * d[h + 2]
                _check_radius(cr)
                # the perturbed circle, centered at C = P0 + w with w = u + (dx, dy), meets
                # |p| = r_opp where C.p = e = (|C|^2 + r_opp^2 - cr^2) / 2; expanded about
                # the Capricorn point P0 it passes through, e cancels no squares of the
                # radius, which grows without bound as the triple nears a line
                wx, wy = ux + dx, uy + dy
                w = math.hypot(wx, wy)
                gap = (2.0 * (ux * dx + uy * dy) + dx * dx + dy * dy) / (w + u) - sr * d[h + 2]
                pts = _meet(x0 + wx, y0 + wy, (x0 * x0 + y0 * y0 + r_opp * r_opp) / 2.0
                            + x0 * wx + y0 * wy + gap * (w + cr) / 2.0, r_opp)
            if pts is None:
                raise ScenarioInfeasible(
                    f"hour boundary {k} misses the sun's circle after perturbation")
            crossings[k] = plate_angle_deg(min(pts, key=guide[k].distance_to))

        dd = [0.0] + [(c - crossings[0]) % 360.0 for c in crossings[1:]]
        # monotone repair is not attempted: perturbations small enough to
        # keep the boundaries ordered are the model's domain
        if any(dd[i + 1] <= dd[i] for i in range(12)):
            raise ScenarioInfeasible("perturbed hour boundaries are out of order")
        theta = (theta_sun + 180.0 - crossings[0]) % 360.0
        k = min(11, max(i for i in range(12) if dd[i] <= theta))
        return 12.0 - (k + (theta - dd[k]) / (dd[k + 1] - dd[k]))

    return read


def monte_carlo_readout(cfg: PlateConfig, pert: PerturbationSpec, scenario: str,
                        sun_dec: float, true_hour_angle: float, n_trials: int) -> ErrorReport:
    """Readout-error statistics for an instrument engraved with Gaussian
    errors.

    Scenarios: "altitude" reads the sun's altitude band back from the
    perturbed almucantar grid; "time_to_sunset" reads the unequal hours
    remaining before sunset from the perturbed hour lines.  Per-trial
    errors are measured against the unperturbed reading of the same
    plate, so sigma = 0 reports exactly zero.  Trial i draws from its
    own (seed, i) stream (`trial_draws`), so the same seed gives bit-equal
    samples and a longer run starts with a shorter run's samples.  Raises
    ScenarioInfeasible when the scene cannot be set (sun below horizon,
    circumpolar sun, an unperturbed plate that cannot be read, or a
    perturbation so large the readout loses its bracket or a circle it
    reads loses its radius), and ValueError, before any trial, when
    n_trials lies outside [1, MAX_TRIALS].
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    TRIALS.check(n_trials, "n_trials")

    phi, s = cfg.latitude, cfg.scale
    hour_angle = true_hour_angle % 360.0
    if abs(sun_dec) > cfg.obliquity + 1e-9:
        raise ValueError(f"sun declination {sun_dec} exceeds the obliquity {cfg.obliquity}")
    altitude = _sun_altitude(phi, sun_dec, hour_angle)
    if altitude <= 0.0:
        raise ScenarioInfeasible("sun is below the horizon at this hour angle")

    # almucantar grid h = 0, step, ..., 90 - step
    step = cfg.almucantar_step
    grid = [k * step for k in range(int(round(90.0 / step)))]
    sols = [almucantar_solution(phi, h, s) for h in grid]
    if altitude >= grid[-1]:
        raise ScenarioInfeasible(f"sun altitude {altitude:.2f} is above the last "
                                 f"engraved almucantar ({grid[-1]:.0f})")
    if scenario == "time_to_sunset":
        if math.tan(math.radians(phi)) * abs(math.tan(math.radians(sun_dec))) >= 1.0:
            raise ScenarioInfeasible("the sun never sets at this configuration")
        if not (0.0 < hour_angle < 180.0):
            raise ValueError("time_to_sunset expects an afternoon hour angle in (0, 180)")

    # a trial's draws: [alm cx, cy, dr] * n, horizon cx, cy, dr, graduation angles
    # 3 x 13, hour-circle cx, cy, dr x 11; the altitude reading needs only the first 3n
    n = len(grid)
    sc, sr = pert.center_sigma, pert.radius_sigma
    if scenario == "altitude":
        n_draws = 3 * n
        sun = from_plate_polar(stereographic_radius(sun_dec, s), hour_angle)

        def read(d):
            return _read_altitude(sun.x, sun.y, grid, [sc * v for v in d[:n]],
                                  [m.y_center + sc * v for m, v in zip(sols, d[n : 2 * n])],
                                  [m.radius + sr * v for m, v in zip(sols, d[2 * n :])])
    else:
        n_draws = 3 * n + 3 + 39 + 33
        read = _sunset_reader(cfg, pert, sun_dec, altitude, grid, sols)

    # the unperturbed plate, read from draws that are all zero
    try:
        ref = read([0.0] * n_draws)
    except ScenarioInfeasible as exc:
        cause = str(exc).replace("perturbed ", "").replace(" after perturbation", "")
        raise ScenarioInfeasible(f"the unperturbed plate cannot be read: {cause}") from None
    samples = tuple(read(trial_draws(pert.seed, i, n_draws)) - ref for i in range(n_trials))
    mean = math.fsum(samples) / n_trials
    std = math.sqrt(math.fsum((x - mean) ** 2 for x in samples) / n_trials)
    return ErrorReport(mean=mean, std=std, max_abs=max(map(abs, samples)), n_trials=n_trials,
                       classification="ok", samples=samples)
