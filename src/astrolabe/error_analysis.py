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
errors and reads every trial in one batched pass: one row of draws per
trial, below a row of zeros that reads the unperturbed plate.  A trial's
error is its row's reading minus row 0's, so a zero-sigma run reports
exactly zero error and the hour-curve approximation itself (negligible
by construction) never contaminates the statistics.  Trial i draws from
numpy.random.default_rng([seed, i]), so a longer run starts with the
trials of a shorter one.

Only the Monte Carlo readout uses numpy, and its functions import it
themselves, so importing this module (as the CLI does for every command)
does not load numpy.
"""

from __future__ import annotations

import math
from typing import Sequence

from .exceptions import ScenarioInfeasible
from .geometry import COLLINEAR_AREA_REL, Circle, _Record, chord_length, normalize_angle
# unused here, but bench/tracing.py counts calls to them through this module
from .geometry import circle_circle_intersection, circumcircle  # noqa: F401
from .plate import PlateConfig, almucantar_solution, night_hours, tropic_circles
from .projection import from_plate_polar, stereographic_radius

SCENARIOS = ("time_to_sunset", "altitude")


def alidade_offset_error(length: float, offset_angle: float) -> float:
    """Limb reading error from a sight-vane offset: length*delta/4 (mm
    when length is mm and delta radians)."""
    if not (0.0 < length < math.inf):
        raise ValueError(f"length must be finite and positive, got {length!r}")
    if not (0.0 <= offset_angle < math.inf):
        raise ValueError(f"offset must be finite and non-negative, got {offset_angle!r}")
    return length * offset_angle / 4.0


def alidade_rotation_error(rotation: float) -> float:
    """Limb reading error from a rotation graduation error: eps/4, in
    the unit eps was given in (pass-through)."""
    if not (0.0 <= rotation < math.inf):
        raise ValueError(f"rotation error must be finite and non-negative, got {rotation!r}")
    return rotation / 4.0


def arc_displacement(ds: float, dp: float) -> float:
    """Total arc displacement from tangential and radial offsets."""
    if not (math.isfinite(ds) and math.isfinite(dp)):
        raise ValueError(f"offsets must be finite, got {ds!r}, {dp!r}")
    return math.hypot(ds, dp)


def arc_displacement_angular(radius: float, dalpha: float, dp: float) -> float:
    """Arc displacement when the tangential term is an angular offset
    dalpha (radians) at engraving radius `radius`."""
    if not (0.0 < radius < math.inf):
        raise ValueError(f"radius must be finite and positive, got {radius!r}")
    return arc_displacement(radius * dalpha, dp)


# finest band step (degrees), the margin the top band keeps below 90
MIN_BAND_STEP = 1e-9


def _check_band_step(band_step: float) -> None:
    if not (MIN_BAND_STEP <= band_step < math.inf):
        raise ValueError(f"band step must be a finite number >= {MIN_BAND_STEP}, got {band_step!r}")


def band_spacing(
    latitude: float, scale: float, altitude: float, band_step: float = 3.0
) -> float:
    """Meridian gap (mm) between the almucantar at `altitude` and the
    next band up, measured at the northern crossing."""
    _check_band_step(band_step)
    a = almucantar_solution(latitude, altitude, scale)
    b = almucantar_solution(latitude, altitude + band_step, scale)
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
    _check_band_step(band_step)
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
    if not (0.0 <= tol < math.inf):
        raise ValueError(f"tolerance must be finite and non-negative, got {tol!r}")
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
        sigmas = (center_sigma, radius_sigma, graduation_sigma)
        if not all(0.0 <= s < math.inf for s in sigmas):
            raise ValueError(f"sigmas must be finite and non-negative, got {sigmas!r}")
        if not isinstance(seed, int) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
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


def _read_altitude(px, py, grid, cx, cy, r) -> np.ndarray:
    """Altitude read at the point (px, py) from each row of a perturbed
    almucantar field: center x, center y and radius, one column per grid
    altitude.

    Between grid nodes k and k+1 the interpolated center c(t) and
    radius r(t) are linear in t in [0, 1], so F(t) = |p - c(t)|^2 -
    r(t)^2 is a quadratic.  Radii are positive, so F has the sign of
    |p - c| - r at the nodes; on the first bracket where that sign
    goes from <= 0 to >= 0, F rises through zero exactly once.

    A row reads across the nodes up to its bracket, or across all of
    them when it finds none; a radius <= 0 among those nodes, or a
    missing bracket, raises ScenarioInfeasible for the first failing
    row.  A tiny circle near the zenith that the perturbation drove
    below zero does not stop a reading made lower down.
    """
    import numpy as np
    values = np.hypot(px - cx, py - cy) - r
    rising = (values[:, :-1] <= 0.0) & (values[:, 1:] >= 0.0)
    found = rising.any(axis=1)
    k = rising.argmax(axis=1)
    last = np.where(found, k + 1, r.shape[1] - 1)
    bad, error, message = _positive(np.where(np.arange(r.shape[1]) <= last[:, None], r, 1.0))
    failed = bad.any(axis=1) | ~found
    if failed.any():
        if bad[failed.argmax()].any():
            raise error(message)
        raise ScenarioInfeasible("the sighted point falls outside the readable altitude bands")
    rows = np.arange(len(values))
    dx, dy, r0 = px - cx[rows, k], py - cy[rows, k], r[rows, k]
    ddx, ddy = cx[rows, k + 1] - cx[rows, k], cy[rows, k + 1] - cy[rows, k]
    dr = r[rows, k + 1] - r0
    a = ddx * ddx + ddy * ddy - dr * dr
    b = -2.0 * (dx * ddx + dy * ddy + r0 * dr)
    c = dx * dx + dy * dy - r0 * r0
    q = -0.5 * (b + np.copysign(np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0)), b))
    # F rises through zero at (-b + sqrt(disc)) / 2a: q/a when q > 0, else c/q
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(q > 0.0, q / a, c / q)
    t = np.where(values[rows, k] == 0.0, 0.0, np.clip(t, 0.0, 1.0))
    return grid[k] + t * (grid[k + 1] - grid[k])


def _line_meets_circle(nx, ny, e, radius):
    """Where each line nx*x + ny*y = e meets the pole-centered circle
    |p| = radius: arrays x1, y1, x2, y2, NaN where the line misses."""
    import numpy as np
    n2 = nx * nx + ny * ny
    half = np.sqrt(radius * radius * n2 - e * e) / n2
    fx, fy = e * nx / n2, e * ny / n2
    return fx - half * ny, fy + half * nx, fx + half * ny, fy - half * nx


def _radical_line(cx, cy, r, radius):
    """(nx, ny, e): circles (cx, cy, r) meet |p| = radius where n.p = e."""
    return cx, cy, (cx * cx + cy * cy + radius * radius - r * r) / 2.0


def _plate_angle(first, x1, y1, x2, y2):
    """`plate_angle_deg` of point 1 where `first` holds, else of point 2."""
    import numpy as np
    x, y = np.where(first, x1, x2), np.where(first, y1, y2)
    return np.degrees(np.arctan2(x, y)) % 360.0


def _positive(radius):
    """The check `Circle` makes of each perturbed radius, as (failing
    radii, error, message); the message names the first failing radius
    in row order.  A radius the perturbation drove to <= 0 leaves no
    scene to read, so it is infeasible, not a usage error."""
    bad = ~(radius > 0.0)
    value = float(radius.flat[bad.argmax()])
    return bad, ScenarioInfeasible, f"circle radius must be positive, got {value!r}"


def _read_sunset_hours(cfg, pert, sun_dec, altitude, grid, cx, cy, r, draws):
    """Unequal hours remaining until sunset, read off each row of a
    perturbed plate.  `draws` holds each row's horizon (center x, y,
    radius), graduation (13 per tropic) and hour-circle (center x, y,
    radius per boundary) draws.

    Every intersection here is with a circle centered on the pole (the
    sun's date circle, or the opposite circle the hours are read on), so
    each is where a line meets that circle.  A failing run raises the
    first failing check of its first failing row, as a replay would.
    """
    import numpy as np
    s, sc, sr = cfg.scale, pert.center_sigma, pert.radius_sigma
    horizon = almucantar_solution(cfg.latitude, 0.0, s).circle
    tropics = tropic_circles(cfg)
    # each tropic's graduation: the hour angles dividing its night arc
    division = np.radians([night_hours(cfg.latitude, dec)
                           for dec in (-cfg.obliquity, 0.0, cfg.obliquity)])
    r_sun, r_opp = stereographic_radius(sun_dec, s), stereographic_radius(-sun_dec, s)
    # expected boundary crossings guide the intersection pick
    guide = np.radians(night_hours(cfg.latitude, -sun_dec)[1:12])
    gx, gy = r_opp * np.sin(guide), r_opp * np.cos(guide)

    with np.errstate(divide="ignore", invalid="ignore"):
        # place the rete: the sun's date circle meets the almucantar of the
        # observed altitude (interpolated as np.interp does); the western
        # branch is the afternoon side
        j = int(np.searchsorted(grid, altitude, side="right")) - 1
        alm = [(f[:, j + 1] - f[:, j]) / (grid[j + 1] - grid[j]) * (altitude - grid[j])
               + f[:, j] for f in (cx, cy, r)]
        x1, y1, x2, y2 = _line_meets_circle(*_radical_line(*alm, r_sun), r_sun)
        theta_sun = _plate_angle(x1 >= x2, x1, y1, x2, y2)

        # boundaries 0 and 12: the perturbed horizon's western and eastern
        # crossings of the opposite circle
        hr = horizon.radius + sr * draws[:, 2]
        hx, hy = horizon.center.x + sc * draws[:, 0], horizon.center.y + sc * draws[:, 1]
        x1, y1, x2, y2 = _line_meets_circle(*_radical_line(hx, hy, hr, r_opp), r_opp)
        crossings = np.empty((len(draws), 13))
        crossings[:, 0] = _plate_angle(x1 >= x2, x1, y1, x2, y2)
        crossings[:, 12] = _plate_angle(x1 <= x2, x1, y1, x2, y2)

        # boundaries 1-11: the circle through the perturbed division points
        # on the three tropics, in closed form as geometry.circumcircle
        grad = draws[:, 3:42].reshape(-1, 3, 13)[:, :, 1:12]
        # a positive draw moves a point counterclockwise, toward smaller hour angles
        ang = division[:, 1:12] - math.radians(pert.graduation_sigma) * grad
        radii = np.array([c.radius for c in tropics])[:, None]
        px, py = radii * np.sin(ang), radii * np.cos(ang)
        bx, by = px[:, 1] - px[:, 0], py[:, 1] - py[:, 0]
        ex, ey = px[:, 2] - px[:, 0], py[:, 2] - py[:, 0]
        dmax = np.max([np.hypot(bx, by), np.hypot(ex, ey), np.hypot(ex - bx, ey - by)], axis=0)
        area2 = bx * ey - by * ex
        b2, e2 = bx * bx + by * by, ex * ex + ey * ey
        ux, uy = (ey * b2 - by * e2) / (2.0 * area2), (bx * e2 - ex * b2) / (2.0 * area2)
        hc = draws[:, 42:].reshape(-1, 11, 3)
        u, dx, dy = np.hypot(ux, uy), sc * hc[:, :, 0], sc * hc[:, :, 1]
        cr = u + sr * hc[:, :, 2]
        # the perturbed circle, centered at C = P0 + w with w = u + (dx, dy),
        # meets |p| = r_opp where C.p = e = (|C|^2 + r_opp^2 - cr^2) / 2;
        # expanded about the Capricorn point P0 it passes through, e cancels
        # no squares of the radius, which grows without bound as the triple
        # nears a line
        wx, wy = ux + dx, uy + dy
        w = np.hypot(wx, wy)
        gap = (2.0 * (ux * dx + uy * dy) + dx * dx + dy * dy) / (w + u) - sr * hc[:, :, 2]
        x0, y0 = px[:, 0], py[:, 0]
        circle = (x0 + wx, y0 + wy, (x0 * x0 + y0 * y0 + r_opp * r_opp) / 2.0
                  + x0 * wx + y0 * wy + gap * (w + cr) / 2.0)
        # a collinear triple (the midnight boundary) is the line through
        # its Capricorn and Cancer points
        line = np.abs(area2) / 2.0 <= COLLINEAR_AREA_REL * dmax * dmax
        chord = (ey, -ex, ey * px[:, 0] - ex * py[:, 0])
        x1, y1, x2, y2 = _line_meets_circle(
            *(np.where(line, u, v) for u, v in zip(chord, circle)), r_opp)
        first = np.hypot(x1 - gx, y1 - gy) <= np.hypot(x2 - gx, y2 - gy)
        crossings[:, 1:12] = _plate_angle(first, x1, y1, x2, y2)

    d = (crossings - crossings[:, :1]) % 360.0
    d[:, 0] = 0.0
    theta = (theta_sun + 180.0 - crossings[:, 0]) % 360.0
    miss = "misses the sun's circle"
    # (failing rows, error, message) in the order one trial meets them
    checks = [_positive(alm[2]),
              (np.isnan(theta_sun), ScenarioInfeasible, f"the observed altitude band {miss}"),
              _positive(hr),
              (np.isnan(crossings[:, 0]), ScenarioInfeasible, f"perturbed horizon {miss}")]
    for k in range(11):
        checks.append(_positive(np.where(line[:, k], 1.0, cr[:, k])))
        checks.append((np.isnan(crossings[:, k + 1]), ScenarioInfeasible,
                       f"hour boundary {k + 1} {miss} after perturbation"))
    # monotone repair is not attempted: perturbations small enough to
    # keep the boundaries ordered are the model's domain
    checks.append(((d[:, 1:] <= d[:, :-1]).any(axis=1), ScenarioInfeasible,
                   "perturbed hour boundaries are out of order"))
    bad = np.array([check[0] for check in checks])
    failed = np.flatnonzero(bad.any(axis=0))
    if failed.size:
        _, error, message = checks[int(bad[:, failed[0]].argmax())]
        raise error(message)

    rows = np.arange(len(d))
    k = np.clip((d[:, :12] <= theta[:, None]).sum(axis=1) - 1, 0, 11)
    return 12.0 - (k + (theta - d[rows, k]) / (d[rows, k + 1] - d[rows, k]))


def monte_carlo_readout(cfg: PlateConfig, pert: PerturbationSpec, scenario: str,
                        sun_dec: float, true_hour_angle: float, n_trials: int) -> ErrorReport:
    """Readout-error statistics for an instrument engraved with Gaussian
    errors.

    Scenarios: "altitude" reads the sun's altitude band back from the
    perturbed almucantar grid; "time_to_sunset" reads the unequal hours
    remaining before sunset from the perturbed hour lines.  Per-trial
    errors are measured against the unperturbed reading of the same
    plate, so sigma = 0 reports exactly zero.  Trial i draws from its
    own (seed, i) stream, so the same seed gives bit-equal samples and a
    longer run starts with a shorter run's samples.  Raises
    ScenarioInfeasible when the scene cannot be set (sun below horizon,
    circumpolar sun, or a perturbation so large the readout loses its
    bracket or a circle it reads loses its radius).
    """
    import numpy as np
    if scenario not in SCENARIOS:
        raise ValueError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    if n_trials < 1:
        raise ValueError(f"need at least one trial, got {n_trials!r}")

    phi, s = cfg.latitude, cfg.scale
    hour_angle = true_hour_angle % 360.0
    if abs(sun_dec) > cfg.obliquity + 1e-9:
        raise ValueError(f"sun declination {sun_dec} exceeds the obliquity {cfg.obliquity}")
    altitude = _sun_altitude(phi, sun_dec, hour_angle)
    if altitude <= 0.0:
        raise ScenarioInfeasible("sun is below the horizon at this hour angle")

    # almucantar grid h = 0, step, ..., 90 - step
    step = cfg.almucantar_step
    grid = np.array([k * step for k in range(int(round(90.0 / step)))], dtype=float)
    sols = [almucantar_solution(phi, h, s) for h in grid]
    if altitude >= float(grid[-1]):
        raise ScenarioInfeasible(f"sun altitude {altitude:.2f} is above the last "
                                 f"engraved almucantar ({grid[-1]:.0f})")
    if scenario == "time_to_sunset":
        if math.tan(math.radians(phi)) * abs(math.tan(math.radians(sun_dec))) >= 1.0:
            raise ScenarioInfeasible("the sun never sets at this configuration")
        if not (0.0 < hour_angle < 180.0):
            raise ValueError("time_to_sunset expects an afternoon hour angle in (0, 180)")

    # one row of draws per trial, laid out as [alm cx, cy, dr] * n, horizon
    # cx, cy, dr, graduation angles 3 x 13, hour-circle cx, cy, dr x 11;
    # row 0 is all zeros and reads the unperturbed plate
    n = len(grid)
    draws = np.zeros((n_trials + 1, 3 * n + 3 + 39 + 33))
    for i in range(n_trials):
        draws[i + 1] = np.random.default_rng([pert.seed, i]).normal(size=draws.shape[1])
    sc, sr = pert.center_sigma, pert.radius_sigma
    cx = sc * draws[:, :n]
    cy = np.array([m.y_center for m in sols]) + sc * draws[:, n : 2 * n]
    r = np.array([m.radius for m in sols]) + sr * draws[:, 2 * n : 3 * n]
    if scenario == "altitude":
        sun = from_plate_polar(stereographic_radius(sun_dec, s), hour_angle)
        read = _read_altitude(sun.x, sun.y, grid, cx, cy, r)
    else:
        read = _read_sunset_hours(cfg, pert, sun_dec, altitude, grid, cx, cy, r,
                                  draws[:, 3 * n :])

    arr = read[1:] - read[0]
    return ErrorReport(mean=float(arr.mean()), std=float(arr.std()),
                       max_abs=float(np.abs(arr).max()), n_trials=n_trials,
                       classification="ok", samples=tuple(arr.tolist()))
