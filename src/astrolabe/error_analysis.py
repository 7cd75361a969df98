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
errors and replays an instrument readout against the unperturbed replay
of the same pipeline, so a zero-sigma run reports exactly zero error and
the hour-curve approximation itself (negligible by construction) never
contaminates the statistics.  Trial i draws from
numpy.random.default_rng([seed, i]), so a longer run starts with the
trials of a shorter one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import CollinearPoints, ScenarioInfeasible
from .geometry import (
    Circle,
    PlanePoint,
    chord_length,
    circle_circle_intersection,
    circumcircle,
    divide_arc_equal,
    normalize_angle,
)
from .plate import PlateConfig, almucantar_solution, night_arc, tropic_circles
from .projection import from_plate_polar, plate_angle_deg, stereographic_radius

SCENARIOS = ("time_to_sunset", "altitude")


@dataclass(frozen=True)
class AlidadeSpec:
    """An alidade: length (mm), sight-vane angular offset (radians), and
    rotation graduation error (unit chosen by the caller; the derived
    error keeps that unit)."""

    length: float
    offset_angle: float
    rotation: float

    def __post_init__(self):
        if self.length <= 0.0:
            raise ValueError(f"alidade length must be positive, got {self.length!r}")
        if self.offset_angle < 0.0 or self.rotation < 0.0:
            raise ValueError("alidade error magnitudes must be non-negative")


@dataclass(frozen=True)
class ArcErrorSpec:
    """Tangential (ds) and radial (dp) engraving offsets of an arc, mm."""

    ds: float
    dp: float

    def __post_init__(self):
        if self.ds < 0.0 or self.dp < 0.0:
            raise ValueError("offsets must be non-negative")


def alidade_offset_error(length: float, offset_angle: float) -> float:
    """Limb reading error from a sight-vane offset: length*delta/4 (mm
    when length is mm and delta radians)."""
    if length <= 0.0:
        raise ValueError(f"length must be positive, got {length!r}")
    if offset_angle < 0.0:
        raise ValueError(f"offset must be non-negative, got {offset_angle!r}")
    return length * offset_angle / 4.0


def alidade_rotation_error(rotation: float) -> float:
    """Limb reading error from a rotation graduation error: eps/4, in
    the unit eps was given in (pass-through)."""
    if rotation < 0.0:
        raise ValueError(f"rotation error must be non-negative, got {rotation!r}")
    return rotation / 4.0


def arc_displacement(ds: float, dp: float) -> float:
    """Total arc displacement from tangential and radial offsets."""
    return math.hypot(ds, dp)


def arc_displacement_angular(radius: float, dalpha: float, dp: float) -> float:
    """Arc displacement when the tangential term is an angular offset
    dalpha (radians) at engraving radius `radius`."""
    if radius <= 0.0:
        raise ValueError(f"radius must be positive, got {radius!r}")
    return math.hypot(radius * dalpha, dp)


def band_spacing(
    latitude: float, scale: float, altitude: float, band_step: float = 3.0
) -> float:
    """Meridian gap (mm) between the almucantar at `altitude` and the
    next band up, measured at the northern crossing."""
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

    Returns (displacement_mm, lands_on_band).  A displacement smaller
    than one band spacing keeps the reading on its true band.
    """
    sol = almucantar_solution(latitude, altitude, scale)
    displacement = abs(radius_error_fraction) * sol.radius
    m = 0
    while altitude + (m + 1) * band_step <= 90.0 - 1e-9:
        nxt = almucantar_solution(latitude, altitude + (m + 1) * band_step, scale)
        if abs(nxt.y_lower - sol.y_lower) <= displacement:
            m += 1
        else:
            break
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
    if tol < 0.0:
        raise ValueError(f"tolerance must be non-negative, got {tol!r}")
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


@dataclass(frozen=True)
class PerturbationSpec:
    """Gaussian engraving-noise magnitudes: circle center offset (mm per
    axis), radius offset (mm), hour graduation offset (degrees along the
    tropic), and the base RNG seed."""

    center_sigma: float = 0.0
    radius_sigma: float = 0.0
    graduation_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if min(self.center_sigma, self.radius_sigma, self.graduation_sigma) < 0.0:
            raise ValueError("sigmas must be non-negative")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True)
class ErrorReport:
    """Summary of a Monte Carlo readout-error run.  `samples` holds the
    per-trial signed errors in trial order."""

    mean: float
    std: float
    max_abs: float
    n_trials: int
    classification: str
    samples: tuple[float, ...]


def _sun_altitude(latitude: float, dec: float, hour_angle: float) -> float:
    la, d, h = (math.radians(v) for v in (latitude, dec, hour_angle))
    s = math.sin(la) * math.sin(d) + math.cos(la) * math.cos(d) * math.cos(h)
    return math.degrees(math.asin(max(-1.0, min(1.0, s))))


class _ReadoutEngine:
    """Precomputed geometry plus the per-trial perturbation replay."""

    def __init__(
        self,
        cfg: PlateConfig,
        pert: PerturbationSpec,
        scenario: str,
        sun_dec: float,
        true_hour_angle: float,
    ):
        self.cfg = cfg
        self.pert = pert
        self.scenario = scenario
        self.sun_dec = sun_dec
        self.hour_angle = true_hour_angle % 360.0

        phi, s = cfg.latitude, cfg.scale
        if abs(sun_dec) > cfg.obliquity + 1e-9:
            raise ValueError(
                f"sun declination {sun_dec} exceeds the obliquity {cfg.obliquity}"
            )
        self.altitude_true = _sun_altitude(phi, sun_dec, self.hour_angle)
        if self.altitude_true <= 0.0:
            raise ScenarioInfeasible("sun is below the horizon at this hour angle")
        self.sun_point = from_plate_polar(
            stereographic_radius(sun_dec, s), self.hour_angle
        )

        # almucantar grid h = 0, step, ..., 90 - step
        step = cfg.almucantar_step
        self.grid = np.array(
            [k * step for k in range(int(round(90.0 / step)))], dtype=float
        )
        sols = [almucantar_solution(phi, h, s) for h in self.grid]
        self.grid_cy = np.array([m.y_center for m in sols])
        self.grid_r = np.array([m.radius for m in sols])
        if self.altitude_true >= float(self.grid[-1]):
            raise ScenarioInfeasible(
                f"sun altitude {self.altitude_true:.2f} is above the last "
                f"engraved almucantar ({self.grid[-1]:.0f})"
            )
        self.horizon = sols[0].circle

        self.n_grid = len(self.grid)
        # draw layout per trial: [alm cx,cy,dr]*n_grid, horizon cx,cy,dr,
        # graduation angles 3x13, hour-circle cx,cy,dr x 11
        self.n_draws = 3 * self.n_grid + 3 + 39 + 33

        if scenario == "time_to_sunset":
            if math.tan(math.radians(phi)) * abs(
                math.tan(math.radians(sun_dec))
            ) >= 1.0:
                raise ScenarioInfeasible("the sun never sets at this configuration")
            if not (0.0 < self.hour_angle < 180.0):
                raise ValueError(
                    "time_to_sunset expects an afternoon hour angle in (0, 180)"
                )
            self.tropics = tropic_circles(cfg)
            self.division_angles = []
            for c in self.tropics:
                arc = night_arc(c, self.horizon)
                sweep = arc.sweep
                self.division_angles.append(
                    [arc.start_angle + sweep * k / 12.0 for k in range(13)]
                )
            r_opp = stereographic_radius(-sun_dec, s)
            self.opp_circle = Circle(PlanePoint(0.0, 0.0), r_opp)
            # expected boundary crossings guide the intersection pick
            guide = divide_arc_equal(night_arc(self.opp_circle, self.horizon), 12)
            self.guide_points = guide

    # ---- perturbation replay -------------------------------------------

    def _draws(self, trial: int) -> np.ndarray:
        rng = np.random.default_rng([self.pert.seed, trial])
        return rng.normal(size=self.n_draws)

    def _zero_draws(self) -> np.ndarray:
        return np.zeros(self.n_draws)

    def _field(self, draws: np.ndarray):
        """Perturbed almucantar grid: center x, center y, radius arrays."""
        sc, sr = self.pert.center_sigma, self.pert.radius_sigma
        n = self.n_grid
        cx = sc * draws[0:n]
        cy = self.grid_cy + sc * draws[n : 2 * n]
        r = self.grid_r + sr * draws[2 * n : 3 * n]
        return cx, cy, r

    def _horizon_circle(self, draws: np.ndarray) -> Circle:
        sc, sr = self.pert.center_sigma, self.pert.radius_sigma
        base = 3 * self.n_grid
        return Circle(
            PlanePoint(
                self.horizon.center.x + sc * draws[base],
                self.horizon.center.y + sc * draws[base + 1],
            ),
            self.horizon.radius + sr * draws[base + 2],
        )

    def _read_altitude(self, point: PlanePoint, draws: np.ndarray) -> float:
        """Altitude read from the perturbed almucantar field by locating
        the interpolated circle passing through `point`.

        Between grid nodes k and k+1 the interpolated center c(t) and
        radius r(t) are linear in t in [0, 1], so F(t) = |p - c(t)|^2 -
        r(t)^2 is a quadratic.  Radii are positive, so F has the sign of
        |p - c| - r at the nodes; on the first bracket where that sign
        goes from <= 0 to >= 0, F rises through zero exactly once.
        """
        cx, cy, r = self._field(draws)
        values = np.hypot(point.x - cx, point.y - cy) - r
        rising = np.flatnonzero((values[:-1] <= 0.0) & (values[1:] >= 0.0))
        if not rising.size:
            raise ScenarioInfeasible(
                "the sighted point falls outside the readable altitude bands"
            )
        k = int(rising[0])
        if values[k] == 0.0:
            return float(self.grid[k])
        dx, dy = point.x - cx[k], point.y - cy[k]
        ddx, ddy, dr = cx[k + 1] - cx[k], cy[k + 1] - cy[k], r[k + 1] - r[k]
        a = ddx * ddx + ddy * ddy - dr * dr
        b = -2.0 * (dx * ddx + dy * ddy + r[k] * dr)
        c = dx * dx + dy * dy - r[k] * r[k]
        q = -0.5 * (b + math.copysign(math.sqrt(max(b * b - 4.0 * a * c, 0.0)), b))
        # F rises through zero at (-b + sqrt(disc)) / 2a: q/a when q > 0, else c/q
        t = q / a if q > 0.0 else c / q
        h0, h1 = self.grid[k], self.grid[k + 1]
        return float(h0 + min(max(t, 0.0), 1.0) * (h1 - h0))

    def _hour_crossings(self, draws: np.ndarray) -> list[float]:
        """Plate angles of the 13 hour boundaries on the opposite-
        declination circle, under perturbed graduation and arcs."""
        sg = math.radians(self.pert.graduation_sigma)
        sc, sr = self.pert.center_sigma, self.pert.radius_sigma
        base_g = 3 * self.n_grid + 3
        base_c = base_g + 39
        horizon_p = self._horizon_circle(draws)

        crossings = [0.0] * 13
        pts = circle_circle_intersection(self.opp_circle, horizon_p)
        if len(pts) < 2:
            raise ScenarioInfeasible("perturbed horizon misses the sun's circle")
        crossings[0] = plate_angle_deg(max(pts, key=lambda p: p.x))
        crossings[12] = plate_angle_deg(min(pts, key=lambda p: p.x))

        for k in range(1, 12):
            trio = []
            for c_idx, circ in enumerate(self.tropics):
                ang = self.division_angles[c_idx][k] + sg * draws[
                    base_g + 13 * c_idx + k
                ]
                trio.append(circ.point_at(ang))
            guide = self.guide_points[k]
            j = base_c + 3 * (k - 1)
            try:
                hc = circumcircle(*trio)
                hc = Circle(
                    PlanePoint(
                        hc.center.x + sc * draws[j],
                        hc.center.y + sc * draws[j + 1],
                    ),
                    hc.radius + sr * draws[j + 2],
                )
                pts = circle_circle_intersection(self.opp_circle, hc)
            except CollinearPoints:
                pts = self._line_circle(trio[0], trio[2])
            if not pts:
                raise ScenarioInfeasible(
                    f"hour boundary {k} misses the sun's circle after perturbation"
                )
            best = min(pts, key=lambda p: p.distance_to(guide))
            crossings[k] = plate_angle_deg(best)
        return crossings

    def _line_circle(self, a: PlanePoint, b: PlanePoint) -> tuple[PlanePoint, ...]:
        """Intersections of the line a-b with the opposite circle."""
        r = self.opp_circle.radius
        dx, dy = b.x - a.x, b.y - a.y
        qa = dx * dx + dy * dy
        qb = 2.0 * (a.x * dx + a.y * dy)
        qc = a.x * a.x + a.y * a.y - r * r
        disc = qb * qb - 4.0 * qa * qc
        if disc < 0.0:
            return ()
        sq = math.sqrt(disc)
        out = []
        for t in ((-qb - sq) / (2.0 * qa), (-qb + sq) / (2.0 * qa)):
            out.append(PlanePoint(a.x + t * dx, a.y + t * dy))
        return tuple(out)

    def _read_sunset_hours(self, draws: np.ndarray) -> float:
        """Unequal hours remaining until sunset, as read off the
        perturbed plate."""
        # place the rete: sun's date circle meets the almucantar of the
        # observed altitude; the western branch is the afternoon side
        cx, cy, r = self._field(draws)
        h = self.altitude_true
        alm = Circle(
            PlanePoint(
                float(np.interp(h, self.grid, cx)), float(np.interp(h, self.grid, cy))
            ),
            float(np.interp(h, self.grid, r)),
        )
        sun_circle = Circle(PlanePoint(0.0, 0.0), stereographic_radius(self.sun_dec, self.cfg.scale))
        pts = circle_circle_intersection(sun_circle, alm)
        if not pts:
            raise ScenarioInfeasible(
                "the observed altitude band misses the sun's circle"
            )
        west = max(pts, key=lambda p: p.x)
        theta_sun = plate_angle_deg(west)

        crossings = self._hour_crossings(draws)
        d = [(c - crossings[0]) % 360.0 for c in crossings]
        d[0] = 0.0
        theta_q = (theta_sun + 180.0 - crossings[0]) % 360.0

        # monotone repair is not attempted: perturbations small enough to
        # keep the boundaries ordered are the model's domain
        if any(d[i + 1] <= d[i] for i in range(12)):
            raise ScenarioInfeasible("perturbed hour boundaries are out of order")
        if theta_q <= d[0]:
            k = 0
        elif theta_q >= d[12]:
            k = 11
        else:
            k = max(i for i in range(12) if d[i] <= theta_q)
        dayhour = k + (theta_q - d[k]) / (d[k + 1] - d[k])
        return 12.0 - dayhour

    def _readout(self, draws: np.ndarray) -> float:
        if self.scenario == "altitude":
            return self._read_altitude(self.sun_point, draws)
        return self._read_sunset_hours(draws)

    def reference(self) -> float:
        return self._readout(self._zero_draws())

    def trial(self, index: int) -> float:
        return self._readout(self._draws(index))


def monte_carlo_readout(
    cfg: PlateConfig,
    pert: PerturbationSpec,
    scenario: str,
    sun_dec: float,
    true_hour_angle: float,
    n_trials: int,
) -> ErrorReport:
    """Readout-error statistics for an instrument engraved with Gaussian
    errors.

    Scenarios: "altitude" reads the sun's altitude band back from the
    perturbed almucantar grid; "time_to_sunset" reads the unequal hours
    remaining before sunset from the perturbed hour lines.  Per-trial
    errors are measured against the unperturbed replay of the same
    readout, so sigma = 0 reports exactly zero.  Trial i draws from its
    own (seed, i) stream, so the same seed gives bit-equal samples and a
    longer run starts with a shorter run's samples.  Raises
    ScenarioInfeasible when the scene cannot be set (sun below horizon,
    circumpolar sun, or a perturbation so large the readout loses its
    bracket).
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    if n_trials < 1:
        raise ValueError(f"need at least one trial, got {n_trials!r}")

    engine = _ReadoutEngine(cfg, pert, scenario, sun_dec, true_hour_angle)
    ref = engine.reference()

    arr = np.array([engine.trial(i) - ref for i in range(n_trials)], dtype=float)
    return ErrorReport(
        mean=float(arr.mean()),
        std=float(arr.std()),
        max_abs=float(np.abs(arr).max()),
        n_trials=n_trials,
        classification="ok",
        samples=tuple(float(v) for v in arr),
    )
