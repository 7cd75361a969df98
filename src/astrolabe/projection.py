"""Axis-viewpoint projections of the celestial sphere onto the
equatorial plane.

The sphere has unit radius with the north celestial pole at +z.  A
projection in this family looks from the axis point (0, 0, v) onto the
plane z = 1, with v != 1.  Presets:

* stereographic: v = -1 (south pole).  The classical astrolabe
  projection; the only member that maps every circle to a circle.
* gnomonic: v = 0 (center).
* external(q): v = -q with q > 1.
* orthographic: viewpoint at infinity, handled analytically.

Coordinates on the sphere are declination (degrees, +90 at the north
pole) and hour angle (degrees).  On the plate the +y axis points toward
the projection of the zenith's meridian and polar angle is measured
clockwise from +y, so a point at normalized radius r and hour angle H
lands at (r*sin H, r*cos H).

Radii are normalized so declination 0 maps to radius `scale` whenever
the viewpoint is off-center.  For the gnomonic member the equator
itself projects to infinity, so no such normalization exists; its
radius is the signed tangent-plane form scale*cos(dec)/sin(dec), where
a negative value marks the antipodal branch of the projecting ray, and
|r| = scale*tan(90 - dec).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exceptions import DomainError
from .geometry import FitResult, PlanePoint, fit_circle

# a projecting ray closer than this to parallel with the plane is rejected
DENOM_MIN = 1e-12

# ecliptic obliquity, degrees: the default of every face and of the CLI
OBLIQUITY = 23.44


def _check_dec(dec: float) -> None:
    if not (-90.0 <= dec <= 90.0):
        raise ValueError(f"declination must lie in [-90, 90], got {dec!r}")


@dataclass(frozen=True)
class SpherePoint:
    """A point on the celestial sphere: declination and hour angle, degrees.

    Hour angle is normalized into [0, 360)."""

    dec: float
    hour_angle: float

    def __post_init__(self):
        _check_dec(self.dec)
        if not math.isfinite(self.hour_angle):
            raise ValueError(f"non-finite hour angle: {self.hour_angle!r}")
        object.__setattr__(self, "hour_angle", self.hour_angle % 360.0)


@dataclass(frozen=True)
class SphereCircleSpec:
    """A circle on the sphere: its pole and angular radius (degrees)."""

    pole_dec: float
    pole_ha: float
    angular_radius: float

    def __post_init__(self):
        _check_dec(self.pole_dec)
        if not (0.0 < self.angular_radius <= 90.0):
            raise ValueError(
                f"angular radius must lie in (0, 90], got {self.angular_radius!r}"
            )


@dataclass(frozen=True)
class ProjectionKind:
    """Viewpoint (0, 0, v) projecting onto the plane z = 1, v != 1.

    The orthographic limit is encoded as viewpoint_v = -inf.
    """

    viewpoint_v: float

    def __post_init__(self):
        if math.isnan(self.viewpoint_v):
            raise ValueError("projection parameters must not be NaN")
        if self.viewpoint_v == 1.0:
            raise ValueError("viewpoint must not lie on the projection plane")

    @classmethod
    def stereographic(cls) -> "ProjectionKind":
        return cls(viewpoint_v=-1.0)

    @classmethod
    def gnomonic(cls) -> "ProjectionKind":
        return cls(viewpoint_v=0.0)

    @classmethod
    def external(cls, q: float) -> "ProjectionKind":
        if not (q > 1.0 and math.isfinite(q)):
            raise ValueError(f"external viewpoint needs q > 1, got {q!r}")
        return cls(viewpoint_v=-q)

    @classmethod
    def orthographic(cls) -> "ProjectionKind":
        return cls(viewpoint_v=-math.inf)

    @property
    def is_orthographic(self) -> bool:
        return math.isinf(self.viewpoint_v)


STEREOGRAPHIC = ProjectionKind.stereographic()


def axis_projection_radius(dec: float, kind: ProjectionKind, scale: float) -> float:
    """Plate radius of the declination-dec parallel under the given
    projection, normalized so dec=0 maps to `scale` (see module notes
    for the gnomonic exception).  Raises DomainError when the parallel's
    projecting rays run parallel to the plane.
    """
    _check_dec(dec)
    if scale <= 0.0:
        raise ValueError(f"scale must be positive, got {scale!r}")
    d = math.radians(dec)
    sind, cosd = math.sin(d), math.cos(d)
    if kind.is_orthographic:
        return scale * cosd
    v = kind.viewpoint_v
    if v == 0.0:
        if abs(sind) < DENOM_MIN:
            raise DomainError(
                "gnomonic projection is undefined on the equator (dec = 0)"
            )
        return scale * cosd / sind
    den = sind - v
    if abs(den) < DENOM_MIN:
        raise DomainError(
            f"projection undefined at dec = {dec}: ray parallel to the plane"
        )
    return scale * (-v) * cosd / den


def stereographic_radius(dec: float, scale: float) -> float:
    """Stereographic plate radius: scale * tan(45 deg - dec/2)."""
    return axis_projection_radius(dec, STEREOGRAPHIC, scale)


def from_plate_polar(radius: float, angle_deg: float) -> PlanePoint:
    """Plate point at the given radius and plate angle (degrees,
    clockwise from +y): (r*sin, r*cos)."""
    a = math.radians(angle_deg)
    return PlanePoint(radius * math.sin(a), radius * math.cos(a))


def plate_angle_deg(p: PlanePoint) -> float:
    """Plate angle of a point (degrees clockwise from +y, in [0, 360))."""
    return math.degrees(math.atan2(p.x, p.y)) % 360.0


def project_point(p: SpherePoint, scale: float) -> PlanePoint:
    """Stereographic image of a sphere point in plate coordinates."""
    return from_plate_polar(stereographic_radius(p.dec, scale), p.hour_angle)


def unproject_point(p: PlanePoint, scale: float) -> SpherePoint:
    """Inverse of project_point, back to declination / hour angle."""
    if scale <= 0.0:
        raise ValueError(f"scale must be positive, got {scale!r}")
    r = math.hypot(p.x, p.y)
    dec = 90.0 - 2.0 * math.degrees(math.atan(r / scale))
    ha = math.degrees(math.atan2(p.x, p.y)) % 360.0
    return SpherePoint(dec, ha)


def _unit_vector(dec_rad: float, ha_rad: float) -> tuple[float, float, float]:
    # 3D frame with x, y components aligned to the plate axes: x at H=90, y at H=0
    return (
        math.cos(dec_rad) * math.sin(ha_rad),
        math.cos(dec_rad) * math.cos(ha_rad),
        math.sin(dec_rad),
    )


def sample_sphere_circle(spec: SphereCircleSpec, n: int) -> list[SpherePoint]:
    """n points equally spaced (in arc) around the sphere circle.

    The walk starts where the circle crosses the pole's own meridian on
    the southward side and advances toward increasing hour angle.  A
    great circle around the celestial pole with n divisible by 4
    therefore samples the cardinal hour angles exactly.
    """
    if n < 3:
        raise ValueError(f"need at least 3 samples, got {n}")
    rho = math.radians(spec.angular_radius)
    dp = math.radians(spec.pole_dec)
    hp = math.radians(spec.pole_ha)
    px, py, pz = _unit_vector(dp, hp)
    # southward meridian tangent and eastward tangent at the pole
    sx, sy, sz = math.sin(dp) * math.sin(hp), math.sin(dp) * math.cos(hp), -math.cos(dp)
    ex, ey = math.cos(hp), -math.sin(hp)
    cr, sr = math.cos(rho), math.sin(rho)
    out = []
    for k in range(n):
        u = 2.0 * math.pi * k / n
        cu, su = math.cos(u), math.sin(u)
        vx = cr * px + sr * (cu * sx + su * ex)
        vy = cr * py + sr * (cu * sy + su * ey)
        vz = cr * pz + sr * (cu * sz)
        dec = math.degrees(math.asin(max(-1.0, min(1.0, vz))))
        ha = math.degrees(math.atan2(vx, vy)) % 360.0
        out.append(SpherePoint(dec, ha))
    return out


def circle_image_residual(
    spec: SphereCircleSpec, kind: ProjectionKind, n: int, scale: float
) -> FitResult:
    """Fit a plane circle to the projected samples of a sphere circle.

    Under the stereographic member the image is an exact circle and the
    residual vanishes to machine precision; every other member breaks
    circle preservation and the residual is the measure of that failure.
    Raises DomainError if any sample is outside the projection's domain.
    """
    pts = sample_sphere_circle(spec, n)
    plane = []
    for sp in pts:
        r = axis_projection_radius(sp.dec, kind, scale)
        h = math.radians(sp.hour_angle)
        plane.append(PlanePoint(r * math.sin(h), r * math.cos(h)))
    return fit_circle(plane)
