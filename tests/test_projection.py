"""Axis-viewpoint projection family: stereographic exactness, the
failure of circle preservation for every other member, and the sphere
sampling frame."""

import math

import numpy as np
import pytest

from astrolabe import (
    STEREOGRAPHIC,
    CollinearPoints,
    DomainError,
    PlanePoint,
    ProjectionKind,
    SphereCircleSpec,
    SpherePoint,
    axis_projection_radius,
    circle_image_residual,
    fit_circle,
    from_plate_polar,
    plate_angle_deg,
    project_point,
    sample_sphere_circle,
    stereographic_radius,
    unproject_point,
)

S = 100.0


def ray_plane_radius(dec_deg, v, scale):
    """Independent oracle: intersect the ray from the viewpoint
    (0, 0, v * scale) through the sphere point with the plane z = 0."""
    d = math.radians(dec_deg)
    x = np.array([math.cos(d), 0.0, math.sin(d)]) * scale
    vp = np.array([0.0, 0.0, v * scale])
    t = vp[2] / (vp[2] - x[2])  # parameter where the ray reaches z = 0
    image = vp + t * (x - vp)
    r = math.hypot(image[0], image[1])
    return r if image[0] >= 0.0 else -r


def sphere_vec(p: SpherePoint):
    d = math.radians(p.dec)
    h = math.radians(p.hour_angle)
    return np.array(
        [math.cos(d) * math.sin(h), math.cos(d) * math.cos(h), math.sin(d)]
    )


def test_stereographic_closed_form_values():
    # r = S tan(45 - dec/2): equator at S, pole at 0, tropics by formula
    assert stereographic_radius(0.0, S) == pytest.approx(S, rel=1e-15)
    assert stereographic_radius(90.0, S) == pytest.approx(0.0, abs=1e-12)
    assert stereographic_radius(-23.44, S) == pytest.approx(
        S * math.tan(math.radians(45.0 + 23.44 / 2.0)), rel=1e-15
    )
    assert stereographic_radius(-23.44, S) == pytest.approx(152.3513, abs=1e-4)


def test_stereographic_matches_ray_oracle():
    rng = np.random.default_rng(5)
    for dec in rng.uniform(-80.0, 90.0, size=300):
        want = ray_plane_radius(float(dec), -1.0, S)
        assert stereographic_radius(float(dec), S) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_family_members_match_ray_oracle():
    rng = np.random.default_rng(9)
    kinds = [
        (ProjectionKind.stereographic(), -1.0),
        (ProjectionKind.external(2.0), -2.0),
        (ProjectionKind.external(5.5), -5.5),
    ]
    for kind, v in kinds:
        for dec in rng.uniform(-60.0, 90.0, size=100):
            want = ray_plane_radius(float(dec), v, S)
            got = axis_projection_radius(float(dec), kind, S)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-9)


def test_gnomonic_signed_tangent_form():
    # viewpoint at the center: r = S cos(dec) / sin(dec)
    for dec in (-23.44, -45.0, 30.0, 66.56, 89.0):
        want = S * math.cos(math.radians(dec)) / math.sin(math.radians(dec))
        got = axis_projection_radius(dec, ProjectionKind.gnomonic(), S)
        assert got == pytest.approx(want, rel=1e-14)
    assert axis_projection_radius(-23.44, ProjectionKind.gnomonic(), S) == pytest.approx(
        -230.6444564, abs=1e-6
    )


def test_gnomonic_equator_raises():
    with pytest.raises(DomainError):
        axis_projection_radius(0.0, ProjectionKind.gnomonic(), S)


def test_stereographic_south_pole_raises():
    # the projection point itself has no image
    with pytest.raises(DomainError):
        axis_projection_radius(-90.0, ProjectionKind.stereographic(), S)


def test_orthographic_analytic_radius():
    kind = ProjectionKind.orthographic()
    assert kind.is_orthographic
    for dec in np.linspace(-89.0, 90.0, 180):
        assert axis_projection_radius(float(dec), kind, S) == pytest.approx(
            S * math.cos(math.radians(dec)), rel=1e-14, abs=1e-12
        )


def test_external_converges_to_orthographic():
    far = ProjectionKind.external(1e6)
    ortho = ProjectionKind.orthographic()
    for dec in np.arange(-89.0, 90.0 + 0.5, 1.0):
        a = axis_projection_radius(float(dec), far, S)
        b = axis_projection_radius(float(dec), ortho, S)
        assert abs(a - b) < 1e-4 * S


def test_family_stereographic_member_matches_closed_form():
    kind = ProjectionKind.stereographic()
    for dec in np.arange(-89.9 + 0.1, 90.0 + 0.05, 0.1):
        a = axis_projection_radius(float(dec), kind, S)
        b = stereographic_radius(float(dec), S)
        assert a == pytest.approx(b, rel=1e-12)


def test_stereographic_radius_monotone_in_declination():
    decs = np.linspace(-89.9, 90.0, 1800)
    rs = [stereographic_radius(float(d), S) for d in decs]
    assert all(r1 > r2 for r1, r2 in zip(rs, rs[1:]))


def test_projection_kind_validation():
    with pytest.raises(ValueError, match="must not lie on the projection plane"):
        ProjectionKind(1.0)  # viewpoint on the plane z = 1
    with pytest.raises(ValueError, match="must not be NaN"):
        ProjectionKind(float("nan"))
    with pytest.raises(ValueError):
        ProjectionKind.external(1.0)  # must be outside the sphere
    with pytest.raises(ValueError):
        ProjectionKind.external(0.5)


def test_sphere_point_validation():
    with pytest.raises(ValueError):
        SpherePoint(91.0, 0.0)
    p = SpherePoint(10.0, 725.0)
    assert p.hour_angle == pytest.approx(5.0)
    with pytest.raises(ValueError):
        SphereCircleSpec(90.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        SphereCircleSpec(90.0, 0.0, 90.1)


def test_project_unproject_round_trip():
    rng = np.random.default_rng(17)
    for _ in range(300):
        dec = float(rng.uniform(-75.0, 89.9))
        ha = float(rng.uniform(0.0, 360.0))
        p = project_point(SpherePoint(dec, ha), S)
        back = unproject_point(p, S)
        assert back.dec == pytest.approx(dec, abs=1e-10)
        assert back.hour_angle == pytest.approx(ha, abs=1e-9) or abs(
            back.hour_angle - ha
        ) == pytest.approx(360.0, abs=1e-9)


def test_plate_polar_frame():
    # plate angle measured clockwise from +y when seen with +x east
    p = from_plate_polar(10.0, 0.0)
    assert (p.x, p.y) == pytest.approx((0.0, 10.0), abs=1e-12)
    p = from_plate_polar(10.0, 90.0)
    assert (p.x, p.y) == pytest.approx((10.0, 0.0), abs=1e-12)
    rng = np.random.default_rng(3)
    for _ in range(100):
        r = float(rng.uniform(0.1, 50.0))
        a = float(rng.uniform(0.0, 360.0))
        q = from_plate_polar(r, a)
        assert plate_angle_deg(q) == pytest.approx(a, abs=1e-9) or abs(
            plate_angle_deg(q) - a
        ) == pytest.approx(360.0, abs=1e-9)


def test_sample_polar_circle_lands_on_cardinal_hours():
    spec = SphereCircleSpec(90.0, 0.0, 90.0)
    pts = sample_sphere_circle(spec, 4)
    assert [p.dec for p in pts] == pytest.approx([0.0, 0.0, 0.0, 0.0], abs=1e-12)
    assert [p.hour_angle for p in pts] == pytest.approx([0.0, 90.0, 180.0, 270.0], abs=1e-9)


def test_samples_lie_on_the_spherical_circle():
    rng = np.random.default_rng(29)
    for _ in range(60):
        pole = SpherePoint(float(rng.uniform(-89.0, 89.0)), float(rng.uniform(0.0, 360.0)))
        rho = float(rng.uniform(1.0, 90.0))
        pts = sample_sphere_circle(SphereCircleSpec(pole.dec, pole.hour_angle, rho), 36)
        assert len(pts) == 36
        pv = sphere_vec(pole)
        for q in pts:
            ang = math.degrees(math.acos(np.clip(np.dot(pv, sphere_vec(q)), -1.0, 1.0)))
            assert ang == pytest.approx(rho, abs=1e-9)


def test_stereographic_preserves_random_circles():
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(200):
        pole_dec = float(rng.uniform(-89.0, 90.0))
        pole_ha = float(rng.uniform(0.0, 360.0))
        # keep every sample at least 1 degree from the south pole
        rho_max = min(90.0, 89.0 + pole_dec)
        if rho_max <= 1.0:
            continue
        rho = float(rng.uniform(1.0, rho_max))
        fit = circle_image_residual(
            SphereCircleSpec(pole_dec, pole_ha, rho), STEREOGRAPHIC, 90, S
        )
        worst = max(worst, fit.rms_residual)
    assert worst < 1e-9 * S


def test_non_stereographic_members_break_circles():
    # the ecliptic is the acid test: an inclined great circle
    ecliptic = SphereCircleSpec(90.0 - 23.44, 0.0, 90.0)
    ext = circle_image_residual(ecliptic, ProjectionKind.external(2.0), 360, S)
    orth = circle_image_residual(ecliptic, ProjectionKind.orthographic(), 360, S)
    assert ext.rms_residual == pytest.approx(2.290455, abs=1e-4)
    assert orth.rms_residual == pytest.approx(2.917117, abs=1e-4)
    assert ext.rms_residual > 1e-3 * S
    assert orth.rms_residual > 1e-3 * S


def test_gnomonic_ecliptic_image_degenerates_to_a_line():
    ecliptic = SphereCircleSpec(90.0 - 23.44, 0.0, 90.0)
    # n divisible by 4 hits the nodes (dec = 0), outside the gnomonic domain
    with pytest.raises(DomainError):
        circle_image_residual(ecliptic, ProjectionKind.gnomonic(), 360, S)
    # avoiding the nodes, the image of a great circle is exactly straight
    with pytest.raises(CollinearPoints):
        circle_image_residual(ecliptic, ProjectionKind.gnomonic(), 359, S)


def test_gnomonic_near_great_circle_residual_is_large_and_finite():
    near = SphereCircleSpec(90.0 - 23.44, 0.0, 89.0)
    fit = circle_image_residual(near, ProjectionKind.gnomonic(), 359, S)
    assert math.isfinite(fit.rms_residual)
    assert fit.rms_residual > 1e-3 * S


def test_circle_image_residual_projects_with_requested_kind():
    # concentric declination circles stay circular under every member;
    # the residual must be machine zero for them regardless of kind
    spec = SphereCircleSpec(90.0, 0.0, 50.0)
    for kind in (STEREOGRAPHIC, ProjectionKind.external(3.0), ProjectionKind.orthographic()):
        fit = circle_image_residual(spec, kind, 72, S)
        assert fit.rms_residual < 1e-9 * S
