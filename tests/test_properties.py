"""Property tests of the projection and the ecliptic over their whole
input domains.  Derandomized and without an example database, so every
run draws the same examples and writes nothing to disk."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from astrolabe import (
    ProjectionKind,
    SpherePoint,
    axis_projection_radius,
    ecliptic_circle,
    project_point,
    tropic_radii,
    unproject_point,
)
from test_projection import ray_plane_radius

S = 100.0

REPRODUCIBLE = settings(derandomize=True, database=None, deadline=None)

# viewpoints off the plane z = 1 and away from the center, where the
# gnomonic member takes its own tangent form
VIEWPOINTS = st.one_of(
    st.floats(-10.0, -0.05), st.floats(0.05, 0.95), st.floats(1.05, 10.0)
)


@REPRODUCIBLE
@given(v=VIEWPOINTS, dec=st.floats(-90.0, 90.0))
def test_axis_projection_matches_ray_oracle(v, dec):
    # the oracle projects onto z = 0; after normalization the plane drops out
    assume(abs(math.sin(math.radians(dec)) - v) >= 1e-3)
    got = axis_projection_radius(dec, ProjectionKind(v), S)
    assert got == pytest.approx(ray_plane_radius(dec, v, S), rel=1e-9)


@REPRODUCIBLE
@given(dec=st.floats(-89.0, 89.0), ha=st.floats(0.0, 360.0, exclude_max=True))
def test_project_unproject_round_trip(dec, ha):
    back = unproject_point(project_point(SpherePoint(dec, ha), S), S)
    assert back.dec == pytest.approx(dec, abs=1e-10)
    wrapped = (back.hour_angle - ha + 180.0) % 360.0 - 180.0
    assert wrapped == pytest.approx(0.0, abs=1e-9)


@REPRODUCIBLE
@given(
    obliquity=st.floats(0.0, 30.0, exclude_min=True, exclude_max=True),
    scale=st.floats(1.0, 1000.0),
)
def test_ecliptic_tangent_to_both_tropics(obliquity, scale):
    c = ecliptic_circle(scale, obliquity)
    r_cap, _, r_can = tropic_radii(scale, obliquity)
    assert c.center.y + c.radius == pytest.approx(r_cap, rel=1e-12)
    assert c.center.y - c.radius == pytest.approx(-r_can, rel=1e-12)
