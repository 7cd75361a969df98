"""
Why the stereographic projection, and not another one
=====================================================

Every perspective projection from a point on the polar axis maps the
sphere to the plane, but only the stereographic one (viewpoint on the
sphere itself) sends every circle to a circle.  This demo measures the
damage the alternatives do to the ecliptic.
"""

import random
import statistics

from astrolabe import (
    ProjectionKind,
    SphereCircleSpec,
    circle_image_residual,
)
from astrolabe.exceptions import CollinearPoints, DomainError

scale = 100.0
obliquity = 23.44

# The ecliptic is a great circle inclined to the equator; its pole sits
# at declination 90 - obliquity.
ecliptic = SphereCircleSpec(90.0 - obliquity, 0.0, 90.0)

print("best-fit-circle rms residual of the projected ecliptic (mm):")
kinds = [
    ("stereographic", ProjectionKind.stereographic()),
    ("external q=2", ProjectionKind.external(2.0)),
    ("external q=5.5", ProjectionKind.external(5.5)),
    ("orthographic", ProjectionKind.orthographic()),
]
for name, kind in kinds:
    fit = circle_image_residual(ecliptic, kind, 360, scale)
    print(f"  {name:15s} {fit.rms_residual:12.6f}")

# The gnomonic projection (viewpoint at the center) flattens every
# great circle into a straight line; a circle fit cannot even start.
try:
    circle_image_residual(ecliptic, ProjectionKind.gnomonic(), 359, scale)
except CollinearPoints as exc:
    print(f"  {'gnomonic':15s} image is a straight line ({exc})")
try:
    circle_image_residual(ecliptic, ProjectionKind.gnomonic(), 360, scale)
except DomainError as exc:
    print(f"  {'gnomonic':15s} n=360 samples the nodes: {exc}")

# Random small circles tell the same story: stereographic residuals are
# numerical zero, everything else is structurally bent.
rng = random.Random(7)
print("\nmedian rms residual over 200 random sphere circles (mm):")
for name, kind in kinds:
    residuals = []
    made = 0
    while made < 200:
        pole_dec = rng.uniform(-60.0, 90.0)
        radius = rng.uniform(5.0, 60.0)
        if (90.0 + pole_dec) - radius < 2.0:
            continue
        spec = SphereCircleSpec(pole_dec, rng.uniform(0.0, 360.0), radius)
        try:
            residuals.append(circle_image_residual(spec, kind, 72, scale).rms_residual)
        except DomainError:
            continue
        made += 1
    print(f"  {name:15s} {statistics.median(residuals):14.3e}")
