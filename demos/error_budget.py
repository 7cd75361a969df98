"""
How much does an engraving slip cost the observer
=================================================

Walks the error budget of a small instrument: single-arc displacement,
the altitude band a misengraved horizon sends a reading to, alidade
sighting terms, and a Monte Carlo sweep over engraving noise.
"""

import math

from astrolabe import (
    PerturbationSpec,
    PlateConfig,
    alidade_offset_error,
    alidade_rotation_error,
    arc_displacement,
    band_misassignment,
    band_spacing,
    monte_carlo_readout,
)

# A scribing slip has a tangential and a radial part; the point lands
# at the quadrature sum away from where it belongs.
print("arc displacement from a 0.3 mm tangential, 0.4 mm radial slip:")
print(f"  {arc_displacement(0.3, 0.4):.3f} mm")

# The worked example: a 150 mm instrument (75 mm plate radius) whose
# horizon radius comes out at 127.6 mm pins the design latitude.
scale = 75.0 / math.tan(math.radians(45.0 + 23.44 / 2.0))
latitude = math.degrees(math.asin(scale / 127.6))
print(f"\n150 mm instrument: equator scale {scale:.3f} mm, latitude {latitude:.3f}")

spacing = band_spacing(latitude, scale, 0.0, 3.0)
print(f"meridian gap between the 0 and 3 degree altitude bands: {spacing:.3f} mm")

for fraction in (0.005, 0.02, 0.05):
    displacement, band = band_misassignment(latitude, scale, 0.0, fraction, 3.0)
    print(f"  {fraction * 100:4.1f}% horizon radius error -> {displacement:.3f} mm, "
          f"reading lands on the {band:.0f} degree band")

# Alidade terms: a vane offset tilts the sighting line, a graduation
# slip shifts the read angle; both divide by four in the final reading.
print("\nalidade terms:")
print(f"  150 mm alidade, 0.02 rad vane offset -> {alidade_offset_error(150.0, 0.02):.3f} mm")
print(f"  0.4 degree graduation slip           -> {alidade_rotation_error(0.4, 'deg'):.3f} degrees")

# Monte Carlo: perturb circle centers, radii, and hour graduations, and
# read the time to sunset off the perturbed plate.  Noise in, hours out.
cfg = PlateConfig(latitude=40.0, scale=100.0)
print("\ntime-to-sunset readout error, 400 trials each (hours):")
print("  sigma_mm    mean      std      worst")
for sigma in (0.02, 0.05, 0.1, 0.2):
    pert = PerturbationSpec(center_sigma=sigma, radius_sigma=sigma,
                            graduation_sigma=sigma, seed=2026)
    report = monte_carlo_readout(cfg, pert, "time_to_sunset", -10.0, 45.0, 400)
    print(f"  {sigma:7.2f} {report.mean:+9.4f} {report.std:8.4f} {report.max_abs:9.4f}"
          f"   {report.classification}")

# The same run twice is bit-identical: the per-trial generator is keyed
# on (seed, trial index).
again = monte_carlo_readout(cfg, PerturbationSpec(0.1, 0.1, 0.1, 2026),
                            "time_to_sunset", -10.0, 45.0, 400)
base = monte_carlo_readout(cfg, PerturbationSpec(0.1, 0.1, 0.1, 2026),
                           "time_to_sunset", -10.0, 45.0, 400)
print(f"\nsecond run identical to the first: {again == base}")
