"""
The back: calendar, shadow square, and qibla bearings
=====================================================

The back face carries the observing and reckoning scales.  This walk
prints the calendar alignment, a noon-altitude table, a qibla table for
historical cities, and renders the assembled face.
"""

import math
from pathlib import Path

from astrolabe import (
    BackConfig,
    MECCA,
    RenderStyle,
    bearing_oracle,
    build_back,
    load_localities,
    midday_altitude,
    qibla_eq13,
    render_svg,
    solar_declination,
    solar_longitude,
)

HERE = Path(__file__).parent
OUT = HERE / "out"
OUT.mkdir(exist_ok=True)

# The calendar ring maps day of year to ecliptic longitude.  Check it
# against the cardinal events of the solar year.
print("solar events (day of year -> ecliptic longitude):")
for day, name in ((79.38, "march equinox"), (172.11, "june solstice"),
                  (265.76, "september equinox"), (355.63, "december solstice")):
    lam = solar_longitude(day)
    print(f"  day {day:6.2f}  {name:18s} longitude {lam:7.3f}")

# Noon altitude is latitude-complement plus declination; the engraved
# midday curve encodes this for the design latitude across the year.
latitude = 33.5130  # Damascus
print(f"\nnoon sun altitude at latitude {latitude:.2f}:")
for lam, season in ((270.0, "winter solstice"), (0.0, "equinox"), (90.0, "summer solstice")):
    dec = solar_declination(lam)
    print(f"  {season:16s} declination {dec:+7.3f}  altitude {midday_altitude(latitude, dec):7.3f}")

# The shadow square converts gnomon shadow lengths to altitudes: a
# 12-unit gnomon casting a 12-unit shadow means a 45-degree sun.
print("\nshadow square: shadow of a 12-unit gnomon at selected altitudes")
for parts in (4, 8, 12):
    print(f"  shadow {parts:2d} parts  ->  altitude {math.degrees(math.atan2(12.0, parts)):.2f}")

# Qibla: the engraved mark uses the great-circle bearing.  The closed
# tangent form is printed alongside; away from symmetric geometries it
# is not the same number, which is the point of keeping both routes.
cities = load_localities(HERE / "data" / "cities.csv")
print(f"\nqibla bearings toward {MECCA.name} (great circle vs closed tangent form):")
for city in cities:
    oracle = bearing_oracle(city, MECCA)
    closed = qibla_eq13(city)
    print(f"  {city.name:10s} lat {city.latitude:7.3f}  bearing {oracle:7.2f}  closed form {closed:7.2f}")

cfg = BackConfig(latitude=latitude, radius=150.0)
model = build_back(cfg, cities)
print(f"\nback model: 360 limb ticks (fixed), "
      f"{len(model.calendar_angles)} calendar ticks, {len(model.qibla_marks)} qibla marks")

svg = render_svg(model, RenderStyle())
target = OUT / "back_damascus.svg"
target.write_text(svg, encoding="utf-8")
print(f"wrote {target} ({len(svg)} bytes)")
