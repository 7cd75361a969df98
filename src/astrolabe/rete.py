"""Rete geometry: the off-center ecliptic ring, its zodiac graduation,
and star pointers.

The ecliptic circle is tangent to both tropics on the meridian, giving
center (0, scale*tan eps) and radius scale/cos eps.  A longitude-lambda
point on it sits at plate angle (RA(lambda) + 90) mod 360, which puts
the solstitial colure on the vertical: lambda = 270 (Capricorn solstice)
at the top tangency (0, r_capricorn) and lambda = 90 at (0, -r_cancer).
Star pointers use plate angle = right ascension directly, so a star at
(ra 0, dec 0) engraves at (0, scale) on the equator ring.

Star catalogs are CSV files with header `name,ra_deg,dec_deg,mag`;
`#` lines and blank lines are skipped.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Union

from .exceptions import DuplicateStarName, OutsidePlate, ParseError
from .geometry import Circle, PlanePoint
from .plate import tropic_radii
from .projection import OBLIQUITY, from_plate_polar, stereographic_radius

# pointers at or beyond this fraction of the boundary radius are off-plate
_BOUNDARY_REL = 1.0 - 1e-12


@dataclass(frozen=True)
class StarEntry:
    """Catalog row: name, right ascension and declination (degrees),
    visual magnitude.  RA is normalized into [0, 360)."""

    name: str
    ra: float
    dec: float
    magnitude: float

    def __post_init__(self):
        if not self.name:
            raise ValueError("star name must be non-empty")
        if not (-90.0 <= self.dec <= 90.0):
            raise ValueError(f"declination must lie in [-90, 90], got {self.dec!r}")
        if not math.isfinite(self.ra):
            raise ValueError(f"non-finite right ascension: {self.ra!r}")
        object.__setattr__(self, "ra", self.ra % 360.0)


@dataclass(frozen=True)
class ZodiacTick:
    """Ecliptic graduation mark: longitude (deg), its plate position,
    and whether it opens a 30-degree sign."""

    longitude: float
    point: PlanePoint
    major: bool


@dataclass(frozen=True)
class ReteModel:
    ecliptic: Circle
    zodiac_ticks: tuple[ZodiacTick, ...]
    pointers: tuple[tuple[StarEntry, PlanePoint], ...]
    skipped: tuple[tuple[StarEntry, str], ...]
    boundary: Circle


def ecliptic_circle(scale: float, obliquity: float) -> Circle:
    """The ecliptic ring: center (0, scale*tan eps), radius scale/cos eps.
    Obliquity 0 degenerates gracefully to the equator circle."""
    if scale <= 0.0:
        raise ValueError(f"scale must be positive, got {scale!r}")
    if not (0.0 <= obliquity < 30.0):
        raise ValueError(f"obliquity must lie in [0, 30), got {obliquity!r}")
    e = math.radians(obliquity)
    return Circle(PlanePoint(0.0, scale * math.tan(e)), scale / math.cos(e))


def ecliptic_point(longitude: float, scale: float, obliquity: float) -> PlanePoint:
    """Plate position of ecliptic longitude lambda (degrees).

    Declination and right ascension follow from the obliquity rotation
    (dec = asin(sin eps * sin lambda), RA = atan2(sin lambda * cos eps,
    cos lambda)); the point lands on the ecliptic circle at plate angle
    RA + 90.
    """
    if not (0.0 <= obliquity < 30.0):
        raise ValueError(f"obliquity must lie in [0, 30), got {obliquity!r}")
    lam = math.radians(longitude)
    e = math.radians(obliquity)
    dec = math.degrees(math.asin(max(-1.0, min(1.0, math.sin(e) * math.sin(lam)))))
    ra = math.degrees(math.atan2(math.sin(lam) * math.cos(e), math.cos(lam)))
    return from_plate_polar(stereographic_radius(dec, scale), ra + 90.0)


def star_pointer(star: StarEntry, scale: float, obliquity: float) -> PlanePoint:
    """Pointer position for a star; raises OutsidePlate when its radius
    reaches the Capricorn boundary (dec <= -obliquity)."""
    r = stereographic_radius(star.dec, scale)
    r_cap, _, _ = tropic_radii(scale, obliquity)
    if r >= r_cap * _BOUNDARY_REL:
        raise OutsidePlate(
            f"star {star.name!r} at dec {star.dec} projects outside the "
            f"Capricorn boundary"
        )
    return from_plate_polar(r, star.ra)


def build_rete(
    catalog: Iterable[StarEntry], scale: float, obliquity: float = OBLIQUITY
) -> ReteModel:
    """Assemble the rete: ecliptic ring, 360 one-degree zodiac ticks
    (every 30th major), and one pointer per catalog star.  Stars outside
    the boundary are skipped and reported, not fatal; duplicate names
    raise DuplicateStarName."""
    stars = list(catalog)
    seen = set()
    for s in stars:
        if s.name in seen:
            raise DuplicateStarName(f"star {s.name!r} appears more than once")
        seen.add(s.name)

    ticks = tuple(
        ZodiacTick(float(lam), ecliptic_point(float(lam), scale, obliquity), lam % 30 == 0)
        for lam in range(360)
    )

    pointers = []
    skipped = []
    for s in stars:
        try:
            pointers.append((s, star_pointer(s, scale, obliquity)))
        except OutsidePlate as exc:
            skipped.append((s, str(exc)))

    r_cap, _, _ = tropic_radii(scale, obliquity)
    return ReteModel(
        ecliptic=ecliptic_circle(scale, obliquity),
        zodiac_ticks=ticks,
        pointers=tuple(pointers),
        skipped=tuple(skipped),
        boundary=Circle(PlanePoint(0.0, 0.0), r_cap),
    )


def load_star_catalog(path: Union[str, Path]) -> list[StarEntry]:
    """Read a star catalog CSV (`name,ra_deg,dec_deg,mag`).

    Raises ParseError (with the offending 1-based line) on a bad header,
    wrong field count, or a non-numeric value.
    """
    return _load_csv(
        path, ("name", "ra_deg", "dec_deg", "mag"), "star catalog", StarEntry
    )


def _load_csv(path: Union[str, Path], header: tuple, what: str, make) -> list:
    """Rows of a CSV file with the given header, each built as
    make(name, *numbers).  `#` lines and blank lines are skipped.

    Raises ParseError (with the offending 1-based line) on an empty file,
    a bad header, a wrong field count, a non-numeric value, or a row that
    `make` rejects with ValueError.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [
            (i + 1, line)
            for i, line in enumerate(fh)
            if line.strip() and not line.lstrip().startswith("#")
        ]
    if not lines:
        raise ParseError(f"{what} is empty")
    header_no, first = lines[0]
    if [c.strip().lower() for c in next(csv.reader([first]))] != list(header):
        raise ParseError(f"expected header {','.join(header)!r}", line=header_no)
    rows = []
    for line_no, raw in lines[1:]:
        fields = next(csv.reader([raw]))
        if len(fields) != len(header):
            raise ParseError(
                f"expected {len(header)} fields, got {len(fields)}", line=line_no
            )
        try:
            numbers = [float(v) for v in fields[1:]]
        except ValueError as exc:
            raise ParseError(f"non-numeric value: {exc}", line=line_no) from None
        try:
            rows.append(make(fields[0].strip(), *numbers))
        except ValueError as exc:
            raise ParseError(str(exc), line=line_no) from None
    return rows
