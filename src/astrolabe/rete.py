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

import functools
import math
import os
from collections.abc import Iterable

from .exceptions import DuplicateStarName, OutsidePlate, ParseError
from .geometry import Circle, Label, Lines, PlanePoint, _Record
from .projection import (DECLINATION, FINITE, OBLIQUITIES, OBLIQUITY, SCALE, from_plate_polar,
                         stereographic_radius)

# pointers at or beyond this fraction of the boundary radius are off-plate
_BOUNDARY_REL = 1.0 - 1e-12

# the signs of the zodiac, from longitude 0 in steps of 30 degrees
_SIGNS = (
    "Aries", "Taurus", "Gemini", "Cancer", "Leo", "Virgo",
    "Libra", "Scorpio", "Sagittarius", "Capricorn", "Aquarius", "Pisces",
)


class StarEntry(_Record):
    """Catalog row: name, right ascension and declination (degrees),
    visual magnitude.  RA is normalized into [0, 360)."""

    __slots__ = ("name", "ra", "dec", "magnitude")

    def __init__(self, name: str, ra: float, dec: float, magnitude: float):
        if not name:
            raise ValueError("star name must be non-empty")
        DECLINATION.check(dec, "declination")
        FINITE.check(ra, "right ascension")
        super().__init__(name, ra % 360.0, dec, magnitude)


class ReteModel(_Record):
    """The rete, every element it draws as `build_rete` computes it: the
    `ecliptic` ring; `zodiac_ticks`, one per whole degree of longitude
    (index = longitude), in from that longitude's point toward the ring's
    center, and `zodiac_labels`, the signs; `pointers` and `skipped`,
    (StarEntry, PlanePoint or reason) pairs, with one of `star_markers`
    and of `star_labels` per pointer; the `boundary`."""

    __slots__ = ("ecliptic", "zodiac_ticks", "zodiac_labels", "pointers", "star_markers",
                 "star_labels", "skipped", "boundary")


def ecliptic_circle(scale: float, obliquity: float) -> Circle:
    """The ecliptic ring: center (0, scale*tan eps), radius scale/cos eps."""
    SCALE.check(scale, "scale")
    OBLIQUITIES.check(obliquity, "obliquity")
    e = math.radians(obliquity)
    return Circle(PlanePoint(0.0, scale * math.tan(e)), scale / math.cos(e))


def _ecliptic_trig(longitude: float, obliquity: float) -> tuple[float, float, float, float]:
    """(cos dec, 1 + sin dec, sin a, cos a) of ecliptic longitude lambda
    (degrees), where dec = asin(sin eps * sin lambda) and the plate angle
    a = RA + 90 with RA = atan2(sin lambda * cos eps, cos lambda).  The
    point sits at r * (sin a, cos a) with the stereographic radius
    r = scale * cos dec / (1 + sin dec)."""
    lam = math.radians(longitude)
    e = math.radians(obliquity)
    dec = math.degrees(math.asin(max(-1.0, min(1.0, math.sin(e) * math.sin(lam)))))
    ra = math.degrees(math.atan2(math.sin(lam) * math.cos(e), math.cos(lam)))
    d, a = math.radians(dec), math.radians(ra + 90.0)
    return math.cos(d), math.sin(d) + 1.0, math.sin(a), math.cos(a)


@functools.lru_cache(maxsize=8)
def _zodiac_trig(obliquity: float) -> tuple[tuple[float, float, float, float], ...]:
    """_ecliptic_trig of each whole degree of longitude, computed once per obliquity."""
    return tuple(_ecliptic_trig(float(lam), obliquity) for lam in range(360))


def ecliptic_point(longitude: float, scale: float, obliquity: float) -> PlanePoint:
    """Plate position of ecliptic longitude lambda (degrees).

    Declination and right ascension follow from the obliquity rotation
    (dec = asin(sin eps * sin lambda), RA = atan2(sin lambda * cos eps,
    cos lambda)); the point lands on the ecliptic circle at plate angle
    RA + 90.
    """
    OBLIQUITIES.check(obliquity, "obliquity")
    SCALE.check(scale, "scale")
    FINITE.check(longitude, "longitude")
    cosd, den, sa, ca = _ecliptic_trig(longitude, obliquity)
    r = scale * cosd / den
    return PlanePoint(r * sa, r * ca)


def star_pointer(star: StarEntry, scale: float, obliquity: float) -> PlanePoint:
    """Pointer position for a star; raises OutsidePlate when its radius
    reaches the Capricorn boundary (dec <= -obliquity)."""
    OBLIQUITIES.check(obliquity, "obliquity")
    return _pointer(star, scale, stereographic_radius(-obliquity, scale))


def _pointer(star: StarEntry, scale: float, r_cap: float) -> PlanePoint:
    """star_pointer, given the Capricorn radius r_cap."""
    r = stereographic_radius(star.dec, scale)
    if r >= r_cap * _BOUNDARY_REL:
        raise OutsidePlate(
            f"star {star.name!r} at dec {star.dec} projects outside the "
            f"Capricorn boundary"
        )
    return from_plate_polar(r, star.ra)


def build_rete(
    catalog: Iterable[StarEntry], scale: float, obliquity: float = OBLIQUITY
) -> ReteModel:
    """Assemble the rete: ecliptic ring, its 360 one-degree zodiac ticks
    and 12 sign names, and one named pointer per catalog star.  Stars
    outside the boundary are skipped and reported, not fatal; duplicate
    names raise DuplicateStarName, and a scale outside SCALE_RANGE raises
    ValueError."""
    SCALE.check(scale, "scale")
    OBLIQUITIES.check(obliquity, "obliquity")
    r_cap = stereographic_radius(-obliquity, scale)
    stars = list(catalog)
    seen = set()
    for s in stars:
        if s.name in seen:
            raise DuplicateStarName(f"star {s.name!r} appears more than once")
        seen.add(s.name)

    ecliptic = ecliptic_circle(scale, obliquity)
    cx, cy = ecliptic.center.x, ecliptic.center.y
    ticks, labels = [], []
    # one tick per degree of longitude, from its point px, py toward the center
    for lam, (cosd, den, sa, ca) in enumerate(_zodiac_trig(obliquity)):
        r = scale * cosd / den
        px, py = r * sa, r * ca
        dx, dy = cx - px, cy - py
        norm = math.hypot(dx, dy)
        ln = 2.8 if lam % 30 == 0 else 1.2
        ticks += (px, py, px + dx / norm * ln, py + dy / norm * ln)
        if lam % 30 == 15:
            labels.append(Label(px + dx / norm * 7.0, py + dy / norm * 7.0, _SIGNS[lam // 30],
                                "middle"))

    pointers = []
    skipped = []
    for s in stars:
        try:
            pointers.append((s, _pointer(s, scale, r_cap)))
        except OutsidePlate as exc:
            skipped.append((s, str(exc)))

    return ReteModel(
        ecliptic=ecliptic,
        zodiac_ticks=Lines(tuple(ticks)),
        zodiac_labels=tuple(labels),
        pointers=tuple(pointers),
        star_markers=tuple(pt for _, pt in pointers),
        star_labels=tuple(Label(pt.x + 1.5, pt.y + 1.5, star.name, "start")
                          for star, pt in pointers),
        skipped=tuple(skipped),
        boundary=Circle(PlanePoint(0.0, 0.0), r_cap),
    )


def load_star_catalog(path: str | os.PathLike) -> list[StarEntry]:
    """Read a star catalog CSV (`name,ra_deg,dec_deg,mag`).

    Raises ParseError (with the offending 1-based line) on a bad header,
    wrong field count, or a non-numeric value.
    """
    return _load_csv(
        path, ("name", "ra_deg", "dec_deg", "mag"), "star catalog", StarEntry
    )


def _load_csv(path: str | os.PathLike, header: tuple, what: str, make) -> list:
    """Rows of a CSV file with the given header, each built as
    make(name, *numbers).  `#` lines and blank lines are skipped.

    Raises ParseError (with the offending 1-based line) on an empty file,
    a bad header, a wrong field count, a non-numeric value, or a row that
    `make` rejects with ValueError.
    """
    import csv

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
