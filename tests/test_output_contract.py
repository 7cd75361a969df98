"""The output contract: one sha256 per face group over a fixed grid of
documents, compared with the committed tests/golden/output_contract.json.

The grid: 72 latitudes evenly spaced from 0.001 to 89.999, scales 37.5
and 100 mm, and (almucantar, azimuth) step pairs 1/1, 5/10, 10/15 and
0.75/1.2, at precision 4 with the mirror off and on.  Plate and rete
documents are drawn at every point (the rete from the demo catalog);
back and full documents, with the demo cities, at latitudes in
(23.94, 66.06), where every back face can be drawn.  Each group's hash
is over its documents in grid order.  Precision 9 is left out, because
a platform's libm can move a last digit there.

A change that alters document bytes on purpose rewrites the file with

    PYTHONPATH=src python tests/test_output_contract.py --write

and lists the groups that changed.  To compare two trees at any precision,
the precision-2 and precision-9 documents included, run

    PYTHONPATH=src python tests/test_output_contract.py --print 9

in each: it prints the group hashes of the grid drawn at that precision
and writes nothing.  To name the documents that differ,

    PYTHONPATH=src python tests/test_output_contract.py --list 9

prints one line per document, its sha256 and its grid key (face,
latitude, scale, steps, mirror); diff the two trees' lists.

The page test holds every plate of the grid, at precisions 2, 4 and 9,
to its own mirror image: its `mirror_ew` document draws the same rows.
"""

import hashlib
import itertools
import json
import math
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

from astrolabe import (
    BackConfig,
    PlateConfig,
    RenderStyle,
    build_back,
    build_plate,
    build_rete,
    load_localities,
    load_star_catalog,
    render_full,
    render_svg,
)

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = Path(__file__).resolve().parent / "golden" / "output_contract.json"
LATITUDES = [0.001 + k * (89.999 - 0.001) / 71 for k in range(72)]
SCALES = (37.5, 100.0)
STEPS = ((1.0, 1.0), (5.0, 10.0), (10.0, 15.0), (0.75, 1.2))
BACK_BAND = (23.94, 66.06)
OBLIQUITY = 23.44
PRECISION = 4


def grid_documents(precision: int = PRECISION):
    """Each document of the grid, in grid order, as ((face, latitude,
    scale, (almucantar_step, azimuth_step), mirror), document)."""
    catalog = load_star_catalog(ROOT / "demos" / "data" / "bright_stars.csv")
    cities = load_localities(ROOT / "demos" / "data" / "cities.csv")
    cap = math.tan(math.radians(45.0 + OBLIQUITY / 2.0))  # limb radius per unit of scale
    for mirror in (False, True):
        style = RenderStyle(precision=precision, mirror_ew=mirror)
        for scale in SCALES:
            rete = build_rete(catalog, scale, OBLIQUITY)
            for lat in LATITUDES:
                in_band = BACK_BAND[0] < lat < BACK_BAND[1]
                if in_band:
                    back = build_back(BackConfig(lat, scale * cap, OBLIQUITY), cities)
                for steps in STEPS:
                    plate = build_plate(PlateConfig(lat, scale, OBLIQUITY, *steps))
                    docs = {"plate": render_svg(plate, style), "rete": render_svg(rete, style)}
                    if in_band:
                        docs["back"] = render_svg(back, style)
                        docs["full"] = render_full(plate, rete, back, style)
                    for face, doc in docs.items():
                        yield (face, lat, scale, steps, mirror), doc


def contract_hashes(precision: int = PRECISION) -> dict:
    """{"<group> mirror <off|on>": sha256 of the group's documents}."""
    hashes = {}
    for (face, *_, mirror), doc in grid_documents(precision):
        group = f"{face} mirror {'on' if mirror else 'off'}"
        hashes.setdefault(group, hashlib.sha256()).update(doc.encode("utf-8"))
    return {g: h.hexdigest() for g, h in hashes.items()}


PATH = re.compile(r'  <path d="M (\S+ \S+) A (\S+ \S+ 0 [01]) ([01]) (\S+ \S+)"/>')


def drawn_rows(doc: str) -> Counter:
    """A document's rows as a multiset, each with its layer's id, and each
    <path> written from whichever end prints first: the same arc from its
    other end has the same large-arc flag and the other sweep flag."""
    rows, layer = Counter(), None
    for row in doc.splitlines():
        if row.startswith("<g id="):
            layer = row.split('"')[1]
        path = PATH.fullmatch(row)
        if path:
            start, arc, sweep, end = path.groups()
            row = min(row, f'  <path d="M {end} A {arc} {1 - int(sweep)} {start}"/>')
        rows[layer, row] += 1
    return rows


def test_documents_keep_the_committed_output_contract():
    want = json.loads(CONTRACT.read_text(encoding="utf-8"))["sha256"]
    got = contract_hashes()
    changed = sorted(g for g in want if want[g] != got.get(g))
    assert not changed, f"groups whose documents changed: {changed}"
    assert got.keys() == want.keys()


@pytest.mark.parametrize("precision", [2, 4, 9])
def test_each_plate_document_holds_the_rows_of_its_mirror_image(precision):
    # the plate is symmetric about its meridian, so its mirror_ew document,
    # the x-negation of the plain one, draws the same rows
    asymmetric = []
    for scale, lat, steps in itertools.product(SCALES, LATITUDES, STEPS):
        plate = build_plate(PlateConfig(lat, scale, OBLIQUITY, *steps))
        plain, mirror = (render_svg(plate, RenderStyle(precision, m)) for m in (False, True))
        if drawn_rows(plain) != drawn_rows(mirror):
            asymmetric.append((lat, scale, steps))
    assert not asymmetric, f"{len(asymmetric)} plates print asymmetrically: {asymmetric[:5]}"


if __name__ == "__main__":
    args = sys.argv[1:]
    if len(args) == 2 and args[0] in ("--print", "--list") and args[1] in map(str, range(1, 10)):
        if args[0] == "--print":
            for name, digest in contract_hashes(int(args[1])).items():
                print(f"{digest}  {name} precision {args[1]}")
        else:
            for (face, lat, scale, steps, mirror), doc in grid_documents(int(args[1])):
                print(f"{hashlib.sha256(doc.encode('utf-8')).hexdigest()}  {face} lat {lat:.3f} "
                      f"scale {scale:g} steps {steps[0]:g}/{steps[1]:g} "
                      f"mirror {'on' if mirror else 'off'}")
        sys.exit()
    if args != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_output_contract.py "
                 "--write | --print 1..9 | --list 1..9")
    CONTRACT.parent.mkdir(exist_ok=True)
    CONTRACT.write_text(json.dumps({
        "written_by": "PYTHONPATH=src python tests/test_output_contract.py --write",
        "sha256": contract_hashes(),
    }, indent=2) + "\n", encoding="utf-8")
