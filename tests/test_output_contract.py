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
and writes nothing.
"""

import hashlib
import json
import math
import sys
from pathlib import Path

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


def contract_hashes(precision: int = PRECISION) -> dict:
    """{"<group> mirror <off|on>": sha256 of the group's documents}."""
    catalog = load_star_catalog(ROOT / "demos" / "data" / "bright_stars.csv")
    cities = load_localities(ROOT / "demos" / "data" / "cities.csv")
    cap = math.tan(math.radians(45.0 + OBLIQUITY / 2.0))  # limb radius per unit of scale
    hashes = {}
    for mirror in (False, True):
        style = RenderStyle(precision=precision, mirror_ew=mirror)
        groups = {face: hashlib.sha256() for face in ("plate", "rete", "back", "full")}
        for scale in SCALES:
            rete = build_rete(catalog, scale, OBLIQUITY)
            for lat in LATITUDES:
                in_band = BACK_BAND[0] < lat < BACK_BAND[1]
                if in_band:
                    back = build_back(BackConfig(lat, scale * cap, OBLIQUITY), cities)
                for almucantar_step, azimuth_step in STEPS:
                    plate = build_plate(PlateConfig(lat, scale, OBLIQUITY, almucantar_step,
                                                    azimuth_step))
                    docs = {"plate": render_svg(plate, style), "rete": render_svg(rete, style)}
                    if in_band:
                        docs["back"] = render_svg(back, style)
                        docs["full"] = render_full(plate, rete, back, style)
                    for face, doc in docs.items():
                        groups[face].update(doc.encode("utf-8"))
        for face, h in groups.items():
            hashes[f"{face} mirror {'on' if mirror else 'off'}"] = h.hexdigest()
    return hashes


def test_documents_keep_the_committed_output_contract():
    want = json.loads(CONTRACT.read_text(encoding="utf-8"))["sha256"]
    got = contract_hashes()
    changed = sorted(g for g in want if want[g] != got.get(g))
    assert not changed, f"groups whose documents changed: {changed}"
    assert got.keys() == want.keys()


if __name__ == "__main__":
    args = sys.argv[1:]
    if len(args) == 2 and args[0] == "--print" and args[1] in map(str, range(1, 10)):
        for group, digest in contract_hashes(int(args[1])).items():
            print(f"{digest}  {group} precision {args[1]}")
        sys.exit()
    if args != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_output_contract.py --write | --print 1..9")
    CONTRACT.parent.mkdir(exist_ok=True)
    CONTRACT.write_text(json.dumps({
        "written_by": "PYTHONPATH=src python tests/test_output_contract.py --write",
        "sha256": contract_hashes(),
    }, indent=2) + "\n", encoding="utf-8")
