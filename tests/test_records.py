"""Value semantics of the record types, one table over all twenty-three.

Each record is an immutable slotted value object: equal when the type and
the fields are equal, hashed as the tuple of its fields, shown as
`Name(field=value, ...)`, and rebuilt by `copy` and `pickle`.  The table
pins each constructor's field names, their order and their defaults.
"""

from __future__ import annotations

import copy
import pickle

import pytest

import astrolabe.geometry
from astrolabe import (
    Arc,
    BackConfig,
    BackModel,
    Circle,
    ErrorReport,
    FitResult,
    Label,
    Lines,
    Locality,
    MeridianSolution,
    PerturbationSpec,
    PlanePoint,
    PlateConfig,
    PlateModel,
    ProjectionKind,
    RenderStyle,
    ReteModel,
    Segment,
    SphereCircleSpec,
    SpherePoint,
    StarEntry,
    Ticks,
)
from astrolabe.projection import OBLIQUITY

P = PlanePoint(1.0, 2.0)
Q = PlanePoint(-4.0, 6.5)
C = Circle(P, 3.0)
ARC = Arc(C, PlanePoint(4.0, 2.0), PlanePoint(1.0, 5.0))
CFG = PlateConfig(40.0, 100.0)
BACK = BackConfig(40.0, 150.0)
STAR = StarEntry("Vega", 279.23, 38.78, 0.03)
MECCA = Locality("Mecca", 21.4225, 39.8262)
LINES = Lines((1.0, 2.0, -4.0, 6.5))
TICKS = Ticks((0.0, 1.0, 0.0, 1.0), 10.0, 9.0, 9.5)
LABEL = Label(1.0, 2.0, "Vega", "start")

# (class, every field in order with a value it keeps as given, the old defaults)
RECORDS = [
    (PlanePoint, {"x": 1.0, "y": -2.5}, {}),
    (Segment, {"a": P, "b": Q}, {}),
    (Circle, {"center": Q, "radius": 7.25}, {}),
    (Arc, {"circle": C, "start_point": PlanePoint(4.0, 2.0), "end_point": P, "orientation": "cw"},
     {"orientation": "ccw"}),
    (Lines, {"values": (1.0, -2.5, 3.0, 0.0)}, {}),
    (Ticks, {"unit": (0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0), "r_out": 100.0, "r_long": 94.0,
             "r_short": 97.0}, {}),
    (Label, {"x": 1.0, "y": -2.5, "text": "Aries", "anchor": "middle"}, {}),
    (FitResult, {"circle": C, "rms_residual": 1e-12, "max_residual": 3e-12}, {}),
    (SpherePoint, {"dec": -12.5, "hour_angle": 300.0}, {}),
    (SphereCircleSpec, {"pole_dec": 20.0, "pole_ha": 30.0, "angular_radius": 40.0}, {}),
    (ProjectionKind, {"viewpoint_v": -1.0}, {}),
    (PlateConfig, {"latitude": 52.5, "scale": 80.0, "obliquity": 23.5,
                   "almucantar_step": 2.0, "azimuth_step": 15.0},
     {"obliquity": OBLIQUITY, "almucantar_step": 5.0, "azimuth_step": 10.0}),
    (MeridianSolution, {"y_upper": 10.0, "y_lower": -30.0, "y_center": -10.0,
                        "radius": 20.0}, {}),
    (PlateModel, {"config": CFG, "boundary": C, "tropics": (C, C, C), "horizon": ARC,
                  "almucantars": (C, P), "azimuths": (Segment(P, Q),), "hour_lines": ()},
     {}),
    (StarEntry, {"name": "Sirius", "ra": 101.29, "dec": -16.72, "magnitude": -1.46}, {}),
    (ReteModel, {"ecliptic": C, "zodiac_ticks": LINES, "zodiac_labels": (LABEL,),
                 "pointers": ((STAR, P),), "star_markers": (P,), "star_labels": (LABEL,),
                 "skipped": ((STAR, "off the plate"),), "boundary": C}, {}),
    (Locality, {"name": "Berlin", "latitude": 52.52, "longitude": -13.5}, {}),
    (BackConfig, {"latitude": 33.5, "radius": 120.0, "obliquity": 23.5},
     {"obliquity": OBLIQUITY}),
    (BackModel, {"config": BACK, "boundary": C, "limb_ticks": TICKS, "limb_labels": (LABEL,),
                 "calendar_angles": (0.5, 1.5), "calendar_rings": (C, C),
                 "calendar_ticks": TICKS, "quadrant_frame": ARC, "quadrant_chords": LINES,
                 "shadow_square": LINES, "midday": ARC, "midday_label": LABEL,
                 "qibla_marks": ((MECCA, 12.5),), "qibla_rays": LINES,
                 "qibla_labels": (LABEL,)}, {}),
    (PerturbationSpec, {"center_sigma": 0.01, "radius_sigma": 0.02,
                        "graduation_sigma": 0.05, "seed": 7},
     {"center_sigma": 0.0, "radius_sigma": 0.0, "graduation_sigma": 0.0, "seed": 0}),
    (ErrorReport, {"mean": 0.1, "std": 0.2, "max_abs": 0.5, "n_trials": 3,
                   "classification": "eccentric", "samples": (0.1, -0.2, 0.5)}, {}),
    (RenderStyle, {"precision": 6, "mirror_ew": True,
                   "include_layers": frozenset({"limb", "stars"})},
     {"precision": 4, "mirror_ew": False, "include_layers": None}),
]


@pytest.mark.parametrize("cls, fields, defaults", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_are_immutable_slotted_values(cls, fields, defaults):
    values = tuple(fields.values())
    record = cls(**fields)
    assert tuple(getattr(record, name) for name in fields) == values
    assert cls(*values) == record and not cls(*values) != record

    # a record equals a record of its own type only, never a plain tuple
    other_type = type("Other" + cls.__name__, (cls,), {})
    assert record != other_type(*values) and other_type(*values) != record
    assert record != values

    assert hash(record) == hash(values) == hash(cls(*values))
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(record) == f"{cls.__name__}({shown})"

    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in fields) == values
    assert not hasattr(record, "__dict__")

    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record and repr(twin) == repr(record)

    # the defaulted fields may be left out, by keyword or by position
    required = {name: value for name, value in fields.items() if name not in defaults}
    assert list(required) == list(fields)[: len(required)]
    for short in (cls(**required), cls(*required.values())):
        assert {name: getattr(short, name) for name in defaults} == defaults


def _package_records() -> set:
    """Every subclass of the records' base defined in the package."""
    found, todo = set(), [astrolabe.geometry._Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("astrolabe.") and sub not in found:
                found.add(sub)
                todo.append(sub)
    return found


def test_the_table_holds_every_record_of_the_package():
    """So the value test above builds each record by position and by
    keyword, compares the two, and round-trips it through pickle."""
    assert _package_records() == {cls for cls, _, _ in RECORDS}


@pytest.mark.parametrize("cls, fields, defaults", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_a_missing_extra_or_unknown_field_raises_type_error_naming_the_class(cls, fields,
                                                                            defaults):
    values = tuple(fields.values())
    first, *rest = fields
    wrong = [
        lambda: cls(*values, 0),  # extra
        lambda: cls(*values, unknown=0),
        lambda: cls(**fields, unknown=0),
        lambda: cls(*values, **{first: values[0]}),  # the first field twice
    ]
    if first not in defaults:  # the first field missing
        wrong.append(lambda: cls(**{name: fields[name] for name in rest}))
    if not defaults:  # the last field missing
        wrong.append(lambda: cls(*values[:-1]))
    for build in wrong:
        with pytest.raises(TypeError, match=rf"\b{cls.__name__}\b"):
            build()
