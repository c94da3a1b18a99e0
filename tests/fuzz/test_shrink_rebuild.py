"""A shrink move that rebuilds partitions keeps every other design field."""

from dataclasses import dataclass, fields

from repro.fuzz import FuzzDesign
from repro.fuzz.shrink import _rebuild


@dataclass(frozen=True)
class _Annotated(FuzzDesign):
    """A design with one field more than :class:`FuzzDesign` has."""

    note: str = ""


def test_rebuild_carries_fields_it_does_not_name():
    design = _Annotated(
        "irregular",
        (3, 3),
        "X+ X- Y+ -> Y-",
        label="valid:irregular",
        failed_links=(((0, 0), (1, 0)),),
        note="kept",
    )
    parts = [(p.name, list(p.channels)) for p in design.base_sequence()]
    rebuilt = _rebuild(design, parts, design.mutations)
    assert type(rebuilt) is _Annotated
    assert {f.name: getattr(rebuilt, f.name) for f in fields(rebuilt)} == {
        f.name: getattr(design, f.name) for f in fields(design)
    }
    assert _rebuild(design, parts, design.mutations, topology_kind="ring") is None
