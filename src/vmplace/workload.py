"""Timetable-style workload ingestion and fleet construction.

A workload file is delimited text (comma or tab), one header line:

    day,subject,class_id,group_id,students,slot_mask,duration_s

Each row describes one lab session: ``students`` identical VMs that start at
the session's first slot and run for ``duration_s`` seconds. ``slot_mask`` is
a fixed-length string over '1'..'9', '0' and '-' where non-'-' characters mark
the occupied slots; the occupied run must be contiguous (sessions are not
preemptible).

A fleet file is JSON:

    {"entries": [{"model": "ibm_x3250", "count": 4},
                 {"model": "dell_r620", "count": 1,
                  "pe_count": 16, "mips_per_pe": 2200.0}],
     "power_models": [...]}            # optional extra curves

``pe_count``/``mips_per_pe`` default per built-in model class.
"""

from __future__ import annotations

import csv
import io
import json
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import ConfigError, ParseError
from .model import HostSpec, VmRequest
from .power import BUILTIN_MODELS, PowerModel

TIMETABLE_HEADER = ("day", "subject", "class_id", "group_id", "students", "slot_mask", "duration_s")

_MASK_CHARS = set("0123456789-")


@dataclass(frozen=True)
class TimetableRow:
    day: int
    subject: str
    class_id: str
    group_id: str
    students: int
    slot_mask: str
    duration: int

    @property
    def first_slot(self) -> int:
        """1-based index of the first occupied slot."""
        for i, ch in enumerate(self.slot_mask):
            if ch != "-":
                return i + 1
        raise ValueError("empty slot mask")

    @property
    def slot_run(self) -> int:
        """Number of occupied slots."""
        return sum(1 for ch in self.slot_mask if ch != "-")


@dataclass(frozen=True)
class SlotConfig:
    """How mask positions map to wall-clock seconds.

    The defaults (45-minute slots, day starting at 0) make a three-slot lab
    session last 8100 s.
    """

    slot_length: int = 2700
    day_origin: int = 0

    def __post_init__(self):
        if self.slot_length < 1:
            raise ValueError("slot_length must be >= 1")
        if self.day_origin < 0:
            raise ValueError("day_origin must be >= 0")


@dataclass(frozen=True)
class FleetEntry:
    model: str
    count: int
    pe_count: int
    mips_per_pe: float


@dataclass(frozen=True)
class FleetSpec:
    entries: Tuple[FleetEntry, ...]

    def __post_init__(self):
        for e in self.entries:
            if e.count < 0:
                raise ValueError(f"fleet entry {e.model!r}: count must be >= 0, got {e.count}")
        if sum(e.count for e in self.entries) < 1:
            raise ValueError("fleet must contain at least one host")


# Default core layout per built-in server class.
HOST_CLASS_DEFAULTS: Dict[str, Tuple[int, float]] = {
    "ibm_x3250": (4, 2933.0),
    "dell_r620": (16, 2200.0),
}

#: The 211-VM one-day lab workload shipped as a fixture.
SAMPLE_TIMETABLE = """\
day,subject,class_id,group_id,students,slot_mask,duration_s
6,506007,CT10QUEE,QT01,5,---456---------,8100
6,501129,CT11QUEE,QT01,5,123------------,8100
6,501133,DUTHINH6,DT04,35,123------------,8100
6,501133,DUTHINH5,DT01,45,---456---------,8100
6,501133,DUTHINH5,DT02,45,---456---------,8100
6,501133,DUTHINH6,DT05,35,123------------,8100
6,501133,DUTHINH6,DT06,41,123------------,8100
"""

#: Default 100-host fleet: an even mix of the two built-in server classes.
#: High-capacity hosts come first so that first-fit style placement (repair,
#: tie-breaks by host index) prefers consolidating onto the larger machines.
DEFAULT_FLEET = FleetSpec(
    entries=(
        FleetEntry("dell_r620", 50, 16, 2200.0),
        FleetEntry("ibm_x3250", 50, 4, 2933.0),
    )
)


def parse_timetable(source) -> List[TimetableRow]:
    """Parse timetable rows from a string, file object or iterable of lines.

    Rows come back in file order. The first malformed row raises
    :class:`ParseError` with its 1-based line number.
    """
    if hasattr(source, "read"):
        text = source.read()
    elif isinstance(source, str):
        text = source
    else:
        text = "".join(source)
    lines = text.splitlines()
    if not lines:
        return []
    delimiter = "\t" if "\t" in lines[0] else ","
    reader = csv.reader(io.StringIO(text), delimiter=delimiter)
    rows: List[TimetableRow] = []
    mask_len: Optional[int] = None
    header_seen = False
    try:
        records = list(reader)
    except csv.Error as exc:
        raise ParseError(reader.line_num, str(exc)) from exc
    for lineno, fields in enumerate(records, start=1):
        if not fields or all(not f.strip() for f in fields):
            continue
        fields = [f.strip() for f in fields]
        if not header_seen:
            if tuple(f.lower() for f in fields) != TIMETABLE_HEADER:
                raise ParseError(lineno, f"bad header {fields!r}, expected {','.join(TIMETABLE_HEADER)}")
            header_seen = True
            continue
        if len(fields) != len(TIMETABLE_HEADER):
            raise ParseError(lineno, f"expected {len(TIMETABLE_HEADER)} fields, got {len(fields)}")
        day_s, subject, class_id, group_id, students_s, mask, duration_s = fields
        try:
            day = int(day_s)
            students = int(students_s)
            duration = int(duration_s)
        except ValueError as exc:
            raise ParseError(lineno, f"non-integer numeric field: {exc}") from exc
        if day < 0:
            raise ParseError(lineno, f"day must be >= 0, got {day}")
        if students < 1:
            raise ParseError(lineno, f"students must be >= 1, got {students}")
        if duration < 1:
            raise ParseError(lineno, f"duration_s must be >= 1, got {duration}")
        if not mask or not set(mask) <= _MASK_CHARS:
            raise ParseError(lineno, f"slot_mask {mask!r} has characters outside 0-9 and '-'")
        occupied = [i for i, ch in enumerate(mask) if ch != "-"]
        if not occupied:
            raise ParseError(lineno, f"slot_mask {mask!r} marks no occupied slot")
        if occupied[-1] - occupied[0] + 1 != len(occupied):
            raise ParseError(lineno, f"slot_mask {mask!r} is not a contiguous run")
        if mask_len is None:
            mask_len = len(mask)
        elif len(mask) != mask_len:
            raise ParseError(lineno, f"slot_mask length {len(mask)} differs from {mask_len}")
        rows.append(TimetableRow(day, subject, class_id, group_id, students, mask, duration))
    return rows


def _escape_id(part: str) -> str:
    """``part`` with ``%`` and ``-`` percent-encoded (``%`` first)."""
    return part.replace("%", "%25").replace("-", "%2D")


def expand(
    rows: Sequence[TimetableRow],
    slots: SlotConfig = SlotConfig(),
    vm_template: Tuple[int, float] = (1, 2200.0),
) -> List[VmRequest]:
    """One VM per enrolled student, timed by the row's slot mask.

    VM ids are deterministic: ``<class_id>-<group_id>-<ordinal>`` with the
    ordinal counting per (class, group) across rows. A ``%`` or ``-`` inside
    a class or group id is written ``%25`` or ``%2D``, so distinct (class,
    group) pairs never share an id; ids without them are unchanged.

    Days run back to back: a day lasts one slot mask (``len(slot_mask)`` slots)
    and the earliest day in ``rows`` starts at ``slots.day_origin``. The
    overnight gap is not modelled, which matters only when idle hosts are
    powered.
    """
    pe_count, mips_per_pe = vm_template
    counters: Dict[Tuple[str, str], int] = {}
    vms: List[VmRequest] = []
    first_day = min((row.day for row in rows), default=0)
    for row in rows:
        expected = row.slot_run * slots.slot_length
        if expected != row.duration:
            warnings.warn(
                f"row {row.class_id}/{row.group_id}: duration {row.duration}s does not match "
                f"{row.slot_run} slots x {slots.slot_length}s = {expected}s",
                stacklevel=2,
            )
        day_offset = (row.day - first_day) * len(row.slot_mask)
        start = slots.day_origin + (day_offset + row.first_slot - 1) * slots.slot_length
        key = (row.class_id, row.group_id)
        prefix = f"{_escape_id(row.class_id)}-{_escape_id(row.group_id)}-"
        for _ in range(row.students):
            ordinal = counters.get(key, 0) + 1
            counters[key] = ordinal
            vms.append(
                VmRequest(
                    id=f"{prefix}{ordinal:03d}",
                    pe_count=pe_count,
                    mips_per_pe=mips_per_pe,
                    start_time=start,
                    duration=row.duration,
                )
            )
    return vms


def build_fleet(
    spec: FleetSpec,
    models: Optional[Dict[str, PowerModel]] = None,
) -> List[HostSpec]:
    """Hosts numbered 0..N-1 in entry order, each bound to its power model."""
    registry = dict(BUILTIN_MODELS)
    if models:
        registry.update(models)
    hosts: List[HostSpec] = []
    next_id = 0
    for entry in spec.entries:
        model = registry.get(entry.model)
        if model is None:
            raise ConfigError(f"unknown power model {entry.model!r} (have: {sorted(registry)})")
        for _ in range(entry.count):
            hosts.append(HostSpec(next_id, entry.pe_count, entry.mips_per_pe, model))
            next_id += 1
    return hosts


def _json_list(data: dict, key: str) -> list:
    value = data.get(key, [])
    if not isinstance(value, list):
        raise ConfigError(f"fleet {key!r} must be a JSON array, got {type(value).__name__}")
    return value


def fleet_spec_from_json(data) -> Tuple[FleetSpec, Dict[str, PowerModel]]:
    """Decode a fleet JSON document into a spec plus any inline power models."""
    if not isinstance(data, dict):
        raise ConfigError(f"fleet document must be a JSON object, got {type(data).__name__}")
    models: Dict[str, PowerModel] = {}
    for entry in _json_list(data, "power_models"):
        try:
            model = PowerModel(str(entry["name"]), tuple(float(s) for s in entry["samples"]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad power model entry {entry!r}: {exc}") from exc
        models[model.name] = model
    entries = []
    for entry in _json_list(data, "entries"):
        try:
            name = str(entry["model"])
            count = int(entry["count"])
            defaults = HOST_CLASS_DEFAULTS.get(name, (None, None))
            pe_count = int(entry.get("pe_count", defaults[0]))
            mips_per_pe = float(entry.get("mips_per_pe", defaults[1]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad fleet entry {entry!r}: {exc}") from exc
        entries.append(FleetEntry(name, count, pe_count, mips_per_pe))
    if not entries:
        raise ConfigError("fleet file lists no entries")
    try:
        spec = FleetSpec(tuple(entries))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return spec, models


def load_fleet(source) -> List[HostSpec]:
    """Read a fleet JSON file (path or file object) into host specs."""
    if hasattr(source, "read"):
        data = json.load(source)
    else:
        with open(source) as fh:
            data = json.load(fh)
    spec, models = fleet_spec_from_json(data)
    return build_fleet(spec, models)


def fleet_to_json(spec: FleetSpec) -> dict:
    return {
        "entries": [
            {
                "model": e.model,
                "count": e.count,
                "pe_count": e.pe_count,
                "mips_per_pe": e.mips_per_pe,
            }
            for e in spec.entries
        ]
    }
