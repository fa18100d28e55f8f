"""Property tests: malformed input files fail only with the package's typed
errors, and the CLI maps every outcome to a documented exit code."""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from vmplace import ConfigError, ParseError
from vmplace.cli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_IO,
    EXIT_OK,
    ExperimentConfig,
    build_instance,
    main,
    read_placement,
)
from vmplace.workload import HOST_CLASS_DEFAULTS, TIMETABLE_HEADER, fleet_spec_from_json, load_fleet, parse_timetable

PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)

#: One field past the csv module's default 131,072-character limit.
LONG_FIELD = "x" * 131_073

TEXT = st.text(st.characters(codec="utf-8"), max_size=12)

#: Cell contents that no timetable column accepts, including the csv
#: module's own failures (a bare carriage return, an over-long field).
BAD_CELL = TEXT | st.sampled_from(["", '"', "\r", "1\n2", "9" * 30, LONG_FIELD])

#: Values that fleet fields refuse, including the non-finite floats
#: ``json.loads`` reads from ``NaN``, ``Infinity`` and ``1e400``, and ``5``,
#: a valid count, core count and MIPS. Counts stay small: ``build_fleet``
#: makes one host per count.
BAD_VALUES = [-3, 0.0, 2.5, float("inf"), float("nan"), "3", "x", "nope", None, [], {}, True, 5]
BAD_JSON = st.sampled_from(BAD_VALUES)


@st.composite
def _one_bad(draw, valid, slots, bad):
    """A draw of ``valid`` (a list or dict) that, one time in four, has the
    item at one of ``slots`` replaced by a draw of ``bad``."""
    value = draw(valid)
    if draw(st.integers(0, 3)) == 2:
        value[draw(st.sampled_from(slots))] = draw(bad)
    return value


#: A six-slot mask with one contiguous run, and that run's duration.
MASK_AND_DURATION = st.integers(0, 5).flatmap(
    lambda first: st.integers(1, 6 - first).map(
        lambda run: ["-" * first + "1" * run + "-" * (6 - first - run), str(run * 2700)]
    )
)

#: ``students`` stays small because a valid row expands to one VM per student.
ROW = _one_bad(
    st.tuples(
        st.integers(0, 3).map(str),  # day
        st.just("s"),  # subject
        st.sampled_from(["C1", "C2", "C-1"]),  # class_id
        st.sampled_from(["G1", "1-G"]),  # group_id
        st.integers(1, 50).map(str),  # students
        MASK_AND_DURATION,  # slot_mask, duration_s
    ).map(lambda cells: [*cells[:5], *cells[5]]),
    range(len(TIMETABLE_HEADER)),
    BAD_CELL,
).map(",".join)

TIMETABLE = st.lists(ROW, min_size=1, max_size=3).map(lambda rows: "\n".join([",".join(TIMETABLE_HEADER), *rows]) + "\n")

#: Any JSON value, with the keys a fleet document uses.
FLEET_KEYS = ["entries", "power_models", "model", "count", "pe_count", "mips_per_pe", "name", "samples"]
JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXT | st.sampled_from(["ibm_x3250", "dell_r620"]),
    lambda inner: st.lists(inner, max_size=11) | st.dictionaries(st.sampled_from(FLEET_KEYS) | TEXT, inner, max_size=4),
    max_leaves=20,
)

FLEET_ENTRY = _one_bad(
    st.fixed_dictionaries(
        {"model": st.sampled_from(["ibm_x3250", "dell_r620", "curve"]), "count": st.integers(1, 4)},
        optional={"pe_count": st.integers(1, 16), "mips_per_pe": st.sampled_from([2200.0, 2933.0])},
    ),
    ("model", "count", "pe_count", "mips_per_pe"),
    BAD_JSON,
)
#: One-host fleets, each with one entry field set to one ``BAD_VALUES`` item.
#: Each is a branch of its own in ``FLEET``, exhausted once drawn, and the
#: search skips exhausted branches, so each test's 200 draws reach every
#: (field, value) pair on its own.
ONE_BAD_FIELD = [
    st.just({"entries": [{"model": "dell_r620", "count": 1, key: bad}]})
    for key in ("model", "count", "pe_count", "mips_per_pe")
    for bad in BAD_VALUES
]
POWER_MODEL = _one_bad(
    st.fixed_dictionaries(
        {"name": st.just("curve"), "samples": st.lists(st.floats(1.0, 500.0), min_size=11, max_size=11)}
    ),
    ("name", "samples"),
    BAD_JSON,
)
FLEET = st.one_of(
    *ONE_BAD_FIELD,
    _one_bad(
        st.fixed_dictionaries(
            {"entries": st.lists(FLEET_ENTRY, min_size=1, max_size=3)},
            optional={"power_models": st.lists(POWER_MODEL, max_size=2)},
        ),
        ("entries", "power_models"),
        BAD_JSON,
    ),
)


@PROPERTY
@given(TEXT | TIMETABLE)
def test_parse_timetable_raises_only_parse_error(text):
    try:
        parse_timetable(text)
    except ParseError:
        pass


@PROPERTY
@given(TEXT | st.lists(st.tuples(TEXT, st.integers(-2, 50).map(str)).map(",".join)).map("\n".join))
def test_read_placement_raises_only_parse_error(text):
    try:
        read_placement(text)
    except ParseError:
        pass


@PROPERTY
@given(JSON_VALUE | FLEET)
def test_fleet_spec_from_json_raises_only_config_error(document):
    try:
        fleet_spec_from_json(document)
    except ConfigError:
        pass


@PROPERTY
@given(JSON_VALUE | FLEET)
def test_loaded_fleets_have_finite_positive_mips(document):
    try:
        hosts = load_fleet(io.StringIO(json.dumps(document)))
    except (ConfigError, ValueError):
        return
    assert all(math.isfinite(h.mips_per_pe) and h.mips_per_pe > 0 for h in hosts)


@PROPERTY
@given(JSON_VALUE | FLEET)
def test_loaded_fleets_have_the_counts_their_document_asks_for(document):
    """No count or core count is truncated, converted or read from a boolean."""
    try:
        hosts = load_fleet(io.StringIO(json.dumps(document)))
    except (ConfigError, ValueError):
        return
    default_pes = {name: pes for name, (pes, _) in HOST_CLASS_DEFAULTS.items()}
    asked = [(e["count"], e.get("pe_count", default_pes.get(str(e["model"])))) for e in document["entries"]]
    assert all(type(count) is int and type(pe_count) is int for count, pe_count in asked)
    assert [h.pe_count for h in hosts] == [pe_count for count, pe_count in asked for _ in range(count)]


@PROPERTY
@given(
    timetable=TIMETABLE,
    fleet=FLEET,
    flags=st.lists(st.sampled_from(["--cap-to-core", "--idle-powered=on", "--vm-pes=2", "--vm-mips=0"]), max_size=2),
    data=st.data(),
)
def test_validate_exits_with_a_documented_code(timetable, fleet, flags, data):
    """``validate`` on generated files returns 0, 2, 3 or 4. When the
    timetable and fleet build an instance, the placement names its VMs, so
    the feasible, infeasible and unknown-host outcomes are all reached."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name) for name in ("tt.csv", "fleet.json", "p.placement")}
        with open(paths["tt.csv"], "w", encoding="utf-8", newline="") as fh:
            fh.write(timetable)
        with open(paths["fleet.json"], "w", encoding="utf-8") as fh:
            json.dump(fleet, fh)
        try:
            instance = build_instance(ExperimentConfig(paths["tt.csv"], paths["fleet.json"]))
        except (ConfigError, ParseError, ValueError):
            placement = data.draw(TEXT)
        else:
            hosts = st.integers(0, len(instance.hosts))
            placement = "".join(f"{v.id},{data.draw(hosts)}\n" for v in instance.vms)
        with open(paths["p.placement"], "w", encoding="utf-8") as fh:
            fh.write(placement)
        argv = ["validate", "--workload", paths["tt.csv"], "--fleet", paths["fleet.json"]]
        argv += ["--placement", paths["p.placement"], *flags]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_IO)
