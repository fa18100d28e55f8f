"""Timetable parsing, VM expansion, and fleet construction."""

import io
import json

import pytest

from vmplace import (
    DEFAULT_FLEET,
    SAMPLE_TIMETABLE,
    ConfigError,
    FleetEntry,
    FleetSpec,
    ParseError,
    SlotConfig,
    build_fleet,
    expand,
    fleet_spec_from_json,
    fleet_to_json,
    load_fleet,
    parse_timetable,
)

HEADER = "day,subject,class_id,group_id,students,slot_mask,duration_s\n"


class TestParseTimetable:
    def test_sample_timetable(self):
        rows = parse_timetable(SAMPLE_TIMETABLE)
        assert len(rows) == 7
        assert [r.students for r in rows] == [5, 5, 35, 45, 45, 35, 41]
        assert sum(r.students for r in rows) == 211
        assert all(r.duration == 8100 for r in rows)
        assert all(len(r.slot_mask) == 15 for r in rows)

    def test_slot_geometry(self):
        rows = parse_timetable(SAMPLE_TIMETABLE)
        first = {r.first_slot for r in rows}
        assert first == {1, 4}
        assert all(r.slot_run == 3 for r in rows)

    def test_accepts_file_object(self):
        text = HEADER + "1,s,c,g,2,12-------------,5400\n"
        assert parse_timetable(io.StringIO(text)) == parse_timetable(text)

    def test_tab_delimited(self):
        text = SAMPLE_TIMETABLE.replace(",", "\t")
        rows = parse_timetable(text)
        assert len(rows) == 7
        assert sum(r.students for r in rows) == 211

    def test_tab_delimited_after_blank_lines(self):
        text = "\n  \n" + SAMPLE_TIMETABLE.replace(",", "\t")
        assert parse_timetable(text) == parse_timetable(SAMPLE_TIMETABLE)

    def test_comma_line_before_a_tab_delimited_header_is_blank(self):
        text = ",,,\n" + SAMPLE_TIMETABLE.replace(",", "\t")
        assert parse_timetable(text) == parse_timetable(SAMPLE_TIMETABLE)

    def test_comma_and_tab_rows_are_blank_in_either_delimiter(self):
        body = SAMPLE_TIMETABLE.splitlines(keepends=True)
        for delimiter in (",", "\t"):
            lines = [line.replace(",", delimiter) for line in body]
            text = "".join(lines[:2] + [",,,,,,\n", " \t,\t \n"] + lines[2:])
            assert parse_timetable(text) == parse_timetable(SAMPLE_TIMETABLE)

    def test_blank_lines_inside_a_quoted_field_keep_their_characters(self):
        for delimiter in (",", "\t"):
            row = '1,"Lab\n, ,\n\t\nSession",c,g,2,1--------------,2700\n'.replace(",", delimiter)
            (parsed,) = parse_timetable(HEADER.replace(",", delimiter) + row)
            assert parsed.subject == f"Lab\n{delimiter} {delimiter}\n\t\nSession"
            assert parsed.class_id == "c"

    def test_quoted_blank_cells_are_a_short_row(self):
        with pytest.raises(ParseError) as exc:
            parse_timetable(HEADER + '"",""\n')
        assert exc.value.line == 2

    def test_errors_name_the_line_a_row_starts_on(self):
        text = (
            HEADER
            + '1,"Lab\nSession",c,g,2,1--------------,2700\n'
            + "\n"
            + "1,s,c,g,two,1--------------,2700\n"
            + "1,s,c,g,2,1--------------,2700\n"
        )
        with pytest.raises(ParseError) as exc:
            parse_timetable(text)
        assert exc.value.line == 5
        with pytest.raises(ParseError) as exc:
            parse_timetable(HEADER + '1,"Lab\nSession",c,g,2,1--------------\n')
        assert exc.value.line == 2

    def test_empty_and_header_only(self):
        assert parse_timetable("") == []
        assert parse_timetable(HEADER) == []

    def test_blank_lines_skipped(self):
        text = HEADER + "\n1,s,c,g,2,1--------------,2700\n\n"
        assert len(parse_timetable(text)) == 1

    def test_bad_header(self):
        with pytest.raises(ParseError) as exc:
            parse_timetable("nope,header\n")
        assert exc.value.line == 1

    def test_wrong_field_count(self):
        with pytest.raises(ParseError) as exc:
            parse_timetable(HEADER + "1,s,c,g,2,1--------------\n")
        assert exc.value.line == 2

    def test_non_integer_students(self):
        with pytest.raises(ParseError):
            parse_timetable(HEADER + "1,s,c,g,two,1--------------,2700\n")

    def test_non_contiguous_mask(self):
        with pytest.raises(ParseError) as exc:
            parse_timetable(HEADER + "1,s,c,g,2,1-3------------,8100\n")
        assert "contiguous" in str(exc.value)

    def test_empty_mask(self):
        with pytest.raises(ParseError):
            parse_timetable(HEADER + "1,s,c,g,2,---------------,2700\n")

    def test_bad_mask_characters(self):
        with pytest.raises(ParseError):
            parse_timetable(HEADER + "1,s,c,g,2,1x~------------,2700\n")

    def test_inconsistent_mask_length(self):
        text = (
            HEADER
            + "1,s,c,g,2,1--------------,2700\n"
            + "1,s,c,h,2,1----------,2700\n"
        )
        with pytest.raises(ParseError) as exc:
            parse_timetable(text)
        assert exc.value.line == 3

    @pytest.mark.parametrize(
        "row",
        [
            "-1,s,c,g,2,1--------------,2700",  # negative day
            "1,s,c,g,0,1--------------,2700",  # zero students
            "1,s,c,g,2,1--------------,0",  # zero duration
        ],
    )
    def test_out_of_range_values(self, row):
        with pytest.raises(ParseError):
            parse_timetable(HEADER + row + "\n")


class TestExpand:
    def test_sample_expands_to_211_vms(self):
        rows = parse_timetable(SAMPLE_TIMETABLE)
        vms = expand(rows)
        assert len(vms) == 211
        starts = {v.start_time for v in vms}
        assert starts == {0, 8100}
        assert all(v.duration == 8100 for v in vms)
        # Slots 1-3 -> start 0 (116 VMs); slots 4-6 -> start 8100 (95 VMs).
        assert sum(1 for v in vms if v.start_time == 0) == 116
        assert sum(1 for v in vms if v.start_time == 8100) == 95

    def test_deterministic_ids(self):
        rows = parse_timetable(SAMPLE_TIMETABLE)
        vms = expand(rows)
        assert vms[0].id == "CT10QUEE-QT01-001"
        assert vms[4].id == "CT10QUEE-QT01-005"
        assert len({v.id for v in vms}) == 211
        assert expand(rows)[42].id == vms[42].id

    def test_vm_template_applied(self):
        rows = parse_timetable(SAMPLE_TIMETABLE)
        vms = expand(rows, vm_template=(2, 2933.0))
        assert all(v.pe_count == 2 and v.mips_per_pe == 2933.0 for v in vms)

    def test_default_template(self):
        rows = parse_timetable(SAMPLE_TIMETABLE)
        vms = expand(rows)
        assert all(v.pe_count == 1 and v.mips_per_pe == 2200.0 for v in vms)

    def test_slot_config_shifts_starts(self):
        text = HEADER + "1,s,c,g,2,---45----------,7200\n"  # two 3600 s slots
        vms = expand(parse_timetable(text), SlotConfig(slot_length=3600))
        assert [v.start_time for v in vms] == [3 * 3600] * 2

    def test_duration_slot_mismatch_warns(self):
        text = HEADER + "1,s,c,g,1,123------------,5400\n"  # 3 slots but 5400 s
        rows = parse_timetable(text)
        with pytest.warns(UserWarning, match="does not match"):
            expand(rows)

    def test_days_run_back_to_back(self):
        text = (
            HEADER
            + "1,s,c,g,16,123------------,8100\n"
            + "2,s,c,g,16,123------------,8100\n"
        )
        vms = expand(parse_timetable(text))
        windows = [(v.start_time, v.start_time + v.duration) for v in vms]
        # One day is the 15-slot mask: 15 x 2700 s = 40500 s.
        assert windows == [(0, 8100)] * 16 + [(40500, 48600)] * 16

    def test_earliest_day_starts_at_time_zero(self):
        text = HEADER + "3,s,c,g,1,-2-------------,2700\n" + "5,s,c,g,1,-2-------------,2700\n"
        vms = expand(parse_timetable(text))
        assert [v.start_time for v in vms] == [2700, 2 * 40500 + 2700]

    def test_ordinals_accumulate_across_rows_of_same_group(self):
        text = (
            HEADER
            + "1,s,c,g,2,1--------------,2700\n"
            + "2,s,c,g,2,-2-------------,2700\n"
        )
        vms = expand(parse_timetable(text))
        assert [v.id for v in vms] == ["c-g-001", "c-g-002", "c-g-003", "c-g-004"]

    def test_dashes_in_class_and_group_ids_keep_ids_distinct(self):
        # Unescaped, both rows would give "C-1-G-001".
        text = (
            HEADER
            + "1,s,C-1,G,1,1--------------,2700\n"
            + "1,s,C,1-G,1,1--------------,2700\n"
            + "1,s,%2D,x%,1,1--------------,2700\n"
            + "1,s,-,x%,1,1--------------,2700\n"
        )
        vms = expand(parse_timetable(text))
        assert [v.id for v in vms] == [
            "C%2D1-G-001",
            "C-1%2DG-001",
            "%252D-x%25-001",
            "%2D-x%25-001",
        ]


class TestFleet:
    def test_default_fleet_shape(self):
        hosts = build_fleet(DEFAULT_FLEET)
        assert len(hosts) == 100
        # High-capacity hosts first: ids 0-49 are the 16-core class.
        assert all(h.pe_count == 16 and h.mips_per_pe == 2200.0 for h in hosts[:50])
        assert all(h.pe_count == 4 and h.mips_per_pe == 2933.0 for h in hosts[50:])
        assert [h.id for h in hosts] == list(range(100))

    def test_entry_order_controls_ids(self):
        spec = FleetSpec(
            (
                FleetEntry("ibm_x3250", 2, 4, 2933.0),
                FleetEntry("dell_r620", 1, 16, 2200.0),
            )
        )
        hosts = build_fleet(spec)
        assert [(h.id, h.pe_count) for h in hosts] == [(0, 4), (1, 4), (2, 16)]
        assert hosts[0].power_model.name == "ibm_x3250"
        assert hosts[2].power_model.name == "dell_r620"

    def test_unknown_model_rejected(self):
        spec = FleetSpec((FleetEntry("mystery_box", 1, 4, 1000.0),))
        with pytest.raises(ConfigError):
            build_fleet(spec)

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            FleetSpec(())

    def test_json_round_trip(self):
        data = fleet_to_json(DEFAULT_FLEET)
        spec, models = fleet_spec_from_json(data)
        assert spec == DEFAULT_FLEET
        assert models == {}

    def test_json_defaults_per_class(self):
        spec, _ = fleet_spec_from_json({"entries": [{"model": "ibm_x3250", "count": 3}]})
        assert spec.entries[0] == FleetEntry("ibm_x3250", 3, 4, 2933.0)

    def test_json_inline_power_models(self):
        data = {
            "entries": [{"model": "lab_node", "count": 2, "pe_count": 8, "mips_per_pe": 1000.0}],
            "power_models": [
                {"name": "lab_node", "samples": [10 + i for i in range(11)]}
            ],
        }
        spec, models = fleet_spec_from_json(data)
        hosts = build_fleet(spec, models)
        assert len(hosts) == 2
        assert hosts[0].power_model.samples[0] == 10.0

    def test_json_errors(self):
        with pytest.raises(ConfigError):
            fleet_spec_from_json({})
        with pytest.raises(ConfigError):
            fleet_spec_from_json({"entries": [{"count": 1}]})
        with pytest.raises(ConfigError):
            fleet_spec_from_json(
                {"power_models": [{"name": "x", "samples": [1.0]}], "entries": []}
            )

    def test_load_fleet_from_path(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(fleet_to_json(DEFAULT_FLEET)))
        hosts = load_fleet(str(path))
        assert len(hosts) == 100
