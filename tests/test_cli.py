"""Command-line interface: reports, placements, exit codes."""

import csv
import io
import json

import pytest

from vmplace import SAMPLE_TIMETABLE, ConfigError, integrate_energy
from vmplace.cli import (
    CSV_COLUMNS,
    DEFAULT_SEEDS,
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_IO,
    EXIT_OK,
    ExperimentConfig,
    build_instance,
    emit_report,
    main,
    read_placement,
    run_experiment,
    write_placement,
)
from vmplace.schedulers import GaConfig

#: Five 1-PE VMs in one session: more than one 4-PE host can hold.
FIVE_VM_TIMETABLE = (
    "day,subject,class_id,group_id,students,slot_mask,duration_s\n"
    "6,1,C1,G1,5,123------------,8100\n"
)


def _fleet_json(samples):
    """A fleet of two 16-PE hosts whose power curve is ``samples``."""
    return json.dumps(
        {
            "power_models": [{"name": "curve", "samples": list(samples)}],
            "entries": [{"model": "curve", "count": 2, "pe_count": 16, "mips_per_pe": 2200.0}],
        }
    )


def _read_csv_report(path):
    """Rows of a CSV report as dicts keyed by column name."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def small_config(**overrides):
    """An experiment on the bundled workload that finishes in well under a second."""
    base = dict(
        workload_path=None,
        fleet_path=None,
        solvers=("bfd",),
        ga_grid=(GaConfig(generations=2),),
        seeds=(1,),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_rejects_unknown_solver(self):
        with pytest.raises(Exception):
            small_config(solvers=("warp",))

    def test_rejects_empty_solvers(self):
        with pytest.raises(Exception):
            small_config(solvers=())

    def test_rejects_gapa_without_seeds(self):
        with pytest.raises(Exception):
            small_config(solvers=("gapa",), seeds=())

    def test_default_seeds(self):
        assert DEFAULT_SEEDS == tuple(range(1, 21))


class TestBuildInstance:
    def test_bundled_defaults(self):
        inst = build_instance(small_config())
        assert len(inst.vms) == 211
        assert len(inst.hosts) == 100

    def test_vm_template_knobs(self):
        inst = build_instance(small_config(vm_pe_count=2, vm_mips_per_pe=2933.0))
        assert all(v.pe_count == 2 and v.mips_per_pe == 2933.0 for v in inst.vms)

    def test_workload_from_file(self, tmp_path):
        path = tmp_path / "tt.csv"
        path.write_text(SAMPLE_TIMETABLE)
        inst = build_instance(small_config(workload_path=str(path)))
        assert len(inst.vms) == 211


class TestRunExperiment:
    def test_bfd_only(self):
        records = run_experiment(small_config())
        assert len(records) == 1
        rec = records[0]
        assert rec.solver == "bfd"
        assert rec.ratio_vs_bfd == 1.0
        assert rec.total_kwh > 0
        assert rec.hosts_used > 0
        assert rec.placement is not None

    def test_gapa_grid_with_aggregates(self):
        config = small_config(
            solvers=("bfd", "gapa"),
            ga_grid=(GaConfig(generations=2), GaConfig(generations=3)),
            seeds=(1, 2),
        )
        records = run_experiment(config)
        # 1 BFD + per grid point: 2 seed runs + mean + min.
        assert len(records) == 1 + 2 * (2 + 2)
        gapa = [r for r in records if r.solver == "gapa" and not r.aggregate]
        assert [r.seed for r in gapa] == [1, 2, 1, 2]
        aggs = [r for r in records if r.aggregate]
        assert [a.aggregate for a in aggs] == ["mean", "min", "mean", "min"]
        for agg in aggs:
            assert agg.seed is None
            assert agg.ratio_vs_bfd == pytest.approx(records[0].total_kwh / agg.total_kwh)

    def test_bfd_record_independent_of_grid(self):
        r1 = run_experiment(small_config())[0]
        r2 = run_experiment(
            small_config(solvers=("bfd", "gapa"), ga_grid=(GaConfig(generations=2),))
        )[0]
        assert r1.total_kwh == r2.total_kwh
        assert r1.per_host_kwh == r2.per_host_kwh

    def test_exact_budget_exceeded_record(self):
        records = run_experiment(small_config(solvers=("exact",), exact_budget=10))
        assert len(records) == 1
        assert records[0].status == "budget_exceeded"
        assert records[0].total_kwh is None

    def test_record_kwh_matches_reintegration(self):
        config = small_config()
        inst = build_instance(config)
        rec = run_experiment(config)[0]
        report = integrate_energy(rec.placement, inst, config.idle_hosts_powered)
        assert rec.total_kwh == pytest.approx(report.total_kwh, rel=1e-12)


class TestReports:
    def _records(self):
        return run_experiment(
            small_config(solvers=("bfd", "gapa"), ga_grid=(GaConfig(generations=2),), seeds=(1,))
        )

    def test_json_round_trip(self):
        records = self._records()
        buf = io.StringIO()
        emit_report(records, "json", buf)
        data = json.loads(buf.getvalue())
        assert [d["solver"] for d in data] == [r.solver for r in records]

    def test_csv_header_is_stable(self):
        buf = io.StringIO()
        emit_report(self._records(), "csv", buf)
        header = buf.getvalue().splitlines()[0]
        assert tuple(header.split(",")) == CSV_COLUMNS

    def test_identical_runs_are_byte_identical(self):
        b1, b2 = io.StringIO(), io.StringIO()
        emit_report(self._records(), "csv", b1)
        emit_report(self._records(), "csv", b2)
        assert b1.getvalue() == b2.getvalue()

    def test_empty_report_rejected(self):
        with pytest.raises(ValueError):
            emit_report([], "csv", io.StringIO())

    def test_rejects_unknown_format(self):
        with pytest.raises(ConfigError):
            emit_report(self._records(), "xml", io.StringIO())


class TestPlacements:
    def test_round_trip(self):
        placement = {"b-vm": 3, "a-vm": 0, "with,comma": 12}
        buf = io.StringIO()
        write_placement(placement, buf)
        assert read_placement(buf.getvalue()) == placement

    def test_bad_line_reports_number(self):
        from vmplace import ParseError

        with pytest.raises(ParseError) as exc:
            read_placement("a,0\nbroken-line\n")
        assert exc.value.line == 2


class TestMain:
    def test_gen_workload_stdout(self, capsys):
        assert main(["gen-workload"]) == EXIT_OK
        assert capsys.readouterr().out == SAMPLE_TIMETABLE

    def test_gen_workload_files(self, tmp_path):
        tt = tmp_path / "tt.csv"
        fl = tmp_path / "fleet.json"
        assert main(["gen-workload", "--out", str(tt), "--fleet-out", str(fl)]) == EXIT_OK
        assert tt.read_text() == SAMPLE_TIMETABLE
        assert "entries" in json.loads(fl.read_text())

    def test_solve_bfd_csv(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert main(["solve", "--solver", "bfd", "--out", str(out)]) == EXIT_OK
        rows = _read_csv_report(out)
        assert rows[0]["solver"] == "bfd"
        assert float(rows[0]["total_kwh"]) > 0

    def test_solve_dump_placement_revalidates(self, tmp_path):
        out = tmp_path / "report.csv"
        rc = main(["solve", "--solver", "bfd", "--out", str(out), "--dump-placements"])
        assert rc == EXIT_OK
        placement_path = tmp_path / "report.bfd.placement"
        assert placement_path.exists()
        rc = main(["validate", "--placement", str(placement_path)])
        assert rc == EXIT_OK
        # The validated energy equals the reported one.
        placement = read_placement(placement_path.read_text())
        inst = build_instance(small_config())
        report = integrate_energy(placement, inst)
        row = _read_csv_report(out)[0]
        assert float(row["total_kwh"]) == pytest.approx(report.total_kwh, abs=1e-6)

    def test_experiment_small_grid(self, tmp_path):
        out = tmp_path / "report.csv"
        rc = main(
            [
                "experiment",
                "--solvers",
                "bfd,gapa",
                "--generations",
                "2",
                "--crossover",
                "0.5",
                "--seed",
                "1",
                "--seed",
                "2",
                "--out",
                str(out),
            ]
        )
        assert rc == EXIT_OK
        rows = _read_csv_report(out)
        assert [r["solver"] for r in rows] == ["bfd", "gapa", "gapa", "gapa", "gapa"]
        assert [r["aggregate"] for r in rows] == ["", "", "", "mean", "min"]

    def test_experiment_deterministic_output(self, tmp_path):
        args = [
            "experiment",
            "--solvers",
            "bfd,gapa",
            "--generations",
            "2",
            "--crossover",
            "0.5",
            "--seed",
            "1",
        ]
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_bad_workload_exits_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,timetable\n")
        assert main(["solve", "--workload", str(bad)]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_io(self):
        assert main(["solve", "--workload", "/does/not/exist.csv"]) == EXIT_IO

    @pytest.mark.parametrize(
        "argv, expected",
        [
            pytest.param(["experiment", "--workload", "bad.csv"], EXIT_CONFIG, id="experiment-malformed-workload"),
            pytest.param(
                ["validate", "--workload", "bad.csv", "--placement", "p"], EXIT_CONFIG, id="validate-malformed-workload"
            ),
            pytest.param(["validate", "--placement", "bad.placement"], EXIT_CONFIG, id="validate-malformed-placement"),
            pytest.param(["experiment", "--workload", "missing.csv"], EXIT_IO, id="experiment-missing-file"),
            pytest.param(
                ["validate", "--workload", "missing.csv", "--placement", "p"], EXIT_IO, id="validate-missing-file"
            ),
            pytest.param(
                ["solve", "--solver", "gapa", "--workload", "five.csv", "--fleet", "one-host.json"],
                EXIT_INFEASIBLE,
                id="solve-gapa-demand-above-fleet",
            ),
            pytest.param(
                ["solve", "--solver", "gapa", "--workload", "five.csv", "--fleet", "zero.json"],
                EXIT_CONFIG,
                id="solve-gapa-all-zero-curve",
            ),
            pytest.param(
                ["solve", "--solver", "gapa", "--workload", "five.csv", "--fleet", "zero-below-full.json"],
                EXIT_CONFIG,
                id="solve-gapa-zero-below-full-load-curve",
            ),
            pytest.param(["solve", "--workload", "five.csv", "--fleet", "nan.json"], EXIT_CONFIG, id="solve-nan-curve"),
            pytest.param(["solve", "--fleet", "array.json"], EXIT_CONFIG, id="solve-fleet-document-array"),
            pytest.param(["solve", "--fleet", "string.json"], EXIT_CONFIG, id="solve-fleet-document-string"),
            pytest.param(["solve", "--fleet", "entries-int.json"], EXIT_CONFIG, id="solve-fleet-entries-not-array"),
            pytest.param(["solve", "--fleet", "models-int.json"], EXIT_CONFIG, id="solve-fleet-models-not-array"),
            pytest.param(["solve", "--fleet", "count-inf.json"], EXIT_CONFIG, id="solve-fleet-count-overflow"),
            pytest.param(["solve", "--fleet", "count-negative.json"], EXIT_CONFIG, id="solve-fleet-count-negative"),
            pytest.param(["solve", "--workload", "long-field.csv"], EXIT_CONFIG, id="solve-workload-field-too-long"),
            pytest.param(["solve", "--workload", "dashed-ids.csv"], EXIT_OK, id="solve-dashes-in-class-and-group-ids"),
        ],
    )
    def test_exit_code_matrix(self, argv, expected, tmp_path, monkeypatch, capsys):
        """Typed errors map to exit codes 2, 3 and 4 with an ``error:`` line;
        valid inputs next to them exit 0 with nothing on stderr.
        ``test_bad_workload_exits_config``, ``test_missing_file_exits_io`` and
        ``test_infeasible_placement_exits_infeasible`` cover the other cells."""
        monkeypatch.chdir(tmp_path)
        one_host = {"model": "ibm_x3250", "count": 1}
        files = {
            "bad.csv": "not,a,timetable\n",
            "bad.placement": "broken-line\n",
            "five.csv": FIVE_VM_TIMETABLE,
            "one-host.json": json.dumps({"entries": [one_host]}),
            "zero.json": _fleet_json([0.0] * 11),
            "zero-below-full.json": _fleet_json([0.0] * 10 + [263.0]),
            # JSON's NaN token reads as a float.
            "nan.json": _fleet_json([float("nan")] * 11),
            "array.json": "[]",
            "string.json": '"x"',
            "entries-int.json": '{"entries": 5}',
            "models-int.json": json.dumps({"power_models": 3, "entries": [one_host]}),
            "count-inf.json": '{"entries": [{"model": "ibm_x3250", "count": 1e400}]}',
            "count-negative.json": json.dumps(
                {"entries": [{"model": "dell_r620", "count": 20}, {"model": "ibm_x3250", "count": -3}]}
            ),
            # One field past the csv module's 131,072-character limit.
            "long-field.csv": FIVE_VM_TIMETABLE + "6,1,C2," + "G" * 131_073 + ",1,123------------,8100\n",
            # Class C-1 with group G and class C with group 1-G.
            "dashed-ids.csv": FIVE_VM_TIMETABLE.replace("C1,G1", "C-1,G") + "6,1,C,1-G,5,123------------,8100\n",
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        assert main(argv) == expected
        err = capsys.readouterr().err
        if expected == EXIT_OK:
            assert err == ""
        else:
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_infeasible_placement_exits_infeasible(self, tmp_path):
        # All 211 single-core VMs on one 16-core host cannot be feasible.
        inst = build_instance(small_config())
        placement_path = tmp_path / "bad.placement"
        with open(placement_path, "w") as fh:
            write_placement({v.id: 0 for v in inst.vms}, fh)
        rc = main(["validate", "--placement", str(placement_path)])
        assert rc == EXIT_INFEASIBLE
