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


#: Two three-student sessions that overlap in one slot, on three hosts: small
#: enough (3 ** 6 assignments) for the exact oracle to finish.
TINY_TIMETABLE = (
    "day,subject,class_id,group_id,students,slot_mask,duration_s\n"
    "6,1,C1,G1,3,12-,5400\n"
    "6,2,C2,G1,3,-23,5400\n"
)
TINY_FLEET = {"entries": [{"model": "ibm_x3250", "count": 2}, {"model": "dell_r620", "count": 1}]}

#: ``experiment --solvers bfd,gapa,exact`` on the tiny instance, seeds 1 and 2.
TINY_THREE_SOLVER_REPORT = (
    "solver,aggregate,population,generations,crossover,mutation,fitness,seed,status,"
    "total_kwh,hosts_used,ratio_vs_bfd,per_host_kwh,trajectory\n"
    "bfd,,,,,,,,ok,0.263275,2,1.000000,0:0.167983;1:0.095292,\n"
    "gapa,,10,3,0.5,0.01,energy,1,ok,0.319710,2,0.823480,0:0.125048;2:0.194662,"
    "8.0948729822e-07;8.53910700643e-07;8.53910700643e-07;8.68841756164e-07\n"
    "gapa,,10,3,0.5,0.01,energy,2,ok,0.263275,2,1.000000,0:0.167983;1:0.095292,"
    "1.05508518829e-06;1.05508518829e-06;1.05508518829e-06;1.05508518829e-06\n"
    "gapa,mean,10,3,0.5,0.01,energy,,ok,0.291493,,0.903196,,\n"
    "gapa,min,10,3,0.5,0.01,energy,,ok,0.263275,,1.000000,,\n"
    "exact,,,,,,,,ok,0.219656,1,1.198578,2:0.219656,\n"
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
        assert [r.config.seed for r in gapa] == [1, 2, 1, 2]
        aggs = [r for r in records if r.aggregate]
        assert [a.aggregate for a in aggs] == ["mean", "min", "mean", "min"]
        assert [a.config for a in aggs] == [config.ga_grid[0]] * 2 + [config.ga_grid[1]] * 2
        report = io.StringIO()
        emit_report(aggs, "csv", report)
        assert [row["seed"] for row in csv.DictReader(io.StringIO(report.getvalue()))] == [""] * 4
        for agg in aggs:
            assert agg.ratio_vs_bfd == pytest.approx(records[0].total_kwh / agg.total_kwh)

    def test_gapa_without_bfd_has_no_ratio(self):
        records = run_experiment(small_config(solvers=("gapa",), seeds=(1, 2)))
        assert [(r.solver, r.aggregate) for r in records] == [
            ("gapa", ""),
            ("gapa", ""),
            ("gapa", "mean"),
            ("gapa", "min"),
        ]
        assert all(r.ratio_vs_bfd is None for r in records)

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

    def test_dump_placements_next_to_a_report_without_extension(self, tmp_path):
        out_dir = tmp_path / "run.v2"
        out_dir.mkdir()
        rc = main(["solve", "--solver", "bfd", "--out", str(out_dir / "report"), "--dump-placements"])
        assert rc == EXIT_OK
        placements = [p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*.placement")]
        assert placements == ["run.v2/report.bfd.placement"]

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

    def test_three_solver_report_is_pinned(self, tmp_path, monkeypatch):
        """The report of all three solvers, with the exact row's ratio and the
        aggregates' empty seed cells, and the placement file of every run."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "tiny.csv").write_text(TINY_TIMETABLE)
        (tmp_path / "tiny.json").write_text(json.dumps(TINY_FLEET))
        argv = ["experiment", "--solvers", "bfd,gapa,exact", "--workload", "tiny.csv", "--fleet", "tiny.json"]
        argv += ["--generations", "3", "--crossover", "0.5", "--seed", "1", "--seed", "2"]
        assert main(argv + ["--out", "r.csv", "--dump-placements"]) == EXIT_OK
        assert (tmp_path / "r.csv").read_text() == TINY_THREE_SOLVER_REPORT
        assert sorted(p.name for p in tmp_path.glob("*.placement")) == [
            "r.bfd.placement",
            "r.exact.placement",
            "r.gapa-g3-c0.5-s1.placement",
            "r.gapa-g3-c0.5-s2.placement",
        ]

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
            pytest.param(
                ["solve", "--solver", "gapa", "--workload", "edge.csv", "--fleet", "mips-edge.json"]
                + ["--vm-pes", "1", "--vm-mips", "1026.2283791778043", "--mutation", "0.5"]
                + ["--generations", "50", "--seed", "1"],
                EXIT_OK,
                id="solve-gapa-move-at-mips-edge",
            ),
            pytest.param(["solve", "--workload", "five.csv", "--fleet", "nan.json"], EXIT_CONFIG, id="solve-nan-curve"),
            pytest.param(["solve", "--fleet", "array.json"], EXIT_CONFIG, id="solve-fleet-document-array"),
            pytest.param(["solve", "--fleet", "string.json"], EXIT_CONFIG, id="solve-fleet-document-string"),
            pytest.param(["solve", "--fleet", "entries-int.json"], EXIT_CONFIG, id="solve-fleet-entries-not-array"),
            pytest.param(["solve", "--fleet", "models-int.json"], EXIT_CONFIG, id="solve-fleet-models-not-array"),
            pytest.param(["solve", "--fleet", "count-inf.json"], EXIT_CONFIG, id="solve-fleet-count-overflow"),
            pytest.param(["solve", "--fleet", "count-negative.json"], EXIT_CONFIG, id="solve-fleet-count-negative"),
            pytest.param(
                ["solve", "--workload", "five.csv", "--fleet", "count-fraction.json"],
                EXIT_CONFIG,
                id="solve-fleet-count-fraction",
            ),
            pytest.param(
                ["solve", "--workload", "five.csv", "--fleet", "count-true.json"],
                EXIT_CONFIG,
                id="solve-fleet-count-true",
            ),
            pytest.param(
                ["solve", "--workload", "five.csv", "--fleet", "count-string.json"],
                EXIT_CONFIG,
                id="solve-fleet-count-string",
            ),
            pytest.param(
                ["solve", "--workload", "five.csv", "--fleet", "pe-fraction.json"],
                EXIT_CONFIG,
                id="solve-fleet-pe-fraction",
            ),
            pytest.param(
                ["solve", "--workload", "five.csv", "--fleet", "mips-true.json"],
                EXIT_CONFIG,
                id="solve-fleet-mips-true",
            ),
            pytest.param(
                ["solve", "--workload", "five.csv", "--fleet", "mips-string.json"],
                EXIT_CONFIG,
                id="solve-fleet-mips-string",
            ),
            pytest.param(["solve", "--workload", "long-field.csv"], EXIT_CONFIG, id="solve-workload-field-too-long"),
            pytest.param(
                ["solve", "--workload", "five.csv", "--dump-placements"], EXIT_CONFIG, id="solve-dump-placements-without-out"
            ),
            pytest.param(["solve", "--workload", "dashed-ids.csv"], EXIT_OK, id="solve-dashes-in-class-and-group-ids"),
            pytest.param(["solve", "--fleet", "mips-nan.json"], EXIT_CONFIG, id="solve-fleet-mips-nan"),
            pytest.param(["solve", "--fleet", "mips-inf.json"], EXIT_CONFIG, id="solve-fleet-mips-inf"),
            pytest.param(["solve", "--workload", "five.csv", "--vm-mips", "inf"], EXIT_CONFIG, id="solve-vm-mips-inf"),
            pytest.param(["solve", "--workload", "five.csv", "--vm-mips", "nan"], EXIT_CONFIG, id="solve-vm-mips-nan"),
            pytest.param(
                ["validate", "--workload", "five.csv", "--placement", "five.placement"], EXIT_OK, id="validate-placement"
            ),
            pytest.param(
                ["validate", "--workload", "five.csv", "--placement", "five-twice.placement"],
                EXIT_CONFIG,
                id="validate-placement-names-a-vm-twice",
            ),
            pytest.param(
                ["validate", "--workload", "five.csv", "--placement", "five-missing.placement"],
                EXIT_CONFIG,
                id="validate-placement-misses-a-vm",
            ),
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
            # Seven VMs whose summed MIPS exceed host 0's capacity plus
            # MIPS_EPS in one summing order and not in another.
            "edge.csv": "day,subject,class_id,group_id,students,slot_mask,duration_s\n6,1,C1,G1,7,1--------------,2700\n",
            "mips-edge.json": json.dumps(
                {
                    "entries": [
                        {"model": "dell_r620", "count": 1, "pe_count": 16, "mips_per_pe": 448.97491589022684},
                        {"model": "dell_r620", "count": 1, "pe_count": 16, "mips_per_pe": 5000.0},
                    ]
                }
            ),
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
            # Counts and core counts are JSON integers; MIPS is a JSON number.
            # None of these is truncated or converted.
            "count-fraction.json": json.dumps({"entries": [{"model": "ibm_x3250", "count": 2.7}]}),
            "count-true.json": json.dumps({"entries": [{"model": "dell_r620", "count": True}]}),
            "count-string.json": json.dumps({"entries": [{"model": "ibm_x3250", "count": "3"}]}),
            "pe-fraction.json": json.dumps({"entries": [{"model": "dell_r620", "count": 1, "pe_count": 15.9}]}),
            "mips-true.json": json.dumps({"entries": [{"model": "dell_r620", "count": 1, "mips_per_pe": True}]}),
            "mips-string.json": json.dumps({"entries": [{"model": "dell_r620", "count": 1, "mips_per_pe": "2200"}]}),
            # One field past the csv module's 131,072-character limit.
            "long-field.csv": FIVE_VM_TIMETABLE + "6,1,C2," + "G" * 131_073 + ",1,123------------,8100\n",
            # Class C-1 with group G and class C with group 1-G.
            "dashed-ids.csv": FIVE_VM_TIMETABLE.replace("C1,G1", "C-1,G") + "6,1,C,1-G,5,123------------,8100\n",
            # JSON's NaN and Infinity tokens read as floats.
            "mips-nan.json": json.dumps({"entries": [{"model": "ibm_x3250", "count": 2, "mips_per_pe": float("nan")}]}),
            "mips-inf.json": json.dumps({"entries": [{"model": "ibm_x3250", "count": 2, "mips_per_pe": float("inf")}]}),
            "five.placement": "".join(f"C1-G1-00{i},0\n" for i in range(1, 6)),
            # The later line for C1-G1-001 would hide the first one.
            "five-twice.placement": "C1-G1-001,99\n" + "".join(f"C1-G1-00{i},0\n" for i in range(1, 6)),
            "five-missing.placement": "".join(f"C1-G1-00{i},0\n" for i in range(1, 5)),
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        assert main(argv) == expected
        err = capsys.readouterr().err
        if expected == EXIT_OK:
            assert err == ""
        else:
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("solver", ["bfd", "gapa", "exact"])
    def test_tiny_demand_on_a_zero_watt_idle_curve(self, solver, tmp_path, monkeypatch, capsys):
        """A busy host draws more than its 0 W idle sample, however small its
        load; a VM too small to register on a host at all is refused."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "one.csv").write_text("day,subject,class_id,group_id,students,slot_mask,duration_s\n6,1,C1,G1,3,12-,5400\n")
        fleet = {
            "entries": [{"model": "zero", "count": 2, "pe_count": 4, "mips_per_pe": 2933.0}],
            "power_models": [{"name": "zero", "samples": list(range(11))}],
        }
        (tmp_path / "zero-idle.json").write_text(json.dumps(fleet))
        argv = ["solve", "--solver", solver, "--workload", "one.csv", "--fleet", "zero-idle.json"]
        argv += ["--generations", "5", "--out", "r.csv"]
        assert main(argv + ["--vm-mips", "1e-7"]) == EXIT_OK
        assert int(_read_csv_report(tmp_path / "r.csv")[0]["hosts_used"]) >= 1
        assert capsys.readouterr().err == ""
        assert main(argv + ["--vm-mips", "1e-320"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_validate_refuses_a_busy_host_whose_load_divides_to_zero(self, tmp_path, monkeypatch, capsys):
        """A placement made at 1e-7 MIPS per PE checks out at that demand; at
        1e-320 each busy host's utilization underflows to 0, and validate
        refuses it as the solvers refuse the instance."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "one.csv").write_text("day,subject,class_id,group_id,students,slot_mask,duration_s\n6,1,C1,G1,3,12-,5400\n")
        fleet = {
            "entries": [{"model": "zero", "count": 2, "pe_count": 4, "mips_per_pe": 2933.0}],
            "power_models": [{"name": "zero", "samples": list(range(11))}],
        }
        (tmp_path / "zero-idle.json").write_text(json.dumps(fleet))
        inputs = ["--workload", "one.csv", "--fleet", "zero-idle.json"]
        solve = ["solve", "--solver", "bfd", "--out", "r.csv", "--dump-placements"] + inputs
        assert main(solve + ["--vm-mips", "1e-7"]) == EXIT_OK
        validate = ["validate", "--placement", "r.bfd.placement"] + inputs
        assert main(validate + ["--vm-mips", "1e-7"]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert main(validate + ["--vm-mips", "1e-320"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_infeasible_placement_exits_infeasible(self, tmp_path):
        # All 211 single-core VMs on one 16-core host cannot be feasible.
        inst = build_instance(small_config())
        placement_path = tmp_path / "bad.placement"
        with open(placement_path, "w") as fh:
            write_placement({v.id: 0 for v in inst.vms}, fh)
        rc = main(["validate", "--placement", str(placement_path)])
        assert rc == EXIT_INFEASIBLE
