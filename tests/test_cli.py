"""End-to-end command-line behavior, exit codes, and file outputs."""

from __future__ import annotations

import json
import logging
import os
import subprocess
import sys
import threading
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import epiqubo
from epiqubo import ScenarioConfig, SolverConfig, import_qubo
from epiqubo.cli import build_parser, cli_dispatch
from epiqubo.qubo import BUILDER_NAMES
from epiqubo.dataio import NetworkFiles, load_network
from conftest import solve_bruteforce_problem1


@pytest.fixture
def workspace(tmp_path):
    """A generated 4-location network with a cases file."""
    netdir = tmp_path / "net"
    assert cli_dispatch(["generate", "--m", "4", "--profile", "gravity", "--seed", "3", "--out", str(netdir)]) == 0
    cases = tmp_path / "cases.csv"
    cases.write_text("location,infected,removed\n0,40,0\n1,10,0\n", encoding="utf-8")
    return {
        "dir": tmp_path,
        "edges": str(netdir / "edges.csv"),
        "population": str(netdir / "population.csv"),
        "cases": str(cases),
    }


def network_flags(ws, with_cases=True):
    flags = ["--network", ws["edges"], "--population", ws["population"]]
    if with_cases:
        flags += ["--cases", ws["cases"]]
    return flags


class TestExitCodes:
    def test_unknown_flag_exits_one(self, capsys):
        assert cli_dispatch(["control", "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_command_exits_one(self):
        assert cli_dispatch(["frobnicate"]) == 1

    def test_help_exits_zero(self):
        assert cli_dispatch(["--help"]) == 0

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code = cli_dispatch(
            ["simulate", "--network", str(tmp_path / "nope.csv"), "--population",
             str(tmp_path / "nope2.csv"), "--model", "sis", "--lambda", "0.1",
             "--mu", "0.1", "--steps", "1"]
        )
        assert code == 1

    def test_invariance_refusal_exits_one(self, workspace, capsys):
        code = cli_dispatch(
            ["control", *network_flags(workspace), "--model", "sir", "--lambda", "0.9",
             "--mu", "0.1", "--gamma", "1", "--out", str(workspace["dir"] / "x")]
        )
        assert code == 1
        assert "invariance bound" in capsys.readouterr().err

    def test_forced_rate_logged_once(self, workspace, caplog):
        with caplog.at_level(logging.WARNING):
            assert cli_dispatch(
                ["control", *network_flags(workspace), "--model", "sir", "--lambda", "0.9",
                 "--mu", "0.1", "--gamma", "1", "--steps", "2", "--force",
                 "--out", str(workspace["dir"] / "forced")]
            ) == 0
        assert caplog.text.count("states will be clamped") == 1

    def test_force_flag_clamps_instead_of_refusing(self, workspace, caplog):
        out = workspace["dir"] / "forced"
        with caplog.at_level(logging.WARNING):
            code = cli_dispatch(
                ["control", *network_flags(workspace), "--model", "sir", "--lambda", "0.9",
                 "--mu", "0.1", "--gamma", "1", "--steps", "2", "--force", "--out", str(out)]
            )
        assert code == 0
        assert "states will be clamped" in caplog.text
        assert "force = true" in (out / "scenario.resolved").read_text(encoding="utf-8")

    @pytest.mark.parametrize("r0", ["nan", "inf"])
    def test_r0_not_finite_is_named(self, workspace, capsys, r0):
        out = workspace["dir"] / "hot"
        code = cli_dispatch(
            ["control", *network_flags(workspace), "--model", "sir", "--r0", r0,
             "--mu", "0.1", "--gamma", "1", "--out", str(out)]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: r0 must be finite, got {r0}\n"
        assert not out.exists()

    def test_infinite_rate_refused_before_the_force_warning(self, workspace, capsys, caplog):
        out = workspace["dir"] / "forced"
        with caplog.at_level(logging.WARNING):
            code = cli_dispatch(
                ["control", *network_flags(workspace), "--model", "sir", "--lambda", "inf",
                 "--mu", "0.1", "--gamma", "1", "--force", "--out", str(out)]
            )
        assert code == 1
        assert caplog.records == []
        assert capsys.readouterr().err == "error: infection rate must be finite and >= 0, got inf\n"
        assert not out.exists()


class TestExhaustiveSizeLimit:
    """The default exhaustive solver enumerates only the bits a control step leaves free."""

    @pytest.fixture
    def flags30(self, tmp_path):
        netdir = tmp_path / "net30"
        assert cli_dispatch(
            ["generate", "--m", "30", "--profile", "gravity", "--seed", "3", "--out", str(netdir)]
        ) == 0
        return ["--network", str(netdir / "edges.csv"), "--population",
                str(netdir / "population.csv"), "--model", "sir", "--lambda", "0.001",
                "--mu", "0.05"]

    @pytest.mark.parametrize("gamma, cases", [("1e-6", False), ("1e-8", True)])
    def test_control_serves_30_locations_like_tabu(self, flags30, tmp_path, gamma, cases):
        if cases:
            (tmp_path / "cases.csv").write_text(
                "location,infected,removed\n0,40,0\n1,10,0\n7,25,0\n", encoding="utf-8"
            )
            flags30 = [*flags30, "--cases", str(tmp_path / "cases.csv")]
        reports = []
        for solver in ("exhaustive", "tabu"):
            out = tmp_path / solver
            assert cli_dispatch(
                ["control", *flags30, "--gamma", gamma, "--solver", solver, "--out", str(out)]
            ) == 0
            reports.append(json.loads((out / "report.json").read_text(encoding="utf-8")))
        exhaustive, tabu = reports
        assert exhaustive["controls"] == tabu["controls"]
        assert exhaustive["objectives"] == tabu["objectives"]
        assert any(map(any, exhaustive["controls"])) == cases

    def test_control_step_beyond_enumeration_limit_exits_two(self, flags30, tmp_path, capsys):
        # no cases and no isolation cost: every bit is tied, so none is fixed
        out = tmp_path / "run"
        code = cli_dispatch(["control", *flags30, "--gamma", "0", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "step 0" in err and "enumeration limit of 25" in err and "sa, tabu or ga" in err
        assert not out.exists()

    @pytest.mark.parametrize("solver", ["exhaustive", "sa", "tabu", "ga"])
    def test_solve_of_fixed_qubo_matches_control_step(self, flags30, tmp_path, capsys, solver):
        # every bit of this QUBO is persistent, so each solver evaluates once
        cases = tmp_path / "cases.csv"
        cases.write_text("location,infected,removed\n0,500,0\n1,300,0\n", encoding="utf-8")
        flags = [*flags30, "--cases", str(cases), "--gamma", "1e-6"]
        qfile = tmp_path / "q.txt"
        assert cli_dispatch(["build-qubo", *flags, "--out", str(qfile)]) == 0
        run = tmp_path / "run"
        assert cli_dispatch(["control", *flags, "--steps", "1", "--out", str(run)]) == 0
        report = json.loads((run / "report.json").read_text(encoding="utf-8"))
        capsys.readouterr()
        assert cli_dispatch(["solve", str(qfile), "--solver", solver]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["evaluations"] == 1
        assert payload["control"] == report["controls"][0]
        assert payload["objective"] == report["objectives"][0]

    def test_build_qubo_and_simulate_still_run(self, flags30, tmp_path, capsys):
        qfile = tmp_path / "q.txt"
        assert cli_dispatch(["build-qubo", *flags30, "--gamma", "1e-6", "--out", str(qfile)]) == 0
        assert import_qubo(qfile.read_text()).m == 30
        assert cli_dispatch(["simulate", *flags30, "--steps", "2"]) == 0
        assert len(capsys.readouterr().out.strip().split("\n")) == 4


class TestGenerateExport:
    def test_generate_then_export_round_trip(self, workspace, tmp_path):
        out2 = tmp_path / "reexport"
        assert cli_dispatch(
            ["export-network", "--network", workspace["edges"], "--population",
             workspace["population"], "--out", str(out2)]
        ) == 0
        a, _, _, _ = load_network(NetworkFiles(workspace["edges"], workspace["population"]))
        b, _, _, _ = load_network(NetworkFiles(out2 / "edges.csv", out2 / "population.csv"))
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.populations, b.populations)

    def test_export_refuses_row_with_extra_field(self, workspace, tmp_path, capsys):
        edges = tmp_path / "long.csv"
        edges.write_text("from,to,weight\n0,1,0.5,9\n", encoding="utf-8")
        out = tmp_path / "reexport"
        code = cli_dispatch(
            ["export-network", "--network", str(edges), "--population",
             workspace["population"], "--out", str(out)]
        )
        assert code == 1
        assert f"error: {edges}: row 2 has 4 fields, expected 3" in capsys.readouterr().err
        assert not out.exists()

    def test_export_refuses_a_repeated_header_column(self, workspace, tmp_path, capsys):
        edges = tmp_path / "twice.csv"
        edges.write_text("from,to,weight,weight\n0,1,0.5,0.7\n", encoding="utf-8")
        out = tmp_path / "reexport"
        code = cli_dispatch(
            ["export-network", "--network", str(edges), "--population",
             workspace["population"], "--out", str(out)]
        )
        assert code == 1
        assert (
            f"error: {edges}: expected header ['from', 'to', 'weight'], "
            "got ['from', 'to', 'weight', 'weight']"
        ) in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_population_message_names_the_id_whatever_the_hash_seed(self, tmp_path):
        # both references of row 3 repeat row 2's; the id is checked first
        pop = tmp_path / "population.csv"
        pop.write_text("location,name,population\n0,a,10\n0,a,5\n", encoding="utf-8")
        edges = tmp_path / "edges.csv"
        edges.write_text("from,to,weight\n", encoding="utf-8")
        src = str(Path(epiqubo.__file__).resolve().parents[1])
        for seed in range(1, 9):
            env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
            proc = subprocess.run(
                [sys.executable, "-m", "epiqubo.cli", "export-network", "--network", str(edges),
                 "--population", str(pop), "--out", str(tmp_path / "out")],
                env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 1
            assert proc.stderr == f"error: {pop}: duplicate location reference '0'\n"

    def test_unservable_size_exits_one(self, tmp_path, capsys):
        # a 10^7 x 10^7 weight matrix cannot be allocated, so it is refused at once
        out = tmp_path / "big"
        assert cli_dispatch(["generate", "--m", "10000000", "--out", str(out)]) == 1
        assert "m=10000000" in capsys.readouterr().err
        assert not out.exists()

    def test_unallocatable_network_names_its_size(self, tmp_path, capsys, monkeypatch):
        # the host refuses the M x M weight matrix; the refusal is faked, so
        # nothing that size is allocated
        m = 2000
        pop = tmp_path / "population.csv"
        pop.write_text(
            "location,name,population\n" + "".join(f"{i},n{i},10\n" for i in range(m)),
            encoding="utf-8",
        )
        edges = tmp_path / "edges.csv"
        edges.write_text("from,to,weight\n0,1,0.5\n", encoding="utf-8")
        zeros = np.zeros

        def refusing_zeros(shape, *args, **kwargs):
            if shape == (m, m):
                raise MemoryError(f"Unable to allocate an array with shape ({m}, {m})")
            return zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", refusing_zeros)
        out = tmp_path / "out"
        code = cli_dispatch(
            ["export-network", "--network", str(edges), "--population", str(pop),
             "--out", str(out)]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {pop}: M={m} locations need a {m}x{m} weight matrix "
            "that cannot be allocated\n"
        )
        assert not out.exists()


class TestSimulate:
    def test_zero_steps_outputs_only_initial_state(self, workspace, capsys):
        code = cli_dispatch(
            ["simulate", *network_flags(workspace), "--model", "sir", "--lambda", "0.01",
             "--mu", "0.05", "--steps", "0"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 2  # header plus t=0
        assert lines[1].startswith("0,50.0")

    def test_r0_calibration_path(self, workspace, capsys):
        code = cli_dispatch(
            ["simulate", *network_flags(workspace), "--model", "sir", "--r0", "2.0",
             "--mu", "0.05", "--steps", "3"]
        )
        assert code == 0
        assert len(capsys.readouterr().out.strip().split("\n")) == 5

    def test_lambda_and_r0_mutually_exclusive(self, workspace):
        assert cli_dispatch(
            ["simulate", *network_flags(workspace), "--model", "sir", "--lambda", "0.01",
             "--r0", "2.0", "--mu", "0.05", "--steps", "1"]
        ) == 1

    def test_baseline_defaults_to_thirty_steps(self, workspace, capsys):
        code = cli_dispatch(
            ["baseline", *network_flags(workspace), "--model", "sir", "--lambda", "0.01",
             "--mu", "0.05"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 32  # header plus t = 0..30


class TestBuildSolvePipeline:
    def test_qubo_file_solves_to_bruteforce_answer(self, workspace, tmp_path):
        qfile = tmp_path / "q.txt"
        code = cli_dispatch(
            ["build-qubo", *network_flags(workspace), "--model", "sir", "--lambda", "0.02",
             "--mu", "0.05", "--gamma", "1e-6", "--builder", "numeric", "--out", str(qfile)]
        )
        assert code == 0
        out = tmp_path / "sol.json"
        assert cli_dispatch(["solve", str(qfile), "--solver", "exhaustive", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())

        net, _, infected, removed = load_network(
            NetworkFiles(workspace["edges"], workspace["population"], workspace["cases"])
        )
        from epiqubo import EpidemicParams, EpidemicState

        params = EpidemicParams("sir", 0.02, 0.05)
        state = EpidemicState(infected, removed)
        u_bf = solve_bruteforce_problem1(net, params, state, 1e-6)
        assert np.array_equal(np.array(payload["control"]), u_bf)

    def test_qubo_parse_error_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("# QUBO M=2 offset=0.0\n0 x 1.0\n", encoding="utf-8")
        assert cli_dispatch(["solve", str(bad)]) == 1
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "header, body, message",
        [
            ("offset=0.0", "0 1 nan", "line 2: coefficient must be finite, got '0 1 nan'"),
            ("offset=0.0", "0 0 1e400", "line 2: coefficient must be finite, got '0 0 1e400'"),
            ("offset=inf", "0 1 1.0", "line 1: offset must be finite, got inf"),
        ],
    )
    def test_non_finite_value_names_its_line(self, tmp_path, capsys, header, body, message):
        qfile = tmp_path / "nonfinite.qubo"
        qfile.write_text(f"# QUBO M=2 {header}\n{body}\n", encoding="utf-8")
        assert cli_dispatch(["solve", str(qfile)]) == 1
        assert f"error: {message}" in capsys.readouterr().err

    def test_unservable_size_exits_one(self, tmp_path, capsys):
        # a 10^7 x 10^7 coupling matrix cannot be allocated, so it is refused at once
        big = tmp_path / "big.txt"
        big.write_text("# QUBO M=10000000 offset=0.0\n", encoding="utf-8")
        assert cli_dispatch(["solve", str(big), "--solver", "sa"]) == 1
        err = capsys.readouterr().err
        assert "line 1" in err and "M=10000000" in err

    @pytest.mark.parametrize("solver", ["sa", "ga"])
    def test_empty_qubo_solves(self, tmp_path, capsys, solver):
        qfile = tmp_path / "m0.qubo"
        qfile.write_text("# QUBO M=0 offset=1.5\n", encoding="utf-8")
        assert cli_dispatch(["solve", str(qfile), "--solver", solver]) == 0
        out = capsys.readouterr().out
        assert '"z_best": []' in out
        assert json.loads(out)["objective"] == 1.5

    def test_builders_agree_through_files(self, workspace, tmp_path):
        texts = []
        for builder in ("analytic", "numeric"):
            qfile = tmp_path / f"{builder}.txt"
            cli_dispatch(
                ["build-qubo", *network_flags(workspace), "--model", "sir", "--lambda",
                 "0.02", "--mu", "0.05", "--gamma", "1e-6", "--builder", builder,
                 "--out", str(qfile)]
            )
            texts.append(qfile.read_text())
        qa, qn = import_qubo(texts[0]), import_qubo(texts[1])
        assert np.allclose(qa.linear, qn.linear, rtol=1e-9, atol=1e-9)


class TestControl:
    def run_control(self, ws, out, seed="7"):
        return cli_dispatch(
            ["control", *network_flags(ws), "--model", "sir", "--lambda", "0.02",
             "--mu", "0.05", "--gamma", "1e-7", "--steps", "6", "--solver", "exhaustive",
             "--seed", seed, "--out", str(out)]
        )

    def test_outputs_written(self, workspace):
        out = workspace["dir"] / "run"
        assert self.run_control(workspace, out) == 0
        for name in ("report.json", "trajectory.csv", "baseline.csv", "scenario.resolved"):
            assert (out / name).exists()
        report = json.loads((out / "report.json").read_text())
        assert len(report["controls"]) == 6
        assert report["metrics"]["peak_uncontrolled"] > 0

    def test_reports_identical_excluding_timing(self, workspace):
        out1 = workspace["dir"] / "r1"
        out2 = workspace["dir"] / "r2"
        assert self.run_control(workspace, out1) == 0
        assert self.run_control(workspace, out2) == 0
        r1 = json.loads((out1 / "report.json").read_text())
        r2 = json.loads((out2 / "report.json").read_text())
        r1.pop("timing")
        r2.pop("timing")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
        assert (out1 / "baseline.csv").read_bytes() == (out2 / "baseline.csv").read_bytes()

    def test_resolved_scenario_rerun_reproduces_report(self, workspace, tmp_path):
        out = workspace["dir"] / "orig"
        assert self.run_control(workspace, out) == 0
        rerun = tmp_path / "rerun"
        assert cli_dispatch(["batch", str(out / "scenario.resolved"), "--out", str(rerun)]) == 0
        r1 = json.loads((out / "report.json").read_text())
        r2 = json.loads((rerun / "scenario" / "report.json").read_text())
        r1.pop("timing")
        r2.pop("timing")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_r0_resolved_scenario_rerun_reproduces_report(self, workspace, tmp_path):
        out = workspace["dir"] / "r0run"
        assert cli_dispatch(
            ["control", *network_flags(workspace), "--model", "sir", "--r0", "1.5",
             "--mu", "0.05", "--gamma", "1e-7", "--steps", "4", "--solver", "exhaustive",
             "--seed", "7", "--out", str(out)]
        ) == 0
        rerun = tmp_path / "r0rerun"
        assert cli_dispatch(["batch", str(out / "scenario.resolved"), "--out", str(rerun)]) == 0
        r1 = json.loads((out / "report.json").read_text())
        r2 = json.loads((rerun / "scenario" / "report.json").read_text())
        assert list(r1["scenario"])[:3] == ["model", "lambda", "mu"]
        r1.pop("timing")
        r2.pop("timing")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
        resolved = (rerun / "scenario" / "scenario.resolved").read_bytes()
        assert resolved == (out / "scenario.resolved").read_bytes()

    def test_bad_solver_knob_refused_before_any_step(self, workspace, capsys):
        out = workspace["dir"] / "run"
        code = cli_dispatch(
            ["control", *network_flags(workspace), "--model", "sir", "--lambda", "0.02",
             "--mu", "0.05", "--gamma", "1e-7", "--solver", "sa", "--budget", "0",
             "--out", str(out)]
        )
        assert code == 1
        assert "budget must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_report_all_finite_and_in_bounds(self, workspace):
        out = workspace["dir"] / "r3"
        assert self.run_control(workspace, out) == 0
        report = json.loads((out / "report.json").read_text())
        infected = np.array(report["trajectory"]["infected"])
        assert np.all(np.isfinite(infected))
        assert np.all(infected >= 0)
        net, _, _, _ = load_network(NetworkFiles(workspace["edges"], workspace["population"]))
        assert np.all(infected <= net.populations + 1e-9)


class TestControlReductionLine:
    def test_undefined_reductions_print_without_percent(self, tmp_path, capsys):
        # no cases file: nothing is infected, so the uncontrolled peak is 0
        netdir = tmp_path / "net"
        assert cli_dispatch(["generate", "--m", "5", "--profile", "ring", "--seed", "1", "--out", str(netdir)]) == 0
        capsys.readouterr()
        out = tmp_path / "run"
        assert cli_dispatch(
            ["control", "--network", str(netdir / "edges.csv"),
             "--population", str(netdir / "population.csv"), "--model", "sis", "--r0", "0.3",
             "--mu", "0.2", "--gamma", "1e-6", "--steps", "2", "--out", str(out)]
        ) == 0
        metrics = json.loads((out / "report.json").read_text())["metrics"]
        assert metrics["peak_reduction_pct"] is None and metrics["avg_reduction_pct"] is None
        assert capsys.readouterr().err == "peak reduction: undefined  average reduction: undefined\n"

    def test_defined_reductions_print_as_percentages(self, workspace, capsys):
        out = workspace["dir"] / "run"
        assert TestControl().run_control(workspace, out) == 0
        metrics = json.loads((out / "report.json").read_text())["metrics"]
        assert capsys.readouterr().err == (
            f"peak reduction: {metrics['peak_reduction_pct']}%  "
            f"average reduction: {metrics['avg_reduction_pct']}%\n"
        )


class TestMetricsCommand:
    def test_metrics_from_trajectory_files(self, workspace, capsys):
        out = workspace["dir"] / "mrun"
        assert TestControl().run_control(workspace, out) == 0
        code = cli_dispatch(
            ["metrics", "--controlled", str(out / "trajectory.csv"), "--baseline",
             str(out / "baseline.csv")]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        report = json.loads((out / "report.json").read_text())
        assert payload["peak_reduction_pct"] == pytest.approx(
            report["metrics"]["peak_reduction_pct"]
        )

    def test_one_row_trajectory_has_zero_average(self, workspace, tmp_path, capsys):
        traj = tmp_path / "t0.csv"
        assert cli_dispatch(
            ["simulate", *network_flags(workspace), "--model", "sis", "--lambda", "0.02",
             "--mu", "0.05", "--steps", "0", "--out", str(traj)]
        ) == 0
        assert cli_dispatch(
            ["metrics", "--controlled", str(traj), "--baseline", str(traj)]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["avg_controlled"] == payload["avg_uncontrolled"] == 0.0
        assert payload["avg_reduction_pct"] is None
        assert payload["peak_reduction_pct"] == 0.0


class TestMetricsRefusesMalformedCsv:
    """A malformed trajectory CSV exits 1 with one line naming its row."""

    GOOD = "step,total,loc_0,loc_1\n0,3.0,1.0,2.0\n1,2.0,1.0,1.0\n"

    def metrics(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.csv"
        bad.write_text(text, encoding="utf-8")
        good = tmp_path / "good.csv"
        good.write_text(self.GOOD, encoding="utf-8")
        code = cli_dispatch(["metrics", "--controlled", str(bad), "--baseline", str(good)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {bad}: ")
        return lines[0]

    def test_short_row(self, tmp_path, capsys):
        line = self.metrics(tmp_path, capsys, "step,total\n0,5.0\n1\n")
        assert line.endswith("row 3 has 1 fields, expected 2")

    def test_total_not_a_number(self, tmp_path, capsys):
        line = self.metrics(tmp_path, capsys, "step,total\n0,5.0\n1,abc\n")
        assert line.endswith("total must be a finite nonnegative number, got 'abc' (row 3)")

    def test_long_row(self, tmp_path, capsys):
        line = self.metrics(tmp_path, capsys, "step,total\n0,5.0,7\n1,2.0\n")
        assert line.endswith("row 2 has 3 fields, expected 2")

    def test_nan_total(self, tmp_path, capsys):
        line = self.metrics(tmp_path, capsys, "step,total\n0,5.0\n1,nan\n")
        assert line.endswith("total must be a finite nonnegative number, got 'nan' (row 3)")

    def test_negative_total(self, tmp_path, capsys):
        line = self.metrics(tmp_path, capsys, "step,total\n0,2.0\n1,-4.0\n")
        assert line.endswith("total must be a finite nonnegative number, got '-4.0' (row 3)")


    def test_unparsed_step_and_location_columns(self, tmp_path, capsys):
        # one location column, a bad step, a bad value, against two locations
        line = self.metrics(tmp_path, capsys, "step,total,loc_0\nx,2.0,abc\n7,1.0,zz\n")
        assert line.endswith("step must read 0, 1, 2, ...: expected 0, got 'x' (row 2)")

    @pytest.mark.parametrize("step", ["2", "0", "-1", "1.0"])
    def test_step_out_of_sequence(self, tmp_path, capsys, step):
        line = self.metrics(
            tmp_path, capsys, f"step,total,loc_0,loc_1\n0,3.0,1.0,2.0\n{step},2.0,1.0,1.0\n"
        )
        assert line.endswith(f"step must read 0, 1, 2, ...: expected 1, got {step!r} (row 3)")

    @pytest.mark.parametrize("value", ["abc", "nan", "inf", "-1.0", ""])
    def test_location_value_not_finite_nonnegative(self, tmp_path, capsys, value):
        line = self.metrics(
            tmp_path, capsys, f"step,total,loc_0,loc_1\n0,3.0,1.0,2.0\n1,2.0,1.0,{value}\n"
        )
        assert line.endswith(f"loc_1 must be a finite nonnegative number, got {value!r} (row 3)")

    def test_first_failing_row_is_named(self, tmp_path, capsys):
        line = self.metrics(
            tmp_path, capsys, "step,total,loc_0,loc_1\n0,3.0,1.0,-2.0\n1,abc,1.0,1.0\n"
        )
        assert line.endswith("loc_1 must be a finite nonnegative number, got '-2.0' (row 2)")

    def test_location_counts_differ(self, tmp_path, capsys):
        line = self.metrics(tmp_path, capsys, "step,total,loc_0\n0,3.0,3.0\n1,2.0,2.0\n")
        assert line.endswith(f"location count 1 differs from 2 in {tmp_path / 'good.csv'} (row 1)")

    def test_step_counts_differ(self, tmp_path, capsys):
        line = self.metrics(tmp_path, capsys, "step,total,loc_0,loc_1\n0,3.0,1.0,2.0\n")
        assert line.endswith(f"step count 0 differs from 1 in {tmp_path / 'good.csv'}")


class TestMetricsComparesTotalWithLocations:
    """A trajectory row whose ``total`` is not the sum of its ``loc_i``
    values exits 1 and names the row."""

    def test_total_above_its_location_sum(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("step,total,loc_0,loc_1\n0,5.0,1.0,1.0\n1,9.0,0.0,0.0\n", encoding="utf-8")
        good = tmp_path / "good.csv"
        good.write_text(TestMetricsRefusesMalformedCsv.GOOD, encoding="utf-8")
        assert cli_dispatch(["metrics", "--controlled", str(bad), "--baseline", str(good)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad}: total must equal the loc_i sum 2.0, got '5.0' (row 2)\n"


class TestBatchRunsInOrder:
    """``batch`` runs its documents in the calling thread, in the order given,
    whatever ``--jobs`` says."""

    NAMES = ("c", "a", "b")

    def documents(self, workspace, tmp_path):
        docs = []
        for name, gamma in zip(self.NAMES, ("1e-7", "1e-5", "1e-3")):
            scen = tmp_path / f"{name}.scenario"
            scen.write_text(
                f"model = sir\nlambda = 0.02\nmu = 0.05\ngamma = {gamma}\nsteps = 3\n"
                f"edges = {workspace['edges']}\npopulation = {workspace['population']}\n"
                f"cases = {workspace['cases']}\n",
                encoding="utf-8",
            )
            docs.append(str(scen))
        return docs

    def test_documents_run_in_the_calling_thread_in_argv_order(
        self, workspace, tmp_path, monkeypatch
    ):
        calls = []

        def record(cfg, state0, echo, out_dir):
            calls.append((threading.get_ident(), out_dir))

        monkeypatch.setattr("epiqubo.cli._run_control", record)
        out = tmp_path / "o"
        docs = self.documents(workspace, tmp_path)
        assert cli_dispatch(["batch", *docs, "--out", str(out), "--jobs", "2"]) == 0
        assert calls == [(threading.get_ident(), str(out / name)) for name in self.NAMES]

    def test_jobs_changes_no_output(self, workspace, tmp_path):
        docs = self.documents(workspace, tmp_path)
        outputs = []
        for k, jobs in enumerate(([], ["--jobs", "1"], ["--jobs", "2"])):
            out = tmp_path / f"o{k}"
            assert cli_dispatch(["batch", *docs, "--out", str(out), *jobs]) == 0
            files = {}
            for name in self.NAMES:
                report = json.loads((out / name / "report.json").read_text())
                report.pop("timing")
                files[name] = [json.dumps(report)] + [
                    (out / name / f).read_bytes()
                    for f in ("trajectory.csv", "baseline.csv", "scenario.resolved")
                ]
            outputs.append(files)
        assert outputs[0] == outputs[1] == outputs[2]


class TestBatch:
    def test_scenario_file_runs_and_is_rerunnable(self, workspace, tmp_path):
        scen = tmp_path / "alpha.scenario"
        scen.write_text(
            "model = sir\nlambda = 0.02\nmu = 0.05\ngamma = 1e-7\nsteps = 4\n"
            f"edges = {workspace['edges']}\npopulation = {workspace['population']}\n"
            f"cases = {workspace['cases']}\nseed = 7\n",
            encoding="utf-8",
        )
        out = tmp_path / "batch1"
        assert cli_dispatch(["batch", str(scen), "--out", str(out)]) == 0
        resolved = out / "alpha" / "scenario.resolved"
        assert resolved.exists()
        # the echoed document re-runs to identical non-timing output
        out2 = tmp_path / "batch2"
        assert cli_dispatch(["batch", str(resolved), "--out", str(out2)]) == 0
        r1 = json.loads((out / "alpha" / "report.json").read_text())
        r2 = json.loads((out2 / "scenario" / "report.json").read_text())
        r1.pop("timing")
        r2.pop("timing")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_synthetic_scenario(self, tmp_path):
        scen = tmp_path / "synth.scenario"
        scen.write_text(
            "model = sis\nr0 = 2.0\nmu = 0.1\ngamma = 1e-6\nsteps = 3\n"
            "profile = complete\nm = 5\nnetwork_seed = 9\nseed = 1\n",
            encoding="utf-8",
        )
        out = tmp_path / "batchout"
        assert cli_dispatch(["batch", str(scen), "--out", str(out)]) == 0
        assert (out / "synth" / "report.json").exists()

    def test_r0_document_matches_r0_flags(self, workspace, tmp_path):
        out = tmp_path / "flags"
        assert cli_dispatch(
            ["control", *network_flags(workspace), "--model", "sir", "--r0", "1.5",
             "--mu", "0.05", "--gamma", "1e-7", "--steps", "2", "--out", str(out)]
        ) == 0
        resolved = (out / "scenario.resolved").read_text(encoding="utf-8")
        lines = resolved.split("\n")
        lines = ["r0 = 1.5" if line.startswith("lambda") else line for line in lines]
        doc = tmp_path / "calibrated.scenario"
        doc.write_text("\n".join(lines), encoding="utf-8")
        assert cli_dispatch(["batch", str(doc), "--out", str(tmp_path / "docs")]) == 0
        rerun = tmp_path / "docs" / "calibrated" / "scenario.resolved"
        assert rerun.read_text(encoding="utf-8") == resolved

    def test_network_warnings_logged(self, tmp_path, caplog):
        (tmp_path / "population.csv").write_text(
            "location,name,population\n0,a,100\n1,b,100\n", encoding="utf-8"
        )
        (tmp_path / "edges.csv").write_text("from,to,weight\n0,1,1.5\n", encoding="utf-8")
        scen = tmp_path / "heavy.scenario"
        scen.write_text(
            "model = sis\nlambda = 0.01\nmu = 0.1\ngamma = 1e-6\nsteps = 1\n"
            "edges = edges.csv\npopulation = population.csv\n",
            encoding="utf-8",
        )
        with caplog.at_level(logging.WARNING):
            assert cli_dispatch(["batch", str(scen), "--out", str(tmp_path / "o")]) == 0
        assert "network: weight > 1 at (0, 1)" in caplog.messages

    def test_bad_scenario_exits_one(self, tmp_path, capsys):
        scen = tmp_path / "bad.scenario"
        scen.write_text("model = sis\nwat = 1\n", encoding="utf-8")
        assert cli_dispatch(["batch", str(scen), "--out", str(tmp_path / "o")]) == 1
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("ts_restarts", "2.5", "scenario key 'ts_restarts': expected an integer, got '2.5'"),
            ("mu", "fast", "scenario key 'mu': expected a number, got 'fast'"),
            ("ts_restarts", "0", "restart count must be positive"),
            ("model", "SIS", "scenario key 'model': expected sis or sir, got 'SIS'"),
            ("network_seed", "-1",
             "scenario key 'network_seed': expected a nonnegative integer, got '-1'"),
            ("gamma", "nan", "gamma must be finite and nonnegative, got nan"),
            ("gamma", "inf", "gamma must be finite and nonnegative, got inf"),
            ("lambda", "inf", "infection rate must be finite and >= 0, got inf"),
            ("m", "10000000", "m=10000000 needs a 10000000x10000000 weight matrix"),
            ("sa_initial_temperature", "nan", "initial temperature must be finite and positive"),
        ],
    )
    def test_bad_value_exits_one_naming_it(self, tmp_path, capsys, key, value, message):
        values = {"model": "sis", "lambda": "0.01", "mu": "0.1", "gamma": "1e-6", "steps": "1",
                  "profile": "complete", "m": "3", "solver": "tabu", key: value}
        scen = tmp_path / "bad.scenario"
        scen.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
        out = tmp_path / "o"
        assert cli_dispatch(["batch", str(scen), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not (out / "bad").exists()

    def test_concurrent_batch_isolated(self, workspace, tmp_path):
        scens = []
        for i, gamma in enumerate(("1e-7", "1e-3")):
            scen = tmp_path / f"s{i}.scenario"
            scen.write_text(
                f"model = sir\nlambda = 0.02\nmu = 0.05\ngamma = {gamma}\nsteps = 3\n"
                f"edges = {workspace['edges']}\npopulation = {workspace['population']}\n"
                f"cases = {workspace['cases']}\n",
                encoding="utf-8",
            )
            scens.append(str(scen))
        out = tmp_path / "multi"
        assert cli_dispatch(["batch", *scens, "--out", str(out), "--jobs", "2"]) == 0
        assert (out / "s0" / "report.json").exists()
        assert (out / "s1" / "report.json").exists()

    @pytest.mark.parametrize("value, code", [("yes", 1), ("1", 1), ("TRUE", 0), ("False", 1)])
    def test_force_parses_only_true_or_false(self, tmp_path, capsys, value, code):
        # above the invariance bound, so only a true force lets the run proceed
        scen = tmp_path / "hot.scenario"
        scen.write_text(
            "model = sis\nlambda = 0.9\nmu = 0.1\ngamma = 1e-6\nsteps = 1\n"
            f"profile = complete\nm = 3\nforce = {value}\n",
            encoding="utf-8",
        )
        assert cli_dispatch(["batch", str(scen), "--out", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err
        if value.lower() in ("true", "false"):
            assert "expected true or false" not in err
        else:
            assert f"scenario key 'force': expected true or false, got {value!r}" in err

    def test_errors_reported_in_submission_order(self, tmp_path, capsys):
        # the first document fails after generating and calibrating a network,
        # the second at once while parsing
        slow = tmp_path / "z_slow.scenario"
        slow.write_text(
            "model = sis\nr0 = 2\nmu = 0.1\ngamma = 1e-6\nsteps = 1\n"
            "profile = complete\nm = 300\nforce = maybe\n",
            encoding="utf-8",
        )
        fast = tmp_path / "a_fast.scenario"
        fast.write_text("model = sis\nwat = 1\n", encoding="utf-8")
        out = tmp_path / "o"
        assert cli_dispatch(["batch", str(slow), str(fast), "--out", str(out), "--jobs", "2"]) == 1
        lines = capsys.readouterr().err.splitlines()
        names = [line.split(":")[0] for line in lines if line.startswith("error in ")]
        assert names == [f"error in {slow}", f"error in {fast}"]

    def test_duplicate_stems_refused_before_any_run(self, tmp_path, capsys):
        paths = []
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            scen = tmp_path / sub / "run.scenario"
            scen.write_text(
                "model = sis\nlambda = 0.01\nmu = 0.1\ngamma = 1e-6\nsteps = 1\n"
                "profile = complete\nm = 3\n",
                encoding="utf-8",
            )
            paths.append(str(scen))
        out = tmp_path / "o"
        assert cli_dispatch(["batch", *paths, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert paths[0] in err and paths[1] in err
        assert not out.exists()

    def test_each_error_line_written_whole(self, tmp_path, monkeypatch):
        class Recorder:
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append(text)

            def flush(self):
                pass

        scens = []
        for name in ("one", "two"):
            scen = tmp_path / f"{name}.scenario"
            scen.write_text("model = sis\nwat = 1\n", encoding="utf-8")
            scens.append(str(scen))
        stderr = Recorder()
        monkeypatch.setattr("sys.stderr", stderr)
        assert cli_dispatch(["batch", *scens, "--out", str(tmp_path / "o"), "--jobs", "2"]) == 1
        lines = [w for w in stderr.writes if "error in" in w]
        assert len(lines) == 2
        assert all(w.startswith("error in ") and w.endswith("\n") for w in lines)
        assert all(w.count("\n") == 1 for w in lines)


class TestRefusedBeforeAnyStep:
    """Inputs no run can serve exit 1 with a message that names them."""

    @pytest.mark.parametrize("solver", ["tabu", "exhaustive"])
    def test_control_negative_seed(self, workspace, capsys, solver):
        out = workspace["dir"] / "run"
        code = cli_dispatch(
            ["control", *network_flags(workspace), "--model", "sir", "--lambda", "0.02",
             "--mu", "0.05", "--gamma", "1e-7", "--solver", solver, "--seed", "-1",
             "--out", str(out)]
        )
        assert code == 1
        assert "seed must be nonnegative, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_solve_negative_seed(self, tmp_path, capsys):
        path = tmp_path / "q.txt"
        path.write_text("# QUBO M=2 offset=0.0\n0 0 -1.0\n0 1 2.0\n", encoding="utf-8")
        assert cli_dispatch(["solve", str(path), "--solver", "sa", "--seed", "-1"]) == 1
        assert "seed must be nonnegative, got -1" in capsys.readouterr().err

    def test_generate_negative_seed(self, tmp_path, capsys):
        out = tmp_path / "net"
        assert cli_dispatch(["generate", "--m", "4", "--seed", "-1", "--out", str(out)]) == 1
        assert "seed must be nonnegative, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_batch_negative_seed(self, tmp_path, capsys):
        scen = tmp_path / "neg.scenario"
        scen.write_text(
            "model = sis\nlambda = 0.01\nmu = 0.1\ngamma = 1e-6\nsteps = 1\n"
            "profile = complete\nm = 3\nsolver = tabu\nseed = -1\n",
            encoding="utf-8",
        )
        out = tmp_path / "o"
        assert cli_dispatch(["batch", str(scen), "--out", str(out)]) == 1
        assert f"error in {scen}: seed must be nonnegative, got -1" in capsys.readouterr().err
        assert not (out / "neg").exists()

    def run_steps(self, ws, command, steps):
        gamma = ["--gamma", "1e-7"] if command == "control" else []
        out = ws["dir"] / "run"
        code = cli_dispatch(
            [command, *network_flags(ws), "--model", "sir", "--lambda", "0.02", "--mu", "0.05",
             *gamma, "--steps", str(steps), "--out", str(out)]
        )
        return code, out

    @pytest.mark.parametrize("command", ["simulate", "control"])
    def test_unaddressable_step_count(self, workspace, capsys, command):
        # numpy refuses a shape of 2**62 rows before it allocates anything
        code, out = self.run_steps(workspace, command, 2**62)
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: steps={2**62} needs per-step arrays that cannot be allocated" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "control"])
    def test_unallocatable_step_count(self, workspace, capsys, monkeypatch, command):
        # the host refuses the per-step arrays of 10**10 steps; the refusal is
        # faked, so nothing is allocated
        steps = 10**10
        zeros = np.zeros

        def refusing_zeros(shape, *args, **kwargs):
            if ((shape,) if isinstance(shape, int) else tuple(shape))[:1] == (steps,):
                raise MemoryError(f"Unable to allocate an array with {steps} rows")
            return zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", refusing_zeros)
        code, out = self.run_steps(workspace, command, steps)
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: steps={steps} needs per-step arrays that cannot be allocated" in err
        assert not out.exists()

    def test_batch_unaddressable_step_count(self, tmp_path, capsys):
        scen = tmp_path / "long.scenario"
        scen.write_text(
            f"model = sis\nlambda = 0.01\nmu = 0.1\ngamma = 1e-6\nsteps = {2**62}\n"
            "profile = ring\nm = 3\n",
            encoding="utf-8",
        )
        out = tmp_path / "o"
        assert cli_dispatch(["batch", str(scen), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error in {scen}: steps={2**62} needs per-step arrays" in err
        assert not (out / "long").exists()

    def test_short_edge_row(self, workspace, tmp_path, capsys):
        edges = tmp_path / "short.csv"
        edges.write_text("from,to,weight\n0,1\n", encoding="utf-8")
        flags = ["--network", str(edges), "--population", workspace["population"]]
        code = cli_dispatch(
            ["control", *flags, "--model", "sir", "--lambda", "0.02", "--mu", "0.05",
             "--gamma", "1e-7", "--out", str(tmp_path / "run")]
        )
        assert code == 1
        assert f"error: {edges}: row 2 has 2 fields, expected 3" in capsys.readouterr().err

    def test_open_quote_exits_one_in_control_and_batch(self, workspace, tmp_path, capsys):
        edges = tmp_path / "quote.csv"
        edges.write_text('from,to,weight\n0,1,"0.5\n', encoding="utf-8")
        flags = ["--network", str(edges), "--population", workspace["population"]]
        code = cli_dispatch(
            ["control", *flags, "--model", "sir", "--lambda", "0.02", "--mu", "0.05",
             "--gamma", "1e-7", "--out", str(tmp_path / "run")]
        )
        assert code == 1
        assert f"error: {edges}: row 2: unexpected end of data" in capsys.readouterr().err
        scen = tmp_path / "quote.scenario"
        scen.write_text(
            f"model = sis\nlambda = 0.01\nmu = 0.1\ngamma = 1e-6\nsteps = 1\n"
            f"edges = {edges}\npopulation = {workspace['population']}\n",
            encoding="utf-8",
        )
        assert cli_dispatch(["batch", str(scen), "--out", str(tmp_path / "o")]) == 1
        assert f"error in {scen}: {edges}: row 2: unexpected end of data" in capsys.readouterr().err

    def test_batch_short_cases_row(self, tmp_path, capsys):
        (tmp_path / "cases.csv").write_text("location,infected\n0\n", encoding="utf-8")
        scen = tmp_path / "short.scenario"
        scen.write_text(
            "model = sis\nlambda = 0.01\nmu = 0.1\ngamma = 1e-6\nsteps = 1\n"
            "profile = complete\nm = 3\ncases = cases.csv\n",
            encoding="utf-8",
        )
        assert cli_dispatch(["batch", str(scen), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"error in {scen}: " in err and "row 2 has 1 fields, expected 2" in err

    @pytest.mark.parametrize("first", ["0", "loc_0"], ids=["same-alias", "other-alias"])
    def test_repeated_cases_location_exits_one_in_control_and_batch(self, tmp_path, capsys, first):
        pop = tmp_path / "population.csv"
        pop.write_text("location,name,population\n0,loc_0,100\n1,loc_1,50\n", encoding="utf-8")
        edges = tmp_path / "edges.csv"
        edges.write_text("from,to,weight\n0,1,0.5\n", encoding="utf-8")
        cases = tmp_path / "cases.csv"
        cases.write_text(f"location,infected\n{first},5\n0,7\n", encoding="utf-8")
        message = f"{cases}: repeated location '0' (row 3)"
        out = tmp_path / "run"
        code = cli_dispatch(
            ["control", "--network", str(edges), "--population", str(pop), "--cases", str(cases),
             "--model", "sis", "--lambda", "0.1", "--mu", "0.2", "--gamma", "0.01",
             "--out", str(out)]
        )
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()
        scen = tmp_path / "repeat.scenario"
        scen.write_text(
            "model = sis\nlambda = 0.1\nmu = 0.2\ngamma = 0.01\nsteps = 1\n"
            f"edges = {edges}\npopulation = {pop}\ncases = {cases}\n",
            encoding="utf-8",
        )
        assert cli_dispatch(["batch", str(scen), "--out", str(tmp_path / "o")]) == 1
        assert f"error in {scen}: {message}" in capsys.readouterr().err


class TestDefaultsHaveOneOwner:
    """Flag and document defaults are the ``ScenarioConfig`` and ``SolverConfig`` ones."""

    NETWORK = ["--network", "e.csv", "--population", "p.csv"]
    MODEL = ["--model", "sis", "--lambda", "0.1", "--mu", "0.1"]

    @pytest.mark.parametrize(
        "argv, owned, solver_owned",
        [
            (["control", *NETWORK, *MODEL, "--gamma", "0", "--out", "o"],
             ("steps", "solver", "builder"), ("seed",)),
            (["baseline", *NETWORK, *MODEL], ("steps",), ()),
            (["build-qubo", *NETWORK, *MODEL, "--gamma", "0"], ("builder",), ()),
            (["solve", "q.txt"], ("solver",), ()),
        ],
        ids=["control", "baseline", "build-qubo", "solve"],
    )
    def test_parser_defaults_are_the_scenario_defaults(self, argv, owned, solver_owned):
        args = build_parser().parse_args(argv)
        for config, names in ((ScenarioConfig, owned), (SolverConfig, solver_owned)):
            defaults = {f.name: f.default for f in fields(config)}
            assert {name: getattr(args, name) for name in names} == {
                name: defaults[name] for name in names
            }

    def test_solve_defaults_are_the_solver_defaults(self):
        args = build_parser().parse_args(["solve", "q.txt"])
        defaults = {f.name: f.default for f in fields(SolverConfig)}
        assert (args.seed, args.budget) == (defaults["seed"], defaults["budget"])

    def test_control_without_options_matches_a_document_without_them(self, workspace, tmp_path):
        model = {"model": "sir", "lambda": "0.02", "mu": "0.05", "gamma": "1e-07"}
        out = tmp_path / "control"
        assert cli_dispatch(
            ["control", *network_flags(workspace), *(f"--{k}={v}" for k, v in model.items()),
             "--out", str(out)]
        ) == 0
        scen = tmp_path / "doc.scenario"
        files = {key: workspace[key] for key in ("edges", "population", "cases")}
        scen.write_text(
            "".join(f"{k} = {v}\n" for k, v in {**model, **files}.items()), encoding="utf-8"
        )
        assert cli_dispatch(["batch", str(scen), "--out", str(tmp_path / "batch")]) == 0
        reports = [json.loads((d / "report.json").read_text(encoding="utf-8"))
                   for d in (out, tmp_path / "batch" / "doc")]
        keys = ("controls", "objectives", "trajectory", "baseline", "metrics")
        control, document = ({k: r[k] for k in keys} for r in reports)
        assert control == document
        assert len(reports[0]["controls"]) == ScenarioConfig.steps
        for name in ("trajectory.csv", "baseline.csv"):
            assert (out / name).read_bytes() == (tmp_path / "batch" / "doc" / name).read_bytes()


class TestOverflowingGammaRefused:
    """A gamma whose isolation cost ``gamma * sum(n)`` overflows exits 1 before any step."""

    @pytest.fixture
    def ring(self, tmp_path):
        net = tmp_path / "net"
        assert cli_dispatch(
            ["generate", "--m", "5", "--profile", "ring", "--seed", "1", "--out", str(net)]
        ) == 0
        (tmp_path / "cases.csv").write_text("location,infected\n0,10\n", encoding="utf-8")
        return {"edges": str(net / "edges.csv"), "population": str(net / "population.csv"),
                "cases": str(tmp_path / "cases.csv")}

    @pytest.mark.parametrize("builder", BUILDER_NAMES)
    def test_control_exits_one_with_one_error_line(self, ring, tmp_path, capsys, builder):
        capsys.readouterr()
        out = tmp_path / "run"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli_dispatch(
                ["control", *network_flags(ring), "--model", "sis", "--r0", "0.3", "--mu", "0.2",
                 "--gamma", "1e306", "--builder", builder, "--out", str(out)]
            )
        assert code == 1
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("error: isolation cost gamma * sum(n) overflows: gamma 1e+306, ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_batch_document_gets_its_error_line(self, ring, tmp_path, capsys):
        scen = tmp_path / "huge.scenario"
        scen.write_text(
            "model = sis\nr0 = 0.3\nmu = 0.2\ngamma = 1e306\n"
            + "".join(f"{key} = {path}\n" for key, path in ring.items()),
            encoding="utf-8",
        )
        capsys.readouterr()
        out = tmp_path / "o"
        assert cli_dispatch(["batch", str(scen), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error in {scen}: isolation cost gamma * sum(n) overflows: ")
        assert err.count("\n") == 1
        assert not (out / "huge").exists()


class TestOneFailureRule:
    """Every command and every batch document maps a failure the same way: a
    ValueError, OSError or MemoryError exits 1 with an ``error`` line, any
    other exception exits 2 with a ``runtime error`` line, each line written
    in one write and never followed by a traceback."""

    OOM = ("Unable to allocate 549. MiB for an array with shape (6000, 6000, 2) "
           "and data type float64")

    @staticmethod
    def record_stderr(monkeypatch):
        # patched in the test body: the capture plugin resets sys.stderr
        # between a fixture's setup and the call
        class Recorder:
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append(text)

            def flush(self):
                pass

            def error_lines(self):
                return [w for w in self.writes if "error" in w]

        recorder = Recorder()
        monkeypatch.setattr("sys.stderr", recorder)
        return recorder

    @pytest.fixture
    def out_of_memory(self, monkeypatch):
        # the host refuses the generator's arrays; the refusal is faked, so
        # nothing is allocated
        def refusing(*args, **kwargs):
            raise MemoryError(self.OOM)

        monkeypatch.setattr("epiqubo.dataio.generate_synthetic", refusing)

    @staticmethod
    def document(path, **keys):
        values = {"model": "sis", "lambda": "0.01", "mu": "0.1", "gamma": "1e-6", "steps": "1",
                  "profile": "complete", "m": "3", **keys}
        path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
        return str(path)

    def test_out_of_memory_in_generate_exits_one(self, tmp_path, monkeypatch, out_of_memory):
        stderr = self.record_stderr(monkeypatch)
        code = cli_dispatch(
            ["generate", "--m", "6000", "--profile", "gravity", "--out", str(tmp_path / "g")]
        )
        assert code == 1
        assert stderr.writes == [f"error: {self.OOM}\n"]

    def test_out_of_memory_in_batch_document_exits_one(self, tmp_path, monkeypatch, out_of_memory):
        scen = self.document(tmp_path / "g.txt", profile="gravity", m="6000")
        stderr = self.record_stderr(monkeypatch)
        assert cli_dispatch(["batch", scen, "--out", str(tmp_path / "o")]) == 1
        assert stderr.error_lines() == [f"error in {scen}: {self.OOM}\n"]

    def test_other_exception_in_control_exits_two(self, workspace, monkeypatch):
        def broken(*args):
            raise KeyError("boom")

        monkeypatch.setattr("epiqubo.cli._run_control", broken)
        stderr = self.record_stderr(monkeypatch)
        code = cli_dispatch(
            ["control", *network_flags(workspace), "--model", "sir", "--lambda", "0.02",
             "--mu", "0.05", "--gamma", "1e-7", "--out", str(workspace["dir"] / "run")]
        )
        assert code == 2
        assert stderr.error_lines() == ["runtime error: 'boom'\n"]

    def test_other_exception_in_batch_document_exits_two_and_the_next_runs(
        self, tmp_path, monkeypatch
    ):
        run_control = epiqubo.cli._run_control

        def broken_first(cfg, state0, echo, out_dir):
            if Path(out_dir).name == "a":
                raise KeyError("boom")
            return run_control(cfg, state0, echo, out_dir)

        monkeypatch.setattr("epiqubo.cli._run_control", broken_first)
        first = self.document(tmp_path / "a.scenario")
        second = self.document(tmp_path / "b.scenario")
        out = tmp_path / "o"
        stderr = self.record_stderr(monkeypatch)
        assert cli_dispatch(["batch", first, second, "--out", str(out)]) == 2
        assert stderr.error_lines() == [f"runtime error in {first}: 'boom'\n"]
        assert (out / "b" / "report.json").exists()

    def test_worst_code_of_the_documents_is_returned(self, tmp_path, monkeypatch):
        def broken(*args):
            raise KeyError("boom")

        monkeypatch.setattr("epiqubo.cli._run_control", broken)
        invalid = self.document(tmp_path / "a.scenario", model="seir")
        failing = self.document(tmp_path / "b.scenario")
        stderr = self.record_stderr(monkeypatch)
        assert cli_dispatch(["batch", invalid, failing, "--out", str(tmp_path / "o")]) == 2
        assert stderr.error_lines() == [
            f"error in {invalid}: scenario key 'model': expected sis or sir, got 'seir'\n",
            f"runtime error in {failing}: 'boom'\n",
        ]


class TestRefusalsPinned:
    """Refusals no other test reaches, each with its exit code and message."""

    def test_simulate_negative_steps(self, workspace, capsys):
        code = cli_dispatch(
            ["simulate", *network_flags(workspace), "--model", "sis", "--lambda", "0.01",
             "--mu", "0.05", "--steps", "-1"]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: steps must be nonnegative\n"

    def test_empty_csv(self, workspace, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        code = cli_dispatch(
            ["export-network", "--network", workspace["edges"], "--population", str(empty),
             "--out", str(tmp_path / "canon")]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {empty}: empty file, expected header ['location', 'name', 'population']\n"
        )

    def test_generate_zero_locations(self, tmp_path, capsys):
        assert cli_dispatch(["generate", "--m", "0", "--out", str(tmp_path / "g")]) == 1
        assert capsys.readouterr().err == "error: m must be at least 1\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("model = sis\noops\n", "scenario line 2: expected 'key = value', got 'oops'"),
            ("model = sis\nlambda = 0.01\nmu = 0.1\ngamma = 0\nedges = e.csv\n",
             "file-based scenario needs both 'edges' and 'population'"),
            ("model = sis\nlambda = 0.01\nmu = 0.1\ngamma = 0\nprofile = ring\n",
             "synthetic scenario needs both 'profile' and 'm'"),
        ],
        ids=["no-equals", "edges-only", "profile-only"],
    )
    def test_scenario_document(self, tmp_path, capsys, text, message):
        scen = tmp_path / "bad.scenario"
        scen.write_text(text, encoding="utf-8")
        assert cli_dispatch(["batch", str(scen), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error in {scen}: {message}\n"

    def test_metrics_of_header_only_trajectory(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("step,total,loc_0\n", encoding="utf-8")
        good = tmp_path / "good.csv"
        good.write_text("step,total,loc_0\n0,1.0,1.0\n", encoding="utf-8")
        assert cli_dispatch(["metrics", "--controlled", str(empty), "--baseline", str(good)]) == 1
        assert capsys.readouterr().err == f"error: {empty}: no rows\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "line 1: empty document, expected QUBO header"),
            ("# QUBO M=-1 offset=0.0\n", "line 1: variable count must be nonnegative"),
            ("# QUBO M=x offset=0.0\n",
             "line 1: bad header value (invalid literal for int() with base 10: 'x')"),
        ],
        ids=["empty", "negative-m", "m-not-an-integer"],
    )
    def test_qubo_document(self, tmp_path, capsys, text, message):
        qfile = tmp_path / "bad.qubo"
        qfile.write_text(text, encoding="utf-8")
        assert cli_dispatch(["solve", str(qfile)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestSisCasesCarryNoRemoved:
    """SIS has no removed compartment, so a nonzero removed count in the
    cases file is refused before any step instead of being dropped."""

    @pytest.fixture
    def ring(self, tmp_path):
        net = tmp_path / "net"
        assert cli_dispatch(
            ["generate", "--m", "5", "--profile", "ring", "--seed", "1", "--out", str(net)]
        ) == 0
        (tmp_path / "cases.csv").write_text(
            "location,infected,removed\n0,10,3\n", encoding="utf-8"
        )
        return {"edges": str(net / "edges.csv"), "population": str(net / "population.csv"),
                "cases": str(tmp_path / "cases.csv")}

    def message(self, ring):
        cases = Path(ring["cases"]).resolve()
        return (f"{cases}: model sis has no removed compartment, "
                "but location 0 has removed count 3.0")

    def test_control_exits_one(self, ring, tmp_path, capsys):
        capsys.readouterr()
        out = tmp_path / "run"
        code = cli_dispatch(
            ["control", *network_flags(ring), "--model", "sis", "--r0", "0.3", "--mu", "0.2",
             "--gamma", "1e-6", "--steps", "2", "--out", str(out)]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {self.message(ring)}\n"
        assert not out.exists()

    def test_batch_document_gets_its_error_line(self, ring, tmp_path, capsys):
        scen = tmp_path / "sis.scenario"
        scen.write_text(
            "model = sis\nr0 = 0.3\nmu = 0.2\ngamma = 1e-6\nsteps = 2\n"
            "profile = ring\nm = 5\nnetwork_seed = 1\n"
            f"cases = {ring['cases']}\n",
            encoding="utf-8",
        )
        capsys.readouterr()
        out = tmp_path / "o"
        assert cli_dispatch(["batch", str(scen), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error in {scen}: {self.message(ring)}\n"
        assert not (out / "sis").exists()


class TestNonFiniteCsvValues:
    """A population, weight or case count that reads as nan or an infinity is
    a bad value of its file and row, refused before any step."""

    @pytest.mark.parametrize(
        "column, value, message",
        [
            ("population", "nan", "bad population 'nan' for '1'"),
            ("weight", "inf", "bad weight 'inf' (row 2)"),
            ("infected", "-inf", "bad infected count '-inf' (row 2)"),
            ("removed", "nan", "bad removed count 'nan' (row 2)"),
        ],
    )
    def test_control_exits_one_naming_file_and_row(
        self, workspace, tmp_path, capsys, column, value, message
    ):
        files = dict(workspace)
        if column == "population":
            bad = tmp_path / "population.csv"
            bad.write_text(
                "location,name,population\n0,a,100\n1,b,nan\n2,c,100\n3,d,100\n", encoding="utf-8"
            )
            files["population"] = str(bad)
        elif column == "weight":
            bad = tmp_path / "edges.csv"
            bad.write_text("from,to,weight\n0,1,inf\n", encoding="utf-8")
            files["edges"] = str(bad)
        else:
            bad = tmp_path / "cases.csv"
            row = "-inf,0" if column == "infected" else "10,nan"
            bad.write_text(f"location,infected,removed\n0,{row}\n", encoding="utf-8")
            files["cases"] = str(bad)
        capsys.readouterr()
        out = tmp_path / "run"
        code = cli_dispatch(
            ["control", *network_flags(files), "--model", "sir", "--lambda", "0.02",
             "--mu", "0.05", "--gamma", "1e-7", "--out", str(out)]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        assert not out.exists()


class TestUncalibratableR0:
    """Two equal 3-location rings chained one way give I + A a defective
    dominant eigenvalue, on which power iteration converges only as 1/k: an
    r0 there cannot be calibrated, and the run exits 1 asking for the rate."""

    @pytest.fixture
    def chained_rings(self, tmp_path):
        rows = [f"{a},{b},0.25" for base in (0, 3) for k in range(3)
                for a, b in ((base + k, base + (k + 1) % 3), (base + (k + 1) % 3, base + k))]
        (tmp_path / "edges.csv").write_text(
            "from,to,weight\n" + "\n".join(rows) + "\n3,0,0.1\n", encoding="utf-8"
        )
        (tmp_path / "population.csv").write_text(
            "location,name,population\n" + "".join(f"{i},l{i},1000\n" for i in range(6)),
            encoding="utf-8",
        )
        return {"edges": str(tmp_path / "edges.csv"), "population": str(tmp_path / "population.csv")}

    def test_r0_exits_one_naming_r0_and_the_rate(self, chained_rings, tmp_path, capsys):
        out = tmp_path / "run"
        flags = ["control", *network_flags(chained_rings, with_cases=False), "--model", "sir",
                 "--mu", "0.1", "--gamma", "1e-3", "--steps", "2", "--out", str(out)]
        assert cli_dispatch([*flags, "--r0", "2"]) == 1
        assert capsys.readouterr().err == (
            "error: r0 2.0 cannot be calibrated on this network (power iteration did not "
            "reach 1e-12 in 10000 iterations); give the infection rate lambda instead\n"
        )
        assert not out.exists()
        assert cli_dispatch([*flags, "--lambda", "0.1"]) == 0
