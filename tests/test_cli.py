"""End-to-end command-line behavior, exit codes, and file outputs."""

from __future__ import annotations

import json
import logging

import numpy as np
import pytest

from epiqubo import import_qubo, solve_bruteforce_problem1
from epiqubo.cli import cli_dispatch
from epiqubo.dataio import NetworkFiles, load_network


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

    def test_unservable_size_exits_one(self, tmp_path, capsys):
        # a 10^7 x 10^7 weight matrix cannot be allocated, so it is refused at once
        out = tmp_path / "big"
        assert cli_dispatch(["generate", "--m", "10000000", "--out", str(out)]) == 1
        assert "m=10000000" in capsys.readouterr().err
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
            ("m", "10000000", "m=10000000 needs a 10000000x10000000 weight matrix"),
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
