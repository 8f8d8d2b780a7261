"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from __future__ import annotations

import dataclasses
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from epiqubo import (
    EpidemicParams,
    EpidemicState,
    ModelKind,
    ScenarioConfig,
    SolverConfig,
    build_qubo,
    build_qubo_numeric,
    compute_metrics,
    invariance_bound,
    run_rolling_horizon,
    run_uncontrolled_baseline,
    simulate,
    solve,
    solve_exhaustive,
    to_control,
)
from epiqubo.cli import cli_dispatch
from epiqubo.dataio import generate_synthetic
from epiqubo.epinet import _rho_of_unit_shifted, batch_infection_cost
from epiqubo.qubo import batch_evaluate
from conftest import all_bits, random_instance, random_qubo, solve_bruteforce_problem1


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL: {description}")
        raise
    print(f"[criterion {number}] PASS: {description}")


def instance_set(seed: int, count_per_kind: int = 100):
    rng = np.random.default_rng(seed)
    out = []
    for kind in (ModelKind.SIS, ModelKind.SIR):
        for _ in range(count_per_kind):
            m = int(rng.integers(2, 11))
            out.append((kind, random_instance(rng, kind, m)))
    return out


def simulated_costs_all_z(net, params, state, gamma, bits):
    controls = (1 - bits).astype(np.float64)
    infection = batch_infection_cost(net, params, state, controls, 2)
    return infection + gamma * (controls @ net.populations)


def test_criterion_1_qubo_cost_identity():
    with criterion(1, "numeric QUBO equals simulated two-step cost for every z"):
        start = time.perf_counter()
        for kind, (net, params, state, gamma) in instance_set(101):
            q = build_qubo_numeric(net, params, state, gamma)
            bits = all_bits(net.m)
            want = simulated_costs_all_z(net, params, state, gamma, bits)
            got = batch_evaluate(q, bits)
            tol = np.maximum(1e-9 * np.maximum(np.abs(want), np.abs(got)), 1e-12)
            assert np.all(np.abs(got - want) <= tol), f"{kind} instance failed identity"
        elapsed = time.perf_counter() - start
        assert elapsed <= 60.0, f"identity sweep took {elapsed:.1f}s (> 60s)"


def test_criterion_2_analytic_argmin_equivalence():
    with criterion(2, "analytic QUBO argmin maps to the brute-force optimal control"):
        for kind, (net, params, state, gamma) in instance_set(101):
            q = build_qubo(net, params, state, gamma, "analytic")
            res = solve_exhaustive(q)
            u_qubo = to_control(res.z_best)
            u_bf = solve_bruteforce_problem1(net, params, state, gamma)
            assert np.array_equal(u_qubo, u_bf), f"{kind} argmin mismatch"
            # value-level agreement of the analytic objective with simulation
            bits = all_bits(net.m)
            want = simulated_costs_all_z(net, params, state, gamma, bits)
            got = batch_evaluate(q, bits)
            tol = np.maximum(1e-9 * np.maximum(np.abs(want), np.abs(got)), 1e-12)
            assert np.all(np.abs(got - want) <= tol), f"{kind} value mismatch"


def test_criterion_3_positive_invariance():
    with criterion(3, "1000-step runs at 0.999x the bound stay in [0, n] with zero clamps"):
        rng = np.random.default_rng(303)
        for run in range(200):
            kind = ModelKind.SIS if run % 2 == 0 else ModelKind.SIR
            m = int(rng.integers(2, 11))
            net, _, state, _ = random_instance(rng, kind, m)
            lam = 0.999 * invariance_bound(net)
            params = EpidemicParams(kind, lam, float(rng.uniform(0.0, 1.0)))
            schedule = rng.integers(0, 2, size=(1000, m))
            traj = simulate(net, params, state, schedule, 1000)
            assert np.all(traj.infected >= 0.0)
            assert np.all(traj.infected <= net.populations)
            if traj.removed is not None:
                assert np.all(traj.removed >= 0.0)
                assert np.all(traj.infected + traj.removed <= net.populations)


def test_criterion_4_trivial_state_optimality():
    with criterion(4, "disease-free start with gamma > 0 yields zero isolation everywhere"):
        rng = np.random.default_rng(404)
        for kind in (ModelKind.SIS, ModelKind.SIR):
            net, params, _, _ = random_instance(rng, kind, 8)
            state = (
                EpidemicState(np.zeros(8))
                if kind is ModelKind.SIS
                else EpidemicState(np.zeros(8), np.zeros(8))
            )
            for builder in ("analytic", "numeric"):
                q = build_qubo(net, params, state, 0.05, builder)
                for method in ("exhaustive", "sa", "tabu", "ga"):
                    res = solve(q, method, SolverConfig(seed=11))
                    u = to_control(res.z_best)
                    assert np.array_equal(u, np.zeros(8)), (kind, builder, method)
            for method in ("exhaustive", "sa", "tabu", "ga"):
                cfg = ScenarioConfig(
                    network=net,
                    kind=kind,
                    lam=params.lam,
                    mu=params.mu,
                    gamma=0.05,
                    steps=5,
                    solver=method,
                    seed=5,
                )
                log = run_rolling_horizon(cfg, state)
                assert not log.trajectory.controls.any(), (kind, method)
                assert not log.trajectory.infected.any()


def test_criterion_5_gamma_monotonicity():
    with criterion(5, "exact-optimal isolated population mass is nonincreasing in gamma"):
        rng = np.random.default_rng(505)
        grid = (0.0, 0.001, 0.01, 0.1, 1.0)
        for run in range(20):
            kind = ModelKind.SIS if run % 2 == 0 else ModelKind.SIR
            net, params, state, _ = random_instance(rng, kind, 8)
            masses = []
            for gamma in grid:
                u = solve_bruteforce_problem1(net, params, state, gamma)
                masses.append(float(net.populations @ u))
            assert all(
                later <= earlier + 1e-9 for earlier, later in zip(masses, masses[1:])
            ), masses


def test_criterion_6_heuristic_quality():
    with criterion(6, "SA/TS reach the optimum in >= 95% of 50 seeded runs, gap <= 1%"):
        rng = np.random.default_rng(606)
        sa_cfg = SolverConfig(sa_sweeps_per_temperature=5, sa_cooling_ratio=0.95)
        ts_cfg = SolverConfig(budget=60_000)
        ga_gaps = []
        for _ in range(20):
            q = random_qubo(rng, 15)
            opt = solve_exhaustive(q).objective
            scale = max(abs(opt), 1e-9)
            for method, cfg in (("sa", sa_cfg), ("tabu", ts_cfg)):
                hits = 0
                for seed in range(50):
                    res = solve(q, method, dataclasses.replace(cfg, seed=seed))
                    gap = (res.objective - opt) / scale
                    assert gap >= -1e-12, "heuristic beat the exhaustive optimum"
                    assert gap <= 0.01, f"{method} exceeded 1% gap: {gap:.4f}"
                    if res.objective <= opt + 1e-12 * max(1.0, abs(opt)):
                        hits += 1
                assert hits >= 48, f"{method} reached optimum only {hits}/50 times"
            for seed in range(10):
                res = solve(q, "ga", SolverConfig(seed=seed, ga_generations=40))
                ga_gaps.append(100.0 * (res.objective - opt) / scale)
        ga = np.asarray(ga_gaps)
        print(
            f"    GA gap stats over {ga.size} runs: mean {ga.mean():.3f}% "
            f"max {ga.max():.3f}% optimum-hit {(ga <= 1e-9).mean() * 100:.1f}%"
        )


def _calibrated_gravity_scenario(m: int, infected_sites: int, seed: int):
    net = generate_synthetic(m, "gravity", seed)
    bound = invariance_bound(net)
    rho = _rho_of_unit_shifted(net.weights)
    r0 = 3.0
    mu = 0.9 * bound * rho / r0
    lam = r0 * mu / rho
    assert lam <= bound
    x0 = np.zeros(m)
    x0[:infected_sites] = 1e-3 * net.populations[:infected_sites]
    state = EpidemicState(x0, np.zeros(m))
    return net, lam, mu, state


def _gamma_with_partial_isolation(net, lam, mu, state, solver: str) -> float:
    params = EpidemicParams(ModelKind.SIR, lam, mu)
    for gamma in (1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3):
        q = build_qubo(net, params, state, gamma, "analytic")
        res = solve(q, solver, SolverConfig(seed=0))
        isolated = int((1 - res.z_best).sum())
        if 0 < isolated < net.m:
            return gamma
    raise AssertionError("no gamma in the grid isolates some but not all locations")


def test_criterion_7_large_scale_qualitative():
    with criterion(7, "gravity M=21/M=107 controller beats baseline; effect vanishes as gamma grows"):
        for m, sites, solver, step_budget in ((21, 3, "sa", None), (107, 5, "sa", None)):
            net, lam, mu, state = _calibrated_gravity_scenario(m, sites, 2024)
            gamma = _gamma_with_partial_isolation(net, lam, mu, state, solver)
            cfg = ScenarioConfig(
                network=net,
                kind=ModelKind.SIR,
                lam=lam,
                mu=mu,
                gamma=gamma,
                steps=30,
                solver=solver,
                seed=42,
            )
            log = run_rolling_horizon(cfg, state)
            base = run_uncontrolled_baseline(cfg, state)
            report = compute_metrics(log, base)
            assert report.peak_reduction_pct is not None and report.peak_reduction_pct > 0.0
            assert report.avg_reduction_pct is not None and report.avg_reduction_pct > 0.0
            if m == 107:
                assert float(log.wall_times.max()) <= 5.0, "per-step solve exceeded 5s"
            # isolation cost dominating: controller collapses onto the baseline
            cfg_inf = dataclasses.replace(cfg, gamma=1e12)
            log_inf = run_rolling_horizon(cfg_inf, state)
            assert np.array_equal(log_inf.trajectory.infected, base.infected)
            report_inf = compute_metrics(log_inf, base)
            assert report_inf.peak_reduction_pct == 0.0
            assert report_inf.avg_reduction_pct == 0.0
            print(
                f"    M={m}: gamma={gamma:.0e} p={report.peak_reduction_pct:.2f}% "
                f"a={report.avg_reduction_pct:.2f}% max step solve "
                f"{float(log.wall_times.max()) * 1000:.0f} ms"
            )


def test_criterion_8_byte_identical_reports(tmp_path):
    with criterion(8, "identical config and seed give byte-identical reports minus timing"):
        netdir = tmp_path / "net"
        assert (
            cli_dispatch(
                ["generate", "--m", "6", "--profile", "gravity", "--seed", "12", "--out", str(netdir)]
            )
            == 0
        )
        cases = tmp_path / "cases.csv"
        cases.write_text(
            "location,infected,removed\n0,30,0\n2,10,0\n", encoding="utf-8"
        )
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = cli_dispatch(
                [
                    "control",
                    "--network", str(netdir / "edges.csv"),
                    "--population", str(netdir / "population.csv"),
                    "--cases", str(cases),
                    "--model", "sir",
                    "--lambda", "0.02",
                    "--mu", "0.02",
                    "--gamma", "1e-7",
                    "--steps", "8",
                    "--solver", "sa",
                    "--builder", "numeric",
                    "--seed", "77",
                    "--out", str(out),
                ]
            )
            assert code == 0
            outputs.append(out)
        reports = []
        for out in outputs:
            doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
            doc.pop("timing")
            reports.append(json.dumps(doc, sort_keys=True).encode())
        assert reports[0] == reports[1]
        for name in ("trajectory.csv", "baseline.csv", "scenario.resolved"):
            assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()


def test_criterion_9_scale_sanity():
    with criterion(9, "exhaustive at M=21 within 60s; numeric build at M=107 within 10s"):
        rng = np.random.default_rng(909)
        q21 = random_qubo(rng, 21)
        start = time.perf_counter()
        solve_exhaustive(q21)
        exhaustive_s = time.perf_counter() - start
        assert exhaustive_s <= 60.0, f"exhaustive M=21 took {exhaustive_s:.1f}s"

        net, lam, mu, state = _calibrated_gravity_scenario(107, 5, 2024)
        params = EpidemicParams(ModelKind.SIR, lam, mu)
        start = time.perf_counter()
        build_qubo_numeric(net, params, state, 1e-6)
        build_s = time.perf_counter() - start
        assert build_s <= 10.0, f"numeric build M=107 took {build_s:.1f}s"
        print(f"    exhaustive M=21: {exhaustive_s:.2f}s, numeric build M=107: {build_s:.2f}s")
