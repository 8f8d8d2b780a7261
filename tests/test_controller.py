"""Rolling-horizon loop, baseline, and metrics."""

from __future__ import annotations

import logging
import warnings

import numpy as np
import pytest

from epiqubo import (
    EpidemicParams,
    EpidemicState,
    LocationNetwork,
    ModelKind,
    ScenarioConfig,
    SolverConfig,
    build_qubo,
    compute_metrics,
    cost,
    evaluate,
    fix_persistent,
    from_control,
    infection_rate_from_r0,
    invariance_bound,
    run_rolling_horizon,
    run_uncontrolled_baseline,
    simulate,
    solve,
)
from epiqubo.dataio import generate_synthetic
from conftest import random_instance, solve_bruteforce_problem1


def small_scenario(rng, kind=ModelKind.SIS, m=6, gamma=1e-3, **overrides):
    net, params, state, _ = random_instance(rng, kind, m)
    defaults = dict(
        network=net,
        kind=kind,
        lam=params.lam,
        mu=params.mu,
        gamma=gamma,
        steps=8,
        solver="exhaustive",
        seed=1,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults), state


class TestConfigValidation:
    def test_rejects_rate_above_bound(self, rng):
        cfg, state = small_scenario(rng)
        hot = ScenarioConfig(
            network=cfg.network,
            kind=cfg.kind,
            lam=2.0 * invariance_bound(cfg.network),
            mu=cfg.mu,
            gamma=cfg.gamma,
            steps=3,
        )
        with pytest.raises(ValueError, match="invariance bound"):
            run_rolling_horizon(hot, state)
        with pytest.raises(ValueError, match="invariance bound"):
            run_uncontrolled_baseline(hot, state)

    def test_force_clamps_and_logs(self, rng, caplog):
        net = LocationNetwork([100.0, 100.0], [[0.0, 0.9], [0.9, 0.0]])
        state = EpidemicState([90.0, 90.0])
        hot = ScenarioConfig(
            network=net, kind=ModelKind.SIS, lam=0.9, mu=0.0, gamma=1e9, steps=5, force=True
        )
        with caplog.at_level(logging.WARNING):
            traj = run_uncontrolled_baseline(hot, state)
        assert np.all(traj.infected <= net.populations)
        assert any("clamped" in record.message for record in caplog.records)

    @pytest.mark.parametrize("builder", ["analytic", "numeric"])
    def test_clamped_states_pass_the_state_check(self, builder):
        # on this forced study run, step 25 clamps a removed count to n - x,
        # and x + (n - x) rounds one unit above n at that location
        net = generate_synthetic(21, "gravity", 2024)
        mu = 0.05360848885079544
        infected = np.zeros(net.m)
        infected[:5] = 1e-3 * net.populations[:5]
        removed = np.zeros(net.m)
        removed[5:8] = 1e-4 * net.populations[5:8]
        hot = ScenarioConfig(
            network=net, kind=ModelKind.SIR, lam=infection_rate_from_r0(30.0, mu, net), mu=mu,
            gamma=1e-5, steps=30, builder=builder, force=True,
        )
        traj = run_rolling_horizon(hot, EpidemicState(infected, removed)).trajectory
        assert np.all(traj.infected + traj.removed <= net.populations)

    def test_bad_knobs(self, rng):
        cfg, _ = small_scenario(rng)
        with pytest.raises(ValueError):
            ScenarioConfig(network=cfg.network, kind="sis", lam=0.01, mu=0.1, gamma=-1.0)
        with pytest.raises(ValueError):
            ScenarioConfig(network=cfg.network, kind="sis", lam=0.01, mu=0.1, gamma=0.0, steps=0)
        with pytest.raises(ValueError):
            ScenarioConfig(
                network=cfg.network, kind="sis", lam=0.01, mu=0.1, gamma=0.0, solver="descent"
            )


    def test_rejects_zero_population(self):
        net = LocationNetwork([100.0, 0.0], [[0.0, 0.5], [0.5, 0.0]])
        with pytest.raises(ValueError, match="nonpositive population at 1"):
            ScenarioConfig(network=net, kind="sis", lam=0.01, mu=0.1, gamma=0.0)


    def test_exhaustive_step_beyond_enumeration_limit_fails(self, rng):
        cfg, _ = small_scenario(rng, m=26, gamma=0.0)
        # disease-free and free to isolate: every bit is tied, so none is fixed
        state = EpidemicState(np.zeros(cfg.network.m))
        with pytest.raises(
            RuntimeError,
            match=r"step 0: 26 variables exceed the enumeration limit of 25; "
            r"choose a heuristic solver \(sa, tabu or ga\)",
        ):
            run_rolling_horizon(cfg, state)
        assert run_uncontrolled_baseline(cfg, state).num_steps == cfg.steps

    @pytest.mark.parametrize("solver", ["exhaustive", "tabu"])
    def test_negative_seed_refused_for_every_solver(self, rng, solver):
        # the exhaustive scan ignores the seed, but the run's seeds start there
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            small_scenario(rng, solver=solver, seed=-1)

    def test_network_warnings_logged(self, caplog):
        net = LocationNetwork([100.0, 100.0], [[0.0, 1.5], [0.2, 0.0]])
        with caplog.at_level(logging.WARNING):
            ScenarioConfig(network=net, kind="sis", lam=0.01, mu=0.1, gamma=0.0)
        assert caplog.messages == ["network: weight > 1 at (0, 1)"]

    def test_forced_rate_logged_once_per_scenario(self, caplog):
        net = LocationNetwork([100.0, 100.0], [[0.0, 0.9], [0.9, 0.0]])
        state = EpidemicState([90.0, 90.0])
        with caplog.at_level(logging.WARNING):
            hot = ScenarioConfig(
                network=net, kind=ModelKind.SIS, lam=0.9, mu=0.0, gamma=1e9, steps=2, force=True
            )
            run_rolling_horizon(hot, state)
            run_uncontrolled_baseline(hot, state)
        assert sum("states will be clamped" in m for m in caplog.messages) == 1

    @pytest.mark.parametrize(
        "populations, gamma, total",
        # the largest float is about 1.8e308: 1e305 * 3e4 passes it, and so does
        # the population sum 2e308, whatever gamma
        [([1e4, 2e4], np.float64(1e305), "30000.0"), ([1e308, 1e308], 0.0, "inf")],
    )
    def test_isolation_cost_that_overflows_is_refused(self, populations, gamma, total):
        net = LocationNetwork(populations, [[0.0, 0.1], [0.1, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                ScenarioConfig(network=net, kind="sis", lam=0.01, mu=0.1, gamma=gamma)
        assert str(info.value) == (
            f"isolation cost gamma * sum(n) overflows: gamma {gamma}, sum(n) {total}"
        )

    def test_finite_isolation_cost_near_the_largest_float_is_accepted(self):
        net = LocationNetwork([1e4, 2e4], [[0.0, 0.1], [0.1, 0.0]])
        ScenarioConfig(network=net, kind="sis", lam=0.01, mu=0.1, gamma=1.7e308 / 3e4)


class TestRollingHorizon:
    def test_huge_gamma_reproduces_baseline_bitwise(self, rng):
        cfg, state = small_scenario(rng, gamma=1e12, steps=10)
        log = run_rolling_horizon(cfg, state)
        base = run_uncontrolled_baseline(cfg, state)
        assert not log.trajectory.controls.any()
        assert np.array_equal(log.trajectory.infected, base.infected)

    def test_disease_free_start_never_isolates(self, rng):
        cfg, _ = small_scenario(rng, gamma=0.01)
        state = EpidemicState(np.zeros(cfg.network.m))
        log = run_rolling_horizon(cfg, state)
        assert not log.trajectory.controls.any()
        assert np.array_equal(log.trajectory.infected, np.zeros_like(log.trajectory.infected))

    @pytest.mark.parametrize("kind", [ModelKind.SIS, ModelKind.SIR])
    def test_each_step_matches_bruteforce(self, rng, kind):
        cfg, state = small_scenario(rng, kind=kind, m=6, gamma=1e-3, steps=6)
        log = run_rolling_horizon(cfg, state)
        params = cfg.params
        # replay the loop against the enumeration oracle
        current = state
        for t in range(cfg.steps):
            u_oracle = solve_bruteforce_problem1(cfg.network, params, current, cfg.gamma)
            assert np.array_equal(log.trajectory.controls[t], u_oracle), f"step {t}"
            traj = simulate(cfg.network, params, current, u_oracle, 1)
            current = traj.state_at(1)
        assert np.array_equal(current.infected, log.trajectory.infected[-1])

    def test_chosen_control_never_worse_than_no_action(self, rng):
        cfg, state = small_scenario(rng, m=7, gamma=5e-3, steps=5)
        log = run_rolling_horizon(cfg, state)
        current = state
        zeros = np.zeros(cfg.network.m, dtype=np.int8)
        for t in range(cfg.steps):
            u = log.trajectory.controls[t]
            cost_u = cost(
                simulate(cfg.network, cfg.params, current, u, 2), u, cfg.gamma, cfg.network
            )
            cost_0 = cost(
                simulate(cfg.network, cfg.params, current, zeros, 2), zeros, cfg.gamma, cfg.network
            )
            assert cost_u <= cost_0 + 1e-9
            current = simulate(cfg.network, cfg.params, current, u, 1).state_at(1)

    def test_full_log_reproducible(self, rng):
        cfg, state = small_scenario(rng, solver="sa", steps=6, m=5)
        log1 = run_rolling_horizon(cfg, state)
        log2 = run_rolling_horizon(cfg, state)
        assert np.array_equal(log1.trajectory.infected, log2.trajectory.infected)
        assert np.array_equal(log1.trajectory.controls, log2.trajectory.controls)
        assert np.array_equal(log1.objectives, log2.objectives)
        assert np.array_equal(log1.evaluations, log2.evaluations)

    def test_numeric_builder_agrees_with_analytic_loop(self, rng):
        cfg_a, state = small_scenario(rng, kind=ModelKind.SIR, m=5, gamma=1e-3, steps=5)
        cfg_n = ScenarioConfig(
            network=cfg_a.network,
            kind=cfg_a.kind,
            lam=cfg_a.lam,
            mu=cfg_a.mu,
            gamma=cfg_a.gamma,
            steps=cfg_a.steps,
            builder="numeric",
            seed=cfg_a.seed,
        )
        log_a = run_rolling_horizon(cfg_a, state)
        log_n = run_rolling_horizon(cfg_n, state)
        assert np.array_equal(log_a.trajectory.controls, log_n.trajectory.controls)
        assert np.array_equal(log_a.trajectory.infected, log_n.trajectory.infected)

    def test_step_records_full_objective_and_reduced_search(self, rng):
        cfg, state = small_scenario(rng, kind=ModelKind.SIR, m=8, gamma=1e-3, steps=6)
        log = run_rolling_horizon(cfg, state)
        for t in range(cfg.steps):
            q = build_qubo(cfg.network, cfg.params, log.trajectory.state_at(t), cfg.gamma)
            z = from_control(log.trajectory.controls[t])
            assert log.objectives[t] == evaluate(q, z)
            # the exhaustive scan enumerates only the bits left free
            assert log.evaluations[t] == 2 ** int((fix_persistent(q) < 0).sum())

    def test_no_heuristic_beats_certified_steps_at_m107(self):
        # the criterion-7 study network: calibrated SIR gravity, five seeded sites
        net = generate_synthetic(107, "gravity", 2024)
        rho = 1.0 / infection_rate_from_r0(1.0, 1.0, net)
        mu = 0.9 * invariance_bound(net) * rho / 3.0
        x0 = np.zeros(net.m)
        x0[:5] = 1e-3 * net.populations[:5]
        state = EpidemicState(x0, np.zeros(net.m))
        cfg = ScenarioConfig(
            network=net, kind=ModelKind.SIR, lam=3.0 * mu / rho, mu=mu, gamma=1e-5,
            steps=6, solver="sa", seed=3,
        )
        log = run_rolling_horizon(cfg, state)
        assert log.trajectory.controls.any() and not log.trajectory.controls.all()
        for t in range(cfg.steps):
            q = build_qubo(net, cfg.params, log.trajectory.state_at(t), cfg.gamma)
            for method in ("sa", "tabu"):
                other = solve(q, method, SolverConfig(seed=100 + t))
                assert other.objective >= log.objectives[t], f"{method} beat step {t}"


class TestBaseline:
    def test_equals_plain_simulation(self, rng):
        cfg, state = small_scenario(rng, steps=12)
        base = run_uncontrolled_baseline(cfg, state)
        plain = simulate(cfg.network, cfg.params, state, None, cfg.steps)
        assert np.array_equal(base.infected, plain.infected)

    def test_sir_wave_passes(self):
        net = LocationNetwork([1000.0, 1000.0], [[0.0, 0.5], [0.5, 0.0]])
        lam = 0.99 * invariance_bound(net)
        cfg = ScenarioConfig(
            network=net, kind=ModelKind.SIR, lam=lam, mu=0.3, gamma=0.0, steps=200
        )
        state = EpidemicState([50.0, 0.0], [0.0, 0.0])
        traj = run_uncontrolled_baseline(cfg, state)
        totals = traj.totals()
        assert totals[-1] < totals.max()
        assert totals[-1] < 1.0  # epidemic burns out

    @pytest.mark.parametrize("force", [False, True])
    def test_start_outside_populations_refused(self, force):
        net = LocationNetwork([100.0, 100.0], [[0.0, 0.5], [0.5, 0.0]])
        cfg = ScenarioConfig(
            network=net, kind=ModelKind.SIS, lam=0.1, mu=0.1, gamma=0.0, steps=3, force=force
        )
        with pytest.raises(ValueError, match="exceed"):
            run_uncontrolled_baseline(cfg, EpidemicState([150.0, 0.0]))


class TestMetrics:
    def test_identical_runs_give_zero_reductions(self, rng):
        cfg, state = small_scenario(rng, gamma=1e12, steps=6)
        log = run_rolling_horizon(cfg, state)
        base = run_uncontrolled_baseline(cfg, state)
        report = compute_metrics(log, base)
        assert report.peak_reduction_pct == 0.0
        assert report.avg_reduction_pct == 0.0

    def test_percent_arithmetic(self):
        # synthetic curves: baseline peaks at 100, controlled at 87.60
        net = LocationNetwork([1000.0], [[0.0]])
        base_x = np.array([[10.0], [100.0], [50.0]])
        ctrl_x = np.array([[10.0], [87.60], [40.0]])
        from epiqubo.controller import ControlLog
        from epiqubo.epinet import Trajectory

        controls = np.zeros((2, 1), dtype=np.int8)
        log = ControlLog(
            Trajectory(ctrl_x, controls), np.zeros(2), np.zeros(2), np.zeros(2, dtype=np.int64)
        )
        base = Trajectory(base_x, controls)
        report = compute_metrics(log, base)
        assert report.peak_reduction_pct == pytest.approx(12.40, abs=1e-12)

    def test_zero_baseline_marks_not_applicable(self):
        from epiqubo.controller import ControlLog
        from epiqubo.epinet import Trajectory

        zeros = np.zeros((3, 2))
        controls = np.zeros((2, 2), dtype=np.int8)
        log = ControlLog(
            Trajectory(zeros, controls), np.zeros(2), np.zeros(2), np.zeros(2, dtype=np.int64)
        )
        base = Trajectory(zeros, controls)
        report = compute_metrics(log, base)
        assert report.peak_reduction_pct is None
        assert report.avg_reduction_pct is None

    def test_length_mismatch_rejected(self, rng):
        cfg, state = small_scenario(rng, steps=4)
        log = run_rolling_horizon(cfg, state)
        short = ScenarioConfig(
            network=cfg.network, kind=cfg.kind, lam=cfg.lam, mu=cfg.mu, gamma=cfg.gamma, steps=3
        )
        base = run_uncontrolled_baseline(short, state)
        with pytest.raises(ValueError):
            compute_metrics(log, base)
