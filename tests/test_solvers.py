"""Solver contracts: correctness, reproducibility, traces, budgets."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiqubo import (
    QuboProblem,
    SolverConfig,
    evaluate,
    solve,
    solve_exhaustive,
    solve_genetic,
    solve_simulated_annealing,
    solve_tabu,
)
from epiqubo.solvers import SOLVER_NAMES
from conftest import random_qubo

HEURISTICS = ("sa", "tabu", "ga")


@pytest.fixture
def trivial():
    return QuboProblem([-1.0, 2.0])


class TestExhaustive:
    def test_linear_instance(self, trivial):
        res = solve_exhaustive(trivial)
        assert np.array_equal(res.z_best, [1, 0])
        assert res.objective == -1.0
        assert res.evaluations == 4

    def test_quadratic_dominates(self):
        q = QuboProblem([1.0, 1.0], [[0.0, -3.0], [-3.0, 0.0]])
        res = solve_exhaustive(q)
        assert np.array_equal(res.z_best, [1, 1])
        assert res.objective == -1.0

    def test_dominates_random_sampling(self, rng):
        q = random_qubo(rng, 10)
        res = solve_exhaustive(q)
        for _ in range(1000):
            z = rng.integers(0, 2, 10)
            assert res.objective <= evaluate(q, z) + 1e-12

    def test_lexicographic_tie_break(self):
        # objective ignores both bits entirely: all four assignments tie at 0
        q = QuboProblem([0.0, 0.0])
        res = solve_exhaustive(q)
        assert np.array_equal(res.z_best, [0, 0])

    def test_too_large_rejected(self):
        q = QuboProblem(np.zeros(26))
        with pytest.raises(ValueError):
            solve_exhaustive(q)

    def test_matches_plain_scan(self, rng):
        # high/low block split must agree with a direct loop
        for m in (3, 5, 17, 18):
            q = random_qubo(rng, m)
            res = solve_exhaustive(q)
            best = min(
                (evaluate(q, [(k >> (m - 1 - i)) & 1 for i in range(m)]) for k in range(1 << m))
            )
            assert res.objective == pytest.approx(best, rel=0, abs=1e-12)


class TestHeuristicContracts:
    @pytest.mark.parametrize("method", HEURISTICS)
    def test_trivial_instance_solved(self, method, trivial):
        res = solve(trivial, method, SolverConfig(seed=0))
        assert np.array_equal(res.z_best, [1, 0])
        assert res.objective == -1.0

    @pytest.mark.parametrize("method", HEURISTICS)
    def test_reproducible_from_seed(self, method, rng):
        q = random_qubo(rng, 12)
        cfg = SolverConfig(seed=77, budget=20_000)
        r1 = solve(q, method, cfg)
        r2 = solve(q, method, cfg)
        assert np.array_equal(r1.z_best, r2.z_best)
        assert r1.objective == r2.objective
        assert r1.evaluations == r2.evaluations
        assert r1.trace == r2.trace

    @pytest.mark.parametrize("method", HEURISTICS)
    def test_trace_nonincreasing_and_objective_exact(self, method, rng):
        q = random_qubo(rng, 14)
        res = solve(q, method, SolverConfig(seed=3, budget=20_000))
        values = [v for _, v in res.trace]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert res.objective == evaluate(q, res.z_best)

    @pytest.mark.parametrize("method", HEURISTICS)
    def test_never_beats_exhaustive(self, method, rng):
        for _ in range(5):
            q = random_qubo(rng, 11)
            opt = solve_exhaustive(q).objective
            res = solve(q, method, SolverConfig(seed=1, budget=20_000))
            assert res.objective >= opt - 1e-9

    def test_unknown_method(self, trivial):
        with pytest.raises(ValueError):
            solve(trivial, "gradient", SolverConfig())


class TestSolverContract:
    """What every solver promises on any QUBO, down to zero variables."""

    @pytest.mark.parametrize("method", SOLVER_NAMES)
    @settings(max_examples=20, deadline=None)
    @given(m=st.integers(0, 8), budget=st.integers(1, 5_000), seed=st.integers(0, 2**31 - 1))
    def test_contract_property(self, method, m, budget, seed):
        q = random_qubo(np.random.default_rng(seed), m)
        res = solve(q, method, SolverConfig(seed=seed, budget=budget))
        assert res.z_best.shape == (m,)
        assert res.objective == evaluate(q, res.z_best)
        if m == 0:
            assert res.objective == q.offset
        steps = [e for e, _ in res.trace]
        values = [v for _, v in res.trace]
        assert steps and steps[0] >= 1
        assert all(b > a for a, b in zip(steps, steps[1:]))
        assert steps[-1] <= res.evaluations
        assert all(b <= a for a, b in zip(values, values[1:]))
        if method == "exhaustive":
            assert res.evaluations == 2**m
        else:
            assert 1 <= res.evaluations <= budget

    def test_negative_seed_refused_naming_it(self):
        with pytest.raises(ValueError, match=r"^seed must be nonnegative, got -1$"):
            SolverConfig(seed=-1)

    @pytest.mark.parametrize("method", SOLVER_NAMES)
    def test_empty_problem_evaluates_once(self, method):
        # a fully reduced control step hands every solver zero variables
        res = solve(QuboProblem([], offset=2.0), method, SolverConfig())
        assert res.evaluations == 1
        assert res.trace == [(1, 2.0)]


class TestSimulatedAnnealing:
    def test_budget_one_returns_seeded_initial_state(self, rng):
        q = random_qubo(rng, 10)
        res = solve_simulated_annealing(q, SolverConfig(seed=9, budget=1))
        assert res.evaluations == 1
        assert res.objective == evaluate(q, res.z_best)
        # the initial state is the seeded random draw
        z0 = np.random.default_rng(np.random.SeedSequence(9)).integers(0, 2, 10, dtype=np.int8)
        assert np.array_equal(res.z_best, z0)

    def test_budget_respected(self, rng):
        q = random_qubo(rng, 10)
        res = solve_simulated_annealing(q, SolverConfig(seed=2, budget=500))
        assert res.evaluations <= 500

    def test_explicit_temperature_schedule(self, rng):
        q = random_qubo(rng, 8)
        cfg = SolverConfig(seed=0, sa_initial_temperature=2.0, sa_sweeps_per_temperature=2)
        res = solve_simulated_annealing(q, cfg)
        assert res.objective == evaluate(q, res.z_best)

    BAD_KNOBS = [
        ("seed", -1, "seed must be nonnegative"),
        ("budget", 0, "budget must be positive"),
        ("sa_initial_temperature", -1.0, "initial temperature must be finite and positive"),
        ("sa_initial_temperature", np.nan, "initial temperature must be finite and positive"),
        ("sa_initial_temperature", np.inf, "initial temperature must be finite and positive"),
        ("sa_final_temperature_ratio", 1.0, r"final temperature ratio must lie in \(0, 1\)"),
        ("sa_cooling_ratio", 1.5, r"cooling ratio must lie in \(0, 1\)"),
        ("sa_sweeps_per_temperature", 0, "sweeps per temperature must be positive"),
        ("ts_tenure", 0, "tabu tenure must be positive"),
        ("ts_stagnation_limit", 0, "stagnation limit must be positive"),
        ("ts_restarts", 0, "restart count must be positive"),
        ("ga_population", 0, "population size must be positive"),
        ("ga_crossover_rate", 1.5, r"crossover rate must lie in \[0, 1\]"),
        ("ga_mutation_rate", -0.1, r"mutation rate must lie in \[0, 1\]"),
        ("ga_generations", 0, "generation count must be positive"),
        ("ga_tournament_size", 0, "tournament size must be positive"),
        ("ga_elitism", -1, "elitism must be nonnegative"),
    ]

    @pytest.mark.parametrize(
        "knob, value, message", BAD_KNOBS, ids=[f"{k}={v}" for k, v, _ in BAD_KNOBS]
    )
    def test_bad_config_rejected(self, knob, value, message):
        with pytest.raises(ValueError, match=message):
            SolverConfig(**{knob: value})


class TestTabu:
    def test_finds_optimum_quickly_on_separable_instance(self):
        q = QuboProblem([-1.0, 2.0, -3.0, 0.5])
        res = solve_tabu(q, SolverConfig(seed=0, budget=5_000))
        assert np.array_equal(res.z_best, [1, 0, 1, 0])

    def test_oversized_tenure_still_terminates_via_budget(self, rng):
        q = random_qubo(rng, 8)
        cfg = SolverConfig(seed=0, budget=2_000, ts_tenure=100, ts_restarts=1)
        res = solve_tabu(q, cfg)
        assert res.evaluations <= 2_000
        assert res.objective == evaluate(q, res.z_best)

    def test_empty_problem_with_explicit_stagnation_limit(self):
        # with no bits there is no move, whatever the stagnation limit
        cfg = SolverConfig(budget=50, ts_stagnation_limit=5)
        res = solve_tabu(QuboProblem([], offset=1.5), cfg)
        assert res.z_best.shape == (0,)
        assert res.objective == 1.5
        assert 1 <= res.evaluations <= 50

    def test_stagnation_cap_limits_descent(self, rng):
        q = random_qubo(rng, 10)
        cfg = SolverConfig(seed=4, budget=10**6, ts_stagnation_limit=5, ts_restarts=2)
        res = solve_tabu(q, cfg)
        assert res.evaluations < 10**6


class TestGenetic:
    def test_degenerate_population_is_constant(self, rng):
        q = random_qubo(rng, 8)
        cfg = SolverConfig(
            seed=5,
            ga_population=1,
            ga_mutation_rate=0.0,
            ga_crossover_rate=0.0,
            ga_generations=50,
        )
        res = solve_genetic(q, cfg)
        assert len(res.trace) == 1  # never improves past the initial individual

    def test_gap_statistics_reportable(self, rng):
        q = random_qubo(rng, 12)
        opt = solve_exhaustive(q).objective
        gaps = []
        for seed in range(10):
            res = solve_genetic(q, SolverConfig(seed=seed, ga_generations=40))
            gaps.append(res.objective - opt)
        assert min(gaps) >= -1e-9  # never better than the exact optimum

    def test_budget_respected(self, rng):
        q = random_qubo(rng, 10)
        res = solve_genetic(q, SolverConfig(seed=1, budget=200))
        assert res.evaluations <= 200

    def test_full_budget_counts_every_generation(self, rng):
        q = random_qubo(rng, 10)
        cfg = SolverConfig(seed=2, ga_population=12, ga_generations=30)
        res = solve_genetic(q, cfg)
        assert res.evaluations == 12 * (1 + 30)


def reference_tabu(q: QuboProblem, cfg: SolverConfig):
    """The per-move allocating tabu loop that ``solve_tabu`` must match bit for bit."""
    m = q.m
    p = q.linear
    s = q.coupling
    tenure = cfg.ts_tenure if cfg.ts_tenure is not None else math.ceil(m / 10) + 1
    stagnation_cap = (
        cfg.ts_stagnation_limit if cfg.ts_stagnation_limit is not None else 50 * m
    )
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.ts_restarts)

    evals = 0
    best_val = np.inf
    best_z = None
    trace = []
    for stream in streams:
        if evals >= cfg.budget:
            break
        rng = np.random.default_rng(stream)
        z = rng.integers(0, 2, size=m, dtype=np.int8)
        fields = p + s @ z
        value = evaluate(q, z)
        evals += 1
        if value < best_val:
            best_val = value
            best_z = z.copy()
            trace.append((evals, best_val))
        tabu_until = np.zeros(m, dtype=np.int64)
        iteration = 0
        stagnant = 0
        while evals + m <= cfg.budget and stagnant < stagnation_cap:
            deltas = (1 - 2 * z) * fields
            evals += m
            admissible = (tabu_until <= iteration) | (value + deltas < best_val)
            if admissible.any():
                i = int(np.argmin(np.where(admissible, deltas, np.inf)))
            else:
                i = int(np.argmin(tabu_until))
            step = 1 - 2 * int(z[i])
            value += float(deltas[i])
            fields += s[:, i] * step
            z[i] += step
            tabu_until[i] = iteration + tenure
            iteration += 1
            if value < best_val:
                exact = evaluate(q, z)
                value = exact
                if exact < best_val:
                    best_val = exact
                    best_z = z.copy()
                    trace.append((evals, best_val))
                    stagnant = 0
                else:
                    stagnant += 1
            else:
                stagnant += 1
    return best_z, evaluate(q, best_z), evals, trace


class TestTabuReference:
    @pytest.mark.parametrize("m", [1, 2, 15, 60])
    @pytest.mark.parametrize(
        "overrides",
        [
            {"budget": 200_000},
            {"budget": 50_000, "ts_tenure": 100},  # every move tabu once M moves ran
            {"budget": 200_000, "ts_stagnation_limit": 3},
            {"budget": 7_777, "ts_restarts": 3},  # the budget ends mid-restart
        ],
    )
    @pytest.mark.parametrize("integral", [False, True])
    def test_matches_reference_loop(self, m, overrides, integral):
        r = np.random.default_rng(1000 + m)
        for seed in range(3):
            q = random_qubo(r, m)
            if integral:
                # small integer coefficients make exact ties in the move
                # choice and in the aspiration test common
                q = QuboProblem(np.round(3 * q.linear), np.round(3 * q.coupling), 1.0)
            cfg = SolverConfig(seed=seed, **overrides)
            res = solve_tabu(q, cfg)
            z_ref, objective, evaluations, trace = reference_tabu(q, cfg)
            assert np.array_equal(res.z_best, z_ref)
            assert res.z_best.dtype == z_ref.dtype
            assert res.objective == objective
            assert res.evaluations == evaluations
            assert res.trace == trace


def annealing_levels(cfg: SolverConfig, t0: float) -> int:
    """Temperature levels the geometric ladder visits when the budget is ample."""
    levels = 0
    temp = t0
    while temp > t0 * cfg.sa_final_temperature_ratio:
        levels += 1
        temp *= cfg.sa_cooling_ratio
    return levels


class TestAnnealingBudget:
    @pytest.mark.parametrize("budget", [1, 50, 100, 101])
    def test_budget_spent_inside_probe_phase(self, rng, budget):
        q = random_qubo(rng, 10)
        res = solve_simulated_annealing(q, SolverConfig(seed=4, budget=budget))
        assert res.evaluations == budget
        assert res.objective == evaluate(q, res.z_best)

    @pytest.mark.parametrize("extra", [1, 250, 10 * 12 * 3 + 7])
    def test_budget_spent_inside_temperature_level(self, rng, extra):
        q = random_qubo(rng, 12)
        res = solve_simulated_annealing(q, SolverConfig(seed=4, budget=101 + extra))
        assert res.evaluations == 101 + extra

    def test_ample_budget_counts_every_level(self, rng):
        m = 9
        q = random_qubo(rng, m)
        cfg = SolverConfig(seed=6)
        res = solve_simulated_annealing(q, cfg)
        # the ladder spans a fixed ratio, so its length does not depend on t0
        assert res.evaluations == 1 + 100 + annealing_levels(cfg, 1.0) * 10 * m

    def test_explicit_temperature_skips_probes(self, rng):
        m = 9
        q = random_qubo(rng, m)
        cfg = SolverConfig(seed=6, sa_initial_temperature=3.0)
        res = solve_simulated_annealing(q, cfg)
        assert res.evaluations == 1 + annealing_levels(cfg, 3.0) * 10 * m

    @pytest.mark.parametrize("method", ["sa", "tabu"])
    @pytest.mark.parametrize("budget", [1, 150, 20_000])
    def test_trace_indices_increase_within_evaluations(self, rng, method, budget):
        q = random_qubo(rng, 14)
        res = solve(q, method, SolverConfig(seed=8, budget=budget))
        steps = [e for e, _ in res.trace]
        assert steps and steps[0] >= 1
        assert all(b > a for a, b in zip(steps, steps[1:]))
        assert steps[-1] <= res.evaluations <= budget
