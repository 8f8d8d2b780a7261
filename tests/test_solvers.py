"""Solver contracts: correctness, reproducibility, traces, budgets."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiqubo import (
    QuboProblem,
    SolverConfig,
    evaluate,
    incremental_delta,
    solve,
    solve_exhaustive,
    solve_genetic,
    solve_simulated_annealing,
    solve_tabu,
)
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
        q = QuboProblem([1.0, 1.0], {(0, 1): -3.0})
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


class TestIncrementalDelta:
    def test_single_variable(self):
        q = QuboProblem([5.0])
        assert incremental_delta(q, [0], 0) == 5.0
        assert incremental_delta(q, [1], 0) == -5.0

    def test_matches_full_evaluation(self, rng):
        q = random_qubo(rng, 20)
        for _ in range(1000):
            z = rng.integers(0, 2, 20)
            i = int(rng.integers(20))
            flipped = z.copy()
            flipped[i] ^= 1
            want = evaluate(q, flipped) - evaluate(q, z)
            assert abs(incremental_delta(q, z, i) - want) <= 1e-12

    def test_index_out_of_range(self, trivial):
        with pytest.raises(IndexError):
            incremental_delta(trivial, [0, 1], 2)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_flip_identity_property(self, seed):
        r = np.random.default_rng(seed)
        q = random_qubo(r, int(r.integers(2, 12)))
        z = r.integers(0, 2, q.m)
        i = int(r.integers(q.m))
        flipped = z.copy()
        flipped[i] ^= 1
        assert evaluate(q, z) + incremental_delta(q, z, i) == pytest.approx(
            evaluate(q, flipped), rel=0, abs=1e-12
        )


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

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(sa_cooling_ratio=1.5).validate()
        with pytest.raises(ValueError):
            SolverConfig(budget=0).validate()
        with pytest.raises(ValueError):
            SolverConfig(sa_initial_temperature=-1.0).validate()


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
