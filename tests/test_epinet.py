"""Dynamics, validation, bounds, and spectral estimates."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiqubo import (
    EpidemicParams,
    EpidemicState,
    LocationNetwork,
    ModelKind,
    cost,
    infection_rate_from_r0,
    invariance_bound,
    simulate,
    spectral_growth_factor,
    step_sir,
    step_sis,
    validate_network,
)
from epiqubo.dataio import generate_synthetic
from epiqubo import epinet
from epiqubo.epinet import _rho_of_unit_shifted, batch_infection_cost, step_arrays
from conftest import random_instance, random_network


@pytest.fixture
def two_node():
    return LocationNetwork([100.0, 100.0], [[0.0, 0.5], [0.5, 0.0]])


class TestValidation:
    def test_minimal_network_is_valid(self):
        report = validate_network(LocationNetwork([100.0], [[0.0]]))
        assert report.ok
        assert report.warnings == []

    def test_nonzero_diagonal_is_violation(self):
        report = validate_network(LocationNetwork([10.0, 10.0], [[0.1, 0.0], [0.0, 0.0]]))
        assert not report.ok
        assert any("nonzero diagonal at 0" in v for v in report.violations)

    def test_large_weight_is_warning_only(self):
        report = validate_network(LocationNetwork([10.0, 10.0], [[0.0, 1.5], [0.2, 0.0]]))
        assert report.ok
        assert any("weight > 1 at (0, 1)" in w for w in report.warnings)

    def test_nonpositive_population_is_violation(self):
        report = validate_network(LocationNetwork([10.0, 0.0], [[0.0, 0.1], [0.1, 0.0]]))
        assert any("nonpositive population at 1" in v for v in report.violations)

    def test_negative_weight_is_violation(self):
        report = validate_network(LocationNetwork([10.0, 10.0], [[0.0, -0.1], [0.1, 0.0]]))
        assert any("negative weight at (0, 1)" in v for v in report.violations)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            LocationNetwork([10.0, 10.0], [[0.0]])

    def test_bad_params_raise(self):
        with pytest.raises(ValueError):
            EpidemicParams(ModelKind.SIS, -0.1, 0.5)
        with pytest.raises(ValueError):
            EpidemicParams(ModelKind.SIS, 0.1, 1.5)


class TestInvarianceBound:
    def test_single_location(self):
        assert invariance_bound(LocationNetwork([100.0], [[0.0]])) == 1.0

    def test_symmetric_pair(self, two_node):
        assert math.isclose(invariance_bound(two_node), 1.0 / 1.5, rel_tol=1e-12)

    def test_unequal_populations_bind_at_smaller(self):
        net = LocationNetwork([100.0, 50.0], [[0.0, 0.5], [0.5, 0.0]])
        # location 2 sees 0.5 * 100/50 = 1 unit of inflow, so 1/(1+1) binds
        assert invariance_bound(net) == 0.5


class TestInfectionForce:
    """Isolation acts on the infection force, as one step applies it."""

    def test_dimension_mismatch(self, two_node):
        sis = EpidemicParams(ModelKind.SIS, 0.1, 0.1)
        sir = EpidemicParams(ModelKind.SIR, 0.1, 0.1)
        with pytest.raises(ValueError, match="state has 1 locations, network has 2"):
            step_sis(EpidemicState([1.0]), two_node, sis, [0, 0])
        with pytest.raises(ValueError, match="state has 1 locations, network has 2"):
            step_sir(EpidemicState([1.0], [0.0]), two_node, sir, [0, 0])
        with pytest.raises(ValueError, match="bit vector must have length 2"):
            step_sis(EpidemicState([1.0, 1.0]), two_node, sis, [0, 0, 1])
        with pytest.raises(ValueError, match="bit vector must have length 2"):
            step_sir(EpidemicState([1.0, 1.0], [0.0, 0.0]), two_node, sir, [0, 0, 1])

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        idx=st.integers(0, 5),
        kind=st.sampled_from([ModelKind.SIS, ModelKind.SIR]),
    )
    def test_isolation_never_raises_force(self, seed, idx, kind):
        # isolating one location removes its inflow from its own force only,
        # so only its next infected count moves, and never up
        net, params, state, _ = random_instance(np.random.default_rng(seed), kind, 6)
        step = step_sis if kind is ModelKind.SIS else step_sir
        u_free = np.zeros(6, dtype=int)
        u_iso = u_free.copy()
        u_iso[idx] = 1
        x_free = step(state, net, params, u_free).infected
        x_iso = step(state, net, params, u_iso).infected
        others = np.arange(6) != idx
        assert np.array_equal(x_iso[others], x_free[others])
        inflow = float(net.weights[idx] @ state.infected)
        if inflow == 0.0:
            assert x_iso[idx] == x_free[idx]
        else:
            assert x_iso[idx] < x_free[idx]


class TestSteps:
    def test_sis_hand_value(self, two_node):
        params = EpidemicParams(ModelKind.SIS, 0.2, 0.1)
        nxt = step_sis(EpidemicState([10.0, 0.0]), two_node, params, [0, 0])
        assert np.allclose(nxt.infected, [10.8, 1.0], rtol=0, atol=1e-12)

    def test_sis_disease_free_fixed_point(self, two_node):
        params = EpidemicParams(ModelKind.SIS, 0.2, 0.1)
        nxt = step_sis(EpidemicState([0.0, 0.0]), two_node, params, [1, 0])
        assert np.array_equal(nxt.infected, [0.0, 0.0])

    def test_sis_pure_recovery(self, two_node):
        params = EpidemicParams(ModelKind.SIS, 0.0, 0.5)
        nxt = step_sis(EpidemicState([10.0, 4.0]), two_node, params, [0, 0])
        assert np.allclose(nxt.infected, [5.0, 2.0], rtol=0, atol=1e-12)

    def test_sir_hand_value(self):
        net = LocationNetwork([100.0], [[0.0]])
        params = EpidemicParams(ModelKind.SIR, 0.2, 0.1)
        nxt = step_sir(EpidemicState([10.0], [20.0]), net, params, [0])
        assert np.allclose(nxt.infected, [10.4], rtol=0, atol=1e-12)
        assert np.allclose(nxt.removed, [21.0], rtol=0, atol=1e-12)

    def test_sir_no_infected_is_frozen(self):
        net = LocationNetwork([100.0], [[0.0]])
        params = EpidemicParams(ModelKind.SIR, 0.2, 0.1)
        nxt = step_sir(EpidemicState([0.0], [30.0]), net, params, [0])
        assert np.array_equal(nxt.infected, [0.0])
        assert np.array_equal(nxt.removed, [30.0])

    def test_sir_full_recovery_single_step(self):
        net = LocationNetwork([100.0], [[0.0]])
        params = EpidemicParams(ModelKind.SIR, 0.0, 1.0)
        nxt = step_sir(EpidemicState([10.0], [0.0]), net, params, [0])
        assert np.array_equal(nxt.infected, [0.0])
        assert np.array_equal(nxt.removed, [10.0])

    def test_kind_mismatch_raises(self, two_node):
        sis = EpidemicParams(ModelKind.SIS, 0.1, 0.1)
        sir = EpidemicParams(ModelKind.SIR, 0.1, 0.1)
        with pytest.raises(ValueError):
            step_sis(EpidemicState([1.0, 0.0]), two_node, sir, [0, 0])
        with pytest.raises(ValueError):
            step_sir(EpidemicState([1.0, 0.0]), two_node, sis, [0, 0])
        with pytest.raises(ValueError):
            step_sir(EpidemicState([1.0, 0.0]), two_node, sir, [0, 0])  # no removed pool

    @pytest.mark.parametrize("kind", [ModelKind.SIS, ModelKind.SIR])
    def test_wrappers_run_the_array_kernel(self, rng, kind):
        step = step_sis if kind is ModelKind.SIS else step_sir
        for m in (1, 4, 11):
            net, params, state, _ = random_instance(rng, kind, m)
            u = rng.integers(0, 2, size=m, dtype=np.int8)
            x, y = step_arrays(state.infected, state.removed, u, net, params)
            nxt = step(state, net, params, u)
            assert np.array_equal(nxt.infected, x)
            assert (nxt.removed is None) == (y is None)
            if y is not None:
                assert np.array_equal(nxt.removed, y)
            # no control means every location open
            free = step(state, net, params)
            open_all = step(state, net, params, np.zeros(m, dtype=np.int8))
            assert np.array_equal(free.infected, open_all.infected)


class TestBatchInfectionCost:
    """Step 1 of a batch is one matrix-vector product shared by every row."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 64),
        rows=st.integers(1, 40),
        kind=st.sampled_from([ModelKind.SIS, ModelKind.SIR]),
    )
    def test_one_step_rows_do_not_depend_on_the_batch(self, seed, m, rows, kind):
        rng = np.random.default_rng(seed)
        net, params, state, _ = random_instance(rng, kind, m)
        controls = rng.integers(0, 2, size=(rows, m)).astype(np.float64)
        whole = batch_infection_cost(net, params, state, controls, 1)
        reversed_rows = batch_infection_cost(net, params, state, controls[::-1], 1)
        assert whole.tobytes() == reversed_rows[::-1].tobytes()
        for r in range(rows):
            alone = batch_infection_cost(net, params, state, controls[r : r + 1], 1)
            assert alone.tobytes() == whole[r : r + 1].tobytes()
            u = controls[r].astype(np.int8)
            assert whole[r] == simulate(net, params, state, u, 1).infected[1].sum()

    @pytest.mark.parametrize("kind", [ModelKind.SIS, ModelKind.SIR])
    def test_start_state_is_not_written(self, rng, kind):
        net, params, state, _ = random_instance(rng, kind, 12)
        arrays = [a for a in (state.infected, state.removed) if a is not None]
        before = [a.copy() for a in arrays]
        for a in arrays:
            a.flags.writeable = False  # an in-place write would raise
        controls = rng.integers(0, 2, size=(5, 12)).astype(np.float64)
        batch_infection_cost(net, params, state, controls, 3)
        for a, b in zip(arrays, before):
            assert a.tobytes() == b.tobytes()


class TestSimulate:
    def test_zero_steps(self, two_node):
        params = EpidemicParams(ModelKind.SIS, 0.2, 0.1)
        traj = simulate(two_node, params, EpidemicState([10.0, 0.0]), None, 0)
        assert traj.infected.shape == (1, 2)
        assert traj.num_steps == 0

    def test_two_steps_match_iterated_hand_step(self, two_node):
        params = EpidemicParams(ModelKind.SIS, 0.2, 0.1)
        state = EpidemicState([10.0, 0.0])
        traj = simulate(two_node, params, state, np.zeros(2, dtype=int), 2)
        assert np.allclose(traj.infected[1], [10.8, 1.0], rtol=0, atol=1e-12)
        by_hand = step_sis(step_sis(state, two_node, params, [0, 0]), two_node, params, [0, 0])
        assert np.array_equal(traj.infected[2], by_hand.infected)

    def test_full_isolation_blocks_spread(self, rng):
        net = random_network(rng, 6)
        params = EpidemicParams(ModelKind.SIS, 0.9 * invariance_bound(net), 0.2)
        x0 = np.zeros(6)
        x0[1] = 0.5 * net.populations[1]
        traj = simulate(net, params, EpidemicState(x0), np.ones(6, dtype=int), 20)
        others = [j for j in range(6) if j != 1]
        assert np.array_equal(traj.infected[:, others], np.zeros((21, 5)))

    def test_determinism(self, rng):
        net, params, state, _ = random_instance(rng, ModelKind.SIR, 7)
        schedule = rng.integers(0, 2, size=(50, 7))
        t1 = simulate(net, params, state, schedule, 50)
        t2 = simulate(net, params, state, schedule, 50)
        assert np.array_equal(t1.infected, t2.infected)
        assert np.array_equal(t1.removed, t2.removed)

    def test_schedule_length_mismatch(self, two_node):
        params = EpidemicParams(ModelKind.SIS, 0.2, 0.1)
        with pytest.raises(ValueError):
            simulate(two_node, params, EpidemicState([1.0, 0.0]), np.zeros((3, 2), dtype=int), 2)

    def test_state_outside_domain_rejected(self, two_node):
        params = EpidemicParams(ModelKind.SIS, 0.2, 0.1)
        with pytest.raises(ValueError):
            simulate(two_node, params, EpidemicState([150.0, 0.0]), None, 1)

    def test_infected_plus_removed_beyond_population_rejected(self, two_node):
        params = EpidemicParams(ModelKind.SIR, 0.2, 0.1)
        state = EpidemicState([60.0, 0.0], [50.0, 0.0])
        with pytest.raises(ValueError, match="^infected plus removed exceed local populations$"):
            simulate(two_node, params, state, None, 1)


class TestRecorder:
    """``simulate`` and the controller record runs through one loop."""

    @pytest.mark.parametrize("controls", [None, np.array([1, 0])])
    def test_unaddressable_step_count_names_steps(self, two_node, controls):
        params = EpidemicParams(ModelKind.SIS, 0.2, 0.1)
        with pytest.raises(ValueError, match=f"steps={2**62} needs per-step arrays"):
            simulate(two_node, params, EpidemicState([1.0, 0.0]), controls, 2**62)

    @pytest.mark.parametrize("kind", [ModelKind.SIS, ModelKind.SIR])
    def test_constant_control_equals_its_schedule(self, rng, kind):
        net, params, state, _ = random_instance(rng, kind, 9)
        u = rng.integers(0, 2, size=9)
        constant = simulate(net, params, state, u, 25)
        scheduled = simulate(net, params, state, np.tile(u, (25, 1)), 25)
        assert constant.infected.tobytes() == scheduled.infected.tobytes()
        assert constant.controls.tobytes() == scheduled.controls.tobytes()
        if kind is ModelKind.SIR:
            assert constant.removed.tobytes() == scheduled.removed.tobytes()


class TestPositiveInvariance:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 8),
        kind=st.sampled_from([ModelKind.SIS, ModelKind.SIR]),
        share=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
    )
    def test_random_schedules_stay_in_box(self, seed, m, kind, share):
        rng = np.random.default_rng(seed)
        net, params, state, _ = random_instance(rng, kind, m)
        params = EpidemicParams(kind, share * invariance_bound(net), params.mu)
        schedule = rng.integers(0, 2, size=(40, m))
        traj = simulate(net, params, state, schedule, 40)
        assert np.all(traj.infected >= 0.0)
        assert np.all(traj.infected <= net.populations)
        if kind is ModelKind.SIR:
            assert np.all(traj.removed >= 0.0)
            assert np.all(traj.infected + traj.removed <= net.populations)

    def test_thousand_step_runs_stay_in_box(self, rng):
        for _ in range(20):
            kind = ModelKind.SIS if rng.random() < 0.5 else ModelKind.SIR
            m = int(rng.integers(2, 9))
            net = random_network(rng, m)
            lam = invariance_bound(net)  # exactly at the bound
            params = EpidemicParams(kind, lam, float(rng.uniform(0.0, 1.0)))
            if kind is ModelKind.SIS:
                state = EpidemicState(rng.uniform(0.0, 1.0, m) * net.populations)
            else:
                t = rng.uniform(0.0, 1.0, m)
                s = rng.uniform(0.0, 1.0, m)
                state = EpidemicState(t * s * net.populations, t * (1 - s) * net.populations)
            schedule = rng.integers(0, 2, size=(1000, m))
            traj = simulate(net, params, state, schedule, 1000)
            assert np.all(traj.infected >= 0.0)
            assert np.all(traj.infected <= net.populations)
            if traj.removed is not None:
                assert np.all(traj.removed >= 0.0)
                assert np.all(traj.infected + traj.removed <= net.populations)

    def test_sir_conservation_properties(self, rng):
        for _ in range(10):
            net, params, state, _ = random_instance(rng, ModelKind.SIR, 6)
            schedule = rng.integers(0, 2, size=(200, 6))
            traj = simulate(net, params, state, schedule, 200)
            assert np.all(np.diff(traj.removed, axis=0) >= 0.0)  # removed never shrinks
            susceptible = net.populations - traj.infected - traj.removed
            assert np.all(np.diff(susceptible, axis=0) <= 1e-12)
            assert np.all(susceptible >= -1e-9)


class TestCost:
    def test_control_term_only(self, two_node):
        x = np.zeros((3, 2))
        traj_like = simulate(
            two_node, EpidemicParams(ModelKind.SIS, 0.1, 0.1), EpidemicState([0.0, 0.0]), None, 2
        )
        assert np.array_equal(traj_like.infected, x)
        assert cost(traj_like, [1, 0], 0.01, two_node) == 1.0

    def test_gamma_zero_counts_infections_after_start(self, two_node):
        params = EpidemicParams(ModelKind.SIS, 0.2, 0.1)
        traj = simulate(two_node, params, EpidemicState([10.0, 0.0]), None, 2)
        expected = float(traj.infected[1].sum() + traj.infected[2].sum())
        assert cost(traj, [0, 0], 0.0, two_node) == expected
        # the initial state never contributes
        assert cost(traj, [0, 0], 0.0, two_node) < traj.infected.sum()

    def test_negative_gamma_rejected(self, two_node):
        params = EpidemicParams(ModelKind.SIS, 0.2, 0.1)
        traj = simulate(two_node, params, EpidemicState([10.0, 0.0]), None, 1)
        with pytest.raises(ValueError):
            cost(traj, [0, 0], -0.5, two_node)


class TestSpectral:
    def test_rate_calibration_no_edges(self):
        net = LocationNetwork([100.0], [[0.0]])
        assert infection_rate_from_r0(2.0, 0.1, net) == pytest.approx(0.2, rel=1e-12)

    def test_rate_calibration_symmetric_pair(self, two_node):
        assert infection_rate_from_r0(3.0, 0.1, two_node) == pytest.approx(0.2, rel=1e-12)

    def test_rate_zero_r0(self, two_node):
        assert infection_rate_from_r0(0.0, 0.1, two_node) == 0.0

    def test_rate_bad_inputs(self, two_node):
        with pytest.raises(ValueError):
            infection_rate_from_r0(2.0, 0.0, two_node)
        with pytest.raises(ValueError):
            infection_rate_from_r0(-1.0, 0.1, two_node)

    def test_growth_factor_all_isolated(self, two_node):
        assert spectral_growth_factor(two_node, [1, 1]) == 1.0

    def test_growth_factor_free(self, two_node):
        assert spectral_growth_factor(two_node, [0, 0]) == pytest.approx(1.5, rel=1e-12)

    def test_growth_factor_one_isolated(self, two_node):
        # remaining coupling is nilpotent, growth collapses to 1
        assert spectral_growth_factor(two_node, [1, 0]) == 1.0

    def test_growth_factor_matches_dense_eig(self, rng):
        for _ in range(20):
            net = random_network(rng, int(rng.integers(2, 12)))
            u = rng.integers(0, 2, net.m)
            got = spectral_growth_factor(net, u)
            dense = np.eye(net.m) + (1 - u)[:, None] * net.weights
            want = float(np.abs(np.linalg.eigvals(dense)).max())
            assert got == pytest.approx(want, rel=1e-9)

    def test_calibration_matches_dense_eig(self, rng):
        for _ in range(20):
            net = random_network(rng, int(rng.integers(2, 12)))
            got = infection_rate_from_r0(2.5, 0.3, net)
            rho = float(np.abs(np.linalg.eigvals(net.weights + np.eye(net.m))).max())
            assert got == pytest.approx(2.5 * 0.3 / rho, rel=1e-9)

    def test_calibration_on_large_complete_network_does_not_overflow(self):
        # the nilpotency test multiplies by the weights M times; on a dense
        # M = 300 network the unscaled iterate overflowed
        net = generate_synthetic(300, "complete", 2024)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = infection_rate_from_r0(3.0, 0.1, net)
        rho = float(np.abs(np.linalg.eigvals(net.weights + np.eye(net.m))).max())
        assert got == pytest.approx(3.0 * 0.1 / rho, rel=1e-9)


def _reference_rho(b):
    """``_rho_of_unit_shifted`` with its nilpotency scan run all M steps."""
    m = b.shape[0]
    v = np.ones(m)
    for _ in range(m):
        v = b @ v
        top = v.max()
        if top == 0.0:
            return 1.0
        v /= top
    x = np.ones(m)
    for _ in range(epinet.SPECTRAL_MAX_ITER):
        y = x + b @ x
        est = float(np.dot(x, y) / np.dot(x, x))
        resid = float(np.linalg.norm(y - est * x) / np.linalg.norm(x))
        if resid <= epinet.SPECTRAL_TOL * est:
            return est
        x = y / np.linalg.norm(y)
    raise AssertionError("reference power iteration did not converge")


def _random_dag(rng, m, density):
    """Nonnegative weights on a random order's forward edges: B is nilpotent."""
    upper = np.triu(rng.uniform(0.0, 1.0, size=(m, m)) * (rng.random((m, m)) < density), 1)
    order = rng.permutation(m)
    return upper[np.ix_(order, order)]


class TestNilpotencyScan:
    @pytest.mark.parametrize("m", [1, 2, 5, 40, 300])
    def test_dags_return_exactly_one(self, rng, m):
        for density in (0.05, 0.5, 1.0):
            assert _rho_of_unit_shifted(_random_dag(rng, m, density)) == 1.0
        chain = np.diag(np.full(m - 1, 0.5), 1)
        assert _rho_of_unit_shifted(chain) == 1.0

    @pytest.mark.parametrize("profile", ["gravity", "ring", "complete"])
    @pytest.mark.parametrize("m", [18, 21, 60, 107, 300])
    def test_study_networks_match_full_scan_bitwise(self, profile, m):
        weights = generate_synthetic(m, profile, 2024).weights
        assert _rho_of_unit_shifted(weights) == _reference_rho(weights)
        # isolating locations zeroes rows, as spectral_growth_factor does
        u = np.random.default_rng(m).integers(0, 2, size=m)
        scaled = (1 - u)[:, None] * weights
        assert _rho_of_unit_shifted(scaled) == _reference_rho(scaled)

    def test_random_nonnegative_matrices_match_full_scan_bitwise(self, rng):
        for _ in range(200):
            m = int(rng.integers(1, 40))
            density = float(rng.choice([0.02, 0.05, 0.1, 0.3, 1.0]))
            b = rng.uniform(0.0, 1.0, size=(m, m)) * (rng.random((m, m)) < density)
            if rng.random() < 0.5:
                # a DAG around one dense block: supports shrink for
                # several steps before they settle
                b = _random_dag(rng, m, density)
                k = int(rng.integers(1, m + 1))
                b[:k, :k] = rng.uniform(0.0, 1.0, size=(k, k))
            assert _rho_of_unit_shifted(b) == _reference_rho(b)
