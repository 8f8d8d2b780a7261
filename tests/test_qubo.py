"""Objective compilation, evaluation, brute force, and the text format."""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiqubo import (
    EpidemicParams,
    EpidemicState,
    LocationNetwork,
    ModelKind,
    QuboParseError,
    QuboProblem,
    build_qubo,
    build_qubo_numeric,
    build_qubo_sir_analytic,
    build_qubo_sis_analytic,
    cost,
    evaluate,
    export_qubo,
    fix_persistent,
    from_control,
    import_qubo,
    restrict,
    simulate,
    solve_exhaustive,
    to_control,
)
from epiqubo import qubo as qubo_module
from epiqubo.dataio import NetworkFiles, generate_synthetic, load_network, write_network_csvs
from epiqubo.epinet import (
    batch_infection_cost,
    infection_rate_from_r0,
    invariance_bound,
    spectral_growth_factor,
)
from conftest import all_bits, random_instance, random_qubo, solve_bruteforce_problem1


def coeffs_close(a: float, b: float, scale: float = 1.0) -> bool:
    return abs(a - b) <= max(1e-9 * max(abs(a), abs(b)), 1e-12 * scale)


def exact_infections(net, params, state):
    """The two-step infection cost, in exact arithmetic from the float
    inputs, as a function of the set of locations kept open."""
    m = net.m
    n = [Fraction(v) for v in net.populations.tolist()]
    w = [[Fraction(v) for v in row] for row in net.weights.tolist()]
    lam, mu = Fraction(params.lam), Fraction(params.mu)

    def infections(opened):
        x = [Fraction(v) for v in state.infected.tolist()]
        y = None if state.removed is None else [Fraction(v) for v in state.removed.tolist()]
        total = Fraction(0)
        for _ in range(2):
            force = [
                x[i] + (sum(w[i][k] * x[k] for k in range(m)) if i in opened else 0)
                for i in range(m)
            ]
            susceptible = [n[i] - x[i] - (0 if y is None else y[i]) for i in range(m)]
            x, y = (
                [(1 - mu) * x[i] + lam / n[i] * susceptible[i] * force[i] for i in range(m)],
                None if y is None else [y[i] + mu * x[i] for i in range(m)],
            )
            total += sum(x)
        return total

    return infections


def simulated_two_step_cost(net, params, state, gamma, z) -> float:
    u = 1 - np.asarray(z)
    traj = simulate(net, params, state, u, 2)
    return cost(traj, u, gamma, net)


@pytest.fixture
def two_node_instance():
    net = LocationNetwork([100.0, 100.0], [[0.0, 0.5], [0.5, 0.0]])
    params = EpidemicParams(ModelKind.SIS, 0.2, 0.1)
    state = EpidemicState([10.0, 0.0])
    return net, params, state, 0.01


class TestEvaluate:
    def test_linear_only(self):
        q = QuboProblem([-1.0, 2.0])
        assert evaluate(q, [1, 0]) == -1.0

    def test_single_quadratic_term(self):
        q = QuboProblem([0.0, 0.0], [[0.0, 3.0], [3.0, 0.0]], offset=1.0)
        assert evaluate(q, [1, 1]) == 4.0

    def test_all_zero_gives_offset(self, rng):
        q = random_qubo(rng, 8)
        assert evaluate(q, np.zeros(8, dtype=int)) == q.offset

    def test_length_mismatch(self):
        q = QuboProblem([1.0, 2.0])
        with pytest.raises(ValueError):
            evaluate(q, [1, 0, 1])


class TestChangeOfVariables:
    def test_all_open(self):
        assert np.array_equal(to_control(np.ones(4, dtype=int)), np.zeros(4))

    def test_all_isolated(self):
        assert np.array_equal(to_control(np.zeros(4, dtype=int)), np.ones(4))

    @settings(max_examples=50, deadline=None)
    @given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=30))
    def test_involution(self, bits):
        z = np.array(bits, dtype=np.int8)
        assert np.array_equal(from_control(to_control(z)), z)
        assert np.array_equal(to_control(from_control(z)), z)

    def test_nonbinary_rejected(self):
        with pytest.raises(ValueError):
            to_control(np.array([0, 2]))


class TestNumericBuilder:
    def test_no_infected_gives_pure_control_terms(self):
        net = LocationNetwork([100.0, 200.0], [[0.0, 0.4], [0.3, 0.0]])
        params = EpidemicParams(ModelKind.SIS, 0.2, 0.1)
        q = build_qubo_numeric(net, params, EpidemicState([0.0, 0.0]), 0.01)
        assert np.array_equal(q.linear, [-1.0, -2.0])
        assert not q.coupling.any()
        assert q.offset == 3.0

    def test_no_edges_decouples_control_from_dynamics(self):
        net = LocationNetwork([50.0, 80.0, 10.0], np.zeros((3, 3)))
        params = EpidemicParams(ModelKind.SIR, 0.3, 0.2)
        state = EpidemicState([5.0, 8.0, 1.0], [1.0, 0.0, 2.0])
        q = build_qubo_numeric(net, params, state, 0.05)
        assert np.array_equal(q.linear, -0.05 * net.populations)
        assert not q.coupling.any()

    def test_two_node_identity_over_all_assignments(self, two_node_instance):
        net, params, state, gamma = two_node_instance
        q = build_qubo_numeric(net, params, state, gamma)
        for z in all_bits(2):
            want = simulated_two_step_cost(net, params, state, gamma, z)
            got = evaluate(q, z)
            assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)

    def test_identity_random_instances_both_kinds(self, rng):
        for kind in (ModelKind.SIS, ModelKind.SIR):
            for _ in range(10):
                m = int(rng.integers(2, 9))
                net, params, state, gamma = random_instance(rng, kind, m)
                q = build_qubo_numeric(net, params, state, gamma)
                for z in all_bits(m):
                    want = simulated_two_step_cost(net, params, state, gamma, z)
                    got = evaluate(q, z)
                    assert abs(got - want) <= max(1e-9 * max(abs(got), abs(want)), 1e-12)

    @pytest.mark.parametrize("kind", [ModelKind.SIS, ModelKind.SIR])
    def test_coupling_equals_the_per_pair_loop_bitwise(self, rng, kind):
        # Q_ij = [x2_i({i, j}) - x2_i({i})] + [x2_j({i, j}) - x2_j({j})], one
        # pair and one location at a time in Python floats; a self-weight
        # enters through z_i^2 = z_i
        m = 7
        net, params, state, gamma = random_instance(rng, kind, m)
        net = LocationNetwork(net.populations, net.weights + np.diag(rng.uniform(0.0, 1.0, m)))
        shut = simulate(net, params, state, np.ones(m, dtype=np.int8), 1)
        opened = simulate(net, params, state, np.zeros(m, dtype=np.int8), 1)
        b, o = shut.infected[1].tolist(), opened.infected[1].tolist()
        y1 = [0.0] * m if kind is ModelKind.SIS else shut.removed[1].tolist()
        wb = (net.weights @ shut.infected[1]).tolist()
        w, n = net.weights.tolist(), net.populations.tolist()
        lam, mu = params.lam, params.mu

        def x2(i, force):
            susceptible = n[i] - o[i] if kind is ModelKind.SIS else n[i] - o[i] - y1[i]
            return force * ((lam / n[i]) * susceptible) + (1.0 - mu) * o[i]

        alone = [o[i] + wb[i] + w[i][i] * (o[i] - b[i]) for i in range(m)]
        want = np.zeros((m, m))
        for i in range(m):
            for j in range(i + 1, m):
                gain_i = x2(i, alone[i] + w[i][j] * (o[j] - b[j])) - x2(i, alone[i])
                gain_j = x2(j, alone[j] + w[j][i] * (o[i] - b[i])) - x2(j, alone[j])
                want[i, j] = want[j, i] = gain_i + gain_j
        q = build_qubo_numeric(net, params, state, gamma)
        assert q.coupling.tobytes() == (want + 0.0).tobytes()

    @pytest.mark.parametrize("kind", [ModelKind.SIS, ModelKind.SIR])
    def test_linear_equals_the_per_location_loop_bitwise(self, rng, kind):
        # P_i = (o_i - b_i) + [x2_i({i}) - x2_i({})] - gamma n_i, one location
        # at a time in Python floats; under z = 0 the step-2 force at i is b_i
        m = 7
        net, params, state, gamma = random_instance(rng, kind, m)
        net = LocationNetwork(net.populations, net.weights + np.diag(rng.uniform(0.0, 1.0, m)))
        shut = simulate(net, params, state, np.ones(m, dtype=np.int8), 1)
        opened = simulate(net, params, state, np.zeros(m, dtype=np.int8), 1)
        b, o = shut.infected[1].tolist(), opened.infected[1].tolist()
        y1 = [0.0] * m if kind is ModelKind.SIS else shut.removed[1].tolist()
        wb = (net.weights @ shut.infected[1]).tolist()
        w, n = net.weights.tolist(), net.populations.tolist()
        lam, mu = params.lam, params.mu

        def x2(i, force, x):
            susceptible = n[i] - x[i] if kind is ModelKind.SIS else n[i] - x[i] - y1[i]
            return force * ((lam / n[i]) * susceptible) + (1.0 - mu) * x[i]

        want = []
        for i in range(m):
            d = o[i] - b[i]
            alone = o[i] + wb[i] + w[i][i] * d
            want.append(d + (x2(i, alone, o) - x2(i, b[i], b)) - gamma * n[i])
        q = build_qubo_numeric(net, params, state, gamma)
        assert q.linear.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("kind", [ModelKind.SIS, ModelKind.SIR])
    def test_simulated_anchors_on_the_m300_study_network(self, kind):
        # the gravity study network of criterion 7: rate at 0.9 of the
        # invariance bound with r0 = 3, five seeded sites, state at t = 10
        net = generate_synthetic(300, "gravity", 2024)
        rho = spectral_growth_factor(net, np.zeros(net.m, dtype=np.int8))
        mu = 0.9 * invariance_bound(net) * rho / 3.0
        params = EpidemicParams(kind, infection_rate_from_r0(3.0, mu, net), mu)
        x0 = np.zeros(net.m)
        x0[:5] = 1e-3 * net.populations[:5]
        y0 = np.zeros(net.m) if kind is ModelKind.SIR else None
        state = simulate(net, params, EpidemicState(x0, y0), None, 10).state_at(10)
        gamma = 1e-5
        q = build_qubo_numeric(net, params, state, gamma)
        # row 0 isolates every location (z = 0), row i + 1 all but i (z = e_i)
        controls = 1.0 - np.eye(net.m + 1, net.m, -1)
        g = batch_infection_cost(net, params, state, controls, 2)
        assert q.offset == float(g[0] + gamma * net.populations.sum())
        anchors = g[1:] - g[0] - gamma * net.populations
        assert np.abs(q.linear - anchors).max() <= 1e-12 * np.abs(anchors).max()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 6),
        kind=st.sampled_from([ModelKind.SIS, ModelKind.SIR]),
        self_weights=st.booleans(),
    )
    def test_matches_exact_rational_interpolation(self, seed, m, kind, self_weights):
        # every probe's two-step cost in exact arithmetic from the float
        # inputs; each coefficient within 4 eps of g(0) of the exact one
        rng = np.random.default_rng(seed)
        net, params, state, gamma = random_instance(rng, kind, m)
        if self_weights:
            net = LocationNetwork(net.populations, net.weights + np.diag(rng.uniform(0.0, 1.0, m)))
        q = build_qubo_numeric(net, params, state, gamma)

        n = [Fraction(v) for v in net.populations.tolist()]
        g = Fraction(gamma)
        infections = exact_infections(net, params, state)
        g0 = infections(())
        single = [infections((i,)) for i in range(m)]
        offset = g0 + g * sum(n)
        tol = 4 * np.finfo(float).eps * max(1.0, abs(float(offset)))
        assert abs(Fraction(q.offset) - offset) <= tol
        for i in range(m):
            assert abs(Fraction(q.linear[i]) - (single[i] - g0 - g * n[i])) <= tol
            for j in range(i + 1, m):
                exact = infections((i, j)) - single[i] - single[j] + g0
                assert abs(Fraction(q.coupling[i, j]) - exact) <= tol

    def test_identity_sampled_assignments_large_m(self, rng):
        # beyond exhaustive reach the identity is spot-checked on 1000 draws
        for kind in (ModelKind.SIS, ModelKind.SIR):
            net, params, state, gamma = random_instance(rng, kind, 30)
            q = build_qubo_numeric(net, params, state, gamma)
            for _ in range(1000):
                z = rng.integers(0, 2, 30)
                want = simulated_two_step_cost(net, params, state, gamma, z)
                got = evaluate(q, z)
                assert abs(got - want) <= max(1e-9 * max(abs(got), abs(want)), 1e-12)


class TestAnalyticBuilders:
    def test_kind_mismatch(self, two_node_instance):
        net, params, state, gamma = two_node_instance
        with pytest.raises(ValueError):
            build_qubo_sir_analytic(net, params, state, gamma)
        sir_params = EpidemicParams(ModelKind.SIR, params.lam, params.mu)
        with pytest.raises(ValueError):
            build_qubo_sis_analytic(net, sir_params, EpidemicState([1.0, 0.0], [0.0, 0.0]), gamma)

    def test_no_infected_sis(self):
        net = LocationNetwork([100.0, 200.0], [[0.0, 0.4], [0.3, 0.0]])
        params = EpidemicParams(ModelKind.SIS, 0.2, 0.1)
        q = build_qubo_sis_analytic(net, params, EpidemicState([0.0, 0.0]), 0.01)
        assert np.array_equal(q.linear, -0.01 * net.populations)
        assert not q.coupling.any()

    def test_no_infected_sir_any_removed(self):
        net = LocationNetwork([100.0, 200.0], [[0.0, 0.4], [0.3, 0.0]])
        params = EpidemicParams(ModelKind.SIR, 0.2, 0.1)
        q = build_qubo_sir_analytic(
            net, params, EpidemicState([0.0, 0.0], [30.0, 50.0]), 0.01
        )
        assert np.array_equal(q.linear, -0.01 * net.populations)
        assert not q.coupling.any()

    def test_single_location_sir(self):
        net = LocationNetwork([100.0], [[0.0]])
        params = EpidemicParams(ModelKind.SIR, 0.3, 0.2)
        q = build_qubo_sir_analytic(net, params, EpidemicState([20.0], [10.0]), 0.02)
        assert q.linear == pytest.approx([-2.0], rel=0, abs=1e-15)
        assert not q.coupling.any()

    def test_couplings_within_1024_eps_of_exact_rationals(self):
        # Each coupling against the exact two-step interpolation from the
        # float inputs, relative to itself, on 300 instances (M = 2-5, a
        # third with weights x 1e-4, so the gated inflow c is small next to
        # the state).  Here the worst is 104 eps; taking c from the kernel
        # as the open minus the shut update cancels and reads 3.7e7 eps.
        # Where h cancels near saturated states the error grows without
        # that cancellation, so the instances are fixed, not searched.
        rng = np.random.default_rng(7)
        bound = Fraction(1024 * np.finfo(float).eps)
        for k in range(300):
            kind = (ModelKind.SIS, ModelKind.SIR)[k % 2]
            net, params, state, gamma = random_instance(rng, kind, int(rng.integers(2, 6)))
            if k % 3 == 0:
                net = LocationNetwork(net.populations, net.weights * 1e-4)
            q = build_qubo(net, params, state, gamma, "analytic")
            infections = exact_infections(net, params, state)
            g0 = infections(())
            single = [infections((i,)) for i in range(net.m)]
            for i in range(net.m):
                for j in range(i + 1, net.m):
                    exact = infections((i, j)) - single[i] - single[j] + g0
                    assert abs(Fraction(q.coupling[i, j]) - exact) <= bound * abs(exact)

    def test_symmetric_instance_has_symmetric_coefficients(self):
        net = LocationNetwork([100.0, 100.0], [[0.0, 0.4], [0.4, 0.0]])
        params = EpidemicParams(ModelKind.SIS, 0.2, 0.3)
        q = build_qubo_sis_analytic(net, params, EpidemicState([7.0, 7.0]), 0.01)
        assert q.linear[0] == q.linear[1]

    def test_two_node_matches_numeric_strictly(self, two_node_instance):
        net, params, state, gamma = two_node_instance
        qa = build_qubo_sis_analytic(net, params, state, gamma)
        qn = build_qubo_numeric(net, params, state, gamma)
        assert coeffs_close(qa.offset, qn.offset)
        for a, b in zip(qa.linear, qn.linear):
            assert coeffs_close(float(a), float(b))
        for a, b in zip(qa.coupling.ravel(), qn.coupling.ravel()):
            assert coeffs_close(float(a), float(b))

    def test_matches_numeric_on_random_instances(self, rng):
        # reconstruction noise in the numeric builder scales with the cost
        # magnitude, so the absolute floor is cost-scaled here
        for kind in (ModelKind.SIS, ModelKind.SIR):
            for _ in range(15):
                m = int(rng.integers(2, 9))
                net, params, state, gamma = random_instance(rng, kind, m)
                builder = (
                    build_qubo_sis_analytic if kind is ModelKind.SIS else build_qubo_sir_analytic
                )
                qa = builder(net, params, state, gamma)
                qn = build_qubo_numeric(net, params, state, gamma)
                scale = max(1.0, abs(qn.offset))
                assert coeffs_close(qa.offset, qn.offset, scale)
                for a, b in zip(qa.linear, qn.linear):
                    assert coeffs_close(float(a), float(b), scale)
                for a, b in zip(qa.coupling.ravel(), qn.coupling.ravel()):
                    assert coeffs_close(float(a), float(b), scale)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 8),
        kind=st.sampled_from([ModelKind.SIS, ModelKind.SIR]),
    )
    def test_matches_numeric_property(self, seed, m, kind):
        # random network, rates, state and gamma; the tolerance of
        # test_matches_numeric_on_random_instances
        net, params, state, gamma = random_instance(np.random.default_rng(seed), kind, m)
        builder = build_qubo_sis_analytic if kind is ModelKind.SIS else build_qubo_sir_analytic
        qa = builder(net, params, state, gamma)
        qn = build_qubo_numeric(net, params, state, gamma)
        scale = max(1.0, abs(qn.offset))
        assert coeffs_close(qa.offset, qn.offset, scale)
        for a, b in zip(qa.linear, qn.linear):
            assert coeffs_close(float(a), float(b), scale)
        for a, b in zip(qa.coupling.ravel(), qn.coupling.ravel()):
            assert coeffs_close(float(a), float(b), scale)

    def test_self_weight_terms_kept(self):
        # A_ii enters through z_i^2 = z_i; dropping it read 27.1578 here
        net = LocationNetwork([100.0, 200.0], [[0.3, 0.4], [0.2, 0.0]])
        params = EpidemicParams(ModelKind.SIS, 0.1, 0.2)
        state = EpidemicState([10.0, 5.0])
        qa = build_qubo_sis_analytic(net, params, state, 0.01)
        qn = build_qubo_numeric(net, params, state, 0.01)
        assert evaluate(qn, [1, 1]) == pytest.approx(27.170047159375, rel=1e-12)
        assert coeffs_close(evaluate(qa, [1, 1]), evaluate(qn, [1, 1]))

    def test_matches_numeric_with_self_weights(self, rng):
        for kind in (ModelKind.SIS, ModelKind.SIR):
            for _ in range(10):
                m = int(rng.integers(1, 8))
                net, params, state, gamma = random_instance(rng, kind, m)
                weights = net.weights + np.diag(rng.uniform(0.0, 1.0, m))
                net = LocationNetwork(net.populations, weights)
                builder = (
                    build_qubo_sis_analytic if kind is ModelKind.SIS else build_qubo_sir_analytic
                )
                qa = builder(net, params, state, gamma)
                qn = build_qubo_numeric(net, params, state, gamma)
                scale = max(1.0, abs(qn.offset))
                assert coeffs_close(qa.offset, qn.offset, scale)
                for a, b in zip(qa.linear, qn.linear):
                    assert coeffs_close(float(a), float(b), scale)
                for a, b in zip(qa.coupling.ravel(), qn.coupling.ravel()):
                    assert coeffs_close(float(a), float(b), scale)

    def test_values_match_simulated_costs(self, rng):
        for kind in (ModelKind.SIS, ModelKind.SIR):
            for _ in range(8):
                m = int(rng.integers(2, 8))
                net, params, state, gamma = random_instance(rng, kind, m)
                builder = (
                    build_qubo_sis_analytic if kind is ModelKind.SIS else build_qubo_sir_analytic
                )
                q = builder(net, params, state, gamma)
                for z in all_bits(m):
                    want = simulated_two_step_cost(net, params, state, gamma, z)
                    got = evaluate(q, z)
                    assert abs(got - want) <= max(1e-9 * max(abs(got), abs(want)), 1e-12)


class TestBruteForce:
    def test_no_infected_prefers_no_isolation(self, rng):
        net, params, _, _ = random_instance(rng, ModelKind.SIS, 5)
        state = EpidemicState(np.zeros(5))
        u = solve_bruteforce_problem1(net, params, state, gamma=0.05)
        assert np.array_equal(u, np.zeros(5))

    def test_free_control_term_never_worse_when_isolating_everything(self, rng):
        net, params, state, _ = random_instance(rng, ModelKind.SIS, 6)
        u_star = solve_bruteforce_problem1(net, params, state, gamma=0.0)
        ones = np.ones(6, dtype=np.int8)
        zeros = np.zeros(6, dtype=np.int8)
        cost_of = lambda u: cost(simulate(net, params, state, u, 2), u, 0.0, net)
        assert cost_of(ones) <= cost_of(zeros) + 1e-12
        assert cost_of(u_star) <= cost_of(ones) + 1e-12

    def test_matches_exhaustive_qubo_argmin(self, rng):
        from epiqubo import solve_exhaustive

        for kind in (ModelKind.SIS, ModelKind.SIR):
            for _ in range(6):
                net, params, state, _ = random_instance(rng, kind, 8)
                gamma = float(rng.uniform(1e-4, 0.1))
                u_bf = solve_bruteforce_problem1(net, params, state, gamma)
                q = build_qubo_numeric(net, params, state, gamma)
                res = solve_exhaustive(q)
                assert np.array_equal(u_bf, to_control(res.z_best))

    def test_optimum_in_second_block_above_16_locations(self):
        # infected sites 1..16 export only into site 0, so isolating site 0 alone
        # is optimal; that control is row 2^16, the first of the second block
        m = 17
        weights = np.zeros((m, m))
        weights[0, 1:] = 0.05
        net = LocationNetwork(np.full(m, 1000.0), weights)
        params = EpidemicParams(ModelKind.SIS, 0.2, 0.1)
        state = EpidemicState(np.r_[0.0, np.full(m - 1, 100.0)])
        gamma = 1e-3
        u = solve_bruteforce_problem1(net, params, state, gamma)
        assert u[0] == 1
        q = build_qubo_numeric(net, params, state, gamma)
        assert evaluate(q, from_control(u)) == solve_exhaustive(q).objective

    def test_too_many_locations_rejected(self):
        net = LocationNetwork(np.ones(26) * 10.0, np.zeros((26, 26)))
        params = EpidemicParams(ModelKind.SIS, 0.1, 0.1)
        with pytest.raises(ValueError):
            solve_bruteforce_problem1(net, params, EpidemicState(np.zeros(26)), 0.01)

    def test_gamma_monotone_isolated_mass(self, rng):
        for _ in range(5):
            kind = ModelKind.SIS if rng.random() < 0.5 else ModelKind.SIR
            net, params, state, _ = random_instance(rng, kind, 8)
            masses = []
            for gamma in (0.0, 0.001, 0.01, 0.1, 1.0):
                u = solve_bruteforce_problem1(net, params, state, gamma)
                masses.append(float(net.populations @ u))
            assert all(b <= a + 1e-9 for a, b in zip(masses, masses[1:]))


class TestStartStateRefused:
    """The numeric builder and the brute-force oracle refuse the start states
    that the model refuses, before any array work."""

    @pytest.mark.parametrize(
        "compile_", [build_qubo_numeric, solve_bruteforce_problem1], ids=["numeric", "oracle"]
    )
    @pytest.mark.parametrize(
        "state, message",
        [
            (EpidemicState([10.0, 0.0], [0.0, 0.0]), "SIS state must not carry a removed compartment"),
            (EpidemicState([500.0, 0.0]), "infected counts exceed local populations"),
            (EpidemicState([10.0, 0.0, 0.0]), "state has 3 locations, network has 2"),
        ],
        ids=["removed-under-sis", "above-population", "three-entries"],
    )
    def test_refused_with_the_model_message(self, two_node_instance, compile_, state, message):
        net, params, _, gamma = two_node_instance
        with pytest.raises(ValueError) as info:
            compile_(net, params, state, gamma)
        assert str(info.value) == message

    def test_oracle_checks_the_enumeration_limit_first(self):
        net = LocationNetwork(np.ones(26) * 10.0, np.zeros((26, 26)))
        params = EpidemicParams(ModelKind.SIS, 0.1, 0.1)
        with pytest.raises(ValueError, match="26 locations exceed the enumeration limit of 25"):
            solve_bruteforce_problem1(net, params, EpidemicState(np.zeros(3)), 0.01)


class TestTextFormat:
    def test_round_trip(self):
        q = QuboProblem([-1.0, 2.0], [[0.0, 3.0], [3.0, 0.0]], offset=0.5)
        text = export_qubo(q)
        lines = text.strip().split("\n")
        assert lines[0] == "# QUBO M=2 offset=0.5"
        assert len(lines) == 4
        back = import_qubo(text)
        assert np.array_equal(back.linear, q.linear)
        assert np.array_equal(back.coupling, q.coupling)
        assert back.offset == q.offset

    def test_round_trip_is_value_exact_on_random_instances(self, rng):
        for _ in range(20):
            q = random_qubo(rng, int(rng.integers(1, 20)))
            back = import_qubo(export_qubo(q))
            assert np.array_equal(back.linear, q.linear)
            assert np.array_equal(back.coupling, q.coupling)
            assert back.offset == q.offset

    def test_diagonal_only_file(self):
        q = QuboProblem([1.5, 0.0, -2.25])
        text = export_qubo(q)
        lines = text.strip().split("\n")
        assert lines[1:] == ["0 0 1.5", "2 2 -2.25"]

    def test_deterministic_entry_order(self, rng):
        q = random_qubo(rng, 6, density=1.0)
        lines = export_qubo(q).strip().split("\n")[1:]
        pairs = [tuple(map(int, line.split()[:2])) for line in lines]
        diag = [p for p in pairs if p[0] == p[1]]
        off = [p for p in pairs if p[0] != p[1]]
        assert pairs == diag + off
        assert diag == sorted(diag)
        assert off == sorted(off)

    def test_malformed_line_names_line_number(self):
        text = "# QUBO M=2 offset=0.0\n0 x 1.0\n"
        with pytest.raises(QuboParseError, match="line 2"):
            import_qubo(text)

    def test_duplicate_entry_rejected(self):
        text = "# QUBO M=2 offset=0.0\n0 0 1.0\n0 0 2.0\n"
        with pytest.raises(QuboParseError, match="duplicate"):
            import_qubo(text)

    def test_out_of_range_index_rejected(self):
        text = "# QUBO M=2 offset=0.0\n0 5 1.0\n"
        with pytest.raises(QuboParseError, match="out of range"):
            import_qubo(text)

    def test_lower_triangular_rejected(self):
        text = "# QUBO M=2 offset=0.0\n1 0 1.0\n"
        with pytest.raises(QuboParseError, match="i <= j"):
            import_qubo(text)

    def test_missing_header_rejected(self):
        with pytest.raises(QuboParseError, match="line 1"):
            import_qubo("0 0 1.0\n")

    def test_comments_and_blanks_tolerated(self):
        text = "# QUBO M=2 offset=1.0\n# a comment\n\n0 1 2.0\n"
        q = import_qubo(text)
        assert np.array_equal(q.coupling, [[0.0, 2.0], [2.0, 0.0]])

    def test_unallocatable_size_names_line_one(self):
        with pytest.raises(QuboParseError, match="line 1.*M=10000000"):
            import_qubo("# QUBO M=10000000 offset=0.0\n")


    @pytest.mark.parametrize("body", ["0 1 nan", "0 1 inf", "0 0 1e400"])
    def test_non_finite_coefficient_names_its_line(self, body):
        with pytest.raises(QuboParseError) as info:
            import_qubo(f"# QUBO M=2 offset=0.0\n1 1 2.0\n{body}\n")
        assert str(info.value) == f"line 3: coefficient must be finite, got {body!r}"

    def test_non_finite_offset_names_line_one(self):
        with pytest.raises(QuboParseError) as info:
            import_qubo("# QUBO M=2 offset=inf\n0 1 nan\n")
        assert str(info.value) == "line 1: offset must be finite, got inf"

    def test_other_faults_are_named_before_a_non_finite_value(self):
        with pytest.raises(QuboParseError, match="^line 4: duplicate entry"):
            import_qubo("# QUBO M=2 offset=nan\n0 1 inf\n0 0 1\n0 0 2\n")


def _reference_export(q: QuboProblem) -> str:
    """The pair-dict formatter that the chunked ``export_qubo`` replaced."""
    lines = [f"# QUBO M={q.m} offset={q.offset!r}"]
    lines += [f"{i} {i} {value!r}" for i, value in enumerate(q.linear.tolist()) if value != 0.0]
    lines += [f"{i} {j} {value!r}" for (i, j), value in _reference_pairs(q)]
    return "\n".join(lines) + "\n"


def _reference_pairs(q: QuboProblem) -> list[tuple[tuple[int, int], float]]:
    """Nonzero pairs ``((i, j), value)`` with i < j, in lexicographic order."""
    rows = q.coupling.tolist()
    return [
        ((i, j), rows[i][j]) for i in range(q.m) for j in range(i + 1, q.m) if rows[i][j] != 0.0
    ]


def _reference_import(text: str) -> QuboProblem:
    """The whole-document, line-by-line parser that the chunked
    ``import_qubo`` replaced; it left non-finite values to ``QuboProblem``."""
    lines = text.splitlines()
    if not lines:
        raise QuboParseError("line 1: empty document, expected QUBO header")
    header = lines[0].strip()
    parts = header.split()
    if (
        len(parts) != 4
        or parts[0] != "#"
        or parts[1] != "QUBO"
        or not parts[2].startswith("M=")
        or not parts[3].startswith("offset=")
    ):
        raise QuboParseError("line 1: expected header '# QUBO M=<int> offset=<decimal>'")
    try:
        m = int(parts[2][2:])
        offset = float(parts[3][7:])
    except ValueError as exc:
        raise QuboParseError(f"line 1: bad header value ({exc})") from exc
    if m < 0:
        raise QuboParseError("line 1: variable count must be nonnegative")
    coupling = np.zeros((m, m))
    linear = np.zeros(m)
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 3:
            raise QuboParseError(f"line {lineno}: expected '<i> <j> <value>', got {raw!r}")
        try:
            i, j = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise QuboParseError(f"line {lineno}: indices must be integers, got {raw!r}")
        try:
            value = float(tokens[2])
        except ValueError:
            raise QuboParseError(f"line {lineno}: bad coefficient, got {raw!r}")
        if not (0 <= i < m and 0 <= j < m):
            raise QuboParseError(f"line {lineno}: index out of range for M={m}")
        if i > j:
            raise QuboParseError(f"line {lineno}: indices must satisfy i <= j")
        if (i, j) in seen:
            raise QuboParseError(f"line {lineno}: duplicate entry ({i}, {j})")
        seen.add((i, j))
        if i == j:
            linear[i] = value
        else:
            coupling[i, j] = coupling[j, i] = value
    return QuboProblem(linear, coupling, offset)


def _non_finite_message(text: str) -> str:
    """The refusal a document gets when its only fault is a non-finite
    offset or coefficient: the offset first, then the earliest entry line."""
    lines = text.splitlines()
    offset = float(lines[0].split()[3][7:])
    if not math.isfinite(offset):
        return f"line 1: offset must be finite, got {offset!r}"
    for lineno, raw in enumerate(lines[1:], start=2):
        tokens = raw.split()
        if tokens and not tokens[0].startswith("#") and not math.isfinite(float(tokens[2])):
            return f"line {lineno}: coefficient must be finite, got {raw!r}"
    raise AssertionError("no non-finite value in the document")


def _import_outcome(parse, text: str):
    try:
        q = parse(text)
    except QuboParseError as exc:
        return "error", str(exc)
    except ValueError as exc:
        # only the reference parser lets a non-finite value reach QuboProblem
        assert "must be finite" in str(exc)
        return "error", _non_finite_message(text)
    return "problem", q.linear.tobytes(), q.coupling.tobytes(), repr(q.offset)


TEXT_FAULTS = (
    "tokens", "index", "coefficient", "range", "huge", "order", "duplicate", "non-finite",
)


@st.composite
def qubo_texts(draw):
    """A QUBO document over M = 0-5 variables: entries with varied integer
    and decimal spellings, comments, blank and space-only lines, ``\\n`` or
    ``\\r\\n`` line ends, and up to three injected faults."""
    m = draw(st.integers(0, 5))
    offset = draw(st.sampled_from(["0.0", "-1.5", "2", "1e-300", "inf", "nan"]))
    pairs = [(i, j) for i in range(m) for j in range(i, m)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []

    def index(k):
        return draw(st.sampled_from([str(k), f"+{k}", f"0{k}"]))

    def value():
        return draw(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False).map(repr),
                st.sampled_from(["0", "-0.0", "1_0.5", "  3"]),
            )
        )

    lines = [f"{index(i)} {index(j)} {value()}" for i, j in chosen]
    for kind in draw(st.lists(st.sampled_from(TEXT_FAULTS), max_size=3)):
        i = draw(st.integers(0, max(m - 1, 0)))
        line = f"{i} {i} 1.5"
        if kind == "tokens":
            line = draw(st.sampled_from([f"{i} {i}", f"{i} {i} 1 2", f"{i}"]))
        elif kind == "index":
            line = draw(st.sampled_from([f"x {i} 1.0", f"{i} 1.0 1.0"]))
        elif kind == "coefficient":
            line = f"{i} {i} y"
        elif kind == "range":
            line = draw(st.sampled_from([f"{m} {m} 1.0", f"-1 {i} 1.0", f"{i} {m} 1.0"]))
        elif kind == "huge":
            line = f"{10**30} {i} 1.0"
        elif kind == "order" and m > 1:
            line = f"{m - 1} {draw(st.integers(0, m - 2))} 1.0"
        elif kind == "duplicate" and chosen:
            a, b = draw(st.sampled_from(chosen))
            line = f"{index(a)} {index(b)} {value()}"
        elif kind == "non-finite":
            line = f"{i} {i} {draw(st.sampled_from(['nan', 'inf', '-inf', '1e400']))}"
        lines.insert(draw(st.integers(0, len(lines))), line)
    for _ in range(draw(st.integers(0, 3))):
        extra = draw(st.sampled_from(["", "   ", "# a comment", "  #0 0 9", "#"]))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    tail = end if draw(st.booleans()) else ""
    return end.join([f"# QUBO M={m} offset={offset}", *lines]) + tail


finite_coefficients = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e300]), st.floats(allow_nan=False, allow_infinity=False)
)


@st.composite
def qubo_problems(draw):
    m = draw(st.integers(0, 8))
    linear = draw(st.lists(finite_coefficients, min_size=m, max_size=m))
    upper = np.zeros((m, m))
    rows, cols = np.triu_indices(m, 1)
    upper[rows, cols] = draw(st.lists(finite_coefficients, min_size=len(rows), max_size=len(rows)))
    return QuboProblem(linear, upper + upper.T, draw(finite_coefficients))


class TestChunkedCodec:
    """The chunked codec against test-local copies of the whole-document
    one, at the default chunk and at two lines per chunk."""

    CHUNKS = pytest.mark.parametrize(
        "chunk", [qubo_module._TEXT_CHUNK_LINES, 2], ids=["default", "2-lines"]
    )

    @CHUNKS
    @given(q=qubo_problems())
    @settings(max_examples=200, deadline=None)
    def test_export_gives_the_same_bytes(self, chunk, q):
        with mock.patch.object(qubo_module, "_TEXT_CHUNK_LINES", chunk):
            text = export_qubo(q)
            back = import_qubo(text)
        assert text == _reference_export(q)
        assert np.array_equal(back.linear, q.linear)  # a -0.0 linear term is not written
        assert back.coupling.tobytes() == q.coupling.tobytes()
        assert repr(back.offset) == repr(q.offset)

    @CHUNKS
    @given(text=qubo_texts())
    @settings(max_examples=400, deadline=None)
    def test_import_gives_the_same_problem_or_message(self, chunk, text):
        with mock.patch.object(qubo_module, "_TEXT_CHUNK_LINES", chunk):
            new = _import_outcome(import_qubo, text)
        assert new == _import_outcome(_reference_import, text)


def _traced_peak_mb(work) -> float:
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


class TestTextMemory:
    """Reading the M = 300 study network and writing and reading its QUBO
    text hold a few chunks of rows, not the whole file.  Whole-file reads
    peaked at 25-26 MB (load), 9.9-10.4 MB (export) and 9.7-10.2 MB (import);
    chunked ones at 1.5, 4.8 and 1.9 MB."""

    BOUND_MB = 8.0

    @pytest.fixture(scope="class")
    def study(self, tmp_path_factory):
        net = generate_synthetic(300, "gravity", 2024)
        edges, pop = write_network_csvs(net, tmp_path_factory.mktemp("m300"))
        rho = spectral_growth_factor(net, np.zeros(net.m, dtype=np.int8))
        mu = 0.9 * invariance_bound(net) * rho / 3.0
        params = EpidemicParams(ModelKind.SIR, infection_rate_from_r0(3.0, mu, net), mu)
        infected = np.zeros(net.m)
        infected[:5] = 1e-3 * net.populations[:5]
        q = build_qubo_sir_analytic(net, params, EpidemicState(infected, np.zeros(net.m)), 1e-5)
        return NetworkFiles(edges, pop), q, export_qubo(q)

    def test_load_network(self, study):
        files, _, _ = study
        assert _traced_peak_mb(lambda: load_network(files)) < self.BOUND_MB

    def test_export_qubo(self, study):
        _, q, _ = study
        assert _traced_peak_mb(lambda: export_qubo(q)) < self.BOUND_MB

    def test_import_qubo(self, study):
        _, _, text = study
        assert _traced_peak_mb(lambda: import_qubo(text)) < self.BOUND_MB


class TestCouplingStorage:
    @pytest.mark.parametrize(
        "coupling",
        [
            [[0.0, 1.0], [2.0, 0.0]],  # asymmetric
            [[1.0, 3.0], [3.0, 0.0]],  # nonzero diagonal
            [[0.0, 3.0, 0.0], [3.0, 0.0, 0.0], [0.0, 0.0, 0.0]],  # wrong shape
            [0.0, 3.0],  # wrong rank
            [[0.0, np.inf], [np.inf, 0.0]],
            [[0.0, np.nan], [np.nan, 0.0]],
        ],
    )
    def test_bad_matrix_rejected(self, coupling):
        with pytest.raises(ValueError):
            QuboProblem([0.0, 0.0], np.array(coupling))

    def test_quadratic_is_the_nonzero_upper_triangle_in_export_order(self, rng):
        q = random_qubo(rng, 9, density=0.4)
        exported = [
            (int(i), int(j), float(v))
            for i, j, v in (line.split() for line in export_qubo(q).splitlines()[1:])
            if i != j
        ]
        assert exported == [(i, j, v) for (i, j), v in _reference_pairs(q)]


def mixed_sign_qubo(seed: int, m: int, integer: bool, linear_scale: float) -> QuboProblem:
    """Random QUBO with couplings of both signs; integer values make ties common."""
    rng = np.random.default_rng(seed)
    if integer:
        linear = linear_scale * rng.integers(-4, 5, size=m)
        upper = np.triu(rng.integers(-3, 4, size=(m, m)), 1).astype(np.float64)
    else:
        linear = linear_scale * rng.normal(size=m)
        upper = np.triu(rng.normal(size=(m, m)) * (rng.random((m, m)) < 0.6), 1)
    return QuboProblem(linear, upper + upper.T, float(rng.normal()))


def lift(fixed: np.ndarray, z_free) -> np.ndarray:
    z = fixed.copy()
    z[z < 0] = z_free
    return z


class TestPersistency:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(0, 12),
        integer=st.booleans(),
        linear_scale=st.sampled_from([0.5, 1.0, 4.0]),
    )
    def test_fixed_bits_agree_with_exhaustive_scan(self, seed, m, integer, linear_scale):
        q = mixed_sign_qubo(seed, m, integer, linear_scale)
        fixed = fix_persistent(q)
        assert fixed.dtype == np.int8 and fixed.shape == (m,)
        assert np.isin(fixed, (-1, 0, 1)).all()
        best = solve_exhaustive(q)
        held = fixed >= 0
        assert np.array_equal(fixed[held], best.z_best[held])
        if integer:  # exact arithmetic: every minimizer keeps the fixed bits
            bits = all_bits(m)
            values = np.array([evaluate(q, z) for z in bits])
            assert (bits[values == values.min()][:, held] == fixed[held]).all()
        reduced = solve_exhaustive(restrict(q, fixed))
        assert np.array_equal(lift(fixed, reduced.z_best), best.z_best)

    def test_restrict_preserves_objective(self, rng):
        for _ in range(50):
            m = int(rng.integers(0, 15))
            q = random_qubo(rng, m)
            fixed = rng.integers(-1, 2, size=m).astype(np.int8)
            z_free = rng.integers(0, 2, size=int((fixed < 0).sum()), dtype=np.int8)
            want = evaluate(q, lift(fixed, z_free))
            got = evaluate(restrict(q, fixed), z_free)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_signs_decide_separable_bits_and_ties_stay_free(self):
        q = QuboProblem([1.0, -1.0, 0.0], np.zeros((3, 3)), 2.0)
        assert fix_persistent(q).tolist() == [0, 1, -1]

    def test_rounds_propagate_through_couplings(self):
        # round one opens z0 and closes z2; only then is z1's change 1 - 3 < 0
        coupling = np.array([[0.0, -3.0, 0.0], [-3.0, 0.0, 2.0], [0.0, 2.0, 0.0]])
        q = QuboProblem([-1.0, 1.0, 1.0], coupling)
        assert fix_persistent(q).tolist() == [1, 1, 0]
        reduced = restrict(q, fix_persistent(q))
        assert reduced.m == 0
        assert reduced.offset == evaluate(q, [1, 1, 0])

    def test_empty_problem(self):
        q = QuboProblem(np.zeros(0), offset=1.5)
        assert fix_persistent(q).shape == (0,)
        assert restrict(q, fix_persistent(q)).offset == 1.5

    @pytest.mark.parametrize("fixed", [[0, 1], [0, 1, 2], [[0, 1, -1]]])
    def test_restrict_rejects_bad_fixed(self, fixed):
        with pytest.raises(ValueError, match="fixed"):
            restrict(QuboProblem(np.zeros(3)), np.array(fixed))


class TestBuilderNames:
    DIRECT = {
        "analytic": {ModelKind.SIS: build_qubo_sis_analytic, ModelKind.SIR: build_qubo_sir_analytic},
        "numeric": {ModelKind.SIS: build_qubo_numeric, ModelKind.SIR: build_qubo_numeric},
    }

    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("name", qubo_module.BUILDER_NAMES)
    def test_each_name_dispatches_to_its_builder(self, rng, kind, name):
        net, params, state, gamma = random_instance(rng, kind, 5)
        got = build_qubo(net, params, state, gamma, name)
        want = self.DIRECT[name][kind](net, params, state, gamma)
        assert np.array_equal(got.linear, want.linear)
        assert np.array_equal(got.coupling, want.coupling)
        assert got.offset == want.offset

    def test_unknown_name_is_refused_naming_every_builder(self, two_node_instance):
        net, params, state = two_node_instance[:3]
        with pytest.raises(ValueError) as info:
            build_qubo(net, params, state, 0.0, "symbolic")
        message = str(info.value)
        assert message.startswith("unknown builder 'symbolic'")
        assert all(repr(name) in message for name in ("analytic", "numeric"))
