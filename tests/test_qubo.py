"""Objective compilation, evaluation, brute force, and the text format."""

from __future__ import annotations

import math

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
    solve_bruteforce_problem1,
    solve_exhaustive,
    to_control,
)
from epiqubo import qubo as qubo_module
from epiqubo.epinet import batch_infection_cost
from conftest import all_bits, random_instance, random_qubo


def coeffs_close(a: float, b: float, scale: float = 1.0) -> bool:
    return abs(a - b) <= max(1e-9 * max(abs(a), abs(b)), 1e-12 * scale)


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
        q = QuboProblem([0.0, 0.0], {(0, 1): 3.0}, offset=1.0)
        assert evaluate(q, [1, 1]) == 4.0

    def test_all_zero_gives_offset(self, rng):
        q = random_qubo(rng, 8)
        assert evaluate(q, np.zeros(8, dtype=int)) == q.offset

    def test_length_mismatch(self):
        q = QuboProblem([1.0, 2.0])
        with pytest.raises(ValueError):
            evaluate(q, [1, 0, 1])

    def test_quadratic_folding(self):
        q = QuboProblem([0.0, 0.0], {(0, 1): 1.0, (1, 0): 2.0})
        assert q.quadratic == {(0, 1): 3.0}

    def test_self_pair_rejected(self):
        with pytest.raises(ValueError):
            QuboProblem([0.0, 0.0], {(1, 1): 1.0})

    def test_out_of_range_pair_rejected(self):
        with pytest.raises(ValueError):
            QuboProblem([0.0, 0.0], {(0, 5): 1.0})


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
        assert q.quadratic == {}
        assert q.offset == 3.0

    def test_no_edges_decouples_control_from_dynamics(self):
        net = LocationNetwork([50.0, 80.0, 10.0], np.zeros((3, 3)))
        params = EpidemicParams(ModelKind.SIR, 0.3, 0.2)
        state = EpidemicState([5.0, 8.0, 1.0], [1.0, 0.0, 2.0])
        q = build_qubo_numeric(net, params, state, 0.05)
        assert np.array_equal(q.linear, -0.05 * net.populations)
        assert q.quadratic == {}

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
        m = 7
        net, params, state, gamma = random_instance(rng, kind, m)
        rows = [np.zeros(m, dtype=np.int8)]
        for i in range(m):
            rows.append(np.eye(m, dtype=np.int8)[i])
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
        for i, j in pairs:
            row = np.zeros(m, dtype=np.int8)
            row[[i, j]] = 1
            rows.append(row)
        controls = (1 - np.array(rows)).astype(np.float64)
        g = batch_infection_cost(net, params, state, controls, 2)
        want = np.zeros((m, m))
        for k, (i, j) in enumerate(pairs):
            want[i, j] = want[j, i] = g[1 + m + k] - g[1 + i] - g[1 + j] + g[0]
        q = build_qubo_numeric(net, params, state, gamma)
        assert q.coupling.tobytes() == (want + 0.0).tobytes()

    @pytest.mark.parametrize("kind", [ModelKind.SIS, ModelKind.SIR])
    def test_row_blocks_match_one_block_bitwise(self, rng, kind, monkeypatch):
        # 22 probe rows in blocks of 4 leave no one-row block, which BLAS
        # would evaluate as a matrix-vector product with other rounding
        m = 6
        net, params, state, gamma = random_instance(rng, kind, m)
        whole = build_qubo_numeric(net, params, state, gamma)
        monkeypatch.setattr(qubo_module, "NUMERIC_BLOCK_ELEMENTS", 4 * m)
        blocked = build_qubo_numeric(net, params, state, gamma)
        assert blocked.linear.tobytes() == whole.linear.tobytes()
        assert blocked.coupling.tobytes() == whole.coupling.tobytes()
        assert blocked.offset == whole.offset

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
        assert q.quadratic == {}

    def test_no_infected_sir_any_removed(self):
        net = LocationNetwork([100.0, 200.0], [[0.0, 0.4], [0.3, 0.0]])
        params = EpidemicParams(ModelKind.SIR, 0.2, 0.1)
        q = build_qubo_sir_analytic(
            net, params, EpidemicState([0.0, 0.0], [30.0, 50.0]), 0.01
        )
        assert np.array_equal(q.linear, -0.01 * net.populations)
        assert q.quadratic == {}

    def test_single_location_sir(self):
        net = LocationNetwork([100.0], [[0.0]])
        params = EpidemicParams(ModelKind.SIR, 0.3, 0.2)
        q = build_qubo_sir_analytic(net, params, EpidemicState([20.0], [10.0]), 0.02)
        assert q.linear == pytest.approx([-2.0], rel=0, abs=1e-15)
        assert q.quadratic == {}

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
        for key in set(qa.quadratic) | set(qn.quadratic):
            assert coeffs_close(qa.quadratic.get(key, 0.0), qn.quadratic.get(key, 0.0))

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
                for key in set(qa.quadratic) | set(qn.quadratic):
                    assert coeffs_close(
                        qa.quadratic.get(key, 0.0), qn.quadratic.get(key, 0.0), scale
                    )

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


class TestTextFormat:
    def test_round_trip(self):
        q = QuboProblem([-1.0, 2.0], {(0, 1): 3.0}, offset=0.5)
        text = export_qubo(q)
        lines = text.strip().split("\n")
        assert lines[0] == "# QUBO M=2 offset=0.5"
        assert len(lines) == 4
        back = import_qubo(text)
        assert np.array_equal(back.linear, q.linear)
        assert back.quadratic == q.quadratic
        assert back.offset == q.offset

    def test_round_trip_is_value_exact_on_random_instances(self, rng):
        for _ in range(20):
            q = random_qubo(rng, int(rng.integers(1, 20)))
            back = import_qubo(export_qubo(q))
            assert np.array_equal(back.linear, q.linear)
            assert back.quadratic == q.quadratic
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
        assert q.quadratic == {(0, 1): 2.0}

    def test_unallocatable_size_names_line_one(self):
        with pytest.raises(QuboParseError, match="line 1.*M=10000000"):
            import_qubo("# QUBO M=10000000 offset=0.0\n")


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

    def test_pairs_and_matrix_store_identical_bytes(self):
        from_pairs = QuboProblem([0.0, 0.0], {(0, 1): 1.0, (1, 0): 2.0})
        from_matrix = QuboProblem([0.0, 0.0], np.array([[0.0, 3.0], [3.0, 0.0]]))
        assert from_pairs.coupling.dtype == from_matrix.coupling.dtype == np.float64
        assert from_pairs.coupling.tobytes() == from_matrix.coupling.tobytes()

    def test_quadratic_is_the_nonzero_upper_triangle_in_export_order(self, rng):
        q = random_qubo(rng, 9, density=0.4)
        rows, cols = np.nonzero(np.triu(q.coupling, 1))
        assert list(q.quadratic) == list(zip(rows.tolist(), cols.tolist()))
        assert list(q.quadratic.values()) == q.coupling[rows, cols].tolist()
        exported = [
            (int(i), int(j), float(v))
            for i, j, v in (line.split() for line in export_qubo(q).splitlines()[1:])
            if i != j
        ]
        assert exported == [(i, j, v) for (i, j), v in q.quadratic.items()]


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
