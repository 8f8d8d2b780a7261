"""Unit tests of the benchmark's own arithmetic and bookkeeping, on tiny inputs."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import measures  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_tail_reports_the_maximum_below_eleven_samples():
    assert measures.tail([3.0]) == (3.0, 100.0)
    assert measures.tail([5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 7.0, 6.0, 0.5]) == (9.0, 100.0)
    with pytest.raises(ValueError):
        measures.tail([])


def test_tail_keeps_ten_samples_beyond_it():
    values = list(range(1, 12))  # n = 11: rank 1 has ten samples beyond it
    assert measures.tail(values[::-1]) == (1.0, 100.0 / 11)
    value, pct = measures.tail(range(1, 21))
    assert (value, pct) == (10.0, 50.0)
    value, pct = measures.tail(range(1, 101))
    assert (value, pct) == (90.0, 90.0)
    assert sum(v > value for v in range(1, 101)) == 10


def test_timing_summary_of_no_calls_is_zero_over_zero_samples():
    assert measures.timing_summary([]) == {"p50": 0.0, "tail": 0.0, "tail_pct": 0.0, "n": 0}
    assert measures.timing_summary([1.0, 3.0, 2.0]) == {"p50": 2.0, "tail": 3.0, "tail_pct": 100.0, "n": 3}


def test_self_time_subtracts_children_once():
    tree = [(0.0, 10.0, -1), (1.0, 4.0, 0), (5.0, 9.0, 0), (2.0, 3.0, 1)]
    assert measures.self_times(tree) == [3.0, 2.0, 4.0, 1.0]
    assert sum(measures.self_times(tree)) == 10.0
    overlapping = [(0.0, 10.0, -1), (1.0, 6.0, 0), (4.0, 8.0, 0)]
    assert measures.self_times(overlapping)[0] == 3.0
    clipped = [(0.0, 10.0, -1), (8.0, 12.0, 0)]
    assert measures.self_times(clipped)[0] == 8.0


def test_cost_ratio_counts_infections_after_t0_and_isolated_mass():
    infected = [[1.0, 1.0], [2.0, 3.0], [4.0, 0.0]]
    baseline = [[1.0, 1.0], [3.0, 3.0], [5.0, 5.0]]
    controls = [[1, 0], [0, 0]]
    populations = [10.0, 20.0]
    assert measures.realized_cost(infected, controls, populations, 0.5) == 14.0
    assert measures.cost_ratio(infected, baseline, controls, populations, 0.5) == 14.0 / 16.0
    with pytest.raises(ValueError):
        measures.cost_ratio(infected, [[1.0, 1.0], [0.0, 0.0]], controls[:1], populations, 0.5)


def test_useful_frac_uses_the_last_improvement():
    assert measures.useful_frac([(1, 5.0), (40, 3.0), (60, 2.5)], 200) == 0.3
    assert measures.useful_frac([(7, 1.0)], 7) == 1.0
    with pytest.raises(ValueError):
        measures.useful_frac([], 10)


def test_plan_repeat_frac_pools_runs():
    controls = [[1, 0], [1, 0], [0, 1], [0, 1], [0, 1]]
    assert measures.plan_repeat_frac([controls]) == 0.75
    assert measures.plan_repeat_frac([controls, [[1, 1]], [[0, 0], [1, 1]]]) == 0.6
    assert measures.plan_repeat_frac([[[1, 0]]]) == 0.0


def test_quartile_spread():
    assert measures.quartile_spread(range(1, 10)) == 1.0
    assert measures.quartile_spread([2.0] * 10) == 0.0


def test_tracer_nests_spans_and_self_times_sum_to_the_root():
    ticks = iter(float(t) for t in range(100))
    tracer = spans.Tracer(clock=lambda: next(ticks))

    def leaf():
        return "leaf"

    traced_leaf = tracer.wrap(leaf, "qubo.leaf", "qubo", observe=lambda r: {"len": len(r)})

    def middle():
        return traced_leaf() + traced_leaf()

    traced_middle = tracer.wrap(middle, "solvers.middle", "solvers")
    with tracer.span("bench.pass", "bench"):
        assert traced_middle() == "leafleaf"
    records = tracer.records()
    assert [r[0] for r in records] == ["bench.pass", "solvers.middle", "qubo.leaf", "qubo.leaf"]
    assert [r[4] for r in records] == [-1, 0, 1, 1]
    assert records[2][5] == {"len": 4}
    selfs = measures.self_times([(r[2], r[3], r[4]) for r in records])
    assert sum(selfs) == records[0][3] - records[0][2]
    assert not tracer.interleaved


def test_observer_failure_is_recorded_not_raised():
    tracer = spans.Tracer()
    wrapped = tracer.wrap(lambda: None, "solvers.x", "solvers", observe=lambda r: r.evaluations)
    assert wrapped() is None
    assert "observe_error" in tracer.records()[0][5]


def test_install_wraps_bound_references_and_restores_them():
    import epiqubo.cli
    import epiqubo.controller
    import epiqubo.qubo

    original = epiqubo.qubo.build_qubo
    tracer = spans.Tracer()
    restore, names = spans.install(tracer)
    try:
        assert "qubo.build_qubo" in names and "epinet.batch_infection_cost" in names
        assert epiqubo.controller.build_qubo is not original
        assert epiqubo.qubo.build_qubo is epiqubo.controller.build_qubo
        net = epiqubo.LocationNetwork(np.array([10.0, 20.0]), np.array([[0.0, 0.1], [0.2, 0.0]]))
        params = epiqubo.EpidemicParams("sis", 0.1, 0.2)
        epiqubo.controller.build_qubo(net, params, epiqubo.EpidemicState(np.array([1.0, 0.0])), 0.0)
    finally:
        restore()
    assert epiqubo.controller.build_qubo is original and epiqubo.qubo.build_qubo is original
    called = {r[0] for r in tracer.records()}
    assert {"qubo.build_qubo", "qubo.build_qubo_sis_analytic", "epinet.simulate"} <= called


def _traced_record(wrapped: list[str]) -> dict:
    records = [
        ["bench.pass", "bench", 0.0, 10.0, -1, None],
        ["cli.cli_dispatch", "cli", 0.5, 9.5, 0, None],
        ["controller.run_rolling_horizon", "controller", 1.0, 9.0, 1, None],
        ["solvers.solve", "solvers", 2.0, 5.0, 2, None],
        ["solvers.solve_tabu", "solvers", 2.5, 4.5, 3, {"evals": 100, "useful_frac": 0.25}],
        ["solvers.solve", "solvers", 6.0, 8.0, 2, None],
        ["solvers.solve_tabu", "solvers", 6.5, 7.5, 5, {"evals": 300, "useful_frac": 0.75}],
    ]
    doc = {"spans": records, "interleaved": False, "wrapped": wrapped}
    return {"traced": True, "jobs": 2, "wall": 10.0, "trace": doc}


FIGURES = {"plan_repeat_frac": 0.5, "text_bytes": 0, "pairs": 0, "report_bytes": 10}


def test_per_layer_sums_self_times_and_names_missing_metrics():
    wrapped = ["cli.cli_dispatch", "controller.run_rolling_horizon", "solvers.solve", "solvers.solve_tabu"]
    plain = {"traced": False, "jobs": 2, "wall": 8.0}
    metrics, missing, problems = run.per_layer("compile-export-m300", [plain, _traced_record(wrapped)], FIGURES)
    assert problems == []
    layer_sum = sum(metrics[f"{layer}.self_s"]["value"] for layer in run.LAYERS)
    assert layer_sum == metrics["trace.wall_s"]["value"] == 10.0
    assert metrics["controller.self_s"]["value"] == 3.0
    assert metrics["controller.step_self_s.p50"]["value"] == 1.5
    assert metrics["solvers.solve_s.tabu.n"]["value"] == 2
    assert metrics["solvers.evals_per_s"]["value"] == 400 / 3.0
    assert metrics["solvers.useful_frac"]["value"] == 0.5
    assert metrics["trace_overhead_pct"]["value"] == 25.0
    # a wrapped function that no longer exists is named, never zero
    assert "wrapped function gone" in missing["qubo.build_analytic_s"]
    assert not any(name.startswith("qubo.build_analytic_s.") for name in metrics)
    # the sa solver exists but this workload never calls it: zero over zero samples
    wrapped.append("solvers.solve_simulated_annealing")
    metrics, missing, _ = run.per_layer("compile-export-m300", [plain, _traced_record(wrapped)], FIGURES)
    assert metrics["solvers.solve_s.sa.n"]["value"] == 0
    # an expected function that was wrapped but never observed is missing
    metrics, missing, _ = run.per_layer("batch-mixed", [plain, _traced_record(wrapped)], FIGURES)
    assert missing["solvers.solve_s.sa"] == "not observed on this workload"


def test_per_layer_flags_a_sum_that_does_not_match_the_wall():
    record = _traced_record(["cli.cli_dispatch"])
    record["trace"]["spans"][1][3] = 11.0  # child ends after its parent
    plain = {"traced": False, "jobs": 2, "wall": 8.0}
    _, _, problems = run.per_layer("compile-export-m300", [plain, record], FIGURES)
    assert any("sum to" in p for p in problems)


def test_rate_above_the_bound_is_refused():
    from epiqubo import dataio

    ring = dataio.generate_synthetic(40, "ring", workloads.STUDY_NETWORK_SEED)
    mu = workloads.calibrated_mu(ring, 1.5)
    assert workloads.check_rate(ring, 1.5, mu) <= workloads.invariance_bound(ring)
    with pytest.raises(workloads.RateRefused):
        workloads.check_rate(ring, 2.5, mu)


def test_benchmark_file_lists_the_metrics_the_code_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
