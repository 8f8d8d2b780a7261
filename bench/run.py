"""Benchmark of the epiqubo pipeline: one seeded command per workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it uses the package under ``src/``
and writes only under ``.bench_work/`` at the checkout root.  Load is a
closed loop: one CLI command at a time from one process, except that
``batch`` runs its documents with ``--jobs 2``.  BLAS is held at one thread
in every process, so both sides of a comparison use the same count.

Each pass of a workload runs in a fresh interpreter that calls the real CLI
entry point in-process (see ``worker.py``); passes repeat until ``--seconds``
would be exceeded, with at least two.  Every pass must produce the same
files, which is the same-seed reproducibility check.

``--trace 0`` prints the end-to-end metrics, measured with tracing off:

    setup_s          median wall of fresh interpreters that import epiqubo,
                     load and validate the workload's networks and calibrate
                     their rates (five per run)
    wall_s           median wall of one workload pass
    steps_per_s      control steps per second of wall; on compile-export-m300
                     a step is one trajectory state through both builders
    instances_per_s  QUBO instances built per second of wall (one per control
                     step, two per state on compile-export-m300)
    peak_rss_mb      median peak resident memory of the process running a pass
    cost_ratio       closed-loop realized cost over the uncontrolled infections
                     of the same window, mean over the pass's controlled runs
    peak_ratio       controlled peak over uncontrolled peak (1 - peak reduction)
    success_rate     operations that succeeded over operations attempted

Plan-quality figures read 1.0 on compile-export-m300, which applies no plan.

``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics.  Spans are recorded around every public function of the
layers ``cli``, ``controller``, ``qubo``, ``solvers``, ``epinet`` and
``dataio`` (see ``spans.py``); ``bench`` is the harness between calls.
Timings are given as ``.p50`` and ``.tail`` with the tail's percentile
(``.tail_pct``) and sample count (``.n``); see ``measures.py`` for the rule.
``<layer>.self_s`` is the mean self time per traced pass; the self times of
all layers sum to ``trace.wall_s``, which is checked.  A metric whose
wrapped function no longer exists, or that the workload should exercise but
did not, is left out and named on a ``missing:`` line; a layer the workload
does not use reads zero.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the host (core count, Python, numpy, BLAS and its threads, commit or
source hash, seed), the pass counts, and any problem or missing metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import measures

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 5
MIN_UNTRACED_PASSES = 2
PASS_TIMEOUT_S = 100.0
SUM_TOLERANCE = 1e-9

LAYERS = ("bench", "cli", "controller", "qubo", "solvers", "epinet", "dataio")

# per-call timing metrics and the spans each is made of
TIMED = {
    "solvers.solve_s.sa": ("solvers.solve_simulated_annealing",),
    "solvers.solve_s.tabu": ("solvers.solve_tabu",),
    "solvers.solve_s.ga": ("solvers.solve_genetic",),
    "solvers.solve_s.exhaustive": ("solvers.solve_exhaustive",),
    "qubo.build_analytic_s": ("qubo.build_qubo_sis_analytic", "qubo.build_qubo_sir_analytic"),
    "qubo.build_numeric_s": ("qubo.build_qubo_numeric",),
    "qubo.export_s": ("qubo.export_qubo",),
    "qubo.import_s": ("qubo.import_qubo",),
    "epinet.batch_cost_s": ("epinet.batch_infection_cost",),
    "epinet.advance_s": ("epinet.step_sis", "epinet.step_sir"),
    "epinet.calibrate_s": ("epinet.infection_rate_from_r0",),
    "controller.baseline_s": ("controller.run_uncontrolled_baseline",),
    "controller.step_self_s": ("controller.run_rolling_horizon", "solvers.solve"),
    "dataio.load_s": ("dataio.load_network",),
    "dataio.report_write_s": ("dataio.write_run_report",),
    "dataio.generate_s": ("dataio.generate_synthetic",),
}
SOLVER_SPANS = tuple(TIMED[f"solvers.solve_s.{name}"][0] for name in ("sa", "tabu", "ga", "exhaustive"))
SOLVER_COUNTS = ("solvers.evals_per_step", "solvers.evals_per_s", "solvers.useful_frac")

# metrics each workload must observe; an unobserved one is reported missing
EXPECTED = {
    "batch-mixed": {
        "solvers.solve_s.sa", "solvers.solve_s.tabu", "solvers.solve_s.ga",
        "solvers.solve_s.exhaustive", *SOLVER_COUNTS, "qubo.build_analytic_s",
        "qubo.build_numeric_s", "epinet.batch_cost_s", "epinet.advance_s", "epinet.calibrate_s",
        "controller.baseline_s", "controller.step_self_s", "dataio.load_s",
        "dataio.report_write_s", "dataio.generate_s",
    },
    "compile-export-m300": {
        "qubo.build_analytic_s", "qubo.build_numeric_s", "qubo.export_s", "qubo.import_s",
        "epinet.batch_cost_s", "epinet.advance_s", "epinet.calibrate_s", "dataio.load_s",
    },
}
TIMING_PARTS = (("p50", "s"), ("tail", "s"), ("tail_pct", "pct"), ("n", "count"))
OTHER_LAYER_METRICS = {
    "solvers.evals_per_step": "count",
    "solvers.evals_per_s": "1/s",
    "solvers.useful_frac": "frac",
    "controller.plan_repeat_frac": "frac",
    "qubo.text_bytes": "bytes",
    "qubo.pairs": "count",
    "dataio.report_bytes": "bytes",
    "cli.batch_speedup": "ratio",
    "trace_overhead_pct": "%",
    "trace.wall_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "steps_per_s": "1/s",
    "instances_per_s": "1/s",
    "peak_rss_mb": "MB",
    "cost_ratio": "ratio",
    "peak_ratio": "ratio",
    "success_rate": "frac",
}


def per_layer_names() -> list[str]:
    names = [f"{metric}.{part}" for metric in TIMED for part, _ in TIMING_PARTS]
    return names + list(OTHER_LAYER_METRICS)


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _import_package() -> None:
    package = SRC / "epiqubo"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no epiqubo source at {package}")
    sys.path.insert(0, str(SRC))
    import epiqubo

    if Path(epiqubo.__file__).resolve().parent != package.resolve():
        raise BenchError(f"epiqubo imported from {epiqubo.__file__}, not from {package}")


def _source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def host_info(seed: int, blas_threads: list) -> dict:
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": sorted(set(blas_threads), key=str),
        "blas_env": BLAS_ENV,
        "commit": _commit(),
        "src_sha256": _source_hash(),
        "seed": seed,
    }


def _worker(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=PASS_TIMEOUT_S,
    )


def time_setup(plan_path: Path) -> tuple[float, str | None]:
    start = time.perf_counter()
    proc = _worker(["setup", str(plan_path)])
    wall = time.perf_counter() - start
    problem = None if proc.returncode == 0 else f"setup probe exited {proc.returncode}: {proc.stderr[-500:]}"
    return wall, problem


def run_pass(plan: dict, plan_path: Path, pass_dir: Path, jobs: int, traced: bool) -> dict:
    args = ["pass", str(plan_path), str(pass_dir), str(jobs)]
    spans_path = pass_dir.with_suffix(".spans.json")
    if traced:
        args.append(str(spans_path))
    proc = _worker(args)
    record = {"dir": pass_dir, "jobs": jobs, "traced": traced}
    try:
        record.update(json.loads(proc.stdout.strip().splitlines()[-1]))
    except (IndexError, json.JSONDecodeError):
        record["crashed"] = f"worker exited {proc.returncode}: {proc.stderr[-1000:]}"
        record["ops"] = [{"op": "pass", "ok": False, "detail": proc.returncode} for _ in plan["actions"]]
        return record
    if traced:
        record["trace"] = json.loads(spans_path.read_text(encoding="utf-8"))
    return record


def pass_cycle(workload: str, traced: bool) -> list[tuple[int, bool]]:
    """(jobs, traced) for one round of passes; jobs matter only to batch."""
    import workloads

    jobs = workloads.BATCH_JOBS
    if not traced:
        return [(jobs, False)]
    if workload == "batch-mixed":
        # one-job passes: the traced one for its spans, the untraced one for
        # the overhead and the speedup of --jobs 2
        return [(jobs, False), (1, False), (1, True)]
    return [(jobs, False), (jobs, True)]


def measure(plan: dict, plan_path: Path, work: Path, workload: str, seconds: float, traced: bool) -> list[dict]:
    cycle = pass_cycle(workload, traced)
    min_rounds = 1 if traced else MIN_UNTRACED_PASSES
    records: list[dict] = []
    start = time.perf_counter()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        for jobs, is_traced in cycle:
            pass_dir = work / f"pass{len(records)}"
            records.append(run_pass(plan, plan_path, pass_dir, jobs, is_traced))
        rounds += 1
        now = time.perf_counter()
        if rounds >= min_rounds and (now - start) + (now - round_start) > seconds:
            return records


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(plan: dict, untraced: list[dict], setup: list[float], figures: dict, attempted: int, failed: int) -> dict:
    wall = _median(r["wall"] for r in untraced)
    values = {
        "setup_s": _median(setup),
        "wall_s": wall,
        "steps_per_s": plan["steps"] / wall,
        "instances_per_s": plan["instances"] / wall,
        "peak_rss_mb": _median(r["rss_mb"] for r in untraced),
        "cost_ratio": figures["cost_ratio"],
        "peak_ratio": figures["peak_ratio"],
        "success_rate": (attempted - failed) / attempted,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def _traced_pass(doc: dict) -> tuple[dict, list[str]]:
    """Self times, per-span durations and solver counts of one traced pass."""
    spans = doc["spans"]
    selfs = measures.self_times([(s[2], s[3], s[4]) for s in spans])
    problems = []
    if doc["interleaved"]:
        problems.append("spans closed out of order: traced code ran in two threads at once")
    root = spans[0]
    wall = root[3] - root[2]
    by_layer = dict.fromkeys(LAYERS, 0.0)
    durations: dict[str, list[float]] = {}
    solve_children: dict[int, int] = {}
    for index, (name, layer, start, end, parent, _) in enumerate(spans):
        by_layer[layer] = by_layer.get(layer, 0.0) + selfs[index]
        durations.setdefault(name, []).append(end - start)
        if name == "solvers.solve" and parent >= 0:
            solve_children[parent] = solve_children.get(parent, 0) + 1
    total = sum(by_layer.values())
    if abs(total - wall) > SUM_TOLERANCE * wall:
        problems.append(f"layer self times sum to {total!r}, traced wall is {wall!r}")
    step_self = [
        selfs[i] / solve_children[i]
        for i, s in enumerate(spans)
        if s[0] == "controller.run_rolling_horizon" and solve_children.get(i)
    ]
    solver_infos = [(s[3] - s[2], s[5]) for s in spans if s[0] in SOLVER_SPANS]
    return {
        "wall": wall,
        "self": by_layer,
        "durations": durations,
        "step_self": step_self,
        "solvers": solver_infos,
    }, problems


def per_layer(workload: str, records: list[dict], figures: dict) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics, the missing ones by name, and trace problems."""
    traced = [r for r in records if r["traced"] and "trace" in r]
    problems: list[str] = []
    missing: dict[str, str] = {}
    metrics: dict[str, dict] = {}
    if not traced:
        return metrics, {name: "no traced pass completed" for name in per_layer_names()}, ["no traced pass completed"]
    wrapped = set(traced[0]["trace"]["wrapped"])
    passes = []
    for record in traced:
        summary, issues = _traced_pass(record["trace"])
        passes.append(summary)
        problems.extend(issues)
    expected = EXPECTED[workload]

    def put(name: str, value, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    for metric, names in TIMED.items():
        gone = [n for n in names if n not in wrapped]
        if metric == "controller.step_self_s":
            samples = [v for p in passes for v in p["step_self"]]
        else:
            gone = gone if len(gone) == len(names) else []
            samples = [d for p in passes for n in names for d in p["durations"].get(n, [])]
        if gone:
            missing[metric] = f"wrapped function gone: {', '.join(gone)}"
        elif not samples and metric in expected:
            missing[metric] = "not observed on this workload"
        else:
            summary = measures.timing_summary(samples)
            for part, unit in TIMING_PARTS:
                put(f"{metric}.{part}", summary[part], unit)

    infos = [(d, info) for p in passes for d, info in p["solvers"]]
    broken = [info["observe_error"] for _, info in infos if info and "observe_error" in info]
    if not wrapped.intersection(SOLVER_SPANS) or broken:
        reason = broken[0] if broken else "no solver function wrapped"
        missing.update({name: reason for name in SOLVER_COUNTS})
    elif not infos and "solvers.evals_per_step" in expected:
        missing.update({name: "not observed on this workload" for name in SOLVER_COUNTS})
    elif not infos:
        put("solvers.evals_per_step", 0, "count")
        put("solvers.evals_per_s", 0.0, "1/s")
        put("solvers.useful_frac", 0.0, "frac")
    else:
        evals = [info["evals"] for _, info in infos]
        put("solvers.evals_per_step", float(statistics.median(evals)), "count")
        put("solvers.evals_per_s", sum(evals) / sum(d for d, _ in infos), "1/s")
        put("solvers.useful_frac", statistics.fmean(info["useful_frac"] for _, info in infos), "frac")

    put("controller.plan_repeat_frac", figures["plan_repeat_frac"], "frac")
    put("qubo.text_bytes", figures["text_bytes"], "bytes")
    put("qubo.pairs", figures["pairs"], "count")
    put("dataio.report_bytes", figures["report_bytes"], "bytes")

    traced_jobs = traced[0]["jobs"]
    plain = [r["wall"] for r in records if not r["traced"] and "wall" in r and r["jobs"] == traced_jobs]
    traced_wall = _median(r["wall"] for r in traced)
    put("trace_overhead_pct", 100.0 * (traced_wall - _median(plain)) / _median(plain), "%")
    speedup = 0.0
    if workload == "batch-mixed":
        two = [r["wall"] for r in records if not r["traced"] and "wall" in r and r["jobs"] > 1]
        speedup = _median(plain) / _median(two)
    put("cli.batch_speedup", speedup, "ratio")
    put("trace.wall_s", statistics.fmean(p["wall"] for p in passes), "s")
    for layer in LAYERS:
        put(f"{layer}.self_s", statistics.fmean(p["self"].get(layer, 0.0) for p in passes), "s")
    return metrics, missing, problems


def assess(workload: str, plan: dict, records: list[dict], setup: list[float], traced: bool):
    """Check the passes' outputs and compute the metrics the run prints."""
    import checks

    problems: list[str] = []
    attempted = sum(len(r["ops"]) for r in records)
    failed = sum(1 for r in records for op in r["ops"] if not op["ok"])
    for r in records:
        if "crashed" in r:
            problems.append(f"{r['dir'].name}: {r['crashed']}")
        for op in r["ops"]:
            if not op["ok"] and "crashed" not in r:
                problems.append(f"{r['dir'].name}: {op['op']} failed ({op['detail']})")
    figures = {"cost_ratio": 1.0, "peak_ratio": 1.0, "plan_repeat_frac": 0.0,
               "report_bytes": 0, "text_bytes": 0, "pairs": 0}
    if failed == 0:
        dirs = [r["dir"] for r in records]
        problems += checks.reproducible(dirs, plan)
        found, quality = checks.control_runs(dirs[0], plan)
        problems += found
        figures.update(quality)
        found, sizes = checks.compiled_states(dirs[0], plan)
        problems += found
        figures.update(sizes)
    if traced:
        metrics, missing, trace_problems = per_layer(workload, records, figures)
        return metrics, missing, problems + trace_problems, attempted, failed
    untraced = [r for r in records if not r["traced"] and "wall" in r]
    return end_to_end(plan, untraced, setup, figures, attempted, failed), {}, problems, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(BLAS_ENV)  # before numpy loads here or in any worker
    try:
        _import_package()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        plan = workloads.make_plan(args.workload, args.seed, work / "inputs")
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        setup: list[float] = []
        problems: list[str] = []
        if not args.trace:
            for _ in range(SETUP_REPEATS):
                wall, problem = time_setup(plan_path)
                setup.append(wall)
                if problem:
                    problems.append(problem)
        records = measure(plan, plan_path, work, args.workload, args.seconds, bool(args.trace))
        metrics, missing, found, attempted, failed = assess(args.workload, plan, records, setup, bool(args.trace))
        problems += found
    finally:
        shutil.rmtree(work, ignore_errors=True)

    host = host_info(args.seed, [r.get("blas_threads") for r in records])
    untraced_walls = [round(r["wall"], 4) for r in records if not r["traced"] and "wall" in r]
    print("host: " + json.dumps(host, sort_keys=True))
    print(f"passes: {len(records)} ({sum(r['traced'] for r in records)} traced); untraced walls {untraced_walls} s")
    if setup:
        print(f"setup: {len(setup)} fresh interpreters, walls {[round(s, 4) for s in setup]} s")
    for name, reason in sorted(missing.items()):
        print(f"missing: {name} ({reason})")
    for problem in problems:
        print(f"problem: {problem}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = dict(result, host=host, missing=missing, problems=problems, workload=args.workload,
                  trace=args.trace, seconds=args.seconds, untraced_walls=untraced_walls, setup_walls=setup)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
