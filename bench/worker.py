"""Fresh-interpreter half of the benchmark.

    python3 bench/worker.py setup PLAN
    python3 bench/worker.py pass PLAN PASS_DIR JOBS [SPANS_JSON]

``setup`` does what a user pays before the first control step: import
epiqubo, load and validate the workload's networks and calibrate their
rates; the caller times the whole process.  ``pass`` runs the plan's
actions once through the real CLI entry point, in this process, and prints
one JSON line: pass wall time, peak resident memory, the outcome of each
action and the BLAS thread count.  With ``SPANS_JSON`` the pass is traced
and its spans are written there.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import epiqubo  # noqa: E402
import epiqubo.cli  # noqa: E402
import epiqubo.qubo  # noqa: E402
from epiqubo import dataio  # noqa: E402


def blas_threads() -> int | None:
    """Threads the bundled OpenBLAS will use, or None if it cannot be asked."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_setup(plan: dict) -> None:
    for spec in plan["setup"]["networks"]:
        files = dataio.NetworkFiles(spec["edges"], spec["population"], spec["cases"])
        net, _, _, _ = dataio.load_network(files)
        _validated_rate(net, spec["r0"], spec["mu"])
    for doc in plan["setup"]["scenarios"]:
        path = Path(doc)
        values = dataio.parse_scenario_text(path.read_text(encoding="utf-8"))
        if "profile" in values:
            net = dataio.generate_synthetic(int(values["m"]), values["profile"], int(values["network_seed"]))
        else:
            files = dataio.NetworkFiles(path.parent / values["edges"], path.parent / values["population"])
            net, _, _, _ = dataio.load_network(files)
        _validated_rate(net, float(values["r0"]), float(values["mu"]))


def _validated_rate(net, r0: float, mu: float) -> float:
    report = epiqubo.validate_network(net)
    if not report.ok:
        raise ValueError("invalid network: " + "; ".join(report.violations))
    return epiqubo.infection_rate_from_r0(r0, mu, net)


def _solver_counts(result) -> dict:
    import measures

    return {
        "evals": int(result.evaluations),
        "useful_frac": measures.useful_frac(result.trace, result.evaluations),
    }


def _run_actions(plan: dict, pass_dir: str, jobs: int) -> list[dict]:
    ops = []
    for action in plan["actions"]:
        if "cli" in action:
            argv = [a.replace("{pass}", pass_dir).replace("{jobs}", str(jobs)) for a in action["cli"]]
            code = epiqubo.cli.cli_dispatch(argv)
            ops.append({"op": argv[0], "ok": code == 0, "detail": code})
        else:
            path = action["import"].replace("{pass}", pass_dir)
            try:
                epiqubo.qubo.import_qubo(Path(path).read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                ops.append({"op": "import_qubo", "ok": False, "detail": repr(exc)})
            else:
                ops.append({"op": "import_qubo", "ok": True, "detail": 0})
    return ops


def run_pass(plan: dict, pass_dir: str, jobs: int, spans_path: str | None) -> dict:
    Path(pass_dir).mkdir(parents=True, exist_ok=True)
    tracer = restore = None
    if spans_path is not None:
        import spans
        from run import SOLVER_SPANS

        tracer = spans.Tracer()
        restore, wrapped = spans.install(tracer, dict.fromkeys(SOLVER_SPANS, _solver_counts))
    # the CLI writes data to files; keep this process's stdout for the result
    with contextlib.redirect_stdout(sys.stderr):
        start = time.perf_counter()
        if tracer is None:
            ops = _run_actions(plan, pass_dir, jobs)
            wall = time.perf_counter() - start
        else:
            with tracer.span("bench.pass", "bench") as root:
                ops = _run_actions(plan, pass_dir, jobs)
            wall = tracer.spans[root].end - tracer.spans[root].start
    if tracer is not None:
        restore()
        doc = {"spans": tracer.records(), "interleaved": tracer.interleaved, "wrapped": wrapped}
        Path(spans_path).write_text(json.dumps(doc), encoding="utf-8")
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return {"wall": wall, "rss_mb": peak_kb / 1024.0, "ops": ops, "blas_threads": blas_threads()}


def main(argv: list[str]) -> int:
    mode, plan_path = argv[0], argv[1]
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    if mode == "setup":
        run_setup(plan)
        return 0
    if mode == "pass":
        spans_path = argv[4] if len(argv) > 4 else None
        print(json.dumps(run_pass(plan, argv[2], int(argv[3]), spans_path)))
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
