"""Correctness checks on the files a pass wrote, and the plan-quality and
output-size figures read from them.

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from epiqubo import dataio
from epiqubo.epinet import EpidemicParams, EpidemicState, ModelKind
from epiqubo.qubo import build_qubo, evaluate, export_qubo, from_control, import_qubo

import measures

# Both builders compile the same objective; measured max |dS| / max |S| is
# 3.8e-10 at M=300, so agreement is required to 1e-8 of each part's scale.
BUILDER_TOLERANCE = 1e-8
# A recorded step objective must equal the rebuilt QUBO at the applied plan.
OBJECTIVE_TOLERANCE = 1e-12
RUN_FILES = ("trajectory.csv", "baseline.csv", "scenario.resolved")


def load_report(pass_dir: Path, run: dict) -> dict:
    return json.loads((pass_dir / run["dir"] / "report.json").read_text(encoding="utf-8"))


def _fingerprint(pass_dir: Path, plan: dict) -> dict[str, bytes]:
    out = {}
    for run in plan["runs"]:
        report = load_report(pass_dir, run)
        report.pop("timing")
        out[f"{run['dir']}/report.json"] = json.dumps(report, sort_keys=True).encode()
        for name in RUN_FILES:
            out[f"{run['dir']}/{name}"] = (pass_dir / run["dir"] / name).read_bytes()
    for state in plan["states"]:
        for text in state["texts"]:
            path = Path(text.replace("{pass}", str(pass_dir)))
            out[path.name] = path.read_bytes()
    return out


def reproducible(pass_dirs: list[Path], plan: dict) -> list[str]:
    """Same-seed passes give identical reports outside ``timing``, identical
    CSVs and identical QUBO texts."""
    reference = _fingerprint(pass_dirs[0], plan)
    problems = []
    for other in pass_dirs[1:]:
        for name, data in _fingerprint(other, plan).items():
            if reference.get(name) != data:
                problems.append(f"{other.name}/{name} differs from {pass_dirs[0].name}")
    return problems


def _network(run: dict):
    spec = run["network"]
    if "profile" in spec:
        return dataio.generate_synthetic(spec["m"], spec["profile"], spec["network_seed"])
    net, _, _, _ = dataio.load_network(dataio.NetworkFiles(spec["edges"], spec["population"]))
    return net


def _params(report: dict) -> tuple[EpidemicParams, float, str]:
    scenario = report["scenario"]
    params = EpidemicParams(
        ModelKind(scenario["model"]), float(scenario["lambda"]), float(scenario["mu"])
    )
    return params, float(scenario["gamma"]), scenario.get("builder", "analytic")


def control_runs(pass_dir: Path, plan: dict) -> tuple[list[str], dict]:
    """Check every controlled run of one pass and read its quality figures.

    Each recorded step objective must equal ``evaluate`` of the QUBO rebuilt
    from the recorded state at the applied plan, and the first plan must
    isolate some but not all locations.
    """
    problems = []
    cost_ratios, peak_ratios, plans, report_bytes = [], [], [], 0
    for run in plan["runs"]:
        report = load_report(pass_dir, run)
        report_bytes += (pass_dir / run["dir"] / "report.json").stat().st_size
        net = _network(run)
        params, gamma, builder = _params(report)
        controls = np.asarray(report["controls"], dtype=np.int8)
        infected = np.asarray(report["trajectory"]["infected"])
        removed = report["trajectory"]["removed"]
        for t, objective in enumerate(report["objectives"]):
            state = EpidemicState(infected[t], None if removed is None else removed[t])
            value = evaluate(build_qubo(net, params, state, gamma, builder), from_control(controls[t]))
            if abs(value - objective) > OBJECTIVE_TOLERANCE * max(1.0, abs(objective)):
                problems.append(f"{run['dir']} step {t}: objective {objective!r} != rebuilt {value!r}")
        isolated = int(controls[0].sum())
        if isolated in (0, net.m):
            problems.append(f"{run['dir']}: first plan isolates {isolated} of {net.m} locations")
        baseline = report["baseline"]["infected"]
        cost_ratios.append(measures.cost_ratio(infected, baseline, controls, net.populations, gamma))
        metrics = report["metrics"]
        peak_ratios.append(metrics["peak_controlled"] / metrics["peak_uncontrolled"])
        plans.append(controls)
    figures = {
        "cost_ratio": float(np.mean(cost_ratios)) if cost_ratios else 1.0,
        "peak_ratio": float(np.mean(peak_ratios)) if peak_ratios else 1.0,
        "plan_repeat_frac": measures.plan_repeat_frac(plans),
        "report_bytes": report_bytes,
    }
    return problems, figures


def _relative_gap(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(a), initial=0.0)), float(np.max(np.abs(b), initial=0.0)))
    gap = float(np.max(np.abs(a - b), initial=0.0))
    return 0.0 if scale == 0.0 else gap / scale


def compiled_states(pass_dir: Path, plan: dict) -> tuple[list[str], dict]:
    """Round trips of the exported texts are bit-exact and the two builders
    agree within ``BUILDER_TOLERANCE``."""
    problems = []
    text_bytes = pairs = 0
    for state in plan["states"]:
        parsed = []
        for template in state["texts"]:
            path = Path(template.replace("{pass}", str(pass_dir)))
            text = path.read_text(encoding="utf-8")
            text_bytes += len(text.encode("utf-8"))
            pairs += sum(1 for line in text.splitlines()[1:] if line.split()[0] != line.split()[1])
            q = import_qubo(text)
            if export_qubo(q) != text:
                problems.append(f"{path.name}: export(import(text)) differs from the text")
            parsed.append(q)
        analytic, numeric = parsed
        gaps = {
            "coupling": _relative_gap(analytic.coupling, numeric.coupling),
            "linear": _relative_gap(analytic.linear, numeric.linear),
            "offset": _relative_gap(np.array([analytic.offset]), np.array([numeric.offset])),
        }
        for part, gap in gaps.items():
            if gap > BUILDER_TOLERANCE:
                problems.append(f"state t={state['t']}: builders differ in {part} by {gap:.3g} (relative)")
    return problems, {"text_bytes": text_bytes, "pairs": pairs}
