"""Command-line interface.

Subcommands: generate, export-network, simulate, baseline, build-qubo,
solve, control, metrics, batch.  Diagnostics go to stderr; data goes to
files or stdout.  Exit codes: 0 success, 1 input the system cannot serve
(a validation error, or a network or step count too large to allocate), 2
any other failure; ``_report_failure`` is the one place that maps a failure
to its code and its stderr line.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import dataio
from .controller import (
    ScenarioConfig,
    compare_totals,
    compute_metrics,
    run_rolling_horizon,
    run_uncontrolled_baseline,
)
from .epinet import simulate
from .qubo import BUILDER_NAMES, build_qubo, export_qubo, import_qubo, to_control
from .solvers import SOLVER_NAMES, SolverConfig, _fix_and_solve

__all__ = ["cli_dispatch", "main"]

logger = logging.getLogger(__name__)


def _add_network_args(parser: argparse.ArgumentParser, cases: bool = True) -> None:
    parser.add_argument(
        "--network", dest="edges", metavar="NETWORK", required=True, help="edges CSV path"
    )
    parser.add_argument("--population", required=True, help="population CSV path")
    if cases:
        parser.add_argument("--cases", default=None, help="initial cases CSV path")


def _add_model_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", required=True, choices=["sis", "sir"])
    rate = parser.add_mutually_exclusive_group(required=True)
    rate.add_argument("--lambda", metavar="LAM", type=float, help="infection rate per step")
    rate.add_argument("--r0", type=float, help="reproduction number (calibrates the rate)")
    parser.add_argument("--mu", type=float, required=True, help="recovery rate per step")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epiqubo",
        description="Mobility-ban control of network epidemics via quadratic binary optimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a synthetic network as CSV files")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--profile", choices=list(dataio.PROFILES), default="gravity")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("export-network", help="reload a network and re-emit canonical CSVs")
    _add_network_args(p, cases=False)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_export_network)

    for name, default_steps in (("simulate", None), ("baseline", ScenarioConfig.steps)):
        p = sub.add_parser(name, help="run the uncontrolled dynamics")
        _add_network_args(p)
        _add_model_args(p)
        p.add_argument(
            "--steps", type=int, required=default_steps is None, default=default_steps
        )
        p.add_argument("--out", default=None, help="trajectory CSV (stdout if omitted)")
        p.add_argument("--force", action="store_true", help="clamp states instead of refusing")
        p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("build-qubo", help="compile the two-step objective to a QUBO file")
    _add_network_args(p)
    _add_model_args(p)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--builder", choices=BUILDER_NAMES, default=ScenarioConfig.builder)
    p.add_argument("--out", default=None, help="QUBO text file (stdout if omitted)")
    p.set_defaults(func=_cmd_build_qubo)

    p = sub.add_parser("solve", help="minimize a QUBO file")
    p.add_argument("qubo_file", help="QUBO text file")
    p.add_argument("--solver", choices=SOLVER_NAMES, default=ScenarioConfig.solver)
    p.add_argument("--seed", type=int, default=SolverConfig.seed)
    p.add_argument(
        "--budget", type=int, default=SolverConfig.budget, help="max objective evaluations"
    )
    p.add_argument("--out", default=None, help="result JSON (stdout if omitted)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("control", help="run the rolling-horizon controller")
    _add_network_args(p)
    _add_model_args(p)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--steps", type=int, default=ScenarioConfig.steps)
    p.add_argument("--solver", choices=SOLVER_NAMES, default=ScenarioConfig.solver)
    p.add_argument("--builder", choices=BUILDER_NAMES, default=ScenarioConfig.builder)
    p.add_argument("--seed", type=int, default=SolverConfig.seed)
    p.add_argument("--budget", type=int, default=None, help="max objective evaluations per step")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--force", action="store_true", help="clamp states instead of refusing")
    p.set_defaults(func=_cmd_control)

    p = sub.add_parser("metrics", help="compare two trajectory CSVs")
    p.add_argument("--controlled", required=True)
    p.add_argument("--baseline", required=True)
    p.add_argument("--out", default=None, help="metrics JSON (stdout if omitted)")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("batch", help="run scenario files, one output directory each")
    p.add_argument("scenarios", nargs="+", help="scenario document paths")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--jobs", type=int, help="accepted for old command lines and ignored")
    p.set_defaults(func=_cmd_batch)
    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _flag_values(args) -> dict[str, str]:
    """The command's flags as the ``key = value`` mapping of a scenario
    document, which ``dataio.resolve_scenario`` turns into the run."""
    values = {}
    for key in dataio.SCENARIO_KEYS:
        value = getattr(args, key, None)
        if isinstance(value, bool):
            values[key] = "true" if value else "false"
        elif isinstance(value, float):
            values[key] = repr(value)
        elif value is not None:
            values[key] = str(value)
    return values


def _cmd_generate(args) -> int:
    net = dataio.generate_synthetic(args.m, args.profile, args.seed)
    edges, pops = dataio.write_network_csvs(net, args.out)
    print(f"wrote {edges} and {pops}", file=sys.stderr)
    return 0


def _cmd_export_network(args) -> int:
    files = dataio.NetworkFiles(args.edges, args.population)
    net, names, _, _ = dataio.load_network(files)
    edges, pops = dataio.write_network_csvs(net, args.out, names)
    print(f"wrote {edges} and {pops}", file=sys.stderr)
    return 0


def _cmd_simulate(args) -> int:
    if args.steps < 0:
        raise ValueError("steps must be nonnegative")
    # a scenario needs a gamma and at least one step; the uncontrolled run
    # reads neither gamma nor, at zero steps, the window or force
    values = {**_flag_values(args), "gamma": "0.0", "steps": str(max(args.steps, 1))}
    if args.steps == 0:
        values["force"] = "false"
    cfg, state0, _ = dataio.resolve_scenario(values, Path())
    if args.steps == 0:
        traj = simulate(cfg.network, cfg.params, state0, None, 0)
    else:
        traj = run_uncontrolled_baseline(cfg, state0)
    _emit(dataio.trajectory_csv_text(traj), args.out)
    return 0


def _cmd_build_qubo(args) -> int:
    cfg, state0, _ = dataio.resolve_scenario(_flag_values(args), Path())
    q = build_qubo(cfg.network, cfg.params, state0, cfg.gamma, cfg.builder)
    _emit(export_qubo(q), args.out)
    return 0


def _cmd_solve(args) -> int:
    text = Path(args.qubo_file).read_text(encoding="utf-8")
    q = import_qubo(text)
    result = _fix_and_solve(q, args.solver, SolverConfig(seed=args.seed, budget=args.budget))
    payload = {
        "solver": args.solver,
        "seed": args.seed,
        "z_best": result.z_best.astype(int).tolist(),
        "control": to_control(result.z_best).tolist(),
        "objective": result.objective,
        "evaluations": result.evaluations,
        "wall_time_seconds": result.wall_time,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _run_control(cfg: ScenarioConfig, state0, echo: dict, out_dir: str) -> dict:
    log = run_rolling_horizon(cfg, state0)
    baseline = run_uncontrolled_baseline(cfg, state0)
    metrics = compute_metrics(log, baseline)
    return dataio.write_run_report(out_dir, echo, metrics, log, baseline)


def _cmd_control(args) -> int:
    cfg, state0, echo = dataio.resolve_scenario(_flag_values(args), Path())
    report = _run_control(cfg, state0, echo, args.out)
    m = report["metrics"]
    peak, avg = (
        "undefined" if pct is None else f"{pct}%"
        for pct in (m["peak_reduction_pct"], m["avg_reduction_pct"])
    )
    print(f"peak reduction: {peak}  average reduction: {avg}", file=sys.stderr)
    return 0


def _cmd_metrics(args) -> int:
    totals_c, m_c = dataio.read_trajectory_totals(args.controlled)
    totals_u, m_u = dataio.read_trajectory_totals(args.baseline)
    if m_c != m_u:
        raise ValueError(
            f"{args.controlled}: location count {m_c} differs from {m_u} "
            f"in {args.baseline} (row 1)"
        )
    if len(totals_c) != len(totals_u):
        raise ValueError(
            f"{args.controlled}: step count {len(totals_c) - 1} differs from "
            f"{len(totals_u) - 1} in {args.baseline}"
        )
    payload = compare_totals(totals_c, totals_u)
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _cmd_batch(args) -> int:
    out_root = Path(args.out)
    documents: dict[str, str] = {}
    for scenario_path in args.scenarios:
        stem = Path(scenario_path).stem
        if stem in documents:
            raise ValueError(
                f"scenario documents {documents[stem]} and {scenario_path} "
                f"would both write to {out_root / stem}"
            )
        documents[stem] = scenario_path
    out_root.mkdir(parents=True, exist_ok=True)
    worst = 0
    for name in args.scenarios:
        path = Path(name)
        try:
            values = dataio.parse_scenario_text(path.read_text(encoding="utf-8"))
            cfg, state0, echo = dataio.resolve_scenario(values, path.parent)
            _run_control(cfg, state0, echo, str(out_root / path.stem))
        except Exception as exc:
            worst = max(worst, _report_failure(exc, f" in {name}"))
    return worst


def _report_failure(exc: Exception, where: str = "") -> int:
    """Write the one stderr line for a failed command or batch document and
    return its exit code: 1 for input the system cannot serve (a
    ``ValueError``, an ``OSError``, or a ``MemoryError`` from an input too
    large to allocate), 2 for any other failure.  ``where`` is empty for a
    command and ``" in <path>"`` for a batch document."""
    if isinstance(exc, (ValueError, OSError, MemoryError)):
        sys.stderr.write(f"error{where}: {exc}\n")
        return 1
    sys.stderr.write(f"runtime error{where}: {exc}\n")
    logger.debug("traceback of the runtime error above", exc_info=exc)
    return 2


def cli_dispatch(argv: list[str]) -> int:
    """Parse and run one command, mapping failures to exit codes."""
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="%(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except Exception as exc:
        return _report_failure(exc)


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
