"""Rolling-horizon mobility-ban controller and outcome metrics.

At every step the two-step objective is recompiled from the current state,
minimized, and only the first action of the resulting plan is applied; the
loop then repeats from the advanced state.  Before each solve, the bits that
every minimizer shares are fixed (``qubo.fix_persistent``) and the solver
sees only the objective over the remaining free bits.  Step t solves with
the solver config's seed plus t, so a full run is reproducible while the
solver randomness stays decorrelated across steps.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .epinet import (
    EpidemicParams,
    EpidemicState,
    LocationNetwork,
    ModelKind,
    Trajectory,
    _record,
    check_state,
    invariance_bound,
    step_sis,
    step_sir,
    validate_network,
)
from .qubo import BUILDER_NAMES, build_qubo, to_control
from .solvers import SOLVER_NAMES, SolveResult, SolverConfig, _fix_and_solve

__all__ = [
    "ScenarioConfig",
    "ControlLog",
    "run_rolling_horizon",
    "run_uncontrolled_baseline",
    "compute_metrics",
    "compare_totals",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce one controlled run, except the start
    state, which the run functions take as an argument.

    A network that ``validate_network`` reports violations for is refused,
    and so is a gamma whose isolation cost ``gamma * sum(n)`` overflows; the
    network's warnings are logged.  A run with ``params.lam`` above the
    network's invariance bound is refused outright unless ``force`` is set,
    in which case this is logged once here, states are clamped into [0, n_i]
    and every clamp is logged.
    """

    network: LocationNetwork
    params: EpidemicParams
    gamma: float
    steps: int = 30
    solver: str = "exhaustive"
    solver_config: SolverConfig = field(default_factory=SolverConfig)
    builder: str = "analytic"
    force: bool = False

    def __post_init__(self) -> None:
        report = validate_network(self.network)
        for warning in report.warnings:
            logger.warning("network: %s", warning)
        if not report.ok:
            raise ValueError("invalid network: " + "; ".join(report.violations))
        if self.steps < 1:
            raise ValueError("total steps must be at least 1")
        if not 0 <= self.gamma < np.inf:
            raise ValueError(f"gamma must be finite and nonnegative, got {self.gamma}")
        # Python floats, so an overflow is refused without a numpy warning
        total = sum(self.network.populations.tolist())
        if not math.isfinite(float(self.gamma) * total):
            raise ValueError(
                f"isolation cost gamma * sum(n) overflows: gamma {self.gamma}, sum(n) {total}"
            )
        if self.solver not in SOLVER_NAMES:
            raise ValueError(f"unknown solver {self.solver!r}; expected one of {SOLVER_NAMES}")
        if self.builder not in BUILDER_NAMES:
            raise ValueError(f"unknown builder {self.builder!r}; expected one of {BUILDER_NAMES}")
        bound = invariance_bound(self.network)
        if self.force and self.params.lam > bound:
            logger.warning(
                "infection rate %s exceeds the invariance bound %s; states will be clamped",
                self.params.lam,
                bound,
            )


@dataclass(frozen=True)
class ControlLog:
    """A rolling-horizon run: its trajectory and each step's solve result."""

    trajectory: Trajectory
    results: tuple[SolveResult, ...]

    def __post_init__(self) -> None:
        if len(self.results) != self.trajectory.num_steps:
            raise ValueError("results must have one entry per step")


def _run_loop(cfg: ScenarioConfig, state0: EpidemicState, plan) -> Trajectory:
    """Apply ``plan(t, state)`` and advance, ``cfg.steps`` times, recording states."""
    net, params = cfg.network, cfg.params
    bound = invariance_bound(net)
    if params.lam > bound and not cfg.force:
        raise ValueError(
            f"infection rate {params.lam} exceeds the invariance bound {bound}; "
            "states could leave [0, n_i] (pass force=True to clamp instead)"
        )
    check_state(state0, net, params.kind)
    step = step_sis if params.kind is ModelKind.SIS else step_sir

    def advance(t: int, state: EpidemicState):
        u = plan(t, state)
        nxt = step(state, net, params, u)
        if not cfg.force:
            return u, nxt
        x = np.clip(nxt.infected, 0.0, net.populations)
        clamped = int(np.count_nonzero(x != nxt.infected))
        y = nxt.removed
        if y is not None:
            # n - x can round up so that x + (n - x) > n; one step down is then
            # enough for x + y <= n, the bound every builder's state check applies
            room = net.populations - x
            room = np.where(x + room > net.populations, np.nextafter(room, 0.0), room)
            y = np.clip(y, 0.0, room)
            clamped += int(np.count_nonzero(y != nxt.removed))
        if clamped:
            logger.warning("step %d: clamped %d state entries into [0, n_i]", t, clamped)
        return u, EpidemicState(x, y)

    return _record(state0, cfg.steps, advance)


def run_rolling_horizon(cfg: ScenarioConfig, state0: EpidemicState) -> ControlLog:
    """Closed-loop run: recompile, minimize, apply one step, repeat.

    Each step fixes the persistent bits, solves the objective restricted to
    the free ones and lifts the result back to every location
    (``solvers._fix_and_solve``); its result is kept in ``results``.
    """
    results: list[SolveResult] = []

    def plan(t: int, state: EpidemicState) -> np.ndarray:
        q = build_qubo(cfg.network, cfg.params, state, cfg.gamma, cfg.builder)
        step_cfg = replace(cfg.solver_config, seed=cfg.solver_config.seed + t)
        try:
            result = _fix_and_solve(q, cfg.solver, step_cfg)
        except Exception as exc:
            raise RuntimeError(f"solver failed at step {t}: {exc}") from exc
        results.append(result)
        return to_control(result.z_best)

    return ControlLog(_run_loop(cfg, state0, plan), tuple(results))


def run_uncontrolled_baseline(cfg: ScenarioConfig, state0: EpidemicState) -> Trajectory:
    """Free-running dynamics over the same window, no isolation anywhere."""
    open_all = np.zeros(cfg.network.m, dtype=np.int8)
    return _run_loop(cfg, state0, lambda t, state: open_all)


def compare_totals(totals_c: np.ndarray, totals_u: np.ndarray) -> dict:
    """Peak and per-step-average infected totals, with percent reductions.

    The peak is taken over the whole curve; the average excludes the shared
    initial row and is 0.0 when there is no other row.  A zero baseline
    peak (or average) makes the corresponding reduction None.
    """
    if totals_c.shape != totals_u.shape:
        raise ValueError("controlled and baseline runs must cover the same window")
    peak_c = float(totals_c.max())
    peak_u = float(totals_u.max())
    avg_c = float(totals_c[1:].mean()) if len(totals_c) > 1 else 0.0
    avg_u = float(totals_u[1:].mean()) if len(totals_u) > 1 else 0.0
    return {
        "peak_uncontrolled": peak_u,
        "peak_controlled": peak_c,
        "avg_uncontrolled": avg_u,
        "avg_controlled": avg_c,
        "peak_reduction_pct": None if peak_u == 0.0 else 100.0 * (peak_u - peak_c) / peak_u,
        "avg_reduction_pct": None if avg_u == 0.0 else 100.0 * (avg_u - avg_c) / avg_u,
    }


def compute_metrics(controlled: ControlLog, baseline: Trajectory) -> dict:
    """``compare_totals`` of the two runs plus per-location peaks, as the
    report's metrics dict."""
    traj = controlled.trajectory
    if traj.num_steps != baseline.num_steps or traj.m != baseline.m:
        raise ValueError("controlled and baseline runs must cover the same window")
    return {
        **compare_totals(traj.totals(), baseline.totals()),
        "per_location_peak_uncontrolled": baseline.infected.max(axis=0).tolist(),
        "per_location_peak_controlled": traj.infected.max(axis=0).tolist(),
    }
