"""Rolling-horizon mobility-ban controller and outcome metrics.

At every step the two-step objective is recompiled from the current state,
minimized, and only the first action of the resulting plan is applied; the
loop then repeats from the advanced state.  Before each solve, the bits that
every minimizer shares are fixed (``qubo.fix_persistent``) and the solver
sees only the objective over the remaining free bits.  Per-step solver
seeds derive from the base seed plus the step index, so a full run is
reproducible while the solver randomness stays decorrelated across steps.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, fields, replace

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
from .solvers import SOLVER_NAMES, SolverConfig, _fix_and_solve

__all__ = [
    "ScenarioConfig",
    "ControlLog",
    "MetricsReport",
    "run_rolling_horizon",
    "run_uncontrolled_baseline",
    "compute_metrics",
    "compare_totals",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce one controlled run.

    A network that ``validate_network`` reports violations for is refused,
    and so is a gamma whose isolation cost ``gamma * sum(n)`` overflows; the
    network's warnings are logged.  A run with ``lam`` above the network's
    invariance bound is refused outright unless ``force`` is set, in which
    case this is logged once here, states are clamped into [0, n_i] and
    every clamp is logged.
    """

    network: LocationNetwork
    kind: ModelKind
    lam: float
    mu: float
    gamma: float
    steps: int = 30
    solver: str = "exhaustive"
    solver_config: SolverConfig = field(default_factory=SolverConfig)
    builder: str = "analytic"
    seed: int = 0
    force: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", ModelKind(self.kind))
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
        replace(self.solver_config, seed=self.seed)  # step 0's solver config checks the seed
        self.params  # EpidemicParams refuses a rate that is not finite before any bound check
        bound = invariance_bound(self.network)
        if self.force and self.lam > bound:
            logger.warning(
                "infection rate %s exceeds the invariance bound %s; states will be clamped",
                self.lam,
                bound,
            )

    @property
    def params(self) -> EpidemicParams:
        return EpidemicParams(self.kind, self.lam, self.mu)


@dataclass(frozen=True)
class ControlLog:
    """Per-step record of a rolling-horizon run."""

    trajectory: Trajectory
    objectives: np.ndarray
    wall_times: np.ndarray
    evaluations: np.ndarray

    def __post_init__(self) -> None:
        steps = self.trajectory.num_steps
        for name in ("objectives", "wall_times", "evaluations"):
            arr = np.asarray(getattr(self, name))
            if arr.shape != (steps,):
                raise ValueError(f"{name} must have one entry per step")
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class MetricsReport:
    """Controlled-vs-uncontrolled summary.

    ``peak_reduction_pct`` / ``avg_reduction_pct`` are None when the
    corresponding baseline quantity is zero (reduction undefined).
    """

    peak_uncontrolled: float
    peak_controlled: float
    avg_uncontrolled: float
    avg_controlled: float
    peak_reduction_pct: float | None
    avg_reduction_pct: float | None
    per_location_peak_uncontrolled: np.ndarray
    per_location_peak_controlled: np.ndarray

    def as_dict(self) -> dict:
        """JSON-ready view, keyed by field name in field order."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in values.items()}


def _advance(
    state: EpidemicState,
    u: np.ndarray,
    net: LocationNetwork,
    params: EpidemicParams,
    clamp: bool,
    step_index: int,
) -> EpidemicState:
    step = step_sis if params.kind is ModelKind.SIS else step_sir
    nxt = step(state, net, params, u)
    if not clamp:
        return nxt
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
        logger.warning("step %d: clamped %d state entries into [0, n_i]", step_index, clamped)
    return EpidemicState(x, y)


def _run_loop(cfg: ScenarioConfig, state0: EpidemicState, plan) -> Trajectory:
    """Apply ``plan(t, state)`` and advance, ``cfg.steps`` times, recording states."""
    net = cfg.network
    bound = invariance_bound(net)
    if cfg.lam > bound and not cfg.force:
        raise ValueError(
            f"infection rate {cfg.lam} exceeds the invariance bound {bound}; "
            "states could leave [0, n_i] (pass force=True to clamp instead)"
        )
    check_state(state0, net, cfg.kind)
    params = cfg.params

    def advance(t: int, state: EpidemicState):
        u = plan(t, state)
        return u, _advance(state, u, net, params, cfg.force, t)

    return _record(state0, cfg.steps, advance)


def run_rolling_horizon(cfg: ScenarioConfig, state0: EpidemicState) -> ControlLog:
    """Closed-loop run: recompile, minimize, apply one step, repeat.

    Each step fixes the persistent bits, solves the objective restricted to
    the free ones and lifts the result back to every location
    (``solvers._fix_and_solve``).  ``evaluations`` counts the solve of the
    restricted objective, ``wall_times`` the fixing plus the solve, and
    ``objectives`` the full objective at the applied plan.
    """
    objectives: list[float] = []
    wall_times: list[float] = []
    evaluations: list[int] = []

    def plan(t: int, state: EpidemicState) -> np.ndarray:
        q = build_qubo(cfg.network, cfg.params, state, cfg.gamma, cfg.builder)
        step_cfg = replace(cfg.solver_config, seed=cfg.seed + t)
        try:
            result = _fix_and_solve(q, cfg.solver, step_cfg)
        except Exception as exc:
            raise RuntimeError(f"solver failed at step {t}: {exc}") from exc
        objectives.append(result.objective)
        wall_times.append(result.wall_time)
        evaluations.append(result.evaluations)
        return to_control(result.z_best)

    traj = _run_loop(cfg, state0, plan)
    return ControlLog(
        traj, np.array(objectives), np.array(wall_times), np.array(evaluations, dtype=np.int64)
    )


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


def compute_metrics(controlled: ControlLog, baseline: Trajectory) -> MetricsReport:
    """``compare_totals`` of the two runs plus per-location peaks."""
    traj = controlled.trajectory
    if traj.num_steps != baseline.num_steps or traj.m != baseline.m:
        raise ValueError("controlled and baseline runs must cover the same window")
    return MetricsReport(
        **compare_totals(traj.totals(), baseline.totals()),
        per_location_peak_uncontrolled=baseline.infected.max(axis=0),
        per_location_peak_controlled=traj.infected.max(axis=0),
    )
