"""Discrete-time SIS/SIR epidemics on a weighted location network.

Each location i holds a population ``n_i``; the weight ``A[i, j]`` measures
how strongly infected people in location j pressure susceptibles in
location i, relative to within-location mixing.  A binary control flag
``u_i = 1`` isolates location i: its cross-location mixing term is removed
from the local infection force, while within-location contagion continues.

All state is real-valued (large-population continuum approximation) and all
rates are per time step; the step duration itself is scenario metadata that
never enters the equations.

The SIS and SIR updates are written once, in the array kernel
``step_arrays``, whose per-location part is ``_local_update``; ``step_sis``
and ``step_sir`` validate one state and call it, and the batched cost
iterates it for the numeric builder's z = 0 probe and for the brute-force
oracle in ``tests/conftest.py``.  The numeric builder applies
``_local_update`` alone to the step-2 entries its other probes perturb.
One loop, ``_record``, records every run: ``simulate`` and the
controller's controlled and baseline runs pass it their own per-step
advance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "ModelKind",
    "LocationNetwork",
    "EpidemicParams",
    "EpidemicState",
    "Trajectory",
    "ValidationReport",
    "PowerIterationError",
    "validate_network",
    "invariance_bound",
    "step_sis",
    "step_sir",
    "simulate",
    "cost",
    "infection_rate_from_r0",
    "spectral_growth_factor",
    "as_bits",
    "check_state",
]

SPECTRAL_TOL = 1e-12
SPECTRAL_MAX_ITER = 10_000


class ModelKind(str, Enum):
    """Epidemic model family: SIS (no immunity) or SIR (permanent immunity)."""

    SIS = "sis"
    SIR = "sir"


class PowerIterationError(RuntimeError):
    """Spectral-radius estimate failed to stabilize within the iteration cap."""


@dataclass(frozen=True)
class LocationNetwork:
    """Weighted interaction graph over M locations.

    Attributes:
        populations: Length-M vector of location populations (persons).
        weights: M x M nonnegative interaction matrix with zero diagonal;
            ``weights[i, j]`` scales how infected in location j contribute
            to the infection force felt in location i.
    """

    populations: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        pops = np.asarray(self.populations, dtype=np.float64)
        w = np.asarray(self.weights, dtype=np.float64)
        if pops.ndim != 1:
            raise ValueError("populations must be a 1-D vector")
        m = pops.shape[0]
        if w.shape != (m, m):
            raise ValueError(f"weights must be {m}x{m}, got {w.shape}")
        if not np.all(np.isfinite(pops)) or not np.all(np.isfinite(w)):
            raise ValueError("populations and weights must be finite")
        object.__setattr__(self, "populations", pops)
        object.__setattr__(self, "weights", w)

    @property
    def m(self) -> int:
        return self.populations.shape[0]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a network check: hard violations plus soft warnings."""

    violations: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class EpidemicParams:
    """Per-step epidemic rates.

    ``lam`` is the infection rate (>= 0), ``mu`` the recovery rate in [0, 1].
    """

    kind: ModelKind
    lam: float
    mu: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", ModelKind(self.kind))
        if not (self.lam >= 0.0 and np.isfinite(self.lam)):
            raise ValueError(f"infection rate must be finite and >= 0, got {self.lam}")
        if not (0.0 <= self.mu <= 1.0):
            raise ValueError(f"recovery rate must lie in [0, 1], got {self.mu}")


@dataclass(frozen=True)
class EpidemicState:
    """Per-location infected counts, plus removed counts for SIR runs."""

    infected: np.ndarray
    removed: np.ndarray | None = None

    def __post_init__(self) -> None:
        x = np.asarray(self.infected, dtype=np.float64)
        if x.ndim != 1:
            raise ValueError("infected must be a 1-D vector")
        if not np.all(np.isfinite(x)) or np.any(x < 0):
            raise ValueError("infected counts must be finite and nonnegative")
        object.__setattr__(self, "infected", x)
        if self.removed is not None:
            y = np.asarray(self.removed, dtype=np.float64)
            if y.shape != x.shape:
                raise ValueError("removed must match infected in length")
            if not np.all(np.isfinite(y)) or np.any(y < 0):
                raise ValueError("removed counts must be finite and nonnegative")
            object.__setattr__(self, "removed", y)

    @property
    def m(self) -> int:
        return self.infected.shape[0]


@dataclass(frozen=True)
class Trajectory:
    """Dense record of a simulated run: states at t = 0..T, controls at 0..T-1."""

    infected: np.ndarray
    controls: np.ndarray
    removed: np.ndarray | None = None

    def __post_init__(self) -> None:
        x = np.ascontiguousarray(self.infected, dtype=np.float64)  # so totals() matches metrics
        u = np.asarray(self.controls, dtype=np.int8)
        if x.ndim != 2 or u.ndim != 2:
            raise ValueError("trajectory arrays must be 2-D (time x location)")
        if x.shape[0] != u.shape[0] + 1 or x.shape[1] != u.shape[1]:
            raise ValueError("need T+1 states for T controls over the same locations")
        object.__setattr__(self, "infected", x)
        object.__setattr__(self, "controls", u)
        if self.removed is not None:
            y = np.asarray(self.removed, dtype=np.float64)
            if y.shape != x.shape:
                raise ValueError("removed must match infected in shape")
            object.__setattr__(self, "removed", y)

    @property
    def num_steps(self) -> int:
        return self.controls.shape[0]

    @property
    def m(self) -> int:
        return self.infected.shape[1]

    def state_at(self, t: int) -> EpidemicState:
        y = None if self.removed is None else self.removed[t]
        return EpidemicState(self.infected[t], y)

    def totals(self) -> np.ndarray:
        """Aggregate infected across locations, one value per time index."""
        return self.infected.sum(axis=1)


def as_bits(v, m: int) -> np.ndarray:
    """Coerce a control or decision vector to a validated length-``m`` binary
    int8 array."""
    arr = np.asarray(v)
    if arr.shape != (m,):
        raise ValueError(f"bit vector must have length {m}, got shape {arr.shape}")
    if not np.all((arr == 0) | (arr == 1)):
        raise ValueError("bit entries must be 0 or 1")
    return arr.astype(np.int8)


def _finding(what: str, mask: np.ndarray) -> list[str]:
    """``["<what> at <first>"]`` for the first set entry of ``mask`` in C
    order, ending `` and N more`` when N further entries are set; ``[]``
    when none is."""
    hits = int(np.count_nonzero(mask))
    if not hits:
        return []
    at = np.unravel_index(int(np.argmax(mask)), mask.shape)
    where = f"{at[0]}" if mask.ndim == 1 else f"({at[0]}, {at[1]})"
    return [f"{what} at {where}" + (f" and {hits - 1} more" if hits > 1 else "")]


def validate_network(net: LocationNetwork) -> ValidationReport:
    """Check network invariants, reporting rather than raising.

    Nonzero diagonal, nonpositive populations and negative weights are
    violations; off-diagonal weights above 1 are flagged as warnings only.
    Each kind is named once, at its first offending entry, with the count of
    the others.
    """
    big = net.weights > 1.0
    np.fill_diagonal(big, False)
    violations = [
        *_finding("nonzero diagonal", np.diagonal(net.weights) != 0.0),
        *_finding("nonpositive population", net.populations <= 0.0),
        *_finding("negative weight", net.weights < 0.0),
    ]
    return ValidationReport(violations, _finding("weight > 1", big))


def invariance_bound(net: LocationNetwork) -> float:
    """Largest infection rate that keeps every trajectory inside [0, n_i].

    Returns ``min_i 1 / (1 + sum_j A_ij n_j / n_i)``; the per-location
    inequality must hold at every i, so the minimum is the safe choice.
    Any ``lam`` at or below this value keeps the dynamics box-invariant for
    every control schedule.
    """
    inflow = net.weights @ net.populations / net.populations
    return float(1.0 / (1.0 + inflow.max()))


def check_state(state: EpidemicState, net: LocationNetwork, kind: ModelKind) -> None:
    """Refuse a start state that does not fit the model or lies outside [0, n_i]."""
    _check_fit(state, net, ModelKind(kind))
    if np.any(state.infected > net.populations):
        raise ValueError("infected counts exceed local populations")
    if state.removed is not None and np.any(
        state.infected + state.removed > net.populations
    ):
        raise ValueError("infected plus removed exceed local populations")


def _check_fit(state: EpidemicState, net: LocationNetwork, kind: ModelKind) -> None:
    if state.m != net.m:
        raise ValueError(f"state has {state.m} locations, network has {net.m}")
    if kind is ModelKind.SIS and state.removed is not None:
        raise ValueError("SIS state must not carry a removed compartment")
    if kind is ModelKind.SIR and state.removed is None:
        raise ValueError("SIR state requires a removed compartment")


def _control_bits(u, m: int) -> np.ndarray:
    return np.zeros(m, dtype=np.int8) if u is None else as_bits(u, m)


def _force(x: np.ndarray, u: np.ndarray, net: LocationNetwork) -> np.ndarray:
    return x + (1 - u) * (x @ net.weights.T)


def _step(
    state: EpidemicState,
    net: LocationNetwork,
    params: EpidemicParams,
    u,
    kind: ModelKind,
) -> EpidemicState:
    if params.kind is not kind:
        raise ValueError(f"expected {kind.value} parameters, got {params.kind.value}")
    _check_fit(state, net, kind)
    x_next, y_next = step_arrays(
        state.infected, state.removed, _control_bits(u, net.m), net, params
    )
    return EpidemicState(x_next, y_next)


def step_sis(
    state: EpidemicState,
    net: LocationNetwork,
    params: EpidemicParams,
    u=None,
) -> EpidemicState:
    """One SIS update: recovery back to susceptible plus new contagions."""
    return _step(state, net, params, u, ModelKind.SIS)


def step_sir(
    state: EpidemicState,
    net: LocationNetwork,
    params: EpidemicParams,
    u=None,
) -> EpidemicState:
    """One SIR update: recovered individuals move to the removed pool."""
    return _step(state, net, params, u, ModelKind.SIR)


def _normalize_schedule(controls, steps: int, m: int) -> np.ndarray:
    """One validated control vector for None or a 1-D control, else the rows."""
    if controls is None:
        return np.zeros(m, dtype=np.int8)
    arr = np.asarray(controls)
    if arr.ndim == 1:
        return as_bits(arr, m)
    if arr.shape[0] != steps:
        raise ValueError(f"schedule has {arr.shape[0]} controls for {steps} steps")
    return np.stack([as_bits(arr[t], m) for t in range(steps)])


def _record(state0: EpidemicState, steps: int, advance) -> Trajectory:
    """Record ``advance(t, state) -> (u, next_state)`` for t < ``steps``.  The
    arrays are allocated first; numpy's MemoryError (the host cannot hold
    them) or ValueError (it cannot address them) becomes one naming steps."""
    try:
        controls = np.zeros((steps, state0.m), dtype=np.int8)
        xs = np.empty((steps + 1, state0.m))
        ys = None if state0.removed is None else np.empty_like(xs)
    except (MemoryError, ValueError) as exc:
        raise ValueError(
            f"steps={steps} needs per-step arrays that cannot be allocated ({exc})"
        ) from exc
    state = state0
    for t in range(steps + 1):
        xs[t] = state.infected
        if ys is not None:
            ys[t] = state.removed
        if t < steps:
            controls[t], state = advance(t, state)
    return Trajectory(xs, controls, ys)


def simulate(
    net: LocationNetwork,
    params: EpidemicParams,
    state0: EpidemicState,
    controls=None,
    steps: int = 0,
) -> Trajectory:
    """Iterate the dynamics for ``steps`` steps from ``state0``.

    ``controls`` may be a (steps, M) schedule, a single length-M vector
    applied at every step, or None for the uncontrolled run.  The function
    is pure: identical inputs give bit-identical trajectories.  A step
    count whose per-step arrays cannot be allocated is refused with a
    ValueError naming ``steps`` before any step is taken.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    check_state(state0, net, params.kind)
    schedule = _normalize_schedule(controls, steps, net.m)
    step = step_sis if params.kind is ModelKind.SIS else step_sir

    def advance(t: int, state: EpidemicState):
        u = schedule if schedule.ndim == 1 else schedule[t]
        return u, step(state, net, params, u)

    return _record(state0, steps, advance)


def cost(traj: Trajectory, u, gamma: float, net: LocationNetwork) -> float:
    """Outbreak cost: infections summed over t = 1..T plus gamma-weighted
    isolated population mass.

    ``u`` is the constant control that produced the trajectory; the t = 0
    state never enters the infection term.
    """
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    uu = as_bits(u, net.m)
    infections = float(traj.infected[1:].sum())
    return infections + gamma * float(np.dot(net.populations, uu))


# -- batched array kernels (shared by the QUBO builders and the test oracle) -


def step_arrays(
    x: np.ndarray,
    y: np.ndarray | None,
    u: np.ndarray,
    net: LocationNetwork,
    params: EpidemicParams,
) -> tuple[np.ndarray, np.ndarray | None]:
    """The SIS (``y`` None) or SIR update, for one state or a batch of them.

    ``x`` (and ``y`` for SIR) may be (M,) or (B, M); ``u`` must broadcast
    against them.  Returns the next (x, y) pair without validation.  A
    single state must be passed 1-D: the rows of a (1, M) batch can differ
    from it in the last bits.  A 1-D ``x`` with (B, M) controls ``u`` runs
    one matrix-vector product shared by every row, so each row equals the
    single-state update bit for bit; the returned ``y`` is then still 1-D.
    """
    x_next = _local_update(_force(x, u, net), x, y, net.populations, params)
    return x_next, None if y is None else y + params.mu * x


def _local_update(
    alpha: np.ndarray,
    x: np.ndarray,
    y: np.ndarray | None,
    n: np.ndarray,
    params: EpidemicParams,
) -> np.ndarray:
    """``x_next = (1 - mu) x + (lam / n)(n - x [- y]) alpha``, elementwise.

    Built in ``alpha``'s buffer, which is returned: batches of probe controls
    hold several (B, M) arrays at once, and each live one costs B * M floats.
    IEEE + and * commute, so the operand swaps keep every bit.  ``n`` and the
    states may be gathered at any locations, as long as they line up.
    """
    alpha *= (params.lam / n) * (n - x if y is None else n - x - y)
    alpha += (1.0 - params.mu) * x
    return alpha


def batch_infection_cost(
    net: LocationNetwork,
    params: EpidemicParams,
    state0: EpidemicState,
    controls: np.ndarray,
    steps: int,
) -> np.ndarray:
    """Infection part of the cost (no gamma term) for a batch of constant
    controls, one row per control vector.

    Its callers are the numeric builder's z = 0 probe, one all-isolated
    row, and the brute-force oracle in ``tests/conftest.py``, which scans
    every control.
    Step 1 is computed once from the 1-D start state: one matrix-vector
    product serves every row, so a row's step 1 does not depend on the
    batch and equals ``simulate``'s step 1.  Later steps run one
    matrix-matrix product per call, whose rows BLAS may round differently
    for different row counts; an all-isolated row multiplies that product
    by zero, so its cost does not depend on the row count.
    """
    x, y = state0.infected, state0.removed
    total = np.zeros(controls.shape[0])
    for _ in range(steps):
        x, y = step_arrays(x, y, controls, net, params)
        total += x.sum(axis=1)
    return total


# -- spectral estimates ------------------------------------------------------


def _rho_of_unit_shifted(b: np.ndarray) -> float:
    """Spectral radius of I + B for nonnegative B, by power iteration.

    A nilpotent B is detected exactly: iterating B on the all-ones vector
    reaches zero within M steps, certifying rho(B) = 0 and a result of 1.
    Each iterate is divided by its largest entry, so it cannot overflow; B
    is nonnegative, so the scaling never turns a nonzero iterate into zero,
    and the iterates' supports can only shrink.  A support that keeps its
    size is therefore a fixed point and never empties, which ends the scan.
    Otherwise I + B is iterated directly; its unit diagonal removes the
    periodicity that stalls power iteration on bare adjacency structures.
    """
    m = b.shape[0]
    v = np.ones(m)
    support = m
    for _ in range(m):
        v = b @ v
        top = v.max()
        if top == 0.0:
            return 1.0
        v /= top
        previous, support = support, np.count_nonzero(v)
        if support == previous:
            break
    x = np.ones(m)
    for _ in range(SPECTRAL_MAX_ITER):
        y = x + b @ x
        est = float(np.dot(x, y) / np.dot(x, x))
        resid = float(np.linalg.norm(y - est * x) / np.linalg.norm(x))
        if resid <= SPECTRAL_TOL * est:
            return est
        x = y / np.linalg.norm(y)
    raise PowerIterationError(
        f"power iteration did not reach {SPECTRAL_TOL} in {SPECTRAL_MAX_ITER} iterations"
    )


def infection_rate_from_r0(r0: float, mu: float, net: LocationNetwork) -> float:
    """Calibrate the infection rate from a reproduction number.

    ``lam = r0 * mu / rho(A + I)`` with the spectral radius from power
    iteration.  ``r0 = 0`` is allowed and yields 0.  A network on which power
    iteration does not converge is refused with a ValueError that asks for
    the rate itself: a defective dominant eigenvalue of I + A, as two equal
    communities chained one way give, is approached only as 1/k.
    """
    if r0 < 0:
        raise ValueError("r0 must be nonnegative")
    if not np.isfinite(r0):
        raise ValueError(f"r0 must be finite, got {r0}")
    if not (0.0 < mu <= 1.0):
        raise ValueError("mu must lie in (0, 1]")
    try:
        rho = _rho_of_unit_shifted(net.weights)
    except PowerIterationError as exc:
        raise ValueError(
            f"r0 {r0} cannot be calibrated on this network ({exc}); "
            "give the infection rate lambda instead"
        ) from exc
    return r0 * mu / rho


def spectral_growth_factor(net: LocationNetwork, u) -> float:
    """Largest eigenvalue modulus of I + diag(1-u) A.

    Linearized growth diagnostic for a frozen control; not used by the
    controller.
    """
    uu = as_bits(u, net.m)
    scaled = (1 - uu)[:, None] * net.weights
    return _rho_of_unit_shifted(scaled)
