"""Seeded minimizers for the quadratic binary objectives.

All solvers share one contract: deterministic given (problem, config),
reported objective exactly equal to re-evaluating the returned bits, a
nonincreasing best-so-far trace indexed by objective-evaluation count, and,
for the heuristics, at most ``budget`` evaluations, down to M = 0.
Randomness comes from a PCG64 stream seeded per run; restarts draw from
spawned substreams so multi-restart runs stay reproducible regardless of
scheduling.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .qubo import (
    ENUM_CHUNK_BITS,
    ENUM_MAX_BITS,
    QuboProblem,
    _bit_rows,
    batch_evaluate,
    evaluate,
    fix_persistent,
    restrict,
)

__all__ = [
    "SolverConfig",
    "SolveResult",
    "incremental_delta",
    "solve_exhaustive",
    "solve_simulated_annealing",
    "solve_tabu",
    "solve_genetic",
    "solve",
    "SOLVER_NAMES",
]

SOLVER_NAMES = ("exhaustive", "sa", "tabu", "ga")


@dataclass(frozen=True)
class SolverConfig:
    """Common knobs plus per-method settings; None means a size-derived default.

    ``budget`` is the number of objective values a solver may compute: one
    full evaluation or one single-flip delta counts as one.  The exhaustive
    scan ignores it.

    Defaults: SA probes 100 random single flips for its starting temperature,
    cools by 0.97 down to 1e-3 of the start with 10*M flips per level; tabu
    tenure is ceil(M/10)+1 with a 50*M stagnation cap; the GA runs 4*M
    individuals for 200 generations with 0.9 crossover and 1/M mutation.
    """

    seed: int = 0
    budget: int = 5_000_000
    sa_initial_temperature: float | None = None
    sa_final_temperature_ratio: float = 1e-3
    sa_cooling_ratio: float = 0.97
    sa_sweeps_per_temperature: int = 10
    ts_tenure: int | None = None
    ts_stagnation_limit: int | None = None
    ts_restarts: int = 10
    ga_population: int | None = None
    ga_crossover_rate: float = 0.9
    ga_mutation_rate: float | None = None
    ga_generations: int = 200
    ga_tournament_size: int = 3
    ga_elitism: int = 1

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.budget < 1:
            raise ValueError("budget must be positive")
        if self.sa_initial_temperature is not None and self.sa_initial_temperature <= 0:
            raise ValueError("initial temperature must be positive")
        if not (0.0 < self.sa_final_temperature_ratio < 1.0):
            raise ValueError("final temperature ratio must lie in (0, 1)")
        if not (0.0 < self.sa_cooling_ratio < 1.0):
            raise ValueError("cooling ratio must lie in (0, 1)")
        if self.sa_sweeps_per_temperature < 1:
            raise ValueError("sweeps per temperature must be positive")
        if self.ts_tenure is not None and self.ts_tenure < 1:
            raise ValueError("tabu tenure must be positive")
        if self.ts_stagnation_limit is not None and self.ts_stagnation_limit < 1:
            raise ValueError("stagnation limit must be positive")
        if self.ts_restarts < 1:
            raise ValueError("restart count must be positive")
        if self.ga_population is not None and self.ga_population < 1:
            raise ValueError("population size must be positive")
        if not (0.0 <= self.ga_crossover_rate <= 1.0):
            raise ValueError("crossover rate must lie in [0, 1]")
        if self.ga_mutation_rate is not None and not (0.0 <= self.ga_mutation_rate <= 1.0):
            raise ValueError("mutation rate must lie in [0, 1]")
        if self.ga_generations < 1:
            raise ValueError("generation count must be positive")
        if self.ga_tournament_size < 1:
            raise ValueError("tournament size must be positive")
        if self.ga_elitism < 0:
            raise ValueError("elitism must be nonnegative")


@dataclass(frozen=True)
class SolveResult:
    """Solver outcome; ``objective`` always equals evaluate(q, z_best)."""

    z_best: np.ndarray
    objective: float
    evaluations: int
    wall_time: float
    trace: list[tuple[int, float]] | None = None


def _result(
    q: QuboProblem, z: np.ndarray, evals: int, start: float, trace: list[tuple[int, float]]
) -> SolveResult:
    """Package ``z`` with its exact objective and the wall time since ``start``."""
    return SolveResult(
        z_best=z,
        objective=evaluate(q, z),
        evaluations=evals,
        wall_time=time.perf_counter() - start,
        trace=trace,
    )


def incremental_delta(q: QuboProblem, z, i: int) -> float:
    """Objective change from flipping bit ``i``, without a full re-evaluation.

    Uses the linear coefficient and one dense coupling row, so the work is
    O(M) rather than the O(M^2) of a full evaluation.
    """
    if not (0 <= i < q.m):
        raise IndexError(f"bit index {i} out of range for {q.m} variables")
    zz = np.asarray(z)
    return float((1 - 2 * int(zz[i])) * (q.linear[i] + q.coupling[i] @ zz))


def solve_exhaustive(q: QuboProblem) -> SolveResult:
    """Scan every assignment; ties break to the lexicographically smallest z.

    Assignments are enumerated in lexicographic order of the bit vector and
    compared strictly, so the first optimum encountered wins.  Refuses more
    than 25 variables.
    """
    m = q.m
    if m > ENUM_MAX_BITS:
        raise ValueError(
            f"{m} variables exceed the enumeration limit of {ENUM_MAX_BITS}; "
            "choose a heuristic solver (sa, tabu or ga)"
        )
    start = time.perf_counter()
    low_bits = min(m, ENUM_CHUNK_BITS)
    high_bits = m - low_bits
    s = q.coupling
    p = q.linear

    zl = _bit_rows(1 << low_bits, low_bits).astype(np.float64)
    p_low = p[high_bits:]
    s_low = s[high_bits:, high_bits:]
    base_low = zl @ p_low + 0.5 * np.einsum("bi,ij,bj->b", zl, s_low, zl)
    p_high = p[:high_bits]
    s_high = s[:high_bits, :high_bits]
    cross = s[:high_bits, high_bits:]

    trace: list[tuple[int, float]] = []
    best_val = np.inf
    best_bits: np.ndarray | None = None
    evals = 0
    # with no high bits, the single block is the empty row and adds zeros
    for kh in range(1 << high_bits):
        zh = _bit_rows(1, high_bits, kh)[0].astype(np.float64)
        const = q.offset + zh @ p_high + 0.5 * zh @ s_high @ zh
        values = base_low + const
        values += (zh @ cross) @ zl.T
        k = int(np.argmin(values))
        evals += zl.shape[0]
        if values[k] < best_val:
            best_val = float(values[k])
            best_bits = np.concatenate([zh.astype(np.int8), zl[k].astype(np.int8)])
            trace.append((evals, best_val))
    assert best_bits is not None
    return _result(q, best_bits, evals, start, trace)


def solve_simulated_annealing(q: QuboProblem, cfg: SolverConfig) -> SolveResult:
    """Single-flip Metropolis annealing on a geometric temperature ladder.

    The local-field vector makes each proposal an O(1) delta; accepted flips
    update it in O(M).  Random numbers are drawn in blocks: the first draw
    is the initial state, then one batch for the 100 random probes whose
    largest single-flip delta magnitude sets the default starting
    temperature, then, at each temperature level, one array of flip indices
    and one of uniforms for all of that level's proposals.  A uniform ``u``
    becomes the acceptance threshold ``-T log(1 - u)``, and a flip is
    accepted when its delta does not exceed it, which is the Metropolis
    rule ``1 - u <= exp(-delta / T)``.
    """
    m = q.m
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    start = time.perf_counter()
    p = q.linear
    s = q.coupling

    z = rng.integers(0, 2, size=m, dtype=np.int8)
    fields = p + s @ z
    value = evaluate(q, z)
    evals = 1
    best_val = value
    best_z = z.copy()
    trace = [(evals, best_val)]
    if evals >= cfg.budget or m == 0:
        return _result(q, best_z, evals, start, trace)

    t0 = cfg.sa_initial_temperature
    if t0 is None:
        n = min(100, cfg.budget - evals)
        zp = rng.integers(0, 2, size=(n, m), dtype=np.int8)
        idx = rng.integers(m, size=n)
        # a single-flip delta is the flipped bit's local field up to sign
        probe_fields = p[idx] + np.einsum("ij,ij->i", s[idx], zp)
        evals += n
        probe_max = float(np.abs(probe_fields).max(initial=0.0))
        t0 = probe_max if probe_max > 0.0 else 1.0

    # signs[i] is the change of z[i] a flip makes; field_list mirrors fields
    # as Python floats, so a rejected proposal touches no NumPy object
    signs = (1 - 2 * z.astype(np.float64)).tolist()
    field_list = fields.tolist()
    temp = t0
    t_final = t0 * cfg.sa_final_temperature_ratio
    flips_per_level = cfg.sa_sweeps_per_temperature * m
    while temp > t_final and evals < cfg.budget:
        n = min(flips_per_level, cfg.budget - evals)
        idx = rng.integers(m, size=n).tolist()
        # 1 - u lies in (0, 1], so every threshold is finite and nonnegative
        thresholds = (-temp * np.log1p(-rng.random(n))).tolist()
        for e, i, threshold in zip(range(evals + 1, evals + n + 1), idx, thresholds):
            step = signs[i]
            delta = step * field_list[i]
            if delta <= threshold:
                value += delta
                if step > 0.0:
                    fields += s[i]  # s is symmetric: row i is column i
                    z[i] = 1
                else:
                    fields -= s[i]
                    z[i] = 0
                signs[i] = -step
                field_list = fields.tolist()
                if value < best_val:
                    # the running value accumulates roundoff; accept a new
                    # best only if the exact objective confirms it
                    exact = evaluate(q, z)
                    if exact < best_val:
                        best_val = exact
                        best_z = z.copy()
                        trace.append((e, best_val))
                    value = exact
        evals += n
        temp *= cfg.sa_cooling_ratio
    return _result(q, best_z, evals, start, trace)


def solve_tabu(q: QuboProblem, cfg: SolverConfig) -> SolveResult:
    """Steepest single-flip descent with a recency tabu list.

    The best admissible move is applied even when it worsens the value; a
    move is admissible when its bit left the tabu list or when it would beat
    the best value ever seen (aspiration).  A descent ends after the
    configured stagnation span; fresh restarts draw from spawned substreams
    until the restart cap or the evaluation budget runs out.
    """
    m = q.m
    start = time.perf_counter()
    p = q.linear
    s = q.coupling
    tenure = cfg.ts_tenure if cfg.ts_tenure is not None else math.ceil(m / 10) + 1
    stagnation_cap = (
        cfg.ts_stagnation_limit if cfg.ts_stagnation_limit is not None else 50 * m
    )
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.ts_restarts)

    evals = 0
    best_val = np.inf
    best_z: np.ndarray | None = None
    trace: list[tuple[int, float]] = []
    for stream in streams:
        if evals >= cfg.budget:
            break
        rng = np.random.default_rng(stream)
        z = rng.integers(0, 2, size=m, dtype=np.int8)
        signs = 1.0 - 2.0 * z  # the change of z[i] a flip makes
        fields = p + s @ z
        value = evaluate(q, z)
        evals += 1
        if value < best_val:
            best_val = value
            best_z = z.copy()
            trace.append((evals, best_val))
        tabu_until = np.zeros(m, dtype=np.int64)
        iteration = 0
        stagnant = 0
        # a move costs m evaluations; with no bits there is no move
        while 0 < m <= cfg.budget - evals and stagnant < stagnation_cap:
            deltas = signs * fields
            evals += m
            # a move is barred when it is tabu and would not beat the best
            # value: the exact complement of the admissible test
            barred = (tabu_until > iteration) & (deltas + value >= best_val)
            if barred.all():
                i = int(np.argmin(tabu_until))  # earliest-expiring move
            else:
                i = int(np.argmin(np.where(barred, np.inf, deltas)))
            value += float(deltas[i])
            if signs[i] > 0.0:
                fields += s[i]  # s is symmetric: row i is column i
                z[i] = 1
            else:
                fields -= s[i]
                z[i] = 0
            signs[i] = -signs[i]
            tabu_until[i] = iteration + tenure
            iteration += 1
            if value < best_val:
                # confirm against the exact objective; the running value
                # drifts by roundoff and must not reset stagnation on its own
                exact = evaluate(q, z)
                value = exact
                if exact < best_val:
                    best_val = exact
                    best_z = z.copy()
                    trace.append((evals, best_val))
                    stagnant = 0
                else:
                    stagnant += 1
            else:
                stagnant += 1
        if m == 0:
            break  # every restart would evaluate the same empty assignment
    assert best_z is not None
    return _result(q, best_z, evals, start, trace)


def solve_genetic(q: QuboProblem, cfg: SolverConfig) -> SolveResult:
    """Generational GA: tournament parents, uniform crossover, bit mutation.

    Each generation keeps the stable-sorted elite and draws every
    tournament (with replacement), crossover decision, crossover mask and
    mutation flip for the rest of the population as one array each.  The
    initial population holds at most ``budget`` individuals.
    """
    m = q.m
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    start = time.perf_counter()
    if m == 0:  # the empty assignment is the whole search space
        z = np.zeros(0, dtype=np.int8)
        return _result(q, z, 1, start, [(1, evaluate(q, z))])
    pop_size = cfg.ga_population if cfg.ga_population is not None else 4 * m
    pop_size = min(pop_size, cfg.budget)
    mutation = cfg.ga_mutation_rate if cfg.ga_mutation_rate is not None else 1.0 / m
    elite_count = min(cfg.ga_elitism, pop_size)
    children = pop_size - elite_count

    pop = rng.integers(0, 2, size=(pop_size, m), dtype=np.int8)
    fitness = batch_evaluate(q, pop)
    evals = pop_size
    k = int(np.argmin(fitness))
    best_val = float(fitness[k])
    best_z = pop[k].copy()
    trace = [(evals, best_val)]

    for _ in range(cfg.ga_generations):
        if evals + pop_size > cfg.budget:
            break
        picks = rng.integers(pop_size, size=(2, children, cfg.ga_tournament_size))
        winners = np.take_along_axis(picks, fitness[picks].argmin(axis=2)[..., None], axis=2)
        parents = pop[winners[..., 0]]
        crossed = rng.random(children) < cfg.ga_crossover_rate
        masks = rng.integers(0, 2, size=(children, m), dtype=np.int8) == 1
        offspring = np.where(masks | ~crossed[:, None], parents[0], parents[1])
        if mutation > 0.0:
            offspring ^= (rng.random((children, m)) < mutation).astype(np.int8)
        elite = pop[np.argsort(fitness, kind="stable")[:elite_count]]
        pop = np.concatenate([elite, offspring])
        fitness = batch_evaluate(q, pop)
        evals += pop_size
        k = int(np.argmin(fitness))
        if fitness[k] < best_val:
            best_val = float(fitness[k])
            best_z = pop[k].copy()
            trace.append((evals, best_val))
    return _result(q, best_z, evals, start, trace)


def solve(q: QuboProblem, method: str, cfg: SolverConfig | None = None) -> SolveResult:
    """Run the named solver; ``cfg`` is ignored by the exhaustive scan."""
    if method == "exhaustive":
        return solve_exhaustive(q)
    cfg = cfg if cfg is not None else SolverConfig()
    if method == "sa":
        return solve_simulated_annealing(q, cfg)
    if method == "tabu":
        return solve_tabu(q, cfg)
    if method == "ga":
        return solve_genetic(q, cfg)
    raise ValueError(f"unknown solver {method!r}; expected one of {SOLVER_NAMES}")


# private, so a trace that wraps every public function (bench/spans.py)
# still sees each ``solve`` directly under the controller step that asked
def _fix_and_solve(q: QuboProblem, method: str, cfg: SolverConfig | None = None) -> SolveResult:
    """Fix the persistent bits, ``solve`` the rest and lift back to every bit.

    The fixed bits (``fix_persistent``) hold in every minimizer, so the
    exhaustive scan still returns the lexicographically smallest one.  The
    result has all ``q.m`` bits and the exact objective of ``q``;
    ``evaluations`` and ``trace`` are the reduced solve's, and the wall time
    includes the fixing.
    """
    start = time.perf_counter()
    z = fix_persistent(q)
    reduced = solve(restrict(q, z), method, cfg)
    z[z < 0] = reduced.z_best
    return _result(q, z, reduced.evaluations, start, reduced.trace)
