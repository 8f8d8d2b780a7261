"""Shared generators for randomized test instances, and the brute-force
control oracle that the compiled objectives are checked against."""

from __future__ import annotations

import numpy as np
import pytest

from epiqubo import (
    EpidemicParams,
    EpidemicState,
    LocationNetwork,
    ModelKind,
    QuboProblem,
    invariance_bound,
)
from epiqubo.epinet import batch_infection_cost, check_state
from epiqubo.qubo import ENUM_CHUNK_BITS, ENUM_MAX_BITS, HORIZON, _bit_rows


def random_network(rng: np.random.Generator, m: int, density: float = 0.5) -> LocationNetwork:
    """Random directed network: density-thinned U(0,1) weights, n in [10, 1000]."""
    populations = rng.uniform(10.0, 1000.0, size=m)
    weights = rng.uniform(0.0, 1.0, size=(m, m)) * (rng.random((m, m)) < density)
    np.fill_diagonal(weights, 0.0)
    return LocationNetwork(populations, weights)


def random_instance(rng: np.random.Generator, kind: ModelKind, m: int):
    """Random (network, params, state, gamma) with the rate inside the safe bound."""
    net = random_network(rng, m)
    lam = rng.uniform(0.2, 0.999) * invariance_bound(net)
    mu = rng.uniform(0.05, 1.0)
    gamma = rng.uniform(0.0, 0.1)
    params = EpidemicParams(kind, lam, mu)
    if ModelKind(kind) is ModelKind.SIS:
        state = EpidemicState(rng.uniform(0.0, 1.0, m) * net.populations)
    else:
        total = rng.uniform(0.0, 1.0, m)
        split = rng.uniform(0.0, 1.0, m)
        state = EpidemicState(
            total * split * net.populations,
            total * (1.0 - split) * net.populations,
        )
    return net, params, state, gamma


def random_qubo(rng: np.random.Generator, m: int, density: float = 0.5) -> QuboProblem:
    """Random quadratic binary objective with standard-normal coefficients."""
    linear = rng.normal(size=m)
    quadratic = {}
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() < density:
                quadratic[(i, j)] = float(rng.normal())
    return QuboProblem(linear, quadratic, float(rng.normal()))


def all_bits(m: int) -> np.ndarray:
    """Every binary vector of length m, in lexicographic order."""
    ks = np.arange(1 << m, dtype=np.int64)
    shifts = np.arange(m - 1, -1, -1, dtype=np.int64)
    return ((ks[:, None] >> shifts) & 1).astype(np.int8)


def solve_bruteforce_problem1(
    net: LocationNetwork,
    params: EpidemicParams,
    state0: EpidemicState,
    gamma: float,
    steps: int = HORIZON,
) -> np.ndarray:
    """Enumerate every control vector and return the cost minimizer.

    Ties break toward the lexicographically smallest control.  Reference
    oracle for end-to-end checks of the compiled objectives; refuses more
    than 25 locations, and then a start state that ``check_state`` refuses
    for the model kind of ``params``.
    """
    m = net.m
    if m > ENUM_MAX_BITS:
        raise ValueError(f"{m} locations exceed the enumeration limit of {ENUM_MAX_BITS}")
    check_state(state0, net, params.kind)
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    total = 1 << m
    chunk = 1 << min(m, ENUM_CHUNK_BITS)
    best_cost = np.inf
    best_u: np.ndarray | None = None
    for start in range(0, total, chunk):
        u_rows = _bit_rows(min(chunk, total - start), m, start)
        costs = batch_infection_cost(
            net, params, state0, u_rows.astype(np.float64), steps
        )
        costs += gamma * (u_rows @ net.populations)
        k = int(np.argmin(costs))
        if costs[k] < best_cost:
            best_cost = float(costs[k])
            best_u = u_rows[k].copy()
    assert best_u is not None
    return best_u


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)
