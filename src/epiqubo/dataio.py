"""File formats: network CSVs, scenario documents, and run reports.

CSV schemas (UTF-8, header row required):
    edges.csv       from,to,weight          directed, ingested as-is
    population.csv  location,name,population
    cases.csv       location,infected[,removed]

Location references in edge and case rows may use either the ``location``
identifier or the ``name`` from the population file; row order in the
population file defines the 0-based index space.  Blank lines are skipped;
rows are numbered with the header as row 1, not counting blank lines.  A
row with fewer or more fields than its header is refused.

A scenario document is a flat ``key = value`` text file; unknown keys are
rejected so typos fail loudly instead of silently running defaults.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path

import numpy as np

from .controller import ControlLog, MetricsReport
from .epinet import EpidemicState, LocationNetwork, ModelKind, Trajectory
from .solvers import SolverConfig

__all__ = [
    "NetworkFiles",
    "load_network",
    "load_cases",
    "initial_state",
    "generate_synthetic",
    "write_network_csvs",
    "write_cases_csv",
    "parse_scenario_text",
    "scenario_to_text",
    "build_run_report",
    "write_run_report",
    "trajectory_csv_text",
    "read_trajectory_totals",
]

PROFILES = ("ring", "complete", "gravity")

GRAVITY_POP_RANGE = (5e4, 5e6)
GRAVITY_MAX_WEIGHT = 0.5
RING_WEIGHT = 0.25
COMPLETE_WEIGHT = 0.1


@dataclass(frozen=True)
class NetworkFiles:
    """Paths for one network: edge list, populations, optional initial cases."""

    edges: str | Path
    population: str | Path
    cases: str | Path | None = None


def _read_csv_rows(
    path: str | Path, expected: list[str], optional: list[str] | None = None
) -> dict[str, list[str]]:
    """Read a CSV into ``{column: [field, ...]}`` after checking its header;
    blank lines, row numbers and field counts as the module docstring says."""
    optional = optional or []
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, expected header {expected}")
        allowed = expected + optional
        if header[: len(expected)] != expected or any(col not in allowed for col in header):
            raise ValueError(f"{path}: expected header {expected}, got {header}")
        rows = [row for row in reader if row]
    width = len(header)
    if set(map(len, rows)) - {width}:
        rownum, row = next((n, row) for n, row in enumerate(rows, start=2) if len(row) != width)
        raise ValueError(f"{path}: row {rownum} has {len(row)} fields, expected {width}")
    return {name: [row[k] for row in rows] for k, name in enumerate(header)}


def _load_populations(path: str | Path):
    cols = _read_csv_rows(path, ["location", "name", "population"])
    populations: list[float] = []
    names: list[str] = []
    resolver: dict[str, int] = {}
    for idx, (raw_loc, raw_name, raw_pop) in enumerate(
        zip(cols["location"], cols["name"], cols["population"])
    ):
        loc = raw_loc.strip()
        name = raw_name.strip()
        try:
            pop = float(raw_pop)
        except ValueError:
            raise ValueError(f"{path}: bad population {raw_pop!r} for {loc!r}")
        if pop <= 0:
            raise ValueError(f"{path}: population must be positive at location {loc!r}")
        for key in {loc, name}:
            if key in resolver and resolver[key] != idx:
                raise ValueError(f"{path}: duplicate location reference {key!r}")
            resolver[key] = idx
        populations.append(pop)
        names.append(name)
    if not populations:
        raise ValueError(f"{path}: no locations defined")
    return np.asarray(populations), names, resolver


def _resolve(ref: str, resolver: dict[str, int], path, rownum: int) -> int:
    key = ref.strip()
    if key not in resolver:
        raise ValueError(f"{path}: unknown location reference {key!r} (row {rownum})")
    return resolver[key]


def _floats(column: list[str]) -> tuple[np.ndarray, int]:
    """Parse a column with ``float``. Returns the values and the index of the
    first field that does not parse (``len(column)`` when all do); the
    values from that index on read 0."""
    values = np.zeros(len(column))
    try:
        values[:] = list(map(float, column))
        return values, len(column)
    except ValueError:
        for k, raw in enumerate(column):
            try:
                values[k] = float(raw)
            except ValueError:
                return values, k
        raise


def _load_edges(path: str | Path, resolver: dict[str, int], m: int) -> np.ndarray:
    cols = _read_csv_rows(path, ["from", "to", "weight"])
    src, dst, raw = cols["from"], cols["to"], cols["weight"]
    i = np.array([resolver.get(s.strip(), -1) for s in src], dtype=np.intp)
    j = np.array([resolver.get(s.strip(), -1) for s in dst], dtype=np.intp)
    w, bad = _floats(raw)
    unknown = (i < 0) | (j < 0)
    # a row repeats a pair when an earlier row resolved to the same (i, j);
    # unknown rows share one spare key, since they fail before this check
    key = np.where(unknown, m * m, i * m + j)
    repeat = np.zeros(len(key), dtype=bool)
    if len(key) and np.bincount(key).max() > 1:
        repeat[:] = True
        repeat[np.unique(key, return_index=True)[1]] = False
    failed = unknown | (i == j) | repeat | (w < 0)
    first = min(int(np.argmax(failed)) if failed.any() else len(key), bad)
    if first < len(key):
        # the first failing row in file order, with its first failing check
        k, rownum = first, first + 2
        for ref in (src[k], dst[k]):
            _resolve(ref, resolver, path, rownum)
        if i[k] == j[k]:
            raise ValueError(f"{path}: self-loop edge at location {src[k]!r} (row {rownum})")
        if repeat[k]:
            raise ValueError(f"{path}: duplicate edge {src[k]!r}->{dst[k]!r} (row {rownum})")
        if k == bad:
            raise ValueError(f"{path}: bad weight {raw[k]!r} (row {rownum})")
        raise ValueError(f"{path}: negative weight at row {rownum}")
    weights = np.zeros((m, m))
    weights[i, j] = w
    return weights


def load_cases(path: str | Path, resolver: dict[str, int], populations: np.ndarray):
    """Read a cases CSV into ``(infected, removed)`` arrays indexed through
    ``resolver``; ``removed`` is None when the file has no removed column."""
    cols = _read_csv_rows(path, ["location", "infected"], optional=["removed"])
    has_removed = "removed" in cols
    m = len(populations)
    infected = np.zeros(m)
    removed = np.zeros(m) if has_removed else None
    locs = cols["location"]
    rems = cols["removed"] if has_removed else [""] * len(locs)
    for rownum, (raw_loc, raw_inf, raw_rem) in enumerate(
        zip(locs, cols["infected"], rems), start=2
    ):
        idx = _resolve(raw_loc, resolver, path, rownum)
        try:
            inf = float(raw_inf)
        except ValueError:
            raise ValueError(f"{path}: bad infected count {raw_inf!r} (row {rownum})")
        if inf < 0:
            raise ValueError(f"{path}: negative infected count at row {rownum}")
        rem = 0.0
        if raw_rem:
            try:
                rem = float(raw_rem)
            except ValueError:
                raise ValueError(f"{path}: bad removed count {raw_rem!r} (row {rownum})")
            if rem < 0:
                raise ValueError(f"{path}: negative removed count at row {rownum}")
        if inf + rem > populations[idx]:
            raise ValueError(f"cases exceed population at location {idx}")
        infected[idx] = inf
        if removed is not None:
            removed[idx] = rem
    return infected, removed


def load_network(files: NetworkFiles):
    """Load a network plus raw initial case arrays.

    Returns ``(network, names, infected, removed)``; ``infected`` is all
    zeros when no cases file is given, and ``removed`` is None when the
    cases file has no removed column.
    """
    populations, names, resolver = _load_populations(files.population)
    weights = _load_edges(files.edges, resolver, len(populations))
    net = LocationNetwork(populations, weights)
    if files.cases is None:
        return net, names, np.zeros(net.m), None
    infected, removed = load_cases(files.cases, resolver, populations)
    return net, names, infected, removed


def initial_state(
    kind: ModelKind, m: int, infected=None, removed=None
) -> EpidemicState:
    """Assemble a model-appropriate state; SIR gets a zero removed pool by default."""
    x = np.zeros(m) if infected is None else np.asarray(infected, dtype=np.float64)
    if ModelKind(kind) is ModelKind.SIS:
        return EpidemicState(x)
    y = np.zeros(m) if removed is None else np.asarray(removed, dtype=np.float64)
    return EpidemicState(x, y)


# -- synthetic networks --------------------------------------------------------


def generate_synthetic(m: int, profile: str, seed: int) -> LocationNetwork:
    """Deterministic synthetic network for a given (m, profile, seed).

    Populations are drawn log-uniformly in [5e4, 5e6] for every profile.
    ``ring`` links circular neighbors, ``complete`` links every pair with
    one weight, and ``gravity`` places locations uniformly in the unit
    square and sets ``A[i, j]`` proportional to ``n_j / distance(i, j)``,
    rescaled so the largest weight is 0.5.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; expected one of {PROFILES}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    try:
        weights = np.zeros((m, m))
    except (MemoryError, ValueError) as exc:
        raise ValueError(f"m={m} needs a {m}x{m} weight matrix that cannot be allocated") from exc
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    lo, hi = GRAVITY_POP_RANGE
    populations = np.exp(rng.uniform(np.log(lo), np.log(hi), size=m))
    if m > 1:
        if profile == "ring":
            for i in range(m):
                weights[i, (i + 1) % m] = RING_WEIGHT
                weights[i, (i - 1) % m] = RING_WEIGHT
        elif profile == "complete":
            weights[:] = COMPLETE_WEIGHT
            np.fill_diagonal(weights, 0.0)
        else:
            coords = rng.uniform(0.0, 1.0, size=(m, 2))
            diff = coords[:, None, :] - coords[None, :, :]
            dist = np.sqrt((diff**2).sum(axis=2))
            with np.errstate(divide="ignore"):
                weights = populations[None, :] / dist
            np.fill_diagonal(weights, 0.0)
            weights *= GRAVITY_MAX_WEIGHT / weights.max()
    return LocationNetwork(populations, weights)


def write_network_csvs(
    net: LocationNetwork, out_dir: str | Path, names: list[str] | None = None
) -> tuple[Path, Path]:
    """Emit canonical edges.csv and population.csv; re-importing them gives
    back an identical network."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if names is None:
        names = [f"loc_{i}" for i in range(net.m)]
    pop_path = out / "population.csv"
    with pop_path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["location", "name", "population"])
        for i in range(net.m):
            writer.writerow([i, names[i], repr(float(net.populations[i]))])
    edges_path = out / "edges.csv"
    with edges_path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["from", "to", "weight"])
        for i in range(net.m):
            for j in range(net.m):
                if net.weights[i, j] != 0.0:
                    writer.writerow([i, j, repr(float(net.weights[i, j]))])
    return edges_path, pop_path


def write_cases_csv(
    path: str | Path, infected, removed=None
) -> Path:
    """Emit a cases.csv for the given arrays (all locations, explicit zeros)."""
    path = Path(path)
    infected = np.asarray(infected, dtype=np.float64)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        if removed is None:
            writer.writerow(["location", "infected"])
            for i, x in enumerate(infected):
                writer.writerow([i, repr(float(x))])
        else:
            removed = np.asarray(removed, dtype=np.float64)
            writer.writerow(["location", "infected", "removed"])
            for i, x in enumerate(infected):
                writer.writerow([i, repr(float(x)), repr(float(removed[i]))])
    return path


# -- scenario documents ---------------------------------------------------------

# every key a scenario document may set, in the order a resolved scenario
# echoed from command-line flags lists them
SCENARIO_KEYS = (
    "model", "lambda", "r0", "mu", "gamma", "steps", "solver", "builder", "seed", "force",
    "edges", "population", "cases", "profile", "m", "network_seed",
    *(f.name for f in dataclass_fields(SolverConfig) if f.name != "seed"),
)
_SCENARIO_REQUIRED = {"model", "mu", "gamma"}


def parse_scenario_text(text: str) -> dict[str, str]:
    """Parse a flat ``key = value`` document; unknown keys are errors."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"scenario line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in SCENARIO_KEYS:
            raise ValueError(f"scenario line {lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"scenario line {lineno}: duplicate key {key!r}")
        values[key] = value
    missing = _SCENARIO_REQUIRED - values.keys()
    if missing:
        raise ValueError(f"scenario is missing required keys: {sorted(missing)}")
    if ("lambda" in values) == ("r0" in values):
        raise ValueError("scenario must set exactly one of 'lambda' or 'r0'")
    file_mode = "edges" in values or "population" in values
    synth_mode = "profile" in values or "m" in values
    if file_mode == synth_mode:
        raise ValueError(
            "scenario must name a network either by files (edges+population) "
            "or by generator (profile+m), not both"
        )
    if file_mode and not ("edges" in values and "population" in values):
        raise ValueError("file-based scenario needs both 'edges' and 'population'")
    if synth_mode and not ("profile" in values and "m" in values):
        raise ValueError("synthetic scenario needs both 'profile' and 'm'")
    return values


def scenario_to_text(echo: dict) -> str:
    """Render an echo mapping back into the flat scenario document."""
    lines = [f"{key} = {value}" for key, value in echo.items() if value is not None]
    return "\n".join(lines) + "\n"


# -- run reports ---------------------------------------------------------------


def build_run_report(
    echo: dict,
    metrics: MetricsReport,
    log: ControlLog,
    baseline: Trajectory,
) -> dict:
    """Assemble the machine-readable report.

    Everything outside the ``timing`` subtree is a pure function of the
    scenario, so two runs with the same config and seed produce identical
    documents there.
    """
    traj = log.trajectory
    wall = log.wall_times
    report = {
        "scenario": dict(echo),
        "metrics": metrics.as_dict(),
        "controls": traj.controls.astype(int).tolist(),
        "objectives": log.objectives.tolist(),
        "evaluations": log.evaluations.tolist(),
        "trajectory": {
            "infected": traj.infected.tolist(),
            "removed": None if traj.removed is None else traj.removed.tolist(),
        },
        "baseline": {"infected": baseline.infected.tolist()},
        "timing": {
            "per_step_seconds": wall.tolist(),
            "total_seconds": float(wall.sum()),
            "mean_seconds": float(wall.mean()),
            "max_seconds": float(wall.max()),
        },
    }
    return report


def trajectory_csv_text(traj: Trajectory) -> str:
    """Plot-ready CSV: one row per step with the aggregate and per-location
    infected counts."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["step", "total"] + [f"loc_{i}" for i in range(traj.m)])
    totals = traj.totals()
    for t in range(traj.infected.shape[0]):
        row = [t, repr(float(totals[t]))] + [repr(float(v)) for v in traj.infected[t]]
        writer.writerow(row)
    return buf.getvalue()


def read_trajectory_totals(path: str | Path) -> np.ndarray:
    """Aggregate infected per step from a trajectory CSV."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or reader.fieldnames[:2] != ["step", "total"]:
            raise ValueError(f"{path}: expected a trajectory CSV with 'step,total,...' header")
        totals = [float(row["total"]) for row in reader]
    if not totals:
        raise ValueError(f"{path}: no rows")
    return np.asarray(totals)


def write_run_report(
    out_dir: str | Path,
    report: dict,
    log: ControlLog,
    baseline: Trajectory,
) -> None:
    """Write report.json, the two trajectory CSVs, and the resolved scenario."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    (out / "trajectory.csv").write_text(
        trajectory_csv_text(log.trajectory), encoding="utf-8"
    )
    (out / "baseline.csv").write_text(trajectory_csv_text(baseline), encoding="utf-8")
    (out / "scenario.resolved").write_text(
        scenario_to_text(report["scenario"]), encoding="utf-8"
    )
