"""File formats: network CSVs, scenario documents, and run reports, which one
writer, ``write_run_report``, builds and writes.

CSV schemas (UTF-8, header row required):
    edges.csv       from,to,weight          directed, ingested as-is
    population.csv  location,name,population
    cases.csv       location,infected[,removed]
    trajectory.csv  step,total,loc_0,...,loc_{M-1}   read back by ``metrics``

Location references in edge and case rows may use either the ``location``
identifier or the ``name`` from the population file; row order in the
population file defines the 0-based index space.  A header that repeats a
column is refused.  Blank lines are skipped; rows are numbered with the
header as row 1, not counting blank lines.  A row with fewer or more fields
than its header is refused, and so is broken quoting (a quote left open, or
text after a closing quote), as the ``csv`` module's strict mode reads it;
those refusals win over a bad value anywhere in the file.  Files are read
``_CSV_CHUNK_ROWS`` rows at a time and only arrays are kept between chunks,
so memory follows the M x M weight matrix, not the size of the file.  One
parser, ``qubo._parsed``, reads every numeric column up to its first bad
field (a population, weight or case count that reads as ``nan`` or an
infinity is bad too), and one rule, ``qubo._refuse``, orders every refusal
after those: the first failing row, by its first failing check.  Cases name
a location at most once, through either alias; a trajectory ``total`` equals
its row's ``loc_i`` sum as ``Trajectory.totals`` sums it.  The writers end
network and cases lines with CRLF, the ``csv`` module's default, and
trajectory lines with LF.

A scenario document is a flat ``key = value`` text file; unknown keys are
rejected so typos fail loudly instead of silently running defaults.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, fields as dataclass_fields
from itertools import count, islice
from pathlib import Path

import numpy as np

from .controller import ControlLog, MetricsReport
from .epinet import EpidemicState, LocationNetwork, ModelKind, Trajectory
from .qubo import _parsed, _refuse, _repeats
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
    "write_run_report",
    "trajectory_csv_text",
    "read_trajectory_totals",
]

PROFILES = ("ring", "complete", "gravity")

GRAVITY_POP_RANGE = (5e4, 5e6)
GRAVITY_MAX_WEIGHT = 0.5
RING_WEIGHT = 0.25
COMPLETE_WEIGHT = 0.1
# Non-blank CSV rows held at a time while a file is read.  On the M = 300
# gravity study edges (90,000 rows, 2-vCPU host), chunks of 2^8 to 2^14 rows
# loaded in the same time within noise, while the peak traced allocation of
# ``load_network`` grew from 1.1 MB (2^8) and 1.5 MB (2^10) to 10.8 MB (2^14).
_CSV_CHUNK_ROWS = 1 << 10


@dataclass(frozen=True)
class NetworkFiles:
    """Paths for one network: edge list, populations, optional initial cases."""

    edges: str | Path
    population: str | Path
    cases: str | Path | None = None


def _read_csv_rows(
    path: str | Path,
    expected: list[str],
    optional: list[str] | Callable[[int], list[str]] | None = None,
):
    """Yield ``(first_row_number, {column: (field, ...)})`` for up to
    ``_CSV_CHUNK_ROWS`` non-blank rows at a time, after checking the header:
    the expected columns first, then optional ones (a list, or a function of
    the header's column count that returns one), none repeated.  Blank
    lines, row numbers, field counts and quoting as the module docstring
    says; a row with the wrong field count or broken quoting raises when its
    chunk is read, the earlier such row first.  The last chunk holds fewer
    rows than a full one, so a file without rows yields one empty chunk that
    still names the header's columns."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle, strict=True)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise ValueError(f"{path}: row 1: {exc}") from None
        if header is None:
            raise ValueError(f"{path}: empty file, expected header {expected}")
        allowed = expected + (optional(len(header)) if callable(optional) else optional or [])
        if (
            header[: len(expected)] != expected
            or any(col not in allowed for col in header)
            or len(set(header)) != len(header)
        ):
            raise ValueError(f"{path}: expected header {expected}, got {header}")
        width = len(header)
        rows = filter(None, reader)
        rownum = 2
        while True:
            chunk, malformed = [], None
            try:
                for row in islice(rows, _CSV_CHUNK_ROWS):
                    chunk.append(row)
            except csv.Error as exc:
                malformed = f"{path}: row {rownum + len(chunk)}: {exc}"
            if set(map(len, chunk)) - {width}:
                k, row = next((k, row) for k, row in enumerate(chunk) if len(row) != width)
                raise ValueError(f"{path}: row {rownum + k} has {len(row)} fields, expected {width}")
            if malformed:
                raise ValueError(malformed)
            yield rownum, dict(zip(header, zip(*chunk))) if chunk else dict.fromkeys(header, ())
            if len(chunk) < _CSV_CHUNK_ROWS:
                return
            rownum += len(chunk)


def _finite(column, parse=float) -> tuple[np.ndarray, int]:
    """``column`` parsed by ``qubo._parsed`` as a float array of its parsed
    prefix, and the index of its first bad field: one that ``parse`` refuses
    or that reads as ``nan`` or an infinity (``len(column)`` when none is)."""
    values, bad = _parsed(column, parse)
    array = np.array(values, dtype=np.float64)
    nonfinite = ~np.isfinite(array)
    return array, int(np.argmax(nonfinite)) if nonfinite.any() else bad


@contextmanager
def _field_counts_first(chunks):
    """Hold a content error raised while ``chunks`` are consumed until the
    rest of the file has been read, so that a row with the wrong field
    count anywhere in the file is reported before it."""
    try:
        yield
    except ValueError:
        for _ in chunks:
            pass
        raise


def _load_populations(path: str | Path):
    parts: list[np.ndarray] = []
    names: list[str] = []
    resolver: dict[str, int] = {}
    chunks = _read_csv_rows(path, ["location", "name", "population"])
    with _field_counts_first(chunks):
        for _, cols in chunks:
            pops, bad = _finite(cols["population"])
            locs = [loc.strip() for loc in cols["location"]]
            start = len(names)
            names += (name.strip() for name in cols["name"])
            # a key keeps the first row that names it; a row's id is checked first
            taken = [next((key for key in pair if resolver.setdefault(key, idx) != idx), None)
                     for idx, pair in enumerate(zip(locs, names[start:]), start)]
            _refuse(len(locs), [
                (bad, lambda k: f"bad population {cols['population'][k]!r} for {locs[k]!r}"),
                (pops <= 0,
                 lambda k: f"population must be positive at location {locs[k]!r}"),
                (next((k for k, key in enumerate(taken) if key is not None), len(taken)),
                 lambda k: f"duplicate location reference {taken[k]!r}"),
            ], lambda what: ValueError(f"{path}: {what}"))
            parts.append(pops)
    populations = np.concatenate(parts)
    if not populations.size:
        raise ValueError(f"{path}: no locations defined")
    return populations, names, resolver


def _refs(resolver: dict[str, int], column) -> np.ndarray:
    """The location index of each reference in ``column``, -1 where unknown."""
    return np.array([resolver.get(ref.strip(), -1) for ref in column], dtype=np.intp)


def _load_edges(path: str | Path, resolver: dict[str, int], m: int) -> np.ndarray:
    weights = np.zeros((m, m))
    # pairs i * m + j loaded so far; the spare last key stands for an unknown
    # reference and is never set, since such a row fails before this check
    seen = np.zeros(m * m + 1, dtype=bool)
    chunks = _read_csv_rows(path, ["from", "to", "weight"])
    with _field_counts_first(chunks):
        for row0, cols in chunks:
            src, dst, raw = cols["from"], cols["to"], cols["weight"]
            i, j = _refs(resolver, src), _refs(resolver, dst)
            w, bad = _finite(raw)
            unknown = (i < 0) | (j < 0)
            key = np.where(unknown, m * m, i * m + j)
            _refuse(len(key), [
                (unknown, lambda k: "unknown location reference "
                 f"{(src[k] if i[k] < 0 else dst[k]).strip()!r} (row {row0 + k})"),
                (i == j, lambda k: f"self-loop edge at location {src[k]!r} (row {row0 + k})"),
                (_repeats(seen, key),
                 lambda k: f"duplicate edge {src[k]!r}->{dst[k]!r} (row {row0 + k})"),
                (bad, lambda k: f"bad weight {raw[k]!r} (row {row0 + k})"),
                (w < 0, lambda k: f"negative weight at row {row0 + k}"),
            ], lambda what: ValueError(f"{path}: {what}"))
            seen[key] = True
            weights[i, j] = w
    return weights


def load_cases(path: str | Path, resolver: dict[str, int], populations: np.ndarray):
    """Read a cases CSV into ``(infected, removed)`` arrays indexed through
    ``resolver``; ``removed`` is None when the file has no removed column.
    After whole-file field counts and quoting, ``qubo._refuse`` names the first
    failing row by its first failing check: unknown or repeated location (any
    alias), bad or negative infected, bad or negative removed, excess cases."""
    m = len(populations)
    infected, removed = np.zeros(m), np.zeros(m)
    # locations read so far; an unknown reference's -1 indexes the spare last
    # entry, which is never set, since such a row fails before this check
    seen = np.zeros(m + 1, dtype=bool)
    chunks = _read_csv_rows(path, ["location", "infected"], optional=["removed"])
    with _field_counts_first(chunks):
        for row0, cols in chunks:
            locs = [loc.strip() for loc in cols["location"]]
            raw_infs, raw_rems = cols["infected"], cols.get("removed", [""] * len(locs))
            idx = _refs(resolver, locs)
            inf, bad_inf = _finite(raw_infs)
            rem, bad_rem = _finite(raw_rems, lambda raw: float(raw) if raw else 0.0)
            both = min(bad_inf, bad_rem)
            _refuse(len(locs), [
                (idx < 0, lambda k: f"unknown location reference {locs[k]!r} (row {row0 + k})"),
                (_repeats(seen, idx), lambda k: f"repeated location {locs[k]!r} (row {row0 + k})"),
                (bad_inf, lambda k: f"bad infected count {raw_infs[k]!r} (row {row0 + k})"),
                (inf < 0, lambda k: f"negative infected count at row {row0 + k}"),
                (bad_rem, lambda k: f"bad removed count {raw_rems[k]!r} (row {row0 + k})"),
                (rem < 0, lambda k: f"negative removed count at row {row0 + k}"),
                (inf[:both] + rem[:both] > populations[idx[:both]],
                 lambda k: f"cases exceed population at location {idx[k]} (row {row0 + k})"),
            ], lambda what: ValueError(f"{path}: {what}"))
            seen[idx] = True
            infected[idx], removed[idx] = inf, rem
    return infected, removed if "removed" in cols else None


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
        # gravity's squared y distances; its other steps work in ``weights``
        dy2 = np.empty((m, m)) if profile == "gravity" else None
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
            x, y = rng.uniform(0.0, 1.0, size=(m, 2)).T
            np.square(np.subtract.outer(x, x, out=weights), out=weights)
            np.square(np.subtract.outer(y, y, out=dy2), out=dy2)
            weights += dy2
            np.sqrt(weights, out=weights)
            with np.errstate(divide="ignore"):
                np.divide(populations, weights, out=weights)
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
        writer.writerows(
            (i, names[i], repr(pop)) for i, pop in enumerate(net.populations.tolist())
        )
    edges_path = out / "edges.csv"
    with edges_path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["from", "to", "weight"])
        for i, row in enumerate(net.weights):
            j = np.flatnonzero(row)
            writer.writerows(zip([i] * len(j), j.tolist(), map(repr, row[j].tolist())))
    return edges_path, pop_path


def write_cases_csv(
    path: str | Path, infected, removed=None
) -> Path:
    """Emit a cases.csv for the given arrays (all locations, explicit zeros).
    A ``removed`` array of another shape than ``infected`` is refused before
    the file is opened."""
    path = Path(path)
    infected = np.asarray(infected, dtype=np.float64)
    columns = {"infected": infected}
    if removed is not None:
        removed = np.asarray(removed, dtype=np.float64)
        if removed.shape != infected.shape:
            raise ValueError(
                f"removed has shape {removed.shape}, infected has shape {infected.shape}"
            )
        columns["removed"] = removed
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["location", *columns])
        writer.writerows(zip(count(), *(map(repr, c.tolist()) for c in columns.values())))
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


def write_run_report(
    out_dir: str | Path,
    echo: dict,
    metrics: MetricsReport,
    log: ControlLog,
    baseline: Trajectory,
) -> dict:
    """Build the run report and write report.json, the two trajectory CSVs
    and the resolved scenario; return the report.

    Everything outside the report's ``timing`` subtree depends only on the
    scenario, so two runs with the same config and seed write identical
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
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    (out / "trajectory.csv").write_text(trajectory_csv_text(traj), encoding="utf-8")
    (out / "baseline.csv").write_text(trajectory_csv_text(baseline), encoding="utf-8")
    (out / "scenario.resolved").write_text(scenario_to_text(echo), encoding="utf-8")
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


def read_trajectory_totals(path: str | Path) -> tuple[np.ndarray, int]:
    """Aggregate infected per step from a trajectory CSV as
    ``trajectory_csv_text`` writes it, and the file's number of locations.
    After field counts and quoting, ``qubo._refuse`` names the first failing
    row by its first failing check: a ``step`` that does not read 0, 1, 2,
    ... row by row, a ``total`` or ``loc_i`` value that is not a finite,
    nonnegative number, and a ``total`` other than the sum of its row's
    ``loc_i`` values."""
    parts = []
    chunks = _read_csv_rows(
        path, ["step", "total"], lambda width: [f"loc_{i}" for i in range(width - 2)]
    )
    with _field_counts_first(chunks):
        for row0, cols in chunks:
            step0 = row0 - 2  # row 2 holds step 0; blank lines are not numbered
            def got(column, what):
                return lambda k: f"{what(k)}, got {cols[column][k]!r} (row {row0 + k})"
            steps, k = _parsed(cols["step"], int)
            k = next((i for i, step in enumerate(steps) if step != step0 + i), k)
            word = got("step", lambda k: f"step must read 0, 1, 2, ...: expected {step0 + k}")
            checks = [(k, word)]
            values = []
            for column, fields in islice(cols.items(), 1, None):
                parsed, bad = _parsed(fields, float)
                values.append(np.array(parsed, dtype=np.float64))
                word = got(column, lambda k, c=column: f"{c} must be a finite nonnegative number")
                checks += [(bad, word), (~(np.isfinite(values[-1]) & (values[-1] >= 0)), word)]
            total, *locs = values
            if locs:  # summed as ``Trajectory.totals`` sums: along the rows of a C-ordered array
                rows = min(map(len, values))
                sums = np.column_stack([loc[:rows] for loc in locs]).sum(axis=1)
                word = got("total", lambda k: f"total must equal the loc_i sum {float(sums[k])!r}")
                checks.append((sums != total[:rows], word))
            _refuse(len(cols["step"]), checks, lambda what: ValueError(f"{path}: {what}"))
            parts.append(total)
    totals = np.concatenate(parts)
    if not totals.size:
        raise ValueError(f"{path}: no rows")
    return totals, len(cols) - 2
