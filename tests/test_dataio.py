"""CSV ingestion, synthetic generation, scenario documents, reports."""

from __future__ import annotations

import csv
import json
import tempfile
import tracemalloc
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiqubo import (
    EpidemicState,
    LocationNetwork,
    ModelKind,
    ScenarioConfig,
    compute_metrics,
    dataio,
    run_rolling_horizon,
    run_uncontrolled_baseline,
)
from epiqubo.dataio import (
    NetworkFiles,
    generate_synthetic,
    initial_state,
    load_network,
    parse_scenario_text,
    read_trajectory_totals,
    scenario_to_text,
    trajectory_csv_text,
    write_cases_csv,
    write_network_csvs,
    write_run_report,
)
from epiqubo.epinet import Trajectory


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture
def two_loc_files(tmp_path):
    pop = write(
        tmp_path / "population.csv",
        "location,name,population\n0,alpha,100\n1,beta,50\n",
    )
    edges = write(tmp_path / "edges.csv", "from,to,weight\n0,1,0.5\n")
    return tmp_path, edges, pop


class TestLoadNetwork:
    def test_directed_edge_ingested_literally(self, two_loc_files):
        tmp, edges, pop = two_loc_files
        net, names, infected, removed = load_network(NetworkFiles(edges, pop))
        assert np.array_equal(net.weights, [[0.0, 0.5], [0.0, 0.0]])
        assert np.array_equal(net.populations, [100.0, 50.0])
        assert names == ["alpha", "beta"]
        assert np.array_equal(infected, [0.0, 0.0])
        assert removed is None

    def test_names_resolve_to_indices(self, tmp_path):
        pop = write(
            tmp_path / "p.csv", "location,name,population\nA,alpha,10\nB,beta,20\n"
        )
        edges = write(tmp_path / "e.csv", "from,to,weight\nalpha,B,0.25\n")
        net, _, _, _ = load_network(NetworkFiles(edges, pop))
        assert net.weights[0, 1] == 0.25

    def test_empty_edges_file_gives_isolated_locations(self, tmp_path):
        pop = write(tmp_path / "p.csv", "location,name,population\n0,a,10\n1,b,20\n")
        edges = write(tmp_path / "e.csv", "from,to,weight\n")
        net, _, _, _ = load_network(NetworkFiles(edges, pop))
        assert np.array_equal(net.weights, np.zeros((2, 2)))

    def test_cases_loaded_with_optional_removed(self, two_loc_files):
        tmp, edges, pop = two_loc_files
        cases = write(tmp / "cases.csv", "location,infected,removed\n0,10,5\n")
        _, _, infected, removed = load_network(NetworkFiles(edges, pop, cases))
        assert np.array_equal(infected, [10.0, 0.0])
        assert np.array_equal(removed, [5.0, 0.0])

    def test_cases_exceeding_population_rejected(self, two_loc_files):
        tmp, edges, pop = two_loc_files
        cases = write(tmp / "cases.csv", "location,infected\n0,10\n1,55\n")
        with pytest.raises(ValueError, match="cases exceed population at location 1"):
            load_network(NetworkFiles(edges, pop, cases))

    def test_unknown_location_rejected(self, two_loc_files):
        tmp, edges, pop = two_loc_files
        bad = write(tmp / "bad_edges.csv", "from,to,weight\n0,7,0.5\n")
        with pytest.raises(ValueError, match="unknown location"):
            load_network(NetworkFiles(bad, pop))

    def test_duplicate_edge_rejected(self, two_loc_files):
        tmp, edges, pop = two_loc_files
        bad = write(tmp / "dup.csv", "from,to,weight\n0,1,0.5\n0,1,0.2\n")
        with pytest.raises(ValueError, match="duplicate edge"):
            load_network(NetworkFiles(bad, pop))

    def test_self_loop_edge_rejected(self, two_loc_files):
        tmp, edges, pop = two_loc_files
        bad = write(tmp / "loop.csv", "from,to,weight\n0,0,0.5\n")
        with pytest.raises(ValueError, match="self-loop"):
            load_network(NetworkFiles(bad, pop))

    def test_negative_weight_and_population_rejected(self, tmp_path):
        pop = write(tmp_path / "p.csv", "location,name,population\n0,a,10\n1,b,-5\n")
        edges = write(tmp_path / "e.csv", "from,to,weight\n0,1,0.5\n")
        with pytest.raises(ValueError, match="population must be positive"):
            load_network(NetworkFiles(edges, pop))
        pop2 = write(tmp_path / "p2.csv", "location,name,population\n0,a,10\n1,b,5\n")
        bad = write(tmp_path / "e2.csv", "from,to,weight\n0,1,-0.5\n")
        with pytest.raises(ValueError, match="negative weight"):
            load_network(NetworkFiles(bad, pop2))

    def test_bad_header_rejected(self, tmp_path):
        pop = write(tmp_path / "p.csv", "loc,name,pop\n0,a,10\n")
        edges = write(tmp_path / "e.csv", "from,to,weight\n")
        with pytest.raises(ValueError, match="header"):
            load_network(NetworkFiles(edges, pop))


class TestShortRows:
    """A row with fewer fields than its header is refused, naming the row."""

    @pytest.mark.parametrize("row, count", [("0,1", 2), ("0", 1)])
    def test_short_edge_row(self, two_loc_files, row, count):
        tmp, _, pop = two_loc_files
        edges = write(tmp / "short.csv", f"from,to,weight\n1,0,0.5\n{row}\n")
        with pytest.raises(ValueError, match=rf"short\.csv: row 3 has {count} fields, expected 3$"):
            load_network(NetworkFiles(edges, pop))

    def test_short_population_row(self, tmp_path):
        pop = write(tmp_path / "p.csv", "location,name,population\n0,a,10\n1,b\n")
        edges = write(tmp_path / "e.csv", "from,to,weight\n")
        with pytest.raises(ValueError, match=r"p\.csv: row 3 has 2 fields, expected 3$"):
            load_network(NetworkFiles(edges, pop))

    def test_short_cases_row(self, two_loc_files):
        tmp, edges, pop = two_loc_files
        cases = write(tmp / "cases.csv", "location,infected,removed\n0,10\n")
        with pytest.raises(ValueError, match=r"cases\.csv: row 2 has 2 fields, expected 3$"):
            load_network(NetworkFiles(edges, pop, cases))

    def test_empty_removed_field_still_reads_as_zero(self, two_loc_files):
        tmp, edges, pop = two_loc_files
        cases = write(tmp / "cases.csv", "location,infected,removed\n0,10,\n1,3,2\n")
        _, _, infected, removed = load_network(NetworkFiles(edges, pop, cases))
        assert np.array_equal(infected, [10.0, 3.0])
        assert np.array_equal(removed, [0.0, 2.0])


class TestLongRows:
    """A row with more fields than its header is refused, naming the row."""

    def test_long_edge_row(self, two_loc_files):
        tmp, _, pop = two_loc_files
        edges = write(tmp / "long.csv", "from,to,weight\n1,0,0.5\n0,1,0.5,9\n")
        with pytest.raises(ValueError, match=r"long\.csv: row 3 has 4 fields, expected 3$"):
            load_network(NetworkFiles(edges, pop))

    def test_long_population_row(self, tmp_path):
        pop = write(tmp_path / "p.csv", "location,name,population\n0,a,10,x\n1,b,5\n")
        edges = write(tmp_path / "e.csv", "from,to,weight\n")
        with pytest.raises(ValueError, match=r"p\.csv: row 2 has 4 fields, expected 3$"):
            load_network(NetworkFiles(edges, pop))

    def test_long_cases_row(self, two_loc_files):
        tmp, edges, pop = two_loc_files
        cases = write(tmp / "cases.csv", "location,infected\n0,10\n1,3,2\n")
        with pytest.raises(ValueError, match=r"cases\.csv: row 3 has 3 fields, expected 2$"):
            load_network(NetworkFiles(edges, pop, cases))


class TestRepeatedHeaderColumn:
    """A header that names a column twice is refused like any other bad header."""

    def test_edges(self, two_loc_files):
        tmp, _, pop = two_loc_files
        edges = write(tmp / "e.csv", "from,to,weight,weight\n0,1,0.5,0.7\n")
        with pytest.raises(ValueError) as info:
            load_network(NetworkFiles(edges, pop))
        assert str(info.value) == (
            f"{edges}: expected header ['from', 'to', 'weight'], "
            "got ['from', 'to', 'weight', 'weight']"
        )

    def test_population(self, tmp_path):
        pop = write(tmp_path / "p.csv", "location,name,population,name\n0,a,10,b\n")
        edges = write(tmp_path / "e.csv", "from,to,weight\n")
        with pytest.raises(ValueError, match=r"expected header \['location', 'name', 'population'\], got"):
            load_network(NetworkFiles(edges, pop))

    def test_cases(self, two_loc_files):
        tmp, edges, pop = two_loc_files
        cases = write(tmp / "cases.csv", "location,infected,removed,removed\n0,10,0,5\n")
        with pytest.raises(ValueError) as info:
            load_network(NetworkFiles(edges, pop, cases))
        assert str(info.value) == (
            f"{cases}: expected header ['location', 'infected'], "
            "got ['location', 'infected', 'removed', 'removed']"
        )


class TestChunkedReads:
    """Files are read a few rows at a time.  With 2-row chunks, a fault and
    the rows it must be compared with fall in different chunks, and a file
    can end exactly at a chunk's end."""

    @pytest.fixture(autouse=True)
    def two_row_chunks(self, monkeypatch):
        monkeypatch.setattr(dataio, "_CSV_CHUNK_ROWS", 2)

    def test_short_population_row_in_a_later_chunk_wins_over_a_bad_value(self, tmp_path):
        pop = write(tmp_path / "p.csv", "location,name,population\n0,a,10\n1,b,x\n2,c,5\n3,d\n")
        edges = write(tmp_path / "e.csv", "from,to,weight\n")
        with pytest.raises(ValueError, match=r"p\.csv: row 5 has 2 fields, expected 3$"):
            load_network(NetworkFiles(edges, pop))

    def test_short_cases_row_in_a_later_chunk_wins_over_a_bad_value(self, two_loc_files):
        tmp, edges, pop = two_loc_files
        cases = write(tmp / "cases.csv", "location,infected\n0,x\n1,3\n0,1\n\n1\n")
        with pytest.raises(ValueError, match=r"cases\.csv: row 5 has 1 fields, expected 2$"):
            load_network(NetworkFiles(edges, pop, cases))

    def test_cases_faults_name_their_row_across_chunks(self, tmp_path):
        pop = write(
            tmp_path / "p.csv", "location,name,population\n0,a,10\n1,b,10\n2,c,10\n3,d,10\n"
        )
        edges = write(tmp_path / "e.csv", "from,to,weight\n")
        cases = write(tmp_path / "cases.csv", "location,infected\n0,1\n1,3\n\n2,2\n3,-1\n")
        with pytest.raises(ValueError, match=r"negative infected count at row 5$"):
            load_network(NetworkFiles(edges, pop, cases))

    def test_rows_that_fill_whole_chunks(self, two_loc_files):
        tmp, _, pop = two_loc_files
        edges = write(tmp / "e.csv", "from,to,weight\n0,1,0.5\n1,0,0.25\n")
        cases = write(tmp / "cases.csv", "location,infected,removed\n")
        net, _, infected, removed = load_network(NetworkFiles(edges, pop, cases))
        assert np.array_equal(net.weights, [[0.0, 0.5], [0.25, 0.0]])
        assert np.array_equal(infected, [0.0, 0.0]) and np.array_equal(removed, [0.0, 0.0])


class TestRowNumbers:
    """Rows are numbered from the header as row 1; blank lines are skipped
    and not counted."""

    def test_blank_lines_skipped_and_not_counted(self, two_loc_files):
        tmp, _, pop = two_loc_files
        edges = write(tmp / "e.csv", "from,to,weight\n\n0,1,0.5\n\n\n1,0,-1\n")
        with pytest.raises(ValueError, match=r"negative weight at row 3$"):
            load_network(NetworkFiles(edges, pop))
        good = write(tmp / "g.csv", "from,to,weight\n\n0,1,0.5\n\n1,0,0.25\n\n")
        net, _, _, _ = load_network(NetworkFiles(good, pop))
        assert np.array_equal(net.weights, [[0.0, 0.5], [0.25, 0.0]])

    @pytest.mark.parametrize(
        "early, late, message",
        [
            ("0,1,-0.5", "9,1,0.5", "negative weight at row 3"),
            ("0,1,x", "1,1,0.5", "bad weight 'x' (row 3)"),
            ("0,0,0.5", "7,7,x", "self-loop edge at location '0' (row 3)"),
            ("beta,0,0.5", "0,9,0.5", "duplicate edge 'beta'->'0' (row 3)"),
            ("0,9,0.5", "0,0,0.5", "unknown location reference '9' (row 3)"),
        ],
    )
    def test_error_names_the_earlier_of_two_faulty_rows(self, two_loc_files, early, late, message):
        tmp, _, pop = two_loc_files
        edges = write(tmp / "e.csv", f"from,to,weight\n1,0,0.5\n{early}\n0,1,0.5\n{late}\n")
        with pytest.raises(ValueError) as info:
            load_network(NetworkFiles(edges, pop))
        assert str(info.value) == f"{edges}: {message}"


class TestQuoting:
    """Quoting is read as the csv module's strict dialect reads it: a quote
    left open or text after a closing quote is refused, naming the row, and
    ranks like a field-count error, before any bad value."""

    OPEN_AT_END = "unexpected end of data"
    TEXT_AFTER_QUOTE = "',' expected after '\"'"

    @pytest.mark.parametrize(
        "body, rownum, reason",
        [
            ('0,1,"0.5\n', 3, OPEN_AT_END),
            ('0,1,"0.5\n0,0,0.25\n', 3, OPEN_AT_END),
            ('0,1,"0.5"x\n', 3, TEXT_AFTER_QUOTE),
        ],
        ids=["open-in-last-row", "open-before-another-row", "text-after-quote"],
    )
    def test_edges(self, two_loc_files, body, rownum, reason):
        tmp, _, pop = two_loc_files
        edges = write(tmp / "e.csv", "from,to,weight\n1,0,0.25\n" + body)
        with pytest.raises(ValueError) as info:
            load_network(NetworkFiles(edges, pop))
        assert str(info.value) == f"{edges}: row {rownum}: {reason}"

    @pytest.mark.parametrize(
        "body, reason",
        [('1,b,"5\n', OPEN_AT_END), ('1,b,"5\n2,c,7\n', OPEN_AT_END), ('1,b,"5"x\n', TEXT_AFTER_QUOTE)],
        ids=["open-in-last-row", "open-before-another-row", "text-after-quote"],
    )
    def test_population(self, tmp_path, body, reason):
        pop = write(tmp_path / "p.csv", "location,name,population\n0,a,10\n" + body)
        edges = write(tmp_path / "e.csv", "from,to,weight\n")
        with pytest.raises(ValueError) as info:
            load_network(NetworkFiles(edges, pop))
        assert str(info.value) == f"{pop}: row 3: {reason}"

    @pytest.mark.parametrize(
        "body, reason",
        [('1,"3\n', OPEN_AT_END), ('1,"3\n0,1\n', OPEN_AT_END), ('1,"3"x\n', TEXT_AFTER_QUOTE)],
        ids=["open-in-last-row", "open-before-another-row", "text-after-quote"],
    )
    def test_cases(self, two_loc_files, body, reason):
        tmp, edges, pop = two_loc_files
        cases = write(tmp / "cases.csv", "location,infected\n0,1\n" + body)
        with pytest.raises(ValueError) as info:
            load_network(NetworkFiles(edges, pop, cases))
        assert str(info.value) == f"{cases}: row 3: {reason}"

    def test_header(self, two_loc_files):
        tmp, _, pop = two_loc_files
        edges = write(tmp / "e.csv", 'from,to,"weight"x\n0,1,0.5\n')
        with pytest.raises(ValueError) as info:
            load_network(NetworkFiles(edges, pop))
        assert str(info.value) == f"{edges}: row 1: {self.TEXT_AFTER_QUOTE}"

    def test_well_formed_quoting_still_loads(self, tmp_path):
        # quoted fields, an embedded comma, a doubled quote, and a quote
        # inside an unquoted field
        pop = write(
            tmp_path / "p.csv",
            'location,name,population\n0,"a,b",10\n1,"x""y",20\n2,c"d,"30"\n',
        )
        edges = write(tmp_path / "e.csv", 'from,to,weight\n"a,b","x""y","0.5"\nc"d,0,0.25\n')
        net, names, _, _ = load_network(NetworkFiles(edges, pop))
        assert names == ["a,b", 'x"y', 'c"d']
        assert np.array_equal(net.weights, [[0.0, 0.5, 0.0], [0.0, 0.0, 0.0], [0.25, 0.0, 0.0]])

    @pytest.mark.parametrize("chunk", [dataio._CSV_CHUNK_ROWS, 2], ids=["default", "2-rows"])
    def test_ranks_with_field_counts_before_bad_values(self, two_loc_files, monkeypatch, chunk):
        monkeypatch.setattr(dataio, "_CSV_CHUNK_ROWS", chunk)
        tmp, _, pop = two_loc_files
        late_quote = write(tmp / "q.csv", 'from,to,weight\n0,1,x\n1,0,0.5\n0,0,"1\n')
        with pytest.raises(ValueError) as info:
            load_network(NetworkFiles(late_quote, pop))
        assert str(info.value) == f"{late_quote}: row 4: {self.OPEN_AT_END}"
        short_first = write(tmp / "s.csv", 'from,to,weight\n0,1\n1,0,0.5\n0,0,"1\n')
        with pytest.raises(ValueError, match=r"s\.csv: row 2 has 2 fields, expected 3$"):
            load_network(NetworkFiles(short_first, pop))


def _reference_edges(path, resolver, m):
    """The per-row ``csv.DictReader`` edge loader that the columnar one
    replaced, kept to pin its weights and messages; it does not refuse
    rows with extra fields."""
    with Path(path).open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames
        if list(header[:3]) != ["from", "to", "weight"] or any(
            col not in ["from", "to", "weight"] for col in header
        ):
            raise ValueError(f"{path}: expected header {['from', 'to', 'weight']}, got {list(header)}")
        rows = list(reader)
    for rownum, row in enumerate(rows, start=2):
        missing = list(row.values()).count(None)
        if missing:
            raise ValueError(
                f"{path}: row {rownum} has {len(header) - missing} fields, expected {len(header)}"
            )

    def resolve(ref, rownum):
        key = ref.strip()
        if key not in resolver:
            raise ValueError(f"{path}: unknown location reference {key!r} (row {rownum})")
        return resolver[key]

    weights = np.zeros((m, m))
    seen = set()
    for rownum, row in enumerate(rows, start=2):
        i = resolve(row["from"], rownum)
        j = resolve(row["to"], rownum)
        if i == j:
            raise ValueError(f"{path}: self-loop edge at location {row['from']!r} (row {rownum})")
        if (i, j) in seen:
            raise ValueError(f"{path}: duplicate edge {row['from']!r}->{row['to']!r} (row {rownum})")
        seen.add((i, j))
        try:
            w = float(row["weight"])
            if not np.isfinite(w):
                raise ValueError
        except ValueError:
            raise ValueError(f"{path}: bad weight {row['weight']!r} (row {rownum})")
        if w < 0:
            raise ValueError(f"{path}: negative weight at row {rownum}")
        weights[i, j] = w
    return weights


FAULTS = ("unknown", "self-loop", "duplicate", "x", "-0.5", "nan", "inf", "short")


@st.composite
def edge_files(draw):
    """An edge file over M = 1-12 locations as ``(m, lines)``: references by
    id or name, padded with whitespace, some fields quoted, blank lines, and
    up to two injected faults."""
    m = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(m) for j in range(m) if i != j]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []

    def field(text):
        pad = draw(st.sampled_from(["", " ", " \t"]))
        text = pad + text + pad[::-1]
        return f'"{text}"' if draw(st.booleans()) else text

    def ref(k):
        return str(k) if draw(st.booleans()) else f"loc{k}"

    rows = [
        [ref(i), ref(j), repr(draw(st.floats(0.0, 10.0)))] for i, j in chosen
    ]
    for kind in draw(st.lists(st.sampled_from(FAULTS), max_size=2)):
        pos = draw(st.integers(0, len(rows)))
        i = draw(st.integers(0, m - 1))
        row = [ref(i), ref((i + 1) % m), "0.5"]
        if kind == "unknown":
            for k in draw(st.sampled_from([[0], [1], [0, 1]])):
                row[k] = "nowhere"
        elif kind == "self-loop":
            row[1] = ref(i)
        elif kind == "duplicate" and chosen:
            # a drawn pair once more, often through its other alias
            row[:2] = map(ref, draw(st.sampled_from(chosen)))
        elif kind == "short":
            row = row[: draw(st.integers(1, 2))]
        elif kind != "duplicate":
            row[2] = kind
        rows.insert(pos, row)
    lines = [",".join(field(text) for text in row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    return m, lines


def _outcome(load):
    try:
        return "weights", load().tobytes()
    except ValueError as exc:
        return "error", str(exc)


class TestColumnarLoaderMatchesReference:
    @pytest.mark.parametrize("chunk", [dataio._CSV_CHUNK_ROWS, 2], ids=["default", "2-rows"])
    @given(case=edge_files())
    @settings(max_examples=300, deadline=None)
    def test_same_weights_or_same_message(self, chunk, case):
        m, lines = case
        populations = [10.0 + k for k in range(m)]
        resolver = {**{str(k): k for k in range(m)}, **{f"loc{k}": k for k in range(m)}}
        with tempfile.TemporaryDirectory() as tmp:
            pop = write(
                Path(tmp) / "population.csv",
                "location,name,population\n"
                + "".join(f"{k},loc{k},{n!r}\n" for k, n in enumerate(populations)),
            )
            edges = write(Path(tmp) / "edges.csv", "from,to,weight\n" + "\n".join(lines) + "\n")
            with mock.patch.object(dataio, "_CSV_CHUNK_ROWS", chunk):
                new = _outcome(lambda: load_network(NetworkFiles(edges, pop))[0].weights)
            old = _outcome(
                lambda: LocationNetwork(populations, _reference_edges(edges, resolver, m)).weights
            )
        assert new == old


def _reference_rows(path):
    """Header and non-blank rows of a CSV, refusing the first row with the
    wrong field count before any value is read."""
    with Path(path).open(newline="", encoding="utf-8") as handle:
        header, *rows = [row for row in csv.reader(handle, strict=True) if row]
    for rownum, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ValueError(f"{path}: row {rownum} has {len(row)} fields, expected {len(header)}")
    return header, rows


def _reference_populations(path):
    """The per-row population loader that the columnar one replaced, kept to
    pin its arrays, names, resolver and messages."""
    _, rows = _reference_rows(path)
    populations, names, resolver = [], [], {}
    for raw_loc, raw_name, raw_pop in rows:
        idx = len(names)
        loc, name = raw_loc.strip(), raw_name.strip()
        try:
            pop = float(raw_pop)
            if not np.isfinite(pop):
                raise ValueError
        except ValueError:
            raise ValueError(f"{path}: bad population {raw_pop!r} for {loc!r}")
        if pop <= 0:
            raise ValueError(f"{path}: population must be positive at location {loc!r}")
        for key in dict.fromkeys((loc, name)):  # the id first, in file order
            if key in resolver and resolver[key] != idx:
                raise ValueError(f"{path}: duplicate location reference {key!r}")
            resolver[key] = idx
        names.append(name)
        populations.append(pop)
    if not populations:
        raise ValueError(f"{path}: no locations defined")
    return np.asarray(populations), names, resolver


def _reference_cases(path, resolver, populations):
    """The per-row cases loader that the columnar one replaced, plus the
    rule that no two rows name one location, checked right after the
    reference is resolved."""
    header, rows = _reference_rows(path)
    infected = np.zeros(len(populations))
    removed = np.zeros(len(populations)) if "removed" in header else None
    named = set()
    for rownum, fields in enumerate(rows, start=2):
        row = dict(zip(header, fields))
        key = row["location"].strip()
        if key not in resolver:
            raise ValueError(f"{path}: unknown location reference {key!r} (row {rownum})")
        idx = resolver[key]
        if idx in named:
            raise ValueError(f"{path}: repeated location {key!r} (row {rownum})")
        named.add(idx)
        try:
            inf = float(row["infected"])
            if not np.isfinite(inf):
                raise ValueError
        except ValueError:
            raise ValueError(f"{path}: bad infected count {row['infected']!r} (row {rownum})")
        if inf < 0:
            raise ValueError(f"{path}: negative infected count at row {rownum}")
        raw = row.get("removed", "")
        try:
            rem = float(raw) if raw else 0.0
            if not np.isfinite(rem):
                raise ValueError
        except ValueError:
            raise ValueError(f"{path}: bad removed count {raw!r} (row {rownum})")
        if rem < 0:
            raise ValueError(f"{path}: negative removed count at row {rownum}")
        if inf + rem > populations[idx]:
            raise ValueError(f"{path}: cases exceed population at location {idx} (row {rownum})")
        infected[idx] = inf
        if removed is not None:
            removed[idx] = rem
    return infected, removed


def _padded(draw, text):
    pad = draw(st.sampled_from(["", " ", " \t"]))
    text = pad + text + pad[::-1]
    return f'"{text}"' if draw(st.booleans()) else text


def _with_blank_lines(draw, lines):
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    return lines


POPULATION_VALUES = st.one_of(
    st.sampled_from(["x", "", "0", "-1", "nan", "inf", "1e300"]),
    st.floats(1.0, 1e6).map(repr),
)


@st.composite
def population_files(draw):
    """Population file lines over a few ids and names that often collide,
    through the same alias or the other one, with padding, quoting, bad
    values and short rows."""
    keys = st.sampled_from(["0", "1", "2", "3", "a", "b", "c", ""])
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        row = [draw(keys), draw(keys), draw(POPULATION_VALUES)]
        row = row[: draw(st.sampled_from([3] * 12 + [2]))]
        lines.append(",".join(_padded(draw, text) for text in row))
    return _with_blank_lines(draw, lines)


CASE_FAULTS = (
    "unknown", "repeat", "x", "-1", "bad-removed", "-0.5", "blank-removed", "exceed", "nan", "short",
)


@st.composite
def cases_files(draw):
    """A cases file over M = 1-8 locations as ``(m, removed, lines)``:
    references by id or name, padded and quoted, an optional removed column
    with empty fields, blank lines, and up to two injected faults."""
    m = draw(st.integers(1, 8))
    removed = draw(st.booleans())
    chosen = draw(st.lists(st.integers(0, m - 1), unique=True))

    def ref(k):
        return str(k) if draw(st.booleans()) else f"loc{k}"

    def counts():
        row = [repr(draw(st.floats(0.0, 6.0)))]
        if removed:
            row.append(draw(st.sampled_from(["", repr(draw(st.floats(0.0, 6.0)))])))
        return row

    rows = [[ref(k), *counts()] for k in chosen]
    for kind in draw(st.lists(st.sampled_from(CASE_FAULTS), max_size=2)):
        k = draw(st.sampled_from(chosen)) if chosen else 0
        row = [ref(k), *counts()]
        if kind == "unknown":
            row[0] = "nowhere"
        elif kind == "short":
            row = row[:-1]
        elif kind == "exceed":
            row[1] = "1e6"
        elif kind in ("bad-removed", "-0.5", "blank-removed"):
            if removed:
                row[2] = {"bad-removed": "y", "-0.5": "-0.5", "blank-removed": " "}[kind]
        elif kind != "repeat":
            row[1] = kind
        rows.insert(draw(st.integers(0, len(rows))), row)
    lines = [",".join(_padded(draw, text) for text in row) for row in rows]
    return m, removed, _with_blank_lines(draw, lines)


def _result_or_message(load):
    try:
        return "result", [x.tobytes() if isinstance(x, np.ndarray) else x for x in load()]
    except ValueError as exc:
        return "error", str(exc)


class TestRowRefusalsMatchReference:
    """The population and cases loaders against test-local copies of the
    per-row loops they replaced (the cases copy with the repeat rule), at
    the default chunk and at two rows per chunk."""

    CHUNKS = pytest.mark.parametrize("chunk", [dataio._CSV_CHUNK_ROWS, 2], ids=["default", "2-rows"])

    @CHUNKS
    @given(lines=population_files())
    @settings(max_examples=300, deadline=None)
    def test_populations(self, chunk, lines):
        with tempfile.TemporaryDirectory() as tmp:
            pop = write(Path(tmp) / "p.csv", "location,name,population\n" + "\n".join(lines) + "\n")
            with mock.patch.object(dataio, "_CSV_CHUNK_ROWS", chunk):
                new = _result_or_message(lambda: dataio._load_populations(pop))
            old = _result_or_message(lambda: _reference_populations(pop))
        assert new == old

    @CHUNKS
    @given(case=cases_files())
    @settings(max_examples=300, deadline=None)
    def test_cases(self, chunk, case):
        m, removed, lines = case
        populations = np.array([4.0 + k for k in range(m)])
        resolver = {**{str(k): k for k in range(m)}, **{f"loc{k}": k for k in range(m)}}
        header = "location,infected,removed\n" if removed else "location,infected\n"
        with tempfile.TemporaryDirectory() as tmp:
            cases = write(Path(tmp) / "cases.csv", header + "\n".join(lines) + "\n")
            with mock.patch.object(dataio, "_CSV_CHUNK_ROWS", chunk):
                new = _result_or_message(lambda: dataio.load_cases(cases, resolver, populations))
            old = _result_or_message(lambda: _reference_cases(cases, resolver, populations))
        assert new == old


class TestRoundTrip:
    def test_emitted_network_reimports_identically(self, rng, tmp_path):
        from conftest import random_network

        net = random_network(rng, 9)
        edges, pop = write_network_csvs(net, tmp_path / "out")
        back, _, _, _ = load_network(NetworkFiles(edges, pop))
        assert np.array_equal(back.populations, net.populations)
        assert np.array_equal(back.weights, net.weights)

    def test_cases_round_trip(self, tmp_path, rng):
        infected = rng.uniform(0, 5, 4)
        removed = rng.uniform(0, 5, 4)
        path = write_cases_csv(tmp_path / "cases.csv", infected, removed)
        pop = write(
            tmp_path / "p.csv",
            "location,name,population\n"
            + "".join(f"{i},loc_{i},100\n" for i in range(4)),
        )
        edges = write(tmp_path / "e.csv", "from,to,weight\n")
        _, _, back_x, back_y = load_network(NetworkFiles(edges, pop, path))
        assert np.array_equal(back_x, infected)
        assert np.array_equal(back_y, removed)


def _reference_network_csvs(net, out, names=None):
    """The per-cell network writer that the row writer replaced, kept to pin
    its bytes."""
    if names is None:
        names = [f"loc_{i}" for i in range(net.m)]
    with (out / "population.csv").open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["location", "name", "population"])
        for i in range(net.m):
            writer.writerow([i, names[i], repr(float(net.populations[i]))])
    with (out / "edges.csv").open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["from", "to", "weight"])
        for i in range(net.m):
            for j in range(net.m):
                if net.weights[i, j] != 0.0:
                    writer.writerow([i, j, repr(float(net.weights[i, j]))])


def _reference_cases_csv(path, infected, removed=None):
    """The per-row cases writer that the row writer replaced."""
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


EDGE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e300, 0.1, -1.5]),
    st.floats(0.0, 10.0),
)
CSV_NAMES = st.text(alphabet=st.sampled_from(['a', 'b', ',', '"', ' ', 'é', '\r', '\n']), max_size=6)


class TestWriterBytes:
    """The row writers give the bytes of test-local copies of the per-cell
    and per-row writers they replaced, CRLF line ends included."""

    @given(data=st.data(), m=st.integers(1, 6))
    @settings(max_examples=150, deadline=None)
    def test_network_csvs(self, data, m):
        populations = data.draw(st.lists(st.floats(1.0, 1e7), min_size=m, max_size=m))
        weights = data.draw(st.lists(EDGE_VALUES, min_size=m * m, max_size=m * m))
        net = LocationNetwork(populations, np.reshape(weights, (m, m)))
        names = data.draw(st.none() | st.lists(CSV_NAMES, min_size=m, max_size=m))
        with tempfile.TemporaryDirectory() as tmp:
            new, old = Path(tmp) / "new", Path(tmp) / "old"
            old.mkdir()
            write_network_csvs(net, new, names)
            _reference_network_csvs(net, old, names)
            for name in ("edges.csv", "population.csv"):
                assert (new / name).read_bytes() == (old / name).read_bytes()
            assert (new / "edges.csv").read_bytes().endswith(b"\r\n")

    @given(data=st.data(), m=st.integers(0, 6))
    @settings(max_examples=100, deadline=None)
    def test_cases_csv(self, data, m):
        counts = st.lists(EDGE_VALUES, min_size=m, max_size=m)
        infected = data.draw(counts)
        removed = data.draw(st.none() | counts)
        with tempfile.TemporaryDirectory() as tmp:
            new, old = Path(tmp) / "new.csv", Path(tmp) / "old.csv"
            write_cases_csv(new, infected, removed)
            _reference_cases_csv(old, infected, removed)
            assert new.read_bytes() == old.read_bytes()

    @pytest.mark.parametrize("removed", [[0.0], [0.0, 1.0, 2.0]], ids=["shorter", "longer"])
    def test_cases_refuse_removed_of_another_length(self, tmp_path, removed):
        path = tmp_path / "cases.csv"
        with pytest.raises(ValueError) as info:
            write_cases_csv(path, [5.0, 3.0], removed)
        assert str(info.value) == f"removed has shape ({len(removed)},), infected has shape (2,)"
        assert not path.exists()


class TestSyntheticNetworks:
    def test_single_location(self):
        net = generate_synthetic(1, "gravity", 0)
        assert np.array_equal(net.weights, [[0.0]])

    def test_complete_profile_equal_weights(self):
        net = generate_synthetic(3, "complete", 5)
        off = net.weights[~np.eye(3, dtype=bool)]
        assert np.all(off == off[0])
        assert np.all(np.diag(net.weights) == 0.0)

    def test_ring_profile_neighbors_only(self):
        net = generate_synthetic(6, "ring", 5)
        for i in range(6):
            for j in range(6):
                expected = 0.25 if (j - i) % 6 in (1, 5) else 0.0
                assert net.weights[i, j] == expected

    def test_gravity_normalization_and_population_range(self):
        net = generate_synthetic(21, "gravity", 11)
        assert net.weights.max() == pytest.approx(0.5, rel=0, abs=1e-15)
        assert np.all(np.diag(net.weights) == 0.0)
        assert np.all(net.populations >= 5e4) and np.all(net.populations <= 5e6)

    def test_deterministic_from_seed(self):
        a = generate_synthetic(10, "gravity", 123)
        b = generate_synthetic(10, "gravity", 123)
        assert np.array_equal(a.populations, b.populations)
        assert np.array_equal(a.weights, b.weights)
        c = generate_synthetic(10, "gravity", 124)
        assert not np.array_equal(a.weights, c.weights)

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            generate_synthetic(3, "torus", 0)


def _reference_gravity(m, seed):
    """The gravity network as the (M, M, 2) difference expression built it."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    lo, hi = dataio.GRAVITY_POP_RANGE
    populations = np.exp(rng.uniform(np.log(lo), np.log(hi), size=m))
    weights = np.zeros((m, m))
    if m > 1:
        coords = rng.uniform(0.0, 1.0, size=(m, 2))
        diff = coords[:, None, :] - coords[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        with np.errstate(divide="ignore"):
            weights = populations[None, :] / dist
        np.fill_diagonal(weights, 0.0)
        weights *= dataio.GRAVITY_MAX_WEIGHT / weights.max()
    return populations, weights


class TestGravityMemory:
    @pytest.mark.parametrize("seed", [0, 1, 2024])
    @pytest.mark.parametrize("m", [1, 2, 3, 18, 60, 107, 300])
    def test_matches_difference_expression_bitwise(self, m, seed):
        net = generate_synthetic(m, "gravity", seed)
        populations, weights = _reference_gravity(m, seed)
        assert net.populations.tobytes() == populations.tobytes()
        assert net.weights.tobytes() == weights.tobytes()

    def test_peak_stays_near_two_weight_matrices(self):
        # the weights and one buffer of squared differences; the (M, M, 2)
        # difference expression peaked near six M x M arrays
        m = 2000
        tracemalloc.start()
        try:
            generate_synthetic(m, "gravity", 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * m * m * 8

    def test_refused_second_matrix_names_m(self, monkeypatch):
        m = 50
        allocate = np.empty

        def refuse_square(shape, *args, **kwargs):
            if shape == (m, m):
                raise MemoryError("refused")
            return allocate(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", refuse_square)
        with pytest.raises(ValueError, match=f"m={m} needs a {m}x{m} weight matrix"):
            generate_synthetic(m, "gravity", 0)


class TestInitialState:
    def test_sis_has_no_removed_pool(self):
        state = initial_state(ModelKind.SIS, 3, [1.0, 0.0, 2.0])
        assert state.removed is None

    def test_sir_defaults_removed_to_zero(self):
        state = initial_state(ModelKind.SIR, 3, [1.0, 0.0, 2.0])
        assert np.array_equal(state.removed, np.zeros(3))


class TestScenarioDocuments:
    GOOD = (
        "model = sir\nlambda = 0.02\nmu = 0.01\ngamma = 1e-6\n"
        "steps = 5\nedges = e.csv\npopulation = p.csv\n"
    )

    def test_parse_round_trip(self):
        values = parse_scenario_text(self.GOOD)
        assert values["model"] == "sir"
        again = parse_scenario_text(scenario_to_text(values))
        assert again == values

    def test_unknown_key_fails_closed(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_scenario_text(self.GOOD + "virulence = 2\n")

    def test_lambda_r0_exclusive(self):
        with pytest.raises(ValueError, match="exactly one"):
            parse_scenario_text(self.GOOD + "r0 = 3\n")
        text = self.GOOD.replace("lambda = 0.02\n", "")
        with pytest.raises(ValueError, match="exactly one"):
            parse_scenario_text(text)

    def test_missing_required_key(self):
        with pytest.raises(ValueError, match="missing required"):
            parse_scenario_text("model = sis\nlambda = 0.1\n")

    def test_network_source_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            parse_scenario_text(self.GOOD + "profile = gravity\nm = 4\n")

    def test_comments_and_blanks_ok(self):
        values = parse_scenario_text("# scenario\n\n" + self.GOOD)
        assert values["mu"] == "0.01"

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate key"):
            parse_scenario_text(self.GOOD + "mu = 0.5\n")


class TestTrajectoryCsv:
    def test_text_shape_and_totals(self, rng):
        x = rng.uniform(0, 5, (4, 3))
        traj = Trajectory(x, np.zeros((3, 3), dtype=np.int8))
        text = trajectory_csv_text(traj)
        lines = text.strip().split("\n")
        assert lines[0] == "step,total,loc_0,loc_1,loc_2"
        assert len(lines) == 5

    def test_totals_round_trip(self, tmp_path, rng):
        x = rng.uniform(0, 5, (6, 2))
        traj = Trajectory(x, np.zeros((5, 2), dtype=np.int8))
        path = tmp_path / "traj.csv"
        path.write_text(trajectory_csv_text(traj), encoding="utf-8")
        totals = read_trajectory_totals(path)
        assert np.array_equal(totals, traj.totals())

    @given(
        m=st.integers(1, 64),
        steps=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
        order=st.sampled_from("CF"),
    )
    @settings(max_examples=100, deadline=None)
    def test_written_totals_read_back_bit_equal(self, m, steps, seed, order):
        # magnitudes spread over nine decades, so the summation order shows
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 10, (steps + 1, m)) * 10.0 ** rng.uniform(-3, 6, (steps + 1, m))
        traj = Trajectory(np.asarray(x, order=order), np.zeros((steps, m), dtype=np.int8))
        with tempfile.TemporaryDirectory() as tmp:
            path = write(Path(tmp) / "traj.csv", trajectory_csv_text(traj))
            with mock.patch.object(dataio, "_CSV_CHUNK_ROWS", 2):
                totals = read_trajectory_totals(path)
        assert totals.tobytes() == traj.totals().tobytes()

    def test_total_only_file_has_nothing_to_compare(self, tmp_path):
        path = write(tmp_path / "traj.csv", "step,total\n0,5.0\n1,2.0\n")
        assert np.array_equal(read_trajectory_totals(path), [5.0, 2.0])

    def test_total_must_equal_its_location_sum(self, tmp_path):
        path = write(tmp_path / "traj.csv", "step,total,loc_0,loc_1\n0,2.0,1.0,1.0\n1,2.5,1.0,1.0\n")
        with pytest.raises(ValueError) as info:
            read_trajectory_totals(path)
        assert str(info.value) == f"{path}: total must equal the loc_i sum 2.0, got '2.5' (row 3)"

    def test_steps_counted_across_chunks_and_blank_lines(self, tmp_path):
        rows = [f"{t},1.0,1.0" for t in range(1500)]
        path = tmp_path / "traj.csv"
        path.write_text("step,total,loc_0\n\n" + "\n\n".join(rows) + "\n", encoding="utf-8")
        assert np.array_equal(read_trajectory_totals(path), np.ones(1500))
        rows[1200] = "1201,1.0,1.0"
        path.write_text("step,total,loc_0\n\n" + "\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"expected 1200, got '1201' \(row 1202\)"):
            read_trajectory_totals(path)


class TestRunReport:
    ECHO = {"model": "sir", "lambda": "0.02", "mu": "0.05", "gamma": "1e-07", "steps": "3",
            "profile": "gravity", "m": "4"}

    @pytest.fixture
    def run(self):
        net = generate_synthetic(4, "gravity", 0)
        cfg = ScenarioConfig(network=net, kind="sir", lam=0.02, mu=0.05, gamma=1e-7, steps=3)
        state0 = EpidemicState(0.01 * net.populations, np.zeros(net.m))
        log = run_rolling_horizon(cfg, state0)
        baseline = run_uncontrolled_baseline(cfg, state0)
        return compute_metrics(log, baseline), log, baseline

    def test_returns_what_report_json_reads_back(self, tmp_path, run):
        report = write_run_report(tmp_path / "out", self.ECHO, *run)
        assert report == json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "baseline.csv", "report.json", "scenario.resolved", "trajectory.csv"
        ]

    def test_resolved_scenario_is_the_echo(self, tmp_path, run):
        report = write_run_report(tmp_path, self.ECHO, *run)
        resolved = (tmp_path / "scenario.resolved").read_text(encoding="utf-8")
        assert resolved == scenario_to_text(self.ECHO)
        assert report["scenario"] == self.ECHO

    def test_metrics_keep_field_order_and_serialize(self, run):
        view = run[0].as_dict()
        assert list(view) == [f.name for f in fields(run[0])]
        assert json.loads(json.dumps(view)) == view
        assert view["per_location_peak_controlled"] == run[0].per_location_peak_controlled.tolist()
