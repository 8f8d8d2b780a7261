"""CSV ingestion, synthetic generation, scenario documents, reports."""

from __future__ import annotations

import numpy as np
import pytest

from epiqubo import LocationNetwork, ModelKind
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
