import json
import math

import numpy as np
import pytest

from gasflow import (
    NetworkError,
    SchemaError,
    incidence,
    parse_network,
    serialize_network,
)
from gasflow import configs


def minimal_doc():
    return {
        "wave_speed": 377.0,
        "nodes": [
            {
                "id": "A",
                "kind": "slack",
                "slack_pressure": 5.0e6,
                "pressure_min": 3.0e6,
                "pressure_max": 6.0e6,
            },
            {
                "id": "B",
                "kind": "flow",
                "pressure_min": 3.0e6,
                "pressure_max": 6.0e6,
                "demand": 100.0,
            },
        ],
        "pipes": [
            {"id": "P", "from": "A", "to": "B", "length": 1.0e4, "diameter": 0.6, "friction": 0.01}
        ],
        "compressors": [],
    }


class TestParsing:
    def test_single_pipe_counts(self):
        net = configs.load("single_pipe")
        assert [n.id for n in net.nodes] == ["N1", "N2", "N3"]
        assert len(net.pipes) == 1 and len(net.compressors) == 1
        assert net.slack_node.slack_pressure == pytest.approx(4.3367e6)
        assert net.node("N3").demand == 250.0
        assert net.node("N3").uncertainty.dist == "uniform"

    def test_eight_node_counts(self):
        net = configs.load("eight_node")
        assert len(net.nodes) == 8
        assert len(net.pipes) == 5
        assert len(net.compressors) == 3
        assert net.slack_node.id == "J1"
        assert net.slack_node.slack_pressure == pytest.approx(5.0e6)

    def test_demand_supply_exclusive(self):
        doc = minimal_doc()
        doc["nodes"][1]["supply"] = 5.0
        with pytest.raises(NetworkError, match="B"):
            parse_network(doc)

    def test_nodes_sorted_by_id(self):
        doc = minimal_doc()
        doc["nodes"].reverse()
        net = parse_network(doc)
        assert [n.id for n in net.nodes] == ["A", "B"]

    def test_parse_from_text(self):
        net = parse_network(json.dumps(minimal_doc()))
        assert len(net.nodes) == 2

    def test_round_trip_all_configs(self):
        for name in configs.NAMES:
            net = configs.load(name)
            again = parse_network(serialize_network(net))
            assert again == net


class TestKappa:
    def test_resistance_formula(self):
        net = configs.load("single_pipe")
        p = net.pipes[0]
        area = math.pi * p.diameter**2 / 4.0
        expected = net.wave_speed**2 * p.friction * p.length / (area**2 * p.diameter)
        assert net.kappa()[0] == pytest.approx(expected, rel=1e-14)
        # dimensional sanity: the squared-pressure drop at nominal flow is a
        # sensible fraction of the slack squared pressure
        drop = net.kappa()[0] * 250.0**2
        assert 0.01 < drop / net.slack_node.slack_pressure**2 < 1.0

    def test_stated_kappa_must_match(self):
        doc = minimal_doc()
        pipe = doc["pipes"][0]
        area = math.pi * pipe["diameter"] ** 2 / 4.0
        kappa = 377.0**2 * pipe["friction"] * pipe["length"] / (area**2 * pipe["diameter"])
        pipe["kappa"] = kappa
        parse_network(doc)  # consistent value accepted
        pipe["kappa"] = kappa * 1.001
        with pytest.raises(NetworkError, match="kappa"):
            parse_network(doc)

    def test_recompute_idempotent(self):
        net = parse_network(minimal_doc())
        assert np.array_equal(net.kappa(), net.kappa())


class TestIncidence:
    def test_single_pipe_column(self):
        net = parse_network(minimal_doc())
        A = incidence(net)
        assert A.shape == (2, 1)
        assert A[0, 0] == -1.0 and A[1, 0] == 1.0

    def test_eight_node_matrix(self):
        net = configs.load("eight_node")
        A = incidence(net)
        assert A.shape == (8, 8)
        assert set(np.unique(A)) <= {-1.0, 0.0, 1.0}
        np.testing.assert_array_equal(A.sum(axis=0), np.zeros(8))
        assert np.all((A == 1).sum(axis=0) == 1)
        assert np.all((A == -1).sum(axis=0) == 1)

    def test_no_edges(self):
        doc = {
            "wave_speed": 377.0,
            "nodes": [minimal_doc()["nodes"][0]],
            "pipes": [],
            "compressors": [],
        }
        net = parse_network(doc)
        assert incidence(net).shape == (1, 0)

    def test_row_sums_match_degrees(self):
        net = configs.load("eight_node")
        A = incidence(net)
        for j, node in enumerate(net.nodes):
            indeg = sum(1 for e in net.edges if e.to_node == node.id)
            outdeg = sum(1 for e in net.edges if e.from_node == node.id)
            assert A[j].sum() == indeg - outdeg

    def test_random_tree_columns_sum_zero(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = int(rng.integers(2, 12))
            nodes = [
                {
                    "id": f"n{i}",
                    "kind": "slack" if i == 0 else "flow",
                    "pressure_min": 3.0e6,
                    "pressure_max": 6.0e6,
                    **({"slack_pressure": 5.0e6} if i == 0 else {}),
                }
                for i in range(n)
            ]
            pipes = []
            for i in range(1, n):
                parent = int(rng.integers(0, i))
                pipes.append(
                    {
                        "id": f"p{i}",
                        "from": f"n{parent}",
                        "to": f"n{i}",
                        "length": 1e4,
                        "diameter": 0.6,
                        "friction": 0.01,
                    }
                )
            net = parse_network(
                {"wave_speed": 377.0, "nodes": nodes, "pipes": pipes, "compressors": []}
            )
            A = incidence(net)
            np.testing.assert_array_equal(A.sum(axis=0), np.zeros(n - 1))


class TestValidation:
    def test_no_slack(self):
        doc = minimal_doc()
        doc["nodes"][0] = {
            "id": "A",
            "kind": "flow",
            "pressure_min": 3.0e6,
            "pressure_max": 6.0e6,
        }
        with pytest.raises(NetworkError, match="slack"):
            parse_network(doc)

    def test_two_slacks_rejected(self):
        doc = minimal_doc()
        doc["nodes"][1] = {
            "id": "B",
            "kind": "slack",
            "slack_pressure": 5.0e6,
            "pressure_min": 3.0e6,
            "pressure_max": 6.0e6,
        }
        with pytest.raises(NetworkError, match="multiple slack"):
            parse_network(doc)

    def test_disconnected(self):
        doc = minimal_doc()
        doc["nodes"].append(
            {"id": "C", "kind": "flow", "pressure_min": 3.0e6, "pressure_max": 6.0e6}
        )
        with pytest.raises(NetworkError, match="C"):
            parse_network(doc)

    def test_unknown_endpoint(self):
        doc = minimal_doc()
        doc["pipes"][0]["to"] = "Z"
        with pytest.raises(NetworkError, match="Z"):
            parse_network(doc)

    def test_slack_pressure_outside_box(self):
        doc = minimal_doc()
        doc["nodes"][0]["slack_pressure"] = 7.0e6
        with pytest.raises(NetworkError, match="slack_pressure"):
            parse_network(doc)

    def test_pressure_box_ordering(self):
        doc = minimal_doc()
        doc["nodes"][1]["pressure_min"] = 7.0e6
        with pytest.raises(NetworkError, match="pressure_min"):
            parse_network(doc)

    def test_optimized_flow_on_slack(self):
        doc = minimal_doc()
        doc["nodes"][0]["demand_optimized"] = True
        with pytest.raises(NetworkError, match="flow node"):
            parse_network(doc)

    @pytest.mark.parametrize("key", ["demand_max", "supply_max"])
    @pytest.mark.parametrize("cap", [math.nan, 0.0, -5.0])
    def test_cap_must_be_positive(self, key, cap):
        doc = minimal_doc()
        doc["nodes"][1][key] = cap
        with pytest.raises(NetworkError, match=rf"node 'B': .*{key}"):
            parse_network(doc)

    def test_bad_compressor_ratio(self):
        doc = minimal_doc()
        doc["compressors"] = [
            {"id": "C", "from": "A", "to": "B", "alpha_max": 0.9, "eta": 1.0, "m": 1.0}
        ]
        with pytest.raises(NetworkError, match="alpha_max"):
            parse_network(doc)


class TestSchema:
    def test_missing_key(self):
        doc = minimal_doc()
        del doc["nodes"][1]["pressure_min"]
        with pytest.raises(SchemaError, match="pressure_min"):
            parse_network(doc)

    def test_unknown_key(self):
        doc = minimal_doc()
        doc["nodes"][1]["pressure"] = 1.0
        with pytest.raises(SchemaError, match="pressure"):
            parse_network(doc)

    def test_bad_type(self):
        doc = minimal_doc()
        doc["nodes"][1]["demand"] = "lots"
        with pytest.raises(SchemaError, match="demand"):
            parse_network(doc)

    def test_bad_distribution(self):
        doc = minimal_doc()
        doc["nodes"][1]["uncertainty"] = {"dist": "lognormal", "lo": 0.0, "hi": 1.0}
        with pytest.raises(SchemaError, match="lognormal"):
            parse_network(doc)

    def test_invalid_json_text(self):
        with pytest.raises(SchemaError, match="JSON"):
            parse_network("{not json")
