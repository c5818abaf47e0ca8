import json
import math
from dataclasses import replace

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


DELETE = object()


def edited(path, value):
    """minimal_doc() with the entry at ``path`` (keys and indices) set to
    ``value``, or removed when ``value`` is DELETE; an empty path replaces the
    whole document."""
    if not path:
        return value
    doc = minimal_doc()
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    if value is DELETE:
        del parent[last]
    else:
        parent[last] = value
    return doc


def compressor(**changes):
    """A valid compressor entry from A to B, with ``changes`` applied."""
    return {"id": "C", "from": "A", "to": "B", "alpha_max": 1.5, "eta": 1.0, "m": 0.5} | changes


B_TWICE = minimal_doc()["nodes"] + minimal_doc()["nodes"][1:]
UNIFORM = {"dist": "uniform", "lo": -1.0, "hi": 1.0}


class TestEveryRejection:
    @pytest.mark.parametrize("path, value, error, message, entity", [
        pytest.param(("nodes", 1, "demand"), -1.0, NetworkError,
                     "node 'B': demand and supply must be nonnegative", "B", id="negative-demand"),
        pytest.param(("nodes", 0, "slack_pressure"), DELETE, NetworkError,
                     "node 'A': slack node requires slack_pressure", "A", id="slack-without-pressure"),
        pytest.param(("nodes", 1), minimal_doc()["nodes"][1] | {"demand_optimized": True,
                                                               "supply_optimized": True},
                     NetworkError, "node 'B': cannot optimize demand and supply at the same node", "B",
                     id="demand-and-supply-optimized"),
        pytest.param(("nodes", 0, "uncertainty"), UNIFORM, NetworkError,
                     "node 'A': uncertainty is only supported at flow nodes", "A",
                     id="uncertainty-at-slack"),
        pytest.param(("pipes", 0, "length"), 0.0, NetworkError,
                     "pipe 'P': length, diameter and friction must be positive", "P", id="pipe-length"),
        pytest.param(("pipes", 0, "to"), "A", NetworkError,
                     "pipe 'P': from and to must differ", "P", id="pipe-loop"),
        pytest.param(("compressors",), [compressor(eta=-1.0)], NetworkError,
                     "compressor 'C': eta must be >= 0", "C", id="compressor-eta"),
        pytest.param(("compressors",), [compressor(m=0.0)], NetworkError,
                     "compressor 'C': exponent m must be in (0, 1]", "C", id="compressor-m-zero"),
        pytest.param(("compressors",), [compressor(m=1.5)], NetworkError,
                     "compressor 'C': exponent m must be in (0, 1]", "C", id="compressor-m-above-one"),
        pytest.param(("compressors",), [compressor(to="A")], NetworkError,
                     "compressor 'C': from and to must differ", "C", id="compressor-loop"),
        pytest.param(("wave_speed",), 0.0, NetworkError, "wave_speed must be positive", None,
                     id="wave-speed"),
        pytest.param(("nodes",), B_TWICE, NetworkError, "duplicate node id 'B'", "B",
                     id="duplicate-node"),
        pytest.param(("compressors",), [compressor(id="P")], NetworkError,
                     "duplicate edge id 'P'", "P", id="duplicate-edge"),
        pytest.param(("nodes", 1, "uncertainty"), [UNIFORM], SchemaError,
                     "node 'B': uncertainty must be an object", "node 'B'", id="uncertainty-not-object"),
        pytest.param(("nodes", 1), "B", SchemaError, "node entry must be an object", None,
                     id="node-not-object"),
        pytest.param(("nodes", 1, "id"), DELETE, SchemaError,
                     "node entry requires a nonempty string 'id'", None, id="node-without-id"),
        pytest.param(("nodes", 1, "kind"), "sink", SchemaError,
                     "node 'B': kind must be 'slack' or 'flow'", "B", id="node-kind"),
        pytest.param((), [minimal_doc()], SchemaError, "network document must be a JSON object", None,
                     id="document-not-object"),
        pytest.param((), "[]", SchemaError, "network document must be a JSON object", None,
                     id="document-text-not-object"),
        pytest.param(("nodes",), {"A": {}}, SchemaError, "network: 'nodes' must be a list", None,
                     id="nodes-not-list"),
        pytest.param(("pipes", 0), "P", SchemaError, "pipe entry must be an object", None,
                     id="pipe-not-object"),
        pytest.param(("pipes", 0, "id"), "", SchemaError, "pipe entry requires a nonempty string 'id'",
                     None, id="pipe-without-id"),
        pytest.param(("compressors",), [None], SchemaError, "compressor entry must be an object", None,
                     id="compressor-not-object"),
        pytest.param(("compressors",), [compressor(id=7)], SchemaError,
                     "compressor entry requires a nonempty string 'id'", None, id="compressor-without-id"),
    ])
    def test_rejection_names_its_entity(self, path, value, error, message, entity):
        # each check of the parser and of the model it builds, reached from a
        # document that breaks only that check
        with pytest.raises(error) as err:
            parse_network(edited(path, value))
        assert str(err.value) == message
        assert err.value.entity == entity

    def test_unknown_node_lookup(self):
        net = parse_network(minimal_doc())
        for call in (lambda: net.node("Z"), lambda: net.with_node(replace(net.node("B"), id="Z"))):
            with pytest.raises(NetworkError) as err:
                call()
            assert str(err.value) == "unknown node 'Z'" and err.value.entity == "Z"


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
