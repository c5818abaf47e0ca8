"""Pipeline network model: nodes, pipes, compressors, validation, JSON I/O.

The network is an immutable graph.  Nodes are either slack (fixed pressure,
free injection) or flow nodes (fixed or optimized withdrawal/injection).
Pipes carry the steady friction law in squared pressures,
``Pi_out = Pi_in - kappa * phi * |phi|``, and compressors are multiplicative
squared-pressure boosters ``Pi_out = alpha * Pi_in`` that preserve through-flow.

Nodes and edges are kept sorted by id so that variable layouts, incidence
columns and dual-variable reports are reproducible across runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from pathlib import Path

import numpy as np

from gasflow.stochastic import UncertaintySpec


class NetworkError(ValueError):
    """Invalid network data.  ``entity`` names the offending node or edge."""

    def __init__(self, message: str, entity: str | None = None):
        super().__init__(message)
        self.entity = entity


class SchemaError(NetworkError):
    """Structural problem in a network document (missing/unknown/bad-type key)."""


class NodeKind(Enum):
    SLACK = "slack"
    FLOW = "flow"


@dataclass(frozen=True)
class Node:
    """A junction where gas is withdrawn from or injected into the network.

    Withdrawal ``demand`` and injection ``supply`` are in kg/s and at most one
    of them may be positive.  ``demand_optimized``/``supply_optimized`` mark
    the flow as a decision variable bounded by ``demand_max``/``supply_max``
    and priced at ``demand_price``/``supply_price`` (currency per kg/s).
    ``uncertainty`` attaches a random withdrawal increment, and ``epsilon`` is
    the acceptable expected violation level of the minimum-pressure penalty.
    """

    id: str
    kind: NodeKind
    pressure_min: float
    pressure_max: float
    slack_pressure: float | None = None
    demand: float = 0.0
    supply: float = 0.0
    demand_price: float = 0.0
    supply_price: float = 0.0
    demand_optimized: bool = False
    supply_optimized: bool = False
    demand_max: float = math.inf
    supply_max: float = math.inf
    epsilon: float | None = None
    uncertainty: UncertaintySpec | None = None

    def __post_init__(self):
        if self.pressure_min <= 0 or not self.pressure_min < self.pressure_max:
            raise NetworkError(
                f"node {self.id!r}: requires 0 < pressure_min < pressure_max "
                f"(got {self.pressure_min}, {self.pressure_max})",
                entity=self.id,
            )
        if self.demand < 0 or self.supply < 0:
            raise NetworkError(
                f"node {self.id!r}: demand and supply must be nonnegative", entity=self.id
            )
        if not (self.demand_max > 0 and self.supply_max > 0):  # NaN fails too
            raise NetworkError(
                f"node {self.id!r}: demand_max and supply_max must be positive "
                f"(got {self.demand_max}, {self.supply_max})",
                entity=self.id,
            )
        if self.demand > 0 and self.supply > 0:
            raise NetworkError(
                f"node {self.id!r}: only one of demand or supply can be positive "
                f"(demand={self.demand}, supply={self.supply})",
                entity=self.id,
            )
        if self.kind is NodeKind.SLACK:
            if self.slack_pressure is None:
                raise NetworkError(
                    f"node {self.id!r}: slack node requires slack_pressure", entity=self.id
                )
            if not self.pressure_min <= self.slack_pressure <= self.pressure_max:
                raise NetworkError(
                    f"node {self.id!r}: slack_pressure {self.slack_pressure} outside "
                    f"[{self.pressure_min}, {self.pressure_max}]",
                    entity=self.id,
                )
            if self.demand_optimized or self.supply_optimized:
                raise NetworkError(
                    f"node {self.id!r}: optimized flows require a flow node", entity=self.id
                )
        if self.demand_optimized and self.supply_optimized:
            raise NetworkError(
                f"node {self.id!r}: cannot optimize demand and supply at the same node",
                entity=self.id,
            )
        if self.epsilon is not None and not 0 <= self.epsilon < math.inf:
            raise NetworkError(
                f"node {self.id!r}: epsilon must be finite and >= 0 (got {self.epsilon})",
                entity=self.id,
            )
        if self.uncertainty is not None and self.kind is not NodeKind.FLOW:
            raise NetworkError(
                f"node {self.id!r}: uncertainty is only supported at flow nodes",
                entity=self.id,
            )

    @property
    def base_withdrawal(self) -> float:
        """Fixed part of the nodal withdrawal q_j = d_j - s_j (kg/s)."""
        d = 0.0 if self.demand_optimized else self.demand
        s = 0.0 if self.supply_optimized else self.supply
        return d - s


@dataclass(frozen=True)
class Pipe:
    """A pipe segment; resistance maps signed squared flow to a Pi drop."""

    id: str
    from_node: str
    to_node: str
    length: float
    diameter: float
    friction: float

    def __post_init__(self):
        if self.length <= 0 or self.diameter <= 0 or self.friction <= 0:
            raise NetworkError(
                f"pipe {self.id!r}: length, diameter and friction must be positive",
                entity=self.id,
            )
        if self.from_node == self.to_node:
            raise NetworkError(f"pipe {self.id!r}: from and to must differ", entity=self.id)

    @property
    def area(self) -> float:
        """Cross-sectional area pi*D^2/4 (m^2)."""
        return math.pi * self.diameter**2 / 4.0

    def resistance(self, wave_speed: float) -> float:
        """Resistance a^2*lambda*L/(A^2*D) in Pa^2 per (kg/s)^2."""
        return wave_speed**2 * self.friction * self.length / (self.area**2 * self.diameter)


@dataclass(frozen=True)
class Compressor:
    """A pressure booster: squared discharge pressure = alpha * squared suction."""

    id: str
    from_node: str
    to_node: str
    alpha_max: float
    eta: float
    m: float

    def __post_init__(self):
        if self.alpha_max < 1.0:
            raise NetworkError(
                f"compressor {self.id!r}: alpha_max must be >= 1", entity=self.id
            )
        if self.eta < 0:
            raise NetworkError(f"compressor {self.id!r}: eta must be >= 0", entity=self.id)
        if not 0.0 < self.m <= 1.0:
            raise NetworkError(
                f"compressor {self.id!r}: exponent m must be in (0, 1]", entity=self.id
            )
        if self.from_node == self.to_node:
            raise NetworkError(
                f"compressor {self.id!r}: from and to must differ", entity=self.id
            )


@dataclass(frozen=True)
class Network:
    """Validated, immutable pipeline network.

    Nodes, pipes and compressors are sorted by id.  Edge ordering for the
    incidence matrix and all flow vectors is pipes first, then compressors.
    """

    nodes: tuple[Node, ...]
    pipes: tuple[Pipe, ...]
    compressors: tuple[Compressor, ...]
    wave_speed: float
    currency: str = "USD"

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(sorted(self.nodes, key=lambda n: n.id)))
        object.__setattr__(self, "pipes", tuple(sorted(self.pipes, key=lambda p: p.id)))
        object.__setattr__(
            self, "compressors", tuple(sorted(self.compressors, key=lambda c: c.id))
        )
        if self.wave_speed <= 0:
            raise NetworkError("wave_speed must be positive")
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})[0]
            raise NetworkError(f"duplicate node id {dup!r}", entity=dup)
        eids = [e.id for e in self.edges]
        if len(set(eids)) != len(eids):
            dup = sorted({i for i in eids if eids.count(i) > 1})[0]
            raise NetworkError(f"duplicate edge id {dup!r}", entity=dup)
        index = self.node_index
        for e in self.edges:
            for end in (e.from_node, e.to_node):
                if end not in index:
                    raise NetworkError(
                        f"edge {e.id!r} references unknown node {end!r}", entity=e.id
                    )
        slack = [n for n in self.nodes if n.kind is NodeKind.SLACK]
        if not slack:
            raise NetworkError("network has no slack node")
        if len(slack) > 1:
            raise NetworkError(
                "multiple slack nodes are not supported "
                f"(found {', '.join(n.id for n in slack)})",
                entity=slack[1].id,
            )
        self._check_connected()

    def _check_connected(self):
        if not self.nodes:
            raise NetworkError("network has no nodes")
        adj: dict[str, set[str]] = {n.id: set() for n in self.nodes}
        for e in self.edges:
            adj[e.from_node].add(e.to_node)
            adj[e.to_node].add(e.from_node)
        seen = {self.nodes[0].id}
        stack = [self.nodes[0].id]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        missing = sorted(set(adj) - seen)
        if missing:
            raise NetworkError(
                f"network is disconnected; unreachable nodes: {', '.join(missing)}",
                entity=missing[0],
            )

    @property
    def edges(self) -> tuple[Pipe | Compressor, ...]:
        return self.pipes + self.compressors

    @cached_property
    def node_index(self) -> dict[str, int]:
        return {n.id: k for k, n in enumerate(self.nodes)}

    @cached_property
    def edge_index(self) -> dict[str, int]:
        return {e.id: k for k, e in enumerate(self.edges)}

    @property
    def slack_node(self) -> Node:
        return next(n for n in self.nodes if n.kind is NodeKind.SLACK)

    @property
    def uncertain_nodes(self) -> tuple[Node, ...]:
        return tuple(n for n in self.nodes if n.uncertainty is not None)

    def node(self, node_id: str) -> Node:
        try:
            return self.nodes[self.node_index[node_id]]
        except KeyError:
            raise NetworkError(f"unknown node {node_id!r}", entity=node_id) from None

    def kappa(self) -> np.ndarray:
        """Pipe resistances in edge order (compressor entries are zero)."""
        k = np.zeros(len(self.edges))
        for i, p in enumerate(self.pipes):
            k[i] = p.resistance(self.wave_speed)
        return k

    def with_node(self, node: Node) -> "Network":
        """Copy of the network with one node replaced (matched by id)."""
        nodes = tuple(node if n.id == node.id else n for n in self.nodes)
        if all(n.id != node.id for n in self.nodes):
            raise NetworkError(f"unknown node {node.id!r}", entity=node.id)
        return replace(self, nodes=nodes)


def incidence(net: Network) -> np.ndarray:
    """Signed node-edge incidence matrix, dense (|V| x |E|).

    Column k has -1 at the node edge k leaves and +1 at the node it enters,
    so ``A @ phi`` is the net inflow vector and column sums are zero.
    """
    idx = net.node_index
    A = np.zeros((len(net.nodes), len(net.edges)))
    for k, e in enumerate(net.edges):
        A[idx[e.from_node], k] = -1.0
        A[idx[e.to_node], k] = 1.0
    return A


_NODE_KEYS = {
    "id", "kind", "slack_pressure", "pressure_min", "pressure_max", "demand",
    "supply", "demand_price", "supply_price", "demand_optimized",
    "supply_optimized", "demand_max", "supply_max", "epsilon", "uncertainty",
}
_PIPE_KEYS = {"id", "from", "to", "length", "diameter", "friction", "kappa"}
_COMP_KEYS = {"id", "from", "to", "alpha_max", "eta", "m"}
_UNC_KEYS = {"dist", "lo", "hi", "mean", "std"}
_TOP_KEYS = {"wave_speed", "nodes", "pipes", "compressors", "currency"}


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise SchemaError(f"{where}: missing required key {key!r}", entity=where)
    return mapping[key]


def _number(value, key: str, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}: key {key!r} must be a number", entity=where)
    return float(value)


def _check_keys(mapping: dict, allowed: set, where: str):
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise SchemaError(f"{where}: unknown key(s) {', '.join(unknown)}", entity=where)


def _parse_uncertainty(doc: dict, where: str) -> UncertaintySpec:
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: uncertainty must be an object", entity=where)
    _check_keys(doc, _UNC_KEYS, where)
    dist = _require(doc, "dist", where)
    lo = _number(_require(doc, "lo", where), "lo", where)
    hi = _number(_require(doc, "hi", where), "hi", where)
    if dist == "uniform":
        return UncertaintySpec(dist="uniform", lo=lo, hi=hi)
    if dist == "truncated_normal":
        mean = _number(_require(doc, "mean", where), "mean", where)
        std = _number(_require(doc, "std", where), "std", where)
        return UncertaintySpec(dist="truncated_normal", lo=lo, hi=hi, mean=mean, std=std)
    raise SchemaError(f"{where}: unknown distribution {dist!r}", entity=where)


def _parse_node(doc: dict) -> Node:
    if not isinstance(doc, dict):
        raise SchemaError("node entry must be an object")
    node_id = doc.get("id")
    if not isinstance(node_id, str) or not node_id:
        raise SchemaError("node entry requires a nonempty string 'id'")
    where = f"node {node_id!r}"
    _check_keys(doc, _NODE_KEYS, where)
    kind_raw = _require(doc, "kind", where)
    try:
        kind = NodeKind(kind_raw)
    except ValueError:
        raise SchemaError(f"{where}: kind must be 'slack' or 'flow'", entity=node_id) from None
    unc = doc.get("uncertainty")
    return Node(
        id=node_id,
        kind=kind,
        pressure_min=_number(_require(doc, "pressure_min", where), "pressure_min", where),
        pressure_max=_number(_require(doc, "pressure_max", where), "pressure_max", where),
        slack_pressure=(
            _number(doc["slack_pressure"], "slack_pressure", where)
            if "slack_pressure" in doc
            else None
        ),
        demand=_number(doc.get("demand", 0.0), "demand", where),
        supply=_number(doc.get("supply", 0.0), "supply", where),
        demand_price=_number(doc.get("demand_price", 0.0), "demand_price", where),
        supply_price=_number(doc.get("supply_price", 0.0), "supply_price", where),
        demand_optimized=bool(doc.get("demand_optimized", False)),
        supply_optimized=bool(doc.get("supply_optimized", False)),
        demand_max=_number(doc.get("demand_max", math.inf), "demand_max", where),
        supply_max=_number(doc.get("supply_max", math.inf), "supply_max", where),
        epsilon=(_number(doc["epsilon"], "epsilon", where) if "epsilon" in doc else None),
        uncertainty=(_parse_uncertainty(unc, where) if unc is not None else None),
    )


def parse_network(document: str | bytes | dict) -> Network:
    """Parse and validate a network document (JSON text or mapping).

    Raises
    ------
    SchemaError
        On structural violations, naming the node/edge.
    NetworkError
        On semantic violations (disconnected graph, no slack node,
        conflicting demand/supply positivity, inconsistent kappa, ...).
    """
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise SchemaError("network document must be a JSON object")
    _check_keys(document, _TOP_KEYS, "network")
    wave_speed = _number(_require(document, "wave_speed", "network"), "wave_speed", "network")
    nodes_doc = _require(document, "nodes", "network")
    if not isinstance(nodes_doc, list):
        raise SchemaError("network: 'nodes' must be a list")
    nodes = tuple(_parse_node(d) for d in nodes_doc)

    pipes = []
    for d in document.get("pipes", []):
        if not isinstance(d, dict):
            raise SchemaError("pipe entry must be an object")
        pid = d.get("id")
        if not isinstance(pid, str) or not pid:
            raise SchemaError("pipe entry requires a nonempty string 'id'")
        where = f"pipe {pid!r}"
        _check_keys(d, _PIPE_KEYS, where)
        pipe = Pipe(
            id=pid,
            from_node=_require(d, "from", where),
            to_node=_require(d, "to", where),
            length=_number(_require(d, "length", where), "length", where),
            diameter=_number(_require(d, "diameter", where), "diameter", where),
            friction=_number(_require(d, "friction", where), "friction", where),
        )
        if "kappa" in d:
            stated = _number(d["kappa"], "kappa", where)
            actual = pipe.resistance(wave_speed)
            if abs(stated - actual) > 1e-9 * max(abs(actual), 1.0):
                raise NetworkError(
                    f"{where}: stated kappa {stated!r} differs from computed "
                    f"{actual!r} (recomputed from a^2*lambda*L/(A^2*D))",
                    entity=pid,
                )
        pipes.append(pipe)

    comps = []
    for d in document.get("compressors", []):
        if not isinstance(d, dict):
            raise SchemaError("compressor entry must be an object")
        cid = d.get("id")
        if not isinstance(cid, str) or not cid:
            raise SchemaError("compressor entry requires a nonempty string 'id'")
        where = f"compressor {cid!r}"
        _check_keys(d, _COMP_KEYS, where)
        comps.append(
            Compressor(
                id=cid,
                from_node=_require(d, "from", where),
                to_node=_require(d, "to", where),
                alpha_max=_number(_require(d, "alpha_max", where), "alpha_max", where),
                eta=_number(_require(d, "eta", where), "eta", where),
                m=_number(_require(d, "m", where), "m", where),
            )
        )

    return Network(
        nodes=nodes,
        pipes=tuple(pipes),
        compressors=tuple(comps),
        wave_speed=wave_speed,
        currency=document.get("currency", "USD"),
    )


def load_network(path: str | Path) -> Network:
    """Load a network from a JSON file."""
    return parse_network(Path(path).read_text())


def serialize_network(net: Network) -> dict:
    """Emit the JSON document form of a network; parse(serialize(n)) == n."""

    def node_doc(n: Node) -> dict:
        doc: dict = {
            "id": n.id,
            "kind": n.kind.value,
            "pressure_min": n.pressure_min,
            "pressure_max": n.pressure_max,
        }
        if n.slack_pressure is not None:
            doc["slack_pressure"] = n.slack_pressure
        if n.demand:
            doc["demand"] = n.demand
        if n.supply:
            doc["supply"] = n.supply
        if n.demand_price:
            doc["demand_price"] = n.demand_price
        if n.supply_price:
            doc["supply_price"] = n.supply_price
        if n.demand_optimized:
            doc["demand_optimized"] = True
        if n.supply_optimized:
            doc["supply_optimized"] = True
        if math.isfinite(n.demand_max):
            doc["demand_max"] = n.demand_max
        if math.isfinite(n.supply_max):
            doc["supply_max"] = n.supply_max
        if n.epsilon is not None:
            doc["epsilon"] = n.epsilon
        if n.uncertainty is not None:
            u = n.uncertainty
            unc: dict = {"dist": u.dist, "lo": u.lo, "hi": u.hi}
            if u.dist == "truncated_normal":
                unc["mean"] = u.mean
                unc["std"] = u.std
            doc["uncertainty"] = unc
        return doc

    return {
        "wave_speed": net.wave_speed,
        "currency": net.currency,
        "nodes": [node_doc(n) for n in net.nodes],
        "pipes": [
            {
                "id": p.id,
                "from": p.from_node,
                "to": p.to_node,
                "length": p.length,
                "diameter": p.diameter,
                "friction": p.friction,
            }
            for p in net.pipes
        ],
        "compressors": [
            {
                "id": c.id,
                "from": c.from_node,
                "to": c.to_node,
                "alpha_max": c.alpha_max,
                "eta": c.eta,
                "m": c.m,
            }
            for c in net.compressors
        ],
    }
