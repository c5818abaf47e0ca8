"""Steady network physics in scaled units: one kernel for optimizer and oracle.

Every cell of the stochastic problem and every Monte-Carlo sample obeys the
same square system: a friction law per pipe, ``Pi_to - Pi_from + kappa *
phi * s(phi) = 0``; a ratio law per compressor, ``Pi_to - alpha * Pi_from =
0``; and a balance per node, ``A @ phi - q = 0`` with the signed incidence
``A``.  :class:`Kernel` evaluates these residuals and their derivatives over a
leading batch axis (the K cells of the NLP), and the same rows without the
slack balance as one square system (the steady solve).  The friction law is
the only parameter: ``delta = 0`` is the exact ``s = |phi|`` of the
simulation oracle, and ``delta > 0`` the smoothed ``s = sqrt(phi^2 +
delta^2)`` that keeps the NLP twice differentiable.

Rows of one cell are the pipes, then the compressors, then the balances of
all nodes.  Its state columns are the squared pressures of the non-slack
nodes in node order, then the edge flows; the slack node's squared pressure
is the constant ``pi_slack``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gasflow.network import Network, incidence


@dataclass(frozen=True)
class Scaling:
    """Nondimensionalization record: pressure (Pa), flow (kg/s), length (m)."""

    pressure: float
    flow: float
    length: float

    @property
    def squared_pressure(self) -> float:
        return self.pressure**2


def nondimensionalize(net: Network) -> Scaling:
    """Choose scales so the slack squared pressure maps to one and the largest
    scaled pipe resistance is exactly one."""
    p0 = net.slack_node.slack_pressure
    kappa = net.kappa()
    kmax = float(kappa.max()) if kappa.size and kappa.max() > 0 else 0.0
    if kmax > 0:
        flow = p0 / np.sqrt(kmax)
    else:
        demands = [abs(n.base_withdrawal) for n in net.nodes]
        flow = max(max(demands, default=0.0), 1.0)
    length = max((p.length for p in net.pipes), default=1.0)
    return Scaling(pressure=p0, flow=flow, length=length)


def _spanning_tree_flows(net: Network, q: np.ndarray) -> np.ndarray:
    """Initial flows: route each node's withdrawal along a BFS tree from the
    slack node; loop chords start at zero."""
    idx = net.node_index
    adjacency: dict[int, list[tuple[int, int, float]]] = {i: [] for i in range(len(net.nodes))}
    for k, e in enumerate(net.edges):
        i, j = idx[e.from_node], idx[e.to_node]
        adjacency[i].append((j, k, +1.0))
        adjacency[j].append((i, k, -1.0))
    root = idx[net.slack_node.id]
    parent_edge: dict[int, tuple[int, int, float]] = {}
    order = [root]
    seen = {root}
    for node in order:
        for nb, k, sign in adjacency[node]:
            if nb not in seen:
                seen.add(nb)
                parent_edge[nb] = (node, k, sign)
                order.append(nb)
    phi = np.zeros(len(net.edges))
    subtree = q.copy()
    subtree[root] = 0.0
    for node in reversed(order):
        if node == root:
            continue
        parent, k, sign = parent_edge[node]
        # sign +1 means the edge is oriented parent -> node
        phi[k] += sign * subtree[node]
        subtree[parent] += subtree[node]
    return phi


def magnitude(phi: np.ndarray, delta: float) -> np.ndarray:
    """The friction law's ``s(phi)``: ``|phi|`` at ``delta = 0``, else
    ``sqrt(phi^2 + delta^2)``."""
    if delta == 0.0:
        return np.abs(phi)
    return np.sqrt(phi * phi + delta * delta)


class Kernel:
    """Scaled constants and the constant Jacobian pattern of one network.

    Build it with :func:`kernel`, which caches it on the network.

    The steady solve's square system drops the slack balance row
    (``square_rows``) and, in the state ``x`` of one cell, reads ``M @ x + b``
    plus ``kappa * phi * |phi|`` on the pipe rows.  Its constant pieces:

    - ``square_template`` (n_state, n_state + 1): the square rows of the
      Jacobian template with the pipe slopes zeroed, the slack's pressure
      column appended, and -1 at each compressor's suction entry;
    - ``square_ratio_at`` (n_comp,): flat positions of those suction entries
      in ``square_template``, in the slack column where the slack node feeds
      the compressor;
    - ``square_slope_at`` (n_pipe,): flat positions of the pipe slopes in the
      (n_state, n_state) square Jacobian.

    :meth:`square_system` writes the ratios in once per solve, and
    :meth:`square_residual` and :meth:`square_jacobian` evaluate the exact
    law (``delta = 0``) at each Newton iterate.
    """

    def __init__(self, net: Network):
        idx = net.node_index
        self.scaling = nondimensionalize(net)
        self.nv, self.ne = len(net.nodes), len(net.edges)
        self.n_pipe, self.n_comp = len(net.pipes), len(net.compressors)
        self.slack = idx[net.slack_node.id]
        flow, pi_sc = self.scaling.flow, self.scaling.squared_pressure
        self.kappa = net.kappa()[: self.n_pipe] * flow**2 / pi_sc
        self.pi_slack = net.slack_node.slack_pressure**2 / pi_sc
        self.edge_from = np.array([idx[e.from_node] for e in net.edges], dtype=int)
        self.edge_to = np.array([idx[e.to_node] for e in net.edges], dtype=int)
        self.comp_from = self.edge_from[self.n_pipe :]
        self.alpha_max = np.array([c.alpha_max for c in net.compressors], dtype=float)
        self.incidence = incidence(net).toarray()  # (nv, ne)
        self.n_rows = self.n_pipe + self.n_comp + self.nv
        self.n_state = self.nv - 1 + self.ne
        self.free = np.flatnonzero(np.arange(self.nv) != self.slack)  # state pressure order
        npc = self.n_pipe + self.n_comp
        # rows of the steady solve's square system: the slack balance is dropped
        self.square_rows = np.delete(np.arange(self.n_rows), npc + self.slack)
        # dense template of one cell's Jacobian; an edge row's pressure entries
        # are its incidence column, the pipe slopes are placeholders
        T = np.zeros((self.n_rows, self.n_state))
        T[:npc, : self.nv - 1] = self.incidence.T[:, self.free]
        T[:npc, self.nv - 1 :][np.diag_indices(self.n_pipe)] = 1.0
        T[npc:, self.nv - 1 :] = self.incidence
        self.jac_rows, self.jac_cols = np.nonzero(T)
        self._jac_const = T[self.jac_rows, self.jac_cols]
        pipe_row = self.jac_rows < self.n_pipe
        self._slope_at = np.flatnonzero(pipe_row & (self.jac_cols == self.nv - 1 + self.jac_rows))
        # a compressor's suction entry is -alpha
        self._ratio_at = np.flatnonzero(~pipe_row & (self.jac_rows < npc) & (self._jac_const < 0))
        self._ratio_of = self.jac_rows[self._ratio_at] - self.n_pipe
        n = self.n_state
        slack_col = np.zeros((self.n_rows, 1))
        slack_col[:npc, 0] = self.incidence[self.slack]
        self.square_template = np.hstack([T, slack_col])[self.square_rows]
        pipes = np.arange(self.n_pipe)
        self.square_slope_at = pipes * n + self.nv - 1 + pipes
        self.square_template[pipes, self.nv - 1 + pipes] = 0.0
        column = np.empty(self.nv, dtype=int)  # a node's pressure column
        column[self.free], column[self.slack] = np.arange(self.nv - 1), n
        comp_rows = self.n_pipe + np.arange(self.n_comp)
        self.square_ratio_at = comp_rows * (n + 1) + column[self.comp_from]

    def residual(self, Pi, phi, alpha, q, delta: float) -> np.ndarray:
        """Cell residuals (B, n_rows) at squared pressures ``Pi`` (B, nv, the
        slack column included), flows ``phi`` (B, ne), ratios ``alpha``
        (n_comp,) and withdrawals ``q`` (B, nv)."""
        npi = self.n_pipe
        to, fr = self.edge_to, self.edge_from
        r = np.empty((Pi.shape[0], self.n_rows))
        phi_p = phi[:, :npi]
        s = magnitude(phi_p, delta)
        r[:, :npi] = Pi[:, to[:npi]] - Pi[:, fr[:npi]] + self.kappa * phi_p * s
        r[:, npi : npi + self.n_comp] = Pi[:, to[npi:]] - alpha * Pi[:, self.comp_from]
        r[:, npi + self.n_comp :] = phi @ self.incidence.T - q
        return r

    def jacobian(self, phi, alpha, delta: float) -> np.ndarray:
        """Jacobian values (B, nnz) of the cell residuals in the state columns,
        at the entries ``(jac_rows, jac_cols)``.  The squared pressures enter
        linearly, so only the flows and the ratios are needed."""
        vals = np.tile(self._jac_const, (phi.shape[0], 1))
        phi_p = phi[:, : self.n_pipe]
        s = magnitude(phi_p, delta)
        # d(phi * s)/dphi; the exact law's 2|phi| is finite at zero flow
        slope = 2.0 * s if delta == 0.0 else s + phi_p**2 / s
        vals[:, self._slope_at] = self.kappa * slope
        vals[:, self._ratio_at] = -alpha[self._ratio_of]
        return vals

    def square_system(self, alpha, q) -> tuple[np.ndarray, np.ndarray]:
        """The affine part ``(M, b)`` of the square system at ratios ``alpha``
        (n_comp,) and withdrawals ``q`` (nv,); ``M`` is (n_state, n_state)."""
        A = self.square_template.copy()
        A.flat[self.square_ratio_at] = -alpha
        b = self.pi_slack * A[:, -1]
        b[self.n_pipe + self.n_comp :] -= q[self.free]
        return A[:, :-1], b

    def square_residual(self, M, b, x) -> np.ndarray:
        """Square residual (n_state,) of the exact law at the state ``x``."""
        r = M @ x + b
        phi_p = x[self.nv - 1 : self.nv - 1 + self.n_pipe]
        r[: self.n_pipe] += self.kappa * phi_p * magnitude(phi_p, 0.0)
        return r

    def square_jacobian(self, M, x) -> np.ndarray:
        """Square Jacobian (n_state, n_state) of the exact law at ``x``."""
        J = M.copy()
        phi_p = x[self.nv - 1 : self.nv - 1 + self.n_pipe]
        J.flat[self.square_slope_at] = self.kappa * (2.0 * magnitude(phi_p, 0.0))
        return J

    def ratio_jacobian(self, Pi) -> np.ndarray:
        """Derivative (B, n_comp) of each compressor row in its own ratio."""
        return -Pi[:, self.comp_from]

    def pipe_hessian(self, phi, y_pipe, delta: float) -> np.ndarray:
        """Diagonal (B, n_pipe) of the Hessian in the pipe flows of the pipe
        rows weighted by the multipliers ``y_pipe`` (B, n_pipe)."""
        phi_p = phi[:, : self.n_pipe]
        s = magnitude(phi_p, delta)
        curvature = 2.0 * np.sign(phi_p) if delta == 0.0 else 3.0 * phi_p / s - phi_p**3 / s**3
        return y_pipe * self.kappa * curvature


def kernel(net: Network) -> Kernel:
    """The network's :class:`Kernel`, built on first use and kept on the
    instance: a network is immutable, and ``with_node`` returns a new one."""
    if "_kernel" not in net.__dict__:
        object.__setattr__(net, "_kernel", Kernel(net))
    return net._kernel
