"""Steady network physics in scaled units: one kernel for optimizer and oracle.

Every cell of the stochastic problem and every Monte-Carlo sample obeys the
same rows: a friction law per pipe, ``Pi_to - Pi_from + kappa * phi *
s(phi) = 0``; a ratio law per compressor, ``Pi_to - alpha * Pi_from = 0``;
and a balance per node, ``E @ phi - q = 0`` with the signed incidence ``E``.
:class:`Kernel` writes them once, as an affine template plus the friction
term on the pipe rows, and evaluates them over any leading batch axis of
states: the K cells of the NLP, or the one state of a steady solve, which
drops the slack balance to make the system square.  The friction law is the
only parameter: ``delta = 0`` is the exact ``s = |phi|`` of the simulation
oracle, and ``delta > 0`` the smoothed ``s = sqrt(phi^2 + delta^2)`` that
keeps the NLP twice differentiable.

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
    """Nondimensionalization record: pressure (Pa) and flow (kg/s)."""

    pressure: float
    flow: float

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
    return Scaling(pressure=p0, flow=flow)


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
    """Scaled constants and the affine template of one network's cell rows.

    Build it with :func:`kernel`, which caches it on the network.

    In the state ``x`` of a cell the rows read ``A[:, :-1] @ x + b`` plus
    ``kappa * phi * s(phi)`` on the pipe rows.  ``template`` is the dense
    (n_rows, n_state + 1) matrix ``A`` with the slack's squared pressure as
    its last column, the pipe slopes left out and the compressor suction
    entries at ratio one.  :meth:`affine` writes ``-alpha`` there,
    :meth:`offset` folds the slack column and the withdrawals into ``b``,
    and :meth:`residual` and :meth:`jacobian` evaluate the rows over any
    leading batch axis of ``x``.  The NLP evaluates all rows on its K cells
    and reads the Jacobian at ``(jac_rows, jac_cols)``; the steady solve
    solves one state of the rows :meth:`square` keeps per ratio vector, and
    first checks its start with one product on their signed certification
    matrix, the same rows and their negatives on the caller's physical units,
    whose largest entry is the largest absolute row.
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
        self.comp_from = np.array([idx[c.from_node] for c in net.compressors], dtype=int)
        self.alpha_max = np.array([c.alpha_max for c in net.compressors], dtype=float)
        self.incidence = incidence(net)  # (nv, ne)
        self.n_rows = self.n_pipe + self.n_comp + self.nv
        self.n_state = self.nv - 1 + self.ne
        self.free = np.flatnonzero(np.arange(self.nv) != self.slack)  # state pressure order
        npc = self.n_pipe + self.n_comp
        self.square_rows = np.delete(np.arange(self.n_rows), npc + self.slack)
        column = np.empty(self.nv, dtype=int)  # a node's pressure column
        column[self.free], column[self.slack] = np.arange(self.nv - 1), self.n_state
        # an edge row's pressure entries are its incidence column; a balance
        # row's flow entries are its incidence row
        self.template = np.zeros((self.n_rows, self.n_state + 1))
        self.template[:npc, column] = self.incidence.T
        self.template[npc:, self.nv - 1 : -1] = self.incidence
        self._pipe_flows = slice(self.nv - 1, self.nv - 1 + self.n_pipe)
        # pipe k's slope is entry (k, nv - 1 + k): a stride of n_state + 1
        # through a flattened (rows, n_state) Jacobian; the square rows keep
        # the pipe rows first
        self._slope = slice(self.nv - 1, self.nv - 1 + self.n_pipe * (self.n_state + 1),
                            self.n_state + 1)
        comp_rows = self.n_pipe + np.arange(self.n_comp)
        self._ratio = np.ravel_multi_index((comp_rows, column[self.comp_from]),
                                              self.template.shape)
        pattern = self.template[:, :-1] != 0.0
        pattern.reshape(-1)[self._slope] = True
        self.jac_rows, self.jac_cols = np.nonzero(pattern)
        self.squares: dict[bytes, tuple[np.ndarray, ...]] = {}

    def affine(self, alpha) -> np.ndarray:
        """The template with the ratios ``alpha`` (n_comp,) at the suction entries."""
        A = self.template.copy()
        A.flat[self._ratio] = -alpha
        return A

    def offset(self, A, q) -> np.ndarray:
        """Constant part (..., n_rows) of the rows of ``A`` at withdrawals ``q``
        (..., nv): the slack's pressure terms, and ``-q`` on the balances."""
        b = np.empty(q.shape[:-1] + (self.n_rows,))
        npc = self.n_pipe + self.n_comp
        b[..., :npc] = self.pi_slack * A[:npc, -1]
        b[..., npc:] = -q
        return b

    def square(self, alpha) -> tuple[np.ndarray, ...]:
        """The steady solve's square system at the ratios ``alpha`` (n_comp,),
        in two forms.

        The scaled form is :meth:`affine` on ``square_rows`` (the slack
        balance dropped) and the slack's pressure terms, the part of
        :meth:`offset` on its pipe and compressor rows; the balance rows'
        ``-q`` is the caller's.  ``A`` is stored by columns, so the transpose
        of its state block in :meth:`residual` is contiguous.

        The certification matrix ``C`` writes the same rows on the caller's
        physical vector ``u = [Pi (every node), phi, q (every node),
        phi_p * |phi_p|, 1]``, with ``phi_p`` the pipe flows: they read
        ``u @ C``.  Its rows are the state block of ``A`` with its columns
        divided by the squared-pressure and flow scales, each non-slack
        withdrawal entering its balance row as ``-1 / flow``; then the
        friction coefficients for flows in kg/s on the pipe rows; last the
        slack's pressure terms.  The slack's pressure and withdrawal have
        zero rows.  It is stored signed, ``[C, -C]``: ``u`` times it is the
        rows and then their negatives, so its largest entry is the largest
        absolute row.

        The system ``(A, b_slack, [C, -C])`` is kept in ``squares`` under
        ``alpha.tobytes()``, the oldest of eight dropped first."""
        A = np.asfortranarray(self.affine(alpha).take(self.square_rows, axis=0))
        if len(self.squares) >= 8:
            del self.squares[next(iter(self.squares))]
        npc, nf = self.n_pipe + self.n_comp, self.nv - 1
        flow = self.scaling.flow
        b_slack = self.pi_slack * A[:npc, -1]
        C = np.zeros((2 * self.nv + self.ne + self.n_pipe + 1, len(self.square_rows)))
        C[self.free] = A[:, :nf].T / self.scaling.squared_pressure
        C[self.nv : self.nv + self.ne] = A[:, nf:-1].T / flow
        # the non-slack balances follow the pipe and compressor rows in order
        C[self.nv + self.ne + self.free, npc + np.arange(nf)] = -1.0 / flow
        pipes = np.arange(self.n_pipe)
        C[2 * self.nv + self.ne + pipes, pipes] = self.kappa / flow**2
        C[-1, :npc] = b_slack
        system = self.squares[alpha.tobytes()] = (A, b_slack, np.hstack((C, -C)))
        return system

    def residual(self, A, b, x, delta: float) -> np.ndarray:
        """Rows of ``(A, b)`` at states ``x`` (..., n_state), with the friction
        law ``s`` smoothed by ``delta``."""
        r = x @ A[:, :-1].T
        r += b
        phi_p = x[..., self._pipe_flows]
        r[..., : self.n_pipe] += self.kappa * phi_p * magnitude(phi_p, delta)
        return r

    def jacobian(self, A, x, delta: float) -> np.ndarray:
        """Dense Jacobian (..., rows of ``A``, n_state) of :meth:`residual` at
        the states ``x``.  The squared pressures enter linearly, so only the
        pipe slopes vary with ``x``."""
        J = np.empty(x.shape[:-1] + (A.shape[0], self.n_state))
        J[...] = A[:, :-1]
        phi_p = x[..., self._pipe_flows]
        s = magnitude(phi_p, delta)
        # d(phi * s)/dphi; the exact law's 2|phi| is finite at zero flow
        slope = self.kappa * (2.0 * s if delta == 0.0 else s + phi_p**2 / s)
        J.reshape(x.shape[:-1] + (-1,))[..., self._slope] = slope
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
