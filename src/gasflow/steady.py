"""Steady-state network flow solver for fixed controls.

Solves the square system of pipe friction laws, compressor ratio relations
and nodal balances for given compressor ratios and withdrawals using a damped
Newton method on the nondimensionalized residual.  The rows are the shared
:mod:`gasflow.physics` kernel's, the same the NLP imposes on each cell, less
the slack balance (``square_rows``).  The kernel keeps that square system
per ratio vector (:meth:`~gasflow.physics.Kernel.square`), so a call at
ratios seen before sets up only the balance rows' withdrawals; each iteration
evaluates the kernel's residual and Jacobian at the exact law and solves with
LAPACK ``dgesv``.  The slack node holds its pressure; its injection floats and
is recovered from the solved flows.  The solver is the physics oracle behind
Monte-Carlo validation, called once per sample as the corrector of the SFV
interpolant's start (``x0``; a start already within ``tol`` returns after no
step), so it keeps the exact ``phi*|phi|`` friction term (its derivative
``2|phi|`` is continuous and needs no smoothing).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgesv

from gasflow.network import Network
from gasflow.physics import _spanning_tree_flows, kernel


class SteadySolveError(RuntimeError):
    """Newton failure or a nonphysical (negative squared pressure) solution."""

    def __init__(self, message: str, residual: float | None = None, node: str | None = None):
        super().__init__(message)
        self.residual = residual
        self.node = node


@dataclass
class SteadyState:
    """Physical solution of the steady flow equations.

    ``Pi`` is in node order (Pa^2), ``phi`` in edge order (kg/s, pipes then
    compressors, positive from -> to).  ``slack_injection`` is the inflow at
    the slack node that balances the network (kg/s).
    """

    net: Network
    Pi: np.ndarray
    phi: np.ndarray
    residual_norm: float
    iterations: int
    slack_injection: float
    residual_history: list[float] | None = None

    @property
    def pressure(self) -> np.ndarray:
        return np.sqrt(self.Pi)

    def pressure_at(self, node_id: str) -> float:
        return float(self.pressure[self.net.node_index[node_id]])

    def squared_pressure_at(self, node_id: str) -> float:
        return float(self.Pi[self.net.node_index[node_id]])

    def flow_at(self, edge_id: str) -> float:
        return float(self.phi[self.net.edge_index[edge_id]])


def solve_steady(
    net: Network,
    alpha: dict[str, float] | np.ndarray | None = None,
    q: dict[str, float] | np.ndarray | None = None,
    x0: tuple[np.ndarray, np.ndarray] | None = None,
    tol: float = 1e-10,
    max_iter: int = 50,
) -> SteadyState:
    """Solve the steady flow equations at fixed compressor ratios and loads.

    Parameters
    ----------
    alpha : mapping or array
        Compressor ratios in compressor order (default all one).  Must lie in
        [1, alpha_max]; checked when the kernel first sets up their system.
    q : mapping or array
        Nodal withdrawals in kg/s (positive = consumption).  The slack node's
        entry is ignored; its injection absorbs the imbalance.
    x0 : optional (Pi, phi) warm start in physical units.
    tol : nondimensional residual tolerance.

    Raises
    ------
    SteadySolveError
        If Newton stalls (reports the last residual) or the converged state
        has a nonpositive squared pressure (reports the node).
    """
    kern = kernel(net)

    if alpha is None:
        alpha_vec = np.ones(kern.n_comp)
    elif isinstance(alpha, dict):
        alpha_vec = np.array([alpha[c.id] for c in net.compressors], dtype=float)
    else:
        alpha_vec = np.asarray(alpha, dtype=float)
    system = kern.squares.get(alpha_vec.tobytes())
    if system is None:
        inside = (1.0 - 1e-9 <= alpha_vec) & (alpha_vec <= kern.alpha_max + 1e-9)
        if not inside.all():
            bad = int(np.flatnonzero(~inside)[0])
            c, a = net.compressors[bad], alpha_vec[bad]
            raise SteadySolveError(
                f"compressor {c.id!r}: ratio {a} outside [1, {c.alpha_max}]", node=c.id
            )
        system = kern.square(alpha_vec)
    A, b_slack = system

    if q is None:
        q_vec = np.array([n.base_withdrawal for n in net.nodes])
    elif isinstance(q, dict):
        idx = net.node_index
        unknown = sorted(set(q) - set(idx))
        if unknown:
            raise SteadySolveError(f"withdrawals reference unknown node {unknown[0]!r}",
                                   node=unknown[0])
        q_vec = np.array([q.get(n.id, 0.0) for n in net.nodes], dtype=float)
    else:
        q_vec = np.asarray(q, dtype=float)

    flow_sc = kern.scaling.flow
    pi_scale = kern.scaling.squared_pressure
    q_nd = q_vec / flow_sc  # the slack's entry meets only the dropped row
    nf = kern.nv - 1

    # unknowns: Pi at the non-slack nodes, then the edge flows; the slack
    # balance row is dropped and its injection recovered after the solve
    if x0 is not None:
        pi0 = np.asarray(x0[0], dtype=float)[kern.free] / pi_scale
        x = np.concatenate([pi0, np.asarray(x0[1], dtype=float) / flow_sc])
    else:
        x = np.concatenate([np.full(nf, kern.pi_slack), _spanning_tree_flows(net, q_nd)])
    b = np.concatenate([b_slack, -q_nd[kern.free]])

    r = kern.residual(A, b, x, 0.0)
    rnorm = np.abs(r).max()
    history = [float(rnorm)]
    iterations = 0
    while rnorm > tol and iterations < max_iter:
        _, _, step, info = dgesv(kern.jacobian(A, x, 0.0), -r)
        if info > 0:
            raise SteadySolveError(
                f"singular Jacobian at iteration {iterations}", residual=float(rnorm)
            )
        t = 1.0
        merit0 = float(r @ r)
        while True:
            x_try = x + t * step
            r_try = kern.residual(A, b, x_try, 0.0)
            if float(r_try @ r_try) <= (1.0 - 1e-4 * t) * merit0:
                break
            t *= 0.5
            if t < 1e-6:
                raise SteadySolveError(
                    "Newton line search stalled (step below 1e-6)", residual=float(rnorm)
                )
        x, r = x_try, r_try
        rnorm = np.abs(r).max()
        history.append(float(rnorm))
        iterations += 1

    if rnorm > tol:
        raise SteadySolveError(
            f"Newton did not converge in {max_iter} iterations", residual=float(rnorm)
        )
    pi_full = np.empty(kern.nv)
    pi_full[kern.free], pi_full[kern.slack] = x[:nf], kern.pi_slack
    phi = x[nf:]
    if pi_full.min() <= 0:
        bad = int(np.argmin(pi_full))
        raise SteadySolveError(
            f"negative squared pressure at node {net.nodes[bad].id!r}: "
            "operating point is infeasible",
            node=net.nodes[bad].id,
        )

    return SteadyState(
        net=net,
        Pi=pi_full * pi_scale,
        phi=phi * flow_sc,
        residual_norm=float(rnorm),
        iterations=iterations,
        slack_injection=float(-(kern.incidence[kern.slack] @ phi) * flow_sc),
        residual_history=history,
    )
