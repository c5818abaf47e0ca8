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
is recovered from the solved flows.

The solver is the physics oracle behind Monte-Carlo validation, called once
per sample as the corrector of the SFV interpolant's start ``x0``, so it
keeps the exact ``phi*|phi|`` friction term (its derivative ``2|phi|`` is
continuous and needs no smoothing).  A start is first checked on the same
rows folded into the caller's units (the kernel's ``M`` and ``c``): one
already within ``tol`` is certified and returned as given, with no unit
conversion and no Newton step; any other goes through the scaled set-up and
Newton.
"""

from __future__ import annotations

import math
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
    x0 : optional (Pi, phi) start in physical units, Pi in node order and
        phi in edge order.  A start whose rows are already within ``tol`` is
        returned as given (copied, the slack's squared pressure set to its
        fixed value) with ``iterations == 0``; the slack's entry is ignored.
    tol : nondimensional residual tolerance (the largest scaled row).

    Raises
    ------
    SteadySolveError
        If Newton stalls (reports the last residual), the returned state has
        a nonpositive squared pressure (reports the node), a ratio is out of
        range or a ratio mapping misses or adds a compressor (reports the
        compressor), or a withdrawal or start entry is not finite (reports
        the node, or the edge of a flow).
    ValueError
        If ``alpha``, ``q`` or a part of ``x0`` has the wrong length.
    """
    kern = kernel(net)

    if alpha is None:
        alpha_vec = np.ones(kern.n_comp)
    elif isinstance(alpha, dict):
        ids = [c.id for c in net.compressors]
        unknown = sorted(set(alpha) - set(ids))
        if unknown:
            raise SteadySolveError(f"ratios reference unknown compressor {unknown[0]!r}",
                                   node=unknown[0])
        missing = [cid for cid in ids if cid not in alpha]
        if missing:
            raise SteadySolveError(f"no ratio for compressor {missing[0]!r}", node=missing[0])
        alpha_vec = np.array([alpha[cid] for cid in ids], dtype=float)
    else:
        alpha_vec = np.asarray(alpha, dtype=float)
    system = kern.squares.get(alpha_vec.tobytes())
    if system is None:
        _check_length("alpha", alpha_vec, kern.n_comp, "compressor")
        inside = (1.0 - 1e-9 <= alpha_vec) & (alpha_vec <= kern.alpha_max + 1e-9)
        if not inside.all():
            bad = int(np.flatnonzero(~inside)[0])
            c, a = net.compressors[bad], alpha_vec[bad]
            raise SteadySolveError(
                f"compressor {c.id!r}: ratio {a} outside [1, {c.alpha_max}]", node=c.id
            )
        system = kern.square(alpha_vec)
    A, b_slack, M, c = system

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
        _check_length("q", q_vec, kern.nv, "node")

    pi_scale = kern.scaling.squared_pressure
    Pi0 = phi0 = None
    if x0 is not None:
        Pi0 = np.array(x0[0], dtype=float)
        phi0 = np.array(x0[1], dtype=float)
        _check_length("x0 squared pressures", Pi0, kern.nv, "node")
        _check_length("x0 flows", phi0, kern.ne, "edge")
        # the start in the caller's units on the folded rows: one that meets
        # the law is returned as given, the slack at its pressure
        r = np.concatenate((Pi0, phi0, q_vec)) @ M
        r += c
        phi_p = phi0[: kern.n_pipe]
        r[: kern.n_pipe] += kern.kappa_flow * phi_p * np.abs(phi_p)
        rnorm = np.abs(r).max()
        if rnorm <= tol:
            Pi0[kern.slack] = pi_scale
            _check_positive(net, Pi0)
            return SteadyState(
                net=net,
                Pi=Pi0,
                phi=phi0,
                residual_norm=float(rnorm),
                iterations=0,
                slack_injection=float(-(kern.incidence[kern.slack] @ phi0)),
                residual_history=[float(rnorm)],
            )

    flow_sc = kern.scaling.flow
    q_nd = q_vec / flow_sc  # the slack's entry meets only the dropped row
    nf = kern.nv - 1

    # unknowns: Pi at the non-slack nodes, then the edge flows; the slack
    # balance row is dropped and its injection recovered after the solve
    if Pi0 is not None:
        x = np.concatenate([Pi0[kern.free] / pi_scale, phi0 / flow_sc])
    else:
        x = np.concatenate([np.full(nf, kern.pi_slack), _spanning_tree_flows(net, q_nd)])
    b = np.concatenate([b_slack, -q_nd[kern.free]])

    # Newton starts from the scaled rows, not the folded ones: the two agree
    # only to rounding, and a start from the folded rows moves the warm
    # starts' states, and with them the NLP's outputs, in the last bits
    r = kern.residual(A, b, x, 0.0)
    rnorm = np.abs(r).max()
    if not math.isfinite(rnorm):
        raise _not_finite(net, kern, q_vec, Pi0, phi0, rnorm)
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
    _check_positive(net, pi_full)

    return SteadyState(
        net=net,
        Pi=pi_full * pi_scale,
        phi=phi * flow_sc,
        residual_norm=float(rnorm),
        iterations=iterations,
        slack_injection=float(-(kern.incidence[kern.slack] @ phi) * flow_sc),
        residual_history=history,
    )


def _check_length(name: str, values: np.ndarray, n: int, per: str) -> None:
    """Raise ``ValueError`` unless ``values`` is a vector of ``n`` entries."""
    if values.shape != (n,):
        given = values.shape[0] if values.ndim == 1 else f"shape {values.shape}"
        raise ValueError(f"{name}: expected {n} entries, one per {per}; got {given}")


def _check_positive(net: Network, Pi: np.ndarray) -> None:
    """Raise unless every squared pressure ``Pi`` (node order) is positive."""
    if Pi.min() <= 0:
        bad = net.nodes[int(np.argmin(Pi))].id
        raise SteadySolveError(
            f"negative squared pressure at node {bad!r}: operating point is infeasible",
            node=bad,
        )


def _not_finite(net: Network, kern, q, Pi0, phi0, rnorm) -> SteadySolveError:
    """The error for a non-finite first residual, naming the first node whose
    withdrawal or start squared pressure ``Pi0`` is not finite, else the first
    edge whose start flow ``phi0`` is not.  The slack's entries meet no row."""
    bad = ~np.isfinite(q)
    if Pi0 is not None:
        bad |= ~np.isfinite(Pi0)
    bad[kern.slack] = False
    if bad.any():
        culprit = net.nodes[int(np.argmax(bad))].id
        what = f"node {culprit!r}: withdrawal or squared pressure"
    elif phi0 is not None and not np.isfinite(phi0).all():
        culprit = net.edges[int(np.argmax(~np.isfinite(phi0)))].id
        what = f"edge {culprit!r}: flow"
    else:
        culprit, what = None, "the start or withdrawals"
    return SteadySolveError(f"{what} is not finite (residual {rnorm})",
                            residual=float(rnorm), node=culprit)
