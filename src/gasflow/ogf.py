"""Assembly of the deterministic and chance-constrained optimal gas flow NLPs.

Both problems share one variable convention.  Compressor ratios are single
decisions shared across all stochastic cells.  Optimized withdrawals and
injections are per-cell (recourse) decisions priced in expectation, which is
what makes the per-cell first-order identity between the balance dual and the
nomination-bound dual hold cell by cell.  Squared pressures and edge flows are
per-cell states; the slack node's squared pressure is a constant, its
injection a free per-cell variable whose balance row therefore carries a zero
multiplier.

The minimum-pressure chance constraint at flagged nodes is expressed with a
one-sided quadratic penalty expanded in the cubic spline basis of the
stochastic grid: penalty values are collocated at the Greville points of the
basis and the expectation row bounds the integral of the expansion by the
acceptable level.  The squared pressures there come from the not-a-knot
cubic interpolant of the per-cell values, whose K B-spline coefficients ``c``
are border variables with one border row per cell, ``Pi_k - Dc[k] @ c = 0``
(a cell's own rows already fix its state, so the row cannot sit in the
cell).  The values at the Greville points are ``Dg @ c``, and the integral of
the expansion is ``rho @ v(pimin - Dg @ c)`` with quadrature weights ``rho``.
The budget row is that integral plus ``(t - epsilon) / gamma``: it stays in
the curvature-free units of the penalty shape, and its multiplier is
reported times ``1 / gamma``.  A cell touches only its own spline row and
the compressor ratios in the border.

The per-cell pipe, compressor and balance rows come from the shared
:mod:`gasflow.physics` kernel, evaluated over the K cells at once.  Its
friction nonlinearity ``phi * |phi|`` is smoothed here to
``phi * sqrt(phi^2 + delta^2)`` so the problem is twice differentiable; the
steady simulation solver keeps the exact term, and the smoothing error is far
below the cross-check tolerances at the default delta.  The assembly declares
the Jacobian and Hessian structure once; the callbacks return value vectors
in its order, the varying entries first and the constant ones last.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from gasflow.network import Network, Node, NodeKind
from gasflow.nlp import NlpOptions, NlpProblem, NlpSolution, SolveStatus, solve
from gasflow.physics import Scaling, _spanning_tree_flows, kernel, magnitude
from gasflow.steady import SteadySolveError, solve_steady
from gasflow.stochastic import StochasticGrid, build_grid

log = logging.getLogger("gasflow.ogf")


class OgfError(ValueError):
    """Problem assembly failure (unsupported structure or bad configuration)."""


@dataclass(frozen=True)
class PenaltyConfig:
    """Chance-penalty curvature and flow-smoothing width.

    ``gamma`` is the curvature of the one-sided quadratic penalty in
    nondimensional squared-pressure units: it fixes what one unit of the
    violation budget epsilon means physically.  ``delta`` is the friction
    smoothing width in kg/s; it must be positive, because the smoothed
    friction slope divides by ``sqrt(phi^2 + delta^2)``, which vanishes at
    zero flow when ``delta`` is zero.  The penalty shape is ``max(z, 0)^2``; its
    curvature jumps from 0 to 2 at zero shortfall.
    """

    gamma: float = 1.0
    delta: float = 1e-3

    def __post_init__(self):
        if not 0 < self.gamma < math.inf:
            raise OgfError(f"penalty curvature gamma must be positive and finite, got {self.gamma}")
        if not 0 < self.delta < math.inf:
            raise OgfError(f"smoothing width delta must be positive and finite, got {self.delta}")

    def shape(self, z):
        """Penalty shape (curvature-free): value, slope and curvature at z."""
        z = np.asarray(z, dtype=float)
        pos = np.maximum(z, 0.0)
        return pos * pos, 2.0 * pos, 2.0 * (z > 0.0)


@dataclass
class CcLayout:
    """Index maps from network entities to NLP variables and constraint rows.

    The deterministic problem is the single-cell special case (K = 1, no
    chance machinery, ``grid`` None).  A chance-constrained layout holds the
    network it was assembled for and the stochastic grid of its one uncertain
    node, so a solution carries both.  All index arrays address the flat
    variable vector of the assembled :class:`NlpProblem`; ``-1`` marks the
    slack node's squared pressure, which is a constant rather than a variable.
    """

    net: Network
    scaling: Scaling
    penalty: PenaltyConfig
    grid: StochasticGrid | None
    K: int
    cell_mass: np.ndarray
    cell_omega: np.ndarray  # uncertain-node increment per cell (kg/s)
    alpha_idx: dict[str, int]
    nom_idx: dict[str, np.ndarray]  # (K,) optimized nominations: demands, then supplies
    nom_sign: dict[str, float]  # +1 for a demand, -1 for a supply
    pi_idx: np.ndarray  # (K, nv), -1 at the slack column
    phi_idx: np.ndarray  # (K, ne)
    qs_idx: np.ndarray  # (K,)
    c_idx: dict[str, np.ndarray]  # (K,) spline coefficients of the chance node's squared pressure
    t_idx: dict[str, int]  # budget slack
    bal_rows: np.ndarray  # (K, nv)
    spline_rows: dict[str, np.ndarray]  # (K,) Pi_k - Dc[k] @ c = 0, border rows
    cc_rows: dict[str, int]  # budget rows
    epsilon: dict[str, float]
    f_scale: float
    n: int
    base_withdrawal: dict[str, float]  # fixed nodal loads after any override

    @property
    def chance_nodes(self) -> list[str]:
        return sorted(self.cc_rows)

    @property
    def deterministic(self) -> bool:
        return self.grid is None

    def withdrawals(self, nominations: dict[str, np.ndarray], omega: np.ndarray | None = None) -> np.ndarray:
        """Nodal withdrawals (kg/s), one row per cell or, given increments
        ``omega`` of the uncertain node, one per increment: the fixed loads,
        plus ``omega`` at the uncertain node, plus each optimized node's
        nomination in ``nominations`` (kg/s) with its sign."""
        idx = self.net.node_index
        rows = self.K if omega is None else len(omega)
        q = np.tile(np.array(list(self.base_withdrawal.values())), (rows, 1))
        if omega is not None:
            q[:, idx[self.grid.node_id]] += omega
        for nid, values in nominations.items():
            q[:, idx[nid]] += self.nom_sign[nid] * values
        return q

    def economic_value(self, expected: dict[str, float]) -> float:
        """Expected economic value of the priced flows (currency per s): each
        node's demand times its price, less its supply times its price, with
        a fixed load split into its demand and supply parts, the uncertain
        node's mean increment added to its demand, and an optimized node's
        nomination read from ``expected`` (zero where absent)."""
        value = 0.0
        for n in self.net.nodes:
            load = self.base_withdrawal[n.id]
            d, s = max(load, 0.0), max(-load, 0.0)
            if self.nom_sign.get(n.id, 0.0) > 0:
                d = expected.get(n.id, 0.0)
            elif self.nom_sign.get(n.id, 0.0) < 0:
                s = expected.get(n.id, 0.0)
            r_mean = 0.0 if n.uncertainty is None or self.deterministic else n.uncertainty.measure_mean()
            value += n.demand_price * (d + r_mean) - n.supply_price * s
        return value

    def shortfall(self, x: np.ndarray, cid: str):
        """Penalty value, slope and curvature at chance node ``cid``'s Greville points."""
        pimin = self.net.node(cid).pressure_min**2 / self.scaling.squared_pressure
        return self.penalty.shape(pimin - self.grid.Dg @ x[self.c_idx[cid]])


def _chance_nodes(net: Network) -> list[Node]:
    out = []
    for n in net.nodes:
        if n.uncertainty is not None or n.epsilon is not None:
            if n.kind is not NodeKind.FLOW:
                raise OgfError(f"node {n.id!r}: chance relaxation requires a flow node")
            out.append(n)
    return out


def _objective_scale(net: Network, scaling: Scaling) -> float:
    cands = [1.0]
    for n in net.nodes:
        cands.append(abs(n.demand_price) * scaling.flow)
        cands.append(abs(n.supply_price) * scaling.flow)
    for c in net.compressors:
        cands.append(c.eta * scaling.flow * (c.alpha_max**c.m - 1.0))
    return max(cands)


def _structure(blocks) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """The ``(rows, cols)`` of ``blocks``, each (rows, cols) or (rows, cols,
    values) broadcast together, in order, and the values the blocks carry.
    A symmetric pair is two blocks."""
    parts = [np.broadcast_arrays(*b) for b in blocks]
    rows, cols = (np.concatenate([p[i].ravel() for p in parts]) for i in (0, 1))
    return (rows, cols), np.concatenate([np.zeros(0)] + [p[2].ravel() for p in parts if len(p) > 2])


def _assemble(
    net: Network,
    grid: StochasticGrid | None,
    penalty: PenaltyConfig,
    loads: dict[str, float] | None = None,
    epsilon: float | None = None,
) -> tuple[NlpProblem, CcLayout]:
    """Shared assembler; ``grid`` None builds the deterministic problem."""
    kern = kernel(net)
    scaling = kern.scaling
    nodes = net.nodes
    nv, n_pipe, n_comp = kern.nv, kern.n_pipe, kern.n_comp
    idx = net.node_index

    uncertain = [n for n in nodes if n.uncertainty is not None]
    if grid is not None:
        if len(uncertain) != 1:
            raise OgfError(
                "the chance-constrained problem supports exactly one uncertain node; "
                f"found {len(uncertain)}"
            )
        unc_node = uncertain[0]
        if grid.node_id != unc_node.id:
            raise OgfError(f"stochastic grid built for node {grid.node_id!r}, "
                           f"but the uncertain node is {unc_node.id!r}")
        K = grid.K
        cell_mass = grid.cell_mass.copy()
        cell_omega = grid.collocation_points.copy()
        chance = _chance_nodes(net)
        if epsilon is not None and not 0 <= epsilon < math.inf:
            raise OgfError(f"epsilon override must be finite and >= 0 (got {epsilon})")
        for cn in chance:
            if cn.epsilon is None and epsilon is None:
                raise OgfError(
                    f"node {cn.id!r}: chance-relaxed minimum pressure requires epsilon"
                )
    else:
        K = 1
        cell_mass = np.ones(1)
        cell_omega = np.zeros(1)
        chance = []
        unc_node = None

    flow_sc = scaling.flow
    pi_sc = scaling.squared_pressure
    f_scale = _objective_scale(net, scaling)
    gamma = penalty.gamma
    delta_nd = penalty.delta / flow_sc

    slack = kern.slack
    cell = np.arange(K)[:, None]

    # the optimized nominations, demands then supplies, each with its sign,
    # bound and price
    nominated = [(n, 1.0, n.demand_max, n.demand_price) for n in nodes if n.demand_optimized]
    nominated += [(n, -1.0, n.supply_max, n.supply_price) for n in nodes if n.supply_optimized]
    chance_ids = sorted(n.id for n in chance)

    # ---- variable layout -------------------------------------------------
    pos = 0
    alpha_idx = {c.id: pos + i for i, c in enumerate(net.compressors)}
    pos += n_comp
    nom_idx = {n.id: pos + K * i + np.arange(K) for i, (n, *_) in enumerate(nominated)}
    nom_sign = {n.id: sign for n, sign, *_ in nominated}
    pos += K * len(nominated)
    # per cell: the kernel's states (free squared pressures, then flows), then qs
    stride = kern.n_state + 1
    state = pos + stride * cell + np.arange(kern.n_state)
    pi_idx = np.full((K, nv), -1, dtype=int)
    pi_idx[:, kern.free] = state[:, : nv - 1]
    phi_idx = state[:, nv - 1 :]
    qs_idx = pos + stride * cell[:, 0] + kern.n_state
    pos += K * stride
    # ---- constraint rows ---------------------------------------------------
    cell_rows = kern.n_rows * cell + np.arange(kern.n_rows)
    pipe_rows, comp_rows, bal_rows = np.split(cell_rows, [n_pipe, n_pipe + n_comp], axis=1)
    row = cell_rows.size
    c_idx, t_idx, spline_rows, cc_rows = {}, {}, {}, {}
    for cid in chance_ids:
        c_idx[cid], t_idx[cid] = np.arange(pos, pos + K), pos + K
        spline_rows[cid], cc_rows[cid] = np.arange(row, row + K), row + K
        pos, row = pos + K + 1, row + K + 1
    n_var, n_con = pos, row

    # ---- static data --------------------------------------------------------
    a_cols = np.array([alpha_idx[c.id] for c in net.compressors], dtype=int)
    comp_m = np.array([c.m for c in net.compressors])
    eta_nd = np.array([c.eta for c in net.compressors]) * flow_sc / f_scale

    loads = dict(loads or {})
    for key in loads:
        if key not in idx:
            raise OgfError(f"load override references unknown node {key!r}")
    base_q = np.array(
        [loads.get(n.id, n.base_withdrawal) for n in nodes], dtype=float
    )
    r_cells = np.zeros((K, nv))
    if grid is not None:
        r_cells[:, idx[unc_node.id]] = cell_omega
    q_cells_nd = (base_q[None, :] + r_cells) / flow_sc

    # the signed price of each nomination: a demand earns, a supply costs
    price_nd = {n.id: sign * price * flow_sc / f_scale for n, sign, _, price in nominated}

    # chance machinery: one grid serves every chance node
    if grid is not None:
        Dc, Dg, rho = grid.Dc, grid.Dg, grid.rho
        g_cols, g_vals = Dg.cols, Dg.vals
        # a negative weight would let the SFV expectation of a nonnegative
        # penalty fall below zero
        if rho.min() < 0.0:
            raise OgfError(
                f"node {unc_node.id!r}: K={K} cells give the {grid.spec.dist} measure a "
                f"negative Greville weight (smallest {rho.min():.3g}); use more cells"
            )
    eps = {n.id: n.epsilon if epsilon is None else float(epsilon) for n in chance}

    # ---- bounds --------------------------------------------------------------
    lower = np.full(n_var, -np.inf)
    upper = np.full(n_var, np.inf)
    for i, c in enumerate(net.compressors):
        lower[alpha_idx[c.id]] = 1.0
        upper[alpha_idx[c.id]] = c.alpha_max
    for n, _, cap, _ in nominated:
        lower[nom_idx[n.id]] = 0.0
        upper[nom_idx[n.id]] = cap / flow_sc if math.isfinite(cap) else np.inf
    for j, n in enumerate(nodes):
        if j == slack:
            continue
        cols = pi_idx[:, j]
        relaxed = n.id in chance_ids
        lower[cols] = 0.0 if relaxed else n.pressure_min**2 / pi_sc
        upper[cols] = n.pressure_max**2 / pi_sc
    for cid in chance_ids:
        lower[t_idx[cid]] = 0.0

    layout = CcLayout(
        net=net,
        scaling=scaling,
        penalty=penalty,
        grid=grid,
        K=K,
        cell_mass=cell_mass,
        cell_omega=cell_omega,
        alpha_idx=alpha_idx,
        nom_idx=nom_idx,
        nom_sign=nom_sign,
        pi_idx=pi_idx,
        phi_idx=phi_idx,
        qs_idx=qs_idx,
        c_idx=c_idx,
        t_idx=t_idx,
        bal_rows=bal_rows,
        spline_rows=spline_rows,
        cc_rows=cc_rows,
        epsilon=eps,
        f_scale=f_scale,
        n=n_var,
        base_withdrawal={n.id: float(base_q[j]) for j, n in enumerate(nodes)},
    )
    # the expected economic value of the fixed priced flows, a constant of
    # the objective
    econ_const_nd = layout.economic_value({}) / f_scale

    # ---- evaluation helpers ---------------------------------------------------
    def gather(x):
        alpha = x[a_cols]
        Pi = x[np.maximum(pi_idx, 0)]
        Pi[:, slack] = kern.pi_slack
        phi = x[phi_idx]
        return alpha, Pi, phi

    def q_all(x):
        q = q_cells_nd.copy()
        for nid, cols in nom_idx.items():
            q[:, idx[nid]] += nom_sign[nid] * x[cols]
        q[:, slack] = x[qs_idx]  # the slack withdrawal is the qs variable
        return q

    def objective(x):
        alpha, Pi, phi = gather(x)
        exp_flow = cell_mass @ magnitude(phi[:, n_pipe:], delta_nd)  # (n_comp,)
        val = float(np.sum(eta_nd * (alpha**comp_m - 1.0) * exp_flow))
        for nid, cols in nom_idx.items():
            val -= price_nd[nid] * float(cell_mass @ x[cols])
        return val - econ_const_nd

    def gradient(x):
        alpha, Pi, phi = gather(x)
        g = np.zeros(n_var)
        phi_c = phi[:, n_pipe:]
        s_phi = magnitude(phi_c, delta_nd)
        g[a_cols] = eta_nd * comp_m * alpha ** (comp_m - 1.0) * (cell_mass @ s_phi)
        g[phi_idx[:, n_pipe:]] = eta_nd * (alpha**comp_m - 1.0) * cell_mass[:, None] * (phi_c / s_phi)
        for nid, cols in nom_idx.items():
            g[cols] = -price_nd[nid] * cell_mass
        return g

    def constraints(x):
        alpha, Pi, _ = gather(x)
        A = kern.affine(alpha)
        c = np.empty(n_con)
        c[cell_rows] = kern.residual(A, kern.offset(A, q_all(x)), x[state], delta_nd)
        for cid in chance_ids:
            c[spline_rows[cid]] = Pi[:, idx[cid]] - Dc @ x[c_idx[cid]]
            v, _, _ = layout.shortfall(x, cid)
            c[cc_rows[cid]] = rho @ v + (x[t_idx[cid]] - eps[cid]) / gamma
        return c

    # the entries of the kernel, the ratios and the budget rows vary; those
    # of the withdrawal columns and the spline rows are constant and follow
    jac_structure, jac_fixed = _structure(
        [(cell_rows[:, kern.jac_rows], state[:, kern.jac_cols]), (comp_rows, a_cols)]
        + [(cc_rows[cid], c_idx[cid]) for cid in chance_ids]
        + [(bal_rows[:, idx[nid]], cols, -nom_sign[nid]) for nid, cols in nom_idx.items()]
        + [(bal_rows[:, slack], qs_idx, -1.0)]
        + [block for cid in chance_ids for block in (
            (spline_rows[cid], pi_idx[:, idx[cid]], 1.0),
            (spline_rows[cid][:, None], c_idx[cid][Dc.cols], -Dc.vals),
            (cc_rows[cid], t_idx[cid], 1.0 / gamma),
        )]
    )

    def jacobian(x):
        alpha, Pi, _ = gather(x)
        cells = kern.jacobian(kern.affine(alpha), x[state], delta_nd)
        budget = [-Dg.rmatvec(rho * layout.shortfall(x, cid)[1]) for cid in chance_ids]
        return np.concatenate([cells[:, kern.jac_rows, kern.jac_cols].ravel(),
                               kern.ratio_jacobian(Pi).ravel(), *budget, jac_fixed])

    # Hessian: compressor power in the flows and ratios, the pipe friction
    # laws, the ratio laws, and the budget rows' banded Dg^T diag(.) Dg
    comp_cols = phi_idx[:, n_pipe:]
    fr_cols = pi_idx[:, kern.comp_from]  # (K, n_comp)
    mask = fr_cols >= 0
    ratio_cols = np.broadcast_to(a_cols, (K, n_comp))
    hess_structure, _ = _structure(
        [(comp_cols, comp_cols), (ratio_cols, comp_cols), (comp_cols, ratio_cols),
         (a_cols, a_cols), (phi_idx[:, :n_pipe], phi_idx[:, :n_pipe]),
         (ratio_cols[mask], fr_cols[mask]), (fr_cols[mask], ratio_cols[mask])]
        + [(c_idx[cid][g_cols][:, :, None], c_idx[cid][g_cols][:, None, :])
           for cid in chance_ids]
    )

    def hessian(x, y, obj_factor):
        alpha, _, phi = gather(x)
        phi_c = phi[:, n_pipe:]
        s_c = magnitude(phi_c, delta_nd)
        weight = obj_factor * cell_mass[:, None]
        flow_curv = weight * eta_nd * (alpha**comp_m - 1.0) * delta_nd**2 / s_c**3
        cross = weight * eta_nd * comp_m * alpha ** (comp_m - 1.0) * (phi_c / s_c)
        ratio_curv = (obj_factor * eta_nd * comp_m * (comp_m - 1.0) * alpha ** (comp_m - 2.0)
                      * (cell_mass @ s_c))
        y_ratio = -y[comp_rows][mask]
        budget = []
        for cid in chance_ids:
            _, _, ddv = layout.shortfall(x, cid)
            curv = y[cc_rows[cid]] * rho * ddv
            budget.append(curv[:, None, None] * g_vals[:, :, None] * g_vals[:, None, :])
        return np.concatenate([v.ravel() for v in (
            flow_curv, cross, cross, ratio_curv, kern.pipe_hessian(phi, y[pipe_rows], delta_nd),
            y_ratio, y_ratio, *budget)])

    # the cell of each variable that lives on one: its states and recourse
    # flows; -1 marks the compressor ratios and the chance variables.  The
    # barrier weighs a cell variable by its cell's mass, as the SFV
    # expectation does, and every other variable by 1
    in_cell = np.full(n_var, -1)
    in_cell[state] = cell
    for cols in (qs_idx, *nom_idx.values()):
        in_cell[cols] = cell[:, 0]
    barrier_weights = np.where(in_cell >= 0, cell_mass[in_cell], 1.0)
    blocks = None
    if grid is not None:
        # one KKT cell per stochastic cell: its variables and rows; the
        # compressor ratios and the chance variables and rows are border (the
        # deterministic problem is a single cell, with nothing to eliminate).
        # In the border, spline coefficient k and spline row k of every chance
        # node share band position k; the ratios, t and the budget rows are
        # the arrow
        blocks = np.concatenate([in_cell, np.full(n_con, -1)])
        blocks[n_var + cell_rows] = cell
        for cid in chance_ids:
            blocks[c_idx[cid]] = blocks[n_var + spline_rows[cid]] = -2 - np.arange(K)

    problem = NlpProblem(
        n=n_var,
        m=n_con,
        objective=objective,
        gradient=gradient,
        constraints=constraints,
        jacobian=jacobian,
        lower=lower,
        upper=upper,
        hessian=hessian,
        jac_structure=jac_structure,
        hess_structure=hess_structure,
        name="ogf-det" if grid is None else "ogf-cc",
        blocks=blocks,
        barrier_weights=barrier_weights,
    )
    return problem, layout


def assemble_deterministic(
    net: Network, loads: dict[str, float] | None = None, penalty: PenaltyConfig | None = None
) -> tuple[NlpProblem, CcLayout]:
    """Deterministic optimal gas flow as an NLP with hard pressure boxes.

    ``loads`` optionally overrides fixed nodal withdrawals (kg/s), e.g. to
    solve at the mean of an uncertain load.  Uncertainty specs are ignored.
    """
    return _assemble(net, None, penalty or PenaltyConfig(), loads=loads)


def assemble_chance_constrained(
    net: Network,
    grid: StochasticGrid,
    penalty: PenaltyConfig | None = None,
    epsilon: float | None = None,
) -> tuple[NlpProblem, CcLayout]:
    """Chance-constrained optimal gas flow over the stochastic grid.

    Exactly one node may carry an uncertainty spec (1-D stochastic space),
    and ``grid`` must be built for it (its ``node_id``).  Nodes flagged with
    an epsilon keep their maximum-pressure boxes per cell but trade the
    minimum-pressure box for the expected-penalty budget; all other nodes
    keep hard boxes in every cell.  ``epsilon``, when given, replaces every
    such node's violation level; ``layout.epsilon`` holds the levels used.
    """
    if grid is None:
        raise OgfError("chance-constrained assembly requires a stochastic grid")
    return _assemble(net, grid, penalty or PenaltyConfig(), epsilon=epsilon)


@dataclass
class CcSolution:
    """Decoded optimal gas flow solution in physical units.

    Per-cell arrays are indexed like the stochastic grid cells.  ``lambda_q``
    holds the nodal balance duals (currency per kg/s, the marginal system cost
    of one extra unit of withdrawal at that node in that cell), ``lambda_d``
    and ``lambda_s`` the nomination-bound duals per cell, ``lambda_cc`` the
    shadow price of the violation budget.
    """

    status: SolveStatus
    objective: float
    expected_compressor_power: float
    expected_economic_value: float
    alpha: dict[str, float]
    d: dict[str, np.ndarray]
    s: dict[str, np.ndarray]
    Pi: np.ndarray  # (K, nv) Pa^2
    phi: np.ndarray  # (K, ne) kg/s
    slack_injection: np.ndarray  # (K,) kg/s
    lambda_q: dict[str, np.ndarray]
    lambda_d: dict[str, np.ndarray]
    lambda_s: dict[str, np.ndarray]
    lambda_cc: dict[str, float]
    sfv_expectation: dict[str, float]
    epsilon: dict[str, float]
    cell_mass: np.ndarray
    cell_omega: np.ndarray
    kkt_residuals: dict[str, float]
    iterations: int
    layout: CcLayout
    nlp: NlpSolution

    @property
    def K(self) -> int:
        return self.cell_mass.size

    @property
    def optimal(self) -> bool:
        return self.status is SolveStatus.OPTIMAL

    def pressure(self, node_id: str) -> np.ndarray:
        """Per-cell pressure at a node (Pa)."""
        j = self.layout.net.node_index[node_id]
        return np.sqrt(self.Pi[:, j])

    def flow(self, edge_id: str) -> np.ndarray:
        """Per-cell mass flow on an edge (kg/s)."""
        e = self.layout.net.edge_index[edge_id]
        return self.phi[:, e]

    def withdrawal(self, node_id: str) -> np.ndarray:
        """Per-cell total withdrawal at a node (kg/s)."""
        layout = self.layout
        omega = None if layout.deterministic else self.cell_omega
        return layout.withdrawals(self.d | self.s, omega)[:, layout.net.node_index[node_id]]

    def expected(self, values: np.ndarray) -> float:
        return float(self.cell_mass @ values)

    def lambda_q_per_mass(self, node_id: str) -> np.ndarray:
        """Balance dual normalized by cell mass (price per unit probability).

        The raw per-cell dual scales with the cell's probability mass; both
        views are emitted because plotted price distributions are ambiguous
        about the convention.
        """
        return self.lambda_q[node_id] / self.cell_mass

    def to_json_dict(self, mc_estimates: dict[str, dict] | None = None) -> dict:
        net = self.layout.net
        # each per-node series as one list, read by every cell
        series = {
            "pressures": dict(zip((n.id for n in net.nodes), np.sqrt(self.Pi).T.tolist())),
            "flows": dict(zip((e.id for e in net.edges), self.phi.T.tolist())),
            "lambda_q": {nid: v.tolist() for nid, v in self.lambda_q.items()},
            "lambda_q_per_mass": {nid: (v / self.cell_mass).tolist()
                                  for nid, v in self.lambda_q.items()},
            "lambda_d": {nid: v.tolist() for nid, v in self.lambda_d.items()},
            "withdrawals": {nid: self.withdrawal(nid).tolist()
                            for nid in list(self.d) + [n.id for n in net.uncertain_nodes]},
        }
        cells = [
            {"omega": omega, "mass": mass}
            | {key: {nid: v[k] for nid, v in by_node.items()} for key, by_node in series.items()}
            for k, (omega, mass) in enumerate(zip(self.cell_omega.tolist(),
                                                  self.cell_mass.tolist()))
        ]
        chance = []
        for nid in sorted(self.sfv_expectation):
            entry = {
                "node": nid,
                "epsilon": self.epsilon[nid],
                "sfv_expectation": self.sfv_expectation[nid],
                "lambda_cc": self.lambda_cc[nid],
            }
            if mc_estimates and nid in mc_estimates:
                entry["mc_estimate"] = mc_estimates[nid]
            chance.append(entry)
        return {
            "status": self.status.value,
            "objective": self.objective,
            "expected_compressor_power": self.expected_compressor_power,
            "expected_economic_value": self.expected_economic_value,
            "alpha": {cid: float(a) for cid, a in self.alpha.items()},
            "d": {nid: float(self.cell_mass @ v) for nid, v in self.d.items()},
            "s": {nid: float(self.cell_mass @ v) for nid, v in self.s.items()},
            "lambda_d": {nid: float(v.sum()) for nid, v in self.lambda_d.items()},
            "cells": cells,
            "chance": chance,
            "kkt_residuals": self.kkt_residuals,
        }


def decode(solution: NlpSolution, layout: CcLayout) -> CcSolution:
    """Map an NLP solution back to physical quantities and priced duals."""
    if solution.status is SolveStatus.INFEASIBLE:
        log.warning("decoding an infeasible NLP solution; values are indicative only")
    net = layout.net
    kern = kernel(net)
    x, y = solution.x, solution.lambda_eq
    flow_sc = layout.scaling.flow
    pi_sc = layout.scaling.squared_pressure
    f_sc = layout.f_scale
    price_unit = f_sc / flow_sc  # currency per (kg/s) per unit of internal dual

    Pi = x[np.maximum(layout.pi_idx, 0)]
    Pi[:, kern.slack] = kern.pi_slack
    Pi = Pi * pi_sc
    phi = x[layout.phi_idx] * flow_sc
    qs = x[layout.qs_idx] * flow_sc

    alpha = {cid: float(x[i]) for cid, i in layout.alpha_idx.items()}
    nominated = {nid: x[cols] * flow_sc for nid, cols in layout.nom_idx.items()}
    d = {nid: v for nid, v in nominated.items() if layout.nom_sign[nid] > 0}
    s = {nid: v for nid, v in nominated.items() if layout.nom_sign[nid] < 0}
    lambda_d = {nid: solution.lambda_hi[layout.nom_idx[nid]] * price_unit for nid in d}
    lambda_s = {nid: solution.lambda_hi[layout.nom_idx[nid]] * price_unit for nid in s}

    lambda_q = {node.id: -y[layout.bal_rows[:, j]] * price_unit for j, node in enumerate(net.nodes)}

    # the penalty's integral rho @ v at the Greville points, scaled by the
    # curvature, from the spline coefficients
    gamma = layout.penalty.gamma
    sfv, lambda_cc = {}, {}
    for cid in layout.c_idx:
        v, _, _ = layout.shortfall(x, cid)
        sfv[cid] = float(gamma * (layout.grid.rho @ v))
        lambda_cc[cid] = float(y[layout.cc_rows[cid]] * f_sc / gamma)  # the row is divided by gamma

    # objective pieces in physical units
    mass = layout.cell_mass
    delta_nd = layout.penalty.delta / flow_sc
    wc = 0.0
    for i, c in enumerate(net.compressors):
        s_phi = magnitude(phi[:, kern.n_pipe + i] / flow_sc, delta_nd) * flow_sc
        wc += c.eta * (alpha[c.id] ** c.m - 1.0) * float(mass @ s_phi)
    we = layout.economic_value({nid: float(mass @ v) for nid, v in nominated.items()})

    return CcSolution(
        status=solution.status,
        objective=float(solution.objective * f_sc),
        expected_compressor_power=wc,
        expected_economic_value=we,
        alpha=alpha,
        d=d,
        s=s,
        Pi=Pi,
        phi=phi,
        slack_injection=-qs,
        lambda_q=lambda_q,
        lambda_d=lambda_d,
        lambda_s=lambda_s,
        lambda_cc=lambda_cc,
        sfv_expectation=sfv,
        epsilon=dict(layout.epsilon),
        cell_mass=mass.copy(),
        cell_omega=layout.cell_omega.copy(),
        kkt_residuals=dict(solution.kkt_residuals),
        iterations=solution.iterations,
        layout=layout,
        nlp=solution,
    )


def _initial_point_deterministic(net: Network, layout: CcLayout) -> np.ndarray:
    """Feasible-ish start: flat pressures, spanning-tree flows at warm loads."""
    idx = net.node_index
    flow_sc = layout.scaling.flow
    x0 = np.zeros(layout.n)
    for c in net.compressors:
        x0[layout.alpha_idx[c.id]] = min(1.0 + 0.05 * (c.alpha_max - 1.0), c.alpha_max)
    q = np.array([n.base_withdrawal for n in net.nodes], dtype=float)
    for nid, cols in layout.nom_idx.items():
        node = net.node(nid)
        if layout.nom_sign[nid] < 0:
            warm = min(node.supply, node.supply_max)
        elif node.demand > 0:
            warm = min(node.demand, node.demand_max)
        else:
            warm = min(100.0, node.demand_max)
        x0[cols] = warm / flow_sc
        q[idx[nid]] += layout.nom_sign[nid] * warm
    x0[layout.pi_idx[layout.pi_idx >= 0]] = kernel(net).pi_slack
    phi0 = _spanning_tree_flows(net, q / flow_sc)
    x0[layout.phi_idx] = phi0[None, :]
    x0[layout.qs_idx] = q.sum() / flow_sc
    return x0


def solve_deterministic(
    net: Network,
    loads: dict[str, float] | None = None,
    penalty: PenaltyConfig | None = None,
    options: NlpOptions | None = None,
) -> CcSolution:
    """Assemble and solve the deterministic optimal gas flow problem."""
    problem, layout = assemble_deterministic(net, loads=loads, penalty=penalty)
    x0 = _initial_point_deterministic(net, layout)
    sol = solve(problem, x0, options)
    return decode(sol, layout)


def initial_point_chance_constrained(
    layout: CcLayout, options: NlpOptions | None = None
) -> np.ndarray:
    """Warm start for the stochastic problem from the mean-load deterministic
    solution, refined per cell by the steady simulation where it converges."""
    net, grid = layout.net, layout.grid
    unc_id = grid.node_id
    loads = {unc_id: net.node(unc_id).base_withdrawal + grid.spec.measure_mean()}
    det = solve_deterministic(net, loads=loads, penalty=layout.penalty, options=options)

    idx = net.node_index
    flow_sc = layout.scaling.flow
    pi_sc = layout.scaling.squared_pressure
    x0 = np.zeros(layout.n)
    for cid, i in layout.alpha_idx.items():
        x0[i] = det.alpha[cid]
    nominated = {nid: v[0] for nid, v in (det.d | det.s).items()}
    for nid, cols in layout.nom_idx.items():
        x0[cols] = nominated[nid] / flow_sc

    alpha_vec = np.array([det.alpha[c.id] for c in net.compressors])
    q = layout.withdrawals(nominated, layout.cell_omega)
    pi_det = det.Pi[0]
    phi_det = det.phi[0]
    for k, q_k in enumerate(q):
        try:
            st = solve_steady(net, alpha_vec, q_k, x0=(pi_det, phi_det))
            pi_k, phi_k = st.Pi, st.phi
        except SteadySolveError:
            pi_k, phi_k = pi_det, phi_det
        cols = layout.pi_idx[k]
        x0[cols[cols >= 0]] = (pi_k / pi_sc)[cols >= 0]
        x0[layout.phi_idx[k]] = phi_k / flow_sc
        x0[layout.qs_idx[k]] = q_k.sum() / flow_sc

    # spline coefficients through the cell values, and the budget slack there
    for cid, cols in layout.c_idx.items():
        x0[cols] = grid.Dc.solve(x0[layout.pi_idx[:, idx[cid]]])
        v, _, _ = layout.shortfall(x0, cid)
        eps = layout.epsilon[cid]
        slack_t = eps - layout.penalty.gamma * float(grid.rho @ v)
        x0[layout.t_idx[cid]] = max(slack_t, 1e-3 * max(eps, 1e-8))
    return x0


def solve_chance_constrained(
    net: Network,
    K: int,
    penalty: PenaltyConfig | None = None,
    epsilon: float | None = None,
    options: NlpOptions | None = None,
    x0: CcSolution | None = None,
) -> CcSolution:
    """Build the grid for the uncertain node, assemble, warm start and solve.

    ``epsilon`` overrides the acceptable violation level on every
    chance-relaxed node; it is data of the assembly, and the network is not
    rewritten.  ``x0`` may be a previous solution on an equal network with
    the same ``K``: its grid then serves this solve, and its primal point and
    multipliers warm start it, e.g. along an epsilon sweep.  Otherwise the
    grid is built and the solve starts cold from
    :func:`initial_point_chance_constrained`.
    """
    uncertain = net.uncertain_nodes
    if len(uncertain) != 1:
        raise OgfError(
            f"chance-constrained solve needs exactly one uncertain node, found {len(uncertain)}"
        )
    warm = x0 is not None and x0.layout.net == net and x0.K == K
    unc = uncertain[0]
    grid = x0.layout.grid if warm else build_grid(unc.uncertainty, K, node_id=unc.id)
    problem, layout = assemble_chance_constrained(net, grid, penalty, epsilon=epsilon)
    if warm:
        prev = x0.nlp
        sol = solve(problem, prev.x, options, duals0=(prev.lambda_eq, prev.lambda_lo, prev.lambda_hi))
    else:
        sol = solve(problem, initial_point_chance_constrained(layout, options=options), options)
    return decode(sol, layout)
