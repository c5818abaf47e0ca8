"""Distributions of solved quantities and dual-based price diagnostics.

Per-cell values of pressures, flows, withdrawals and balance duals, together
with the cell masses, form discrete distributions over the uncertainty space.
The continuous distribution of a quantity is the law of its cubic interpolant
at a random withdrawal, computed exactly from the measure's CDF
(``StochasticGrid.value_density``); a quantity constant across the cells (a
nomination at its cap, a dual that stays zero) is one atom instead.  The
module also verifies the first-order pricing identity tying the balance dual
and the nomination-bound dual to the bid price, and estimates
constraint-violation probabilities by Monte Carlo resimulation at the solved
controls, the only sampling here.  The solved cell states are the SFV
representation of the state as a function of the withdrawal, so each sample
starts from their cubic interpolant at its withdrawal and is corrected by the
exact steady solve.

Every function here takes the solution alone: its ``layout`` holds the
network it was solved on and, for a chance-constrained solve, the stochastic
grid of the uncertain node.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from gasflow.nlp import SolveStatus
from gasflow.ogf import CcSolution
from gasflow.steady import SteadySolveError, solve_steady

log = logging.getLogger("gasflow.pricing")


class PricingError(ValueError):
    """Unknown selector or a solution unusable for the requested statistic."""


# cell values whose spread is at most this times max(1, max |value|) are one
# atom: on eight_node (gamma 2500, J3 caps 200, 300 and none) from K=50 to 800,
# quantities held at a bound spread by at most 1.01e-8 by this measure
# (interior-point offsets), all others by at least 2.1e-2
CONSTANT_RTOL = 1e-6


@dataclass
class ValueDistribution:
    """Distribution of a scalar quantity over the stochastic cells.

    ``omega``/``support``/``mass`` give the discrete (cell center, per-cell
    value, cell mass) triples.  ``kind`` is ``"density"``, with bin centers
    and the exact density of the interpolated quantity on those bins in
    ``density``, or ``"atom"``, with the (value, mass) of a quantity constant
    across the cells in ``atom``.
    """

    omega: np.ndarray
    support: np.ndarray
    mass: np.ndarray
    kind: str  # "density" or "atom"
    density: tuple[np.ndarray, np.ndarray] | None = None
    atom: tuple[float, float] | None = None

    @property
    def mean(self) -> float:
        return float(self.mass @ self.support)


def _per_cell_values(solution: CcSolution, quantity: str) -> np.ndarray:
    try:
        kind, _, name = quantity.partition("@")
    except AttributeError:
        raise PricingError(f"bad selector {quantity!r}") from None
    net = solution.layout.net
    if kind == "pressure":
        if name not in net.node_index:
            raise PricingError(f"pressure selector: unknown node {name!r}")
        return solution.pressure(name)
    if kind == "flow":
        if name not in net.edge_index:
            raise PricingError(f"flow selector: unknown edge {name!r}")
        return solution.flow(name)
    if kind == "lambda_q":
        if name not in solution.lambda_q:
            raise PricingError(f"lambda_q selector: unknown node {name!r}")
        return solution.lambda_q[name]
    if kind == "lambda_q_per_mass":
        if name not in solution.lambda_q:
            raise PricingError(f"lambda_q_per_mass selector: unknown node {name!r}")
        return solution.lambda_q_per_mass(name)
    if kind == "lambda_d":
        if name not in solution.lambda_d:
            raise PricingError(f"lambda_d selector: node {name!r} has no optimized demand")
        return solution.lambda_d[name]
    if kind == "d":
        if name in solution.d:
            return solution.d[name]
        if name in net.node_index:
            return solution.withdrawal(name)
        raise PricingError(f"withdrawal selector: unknown node {name!r}")
    raise PricingError(
        f"unknown selector kind {kind!r} (use pressure@, flow@, lambda_q@, "
        "lambda_q_per_mass@, lambda_d@ or d@)"
    )


def distribution_of(solution: CcSolution, quantity: str) -> ValueDistribution:
    """Distribution of a solved quantity over the uncertainty space of a
    chance-constrained solution, on the grid it was solved on.

    ``quantity`` selects ``pressure@node``, ``flow@edge``, ``lambda_q@node``,
    ``lambda_q_per_mass@node``, ``lambda_d@node`` or ``d@node``.  The discrete
    part pairs the cell centers and per-cell values with the cell masses.
    The continuous part is the exact density of the cubic interpolant of the
    per-cell values at a random withdrawal, on equal bins over its range; on
    a degenerate grid, or when the values spread by at most ``CONSTANT_RTOL``
    times ``max(1, max |value|)``, it is one atom of mass one at the
    mass-weighted mean.  Nothing is sampled, so the result does not depend on
    any seed.
    """
    grid = solution.layout.grid
    if grid is None:
        raise PricingError("distribution_of needs a chance-constrained solution")
    values = _per_cell_values(solution, quantity)
    dist = ValueDistribution(
        omega=grid.collocation_points.copy(),
        support=values.copy(),
        mass=grid.cell_mass.copy(),
        kind="density",
    )
    if grid.degenerate or np.ptp(values) <= CONSTANT_RTOL * max(1.0, np.abs(values).max()):
        dist.kind, dist.atom = "atom", (dist.mean, 1.0)
    else:
        dist.density = grid.value_density(values)
    return dist


@dataclass
class KktReport:
    """Per-cell check of the first-order identity at an optimized-demand node:
    balance dual plus nomination-bound dual equals price times cell mass."""

    node: str
    price: float
    reference: np.ndarray  # c_d * mass_k per cell
    residual: np.ndarray
    max_abs_residual: float
    at_kkt_point: bool
    passed: bool
    tolerance: float

    def to_json_dict(self) -> dict:
        return {
            "node": self.node,
            "price": self.price,
            "reference_per_cell": [float(v) for v in self.reference],
            "residual_per_cell": [float(v) for v in self.residual],
            "max_abs_residual": self.max_abs_residual,
            "at_kkt_point": self.at_kkt_point,
            "passed": self.passed,
            "tolerance": self.tolerance,
        }


def kkt_report(solution: CcSolution, tolerance: float = 1e-5) -> list[KktReport]:
    """Verify lambda_q + lambda_d = price * cell_mass per cell, per optimized node,
    with the prices of the network the solution was solved on.

    For uniform cell masses the reference is price / K; a deterministic
    solution is one cell of mass one.  Solutions that did not reach a KKT
    point are flagged; their residuals are informational.
    """
    reports = []
    at_kkt = solution.status is SolveStatus.OPTIMAL
    for nid in sorted(solution.d):
        node = solution.layout.net.node(nid)
        reference = node.demand_price * solution.cell_mass
        residual = solution.lambda_q[nid] + solution.lambda_d[nid] - reference
        max_abs = float(np.abs(residual).max())
        reports.append(
            KktReport(
                node=nid,
                price=node.demand_price,
                reference=reference,
                residual=residual,
                max_abs_residual=max_abs,
                at_kkt_point=at_kkt,
                passed=bool(at_kkt and max_abs <= tolerance),
                tolerance=tolerance,
            )
        )
    if not reports:
        raise PricingError("kkt_report requires at least one optimized demand node")
    return reports


@dataclass
class ViolationEstimate:
    """SFV and Monte-Carlo views of the chance constraint at one node."""

    node: str
    epsilon: float
    sfv_expectation: float
    mc_mean_penalty: float
    mc_penalty_se: float
    mc_violation_probability: float
    mc_violation_se: float
    n_samples: int
    n_failed: int

    def to_json_dict(self) -> dict:
        return {
            "node": self.node,
            "epsilon": self.epsilon,
            "sfv_expectation": self.sfv_expectation,
            "mc_mean_penalty": self.mc_mean_penalty,
            "mc_penalty_se": self.mc_penalty_se,
            "mc_violation_probability": self.mc_violation_probability,
            "mc_violation_se": self.mc_violation_se,
            "n_samples": self.n_samples,
            "n_failed": self.n_failed,
        }


def violation_probability(
    solution: CcSolution, mc_samples: int = 10000, seed: int = 0
) -> list[ViolationEstimate]:
    """Monte-Carlo revalidation of a chance-constrained solution at its
    controls, on the network and grid it was solved on.

    Samples the uncertain withdrawal by inverse CDF, in increasing order, and
    simulates the exact steady physics per sample (optimized nominations
    follow the cubic interpolant of their per-cell values, clipped to their
    bounds).  Each sample starts from the cubic interpolants of the solved
    cell states at its withdrawal, one for the squared pressures and one for
    the flows, each evaluated at all samples at once, and is corrected by
    ``solve_steady``'s damped Newton, which certifies every state to its
    tolerance.  A start that already meets it, by the largest entry of one
    product with the kernel's signed certification matrix, is returned
    unchanged: the same squared pressures and flows, the slack's set to its
    fixed value, with no Newton step.  A start or withdrawal that is not
    finite fails its sample.  Samples do not depend on each other;
    their squared pressures fill one (samples, nodes) array, whose
    chance-node columns are read once after the loop.
    Reports the mean quadratic penalty and the violation frequency per
    chance-relaxed node with standard errors.  Samples whose steady solve
    fails are counted separately, never silently dropped.
    """
    layout = solution.layout
    if layout.deterministic:
        raise PricingError("violation_probability needs a chance-constrained solution")
    if mc_samples < 2:
        raise PricingError(f"the Monte-Carlo check needs at least 2 samples, got {mc_samples}")
    net, grid = layout.net, layout.grid
    idx = net.node_index
    gamma = layout.penalty.gamma
    pi_sc = layout.scaling.squared_pressure
    chance_ids = layout.chance_nodes

    rng = np.random.default_rng(seed)
    omega = np.sort(grid.spec.ppf(rng.random(mc_samples)))
    alpha_vec = np.array([solution.alpha[c.id] for c in net.compressors])
    # per-sample withdrawals: nominations follow their interpolants, clipped
    caps = {nid: net.node(nid).demand_max for nid in solution.d} | {
        nid: net.node(nid).supply_max for nid in solution.s}
    q = layout.withdrawals({nid: np.clip(grid.value_interpolator(values)(omega), 0.0, caps[nid])
                            for nid, values in (solution.d | solution.s).items()}, omega)

    ok = np.ones(mc_samples, dtype=bool)
    # every sample's start: the cubic interpolants of the solved cell states
    start_pi = grid.value_interpolator(solution.Pi)(omega)
    start_phi = grid.value_interpolator(solution.phi)(omega)
    Pi = np.full((mc_samples, len(net.nodes)), np.nan)  # a failed sample's row stays NaN
    for i in range(mc_samples):
        try:
            st = solve_steady(net, alpha_vec, q[i], x0=(start_pi[i], start_phi[i]))
        except SteadySolveError:
            ok[i] = False
            continue
        Pi[i] = st.Pi
    pi_chance = Pi[:, [idx[cid] for cid in chance_ids]]
    pi_min2 = np.array([net.node(cid).pressure_min ** 2 for cid in chance_ids])
    shortfall = np.maximum((pi_min2 - pi_chance) / pi_sc, 0.0)
    penalties = dict(zip(chance_ids, (gamma * shortfall**2).T))
    violated = dict(zip(chance_ids, (pi_chance < pi_min2).T))

    n_ok = int(ok.sum())
    n_failed = mc_samples - n_ok
    if n_failed:
        log.warning("violation_probability: %d of %d steady solves failed", n_failed, mc_samples)
    out = []
    for cid in chance_ids:
        pen = penalties[cid][ok]
        vio = violated[cid][ok]
        mean_pen = float(pen.mean()) if n_ok else math.nan
        se_pen = float(pen.std(ddof=1) / math.sqrt(n_ok)) if n_ok > 1 else math.nan
        p_vio = float(vio.mean()) if n_ok else math.nan
        se_vio = float(math.sqrt(max(p_vio * (1 - p_vio), 0.0) / n_ok)) if n_ok else math.nan
        out.append(
            ViolationEstimate(
                node=cid,
                epsilon=layout.epsilon[cid],
                sfv_expectation=solution.sfv_expectation[cid],
                mc_mean_penalty=mean_pen,
                mc_penalty_se=se_pen,
                mc_violation_probability=p_vio,
                mc_violation_se=se_vio,
                n_samples=mc_samples,
                n_failed=n_failed,
            )
        )
    return out
