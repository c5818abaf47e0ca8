"""Acceptance suite: every shipped claim checked at its stated tolerance.

Each test prints one line; the terminal summary (see conftest) repeats a
PASS/FAIL line per criterion.  Heavy solves are session fixtures shared by
all criteria: the 8-node network at K = 50 cells for the three nomination
caps, and the single-pipe network at K = 100 cells for three violation levels
under both uncertainty measures, each revalidated by 10^4 exact
resimulations.
"""

import math
from dataclasses import replace

import numpy as np

from gasflow import configs, parse_network, solve_steady
from gasflow.nlp import NlpOptions, SolveStatus, check_derivatives, solve
from gasflow.ogf import (
    assemble_chance_constrained,
    assemble_deterministic,
    solve_chance_constrained,
    solve_deterministic,
)
from gasflow.stochastic import UncertaintySpec, build_grid, measure_basis_integrals

from conftest import ACCEPT_PEN

QMAXES = (200.0, 300.0, math.inf)
EPSILONS = (0.01, 0.05, 0.1)
DISTS = ("uniform", "truncnormal")


def test_criterion_1_kkt_pricing_identity(eight_node_cases):
    """Per cell, balance dual + nomination dual = c3/K = 0.4, within 1e-5;
    each chance-constrained solve finishes inside 30 seconds."""
    for qmax in QMAXES:
        case = eight_node_cases[qmax]
        sol = case.solution
        assert sol.optimal, f"qmax={qmax} did not reach a KKT point"
        identity = sol.lambda_q["J3"] + sol.lambda_d["J3"]
        worst = float(np.abs(identity - 0.4).max())
        assert worst <= 1e-5, f"qmax={qmax}: worst identity residual {worst:.2e}"
        assert case.solve_seconds < 30.0, f"qmax={qmax} took {case.solve_seconds:.1f}s"
        print(
            f"criterion 1 qmax={qmax}: max |lambda_q,3 + lambda_d,3 - 0.4| = {worst:.2e}"
            f" ({case.solve_seconds:.1f}s)"
        )
    print("CRITERION 1 (per-cell pricing identity, <30s/solve): PASS")


def test_criterion_2_dual_regimes(eight_node_cases):
    """Binding cap: flat lambda_q,3 with the bound dual carrying the price.
    No cap: bound dual vanishes.  lambda_q,5 mass at zero / partly positive /
    continuous across the three caps."""
    tight = eight_node_cases[200.0].solution
    loose = eight_node_cases[math.inf].solution
    mid = eight_node_cases[300.0].solution

    lq3 = tight.lambda_q["J3"]
    assert float(np.ptp(lq3)) <= 1e-5, "lambda_q,3 not constant across cells at qmax=200"
    assert float(tight.lambda_d["J3"].min()) >= 0.2, "lambda_d,3 should carry most of 0.4"

    assert float(np.abs(loose.lambda_d["J3"]).max()) <= 1e-4, "lambda_d,3 should vanish"

    lq5_tight = tight.lambda_q["J5"]
    assert float(np.abs(lq5_tight).max()) <= 1e-4, "lambda_q,5 should be all zero at 200"
    lq5_mid = mid.lambda_q["J5"]
    assert np.any(lq5_mid > 1e-3), "lambda_q,5 should be positive in some cells at 300"
    lq5_loose = loose.lambda_q["J5"]
    distinct = np.unique(np.round(lq5_loose, 6)).size
    assert distinct >= 10, f"lambda_q,5 should be continuous at inf (got {distinct} values)"

    # withdrawal regimes: pinned at the cap when one exists, an interior
    # distribution spread by the uncertainty when it does not
    assert np.all(np.abs(tight.d["J3"] - 200.0) <= 1e-3)
    assert np.all(np.abs(mid.d["J3"] - 300.0) <= 1e-3)
    assert float(loose.d["J3"].min()) > 300.0
    assert float(np.ptp(loose.d["J3"])) > 1.0
    print(
        "criterion 2: lambda_q,5 profiles "
        f"[200: max {np.abs(lq5_tight).max():.1e}] "
        f"[300: {np.sum(lq5_mid > 1e-3)} cells positive] "
        f"[inf: {distinct} distinct values]"
    )
    print("CRITERION 2 (dual regimes across nomination caps): PASS")


def test_criterion_3_chance_constraint_enforcement(eight_node_cases, single_pipe_cases):
    """Every solved case satisfies the spline-expansion budget exactly and the
    Monte-Carlo penalty mean at fixed controls within 3 SE + 2% allowance."""
    cases = [(f"eight_node qmax={q}", eight_node_cases[q]) for q in QMAXES]
    cases += [
        (f"single_pipe {d} eps={e}", single_pipe_cases[(d, e)])
        for d in DISTS
        for e in EPSILONS
    ]
    for label, case in cases:
        sol, est = case.solution, case.estimate
        for nid, sfv in sol.sfv_expectation.items():
            eps = sol.epsilon[nid]
            assert sfv <= eps + 1e-8, f"{label}: SFV expectation {sfv} above epsilon {eps}"
        allowance = 3.0 * est.mc_penalty_se + 0.02 * est.epsilon
        assert est.n_failed == 0, f"{label}: {est.n_failed} steady resimulations failed"
        assert est.mc_mean_penalty <= est.epsilon + allowance, (
            f"{label}: MC penalty {est.mc_mean_penalty:.5f} vs "
            f"{est.epsilon} + {allowance:.5f}"
        )
        print(
            f"criterion 3 {label}: sfv={max(sol.sfv_expectation.values()):.6f} "
            f"mc={est.mc_mean_penalty:.6f} (eps={est.epsilon}, allow={allowance:.5f})"
        )
    print("CRITERION 3 (chance constraint at SFV and Monte-Carlo level): PASS")


def test_criterion_4_epsilon_monotonicity(single_pipe_cases):
    """Compressor ratio strictly decreasing in epsilon for both measures,
    uniform above truncated normal throughout, and Monte-Carlo violation
    probability increasing in epsilon and larger under the uniform measure."""
    alphas = {
        d: [single_pipe_cases[(d, e)].solution.alpha["C1"] for e in EPSILONS] for d in DISTS
    }
    pviol = {
        d: [single_pipe_cases[(d, e)].estimate.mc_violation_probability for e in EPSILONS]
        for d in DISTS
    }
    for d in DISTS:
        a = alphas[d]
        assert a[0] > a[1] > a[2], f"{d}: alpha not strictly decreasing: {a}"
        p = pviol[d]
        assert p[0] < p[1] < p[2], f"{d}: violation probability not increasing: {p}"
    for i, e in enumerate(EPSILONS):
        assert alphas["uniform"][i] > alphas["truncnormal"][i], (
            f"eps={e}: alpha_uniform {alphas['uniform'][i]} not above "
            f"alpha_normal {alphas['truncnormal'][i]}"
        )
        assert pviol["uniform"][i] > pviol["truncnormal"][i], (
            f"eps={e}: uniform violation probability should exceed truncated normal"
        )
    print(f"criterion 4: alpha uniform={np.round(alphas['uniform'], 5).tolist()} "
          f"truncnormal={np.round(alphas['truncnormal'], 5).tolist()}")
    print(f"criterion 4: P(viol) uniform={np.round(pviol['uniform'], 4).tolist()} "
          f"truncnormal={np.round(pviol['truncnormal'], 4).tolist()}")
    print("CRITERION 4 (epsilon monotonicity and measure ordering): PASS")


def test_criterion_5_degenerate_equivalence():
    """A point-mass uncertainty reduces the stochastic problem to the
    deterministic one: objectives within 1e-8 (relative), controls 1e-6."""
    tight = NlpOptions(tol=1e-10)
    base = configs.load("eight_node")
    net = base.with_node(
        replace(base.node("J5"), uncertainty=UncertaintySpec(dist="uniform", lo=16.0, hi=16.0))
    )
    cc = solve_chance_constrained(net, K=4, penalty=ACCEPT_PEN, options=tight)
    det = solve_deterministic(base, loads={"J5": 80.0}, penalty=ACCEPT_PEN, options=tight)
    assert cc.optimal and det.optimal
    rel = abs(cc.objective - det.objective) / max(1.0, abs(det.objective))
    assert rel <= 1e-8, f"objective mismatch {rel:.2e}"
    for cid in cc.alpha:
        assert abs(cc.alpha[cid] - det.alpha[cid]) <= 1e-6
    d_gap = abs(cc.d["J3"].mean() - det.d["J3"][0]) / max(1.0, det.d["J3"][0])
    assert d_gap <= 1e-6
    print(f"criterion 5: objective rel diff {rel:.2e}, control gaps within 1e-6")
    print("CRITERION 5 (zero-width uncertainty equals deterministic): PASS")


def test_criterion_6_physics_oracle(eight_node_cases):
    """Closed-form two-node drop reproduced to 1e-10; per-cell optimizer
    states match exact steady resimulation to 1e-6 relative."""
    doc = {
        "wave_speed": 377.0,
        "nodes": [
            {"id": "IN", "kind": "slack", "slack_pressure": 5e6,
             "pressure_min": 1e6, "pressure_max": 7e6},
            {"id": "OUT", "kind": "flow", "pressure_min": 1e6, "pressure_max": 7e6},
        ],
        "pipes": [{"id": "P", "from": "IN", "to": "OUT", "length": 3e4,
                   "diameter": 0.9144, "friction": 0.01}],
    }
    net = parse_network(doc)
    q = 137.0
    state = solve_steady(net, None, {"OUT": q})
    analytic = net.slack_node.slack_pressure**2 - net.kappa()[0] * q * abs(q)
    rel = abs(state.squared_pressure_at("OUT") - analytic) / analytic
    assert rel <= 1e-10, f"two-node analytic mismatch {rel:.2e}"

    case = eight_node_cases[300.0]
    sol = case.solution
    worst_pi = worst_phi = 0.0
    for k in range(sol.K):
        qk = {"J3": float(sol.d["J3"][k]), "J5": 64.0 + float(sol.cell_omega[k])}
        st = solve_steady(case.net, sol.alpha, qk)
        worst_pi = max(worst_pi, float(np.max(np.abs(sol.Pi[k] - st.Pi) / st.Pi)))
        scale = max(1.0, float(np.abs(st.phi).max()))
        worst_phi = max(worst_phi, float(np.max(np.abs(sol.phi[k] - st.phi) / scale)))
    assert worst_pi <= 1e-6, f"per-cell squared pressures off by {worst_pi:.2e}"
    assert worst_phi <= 1e-6, f"per-cell flows off by {worst_phi:.2e}"
    print(f"criterion 6: analytic drop rel err {rel:.2e}; "
          f"cross-check worst Pi {worst_pi:.2e}, phi {worst_phi:.2e}")
    print("CRITERION 6 (physics oracle and optimizer cross-check): PASS")


def test_criterion_7_numerics_hygiene():
    """Derivative checks at 5 random interior points below 1e-5 on both
    assembled problems; basis integrals against a 10x quadrature oracle to
    1e-8 relative; spline partition of unity to 1e-12."""
    from test_ogf import random_interior

    net = configs.load("eight_node")
    det_problem, _ = assemble_deterministic(net, penalty=ACCEPT_PEN)
    unc = net.uncertain_nodes[0]
    grid16 = build_grid(unc.uncertainty, 16, node_id=unc.id)
    cc_problem, _ = assemble_chance_constrained(net, grid16, ACCEPT_PEN)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for problem in (det_problem, cc_problem):
        for _ in range(5):
            x = random_interior(problem, rng)
            worst = max(worst, check_derivatives(problem, x))
    assert worst <= 1e-5, f"derivative check {worst:.2e}"

    worst_int = 0.0
    for spec in (
        UncertaintySpec(dist="uniform", lo=-50.0, hi=50.0),
        UncertaintySpec(dist="truncated_normal", lo=-50.0, hi=50.0, mean=0.0, std=50 / 3),
    ):
        grid = build_grid(spec, 40)
        oracle = measure_basis_integrals(grid, points_per_interval=80)
        rel = np.abs(grid.basis_integrals - oracle) / np.maximum(np.abs(oracle), 1e-300)
        worst_int = max(worst_int, float(rel.max()))
    assert worst_int <= 1e-8, f"basis integral oracle gap {worst_int:.2e}"

    rng2 = np.random.default_rng(5)
    grid = build_grid(UncertaintySpec(dist="uniform", lo=0.0, hi=32.0), 50)
    pts = np.append(rng2.uniform(0.0, 32.0, 500), [0.0, 32.0])
    pu = np.abs(grid.basis_matrix(pts).sum(axis=1) - 1.0).max()
    assert pu <= 1e-12, f"partition of unity off by {pu:.2e}"
    print(f"criterion 7: derivatives {worst:.2e}, integrals {worst_int:.2e}, "
          f"partition of unity {pu:.2e}")
    print("CRITERION 7 (derivative, quadrature and spline hygiene): PASS")


def test_criterion_8_solver_unit_suite():
    """Box QP, bounded LP and constrained Rosenbrock solved to KKT residual
    1e-8 with the analytic multipliers."""
    from test_nlp import bounded_lp, box_qp, rosenbrock_eq, rosenbrock_oracle

    opts = NlpOptions(tol=1e-9)

    sol = solve(box_qp(), np.array([3.0]), opts)
    assert sol.status is SolveStatus.OPTIMAL
    assert max(sol.kkt_residuals.values()) <= 1e-8
    assert abs(sol.x[0] - 1.0) <= 1e-8 and abs(sol.lambda_lo[0] - 2.0) <= 1e-6

    sol = solve(bounded_lp(), np.array([1.0, 1.0]), opts)
    assert sol.status is SolveStatus.OPTIMAL
    assert max(sol.kkt_residuals.values()) <= 1e-8
    np.testing.assert_allclose(sol.x, [4.0, 1.0], atol=1e-7)
    assert abs(sol.lambda_eq[0] - 2.0) <= 1e-6
    assert abs(sol.lambda_hi[0] - 1.0) <= 1e-6

    x_ref, lam_ref = rosenbrock_oracle()
    sol = solve(rosenbrock_eq(), np.array([0.5, 0.5]), opts)
    assert sol.status is SolveStatus.OPTIMAL
    assert max(sol.kkt_residuals.values()) <= 1e-8
    np.testing.assert_allclose(sol.x, x_ref, atol=1e-7)
    assert abs(sol.lambda_eq[0] - lam_ref) <= 1e-4
    print("CRITERION 8 (analytic NLP suite at 1e-8 KKT residual): PASS")
