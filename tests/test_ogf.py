import ast
import inspect
import math
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse._base as sp_base
from scipy.interpolate import CubicSpline

import gasflow.nlp as nlp
import gasflow.ogf as ogf
import gasflow.pricing as pricing
from gasflow import configs, parse_network, solve_steady
from gasflow.nlp import (
    NlpOptions,
    _BorderedFactor,
    _BorderedKkt,
    check_derivatives,
    check_hessian,
    solve,
)
from gasflow.ogf import (
    OgfError,
    PenaltyConfig,
    assemble_chance_constrained,
    assemble_deterministic,
    decode,
    initial_point_chance_constrained,
    solve_chance_constrained,
    solve_deterministic,
)
from gasflow.pricing import violation_probability
from gasflow.stochastic import UncertaintySpec, build_grid

PEN = PenaltyConfig(gamma=2500.0, delta=1e-3)


@pytest.fixture(scope="module")
def single_pipe():
    return configs.load("single_pipe")


@pytest.fixture(scope="module")
def eight_node():
    return configs.load("eight_node")


@pytest.fixture(scope="module")
def cc_single_pipe(single_pipe):
    return solve_chance_constrained(single_pipe, K=16, penalty=PEN, epsilon=0.05)


@pytest.fixture(scope="module")
def cc_eight_node_300(eight_node):
    net = eight_node.with_node(replace(eight_node.node("J3"), demand_max=300.0))
    return solve_chance_constrained(net, K=16, penalty=PEN)


def random_interior(problem, rng):
    lo, hi = problem.lower, problem.upper
    x = np.empty(problem.n)
    both = np.isfinite(lo) & np.isfinite(hi)
    x[both] = lo[both] + (0.3 + 0.4 * rng.random(both.sum())) * (hi[both] - lo[both])
    lo_only = np.isfinite(lo) & ~np.isfinite(hi)
    x[lo_only] = lo[lo_only] + 0.5 + rng.random(lo_only.sum())
    hi_only = ~np.isfinite(lo) & np.isfinite(hi)
    x[hi_only] = hi[hi_only] - 0.5 - rng.random(hi_only.sum())
    free = ~np.isfinite(lo) & ~np.isfinite(hi)
    x[free] = rng.normal(scale=0.5, size=free.sum())
    return x


class TestDeterministic:
    def test_single_pipe_min_power_hits_pressure_floor(self, single_pipe):
        # with a fixed load and pure compression cost the optimum pins the
        # delivery pressure at its floor, fixing alpha analytically
        sol = solve_deterministic(single_pipe)
        net = single_pipe
        kappa = net.kappa()[0]
        alpha_ref = (
            net.node("N3").pressure_min ** 2 + kappa * 250.0**2
        ) / net.slack_node.slack_pressure**2
        assert sol.optimal
        assert sol.alpha["C1"] == pytest.approx(alpha_ref, rel=1e-5)
        assert sol.pressure("N3")[0] == pytest.approx(net.node("N3").pressure_min, rel=1e-5)

    def test_zero_demand_zero_price_idle(self):
        doc = {
            "wave_speed": 377.0,
            "nodes": [
                {"id": "A", "kind": "slack", "slack_pressure": 5e6,
                 "pressure_min": 3e6, "pressure_max": 6e6},
                {"id": "B", "kind": "flow", "pressure_min": 3e6, "pressure_max": 6e6},
                {"id": "C", "kind": "flow", "pressure_min": 3e6, "pressure_max": 6e6},
            ],
            "pipes": [{"id": "P", "from": "B", "to": "C", "length": 2e4,
                       "diameter": 0.9144, "friction": 0.01}],
            "compressors": [{"id": "K", "from": "A", "to": "B", "alpha_max": 1.4,
                             "eta": 0.1, "m": 1.0}],
        }
        sol = solve_deterministic(parse_network(doc))
        assert sol.optimal
        # with zero flow the power term is flat to within eta*delta, so the
        # ratio is pinned at its lower bound only to that resolution
        assert sol.alpha["K"] == pytest.approx(1.0, abs=1e-3)
        assert sol.objective == pytest.approx(0.0, abs=1e-6)
        np.testing.assert_allclose(sol.phi[0], 0.0, atol=1e-6)

    def test_interior_optimized_demand_dual_equals_price(self, eight_node):
        # no nomination bound: the balance dual at the optimized node must
        # equal the bid price exactly (first-order condition)
        net = eight_node.with_node(replace(eight_node.node("J3"), demand_max=math.inf))
        sol = solve_deterministic(net, loads={"J5": 80.0})
        assert sol.optimal
        d3 = sol.d["J3"][0]
        assert 0.0 < d3 < 1e4
        assert sol.lambda_q["J3"][0] == pytest.approx(20.0, rel=1e-5)
        # the decoded withdrawal reflects the load override
        assert sol.withdrawal("J5")[0] == pytest.approx(80.0)

    def test_infeasible_box_rejected(self):
        doc = {
            "wave_speed": 377.0,
            "nodes": [
                {"id": "A", "kind": "slack", "slack_pressure": 5e6,
                 "pressure_min": 3e6, "pressure_max": 6e6},
                {"id": "B", "kind": "flow", "pressure_min": 6e6, "pressure_max": 3e6},
            ],
            "pipes": [{"id": "P", "from": "A", "to": "B", "length": 2e4,
                       "diameter": 0.9144, "friction": 0.01}],
        }
        with pytest.raises(Exception, match="pressure_min"):
            solve_deterministic(parse_network(doc))


class TestChanceConstrainedStructure:
    def test_layout_counts(self, single_pipe):
        net = single_pipe
        unc = net.uncertain_nodes[0]
        grid = build_grid(unc.uncertainty, 8, node_id=unc.id)
        problem, layout = assemble_chance_constrained(net, grid, PEN)
        K, nv, ne = 8, 3, 2
        assert layout.K == K
        # alpha + per-cell (Pi without slack, flows, slack injection) + spline
        # coefficients + budget slack
        assert problem.n == 1 + K * ((nv - 1) + ne + 1) + K + 1
        # per-cell rows (pipe, compressor, balances, spline) + budget
        assert problem.m == K * (1 + 1 + nv + 1) + 1
        assert layout.chance_nodes == ["N3"]

    def test_barrier_weights_are_cell_masses(self):
        # the truncated normal's cells have unequal masses
        net = configs.load("single_pipe_truncnormal")
        unc = net.uncertain_nodes[0]
        grid = build_grid(unc.uncertainty, 8, node_id=unc.id)
        assert np.ptp(grid.cell_mass) > 0.0
        problem, layout = assemble_chance_constrained(net, grid, PEN)
        cell_cols = np.column_stack([layout.pi_idx[:, layout.pi_idx[0] >= 0], layout.phi_idx, layout.qs_idx,
                                     *layout.d_idx.values(), *layout.s_idx.values()])
        w = problem.barrier_weights
        np.testing.assert_array_equal(w[cell_cols], np.broadcast_to(grid.cell_mass[:, None], cell_cols.shape))
        rest = np.setdiff1d(np.arange(problem.n), cell_cols)
        alpha_c_t = [*layout.alpha_idx.values(), *np.concatenate(list(layout.c_idx.values())),
                     *layout.t_idx.values()]
        np.testing.assert_array_equal(rest, np.sort(alpha_c_t))
        np.testing.assert_array_equal(w[rest], 1.0)
        det, _ = assemble_deterministic(net)
        np.testing.assert_array_equal(det.barrier_weights, np.ones(det.n))

    def test_shared_alpha_single_variable(self, cc_single_pipe):
        assert set(cc_single_pipe.alpha) == {"C1"}

    def test_balance_holds_in_every_cell(self, cc_single_pipe):
        sol = cc_single_pipe
        net = sol.layout.net
        from gasflow import incidence

        A = incidence(net)
        for k in range(sol.K):
            inflow = A @ sol.phi[k]
            q = np.array([
                -sol.slack_injection[k] if n.kind.value == "slack" else sol.withdrawal(n.id)[k]
                for n in net.nodes
            ])
            np.testing.assert_allclose(inflow, q, atol=1e-6)

    def test_expected_balance_identity(self, cc_single_pipe):
        sol = cc_single_pipe
        from gasflow import incidence

        A = incidence(sol.layout.net)
        residual = np.zeros(len(sol.layout.net.nodes))
        for k in range(sol.K):
            q = np.array([
                -sol.slack_injection[k] if n.kind.value == "slack" else sol.withdrawal(n.id)[k]
                for n in sol.layout.net.nodes
            ])
            residual += sol.cell_mass[k] * (A @ sol.phi[k] - q)
        np.testing.assert_allclose(residual, 0.0, atol=1e-8)

    def test_cells_match_steady_simulation(self, cc_single_pipe):
        # criterion: optimizer per-cell states reproduce the exact physics
        sol = cc_single_pipe
        net = sol.layout.net
        for k in range(sol.K):
            q = {"N3": 250.0 + sol.cell_omega[k]}
            st = solve_steady(net, sol.alpha, q)
            np.testing.assert_allclose(sol.Pi[k], st.Pi, rtol=1e-6)
            np.testing.assert_allclose(
                sol.phi[k], st.phi, rtol=1e-6, atol=1e-6 * max(1.0, np.abs(st.phi).max())
            )

    def test_hard_bounds_honored(self, cc_eight_node_300):
        sol = cc_eight_node_300
        net = sol.layout.net
        for j, node in enumerate(net.nodes):
            assert np.all(sol.Pi[:, j] <= node.pressure_max**2 * (1 + 1e-9))
            if node.id not in sol.layout.chance_nodes and node.kind.value != "slack":
                assert np.all(sol.Pi[:, j] >= node.pressure_min**2 * (1 - 1e-9))
        for cid, a in sol.alpha.items():
            cmp = next(c for c in net.compressors if c.id == cid)
            assert 1.0 - 1e-9 <= a <= cmp.alpha_max + 1e-9
        d3 = sol.d["J3"]
        assert np.all(d3 >= -1e-9) and np.all(d3 <= 300.0 + 1e-6)

    def test_objective_decomposition(self, cc_single_pipe):
        sol = cc_single_pipe
        assert sol.objective == pytest.approx(
            sol.expected_compressor_power - sol.expected_economic_value,
            abs=1e-6 * max(1.0, abs(sol.objective)),
        )

    def test_objective_decomposition_with_load_override(self, eight_node):
        sol = solve_deterministic(eight_node, loads={"J5": 80.0}, penalty=PEN)
        assert sol.objective == pytest.approx(
            sol.expected_compressor_power - sol.expected_economic_value,
            abs=1e-6 * max(1.0, abs(sol.objective)),
        )

    def test_chance_budget_met(self, cc_eight_node_300):
        sol = cc_eight_node_300
        assert sol.sfv_expectation["J5"] <= 0.1 + 1e-8

    def test_epsilon_override(self, single_pipe):
        sol = solve_chance_constrained(single_pipe, K=8, penalty=PEN, epsilon=0.11)
        assert sol.epsilon["N3"] == pytest.approx(0.11)


class TestMeshIndependence:
    def test_iterations_and_objective_settle_as_k_grows(self, eight_node):
        # the barrier weighs each cell's variables by the cell's mass, so the
        # iteration count does not grow with K, the objective converges, and
        # a nomination held at its cap stays there
        Ks = (50, 100, 200, 400)
        sols = {}
        for cap in (200.0, 300.0):
            net = eight_node.with_node(replace(eight_node.node("J3"), demand_max=cap))
            sols[cap] = [solve_chance_constrained(net, K=K, penalty=PEN) for K in Ks]
            assert all(sol.optimal for sol in sols[cap])
            iterations = [sol.iterations for sol in sols[cap]]
            assert max(iterations) - min(iterations) <= 3, (cap, iterations)
        steps = np.abs(np.diff([sol.objective for sol in sols[300.0]]))
        assert np.all(np.diff(steps) < 0.0), steps
        at_400 = sols[300.0][-1]
        assert 300.0 - at_400.expected(at_400.d["J3"]) < 1e-6


class TestDegenerateEquivalence:
    def test_single_pipe_zero_width_shaves_alpha_by_budget(self, single_pipe):
        # point-mass uncertainty with a binding floor: the relaxed problem
        # runs the penalty budget exactly, so the optimal ratio sits below the
        # deterministic one by sqrt(epsilon/gamma) in scaled squared pressure
        net = single_pipe.with_node(
            replace(
                single_pipe.node("N3"),
                uncertainty=UncertaintySpec(dist="uniform", lo=0.0, hi=0.0),
            )
        )
        cc = solve_chance_constrained(net, K=4, penalty=PEN, epsilon=0.05)
        det = solve_deterministic(single_pipe, loads={"N3": 250.0}, penalty=PEN)
        assert cc.optimal and det.optimal
        shave = math.sqrt(0.05 / PEN.gamma)
        assert cc.alpha["C1"] == pytest.approx(det.alpha["C1"] - shave, abs=2e-5)
        assert cc.sfv_expectation["N3"] <= 0.05 + 1e-8
        assert cc.sfv_expectation["N3"] >= 0.05 - 1e-4  # budget binds
        assert cc.objective <= det.objective + 1e-9

    def test_eight_node_point_mass_matches_deterministic(self, eight_node):
        tight = NlpOptions(tol=1e-10)
        net = eight_node.with_node(
            replace(
                eight_node.node("J5"),
                uncertainty=UncertaintySpec(dist="uniform", lo=16.0, hi=16.0),
            )
        )
        cc = solve_chance_constrained(net, K=4, penalty=PEN, options=tight)
        det = solve_deterministic(eight_node, loads={"J5": 80.0}, penalty=PEN,
                                  options=tight)
        assert cc.optimal and det.optimal
        assert cc.objective == pytest.approx(det.objective, rel=1e-8)
        for cid in cc.alpha:
            assert cc.alpha[cid] == pytest.approx(det.alpha[cid], abs=1e-6)
        assert cc.d["J3"].mean() == pytest.approx(det.d["J3"][0], abs=1e-6 * 200.0)


class TestDerivatives:
    def test_deterministic_assembly_derivatives(self, eight_node):
        problem, _ = assemble_deterministic(eight_node, penalty=PEN)
        rng = np.random.default_rng(1)
        for _ in range(3):
            x = random_interior(problem, rng)
            assert check_derivatives(problem, x) <= 1e-5

    def test_chance_assembly_derivatives(self, single_pipe):
        unc = single_pipe.uncertain_nodes[0]
        grid = build_grid(unc.uncertainty, 8, node_id=unc.id)
        problem, _ = assemble_chance_constrained(single_pipe, grid, PEN)
        rng = np.random.default_rng(2)
        for _ in range(3):
            x = random_interior(problem, rng)
            assert check_derivatives(problem, x) <= 1e-5

    @pytest.mark.parametrize("config", ["eight_node", "single_pipe"])
    def test_chance_assembly_hessian(self, config):
        net = configs.load(config)
        unc = net.uncertain_nodes[0]
        grid = build_grid(unc.uncertainty, 8, node_id=unc.id)
        problem, layout = assemble_chance_constrained(net, grid, PEN)
        rng = np.random.default_rng(5)
        x = random_interior(problem, rng)
        # spread the chance node's squared pressure around its floor so the
        # penalty is active at some collocation points and idle at others
        (cid,) = layout.chance_nodes
        j = net.node_index[cid]
        pimin = net.node(cid).pressure_min ** 2 / layout.scaling.squared_pressure
        x[layout.pi_idx[:, j]] = pimin * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, layout.K))
        Dc, Dg = grid.Dc, grid.Dg
        x[layout.c_idx[cid]] = np.linalg.solve(Dc.toarray(), x[layout.pi_idx[:, j]])
        z = pimin - Dg @ x[layout.c_idx[cid]]
        assert np.any(z > 1e-3) and np.any(z < -1e-3)
        y = rng.normal(size=problem.m)
        y[layout.cc_rows[cid]] = 1.0  # the budget row's curvature enters the Hessian
        assert check_hessian(problem, x, y) <= 1e-5


class TestStructuredKkt:
    def test_blocks_follow_the_cells(self, single_pipe):
        unc = single_pipe.uncertain_nodes[0]
        grid = build_grid(unc.uncertainty, 8, node_id=unc.id)
        problem, layout = assemble_chance_constrained(single_pipe, grid, PEN)
        var, row = problem.blocks[: problem.n], problem.blocks[problem.n :]
        assert np.all(var[layout.phi_idx] == np.arange(8)[:, None])
        assert np.all(row[layout.bal_rows] == np.arange(8)[:, None])
        assert var[layout.alpha_idx["C1"]] == -1
        # spline coefficient k and spline row k share band position k
        assert np.all(row[layout.spline_rows["N3"]] == -2 - np.arange(8))
        assert np.all(var[layout.c_idx["N3"]] == -2 - np.arange(8))
        assert var[layout.t_idx["N3"]] == -1
        assert row[layout.cc_rows["N3"]] == -1
        assert assemble_deterministic(single_pipe)[0].blocks is None

    @pytest.mark.parametrize("config", ["eight_node", "single_pipe"])
    def test_cells_meet_only_at_the_border(self, config):
        net = configs.load(config)
        unc = net.uncertain_nodes[0]
        grid = build_grid(unc.uncertainty, 8, node_id=unc.id)
        problem, layout = assemble_chance_constrained(net, grid, PEN)
        (cid,) = layout.chance_nodes
        rng = np.random.default_rng(11)
        x = random_interior(problem, rng)
        y = rng.normal(size=problem.m)
        var, row = problem.blocks[: problem.n], problem.blocks[problem.n :]
        (h_row, h_col), (j_row, j_col) = problem.hess_structure, problem.jac_structure
        assert problem.hessian(x, y, 1.0).shape == h_row.shape
        assert problem.jacobian(x).shape == j_row.shape
        for a, b in ((var[h_row], var[h_col]), (row[j_row], var[j_col])):
            assert not np.any((a >= 0) & (b >= 0) & (a != b))
        # the penalty curvature is banded in the spline coefficients and
        # touches nothing else: at most 7 entries per row, not K
        cols = layout.c_idx[cid]
        in_c = np.isin(h_row, cols) | np.isin(h_col, cols)
        assert np.all(np.isin(h_row[in_c], cols) & np.isin(h_col[in_c], cols))
        assert np.abs(h_row[in_c] - h_col[in_c]).max() <= 3
        # each spline row touches its own cell's pressure and four coefficients
        spline = np.isin(j_row, layout.spline_rows[cid])
        assert np.bincount(j_row[spline] - layout.spline_rows[cid][0]).tolist() == [5] * layout.K

        # at the warm start the coefficients interpolate the cell values (the
        # spline rows vanish), and the budget row carries the penalty integral
        # at the not-a-knot interpolant of the cell pressures, here built by
        # CubicSpline and the spline basis instead of the assembly's factors
        x0 = initial_point_chance_constrained(layout)
        pi_cells = x0[layout.pi_idx[:, net.node_index[cid]]]
        pimin = net.node(cid).pressure_min ** 2 / layout.scaling.squared_pressure
        W = CubicSpline(grid.collocation_points, np.eye(grid.K))(grid.greville)
        v = np.maximum(pimin - W @ pi_cells, 0.0) ** 2
        a = np.linalg.solve(grid.basis_matrix(grid.greville), v)
        for shift in (0.0, rng.uniform(0.0, 0.1)):
            x = x0.copy()
            x[layout.t_idx[cid]] += shift
            c = problem.constraints(x)
            np.testing.assert_allclose(c[layout.spline_rows[cid]], 0.0, atol=1e-13)
            # the row is the budget divided by the curvature
            expect = grid.basis_integrals @ a + (x[layout.t_idx[cid]] - layout.epsilon[cid]) / PEN.gamma
            assert c[layout.cc_rows[cid]] == pytest.approx(expect, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("config", ["eight_node", "single_pipe"])
    @pytest.mark.parametrize("K", [8, 50, 100])
    def test_border_grows_by_two_per_cell(self, config, K):
        # per chance node the border holds the K spline coefficients, their K
        # spline rows, the budget slack and the budget row; the compressor
        # ratios come on top.  Each cell couples to its own spline row and
        # the ratios, never to another cell, and its block stays regular
        # once the barrier adds to the variables' diagonal.
        net = configs.load(config)
        unc = net.uncertain_nodes[0]
        grid = build_grid(unc.uncertainty, K, node_id=unc.id)
        problem, layout = assemble_chance_constrained(net, grid, PEN)
        border = np.flatnonzero(problem.blocks < 0)
        assert border.size == len(net.compressors) + len(layout.chance_nodes) * (2 * K + 2)
        x = random_interior(problem, np.random.default_rng(K))
        y = np.random.default_rng(K + 1).normal(size=problem.m)
        # the split rejects any entry that links two cells
        kkt = _BorderedKkt(problem.blocks, problem.n, problem.m, problem.hess_structure,
                           problem.jac_structure)
        system = kkt.system(kkt.hess.sum(problem.hessian(x, y, 1.0)),
                            kkt.jac.sum(problem.jacobian(x)))
        assert system.B.shape[1] == len(net.compressors) + len(layout.chance_nodes) <= 8
        size = kkt.cells.shape[1]
        cells = system.A + 1e2 * (kkt.cells < problem.n)[:, :, None] * np.eye(size)
        assert np.linalg.cond(cells).max() < 1e10

    def test_bordered_solve_matches_dense(self, eight_node):
        net = eight_node.with_node(replace(eight_node.node("J3"), demand_max=300.0))
        unc = net.uncertain_nodes[0]
        grid = build_grid(unc.uncertainty, 16, node_id=unc.id)
        problem, layout = assemble_chance_constrained(net, grid, PEN)
        x0 = initial_point_chance_constrained(layout)
        blocked = solve(problem, x0)
        dense = solve(replace(problem, blocks=None), x0)
        assert blocked.optimal and dense.optimal
        assert blocked.iterations == dense.iterations
        assert blocked.objective == pytest.approx(dense.objective, rel=1e-10)

    def test_iteration_loop_builds_no_sparse_matrix(self, eight_node, monkeypatch):
        # the callbacks return values on the declared pattern, and the solver
        # scatters them without building a scipy.sparse object
        tree = ast.parse(inspect.getsource(nlp))
        imported = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for a in node.names]
        imported += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        assert not [name for name in imported if name.startswith("scipy.sparse")]
        net = eight_node.with_node(replace(eight_node.node("J3"), demand_max=300.0))
        unc = net.uncertain_nodes[0]
        grid = build_grid(unc.uncertainty, 16, node_id=unc.id)
        problem, layout = assemble_chance_constrained(net, grid, PEN)
        x0 = initial_point_chance_constrained(layout)
        built = []
        init = sp_base._spbase.__init__

        def counting(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)

        monkeypatch.setattr(sp_base._spbase, "__init__", counting)
        sol = solve(problem, x0)
        assert sol.optimal and sol.iterations > 1
        assert built == []

    @pytest.mark.parametrize("case", ["eight_node", "single_pipe"])
    def test_band_labels_match_an_all_arrow_border(self, case):
        # the band-plus-arrow factorization and one dense factorization of the
        # whole border (band labels turned into -1) take the same iterates
        net = configs.load(case)
        if case == "eight_node":
            net, K = net.with_node(replace(net.node("J3"), demand_max=300.0)), 16
        else:
            net, K = net.with_node(replace(net.node("N3"), epsilon=0.01)), 100
        unc = net.uncertain_nodes[0]
        grid = build_grid(unc.uncertainty, K, node_id=unc.id)
        problem, layout = assemble_chance_constrained(net, grid, PEN)
        assert np.count_nonzero(problem.blocks <= -2) == 2 * K
        x0 = initial_point_chance_constrained(layout)
        band = solve(problem, x0)
        arrow = solve(replace(problem, blocks=np.maximum(problem.blocks, -1)), x0)
        assert band.status is arrow.status and band.optimal
        assert band.iterations == arrow.iterations
        assert band.objective == pytest.approx(arrow.objective, rel=1e-10)

    def test_no_border_sized_array_at_k400(self, eight_node):
        # nothing the split or the factorization keeps is as large as a dense
        # matrix over the 805-row border
        unc = eight_node.uncertain_nodes[0]
        grid = build_grid(unc.uncertainty, 400, node_id=unc.id)
        problem, layout = assemble_chance_constrained(eight_node, grid, PEN)
        x = initial_point_chance_constrained(layout)
        y = np.random.default_rng(4).normal(size=problem.m) * 1e-2
        kkt = _BorderedKkt(problem.blocks, problem.n, problem.m, problem.hess_structure,
                           problem.jac_structure)
        system = kkt.system(kkt.hess.sum(problem.hessian(x, y, 1.0)),
                            kkt.jac.sum(problem.jacobian(x)))
        shift = np.r_[np.ones(problem.n), np.full(problem.m, -1e-8)]
        factor = _BorderedFactor(system, shift)
        assert factor.inertia == (problem.n, problem.m, 0)
        nb = kkt.border.size
        assert nb == 805 and kkt.band == 800
        arrays = [a for owner in (kkt, system, factor) for a in vars(owner).values()
                  if isinstance(a, np.ndarray)]
        assert len(arrays) > 20
        assert max(a.size for a in arrays) < nb * nb
        step = factor.solve(np.random.default_rng(5).normal(size=problem.n + problem.m))
        assert np.all(np.isfinite(step))


def supply_relief_net(pressure_floor=4.82e6):
    # a long feeder makes slack-only service violate the delivery floor, so
    # the optimizer must buy local injection at M (offer price 5)
    return parse_network(
        {
            "wave_speed": 377.0,
            "nodes": [
                {"id": "L", "kind": "flow", "pressure_min": pressure_floor,
                 "pressure_max": 6e6, "demand": 100.0, "demand_price": 30.0},
                {"id": "M", "kind": "flow", "pressure_min": 3e6, "pressure_max": 6e6,
                 "supply_optimized": True, "supply_price": 5.0, "supply_max": 60.0},
                {"id": "S", "kind": "slack", "slack_pressure": 5e6,
                 "pressure_min": 3e6, "pressure_max": 6e6},
            ],
            "pipes": [
                {"id": "P1", "from": "S", "to": "M", "length": 6e4,
                 "diameter": 0.9144, "friction": 0.01},
                {"id": "P2", "from": "M", "to": "L", "length": 1e4,
                 "diameter": 0.9144, "friction": 0.01},
            ],
            "compressors": [],
        }
    )


class TestOptimizedSupply:
    def test_supply_dispatched_to_relieve_pressure(self):
        net = supply_relief_net()
        sol = solve_deterministic(net, penalty=PEN)
        assert sol.optimal
        s = sol.s["M"][0]
        assert 0.0 < s < 60.0, f"expected interior supply, got {s}"
        # delivery floor binds and the feeder carries the residual demand
        assert sol.pressure("L")[0] == pytest.approx(4.82e6, rel=1e-6)
        assert sol.flow("P1")[0] == pytest.approx(100.0 - s, rel=1e-8)
        # interior supply prices gas at M exactly at the offer
        assert sol.lambda_q["M"][0] == pytest.approx(5.0, rel=1e-5)
        # delivered gas at L is worth more than at M (congested feeder adds value)
        assert sol.lambda_q["L"][0] > 5.0

    def test_supply_capped_earns_scarcity_rent(self):
        # cap the cheap injection below what full delivery needs (~19.3 kg/s)
        # and let the delivered quantity flex instead: the cap binds and the
        # balance dual exceeds the offer by the bound dual
        net = supply_relief_net()
        net = net.with_node(replace(net.node("M"), supply_max=15.0))
        net = net.with_node(
            replace(net.node("L"), demand_optimized=True, demand_max=100.0)
        )
        sol = solve_deterministic(net, penalty=PEN)
        assert sol.optimal
        assert sol.s["M"][0] == pytest.approx(15.0, abs=1e-5)
        assert sol.lambda_s["M"][0] > 1e-3
        assert sol.lambda_q["M"][0] == pytest.approx(
            5.0 + sol.lambda_s["M"][0], abs=1e-5
        )
        # the delivered quantity is interior, so its dual equals the bid
        assert 15.0 < sol.d["L"][0] < 100.0 - 1e-4
        assert sol.lambda_q["L"][0] == pytest.approx(30.0, abs=1e-4)

    def test_capped_supply_infeasibility_detected(self):
        # with a fixed load, capping the injection below the relief need
        # leaves no feasible operating point; the solver must not report
        # optimality
        net = supply_relief_net()
        capped = net.with_node(replace(net.node("M"), supply_max=5.0))
        sol = solve_deterministic(capped, penalty=PEN)
        assert not sol.optimal
        assert sol.kkt_residuals["feasibility"] > 1e-3

    def test_supply_in_stochastic_problem(self):
        net = supply_relief_net()
        net = net.with_node(
            replace(
                net.node("L"),
                uncertainty=UncertaintySpec(dist="uniform", lo=-10.0, hi=10.0),
                epsilon=0.05,
            )
        )
        sol = solve_chance_constrained(net, K=8, penalty=PEN)
        assert sol.optimal
        s = sol.s["M"]
        assert s.shape == (8,)
        assert np.all(s > 0.0)
        # per-cell identity at an interior supply: balance dual = offer * mass
        interior = (s > 1e-6) & (s < 60.0 - 1e-6)
        ident = sol.lambda_q["M"][interior] - 5.0 * sol.cell_mass[interior]
        assert np.abs(ident).max() <= 1e-5

    def test_monte_carlo_clips_the_supply_interpolant(self, monkeypatch):
        # the cap binds over the top of the omega range and the supply is
        # zero at its bottom: each sample withdraws at M its base less the
        # supply interpolant clipped to [0, cap]
        net = supply_relief_net()
        net = net.with_node(replace(net.node("M"), supply_max=24.0))
        net = net.with_node(
            replace(
                net.node("L"),
                uncertainty=UncertaintySpec(dist="uniform", lo=-20.0, hi=20.0),
                epsilon=0.5,
            )
        )
        sol = solve_chance_constrained(net, K=16, penalty=PEN)
        assert sol.optimal
        s = sol.s["M"]
        assert s[:4].max() < 1e-4 and s[-3:].min() > 24.0 - 1e-4

        seen = []

        def spy(net_, alpha, q, x0=None):
            seen.append(q.copy())
            return solve_steady(net_, alpha, q, x0=x0)

        monkeypatch.setattr(pricing, "solve_steady", spy)
        n = 400
        [est] = violation_probability(sol, mc_samples=n, seed=5)
        assert est.n_failed == 0 and len(seen) == n
        grid = sol.layout.grid
        omega = np.sort(grid.spec.ppf(np.random.default_rng(5).random(n)))
        supply = grid.value_interpolator(s)(omega)
        assert (supply > 24.0).any() and (supply < 24.0).any()
        want = net.node("M").base_withdrawal - np.clip(supply, 0.0, 24.0)
        np.testing.assert_array_equal(np.array(seen)[:, net.node_index["M"]], want)


class TestPenaltyBlend:
    def test_shape_matches_quadratic_outside_band(self):
        # the bare one-sided quadratic: no curvature at or below zero shortfall
        pen = PenaltyConfig(gamma=2500.0)
        v, dv, ddv = pen.shape(np.array([-0.5, -2e-3, 0.0, 2e-3, 0.5]))
        np.testing.assert_allclose(v, [0.0, 0.0, 0.0, 4e-6, 0.25])
        np.testing.assert_allclose(dv, [0.0, 0.0, 0.0, 4e-3, 1.0])
        np.testing.assert_array_equal(ddv, [0.0, 0.0, 0.0, 2.0, 2.0])


class TestAssemblyErrors:
    def test_two_uncertain_nodes_rejected(self, single_pipe):
        net = single_pipe.with_node(
            replace(
                single_pipe.node("N2"),
                uncertainty=UncertaintySpec(dist="uniform", lo=-1.0, hi=1.0),
                epsilon=0.1,
            )
        )
        with pytest.raises(OgfError, match="exactly one uncertain node"):
            solve_chance_constrained(net, K=8, penalty=PEN)
        grid = build_grid(net.node("N3").uncertainty, 8, node_id="N3")
        with pytest.raises(OgfError, match="exactly one uncertain node; found 2"):
            assemble_chance_constrained(net, grid, PEN)

    def test_missing_epsilon_rejected(self, single_pipe):
        net = single_pipe.with_node(replace(single_pipe.node("N3"), epsilon=None))
        unc = net.uncertain_nodes[0]
        grid = build_grid(unc.uncertainty, 8, node_id=unc.id)
        with pytest.raises(OgfError, match="node 'N3': .* requires epsilon"):
            assemble_chance_constrained(net, grid, PEN)
        with pytest.raises(OgfError, match="node 'N3': .* requires epsilon"):
            solve_chance_constrained(net, K=8, penalty=PEN)
        # an override supplies the level the node lacks
        assert solve_chance_constrained(net, K=8, penalty=PEN, epsilon=0.05).epsilon == {"N3": 0.05}

    def test_epsilon_on_the_slack_rejected(self, single_pipe):
        net = single_pipe.with_node(replace(single_pipe.node("N1"), epsilon=0.1))
        with pytest.raises(OgfError, match="node 'N1': chance relaxation requires a flow node"):
            solve_chance_constrained(net, K=8, penalty=PEN)

    @pytest.mark.parametrize("eps", [-1.0, math.nan, math.inf])
    def test_bad_epsilon_override_rejected(self, single_pipe, eps):
        with pytest.raises(OgfError, match=re.escape(f"epsilon override must be finite and "
                                                     f">= 0 (got {eps})")):
            solve_chance_constrained(single_pipe, K=8, penalty=PEN, epsilon=eps)

    def test_grid_for_another_node_rejected(self, single_pipe):
        unc = single_pipe.uncertain_nodes[0]
        grid = build_grid(unc.uncertainty, 8, node_id="N2")
        with pytest.raises(OgfError, match=r"'N2'.*'N3'"):
            assemble_chance_constrained(single_pipe, grid, PEN)

    def test_grid_required(self, single_pipe):
        with pytest.raises(OgfError, match="grid"):
            assemble_chance_constrained(single_pipe, None, PEN)

    def test_bad_penalty(self):
        for gamma in (0.0, math.nan, math.inf):
            with pytest.raises(OgfError, match="gamma"):
                PenaltyConfig(gamma=gamma)
        for delta in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(OgfError, match="delta"):
                PenaltyConfig(delta=delta)

    @pytest.mark.parametrize("K, smallest", [(4, "-0.0194"), (5, "-0.00199")])
    def test_negative_greville_weight_rejected(self, K, smallest):
        # the truncated normal's spline quadrature has a negative weight at
        # K = 4 and 5, so the SFV expectation of a penalty could fall below 0
        net = configs.load("single_pipe_truncnormal")
        with pytest.raises(OgfError, match=rf"'N3': K={K} .*smallest {smallest}"):
            solve_chance_constrained(net, K=K, penalty=PEN)

    def test_six_truncated_normal_cells_solve(self):
        net = configs.load("single_pipe_truncnormal")
        grid = build_grid(net.uncertain_nodes[0].uncertainty, 6)
        assert grid.rho.min() > 0.0
        assert solve_chance_constrained(net, K=6, penalty=PEN).optimal

    def test_unknown_load_override(self, single_pipe):
        with pytest.raises(OgfError, match="N9"):
            assemble_deterministic(single_pipe, loads={"N9": 1.0})


class TestWarmStart:
    def test_initial_point_within_bounds(self, single_pipe):
        unc = single_pipe.uncertain_nodes[0]
        grid = build_grid(unc.uncertainty, 8, node_id=unc.id)
        problem, layout = assemble_chance_constrained(single_pipe, grid, PEN)
        x0 = initial_point_chance_constrained(layout)
        assert np.all(x0 >= problem.lower - 1e-9)
        assert np.all(np.where(np.isfinite(problem.upper), x0 <= problem.upper + 1e-6, True))

    def test_resolve_from_previous_solution(self, single_pipe, cc_single_pipe):
        again = solve_chance_constrained(
            single_pipe, K=16, penalty=PEN, epsilon=0.05, x0=cc_single_pipe
        )
        assert again.optimal
        assert again.iterations <= 3
        assert again.alpha["C1"] == pytest.approx(cc_single_pipe.alpha["C1"], abs=1e-8)


SWEEP_EPS = (0.01, 0.05, 0.1)


@pytest.fixture(scope="module")
def eps_sweep(single_pipe):
    """A three-point sweep on single_pipe at K=16, each point warm-started from
    the last, and the grids it built."""
    built = []

    def counting(*args, **kwargs):
        built.append(build_grid(*args, **kwargs))
        return built[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ogf, "build_grid", counting)
        sols, prev = [], None
        for eps in SWEEP_EPS:
            prev = solve_chance_constrained(single_pipe, K=16, penalty=PEN, epsilon=eps, x0=prev)
            sols.append(prev)
    return sols, built


class TestEpsilonSweep:
    """Epsilon is data of the assembly: a sweep keeps one network and one
    grid, and each point warm-starts from the last."""

    def test_one_grid_per_sweep(self, eps_sweep):
        sols, built = eps_sweep
        assert len(built) == 1
        assert all(sol.optimal and sol.layout.grid is built[0] for sol in sols)

    def test_network_kept_and_override_recorded(self, single_pipe, eps_sweep):
        for eps, sol in zip(SWEEP_EPS, eps_sweep[0]):
            assert sol.layout.net is single_pipe
            assert sol.epsilon == {"N3": eps} == sol.layout.epsilon

    def test_points_match_a_solve_by_hand(self, single_pipe, eps_sweep):
        # each point is the solve of its own assembly on a fresh grid, started
        # cold at the first point and from the last point's solution after it
        unc = single_pipe.uncertain_nodes[0]
        prev = None
        for eps, sol in zip(SWEEP_EPS, eps_sweep[0]):
            grid = build_grid(unc.uncertainty, 16, node_id=unc.id)
            problem, layout = assemble_chance_constrained(single_pipe, grid, PEN, epsilon=eps)
            if prev is None:
                ref = solve(problem, initial_point_chance_constrained(layout))
            else:
                p = prev.nlp
                ref = solve(problem, p.x, duals0=(p.lambda_eq, p.lambda_lo, p.lambda_hi))
            ref = decode(ref, layout)
            assert ref.iterations == sol.iterations
            assert ref.objective == sol.objective and ref.alpha == sol.alpha
            assert ref.sfv_expectation == sol.sfv_expectation
            np.testing.assert_array_equal(ref.nlp.x, sol.nlp.x)
            np.testing.assert_array_equal(ref.nlp.lambda_eq, sol.nlp.lambda_eq)
            prev = sol

    @pytest.mark.parametrize("other", ["single_pipe_truncnormal", "K=8"])
    def test_another_structure_starts_cold(self, single_pipe, cc_single_pipe, other,
                                           monkeypatch):
        # the same sizes (truncnormal) or the same network (K=8) are not a
        # match: the grid is rebuilt, the cold start runs, and the solve is
        # the one made without x0
        if other == "K=8":
            x0 = solve_chance_constrained(single_pipe, K=8, penalty=PEN, epsilon=0.05)
        else:
            x0 = solve_chance_constrained(configs.load(other), K=16, penalty=PEN, epsilon=0.05)
        calls = []
        for name in ("build_grid", "initial_point_chance_constrained"):
            def counting(*args, _real=getattr(ogf, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(ogf, name, counting)
        sol = solve_chance_constrained(single_pipe, K=16, penalty=PEN, epsilon=0.05, x0=x0)
        assert calls == ["build_grid", "initial_point_chance_constrained"]
        assert sol.layout.grid is not x0.layout.grid
        assert sol.iterations == cc_single_pipe.iterations
        np.testing.assert_array_equal(sol.nlp.x, cc_single_pipe.nlp.x)
