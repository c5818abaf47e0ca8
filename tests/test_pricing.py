from dataclasses import replace

import numpy as np
import pytest

from gasflow import configs
from gasflow.nlp import NlpOptions, SolveStatus
from gasflow.ogf import PenaltyConfig, solve_chance_constrained
from gasflow.pricing import (
    CONSTANT_RTOL,
    PricingError,
    distribution_of,
    kkt_report,
    violation_probability,
)
from gasflow.physics import kernel
from gasflow.stochastic import UncertaintySpec, build_grid
from test_physics import loop_residual

PEN = PenaltyConfig(gamma=2500.0, delta=1e-3)


class RoundedSpec(UncertaintySpec):
    """A measure whose inverse CDF is rounded to whole units: sorted samples
    repeat each value many times."""

    def ppf(self, u):
        return np.round(super().ppf(u))


@pytest.fixture(scope="module")
def single_pipe():
    return configs.load("single_pipe")


@pytest.fixture(scope="module")
def sp_solution(single_pipe):
    return solve_chance_constrained(single_pipe, K=16, penalty=PEN, epsilon=0.05)


@pytest.fixture(scope="module")
def sp_grid(sp_solution):
    return sp_solution.layout.grid


@pytest.fixture(scope="module")
def en_problem():
    net = configs.load("eight_node")
    net = net.with_node(replace(net.node("J3"), demand_max=300.0))
    sol = solve_chance_constrained(net, K=16, penalty=PEN)
    return net, sol, sol.layout.grid


@pytest.fixture(scope="module")
def point_mass(en_problem):
    """The chance-constrained solve of ``en_problem``'s network with the
    uncertain withdrawal a point mass."""
    net = en_problem[0]
    unc = UncertaintySpec(dist="uniform", lo=16.0, hi=16.0)
    net = net.with_node(replace(net.node("J5"), uncertainty=unc))
    return solve_chance_constrained(net, K=4, penalty=PEN)


class TestDistributions:
    def test_discrete_mass_is_cell_mass(self, sp_solution, sp_grid):
        dist = distribution_of(sp_solution, "pressure@N3")
        np.testing.assert_allclose(dist.mass, sp_grid.cell_mass)
        assert dist.support.shape == (16,)

    def test_mean_is_mass_weighted_sum(self, sp_solution):
        dist = distribution_of(sp_solution, "flow@P1")
        assert dist.mean == pytest.approx(float(dist.mass @ dist.support), rel=1e-14)

    def test_density_integrates_to_one(self, sp_solution):
        dist = distribution_of(sp_solution, "pressure@N3")
        xs, ys = dist.density
        integral = np.trapezoid(ys, xs)
        assert integral == pytest.approx(1.0, abs=1e-3)

    def test_constant_quantity_density_peaks_at_value(self, en_problem):
        net, sol, grid = en_problem
        # d3 is pinned at its 300 bound in every cell (up to barrier slack)
        dist = distribution_of(sol, "d@J3")
        assert np.ptp(dist.support) <= 1e-4
        assert dist.kind == "atom" and dist.density is None
        value, mass = dist.atom
        assert value == pytest.approx(300.0, abs=1.0)
        assert mass == 1.0

    def test_exactly_constant_quantity_is_one_atom(self, en_problem):
        net, sol, grid = en_problem
        pinned = replace(sol, d={"J3": np.full(16, 123.0)})
        dist = distribution_of(pinned, "d@J3")
        assert dist.kind == "atom"
        assert dist.atom == (123.0, 1.0)

    def test_nomination_near_its_cap_has_a_density(self, en_problem):
        # cells 1/15 kg/s apart below the cap are a distribution, not an atom
        net, sol, grid = en_problem
        spread = replace(sol, d={"J3": np.linspace(299.0, 300.0, 16)})
        dist = distribution_of(spread, "d@J3")
        assert dist.kind == "density" and dist.atom is None

    def test_monotone_quantity_density_shape(self, sp_solution):
        # pressure falls with withdrawal, so the density support must span
        # the per-cell extremes
        dist = distribution_of(sp_solution, "pressure@N3")
        xs, _ = dist.density
        assert xs.min() < dist.support.min()
        assert xs.max() > dist.support.max()

    def test_lambda_q_selector(self, en_problem):
        net, sol, grid = en_problem
        dist = distribution_of(sol, "lambda_q@J5")
        assert dist.support.shape == (16,)

    def test_lambda_q_per_mass_selector(self, en_problem):
        # both the raw per-cell dual and the mass-normalized price are emitted
        net, sol, grid = en_problem
        raw = distribution_of(sol, "lambda_q@J5")
        per = distribution_of(sol, "lambda_q_per_mass@J5")
        np.testing.assert_allclose(per.support, raw.support / grid.cell_mass)

    def test_zero_per_mass_price_stays_one_atom_as_k_grows(self):
        # the per-mass dual is K times lambda_q here, so its barrier offsets
        # spread by 1.1e-6 at K=100 while the dual itself spreads by 1.1e-8
        net = configs.load("eight_node")
        net = net.with_node(replace(net.node("J3"), demand_max=200.0))
        sol = solve_chance_constrained(net, K=100, penalty=PEN)
        dist = distribution_of(sol, "lambda_q_per_mass@J5")
        assert dist.kind == "atom"
        value, mass = dist.atom
        assert mass == 1.0 and abs(value) <= 1e-6

    def test_nomination_at_its_cap_stays_one_atom_as_k_grows(self):
        # the barrier holds d3 below its 300 cap by a gap that grows with K:
        # at K=400 its cells spread by 1.4e-6 (relative), above CONSTANT_RTOL
        net = configs.load("eight_node")
        net = net.with_node(replace(net.node("J3"), demand_max=300.0))
        sol = solve_chance_constrained(net, K=400, penalty=PEN)
        grid = sol.layout.grid
        d3 = sol.d["J3"]
        assert np.ptp(d3) > CONSTANT_RTOL * 300.0
        dist = distribution_of(sol, "d@J3")
        assert dist.kind == "atom" and dist.density is None
        value, mass = dist.atom
        assert mass == 1.0
        assert value == pytest.approx(float(grid.cell_mass @ d3), rel=1e-15)
        assert 300.0 - 1e-3 < value <= 300.0

    def test_unknown_selectors(self, sp_solution):
        with pytest.raises(PricingError, match="unknown node"):
            distribution_of(sp_solution, "pressure@NOPE")
        with pytest.raises(PricingError, match="unknown edge"):
            distribution_of(sp_solution, "flow@Q9")
        with pytest.raises(PricingError, match="selector kind"):
            distribution_of(sp_solution, "entropy@N3")
        with pytest.raises(PricingError, match="optimized demand"):
            distribution_of(sp_solution, "lambda_d@N3")

    def test_repeat_calls_are_identical(self, sp_solution):
        a = distribution_of(sp_solution, "pressure@N3")
        b = distribution_of(sp_solution, "pressure@N3")
        np.testing.assert_array_equal(a.density[0], b.density[0])
        np.testing.assert_array_equal(a.density[1], b.density[1])

    def test_discrete_omega_is_cell_center(self, sp_solution, sp_grid):
        dist = distribution_of(sp_solution, "pressure@N3")
        np.testing.assert_array_equal(dist.omega, sp_grid.collocation_points)

    def test_degenerate_grid_is_one_atom(self, point_mass):
        assert point_mass.layout.grid.degenerate
        sol = replace(point_mass, Pi=point_mass.Pi * np.linspace(0.9, 1.1, point_mass.K)[:, None])
        dist = distribution_of(sol, "pressure@J5")
        assert np.ptp(dist.support) > 1e3  # the values differ; the law is one point
        assert dist.kind == "atom" and dist.density is None
        value, mass = dist.atom
        assert mass == 1.0
        assert value == pytest.approx(float(np.mean(sol.pressure("J5"))), rel=1e-12)

    def test_needs_a_chance_constrained_solution(self, en_problem):
        from gasflow.ogf import solve_deterministic

        det = solve_deterministic(en_problem[0], loads={"J5": 80.0}, penalty=PEN)
        with pytest.raises(PricingError, match="chance"):
            distribution_of(det, "pressure@J5")

    def test_density_matches_sampled_cdf(self, en_problem):
        # KS distance between the exact law and the empirical CDF of 10^6
        # inverse-CDF draws through the same interpolant, at the bin edges
        net, sol, grid = en_problem
        dist = distribution_of(sol, "pressure@J5")
        xs, ys = dist.density
        h = xs[1] - xs[0]
        edges = np.append(xs - 0.5 * h, xs[-1] + 0.5 * h)
        exact = np.append(0.0, np.cumsum(ys * h))
        u = np.random.default_rng(5).random(10**6)
        draws = np.sort(grid.value_interpolator(dist.support)(grid.spec.ppf(u)))
        empirical = np.searchsorted(draws, edges, side="right") / draws.size
        assert np.abs(exact - empirical).max() <= 2e-3


def test_grid_operators_are_built_once(monkeypatch):
    # the solve, the Monte-Carlo check and a distribution use the operators
    # the grid built; none evaluates a spline basis again
    import gasflow.stochastic as stochastic

    real = stochastic._design_matrix
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(stochastic, "_design_matrix", counted)
    net = configs.load("single_pipe")
    unc = net.uncertain_nodes[0]
    build_grid(unc.uncertainty, 8, node_id=unc.id)
    per_grid = len(calls)
    calls.clear()
    sol = solve_chance_constrained(net, K=8, penalty=PEN, epsilon=0.05)
    violation_probability(sol, mc_samples=50, seed=0)
    distribution_of(sol, "pressure@N3")
    assert 0 < len(calls) <= per_grid


class TestKktReport:
    def test_identity_holds_per_cell(self, en_problem):
        net, sol, _ = en_problem
        reports = kkt_report(sol)
        assert len(reports) == 1
        rep = reports[0]
        assert rep.node == "J3"
        # c3 = 20 over 16 uniform cells
        np.testing.assert_allclose(rep.reference, 20.0 / 16.0)
        assert rep.max_abs_residual <= 1e-5
        assert rep.passed

    def test_requires_optimized_demand(self, sp_solution, single_pipe):
        with pytest.raises(PricingError, match="optimized demand"):
            kkt_report(sp_solution)

    def test_status_gate(self, en_problem):
        net, _, _ = en_problem
        rough = solve_chance_constrained(
            net, K=16, penalty=PEN, options=NlpOptions(max_iter=2)
        )
        assert rough.status is not SolveStatus.OPTIMAL
        reports = kkt_report(rough)
        assert not reports[0].at_kkt_point
        assert not reports[0].passed

    def test_deterministic_single_cell_identity(self, en_problem):
        # K = 1: the identity collapses to lambda_q + lambda_d = price
        from gasflow.ogf import solve_deterministic

        net, _, _ = en_problem
        det = solve_deterministic(net, loads={"J5": 80.0}, penalty=PEN)
        rep = kkt_report(det)[0]
        np.testing.assert_allclose(rep.reference, [20.0])
        assert rep.passed


class TestViolationProbability:
    def test_single_pipe_estimates(self, sp_solution):
        estimates = violation_probability(sp_solution, mc_samples=3000, seed=0)
        est = estimates[0]
        assert est.node == "N3"
        assert est.n_failed == 0
        assert 0.0 <= est.mc_violation_probability <= 1.0
        # SFV expectation and exact-resimulation mean agree within the
        # sampling error plus the discretization allowance
        tol = 3.0 * est.mc_penalty_se + 0.02 * est.epsilon
        assert est.mc_mean_penalty <= est.epsilon + tol
        assert abs(est.mc_mean_penalty - est.sfv_expectation) <= tol

    def test_slack_budget_agreement(self, single_pipe):
        # a huge budget leaves the penalty unconstrained (ratio at its lower
        # bound); the SFV expectation must still track the resimulated mean
        sol = solve_chance_constrained(single_pipe, K=16, penalty=PEN, epsilon=50.0)
        assert sol.optimal
        assert sol.alpha["C1"] == pytest.approx(1.0, abs=1e-3)
        assert sol.sfv_expectation["N3"] < 50.0 - 1.0  # strictly slack
        est = violation_probability(sol, mc_samples=2000, seed=0)[0]
        tol = 3.0 * est.mc_penalty_se + 0.02 * est.epsilon
        assert abs(est.mc_mean_penalty - est.sfv_expectation) <= tol

    def test_mc_deterministic_given_seed(self, sp_solution):
        a = violation_probability(sp_solution, mc_samples=500, seed=3)
        b = violation_probability(sp_solution, mc_samples=500, seed=3)
        assert a[0].mc_mean_penalty == b[0].mc_mean_penalty
        assert a[0].mc_violation_probability == b[0].mc_violation_probability

    def test_newton_iterations_of_a_fixed_check(self, monkeypatch):
        # the oracle's total Newton work on a fixed check: a change of it is a
        # change of the algorithm, not of its cost per iteration
        import gasflow.pricing as pricing

        net = configs.load("eight_node")
        sol = solve_chance_constrained(net, K=8, penalty=PEN)
        real_solve = pricing.solve_steady
        iterations = []

        def counted(*args, **kwargs):
            state = real_solve(*args, **kwargs)
            iterations.append(state.iterations)
            return state

        monkeypatch.setattr(pricing, "solve_steady", counted)
        est = violation_probability(sol, mc_samples=500, seed=7)[0]
        assert est.n_failed == 0
        assert len(iterations) == 500
        # 984 when each sample started from the previous one, 202 from a
        # quadratic extrapolation of the last three solved samples.  The
        # interpolant of eight cells is a coarser start; from K=12 on it is
        # the finer one (80 steps here, 14 at K=16, 0 at K=32)
        assert sum(iterations) == 286

    def test_predicted_states_against_the_loop_equations(self, en_problem, monkeypatch):
        # at J3=300 the nomination is clipped, so q(omega) has a kink that the
        # cell interpolant smooths over: every state the oracle accepts is
        # checked on the loop equations, and the estimates against cold starts
        import gasflow.pricing as pricing
        from gasflow.steady import solve_steady as real_solve

        net, sol, grid = en_problem
        kern = kernel(net)
        captured = []

        def capture(net, alpha, q, x0=None):
            state = real_solve(net, alpha, q, x0=x0)
            captured.append((alpha, q, state))
            return state

        def cold(net, alpha, q, x0=None):
            return capture(net, alpha, q, x0=None)

        monkeypatch.setattr(pricing, "solve_steady", capture)
        warm = violation_probability(sol, mc_samples=300, seed=5)[0]
        predicted, captured = captured, []
        monkeypatch.setattr(pricing, "solve_steady", cold)
        ref = violation_probability(sol, mc_samples=300, seed=5)[0]

        assert warm.n_failed == ref.n_failed == 0
        assert len(predicted) == 300
        assert [s.iterations for _, _, s in captured] == [4] * 300
        assert sum(s.iterations == 0 for _, _, s in predicted) > 100
        assert 0.0 < ref.mc_violation_probability < 1.0
        for field in ("mc_mean_penalty", "mc_penalty_se", "mc_violation_se"):
            assert getattr(warm, field) == pytest.approx(getattr(ref, field), rel=1e-8)
        assert warm.mc_violation_probability == ref.mc_violation_probability
        pi_sc, flow_sc = kern.scaling.squared_pressure, kern.scaling.flow
        for alpha, q, state in predicted:
            r = loop_residual(net, state.Pi / pi_sc, state.phi / flow_sc, alpha,
                              q / flow_sc, 0.0)
            assert np.abs(r[kern.square_rows]).max() <= 1e-10
            assert (state.Pi > 0).all()

    def test_most_samples_start_within_tolerance(self, monkeypatch):
        # the regime the oracle is built for: at K=50 the interpolant of the
        # solved cells already meets the exact law at almost every sample
        import gasflow.pricing as pricing

        net = configs.load("eight_node")
        net = net.with_node(replace(net.node("J3"), demand_max=300.0))
        sol = solve_chance_constrained(net, K=50, penalty=PEN)
        real_solve = pricing.solve_steady
        iterations = []

        def counted(*args, **kwargs):
            state = real_solve(*args, **kwargs)
            iterations.append(state.iterations)
            return state

        monkeypatch.setattr(pricing, "solve_steady", counted)
        est = violation_probability(sol, mc_samples=7000, seed=1)[0]
        assert est.n_failed == 0
        assert len(iterations) == 7000
        assert iterations.count(0) >= 0.99 * 7000

    @pytest.mark.parametrize("case", ["eight_node-300", "eight_node-inf", "single_pipe"])
    def test_certified_exactly_when_the_scaled_start_meets_the_law(self, case, monkeypatch):
        # the certified exit decides on the folded rows in physical units; a
        # sample must take no Newton step exactly when the kernel's scaled
        # residual of its start is within the tolerance
        import gasflow.pricing as pricing

        if case == "single_pipe":
            net = configs.load("single_pipe")
            sol = solve_chance_constrained(net, K=100, penalty=PEN, epsilon=0.05)
            samples = 4000
        else:
            net = configs.load("eight_node")
            cap = float(case.split("-")[1])
            net = net.with_node(replace(net.node("J3"), demand_max=cap))
            sol = solve_chance_constrained(net, K=50, penalty=PEN)
            samples = 7000
        real_solve = pricing.solve_steady
        captured = []

        def capture(net, alpha, q, x0=None):
            state = real_solve(net, alpha, q, x0=x0)
            captured.append((q, np.concatenate(x0), state.iterations))
            return state

        monkeypatch.setattr(pricing, "solve_steady", capture)
        assert violation_probability(sol, mc_samples=samples, seed=1)[0].n_failed == 0
        assert len(captured) == samples
        kern = kernel(sol.layout.net)
        alpha = np.array([sol.alpha[c.id] for c in net.compressors])
        A, b_slack = kern.squares[alpha.tobytes()][:2]
        q = np.array([c[0] for c in captured])
        start = np.array([c[1] for c in captured])
        flow, nv = kern.scaling.flow, kern.nv
        x = np.hstack([start[:, kern.free] / kern.scaling.squared_pressure, start[:, nv:] / flow])
        b = np.hstack([np.tile(b_slack, (samples, 1)), -q[:, kern.free] / flow])
        meets = np.abs(kern.residual(A, b, x, 0.0)).max(axis=1) <= 1e-10
        np.testing.assert_array_equal(np.array([c[2] for c in captured]) == 0, meets)

    def test_poisoned_start_is_a_failed_sample(self, sp_solution, monkeypatch):
        # a NaN in a start must fail that sample, not pass it as converged
        import gasflow.pricing as pricing

        real_solve = pricing.solve_steady
        calls = []

        def poisoned(net, alpha, q, x0=None):
            calls.append(1)
            if len(calls) == 3:
                Pi = x0[0].copy()
                Pi[net.node_index["N3"]] = np.nan
                x0 = (Pi, x0[1])
            return real_solve(net, alpha, q, x0=x0)

        monkeypatch.setattr(pricing, "solve_steady", poisoned)
        est = violation_probability(sp_solution, mc_samples=100, seed=0)[0]
        assert est.n_failed == 1
        assert np.isfinite(est.mc_mean_penalty)

    @pytest.mark.parametrize("grid_kind", ["point_mass", "duplicate_omega"])
    def test_repeated_omega_starts_from_the_interpolant(self, en_problem, point_mass, grid_kind):
        # a point-mass grid interpolates the cell states by their mean, and
        # repeated withdrawals get the same start: neither may divide by zero
        # or index past a scalar
        net, sol, grid = en_problem
        if grid_kind == "point_mass":
            sol = point_mass
            assert sol.layout.grid.degenerate
        else:
            grid = replace(grid, spec=RoundedSpec(**vars(grid.spec)))
            sol = replace(sol, layout=replace(sol.layout, grid=grid))
        with np.errstate(all="raise"):
            est = violation_probability(sol, mc_samples=200, seed=2)[0]
        assert est.n_failed == 0
        assert np.isfinite(est.mc_mean_penalty)

    def test_requires_chance_solution(self, single_pipe):
        from gasflow.ogf import solve_deterministic

        det = solve_deterministic(single_pipe, loads={"N3": 250.0}, penalty=PEN)
        with pytest.raises(PricingError, match="chance"):
            violation_probability(det)

    @pytest.mark.parametrize("samples", [0, 1, -5])
    def test_too_few_samples(self, sp_solution, samples):
        with pytest.raises(PricingError, match="at least 2 samples"):
            violation_probability(sp_solution, mc_samples=samples)

    def test_failed_resimulations_are_counted(
        self, sp_solution, monkeypatch
    ):
        import gasflow.pricing as pricing
        from gasflow.steady import SteadySolveError, solve_steady as real_solve

        calls = {"n": 0}

        def flaky(net, alpha=None, q=None, **kwargs):
            calls["n"] += 1
            if calls["n"] % 5 == 0:
                raise SteadySolveError("synthetic failure")
            return real_solve(net, alpha, q, **kwargs)

        monkeypatch.setattr(pricing, "solve_steady", flaky)
        est = violation_probability(sp_solution, mc_samples=100, seed=0)[0]
        assert est.n_failed == 20
        assert np.isfinite(est.mc_mean_penalty)
