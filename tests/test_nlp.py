import logging
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import gasflow.nlp as nlp
from gasflow.nlp import (
    EvaluationError,
    NlpOptions,
    NlpProblem,
    SolveStatus,
    _BorderedFactor,
    _Breakdown,
    _BorderedKkt,
    check_derivatives,
    check_hessian,
    solve,
)


def dense(rows, cols):
    """The full (rows x cols) index grid, row-major, as a declared structure."""
    r, c = np.indices((rows, cols))
    return r.ravel(), c.ravel()


def box_qp():
    # min x^2 s.t. x >= 1; solution x = 1, lower multiplier 2
    return NlpProblem(
        n=1,
        m=0,
        objective=lambda x: float(x[0] ** 2),
        gradient=lambda x: np.array([2.0 * x[0]]),
        constraints=lambda x: np.zeros(0),
        jacobian=lambda x: np.zeros(0),
        lower=np.array([1.0]),
        upper=np.array([np.inf]),
        hessian=lambda x, y, s: np.array([2.0 * s]),
        jac_structure=dense(0, 1),
        hess_structure=dense(1, 1),
    )


def bounded_lp(c1=3.0, c2=2.0, total=5.0, u=(4.0, 4.0)):
    return NlpProblem(
        n=2,
        m=1,
        objective=lambda x: float(-(c1 * x[0] + c2 * x[1])),
        gradient=lambda x: np.array([-c1, -c2]),
        constraints=lambda x: np.array([x[0] + x[1] - total]),
        jacobian=lambda x: np.array([1.0, 1.0]),
        lower=np.zeros(2),
        upper=np.array(u),
        hessian=lambda x, y, s: np.zeros(4),
        jac_structure=dense(1, 2),
        hess_structure=dense(2, 2),
    )


def rosenbrock_eq():
    # min 100(x2 - x1^2)^2 + (1 - x1)^2  s.t. x1 + x2 = 1

    def f(x):
        return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)

    def g(x):
        return np.array(
            [
                -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
                200.0 * (x[1] - x[0] ** 2),
            ]
        )

    def h(x, y, sigma):
        H = sigma * np.array(
            [
                [1200.0 * x[0] ** 2 - 400.0 * x[1] + 2.0, -400.0 * x[0]],
                [-400.0 * x[0], 200.0],
            ]
        )
        return H.ravel()

    return NlpProblem(
        n=2,
        m=1,
        objective=f,
        gradient=g,
        constraints=lambda x: np.array([x[0] + x[1] - 1.0]),
        jacobian=lambda x: np.array([1.0, 1.0]),
        lower=np.full(2, -np.inf),
        upper=np.full(2, np.inf),
        hessian=h,
        jac_structure=dense(1, 2),
        hess_structure=dense(2, 2),
    )


def rosenbrock_oracle():
    """Independent solution of the constrained Rosenbrock via 1-D reduction."""

    def reduced(t):
        return 100.0 * ((1.0 - t) - t**2) ** 2 + (1.0 - t) ** 2

    res = minimize_scalar(reduced, bounds=(0.0, 1.0), method="bounded",
                          options={"xatol": 1e-14})
    x1 = res.x
    x = np.array([x1, 1.0 - x1])
    # stationarity: grad f + lambda * [1, 1] = 0
    lam = -200.0 * (x[1] - x[0] ** 2)
    return x, lam


class TestAnalyticProblems:
    def test_box_qp(self):
        sol = solve(box_qp(), np.array([3.0]))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.x[0] == pytest.approx(1.0, abs=1e-8)
        assert sol.lambda_lo[0] == pytest.approx(2.0, abs=1e-6)
        assert max(sol.kkt_residuals.values()) <= 1e-8

    def test_lp_partial_bound(self):
        # c1 > c2: fill x1 to its cap, x2 takes the rest; the equality dual is
        # the marginal (cheaper) bid c2 and x1's upper bound earns c1 - c2
        sol = solve(bounded_lp(), np.array([1.0, 1.0]))
        assert sol.status is SolveStatus.OPTIMAL
        np.testing.assert_allclose(sol.x, [4.0, 1.0], atol=1e-7)
        assert sol.lambda_eq[0] == pytest.approx(2.0, abs=1e-6)
        assert sol.lambda_hi[0] == pytest.approx(1.0, abs=1e-6)
        assert sol.lambda_hi[1] == pytest.approx(0.0, abs=1e-6)

    def test_lp_total_below_cap(self):
        # total smaller than x1's cap: only x1 produces, dual is c1
        sol = solve(bounded_lp(total=3.0), np.array([1.0, 1.0]))
        assert sol.status is SolveStatus.OPTIMAL
        np.testing.assert_allclose(sol.x, [3.0, 0.0], atol=1e-7)
        assert sol.lambda_eq[0] == pytest.approx(3.0, abs=1e-6)
        assert sol.lambda_lo[1] == pytest.approx(1.0, abs=1e-6)

    def test_rosenbrock_equality_vs_oracle(self):
        # start inside the basin of the global constrained minimum (the
        # reduced 1-D problem also has a local minimum near t = -1.618)
        x_ref, lam_ref = rosenbrock_oracle()
        sol = solve(rosenbrock_eq(), np.array([0.5, 0.5]))
        assert sol.status is SolveStatus.OPTIMAL
        np.testing.assert_allclose(sol.x, x_ref, atol=1e-7)
        # the 1-D oracle resolves the multiplier to about 1e-5; stationarity
        # at the returned point pins it much tighter
        assert sol.lambda_eq[0] == pytest.approx(lam_ref, abs=1e-4)
        assert sol.lambda_eq[0] == pytest.approx(
            -200.0 * (sol.x[1] - sol.x[0] ** 2), abs=1e-8
        )
        assert max(sol.kkt_residuals.values()) <= 1e-8


class TestSolverProperties:
    def test_dual_signs(self):
        for lp_total in (3.0, 5.0, 7.5):
            sol = solve(bounded_lp(total=lp_total), np.array([1.0, 1.0]))
            assert np.all(sol.lambda_lo >= -1e-9)
            assert np.all(sol.lambda_hi >= -1e-9)

    def test_objective_scaling_scales_multipliers(self):
        scale = 7.3
        base = solve(bounded_lp(), np.array([1.0, 1.0]))
        p = bounded_lp()
        p_scaled = NlpProblem(
            n=2,
            m=1,
            objective=lambda x: scale * p.objective(x),
            gradient=lambda x: scale * p.gradient(x),
            constraints=p.constraints,
            jacobian=p.jacobian,
            lower=p.lower,
            upper=p.upper,
            hessian=p.hessian,
            jac_structure=p.jac_structure,
            hess_structure=p.hess_structure,
        )
        scaled = solve(p_scaled, np.array([1.0, 1.0]))
        np.testing.assert_allclose(scaled.x, base.x, atol=1e-6)
        assert scaled.lambda_eq[0] == pytest.approx(scale * base.lambda_eq[0], rel=1e-4)
        np.testing.assert_allclose(
            scaled.lambda_hi, scale * base.lambda_hi, rtol=1e-3, atol=1e-6
        )

    def test_barrier_weights_keep_the_solution(self):
        # a weight scales a bound's barrier term and its complementarity
        # target, not the problem
        for weights in ([1e-3, 1e-3], [1e-3, 50.0]):
            sol = solve(replace(bounded_lp(), barrier_weights=np.array(weights)), np.array([1.0, 1.0]))
            assert sol.status is SolveStatus.OPTIMAL
            np.testing.assert_allclose(sol.x, [4.0, 1.0], atol=1e-7)
            assert sol.lambda_eq[0] == pytest.approx(2.0, abs=1e-6)
            assert sol.lambda_hi[0] == pytest.approx(1.0, abs=1e-6)

    def test_warm_start_converges_quickly(self):
        first = solve(rosenbrock_eq(), np.array([0.5, 0.5]))
        again = solve(rosenbrock_eq(), first.x)
        assert again.status is SolveStatus.OPTIMAL
        assert again.iterations <= 3

    def test_deterministic(self):
        a = solve(rosenbrock_eq(), np.array([0.5, 0.5]))
        b = solve(rosenbrock_eq(), np.array([0.5, 0.5]))
        assert a.x.tobytes() == b.x.tobytes()
        assert a.lambda_eq.tobytes() == b.lambda_eq.tobytes()
        assert a.iterations == b.iterations

    def test_max_iter_returns_best(self):
        sol = solve(rosenbrock_eq(), np.array([0.5, 0.5]), NlpOptions(max_iter=2))
        assert sol.status is SolveStatus.MAX_ITER
        assert np.all(np.isfinite(sol.x))
        assert set(sol.kkt_residuals) == {"stationarity", "feasibility", "complementarity"}
        # the diagnostic names the cap and the scaled KKT error of the
        # returned iterate; with no bounds and a multiplier below 100 nothing
        # is scaled, so that is its largest residual, to the 3 digits shown
        said = re.fullmatch(r"iteration limit reached \(max_iter=2\)(; returned the best earlier "
                            r"iterate)?; scaled KKT error (\S+) \(tol 1\.0e-08\)", sol.diagnostic)
        assert said, sol.diagnostic
        assert abs(sol.lambda_eq[0]) < 100.0
        assert float(said[2]) == pytest.approx(max(sol.kkt_residuals.values()), rel=5e-3)
        assert solve(rosenbrock_eq(), np.array([0.5, 0.5])).diagnostic == ""

    def test_infeasible_not_reported_optimal(self):
        p = NlpProblem(
            n=1,
            m=1,
            objective=lambda x: float(x[0] ** 2),
            gradient=lambda x: np.array([2.0 * x[0]]),
            constraints=lambda x: np.array([x[0] ** 2 + 1.0]),
            jacobian=lambda x: np.array([2.0 * x[0]]),
            lower=np.array([-np.inf]),
            upper=np.array([np.inf]),
            hessian=lambda x, y, s: np.array([2.0 * s + 2.0 * y[0]]),
            jac_structure=dense(1, 1),
            hess_structure=dense(1, 1),
        )
        sol = solve(p, np.array([0.5]), NlpOptions(max_iter=60))
        assert sol.status is not SolveStatus.OPTIMAL
        assert sol.kkt_residuals["feasibility"] >= 0.9

    def test_evaluation_failure_at_start(self):
        p = NlpProblem(
            n=1,
            m=1,
            objective=lambda x: float(x[0]),
            gradient=lambda x: np.ones(1),
            constraints=lambda x: np.array([np.nan]),
            jacobian=lambda x: np.ones(1),
            lower=np.array([-np.inf]),
            upper=np.array([np.inf]),
            hessian=lambda x, y, s: np.zeros(1),
            jac_structure=dense(1, 1),
            hess_structure=dense(1, 1),
        )
        with pytest.raises(EvaluationError) as err:
            solve(p, np.array([0.0]))
        assert err.value.index == 0
        p = replace(p, objective=lambda x: np.inf, constraints=lambda x: np.zeros(1))
        with pytest.raises(EvaluationError, match="objective is not finite at the start"):
            solve(p, np.array([0.0]))

    def test_bounds_must_be_ordered(self):
        with pytest.raises(ValueError, match="lo < hi"):
            NlpProblem(
                n=1,
                m=0,
                objective=lambda x: 0.0,
                gradient=lambda x: np.zeros(1),
                constraints=lambda x: np.zeros(0),
                jacobian=lambda x: np.zeros(0),
                lower=np.array([2.0]),
                upper=np.array([1.0]),
                hessian=lambda x, y, s: np.zeros(1),
                jac_structure=dense(0, 1),
                hess_structure=dense(1, 1),
            )


    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_nan_bound_rejected(self, side):
        # a NaN bound is not an absent one
        bounds = {"lower": np.array([0.0, -np.inf]), "upper": np.array([1.0, np.inf])}
        bounds[side][1] = np.nan
        with pytest.raises(ValueError, match=r"NaN \(variable 1\)"):
            NlpProblem(
                n=2,
                m=0,
                objective=lambda x: 0.0,
                gradient=lambda x: np.zeros(2),
                constraints=lambda x: np.zeros(0),
                jacobian=lambda x: np.zeros(0),
                hessian=lambda x, y, s: np.zeros(4),
                jac_structure=dense(0, 2),
                hess_structure=dense(2, 2),
                **bounds,
            )


class TestInputChecks:
    @pytest.mark.parametrize("field, structure, match", [
        ("jac_structure", (np.array([0, 0]), np.array([0])), r"jac_structure: rows and cols"),
        ("hess_structure", (np.zeros((2, 2), int), np.zeros((2, 2), int)),
         r"hess_structure: rows and cols must be integer vectors"),
        ("jac_structure", (np.array([0.0, 0.7]), np.array([0.0, 1.9])),
         r"jac_structure: rows and cols must be integer vectors"),
        ("jac_structure", (np.array([0, 1]), np.array([1, 0])),
         r"jac_structure: entry 1 at \(1, 0\) lies outside 1 x 2"),
        ("hess_structure", (np.array([0, 1]), np.array([-1, 1])),
         r"hess_structure: entry 0 at \(0, -1\) lies outside 2 x 2"),
    ], ids=["ragged", "not-1d", "float", "jacobian-outside", "hessian-outside"])
    def test_structure_checked_at_construction(self, field, structure, match):
        p = bounded_lp()
        fields = {"jac_structure": p.jac_structure, "hess_structure": p.hess_structure, field: structure}
        with pytest.raises(ValueError, match=match):
            NlpProblem(n=2, m=1, objective=p.objective, gradient=p.gradient,
                       constraints=p.constraints, jacobian=p.jacobian, lower=p.lower,
                       upper=p.upper, hessian=p.hessian, **fields)

    @pytest.mark.parametrize("problem, x0, duals0, match", [
        (box_qp, [3.0, 1.0], None, r"x0: expected 1 entries, got 2"),
        (bounded_lp, [1.0, 1.0], (np.zeros(2), np.zeros(2), np.zeros(2)),
         r"duals0\[0\]: expected 1 entries, got 2"),
        (bounded_lp, [1.0, 1.0], (np.zeros(1), np.zeros(3), np.zeros(2)),
         r"duals0\[1\]: expected 2 entries, got 3"),
    ], ids=["x0", "duals0-eq", "duals0-lo"])
    def test_wrong_length_start_rejected(self, problem, x0, duals0, match):
        with pytest.raises(ValueError, match=match):
            solve(problem(), np.array(x0), duals0=duals0)

    @pytest.mark.parametrize("callback, values, size", [
        ("jacobian", np.zeros(3), 2),
        ("hessian", np.zeros(3), 4),
        ("gradient", np.zeros(3), 2),
        ("constraints", np.zeros(2), 1),
    ], ids=["jacobian", "hessian", "gradient", "constraints"])
    def test_wrong_length_values_rejected(self, callback, values, size):
        p = bounded_lp()
        setattr(p, callback, lambda *args: values)
        with pytest.raises(ValueError, match=f"{callback}: expected {size} entries, got {values.size}"):
            solve(p, np.array([1.0, 1.0]))

    @pytest.mark.parametrize("callback, size", [("gradient", 2), ("constraints", 1)])
    def test_wrong_length_after_the_start_rejected(self, callback, size):
        # right at the start, wrong from the next call on: the accepted
        # point's gradient, a trial point's constraints
        p = bounded_lp()
        first = iter([getattr(p, callback)])
        setattr(p, callback, lambda x: next(first, lambda x: np.zeros(3))(x))
        with pytest.raises(ValueError, match=f"{callback}: expected {size} entries, got 3"):
            solve(p, np.array([1.0, 1.0]))

    @pytest.mark.parametrize("check, callback, values, size", [
        (check_derivatives, "gradient", np.zeros(3), 2),
        (check_derivatives, "constraints", np.zeros(2), 1),
        (check_hessian, "gradient", np.zeros(3), 2),
    ], ids=["derivatives-gradient", "derivatives-constraints", "hessian-gradient"])
    def test_wrong_length_values_rejected_by_checkers(self, check, callback, values, size):
        p = bounded_lp()
        setattr(p, callback, lambda x: values)
        args = (np.array([1.7, 2.2]),) + ((np.ones(1),) if check is check_hessian else ())
        with pytest.raises(ValueError, match=f"{callback}: expected {size} entries, got {values.size}"):
            check(p, *args)

    @pytest.mark.parametrize("weights, match", [
        ([1.0], r"barrier_weights: expected 2 entries, got 1"),
        ([1.0, 0.0], r"barrier_weights must be finite and positive \(variable 1: 0.0\)"),
        ([-1.0, 1.0], r"barrier_weights must be finite and positive \(variable 0: -1.0\)"),
        ([1.0, np.nan], r"barrier_weights must be finite and positive \(variable 1: nan\)"),
        ([np.inf, np.inf], r"barrier_weights must be finite and positive \(variable 0: inf\)"),
    ], ids=["length", "zero", "negative", "nan", "inf"])
    def test_barrier_weights_checked_at_construction(self, weights, match):
        with pytest.raises(ValueError, match=match):
            replace(bounded_lp(), barrier_weights=np.array(weights))


class TestDerivativeChecker:
    def test_linear_constraints_exact(self):
        p = bounded_lp()
        worst = check_derivatives(p, np.array([1.7, 2.2]))
        assert worst <= 1e-10

    def test_smoothed_absolute_value(self):
        delta = 1e-3

        def f(x):
            return float(np.sqrt(x[0] ** 2 + delta**2))

        p = NlpProblem(
            n=1,
            m=0,
            objective=f,
            gradient=lambda x: np.array([x[0] / np.sqrt(x[0] ** 2 + delta**2)]),
            constraints=lambda x: np.zeros(0),
            jacobian=lambda x: np.zeros(0),
            lower=np.array([-np.inf]),
            upper=np.array([np.inf]),
            hessian=lambda x, y, s: np.array([s * delta**2 / (x[0] ** 2 + delta**2) ** 1.5]),
            jac_structure=dense(0, 1),
            hess_structure=dense(1, 1),
        )
        assert check_derivatives(p, np.array([5e-3])) <= 1e-5

    def test_detects_undeclared_entry(self):
        # the structure leaves out J[0, 1], whose derivative is 1
        p = bounded_lp()
        p.jac_structure = (np.array([0]), np.array([0]))
        p.jacobian = lambda x: np.array([1.0])
        assert check_derivatives(p, np.array([1.7, 2.2])) > 1e-2

    def test_detects_wrong_gradient(self):
        p = NlpProblem(
            n=1,
            m=0,
            objective=lambda x: float(x[0] ** 2),
            gradient=lambda x: np.array([3.0 * x[0]]),  # wrong on purpose
            constraints=lambda x: np.zeros(0),
            jacobian=lambda x: np.zeros(0),
            lower=np.array([-np.inf]),
            upper=np.array([np.inf]),
            hessian=lambda x, y, s: np.array([2.0 * s]),
            jac_structure=dense(0, 1),
            hess_structure=dense(1, 1),
        )
        assert check_derivatives(p, np.array([2.0])) > 1e-2


class TestNumericalBreakdown:
    def test_nan_hessian_gives_numerical_status(self):
        base = rosenbrock_eq()
        calls = []

        def hessian(x, y, sigma):
            calls.append(1)
            H = base.hessian(x, y, sigma)
            return H if len(calls) == 1 else np.full_like(H, np.nan)

        p = NlpProblem(
            n=2, m=1, objective=base.objective, gradient=base.gradient,
            constraints=base.constraints, jacobian=base.jacobian,
            lower=base.lower, upper=base.upper, hessian=hessian,
            jac_structure=base.jac_structure, hess_structure=base.hess_structure,
        )
        sol = solve(p, np.array([0.5, 0.5]))
        assert sol.status is SolveStatus.NUMERICAL
        assert "not finite" in sol.diagnostic
        assert sol.iterations == 2
        assert np.all(np.isfinite(sol.x))


def concave(scale, lo, hi):
    # min -scale * x^2 on [lo, hi]: the curvature is negative everywhere
    return NlpProblem(
        n=1,
        m=0,
        objective=lambda x: float(-scale * x[0] ** 2),
        gradient=lambda x: np.array([-2.0 * scale * x[0]]),
        constraints=lambda x: np.zeros(0),
        jacobian=lambda x: np.zeros(0),
        lower=np.array([lo]),
        upper=np.array([hi]),
        hessian=lambda x, y, s: np.array([-2.0 * scale * s]),
        jac_structure=dense(0, 1),
        hess_structure=dense(1, 1),
    )


class TestCurvatureRule:
    """A regularization is kept when the step it gives has positive
    curvature.  The shipped problems are convex in their steps; a concave
    objective is not, so the unregularized Newton step runs uphill."""

    @pytest.mark.parametrize("x0, at", [(0.5, 2.0), (0.9, 2.0), (-0.2, -1.0)])
    def test_concave_objective_ends_on_a_bound(self, x0, at):
        # min -x^2 on [-1, 2]: a start right of 0 ends at the global minimum
        # x = 2 (upper multiplier 4), one left of 0 at the local one x = -1
        # (lower multiplier 2); the other bound's multiplier is mu / slack
        sol = solve(concave(1.0, -1.0, 2.0), np.array([x0]))
        assert sol.status is SolveStatus.OPTIMAL
        np.testing.assert_allclose(sol.x, [at], atol=1e-8)
        active, other = (sol.lambda_hi, sol.lambda_lo) if at > 0 else (sol.lambda_lo, sol.lambda_hi)
        np.testing.assert_allclose(active, [2.0 * abs(at)], rtol=1e-8)
        assert 0.0 < other[0] < 1e-8

    def test_regularization_cap_gives_numerical_status(self):
        # min -1e45 x^2 on [-1, 1]: delta_w would have to pass 2e45 to give
        # the step positive curvature, so it runs past its cap of 1e40
        sol = solve(concave(1e45, -1.0, 1.0), np.array([0.3]))
        assert sol.status is SolveStatus.NUMERICAL
        assert sol.iterations == 1
        assert "at iteration 1: delta_w reached 1.0e+42" in sol.diagnostic
        np.testing.assert_array_equal(sol.x, [0.3])


class TestLeastSquaresMultipliers:
    """The start's multiplier estimate, its zero fallback and its cut at 1e3,
    each reached through ``solve`` on a small analytic problem."""

    @staticmethod
    def estimates(monkeypatch):
        """Record every estimate ``solve`` takes from the real function."""
        real, seen = nlp._least_squares_multipliers, []

        def spy(*args):
            seen.append(real(*args))
            return seen[-1]

        monkeypatch.setattr(nlp, "_least_squares_multipliers", spy)
        return seen

    @staticmethod
    def sum_rows(rows, f=lambda t: t, df=lambda t: 1.0):
        # min x1^2 + x2^2 s.t. f(x1 + x2) = f(5), the row repeated ``rows``
        # times; the rows' Hessian term is left out, so f must be linear
        # wherever a step is taken
        free = np.full(2, np.inf)
        return NlpProblem(
            n=2, m=rows, objective=lambda x: float(x @ x), gradient=lambda x: 2.0 * x,
            constraints=lambda x: np.full(rows, f(x[0] + x[1]) - f(5.0)),
            jacobian=lambda x: np.full(2 * rows, df(x[0] + x[1])),
            lower=-free, upper=free, hessian=lambda x, y, s: 2.0 * s * np.eye(2).ravel(),
            jac_structure=dense(rows, 2), hess_structure=dense(2, 2),
        )

    def test_a_full_rank_start_takes_the_estimate(self, monkeypatch):
        # at (1, 2) the gradient (2, 4) is best met by -3 times the row (1, 1)
        seen = self.estimates(monkeypatch)
        sol = solve(self.sum_rows(1), np.array([1.0, 2.0]))
        assert sol.status is SolveStatus.OPTIMAL
        np.testing.assert_allclose(seen[0], [-3.0], rtol=1e-12)
        np.testing.assert_allclose(sol.lambda_eq, [-5.0], rtol=1e-8)

    def test_a_duplicated_row_gives_zero(self, monkeypatch):
        # the repeated row makes [[I, J^T], [J, 0]] singular: its factor has
        # a zero pivot, the estimate falls back to zero, and the solve
        # still splits the multiplier -5 over the two rows
        seen = self.estimates(monkeypatch)
        sol = solve(self.sum_rows(2), np.array([1.0, 2.0]))
        np.testing.assert_array_equal(seen[0], np.zeros(2))
        assert sol.status is SolveStatus.OPTIMAL
        np.testing.assert_allclose(sol.x, [2.5, 2.5], rtol=1e-8)
        assert sol.lambda_eq.sum() == pytest.approx(-5.0, rel=1e-8)

    @pytest.mark.parametrize("slope", [999.0, 1001.0])
    def test_an_estimate_above_1e3_gives_zero(self, slope, monkeypatch):
        # min slope * x1 + x2^2 s.t. x1 = 1: the estimate is -slope, kept up
        # to 1e3 in magnitude and zero above; both solves end at -slope
        seen = self.estimates(monkeypatch)
        free = np.full(2, np.inf)
        problem = NlpProblem(
            n=2, m=1, objective=lambda x: float(slope * x[0] + x[1] ** 2),
            gradient=lambda x: np.array([slope, 2.0 * x[1]]),
            constraints=lambda x: np.array([x[0] - 1.0]), jacobian=lambda x: np.array([1.0]),
            lower=-free, upper=free, hessian=lambda x, y, s: np.array([0.0, 2.0 * s]),
            jac_structure=(np.array([0]), np.array([0])),
            hess_structure=(np.array([0, 1]), np.array([0, 1])),
        )
        sol = solve(problem, np.zeros(2))
        np.testing.assert_array_equal(seen[0], [-slope] if slope < 1e3 else [0.0])
        assert sol.status is SolveStatus.OPTIMAL
        np.testing.assert_allclose(sol.lambda_eq, [-slope], rtol=1e-8)

    def test_a_non_finite_jacobian_is_an_input_error(self, monkeypatch):
        # at (1, -1) the cube root of x1 + x2 has an infinite slope: like a
        # non-finite constraint, it is rejected before any estimate or step,
        # naming the row and the variable; so is a non-finite gradient
        seen = self.estimates(monkeypatch)
        with np.errstate(divide="ignore"):
            problem = self.sum_rows(1, np.cbrt, lambda t: np.cbrt(t) ** -2 / 3.0)
            with pytest.raises(EvaluationError, match=r"Jacobian of constraint 0 in variable 0 "
                                                      "is not finite at the start point") as err:
                solve(problem, np.array([1.0, -1.0]))
        assert err.value.index == 0
        problem = replace(self.sum_rows(1), gradient=lambda x: np.array([2.0 * x[0], np.nan]))
        with pytest.raises(EvaluationError, match="gradient in variable 1 is not finite") as err:
            solve(problem, np.array([1.0, 2.0]))
        assert err.value.index is None
        assert seen == []


def random_bordered(rng, cells=4, cell_vars=3, cell_rows=2, border_vars=3, border_rows=2, couple=None):
    """Random labels, Hessian, Jacobian and diagonal shift of a bordered-block
    KKT matrix: indefinite cells and border rows; no entry links two cells.
    Entries are nonzero with probability 0.7, except that those between cell k
    and the border use ``couple[k]`` when it is given."""
    var_label = rng.permutation(np.r_[np.repeat(np.arange(cells), cell_vars), -np.ones(border_vars, int)])
    row_label = rng.permutation(np.r_[np.repeat(np.arange(cells), cell_rows), -np.ones(border_rows, int)])
    n, m = var_label.size, row_label.size
    couple = np.full(cells, 0.7) if couple is None else np.asarray(couple, dtype=float)

    def density(a, b):
        a, b = a[:, None], b[None, :]
        p = np.where(a == b, 0.7, couple[np.maximum(a, b)])
        return np.where((a >= 0) & (b >= 0) & (a != b), 0.0, p)

    H = np.triu(rng.normal(size=(n, n)) * (rng.random((n, n)) < density(var_label, var_label)))
    H = H + np.triu(H, 1).T
    J = rng.normal(size=(m, n)) * (rng.random((m, n)) < density(row_label, var_label))
    shift = np.r_[rng.uniform(-1.0, 2.0, n), -rng.uniform(0.0, 1e-3, m)]
    return np.r_[var_label, row_label], H, J, shift


def kkt_matrix(H, J, shift):
    M = np.block([[H, J.T], [J, np.zeros((J.shape[0], J.shape[0]))]])
    return M + np.diag(shift)


def coo(M):
    """Dense ``M`` as a declared structure, its nonzero positions in row-major
    order, and their values."""
    at = np.nonzero(M)
    return at, M[at]


def bordered(labels, H, J):
    """The bordered KKT of dense ``H`` and ``J``, declared at their nonzeros,
    and its system."""
    (hs, h), (js, j) = coo(H), coo(J)
    kkt = _BorderedKkt(labels, J.shape[1], J.shape[0], hs, js)
    return kkt, kkt.system(h, j)


def assert_matches_dense(rng, blocks, H, J, shift):
    """The bordered factorization, with the labels and without, of a matrix
    ``eigvalsh`` finds regular has no zero pivot and solves as
    ``np.linalg.solve`` does."""
    n, m = J.shape[1], J.shape[0]
    M = kkt_matrix(H, J, shift)
    eig = np.linalg.eigvalsh(M)
    assert np.abs(eig).min() > 1e-10 * np.abs(eig).max()
    rhs = rng.normal(size=n + m)
    for labels in (blocks, None):
        factor = _BorderedFactor(bordered(labels, H, J)[1], shift)
        assert not factor.singular
        np.testing.assert_allclose(factor.solve(rhs), np.linalg.solve(M, rhs), rtol=1e-7, atol=1e-9)


def random_banded(rng, cells=4, cell_vars=3, cell_rows=2, band=(14, 12), arrow=(2, 1), reach=3):
    """Random labels, Hessian, Jacobian and diagonal shift of a bordered KKT
    matrix whose border is a band plus an arrow.  ``band`` and ``arrow`` give
    their (variables, rows); the band unknowns take the positions 0, 1, ...
    in a random order, and an entry between two of them spans at most
    ``reach`` positions.  Cell k couples to the arrow and to the band
    positions within 2 of k * (band size) / cells."""
    nband = sum(band)
    kind = np.r_[np.repeat(np.arange(cells), cell_vars), np.full(band[0], -2),
                 np.full(arrow[0], -1), np.repeat(np.arange(cells), cell_rows),
                 np.full(band[1], -2), np.full(arrow[1], -1)]
    n = cells * cell_vars + band[0] + arrow[0]
    pos = np.full(kind.size, -1)
    pos[kind == -2] = rng.permutation(nband)
    centre = np.where(kind >= 0, np.maximum(kind, 0) * nband // max(cells, 1), pos)
    a, b = (kind[:, None], centre[:, None]), (kind[None, :], centre[None, :])
    allowed = (
        (a[0] == -1) | (b[0] == -1)
        | ((a[0] >= 0) & (a[0] == b[0]))
        | ((a[0] == -2) & (b[0] == -2) & (np.abs(a[1] - b[1]) <= reach))
        | ((np.minimum(a[0], b[0]) == -2) & (np.maximum(a[0], b[0]) >= 0)
           & (np.abs(a[1] - b[1]) <= 2))
    )
    dense = rng.normal(size=allowed.shape) * (rng.random(allowed.shape) < 0.7 * allowed)
    H = np.triu(dense[:n, :n])
    H = H + np.triu(H, 1).T
    J = dense[n:, :n]
    shift = np.r_[rng.uniform(-1.0, 2.0, n), -rng.uniform(0.0, 1e-3, kind.size - n)]
    return np.where(kind == -2, -2 - pos, kind), H, J, shift


class TestBorderedKkt:
    @pytest.mark.parametrize("seed", range(12))
    def test_inertia_and_solution_match_dense(self, seed):
        rng = np.random.default_rng(seed)
        assert_matches_dense(rng, *random_bordered(rng))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("couple", [(0.0, 1.0, 0.5, 0.2), (0.0, 0.0, 0.0, 0.0)], ids=["uneven", "uncoupled"])
    @pytest.mark.parametrize("border", [(3, 2), (0, 0)], ids=["border", "no-border"])
    def test_uneven_coupling_matches_dense(self, seed, couple, border, capfd):
        # cell 0 touches no border column and cell 1 all of them, so the
        # other cells' panels are padded with zero rows; with no coupling at
        # all, or no border, the panels are empty (t = 0), and an empty border
        # is never handed to LAPACK, which would print an argument error
        rng = np.random.default_rng(100 + seed)
        blocks, H, J, shift = random_bordered(rng, 4, 3, 2, *border, couple=couple)
        kkt, system = bordered(blocks, H, J)
        width = sum(border) if couple[1] else 0
        assert system.B.shape == (4, width, 5)
        np.testing.assert_array_equal(system.B[0], 0.0)
        np.testing.assert_array_equal(kkt.cols[1], np.arange(width))
        assert_matches_dense(rng, blocks, H, J, shift)
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("reach", [40, 3], ids=["default-blocks", "small-blocks"])
    @pytest.mark.parametrize("arrow", [(2, 1), (0, 0)], ids=["arrow", "no-arrow"])
    def test_band_and_arrow_match_dense(self, seed, reach, arrow, capfd):
        # 41 band unknowns whose entries span the whole band (default-blocks,
        # the widest band storage) or 3 positions (small-blocks); the band
        # storage is Fortran-ordered so that LAPACK factors it in place, and
        # without an arrow no LAPACK routine is handed an empty argument
        rng = np.random.default_rng(200 + seed)
        blocks, H, J, shift = random_banded(rng, cells=6, band=(22, 19), arrow=arrow, reach=reach)
        kkt, system = bordered(blocks, H, J)
        band = kkt.border_blocks(system.S)[0]
        assert kkt.band == 41 and kkt.reach <= max(reach, 4)
        assert band.shape == (3 * kkt.reach + 1, 41) and band.flags.f_contiguous
        assert_matches_dense(rng, blocks, H, J, shift)
        assert capfd.readouterr() == ("", "")

    def test_singular_leading_band_block_reported_as_zero(self):
        # band variables x0..x3; x0 and x1 have no curvature and meet only the
        # arrow row x0 + x1 + x2 + x3 - t = 0, so the band's LU meets a zero
        # pivot while the whole matrix is regular
        H = np.diag([0.0, 0.0, 1.0, 1.0, 2.0])
        H[2, 3] = H[3, 2] = 0.5
        J = np.array([[1.0, 1.0, 1.0, 1.0, -1.0]])
        blocks = np.array([-2, -3, -4, -5, -1, -1])
        kkt, system = bordered(blocks, H, J)
        assert kkt.reach == 1
        assert _BorderedFactor(system, np.zeros(6)).singular
        shift = np.r_[np.full(5, 1e-4), -1e-8]
        assert not _BorderedFactor(system, shift).singular
        assert_matches_dense(np.random.default_rng(0), blocks, H, J, shift)

    def test_far_band_coupling_widens_the_reach(self):
        # band variables x1..x6 in a tridiagonal chain; cell 0 (x0 and row 0)
        # couples to x1 and to x6, whose fill five positions apart widens
        # the band storage to reach 5
        H = np.eye(7)
        for i in range(1, 6):
            H[i, i + 1] = H[i + 1, i] = 0.5
        J = np.zeros((1, 7))
        J[0, [0, 1, 6]] = 1.0
        blocks = np.array([0, -2, -3, -4, -5, -6, -7, 0])
        assert bordered(blocks, H, J)[0].reach == 5
        assert_matches_dense(np.random.default_rng(1), blocks, H, J, np.zeros(8))

    def test_hessian_linking_two_cells_rejected(self):
        # variable 1 (cell 0) and variable 2 (cell 1) share a Hessian entry
        H = np.eye(4)
        H[1, 2] = H[2, 1] = 0.5
        J = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
        with pytest.raises(ValueError, match="variable 1 of cell 0 and variable 2 of cell 1"):
            _BorderedKkt(np.array([0, 0, 1, 1, 0, 1]), 4, 2, np.nonzero(H), np.nonzero(J))

    def test_singular_cell_reported_as_zero(self):
        # cells {x0} and {x1} have zero Hessian; the border row x0 + x1 - t
        # makes the whole matrix nonsingular, but the cells cannot be eliminated
        H = np.diag([0.0, 0.0, 2.0])
        J = np.array([[1.0, 1.0, -1.0]])
        system = bordered(np.array([0, 1, -1, -1]), H, J)[1]
        assert _BorderedFactor(system, np.zeros(4)).singular
        assert not _BorderedFactor(system, np.r_[np.full(3, 1e-4), -1e-8]).singular

    def test_jacobian_linking_two_cells_rejected(self):
        # row 1 belongs to cell 1 but also uses variable 0 of cell 0
        H = np.eye(4)
        J = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 1.0, 1.0]])
        with pytest.raises(ValueError, match="constraint row 1"):
            _BorderedKkt(np.array([0, 0, 1, 1, 0, 1]), 4, 2, np.nonzero(H), np.nonzero(J))

    def test_split_is_kept_per_pattern(self):
        # one instance across value sets of its declared pattern gives what a
        # fresh one gives; the finiteness check still runs on every call
        rng = np.random.default_rng(3)
        blocks, H, J, _ = random_bordered(rng)
        n, m = J.shape[1], J.shape[0]
        (hs, h), (js, j) = coo(H), coo(J)
        kkt = _BorderedKkt(blocks, n, m, hs, js)
        H2, J2 = H * rng.normal(size=H.shape), J * rng.normal(size=J.shape)
        for hv, jv in ((h, j), (np.zeros(h.size), j), ((H2 + H2.T)[hs], J2[js]), (h, j)):
            got = kkt.system(hv, jv)
            fresh = _BorderedKkt(blocks, n, m, hs, js)
            want = fresh.system(hv, jv)
            np.testing.assert_array_equal(got.A, want.A)
            np.testing.assert_array_equal(got.S, want.S)
            np.testing.assert_array_equal(got.B, want.B)
            np.testing.assert_array_equal(kkt.cols, fresh.cols)
        bad = j.copy()
        bad[0] = np.nan
        with pytest.raises(_Breakdown, match="not finite"):
            kkt.system(h, bad)
        a, b = np.flatnonzero(blocks[:n] == 0)[0], np.flatnonzero(blocks[:n] == 1)[0]
        cross = H.copy()
        cross[a, b] = cross[b, a] = 1.0
        with pytest.raises(ValueError, match="cells may meet only through the border"):
            _BorderedKkt(blocks, n, m, np.nonzero(cross), js)
        np.testing.assert_array_equal(kkt.system(h, j).A, want.A)

    def test_factorizations_share_the_workspace(self):
        # two factorizations of one system write the same storage, and
        # neither changes the system they copy; the band's LU, pivots and
        # panel solve are the workspace's own arrays, which LAPACK writes in
        # place only when they are Fortran-contiguous
        rng = np.random.default_rng(7)
        blocks, H, J, shift = random_banded(rng, cells=6, band=(22, 19))
        kkt, system = bordered(blocks, H, J)
        kept = [a.copy() for a in (system.A, system.B, system.S)]
        first = _BorderedFactor(system, shift)
        second = _BorderedFactor(system, shift + 1.0)
        for name in ("lu", "piv", "X", "band_lu", "band_piv", "Y"):
            assert np.shares_memory(getattr(first, name), getattr(second, name)), name
        assert np.shares_memory(first.band_lu, kkt._S) and first.band_lu.flags.f_contiguous
        assert first.band_piv is kkt._band_piv and first.Y is kkt._Y
        assert first.Y.T.flags.f_contiguous
        for now, before in zip((system.A, system.B, system.S), kept):
            np.testing.assert_array_equal(now, before)
        again = kkt.system(*(coo(M)[1] for M in (H, J)))
        assert all(a is b for a, b in zip((again.A, again.B, again.S), (system.A, system.B, system.S)))

    @pytest.mark.parametrize("seed", range(3))
    def test_reused_storage_solves_as_fresh_storage(self, seed):
        # one system factored at several shifts, each factor solved before
        # the next overwrites it, gives the bits of a fresh split per shift
        # and the dense solution
        rng = np.random.default_rng(300 + seed)
        blocks, H, J, shift = random_banded(rng, cells=6, band=(22, 19))
        kkt, system = bordered(blocks, H, J)
        rhs = rng.normal(size=shift.size)
        for scale in (1.0, 2.0, 0.5, 1.0):
            reused = _BorderedFactor(system, scale * shift)
            fresh = _BorderedFactor(bordered(blocks, H, J)[1], scale * shift)
            assert not reused.singular and not fresh.singular
            step = reused.solve(rhs)
            np.testing.assert_array_equal(step, fresh.solve(rhs))
            np.testing.assert_allclose(step, np.linalg.solve(kkt_matrix(H, J, scale * shift), rhs),
                                       rtol=1e-7, atol=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_unlabelled_problem_is_one_cell(self, seed, monkeypatch, capfd):
        # without labels the whole KKT matrix is cell 0 and the border is
        # empty; scipy's ldl still runs once per factorization, on the empty
        # arrow, and nothing hands LAPACK an empty argument
        rng = np.random.default_rng(400 + seed)
        _, H, J, shift = random_bordered(rng)
        n, m = J.shape[1], J.shape[0]
        kkt, system = bordered(None, H, J)
        assert kkt.cells.shape == (1, n + m) and kkt.border.size == 0
        np.testing.assert_array_equal(kkt.cells[0], np.arange(n + m))
        assert system.B.shape == (1, 0, n + m) and system.S.size == 0
        arrows = []
        real = nlp.sla.ldl

        def ldl(a, *args, **kwargs):
            arrows.append(a.shape)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(nlp, "sla", type("Sla", (), {"ldl": staticmethod(ldl)}))
        M = kkt_matrix(H, J, shift)
        factor = _BorderedFactor(system, shift)
        assert not factor.singular
        rhs = rng.normal(size=n + m)
        np.testing.assert_allclose(factor.solve(rhs), np.linalg.solve(M, rhs), rtol=1e-7, atol=1e-9)
        assert arrows == [(0, 0)]
        assert capfd.readouterr() == ("", "")

    def test_cells_must_have_equal_sizes(self):
        with pytest.raises(ValueError, match="equal sizes"):
            _BorderedKkt(np.array([0, 0, 1]), 2, 1, dense(2, 2), dense(1, 2))


def linked_cells(blocks):
    """min (t - 1)^2  s.t.  x_k - t = 0 for two cells k: every cell block has
    a zero Hessian and no bounds, so it is singular until regularized."""
    return NlpProblem(
        n=3,
        m=2,
        objective=lambda x: float((x[2] - 1.0) ** 2),
        gradient=lambda x: np.array([0.0, 0.0, 2.0 * (x[2] - 1.0)]),
        constraints=lambda x: np.array([x[0] - x[2], x[1] - x[2]]),
        jacobian=lambda x: np.array([1.0, -1.0, 1.0, -1.0]),
        lower=np.full(3, -np.inf),
        upper=np.full(3, np.inf),
        hessian=lambda x, y, s: np.array([0.0, 0.0, 2.0 * s]),
        jac_structure=(np.array([0, 0, 1, 1]), np.array([0, 2, 1, 2])),
        hess_structure=(np.arange(3), np.arange(3)),
        blocks=blocks,
    )


class TestStructuredSolve:
    def test_cross_cell_hessian_rejected_before_any_callback(self):
        # variables 0 and 1 sit in cells 0 and 1, and the declared Hessian
        # links them: solve rejects the pattern before it reads any value
        def unread(*args):
            raise AssertionError("a callback ran")

        p = linked_cells(np.array([0, 1, -1, 0, 1]))
        for cb in ("objective", "gradient", "constraints", "jacobian", "hessian"):
            setattr(p, cb, unread)
        p.hess_structure = (np.array([0, 1, 2, 0]), np.array([0, 1, 2, 1]))
        with pytest.raises(ValueError, match="variable 0 of cell 0 and variable 1 of cell 1"):
            solve(p, np.zeros(3))

    def test_singular_cells_corrected_by_regularization(self):
        x0 = np.array([3.0, -2.0, 0.5])
        plain = solve(linked_cells(None), x0)
        blocked = solve(linked_cells(np.array([0, 1, -1, -1, -1])), x0)
        for sol in (plain, blocked):
            assert sol.status is SolveStatus.OPTIMAL
            np.testing.assert_allclose(sol.x, 1.0, atol=1e-8)

    def test_blocks_validated(self):
        with pytest.raises(ValueError, match="labels"):
            linked_cells(np.array([0, 1, -1]))


class TestHessianChecker:
    def test_rosenbrock_hessian_exact(self):
        p = rosenbrock_eq()
        assert check_hessian(p, np.array([0.3, -0.7]), np.array([1.5])) <= 1e-6

    def test_detects_wrong_hessian(self):
        base = rosenbrock_eq()
        p = NlpProblem(
            n=2, m=1, objective=base.objective, gradient=base.gradient,
            constraints=base.constraints, jacobian=base.jacobian,
            lower=base.lower, upper=base.upper,
            hessian=lambda x, y, s: 2.0 * base.hessian(x, y, s),
            jac_structure=base.jac_structure, hess_structure=base.hess_structure,
        )
        assert check_hessian(p, np.array([0.3, -0.7]), np.array([1.5])) > 1e-2

    def test_detects_undeclared_entry(self):
        # the structure leaves out the off-diagonal entries -400 x0
        base = rosenbrock_eq()
        p = NlpProblem(
            n=2, m=1, objective=base.objective, gradient=base.gradient,
            constraints=base.constraints, jacobian=base.jacobian,
            lower=base.lower, upper=base.upper,
            hessian=lambda x, y, s: base.hessian(x, y, s)[[0, 3]],
            jac_structure=base.jac_structure, hess_structure=(np.array([0, 1]), np.array([0, 1])),
        )
        assert check_hessian(p, np.array([0.3, -0.7]), np.array([1.5])) > 1e-2


class TestIterationLog:
    def test_one_debug_record_per_iteration(self, caplog):
        caplog.set_level(logging.DEBUG, logger="gasflow.nlp")
        sol = solve(rosenbrock_eq(), np.array([0.5, 0.5]))
        records = [r for r in caplog.records if r.name == "gasflow.nlp"]
        assert sol.optimal and sol.iterations > 1
        assert len(records) == sol.iterations
        assert all(r.levelno == logging.DEBUG and r.getMessage().startswith("iter") for r in records)
        # from the second record on, each carries the step that led to it
        assert all("alpha=" in r.getMessage() for r in records[1:])

    def test_silent_at_warning(self, caplog):
        caplog.set_level(logging.WARNING, logger="gasflow.nlp")
        assert solve(rosenbrock_eq(), np.array([0.5, 0.5])).optimal
        assert not [r for r in caplog.records if r.name == "gasflow.nlp"]
