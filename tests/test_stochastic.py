import math
import tracemalloc

import numpy as np
import pytest
import scipy.special
from scipy.integrate import quad
from scipy.interpolate import BSpline, CubicSpline
from scipy.sparse import csc_matrix, csr_matrix
from scipy.sparse.linalg import spsolve
from scipy.special import erf

from gasflow import UncertaintySpec, build_grid, configs, measure_basis_integrals
from gasflow.stochastic import ndtr, ndtri

UNIFORM = UncertaintySpec(dist="uniform", lo=200.0, hi=300.0)
TNORM = UncertaintySpec(dist="truncated_normal", lo=200.0, hi=300.0, mean=250.0, std=50.0 / 3.0)


class TestGridConstruction:
    def test_uniform_hundred_cells(self):
        grid = build_grid(UNIFORM, 100)
        np.testing.assert_allclose(grid.cell_mass, 0.01, rtol=0, atol=1e-15)
        assert abs(grid.cell_mass.sum() - 1.0) <= 1e-12

    def test_uniform_fifty_cells(self):
        grid = build_grid(UncertaintySpec(dist="uniform", lo=0.0, hi=32.0), 50)
        np.testing.assert_allclose(grid.cell_mass, 0.02, rtol=0, atol=1e-15)

    def test_truncated_normal_symmetry(self):
        grid = build_grid(TNORM, 4)
        assert grid.cell_mass[0] == pytest.approx(grid.cell_mass[3], rel=1e-12)
        assert grid.cell_mass[1] == pytest.approx(grid.cell_mass[2], rel=1e-12)
        assert abs(grid.cell_mass.sum() - 1.0) <= 1e-12

    def test_counts_and_points(self):
        grid = build_grid(UNIFORM, 10)
        assert grid.knots.shape == (11,)
        assert grid.collocation_points.shape == (10,)
        assert grid.n_basis == 13
        assert grid.greville.shape == (13,)
        assert grid.greville[0] == pytest.approx(200.0)
        assert grid.greville[-1] == pytest.approx(300.0)

    def test_too_few_cells(self):
        with pytest.raises(ValueError, match="4"):
            build_grid(UNIFORM, 3)

    def test_reversed_interval(self):
        with pytest.raises(ValueError, match="degenerate"):
            UncertaintySpec(dist="uniform", lo=1.0, hi=0.0)

    def test_truncated_normal_needs_std(self):
        with pytest.raises(ValueError, match="std"):
            UncertaintySpec(dist="truncated_normal", lo=0.0, hi=1.0)

    def test_degenerate_point_mass(self):
        grid = build_grid(UncertaintySpec(dist="uniform", lo=5.0, hi=5.0), 4)
        assert grid.degenerate
        np.testing.assert_allclose(grid.cell_mass, 0.25)
        assert grid.n_basis == 1
        np.testing.assert_allclose(grid.basis_integrals, [1.0])
        # the interpolant's single value is the cell mean
        Dc, Dg = grid.Dc, grid.Dg
        np.testing.assert_allclose(Dg.toarray() @ np.linalg.inv(Dc.toarray()), 0.25)
        np.testing.assert_allclose(grid.rho, [1.0])

    @pytest.mark.parametrize("shape", [(4,), (4, 3)], ids=["1d", "2d"])
    def test_degenerate_interpolator_gives_the_mean_per_column(self, shape):
        grid = build_grid(UncertaintySpec(dist="uniform", lo=5.0, hi=5.0), 4)
        values = np.arange(np.prod(shape), dtype=float).reshape(shape)
        at = grid.value_interpolator(values)(np.full(6, 5.0))
        assert at.shape == (6,) + shape[1:]
        np.testing.assert_array_equal(at, np.broadcast_to(values.mean(axis=0), at.shape))


class TestSplineBasis:
    @pytest.mark.parametrize("spec", [UNIFORM, TNORM], ids=["uniform", "truncnormal"])
    def test_partition_of_unity(self, spec):
        grid = build_grid(spec, 17)
        rng = np.random.default_rng(7)
        x = rng.uniform(spec.lo, spec.hi, 200)
        x = np.append(x, [spec.lo, spec.hi])
        sums = grid.basis_matrix(x).sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, rtol=0, atol=1e-12)

    def test_integral_sum_is_one(self):
        for spec in (UNIFORM, TNORM):
            grid = build_grid(spec, 25)
            assert abs(grid.basis_integrals.sum() - 1.0) <= 1e-10

    def test_interior_uniform_integral_closed_form(self):
        # an interior cubic basis function on a uniform knot vector has L1
        # norm equal to the cell width, so its measure integral is 1/K
        K = 20
        grid = build_grid(UNIFORM, K)
        interior = grid.basis_integrals[5:-5]
        np.testing.assert_allclose(interior, 1.0 / K, rtol=1e-12)

    @pytest.mark.parametrize("spec", [UNIFORM, TNORM], ids=["uniform", "truncnormal"])
    def test_integrals_match_high_resolution_quadrature(self, spec):
        grid = build_grid(spec, 30)
        oracle = measure_basis_integrals(grid, points_per_interval=80)
        np.testing.assert_allclose(grid.basis_integrals, oracle, rtol=1e-8, atol=1e-14)

    @pytest.mark.parametrize("config", ["eight_node", "single_pipe", "single_pipe_truncnormal"])
    @pytest.mark.parametrize("K", [8, 50, 400])
    def test_integrals_match_the_dense_product(self, config, K):
        # the integrals accumulate the banded basis rows point by point; the
        # oracle is the dense basis matrix at the quadrature points times the
        # weighted density
        spec = configs.load(config).uncertain_nodes[0].uncertainty
        grid = build_grid(spec, K)
        xg, wg = np.polynomial.legendre.leggauss(8)
        a, b = grid.knots[:-1, None], grid.knots[1:, None]
        nodes = (0.5 * (b - a) * xg + 0.5 * (a + b)).ravel()
        weights = (0.5 * (b - a) * wg).ravel()
        oracle = grid.basis_matrix(nodes).T @ (weights * spec.pdf(nodes))
        np.testing.assert_allclose(grid.basis_integrals, oracle, rtol=0, atol=1e-16)

    @pytest.mark.parametrize("config", ["eight_node", "single_pipe", "single_pipe_truncnormal"])
    @pytest.mark.parametrize("K", [8, 50, 400])
    def test_integrals_match_adaptive_quadrature(self, config, K):
        # an oracle that shares no code with the grid: scipy's basis elements
        # against the density, by adaptive quadrature, one call per knot span
        spec = configs.load(config).uncertain_nodes[0].uncertainty
        grid = build_grid(spec, K)
        t = grid.spline_knots
        oracle = np.zeros(K + 3)
        for i in range(K + 3):
            basis = BSpline.basis_element(t[i:i + 5], extrapolate=False)
            for a, b in zip(t[i:i + 4], t[i + 1:i + 5]):
                if a < b:
                    oracle[i] += quad(lambda x: float(basis(x) * spec.pdf(x)), a, b,
                                      epsabs=1e-16, epsrel=1e-12)[0]
        np.testing.assert_allclose(grid.basis_integrals, oracle, rtol=0, atol=1e-15)

    def test_grid_memory_is_linear_in_cells(self):
        # no (points x basis) matrix: the K=3200 grid peaks at a few MiB
        tracemalloc.start()
        try:
            build_grid(TNORM, 3200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_truncnormal_edge_smaller_than_center(self):
        grid = build_grid(TNORM, 16)
        oracle = measure_basis_integrals(grid, points_per_interval=80)
        assert oracle[0] < oracle[len(oracle) // 2]
        assert grid.basis_integrals[0] < grid.basis_integrals[len(oracle) // 2]

    @pytest.mark.parametrize("spec", [UNIFORM, TNORM], ids=["uniform", "truncnormal"])
    @pytest.mark.parametrize("K", [8, 50, 400])
    def test_interpolant_factors(self, spec, K):
        # the not-a-knot interpolant at the Greville points factors into two
        # matrices of four entries per row, and its measure integral has
        # positive weights
        grid = build_grid(spec, K)
        W = CubicSpline(grid.collocation_points, np.eye(K))(grid.greville)
        Dc, Dg = grid.Dc, grid.Dg
        assert Dc.shape == (K, K) and Dg.shape == (K + 3, K)
        assert Dc.vals.shape == (K, 4) and Dg.vals.shape == (K + 3, 4)
        assert np.abs(W - Dg.toarray() @ np.linalg.inv(Dc.toarray())).max() <= 1e-13
        rho = grid.rho
        assert np.all(rho > 0)
        assert rho.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("config", ["eight_node", "single_pipe", "single_pipe_truncnormal"])
    @pytest.mark.parametrize("K", [4, 5, 6, 50, 100, 400])
    def test_rho_is_the_collocation_solve(self, config, K):
        # the weights come from a banded LU of the basis at the Greville
        # points; the oracle is scipy's sparse LU of the dense basis, which
        # rounds differently
        unc = configs.load(config).uncertain_nodes[0]
        grid = build_grid(unc.uncertainty, K, node_id=unc.id)
        B = grid.basis_matrix(grid.greville)
        oracle = spsolve(csc_matrix(B.T), grid.basis_integrals)
        np.testing.assert_allclose(grid.rho, oracle, rtol=0, atol=1e-16)
        np.testing.assert_allclose(B.T @ grid.rho, grid.basis_integrals, rtol=0, atol=1e-16)

    def test_cubic_reproduction(self):
        grid = build_grid(UNIFORM, 12)
        rng = np.random.default_rng(3)
        coeffs = rng.normal(size=4)

        def poly(x):
            x = (np.asarray(x) - 250.0) / 50.0
            return coeffs[0] + coeffs[1] * x + coeffs[2] * x**2 + coeffs[3] * x**3

        B = grid.basis_matrix(grid.greville)
        a = np.linalg.solve(B, poly(grid.greville))
        x = rng.uniform(200.0, 300.0, 100)
        approx = grid.basis_matrix(x) @ a
        np.testing.assert_allclose(approx, poly(x), rtol=0, atol=1e-10 * np.abs(poly(x)).max())

    def test_translation_covariance(self):
        shift = 1234.5
        base = build_grid(TNORM, 14)
        moved = build_grid(
            UncertaintySpec(
                dist="truncated_normal",
                lo=TNORM.lo + shift,
                hi=TNORM.hi + shift,
                mean=TNORM.mean + shift,
                std=TNORM.std,
            ),
            14,
        )
        np.testing.assert_allclose(moved.cell_mass, base.cell_mass, atol=1e-12)
        np.testing.assert_allclose(moved.basis_integrals, base.basis_integrals, atol=1e-12)


def assert_bitwise(actual, expected):
    """Equal values, shapes and signs of zero."""
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual, expected)
    np.testing.assert_array_equal(np.signbit(actual), np.signbit(expected))


def oracle_points(grid, rng):
    spec = grid.spec
    draws = np.sort(spec.ppf(rng.random(500)))
    return np.concatenate([[spec.lo, spec.hi], grid.collocation_points, grid.greville, draws])


class TestScipyOracle:
    """The spline arithmetic reproduces scipy's bit for bit; scipy's spline
    classes serve here as an independent oracle."""

    @pytest.mark.parametrize("spec", [UNIFORM, TNORM], ids=["uniform", "truncnormal"])
    @pytest.mark.parametrize("K", [4, 5, 8, 50, 400])
    def test_basis_and_factors(self, spec, K):
        grid = build_grid(spec, K)
        x = oracle_points(grid, np.random.default_rng(K))
        oracle = BSpline.design_matrix(x, grid.spline_knots, 3)
        assert_bitwise(grid.basis_matrix(x), oracle.toarray())
        c = grid.collocation_points
        t = np.concatenate([[c[0]] * 4, c[2:-2], [c[-1]] * 4])
        expected = (BSpline.design_matrix(c, t, 3),
                    BSpline.design_matrix(grid.greville, t, 3, extrapolate=True))
        for got, want in zip((grid.Dc, grid.Dg), expected):
            assert got.shape == want.shape
            # four entries per row, zeros included, in the oracle's order
            np.testing.assert_array_equal(want.indptr, np.arange(0, want.nnz + 1, 4))
            assert_bitwise(got.vals.ravel(), want.data)
            np.testing.assert_array_equal(got.cols.ravel(), want.indices)
            assert_bitwise(got.toarray(), want.toarray())

    @pytest.mark.parametrize("K", [4, 8, 50, 400, 1600])
    def test_products_match_csr(self, K):
        # the callbacks' products with the factors give the bits of scipy's
        # CSR kernels, the transposed one included
        grid = build_grid(TNORM, K)
        rng = np.random.default_rng(K)
        for op in (grid.Dc, grid.Dg):
            csr = csr_matrix((op.vals.ravel(), op.cols.ravel(),
                              np.arange(0, op.vals.size + 1, op.vals.shape[1])), shape=op.shape)
            for _ in range(20):
                x, v = rng.normal(size=op.shape[1]), rng.normal(size=op.shape[0])
                assert_bitwise(op @ x, csr @ x)
                assert_bitwise(op.rmatvec(v), csr.T @ v)

    @pytest.mark.parametrize("spec", [UNIFORM, TNORM], ids=["uniform", "truncnormal"])
    @pytest.mark.parametrize("K", [4, 5, 8, 50, 400])
    @pytest.mark.parametrize("width", [None, 16], ids=["1d", "2d"])
    def test_value_interpolator(self, spec, K, width):
        grid = build_grid(spec, K)
        rng = np.random.default_rng(K)
        x = oracle_points(grid, rng)
        values = rng.normal(size=(K,) if width is None else (K, width))
        if width:  # zero, negative zero and constant columns
            values[:, :3] = 0.0, -0.0, 3.5
        f, oracle = grid.value_interpolator(values), CubicSpline(grid.collocation_points, values)
        assert_bitwise(f.x, oracle.x)
        assert_bitwise(f.c, oracle.c)
        assert_bitwise(f(x), oracle(x))

    @pytest.mark.parametrize("K", [4, 5, 50, 400, 1600])
    @pytest.mark.parametrize("tail", [(), (3,), (3, 2)], ids=["K", "K-m", "K-m-p"])
    def test_gather_per_coefficient_is_the_gathered_block(self, K, tail):
        # each coefficient row is gathered as its term is added; the sum is
        # bit for bit the one of the (4, points, ...) block gathered at once
        grid = build_grid(TNORM, K)
        rng = np.random.default_rng(K)
        values = rng.normal(size=(K,) + tail)
        values[0], values[1] = 0.0, -0.0
        f = grid.value_interpolator(values)
        for w in (oracle_points(grid, rng), rng.uniform(190.0, 310.0, (7, 5))):
            i = np.clip(np.searchsorted(f.x, w, side="right") - 1, 0, f.x.size - 2)
            s = (w - f.x[i]).reshape(w.shape + (1,) * len(tail))
            c, z = f.c[:, i], s * s
            assert_bitwise(f(w), 0.0 + c[3] + c[2] * s + c[1] * z + c[0] * (z * s))

    def test_negative_zero_value_evaluates_to_positive_zero(self):
        # a cubic with value -0.0 and negative derivatives at a center: there
        # every term of the sum is -0.0, and the sum starts from +0.0
        grid = build_grid(UNIFORM, 8)
        u = (grid.collocation_points - grid.collocation_points[3]) / UNIFORM.width
        values = -(u + u**2 + u**3)
        assert np.signbit(values[3])
        at = grid.value_interpolator(values)(grid.collocation_points)
        assert_bitwise(at, CubicSpline(grid.collocation_points, values)(grid.collocation_points))
        assert at[3] == 0.0 and not np.signbit(at[3])


class TestNormalLaw:
    def test_cdf_matches_scipy(self):
        z = np.linspace(-10.0, 12.0, 4401)
        np.testing.assert_allclose(ndtr(z), scipy.special.ndtr(z), rtol=1e-14, atol=0)

    def test_quantile_matches_scipy(self):
        p = np.concatenate([np.logspace(-300, -1, 300), np.linspace(0.01, 0.49, 49),
                            np.linspace(0.51, 0.99, 49), 1.0 - np.logspace(-16, -1, 100)])
        np.testing.assert_allclose(ndtri(p), scipy.special.ndtri(p), rtol=1e-14, atol=0)
        assert ndtri(0.5) == 0.0
        np.testing.assert_array_equal(ndtri([0.0, 1.0, -0.5, 1.5]), [-np.inf, np.inf, -np.inf, np.inf])

    @pytest.mark.parametrize("spec", [
        # the quantile of the upper mass rounds four ulps below hi
        UncertaintySpec(dist="truncated_normal", lo=-50.0, hi=50.0, mean=0.0, std=50.0 / 3.0),
        # ndtr(9) rounds to one, so the quantile's argument reaches one at u = 1
        UncertaintySpec(dist="truncated_normal", lo=-1.0, hi=9.0, mean=0.0, std=1.0),
    ], ids=["centered", "one_sided"])
    def test_quantile_ends_are_the_support(self, spec):
        assert ndtr(9.0) == 1.0
        assert spec.ppf(0.0) == spec.lo and spec.ppf(1.0) == spec.hi
        np.testing.assert_array_equal(spec.ppf(np.array([0.0, 1.0])), [spec.lo, spec.hi])


class TestSampling:
    def test_uniform_midpoint(self):
        assert UNIFORM.ppf(0.5) == pytest.approx(250.0)

    def test_uniform_endpoint(self):
        spec = UncertaintySpec(dist="uniform", lo=0.0, hi=32.0)
        assert spec.ppf(1.0) == pytest.approx(32.0)

    def test_truncnormal_median(self):
        spec = UncertaintySpec(
            dist="truncated_normal", lo=-50.0, hi=50.0, mean=0.0, std=50.0 / 3.0
        )
        assert spec.ppf(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_out_of_range_draw(self):
        with pytest.raises(ValueError):
            UNIFORM.ppf(1.5)

    @pytest.mark.parametrize("spec", [UNIFORM, TNORM], ids=["uniform", "truncnormal"])
    def test_empirical_mean_matches_analytic(self, spec):
        rng = np.random.default_rng(11)
        n = 100_000
        samples = spec.ppf(rng.random(n))
        se = samples.std(ddof=1) / math.sqrt(n)
        assert abs(samples.mean() - spec.measure_mean()) <= 3 * se

    def test_values_stay_in_support(self):
        rng = np.random.default_rng(5)
        u = rng.random(1000)
        x = TNORM.ppf(u)
        assert np.all((x >= TNORM.lo) & (x <= TNORM.hi))

    def test_cdf_ppf_round_trip(self):
        u = np.linspace(0.01, 0.99, 23)
        np.testing.assert_allclose(TNORM.cdf(TNORM.ppf(u)), u, atol=1e-10)


SHIPPED = {
    name: configs.load(name).uncertain_nodes[0].uncertainty
    for name in ("single_pipe", "single_pipe_truncnormal")
}


def closed_form_cdf(spec, x):
    """mu([lo, x]), written from the definition of each measure."""
    x = np.clip(x, spec.lo, spec.hi)
    if spec.dist == "uniform":
        return (x - spec.lo) / (spec.hi - spec.lo)
    phi = lambda y: 0.5 * (1.0 + erf((y - spec.mean) / (spec.std * math.sqrt(2.0))))  # noqa: E731
    return (phi(x) - phi(spec.lo)) / (phi(spec.hi) - phi(spec.lo))


def edges_and_cdf(xs, ys):
    """Bin edges around equally spaced centers, and the CDF the bin masses give there."""
    h = xs[1] - xs[0]
    return np.append(xs - 0.5 * h, xs[-1] + 0.5 * h), np.append(0.0, np.cumsum(ys * h))


class TestValueDensity:
    @pytest.mark.parametrize("name", SHIPPED)
    @pytest.mark.parametrize("slope", [3.0, -0.5])
    def test_linear_values(self, name, slope):
        spec = SHIPPED[name]
        grid = build_grid(spec, 20)
        xs, ys = grid.value_density(slope * grid.collocation_points + 7.0)
        edges, F = edges_and_cdf(xs, ys)
        assert xs.size == 513 and np.all(np.diff(xs) > 0)
        assert abs(F[-1] - 1.0) <= 1e-12
        # f(omega) = slope * omega + 7 is increasing or decreasing in omega
        below = closed_form_cdf(spec, (edges - 7.0) / slope)
        np.testing.assert_allclose(F, below if slope > 0 else 1.0 - below, atol=1e-10)
        ends = np.sort(slope * np.array([spec.lo, spec.hi]) + 7.0)
        outside = (edges[1:] <= ends[0]) | (edges[:-1] >= ends[1])
        assert outside.sum() >= 8 and np.all(ys[outside] == 0.0)
        if spec.dist == "uniform":
            inner = (edges[:-1] >= ends[0]) & (edges[1:] <= ends[1])
            assert inner.sum() >= 500
            np.testing.assert_allclose(ys[inner], 1.0 / (ends[1] - ends[0]), rtol=1e-9)

    @pytest.mark.parametrize("name", SHIPPED)
    def test_quadratic_with_interior_minimum(self, name):
        spec, c = SHIPPED[name], 13.0  # not a cell center
        grid = build_grid(spec, 20)
        xs, ys = grid.value_density((grid.collocation_points - c) ** 2)
        edges, F = edges_and_cdf(xs, ys)
        # F(v) = mu{|omega - c| <= sqrt(v)}, zero for v < 0
        r = np.sqrt(np.maximum(edges, 0.0))
        expect = closed_form_cdf(spec, c + r) - closed_form_cdf(spec, c - r)
        np.testing.assert_allclose(F, expect, atol=1e-9)
        # the density is finite at the minimum, in the bin of largest mass
        assert np.all(np.isfinite(ys))
        at_min = int(np.argmax(np.diff(expect)))
        assert edges[at_min] <= 1e-9 < edges[at_min + 1]
        assert np.argmax(ys) == at_min
        h = xs[1] - xs[0]
        assert ys[at_min] == pytest.approx((expect[at_min + 1] - expect[at_min]) / h, rel=1e-6)
