"""Discretization of a 1-D uncertainty interval into stochastic finite volume cells.

A random withdrawal lives on a compact interval ``[lo, hi]`` with either a
uniform or a truncated normal measure.  The interval is split into ``K``
uniform cells; the physics is collocated at the cell centers, and a clamped
cubic B-spline basis (``K + 3`` functions, partition of unity) carries the
penalty expansion used by the chance constraint; two banded factors carry
cell values to its Greville points and one weight vector integrates values
there, all built once with the grid, in time and memory linear in ``K``.
All measure quantities (cell masses, basis integrals, means, quantiles, the
law of an interpolated quantity) are computed in closed form, by
Gauss-Legendre quadrature or by bisection on the monotone pieces of a cubic;
no sampling enters the construction.

The splines are evaluated here in numpy: a vectorized Cox-de Boor recurrence
for the B-spline bases, and the not-a-knot cell interpolant as power-form
pieces whose slopes come from one banded solve.  Both follow the arithmetic
of scipy's ``BSpline.design_matrix`` and ``CubicSpline`` operation for
operation and give the same bits; the tests hold them to scipy as an oracle.
A basis operator is a :class:`BandedRows`, at most four entries per row, and
the normal law comes from the standard library's ``erf``, ``erfc`` and
``NormalDist``, so that ``scipy.linalg`` is the only scipy subpackage loaded:
``scipy.sparse`` and ``scipy.special`` cost resident memory in every process,
and ``scipy.interpolate`` would also load ``scipy.optimize``, ``scipy.fft``
and ``scipy.spatial``.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

_SQRT2PI = math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)
_erf, _erfc = np.frompyfunc(math.erf, 1, 1), np.frompyfunc(math.erfc, 1, 1)
_inv_cdf = np.frompyfunc(statistics.NormalDist().inv_cdf, 1, 1)
# equal bins of ``value_density``, of which ``_PAD_BINS`` at each end lie
# outside the range of the interpolant and hold no mass
_DENSITY_BINS = 513
_PAD_BINS = 4


@dataclass(frozen=True)
class UncertaintySpec:
    """Distribution of a random withdrawal increment on [lo, hi] (kg/s).

    ``dist`` is ``"uniform"`` or ``"truncated_normal"``; the latter needs
    ``mean`` and ``std`` of the parent normal and has support exactly
    ``[lo, hi]``.  A zero-width interval (``lo == hi``) denotes a point mass
    and is accepted so that degenerate problems reduce to the deterministic
    case.
    """

    dist: str
    lo: float
    hi: float
    mean: float | None = None
    std: float | None = None

    def __post_init__(self):
        if self.dist not in ("uniform", "truncated_normal"):
            raise ValueError(f"unknown distribution {self.dist!r}")
        if not self.lo <= self.hi:
            raise ValueError(f"degenerate interval: lo={self.lo} > hi={self.hi}")
        if self.dist == "truncated_normal":
            if self.mean is None or self.std is None:
                raise ValueError("truncated_normal requires mean and std")
            if self.std <= 0:
                raise ValueError("truncated_normal requires std > 0")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def _z(self, x):
        return (np.asarray(x, dtype=float) - self.mean) / self.std

    @property
    def _norm_mass(self) -> float:
        # probability the parent normal assigns to [lo, hi]
        return float(ndtr(self._z(self.hi)) - ndtr(self._z(self.lo)))

    def cdf(self, x):
        """Cumulative distribution, clipped to the support."""
        x = np.clip(np.asarray(x, dtype=float), self.lo, self.hi)
        if self.width == 0.0:
            return np.where(x >= self.lo, 1.0, 0.0)
        if self.dist == "uniform":
            return (x - self.lo) / self.width
        return (ndtr(self._z(x)) - ndtr(self._z(self.lo))) / self._norm_mass

    def pdf(self, x):
        """Density on the support (zero outside)."""
        x = np.asarray(x, dtype=float)
        inside = (x >= self.lo) & (x <= self.hi)
        if self.width == 0.0:
            raise ValueError("point mass has no density")
        if self.dist == "uniform":
            return np.where(inside, 1.0 / self.width, 0.0)
        z = self._z(x)
        val = np.exp(-0.5 * z * z) / (self.std * _SQRT2PI * self._norm_mass)
        return np.where(inside, val, 0.0)

    def ppf(self, u):
        """Inverse CDF for u in [0, 1]."""
        u = np.asarray(u, dtype=float)
        if np.any((u < 0) | (u > 1)):
            raise ValueError("quantile argument must lie in [0, 1]")
        if self.width == 0.0:
            return np.full_like(u, self.lo)
        if self.dist == "uniform":
            return self.lo + u * self.width
        base = ndtr(self._z(self.lo))
        x = np.clip(self.mean + self.std * ndtri(base + u * self._norm_mass), self.lo, self.hi)
        # the ends of the support are exact, whatever the quantile's rounding
        return np.where(u == 0, self.lo, np.where(u == 1, self.hi, x))[()]

    def measure_mean(self) -> float:
        """Analytic mean of the measure."""
        if self.width == 0.0:
            return self.lo
        if self.dist == "uniform":
            return 0.5 * (self.lo + self.hi)
        za, zb = float(self._z(self.lo)), float(self._z(self.hi))
        phi_a = math.exp(-0.5 * za * za) / _SQRT2PI
        phi_b = math.exp(-0.5 * zb * zb) / _SQRT2PI
        return self.mean + self.std * (phi_a - phi_b) / self._norm_mass


def ndtr(z):
    """Standard normal CDF in the arithmetic of cephes' ``ndtr``: ``erf``
    near zero, ``erfc`` of the magnitude in the tails, reflected above."""
    x = np.asarray(z, dtype=float) * _SQRT_HALF
    tail = 0.5 * np.asarray(_erfc(np.abs(x)), dtype=float)
    return np.where(np.abs(x) < _SQRT_HALF, 0.5 + 0.5 * np.asarray(_erf(x), dtype=float),
                    np.where(x > 0, 1.0 - tail, tail))[()]


def ndtri(p):
    """Standard normal quantile: ``-inf`` at ``p <= 0`` and ``inf`` at ``p >= 1``."""
    p = np.asarray(p, dtype=float)
    inner = (p > 0) & (p < 1)
    x = np.asarray(_inv_cdf(np.where(inner, p, 0.5)), dtype=float)
    return np.where(inner, x, np.where(p <= 0, -np.inf, np.where(p >= 1, np.inf, np.nan)))[()]


def _gauss_legendre_panels(breaks: np.ndarray, n_points: int):
    """Gauss-Legendre nodes/weights on each interval of ``breaks``."""
    xg, wg = np.polynomial.legendre.leggauss(n_points)
    a = breaks[:-1][:, None]
    b = breaks[1:][:, None]
    nodes = 0.5 * (b - a) * xg[None, :] + 0.5 * (a + b)
    weights = 0.5 * (b - a) * wg[None, :]
    return nodes.ravel(), weights.ravel()


@dataclass(frozen=True)
class BandedRows:
    """An (n, n_cols) matrix whose row ``i`` holds ``vals[i]`` (w entries,
    zeros included) at the columns ``first[i] + 0 ... w - 1``.

    Its products sum in the order of scipy's CSR kernels and give their bits:
    ``@`` sums each row from zero in column order, and :meth:`rmatvec`
    accumulates the transposed product row by row.
    """

    first: np.ndarray
    vals: np.ndarray
    n_cols: int

    @property
    def shape(self) -> tuple[int, int]:
        return self.first.size, self.n_cols

    @property
    def cols(self) -> np.ndarray:
        """(n, w) column of each stored entry."""
        return self.first[:, None] + np.arange(self.vals.shape[1])

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros(self.first.size)
        for j in range(self.vals.shape[1]):
            out += self.vals[:, j] * x[self.first + j]
        return out

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        """The transposed product ``A^T @ v``."""
        return np.bincount(self.cols.ravel(), weights=(self.vals * v[:, None]).ravel(),
                           minlength=self.n_cols)

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[np.arange(self.first.size)[:, None], self.cols] += self.vals
        return out

    def solve(self, b: np.ndarray, transpose: bool = False) -> np.ndarray:
        """``A^-1 b``, or ``A^-T b``, for a square ``A``, by a banded LU."""
        rows, cols = np.broadcast_arrays(np.arange(self.first.size)[:, None], self.cols)
        if transpose:
            rows, cols = cols, rows
        lower, upper = int((rows - cols).max(initial=0)), int((cols - rows).max(initial=0))
        ab = np.zeros((lower + upper + 1, self.n_cols))
        ab[upper + rows - cols, cols] = self.vals
        return sla.solve_banded((lower, upper), ab, b, check_finite=False)


def _design_matrix(t: np.ndarray, x: np.ndarray) -> BandedRows:
    """Cubic B-spline basis on knots ``t`` at the points ``x``: four entries
    per row, zeros included, at the columns of ``BSpline.design_matrix``.

    The interval ``t[l] <= x < t[l + 1]`` is clipped to the base interval, so
    points outside it take the end polynomials.  The Cox-de Boor recurrence
    runs in the order of scipy's ``_deBoor_D``, which makes the values bit for
    bit scipy's.  Every knot span it divides by contains ``[t[l], t[l + 1]]``,
    which is never empty, so it needs no branch for a zero span.
    """
    ell = np.clip(np.searchsorted(t, x, side="right") - 1, 3, t.size - 5)
    h = np.zeros((x.size, 4))
    h[:, 0] = 1.0
    for j in range(1, 4):
        prev = h[:, :j].copy()
        h[:, 0] = 0.0
        for m in range(1, j + 1):
            right, left = t[ell + m], t[ell + m - j]
            w = prev[:, m - 1] / (right - left)
            h[:, m - 1] += w * (right - x)
            h[:, m] = w * (x - left)
    return BandedRows(ell - 3, h, t.size - 4)


def _not_a_knot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients (4, n - 1, ...) of the not-a-knot cubic through ``(x, y)``
    along the first axis of ``y``, for n >= 4 strictly increasing ``x``; piece
    ``i`` is ``sum_m c[m, i] (w - x[i])^(3 - m)``.

    The slopes at ``x`` solve the tridiagonal system of scipy's
    ``CubicSpline``, with its end rows and the same arithmetic, so the
    coefficients are bit for bit the same.
    """
    dx = np.diff(x)
    dxr = dx.reshape((-1,) + (1,) * (y.ndim - 1))
    slope = np.diff(y, axis=0) / dxr
    A = np.zeros((3, x.size))  # upper, main and lower diagonals
    A[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    A[0, 2:] = dx[:-1]
    A[-1, :-2] = dx[1:]
    A[1, 0], A[0, 1] = dx[1], x[2] - x[0]
    A[1, -1], A[-1, -2] = dx[-2], x[-1] - x[-3]
    b = np.empty(y.shape)
    b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    d = x[2] - x[0]
    b[0] = ((dxr[0] + 2 * d) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    b[-1] = (dxr[-1] ** 2 * slope[-2] + (2 * d + dxr[-1]) * dxr[-2] * slope[-1]) / d
    s = sla.solve_banded((1, 1), A, b.reshape(x.size, -1), overwrite_ab=True,
                         overwrite_b=True, check_finite=False).reshape(b.shape)
    # the cubic Hermite piece through the values and slopes at both ends
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    return np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1]))


@dataclass(frozen=True)
class PiecewiseCubic:
    """Cubic with breakpoints ``x`` (n,) and power-form coefficients ``c``
    (4, n - 1, ...) as :func:`_not_a_knot` returns them; the end pieces extend
    beyond ``[x[0], x[-1]]``.  Calling it at points ``w`` gives an array of
    shape ``w.shape + c.shape[2:]``.
    """

    x: np.ndarray
    c: np.ndarray

    def __call__(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        i = np.clip(np.searchsorted(self.x, w, side="right") - 1, 0, self.x.size - 2)
        s = (w - self.x[i]).reshape(w.shape + (1,) * (self.c.ndim - 2))
        # scipy's PPoly order: a sum from 0.0 over ascending powers of s,
        # each coefficient gathered when its term is added
        c, z = self.c, s * s
        return 0.0 + c[3, i] + c[2, i] * s + c[1, i] * z + c[0, i] * (z * s)


@dataclass(frozen=True)
class StochasticGrid:
    """Uniform SFV partition of an uncertainty interval with a spline basis.

    ``knots`` are the K+1 cell boundaries, ``collocation_points`` the K cell
    centers where the physics is solved, ``cell_mass`` the measure of each
    cell.  The cubic basis lives on the clamped knot vector over [lo, hi];
    ``greville`` are its K+3 canonical collocation points, and
    ``basis_integrals`` the measure integrals of each basis function.

    The not-a-knot cubic interpolant through the cell centers has K B-spline
    coefficients ``c``, with knots at the centers but the second and
    second-to-last: ``Dc`` (K, K) evaluates it at the centers and ``Dg``
    (n_basis, K) at the Greville points, the end pieces extended, each a
    :class:`BandedRows` of four entries per row (zeros included).  ``rho =
    B^-T @ basis_integrals``, with ``B`` the basis at the Greville points: the
    measure integral of the spline through values ``v`` there is ``rho @ v``.

    A degenerate grid (zero-width interval) carries a single constant basis
    function, takes ``c`` as the cell values (``Dc`` the identity, rows of one
    entry) and their mean as its one value (``Dg`` one row of K entries), so
    downstream assembly needs no special cases.
    """

    node_id: str
    spec: UncertaintySpec
    K: int
    knots: np.ndarray
    collocation_points: np.ndarray
    cell_mass: np.ndarray
    spline_knots: np.ndarray
    greville: np.ndarray
    basis_integrals: np.ndarray
    Dc: BandedRows
    Dg: BandedRows
    rho: np.ndarray

    @property
    def n_basis(self) -> int:
        return 1 if self.degenerate else self.K + 3

    @property
    def degenerate(self) -> bool:
        return self.spec.width == 0.0

    def basis_matrix(self, x) -> np.ndarray:
        """Dense matrix b_m(x_i) of the spline basis at the given points."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.degenerate:
            return np.ones((x.size, 1))
        return _design_matrix(self.spline_knots, x).toarray()

    def value_interpolator(self, values: np.ndarray):
        """Callable omega -> value: the not-a-knot cubic through the per-cell
        values (K, ...) along their first axis, a :class:`PiecewiseCubic` with
        the cell centers as breakpoints and the end pieces extended to the
        support; a degenerate grid gives their mean there."""
        values = np.asarray(values, dtype=float)
        if self.degenerate:
            mean = values.mean(axis=0)
            return lambda x: np.full(np.shape(x) + mean.shape, mean)
        return PiecewiseCubic(self.collocation_points, _not_a_knot(self.collocation_points, values))

    def value_density(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact density of ``f(omega)``, with ``f = value_interpolator(values)``
        and ``omega`` drawn from the measure; no sampling.

        Each power-form piece of ``f`` (read from ``f.x`` and ``f.c``, the end
        pieces extended to the support) is split at the roots of its
        derivative into monotone sub-pieces; on each, ``mu{f <= v}`` is a CDF
        difference at the preimage of ``v``, found by bisection.  Returns the
        centers of equal bins over the range of ``f``, with empty bins either
        side, and ``F`` differenced over each bin divided by its width, so the
        bin masses sum to one and the density is finite at stationary points.
        Needs a non-degenerate grid and values that are not all equal.
        """
        spline = self.value_interpolator(values)
        coef, origin = spline.c, spline.x[:-1]
        ends = np.concatenate([[self.spec.lo], spline.x[1:-1], [self.spec.hi]])
        # stationary points: roots of 3a t^2 + 2b t + c in the cancellation-free
        # form, which also yields the single root when a = 0
        a3, b2, c1 = 3.0 * coef[0], 2.0 * coef[1], coef[2]
        with np.errstate(divide="ignore", invalid="ignore"):
            q = -0.5 * (b2 + np.copysign(np.sqrt(b2 * b2 - 4.0 * a3 * c1), b2))
            roots = origin[:, None] + np.column_stack([q / a3, c1 / q])
        roots[~((roots > ends[:-1, None]) & (roots < ends[1:, None]))] = np.nan
        cuts = np.sort(np.column_stack([ends[:-1], roots, ends[1:]]), axis=1)  # NaN last
        keep = ~np.isnan(cuts[:, 1:])
        piece = np.nonzero(keep)[0]
        xa, xb = cuts[:, :-1][keep], cuts[:, 1:][keep]

        def f(p, x):
            t, c = x - origin[p], coef[:, p]
            return ((c[0] * t + c[1]) * t + c[2]) * t + c[3]

        fa, fb = f(piece, xa), f(piece, xb)
        up = fb >= fa
        v_lo, v_hi = np.minimum(fa, fb), np.maximum(fa, fb)
        v_min = v_lo.min()
        h = (v_hi.max() - v_min) / (_DENSITY_BINS - 2 * _PAD_BINS)
        edges = v_min + h * np.arange(-_PAD_BINS, _DENSITY_BINS - _PAD_BINS + 1)
        cdf_a, cdf_b = self.spec.cdf(xa), self.spec.cdf(xb)

        # a sub-piece wholly at or below an edge adds its whole mass there
        full = np.searchsorted(edges, v_hi, side="left")
        F = np.cumsum(np.bincount(full, weights=cdf_b - cdf_a, minlength=edges.size))
        # a sub-piece straddling an edge adds the mass up to its preimage
        first = np.searchsorted(edges, v_lo, side="right")
        count = np.maximum(full - first, 0)
        s = np.repeat(np.arange(piece.size), count)
        j = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count - first, count)
        v, p, rising = edges[j], piece[s], up[s]
        lo, hi = xa[s], xb[s]
        while True:
            mid = 0.5 * (lo + hi)
            if not np.any((lo < mid) & (mid < hi)):
                break
            right = (f(p, mid) < v) == rising
            lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
        at = self.spec.cdf(mid)
        F += np.bincount(j, weights=np.where(rising, at - cdf_a[s], cdf_b[s] - at),
                         minlength=edges.size)
        return 0.5 * (edges[:-1] + edges[1:]), np.diff(F) / h


def build_grid(spec: UncertaintySpec, K: int, node_id: str = "") -> StochasticGrid:
    """Partition [lo, hi] into K uniform cells and build the spline basis.

    Requires K >= 4 (the cubic interpolation through cell centers needs at
    least four points).  Cell masses come from closed-form CDF differences;
    basis integrals from Gauss-Legendre quadrature against the density;
    ``rho`` from one banded solve with the transposed basis at the Greville
    points.
    """
    if K < 4:
        raise ValueError(f"need at least 4 stochastic cells, got {K}")
    if spec.width == 0.0:
        point = float(spec.lo)
        return StochasticGrid(node_id, spec, K, np.full(K + 1, point), np.full(K, point),
                              np.full(K, 1.0 / K), np.full(8, point), np.array([point]),
                              np.array([1.0]), BandedRows(np.arange(K), np.ones((K, 1)), K),
                              BandedRows(np.zeros(1, dtype=int), np.full((1, K), 1.0 / K), K),
                              np.array([1.0]))
    knots = np.linspace(spec.lo, spec.hi, K + 1)
    centers = 0.5 * (knots[:-1] + knots[1:])
    if spec.dist == "uniform":
        mass = np.full(K, 1.0 / K)
    else:
        cdf = spec.cdf(knots)
        mass = np.diff(cdf)
    t = np.concatenate([[spec.lo] * 3, knots, [spec.hi] * 3])
    greville = np.array([t[i + 1 : i + 4].mean() for i in range(K + 3)])
    integrals = _basis_integrals(spec, knots, t, 8)
    rho = _design_matrix(t, greville).solve(integrals, transpose=True)
    tc = np.concatenate([[centers[0]] * 4, centers[2:-2], [centers[-1]] * 4])
    return StochasticGrid(node_id, spec, K, knots, centers, mass, t, greville, integrals,
                          _design_matrix(tc, centers), _design_matrix(tc, greville), rho)


def _basis_integrals(spec: UncertaintySpec, knots: np.ndarray, t: np.ndarray,
                     points_per_interval: int) -> np.ndarray:
    nodes, weights = _gauss_legendre_panels(knots, points_per_interval)
    return _design_matrix(t, nodes).rmatvec(weights * spec.pdf(nodes))


def measure_basis_integrals(grid: StochasticGrid, points_per_interval: int = 8) -> np.ndarray:
    """Integrals of each basis function against the measure.

    Gauss-Legendre quadrature per knot interval; the integrand is the basis
    value times the measure density, so the integrals are nonnegative and sum
    to one by the partition of unity.
    """
    if grid.degenerate:
        return np.array([1.0])
    return _basis_integrals(grid.spec, grid.knots, grid.spline_knots, points_per_interval)
