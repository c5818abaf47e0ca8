"""Embedded smooth NLP solver: min f(x) s.t. c(x) = 0 and box bounds.

A primal-dual interior-point method with a monotone barrier schedule
(mu -> mu/10 on progress), a filter line search with second-order
corrections, and an inertia-corrected symmetric-indefinite factorization of
the KKT system.

The barrier is ``mu * sum(w * log(s))`` over the bound slacks s, with one
weight w per variable (``NlpProblem.barrier_weights``).  A variable that is a
value on one cell of a quadrature takes the cell's weight, so the barrier is a
quadrature too and the iteration count does not grow with the cell count
(Weiser 2005; Ulbrich & Ulbrich 2009).  Complementarity is ``s z / w - mu``.

The KKT system is factored in bordered-block form (Zavala, Laird & Biegler
2008; Chiang, Petra & Zavala 2014).  ``NlpProblem.blocks`` labels every
variable and constraint row either with its diagonal block, called a cell
(label >= 0), or with the border, whose unknowns are either the band (label
<= -2, at position -2 - label) or the arrow (-1).  Each cell is factored by
LAPACK's Bunch-Kaufman ``dsytrf`` in place and eliminated into the Schur
complement of the border.  A cell's couplings are a dense panel over the few
border columns it touches, so the elimination is one batched product over
all cells.  The Schur complement is a block-tridiagonal band plus an arrow
(Golub & Van Loan, sec. 4.5): ``dsytrf`` factors each band block, which is
eliminated into the next block and into the arrow, and ``scipy.linalg.ldl``
factors only what is left of the arrow, so the border costs time linear in
its band.  The inertia is the sum of the cell, band-block and arrow
inertias (Haynsworth additivity), so inertia correction stays exact.  Cells
meet only through the border: a Hessian or Jacobian entry that links two
cells is rejected, so a problem writes any quantity that couples cells as a
border variable with its own defining row.  That row belongs to the border
when its cell's own rows already fix the cell's variables, because each cell
block must be regular.  A problem declares its Jacobian and Hessian structure
once (Ipopt's TNLP contract), so the KKT pattern is split before any callback
runs and each iteration only scatters values.  Without labels everything is
arrow, and the whole KKT matrix gets one dense factorization.  A
factorization that cannot be repaired (non-finite entries, or inertia
correction run past its cap) ends the solve with status ``NUMERICAL`` and a
diagnostic.

Returns equality and bound multipliers under the convention

    L = f + lambda_eq^T c - lambda_lo^T (x - lo) - lambda_hi^T (hi - x)

so at a solution ``grad f + J^T lambda_eq - lambda_lo + lambda_hi = 0`` with
``lambda_lo, lambda_hi >= 0``.  Every problem supplies the exact Hessian of
its Lagrangian; there is no quasi-Newton approximation.

Everything is deterministic: identical inputs and options produce identical
iterates and multipliers.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dsytrf, dsytrs, dtrtrs

log = logging.getLogger("gasflow.nlp")

# barrier schedule and line search (Waechter & Biegler 2006): the initial
# barrier parameter, the tolerance factor that triggers a barrier decrease,
# the floor of the fraction-to-boundary factor, the Armijo factor and the
# smallest step tried
MU0 = 0.1
KAPPA_EPS = 10.0
TAU_MIN = 0.99
ARMIJO = 1e-4
MIN_STEP = 1e-12
# filter constants; the filter is reset per barrier stage
G_THETA = 1e-5
G_PHI = 1e-5
S_THETA = 1.1
S_PHI = 2.3
FILTER_DELTA = 1.0
# fewest rows of a band block of the border's Schur complement
BAND_ROWS = 32


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    MAX_ITER = "max_iter"
    INFEASIBLE = "infeasible"
    NUMERICAL = "numerical"


class EvaluationError(RuntimeError):
    """NaN/Inf from a callback; ``index`` is the offending constraint row."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


@dataclass
class NlpProblem:
    """Smooth NLP data: callbacks plus box bounds (infinite where absent; a
    NaN bound is rejected, not read as absent).

    ``jac_structure`` and ``hess_structure`` are the fixed ``(rows, cols)``
    of the entries of the Jacobian (m x n) and of the Hessian (n x n, both
    triangles; it is symmetrized internally).  ``jacobian(x)`` and
    ``hessian(x, y, obj_factor)``, the exact Hessian of ``obj_factor * f +
    y @ c``, return their values in that order; repeated positions add up.

    ``blocks`` optionally labels the n variables and then the m constraint
    rows for the bordered-block KKT factorization: a label >= 0 names a cell,
    -1 the border's dense arrow, and a label <= -2 places the unknown in the
    border's band at position ``-2 - label`` (unknowns sharing a position
    follow in index order).  Cells must have equal sizes, and no Jacobian or
    Hessian entry may link two cells.  The band is factored in blocks of
    consecutive positions, each of at least ``BAND_ROWS`` rows (or the whole
    band) and at least as wide as the farthest reach of a Hessian or Jacobian
    entry between two band unknowns; a cell coupled to band unknowns in
    blocks that are not neighbours is rejected.  ``None`` factors the whole
    KKT matrix as one dense block.

    ``barrier_weights`` gives each variable a finite positive weight w on the
    log barrier of its bounds, ``mu * w * log(slack)``; ``None`` means ones.
    """

    n: int
    m: int
    objective: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    constraints: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    lower: np.ndarray
    upper: np.ndarray
    hessian: Callable[[np.ndarray, np.ndarray, float], np.ndarray]
    jac_structure: tuple[np.ndarray, np.ndarray]
    hess_structure: tuple[np.ndarray, np.ndarray]
    name: str = ""
    blocks: np.ndarray | None = None
    barrier_weights: np.ndarray | None = None

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if self.lower.shape != (self.n,) or self.upper.shape != (self.n,):
            raise ValueError("bounds must have shape (n,)")
        nan = np.isnan(self.lower) | np.isnan(self.upper)
        if nan.any():
            raise ValueError(f"bounds must not be NaN (variable {int(np.argmax(nan))})")
        if np.any(self.lower >= self.upper):
            bad = int(np.argmax(self.lower >= self.upper))
            raise ValueError(f"bounds must satisfy lo < hi elementwise (variable {bad})")
        if self.blocks is not None:
            self.blocks = np.asarray(self.blocks, dtype=np.intp)
            if self.blocks.shape != (self.n + self.m,):
                raise ValueError("blocks must hold n + m labels")
        if self.barrier_weights is not None:
            w = self.barrier_weights = _vector("barrier_weights", self.barrier_weights, self.n)
            bad = ~(np.isfinite(w) & (w > 0))
            if bad.any():
                k = int(np.argmax(bad))
                raise ValueError(f"barrier_weights must be finite and positive (variable {k}: {w[k]})")
        for field, shape in (("jac_structure", (self.m, self.n)), ("hess_structure", (self.n, self.n))):
            rows, cols = (np.asarray(a) for a in getattr(self, field))
            if rows.ndim != 1 or rows.shape != cols.shape or not {rows.dtype.kind, cols.dtype.kind} <= set("iu"):
                raise ValueError(f"{field}: rows and cols must be integer vectors of equal length; "
                                 f"got {rows.dtype} {rows.shape} and {cols.dtype} {cols.shape}")
            rows, cols = rows.astype(np.intp), cols.astype(np.intp)
            outside = (rows < 0) | (rows >= shape[0]) | (cols < 0) | (cols >= shape[1])
            if outside.any():
                k = int(np.argmax(outside))
                raise ValueError(f"{field}: entry {k} at ({rows[k]}, {cols[k]}) lies outside "
                                 f"{shape[0]} x {shape[1]}")
            setattr(self, field, (rows, cols))


@dataclass
class NlpOptions:
    """Convergence tolerance on the scaled KKT error and the iteration cap."""

    tol: float = 1e-8
    max_iter: int = 500


@dataclass
class NlpSolution:
    x: np.ndarray
    lambda_eq: np.ndarray
    lambda_lo: np.ndarray
    lambda_hi: np.ndarray
    status: SolveStatus
    kkt_residuals: dict[str, float]
    iterations: int
    objective: float
    mu: float
    diagnostic: str = ""  # why a NUMERICAL solve stopped

    @property
    def optimal(self) -> bool:
        return self.status is SolveStatus.OPTIMAL


def _vector(name: str, values, size: int) -> np.ndarray:
    """``values`` as a float vector; ``ValueError`` unless it has ``size`` entries."""
    values = np.asarray(values, dtype=float)
    if values.shape != (size,):
        given = values.shape[0] if values.ndim == 1 else f"shape {values.shape}"
        raise ValueError(f"{name}: expected {size} entries, got {given}")
    return values


class _Entries:
    """The distinct positions (``rows``, ``cols``, row-major) of a declared
    structure in a matrix ``width`` wide, and the ``slot`` of each entry."""

    def __init__(self, name: str, structure, width: int):
        keys, self.slot = np.unique(structure[0] * width + structure[1], return_inverse=True)
        self.rows, self.cols = keys // width, keys % width
        self.name, self.width = name, width

    def sum(self, values) -> np.ndarray:
        """The callback's ``values`` summed per distinct position."""
        return np.bincount(self.slot, _vector(self.name, values, self.slot.size), minlength=self.rows.size)

    def rmatvec(self, summed: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``M^T y`` for the matrix ``M`` of the ``summed`` values."""
        return np.bincount(self.cols, summed * y[self.rows], minlength=self.width)


class _Breakdown(ArithmeticError):
    """The KKT matrix cannot be factored: it holds non-finite entries."""


class _BorderedKkt:
    """Bordered-block form of the KKT matrix ``[[H + diag(sx), J^T], [J, diag(sy)]]``.

    ``blocks`` labels each unknown (the n variables, then the m constraint
    rows) with its cell (>= 0), the arrow (-1) or the band (<= -2); ``None``
    puts everything in the arrow.  All cells must have the same size.  One
    rule fixes the structure: an entry may link a cell only to itself or to
    the border.  A Jacobian or Hessian entry between two cells raises
    ``ValueError``.  Cell k's couplings form a dense (t, size) panel whose row
    j is border column ``cols[k, j]``; t is the most border columns any cell
    touches, and a cell touching fewer has zero rows.

    The border is ordered band first, by position ``-2 - label`` (ties in
    index order), then the arrow.  The band is cut into blocks of ``block``
    rows: at least ``BAND_ROWS`` (or the whole band, when it is shorter) and
    at least the farthest reach of a Hessian or Jacobian entry between two
    band unknowns, so the entries the problem writes make the band block
    tridiagonal.  A cell whose couplings reach two band unknowns in blocks
    that are not neighbours would fill the band outside that envelope, and
    raises ``ValueError``.  The last block is padded with unit diagonal rows.
    """

    def __init__(self, blocks, n: int, m: int, hess_structure, jac_structure):
        labels = np.full(n + m, -1, dtype=np.intp) if blocks is None else np.asarray(blocks)
        in_cell = np.flatnonzero(labels >= 0)
        n_cells = int(labels.max()) + 1 if in_cell.size else 0
        sizes = np.bincount(labels[in_cell], minlength=n_cells)
        if n_cells and sizes.min() != sizes.max():
            raise ValueError(f"cell blocks must have equal sizes; found {sorted(set(sizes.tolist()))}")
        size = int(sizes[0]) if n_cells else 0
        self.n, self.m = n, m
        self.cells = in_cell[np.argsort(labels[in_cell], kind="stable")].reshape(n_cells, size)
        band = np.flatnonzero(labels <= -2)
        self.band = band.size
        self.border = np.concatenate([band[np.argsort(-labels[band], kind="stable")],
                                      np.flatnonzero(labels == -1)])
        self.local = np.empty(n + m, dtype=np.intp)
        self.local[self.cells.ravel()] = np.tile(np.arange(size), n_cells)
        self.local[self.border] = np.arange(self.border.size)
        # the KKT pattern of the declared structures, classified once
        self.hess = _Entries("hessian", hess_structure, n)
        self.jac = _Entries("jacobian", jac_structure, n)
        N = n + m
        hr, hc = self.hess.rows, self.hess.cols
        jr, jc = n + self.jac.rows, self.jac.cols
        keys = [hr * N + hc, hc * N + hr, jr * N + jc, jc * N + jr]
        keys, self._slot = np.unique(np.concatenate(keys), return_inverse=True)
        r, c = self._r, self._c = keys // N, keys % N
        bi, bj = labels[r], labels[c]
        li, lj = self.local[r], self.local[c]
        cross = np.flatnonzero((bi >= 0) & (bj >= 0) & (bi != bj))
        if cross.size:
            k = cross[np.argmax(r[cross] >= n)]  # a constraint row first
            if r[k] >= n:
                raise ValueError(
                    f"constraint row {r[k] - n} (cell {bi[k]}) has an entry in variable "
                    f"{c[k]} of cell {bj[k]}; a row may touch only its own cell and the border"
                )
            raise ValueError(
                f"Hessian entry ({r[k]}, {c[k]}) links variable {r[k]} of cell {bi[k]} and "
                f"variable {c[k]} of cell {bj[k]}; cells may meet only through the border"
            )

        width, nband = self.border.size, self.band
        same = np.flatnonzero((bi == bj) & (bi >= 0))
        self._a_of, self._a_at = same, (bi[same] * size + li[same]) * size + lj[same]
        # couplings (cell, local row, border column) go to the panels; a
        # cell's border columns are ranked in ascending order
        self._edge = np.flatnonzero((bi >= 0) & (bj < 0))
        cell, row, col = bi[self._edge], li[self._edge], lj[self._edge]
        pairs, pair_of = np.unique(cell * width + col, return_inverse=True)
        first = np.searchsorted(pairs, np.arange(n_cells + 1) * width)
        count = np.diff(first)
        rank = np.arange(pairs.size) - np.repeat(first[:-1], count)
        t = int(count.max(initial=0))
        self.cols = np.zeros((n_cells, t), dtype=np.intp)
        self.cols[pairs // width, rank] = pairs % width
        self._b_at = (cell * t + rank[pair_of]) * size + row

        # band blocks of at least BAND_ROWS rows (or the whole band) that span
        # every band entry of H and J, evenly sized to keep the padding short;
        # then the panels and the arrow
        both = np.flatnonzero((bi < 0) & (bj < 0))
        li, lj = li[both], lj[both]
        reach = np.abs(li - lj)[(li < nband) & (lj < nband)].max(initial=0)
        b = self.block = -(-nband // max(1, nband // max(BAND_ROWS, reach))) if nband else 1
        p = -(-nband // b)
        self._p_at = p * b * b
        self._r_at = self._p_at + p * (b + width - nband) * b
        self._s_size = self._r_at + (width - nband) ** 2
        at = self._home(li, lj)
        self._s_of, self._s_at = both[at >= 0], at[at >= 0]
        self.diag_at = self._home(np.arange(width), np.arange(width))
        pad = np.arange(nband, p * b)
        self.pad_at = pad * b + pad % b

        # each cell's (t, t) Schur block goes to its homes; padding rows and
        # the transposed halves go to one slot past the end
        real = np.arange(t) < count[:, None]
        real = real[:, :, None] & real[:, None, :]
        i, j = self.cols[:, :, None], self.cols[:, None, :]
        far = np.argwhere(real & (i < nband) & (j < nband) & (np.abs(i // b - j // b) > 1))
        if far.size:
            k, a, c = far[0]
            u, w = (f"variable {x}" if x < n else f"constraint row {x - n}"
                    for x in self.border[self.cols[k, [a, c]]])
            raise ValueError(
                f"cell {k} couples {u} and {w}, band unknowns "
                f"{abs(self.cols[k, a] - self.cols[k, c])} positions apart; the band's blocks "
                f"of {b} rows meet only their neighbours"
            )
        at = self._home(i, j)
        self.schur_at = np.where(real & (at >= 0), at, self._s_size).ravel()

    def system(self, H, J) -> "_KktSystem":
        """Scatter the KKT matrix of Hessian ``H`` (symmetrized here) and
        Jacobian ``J``, summed by ``self.hess.sum`` and ``self.jac.sum``, into
        cell blocks, cell-border couplings and the border."""
        v = np.bincount(self._slot, np.concatenate([0.5 * H, 0.5 * H, J, J]), minlength=self._r.size)
        if not np.all(np.isfinite(v)):
            k = int(np.flatnonzero(~np.isfinite(v))[0])
            raise _Breakdown(f"KKT entry ({self._r[k]}, {self._c[k]}) is not finite")
        n_cells, size = self.cells.shape
        A = np.zeros((n_cells, size, size))
        A.flat[self._a_at] = v[self._a_of]
        S = np.zeros(self._s_size)
        S[self._s_at] = v[self._s_of]
        S[self.pad_at] = 1.0
        B = np.zeros(self.cols.shape + (size,))
        B.flat[self._b_at] = v[self._edge]
        return _KktSystem(self, A, B, S)

    def border_blocks(self, S: np.ndarray):
        """Views of the flat border storage ``S``: the band's diagonal blocks
        (p, block, block), each block's panel (p, block + arrow, block) whose
        first ``block`` rows are the next block's and whose other rows are
        the arrow's, and the arrow (arrow, arrow)."""
        b, na = self.block, self.border.size - self.band
        p = self._p_at // (b * b)
        return (S[: self._p_at].reshape(p, b, b),
                S[self._p_at : self._r_at].reshape(p, b + na, b),
                S[self._r_at :].reshape(na, na))

    def _home(self, i, j):
        """Flat position in the border storage of border entry (i, j), local
        indices; -1 where the entry is kept only as its transpose."""
        nband, b, na = self.band, self.block, self.border.size - self.band
        qi, qj = i // b, j // b
        home = np.full(np.broadcast(i, j).shape, -1, dtype=np.intp)
        in_band = (i < nband) & (j < nband)
        for keep, at in (
            (in_band & (qi == qj), i * b + j % b),
            (in_band & (qi == qj + 1), self._p_at + (qj * (b + na) + i % b) * b + j % b),
            ((i >= nband) & (j < nband), self._p_at + (qj * (b + na) + b + i - nband) * b + j % b),
            ((i >= nband) & (j >= nband), self._r_at + (i - nband) * na + j - nband),
        ):
            home = np.where(keep, at, home)
        return home

@dataclass
class _KktSystem:
    kkt: _BorderedKkt
    A: np.ndarray  # (cells, size, size) diagonal blocks, exactly symmetric
    B: np.ndarray  # (cells, t, size) panels; row j of cell k is border column kkt.cols[k, j]
    S: np.ndarray  # the border's entries, flat; kkt.border_blocks gives the band and the arrow


def _pivot_inertia(d1: np.ndarray, n2: int) -> tuple[int, int, int]:
    """Inertia of a Bunch-Kaufman D from its 1x1 pivots ``d1`` and its count
    of 2x2 pivots, which that pivoting always picks indefinite."""
    pos = int(np.count_nonzero(d1 > 0))
    neg = int(np.count_nonzero(d1 < 0))
    return pos + n2, neg + n2, d1.size - pos - neg


def _blocks_inertia(lu: np.ndarray, piv: np.ndarray) -> tuple[int, int, int]:
    """Inertia of (k, s, s) blocks factored in place by ``dsytrf``."""
    diag = np.arange(lu.shape[1])
    one = piv > 0  # LAPACK marks both rows of a 2x2 pivot negative
    return _pivot_inertia(lu[:, diag, diag][one], int(np.count_nonzero(~one)) // 2)


class _BorderedFactor:
    """Bunch-Kaufman factors of every cell (LAPACK ``dsytrf``) and of the
    border's Schur complement, which is a block-tridiagonal band plus a small
    arrow (Golub & Van Loan, sec. 4.5): ``dsytrf`` factors each band block
    and the block is eliminated into the next block and into the arrow, whose
    remaining complement ``scipy.linalg.ldl`` factors.  The inertia is the sum
    of theirs (Haynsworth).  When a cell or a band block has a zero pivot the
    rest is left unfactored and the zero is reported.  ``shift`` (length
    n + m) is added to the diagonal.

    A cell block is symmetric, so its transpose is a Fortran-ordered view
    that ``dsytrf`` factors in place; ``dsytrs`` solves in place on the
    Fortran views of the panels ``X = B A^-1`` and of the right-hand sides.
    A band block and its panel ``Y`` to the next block and the arrow are
    treated the same way."""

    def __init__(self, system: _KktSystem, shift: np.ndarray):
        kkt = system.kkt
        n_cells, size = kkt.cells.shape
        self.system = system
        diag = np.arange(size)
        self.lu = system.A.copy()
        self.lu[:, diag, diag] += shift[kkt.cells]
        self.piv = np.empty((n_cells, size), dtype=np.int32)
        for k in range(n_cells):
            self.piv[k] = dsytrf(self.lu[k].T, lower=1, overwrite_a=1)[1]
        cells = _blocks_inertia(self.lu, self.piv)
        if cells[2]:
            self.inertia = cells
            return

        S = system.S.copy()
        S[kkt.diag_at] += shift[kkt.border]
        self.X = system.B.copy()
        for k in range(n_cells):
            dsytrs(self.lu[k].T, self.piv[k], self.X[k].T, lower=1, overwrite_b=1)
        # each cell's (t, t) block B X^T goes to its border columns
        S -= np.bincount(kkt.schur_at, (system.B @ self.X.transpose(0, 2, 1)).ravel(),
                         minlength=S.size + 1)[:-1]
        # the band, block by block: factor it, solve its panel and update the
        # next block and the next panel's arrow rows
        self.band_lu, P, R = kkt.border_blocks(S)
        b, p = kkt.block, self.band_lu.shape[0]
        self.band_piv = np.empty((p, b), dtype=np.int32)
        self.Y = np.empty_like(P)
        for q in range(p):
            self.band_piv[q], info = dsytrf(self.band_lu[q].T, lower=1, overwrite_a=1)[1:]
            if info:  # an exactly zero pivot
                band = _blocks_inertia(self.band_lu[: q + 1], self.band_piv[: q + 1])
                self.inertia = (cells[0] + band[0], cells[1] + band[1], band[2])
                return
            self.Y[q] = P[q]
            dsytrs(self.band_lu[q].T, self.band_piv[q], self.Y[q].T, lower=1, overwrite_b=1)
            if q + 1 < p:
                update = self.Y[q] @ P[q, :b].T
                self.band_lu[q + 1] -= update[:b]
                P[q + 1, b:] -= update[b:]
        band = _blocks_inertia(self.band_lu, self.band_piv)
        band = (band[0] - kkt.pad_at.size, band[1], band[2])  # a padding row is a pivot of 1
        R -= np.tensordot(self.Y[:, b:], P[:, b:], axes=([0, 2], [0, 2]))
        lu, D, self.perm = sla.ldl(R, lower=True, overwrite_a=True, check_finite=False)
        self.L = np.asfortranarray(lu[self.perm])
        self.first = np.flatnonzero(np.diag(D, -1))  # 2x2 pivots at (i, i + 1)
        self.single = np.ones(R.shape[0], dtype=bool)
        self.single[self.first] = self.single[self.first + 1] = False
        i, j = self.first, self.first + 1
        self.d1 = np.diag(D)[self.single]
        self.d2 = (D[i, i], D[j, i], D[j, j])
        arrow = _pivot_inertia(self.d1, self.first.size)
        self.inertia = tuple(sum(parts) for parts in zip(cells, band, arrow))

    def _border_solve(self, b: np.ndarray) -> np.ndarray:
        if not b.size:
            return b
        w = dtrtrs(self.L, b[self.perm], lower=1, unitdiag=1)[0]
        v = np.empty_like(w)
        v[self.single] = w[self.single] / self.d1
        i, j = self.first, self.first + 1
        a, off, c = self.d2
        det = a * c - off * off
        v[i] = (c * w[i] - off * w[j]) / det
        v[j] = (a * w[j] - off * w[i]) / det
        u = dtrtrs(self.L, v, lower=1, trans=1, unitdiag=1)[0]
        out = np.empty_like(u)
        out[self.perm] = u
        return out

    def _band_solve(self, r: np.ndarray) -> np.ndarray:
        """Solve with the border's Schur complement: forward through the band
        blocks, then the arrow, then back through the band."""
        kkt = self.system.kkt
        b, nband = kkt.block, kkt.band
        w = np.zeros(self.band_lu.shape[:2])
        w.reshape(-1)[:nband] = r[:nband]
        rest = r[nband:].copy()
        for q in range(w.shape[0]):
            update = self.Y[q] @ w[q]
            if q + 1 < w.shape[0]:
                w[q + 1] -= update[:b]
            rest -= update[b:]
            dsytrs(self.band_lu[q].T, self.band_piv[q], w[q][:, None], lower=1, overwrite_b=1)
        z = self._border_solve(rest)
        w -= self.Y[:, b:].transpose(0, 2, 1) @ z
        for q in range(w.shape[0] - 2, -1, -1):
            w[q] -= w[q + 1] @ self.Y[q, :b]
        return np.concatenate([w.reshape(-1)[:nband], z])

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        kkt = self.system.kkt
        y = rhs[kkt.cells]
        for k in range(y.shape[0]):
            dsytrs(self.lu[k].T, self.piv[k], y[k][:, None], lower=1, overwrite_b=1)
        coupled = np.bincount(kkt.cols.ravel(), (self.system.B @ y[:, :, None]).ravel(),
                              minlength=kkt.border.size)
        z = self._band_solve(rhs[kkt.border] - coupled)
        out = np.empty(rhs.size)
        out[kkt.border] = z
        out[kkt.cells] = y - (z[kkt.cols][:, None, :] @ self.X)[:, 0]
        return out


def _least_squares_multipliers(kkt: _BorderedKkt, J: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Multipliers minimizing ``|rhs - J^T y|`` from one solve of
    ``[[I, J^T], [J, 0]] [w; y] = [rhs; 0]`` (Waechter & Biegler 2006, sec. 3.6).
    Zero when J is rank deficient or the estimate exceeds 1e3."""
    n, m = kkt.n, kkt.m
    try:
        factor = _BorderedFactor(
            kkt.system(np.zeros(kkt.hess.rows.size), J), np.concatenate([np.ones(n), np.zeros(m)])
        )
    except _Breakdown:
        return np.zeros(m)
    if factor.inertia != (n, m, 0):
        return np.zeros(m)
    y = factor.solve(np.concatenate([rhs, np.zeros(m)]))[n:]
    return y if np.abs(y).max() <= 1e3 else np.zeros(m)


def _project_interior(x, lo, hi, kappa=1e-2):
    """Push a start point strictly inside its bounds (Ipopt kappa_1 = 1e-2;
    warm starts use a much smaller push to preserve the active set)."""
    x = x.copy()
    both = np.isfinite(lo) & np.isfinite(hi)
    lo_only = np.isfinite(lo) & ~np.isfinite(hi)
    hi_only = np.isfinite(hi) & ~np.isfinite(lo)
    lo_b, hi_b = lo[both], hi[both]
    pl = np.minimum(kappa * np.maximum(1.0, np.abs(lo_b)), kappa * (hi_b - lo_b))
    pu = np.minimum(kappa * np.maximum(1.0, np.abs(hi_b)), kappa * (hi_b - lo_b))
    x[both] = np.clip(x[both], lo_b + pl, hi_b - pu)
    lo_o, hi_o = lo[lo_only], hi[hi_only]
    x[lo_only] = np.maximum(x[lo_only], lo_o + kappa * np.maximum(1.0, np.abs(lo_o)))
    x[hi_only] = np.minimum(x[hi_only], hi_o - kappa * np.maximum(1.0, np.abs(hi_o)))
    return x


class _Iterate:
    """Mutable solver state over (x, y, z_lo, z_hi)."""

    def __init__(self, problem: NlpProblem, x0: np.ndarray, mu0: float, push: float = 1e-2):
        self.p = problem
        self.has_lo = np.isfinite(problem.lower)
        self.has_hi = np.isfinite(problem.upper)
        self.w = np.ones(problem.n) if problem.barrier_weights is None else problem.barrier_weights
        self.x = _project_interior(_vector("x0", x0, problem.n), problem.lower, problem.upper, kappa=push)
        self.y = np.zeros(problem.m)
        sl_lo, sl_hi = self.slacks()
        self.z_lo = np.where(self.has_lo, np.clip(mu0 * self.w / sl_lo, 1e-8, 1e8), 0.0)
        self.z_hi = np.where(self.has_hi, np.clip(mu0 * self.w / sl_hi, 1e-8, 1e8), 0.0)

    def slacks(self):
        sl_lo = np.where(self.has_lo, self.x - self.p.lower, 1.0)
        sl_hi = np.where(self.has_hi, self.p.upper - self.x, 1.0)
        return sl_lo, sl_hi

    def barrier(self, x: np.ndarray, f: float, mu: float) -> float:
        sl_lo = (x - self.p.lower)[self.has_lo]
        sl_hi = (self.p.upper - x)[self.has_hi]
        if np.any(sl_lo <= 0) or np.any(sl_hi <= 0):
            return np.inf
        return f - mu * ((self.w[self.has_lo] * np.log(sl_lo)).sum()
                         + (self.w[self.has_hi] * np.log(sl_hi)).sum())


def _kkt_error(it: _Iterate, g, c, jty, mu):
    """Scaled KKT error of the iterate in the style of Ipopt's E_mu; ``jty``
    is ``J^T y``.  Complementarity is judged per unit barrier weight."""
    problem, y, z_lo, z_hi, has_lo, has_hi = it.p, it.y, it.z_lo, it.z_hi, it.has_lo, it.has_hi
    n_b = int(has_lo.sum() + has_hi.sum())
    s_max = 100.0
    mult_sum = np.abs(y).sum() + z_lo[has_lo].sum() + z_hi[has_hi].sum()
    denom = max(1, problem.m + n_b)
    s_d = max(s_max, mult_sum / denom) / s_max
    s_c = max(s_max, (z_lo[has_lo].sum() + z_hi[has_hi].sum()) / max(1, n_b)) / s_max
    r_stat = g + jty - z_lo + z_hi
    stat = np.abs(r_stat).max() / s_d if problem.n else 0.0
    feas = np.abs(c).max() if problem.m else 0.0
    comp = 0.0
    if n_b:
        sl_lo, sl_hi = it.slacks()
        comp_lo = np.abs(sl_lo * z_lo / it.w - mu)[has_lo]
        comp_hi = np.abs(sl_hi * z_hi / it.w - mu)[has_hi]
        parts = [p.max() for p in (comp_lo, comp_hi) if p.size]
        comp = max(parts) / s_c if parts else 0.0
    return max(stat, feas, comp), float(stat), float(feas), float(comp)


def solve(
    problem: NlpProblem,
    x0: np.ndarray,
    options: NlpOptions | None = None,
    duals0: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> NlpSolution:
    """Solve the NLP from ``x0`` (projected strictly inside the bounds).

    ``duals0`` optionally warm starts the multipliers as
    ``(lambda_eq, lambda_lo, lambda_hi)``; near-optimal starts then converge
    in a handful of iterations because the barrier starts near its floor.

    Returns an :class:`NlpSolution`; status ``OPTIMAL`` guarantees the scaled
    KKT residuals are below ``options.tol`` with correctly signed bound
    multipliers.  ``MAX_ITER`` returns the best iterate found;
    ``INFEASIBLE`` indicates the equality residual stalled well above
    tolerance; ``NUMERICAL`` means the KKT matrix could not be factored with
    the right inertia, and ``NlpSolution.diagnostic`` says why.
    """
    opts = options or NlpOptions()
    n, m = problem.n, problem.m
    kkt = _BorderedKkt(problem.blocks, n, m, problem.hess_structure, problem.jac_structure)
    it = _Iterate(problem, x0, MU0, push=1e-9 if duals0 is not None else 1e-2)
    has_lo, has_hi, w = it.has_lo, it.has_hi, it.w
    if duals0 is not None:
        y0, zl0, zh0 = (_vector(f"duals0[{i}]", d, k) for i, (d, k) in enumerate(zip(duals0, (m, n, n))))
        it.y = y0.copy()
        it.z_lo = np.where(has_lo, np.clip(zl0, 1e-12, 1e12), 0.0)
        it.z_hi = np.where(has_hi, np.clip(zh0, 1e-12, 1e12), 0.0)

    f = float(problem.objective(it.x))
    c = _vector("constraints", problem.constraints(it.x), m)
    if not np.isfinite(f):
        raise EvaluationError("objective is not finite at the start point")
    if m and not np.all(np.isfinite(c)):
        idx = int(np.flatnonzero(~np.isfinite(c))[0])
        raise EvaluationError(f"constraint {idx} is not finite at the start point", index=idx)
    g = _vector("gradient", problem.gradient(it.x), n)
    J = kkt.jac.sum(problem.jacobian(it.x))

    if m and duals0 is None:
        it.y = _least_squares_multipliers(kkt, J, -(g - it.z_lo + it.z_hi))

    e0, *_ = _kkt_error(it, g, c, kkt.jac.rmatvec(J, it.y), 0.0)
    mu = min(MU0, max(opts.tol / 11.0, e0 / 10.0))
    tau = max(TAU_MIN, 1.0 - mu)

    theta_init = float(np.abs(c).sum()) if m else 0.0
    theta_cap = 1e4 * max(1.0, theta_init)
    theta_floor = 1e-4 * max(1.0, theta_init)
    filter_entries: list[tuple[float, float]] = []

    delta_w_last = 0.0
    consecutive_failures = 0
    best = None
    status = SolveStatus.MAX_ITER
    iteration = 0
    diagnostic = ""
    step_note = ""  # the previous iteration's step, for the debug log
    debug = log.isEnabledFor(logging.DEBUG)

    for iteration in range(1, opts.max_iter + 1):
        jty = kkt.jac.rmatvec(J, it.y)
        e_scaled, stat, feas, comp = _kkt_error(it, g, c, jty, 0.0)
        if best is None or e_scaled < best[0]:
            best = (e_scaled, it.x.copy(), it.y.copy(), it.z_lo.copy(), it.z_hi.copy(), f)
        if debug:
            log.debug(
                "iter %3d  f=% .8e  stat=%.2e  feas=%.2e  comp=%.2e  mu=%.1e  %s",
                iteration - 1, f, stat, feas, comp, mu, step_note,
            )
            step_note = ""
        if e_scaled <= opts.tol:
            status = SolveStatus.OPTIMAL
            break

        e_mu, *_ = _kkt_error(it, g, c, jty, mu)
        while e_mu <= KAPPA_EPS * mu and mu > opts.tol / 11.0:
            mu = max(opts.tol / 11.0, mu / 10.0)
            tau = max(TAU_MIN, 1.0 - mu)
            filter_entries.clear()
            e_mu, *_ = _kkt_error(it, g, c, jty, mu)

        sl_lo, sl_hi = it.slacks()
        sigma = np.where(has_lo, it.z_lo / sl_lo, 0.0) + np.where(has_hi, it.z_hi / sl_hi, 0.0)
        grad_phi = g - np.where(has_lo, mu * w / sl_lo, 0.0) + np.where(has_hi, mu * w / sl_hi, 0.0)

        H = kkt.hess.sum(problem.hessian(it.x, it.y, 1.0))

        rhs = np.concatenate([-(grad_phi + jty), -c])

        # inertia-corrected factorization
        delta_w = 0.0
        delta_c = 0.0
        try:
            system = kkt.system(H, J)
        except _Breakdown as exc:
            status = SolveStatus.NUMERICAL
            diagnostic = f"KKT factorization failed at iteration {iteration}: {exc}"
            break
        while True:
            factor = _BorderedFactor(system, np.concatenate([sigma + delta_w, np.full(m, -delta_c)]))
            if factor.inertia == (n, m, 0):
                break
            if factor.inertia[2] > 0 and delta_c == 0.0:
                delta_c = 1e-8 * max(mu, 1e-8) ** 0.25
            if delta_w == 0.0:
                delta_w = 1e-4 if delta_w_last == 0.0 else max(1e-20, delta_w_last / 3.0)
            else:
                delta_w *= 8.0 if delta_w_last != 0.0 else 100.0
            if delta_w > 1e40:
                break
        if factor.inertia != (n, m, 0):
            status = SolveStatus.NUMERICAL
            diagnostic = (
                f"inertia correction failed at iteration {iteration}: delta_w reached "
                f"{delta_w:.1e} with inertia (pos, neg, zero) = {factor.inertia}, "
                f"want {(n, m, 0)}"
            )
            break
        delta_w_last = delta_w if delta_w > 0 else delta_w_last

        step = factor.solve(rhs)
        dx, dy = step[:n], step[n:]

        # fraction-to-boundary step limits
        def ftb_primal(d):
            alpha = 1.0
            neg_lo = has_lo & (d < 0)
            if np.any(neg_lo):
                alpha = min(alpha, float(np.min(-tau * sl_lo[neg_lo] / d[neg_lo])))
            pos_hi = has_hi & (d > 0)
            if np.any(pos_hi):
                alpha = min(alpha, float(np.min(tau * sl_hi[pos_hi] / d[pos_hi])))
            return alpha

        alpha_max = ftb_primal(dx)

        # filter line search with second-order corrections
        theta_k = float(np.abs(c).sum()) if m else 0.0
        phi_k = it.barrier(it.x, f, mu)
        dphi = float(grad_phi @ dx)

        def trial_values(x_try):
            f_try = float(problem.objective(x_try))
            c_try = _vector("constraints", problem.constraints(x_try), m)
            if not np.isfinite(f_try) or (m and not np.all(np.isfinite(c_try))):
                return np.inf, np.inf, f_try, c_try
            theta_t = float(np.abs(c_try).sum()) if m else 0.0
            phi_t = it.barrier(x_try, f_try, mu)
            return theta_t, phi_t, f_try, c_try

        def filter_ok(theta_t, phi_t):
            if theta_t > theta_cap:
                return False
            for th_j, ph_j in filter_entries:
                if not (theta_t <= (1 - G_THETA) * th_j or phi_t <= ph_j - G_PHI * th_j):
                    return False
            return True

        def acceptable(alpha_t, theta_t, phi_t):
            """Filter acceptance: f-type Armijo near feasibility, h-type else."""
            if not filter_ok(theta_t, phi_t) or not np.isfinite(phi_t):
                return False
            switching = (
                dphi < 0.0
                and alpha_t * (-dphi) ** S_PHI > FILTER_DELTA * theta_k**S_THETA
            )
            if theta_k <= theta_floor and switching:
                return phi_t <= phi_k + ARMIJO * alpha_t * dphi
            return (
                theta_t <= (1 - G_THETA) * theta_k or phi_t <= phi_k - G_PHI * theta_k
            )

        alpha = alpha_max
        accepted = False
        soc_count = 0
        dx_used, dy_used = dx, dy
        x_new = f_new = c_new = None
        theta_soc_last = np.inf
        while alpha >= MIN_STEP:
            x_try = it.x + alpha * dx_used
            theta_t, phi_t, f_try, c_try = trial_values(x_try)
            if acceptable(alpha, theta_t, phi_t):
                x_new, f_new, c_new = x_try, f_try, c_try
                accepted = True
                break
            # second-order correction: retarget the constraint block at the
            # trial point and replace the direction (up to two rounds),
            # only while the correction keeps reducing infeasibility
            if (
                soc_count < 2
                and alpha == alpha_max
                and m
                and np.all(np.isfinite(c_try))
                and theta_t >= theta_k
                and theta_t < 0.99 * theta_soc_last
            ):
                soc_count += 1
                theta_soc_last = theta_t
                rhs_soc = np.concatenate([rhs[:n], -(c_try + alpha * c)])
                step_soc = factor.solve(rhs_soc)
                d_soc, dy_soc = step_soc[:n], step_soc[n:]
                alpha_soc = ftb_primal(d_soc)
                x_soc = it.x + alpha_soc * d_soc
                theta_s, phi_s, f_soc, c_soc = trial_values(x_soc)
                if acceptable(alpha_soc, theta_s, phi_s):
                    x_new, f_new, c_new = x_soc, f_soc, c_soc
                    dx_used, dy_used = d_soc, dy_soc
                    alpha = alpha_soc
                    theta_t, phi_t = theta_s, phi_s
                    accepted = True
                    break
                continue
            alpha *= 0.5

        if accepted:
            # steps that did not certify objective progress block this
            # (theta, phi) corner from re-entry
            switching = (
                dphi < 0.0 and alpha * (-dphi) ** S_PHI > FILTER_DELTA * theta_k**S_THETA
            )
            if not (theta_k <= theta_floor and switching):
                filter_entries.append(
                    ((1 - G_THETA) * theta_k, phi_k - G_PHI * theta_k)
                )

        dz_lo = np.where(has_lo, mu * w / sl_lo - it.z_lo - (it.z_lo / sl_lo) * dx_used, 0.0)
        dz_hi = np.where(has_hi, mu * w / sl_hi - it.z_hi + (it.z_hi / sl_hi) * dx_used, 0.0)
        alpha_z = 1.0
        for z, dz, mask in ((it.z_lo, dz_lo, has_lo), (it.z_hi, dz_hi, has_hi)):
            negd = mask & (dz < 0)
            if np.any(negd):
                alpha_z = min(alpha_z, float(np.min(-tau * z[negd] / dz[negd])))

        if debug:
            step_note = (
                f"alpha={alpha if accepted else 0:.2e} amax={alpha_max:.2e} "
                f"az={alpha_z:.2e} nfilt={len(filter_entries)} dw={delta_w:.1e} "
                f"soc={soc_count}"
            )
        if not accepted:
            consecutive_failures += 1
            if consecutive_failures >= 3:
                if feas > 1e3 * opts.tol:
                    status = SolveStatus.INFEASIBLE
                else:
                    status = SolveStatus.MAX_ITER
                break
            # retreat: raise the barrier and retry from the same point
            mu = min(MU0, max(mu * 100.0, 1e-6))
            tau = max(TAU_MIN, 1.0 - mu)
            filter_entries.clear()
            continue
        consecutive_failures = 0

        it.x = x_new
        it.y = it.y + alpha * dy_used
        it.z_lo = np.where(has_lo, it.z_lo + alpha_z * dz_lo, 0.0)
        it.z_hi = np.where(has_hi, it.z_hi + alpha_z * dz_hi, 0.0)

        # keep bound multipliers compatible with the barrier (Ipopt kappa_Sigma)
        sl_lo, sl_hi = it.slacks()
        k_sig = 1e10
        it.z_lo = np.where(
            has_lo, np.clip(it.z_lo, mu * w / (k_sig * sl_lo), k_sig * mu * w / sl_lo), 0.0
        )
        it.z_hi = np.where(
            has_hi, np.clip(it.z_hi, mu * w / (k_sig * sl_hi), k_sig * mu * w / sl_hi), 0.0
        )

        f, c = f_new, c_new
        g = _vector("gradient", problem.gradient(it.x), n)
        J = kkt.jac.sum(problem.jacobian(it.x))
    else:
        iteration = opts.max_iter

    if status is not SolveStatus.OPTIMAL and best is not None and best[0] < np.inf:
        _, bx, by, bzl, bzh, bf = best
        e_now, *_ = _kkt_error(it, g, c, kkt.jac.rmatvec(J, it.y), 0.0)
        if best[0] < e_now:
            it.x, it.y, it.z_lo, it.z_hi, f = bx, by, bzl, bzh, bf
            c = _vector("constraints", problem.constraints(it.x), m)
            g = _vector("gradient", problem.gradient(it.x), n)
            J = kkt.jac.sum(problem.jacobian(it.x))

    r_stat = g + kkt.jac.rmatvec(J, it.y) - it.z_lo + it.z_hi
    sl_lo, sl_hi = it.slacks()
    comp_terms = np.abs(np.concatenate([(sl_lo * it.z_lo / w)[has_lo], (sl_hi * it.z_hi / w)[has_hi]]))
    residuals = {
        "stationarity": float(np.abs(r_stat).max()) if n else 0.0,
        "feasibility": float(np.abs(c).max()) if m else 0.0,
        "complementarity": float(comp_terms.max(initial=0.0)),
    }
    return NlpSolution(
        x=it.x,
        lambda_eq=it.y,
        lambda_lo=np.where(has_lo, it.z_lo, 0.0),
        lambda_hi=np.where(has_hi, it.z_hi, 0.0),
        status=status,
        kkt_residuals=residuals,
        iterations=iteration,
        objective=f,
        mu=mu,
        diagnostic=diagnostic,
    )


def _dense(name: str, structure, values, shape) -> np.ndarray:
    """The dense matrix of a callback's ``values`` at its declared ``structure``."""
    out = np.zeros(shape)
    np.add.at(out, structure, _vector(name, values, structure[0].size))
    return out


def _worst_difference(fn, x: np.ndarray, exact: np.ndarray, step: float) -> float:
    """Worst ``|exact[:, i] - fd| / max(1, |exact[:, i]|)``, where fd is the
    central difference of ``fn`` along coordinate i of ``x``."""
    worst = 0.0
    for i in range(x.size):
        h = step * (1.0 + abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fd = (fn(xp) - fn(xm)) / (2 * h)
        denom = np.maximum(1.0, np.abs(exact[:, i]))
        worst = max(worst, float(np.max(np.abs(fd - exact[:, i]) / denom, initial=0.0)))
    return worst


def check_derivatives(problem: NlpProblem, x: np.ndarray, step: float = 1e-6) -> float:
    """Compare analytic gradient/Jacobian with central finite differences.

    Returns the worst relative discrepancy ``|analytic - fd| / max(1, |analytic|)``
    over all gradient entries and Jacobian entries; an entry missing from the
    declared structure reads as zero.
    """
    x = np.asarray(x, dtype=float)
    g = _vector("gradient", problem.gradient(x), problem.n)[None, :]
    J = _dense("jacobian", problem.jac_structure, problem.jacobian(x), (problem.m, problem.n))
    return max(_worst_difference(lambda z: np.array([problem.objective(z)]), x, g, step),
               _worst_difference(lambda z: _vector("constraints", problem.constraints(z), problem.m),
                                 x, J, step))


def check_hessian(problem: NlpProblem, x: np.ndarray, y: np.ndarray, step: float = 1e-6) -> float:
    """Compare the analytic Hessian of the Lagrangian ``f + y^T c`` with
    central finite differences of ``gradient + J^T y``.

    Returns the worst relative discrepancy ``|analytic - fd| / max(1, |analytic|)``
    over all Hessian entries; an entry missing from the declared structure
    reads as zero.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = problem.n
    H = _dense("hessian", problem.hess_structure, problem.hessian(x, y, 1.0), (n, n))
    jac = _Entries("jacobian", problem.jac_structure, n)

    def lagrangian_gradient(z):
        return _vector("gradient", problem.gradient(z), n) + jac.rmatvec(jac.sum(problem.jacobian(z)), y)

    return _worst_difference(lagrangian_gradient, x, 0.5 * (H + H.T), step)
