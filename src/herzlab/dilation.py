"""Anisotropic dilation geometry.

An expansive matrix ``A`` (all eigenvalue magnitudes > 1) generates the
scale family ``B_k = A^k Delta`` where ``Delta`` is a volume-1 ellipsoid
adapted to ``A``.  This module builds the ellipsoid form, exposes
membership queries for balls and annuli, the step quasi-norm ``rho``
(``rho(x) = b^j`` on ``B_{j+1} \\ B_j`` with ``b = |det A|``), and the
doubling constant ``w`` (smallest integer with ``2 B_0 c B_w``).

The ellipsoid form is ``M = sum_k c^{2k} (A^{-k})^T A^{-k}`` with
``c = (1 + lambda_-)/2``, truncated once the term norm drops below 1e-12.
With this choice ``|A x|_M^2 = |x|^2 + c^2 |x|_M^2``, so every dilation
step grows the M-norm by at least the factor ``c`` and the balls nest.
It grows it by at most ``|A|_M``, the operator norm in the M-norm; the
two factors bracket each point's annulus index from ``|x|_M`` alone
(Bownik, Anisotropic Hardy spaces and wavelets, Mem. AMS 781, 2003).

Scattered points are classified one by one: ``annulus_index`` bisects
inside each point's bracket with ball tests.  Grid maps (cell centres and
the offset grid of their differences) are built by rows instead: B_k is
the ellipse ``x^T Q_k x < r0^2`` with ``Q_k = A^{-kT} M A^{-k}``, so on a
row of the grid it is one interval, and a cell's index counts the nested
intervals that hold it.  Cells within rounding distance of an interval
end are re-decided by ``ball_contains``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    BadDim,
    EmptySamples,
    NotExpansive,
    NotSquare,
    OriginQuery,
    UnresolvableScale,
)
from .grid import GridSpec

_TERM_TOL = 1e-12
_UNIT_BALL_VOLUME = {1: 2.0, 2: math.pi}
# A^{-k} is only formed while its 2-norm stays below e^600, far from overflow
_LOG_POWER_LIMIT = 600.0
# index of the origin in the index maps: rho(0) = 0 and it lies in every ball
ORIGIN_INDEX = -(2**30)


@dataclass(frozen=True)
class Dilation:
    """Expansive matrix together with its derived scale geometry."""

    matrix: np.ndarray
    dim: int
    b: float
    lambda_minus: float
    ellipsoid_form: np.ndarray
    radius: float          # r0 with Delta = {x : x^T M x < r0^2}
    radius_squared: float  # primitive for membership tests
    c_growth: float
    max_growth: float      # |A|_M, the largest one-step growth of the M-norm
    power_window: tuple[int, int]  # the k with A^{-k} safely finite
    w: int
    _powers: dict = field(default_factory=dict, repr=False, compare=False)

    # -- low-level geometry --

    def cache_key(self) -> bytes:
        return self.matrix.tobytes() + bytes([self.dim])

    def inv_power(self, k: int) -> np.ndarray:
        """A^{-k} for any integer k (cached)."""
        mat = self._powers.get(k)
        if mat is None:
            if k >= 0:
                mat = np.linalg.matrix_power(np.linalg.inv(self.matrix), k)
            else:
                mat = np.linalg.matrix_power(self.matrix, -k)
            self._powers[k] = mat
        return mat

    def m_quadform(self, pts: np.ndarray) -> np.ndarray:
        """x^T M x at each point; pts has shape (..., dim)."""
        pts = np.asarray(pts, dtype=float)
        return np.einsum("...i,ij,...j->...", pts, self.ellipsoid_form, pts)

    def ball_contains(self, pts: np.ndarray, k: int) -> np.ndarray:
        """Boolean mask of x in B_k, i.e. |A^{-k} x|_M < r0."""
        pts = np.asarray(pts, dtype=float)
        mapped = pts @ self.inv_power(k).T
        return self.m_quadform(mapped) < self.radius_squared

    # -- annulus index and quasi-norm --

    def annulus_index(self, pts: np.ndarray) -> np.ndarray:
        """The unique j with x in B_{j+1} \\ B_j, vectorized over points.

        Each point is bisected inside its ``_bracket`` with ball tests,
        so membership is decided by exactly the ``ball_contains``
        arithmetic.  Grid maps use the row-interval build of
        ``annulus_index_map`` instead.
        """
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if np.any(~np.any(pts != 0.0, axis=-1)):
            raise OriginQuery("annulus index undefined at x = 0")

        scale = np.max(np.abs(pts), axis=-1)
        t = (np.log(scale) + 0.5 * np.log(self.m_quadform(pts / scale[:, None]))
             - math.log(self.radius))
        lo, hi = self._bracket(t)
        # a point whose bracket was clipped may lie beyond the window
        w_lo, w_hi = self.power_window
        low, high = lo == w_lo, hi == w_hi
        if (np.any(low) and np.any(self._inside(pts[low], w_lo))) or \
                (np.any(high) and not np.all(self._inside(pts[high], w_hi))):
            raise UnresolvableScale("annulus index beyond the representable scales")

        while True:
            rows = np.flatnonzero(hi - lo > 1)
            if rows.size == 0:
                break
            mid = (lo[rows] + hi[rows]) // 2
            inside = np.empty(rows.size, dtype=bool)
            # a set, not np.unique: its first call imports numpy.ma (10 ms)
            for k in set(mid.tolist()):
                sel = mid == k
                inside[sel] = self._inside(pts[rows[sel]], int(k))
            hi[rows[inside]] = mid[inside]
            lo[rows[~inside]] = mid[~inside]
        return int(lo[0]) if single else lo

    def _bracket(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Scales lo < hi with x outside B_lo and inside B_hi, for each
        t = log(|x|_M / r0), clipped to ``power_window``.

        The growth factors c <= |A|_M put the smallest k with x in B_k
        strictly above min(t/log c, t/log |A|_M) and at most one above
        max(...); for k < 0 the two bounds swap roles, which min/max
        absorbs.  One step of slack each way covers rounding in t.
        """
        t_lo = t / math.log(self.c_growth)
        t_hi = t / math.log(self.max_growth)
        lo = np.floor(np.minimum(t_lo, t_hi)).astype(np.int64) - 1
        hi = np.floor(np.maximum(t_lo, t_hi)).astype(np.int64) + 2
        w_lo, w_hi = self.power_window
        return np.maximum(lo, w_lo), np.minimum(hi, w_hi)

    def _inside(self, pts: np.ndarray, k: int) -> np.ndarray:
        """ball_contains for bracket probes: an M-norm too large to square
        in floating point is outside every probed ball, so the overflow
        is expected and silenced."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self.ball_contains(pts, k)

    def rho_of_index(self, idx) -> np.ndarray:
        """b^idx, with rho = 0 at ``ORIGIN_INDEX`` entries of an index map."""
        idx = np.asarray(idx)
        return np.power(self.b, np.where(idx == ORIGIN_INDEX, -np.inf, idx))

    def rho(self, pts: np.ndarray) -> np.ndarray:
        """Step quasi-norm: b^{annulus_index(x)} for x != 0, rho(0) = 0."""
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        nonzero = np.any(pts != 0.0, axis=-1)
        out = np.zeros(pts.shape[0])
        if np.any(nonzero):
            idx = self.annulus_index(pts[nonzero])
            out[nonzero] = np.power(self.b, np.atleast_1d(idx).astype(float))
        return float(out[0]) if single else out


def make_dilation(matrix) -> Dilation:
    """Validate an expansive matrix and construct its scale geometry.

    Raises NotSquare/BadDim for shape problems, NotExpansive when an
    eigenvalue magnitude is <= 1, and UnresolvableScale when an entry,
    det A or the ellipsoid form leaves the float range.
    """
    a = np.atleast_2d(np.asarray(matrix, dtype=float))
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSquare(f"matrix shape {a.shape} is not square")
    n = a.shape[0]
    if n not in (1, 2):
        raise BadDim(f"only dimensions 1 and 2 are supported, got {n}")
    with np.errstate(over="ignore"):
        if not (np.all(np.isfinite(a)) and math.isfinite(np.linalg.det(a))):
            raise UnresolvableScale("dilation matrix beyond the float range")

    eigmags = np.sort(np.abs(np.linalg.eigvals(a)))
    if eigmags[0] <= 1.0:
        raise NotExpansive(f"eigenvalue magnitude {eigmags[0]:.6g} <= 1")

    lambda_minus = (1.0 + eigmags[0]) / 2.0
    c = (1.0 + lambda_minus) / 2.0
    b = abs(float(np.linalg.det(a)))

    a_inv = np.linalg.inv(a)
    m = np.zeros((n, n))
    power = np.eye(n)
    k = 0
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            term = c ** (2 * k) * power.T @ power
        if not np.all(np.isfinite(term)):
            raise UnresolvableScale("ellipsoid form of the matrix beyond the float range")
        m += term
        if k > 0 and np.linalg.norm(term, 2) < _TERM_TOL:
            break
        power = power @ a_inv
        k += 1
        if k > 10_000:  # c < lambda_- makes this unreachable
            raise NotExpansive("ellipsoid form failed to converge")

    # volume-1 normalization: vol = omega_n r0^n / sqrt(det M)
    omega = _UNIT_BALL_VOLUME[n]
    det_m = float(np.linalg.det(m))
    r0_squared = det_m ** (1.0 / n) / omega ** (2.0 / n)
    r0 = math.sqrt(r0_squared)

    # smallest w with |2 A^{-w}|_{M->M} <= 1 (operator norm via Cholesky)
    chol = np.linalg.cholesky(m)
    chol_inv_t = np.linalg.inv(chol.T)
    max_growth = float(np.linalg.norm(chol.T @ a @ chol_inv_t, 2))
    power_window = (-_power_limit(a), _power_limit(a_inv))
    w = 1
    power = a_inv
    while True:
        op = chol.T @ (2.0 * power) @ chol_inv_t
        if np.linalg.norm(op, 2) <= 1.0:
            break
        power = power @ a_inv
        w += 1
        if w > 1_000:
            raise NotExpansive("doubling constant failed to converge")

    return Dilation(
        matrix=np.ascontiguousarray(a),
        dim=n,
        b=b,
        lambda_minus=lambda_minus,
        ellipsoid_form=m,
        radius=r0,
        radius_squared=r0_squared,
        c_growth=c,
        max_growth=max_growth,
        power_window=power_window,
        w=w,
    )


def _power_limit(mat: np.ndarray) -> int:
    """Largest m with |mat|_2^m <= e^600 (unbounded for |mat|_2 <= 1)."""
    log_norm = math.log(float(np.linalg.norm(mat, 2)))
    if log_norm <= 0.0:
        return 2**40
    return int(_LOG_POWER_LIMIT / log_norm)


def check_quasi_triangle(d: Dilation, xs, ys) -> dict:
    """Max of rho(x+y)/(rho(x)+rho(y)) over sample pairs vs the bound b^w.

    Pairs with rho(x)+rho(y) = 0 (both points zero) contribute ratio 0.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    if xs.shape[0] == 0 or xs.shape != ys.shape:
        raise EmptySamples("need a nonempty set of point pairs")
    rx, ry, rs = d.rho(xs), d.rho(ys), d.rho(xs + ys)
    denom = rx + ry
    ratios = np.where(denom > 0, rs / np.where(denom > 0, denom, 1.0), 0.0)
    bound = d.b ** d.w
    max_ratio = float(np.max(ratios))
    return {
        "check": "quasi_triangle",
        "max_ratio": max_ratio,
        "bound": bound,
        "pass": bool(max_ratio <= bound * (1 + 1e-12)),
    }


# --- per-grid index maps (the annulus order is the cached one) ---

# Each per-grid cache holds at most this many bytes of arrays.
_CACHE_BYTES = 128 * 2**20


def _nbytes(value) -> int:
    """Bytes of the arrays ``value`` holds, itself or in nested tuples."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, tuple):
        return sum(_nbytes(v) for v in value)
    return 0


def _check_dim(d: Dilation, spec: GridSpec) -> None:
    if spec.dim != d.dim:
        raise BadDim(f"a {spec.dim}D grid does not fit a {d.dim}D dilation")


def per_grid(build):
    """Cache ``build(d, spec, *key)`` per (dilation, grid, *key), with
    ``key`` any further hashable arguments; results are shared, so
    ``build`` must return immutable values.  A grid whose dimension is
    not the dilation's raises BadDim.

    Each builder holds at most ``_CACHE_BYTES`` (128 MiB), summed over
    the arrays its entries hold, and drops every entry when a new one
    would pass that; an entry larger than the budget is cached alone.  At
    1024^2 an annulus order, a log-family exponent or a log-family
    alpha's weights hold 8 bytes per cell (8.4 MB), the exponent's
    per-annulus bounds 16 bytes per annulus, the truncated Riesz plan a
    real spectrum of 16.8 MB and the shear's maximal plan 87.7 MB, the
    real spectra of its eleven balls past the direct-sum bound.
    """
    cache: dict = {}
    held = 0

    @functools.wraps(build)
    def cached(d: Dilation, spec: GridSpec, *key):
        nonlocal held
        _check_dim(d, spec)
        full = (d.cache_key(), spec, *key)
        value = cache.get(full)
        if value is None:
            value = build(d, spec, *key)
            size = _nbytes(value)
            if held + size > _CACHE_BYTES:
                clear()
            cache[full] = value
            held += size
        return value

    def clear():
        nonlocal held
        cache.clear()
        held = 0
    cached.cache_clear = clear
    return cached


# Rounding moves a computed form |A^{-k} x|_M^2 by at most about tol_k r0
# |G_k x|, with tol_k this factor (a few thousand ulps) times (|k| + 1)
# |G_k| |x|_max / r0: the error of A^{-k} and of the product A^{-k} x.
# Cells whose exact form lies within 3 tol_k of r0^2 (relative) are
# re-decided by ball_contains; every other cell falls on the same side in
# both computations.
_ULPS = 2.0**-40


def _log_abs_det(mat: np.ndarray) -> float:
    """log |det mat| of a 1x1 or 2x2 float matrix, the determinant taken
    exactly in integer arithmetic (-inf when it is 0)."""
    # each entry is n / d exactly, d a power of 2
    r = [v.as_integer_ratio() for v in mat.ravel().tolist()]
    if len(r) == 1:
        num, den = r[0]
    else:
        (a, da), (b, db), (c, dc), (e, de) = r
        den = max(da * de, db * dc)
        num = a * e * (den // (da * de)) - b * c * (den // (db * dc))
    if num == 0:
        return -math.inf
    # |det| = (m / 2^52) 2^exp with m a 53-bit integer, so the log keeps
    # full relative precision at any exponent
    num = abs(num)
    shift = num.bit_length() - 53
    m = num >> shift if shift >= 0 else num << -shift
    exp = shift + 52 - (den.bit_length() - 1)
    return math.log(m / 2.0**52) + exp * math.log(2.0)


def _grid_index_map(d: Dilation, axis: np.ndarray) -> np.ndarray:
    """Annulus index on the tensor grid ``axis^dim`` (``axis`` ascending).

    With M = L L^T and G_k = L^T A^{-k}, the ball B_k is |G_k x| < r0.  A
    grid row (first coordinate x fixed) meets it in one interval of the
    second coordinate y: |G_k (x, y)|^2 = a (y - centre)^2 + x^2 det^2 / a
    with a = |g_2|^2, centre = -x g_1.g_2 / a for the columns g_i of G_k
    and det = det G_k = det L times the exact determinant of the computed
    A^{-k} (``_log_abs_det``), so thin balls lose nothing to cancellation
    and the form is that of the matrix ``ball_contains`` applies, however
    far the rounded powers of a non-normal A stray from det A^{-k} =
    b^{-k}.  (A ball long along the rows is cut along the columns,
    with the roles of x and y swapped.)  The balls nest, so a cell's index
    is k_hi minus the number of window scales that hold it; difference
    arrays over every (scale, row) pair and cumulative sums give all
    counts.  Scales whose ball holds no nonzero cell or every cell skip
    the rows, and so does every scale below or above such a scale.
    Cells within the rounding band of ``_ULPS`` around an interval end
    are re-decided with ``ball_contains``.  In 1D the grid is one row at
    x = 0.
    """
    n = axis.size
    span = float(np.max(np.abs(axis)))
    nearest = float(np.min(np.abs(axis[axis != 0.0])))
    log_r0 = math.log(d.radius)
    # the annulus_index bracket at bounds on the grid's extreme M-norms
    eig = np.linalg.eigvalsh(d.ellipsoid_form)
    t = np.log([nearest, span]) + 0.5 * np.log([eig[0], d.dim * eig[-1]]) - log_r0
    lo, hi = d._bracket(t)
    k_lo, k_hi = int(lo[0]), int(hi[1])
    if k_hi <= k_lo:
        raise UnresolvableScale("annulus index beyond the representable scales")
    ks = np.arange(k_lo, k_hi + 1)

    g = np.linalg.cholesky(d.ellipsoid_form).T @ np.stack(
        [d.inv_power(int(k)) for k in ks])
    g_max = np.linalg.norm(g, ord=2, axis=(1, 2))
    log_det = 0.5 * math.log(np.linalg.det(d.ellipsoid_form)) + np.array(
        [_log_abs_det(d.inv_power(int(k))) for k in ks])
    # A^{-k} may underflow to 0 (log_max = log_det = -inf): that ball holds
    # every cell, and its nan log_min flags no scale as empty
    with np.errstate(divide="ignore", invalid="ignore"):
        log_max = np.log(g_max)
        log_min = log_det if d.dim == 1 else log_det - log_max
    log_ext = math.log(span) + 0.5 * math.log(d.dim)  # log max |x|
    # capped so that the inner band level 1 - 3 tol stays positive
    tol = np.exp(np.minimum(log_max + log_ext - log_r0 + np.log1p(np.abs(ks))
                            + math.log(_ULPS), -2.0))
    # the balls nest; taking far scales' answers from nearer ones keeps the
    # rounded powers of an ill-conditioned A^k out of the ball tests
    none = np.logical_or.accumulate(
        (log_min + math.log(nearest) > log_r0 + np.log1p(tol))[::-1])[::-1]
    every = np.logical_or.accumulate(log_max + log_ext < log_r0 + np.log1p(-tol))
    live = ~(none | every)

    # coordinates axis / span and G_k / |G_k| keep every factor finite; a
    # scale whose ball is long along the rows (small second column of G_k)
    # runs along the columns instead, so the leading coefficient a stays
    # at least 1/4
    u = axis / span
    rows = u if d.dim == 2 else np.zeros(1)
    gs = g[live] / g_max[live, None, None]
    g1, g2 = gs[:, :, 0], gs[:, :, -1]
    swap = np.sum(g2 * g2, axis=1) < 0.25
    g1, g2 = np.where(swap[:, None], g2, g1), np.where(swap[:, None], g1, g2)
    a = np.sum(g2 * g2, axis=1)[:, None]
    centre = -rows * (np.sum(g1 * g2, axis=1)[:, None] / a)
    perp = rows * rows * np.exp(2.0 * (log_det[live] - d.dim * log_max[live]))[:, None] / a
    level = np.exp(2.0 * (log_r0 - math.log(span) - log_max[live]))
    band = 3.0 * tol[live]

    def ends(scale, left, right):
        half = np.sqrt(np.maximum((level * scale)[:, None] - perp, 0.0) / a)
        return (np.searchsorted(u, centre - half, side=left),
                np.searchsorted(u, centre + half, side=right))

    # [a_out, b_out) holds every cell with form < r0^2 (1 + band) and
    # [a_in, b_in) only cells with form < r0^2 (1 - band)
    a_out, b_out = ends(1.0 + band, "left", "right")
    a_in, b_in = ends(1.0 - band, "right", "left")
    a_in = np.clip(a_in, a_out, b_out)
    b_in = np.clip(b_in, a_in, b_out)

    # difference arrays: (row, column + 1) for the scales that run along
    # rows, (column + 1, row) after it for the swapped ones, so that both
    # cumulative sums run over contiguous memory
    width = n + 1
    size = rows.size * width

    def at(row, col, swapped):
        return np.where(swapped, size + col * n + row, row * width + col)

    row = np.arange(rows.size)
    starts = at(row, a_in, swap[:, None]).ravel()
    stops = at(row, b_in, swap[:, None]).ravel()

    # the band cells [a_out, a_in) and [b_in, b_out) of every (scale, row)
    lengths = np.concatenate([(a_in - a_out).ravel(), (b_out - b_in).ravel()])
    if lengths.any():
        first = np.concatenate([a_out.ravel(), b_in.ravel()])
        col = np.repeat(first - np.cumsum(lengths) + lengths, lengths) \
            + np.arange(int(lengths.sum()))
        s, row = np.divmod(np.repeat(np.arange(lengths.size) % a_in.size, lengths),
                           rows.size)
        scale, swapped = ks[live][s], swap[s]
        if d.dim == 1:
            pts = axis[col, None]
        else:
            pts = np.stack([axis[np.where(swapped, col, row)],
                            axis[np.where(swapped, row, col)]], axis=-1)
        inside = np.zeros(col.size, dtype=bool)
        for k in np.unique(scale):
            sel = scale == k
            inside[sel] = d.ball_contains(pts[sel], int(k))
        starts = np.concatenate([starts, at(row, col, swapped)[inside]])
        stops = np.concatenate([stops, at(row, col + 1, swapped)[inside]])

    total = size * (1 + bool(swap.any()))
    diff = np.bincount(starts, minlength=total)
    diff -= np.bincount(stops, minlength=total)
    diff[:size:width] += np.count_nonzero(every)
    count = np.cumsum(diff[:size].reshape(rows.size, width)[:, :n], axis=1)
    if swap.any():
        count += np.cumsum(diff[size:].reshape(width, n)[:n], axis=0)
    count = count.reshape((n,) * d.dim)

    # every nonzero cell lies outside B_{k_lo} and inside B_{k_hi}, unless
    # the window was clipped to the powers that stay finite
    origin = axis == 0.0
    if d.dim == 2:
        origin = np.logical_and.outer(origin, origin)
    count[origin] = 1
    if count.min() == 0 or count.max() == ks.size:
        raise UnresolvableScale("annulus index beyond the representable scales")
    idx = np.subtract(k_hi, count, out=count)
    idx[origin] = ORIGIN_INDEX
    idx.setflags(write=False)
    return idx


def annulus_index_map(d: Dilation, spec: GridSpec) -> np.ndarray:
    """Annulus index at every cell center of ``spec``, built anew on each
    call: ``annulus_order`` is the cached classification of a grid.

    Built by ``_grid_index_map``: membership in each B_k comes from the
    interval that its quadratic form cuts out of each grid row, and cells
    within rounding distance of a ball boundary are re-decided with
    ``ball_contains``, so no per-point bisection runs and membership is
    still decided by that arithmetic.

    Cell centers exactly at the origin (odd resolutions) get the sentinel
    ``ORIGIN_INDEX``; rho there is 0 and every slice excludes them.
    """
    _check_dim(d, spec)
    return _grid_index_map(d, spec.axis_centers())


class AnnulusOrder(NamedTuple):
    """The cells of a grid sorted by annulus (see ``annulus_order``).

    ``cells`` holds flat (raster) cell indices: the origin cell first,
    then C_k for increasing k, each annulus in raster order.  So the cells
    of B_k are ``cells[:ball(k)]`` and those of C_k are
    ``cells[ball(k - 1):ball(k)]``.  ``sizes[i]`` is the number of cells in
    ``B_{k0 + i}``.
    """

    cells: np.ndarray
    sizes: np.ndarray
    k0: int

    def ball(self, k):
        """Number of cells in B_k, for an integer or an integer array k."""
        return np.take(self.sizes, np.subtract(k, self.k0), mode="clip")


@per_grid
def annulus_order(d: Dilation, spec: GridSpec) -> AnnulusOrder:
    """``annulus_index_map(d, spec)`` as a stable counting sort of its
    cells (the map is then dropped), so each annulus and each ball B_k is
    one contiguous run."""
    idx = annulus_index_map(d, spec).reshape(-1)
    origin = idx == ORIGIN_INDEX
    k0 = int(np.min(idx, where=~origin, initial=idx.max()))
    # label 0 is the origin and label i >= 1 the index k0 - 1 + i; labels
    # this small sort by radix
    label = np.subtract(idx, k0 - 1)
    label[origin] = 0
    label = label.astype(np.min_scalar_type(int(label.max())))
    cells = np.argsort(label, kind="stable")
    sizes = np.cumsum(np.bincount(label))
    cells.setflags(write=False)
    sizes.setflags(write=False)
    return AnnulusOrder(cells, sizes, k0)


def _offset_axis(spec: GridSpec) -> np.ndarray:
    return spec.cell_width * np.arange(-(spec.resolution - 1), spec.resolution)


def offset_points(spec: GridSpec) -> np.ndarray:
    """The offset grid ``h * (-(N-1)..N-1)^dim`` of all differences of
    cell centers, shape ``(2N-1, ..., dim)``; h is the cell width."""
    offs = _offset_axis(spec)
    if spec.dim == 1:
        return offs[:, None]
    ox, oy = np.meshgrid(offs, offs, indexing="ij")
    return np.stack([ox, oy], axis=-1)


def offset_index_map(d: Dilation, spec: GridSpec) -> np.ndarray:
    """Annulus index on ``offset_points(spec)``, built like
    ``annulus_index_map`` (same row intervals, same re-decision rule) and
    anew on each call: the operators keep what they read of it in their
    per-grid plans.

    Entry ``m + N - 1`` (per axis) classifies the offset ``m * h``.  The
    zero offset gets ``ORIGIN_INDEX``, which lies inside every ball
    (``off <= k - 1``) and below every kernel cutoff.
    """
    _check_dim(d, spec)
    return _grid_index_map(d, _offset_axis(spec))


def ball_diameter(d: Dilation, k: int) -> float:
    """Euclidean diameter of B_k (twice the largest semiaxis).

    In 1D the semiaxis is r0 / sqrt(q), q = a^{-2k} M the form of B_k.
    In 2D it is r0 sqrt(s), s the largest eigenvalue of A^k M^{-1} A^{kT}:
    the form's smallest eigenvalue would give it too, but the form's
    condition number grows like the k-th power of the eigenvalue ratio of
    A, and an eigensolve loses that eigenvalue to rounding (to a
    nonpositive value on [[1.21875, 1], [0, 2]] at k = 40).

    Raises UnresolvableScale where B_k leaves the float range: the matrix
    product overflows (expected there and silenced) or underflows to 0.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if d.dim == 1:
            form = float((d.inv_power(k).T @ d.ellipsoid_form @ d.inv_power(k))[0, 0])
            semiaxis = d.radius / math.sqrt(form) if 0.0 < form < math.inf else 0.0
        else:
            power = d.inv_power(-k)
            spread = power @ np.linalg.inv(d.ellipsoid_form) @ power.T
            top = float(np.max(np.linalg.eigvalsh(spread))) \
                if np.all(np.isfinite(spread)) else math.inf
            semiaxis = d.radius * math.sqrt(top) if 0.0 < top < math.inf else 0.0
    if not 0.0 < semiaxis < math.inf:
        raise UnresolvableScale(f"ball B_{k} beyond the representable scales")
    return 2.0 * semiaxis


def parse_matrix(text: str) -> np.ndarray:
    """Parse plain-text matrix rows: '2 1; 0 2' or newline-separated rows."""
    rows = [r for r in text.replace(";", "\n").splitlines() if r.strip()]
    data = [[float(tok) for tok in row.replace(",", " ").split()] for row in rows]
    return np.asarray(data, dtype=float)
