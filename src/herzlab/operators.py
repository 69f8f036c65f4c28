"""Concrete sublinear operators with verifiable size conditions.

Three computable probes plus the identity:

* ``hardy_apply``:  Hf(x) = rho(x)^{-1} * integral_{rho(y) <= rho(x)} f,
  which satisfies |Hf(x)| <= ||f||_{L^1} / rho(x) everywhere (the
  far-field size condition with constant 1) and vanishes in the far
  field on mean-zero data.
* ``truncated_riesz_apply``: positive kernel 1/rho(x - y) cut off below
  a rho-scale (the untruncated kernel is not locally integrable), which
  satisfies the integral size condition pointwise by construction.
* ``maximal_apply``: discrete Hardy-Littlewood maximal averages over
  the dilation balls (or Euclidean balls for comparison).

``boundedness_sweep`` estimates family-sup norm ratios over a parameter
grid and marks the admissible region; constants are recorded, never
asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dilation import (
    ORIGIN_INDEX,
    Dilation,
    annulus_index_map,
    offset_index_map,
    offset_points,
)
from .errors import BadParams, CutoffTooSmall, EmptyGrid, ZeroFunction
from .grid import GridFunction
from .herz import HerzSpaceParams, default_krange, herz_morrey_norm
from .varlebesgue import ExponentFunction

__all__ = [
    "OperatorSpec",
    "apply_operator",
    "hardy_apply",
    "truncated_riesz_apply",
    "maximal_apply",
    "op_ratio",
    "boundedness_sweep",
]


@dataclass(frozen=True)
class OperatorSpec:
    """Which concrete operator to run and its knobs."""

    kind: str  # hardy | truncated_riesz | maximal | identity
    cutoff: float = 1.0         # truncated_riesz only
    krange: Optional[tuple[int, int]] = None  # maximal only
    balls: str = "anisotropic"  # maximal: anisotropic | euclidean

    def __post_init__(self):
        if self.kind not in ("hardy", "truncated_riesz", "maximal", "identity"):
            raise BadParams(f"unknown operator kind {self.kind!r}")
        if self.kind == "truncated_riesz" and not self.cutoff > 0:
            raise BadParams("truncated_riesz needs a positive cutoff")
        if self.kind == "maximal" and self.krange is not None \
                and self.krange[1] < self.krange[0]:
            raise BadParams("maximal needs a nonempty scale range")


def hardy_apply(f: GridFunction, d: Dilation) -> GridFunction:
    """Hf(x) = rho(x)^{-1} integral over {rho(y) <= rho(x)} of f; 0 at x=0.

    On the grid the inner region is a union of whole annuli, so the
    integral is a cumulative sum of per-annulus masses.
    """
    spec = f.spec
    idx = annulus_index_map(d, spec).reshape(-1)
    vals = f.values.reshape(-1)
    h = spec.cell_volume

    nonzero = idx != ORIGIN_INDEX
    if not np.any(nonzero):
        return GridFunction(spec, np.zeros(spec.shape))
    k_lo = int(np.min(idx[nonzero]))
    k_hi = int(np.max(idx[nonzero]))
    shifted = np.where(nonzero, idx - k_lo, 0)
    masses = np.bincount(shifted[nonzero], weights=vals[nonzero] * h,
                         minlength=k_hi - k_lo + 1)
    cumulative = np.cumsum(masses)

    rho_vals = np.power(d.b, np.where(nonzero, idx, 0).astype(float))
    out = np.zeros_like(vals)
    out[nonzero] = cumulative[shifted[nonzero]] / rho_vals[nonzero]
    return GridFunction(spec, out.reshape(spec.shape))


def _fast_length(n: int) -> int:
    """Smallest 5-smooth integer >= n, a fast ``numpy.fft`` length."""
    while True:
        r = n
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return n
        n += 1


def fft_convolve_valid(f: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Valid-mode convolution ``out[i] = sum_j f[j] kernel[i + n - 1 - j]``
    (per axis, n = f.shape) for a kernel at least as large as ``f``.

    The kernel is cropped to the bounding box of its support, so small
    balls take small FFTs, and the circular FFT only has to be long
    enough to keep its wrap-around off the outputs that are read.
    """
    out = np.zeros([m - n + 1 for n, m in zip(f.shape, kernel.shape)])
    support = np.nonzero(kernel)
    if support[0].size == 0:
        return out
    box, dst, src, shape = [], [], [], []
    for n, m_out, ix in zip(f.shape, out.shape, support):
        a, b = int(ix.min()), int(ix.max()) + 1
        # output i reads the box convolution at t = i + n - 1 - a
        i0, i1 = max(0, a - n + 1), min(m_out, b)
        t0, t1 = i0 + n - 1 - a, i1 + n - 1 - a
        box.append(slice(a, b))
        dst.append(slice(i0, i1))
        src.append(slice(t0, t1))
        shape.append(_fast_length(max(n, t1, n + b - a - 1 - t0)))
    axes = tuple(range(f.ndim))
    spectrum = np.fft.rfftn(f, shape, axes) * np.fft.rfftn(kernel[tuple(box)], shape, axes)
    out[tuple(dst)] = np.fft.irfftn(spectrum, shape, axes)[tuple(src)]
    return out


def truncated_riesz_apply(f: GridFunction, d: Dilation,
                          cutoff: float) -> GridFunction:
    """Tf(x) = integral over {rho(x-y) >= cutoff} of f(y)/rho(x-y).

    The cutoff must be at least the rho-scale of one grid cell; below
    that the kernel mass concentrates on unresolvable offsets.
    """
    spec = f.spec
    off = offset_index_map(d, spec)
    n = spec.resolution
    # rho of the one-cell offset (h, 0)
    cell_rho = float(d.rho_of_index(off[(n,) + (n - 1,) * (spec.dim - 1)]))
    if cutoff < cell_rho:
        raise CutoffTooSmall(
            f"cutoff {cutoff:g} below one-cell rho-scale {cell_rho:g}")

    rho_off = d.rho_of_index(off)
    kernel = np.divide(1.0, rho_off, out=np.zeros(off.shape), where=rho_off >= cutoff)
    conv = fft_convolve_valid(f.values, kernel) * spec.cell_volume
    return GridFunction(spec, conv)


def maximal_apply(f: GridFunction, d: Dilation,
                  krange: tuple[int, int],
                  balls: str = "anisotropic") -> GridFunction:
    """Discrete maximal averages max_k over x + B_k of |f|.

    Averages are exact on the grid (sum over the cell mask divided by
    its measured mass), so the smallest resolvable ball reproduces |f|.
    The Euclidean variant uses round balls with the same volumes b^k for
    comparison with the anisotropic geometry.
    """
    spec = f.spec
    k_lo, k_hi = krange
    if balls == "euclidean":
        opts = offset_points(spec)
        r2 = np.sum(opts * opts, axis=-1)
    else:
        off = offset_index_map(d, spec)

    absf = np.abs(f.values)
    best = absf.copy()  # cell-scale average is |f| itself
    for k in range(k_lo, k_hi + 1):
        if balls == "euclidean":
            # round ball of volume b^k
            if spec.dim == 1:
                radius = d.b ** k / 2.0
            else:
                radius = math.sqrt(d.b ** k / math.pi)
            mask = r2 < radius * radius
        else:
            mask = off <= k - 1  # the origin sentinel is in every ball
        count = int(np.count_nonzero(mask))
        if count == 0:
            continue  # sub-grid ball: clipped
        conv = fft_convolve_valid(absf, mask.astype(float))
        np.maximum(best, conv / count, out=best)
    return GridFunction(spec, best)


def apply_operator(spec_op: OperatorSpec, f: GridFunction,
                   d: Dilation) -> GridFunction:
    if spec_op.kind == "identity":
        return f
    if spec_op.kind == "hardy":
        return hardy_apply(f, d)
    if spec_op.kind == "truncated_riesz":
        return truncated_riesz_apply(f, d, spec_op.cutoff)
    krange = spec_op.krange
    if krange is None:
        krange = default_krange(d, f.spec)
    return maximal_apply(f, d, krange, balls=spec_op.balls)


def op_ratio(t_spec: OperatorSpec, f: GridFunction, d: Dilation,
             params: HerzSpaceParams) -> float:
    """||Tf|| / ||f|| in the Herz-Morrey norm (the grand Herz norm at
    lambda = 0)."""
    if f.is_zero():
        raise ZeroFunction("op_ratio needs a nonzero input")
    denom = herz_morrey_norm(f, d, params)
    numer = herz_morrey_norm(apply_operator(t_spec, f, d), d, params)
    if denom == 0.0:
        raise ZeroFunction("input norm vanished in the truncation window")
    return numer / denom


def rescale(f: GridFunction, d: Dilation, s: int) -> GridFunction:
    """Nearest-cell resample of x -> f(A^s x)."""
    spec = f.spec
    pts = spec.points().reshape(-1, spec.dim)
    mat = np.linalg.matrix_power(d.matrix, s) if s >= 0 \
        else np.linalg.matrix_power(np.linalg.inv(d.matrix), -s)
    mapped = pts @ mat.T
    h = spec.cell_width
    ij = np.round((mapped + spec.radius - h / 2) / h).astype(int)
    ok = np.all((ij >= 0) & (ij < spec.resolution), axis=1)
    flat = np.zeros(pts.shape[0])
    if spec.dim == 1:
        src = ij[:, 0]
    else:
        src = ij[:, 0] * spec.resolution + ij[:, 1]
    flat[ok] = f.values.reshape(-1)[np.where(ok, src, 0)[ok]]
    return GridFunction(spec, flat.reshape(spec.shape))


def _shift_cells(values: np.ndarray, shift) -> np.ndarray:
    """Translate by whole cells with zero fill."""
    out = values
    for axis, s in enumerate(np.atleast_1d(shift)):
        s = int(s)
        if s == 0:
            continue
        rolled = np.roll(out, s, axis=axis)
        sl = [slice(None)] * out.ndim
        sl[axis] = slice(0, s) if s > 0 else slice(s, None)
        rolled[tuple(sl)] = 0.0
        out = rolled
    return out


def scale_translate_family(seeds: list[GridFunction], d: Dilation,
                           size: int, seed: int = 0) -> list[GridFunction]:
    """Deterministic scale/translate closure of seed functions.

    Cycles through the seeds, dilation rescalings f(A^s x) and
    zero-filled cell translations; with a fixed seed the first m
    functions of a larger family reproduce the size-m family, so
    family-sup growth curves are nested.
    """
    rng = np.random.default_rng(seed)
    out: list[GridFunction] = []
    spec = seeds[0].spec
    n = spec.resolution
    i = 0
    while len(out) < size:
        base = seeds[i % len(seeds)]
        mode = (i // len(seeds)) % 3
        i += 1
        if mode == 0:
            cand = base
        elif mode == 1:
            s = int(rng.integers(-2, 3))
            cand = rescale(base, d, s)
        else:
            shift = rng.integers(-n // 8, n // 8 + 1, size=spec.dim)
            cand = GridFunction(spec, _shift_cells(base.values, shift))
        if cand.is_zero():
            cand = base
        out.append(cand * float(rng.uniform(0.5, 2.0)))
    return out


def boundedness_sweep(t_spec: OperatorSpec, d: Dilation,
                      alpha_grid, lambda_grid,
                      family: list[GridFunction], *,
                      p: float = 1.0,
                      q: ExponentFunction | None = None,
                      theta: float = 1.0,
                      delta2: float = 0.5) -> list[dict]:
    """Family-sup of op_ratio per (alpha, lambda) cell.

    Admissible region per the boundedness statements: 0 < alpha < delta2
    with lambda = 0, or 0 < 2 lambda < alpha.  Inside the region the sup
    should stabilize as the family grows; outside it is diagnostic only.
    """
    alphas = list(alpha_grid)
    lambdas = list(lambda_grid)
    if not alphas or not lambdas or not family:
        raise EmptyGrid("sweep needs nonempty grids and family")
    if q is None:
        q = ExponentFunction.constant(2.0)

    rows = []
    for alpha in alphas:
        for lam in lambdas:
            params = HerzSpaceParams(
                alpha=ExponentFunction.constant(float(alpha)),
                p=p, q=q, theta=theta,
                lambda_morrey=float(lam), delta2=delta2,
            )
            sup = 0.0
            for f in family:
                sup = max(sup, op_ratio(t_spec, f, d, params))
            admissible = (0 < alpha < delta2) and \
                (lam == 0 or 2 * lam < alpha)
            rows.append({
                "alpha": float(alpha),
                "lambda": float(lam),
                "family_size": len(family),
                "sup_ratio": sup,
                "admissible": bool(admissible),
            })
    return rows
