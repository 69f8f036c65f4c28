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
  the dilation balls.

``boundedness_sweep`` estimates family-sup norm ratios over a parameter
grid and marks the admissible region; constants are recorded, never
asserted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dilation import Dilation, annulus_order, offset_index_map, per_grid
from .errors import BadParams, CutoffTooSmall, EmptyGrid, ZeroFunction
from .grid import GridFunction, GridSpec
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
    cutoff: float = 1.0  # truncated_riesz only

    def __post_init__(self):
        if self.kind not in ("hardy", "truncated_riesz", "maximal", "identity"):
            raise BadParams(f"unknown operator kind {self.kind!r}")
        if self.kind == "truncated_riesz" and not self.cutoff > 0:
            raise BadParams("truncated_riesz needs a positive cutoff")


def hardy_apply(f: GridFunction, d: Dilation) -> GridFunction:
    """Hf(x) = rho(x)^{-1} integral over {rho(y) <= rho(x)} of f; 0 at x=0.

    On the grid the inner region is a union of whole annuli, so the
    integral is a cumulative sum of per-annulus masses, read off the runs
    of the annulus order.
    """
    spec = f.spec
    order = annulus_order(d, spec)
    cells = order.cells[order.sizes[0]:]  # every cell but the origin
    # label i: the run of C_{k0+1+i}, the cells with rho = b^{k0+i}
    label = np.repeat(np.arange(len(order.sizes) - 1), np.diff(order.sizes))
    masses = np.bincount(label, weights=f.values.reshape(-1)[cells] * spec.cell_volume)
    rho = np.power(d.b, np.arange(order.k0, order.k0 + len(masses), dtype=float))
    out = np.zeros(spec.shape)
    out.reshape(-1)[cells] = (np.cumsum(masses) / rho)[label]
    return GridFunction(spec, out)


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


# A kernel with at most this many nonzero entries is summed directly, one
# shifted slice add per entry; near 16 entries the sum and one FFT
# convolution cost about the same on 128^2 and 256^2 inputs.
_DIRECT_MAX = 16


class _Kernel(NamedTuple):
    """A kernel cropped to the bounding box of its support and laid out
    about the zero offset for the valid-mode convolution of inputs of one
    shape (``_crop``).

    ``shift`` is the index of the zero offset in the box per axis,
    ``count`` its nonzero entries and ``values`` the box (read-only), or
    None where ``spectrum``, the box's read-only ``_spectrum``, is kept
    instead.  ``dst`` are the outputs the box reaches, the same slices of
    the inverse transform, and ``shape`` the FFT length per axis.  A
    ``real`` box is centred on the zero offset and equal to its point
    reflection, so its spectrum is real and kept so.  A zero kernel has
    count 0 and no layout.
    """

    shift: tuple
    values: np.ndarray | None
    count: int
    out_shape: tuple
    dst: tuple = ()
    shape: tuple = ()
    spectrum: np.ndarray | None = None
    real: bool = False


def _crop(kernel: np.ndarray, in_shape: tuple) -> _Kernel:
    """``kernel`` cropped and laid out for inputs of shape ``in_shape``.

    Entry j of the box is the offset j - s, s = n - 1 - a for the box's
    corner a.  Laid out about the zero offset, output i is entry i of the
    box's circular convolution with the input at the FFT lengths.  A box
    centred there (s its middle entry) and equal to its point reflection
    is ``real``.
    """
    out_shape = tuple(m - n + 1 for n, m in zip(in_shape, kernel.shape))
    # the support's extent along each axis: its nonzero lines there
    axes = tuple(range(kernel.ndim))
    support = [np.flatnonzero(kernel.any(axis=axes[:i] + axes[i + 1:])) for i in axes]
    if support[0].size == 0:
        return _Kernel((0,) * kernel.ndim, np.zeros((0,) * kernel.ndim), 0, out_shape)
    bounds = [(int(ix[0]), int(ix[-1]) + 1) for ix in support]
    values = kernel[tuple(slice(a, b) for a, b in bounds)].copy()
    values.setflags(write=False)
    count = int(np.count_nonzero(values))
    shift = tuple(n - 1 - a for n, (a, _) in zip(in_shape, bounds))
    real = (all(2 * s == b - a - 1 for s, (a, b) in zip(shift, bounds))
            and np.array_equal(values, values[(slice(None, None, -1),) * kernel.ndim]))
    dst, shape = [], []
    for n, m_out, s, (a, b) in zip(in_shape, out_shape, shift, bounds):
        # the outputs i0..i1 - 1 that the box reaches; the FFT length holds
        # them and keeps the box's wrap-around off them on either side
        i0, i1 = max(0, -s), min(m_out, b)
        dst.append(slice(i0, i1))
        shape.append(_fast_length(max(n, i1, i1 + s, b - i0)))
    return _Kernel(shift, values, count, out_shape, tuple(dst), tuple(shape), real=real)


def _spectrum(kern: _Kernel) -> np.ndarray:
    """The spectrum of a kernel's box laid out about the zero offset at
    its FFT lengths L, rfftn(box, L) e^{2 pi i s w / L}; only its real
    part for a ``real`` box."""
    axes = tuple(range(kern.values.ndim))
    spectrum = np.fft.rfftn(kern.values, kern.shape, axes)
    for axis, s, size in zip(axes, kern.shift, kern.shape):
        # the phase of the shift by -s along this axis, s w reduced mod L
        w = np.arange(spectrum.shape[axis])
        phase = np.exp(2j * np.pi / size * (s * w % size))
        spectrum *= phase.reshape((-1,) + (1,) * (len(axes) - 1 - axis))
    return spectrum.real.copy() if kern.real else spectrum


def _with_spectrum(kern: _Kernel) -> _Kernel:
    """``kern`` with its read-only spectrum kept in place of its values,
    if it is past the direct-sum bound."""
    if kern.count <= _DIRECT_MAX:
        return kern
    spectrum = _spectrum(kern)
    spectrum.setflags(write=False)
    return kern._replace(values=None, spectrum=spectrum)


def _convolve(f: np.ndarray, kern: _Kernel) -> np.ndarray:
    """The valid-mode convolution of ``f`` with a ``_with_spectrum`` kernel."""
    out = np.zeros(kern.out_shape)
    if kern.count <= _DIRECT_MAX:
        # entry j of the box, the offset o = j - s, adds its value times
        # f[i - o] to out[i], in raster order; a one-entry unit kernel copies f
        for q in zip(*np.nonzero(kern.values)):
            dst, src = [], []
            for n, m_out, s, j in zip(f.shape, out.shape, kern.shift, q):
                o = int(j) - s
                i0, i1 = max(0, o), min(m_out, o + n)
                dst.append(slice(i0, i1))
                src.append(slice(i0 - o, i1 - o))
            out[tuple(dst)] += kern.values[q] * f[tuple(src)]
        return out
    spectrum = np.fft.rfftn(f, kern.shape, tuple(range(f.ndim)))
    spectrum *= kern.spectrum
    out[kern.dst] = _inverse(spectrum, kern)
    return out


def _inverse(spectrum: np.ndarray, kern: _Kernel) -> np.ndarray:
    """The outputs ``kern.dst`` of the inverse transform of ``spectrum``
    at the kernel's FFT lengths, a view; ``spectrum`` is overwritten."""
    axes = tuple(range(spectrum.ndim))
    # irfftn's transforms in its order, in place but for the last one,
    # which runs only on the rows read
    for axis in axes[:-1]:
        np.fft.ifft(spectrum, kern.shape[axis], axis, out=spectrum)
        spectrum = spectrum[(slice(None),) * axis + (kern.dst[axis],)]
    return np.fft.irfft(spectrum, kern.shape[-1], axes[-1])[..., kern.dst[-1]]


def fft_convolve_valid(f: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Valid-mode convolution ``out[i] = sum_j f[j] kernel[i + n - 1 - j]``
    (per axis, n = f.shape) for a kernel of the rank of ``f`` and at least
    as large along each axis; raises BadParams for any other.

    The kernel is cropped to the bounding box of its support.  A kernel
    with at most ``_DIRECT_MAX`` nonzero entries is then summed directly,
    exactly for a one-entry unit kernel.  Any other takes an FFT only long
    enough to keep its wrap-around off the outputs that are read, and the
    last inverse transform runs only on the rows of those outputs.  Every
    box is convolved with its spectrum laid out about the zero offset
    (``_spectrum``), real for a box centred there and equal to its point
    reflection, to a few ulps of the largest value.
    """
    if kernel.ndim != f.ndim or any(m < n for n, m in zip(f.shape, kernel.shape)):
        raise BadParams(f"cannot convolve an input of shape {f.shape} with a kernel "
                        f"of shape {kernel.shape}: the kernel needs the input's rank "
                        f"and at least its length along each axis")
    return _convolve(f, _with_spectrum(_crop(kernel, f.shape)))


@per_grid
def _riesz_plan(d: Dilation, spec: GridSpec, cutoff: float) -> _Kernel:
    """The truncated ``1/rho`` kernel of ``truncated_riesz_apply`` as its
    spectrum, real for the centred kernel; raises CutoffTooSmall below the
    one-cell rho-scale."""
    off = offset_index_map(d, spec)
    n = spec.resolution
    # rho of the one-cell offset (h, 0)
    cell_rho = float(d.rho_of_index(off[(n,) + (n - 1,) * (spec.dim - 1)]))
    if cutoff < cell_rho:
        raise CutoffTooSmall(
            f"cutoff {cutoff:g} below one-cell rho-scale {cell_rho:g}")
    rho_off = d.rho_of_index(off)
    kernel = np.divide(1.0, rho_off, out=np.zeros(off.shape), where=rho_off >= cutoff)
    return _with_spectrum(_crop(kernel, spec.shape))


def truncated_riesz_apply(f: GridFunction, d: Dilation,
                          cutoff: float) -> GridFunction:
    """Tf(x) = integral over {rho(x-y) >= cutoff} of f(y)/rho(x-y).

    The cutoff must be at least the rho-scale of one grid cell; below
    that the kernel mass concentrates on unresolvable offsets.  The
    kernel's spectrum is planned once per (dilation, grid, cutoff).
    """
    spec = f.spec
    conv = _convolve(f.values, _riesz_plan(d, spec, cutoff)) * spec.cell_volume
    return GridFunction(spec, conv)


@per_grid
def _maximal_plan(d: Dilation, spec: GridSpec, k_lo: int, k_hi: int) -> tuple:
    """The balls ``off <= k - 1`` of the scales k_lo..k_hi that hold a
    cell, laid out for ``maximal_apply``: a ball past the direct-sum bound
    as its real spectrum, any other as its cropped boolean mask."""
    off = offset_index_map(d, spec)
    # the origin sentinel is in every ball; a sub-grid ball is clipped
    balls = [_crop(off <= k - 1, spec.shape) for k in range(k_lo, k_hi + 1)]
    del off  # freed before the spectra are built
    return tuple(_with_spectrum(ball) for ball in balls if ball.count)


def maximal_apply(f: GridFunction, d: Dilation,
                  krange: tuple[int, int]) -> GridFunction:
    """Discrete maximal averages max_k over x + B_k of |f|, the balls of d.

    Each average is the sum of |f| over the cell mask divided by its cell
    count.  Balls of at most ``_DIRECT_MAX`` cells are summed directly, so
    their averages are exact to the rounding of the sum and the one-cell
    ball reproduces |f|; larger balls sum by FFT, to a few ulps of the
    largest value.  The balls are planned once per (dilation, grid,
    window), those past the direct-sum bound as their real spectra.  Balls
    of equal FFT lengths share one transform of |f| per call, and each
    inverse runs in place, so beside |f| and the maximum a call holds
    about one transform and one inverse output at a time.  For a Euclidean
    comparison pass the isotropic dilation b^{1/n} I: its balls B_k are
    the centred intervals or discs of volume b^k.
    """
    spec = f.spec
    absf = np.abs(f.values)
    best = absf.copy()  # cell-scale average is |f| itself
    # the balls grow with k, so those of equal FFT lengths are adjacent:
    # they share one transform of |f|, which the last of them multiplies
    # in place and the others out of place
    runs = itertools.groupby(_maximal_plan(d, spec, *krange),
                             lambda ball: ball.shape if ball.count > _DIRECT_MAX else None)
    axes = tuple(range(absf.ndim))
    for lengths, run in runs:
        run = list(run)
        shared = None if lengths is None else np.fft.rfftn(absf, lengths, axes)
        for i, ball in enumerate(run, 1):
            if shared is None:
                avg, dst = _convolve(absf, ball), ()
            else:
                out = shared if i == len(run) else None
                avg, dst = _inverse(np.multiply(shared, ball.spectrum, out=out), ball), ball.dst
            avg /= ball.count
            # outside dst an FFT ball's average is 0, at most |f|
            np.maximum(best[dst], avg, out=best[dst])
        shared = out = avg = None  # dropped before the next run's transform
    return GridFunction(spec, best)


def apply_operator(spec_op: OperatorSpec, f: GridFunction,
                   d: Dilation) -> GridFunction:
    if spec_op.kind == "identity":
        return f
    if spec_op.kind == "hardy":
        return hardy_apply(f, d)
    if spec_op.kind == "truncated_riesz":
        return truncated_riesz_apply(f, d, spec_op.cutoff)
    return maximal_apply(f, d, default_krange(d, f.spec))


def _norm_ratio(f: GridFunction, tf: GridFunction, d: Dilation,
                params: HerzSpaceParams) -> float:
    """||Tf|| / ||f|| in the Herz-Morrey norm, given Tf (the identity
    returns f itself, whose ratio n / n is 1.0 with no second solve)."""
    denom = herz_morrey_norm(f, d, params)
    if denom == 0.0:
        raise ZeroFunction("input norm vanished in the truncation window")
    if tf is f:
        return 1.0
    return herz_morrey_norm(tf, d, params) / denom


def op_ratio(t_spec: OperatorSpec, f: GridFunction, d: Dilation,
             params: HerzSpaceParams) -> float:
    """||Tf|| / ||f|| in the Herz-Morrey norm (the grand Herz norm at
    lambda = 0)."""
    if f.is_zero():
        raise ZeroFunction("op_ratio needs a nonzero input")
    return _norm_ratio(f, apply_operator(t_spec, f, d), d, params)


def rescale(f: GridFunction, d: Dilation, s: int) -> GridFunction:
    """Nearest-cell resample of x -> f(A^s x)."""
    spec = f.spec
    pts = spec.points().reshape(-1, spec.dim)
    mapped = pts @ d.inv_power(-s).T
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
                      q: ExponentFunction = ExponentFunction.constant(2.0),
                      theta: float = 1.0,
                      delta2: float = 0.5) -> list[dict]:
    """Family-sup of the norm ratio per (alpha, lambda) cell.

    T is applied once per function; every cell reads its ratio from the
    same (f, Tf) pair.  Admissible region per the boundedness statements:
    0 < alpha < delta2 with lambda = 0, or 0 < 2 lambda < alpha.  Inside
    the region the sup should stabilize as the family grows; outside it
    is diagnostic only.
    """
    lambdas = [float(lam) for lam in lambda_grid]
    cells = [(float(alpha), lam) for alpha in alpha_grid for lam in lambdas]
    if not cells or not family:
        raise EmptyGrid("sweep needs nonempty grids and family")
    params = [HerzSpaceParams(alpha=ExponentFunction.constant(alpha), p=p, q=q,
                              theta=theta, lambda_morrey=lam, delta2=delta2)
              for alpha, lam in cells]
    sups = [0.0] * len(cells)
    for f in family:
        tf = apply_operator(t_spec, f, d)
        sups = [max(sup, _norm_ratio(f, tf, d, cell))
                for sup, cell in zip(sups, params)]
    return [{
        "alpha": alpha,
        "lambda": lam,
        "family_size": len(family),
        "sup_ratio": sup,
        "admissible": bool((0 < alpha < delta2) and (lam == 0 or 2 * lam < alpha)),
    } for (alpha, lam), sup in zip(cells, sups)]
