"""Grand Herz and grand Herz-Morrey norms with block decompositions.

A Herz-type norm is assembled from annulus slices: on each annulus
``C_k = B_k \\ B_{k-1}`` the function is weighted by ``b^{k alpha(.)}``,
measured in ``L^{q(.)}``, and the resulting scale sequence ``{t_k}`` is
fed to one supremum over eps and the truncation level L of partial sums
weighted by ``b^{-L lam}`` (``grandseq.partial_sum_sup``; lam = 0 gives
the grand Herz norm).  Truncation to a finite k-range is honest: a geometric
tail bound is always reported next to the norm.

The canonical central-block decomposition divides each slice by its
weighted norm; the grand sequence norm of the coefficients then equals
the function norm identically, which is the backbone of the
decomposition checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .dilation import AnnulusOrder, Dilation, annulus_order, ball_diameter, per_grid
from .errors import (
    BadParams,
    GridMismatch,
    NormOverflow,
    NotInClassP,
    OutOfCoverage,
    ParamMismatch,
    TailUnbounded,
    ZeroFunction,
)
from .grandseq import (GrandSequenceParams, Sequence, _log_partial_norms, _sup_ending,
                       grand_seq_norm, partial_sum_sup)
from .grid import GridFunction, GridSpec
from .varlebesgue import (ExponentFunction, _ratio_record, derived_reciprocal, lux_core,
                          luxemburg_norm)

__all__ = [
    "HerzSpaceParams",
    "BlockDecomposition",
    "default_krange",
    "annulus_slice",
    "grand_herz_norm",
    "split_norm",
    "herz_morrey_norm",
    "herz_norm_report",
    "block_decompose",
    "block_reconstruct",
    "block_validate",
    "seq_functional",
    "product_check",
    "sum_check",
]


@dataclass(frozen=True)
class HerzSpaceParams:
    """Everything a Herz-type norm needs.

    alpha may be any bounded exponent function; q must be class P;
    p >= 1 is the scalar summability index perturbed by eps; theta > 0
    the grand parameter; lambda_morrey >= 0 the Morrey exponent (0 gives
    the plain grand Herz norm).  krange overrides the default truncation
    window; delta2 (default 0.5) sets the atom checks' weight window.
    """

    alpha: ExponentFunction
    p: float
    q: ExponentFunction
    theta: float = 1.0
    lambda_morrey: float = 0.0
    homogeneous: bool = True
    delta2: float = 0.5
    krange: Optional[tuple[int, int]] = None

    def __post_init__(self):
        # P = p (1 + eps) must stay finite over the eps scan, up to 1e6
        if not 1.0 <= self.p <= 1e300:
            raise BadParams(f"p must lie in [1, 1e300], got {self.p}")
        if not 0 < self.theta < math.inf:
            raise BadParams(f"theta must be positive and finite, got {self.theta}")
        # the Morrey weights take lam ln b, and ln b < 710 for any float b
        if not 0 <= self.lambda_morrey <= 1e300:
            raise BadParams(f"lambda_morrey must lie in [0, 1e300], got {self.lambda_morrey}")
        a = self.alpha
        if not all(map(math.isfinite, (a.p_minus, a.p_plus, a.at_origin, a.at_infinity))):
            raise BadParams(f"alpha must be finite, got {a.name}")
        if not self.q.in_class_p:
            raise NotInClassP(f"q must be class P (1 < q^- <= q^+ <= 1e150), got "
                              f"q^- = {self.q.p_minus:g}, q^+ = {self.q.p_plus:g}")
        if not 0 < self.delta2 < 1:
            raise BadParams("delta2 must lie in (0, 1)")
        if self.krange is not None and self.krange[0] > self.krange[1]:
            raise BadParams(f"krange must have k_min <= k_max, got {self.krange}")
        if self.krange is not None and not self.homogeneous and self.krange[1] < 0:
            raise BadParams(f"the non-homogeneous window starts at k = 0, "
                            f"past k_max = {self.krange[1]}")

    def seq_params(self) -> GrandSequenceParams:
        return GrandSequenceParams(p=self.p, theta=self.theta)

    def alpha_split(self, k: int) -> float:
        """The split-form scalar weight exponent: alpha(0) below scale 0."""
        return self.alpha.at_origin if k < 0 else self.alpha.at_infinity


# --- k-range and slicing --------------------------------------------------

def _box_corners(spec: GridSpec) -> np.ndarray:
    r = spec.radius
    if spec.dim == 1:
        return np.array([[-r], [r]])
    return np.array([[-r, -r], [-r, r], [r, -r], [r, r]])


@per_grid
def default_krange(d: Dilation, spec: GridSpec) -> tuple[int, int]:
    """Truncation window: k_max the smallest k >= 0 with B_k covering the
    box, k_min the largest k whose ball diameter is under 4 grid cells.

    A corner x lies in B_k exactly when k > annulus_index(x); that index
    is bisected inside the dilation's ``power_window`` and raises
    ``UnresolvableScale`` beyond it."""
    k_max = max(0, int(np.max(d.annulus_index(_box_corners(spec)))) + 1)
    limit = 4.0 * spec.cell_width
    k_min = k_max
    while ball_diameter(d, k_min) >= limit:
        k_min -= 1
    return k_min, k_max


def annulus_slice(f: GridFunction, d: Dilation, k: int,
                  nonhomogeneous: bool = False) -> GridFunction:
    """f restricted to the annulus C_k (or to B_0 for k = 0 when
    nonhomogeneous)."""
    corners = _box_corners(f.spec)
    if np.all(d.ball_contains(corners, k - 1)) and not (nonhomogeneous and k == 0):
        raise OutOfCoverage(f"C_{k} lies wholly outside the grid box")
    order = annulus_order(d, f.spec)
    lo = 0 if nonhomogeneous and k == 0 else order.ball(k - 1)
    cells = order.cells[lo:order.ball(k)]
    vals = np.zeros(f.spec.shape)
    vals.reshape(-1)[cells] = f.values.reshape(-1)[cells]
    return GridFunction(f.spec, vals)


def _slice_bounds(order, ks: np.ndarray, homogeneous: bool) -> np.ndarray:
    """The bounds of the slices of the scales ks in the annulus order: C_k
    is the run ``cells[bounds[i]:bounds[i + 1]]`` for k = ks[i], and the
    non-homogeneous 0-th slice is all of B_0, origin included."""
    bounds = order.ball(np.arange(ks[0] - 1, ks[-1] + 1))
    if not homogeneous:
        bounds[0] = 0
    return bounds


# --- weighted slice norms ---------------------------------------------------

def slice_norms(f: GridFunction, d: Dilation, params: HerzSpaceParams,
                *, split: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Per-scale weighted slice norms t_k over the truncation window.

    Returns (ks, t) with t_k = ||b^{k alpha} f chi_k||_{L^{q(.)}}; the
    weight is pointwise b^{k alpha(x)} by default and the split-form
    scalar b^{k alpha_k} when split=True.  The non-homogeneous variant
    starts at k = 0 with the full ball B_0 as the 0-th slice.
    """
    spec = f.spec
    k_min, k_max = params.krange or default_krange(d, spec)
    if not params.homogeneous:
        k_min = 0
    if params.krange:
        # a user window past the representable scales would be allocated
        # in full below: ball_diameter raises UnresolvableScale there
        ball_diameter(d, k_min)
        ball_diameter(d, k_max)
    ks = np.arange(k_min, k_max + 1)

    # C_k is the run cells[ball(k - 1):ball(k)] of the annulus order, so
    # the window is one run and its annuli are segments of it
    order = annulus_order(d, spec)
    bounds = _slice_bounds(order, ks, params.homogeneous)
    lo, hi = int(bounds[0]), int(bounds[-1])
    bounds -= lo
    vals = f.values.reshape(-1)[order.cells[lo:hi]]
    np.abs(vals, out=vals)
    q = params.q
    q_vals = q.value if q.is_constant else _ordered_exponent(q, d, spec, lo, hi)
    q_rows = _log_rows(q, d, spec, ks, params.homogeneous)

    alpha = params.alpha
    if split or alpha.is_constant:
        # one weight b^{k alpha_k} per annulus, applied after the solve:
        # the norm is absolutely homogeneous
        alpha_k = (np.where(ks < 0, alpha.at_origin, alpha.at_infinity) if split
                   else alpha.value)
        with np.errstate(over="ignore"):
            w = np.power(d.b, ks * alpha_k)
        t = lux_core(vals, q_vals, spec.cell_volume, bounds, q_rows)
        # a slice without mass stays 0 whatever its weight
        with np.errstate(over="ignore"):
            np.multiply(t, w, out=t, where=t > 0)
        if not np.all(np.isfinite(t)):
            raise NormOverflow(
                "a slice norm b^{k alpha} ||f chi_k|| exceeds the float range")
        return ks, t

    if alpha.kind == "log":
        w = ordered_alpha_weights(d, spec, alpha.at_origin, alpha.at_infinity)[lo:hi]
    else:
        w = _annulus_weights(d, order, _ordered_exponent(alpha, d, spec, lo, hi), lo, hi)
    # the non-homogeneous B_0 slice is weighted by b^0 = 1: left as it is
    start = 0 if params.homogeneous else int(bounds[1])
    weighted = vals[start:]
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(weighted, w[start:], out=weighted)
    if not math.isfinite(np.max(vals, initial=0.0)):
        raise NormOverflow("a weighted sample b^{k alpha} |f| exceeds the float range")
    return ks, lux_core(vals, q_vals, spec.cell_volume, bounds, q_rows)


@per_grid
def ordered_log_family(d: Dilation, spec: GridSpec, p0: float,
                       p_inf: float) -> np.ndarray:
    """The log-family exponent ``log:p0,p_inf`` at the cells of ``spec``
    in annulus order (``annulus_order(d, spec).cells``), read-only.

    Cached per (dilation, grid, p0, p_inf) at 8 bytes per cell, so the
    slice norms take any window of it as a view, with no gather.
    """
    vals = ExponentFunction.log_family(p0, p_inf).on_grid(spec).reshape(-1)
    vals = vals[annulus_order(d, spec).cells]
    vals.setflags(write=False)
    return vals


@per_grid
def ordered_log_bounds(d: Dilation, spec: GridSpec, p0: float,
                       p_inf: float) -> tuple[np.ndarray, np.ndarray]:
    """(min, max) of ``ordered_log_family(d, spec, p0, p_inf)`` over each
    run of the annulus order, read-only: row 0 over the origin cell, row
    i >= 1 over the annulus C_{k0 + i}, and (inf, -inf) for a run with no
    cell.  Cached beside the family at 16 bytes per annulus, so the slice
    solves run no exponent reduction."""
    vals = ordered_log_family(d, spec, p0, p_inf)
    sizes = annulus_order(d, spec).sizes
    starts = np.concatenate(([0], sizes[:-1]))
    live = starts < sizes
    p_lo = np.full(sizes.size, np.inf)
    p_hi = np.full(sizes.size, -np.inf)
    # with the empty runs dropped, each start's run ends at the next
    p_lo[live] = np.minimum.reduceat(vals, starts[live])
    p_hi[live] = np.maximum.reduceat(vals, starts[live])
    p_lo.setflags(write=False)
    p_hi.setflags(write=False)
    return p_lo, p_hi


def _log_rows(e: ExponentFunction, d: Dilation, spec: GridSpec, ks: np.ndarray,
              homogeneous: bool) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The (min, max) of the exponent e over the slice of each scale in ks,
    from ``ordered_log_bounds`` for the log family (None for the other
    kinds, whose bounds ``lux_core`` reduces from the samples).  C_k is
    the run of row k - k0; the rows of the empty slices outside
    [k0 + 1, k0 + len(sizes) - 1] are clipped to a neighbour and not read,
    and the non-homogeneous B_0 slice merges the origin with every
    annulus k <= 0."""
    if e.kind != "log":
        return None
    p_lo, p_hi = ordered_log_bounds(d, spec, e.at_origin, e.at_infinity)
    order = annulus_order(d, spec)
    rows = np.clip(ks - order.k0, 0, order.sizes.size - 1)
    lo, hi = p_lo[rows], p_hi[rows]
    if not homogeneous:
        lo[0], hi[0] = p_lo[:rows[0] + 1].min(), p_hi[:rows[0] + 1].max()
    return lo, hi


def _annulus_weights(d: Dilation, order: AnnulusOrder, alpha_vals: np.ndarray,
                     lo: int, hi: int) -> np.ndarray:
    """b^{k alpha(x)} at the cells ``cells[lo:hi]`` of the annulus order,
    with alpha_vals the samples of alpha there and k each cell's annulus
    C_k (0 for the origin cell, which lies in no annulus)."""
    k = np.repeat(np.arange(order.k0, order.k0 + order.sizes.size, dtype=float),
                  np.diff(order.sizes, prepend=0))
    k[:order.sizes[0]] = 0.0
    w = k[lo:hi]
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(alpha_vals, w, out=w)
        np.power(d.b, w, out=w)
    return w


@per_grid
def ordered_alpha_weights(d: Dilation, spec: GridSpec, a0: float,
                          a_inf: float) -> np.ndarray:
    """``_annulus_weights`` of the log-family alpha ``log:a0,a_inf`` over
    the whole annulus order, read-only.  Cached per (dilation, grid, a0,
    a_inf) at 8 bytes per cell, so the slice norms multiply by a view."""
    order = annulus_order(d, spec)
    w = _annulus_weights(d, order, ordered_log_family(d, spec, a0, a_inf),
                         0, order.cells.size)
    w.setflags(write=False)
    return w


def _ordered_exponent(e: ExponentFunction, d: Dilation, spec: GridSpec,
                      lo: int, hi: int) -> np.ndarray:
    """Samples of the exponent e at the cells ``cells[lo:hi]`` of the
    annulus order: a read-only view of the cached array for the log
    family, a fresh gather for the other kinds (their keys would hold
    their ``fn``, so a cache would only churn)."""
    if e.kind == "log":
        return ordered_log_family(d, spec, e.at_origin, e.at_infinity)[lo:hi]
    return e.on_grid(spec).reshape(-1)[annulus_order(d, spec).cells[lo:hi]]


def _tail_bound(f: GridFunction, d: Dilation, params: HerzSpaceParams,
                k_min: int) -> float:
    """Geometric surrogate for the dropped scales k < k_min (0 for the
    non-homogeneous norm, which drops none).

    Per-term bound: t_k <= cap * b^{k (alpha_low + 1/q^+)} with cap the
    sup of |f| and alpha_low the min of alpha on the cells of B_{k_min},
    or of the smallest ball above it that holds a cell.  Raises
    TailUnbounded when alpha(0) + 1/q^- <= 0 makes the true tail
    non-summable.
    """
    if not params.homogeneous:
        return 0.0
    rate_spec = params.alpha.at_origin + 1.0 / params.q.p_minus
    if rate_spec <= 0:
        raise TailUnbounded(
            f"alpha(0) + 1/q^- = {rate_spec:g} <= 0: scale tail diverges")
    order = annulus_order(d, f.spec)
    inner = order.cells[:order.ball(k_min) or order.ball(order.k0 + 1)]
    cap = float(np.max(np.abs(f.values.reshape(-1)[inner])))
    if cap == 0.0:
        return 0.0
    alpha = params.alpha
    alpha_low = (alpha.value if alpha.is_constant
                 else float(np.min(alpha(f.spec.cell_points(inner)))))
    rate = alpha_low + 1.0 / params.q.p_plus
    if rate <= 0:
        return math.inf
    try:  # a bound past the float range, or a b^{-rate} that rounds to 1
        return cap * d.b ** ((k_min - 1) * rate) / (1.0 - d.b ** (-rate))
    except (OverflowError, ZeroDivisionError):
        return math.inf


# --- the norms --------------------------------------------------------------

def _assemble(f: GridFunction, d: Dilation, params: HerzSpaceParams, lam: float,
              split: bool = False) -> tuple[np.ndarray, np.ndarray, float, float, int]:
    """The one Herz-type assembly: the weighted slice norms t_k over the
    window and the sup over eps and L of their partial sums weighted by
    b^{-L lam}.  Returns (ks, t, value, arg_eps, arg_pos)."""
    ks, t = slice_norms(f, d, params, split=split)
    value, arg_eps, arg_pos = partial_sum_sup(
        t, params.seq_params(), -lam * math.log(d.b) * ks)
    return ks, t, value, arg_eps, arg_pos


def grand_herz_norm(f: GridFunction, d: Dilation,
                    params: HerzSpaceParams) -> tuple[float, float]:
    """Grand Herz norm of f and the truncation tail bound.

    Homogeneous: grand sequence norm of the weighted slice norms over
    the k window, plus the geometric bound for the dropped scales.
    Non-homogeneous: the k >= 0 sum with B_0 as the 0-th slice (no tail).
    """
    ks, _, norm, _, _ = _assemble(f, d, params, 0.0)
    return norm, _tail_bound(f, d, params, int(ks[0]))


def split_norm(f: GridFunction, d: Dilation, params: HerzSpaceParams) -> float:
    """Split-constant form: scalar weights alpha(0) below scale 0 and
    alpha_inf above.

    With lambda_morrey = 0 this is the split grand Herz norm: identical
    to the direct norm for constant alpha, equivalent within a recorded
    band for the log family.  With lambda_morrey > 0 it evaluates the
    split Morrey form, the max of the L <= 0 branch and the sup over
    L > 0 of the two-piece sum (negative scales plus scales [0, L]);
    each branch is equivalent to the direct double sup, with the
    two-piece sum adding at most a factor-2 overshoot.
    """
    if params.alpha.kind not in ("constant", "log"):
        raise BadParams("split form needs a constant or log-family alpha")
    if params.lambda_morrey == 0:
        return _assemble(f, d, params, 0.0, split=True)[2]
    ks, t = slice_norms(f, d, params, split=True)
    return _split_morrey_sup(ks, t, params, d.b)


def _split_morrey_sup(ks: np.ndarray, t: np.ndarray,
                      params: HerzSpaceParams, b: float) -> float:
    """max of the L <= 0 Morrey branch and the L > 0 two-piece branch."""
    log_w = -params.lambda_morrey * math.log(b) * ks  # log b^{-L lam}
    seq_params = params.seq_params()
    # the sup of a max is the max of the sups: the L <= 0 branch is the
    # plain partial-sum supremum with every L > 0 dropped
    value = partial_sum_sup(t, seq_params, np.where(ks <= 0, log_w, -np.inf))[0]
    pos = ks > 0
    if not np.any(pos):
        return value
    # branch 2: sup over L > 0 of b^{-L lam} (A_neg + B_{[0,L]})
    neg = ks < 0
    p, theta = params.p, params.theta
    with np.errstate(divide="ignore"):
        log_t = np.log(t)
    log_t_nonneg = np.where(neg, -np.inf, log_t)

    def table(log_eps: np.ndarray) -> np.ndarray:
        total = _log_partial_norms(log_eps, log_t_nonneg, p, theta)[:, pos]
        if np.any(neg):
            a_neg = _log_partial_norms(log_eps, log_t[neg], p, theta)[:, -1:]
            total = np.logaddexp(a_neg, total)
        return log_w[pos] + total

    # eps -> infinity limit of branch 2: per-piece sup norms
    m_neg = float(np.max(t[neg], initial=0.0))
    prefmax = np.maximum.accumulate(np.where(neg, 0.0, t))
    with np.errstate(over="ignore"):
        limit = np.exp(log_w[pos]) * (m_neg + prefmax[pos])
    return max(value, _sup_ending(lambda s: np.max(table(s), axis=-1), table, limit)[0])


def herz_morrey_norm(f: GridFunction, d: Dilation,
                     params: HerzSpaceParams) -> float:
    """Grand Herz-Morrey norm; lambda_morrey = 0 reduces exactly to the
    grand Herz norm."""
    return _assemble(f, d, params, params.lambda_morrey)[2]


def herz_norm_report(f: GridFunction, d: Dilation, params: HerzSpaceParams,
                     space: str = "herz") -> dict:
    """Full record for CLI output: norm, tail bound, per-k terms, argmaxes."""
    if space not in ("herz", "herz-morrey", "nonhomog"):
        raise BadParams(f"space must be 'herz', 'herz-morrey' or 'nonhomog', got {space!r}")
    if space == "nonhomog" and params.homogeneous:
        params = replace(params, homogeneous=False)
    morrey = space == "herz-morrey"
    ks, t, norm, arg_eps, arg_pos = _assemble(
        f, d, params, params.lambda_morrey if morrey else 0.0)
    return {
        "space": space,
        "norm": norm,
        "tail_bound": _tail_bound(f, d, params, int(ks[0])),
        "per_k_terms": {int(k): float(v) for k, v in zip(ks, t)},
        "argmax_eps": arg_eps,
        "argmax_L": int(ks[arg_pos]) if morrey else None,
    }


# --- central-block decomposition ---------------------------------------------

@dataclass(frozen=True, eq=False)
class BlockDecomposition:
    """Coefficients lambda_k with per-annulus blocks b_k (supp in B_k),
    held as runs of the annulus order, not as dense grids: block k is
    ``samples[lo:hi]`` on the cells ``cells[lo:hi]``, with ``(lo, hi) =
    runs[k]``, and 0 elsewhere.  ``block(k)`` makes one block a dense
    GridFunction on request, so a caller can write them one at a time."""

    coefficients: Sequence
    params: HerzSpaceParams
    spec: GridSpec
    cells: np.ndarray
    samples: np.ndarray
    runs: dict

    def block_indices(self) -> list[int]:
        return sorted(self.runs)

    def block(self, k: int) -> GridFunction:
        """The block b_k on the whole grid."""
        lo, hi = self.runs[k]
        vals = np.zeros(self.spec.shape)
        vals.reshape(-1)[self.cells[lo:hi]] = self.samples[lo:hi]
        return GridFunction(self.spec, vals)


def block_decompose(f: GridFunction, d: Dilation,
                    params: HerzSpaceParams) -> BlockDecomposition:
    """Canonical decomposition f = sum lambda_k b_k over annuli.

    lambda_k is the weighted slice norm and b_k = f chi_k / lambda_k;
    zero slices are skipped.  The coefficient sequence reproduces the
    grand Herz norm identically (see seq_functional).
    """
    ks, t = slice_norms(f, d, params)
    if not np.any(t > 0):
        raise ZeroFunction("no annulus in the window carries mass")
    order = annulus_order(d, f.spec)
    bounds = _slice_bounds(order, ks, params.homogeneous)
    cells = order.cells[bounds[0]:bounds[-1]]
    samples = f.values.reshape(-1)[cells]
    bounds = (bounds - bounds[0]).tolist()
    runs = {}
    for k, tk, lo, hi in zip(ks.tolist(), t, bounds, bounds[1:]):
        if tk > 0:
            samples[lo:hi] *= 1.0 / tk
            runs[k] = (lo, hi)
    samples.setflags(write=False)
    return BlockDecomposition(Sequence(t, offset=int(ks[0])), params, f.spec,
                              cells, samples, runs)


def block_reconstruct(dec: BlockDecomposition) -> GridFunction:
    """Pointwise sum sum_k lambda_k b_k, each block's run scattered into
    one array (the zero function when there are no blocks)."""
    total = np.zeros(dec.spec.shape)
    c = dec.coefficients
    for k, (lo, hi) in dec.runs.items():
        # + 0.0 turns -0.0 into +0.0, as a sum of blocks onto 0.0 does
        total.reshape(-1)[dec.cells[lo:hi]] = c.values[k - c.offset] * dec.samples[lo:hi] + 0.0
    return GridFunction(dec.spec, total)


def central_conditions(g: GridFunction, k: int, d: Dilation,
                       params: HerzSpaceParams, restricted: bool = False):
    """Conditions shared by central blocks and atoms.

    Returns (support_ok, q_norm, bound, norm_ok, restricted_ok): support
    in B_k, ||g||_{q(.)} <= bound = b^{-k alpha_k} (alpha(0) below scale
    0, alpha_inf above) and, for restricted type, k >= 0.
    """
    order = annulus_order(d, g.spec)
    # the cells outside B_k; -0.0 counts as zero
    support_ok = not np.any(g.values.reshape(-1)[order.cells[order.ball(k):]])
    q_norm = luxemburg_norm(g, params.q)
    bound = d.b ** (-k * params.alpha_split(k))
    norm_ok = q_norm <= bound * (1.0 + 1e-9)
    restricted_ok = (k >= 0) if restricted else True
    return support_ok, q_norm, bound, norm_ok, restricted_ok


def block_validate(b: GridFunction, k: int, d: Dilation,
                   params: HerzSpaceParams, restricted: bool = False) -> dict:
    """Central-block conditions: support in B_k and the norm bound
    ||b||_{q(.)} <= b^{-k alpha_k} (alpha(0) below scale 0, alpha_inf
    above); restricted type additionally requires k >= 0."""
    if not (params.alpha.at_origin > 0 and params.alpha.at_infinity > 0):
        raise BadParams("block bounds need 0 < alpha(0), alpha_inf")
    support_ok, q_norm, bound, norm_ok, restricted_ok = central_conditions(
        b, k, d, params, restricted)
    return {
        "check": "central_block",
        "k": k,
        "support_ok": bool(support_ok),
        "q_norm": q_norm,
        "bound": bound,
        "norm_ok": bool(norm_ok),
        "restricted_ok": bool(restricted_ok),
        "pass": bool(support_ok and norm_ok and restricted_ok),
    }


def seq_functional(dec: BlockDecomposition) -> float:
    """Grand sequence norm of the coefficients; equals the grand Herz
    norm of the reconstructed function for canonical decompositions."""
    return grand_seq_norm(dec.coefficients, dec.params.seq_params())


# --- algebra checks ----------------------------------------------------------

def _combine_alpha(a1: ExponentFunction, a2: ExponentFunction) -> ExponentFunction:
    if a1.is_constant and a2.is_constant:
        return ExponentFunction.constant(a1.value + a2.value)
    if a1.kind == "log" and a2.kind == "log":
        return ExponentFunction.log_family(a1.at_origin + a2.at_origin,
                                           a1.at_infinity + a2.at_infinity)
    return ExponentFunction.custom(
        fn=lambda pts: a1(pts) + a2(pts),
        p_minus=a1.p_minus + a2.p_minus, p_plus=a1.p_plus + a2.p_plus,
        at_origin=a1.at_origin + a2.at_origin,
        at_infinity=a1.at_infinity + a2.at_infinity,
        name=f"{a1.name}+{a2.name}",
    )


def combine_product_params(params1: HerzSpaceParams,
                           params2: HerzSpaceParams) -> HerzSpaceParams:
    """Parameters of the product space: alpha adds, 1/q and 1/p add
    reciprocally, lambda adds; theta and flags must agree."""
    if params1.theta != params2.theta:
        raise ParamMismatch("theta must agree across factors")
    if params1.homogeneous != params2.homogeneous:
        raise ParamMismatch("homogeneity flags must agree")
    if params1.p <= 1.0 or params2.p <= 1.0:
        raise ParamMismatch("product rule needs p_1, p_2 > 1")
    p = 1.0 / (1.0 / params1.p + 1.0 / params2.p)
    if p < 1.0:
        raise ParamMismatch(f"derived p = {p:g} < 1")
    q = derived_reciprocal(params1.q, params2.q)
    kr = params1.krange if params1.krange is not None else params2.krange
    return HerzSpaceParams(
        alpha=_combine_alpha(params1.alpha, params2.alpha),
        p=p,
        q=q,
        theta=params1.theta,
        lambda_morrey=params1.lambda_morrey + params2.lambda_morrey,
        homogeneous=params1.homogeneous,
        delta2=params1.delta2,
        krange=kr,
    )


def product_check(f: GridFunction, g: GridFunction, d: Dilation,
                  params1: HerzSpaceParams, params2: HerzSpaceParams) -> dict:
    """||fg|| against ||f|| ||g|| in the derived product space.

    Constant q factors admit the sharp constant 1 (plus roundoff);
    variable factors are recorded without asserting a bound.
    """
    if f.spec != g.spec:
        raise GridMismatch("product_check needs matching grids")
    combined = combine_product_params(params1, params2)
    n1 = herz_morrey_norm(f, d, params1)
    n2 = herz_morrey_norm(g, d, params2)
    n12 = herz_morrey_norm(f * g, d, combined)
    constant_case = params1.q.is_constant and params2.q.is_constant
    return _ratio_record("product", n12, n1 * n2,
                         1.0 + 1e-6 if constant_case else None)


def sum_check(f: GridFunction, g: GridFunction, d: Dilation,
              params: HerzSpaceParams) -> dict:
    """Triangle inequality ratio ||f+g|| / (||f|| + ||g||) <= 1."""
    if f.spec != g.spec:
        raise GridMismatch("sum_check needs matching grids")
    n1 = herz_morrey_norm(f, d, params)
    n2 = herz_morrey_norm(g, d, params)
    n12 = herz_morrey_norm(f + g, d, params)
    return _ratio_record("sum", n12, n1 + n2, 1.0 + 1e-6)
