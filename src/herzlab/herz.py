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

from .dilation import Dilation, annulus_index_map, ball_diameter, per_grid
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
from .grandseq import (_LOG_EPS, GrandSequenceParams, Sequence, _log_partial_norms,
                       grand_seq_norm, partial_sum_sup, sup_over_eps)
from .grid import GridFunction, GridSpec
from .varlebesgue import ExponentFunction, derived_reciprocal, lux_core, luxemburg_norm

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
    window; delta2 may be supplied (the atom checks default to 0.5).
    """

    alpha: ExponentFunction
    p: float
    q: ExponentFunction
    theta: float = 1.0
    lambda_morrey: float = 0.0
    homogeneous: bool = True
    delta2: Optional[float] = None
    krange: Optional[tuple[int, int]] = None

    def __post_init__(self):
        if self.p < 1.0:
            raise BadParams(f"p must be >= 1, got {self.p}")
        if not self.theta > 0:
            raise BadParams(f"theta must be positive, got {self.theta}")
        if self.lambda_morrey < 0:
            raise BadParams("lambda_morrey must be nonnegative")
        if not self.q.in_class_p:
            raise NotInClassP(f"q must be class P, got q^- = {self.q.p_minus:g}")
        if self.delta2 is not None and not (0 < self.delta2 < 1):
            raise BadParams("delta2 must lie in (0, 1)")

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
    """Truncation window: k_max the smallest k with B_k covering the box,
    k_min the largest k whose ball diameter is under 4 grid cells."""
    corners = _box_corners(spec)
    k_max = 0
    while not np.all(d.ball_contains(corners, k_max)):
        k_max += 1
    while k_max > 0 and np.all(d.ball_contains(corners, k_max - 1)):
        k_max -= 1
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
    return f.where(_slice_mask(annulus_index_map(d, f.spec), k, nonhomogeneous))


def _slice_mask(idx: np.ndarray, k: int, nonhomogeneous: bool) -> np.ndarray:
    """The cells of C_k (of B_0 for k = 0 when nonhomogeneous)."""
    return idx <= -1 if nonhomogeneous and k == 0 else idx == k - 1


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
    ks = np.arange(k_min, k_max + 1)

    idx = annulus_index_map(d, spec).reshape(-1)
    vals = np.abs(f.values).reshape(-1)

    cell_k = idx + 1  # x in C_k with k = annulus_index + 1
    if not params.homogeneous:
        cell_k = np.maximum(cell_k, 0)

    # weights only matter inside the window; clip before exponentiating so
    # the origin sentinel cannot produce inf * 0
    safe_k = np.clip(cell_k, k_min, k_max)
    if split:
        scalar = np.where(safe_k < 0, params.alpha.at_origin,
                          params.alpha.at_infinity)
        weights = np.power(d.b, safe_k * scalar)
    else:
        weights = np.power(d.b, safe_k * params.alpha.on_grid(spec).reshape(-1))
    with np.errstate(over="ignore"):
        wvals = vals * weights
    if not np.all(np.isfinite(wvals)):
        raise NormOverflow("a weighted sample b^{k alpha} |f| exceeds the float range")

    # cells outside the window are zeroed, and zeros add nothing to the
    # annulus they are clipped into
    in_window = (cell_k >= k_min) & (cell_k <= k_max)
    t = lux_core(np.where(in_window, wvals, 0.0),
                 params.q.on_grid(spec).reshape(-1), spec.cell_volume,
                 safe_k - k_min, len(ks))
    return ks, t


def _tail_bound(f: GridFunction, d: Dilation, params: HerzSpaceParams,
                k_min: int) -> float:
    """Geometric surrogate for the dropped scales k < k_min (homogeneous).

    Per-term bound: t_k <= cap * b^{k (alpha_low + 1/q^+)} with cap the
    sup of |f| on the smallest resolvable ball.  Raises TailUnbounded
    when alpha(0) + 1/q^- <= 0 makes the true tail non-summable.
    """
    rate_spec = params.alpha.at_origin + 1.0 / params.q.p_minus
    if rate_spec <= 0:
        raise TailUnbounded(
            f"alpha(0) + 1/q^- = {rate_spec:g} <= 0: scale tail diverges")
    idx = annulus_index_map(d, f.spec)
    inner = idx <= k_min - 1  # cells of B_{k_min}
    if np.any(inner):
        cap = float(np.max(np.abs(f.values)[inner]))
        alpha_low = float(np.min(params.alpha.on_grid(f.spec)[inner]))
    else:
        cap = float(np.max(np.abs(f.values)))
        alpha_low = min(params.alpha.at_origin, params.alpha.at_infinity)
    if cap == 0.0:
        return 0.0
    rate = alpha_low + 1.0 / params.q.p_plus
    if rate <= 0:
        return math.inf
    return cap * d.b ** ((k_min - 1) * rate) / (1.0 - d.b ** (-rate))


# --- the norms --------------------------------------------------------------

def grand_herz_norm(f: GridFunction, d: Dilation,
                    params: HerzSpaceParams) -> tuple[float, float]:
    """Grand Herz norm of f and the truncation tail bound.

    Homogeneous: grand sequence norm of the weighted slice norms over
    the k window, plus the geometric bound for the dropped scales.
    Non-homogeneous: the k >= 0 sum with B_0 as the 0-th slice (no tail).
    """
    ks, t = slice_norms(f, d, params)
    norm = grand_seq_norm(Sequence(t, offset=int(ks[0])), params.seq_params())
    tail = _tail_bound(f, d, params, int(ks[0])) if params.homogeneous else 0.0
    return norm, tail


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
    ks, t = slice_norms(f, d, params, split=True)
    if params.lambda_morrey == 0:
        return grand_seq_norm(Sequence(t, offset=int(ks[0])),
                              params.seq_params())
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

    def log_value(log_eps: np.ndarray) -> np.ndarray:
        total = _log_partial_norms(log_eps, log_t_nonneg, p, theta)[:, pos]
        if np.any(neg):
            a_neg = _log_partial_norms(log_eps, log_t[neg], p, theta)[:, -1:]
            total = np.logaddexp(a_neg, total)
        return np.max(log_w[pos] + total, axis=-1)

    log_sup, _ = sup_over_eps(log_value, _LOG_EPS)
    if math.isfinite(log_sup):
        try:
            value = max(value, math.exp(log_sup))
        except OverflowError:
            value = math.inf
    # eps -> infinity limit of branch 2: per-piece sup norms
    m_neg = float(np.max(t[neg], initial=0.0))
    prefmax = np.maximum.accumulate(np.where(neg, 0.0, t))
    with np.errstate(over="ignore"):
        limit = float(np.max(np.exp(log_w[pos]) * (m_neg + prefmax[pos])))
    value = max(value, limit)
    if not math.isfinite(value):
        raise NormOverflow("a split Morrey norm exceeds the float range")
    return value


def herz_morrey_norm(f: GridFunction, d: Dilation,
                     params: HerzSpaceParams) -> float:
    """Grand Herz-Morrey norm; lambda_morrey = 0 reduces exactly to the
    grand Herz norm."""
    ks, t = slice_norms(f, d, params)
    log_w = -params.lambda_morrey * math.log(d.b) * ks  # log b^{-L lam}
    return partial_sum_sup(t, params.seq_params(), log_w)[0]


def herz_norm_report(f: GridFunction, d: Dilation, params: HerzSpaceParams,
                     space: str = "herz") -> dict:
    """Full record for CLI output: norm, tail bound, per-k terms, argmaxes."""
    if space == "nonhomog" and params.homogeneous:
        params = replace(params, homogeneous=False)
    ks, t = slice_norms(f, d, params)
    lam = params.lambda_morrey if space == "herz-morrey" else 0.0
    norm, arg_eps, arg_pos = partial_sum_sup(
        t, params.seq_params(), -lam * math.log(d.b) * ks)
    arg_l = int(ks[arg_pos]) if space == "herz-morrey" else None
    tail = _tail_bound(f, d, params, int(ks[0])) if params.homogeneous else 0.0
    return {
        "space": space,
        "norm": norm,
        "tail_bound": tail,
        "per_k_terms": {int(k): float(v) for k, v in zip(ks, t)},
        "argmax_eps": arg_eps,
        "argmax_L": arg_l,
    }


# --- central-block decomposition ---------------------------------------------

@dataclass(frozen=True)
class BlockDecomposition:
    """Coefficients lambda_k with per-annulus blocks b_k (supp in B_k)."""

    coefficients: Sequence
    blocks: dict
    params: HerzSpaceParams

    def block_indices(self) -> list[int]:
        return sorted(self.blocks)


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
    idx = annulus_index_map(d, f.spec)
    blocks = {}
    for i, k in enumerate(ks):
        if t[i] > 0:
            mask = _slice_mask(idx, k, not params.homogeneous)
            blocks[int(k)] = f.where(mask) * (1.0 / t[i])
    return BlockDecomposition(
        coefficients=Sequence(t, offset=int(ks[0])),
        blocks=blocks,
        params=params,
    )


def block_reconstruct(dec: BlockDecomposition) -> GridFunction:
    """Pointwise sum sum_k lambda_k b_k (zero function when empty)."""
    ks = dec.block_indices()
    if not ks:
        raise ZeroFunction("decomposition has no blocks")
    spec = dec.blocks[ks[0]].spec
    total = np.zeros(spec.shape)
    offset = dec.coefficients.offset
    coeffs = dec.coefficients.values
    for k in ks:
        blk = dec.blocks[k]
        if blk.spec != spec:
            raise GridMismatch("blocks live on different grids")
        total = total + coeffs[k - offset] * blk.values
    return GridFunction(spec, total)


def central_conditions(g: GridFunction, k: int, d: Dilation,
                       params: HerzSpaceParams, restricted: bool = False):
    """Conditions shared by central blocks and atoms.

    Returns (support_ok, q_norm, bound, norm_ok, restricted_ok): support
    in B_k, ||g||_{q(.)} <= bound = b^{-k alpha_k} (alpha(0) below scale
    0, alpha_inf above) and, for restricted type, k >= 0.
    """
    idx = annulus_index_map(d, g.spec)
    support_ok = not np.any(g.values[idx >= k] != 0.0)  # idx >= k: outside B_k
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
    if n1 * n2 == 0.0:
        return {"check": "product", "ratio": 0.0, "degenerate": True,
                "bound": 1.0 + 1e-6 if constant_case else None, "pass": True}
    ratio = n12 / (n1 * n2)
    bound = 1.0 + 1e-6 if constant_case else None
    return {
        "check": "product",
        "ratio": ratio,
        "degenerate": False,
        "bound": bound,
        "pass": bool(ratio <= bound) if bound is not None else None,
    }


def sum_check(f: GridFunction, g: GridFunction, d: Dilation,
              params: HerzSpaceParams) -> dict:
    """Triangle inequality ratio ||f+g|| / (||f|| + ||g||) <= 1."""
    if f.spec != g.spec:
        raise GridMismatch("sum_check needs matching grids")
    n1 = herz_morrey_norm(f, d, params)
    n2 = herz_morrey_norm(g, d, params)
    n12 = herz_morrey_norm(f + g, d, params)
    if n1 + n2 == 0.0:
        return {"check": "sum", "ratio": 0.0, "degenerate": True,
                "bound": 1.0 + 1e-6, "pass": True}
    ratio = n12 / (n1 + n2)
    return {
        "check": "sum",
        "ratio": ratio,
        "degenerate": False,
        "bound": 1.0 + 1e-6,
        "pass": bool(ratio <= 1.0 + 1e-6),
    }
