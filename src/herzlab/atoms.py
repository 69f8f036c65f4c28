"""Central atoms, mollifier dilates and the radial maximal proxy.

A central atom is an annulus-supported function with the central-block
norm bound plus vanishing moments up to order s; the admissible moment
order is floor((alpha - delta_2) log b / log lambda_-), evaluated at
max(alpha(0), alpha_inf) since the threshold is stated for scalar
weights (flagged in every report).

The radial maximal function here uses one fixed smooth mollifier, a
computable LOWER proxy for the grand maximal function over a whole
Schwartz-seminorm class; reports carry that caveat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dilation import (
    Dilation,
    annulus_index_map,
    ball_diameter,
    offset_index_map,
    offset_points,
)
from .errors import (
    IllConditioned,
    InvalidAtom,
    NonZeroMean,
    UnresolvableScale,
    ZeroFunction,
)
from .grandseq import Sequence, grand_seq_norm
from .grid import GridFunction, GridSpec, bump_profile
from .herz import HerzSpaceParams, central_conditions, default_krange, grand_herz_norm
from .operators import OperatorSpec, apply_operator, fft_convolve_valid
from .varlebesgue import luxemburg_norm

__all__ = [
    "Mollifier",
    "Atom",
    "make_mollifier",
    "dilate_phi",
    "radial_maximal",
    "min_moment_order",
    "atom_validate",
    "atom_make",
    "atomic_sum_check",
    "size_condition_check",
]


@dataclass(frozen=True)
class Mollifier:
    """Smooth bump supported in B_0 with unit integral.

    The analytic profile exp(-1/(1 - t^2)) of t = |x|_M / r_0 is kept so
    dilates can be sampled directly at any scale; ``phi`` is the grid
    sampling and ``seminorm_budget`` records finite-difference estimates
    of sup rho(x)^m |d^a phi| for small orders.
    """

    phi: GridFunction
    dilation: Dilation
    normalization: float
    seminorm_budget: dict

    def profile(self, pts: np.ndarray) -> np.ndarray:
        t2 = self.dilation.m_quadform(pts) / self.dilation.radius_squared
        return self.normalization * bump_profile(t2)


def make_mollifier(d: Dilation, spec: GridSpec) -> Mollifier:
    """Build the canonical bump, normalized to unit grid integral."""
    pts = spec.points()
    raw = bump_profile(d.m_quadform(pts) / d.radius_squared)
    mass = float(np.sum(raw) * spec.cell_volume)
    if mass <= 0:
        raise UnresolvableScale("B_0 has no interior cells on this grid")
    norm_const = 1.0 / mass
    vals = norm_const * raw

    # finite-difference seminorm estimates sup rho^m |d^a phi|
    rho_vals = d.rho_of_index(annulus_index_map(d, spec))
    budget = {}
    h = spec.cell_width
    grads = [vals]
    if spec.dim == 1:
        grads.append(np.gradient(vals, h))
        grads.append(np.gradient(grads[1], h))
    else:
        gx, gy = np.gradient(vals, h)
        mag1 = np.hypot(gx, gy)
        gxx = np.gradient(gx, h, axis=0)
        gyy = np.gradient(gy, h, axis=1)
        grads.append(mag1)
        grads.append(np.abs(gxx) + np.abs(gyy))
    for order, g in enumerate(grads):
        for m in range(3):
            budget[(order, m)] = float(np.max(rho_vals**m * np.abs(g)))

    phi = GridFunction(spec, vals)
    return Mollifier(phi=phi, dilation=d, normalization=norm_const,
                     seminorm_budget=budget)


def dilate_phi(phi: Mollifier, d: Dilation, k: int) -> GridFunction:
    """phi_k(x) = b^{-k} phi(A^{-k} x), sampled from the analytic profile.

    Change of variables keeps the integral at 1; the grid must resolve
    supp phi_k = B_k by at least 4 cells across.
    """
    spec = phi.phi.spec
    if ball_diameter(d, k) < 4.0 * spec.cell_width:
        raise UnresolvableScale(f"supp phi_{k} spans fewer than 4 cells")
    pts = spec.points().reshape(-1, spec.dim)
    mapped = pts @ d.inv_power(k).T
    vals = phi.profile(mapped) * d.b ** (-k)
    return GridFunction(spec, vals.reshape(spec.shape))


def radial_maximal(f: GridFunction, phi: Mollifier, d: Dilation,
                   krange: tuple[int, int]) -> GridFunction:
    """max_k |f * phi_k| over resolvable scales (single-mollifier proxy;
    a LOWER bound for the grand maximal function over a seminorm class)."""
    spec = f.spec
    k_lo, k_hi = krange
    h = spec.cell_width
    opts = offset_points(spec)

    best = np.zeros(spec.shape)
    resolvable = False
    for k in range(k_lo, k_hi + 1):
        if ball_diameter(d, k) < 4.0 * h:
            continue
        resolvable = True
        mapped = opts.reshape(-1, spec.dim) @ d.inv_power(k).T
        kernel = (phi.profile(mapped) * d.b ** (-k)).reshape(opts.shape[:-1])
        conv = fft_convolve_valid(f.values, kernel) * spec.cell_volume
        np.maximum(best, np.abs(conv), out=best)
    if not resolvable:
        raise UnresolvableScale("no scale in krange is grid-resolvable")
    return GridFunction(spec, best)


# --- atoms ------------------------------------------------------------------

@dataclass(frozen=True)
class Atom:
    data: GridFunction
    scale_index: int
    moment_order: int
    params: HerzSpaceParams


def min_moment_order(d: Dilation, params: HerzSpaceParams) -> int:
    """Smallest admissible s: floor((alpha - delta_2) log b / log lambda_-),
    clamped to >= 0; alpha enters as max(alpha(0), alpha_inf)."""
    alpha = max(params.alpha.at_origin, params.alpha.at_infinity)
    delta2 = params.delta2 if params.delta2 is not None else 0.5
    raw = (alpha - delta2) * math.log(d.b) / math.log(d.lambda_minus)
    return max(0, math.floor(raw))


def _monomials(pts: np.ndarray, s: int) -> dict:
    """x^beta at points of shape (..., dim) for every multi-index |beta| <= s."""
    out = {}
    for total in range(s + 1):
        betas = ([(total,)] if pts.shape[-1] == 1
                 else [(i, total - i) for i in range(total + 1)])
        for beta in betas:
            mono = np.ones(pts.shape[:-1])
            for axis, e in enumerate(beta):
                if e:
                    mono = mono * pts[..., axis] ** e
            out[beta] = mono
    return out


def _moments(a: GridFunction, s: int) -> dict:
    h = a.spec.cell_volume
    return {beta: float(np.sum(a.values * mono) * h)
            for beta, mono in _monomials(a.spec.points(), s).items()}


def atom_validate(a: GridFunction, k: int, d: Dilation,
                  params: HerzSpaceParams, s: int,
                  restricted: bool = False) -> dict:
    """Central-atom conditions: support, the k-split norm bound, moments
    up to order s, and (optionally) the restricted-type scale bound."""
    if s < 0:
        raise InvalidAtom("moment order must be nonnegative")
    support_ok, q_norm, bound, norm_ok, restricted_ok = central_conditions(
        a, k, d, params, restricted)

    l1 = a.l1()
    moments = _moments(a, s)
    moment_tol = 1e-8 * max(l1, 1e-300)
    moments_ok = all(abs(v) <= moment_tol for v in moments.values())

    s_min = min_moment_order(d, params)
    return {
        "check": "central_atom",
        "k": k,
        "s": s,
        "support_ok": bool(support_ok),
        "q_norm": q_norm,
        "bound": bound,
        "norm_ok": bool(norm_ok),
        "moments": {"".join(map(str, b)): v for b, v in moments.items()},
        "moments_ok": bool(moments_ok),
        "restricted_ok": bool(restricted_ok),
        "min_admissible_s": s_min,
        "s_admissible": bool(s >= s_min),
        "note": "scalar alpha threshold evaluated at max(alpha(0), alpha_inf)",
        "pass": bool(support_ok and norm_ok and moments_ok and restricted_ok),
    }


def atom_make(kind: str, k: int, s: int, d: Dilation,
              params: HerzSpaceParams, spec: GridSpec) -> Atom:
    """Construct a central atom saturating the norm bound.

    kind="haar": opposite-sign indicator halves of B_k (s = 0 only).
    kind="bump_corrected": smooth bump minus its projection onto
    polynomials of degree <= s under the quadrature inner product on
    B_k, then rescaled onto the norm bound.
    """
    if s > 4:
        raise IllConditioned("moment order capped at 4 on desk grids")
    idx = annulus_index_map(d, spec)
    inside = idx <= k - 1
    if not np.any(inside):
        raise UnresolvableScale(f"B_{k} has no cells on this grid")
    pts = spec.points()

    if kind == "haar":
        if s > 0:
            raise InvalidAtom("haar atoms only carry the order-0 moment")
        sign = np.where(pts[..., 0] < 0, 1.0, -1.0)
        raw = np.where(inside, sign, 0.0)
    elif kind == "bump_corrected":
        mapped = pts.reshape(-1, spec.dim) @ d.inv_power(k).T
        bump = bump_profile(d.m_quadform(mapped).reshape(spec.shape) / d.radius_squared)
        bump = np.where(inside, bump, 0.0)
        cells = np.flatnonzero(inside.reshape(-1))
        flat_pts = pts.reshape(-1, spec.dim)[cells]
        v = np.stack(list(_monomials(flat_pts, s).values()), axis=1)
        qmat, _ = np.linalg.qr(v)
        cond = np.linalg.cond(v)
        if not np.isfinite(cond) or cond > 1e12:
            raise IllConditioned(f"moment basis condition number {cond:.2e}")
        flat = bump.reshape(-1).copy()
        target = flat[cells]
        target = target - qmat @ (qmat.T @ target)
        flat[:] = 0.0
        flat[cells] = target
        raw = flat.reshape(spec.shape)
    else:
        raise InvalidAtom(f"unknown atom kind {kind!r}")

    raw_norm = luxemburg_norm(GridFunction(spec, raw), params.q)
    if raw_norm == 0.0:
        raise ZeroFunction("atom template vanished on the grid")
    bound = d.b ** (-k * params.alpha_split(k))
    data = GridFunction(spec, raw * (bound / raw_norm))
    return Atom(data=data, scale_index=k, moment_order=s, params=params)


def atomic_sum_check(atoms: list[Atom], lambdas: Sequence,
                     params: HerzSpaceParams, phi: Mollifier,
                     d: Dilation) -> dict:
    """Sufficiency-direction ratio for atomic sums.

    Forms f = sum lambda_i a_i, computes R = ||M_phi f||_{Herz} /
    ||lambda||_{grand}, where M_phi is the single-mollifier radial
    maximal proxy.  The infimum over decompositions and the necessity
    direction are out of numerical reach and not attempted.
    """
    coeffs = lambdas.values
    if len(atoms) != len(coeffs):
        raise InvalidAtom("one coefficient per atom required")
    for atom in atoms:
        rep = atom_validate(atom.data, atom.scale_index, d, atom.params,
                            atom.moment_order)
        if not rep["pass"]:
            raise InvalidAtom(f"atom at scale {atom.scale_index} fails validation")
    # admissible weight window for the atomic characterization
    delta2 = params.delta2 if params.delta2 is not None else 0.5
    upper = delta2 + math.log(d.lambda_minus) / math.log(d.b)
    admissible = (delta2 <= params.alpha.at_origin < upper
                  and delta2 <= params.alpha.at_infinity < upper)
    denom = grand_seq_norm(lambdas, params.seq_params())
    if denom == 0.0:
        return {"check": "atomic_sum", "ratio": None, "degenerate": True,
                "admissible_weights": admissible,
                "proxy": "single-mollifier radial maximal (lower proxy)",
                "pass": True}
    spec = atoms[0].data.spec
    total = np.zeros(spec.shape)
    for c, atom in zip(coeffs, atoms):
        total = total + c * atom.data.values
    f = GridFunction(spec, total)
    mf = radial_maximal(f, phi, d, default_krange(d, spec))
    numer, _ = grand_herz_norm(mf, d, params)
    return {
        "check": "atomic_sum",
        "ratio": numer / denom,
        "degenerate": False,
        "admissible_weights": admissible,
        "proxy": "single-mollifier radial maximal (lower proxy)",
        "pass": None,  # recorded; stability asserted at suite level
    }


def size_condition_check(t_spec: OperatorSpec, a: Atom, d: Dilation) -> dict:
    """Far-field quadratic-decay constant for mean-zero atoms.

    At grid points whose rho-distance to supp a exceeds the standard
    trigger b^{-w}(1 - 1/b) rho(x), records the tightest C with
    |Ta(x)| <= C ||a||_{L^1} / rho(x)^2.  For the cumulative operator
    the far-field values vanish identically once the support is fully
    captured.
    """
    f = a.data
    spec = f.spec
    l1 = f.l1()
    mean = abs(f.integral())
    if mean > 1e-10 * max(l1, 1e-300):
        raise NonZeroMean(f"atom mean {mean:g} too large for the far-field check")

    tf = apply_operator(t_spec, f, d)
    idx = annulus_index_map(d, spec)
    rho_vals = d.rho_of_index(idx)

    supp = np.flatnonzero(f.values.reshape(-1) != 0.0)
    if supp.size == 0:
        raise ZeroFunction("atom has empty support")

    # rho-distance of every x to the support: the smallest offset index
    # over the pairs (x, y), gathered from the offset map in chunks; the
    # offset x - y sits at flat position pos[x] - pos[y] + centre
    n = spec.resolution
    off = offset_index_map(d, spec).reshape(-1)
    strides = (2 * n - 1) ** np.arange(spec.dim - 1, -1, -1)
    pos = np.indices(spec.shape).reshape(spec.dim, -1).T @ strides
    centre = (n - 1) * int(np.sum(strides))
    nearest = np.empty(pos.size, dtype=off.dtype)
    chunk = max(1, 2_000_000 // supp.size)
    for start in range(0, pos.size, chunk):
        pairs = pos[start:start + chunk, None] - pos[None, supp] + centre
        nearest[start:start + chunk] = np.min(off[pairs], axis=1)
    dist = d.rho_of_index(nearest)

    trigger = d.b ** (-d.w) * (1.0 - 1.0 / d.b) * rho_vals.reshape(-1)
    active = (rho_vals.reshape(-1) > 0) & (dist >= trigger) & (trigger > 0)

    supp_max_idx = int(np.max(idx.reshape(-1)[supp]))
    captured = active & (idx.reshape(-1) >= supp_max_idx)

    tvals = np.abs(tf.values.reshape(-1))
    if np.any(active):
        c_req = tvals[active] * rho_vals.reshape(-1)[active] ** 2 / max(l1, 1e-300)
        c_tightest = float(np.max(c_req))
    else:
        c_tightest = 0.0
    far_max = float(np.max(tvals[captured], initial=0.0)) if np.any(captured) else 0.0
    return {
        "check": "size_condition",
        "operator": t_spec.kind,
        "n_triggered": int(np.count_nonzero(active)),
        "tightest_c": c_tightest,
        "far_field_max": far_max,
        "far_field_exact_zero": bool(far_max == 0.0),
    }
