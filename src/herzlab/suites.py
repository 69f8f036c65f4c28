"""Named verification suites.

A suite is an ordered table of checks.  A check is a generator function
``(d, spec, rng, cfg)`` of a dilation, a grid, the suite's random
generator and the config that yields its :class:`VerificationReport`
rows; asserted rows decide the exit status, recorded-only rows carry
diagnostics (operator constants, equivalence bands) whose values the
underlying statements do not pin down.  All randomness flows from the
config seed through one random generator per suite, drawn by the checks
in table order.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np

from . import atoms as at
from . import operators as ops
from . import oracles
from .config import SuiteConfig
from .dilation import (
    ORIGIN_INDEX,
    annulus_index_map,
    ball_diameter,
    check_quasi_triangle,
    make_dilation,
)
from .errors import ConfigError, NotExpansive, ReciprocalMismatch
from .grandseq import GrandSequenceParams, Sequence, grand_seq_norm, nesting_report
from .grid import GridFunction, GridSpec, bump_profile, indicator
from .herz import (
    HerzSpaceParams,
    annulus_slice,
    block_decompose,
    block_reconstruct,
    block_validate,
    combine_product_params,
    default_krange,
    grand_herz_norm,
    herz_morrey_norm,
    product_check,
    seq_functional,
    slice_norms,
    split_norm,
    sum_check,
)
from .reports import VerificationReport, digest
from .varlebesgue import (
    ExponentFunction,
    ball_norm_product,
    holder_defect,
    log_holder_check,
    luxemburg_norm,
    modular,
    product_norm_check,
    subset_ratio_fit,
)

_MATRICES = {
    "dyadic": np.array([[2.0]]),
    "iso2": 2.0 * np.eye(2),
    "shear": np.array([[2.0, 1.0], [0.0, 2.0]]),
}

_QC = ExponentFunction.constant(2.0)


def _row(check, reference, inputs, measured, bound, passed,
         **kw) -> VerificationReport:
    return VerificationReport(check, reference, digest(inputs), measured,
                              bound, passed, **kw)


def _at_most(check, reference, inputs, bound, **measured) -> VerificationReport:
    """Row asserting that its one measured value is at most ``bound``."""
    (value,) = measured.values()
    return _row(check, reference, inputs, measured, bound, value <= bound)


def _sweep(spec: GridSpec, step: int = 2) -> list[GridSpec]:
    """``spec`` at its resolution divided by, equal to and times ``step``."""
    return [dataclasses.replace(spec, resolution=res) for res in
            (spec.resolution // step, spec.resolution, spec.resolution * step)]


def _worst_ratio(spec: GridSpec, rng, n: int, check) -> float:
    """Largest non-degenerate ``check(f, g)["ratio"]`` over n random pairs."""
    worst = 0.0
    for _ in range(n):
        rep = check(_random_function(spec, rng), _random_function(spec, rng))
        if not rep["degenerate"]:
            worst = max(worst, rep["ratio"])
    return worst


def _random_function(spec: GridSpec, rng) -> GridFunction:
    kind = ("noise", "bump", "shell")[rng.integers(0, 3)]
    if kind == "noise":
        return GridFunction(spec, rng.uniform(-1, 1, spec.shape))
    if kind == "bump":
        c = rng.uniform(-spec.radius / 2, spec.radius / 2, size=spec.dim)
        wdt = rng.uniform(spec.radius / 8, spec.radius / 2)
        return GridFunction(spec, bump_profile(
            np.sum((spec.points() - c) ** 2, axis=-1) / wdt**2))
    lo = rng.uniform(0, spec.radius / 2)
    hi = lo + rng.uniform(spec.radius / 16, spec.radius / 2)
    r = spec.radii()
    return indicator(spec, (r >= lo) & (r < hi))


# --------------------------------------------------------------------------
# geometry

def _geometry_examples(d, spec, rng, cfg):
    halfwidth = math.sqrt(d.radius_squared / d.ellipsoid_form[0, 0])
    ok = (d.b == 2.0 and d.w == 1 and abs(halfwidth - 0.5) < 1e-12)
    try:
        make_dilation([[1.0]])
        ok = False
    except NotExpansive:
        pass
    ok = ok and make_dilation(2.0 * np.eye(2)).b == 4.0
    yield _row("geometry.examples",
               "dyadic interval gives b=2, w=1, unit cell (-1/2,1/2); "
               "eigenvalue magnitude 1 rejected; isotropic doubling gives b=4",
               {"seed": cfg.seed}, {"halfwidth": halfwidth, "w": d.w}, None, ok)


def _geometry_matrix(d, spec, rng, cfg):
    """Quasi-triangle, homogeneity, nesting and ball-measure rows of one
    of the named matrices."""
    name = next(k for k, mat in _MATRICES.items() if np.array_equal(mat, d.matrix))
    xs = rng.uniform(-4, 4, size=(10_000, d.dim))
    ys = rng.uniform(-4, 4, size=(10_000, d.dim))
    rep = check_quasi_triangle(d, xs, ys)
    yield _row(f"geometry.quasi_triangle.{name}",
               "rho(x+y) <= b^w (rho(x) + rho(y)) over seeded pairs",
               {"seed": cfg.seed, "matrix": name},
               {"max_ratio": rep["max_ratio"]}, rep["bound"], rep["pass"])

    pts = rng.uniform(-2, 2, size=(1000, d.dim))
    pts = pts[np.any(np.abs(pts) > 1e-9, axis=1)]
    exact = np.array_equal(d.annulus_index(pts @ d.matrix.T),
                           d.annulus_index(pts) + 1)
    yield _row(f"geometry.homogeneity.{name}",
               "rho(Ax) = b rho(x) exactly via index arithmetic",
               {"seed": cfg.seed, "matrix": name}, {"exact": exact}, None,
               bool(exact))

    gpts = spec.points().reshape(-1, d.dim)
    nested = all(not np.any(d.ball_contains(gpts, k) & ~d.ball_contains(gpts, k + 1))
                 for k in range(-3, 3))
    yield _row(f"geometry.nesting.{name}",
               "membership in B_k implies membership in B_{k+1}",
               {"matrix": name}, {"nested": nested}, None, bool(nested))

    specs = _sweep(spec, 2 if d.dim == 2 else 4)
    errs = []
    for mspec in specs:
        gp = mspec.points().reshape(-1, d.dim)
        worst_k = 0.0
        for k in (-1, 0, 1):
            mask = d.ball_contains(gp, k)
            meas = float(np.count_nonzero(mask)) * mspec.cell_volume
            worst_k = max(worst_k, abs(meas / d.b ** k - 1.0))
        errs.append(worst_k)
    tol = 2e-2
    # a coarse grid can hit the measure exactly; require the finest
    # error under tolerance and no systematic growth
    ok = errs[-1] <= tol and (errs[-1] <= errs[0] or errs[0] <= tol)
    yield _row(f"geometry.ball_measure.{name}",
               "grid-measured |B_k| / b^k approaches 1 with resolution",
               {"matrix": name, "resolutions": [s.resolution for s in specs]},
               {"errors": errs}, tol, ok)


# --------------------------------------------------------------------------
# lebesgue

def _lebesgue_luxemburg_two_piece(d, spec, rng, cfg):
    orc = oracles.luxemburg_two_piece()
    x = spec.points()[..., 0]
    f = GridFunction(spec, ((x >= 0) & (x < 2)).astype(float))
    pfun = ExponentFunction.custom(
        fn=lambda pts: np.where(pts[..., 0] < 1.0, 2.0, 4.0),
        p_minus=2.0, p_plus=4.0, at_origin=2.0, at_infinity=4.0,
        name="two-piece")
    val = luxemburg_norm(f, pfun)
    yield _row("lebesgue.luxemburg_two_piece",
               "two-piece modular solves to the algebraic root level",
               {"seed": cfg.seed}, {"norm": val, "oracle": orc["norm"]},
               1e-6, abs(val - orc["norm"]) <= 1e-6)


def _lebesgue_const_agreement(d, spec, rng, cfg):
    worst = 0.0
    for _ in range(20):
        g = _random_function(spec, rng)
        for p in (1.5, 2.0, 4.0):
            pf = ExponentFunction.constant(p)
            top = g.sup()  # the oracle takes max-scaled samples
            a = top * oracles.luxemburg_bisect(np.abs(g.values) / top,
                                               pf.on_grid(spec), spec.cell_volume)
            b = luxemburg_norm(g, pf)
            worst = max(worst, abs(a - b) / max(b, 1e-300)
                        if b > 0 else abs(a - b))
    yield _at_most("lebesgue.const_agreement",
                   "bisection equals the closed form for constant exponents",
                   {"seed": cfg.seed}, 1e-8, worst=worst)


def _lebesgue_homogeneity(d, spec, rng, cfg):
    worst_h = worst_m = worst_mono = 0.0
    plog = ExponentFunction.log_family(2.0, 3.0)
    for _ in range(25):
        g = _random_function(spec, rng)
        c = float(rng.uniform(0.1, 10))
        n1 = luxemburg_norm(g, plog)
        worst_h = max(worst_h, abs(luxemburg_norm(g * c, plog) - c * n1)
                      / max(c * n1, 1e-300) if n1 > 0 else 0.0)
        if n1 > 0:
            worst_m = max(worst_m, abs(modular(g, n1, plog) - 1.0))
        shrunk = GridFunction(spec, g.values * rng.uniform(0, 1, spec.shape))
        worst_mono = max(worst_mono, luxemburg_norm(shrunk, plog) - n1)
    yield _at_most("lebesgue.homogeneity",
                   "Luxemburg norm is absolutely homogeneous",
                   {"seed": cfg.seed}, 1e-9, worst=worst_h)
    yield _at_most("lebesgue.unit_modular", "modular at the norm level equals 1",
                   {"seed": cfg.seed}, 1e-8, worst=worst_m)
    yield _at_most("lebesgue.monotone", "pointwise domination is norm monotone",
                   {"seed": cfg.seed}, 1e-12, worst=worst_mono)


def _lebesgue_holder_defect(d, spec, rng, cfg):
    min_defect = math.inf
    n_pairs = 0
    for fam in cfg.exponent_families():
        if not fam.in_class_p:
            continue
        for _ in range(200):
            a = _random_function(spec, rng)
            b = _random_function(spec, rng)
            min_defect = min(min_defect, holder_defect(a, b, fam))
            n_pairs += 1
    yield _row("lebesgue.holder_defect",
               "generalized Hölder with r_p = 1 + 1/p^- - 1/p^+ never "
               "undershoots the pairing",
               {"seed": cfg.seed, "pairs": n_pairs, "families": cfg.families},
               {"min_defect": min_defect}, -1e-6, min_defect >= -1e-6)


def _lebesgue_ball_product_const(d, spec, rng, cfg):
    """For constant p both norms of chi_{B_k} are closed forms in its grid
    measure m h^n, (m h^n)^{1/p} and (m h^n)^{1/p'}, so their product is
    m h^n up to rounding on any grid; how far m h^n lies from b^k is the
    grid's ball measure, recorded only."""
    worst = unit_dev = 0.0
    for k in range(-3, 4):
        # a box whose half-width is the largest semiaxis holds B_k
        bspec = dataclasses.replace(spec, radius=ball_diameter(d, k) / 2)
        cells = int(np.count_nonzero(annulus_index_map(d, bspec) <= k - 1))
        ratio = d.b ** k / (cells * bspec.cell_volume)
        for p in (1.5, 2.0, 4.0):
            product = ball_norm_product(d, k, ExponentFunction.constant(p), bspec)
            worst = max(worst, abs(product * ratio - 1.0))
            unit_dev = max(unit_dev, abs(product - 1.0))
    yield _row("lebesgue.ball_product_const",
               "norm product of the ball indicator equals its grid measure "
               "for constant exponents",
               {"ks": [-3, 3]}, {"worst": worst, "unit_dev": unit_dev}, 1e-12,
               worst <= 1e-12, note="unit_dev = max |product - 1| recorded only")


def _lebesgue_ball_product_log(d, spec, rng, cfg):
    plog = ExponentFunction.log_family(2.0, 3.0)
    products = [max(ball_norm_product(d, k, plog, pspec) for k in range(-3, 4))
                for pspec in _sweep(spec)]
    stable = max(products) <= 2.0 and \
        abs(products[-1] - products[-2]) <= 0.1 * products[-1]
    yield _row("lebesgue.ball_product_log",
               "norm product stays bounded over scales for the log family",
               {"family": plog.name}, {"max_products": products}, 2.0, stable)


def _lebesgue_subset_fit(d, spec, rng, cfg):
    results = {}
    ok = True
    for key, q, expect in (("q=2", _QC, 0.5),
                           ("q=4", ExponentFunction.constant(4.0), 0.75),
                           ("log degenerate", ExponentFunction.log_family(2.0, 2.0), 0.5)):
        _, results[key] = subset_ratio_fit(d, q, range(-3, 4), spec)
        ok = ok and abs(results[key] - expect) <= 1e-3
    yield _row("lebesgue.subset_fit",
               "fitted ball-ratio exponent delta_2 matches 1 - 1/q for "
               "constant q",
               {"ks": [-3, 3]}, results, 1e-3, ok)


def _lebesgue_product_norm(d, spec, rng, cfg):
    q3, r6 = ExponentFunction.constant(3.0), ExponentFunction.constant(6.0)
    worst = _worst_ratio(spec, rng, 500,
                         lambda a, b: product_norm_check(a, b, q3, r6))
    one = GridFunction(spec, np.ones(spec.shape))
    try:
        product_norm_check(one, one, _QC, _QC)
        mismatch_ok = False
    except ReciprocalMismatch:
        mismatch_ok = True
    yield _row("lebesgue.product_norm",
               "reciprocal-exponent products obey the constant-1 bound for "
               "constant exponents; the class-P edge is rejected",
               {"seed": cfg.seed}, {"max_ratio": worst,
                                    "edge_rejected": mismatch_ok},
               1.0 + 1e-6, worst <= 1.0 + 1e-6 and mismatch_ok)


def _lebesgue_log_holder(d, spec, rng, cfg):
    samples = np.concatenate([
        np.geomspace(1e-8, 4.0, 200), -np.geomspace(1e-8, 4.0, 200)
    ])[:, None]
    ok = True
    details = {}
    for fam in (_QC, ExponentFunction.log_family(2.0, 3.0)):
        repf = log_holder_check(fam, samples)
        details[fam.name] = repf["c_origin"]
        ok = ok and repf["pass"]
    step = ExponentFunction.custom(
        fn=lambda pts: np.where(pts[..., 0] < 0, 2.0, 3.0),
        p_minus=2.0, p_plus=3.0, at_origin=3.0, at_infinity=3.0, name="step")
    rep_step = log_holder_check(step, samples)
    details["step"] = rep_step["status"]
    ok = ok and rep_step["status"] == "NotLogHolder"
    yield _row("lebesgue.log_holder",
               "families meet their analytic log-decay constants; a step "
               "through the origin is flagged",
               {"n_samples": len(samples)}, details, None, ok)


# --------------------------------------------------------------------------
# grandseq

def _grandseq_delta_oracle(d, spec, rng, cfg):
    val = grand_seq_norm(Sequence(np.array([1.0])),
                         GrandSequenceParams(p=1.0, theta=1.0))
    ref = oracles.delta_sequence_value(1.0, 1.0)
    yield _row("grandseq.delta_oracle",
               "one-hot grand norm equals the dense-scan stationary value",
               {}, {"value": val, "oracle": ref}, 1e-13, abs(val - ref) <= 1e-13)


def _grandseq_dense_agreement(d, spec, rng, cfg, n_cases=60):
    worst = 0.0
    combos = [(p, theta) for p in (1.0, 2.0, 3.0) for theta in (0.5, 1.0, 2.0)]
    for i in range(n_cases):
        n = int(rng.integers(1, 12))
        vals = rng.uniform(-2, 2, n) * 10.0 ** rng.integers(-3, 4)
        p, theta = combos[i % len(combos)]
        a = grand_seq_norm(Sequence(vals),
                           GrandSequenceParams(p=p, theta=theta))
        b = oracles.grand_seq_dense(vals, p, theta)
        worst = max(worst, abs(a - b) / max(b, 1e-300))
    yield _at_most("grandseq.dense_agreement",
                   "scan-and-refine equals dense brute force over seeded "
                   "sequences",
                   {"seed": cfg.seed, "n": n_cases}, 1e-13, worst_rel=worst)


def _grandseq_homogeneity(d, spec, rng, cfg):
    worst_h = worst_mono = 0.0
    limit_ok = True
    params = GrandSequenceParams(p=2.0, theta=1.0)
    for _ in range(50):
        n = int(rng.integers(1, 10))
        vals = rng.uniform(-2, 2, n)
        seq = Sequence(vals, offset=int(rng.integers(-4, 4)))
        base = grand_seq_norm(seq, params)
        c = float(rng.uniform(0.1, 10))
        if base > 0:
            worst_h = max(worst_h, abs(grand_seq_norm(seq.scale(c), params)
                                       - c * base) / (c * base))
        if n > 1:
            drop = vals.copy()
            drop[rng.integers(0, n)] = 0.0
            worst_mono = max(worst_mono,
                             grand_seq_norm(Sequence(drop), params) - base)
    for j in range(-3, 4):
        seq = Sequence.from_entries({j: 1.0})
        limit_ok = limit_ok and grand_seq_norm(seq, params) >= 1.0
    yield _at_most("grandseq.homogeneity", "grand norm is absolutely homogeneous",
                   {"seed": cfg.seed}, 1e-9, worst=worst_h)
    yield _at_most("grandseq.support_monotone",
                   "zeroing an entry never increases the norm",
                   {"seed": cfg.seed}, 1e-12, worst=worst_mono)
    yield _row("grandseq.sup_limit",
               "the norm dominates the eps -> infinity limit (sup norm)",
               {}, {"ok": limit_ok}, None, limit_ok)


def _grandseq_nesting(d, spec, rng, cfg):
    x = Sequence(0.5 ** np.arange(10))
    rep = nesting_report(x, p=2.0, theta1=1.0, theta2=2.0, eps=0.25, delta=1.0)
    finite = all(math.isfinite(v) for v in rep["ratios"].values())
    scaled = nesting_report(x.scale(2.0), 2.0, 1.0, 2.0, 0.25, 1.0)
    scale_exact = all(
        abs(scaled["norms"][k] - 2.0 * rep["norms"][k]) <= 1e-9 * max(1.0, rep["norms"][k])
        for k in rep["norms"])
    factor_ok = all(e ** 2.0 <= e ** 1.0 for e in (0.1, 0.5, 0.9))
    yield _row("grandseq.nesting",
               "nesting-chain ratios are finite, scale linearly, and the "
               "pointwise eps-factor is theta-monotone below eps = 1",
               {}, {"ratios": rep["ratios"], "scale_exact": scale_exact},
               None, finite and scale_exact and factor_ok,
               note="embedding constants recorded only")


# --------------------------------------------------------------------------
# herz

_HERZ_C = HerzSpaceParams(alpha=ExponentFunction.constant(0.4), p=1.0, q=_QC,
                          theta=1.0)
_HERZ_DEC = HerzSpaceParams(alpha=ExponentFunction.constant(0.3), p=1.5, q=_QC,
                            theta=1.0)


def _seeded_herz_function(spec: GridSpec, d, rng, krange) -> GridFunction:
    """Random function supported on resolvable annuli of the window."""
    idx = annulus_index_map(d, spec)
    kmin, kmax = krange
    vals = np.zeros(spec.shape)
    for k in range(kmin + 2, kmax + 1):
        if rng.uniform() < 0.6:
            amp = float(rng.uniform(-2, 2))
            vals = np.where(idx == k - 1, amp * rng.uniform(0.5, 1.0, spec.shape), vals)
    if not np.any(vals):
        vals = np.where(idx == kmax - 1, 1.0, vals)
    return GridFunction(spec, vals)


def _split_ratios(d, spec, params, norm) -> list[float]:
    """split_norm / norm of the constant 1 over the resolution sweep."""
    ratios = []
    for rspec in _sweep(spec):
        one = GridFunction(rspec, np.ones(rspec.shape))
        direct = norm(one, d, params)
        ratios.append(split_norm(one, d, params) / direct)
    return ratios


def _decomposition_errors(g, d, params, restricted=False):
    """g's decomposition, its round-trip and identity errors, block validity."""
    dec = block_decompose(g, d, params)
    roundtrip = float(np.max(np.abs(block_reconstruct(dec).values - g.values)))
    norm, _ = grand_herz_norm(g, d, params)
    valid = all(block_validate(dec.block(k), k, d, params, restricted=restricted)["pass"]
                for k in dec.block_indices())
    return dec, roundtrip, abs(seq_functional(dec) - norm), valid


def _herz_constant_oracle(d, spec, rng, cfg):
    ref = oracles.constant_herz_reference(b=2.0, alpha=2.0, q=2.0, p=1.0,
                                          theta=1.0)
    params = dataclasses.replace(_HERZ_C, alpha=ExponentFunction.constant(2.0))
    errs = {}
    ok = True
    for res, tol in ((spec.resolution, 0.02), (4 * spec.resolution, 0.005)):
        rspec = dataclasses.replace(spec, resolution=res)
        norm, _ = grand_herz_norm(GridFunction(rspec, np.ones(rspec.shape)),
                                  d, params)
        errs[res] = abs(norm - ref) / ref
        ok = ok and errs[res] <= tol
    yield _row("herz.constant_oracle",
               "unit-ball indicator norm matches the geometric closed form",
               {}, {"rel_errors": errs, "oracle": ref}, 0.02, ok)


def _herz_seeded(d, spec, rng, cfg):
    """Rows that share one seeded function f, its norm and its part at
    scales >= 1; the decomposition draws its functions right after f."""
    f = _seeded_herz_function(spec, d, rng, default_krange(d, spec))
    nc, _ = grand_herz_norm(f, d, _HERZ_C)
    const_ratio = split_norm(f, d, _HERZ_C) / nc
    params_l = dataclasses.replace(
        _HERZ_C, alpha=ExponentFunction.log_family(0.6, 0.3))
    ratios = _split_ratios(d, spec, params_l,
                           lambda g, d, p: grand_herz_norm(g, d, p)[0])
    band_ok = all(0.5 <= r <= 2.0 for r in ratios) and \
        abs(ratios[-1] - ratios[-2]) <= 0.05 * ratios[-1]
    yield _row("herz.split_band",
               "split-constant weights give the identical norm for constant "
               "alpha and a resolution-stable equivalence band for the log "
               "family",
               {"seed": cfg.seed},
               {"const_ratio": const_ratio, "log_ratios": ratios},
               None, abs(const_ratio - 1.0) <= 1e-9 and band_ok)

    m0 = herz_morrey_norm(f, d, _HERZ_C)
    yield _at_most("herz.morrey_reduction",
                   "vanishing Morrey exponent reduces the double sup to "
                   "the grand Herz norm",
                   {}, 1e-12, rel=abs(m0 - nc) / max(nc, 1e-300))

    params_m = dataclasses.replace(_HERZ_C, lambda_morrey=0.1)
    ml = herz_morrey_norm(f, d, params_m)
    ks, tvals = slice_norms(f, d, params_m)
    ref_m = oracles.morrey_double_sup_reference(
        {int(k): float(v) for k, v in zip(ks, tvals)}, d.b, 1.0, 1.0, 0.1)
    yield _at_most("herz.morrey_brute",
                   "Morrey double supremum matches a dense (eps, L) scan",
                   {"lambda": 0.1}, 1e-13,
                   rel=abs(ml - ref_m) / max(ref_m, 1e-300))

    yield from _herz_decomposition(d, spec, rng, cfg)

    g2 = GridFunction(dataclasses.replace(spec, resolution=2 * spec.resolution),
                      np.repeat(f.values, 2))
    n2, _ = grand_herz_norm(g2, d, _HERZ_C)
    yield _at_most("herz.reslice_stability",
                   "re-slicing at doubled resolution moves the norm by "
                   "under 2%",
                   {}, 0.02, drift=abs(n2 - nc) / nc)

    outer = GridFunction(spec, np.where(annulus_index_map(d, spec) >= 0,
                                        f.values, 0.0))
    lam_grid = [0.0, 0.05, 0.1, 0.2, 0.4]
    norms = [herz_morrey_norm(outer, d,
                              dataclasses.replace(_HERZ_C, lambda_morrey=lam))
             for lam in lam_grid]
    mono = all(b <= a * (1 + 1e-12) for a, b in zip(norms, norms[1:]))
    yield _row("herz.lambda_monotone",
               "Morrey norm is nonincreasing in lambda for mass at "
               "scales >= 1",
               {"lams": lam_grid}, {"norms": norms}, None, mono,
               note="general supports recorded only")

    same = all(np.array_equal(annulus_slice(outer, d, k).values,
                              annulus_slice(outer, d, k, nonhomogeneous=True).values)
               for k in range(1, 3))
    yield _row("herz.nonhomog_consistency",
               "homogeneous and non-homogeneous slices agree at scales "
               ">= 1",
               {}, {"same": same}, None, same)


def _herz_decomposition(d, spec, rng, cfg):
    worst_rt = worst_id = 0.0
    blocks_ok = True
    krange = default_krange(d, spec)
    for _ in range(50):
        g = _seeded_herz_function(spec, d, rng, krange)
        _, roundtrip, identity, valid = _decomposition_errors(g, d, _HERZ_DEC)
        worst_rt = max(worst_rt, roundtrip)
        worst_id = max(worst_id, identity)
        blocks_ok = blocks_ok and valid
    yield _row("herz.decomposition",
               "canonical block decomposition reconstructs pointwise and its "
               "coefficient functional reproduces the norm; every block "
               "meets the central-block bound",
               {"seed": cfg.seed, "n": 50},
               {"worst_roundtrip": worst_rt, "worst_identity": worst_id,
                "blocks_ok": blocks_ok},
               1e-9, worst_rt <= 1e-12 and worst_id <= 1e-9 and blocks_ok)


def _herz_split_morrey_band(d, spec, rng, cfg):
    ratios = _split_ratios(d, spec,
                           dataclasses.replace(_HERZ_C, lambda_morrey=0.1),
                           herz_morrey_norm)
    band_ok = all(1.0 - 1e-9 <= r <= 2.0 + 1e-9 for r in ratios) and \
        abs(ratios[-1] - ratios[-2]) <= 0.05 * ratios[-1]
    yield _row("herz.split_morrey_band",
               "split Morrey form stays within its two-branch band of the "
               "direct double sup, stable across resolutions",
               {"lambda": 0.1}, {"ratios": ratios}, 2.0, band_ok)


def _herz_nonhomog_decomposition(d, spec, rng, cfg):
    g = _random_function(spec, rng)
    dec, roundtrip, identity, restricted_ok = _decomposition_errors(
        g, d, dataclasses.replace(_HERZ_DEC, homogeneous=False),
        restricted=True)
    ok = roundtrip <= 1e-12 and identity <= 1e-9 and restricted_ok \
        and min(dec.block_indices()) >= 0
    yield _row("herz.nonhomog_decomposition",
               "restricted-type decomposition reconstructs and reproduces "
               "the non-homogeneous norm",
               {"seed": cfg.seed}, {"roundtrip": roundtrip, "identity": identity},
               1e-9, ok)


# --------------------------------------------------------------------------
# algebra

_ALGEBRA_SUM = HerzSpaceParams(alpha=ExponentFunction.constant(0.3), p=2.0,
                               q=_QC, theta=1.0, lambda_morrey=0.05)
_ALGEBRA_P1 = HerzSpaceParams(alpha=ExponentFunction.constant(0.2), p=3.0,
                              q=ExponentFunction.constant(4.0), theta=1.0,
                              lambda_morrey=0.05)
_ALGEBRA_P2 = dataclasses.replace(_ALGEBRA_P1, alpha=ExponentFunction.constant(0.1),
                                  lambda_morrey=0.03)


def _algebra_sum(d, spec, rng, cfg):
    worst = _worst_ratio(spec, rng, 500,
                         lambda f, g: sum_check(f, g, d, _ALGEBRA_SUM))
    yield _at_most("algebra.sum",
                   "triangle inequality for the Morrey norm with constant 1",
                   {"seed": cfg.seed, "n": 500}, 1.0 + 1e-6, max_ratio=worst)


def _algebra_product(d, spec, rng, cfg):
    worst = _worst_ratio(
        spec, rng, 500,
        lambda f, g: product_check(f, g, d, _ALGEBRA_P1, _ALGEBRA_P2))
    yield _at_most("algebra.product",
                   "product norms factor with constant 1 for constant "
                   "exponents",
                   {"seed": cfg.seed, "n": 500}, 1.0 + 1e-6, max_ratio=worst)


def _algebra_product_m3(d, spec, rng, cfg):
    p6 = HerzSpaceParams(alpha=ExponentFunction.constant(0.1), p=6.0,
                         q=ExponentFunction.constant(6.0), theta=1.0)
    p123 = combine_product_params(combine_product_params(p6, p6), p6)
    worst = 0.0
    for _ in range(100):
        fs = [_random_function(spec, rng).abs() for _ in range(3)]
        n_all = herz_morrey_norm(fs[0] * fs[1] * fs[2], d, p123)
        denom = math.prod(herz_morrey_norm(fi, d, p6) for fi in fs)
        if denom > 0:
            worst = max(worst, n_all / denom)
    yield _at_most("algebra.product_m3",
                   "three-factor products obey the iterated constant-1 bound",
                   {"seed": cfg.seed, "n": 100}, 1.0 + 1e-6, max_ratio=worst)


def _algebra_degenerate(d, spec, rng, cfg):
    f = _random_function(spec, rng)
    zero = GridFunction(spec, np.zeros(spec.shape))
    cancel = sum_check(f, -1.0 * f, d, _ALGEBRA_SUM)
    prod_zero = product_check(f, zero, d, _ALGEBRA_P1, _ALGEBRA_P2)
    both_zero = sum_check(zero, zero, d, _ALGEBRA_SUM)
    ok = cancel["ratio"] == 0.0 and prod_zero["degenerate"] and \
        both_zero["degenerate"]
    yield _row("algebra.degenerate",
               "cancellation and zero inputs report degenerate passes",
               {}, {"cancel_ratio": cancel["ratio"]}, None, ok)


# --------------------------------------------------------------------------
# operators

def _probes(d, spec):
    """The three operator probes: cumulative, truncated kernel, maximal."""
    kr = default_krange(d, spec)
    return (lambda u: ops.hardy_apply(u, d),
            lambda u: ops.truncated_riesz_apply(u, d, 0.25),
            lambda u: ops.maximal_apply(u, d, kr))


def _operators_sublinearity(d, spec, rng, cfg):
    probes = _probes(d, spec)
    worst = 0.0
    for _ in range(20):
        f = _random_function(spec, rng)
        g = _random_function(spec, rng)
        for apply_fn in probes:
            lhs = np.abs(apply_fn(f + g).values)
            rhs = np.abs(apply_fn(f).values) + np.abs(apply_fn(g).values)
            worst = max(worst, float(np.max(lhs - rhs)))
    yield _at_most("operators.sublinearity",
                   "all probes are pointwise sublinear", {"seed": cfg.seed},
                   1e-9, worst_excess=worst)


def _operators_homogeneity(d, spec, rng, cfg):
    f = _random_function(spec, rng)
    c = 3.25
    worst = 0.0
    for apply_fn in _probes(d, spec):
        worst = max(worst, float(np.max(np.abs(
            apply_fn(f * c).values - c * apply_fn(f).values))))
    yield _at_most("operators.homogeneity",
                   "probes scale linearly (absolutely for the maximal "
                   "average)", {}, 1e-9, worst=worst)


def _operators_size_hardy(d, spec, rng, cfg):
    idx = annulus_index_map(d, spec)
    nz = idx != ORIGIN_INDEX
    rho_vals = d.rho_of_index(idx)
    worst_h = 0.0
    for _ in range(10):
        f = _random_function(spec, rng)
        hf = ops.hardy_apply(f, d)
        bound = f.l1() / np.where(nz, rho_vals, 1.0)
        worst_h = max(worst_h, float(np.max(np.abs(hf.values[nz]) - bound[nz])))
    yield _at_most("operators.size_hardy",
                   "cumulative operator obeys |Hf| <= ||f||_1 / rho "
                   "everywhere",
                   {"seed": cfg.seed}, 1e-12, worst_excess=worst_h)


def _operators_size_riesz(d, spec, rng, cfg):
    f = _random_function(spec, rng)
    tf = ops.truncated_riesz_apply(f, d, 0.25)
    pts = spec.points()
    sample_ix = rng.integers(0, spec.resolution, 100)
    worst_r = 0.0
    for i in sample_ix:
        diffs = pts - pts[i]
        nzd = np.abs(diffs[..., 0]) > 0
        rr = np.zeros(spec.shape)
        rr[nzd] = d.rho(diffs[nzd])
        integrand = np.where(rr > 0, np.abs(f.values) / np.where(rr > 0, rr, 1.0), 0.0)
        bound = float(np.sum(integrand) * spec.cell_volume)
        worst_r = max(worst_r, abs(tf.values[i]) - bound)
    yield _at_most("operators.size_riesz",
                   "truncated kernel output is dominated by the full 1/rho "
                   "integral at sampled points",
                   {"seed": cfg.seed, "n_x": 100}, 1e-9, worst_excess=worst_r)


def _operators_identity_ratio(d, spec, rng, cfg):
    params = HerzSpaceParams(alpha=ExponentFunction.constant(0.25), p=1.0,
                             q=_QC, theta=1.0, delta2=0.5)
    ident = ops.OperatorSpec(kind="identity")
    vals = [ops.op_ratio(ident, _random_function(spec, rng), d, params)
            for _ in range(10)]
    yield _row("operators.identity_ratio",
               "identity operator has norm ratio exactly 1", {},
               {"vals": vals}, None, all(v == 1.0 for v in vals))


def _operators_hardy_sweep(d, spec, rng, cfg):
    """The Hardy sweep and the maximal comparison share the seed functions."""
    x = spec.points()[..., 0]
    seeds = [
        GridFunction(spec, (np.abs(x) < 0.5).astype(float)),
        GridFunction(spec, np.exp(-8 * x**2)),
        GridFunction(spec, ((np.abs(x) >= 0.5) & (np.abs(x) < 1.0)).astype(float)),
    ]
    hardy = ops.OperatorSpec(kind="hardy")
    small = ops.scale_translate_family(seeds, d, 8, seed=cfg.seed)
    large = ops.scale_translate_family(seeds, d, 32, seed=cfg.seed)
    rows_small = ops.boundedness_sweep(hardy, d, cfg.alpha_grid,
                                       cfg.lambda_grid, small, delta2=0.5)
    rows_large = ops.boundedness_sweep(hardy, d, cfg.alpha_grid,
                                       cfg.lambda_grid, large, delta2=0.5)
    admissible_growth = [
        rl["sup_ratio"] / rs["sup_ratio"]
        for rs, rl in zip(rows_small, rows_large) if rs["admissible"]]
    growth = max(admissible_growth) if admissible_growth else 1.0
    yield _row("operators.hardy_sweep",
               "family-sup ratios stay stable inside the admissible region "
               "as the family quadruples",
               {"seed": cfg.seed, "alphas": cfg.alpha_grid,
                "lambdas": cfg.lambda_grid},
               {"growth": growth, "sups": [r["sup_ratio"] for r in rows_large]},
               1.5, growth < 1.5,
               note="cells outside the region are recorded, not asserted")

    kr = default_krange(d, spec)
    mf_a = ops.maximal_apply(seeds[1], d, kr)
    # the isotropic dilation's balls B_k are the round balls of volume b^k
    iso = make_dilation(d.b ** (1 / d.dim) * np.eye(d.dim))
    mf_e = ops.maximal_apply(seeds[1], iso, kr)
    ratio = float(np.max(mf_a.values) / np.max(mf_e.values))
    yield _row("operators.maximal_compare",
               "anisotropic vs Euclidean maximal averages (diagnostic)",
               {}, {"peak_ratio": ratio}, None, None, asserted=False,
               note="variant comparison recorded only")


def _operators_lq_ratio(d, spec, rng, cfg):
    lq = []
    for _ in range(10):
        f = _random_function(spec, rng)
        if f.is_zero():
            continue
        nf = luxemburg_norm(f, _QC)
        lq.append(luxemburg_norm(ops.hardy_apply(f, d), _QC) / nf)
    yield _row("operators.lq_ratio",
               "empirical Lebesgue-norm ratios of the cumulative operator "
               "(recorded next to the Herz ratios)",
               {"seed": cfg.seed}, {"ratios": lq}, None, None,
               asserted=False)


# --------------------------------------------------------------------------
# atoms

_ATOM_PARAMS = HerzSpaceParams(alpha=ExponentFunction.constant(0.6), p=1.0,
                               q=_QC, theta=1.0, delta2=0.5)


def _atoms_make_validate(d, spec, rng, cfg):
    all_ok = True
    made = 0
    for kind, smax in (("haar", 0), ("bump_corrected", 2)):
        for k in (-1, 0, 1, 2):
            for s in range(smax + 1):
                atom = at.atom_make(kind, k, s, d, _ATOM_PARAMS, spec)
                rep = at.atom_validate(atom.data, k, d, _ATOM_PARAMS, s)
                made += 1
                all_ok = all_ok and rep["pass"]
    yield _row("atoms.make_validate",
               "every constructed atom passes validation at its declared "
               "scale and moment order",
               {"n": made}, {"all_ok": all_ok}, None, all_ok)


def _atoms_haar_moment(d, spec, rng, cfg):
    params = dataclasses.replace(_ATOM_PARAMS, alpha=ExponentFunction.constant(0.5))
    haar = at.atom_make("haar", 0, 0, d, params, spec)
    rep0 = at.atom_validate(haar.data, 0, d, _ATOM_PARAMS, 0)
    rep1 = at.atom_validate(haar.data, 0, d, _ATOM_PARAMS, 1)
    moment = rep1["moments"]["1"]
    ok = rep0["pass"] and not rep1["pass"] and abs(moment + 0.25) <= 1e-8
    yield _row("atoms.haar_moment",
               "opposite-halves atom passes order 0 and fails order 1 with "
               "first moment -1/4",
               {}, {"moment": moment}, 1e-8, ok)


def _atoms_mollifier(d, spec, rng, cfg):
    """Rows that share one mollifier phi (the moment-scaling row sits
    between its dilates and its maximal proxy)."""
    params = _ATOM_PARAMS
    phi = at.make_mollifier(d, spec)
    idx = annulus_index_map(d, spec)
    mass_ok = supp_ok = True
    for k in range(-2, 3):
        pk = at.dilate_phi(phi, k)
        mass_ok = mass_ok and abs(pk.integral() - 1.0) <= 1e-6
        supp_ok = supp_ok and not np.any(pk.values[idx >= k] != 0.0)
    yield _row("atoms.dilate_mass",
               "mollifier dilates keep unit mass and support in B_k",
               {}, {"mass_ok": mass_ok, "supp_ok": supp_ok}, 1e-6,
               mass_ok and supp_ok)

    resolutions = [spec.resolution // 2, spec.resolution]
    residuals = []
    for res in resolutions:
        rspec = dataclasses.replace(spec, resolution=res)
        atom = at.atom_make("bump_corrected", 1, 2, d, params, rspec)
        rep = at.atom_validate(atom.data, 1, d, params, 2)
        residuals.append(max(abs(v) for v in rep["moments"].values()))
    yield _row("atoms.moment_scaling",
               "moment residuals do not grow as the grid refines",
               {"resolutions": resolutions}, {"residuals": residuals},
               None, residuals[1] <= max(residuals[0], 1e-12) * 4.0,
               note="projection keeps residuals at rounding level")

    kr = default_krange(d, spec)
    f = _random_function(spec, rng)
    g = _random_function(spec, rng)
    mf = at.radial_maximal(f, phi, kr)
    mg = at.radial_maximal(g, phi, kr)
    mfg = at.radial_maximal(f + g, phi, kr)
    sub = float(np.max(mfg.values - mf.values - mg.values))
    mc = at.radial_maximal(f * 2.5, phi, kr)
    hom = float(np.max(np.abs(mc.values - 2.5 * mf.values)))
    yield _row("atoms.radial_maximal",
               "single-mollifier maximal proxy is sublinear and "
               "absolutely homogeneous",
               {"seed": cfg.seed}, {"sublinear_excess": sub, "homog": hom},
               1e-9, sub <= 1e-9 and hom <= 1e-9,
               note="lower proxy for the seminorm-class maximal function")

    ks = [0, 1, -1]
    atoms = [at.atom_make("bump_corrected", k, 1, d, params, spec) for k in ks]
    ratios = []
    for _ in range(3):
        lam = Sequence(rng.uniform(0.2, 2.0, len(ks)))
        out = at.atomic_sum_check(atoms, lam, params, phi)
        ratios.append(out["ratio"])
        out2 = at.atomic_sum_check(atoms, lam.scale(2.0), params, phi)
        if abs(out2["ratio"] - out["ratio"]) > 1e-9:
            ratios.append(math.inf)
    spread = max(ratios) / min(ratios)
    yield _row("atoms.sum_ratio",
               "atomic-sum maximal ratio is scale-invariant and stable "
               "across seeded coefficient sets",
               {"seed": cfg.seed}, {"ratios": ratios, "spread": spread},
               None, all(math.isfinite(r) for r in ratios) and spread < 10.0,
               note="sufficiency direction with the single-mollifier proxy")


def _atoms_size_condition(d, spec, rng, cfg):
    hardy = ops.OperatorSpec(kind="hardy")
    hatom = at.atom_make("haar", 0, 0, d, _ATOM_PARAMS, spec)
    rep_h = at.size_condition_check(hardy, hatom, d)
    riesz = ops.OperatorSpec(kind="truncated_riesz", cutoff=0.25)
    cs = []
    for k in (-1, 0, 1):
        atom_k = at.atom_make("haar", k, 0, d, _ATOM_PARAMS, spec)
        cs.append(at.size_condition_check(riesz, atom_k, d)["tightest_c"])
    yield _row("atoms.size_condition",
               "far-field quadratic-decay check: cumulative operator gives "
               "exact zeros; truncated-kernel constants recorded over scales",
               {}, {"hardy_far_max": rep_h["far_field_max"],
                    "riesz_cs": cs}, None,
               rep_h["far_field_exact_zero"] and
               all(math.isfinite(c) for c in cs))


def _atoms_min_s(d, spec, rng, cfg):
    s_min = at.min_moment_order(d, _ATOM_PARAMS)
    yield _row("atoms.min_s",
               "minimum admissible moment order from the scale geometry",
               {"alpha": 0.6, "delta2": 0.5}, {"s_min": s_min}, None,
               s_min >= 0,
               note="scalar alpha evaluated at max(alpha(0), alpha_inf)")


# --------------------------------------------------------------------------
# the suites: ordered tables of (check, matrix name, grid) entries

def _on_line(resolution: int | None, *checks, radius: float = 2.0) -> list[tuple]:
    """Entries running ``checks`` on the dyadic line (no grid for None)."""
    spec = None if resolution is None else \
        GridSpec(radius=radius, dim=1, resolution=resolution)
    return [(check, "dyadic", spec) for check in checks]


_SUITES = {
    "geometry": _on_line(None, _geometry_examples) + [
        (_geometry_matrix, name, GridSpec(radius=2.0, dim=len(mat),
                                          resolution=128 if len(mat) == 2 else 1024))
        for name, mat in _MATRICES.items()],
    "lebesgue": _on_line(512, _lebesgue_luxemburg_two_piece,
                         _lebesgue_const_agreement, _lebesgue_homogeneity,
                         _lebesgue_holder_defect, _lebesgue_ball_product_const)
    + _on_line(1024, _lebesgue_ball_product_log, radius=4.0)
    + _on_line(4096, _lebesgue_subset_fit, radius=4.0)
    + _on_line(512, _lebesgue_product_norm) + _on_line(None, _lebesgue_log_holder),
    "grandseq": _on_line(None, _grandseq_delta_oracle, _grandseq_dense_agreement,
                         _grandseq_homogeneity, _grandseq_nesting),
    "herz": _on_line(4096, _herz_constant_oracle, radius=0.5)
    + _on_line(1024, _herz_seeded, _herz_split_morrey_band,
               _herz_nonhomog_decomposition),
    "algebra": _on_line(256, _algebra_sum, _algebra_product, _algebra_product_m3,
                        _algebra_degenerate),
    "operators": _on_line(512, _operators_sublinearity, _operators_homogeneity,
                          _operators_size_hardy, _operators_size_riesz,
                          _operators_identity_ratio, _operators_hardy_sweep,
                          _operators_lq_ratio),
    "atoms": _on_line(2048, _atoms_make_validate)
    + _on_line(2048, _atoms_haar_moment, radius=0.5)
    + _on_line(2048, _atoms_mollifier)
    + _on_line(1024, _atoms_size_condition, radius=4.0)
    + _on_line(None, _atoms_min_s),
}
SUITE_NAMES = tuple(_SUITES)


def _run_table(table, cfg: SuiteConfig) -> list[VerificationReport]:
    """Run the checks in table order on one generator seeded from the
    config.  A row is timed from the previous row of its check, or from
    the check's start, so the rows of a check split its wall time."""
    rng = np.random.default_rng(cfg.seed)
    rows: list[VerificationReport] = []
    for check, matrix, spec in table:
        d = make_dilation(_MATRICES[matrix])
        last = time.monotonic()
        for row in check(d, spec, rng, cfg):
            now = time.monotonic()
            row.seed, row.runtime_s, last = cfg.seed, now - last, now
            rows.append(row)
    return rows


def run_suite(name: str, cfg: SuiteConfig) -> list[VerificationReport]:
    """Run one named suite (or "all"); reports come back in stable order."""
    if not name:
        raise ConfigError("empty suite name")
    if name == "all":
        return sorted((row for suite in SUITE_NAMES
                       for row in _run_table(_SUITES[suite], cfg)),
                      key=lambda r: r.check)
    if name not in _SUITES:
        raise ConfigError(f"unknown suite {name!r}; "
                          f"choose from {', '.join(SUITE_NAMES)} or all")
    return _run_table(_SUITES[name], cfg)
