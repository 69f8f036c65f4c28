"""Named verification suites.

Each suite runs the quantitative checks of one module family and
returns :class:`VerificationReport` rows; asserted rows decide the exit
status, recorded-only rows carry diagnostics (operator constants,
equivalence bands) whose values the underlying statements do not pin
down.  All randomness flows from the config seed.
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
from .dilation import ORIGIN_INDEX, annulus_index_map, check_quasi_triangle, make_dilation
from .errors import ConfigError, NotExpansive, ReciprocalMismatch
from .grandseq import GrandSequenceParams, Sequence, grand_seq_norm, nesting_report
from .grid import GridFunction, GridSpec, bump_profile, indicator
from .herz import (
    HerzSpaceParams,
    block_decompose,
    block_reconstruct,
    block_validate,
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
    _bisect,
    ball_norm_product,
    holder_defect,
    log_holder_check,
    luxemburg_norm,
    modular,
    product_norm_check,
    subset_ratio_fit,
)

SUITE_NAMES = ("geometry", "lebesgue", "grandseq", "herz", "algebra",
               "operators", "atoms")

_MATRICES = {
    "dyadic": np.array([[2.0]]),
    "iso2": 2.0 * np.eye(2),
    "shear": np.array([[2.0, 1.0], [0.0, 2.0]]),
}


class _Recorder:
    """Collects report rows.  Each row is timed from ``t0`` or from the
    previous row, whichever is later, so rows recorded after one shared
    block get disjoint intervals instead of the whole block each."""

    def __init__(self, seed: int):
        self.seed = seed
        self.rows: list[VerificationReport] = []
        self._last = -math.inf

    def add(self, check, reference, inputs, measured, bound, passed,
            t0, asserted=True, note=""):
        now = time.monotonic()
        start, self._last = max(t0, self._last), now
        self.rows.append(VerificationReport(
            check=check, reference=reference, inputs=digest(inputs),
            measured=measured, bound=bound, passed=passed,
            runtime_s=now - start, asserted=asserted, note=note,
            seed=self.seed))


def _random_function(spec: GridSpec, rng, kind: str = "mixed") -> GridFunction:
    x = spec.points()
    r = spec.radii()
    if kind == "noise":
        return GridFunction(spec, rng.uniform(-1, 1, spec.shape))
    if kind == "bump":
        c = rng.uniform(-spec.radius / 2, spec.radius / 2, size=spec.dim)
        wdt = rng.uniform(spec.radius / 8, spec.radius / 2)
        return GridFunction(spec, bump_profile(np.sum((x - c) ** 2, axis=-1) / wdt**2))
    choice = rng.integers(0, 3)
    if choice == 0:
        return _random_function(spec, rng, "noise")
    if choice == 1:
        return _random_function(spec, rng, "bump")
    lo = rng.uniform(0, spec.radius / 2)
    hi = lo + rng.uniform(spec.radius / 16, spec.radius / 2)
    return indicator(spec, (r >= lo) & (r < hi))


# --------------------------------------------------------------------------
# geometry

def geometry_suite(cfg: SuiteConfig) -> list[VerificationReport]:
    rec = _Recorder(cfg.seed)
    rng = np.random.default_rng(cfg.seed)

    t0 = time.monotonic()
    d2 = make_dilation([[2.0]])
    halfwidth = math.sqrt(d2.radius_squared / d2.ellipsoid_form[0, 0])
    ok = (d2.b == 2.0 and d2.w == 1 and abs(halfwidth - 0.5) < 1e-12)
    try:
        make_dilation([[1.0]])
        ok = False
    except NotExpansive:
        pass
    diso = make_dilation(2.0 * np.eye(2))
    ok = ok and diso.b == 4.0
    rec.add("geometry.examples",
            "dyadic interval gives b=2, w=1, unit cell (-1/2,1/2); "
            "eigenvalue magnitude 1 rejected; isotropic doubling gives b=4",
            {"seed": cfg.seed}, {"halfwidth": halfwidth, "w": d2.w}, None, ok, t0)

    for name, mat in _MATRICES.items():
        d = make_dilation(mat)
        n = d.dim

        t0 = time.monotonic()
        xs = rng.uniform(-4, 4, size=(10_000, n))
        ys = rng.uniform(-4, 4, size=(10_000, n))
        rep = check_quasi_triangle(d, xs, ys)
        rec.add(f"geometry.quasi_triangle.{name}",
                "rho(x+y) <= b^w (rho(x) + rho(y)) over seeded pairs",
                {"seed": cfg.seed, "matrix": name},
                {"max_ratio": rep["max_ratio"]}, rep["bound"], rep["pass"], t0)

        t0 = time.monotonic()
        pts = rng.uniform(-2, 2, size=(1000, n))
        pts = pts[np.any(np.abs(pts) > 1e-9, axis=1)]
        exact = np.array_equal(d.annulus_index(pts @ d.matrix.T),
                               d.annulus_index(pts) + 1)
        rec.add(f"geometry.homogeneity.{name}",
                "rho(Ax) = b rho(x) exactly via index arithmetic",
                {"seed": cfg.seed, "matrix": name}, {"exact": exact}, None,
                bool(exact), t0)

        t0 = time.monotonic()
        spec = GridSpec(radius=2.0, dim=n, resolution=128 if n == 2 else 1024)
        gpts = spec.points().reshape(-1, n)
        nested = True
        for k in range(-3, 3):
            inner = d.ball_contains(gpts, k)
            outer = d.ball_contains(gpts, k + 1)
            nested = nested and not np.any(inner & ~outer)
        rec.add(f"geometry.nesting.{name}",
                "membership in B_k implies membership in B_{k+1}",
                {"matrix": name}, {"nested": nested}, None, bool(nested), t0)

        t0 = time.monotonic()
        resolutions = [64, 128, 256] if n == 2 else [256, 1024, 4096]
        errs = []
        for res in resolutions:
            mspec = GridSpec(radius=2.0, dim=n, resolution=res)
            gp = mspec.points().reshape(-1, n)
            worst_k = 0.0
            for k in (-1, 0, 1):
                mask = d.ball_contains(gp, k)
                meas = float(np.count_nonzero(mask)) * mspec.cell_volume
                worst_k = max(worst_k, abs(meas / d.b ** k - 1.0))
            errs.append(worst_k)
        tol = cfg.tol("ball_measure", 2e-2)
        # a coarse grid can hit the measure exactly; require the finest
        # error under tolerance and no systematic growth
        ok = errs[-1] <= tol and (errs[-1] <= errs[0] or errs[0] <= tol)
        rec.add(f"geometry.ball_measure.{name}",
                "grid-measured |B_k| / b^k approaches 1 with resolution",
                {"matrix": name, "resolutions": resolutions},
                {"errors": errs}, tol, ok, t0)
    return rec.rows


# --------------------------------------------------------------------------
# lebesgue

def lebesgue_suite(cfg: SuiteConfig) -> list[VerificationReport]:
    rec = _Recorder(cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    d = make_dilation([[2.0]])
    spec = GridSpec(radius=2.0, dim=1, resolution=512)

    t0 = time.monotonic()
    orc = oracles.luxemburg_two_piece()
    x = spec.points()[..., 0]
    f = GridFunction(spec, ((x >= 0) & (x < 2)).astype(float))
    pfun = ExponentFunction.custom(
        fn=lambda pts: np.where(pts[..., 0] < 1.0, 2.0, 4.0),
        p_minus=2.0, p_plus=4.0, at_origin=2.0, at_infinity=4.0,
        name="two-piece")
    val = luxemburg_norm(f, pfun)
    err = abs(val - orc["norm"])
    rec.add("lebesgue.luxemburg_two_piece",
            "two-piece modular solves to the algebraic root level",
            {"seed": cfg.seed}, {"norm": val, "oracle": orc["norm"]},
            cfg.tol("luxemburg_oracle", 1e-6),
            err <= cfg.tol("luxemburg_oracle", 1e-6), t0)

    t0 = time.monotonic()
    worst = 0.0
    for _ in range(20):
        g = _random_function(spec, rng)
        for p in (1.5, 2.0, 4.0):
            pf = ExponentFunction.constant(p)
            top = g.sup()  # bisection on max-scaled samples, as in lux_core
            a = top * _bisect(np.abs(g.values) / top, pf.on_grid(spec),
                              spec.cell_volume)
            b = luxemburg_norm(g, pf)
            worst = max(worst, abs(a - b) / max(b, 1e-300)
                        if b > 0 else abs(a - b))
    rec.add("lebesgue.const_agreement",
            "bisection equals the closed form for constant exponents",
            {"seed": cfg.seed}, {"worst": worst}, 1e-8, worst <= 1e-8, t0)

    t0 = time.monotonic()
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
    rec.add("lebesgue.homogeneity",
            "Luxemburg norm is absolutely homogeneous",
            {"seed": cfg.seed}, {"worst": worst_h}, 1e-9, worst_h <= 1e-9, t0)
    rec.add("lebesgue.unit_modular",
            "modular at the norm level equals 1",
            {"seed": cfg.seed}, {"worst": worst_m}, 1e-8, worst_m <= 1e-8, t0)
    rec.add("lebesgue.monotone",
            "pointwise domination is norm monotone",
            {"seed": cfg.seed}, {"worst": worst_mono}, 1e-12,
            worst_mono <= 1e-12, t0)

    t0 = time.monotonic()
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
    rec.add("lebesgue.holder_defect",
            "generalized Hölder with r_p = 1 + 1/p^- - 1/p^+ never "
            "undershoots the pairing",
            {"seed": cfg.seed, "pairs": n_pairs, "families": cfg.families},
            {"min_defect": min_defect},
            -cfg.tol("holder", 1e-6), min_defect >= -cfg.tol("holder", 1e-6), t0)

    t0 = time.monotonic()
    worst = 0.0
    for p in (1.5, 2.0, 4.0):
        pf = ExponentFunction.constant(p)
        for k in range(-3, 4):
            bspec = GridSpec(radius=2.0 ** (k - 1), dim=1, resolution=512)
            worst = max(worst, abs(ball_norm_product(d, k, pf, bspec) - 1.0))
    rec.add("lebesgue.ball_product_const",
            "norm product of the ball indicator reproduces the measure "
            "for constant exponents",
            {"ks": [-3, 3]}, {"worst": worst}, cfg.tol("ball_product", 1e-3),
            worst <= cfg.tol("ball_product", 1e-3), t0)

    t0 = time.monotonic()
    products = []
    for res in (512, 1024, 2048):
        pspec = GridSpec(radius=4.0, dim=1, resolution=res)
        row = [ball_norm_product(d, k, plog, pspec) for k in range(-3, 4)]
        products.append(max(row))
    stable = max(products) <= 2.0 and \
        abs(products[-1] - products[-2]) <= 0.1 * products[-1]
    rec.add("lebesgue.ball_product_log",
            "norm product stays bounded over scales for the log family",
            {"family": plog.name}, {"max_products": products}, 2.0,
            stable, t0)

    t0 = time.monotonic()
    fitspec = GridSpec(radius=4.0, dim=1, resolution=4096)
    results = {}
    ok = True
    for q, expect in ((2.0, 0.5), (4.0, 0.75)):
        _, d2v = subset_ratio_fit(d, ExponentFunction.constant(q),
                                  range(-3, 4), fitspec)
        results[f"q={q:g}"] = d2v
        ok = ok and abs(d2v - expect) <= 1e-3
    _, d2v = subset_ratio_fit(d, ExponentFunction.log_family(2.0, 2.0),
                              range(-3, 4), fitspec)
    results["log degenerate"] = d2v
    ok = ok and abs(d2v - 0.5) <= 1e-3
    rec.add("lebesgue.subset_fit",
            "fitted ball-ratio exponent delta_2 matches 1 - 1/q for "
            "constant q",
            {"ks": [-3, 3]}, results, 1e-3, ok, t0)

    t0 = time.monotonic()
    q3, r6 = ExponentFunction.constant(3.0), ExponentFunction.constant(6.0)
    worst = 0.0
    for _ in range(500):
        a = _random_function(spec, rng)
        b = _random_function(spec, rng)
        rep = product_norm_check(a, b, q3, r6)
        if not rep["degenerate"]:
            worst = max(worst, rep["ratio"])
    try:
        product_norm_check(f, f, ExponentFunction.constant(2.0),
                           ExponentFunction.constant(2.0))
        mismatch_ok = False
    except ReciprocalMismatch:
        mismatch_ok = True
    rec.add("lebesgue.product_norm",
            "reciprocal-exponent products obey the constant-1 bound for "
            "constant exponents; the class-P edge is rejected",
            {"seed": cfg.seed}, {"max_ratio": worst,
                                 "edge_rejected": mismatch_ok},
            1.0 + 1e-6, worst <= 1.0 + 1e-6 and mismatch_ok, t0)

    t0 = time.monotonic()
    samples = np.concatenate([
        np.geomspace(1e-8, 4.0, 200), -np.geomspace(1e-8, 4.0, 200)
    ])[:, None]
    ok = True
    details = {}
    for fam in (ExponentFunction.constant(2.0), plog):
        repf = log_holder_check(fam, samples)
        details[fam.name] = repf["c_origin"]
        ok = ok and repf["pass"]
    step = ExponentFunction.custom(
        fn=lambda pts: np.where(pts[..., 0] < 0, 2.0, 3.0),
        p_minus=2.0, p_plus=3.0, at_origin=3.0, at_infinity=3.0, name="step")
    rep_step = log_holder_check(step, samples)
    details["step"] = rep_step["status"]
    ok = ok and rep_step["status"] == "NotLogHolder"
    rec.add("lebesgue.log_holder",
            "families meet their analytic log-decay constants; a step "
            "through the origin is flagged",
            {"n_samples": len(samples)}, details, None, ok, t0)
    return rec.rows


# --------------------------------------------------------------------------
# grandseq

def grandseq_suite(cfg: SuiteConfig) -> list[VerificationReport]:
    rec = _Recorder(cfg.seed)
    rng = np.random.default_rng(cfg.seed)

    t0 = time.monotonic()
    val = grand_seq_norm(Sequence(np.array([1.0])),
                         GrandSequenceParams(p=1.0, theta=1.0))
    ref = oracles.delta_sequence_value(1.0, 1.0)
    rec.add("grandseq.delta_oracle",
            "one-hot grand norm equals the dense-scan stationary value",
            {}, {"value": val, "oracle": ref},
            1e-6, abs(val - ref) <= 1e-6, t0)

    t0 = time.monotonic()
    worst = 0.0
    combos = [(p, theta) for p in (1.0, 2.0, 3.0) for theta in (0.5, 1.0, 2.0)]
    for i in range(60):
        n = int(rng.integers(1, 12))
        vals = rng.uniform(-2, 2, n) * 10.0 ** rng.integers(-3, 4)
        p, theta = combos[i % len(combos)]
        a = grand_seq_norm(Sequence(vals),
                           GrandSequenceParams(p=p, theta=theta))
        b = oracles.grand_seq_dense(vals, p, theta)
        worst = max(worst, abs(a - b) / max(b, 1e-300))
    rec.add("grandseq.dense_agreement",
            "scan-and-refine equals dense brute force over seeded sequences",
            {"seed": cfg.seed, "n": 60}, {"worst_rel": worst}, 1e-6,
            worst <= 1e-6, t0)

    t0 = time.monotonic()
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
    rec.add("grandseq.homogeneity",
            "grand norm is absolutely homogeneous", {"seed": cfg.seed},
            {"worst": worst_h}, 1e-9, worst_h <= 1e-9, t0)
    rec.add("grandseq.support_monotone",
            "zeroing an entry never increases the norm", {"seed": cfg.seed},
            {"worst": worst_mono}, 1e-12, worst_mono <= 1e-12, t0)
    rec.add("grandseq.sup_limit",
            "the norm dominates the eps -> infinity limit (sup norm)",
            {}, {"ok": limit_ok}, None, limit_ok, t0)

    t0 = time.monotonic()
    x = Sequence(0.5 ** np.arange(10))
    rep = nesting_report(x, p=2.0, theta1=1.0, theta2=2.0, eps=0.25, delta=1.0)
    finite = all(math.isfinite(v) for v in rep["ratios"].values())
    scaled = nesting_report(x.scale(2.0), 2.0, 1.0, 2.0, 0.25, 1.0)
    scale_exact = all(
        abs(scaled["norms"][k] - 2.0 * rep["norms"][k]) <= 1e-9 * max(1.0, rep["norms"][k])
        for k in rep["norms"])
    factor_ok = all(e ** 2.0 <= e ** 1.0 for e in (0.1, 0.5, 0.9))
    rec.add("grandseq.nesting",
            "nesting-chain ratios are finite, scale linearly, and the "
            "pointwise eps-factor is theta-monotone below eps = 1",
            {}, {"ratios": rep["ratios"], "scale_exact": scale_exact},
            None, finite and scale_exact and factor_ok, t0,
            note="embedding constants recorded only")
    return rec.rows


# --------------------------------------------------------------------------
# herz

def _seeded_herz_function(spec: GridSpec, d, rng, krange) -> GridFunction:
    """Random function supported on resolvable annuli of the window."""
    idx = annulus_index_map(d, spec)
    kmin, kmax = krange
    lo = kmin + 2
    vals = np.zeros(spec.shape)
    for k in range(lo, kmax + 1):
        if rng.uniform() < 0.6:
            amp = float(rng.uniform(-2, 2))
            vals = np.where(idx == k - 1, amp * rng.uniform(0.5, 1.0, spec.shape), vals)
    if not np.any(vals):
        vals = np.where(idx == kmax - 1, 1.0, vals)
    return GridFunction(spec, vals)


def herz_suite(cfg: SuiteConfig) -> list[VerificationReport]:
    rec = _Recorder(cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    d = make_dilation([[2.0]])

    t0 = time.monotonic()
    ref = oracles.constant_herz_reference(b=2.0, alpha=2.0, q=2.0, p=1.0,
                                          theta=1.0)
    errs = {}
    for res, tol in ((4096, 0.02), (16384, 0.005)):
        spec = GridSpec(radius=0.5, dim=1, resolution=res)
        f = GridFunction(spec, np.ones(spec.shape))
        params = HerzSpaceParams(alpha=ExponentFunction.constant(2.0), p=1.0,
                                 q=ExponentFunction.constant(2.0), theta=1.0)
        norm, tail = grand_herz_norm(f, d, params)
        errs[res] = abs(norm - ref) / ref
    ok = errs[4096] <= 0.02 and errs[16384] <= 0.005
    rec.add("herz.constant_oracle",
            "unit-ball indicator norm matches the geometric closed form",
            {}, {"rel_errors": errs, "oracle": ref}, 0.02, ok, t0)

    spec = GridSpec(radius=2.0, dim=1, resolution=1024)
    qc = ExponentFunction.constant(2.0)

    t0 = time.monotonic()
    params_c = HerzSpaceParams(alpha=ExponentFunction.constant(0.4), p=1.0,
                               q=qc, theta=1.0)
    f = _seeded_herz_function(spec, d, rng, default_krange(d, spec))
    nc, _ = grand_herz_norm(f, d, params_c)
    sc = split_norm(f, d, params_c)
    const_ratio = sc / nc
    params_l = dataclasses.replace(
        params_c, alpha=ExponentFunction.log_family(0.6, 0.3))
    ratios = []
    for res in (512, 1024, 2048):
        rspec = GridSpec(radius=2.0, dim=1, resolution=res)
        g = GridFunction(rspec, np.ones(rspec.shape))
        n1, _ = grand_herz_norm(g, d, params_l)
        ratios.append(split_norm(g, d, params_l) / n1)
    band_ok = all(0.5 <= r <= 2.0 for r in ratios) and \
        abs(ratios[-1] - ratios[-2]) <= 0.05 * ratios[-1]
    rec.add("herz.split_band",
            "split-constant weights give the identical norm for constant "
            "alpha and a resolution-stable equivalence band for the log "
            "family",
            {"seed": cfg.seed},
            {"const_ratio": const_ratio, "log_ratios": ratios},
            None, abs(const_ratio - 1.0) <= 1e-9 and band_ok, t0)

    t0 = time.monotonic()
    m0 = herz_morrey_norm(f, d, params_c)
    rel = abs(m0 - nc) / max(nc, 1e-300)
    rec.add("herz.morrey_reduction",
            "vanishing Morrey exponent reduces the double sup to the "
            "grand Herz norm",
            {}, {"rel": rel}, 1e-12, rel <= 1e-12, t0)

    t0 = time.monotonic()
    params_m = dataclasses.replace(params_c, lambda_morrey=0.1)
    ml = herz_morrey_norm(f, d, params_m)
    ks, tvals = slice_norms(f, d, params_m)
    ref_m = oracles.morrey_double_sup_reference(
        {int(k): float(v) for k, v in zip(ks, tvals)}, d.b, 1.0, 1.0, 0.1)
    relm = abs(ml - ref_m) / max(ref_m, 1e-300)
    rec.add("herz.morrey_brute",
            "Morrey double supremum matches a dense (eps, L) scan",
            {"lambda": 0.1}, {"rel": relm}, 1e-6, relm <= 1e-6, t0)

    t0 = time.monotonic()
    worst_rt = worst_id = 0.0
    blocks_ok = True
    params_dec = HerzSpaceParams(alpha=ExponentFunction.constant(0.3), p=1.5,
                                 q=qc, theta=1.0)
    for _ in range(50):
        g = _seeded_herz_function(spec, d, rng, default_krange(d, spec))
        dec = block_decompose(g, d, params_dec)
        recf = block_reconstruct(dec)
        worst_rt = max(worst_rt, float(np.max(np.abs(recf.values - g.values))))
        n, _ = grand_herz_norm(g, d, params_dec)
        worst_id = max(worst_id, abs(seq_functional(dec) - n))
        for k, blk in dec.blocks.items():
            if not block_validate(blk, k, d, params_dec)["pass"]:
                blocks_ok = False
    rec.add("herz.decomposition",
            "canonical block decomposition reconstructs pointwise and its "
            "coefficient functional reproduces the norm; every block "
            "meets the central-block bound",
            {"seed": cfg.seed, "n": 50},
            {"worst_roundtrip": worst_rt, "worst_identity": worst_id,
             "blocks_ok": blocks_ok},
            1e-9, worst_rt <= 1e-12 and worst_id <= 1e-9 and blocks_ok, t0)

    t0 = time.monotonic()
    spec2 = GridSpec(radius=2.0, dim=1, resolution=2048)
    g2 = GridFunction(spec2, np.repeat(f.values, 2))
    n2, _ = grand_herz_norm(g2, d, params_c)
    drift = abs(n2 - nc) / nc
    rec.add("herz.reslice_stability",
            "re-slicing at doubled resolution moves the norm by under 2%",
            {}, {"drift": drift}, 0.02, drift <= 0.02, t0)

    t0 = time.monotonic()
    outer = GridFunction(spec, np.where(annulus_index_map(d, spec) >= 0,
                                        f.values, 0.0))
    lam_grid = [0.0, 0.05, 0.1, 0.2, 0.4]
    norms = [herz_morrey_norm(outer, d,
                              dataclasses.replace(params_c, lambda_morrey=lam))
             for lam in lam_grid]
    mono = all(norms[i + 1] <= norms[i] * (1 + 1e-12)
               for i in range(len(norms) - 1))
    rec.add("herz.lambda_monotone",
            "Morrey norm is nonincreasing in lambda for mass at scales "
            ">= 1",
            {"lams": lam_grid}, {"norms": norms}, None, mono, t0,
            note="general supports recorded only")

    t0 = time.monotonic()
    from .herz import annulus_slice
    same = True
    for k in range(1, 3):
        s_h = annulus_slice(outer, d, k)
        s_n = annulus_slice(outer, d, k, nonhomogeneous=True)
        same = same and np.array_equal(s_h.values, s_n.values)
    rec.add("herz.nonhomog_consistency",
            "homogeneous and non-homogeneous slices agree at scales >= 1",
            {}, {"same": same}, None, same, t0)

    t0 = time.monotonic()
    params_sm = dataclasses.replace(params_c, lambda_morrey=0.1)
    ratios_sm = []
    for res in (512, 1024, 2048):
        rspec = GridSpec(radius=2.0, dim=1, resolution=res)
        g = GridFunction(rspec, np.ones(rspec.shape))
        direct = herz_morrey_norm(g, d, params_sm)
        ratios_sm.append(split_norm(g, d, params_sm) / direct)
    band_ok = all(1.0 - 1e-9 <= r <= 2.0 + 1e-9 for r in ratios_sm) and \
        abs(ratios_sm[-1] - ratios_sm[-2]) <= 0.05 * ratios_sm[-1]
    rec.add("herz.split_morrey_band",
            "split Morrey form stays within its two-branch band of the "
            "direct double sup, stable across resolutions",
            {"lambda": 0.1}, {"ratios": ratios_sm}, 2.0, band_ok, t0)

    t0 = time.monotonic()
    params_nh = HerzSpaceParams(alpha=ExponentFunction.constant(0.3), p=1.5,
                                q=qc, theta=1.0, homogeneous=False)
    g = _random_function(spec, rng)
    dec_nh = block_decompose(g, d, params_nh)
    rec_nh = block_reconstruct(dec_nh)
    rt = float(np.max(np.abs(rec_nh.values - g.values)))
    n_nh, _ = grand_herz_norm(g, d, params_nh)
    ident = abs(seq_functional(dec_nh) - n_nh)
    restricted_ok = all(
        block_validate(blk, k, d, params_nh, restricted=True)["pass"]
        for k, blk in dec_nh.blocks.items())
    ok = rt <= 1e-12 and ident <= 1e-9 and restricted_ok \
        and min(dec_nh.block_indices()) >= 0
    rec.add("herz.nonhomog_decomposition",
            "restricted-type decomposition reconstructs and reproduces the "
            "non-homogeneous norm",
            {"seed": cfg.seed}, {"roundtrip": rt, "identity": ident}, 1e-9,
            ok, t0)
    return rec.rows


# --------------------------------------------------------------------------
# algebra

def algebra_suite(cfg: SuiteConfig) -> list[VerificationReport]:
    rec = _Recorder(cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    d = make_dilation([[2.0]])
    spec = GridSpec(radius=2.0, dim=1, resolution=256)
    qc = ExponentFunction.constant(2.0)
    params = HerzSpaceParams(alpha=ExponentFunction.constant(0.3), p=2.0,
                             q=qc, theta=1.0, lambda_morrey=0.05)

    t0 = time.monotonic()
    worst = 0.0
    for _ in range(500):
        f = _random_function(spec, rng)
        g = _random_function(spec, rng)
        rep = sum_check(f, g, d, params)
        if not rep["degenerate"]:
            worst = max(worst, rep["ratio"])
    rec.add("algebra.sum",
            "triangle inequality for the Morrey norm with constant 1",
            {"seed": cfg.seed, "n": 500}, {"max_ratio": worst}, 1.0 + 1e-6,
            worst <= 1.0 + 1e-6, t0)

    t0 = time.monotonic()
    p1 = HerzSpaceParams(alpha=ExponentFunction.constant(0.2), p=3.0,
                         q=ExponentFunction.constant(4.0), theta=1.0,
                         lambda_morrey=0.05)
    p2 = HerzSpaceParams(alpha=ExponentFunction.constant(0.1), p=3.0,
                         q=ExponentFunction.constant(4.0), theta=1.0,
                         lambda_morrey=0.03)
    worst = 0.0
    for _ in range(500):
        f = _random_function(spec, rng)
        g = _random_function(spec, rng)
        rep = product_check(f, g, d, p1, p2)
        if not rep["degenerate"]:
            worst = max(worst, rep["ratio"])
    rec.add("algebra.product",
            "product norms factor with constant 1 for constant exponents",
            {"seed": cfg.seed, "n": 500}, {"max_ratio": worst}, 1.0 + 1e-6,
            worst <= 1.0 + 1e-6, t0)

    t0 = time.monotonic()
    p6 = HerzSpaceParams(alpha=ExponentFunction.constant(0.1), p=6.0,
                         q=ExponentFunction.constant(6.0), theta=1.0)
    worst = 0.0
    for _ in range(100):
        fs = [_random_function(spec, rng).abs() for _ in range(3)]
        from .herz import combine_product_params
        p12 = combine_product_params(p6, p6)
        n_all = herz_morrey_norm(fs[0] * fs[1] * fs[2], d,
                                 combine_product_params(p12, p6))
        denom = 1.0
        for fi in fs:
            denom *= herz_morrey_norm(fi, d, p6)
        if denom > 0:
            worst = max(worst, n_all / denom)
    rec.add("algebra.product_m3",
            "three-factor products obey the iterated constant-1 bound",
            {"seed": cfg.seed, "n": 100}, {"max_ratio": worst}, 1.0 + 1e-6,
            worst <= 1.0 + 1e-6, t0)

    t0 = time.monotonic()
    f = _random_function(spec, rng)
    zero = GridFunction(spec, np.zeros(spec.shape))
    cancel = sum_check(f, -1.0 * f, d, params)
    prod_zero = product_check(f, zero, d, p1, p2)
    both_zero = sum_check(zero, zero, d, params)
    ok = cancel["ratio"] == 0.0 and prod_zero["degenerate"] and \
        both_zero["degenerate"]
    rec.add("algebra.degenerate",
            "cancellation and zero inputs report degenerate passes",
            {}, {"cancel_ratio": cancel["ratio"]}, None, ok, t0)
    return rec.rows


# --------------------------------------------------------------------------
# operators

def operators_suite(cfg: SuiteConfig) -> list[VerificationReport]:
    rec = _Recorder(cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    d = make_dilation([[2.0]])
    spec = GridSpec(radius=2.0, dim=1, resolution=512)
    qc = ExponentFunction.constant(2.0)
    params = HerzSpaceParams(alpha=ExponentFunction.constant(0.25), p=1.0,
                             q=qc, theta=1.0, delta2=0.5)
    kr = default_krange(d, spec)

    t0 = time.monotonic()
    worst = 0.0
    for _ in range(20):
        f = _random_function(spec, rng)
        g = _random_function(spec, rng)
        for apply_fn in (
            lambda u: ops.hardy_apply(u, d),
            lambda u: ops.truncated_riesz_apply(u, d, 0.25),
            lambda u: ops.maximal_apply(u, d, kr),
        ):
            lhs = np.abs(apply_fn(f + g).values)
            rhs = np.abs(apply_fn(f).values) + np.abs(apply_fn(g).values)
            worst = max(worst, float(np.max(lhs - rhs)))
    rec.add("operators.sublinearity",
            "all probes are pointwise sublinear", {"seed": cfg.seed},
            {"worst_excess": worst}, 1e-9, worst <= 1e-9, t0)

    t0 = time.monotonic()
    f = _random_function(spec, rng)
    c = 3.25
    worst = 0.0
    for apply_fn in (
        lambda u: ops.hardy_apply(u, d),
        lambda u: ops.truncated_riesz_apply(u, d, 0.25),
        lambda u: ops.maximal_apply(u, d, kr),
    ):
        worst = max(worst, float(np.max(np.abs(
            apply_fn(f * c).values - c * apply_fn(f).values))))
    rec.add("operators.homogeneity",
            "probes scale linearly (absolutely for the maximal average)",
            {}, {"worst": worst}, 1e-9, worst <= 1e-9, t0)

    t0 = time.monotonic()
    idx = annulus_index_map(d, spec)
    nz = idx != ORIGIN_INDEX
    rho_vals = d.rho_of_index(idx)
    worst_h = 0.0
    for _ in range(10):
        f = _random_function(spec, rng)
        hf = ops.hardy_apply(f, d)
        bound = f.l1() / np.where(nz, rho_vals, 1.0)
        worst_h = max(worst_h, float(np.max(np.abs(hf.values[nz]) - bound[nz])))
    rec.add("operators.size_hardy",
            "cumulative operator obeys |Hf| <= ||f||_1 / rho everywhere",
            {"seed": cfg.seed}, {"worst_excess": worst_h}, 1e-12,
            worst_h <= 1e-12, t0)

    t0 = time.monotonic()
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
    rec.add("operators.size_riesz",
            "truncated kernel output is dominated by the full 1/rho "
            "integral at sampled points",
            {"seed": cfg.seed, "n_x": 100}, {"worst_excess": worst_r}, 1e-9,
            worst_r <= 1e-9, t0)

    t0 = time.monotonic()
    ident = ops.OperatorSpec(kind="identity")
    vals = [ops.op_ratio(ident, _random_function(spec, rng), d, params)
            for _ in range(10)]
    ok = all(v == 1.0 for v in vals)
    rec.add("operators.identity_ratio",
            "identity operator has norm ratio exactly 1", {}, {"vals": vals},
            None, ok, t0)

    t0 = time.monotonic()
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
    rec.add("operators.hardy_sweep",
            "family-sup ratios stay stable inside the admissible region "
            "as the family quadruples",
            {"seed": cfg.seed, "alphas": cfg.alpha_grid,
             "lambdas": cfg.lambda_grid},
            {"growth": growth,
             "sups": [r["sup_ratio"] for r in rows_large]}, 1.5,
            growth < 1.5, t0,
            note="cells outside the region are recorded, not asserted")

    t0 = time.monotonic()
    f = seeds[1]
    mf_a = ops.maximal_apply(f, d, kr, balls="anisotropic")
    mf_e = ops.maximal_apply(f, d, kr, balls="euclidean")
    ratio = float(np.max(mf_a.values) / np.max(mf_e.values))
    rec.add("operators.maximal_compare",
            "anisotropic vs Euclidean maximal averages (diagnostic)",
            {}, {"peak_ratio": ratio}, None, None, t0, asserted=False,
            note="variant comparison recorded only")

    t0 = time.monotonic()
    lq = []
    for _ in range(10):
        f = _random_function(spec, rng)
        if f.is_zero():
            continue
        nf = luxemburg_norm(f, qc)
        lq.append(luxemburg_norm(ops.hardy_apply(f, d), qc) / nf)
    rec.add("operators.lq_ratio",
            "empirical Lebesgue-norm ratios of the cumulative operator "
            "(recorded next to the Herz ratios)",
            {"seed": cfg.seed}, {"ratios": lq}, None, None, t0,
            asserted=False)
    return rec.rows


# --------------------------------------------------------------------------
# atoms

def atoms_suite(cfg: SuiteConfig) -> list[VerificationReport]:
    rec = _Recorder(cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    d = make_dilation([[2.0]])
    spec = GridSpec(radius=2.0, dim=1, resolution=2048)
    qc = ExponentFunction.constant(2.0)
    params = HerzSpaceParams(alpha=ExponentFunction.constant(0.6), p=1.0,
                             q=qc, theta=1.0, delta2=0.5)

    t0 = time.monotonic()
    all_ok = True
    made = 0
    for kind, smax in (("haar", 0), ("bump_corrected", 2)):
        for k in (-1, 0, 1, 2):
            for s in range(smax + 1):
                atom = at.atom_make(kind, k, s, d, params, spec)
                rep = at.atom_validate(atom.data, k, d, params, s)
                made += 1
                all_ok = all_ok and rep["pass"]
    rec.add("atoms.make_validate",
            "every constructed atom passes validation at its declared "
            "scale and moment order",
            {"n": made}, {"all_ok": all_ok}, None, all_ok, t0)

    t0 = time.monotonic()
    hspec = GridSpec(radius=0.5, dim=1, resolution=2048)
    haar = at.atom_make("haar", 0, 0, d,
                        dataclasses.replace(params,
                                            alpha=ExponentFunction.constant(0.5)),
                        hspec)
    rep0 = at.atom_validate(haar.data, 0, d, params, 0)
    rep1 = at.atom_validate(haar.data, 0, d, params, 1)
    moment = rep1["moments"]["1"]
    ok = rep0["pass"] and not rep1["pass"] and abs(moment + 0.25) <= 1e-8
    rec.add("atoms.haar_moment",
            "opposite-halves atom passes order 0 and fails order 1 with "
            "first moment -1/4",
            {}, {"moment": moment}, 1e-8, ok, t0)

    t0 = time.monotonic()
    phi = at.make_mollifier(d, spec)
    idx = annulus_index_map(d, spec)
    mass_ok = supp_ok = True
    for k in range(-2, 3):
        pk = at.dilate_phi(phi, d, k)
        mass_ok = mass_ok and abs(pk.integral() - 1.0) <= 1e-6
        supp_ok = supp_ok and not np.any(pk.values[idx >= k] != 0.0)
    rec.add("atoms.dilate_mass",
            "mollifier dilates keep unit mass and support in B_k",
            {}, {"mass_ok": mass_ok, "supp_ok": supp_ok}, 1e-6,
            mass_ok and supp_ok, t0)

    t0 = time.monotonic()
    residuals = []
    for res in (1024, 2048):
        rspec = GridSpec(radius=2.0, dim=1, resolution=res)
        atom = at.atom_make("bump_corrected", 1, 2, d, params, rspec)
        rep = at.atom_validate(atom.data, 1, d, params, 2)
        residuals.append(max(abs(v) for v in rep["moments"].values()))
    rec.add("atoms.moment_scaling",
            "moment residuals do not grow as the grid refines",
            {"resolutions": [1024, 2048]}, {"residuals": residuals}, None,
            residuals[1] <= max(residuals[0], 1e-12) * 4.0, t0,
            note="projection keeps residuals at rounding level")

    t0 = time.monotonic()
    kr = default_krange(d, spec)
    f = _random_function(spec, rng)
    g = _random_function(spec, rng)
    mf = at.radial_maximal(f, phi, d, kr)
    mg = at.radial_maximal(g, phi, d, kr)
    mfg = at.radial_maximal(f + g, phi, d, kr)
    sub = float(np.max(mfg.values - mf.values - mg.values))
    mc = at.radial_maximal(f * 2.5, phi, d, kr)
    hom = float(np.max(np.abs(mc.values - 2.5 * mf.values)))
    rec.add("atoms.radial_maximal",
            "single-mollifier maximal proxy is sublinear and absolutely "
            "homogeneous",
            {"seed": cfg.seed}, {"sublinear_excess": sub, "homog": hom},
            1e-9, sub <= 1e-9 and hom <= 1e-9, t0,
            note="lower proxy for the seminorm-class maximal function")

    t0 = time.monotonic()
    ratios = []
    for trial in range(3):
        ks = [0, 1, -1]
        atoms = [at.atom_make("bump_corrected", k, 1, d, params, spec)
                 for k in ks]
        lam = Sequence(rng.uniform(0.2, 2.0, len(ks)))
        out = at.atomic_sum_check(atoms, lam, params, phi, d)
        ratios.append(out["ratio"])
        out2 = at.atomic_sum_check(atoms, lam.scale(2.0), params, phi, d)
        if abs(out2["ratio"] - out["ratio"]) > 1e-9:
            ratios.append(math.inf)
    spread = max(ratios) / min(ratios)
    rec.add("atoms.sum_ratio",
            "atomic-sum maximal ratio is scale-invariant and stable "
            "across seeded coefficient sets",
            {"seed": cfg.seed}, {"ratios": ratios, "spread": spread}, None,
            all(math.isfinite(r) for r in ratios) and spread < 10.0, t0,
            note="sufficiency direction with the single-mollifier proxy")

    t0 = time.monotonic()
    hardy = ops.OperatorSpec(kind="hardy")
    big = GridSpec(radius=4.0, dim=1, resolution=1024)
    hatom = at.atom_make("haar", 0, 0, d, params, big)
    rep_h = at.size_condition_check(hardy, hatom, d)
    riesz = ops.OperatorSpec(kind="truncated_riesz", cutoff=0.25)
    cs = []
    for k in (-1, 0, 1):
        atom_k = at.atom_make("haar", k, 0, d, params, big)
        cs.append(at.size_condition_check(riesz, atom_k, d)["tightest_c"])
    rec.add("atoms.size_condition",
            "far-field quadratic-decay check: cumulative operator gives "
            "exact zeros; truncated-kernel constants recorded over scales",
            {}, {"hardy_far_max": rep_h["far_field_max"],
                 "riesz_cs": cs}, None,
            rep_h["far_field_exact_zero"] and
            all(math.isfinite(c) for c in cs), t0)

    t0 = time.monotonic()
    s_min = at.min_moment_order(d, params)
    rec.add("atoms.min_s",
            "minimum admissible moment order from the scale geometry",
            {"alpha": 0.6, "delta2": 0.5}, {"s_min": s_min}, None,
            s_min >= 0, t0,
            note="scalar alpha evaluated at max(alpha(0), alpha_inf)")
    return rec.rows


# --------------------------------------------------------------------------

_SUITES = {
    "geometry": geometry_suite,
    "lebesgue": lebesgue_suite,
    "grandseq": grandseq_suite,
    "herz": herz_suite,
    "algebra": algebra_suite,
    "operators": operators_suite,
    "atoms": atoms_suite,
}


def run_suite(name: str, cfg: SuiteConfig) -> list[VerificationReport]:
    """Run one named suite (or "all"); reports come back in stable order."""
    if not name:
        raise ConfigError("empty suite name")
    if name == "all":
        rows: list[VerificationReport] = []
        for suite in SUITE_NAMES:
            rows.extend(_SUITES[suite](cfg))
        return sorted(rows, key=lambda r: r.check)
    if name not in _SUITES:
        raise ConfigError(f"unknown suite {name!r}; "
                          f"choose from {', '.join(SUITE_NAMES)} or all")
    return _SUITES[name](cfg)
