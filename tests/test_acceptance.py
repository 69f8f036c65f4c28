"""Acceptance criteria, one test per criterion, tolerances pinned.

Every test prints a single PASS/FAIL line (visible under pytest -s and
in the captured output on failure) so the suite doubles as a checklist.
"""

import math
import time

import numpy as np

from herzlab import (
    ExponentFunction,
    GrandSequenceParams,
    OperatorSpec,
    Sequence,
    atom_make,
    atom_validate,
    ball_norm_product,
    block_decompose,
    block_reconstruct,
    boundedness_sweep,
    check_quasi_triangle,
    default_krange,
    grand_herz_norm,
    grand_seq_norm,
    herz_morrey_norm,
    holder_defect,
    luxemburg_norm,
    make_dilation,
    scale_translate_family,
    seq_functional,
    size_condition_check,
    sum_check,
    product_check,
)
from herzlab.config import SuiteConfig
from herzlab.grid import GridFunction, GridSpec
from herzlab.oracles import (
    constant_herz_reference,
    delta_sequence_value,
    luxemburg_two_piece,
)
from herzlab.suites import _grandseq_dense_agreement

from conftest import annulus_supported_function, herz_params, random_function


def _line(num, ok, desc):
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num}: {desc}"


def test_criterion_01_constant_herz_oracle():
    t_start = time.monotonic()
    d = make_dilation([[2.0]])
    ref = constant_herz_reference(b=2.0, alpha=2.0, q=2.0, p=1.0, theta=1.0)
    params = herz_params(alpha=2.0, p=1.0, q=2.0)

    rel = {}
    for n, tol in ((4096, 0.02), (16384, 0.005)):
        spec = GridSpec(radius=0.5, dim=1, resolution=n)
        f = GridFunction(spec, np.ones(spec.shape))
        norm, _ = grand_herz_norm(f, d, params)
        rel[n] = abs(norm - ref) / ref
    ok = rel[4096] <= 0.02 and rel[16384] <= 0.005

    # convergence on a box not aligned with the dyadic balls
    errs = []
    for n in (1000, 4000):
        spec = GridSpec(radius=0.7, dim=1, resolution=n)
        x = spec.points()[..., 0]
        f = GridFunction(spec, (np.abs(x) < 0.5).astype(float))
        norm, _ = grand_herz_norm(f, d, params)
        errs.append(abs(norm - ref) / ref)
    ok = ok and errs[1] < errs[0]

    runtime = time.monotonic() - t_start
    ok = ok and runtime < 10.0
    _line(1, ok, f"grand Herz norm vs geometric oracle "
          f"(rel {rel[4096]:.2e} @4096, {rel[16384]:.2e} @16384; "
          f"misaligned errors {errs[0]:.2e} -> {errs[1]:.2e}; "
          f"{runtime:.1f}s)")


def test_criterion_02_luxemburg_oracle():
    t_start = time.monotonic()
    orc = luxemburg_two_piece()  # oracle first: algebraic root
    assert orc["t_agreement"] <= 1e-12
    spec = GridSpec(radius=2.0, dim=1, resolution=4096)
    x = spec.points()[..., 0]
    f = GridFunction(spec, ((x >= 0) & (x < 2)).astype(float))
    p = ExponentFunction.custom(
        fn=lambda pts: np.where(pts[..., 0] < 1.0, 2.0, 4.0),
        p_minus=2.0, p_plus=4.0, at_origin=2.0, at_infinity=4.0)
    val = luxemburg_norm(f, p)
    runtime = time.monotonic() - t_start
    ok = abs(val - orc["norm"]) <= 1e-6 and abs(val - 1.2720) <= 1e-4 \
        and runtime < 1.0
    _line(2, ok, f"two-piece Luxemburg norm {val:.10f} vs 1.2720196495 "
          f"({runtime:.2f}s)")


def test_criterion_03_ball_identity():
    d = make_dilation([[2.0]])
    worst = 0.0
    for pv in (1.5, 2.0, 4.0):
        p = ExponentFunction.constant(pv)
        for k in range(-3, 4):
            spec = GridSpec(radius=2.0 ** (k - 1), dim=1, resolution=1024)
            worst = max(worst, abs(ball_norm_product(d, k, p, spec) - 1.0))
    ok = worst <= 1e-3
    _line(3, ok, f"ball norm-product identity, worst dev {worst:.2e} "
          f"(k in [-3,3], p in {{1.5,2,4}})")


def test_criterion_04_holder_defect():
    rng = np.random.default_rng(41)
    spec = GridSpec(radius=2.0, dim=1, resolution=256)
    families = [
        ExponentFunction.constant(2.0),
        ExponentFunction.constant(1.5),
        ExponentFunction.constant(4.0),
        ExponentFunction.log_family(2.0, 3.0),
        ExponentFunction.log_family(3.0, 2.0),
    ]
    min_defect = math.inf
    pairs = 0
    for fam in families:
        for _ in range(240):
            f = random_function(spec, rng)
            g = random_function(spec, rng)
            min_defect = min(min_defect, holder_defect(f, g, fam))
            pairs += 1
    ok = pairs >= 1000 and min_defect >= -1e-6
    _line(4, ok, f"generalized Hölder defect >= -1e-6 over {pairs} pairs "
          f"(min {min_defect:.2e})")


def test_criterion_05_decomposition_round_trip():
    d = make_dilation([[2.0]])
    spec = GridSpec(radius=2.0, dim=1, resolution=1024)
    rng = np.random.default_rng(51)
    params = herz_params(alpha=0.3, p=1.5, q=2.0)
    worst_rt = worst_id = 0.0
    for _ in range(50):
        f = annulus_supported_function(spec, d, rng, default_krange(d, spec))
        dec = block_decompose(f, d, params)
        rec = block_reconstruct(dec)
        worst_rt = max(worst_rt, float(np.max(np.abs(rec.values - f.values))))
        norm, _ = grand_herz_norm(f, d, params)
        worst_id = max(worst_id, abs(seq_functional(dec) - norm))
    ok = worst_rt <= 1e-12 and worst_id <= 1e-9
    _line(5, ok, f"decomposition round trip (max {worst_rt:.2e}) and "
          f"coefficient identity (max {worst_id:.2e}) over 50 functions")


def test_criterion_06_grand_seq_vs_dense():
    (row,) = _grandseq_dense_agreement(None, None, np.random.default_rng(61),
                                       SuiteConfig(seed=61), n_cases=200)
    worst = row.measured["worst_rel"]
    delta_main = grand_seq_norm(Sequence(np.array([1.0])),
                                GrandSequenceParams(p=1.0, theta=1.0))
    delta_ref = delta_sequence_value(1.0, 1.0)
    ok = row.bound == 1e-6 and row.passed and abs(delta_main - delta_ref) <= 1e-6 \
        and abs(delta_ref - 1.3211) <= 5e-4
    _line(6, ok, f"grand sequence norm vs dense scan over 200 sequences "
          f"(worst rel {worst:.2e}; one-hot {delta_main:.6f})")


def test_criterion_07_algebra():
    d = make_dilation([[2.0]])
    spec = GridSpec(radius=2.0, dim=1, resolution=256)
    rng = np.random.default_rng(71)
    params = herz_params(alpha=0.3, p=2.0, q=2.0, lam=0.05)
    worst_sum = 0.0
    for _ in range(500):
        f = random_function(spec, rng)
        g = random_function(spec, rng)
        rep = sum_check(f, g, d, params)
        if not rep["degenerate"]:
            worst_sum = max(worst_sum, rep["ratio"])

    p1 = herz_params(alpha=0.2, p=3.0, q=4.0, lam=0.05)
    p2 = herz_params(alpha=0.1, p=3.0, q=4.0, lam=0.03)
    worst_prod = 0.0
    for _ in range(400):
        f = random_function(spec, rng)
        g = random_function(spec, rng)
        rep = product_check(f, g, d, p1, p2)
        if not rep["degenerate"]:
            worst_prod = max(worst_prod, rep["ratio"])
    from herzlab.herz import combine_product_params
    p6 = herz_params(alpha=0.1, p=6.0, q=6.0)
    for _ in range(100):
        fs = [random_function(spec, rng).abs() for _ in range(3)]
        denom = np.prod([herz_morrey_norm(fi, d, p6) for fi in fs])
        if denom > 0:
            n3 = herz_morrey_norm(fs[0] * fs[1] * fs[2], d,
                                  combine_product_params(
                                      combine_product_params(p6, p6), p6))
            worst_prod = max(worst_prod, n3 / denom)

    worst_red = 0.0
    params0 = herz_params(alpha=0.4, p=1.0, q=2.0)
    for _ in range(10):
        f = random_function(spec, rng)
        n, _ = grand_herz_norm(f, d, params0)
        m = herz_morrey_norm(f, d, params0)
        worst_red = max(worst_red, abs(m - n) / max(n, 1e-300))
    ok = worst_sum <= 1 + 1e-6 and worst_prod <= 1 + 1e-6 \
        and worst_red <= 1e-12
    _line(7, ok, f"algebra: sum ratio {worst_sum:.9f}, product ratio "
          f"{worst_prod:.9f} (pairs+triples), Morrey reduction "
          f"{worst_red:.2e}")


def test_criterion_08_operator_region_stability():
    d = make_dilation([[2.0]])
    spec = GridSpec(radius=2.0, dim=1, resolution=512)
    x = spec.points()[..., 0]
    mask0 = d.ball_contains(spec.points().reshape(-1, 1), 0).reshape(spec.shape)
    seeds = [
        GridFunction(spec, mask0.astype(float)),
        GridFunction(spec, np.exp(-8 * x**2)),
        GridFunction(spec, ((np.abs(x) >= 0.5) & (np.abs(x) < 1.0)).astype(float)),
    ]
    hardy = OperatorSpec(kind="hardy")
    delta2 = 0.5
    small = scale_translate_family(seeds, d, 12, seed=81)
    large = scale_translate_family(seeds, d, 48, seed=81)
    alphas = [frac * delta2 for frac in
              (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)]
    worst_growth = 0.0
    for alpha in alphas:
        for lam in (0.0, alpha / 4.0):
            rs = boundedness_sweep(hardy, d, [alpha], [lam], small,
                                   delta2=delta2)[0]
            rl = boundedness_sweep(hardy, d, [alpha], [lam], large,
                                   delta2=delta2)[0]
            assert rs["admissible"] and rl["admissible"]
            worst_growth = max(worst_growth,
                               rl["sup_ratio"] / rs["sup_ratio"])
    ident_rows = boundedness_sweep(OperatorSpec(kind="identity"), d,
                                   alphas, [0.0], small, delta2=delta2)
    ident_exact = all(r["sup_ratio"] == 1.0 for r in ident_rows)
    ok = worst_growth < 1.5 and ident_exact
    _line(8, ok, f"Hardy-operator sweep stable under family quadrupling "
          f"(worst growth {worst_growth:.3f}); identity cells exactly 1")


def test_criterion_09_atom_suite():
    d = make_dilation([[2.0]])
    params = herz_params(alpha=0.6, p=1.0, q=2.0, delta2=0.5)
    spec = GridSpec(radius=2.0, dim=1, resolution=2048)
    all_ok = True
    for kind, smax in (("haar", 0), ("bump_corrected", 2)):
        for k in (-1, 0, 1, 2):
            for s in range(smax + 1):
                atom = atom_make(kind, k, s, d, params, spec)
                rep = atom_validate(atom.data, k, d, params, s)
                all_ok = all_ok and rep["pass"]

    hspec = GridSpec(radius=0.5, dim=1, resolution=2048)
    haar_params = herz_params(alpha=0.5, p=1.0, q=2.0, delta2=0.5)
    haar = atom_make("haar", 0, 0, d, haar_params, hspec)
    rep0 = atom_validate(haar.data, 0, d, haar_params, 0)
    rep1 = atom_validate(haar.data, 0, d, haar_params, 1)
    moment = rep1["moments"]["1"]
    haar_ok = rep0["pass"] and not rep1["pass"] \
        and abs(moment + 0.25) <= 1e-8

    big = GridSpec(radius=4.0, dim=1, resolution=1024)
    hatom = atom_make("haar", 0, 0, d, params, big)
    rep = size_condition_check(OperatorSpec(kind="hardy"), hatom, d)
    far_ok = rep["far_field_exact_zero"] and rep["n_triggered"] > 0
    ok = all_ok and haar_ok and far_ok
    _line(9, ok, f"atoms validate; Haar passes s=0, fails s=1 with moment "
          f"{moment:+.9f}; Hardy far field exactly zero")


def test_criterion_10_geometry():
    rng = np.random.default_rng(101)
    mats = ([[2.0]], 2.0 * np.eye(2), [[2.0, 1.0], [0.0, 2.0]])
    quasi_ok = homog_ok = True
    for mat in mats:
        d = make_dilation(mat)
        n = d.dim
        xs = rng.uniform(-4, 4, size=(10_000, n))
        ys = rng.uniform(-4, 4, size=(10_000, n))
        rep = check_quasi_triangle(d, xs, ys)
        quasi_ok = quasi_ok and rep["pass"]
        pts = rng.uniform(-2, 2, size=(2000, n))
        pts = pts[np.any(np.abs(pts) > 1e-9, axis=1)]
        homog_ok = homog_ok and np.array_equal(
            d.annulus_index(pts @ d.matrix.T), d.annulus_index(pts) + 1)

    meas_ok = True
    for mat in mats:
        d = make_dilation(mat)
        n = d.dim
        resolutions = (64, 128, 256) if n == 2 else (256, 1024, 4096)
        errs = []
        for res in resolutions:
            spec = GridSpec(radius=2.0, dim=n, resolution=res)
            pts = spec.points().reshape(-1, n)
            worst = max(
                abs(np.count_nonzero(d.ball_contains(pts, k))
                    * spec.cell_volume / d.b ** k - 1.0)
                for k in (-1, 0, 1))
            errs.append(worst)
        meas_ok = meas_ok and errs[-1] <= 2e-2 \
            and (errs[-1] <= errs[0] or errs[0] <= 2e-2)
    ok = quasi_ok and homog_ok and meas_ok
    _line(10, ok, "quasi-triangle bound b^w over 10^4 pairs x 3 dilations; "
          "exact index homogeneity; ball measures converge")
