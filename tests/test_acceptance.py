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
    boundedness_sweep,
    check_quasi_triangle,
    grand_herz_norm,
    grand_seq_norm,
    herz_morrey_norm,
    holder_defect,
    make_dilation,
    scale_translate_family,
    size_condition_check,
    sum_check,
    product_check,
)
from herzlab import suites
from herzlab.config import SuiteConfig
from herzlab.grid import GridFunction, GridSpec
from herzlab.oracles import delta_sequence_value, luxemburg_two_piece

from conftest import herz_params, random_function


def _line(num, ok, desc):
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num}: {desc}"


def _check_rows(check, spec, seed=7):
    """The rows of one suite check on the dyadic line."""
    return list(check(make_dilation([[2.0]]), spec, np.random.default_rng(seed),
                      SuiteConfig(seed=seed)))


def test_criterion_01_constant_herz_oracle():
    t_start = time.monotonic()
    # 0.02 relative at 4096 cells, 0.005 at 16384
    (row,) = _check_rows(suites._herz_constant_oracle,
                         GridSpec(radius=0.5, dim=1, resolution=4096))
    ok = row.bound == 0.02 and row.passed
    rel, ref = row.measured["rel_errors"], row.measured["oracle"]

    d = make_dilation([[2.0]])
    params = herz_params(alpha=2.0, p=1.0, q=2.0)
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
    assert luxemburg_two_piece()["t_agreement"] <= 1e-12  # algebraic root
    (row,) = _check_rows(suites._lebesgue_luxemburg_two_piece,
                         GridSpec(radius=2.0, dim=1, resolution=4096))
    val = row.measured["norm"]
    runtime = time.monotonic() - t_start
    ok = row.bound == 1e-6 and row.passed and abs(val - 1.2720) <= 1e-4 \
        and runtime < 1.0
    _line(2, ok, f"two-piece Luxemburg norm {val:.10f} vs 1.2720196495 "
          f"({runtime:.2f}s)")


def test_criterion_03_ball_identity():
    # the boxes are exactly 2^(k-1) on the dyadic line: the product equals
    # the grid measure to 1e-12, and that measure is 2^k to 1e-3
    (row,) = _check_rows(suites._lebesgue_ball_product_const,
                         GridSpec(radius=2.0, dim=1, resolution=1024))
    worst = row.measured["unit_dev"]
    ok = row.bound == 1e-12 and row.passed and worst <= 1e-3
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
    # 50 functions: round trip within 1e-12, identity within 1e-9, and
    # every block valid
    (row,) = _check_rows(suites._herz_decomposition,
                         GridSpec(radius=2.0, dim=1, resolution=1024), seed=51)
    worst_rt = row.measured["worst_roundtrip"]
    worst_id = row.measured["worst_identity"]
    ok = row.bound == 1e-9 and row.passed
    _line(5, ok, f"decomposition round trip (max {worst_rt:.2e}) and "
          f"coefficient identity (max {worst_id:.2e}) over 50 functions")


def test_criterion_06_grand_seq_vs_dense():
    (row,) = suites._grandseq_dense_agreement(
        None, None, np.random.default_rng(61), SuiteConfig(seed=61), n_cases=200)
    worst = row.measured["worst_rel"]
    delta_main = grand_seq_norm(Sequence(np.array([1.0])),
                                GrandSequenceParams(p=1.0, theta=1.0))
    delta_ref = delta_sequence_value(1.0, 1.0)
    ok = row.bound == 1e-13 and row.passed and abs(delta_main - delta_ref) <= 1e-6 \
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
    (made,) = _check_rows(suites._atoms_make_validate,
                          GridSpec(radius=2.0, dim=1, resolution=2048))
    # the Haar atom of B_0 passes order 0 and fails order 1 with first
    # moment -1/4 to 1e-8
    (haar,) = _check_rows(suites._atoms_haar_moment,
                          GridSpec(radius=0.5, dim=1, resolution=2048))
    moment = haar.measured["moment"]
    # the Hardy far field is exactly zero, and the check meets far cells
    big = GridSpec(radius=4.0, dim=1, resolution=1024)
    (far,) = _check_rows(suites._atoms_size_condition, big)
    d = make_dilation([[2.0]])
    params = herz_params(alpha=0.6, p=1.0, q=2.0, delta2=0.5)
    rep = size_condition_check(OperatorSpec(kind="hardy"),
                               atom_make("haar", 0, 0, d, params, big), d)
    ok = made.passed and haar.passed and far.passed and rep["n_triggered"] > 0
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
