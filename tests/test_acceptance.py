"""Acceptance criteria, one test per criterion, tolerances pinned.

Every test prints a single PASS/FAIL line (visible under pytest -s and
in the captured output on failure) so the suite doubles as a checklist.

A criterion that tests a suite statement reads its figures from the rows
of that suite check, called with the criterion's seed, grid and counts,
and pins the check's bound.  It asserts beyond the check only what no
check does:

01  herz.constant_oracle; convergence on a misaligned box, under 10 s
02  lebesgue.luxemburg_two_piece; the algebraic root, 1.2720, under 1 s
03  lebesgue.ball_product_const; its recorded unit deviation <= 1e-3
04  lebesgue.holder_defect, 240 pairs on each of the five default families
05  herz.decomposition
06  grandseq.dense_agreement, 200 sequences; the one-hot norm
07  algebra.sum, algebra.product (400 pairs), algebra.product_m3 on one
    generator; the Morrey reduction of 10 functions
08  operators.hardy_sweep, families of 12 and 48 on 18 cells; every cell
    admissible, identity cells exactly 1
09  atoms.make_validate, atoms.haar_moment, atoms.size_condition; the
    Hardy size check meets far cells
10  the geometry rows of the three matrices, 2000 homogeneity points
"""

import time

import numpy as np

from herzlab import (
    GrandSequenceParams,
    OperatorSpec,
    Sequence,
    atom_make,
    boundedness_sweep,
    grand_herz_norm,
    grand_seq_norm,
    herz_morrey_norm,
    make_dilation,
    scale_translate_family,
    size_condition_check,
    sweep_seeds,
)
from herzlab import suites
from herzlab.config import SuiteConfig
from herzlab.grid import GridFunction, GridSpec
from herzlab.operators import admissible
from herzlab.oracles import delta_sequence_value, luxemburg_two_piece

from conftest import herz_params, random_function


def _line(num, ok, desc):
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num}: {desc}"


def _check_rows(check, spec, seed=7, matrix="dyadic", rng=None, **options):
    """The rows of one suite check on one of the suites' matrices, the
    dyadic line by default; ``options`` go to the check.  The checks of
    a criterion can share ``rng`` and draw from it in turn, as the
    checks of a suite do; without it each call seeds its own."""
    if rng is None:
        rng = np.random.default_rng(seed)
    return list(check(make_dilation(suites._MATRICES[matrix]), spec, rng,
                      SuiteConfig(seed=seed), **options))


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
    # 240 pairs on each of the suites' five exponent families
    cfg = SuiteConfig()
    assert cfg.families == ["const:2", "const:1.5", "const:4", "log:2,3", "log:3,2"]
    (row,) = _check_rows(suites._lebesgue_holder_defect,
                         GridSpec(radius=2.0, dim=1, resolution=256), seed=41,
                         pairs_per_family=240)
    pairs = 240 * sum(fam.in_class_p for fam in cfg.exponent_families())
    min_defect = row.measured["min_defect"]
    ok = row.bound == -1e-6 and row.passed and pairs >= 1000
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
    (row,) = _check_rows(suites._grandseq_dense_agreement, None, seed=61,
                         n_cases=200)
    worst = row.measured["worst_rel"]
    delta_main = grand_seq_norm(Sequence(np.array([1.0])),
                                GrandSequenceParams(p=1.0, theta=1.0))
    delta_ref = delta_sequence_value(1.0, 1.0)
    ok = row.bound == 1e-13 and row.passed and abs(delta_main - delta_ref) <= 1e-6 \
        and abs(delta_ref - 1.3211) <= 5e-4
    _line(6, ok, f"grand sequence norm vs dense scan over 200 sequences "
          f"(worst rel {worst:.2e}; one-hot {delta_main:.6f})")


def test_criterion_07_algebra():
    # 500 sum pairs, 400 product pairs and 100 triples drawn in turn from
    # one generator, then 10 functions for the Morrey reduction
    spec = GridSpec(radius=2.0, dim=1, resolution=256)
    rng = np.random.default_rng(71)
    rows = [*_check_rows(suites._algebra_sum, spec, seed=71, rng=rng),
            *_check_rows(suites._algebra_product, spec, seed=71, rng=rng, n_pairs=400),
            *_check_rows(suites._algebra_product_m3, spec, seed=71, rng=rng)]
    worst_sum, worst_pair, worst_triple = (row.measured["max_ratio"] for row in rows)
    worst_prod = max(worst_pair, worst_triple)

    d = make_dilation([[2.0]])
    worst_red = 0.0
    params0 = herz_params(alpha=0.4, p=1.0, q=2.0)
    for _ in range(10):
        f = random_function(spec, rng)
        n, _ = grand_herz_norm(f, d, params0)
        m = herz_morrey_norm(f, d, params0)
        worst_red = max(worst_red, abs(m - n) / max(n, 1e-300))
    ok = all(row.bound == 1 + 1e-6 and row.passed for row in rows) \
        and worst_red <= 1e-12
    _line(7, ok, f"algebra: sum ratio {worst_sum:.9f}, product ratio "
          f"{worst_prod:.9f} (pairs+triples), Morrey reduction "
          f"{worst_red:.2e}")


def test_criterion_08_operator_region_stability():
    # families of 12 and 48 from seed 81; the cells (alpha, 0) and
    # (alpha, alpha/4) for nine alpha below delta2 = 1/2
    spec = GridSpec(radius=2.0, dim=1, resolution=512)
    alphas = [frac * 0.5 for frac in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)]
    cells = [(alpha, lam) for alpha in alphas for lam in (0.0, alpha / 4.0)]
    (sweep,) = _check_rows(suites._operators_hardy_sweep, spec, seed=81,
                           family_sizes=(12, 48), cells=cells)
    growth = sweep.measured["growth"]
    in_region = all(admissible(alpha, lam, 0.5) for alpha, lam in cells)

    d = make_dilation([[2.0]])
    small = scale_translate_family(sweep_seeds(spec), d, 12, seed=81)
    ident_rows = boundedness_sweep(OperatorSpec(kind="identity"), d,
                                   [(alpha, 0.0) for alpha in alphas], small, delta2=0.5)
    ident_exact = all(r["sup_ratio"] == 1.0 for r in ident_rows)
    ok = sweep.bound == 1.5 and sweep.passed and in_region and ident_exact
    _line(8, ok, f"Hardy-operator sweep stable under family quadrupling "
          f"(worst growth {growth:.3f}); identity cells exactly 1")


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
    # 10^4 pairs and 2000 homogeneity points per matrix from one
    # generator; ball measures at 64, 128 and 256 cells a side on the
    # plane, 256, 1024 and 4096 on the line
    # the quasi-triangle bounds b^w: 2^1, 4^1 and 4^2
    rng = np.random.default_rng(101)
    ok = True
    for (name, mat), bound in zip(suites._MATRICES.items(), (2.0, 4.0, 16.0)):
        spec = GridSpec(radius=2.0, dim=len(mat),
                        resolution=128 if len(mat) == 2 else 1024)
        rows = _check_rows(suites._geometry_matrix, spec, seed=101, matrix=name,
                           rng=rng, homogeneity_points=2000)
        ok = ok and [row.bound for row in rows] == [bound, None, None, 2e-2] \
            and all(row.passed for row in rows)
    _line(10, ok, "quasi-triangle bound b^w over 10^4 pairs x 3 dilations; "
          "exact index homogeneity; ball measures converge")
