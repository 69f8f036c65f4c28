import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from herzlab import (
    ExponentFunction,
    ball_norm_product,
    conjugate,
    holder_defect,
    log_holder_check,
    luxemburg_norm,
    modular,
    product_norm_check,
    subset_ratio_fit,
)
from herzlab.errors import (
    EmptyBall,
    GridMismatch,
    InsufficientRange,
    NonPositiveLambda,
    NotInClassP,
    ReciprocalMismatch,
)
from herzlab.grid import GridFunction, GridSpec, zeros
from herzlab.oracles import luxemburg_bisect, luxemburg_two_piece
from herzlab.varlebesgue import lux_core

from conftest import random_function


def unit_indicator(spec):
    x = spec.points()[..., 0]
    return GridFunction(spec, ((x >= 0) & (x < 1)).astype(float))


def test_modular_unit_mass(line_spec):
    f = unit_indicator(line_spec)
    p2 = ExponentFunction.constant(2.0)
    assert modular(f, 1.0, p2) == pytest.approx(1.0)
    assert modular(f, 2.0, p2) == pytest.approx(0.25)
    with pytest.raises(NonPositiveLambda):
        modular(f, 0.0, p2)


def test_modular_two_piece(line_spec):
    x = line_spec.points()[..., 0]
    f = GridFunction(line_spec, ((x >= 0) & (x < 2)).astype(float))
    p = ExponentFunction.custom(
        fn=lambda pts: np.where(pts[..., 0] < 1.0, 2.0, 4.0),
        p_minus=2.0, p_plus=4.0, at_origin=2.0, at_infinity=4.0)
    lam = luxemburg_two_piece()["norm"]
    assert modular(f, lam, p) == pytest.approx(1.0, abs=1e-9)


def test_luxemburg_zero_and_indicator(line_spec):
    p2 = ExponentFunction.constant(2.0)
    assert luxemburg_norm(zeros(line_spec), p2) == 0.0
    assert luxemburg_norm(unit_indicator(line_spec), p2) == pytest.approx(1.0)


def test_luxemburg_two_piece_value(line_spec):
    x = line_spec.points()[..., 0]
    f = GridFunction(line_spec, ((x >= 0) & (x < 2)).astype(float))
    p = ExponentFunction.custom(
        fn=lambda pts: np.where(pts[..., 0] < 1.0, 2.0, 4.0),
        p_minus=2.0, p_plus=4.0, at_origin=2.0, at_infinity=4.0)
    assert luxemburg_norm(f, p) == pytest.approx(1.2720196495, abs=1e-8)


def test_bisect_matches_closed_form(line_spec):
    rng = np.random.default_rng(4)
    for _ in range(10):
        f = random_function(line_spec, rng)
        for pv in (1.5, 2.0, 4.0):
            p = ExponentFunction.constant(pv)
            top = f.sup()  # the oracle takes max-scaled samples
            bisected = top * luxemburg_bisect(np.abs(f.values) / top,
                                              p.on_grid(line_spec), line_spec.cell_volume)
            assert bisected == pytest.approx(luxemburg_norm(f, p), rel=1e-8)


@settings(max_examples=30, deadline=None)
@given(c=st.floats(min_value=1e-3, max_value=1e3),
       seed=st.integers(min_value=0, max_value=2**31))
def test_luxemburg_homogeneity(c, seed):
    spec = GridSpec(radius=2.0, dim=1, resolution=128)
    f = random_function(spec, np.random.default_rng(seed))
    p = ExponentFunction.log_family(2.0, 3.0)
    n = luxemburg_norm(f, p)
    assert luxemburg_norm(f * c, p) == pytest.approx(c * n, rel=1e-9)



@settings(max_examples=30, deadline=None)
@given(log10_c=st.floats(min_value=-250, max_value=250),
       negative=st.booleans(),
       seed=st.integers(min_value=0, max_value=2**31))
def test_luxemburg_homogeneity_extreme_scales(log10_c, negative, seed):
    # ||c f|| = |c| ||f|| at any float scale, with no numpy warning
    spec = GridSpec(radius=2.0, dim=1, resolution=128)
    f = random_function(spec, np.random.default_rng(seed))
    c = (-1.0 if negative else 1.0) * 10.0 ** log10_c
    two_piece = ExponentFunction.custom(
        fn=lambda pts: np.where(pts[..., 0] < 1.0, 2.0, 4.0),
        p_minus=2.0, p_plus=4.0, at_origin=2.0, at_infinity=4.0)
    for p in (ExponentFunction.constant(4.0), ExponentFunction.log_family(2.0, 3.0),
              two_piece):
        n = luxemburg_norm(f, p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = luxemburg_norm(f * c, p)
        assert scaled == pytest.approx(abs(c) * n, rel=1e-9)

@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_unit_modular_identity(seed):
    spec = GridSpec(radius=2.0, dim=1, resolution=128)
    f = random_function(spec, np.random.default_rng(seed))
    p = ExponentFunction.log_family(2.0, 3.0)
    lam = luxemburg_norm(f, p)
    if lam > 0:
        assert modular(f, lam, p) == pytest.approx(1.0, abs=1e-8)


def contiguous(seg, n, vals, p_vals, h):
    """``lux_core`` arguments with the samples grouped by their label in
    [0, n) by a stable sort, so each segment keeps its samples' order."""
    order = np.argsort(seg, kind="stable")
    bounds = np.searchsorted(seg[order], np.arange(n + 1))
    return vals[order], p_vals[order], h, bounds


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31),
       size=st.integers(min_value=0, max_value=60),
       n_random=st.integers(min_value=1, max_value=5),
       kind=st.sampled_from(["constant", "log", "two-piece"]))
def test_lux_core_segments_match_separate_calls(seed, size, n_random, kind):
    # segment 0 is empty, 1 all zero, 2 a single cell, the rest random;
    # each norm equals the one-segment call on the same samples exactly
    rng = np.random.default_rng(seed)
    n = 3 + n_random
    seg = np.concatenate([[1, 1, 2], rng.integers(3, n, size=size)])
    rng.shuffle(seg)
    vals = rng.uniform(0.0, 1.0, seg.size) * 10.0 ** rng.uniform(-5, 5)
    vals[rng.uniform(size=seg.size) < 0.2] = 0.0
    vals[seg == 1] = 0.0
    x = rng.uniform(-2.0, 2.0, seg.size)
    p_vals = {"constant": np.full(seg.size, 2.5),
              "log": ExponentFunction.log_family(2.0, 3.0)(x[:, None]),
              "two-piece": np.where(x < 1.0, 2.0, 4.0)}[kind]
    h = 0.01
    grouped, _, _, bounds = args = contiguous(seg, n, vals, p_vals, h)
    norms = lux_core(grouped.copy(), *args[1:])
    assert norms.shape == (n,) and norms[0] == 0.0 and norms[1] == 0.0
    if kind == "constant":  # the exponent passed as one number
        assert np.array_equal(lux_core(grouped, 2.5, h, bounds), norms)
    for i in range(n):
        sel = seg == i
        assert norms[i] == lux_core(vals[sel], p_vals[sel], h)[0]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31),
       size=st.integers(min_value=0, max_value=60),
       kind=st.sampled_from(["constant", "log", "two-piece"]))
def test_lux_core_input_is_scratch(seed, size, kind):
    # segment 0 is empty and 1 all zero.  lux_core overwrites only the
    # samples it is given: on a view into a larger buffer its norms equal,
    # bit for bit, those of a call on a fresh copy, and the buffer outside
    # the view is untouched.  The exponent's per-segment (min, max) passed
    # as rows gives the norms of lux_core's own reduction, and the rows of
    # empty segments are not read
    rng = np.random.default_rng(seed)
    n = 6
    seg = np.concatenate([[1, 1, 2], rng.integers(3, n, size=size)])
    vals = rng.uniform(0.0, 1.0, seg.size) * 10.0 ** rng.uniform(-5, 5)
    vals[rng.uniform(size=seg.size) < 0.2] = 0.0
    vals[seg == 1] = 0.0
    x = rng.uniform(-2.0, 2.0, seg.size)
    p_vals = {"constant": np.full(seg.size, 2.5),
              "log": ExponentFunction.log_family(2.0, 3.0)(x[:, None]),
              "two-piece": np.where(x < 1.0, 2.0, 4.0)}[kind]
    h = 0.01
    grouped, grouped_p, _, bounds = contiguous(seg, n, vals, p_vals, h)
    fresh = lux_core(grouped.copy(), grouped_p, h, bounds)
    buffer = np.concatenate([[7.0, 9.0], grouped, [5.0]])
    assert np.array_equal(lux_core(buffer[2:-1], grouped_p, h, bounds), fresh)
    assert buffer[:2].tolist() == [7.0, 9.0] and buffer[-1] == 5.0
    live = np.diff(bounds) > 0
    rows = (np.full(n, np.nan), np.full(n, np.nan))
    rows[0][live] = np.minimum.reduceat(grouped_p, bounds[:-1][live])
    rows[1][live] = np.maximum.reduceat(grouped_p, bounds[:-1][live])
    assert np.array_equal(lux_core(grouped.copy(), grouped_p, h, bounds, rows), fresh)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31),
       size=st.integers(min_value=1, max_value=80),
       log10_h=st.floats(min_value=-12, max_value=2),
       kind=st.sampled_from(["log", "two-piece", "random"]))
def test_lux_core_matches_bisection_oracle(seed, size, log10_h, kind):
    # segment 0 is a single cell; samples spread over 1e-300..1 and
    # exponents over [1, 20]; every norm solves the modular to 1e-11
    rng = np.random.default_rng(seed)
    n = 4
    seg = np.concatenate([[0], rng.integers(1, n, size=size)])
    vals = 10.0 ** rng.uniform(-300, 0, seg.size)
    x = rng.uniform(0.0, 50.0, seg.size)
    q0, q1 = rng.uniform(1.0, 20.0, 2)
    p_vals = {"log": ExponentFunction.log_family(q0, q1)(x[:, None]),
              "two-piece": np.where(x < 25.0, q0, q1),
              "random": rng.uniform(1.0, 20.0, seg.size)}[kind]
    spec = GridSpec(radius=10.0 ** log10_h * seg.size / 2, dim=1,
                    resolution=seg.size)
    h = spec.cell_volume
    f = GridFunction(spec, vals)
    p = ExponentFunction.custom(fn=lambda pts: p_vals, p_minus=1.0, p_plus=20.0,
                                at_origin=q0, at_infinity=q1)
    norms = lux_core(*contiguous(seg, n, vals, p_vals, h))
    for i in range(n):
        sel = seg == i
        if not np.any(sel):
            assert norms[i] == 0.0
            continue
        top = np.max(vals[sel])
        assert norms[i] == pytest.approx(
            top * luxemburg_bisect(vals[sel] / top, p_vals[sel], h), rel=1e-9)
        assert modular(f.where(sel), norms[i], p) == pytest.approx(1.0, abs=1e-11)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31),
       size=st.integers(min_value=1, max_value=80),
       log10_h=st.floats(min_value=-250, max_value=50),
       spread=st.floats(min_value=0.0, max_value=30.0),
       kind=st.sampled_from(["log", "two-piece", "random"]))
# a case that takes both a shifted sum and a bisection step
@example(seed=402533603, size=26, log10_h=-43.0, spread=15.0, kind="two-piece")
def test_lux_core_matches_bisection_oracle_at_extreme_volumes(seed, size, log10_h,
                                                              spread, kind):
    # cell volumes over 1e-250..1e50 put log lam far enough from 0 for
    # the shifted sums, and exponent spreads up to 30 for the bisection
    # fallback; every norm still solves the modular to 1e-11.  Samples
    # over 1e-40..1 keep every norm above the subnormal range.
    rng = np.random.default_rng(seed)
    n = 4
    seg = np.concatenate([[0], rng.integers(1, n, size=size)])
    vals = 10.0 ** rng.uniform(-40, 0, seg.size)
    vals[rng.uniform(size=seg.size) < 0.1] = 0.0
    x = rng.uniform(0.0, 50.0, seg.size)
    q0 = rng.uniform(1.0, 5.0)
    q1 = q0 + spread
    p_vals = {"log": ExponentFunction.log_family(q0, q1)(x[:, None]),
              "two-piece": np.where(x < 25.0, q0, q1),
              "random": rng.uniform(q0, q1, seg.size)}[kind]
    spec = GridSpec(radius=10.0 ** log10_h * seg.size / 2, dim=1,
                    resolution=seg.size)
    h = spec.cell_volume
    f = GridFunction(spec, vals)
    p = ExponentFunction.custom(fn=lambda pts: p_vals, p_minus=q0, p_plus=q1,
                                at_origin=q0, at_infinity=q1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norms = lux_core(*contiguous(seg, n, vals, p_vals, h))
    for i in range(n):
        sel = seg == i
        top = np.max(vals[sel], initial=0.0)
        if top == 0.0:
            assert norms[i] == 0.0
            continue
        assert norms[i] == pytest.approx(
            top * luxemburg_bisect(vals[sel] / top, p_vals[sel], h), rel=1e-9)
        assert modular(f.where(sel), norms[i], p) == pytest.approx(1.0, abs=1e-11)


@pytest.mark.parametrize("dim, res", [(1, 512), (1, 257), (2, 64), (2, 65)])
def test_radii_and_on_grid_match_points(dim, res):
    spec = GridSpec(radius=3.0, dim=dim, resolution=res)
    pts = spec.points()
    assert np.array_equal(spec.radii(), np.sqrt(np.sum(pts * pts, axis=-1)))
    p = ExponentFunction.log_family(2.0, 3.0)
    for e in (p, conjugate(p), ExponentFunction.log_family(4.0, 1.5)):
        assert np.array_equal(e.on_grid(spec), e(pts))


def test_norm_monotone(line_spec):
    rng = np.random.default_rng(5)
    p = ExponentFunction.log_family(3.0, 2.0)
    for _ in range(20):
        g = random_function(line_spec, rng)
        f = GridFunction(line_spec, g.values * rng.uniform(0, 1, line_spec.shape))
        assert luxemburg_norm(f, p) <= luxemburg_norm(g, p) + 1e-12


def test_conjugate():
    assert conjugate(ExponentFunction.constant(2.0)).value == pytest.approx(2.0)
    assert conjugate(ExponentFunction.constant(4.0)).value == pytest.approx(4.0 / 3.0)
    p = ExponentFunction.log_family(2.0, 3.0)
    pc = conjugate(p)
    assert pc.at_origin == pytest.approx(2.0)
    assert pc.at_infinity == pytest.approx(1.5)
    assert conjugate(pc) is p
    pts = np.linspace(-3, 3, 11)[:, None]
    assert np.allclose(conjugate(pc)(pts), p(pts))
    with pytest.raises(NotInClassP):
        conjugate(ExponentFunction.constant(1.0))


def test_holder_defect_indicator(line_spec):
    f = unit_indicator(line_spec)
    p2 = ExponentFunction.constant(2.0)
    # r_p = 1 for constant p, and the pairing saturates the bound
    assert holder_defect(f, f, p2) == pytest.approx(0.0, abs=1e-12)
    assert holder_defect(zeros(line_spec), f, p2) == 0.0


def test_holder_defect_random_sweep(line_spec):
    rng = np.random.default_rng(6)
    fams = [ExponentFunction.constant(2.0), ExponentFunction.log_family(2.0, 3.0)]
    worst = math.inf
    for _ in range(100):
        f = random_function(line_spec, rng)
        g = random_function(line_spec, rng)
        for p in fams:
            worst = min(worst, holder_defect(f, g, p))
    assert worst >= -1e-6


def test_holder_defect_grid_mismatch(line_spec):
    other = GridSpec(radius=2.0, dim=1, resolution=256)
    with pytest.raises(GridMismatch):
        holder_defect(zeros(line_spec), zeros(other),
                      ExponentFunction.constant(2.0))


def test_ball_norm_product_constant(dyadic):
    for pv in (1.5, 2.0, 4.0):
        p = ExponentFunction.constant(pv)
        for k in range(-3, 4):
            spec = GridSpec(radius=2.0 ** (k - 1), dim=1, resolution=512)
            assert ball_norm_product(dyadic, k, p, spec) == pytest.approx(
                1.0, abs=1e-3)


def test_ball_norm_product_log_family_bounded(dyadic):
    p = ExponentFunction.log_family(2.0, 3.0)
    spec = GridSpec(radius=4.0, dim=1, resolution=2048)
    products = [ball_norm_product(dyadic, k, p, spec) for k in range(-3, 4)]
    assert max(products) <= 2.0


def test_ball_norm_product_empty(dyadic):
    # tiny ball on a coarse grid reaches no cell center
    spec = GridSpec(radius=2.0, dim=1, resolution=8)
    with pytest.raises(EmptyBall):
        ball_norm_product(dyadic, -8, ExponentFunction.constant(2.0), spec)


def test_subset_ratio_fit(dyadic):
    spec = GridSpec(radius=4.0, dim=1, resolution=4096)
    _, d2 = subset_ratio_fit(dyadic, ExponentFunction.constant(2.0),
                             range(-3, 4), spec)
    assert d2 == pytest.approx(0.5, abs=1e-3)
    _, d2 = subset_ratio_fit(dyadic, ExponentFunction.constant(4.0),
                             range(-3, 4), spec)
    assert d2 == pytest.approx(0.75, abs=1e-3)
    _, d2 = subset_ratio_fit(dyadic, ExponentFunction.log_family(2.0, 2.0),
                             range(-3, 4), spec)
    assert d2 == pytest.approx(0.5, abs=1e-3)
    with pytest.raises(InsufficientRange):
        subset_ratio_fit(dyadic, ExponentFunction.constant(2.0), [0, 1], spec)


def test_product_norm_check(line_spec):
    f = unit_indicator(line_spec)
    q4 = ExponentFunction.constant(4.0)
    rep = product_norm_check(f, f, q4, q4)
    assert rep["ratio"] == pytest.approx(1.0, abs=1e-9)
    # a zero factor is degenerate and reports the same bound
    zero = GridFunction(line_spec, np.zeros(line_spec.shape))
    rep0 = product_norm_check(zero, f, q4, q4)
    assert rep0["degenerate"] and rep0["pass"]
    assert rep0["bound"] == rep["bound"] == 1.0 + 1e-6
    with pytest.raises(ReciprocalMismatch):
        product_norm_check(f, f, ExponentFunction.constant(2.0),
                           ExponentFunction.constant(2.0))


def test_product_norm_sweep(line_spec):
    rng = np.random.default_rng(7)
    q3, r6 = ExponentFunction.constant(3.0), ExponentFunction.constant(6.0)
    worst = 0.0
    for _ in range(100):
        f = random_function(line_spec, rng)
        g = random_function(line_spec, rng)
        rep = product_norm_check(f, g, q3, r6)
        if not rep["degenerate"]:
            worst = max(worst, rep["ratio"])
    assert worst <= 1.0 + 1e-6


def test_log_holder_families():
    samples = np.concatenate([np.geomspace(1e-8, 4.0, 200),
                              -np.geomspace(1e-8, 4.0, 200)])[:, None]
    const = log_holder_check(ExponentFunction.constant(2.0), samples)
    assert const["pass"] and const["c_origin"] == 0.0
    fam = ExponentFunction.log_family(2.0, 3.0)
    rep = log_holder_check(fam, samples)
    assert rep["pass"]
    assert rep["c_origin"] <= 1.0 + 1e-9
    assert rep["c_infinity"] <= 1.0 + 1e-9


def test_log_holder_step_fails():
    samples = np.concatenate([np.geomspace(1e-10, 4.0, 300),
                              -np.geomspace(1e-10, 4.0, 300)])[:, None]
    step = ExponentFunction.custom(
        fn=lambda pts: np.where(pts[..., 0] < 0, 2.0, 3.0),
        p_minus=2.0, p_plus=3.0, at_origin=3.0, at_infinity=3.0)
    assert log_holder_check(step, samples)["status"] == "NotLogHolder"


def test_modular_region_mask(line_spec):
    f = unit_indicator(line_spec)
    p2 = ExponentFunction.constant(2.0)
    x = line_spec.points()[..., 0]
    half = x < 0.5
    full = modular(f, 1.0, p2)
    part = modular(f.where(half), 1.0, p2)
    assert part == pytest.approx(0.5, abs=2 * line_spec.cell_width)
    assert part < full


@pytest.mark.parametrize("dim, res", [(1, 257), (2, 64), (2, 65)])
def test_log_family_in_place_evaluation(dim, res):
    # the in-place evaluation equals the plain expression bit for bit and
    # writes into none of its inputs
    spec = GridSpec(radius=3.0, dim=dim, resolution=res)
    c2 = spec.axis_centers() ** 2
    r = np.sqrt(c2 if dim == 1 else np.add.outer(c2, c2))
    for p0, p_inf in ((2.0, 3.0), (4.0, 1.5), (0.2, 0.3)):
        e = ExponentFunction.log_family(p0, p_inf)
        assert np.array_equal(e.on_grid(spec), p_inf + (p0 - p_inf) / np.log(math.e + r))
        pts = spec.points()
        before = pts.copy()
        assert np.array_equal(e(pts), e.on_grid(spec))
        assert np.array_equal(pts, before)
    one = e(np.array([0.3, -0.4]))
    r1 = np.sqrt(0.3 * 0.3 + 0.4 * 0.4)
    assert np.ndim(one) == 0 and one == p_inf + (p0 - p_inf) / np.log(math.e + r1)
