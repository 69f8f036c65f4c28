import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from herzlab import (
    ExponentFunction,
    HerzSpaceParams,
    annulus_slice,
    block_decompose,
    block_reconstruct,
    block_validate,
    default_krange,
    grand_herz_norm,
    herz_morrey_norm,
    herz_norm_report,
    luxemburg_norm,
    make_dilation,
    product_check,
    seq_functional,
    split_norm,
    sum_check,
)
from herzlab import dilation
from herzlab.dilation import ORIGIN_INDEX, annulus_index_map, annulus_order
from herzlab.errors import (
    BadParams,
    NormOverflow,
    NotInClassP,
    OutOfCoverage,
    ParamMismatch,
    TailUnbounded,
    ZeroFunction,
)
from herzlab.grid import GridFunction, GridSpec, zeros
from herzlab.herz import (_split_morrey_sup, combine_product_params,
                          ordered_log_family, slice_norms)
from herzlab.oracles import (constant_herz_reference, luxemburg_bisect,
                              morrey_double_sup_reference)
from herzlab.varlebesgue import lux_core

from conftest import (annulus_supported_function, ball_indicator, expansive_matrices,
                      herz_params, random_function)


def test_params_validation():
    q = ExponentFunction.constant(2.0)
    with pytest.raises(BadParams):
        herz_params(p=0.5, q=q)
    with pytest.raises(BadParams):
        herz_params(theta=0.0)
    with pytest.raises(NotInClassP):
        herz_params(q=ExponentFunction.constant(1.0))
    with pytest.raises(BadParams):
        herz_params(delta2=1.5)


def test_annulus_slices_partition(dyadic, line_spec):
    rng = np.random.default_rng(0)
    f = random_function(line_spec, rng)
    kmin, kmax = default_krange(dyadic, line_spec)
    total = np.zeros(line_spec.shape)
    for k in range(kmin, kmax + 1):
        total += annulus_slice(f, dyadic, k).values
    idx = annulus_index_map(dyadic, line_spec)
    covered = (idx >= kmin - 1) & (idx <= kmax - 1)
    assert np.array_equal(total[covered], f.values[covered])
    assert not np.any(total[~covered])


def test_annulus_slice_cases(dyadic, line_spec):
    f = ball_indicator(line_spec, dyadic, 0)
    assert annulus_slice(f, dyadic, 1).is_zero()
    s0 = annulus_slice(f, dyadic, 0)
    x = line_spec.points()[..., 0]
    inside = (np.abs(x) >= 0.25) & (np.abs(x) < 0.5)
    assert np.array_equal(s0.values > 0, inside)
    with pytest.raises(OutOfCoverage):
        annulus_slice(f, dyadic, 12)
    # non-homogeneous 0-slice is the whole unit ball
    s_nh = annulus_slice(f, dyadic, 0, nonhomogeneous=True)
    assert s_nh.integral() == pytest.approx(f.integral())


def test_constant_exponent_oracle(dyadic):
    ref = constant_herz_reference(2.0, 2.0, 2.0, 1.0, 1.0)
    spec = GridSpec(radius=0.5, dim=1, resolution=4096)
    f = GridFunction(spec, np.ones(spec.shape))
    params = herz_params(alpha=2.0, p=1.0, q=2.0)
    norm, tail = grand_herz_norm(f, dyadic, params)
    assert norm == pytest.approx(ref, rel=2e-2)
    assert tail < 1e-6


def test_norm_homogeneity(dyadic, line_spec):
    rng = np.random.default_rng(1)
    f = random_function(line_spec, rng)
    params = herz_params()
    n1, _ = grand_herz_norm(f, dyadic, params)
    n2, _ = grand_herz_norm(f * 3.5, dyadic, params)
    assert n2 == pytest.approx(3.5 * n1, rel=1e-12)


def test_zero_function_norm(dyadic, line_spec):
    params = herz_params()
    norm, tail = grand_herz_norm(zeros(line_spec), dyadic, params)
    assert norm == 0.0 and tail == 0.0


def test_tail_unbounded(dyadic, line_spec):
    f = ball_indicator(line_spec, dyadic, 0)
    params = herz_params(alpha=-0.75, p=1.0, q=2.0)
    with pytest.raises(TailUnbounded):
        grand_herz_norm(f, dyadic, params)
    # only the homogeneous Herz norm drops scales; the others take no tail
    assert herz_morrey_norm(f, dyadic, params) > 0
    assert grand_herz_norm(f, dyadic, dataclasses.replace(params, homogeneous=False))[1] == 0.0


@pytest.mark.parametrize("matrix, resolution", [([[2.0, 1.0], [0.0, 2.0]], 128),
                                                ([[3.0, 0.0], [1.0, 2.0]], 64)])
def test_tail_bound_over_nearest_nonempty_ball(matrix, resolution):
    # B_{k_min} holds no cell here: the tail takes cap and alpha_low from
    # the smallest ball above it that does, and is no larger than the
    # bound from the sup of |f| over the grid and min(alpha(0), alpha_inf)
    d = make_dilation(matrix)
    spec = GridSpec(radius=2.0, dim=2, resolution=resolution)
    f = GridFunction(spec, np.random.default_rng(resolution).uniform(-1, 1, spec.shape))
    idx = annulus_index_map(d, spec)
    k_min = default_krange(d, spec)[0]
    assert not np.any(idx <= k_min - 1)
    k = k_min + 1
    while not np.any(idx <= k - 1):
        k += 1
    inner = idx <= k - 1
    cap = np.max(np.abs(f.values[inner]))
    for alpha in (ExponentFunction.constant(0.3), ExponentFunction.log_family(0.2, 0.3),
                  ExponentFunction.log_family(0.6, 0.3)):
        for q in (ExponentFunction.constant(2.0), ExponentFunction.log_family(2.0, 3.0)):
            _, tail = grand_herz_norm(f, d, herz_params(alpha=alpha, p=1.0, q=q))
            rate = np.min(alpha.on_grid(spec)[inner]) + 1.0 / q.p_plus
            want = cap * d.b ** ((k_min - 1) * rate) / (1.0 - d.b ** -rate)
            assert tail == pytest.approx(want, rel=1e-13)
            rate = min(alpha.at_origin, alpha.at_infinity) + 1.0 / q.p_plus
            assert tail <= f.sup() * d.b ** ((k_min - 1) * rate) / (1.0 - d.b ** -rate)


@pytest.mark.parametrize("alpha, q", [(0.3, 2.0),
                                      (ExponentFunction.log_family(0.2, 0.3),
                                       ExponentFunction.log_family(2.0, 3.0))])
def test_norms_share_one_assembly(shear, alpha, q):
    # at lambda = 0 the Herz and Herz-Morrey norms and both report spaces
    # are the same number, and the report's tail is the norm's
    spec = GridSpec(radius=2.0, dim=2, resolution=64)
    f = random_function(spec, np.random.default_rng(23))
    params = herz_params(alpha=alpha, p=1.5, q=q, lam=0.0)
    norm, tail = grand_herz_norm(f, shear, params)
    assert herz_morrey_norm(f, shear, params) == norm
    for space in ("herz", "herz-morrey"):
        rep = herz_norm_report(f, shear, params, space)
        assert (rep["norm"], rep["tail_bound"]) == (norm, tail)
    nonhomog = dataclasses.replace(params, homogeneous=False)
    rep = herz_norm_report(f, shear, params, "nonhomog")
    assert (rep["norm"], rep["tail_bound"]) == grand_herz_norm(f, shear, nonhomog)
    assert rep["tail_bound"] == 0.0


def test_split_equals_direct_for_constant(dyadic, line_spec):
    rng = np.random.default_rng(2)
    f = random_function(line_spec, rng)
    params = herz_params(alpha=0.4, p=1.0, q=2.0)
    n, _ = grand_herz_norm(f, dyadic, params)
    assert split_norm(f, dyadic, params) == pytest.approx(n, rel=1e-9)


def test_split_band_log_family(dyadic):
    params = herz_params(alpha=ExponentFunction.log_family(0.6, 0.3),
                         p=1.0, q=2.0)
    ratios = []
    for res in (512, 1024, 2048):
        spec = GridSpec(radius=2.0, dim=1, resolution=res)
        f = GridFunction(spec, np.ones(spec.shape))
        n, _ = grand_herz_norm(f, dyadic, params)
        ratios.append(split_norm(f, dyadic, params) / n)
    assert all(0.5 <= r <= 2.0 for r in ratios)
    assert abs(ratios[-1] - ratios[-2]) <= 0.05 * ratios[-1]


def test_split_rejects_custom_alpha(dyadic, line_spec):
    alpha = ExponentFunction.custom(lambda pts: np.full(pts.shape[:-1], 0.4),
                                    0.4, 0.4, 0.4, 0.4)
    f = ball_indicator(line_spec, dyadic)
    with pytest.raises(BadParams):
        split_norm(f, dyadic, herz_params(alpha=alpha))


def test_single_annulus_split_ratio(dyadic, line_spec):
    # mass on one annulus: split/direct is the explicit weight ratio
    idx = annulus_index_map(dyadic, line_spec)
    k0 = 2
    f = GridFunction(line_spec, (idx == k0 - 1).astype(float))
    alpha = ExponentFunction.log_family(0.6, 0.3)
    params = herz_params(alpha=alpha, p=1.0, q=2.0)
    n, _ = grand_herz_norm(f, dyadic, params)
    s = split_norm(f, dyadic, params)
    ks, t_direct = slice_norms(f, dyadic, params)
    ks, t_split = slice_norms(f, dyadic, params, split=True)
    i = k0 - ks[0]
    assert s / n == pytest.approx(t_split[i] / t_direct[i], rel=1e-9)


def test_morrey_lambda_zero_reduction(dyadic, line_spec):
    rng = np.random.default_rng(3)
    f = random_function(line_spec, rng)
    params = herz_params(alpha=0.4, p=1.0, q=2.0)
    n, _ = grand_herz_norm(f, dyadic, params)
    assert abs(herz_morrey_norm(f, dyadic, params) - n) <= 1e-12 * max(n, 1.0)


def test_morrey_brute_force(dyadic, line_spec):
    f = ball_indicator(line_spec, dyadic, 0)
    params = herz_params(alpha=0.4, p=1.0, q=2.0, lam=0.1)
    val = herz_morrey_norm(f, dyadic, params)
    ks, t = slice_norms(f, dyadic, params)
    ref = morrey_double_sup_reference(
        {int(k): float(v) for k, v in zip(ks, t)}, 2.0, 1.0, 1.0, 0.1)
    assert val == pytest.approx(ref, rel=1e-6)


def test_morrey_lambda_monotone_outer_support(dyadic, line_spec):
    idx = annulus_index_map(dyadic, line_spec)
    rng = np.random.default_rng(4)
    vals = np.where(idx >= 0, rng.uniform(0.5, 1.5, line_spec.shape), 0.0)
    f = GridFunction(line_spec, vals)
    lams = [0.0, 0.05, 0.1, 0.2, 0.4]
    norms = [herz_morrey_norm(f, dyadic, herz_params(alpha=0.4, p=1.0, q=2.0,
                                                     lam=lam))
             for lam in lams]
    assert all(norms[i + 1] <= norms[i] * (1 + 1e-12) for i in range(len(norms) - 1))


def test_norm_report_fields(dyadic, line_spec):
    f = ball_indicator(line_spec, dyadic, 0)
    params = herz_params(alpha=0.5, p=1.0, q=2.0)
    rep = herz_norm_report(f, dyadic, params, space="herz-morrey")
    assert set(rep) >= {"norm", "tail_bound", "per_k_terms", "argmax_eps",
                        "argmax_L"}
    rep_h = herz_norm_report(f, dyadic, params, space="herz")
    assert rep_h["argmax_L"] is None
    assert rep_h["norm"] == pytest.approx(rep["norm"], rel=1e-12)


@pytest.mark.parametrize("space", ["herz_morrey", "Herz", "morrey", ""])
def test_norm_report_rejects_unknown_space(dyadic, line_spec, space):
    # a misspelt space would otherwise fall through to the Herz norm
    f = ball_indicator(line_spec, dyadic, 0)
    params = herz_params(alpha=0.5, p=1.0, q=2.0, lam=0.2)
    with pytest.raises(BadParams, match="herz-morrey"):
        herz_norm_report(f, dyadic, params, space=space)


def test_block_decomposition_round_trip(dyadic, line_spec):
    rng = np.random.default_rng(5)
    params = herz_params(alpha=0.3, p=1.5, q=2.0)
    for _ in range(10):
        f = annulus_supported_function(line_spec, dyadic, rng,
                                       default_krange(dyadic, line_spec))
        dec = block_decompose(f, dyadic, params)
        rec = block_reconstruct(dec)
        assert np.max(np.abs(rec.values - f.values)) <= 1e-12
        n, _ = grand_herz_norm(f, dyadic, params)
        assert abs(seq_functional(dec) - n) <= 1e-9
        for k in dec.block_indices():
            assert block_validate(dec.block(k), k, dyadic, params)["pass"]


def test_block_decompose_zero_rejected(dyadic, line_spec):
    with pytest.raises(ZeroFunction):
        block_decompose(zeros(line_spec), dyadic, herz_params())


def test_single_annulus_single_block(dyadic, line_spec):
    idx = annulus_index_map(dyadic, line_spec)
    f = GridFunction(line_spec, (idx == 1).astype(float))
    dec = block_decompose(f, dyadic, herz_params(alpha=0.3, p=1.0, q=2.0))
    assert dec.block_indices() == [2]


def test_dropping_block_changes_reconstruction_linearly(dyadic, line_spec):
    rng = np.random.default_rng(6)
    params = herz_params(alpha=0.3, p=1.5, q=2.0)
    f = annulus_supported_function(line_spec, dyadic, rng,
                                   default_krange(dyadic, line_spec))
    dec = block_decompose(f, dyadic, params)
    ks = dec.block_indices()
    k_drop = ks[len(ks) // 2]
    dropped = dec.block(k_drop)
    coeffs = dec.coefficients.values.copy()
    coeffs[k_drop - dec.coefficients.offset] = 0.0
    partial = dataclasses.replace(
        dec, coefficients=dataclasses.replace(dec.coefficients, values=coeffs))
    rec_full = block_reconstruct(dec)
    rec_part = block_reconstruct(partial)
    lam = dec.coefficients.values[k_drop - dec.coefficients.offset]
    diff = rec_full.values - rec_part.values
    assert np.max(np.abs(diff - lam * dropped.values)) <= 1e-12


def dense_blocks(f, d, params):
    """The blocks as dense grids on the masks of the annuli, and their sum
    onto 0.0 block by block: the decomposition's bits before it held runs."""
    ks, t = slice_norms(f, d, params)
    idx = annulus_index_map(d, f.spec)
    blocks, total = {}, np.zeros(f.spec.shape)
    for k, t_k in zip(ks.tolist(), t):
        if t_k > 0:
            mask = idx <= -1 if not params.homogeneous and k == 0 else idx == k - 1
            blocks[k] = np.where(mask, f.values * (1.0 / t_k), 0.0)
            total = total + t_k * blocks[k]
    return blocks, total


@pytest.mark.parametrize("q", [2.0, ExponentFunction.log_family(2.0, 3.0)],
                         ids=["const", "log"])
@pytest.mark.parametrize("homogeneous", [True, False])
@pytest.mark.parametrize("geometry", ["dyadic", "shear"])
def test_blocks_and_reconstruction_keep_dense_bits(request, geometry, homogeneous, q):
    # a fifth of the cells hold -0.0, which a block keeps and the sum
    # onto 0.0 turns into +0.0; the non-homogeneous k = 0 block is B_0
    d = request.getfixturevalue(geometry)
    spec = GridSpec(2.0, d.dim, 255 if d.dim == 1 else 64)
    rng = np.random.default_rng(23)
    vals = rng.uniform(-1, 1, spec.shape)
    vals[rng.uniform(size=spec.shape) < 0.2] = -0.0
    f = GridFunction(spec, vals)
    params = herz_params(alpha=0.5, p=1.5, q=q, homogeneous=homogeneous)
    dec = block_decompose(f, d, params)
    blocks, total = dense_blocks(f, d, params)
    assert dec.block_indices() == sorted(blocks)
    if not homogeneous:
        assert dec.block_indices()[0] == 0
    for k, want in blocks.items():
        assert dec.block(k).values.tobytes() == want.tobytes()
    assert block_reconstruct(dec).values.tobytes() == total.tobytes()


def test_block_validate_cases(dyadic, line_spec):
    params = herz_params(alpha=0.5, p=1.0, q=2.0)
    assert block_validate(zeros(line_spec), 3, dyadic, params)["pass"]
    # normalized ball indicator saturates the bound at k >= 0
    f = ball_indicator(line_spec, dyadic, 1)
    from herzlab import luxemburg_norm
    qn = luxemburg_norm(f, params.q)
    bound = dyadic.b ** (-1 * params.alpha.at_infinity)
    good = f * (bound / qn)
    rep = block_validate(good, 1, dyadic, params)
    assert rep["pass"] and rep["q_norm"] == pytest.approx(bound, rel=1e-9)
    bad = good * 2.0
    assert not block_validate(bad, 1, dyadic, params)["norm_ok"]
    # support violation
    assert not block_validate(good, 0, dyadic, params)["support_ok"]
    # restricted type requires k >= 0
    assert not block_validate(good, -1, dyadic, params,
                              restricted=True)["restricted_ok"]


def test_block_support_matches_the_index_map(shear):
    # support in B_k read off the annulus order agrees with the map on
    # every scale; -0.0 outside B_k counts as zero, any other value not
    spec = GridSpec(2.0, 2, 33)
    idx = annulus_index_map(shear, spec)
    params = herz_params(alpha=0.5, p=1.0, q=2.0)
    for k in range(int(idx[idx != ORIGIN_INDEX].min()) - 1, int(idx.max()) + 3):
        inside = idx <= k - 1
        vals = np.where(inside, 1e-3, -0.0)
        assert block_validate(GridFunction(spec, vals), k, shear, params)["support_ok"]
        for cell in np.argwhere(~inside)[:1]:
            vals[tuple(cell)] = 1e-300
            assert not block_validate(GridFunction(spec, vals), k, shear,
                                      params)["support_ok"]


def test_one_cached_classification_per_grid(shear, monkeypatch):
    # the annulus order is the one cached classification of a grid: the
    # first report on a fresh grid builds the index map once, for the
    # order, and later reports and block checks read the order alone
    calls = []
    build = dilation._grid_index_map
    monkeypatch.setattr(dilation, "_grid_index_map",
                        lambda d, axis: calls.append(axis.size) or build(d, axis))
    annulus_order.cache_clear()
    spec = GridSpec(2.0, 2, 64)
    f = random_function(spec, np.random.default_rng(23))
    params = herz_params(alpha=0.5, p=1.0, q=2.0)
    herz_norm_report(f, shear, params)
    assert calls == [64]
    herz_norm_report(f, shear, params)
    dec = block_decompose(f, shear, params)
    k = dec.block_indices()[-1]
    assert block_validate(dec.block(k), k, shear, params)["support_ok"]
    assert calls == [64]
    # the map itself is not kept: each request builds a new one
    assert annulus_index_map(shear, spec) is not annulus_index_map(shear, spec)
    assert calls == [64, 64, 64]


def test_seq_functional_single_block(dyadic, line_spec):
    from herzlab import eps_factor
    idx = annulus_index_map(dyadic, line_spec)
    f = GridFunction(line_spec, (idx == 1).astype(float))
    params = herz_params(alpha=0.3, p=1.0, q=2.0, theta=1.0)
    dec = block_decompose(f, dyadic, params)
    lam = dec.coefficients.values[2 - dec.coefficients.offset]
    assert seq_functional(dec) == pytest.approx(lam * eps_factor(1.0, 1.0),
                                                rel=1e-9)


def test_sum_check(dyadic, line_spec):
    rng = np.random.default_rng(7)
    params = herz_params(alpha=0.3, p=2.0, q=2.0, lam=0.05)
    f = random_function(line_spec, rng)
    g = random_function(line_spec, rng)
    rep = sum_check(f, g, dyadic, params)
    assert rep["ratio"] <= 1.0 + 1e-6
    assert sum_check(f, f, dyadic, params)["ratio"] == pytest.approx(1.0, rel=1e-12)
    assert sum_check(f, -1.0 * f, dyadic, params)["ratio"] == 0.0
    assert sum_check(zeros(line_spec), zeros(line_spec), dyadic,
                     params)["degenerate"]


def test_product_check(dyadic, line_spec):
    p1 = herz_params(alpha=0.2, p=3.0, q=4.0, lam=0.05)
    p2 = herz_params(alpha=0.1, p=3.0, q=4.0, lam=0.03)
    f = ball_indicator(line_spec, dyadic, 0)
    rep = product_check(f, f, dyadic, p1, p2)
    assert rep["ratio"] <= 1.0 + 1e-6
    assert product_check(f, zeros(line_spec), dyadic, p1, p2)["degenerate"]
    combined = combine_product_params(p1, p2)
    assert combined.p == pytest.approx(1.5)
    assert combined.q.value == pytest.approx(2.0)
    assert combined.lambda_morrey == pytest.approx(0.08)
    with pytest.raises(ParamMismatch):
        combine_product_params(p1, herz_params(alpha=0.1, p=3.0, q=4.0,
                                               theta=2.0))
    with pytest.raises(ParamMismatch):
        combine_product_params(herz_params(alpha=0.1, p=1.0, q=4.0), p2)


def test_product_check_triple(dyadic, line_spec):
    rng = np.random.default_rng(8)
    p6 = herz_params(alpha=0.1, p=6.0, q=6.0)
    worst = 0.0
    for _ in range(20):
        fs = [random_function(line_spec, rng).abs() for _ in range(3)]
        p12 = combine_product_params(p6, p6)
        n_all = herz_morrey_norm(fs[0] * fs[1] * fs[2], dyadic,
                                 combine_product_params(p12, p6))
        denom = np.prod([herz_morrey_norm(fi, dyadic, p6) for fi in fs])
        if denom > 0:
            worst = max(worst, n_all / denom)
    assert worst <= 1.0 + 1e-6


def test_reslice_stability(dyadic):
    rng = np.random.default_rng(9)
    spec = GridSpec(radius=2.0, dim=1, resolution=1024)
    f = annulus_supported_function(spec, dyadic, rng,
                                   default_krange(dyadic, spec))
    params = herz_params(alpha=0.4, p=1.0, q=2.0)
    n1, _ = grand_herz_norm(f, dyadic, params)
    spec2 = GridSpec(radius=2.0, dim=1, resolution=2048)
    f2 = GridFunction(spec2, np.repeat(f.values, 2))
    n2, _ = grand_herz_norm(f2, dyadic, params)
    assert abs(n2 - n1) / n1 <= 0.02


def test_nonhomogeneous_matches_at_outer_scales(dyadic, line_spec):
    idx = annulus_index_map(dyadic, line_spec)
    rng = np.random.default_rng(10)
    f = GridFunction(line_spec,
                     np.where(idx >= 0, rng.uniform(0.5, 1.0, line_spec.shape),
                              0.0))
    params_h = herz_params(alpha=0.4, p=1.0, q=2.0)
    params_n = herz_params(alpha=0.4, p=1.0, q=2.0, homogeneous=False)
    ks_h, t_h = slice_norms(f, dyadic, params_h)
    ks_n, t_n = slice_norms(f, dyadic, params_n)
    for k in range(1, int(ks_h[-1]) + 1):
        assert t_h[k - ks_h[0]] == pytest.approx(t_n[k - ks_n[0]], rel=1e-12)


def test_two_dim_norm_runs(iso2):
    spec = GridSpec(radius=2.0, dim=2, resolution=64)
    f = ball_indicator(spec, iso2, 0)
    params = herz_params(alpha=0.4, p=1.0, q=2.0)
    norm, tail = grand_herz_norm(f, iso2, params)
    assert norm > 0 and np.isfinite(tail)


def test_split_morrey_band(dyadic, line_spec):
    # lambda > 0: split form is the max of the two branch suprema,
    # within [1, 2] of the direct double sup and resolution-stable
    rng = np.random.default_rng(11)
    params = herz_params(alpha=0.4, p=1.0, q=2.0, lam=0.1)
    ratios = []
    for res in (512, 1024, 2048):
        spec = GridSpec(radius=2.0, dim=1, resolution=res)
        f = GridFunction(spec, np.ones(spec.shape))
        direct = herz_morrey_norm(f, dyadic, params)
        ratios.append(split_norm(f, dyadic, params) / direct)
    assert all(1.0 - 1e-9 <= r <= 2.0 + 1e-9 for r in ratios)
    assert abs(ratios[-1] - ratios[-2]) <= 0.05 * ratios[-1]
    # random support keeps the band
    f = annulus_supported_function(line_spec, dyadic, rng,
                                   default_krange(dyadic, line_spec))
    direct = herz_morrey_norm(f.abs(), dyadic, params)
    s = split_norm(f.abs(), dyadic, params)
    assert 1.0 - 1e-9 <= s / direct <= 2.0 + 1e-9


def test_nonhomogeneous_decomposition(dyadic, line_spec):
    rng = np.random.default_rng(12)
    params = herz_params(alpha=0.3, p=1.5, q=2.0, homogeneous=False)
    f = random_function(line_spec, rng)
    dec = block_decompose(f, dyadic, params)
    assert min(dec.block_indices()) >= 0
    rec = block_reconstruct(dec)
    assert np.max(np.abs(rec.values - f.values)) <= 1e-12
    n, _ = grand_herz_norm(f, dyadic, params)
    assert abs(seq_functional(dec) - n) <= 1e-9
    for k in dec.block_indices():
        assert block_validate(dec.block(k), k, dyadic, params, restricted=True)["pass"]


def test_two_dim_constant_oracle(iso2):
    # disk indicator, constant exponents: same geometric closed form
    ref = constant_herz_reference(b=4.0, alpha=0.5, q=2.0, p=1.0, theta=1.0)
    spec = GridSpec(radius=0.6, dim=2, resolution=256)
    f = ball_indicator(spec, iso2, 0)
    params = herz_params(alpha=0.5, p=1.0, q=2.0)
    norm, _ = grand_herz_norm(f, iso2, params)
    assert norm == pytest.approx(ref, rel=5e-2)


def test_variable_q_slice_path(dyadic, line_spec):
    # bisection branch of the slice norms: identity and blocks still hold
    rng = np.random.default_rng(13)
    qlog = ExponentFunction.log_family(2.0, 3.0)
    params = herz_params(alpha=0.3, p=1.5, q=qlog)
    f = random_function(line_spec, rng)
    n, _ = grand_herz_norm(f, dyadic, params)
    dec = block_decompose(f, dyadic, params)
    assert abs(seq_functional(dec) - n) <= 1e-9
    for k in dec.block_indices():
        assert block_validate(dec.block(k), k, dyadic, params)["pass"]
    # homogeneity survives the bisection route
    n2, _ = grand_herz_norm(f * 2.0, dyadic, params)
    assert n2 == pytest.approx(2.0 * n, rel=1e-8)


def test_shear_dilation_norms(shear):
    rng = np.random.default_rng(14)
    spec = GridSpec(radius=2.0, dim=2, resolution=64)
    f = GridFunction(spec, rng.uniform(-1, 1, spec.shape))
    params = herz_params(alpha=0.4, p=1.0, q=2.0)
    n, tail = grand_herz_norm(f, shear, params)
    assert n > 0 and np.isfinite(tail)
    assert herz_morrey_norm(f, shear, params) == pytest.approx(n, rel=1e-12)
    dec = block_decompose(f, shear, params)
    assert abs(seq_functional(dec) - n) <= 1e-9


def test_nonhomogeneous_morrey(dyadic, line_spec):
    rng = np.random.default_rng(15)
    f = random_function(line_spec, rng).abs()
    params = herz_params(alpha=0.4, p=1.0, q=2.0, lam=0.1,
                         homogeneous=False)
    val = herz_morrey_norm(f, dyadic, params)
    assert val > 0
    # lambda = 0 reduces to the non-homogeneous grand norm
    params0 = herz_params(alpha=0.4, p=1.0, q=2.0, homogeneous=False)
    n, _ = grand_herz_norm(f, dyadic, params0)
    assert herz_morrey_norm(f, dyadic, params0) == pytest.approx(n, rel=1e-12)


def test_canonical_coefficients_closed_form(dyadic):
    # dyadic-aligned grid: coefficients of the unit-ball indicator equal
    # b^{k alpha} (b^k - b^{k-1})^{1/q} exactly at every resolvable scale;
    # the bottom scale carries cell-quantization error, which is what the
    # truncation window and tail bound exist for
    alpha, q = 0.75, 2.0
    spec = GridSpec(radius=0.5, dim=1, resolution=4096)
    f = GridFunction(spec, np.ones(spec.shape))
    params = herz_params(alpha=alpha, p=1.0, q=q)
    dec = block_decompose(f, dyadic, params)
    kmin = min(dec.block_indices())
    for k in dec.block_indices():
        if k == kmin:
            continue
        lam = dec.coefficients.values[k - dec.coefficients.offset]
        expect = dyadic.b ** (k * alpha) * \
            (dyadic.b ** k - dyadic.b ** (k - 1)) ** (1.0 / q)
        assert lam == pytest.approx(expect, rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(log10_c=st.floats(min_value=-250, max_value=250),
       negative=st.booleans(),
       seed=st.integers(min_value=0, max_value=2**31))
def test_herz_norms_homogeneous_at_extreme_scales(shear, log10_c, negative, seed):
    # ||c f|| = |c| ||f|| for the grand Herz and Herz-Morrey norms on the
    # shear plane, constant and log q, with no numpy warning
    spec = GridSpec(radius=2.0, dim=2, resolution=32)
    f = random_function(spec, np.random.default_rng(seed))
    c = (-1.0 if negative else 1.0) * 10.0 ** log10_c
    for q in (2.0, ExponentFunction.log_family(2.0, 3.0)):
        params = herz_params(alpha=0.3, p=1.0, q=q, lam=0.1)
        n, _ = grand_herz_norm(f, shear, params)
        m = herz_morrey_norm(f, shear, params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            n_c, _ = grand_herz_norm(f * c, shear, params)
            m_c = herz_morrey_norm(f * c, shear, params)
        assert n_c == pytest.approx(abs(c) * n, rel=1e-9)
        assert m_c == pytest.approx(abs(c) * m, rel=1e-9)


def test_norms_beyond_float_range_are_typed(shear):
    # the constant 1e307 has a grand Herz norm above the float max, and at
    # 1e308 the weighted samples b^{k alpha} |f| already overflow; both
    # raise NormOverflow without a numpy warning on the way
    spec = GridSpec(radius=2.0, dim=2, resolution=64)
    line = GridSpec(radius=2.0, dim=1, resolution=512)
    q2 = ExponentFunction.constant(2.0)
    params = herz_params(alpha=0.5, p=1.0, q=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c in (1e307, 1e308):
            f = GridFunction(spec, np.full(spec.shape, c))
            for norm in (lambda: grand_herz_norm(f, shear, params),
                         lambda: herz_morrey_norm(f, shear, params),
                         lambda: herz_norm_report(f, shear, params, "herz")):
                with pytest.raises(NormOverflow):
                    norm()
        # ||c||_{L^2} = 4c on the 4 x 4 box and 2c on the line [-2, 2]
        assert luxemburg_norm(GridFunction(spec, np.full(spec.shape, 1e307)),
                              q2) == pytest.approx(4e307)
        for g in (GridFunction(spec, np.full(spec.shape, 1e308)),
                  GridFunction(line, np.full(line.shape, 1.7e308))):
            with pytest.raises(NormOverflow):
                luxemburg_norm(g, q2)
        with pytest.raises(NormOverflow):
            _split_morrey_sup(np.arange(-1, 2), np.full(3, 1e308),
                              herz_params(lam=0.1), shear.b)


def exponents(lo, hi, exclude_min=False):
    values = st.floats(min_value=lo, max_value=hi, exclude_min=exclude_min)
    return st.one_of(values.map(ExponentFunction.constant),
                     st.tuples(values, values).map(
                         lambda t: ExponentFunction.log_family(*t)))


@settings(max_examples=80, deadline=None)
@given(matrix=st.one_of(st.sampled_from([[[2.0]], [[2.0, 1.0], [0.0, 2.0]]]),
                        expansive_matrices),
       half=st.integers(min_value=4, max_value=24),
       odd=st.booleans(),
       alpha=exponents(-0.5, 1.5),
       q=exponents(1.2, 4.0),
       homogeneous=st.booleans(),
       split=st.booleans(),
       wide=st.booleans(),
       seed=st.integers(min_value=0, max_value=2**31))
def test_slice_norms_match_mask_per_annulus(matrix, half, odd, alpha, q, homogeneous,
                                            split, wide, seed):
    # each t_k is the norm of b^{k alpha} |f| on the mask of C_k (of B_0
    # for the non-homogeneous k = 0) solved on its own; a wide window runs
    # past the map's indices at both ends, so some slices are empty
    d = make_dilation(matrix)
    spec = GridSpec(radius=2.0, dim=d.dim, resolution=2 * half - odd)
    f = random_function(spec, np.random.default_rng(seed))
    idx = annulus_index_map(d, spec).reshape(-1)
    cell_k = idx[idx != ORIGIN_INDEX] + 1
    krange = (int(cell_k.min()) - 2, int(cell_k.max()) + 3) if wide else None
    params = HerzSpaceParams(alpha=alpha, p=1.0, q=q, homogeneous=homogeneous,
                             krange=krange)
    ks, t = slice_norms(f, d, params, split=split)

    k_min, k_max = krange or default_krange(d, spec)
    assert np.array_equal(ks, np.arange(k_min if homogeneous else 0, k_max + 1))
    h = spec.cell_volume
    abs_f = np.abs(f.values).reshape(-1)
    alpha_vals = alpha.on_grid(spec).reshape(-1)
    q_vals = q.on_grid(spec).reshape(-1)
    for k, t_k in zip(ks, t):
        mask = idx <= -1 if not homogeneous and k == 0 else idx == k - 1
        a = params.alpha_split(k) if split else alpha_vals[mask]
        v = d.b ** (k * a) * abs_f[mask]
        if not np.any(v > 0):
            assert t_k == 0.0
            continue
        # the library's own one-segment solve, then the bisection oracle
        ref = lux_core(v, q_vals[mask], h)[0]
        assert t_k == pytest.approx(ref, rel=1e-13)
        top = np.max(v)
        assert ref == pytest.approx(top * luxemburg_bisect(v / top, q_vals[mask], h),
                                    rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(matrix=st.sampled_from([[[2.0, 1.0], [0.0, 2.0]], [[3.0, 0.0], [1.0, 2.0]],
                               [[1.2, -1.6], [1.6, 1.2]]]),
       resolution=st.integers(min_value=33, max_value=65),
       alpha=exponents(0.0, 1.0),
       q=exponents(1.0, 3.0, exclude_min=True),
       p=st.floats(min_value=1.0, max_value=3.0),
       theta=st.floats(min_value=0.2, max_value=2.0),
       lam=st.floats(min_value=0.0, max_value=0.3),
       log10_scale=st.floats(min_value=-3.0, max_value=3.0),
       seed=st.integers(min_value=0, max_value=2**31))
def test_plane_norms_reduce_at_lambda_zero_and_keep_domination(
        matrix, resolution, alpha, q, p, theta, lam, log10_scale, seed):
    # on the anisotropic plane the Herz-Morrey norm at lambda = 0 is the
    # grand Herz norm bit for bit, and |f| <= |g| gives ||f|| <= ||g|| in
    # both norms.  Each norm is a grand supremum over sums of slice norms,
    # each solved to a few ulps, so rounding alone cannot move it by 1e-13
    # relative: the domination holds to that tolerance
    d = make_dilation(matrix)
    spec = GridSpec(radius=2.0, dim=2, resolution=resolution)
    rng = np.random.default_rng(seed)
    g = random_function(spec, rng) * 10.0 ** log10_scale
    # |f| <= |g|: g kept on some cells, shrunk or sign-flipped on the rest
    shrink = np.where(rng.random(spec.shape) < 0.5, 1.0, rng.uniform(-1, 1, spec.shape))
    f = GridFunction(spec, g.values * shrink)
    params = HerzSpaceParams(alpha=alpha, p=p, q=q, theta=theta, lambda_morrey=lam)
    plain = dataclasses.replace(params, lambda_morrey=0.0)
    for h in (f, g):
        assert herz_morrey_norm(h, d, plain) == grand_herz_norm(h, d, plain)[0]
    tol = 1e-13
    assert grand_herz_norm(f, d, params)[0] <= grand_herz_norm(g, d, params)[0] * (1 + tol)
    assert herz_morrey_norm(f, d, params) <= herz_morrey_norm(g, d, params) * (1 + tol)


def test_ordered_log_family_is_the_gather(shear, iso2):
    # one read-only entry per (dilation, grid, family), equal to the
    # uncached gather of on_grid into annulus order
    families = [ExponentFunction.log_family(2.0, 3.0),
                ExponentFunction.log_family(3.0, 1.5)]
    seen = []
    for d in (shear, iso2):
        for spec in (GridSpec(2.0, 2, 32), GridSpec(2.0, 2, 33)):
            for e in families:
                got = ordered_log_family(d, spec, e.at_origin, e.at_infinity)
                want = e.on_grid(spec).reshape(-1)[annulus_order(d, spec).cells]
                assert np.array_equal(got, want)
                assert not got.flags.writeable
                with pytest.raises(ValueError):
                    got[0] = 0.0
                assert ordered_log_family(d, spec, e.at_origin, e.at_infinity) is got
                seen.append(got)
    assert len({id(a) for a in seen}) == 8


def test_log_report_same_cold_and_warm(shear):
    spec = GridSpec(2.0, 2, 48)
    f = random_function(spec, np.random.default_rng(21))
    params = herz_params(alpha=ExponentFunction.log_family(0.2, 0.3), p=1.0,
                         q=ExponentFunction.log_family(2.0, 3.0), lam=0.1)
    ordered_log_family.cache_clear()
    cold = herz_norm_report(f, shear, params, "herz-morrey")
    warm = herz_norm_report(f, shear, params, "herz-morrey")
    assert repr(cold) == repr(warm)


def test_warm_log_report_transient_memory(shear):
    # a warm log-q report holds at most three grid-sized float arrays at
    # once (2.86 measured), so the cached exponent costs no peak memory
    n = 512
    spec = GridSpec(2.0, 2, n)
    f = random_function(spec, np.random.default_rng(22))
    params = herz_params(alpha=0.5, p=1.0, q=ExponentFunction.log_family(2.0, 3.0),
                         lam=0.1)
    herz_norm_report(f, shear, params, "herz-morrey")
    tracemalloc.start()
    try:
        herz_norm_report(f, shear, params, "herz-morrey")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * n * n
