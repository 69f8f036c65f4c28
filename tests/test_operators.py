import math
import re
import tracemalloc

import numpy as np
import pytest

from herzlab import (
    OperatorSpec,
    apply_operator,
    boundedness_sweep,
    default_krange,
    hardy_apply,
    make_dilation,
    maximal_apply,
    op_ratio,
    scale_translate_family,
    truncated_riesz_apply,
)
from herzlab import dilation
from herzlab import operators as ops
from herzlab.dilation import (
    ORIGIN_INDEX,
    annulus_index_map,
    offset_index_map,
    offset_points,
)
from herzlab.errors import BadParams, CutoffTooSmall, EmptyGrid, ZeroFunction
from herzlab.grid import GridFunction, GridSpec, zeros
from herzlab.operators import fft_convolve_valid

from conftest import ball_indicator, herz_params, random_function


def rho_map(d, spec):
    idx = annulus_index_map(d, spec)
    return np.where(idx != ORIGIN_INDEX,
                    d.b ** np.maximum(idx, -100).astype(float), 0.0), idx


def test_operator_spec_validation():
    with pytest.raises(BadParams):
        OperatorSpec(kind="nope")
    with pytest.raises(BadParams):
        OperatorSpec(kind="truncated_riesz", cutoff=0.0)


def test_hardy_zero(dyadic, line_spec):
    assert hardy_apply(zeros(line_spec), dyadic).is_zero()


def test_hardy_unit_ball_far_field(dyadic, line_spec):
    f = ball_indicator(line_spec, dyadic, 0)
    hf = hardy_apply(f, dyadic)
    rho, idx = rho_map(dyadic, line_spec)
    far = idx >= 0
    assert np.max(np.abs(hf.values[far] - 1.0 / rho[far])) == 0.0


def test_hardy_mean_zero_capture(dyadic, line_spec):
    # mean-zero data inside B_0: the integral captures everything far out
    x = line_spec.points()[..., 0]
    f = GridFunction(line_spec,
                     np.where(np.abs(x) < 0.5, np.sign(-x), 0.0))
    hf = hardy_apply(f, dyadic)
    _, idx = rho_map(dyadic, line_spec)
    assert np.all(hf.values[idx >= 0] == 0.0)


def test_hardy_size_bound(dyadic, line_spec):
    rng = np.random.default_rng(0)
    rho, idx = rho_map(dyadic, line_spec)
    nz = idx != ORIGIN_INDEX
    for _ in range(5):
        f = random_function(line_spec, rng)
        hf = hardy_apply(f, dyadic)
        assert np.all(np.abs(hf.values[nz]) <= f.l1() / rho[nz] * (1 + 1e-12))


def hardy_by_index_map(f, d):
    """Reference Hardy sums from per-cell labels of the index map: masses
    summed per annulus in raster order, divided by a per-cell rho."""
    spec = f.spec
    idx = annulus_index_map(d, spec).reshape(-1)
    nz = idx != ORIGIN_INDEX
    label = idx[nz] - np.min(idx[nz])
    masses = np.bincount(label, weights=f.values.reshape(-1)[nz] * spec.cell_volume)
    out = np.zeros(idx.shape)
    out[nz] = np.cumsum(masses)[label] / np.power(d.b, idx[nz].astype(float))
    return out.reshape(spec.shape)


@pytest.mark.parametrize("matrix", [[[2.0]], [[-3.0]], [[2.0, 1.0], [0.0, 2.0]],
                                    [[3.0, 0.0], [1.0, 2.0]]])
@pytest.mark.parametrize("resolution", [63, 64, 255, 256])
def test_hardy_matches_index_map_algorithm(matrix, resolution):
    # the sums read off the annulus order's runs are the index-map sums,
    # bit for bit, with and without an origin cell
    d = make_dilation(matrix)
    spec = GridSpec(radius=2.0, dim=d.dim, resolution=resolution)
    f = GridFunction(spec, np.random.default_rng(resolution).uniform(-1, 1, spec.shape))
    assert np.array_equal(hardy_apply(f, d).values, hardy_by_index_map(f, d))


def test_riesz_cutoff_guard(dyadic, line_spec):
    f = ball_indicator(line_spec, dyadic, 0)
    with pytest.raises(CutoffTooSmall):
        truncated_riesz_apply(f, dyadic, cutoff=1e-9)


def test_riesz_point_mass(dyadic, line_spec):
    vals = np.zeros(line_spec.shape)
    vals[100] = 1.0
    f = GridFunction(line_spec, vals)
    tf = truncated_riesz_apply(f, dyadic, cutoff=0.25)
    pts = line_spec.points()
    diffs = pts - pts[100]
    nz = np.abs(diffs[..., 0]) > 0
    rr = np.zeros(line_spec.shape)
    rr[nz] = dyadic.rho(diffs[nz])
    mass = f.l1()
    expect = np.where(rr >= 0.25, mass / np.where(rr > 0, rr, 1.0), 0.0)
    assert np.max(np.abs(tf.values - expect)) <= 1e-12


def test_riesz_kernel_domination(dyadic, line_spec):
    rng = np.random.default_rng(1)
    f = random_function(line_spec, rng)
    tf = truncated_riesz_apply(f, dyadic, cutoff=0.25)
    pts = line_spec.points()
    for i in rng.integers(0, line_spec.resolution, 100):
        diffs = pts - pts[i]
        nz = np.abs(diffs[..., 0]) > 0
        rr = np.zeros(line_spec.shape)
        rr[nz] = dyadic.rho(diffs[nz])
        bound = np.sum(np.where(rr > 0, np.abs(f.values) / np.where(rr > 0, rr, 1.0), 0.0)) \
            * line_spec.cell_volume
        assert abs(tf.values[i]) <= bound + 1e-9


def test_maximal_dominates_function(dyadic, line_spec):
    rng = np.random.default_rng(2)
    kr = default_krange(dyadic, line_spec)
    for _ in range(5):
        f = random_function(line_spec, rng)
        mf = maximal_apply(f, dyadic, kr)
        assert np.all(mf.values >= np.abs(f.values) - 1e-12)


def test_maximal_ball_lower_bound(dyadic, line_spec):
    f = ball_indicator(line_spec, dyadic, 0)
    mf = maximal_apply(f, dyadic, (0, 3))
    # at the origin cell the k-ball average of chi_{B_0} is |B_0 cap B_k|/|B_k|
    center = line_spec.resolution // 2
    assert mf.values[center] >= 1.0 / dyadic.b ** 3


def test_operator_sublinearity(dyadic, line_spec):
    rng = np.random.default_rng(3)
    kr = default_krange(dyadic, line_spec)
    ops_list = [
        lambda u: hardy_apply(u, dyadic),
        lambda u: truncated_riesz_apply(u, dyadic, 0.25),
        lambda u: maximal_apply(u, dyadic, kr),
    ]
    for _ in range(5):
        f = random_function(line_spec, rng)
        g = random_function(line_spec, rng)
        for op in ops_list:
            excess = np.max(np.abs(op(f + g).values)
                            - np.abs(op(f).values) - np.abs(op(g).values))
            assert excess <= 1e-9


def test_operator_homogeneity(dyadic, line_spec):
    rng = np.random.default_rng(4)
    f = random_function(line_spec, rng)
    kr = default_krange(dyadic, line_spec)
    for op in (lambda u: hardy_apply(u, dyadic),
               lambda u: truncated_riesz_apply(u, dyadic, 0.25),
               lambda u: maximal_apply(u, dyadic, kr)):
        assert np.max(np.abs(op(f * 2.5).values - 2.5 * op(f).values)) <= 1e-9


def test_op_ratio_identity_exact(dyadic, line_spec):
    rng = np.random.default_rng(5)
    params = herz_params(alpha=0.25, p=1.0, q=2.0, delta2=0.5)
    ident = OperatorSpec(kind="identity")
    for _ in range(5):
        f = random_function(line_spec, rng)
        if f.is_zero():
            continue
        assert op_ratio(ident, f, dyadic, params) == 1.0
    with pytest.raises(ZeroFunction):
        op_ratio(ident, zeros(line_spec), dyadic, params)


def test_op_ratio_identity_solves_one_norm(dyadic, line_spec, monkeypatch):
    # the identity returns f itself: its ratio n / n is 1.0 from the one
    # norm of f, while any other operator solves the norm of Tf as well
    real = ops.herz_morrey_norm
    calls = []
    monkeypatch.setattr(ops, "herz_morrey_norm",
                        lambda *args: calls.append(args[0]) or real(*args))
    f = ball_indicator(line_spec, dyadic, 0)
    params = herz_params(alpha=0.25, p=1.0, q=2.0, lam=0.05, delta2=0.5)
    assert op_ratio(OperatorSpec(kind="identity"), f, dyadic, params) == 1.0
    assert len(calls) == 1 and calls[0] is f
    op_ratio(OperatorSpec(kind="hardy"), f, dyadic, params)
    assert len(calls) == 3


def test_op_ratio_morrey_route(dyadic, line_spec):
    f = ball_indicator(line_spec, dyadic, 0)
    params = herz_params(alpha=0.3, p=1.0, q=2.0, lam=0.05, delta2=0.5)
    r = op_ratio(OperatorSpec(kind="hardy"), f, dyadic, params)
    assert np.isfinite(r) and r > 0


def test_scale_family_nested(dyadic, line_spec):
    x = line_spec.points()[..., 0]
    seeds = [ball_indicator(line_spec, dyadic, 0),
             GridFunction(line_spec, np.exp(-8 * x**2))]
    small = scale_translate_family(seeds, dyadic, 6, seed=11)
    large = scale_translate_family(seeds, dyadic, 24, seed=11)
    for a, b in zip(small, large):
        assert np.array_equal(a.values, b.values)


def test_boundedness_sweep_stability(dyadic, line_spec):
    x = line_spec.points()[..., 0]
    seeds = [ball_indicator(line_spec, dyadic, 0),
             GridFunction(line_spec, np.exp(-8 * x**2)),
             ball_indicator(line_spec, dyadic, 1)]
    hardy = OperatorSpec(kind="hardy")
    alphas = [0.1, 0.25, 0.4]
    small = scale_translate_family(seeds, dyadic, 8, seed=12)
    large = scale_translate_family(seeds, dyadic, 32, seed=12)
    rows_s = boundedness_sweep(hardy, dyadic, alphas, [0.0], small, delta2=0.5)
    rows_l = boundedness_sweep(hardy, dyadic, alphas, [0.0], large, delta2=0.5)
    for rs, rl in zip(rows_s, rows_l):
        assert rl["sup_ratio"] <= rs["sup_ratio"] * 1.5
        assert rl["sup_ratio"] >= rs["sup_ratio"] - 1e-12  # nested family
        assert rs["admissible"]
    with pytest.raises(EmptyGrid):
        boundedness_sweep(hardy, dyadic, [], [0.0], small)


def sweep_family(d, spec, size):
    r = spec.radii()
    seeds = [GridFunction(spec, (r < 0.5).astype(float)),
             GridFunction(spec, np.exp(-8.0 * r**2)),
             GridFunction(spec, ((r >= 0.5) & (r < 1.0)).astype(float))]
    return scale_translate_family(seeds, d, size, seed=14)


@pytest.mark.parametrize("matrix,resolution", [([[2.0]], 512),
                                               ([[2.0, 1.0], [0.0, 2.0]], 16)])
@pytest.mark.parametrize("kind", ["hardy", "truncated_riesz", "maximal", "identity"])
def test_sweep_cells_are_family_max_of_op_ratio(matrix, resolution, kind):
    # applying T once per function changes no cell: each row is exactly
    # the family max of op_ratio under that row's parameters
    d = make_dilation(matrix)
    family = sweep_family(d, GridSpec(radius=2.0, dim=d.dim, resolution=resolution), 6)
    t_spec = OperatorSpec(kind=kind, cutoff=0.25)
    rows = boundedness_sweep(t_spec, d, [0.1, 0.3], [0.0, 0.05], family, delta2=0.5)
    assert [(r["alpha"], r["lambda"]) for r in rows] == [
        (0.1, 0.0), (0.1, 0.05), (0.3, 0.0), (0.3, 0.05)]
    for row in rows:
        params = herz_params(alpha=row["alpha"], p=1.0, q=2.0, lam=row["lambda"],
                             delta2=0.5)
        assert row["sup_ratio"] == max(op_ratio(t_spec, f, d, params) for f in family)


def test_sweep_applies_operator_once_per_function(dyadic, line_spec, monkeypatch):
    calls = []
    apply = ops.apply_operator

    def counted(*args):
        calls.append(args)
        return apply(*args)

    monkeypatch.setattr(ops, "apply_operator", counted)
    family = sweep_family(dyadic, line_spec, 6)
    boundedness_sweep(OperatorSpec(kind="hardy"), dyadic, [0.1, 0.2, 0.3],
                      [0.0, 0.05, 0.1], family)
    assert len(calls) == len(family)


def test_sweep_rejects_zero_function(dyadic, line_spec):
    family = sweep_family(dyadic, line_spec, 3) + [zeros(line_spec)]
    with pytest.raises(ZeroFunction):
        boundedness_sweep(OperatorSpec(kind="hardy"), dyadic, [0.2], [0.0], family)


def test_sweep_region_flags(dyadic, line_spec):
    seeds = [ball_indicator(line_spec, dyadic, 0)]
    fam = scale_translate_family(seeds, dyadic, 3, seed=13)
    rows = boundedness_sweep(OperatorSpec(kind="identity"), dyadic,
                             [0.2], [0.0, 0.05, 0.2], fam, delta2=0.5)
    flags = {r["lambda"]: r["admissible"] for r in rows}
    assert flags[0.0] and flags[0.05]
    assert not flags[0.2]  # 2 lambda = 0.4 >= alpha
    assert all(r["sup_ratio"] == 1.0 for r in rows)


def test_apply_operator_dispatch(dyadic, line_spec):
    f = ball_indicator(line_spec, dyadic, 0)
    assert apply_operator(OperatorSpec(kind="identity"), f, dyadic) is f
    for kind in ("hardy", "truncated_riesz", "maximal"):
        out = apply_operator(OperatorSpec(kind=kind, cutoff=0.25), f, dyadic)
        assert out.spec == line_spec


def euclidean_maximal(f, b, krange):
    """Reference: max over k of the averages of |f| over the round balls
    of volume b^k (radius b^k / 2 on the line, r^2 < b^k / pi on the
    plane), each mask divided by its cell count."""
    spec = f.spec
    r2 = np.sum(offset_points(spec) ** 2, axis=-1)
    absf = np.abs(f.values)
    best = absf.copy()
    for k in range(krange[0], krange[1] + 1):
        radius = b ** k / 2.0 if spec.dim == 1 else math.sqrt(b ** k / math.pi)
        mask = r2 < radius * radius
        if np.any(mask):
            avg = fft_convolve_valid(absf, mask.astype(float)) / np.count_nonzero(mask)
            np.maximum(best, avg, out=best)
    return best


@pytest.mark.parametrize("matrix, dim, res", [
    ([[2.0]], 1, 512),
    ([[2.0, 1.0], [0.0, 2.0]], 2, 64),
    ([[2.0, 1.0], [0.0, 2.0]], 2, 128),
    ([[3.0, 0.0], [1.0, 1.5]], 2, 64),
    ([[3.0, 0.0], [1.0, 1.5]], 2, 65),
], ids=["dyadic-512", "shear-64", "shear-128", "lower-64", "lower-65"])
def test_maximal_on_isotropic_dilation_is_euclidean(matrix, dim, res):
    # the isotropic dilation b^{1/n} I has |det| = b and a unit-volume
    # round Delta, so its balls B_k are the round balls of volume b^k
    d = make_dilation(matrix)
    iso = make_dilation(d.b ** (1 / dim) * np.eye(dim))
    spec = GridSpec(radius=2.0, dim=dim, resolution=res)
    f = random_function(spec, np.random.default_rng(res))
    kr = default_krange(d, spec)
    got = maximal_apply(f, iso, kr)
    assert np.array_equal(got.values, euclidean_maximal(f, d.b, kr))


def direct_valid_convolve(f, kernel):
    """O(N^2) reference: out[i] = sum_j f[j] kernel[i + n - 1 - j]."""
    out_shape = tuple(m - n + 1 for n, m in zip(f.shape, kernel.shape))
    out = np.zeros(out_shape)
    for i in np.ndindex(out_shape):
        for j in np.ndindex(f.shape):
            out[i] += f[j] * kernel[tuple(a + n - 1 - b for a, b, n
                                          in zip(i, j, f.shape))]
    return out


@pytest.mark.parametrize("shape", [(23,), (9, 7)])
def test_fft_convolve_valid_matches_direct_sum(shape):
    rng = np.random.default_rng(4)
    f = rng.uniform(-1, 1, shape)
    # kernel index n - 1 is the zero offset; a kernel of length n has no
    # positive offsets, one of length 2n + 7 reaches past the outputs
    for length in (lambda n: n, lambda n: n + 3, lambda n: 2 * n - 1, lambda n: 2 * n + 7):
        kshape = tuple(length(n) for n in shape)
        m_out = tuple(m - n + 1 for n, m in zip(shape, kshape))
        full = rng.uniform(0.1, 1, kshape)
        corner = np.zeros(kshape)
        corner[(slice(0, 3),) * len(shape)] = 1.0
        centre = np.zeros(kshape)
        box = tuple(slice(n - 2, n + 1) for n in shape)
        centre[box] = rng.uniform(size=centre[box].shape)
        far = np.zeros(kshape)
        far[tuple(m - 1 for m in kshape)] = 2.0
        # a box equal to its point reflection, centred on the zero offset
        # at length 2n - 1 only
        symmetric = full + full[(slice(None, None, -1),) * len(shape)]
        if kshape == tuple(2 * n - 1 for n in shape):
            assert ops._spectrum(ops._crop(symmetric, shape)).dtype == np.float64
        # boxes wholly at negative offsets and wholly at positive ones; the
        # last reaches the last output, which an FFT length fitted to the
        # box's wrap-around alone would not hold
        boxes = [tuple(slice(0, n - 1) for n in shape),
                 tuple(slice(1, n // 2) for n in shape),
                 tuple(slice(n, None) for n in shape),
                 tuple(slice(n, m) for n, m in zip(shape, m_out))]
        sided = []
        for box in boxes:
            kernel = np.zeros(kshape)
            kernel[box] = rng.uniform(0.1, 1, kernel[box].shape)
            sided.append(kernel)
        # one kernel on each side of the direct-sum bound
        scattered = []
        for count in (ops._DIRECT_MAX, ops._DIRECT_MAX + 1):
            kernel = np.zeros(kshape)
            kernel.reshape(-1)[rng.choice(kernel.size, count, replace=False)] = \
                rng.uniform(0.1, 1, count)
            scattered.append(kernel)
        for kernel in (full, symmetric, corner, centre, far, *sided, *scattered):
            got = fft_convolve_valid(f, kernel)
            ref = direct_valid_convolve(f, kernel)
            assert got.shape == m_out
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.array_equal(fft_convolve_valid(f, np.zeros(kshape)), np.zeros(m_out))


@pytest.mark.parametrize("shape, kshape", [
    ((4, 4), (3, 3)),
    ((4, 4), (7, 3)),
    ((5,), (3,)),
    ((4, 4), (7,)),
    ((4,), (7, 7)),
])
def test_fft_convolve_valid_rejects_kernels_it_cannot_take(shape, kshape):
    with pytest.raises(BadParams, match=re.escape(f"input of shape {shape} with a "
                                                  f"kernel of shape {kshape}")):
        fft_convolve_valid(np.ones(shape), np.ones(kshape))


def test_operator_plans_keep_real_spectra(shear):
    spec = GridSpec(2.0, 2, 256)
    assert ops._riesz_plan(shear, spec, 0.25).spectrum.nbytes == 512 * 257 * 8
    plan = ops._maximal_plan(shear, spec, *default_krange(shear, spec))
    assert sum(ball.count > ops._DIRECT_MAX for ball in plan) == 9
    # every ball and Riesz kernel past the direct-sum bound is centred and
    # equal to its point reflection, and its plan keeps its real spectrum
    # and no mask; every other ball keeps its mask and no spectrum
    for matrix, dim, res in [([[2.0]], 1, 1024), ([[2.0, 1.0], [0.0, 2.0]], 2, 128),
                             ([[2.0, 1.0], [0.0, 2.0]], 2, 256),
                             ([[3.0, 0.0], [1.0, 2.0]], 2, 65)]:
        d = make_dilation(matrix)
        spec = GridSpec(radius=2.0, dim=dim, resolution=res)
        kernels = [*ops._maximal_plan(d, spec, *default_krange(d, spec)),
                   ops._riesz_plan(d, spec, 0.25), ops._riesz_plan(d, spec, 1.0)]
        fft = [kern.count > ops._DIRECT_MAX for kern in kernels]
        assert any(fft)
        assert [kern.spectrum is not None for kern in kernels] == fft
        assert [kern.values is None for kern in kernels] == fft
        assert all(kern.spectrum.dtype == np.float64
                   for kern in kernels if kern.spectrum is not None)


def test_maximal_transforms_f_once_per_fft_length(shear, monkeypatch):
    spec = GridSpec(2.0, 2, 128)
    f = random_function(spec, np.random.default_rng(37))
    kr = default_krange(shear, spec)
    plan = ops._maximal_plan(shear, spec, *kr)
    lengths = {ball.shape for ball in plan if ball.count > ops._DIRECT_MAX}
    assert len(lengths) < sum(ball.count > ops._DIRECT_MAX for ball in plan)
    shapes = []
    rfftn = np.fft.rfftn
    monkeypatch.setattr(np.fft, "rfftn",
                        lambda a, *args: shapes.append(a.shape) or rfftn(a, *args))
    maximal_apply(f, shear, kr)
    assert shapes.count(spec.shape) == len(lengths)


def test_operator_plans_build_the_offset_map_once(shear, monkeypatch):
    # the maximal and Riesz kernels are planned once per grid: the first
    # call of each builds the offset map, later calls read the plan alone
    calls = []
    build = dilation._grid_index_map
    monkeypatch.setattr(dilation, "_grid_index_map",
                        lambda d, axis: calls.append(axis.size) or build(d, axis))
    ops._maximal_plan.cache_clear()
    ops._riesz_plan.cache_clear()
    spec = GridSpec(2.0, 2, 64)
    f = random_function(spec, np.random.default_rng(29))
    kr = default_krange(shear, spec)
    maximal_apply(f, shear, kr)
    assert calls.count(127) == 1
    truncated_riesz_apply(f, shear, 0.25)
    assert calls.count(127) == 2
    for _ in range(2):
        maximal_apply(f, shear, kr)
        truncated_riesz_apply(f, shear, 0.25)
    assert calls.count(127) == 2


@pytest.mark.parametrize("matrix, dim, res", [
    ([[2.0]], 1, 1024),
    ([[2.0, 1.0], [0.0, 2.0]], 2, 64),
    ([[2.0, 1.0], [0.0, 2.0]], 2, 128),
    ([[3.0, 0.0], [1.0, 2.0]], 2, 65),
], ids=["dyadic-1024", "shear-64", "shear-128", "lower-65"])
def test_riesz_plan_matches_its_kernel(matrix, dim, res):
    d = make_dilation(matrix)
    spec = GridSpec(radius=2.0, dim=dim, resolution=res)
    f = random_function(spec, np.random.default_rng(res))
    rho_off = d.rho_of_index(offset_index_map(d, spec))
    kernel = np.divide(1.0, rho_off, out=np.zeros(rho_off.shape), where=rho_off >= 0.25)
    expect = fft_convolve_valid(f.values, kernel) * spec.cell_volume
    for _ in range(2):  # the second call reads the plan of the first at the latest
        assert np.array_equal(truncated_riesz_apply(f, d, 0.25).values, expect)


@pytest.mark.parametrize("matrix, dim, res", [
    ([[2.0]], 1, 1024),
    ([[2.0, 1.0], [0.0, 2.0]], 2, 128),
    ([[3.0, 0.0], [1.0, 2.0]], 2, 65),
], ids=["dyadic-1024", "shear-128", "lower-65"])
def test_maximal_plan_matches_its_balls(matrix, dim, res):
    d = make_dilation(matrix)
    spec = GridSpec(radius=2.0, dim=dim, resolution=res)
    f = random_function(spec, np.random.default_rng(res))
    kr = default_krange(d, spec)
    off = offset_index_map(d, spec)
    absf = np.abs(f.values)
    expect = absf.copy()
    for k in range(kr[0], kr[1] + 1):
        ball = off <= k - 1
        if ball.any():
            avg = fft_convolve_valid(absf, ball.astype(float)) / np.count_nonzero(ball)
            np.maximum(expect, avg, out=expect)
    for _ in range(2):  # the second call reads the plan of the first at the latest
        assert np.array_equal(maximal_apply(f, d, kr).values, expect)


def test_warm_maximal_holds_few_transients(shear):
    spec = GridSpec(2.0, 2, 256)
    f = random_function(spec, np.random.default_rng(41))
    kr = default_krange(shear, spec)
    maximal_apply(f, shear, kr)  # plans the balls
    plan = ops._maximal_plan(shear, spec, *kr)
    n = spec.resolution
    rows, cols = max((ball.shape for ball in plan if ball.spectrum is not None), key=math.prod)
    half = cols // 2 + 1
    # What a call must hold at once: |f| and the running maximum (n^2
    # floats each), one transform of |f| at the largest FFT lengths
    # (rows x half complex) and one inverse output.  The inverse's n x
    # cols real output is no larger than the n x half complex first stage
    # of the forward transform, which is live beside that transform while
    # it is built, so n x half complex bounds both.  numpy's iterator adds
    # one buffer of getbufsize() complex entries, and 16 KiB covers the
    # Python objects of a call.
    bound = 2 * n * n * 8 + rows * half * 16 + n * half * 16 + np.getbufsize() * 16 + 16384
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        maximal_apply(f, shear, kr)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= bound


def ball_sum_maximal(f, d, krange):
    """Reference: at each cell x and scale k, the sum of |f(y)| over the
    cells y with x - y in B_k, read off the offset map, divided by the
    number of offsets in B_k."""
    spec = f.spec
    n = spec.resolution
    off = offset_index_map(d, spec)
    scales = [(k, np.count_nonzero(off <= k - 1)) for k in range(krange[0], krange[1] + 1)]
    absf = np.abs(f.values)
    best = absf.copy()
    flip = (slice(None, None, -1),) * spec.dim
    for x in np.ndindex(spec.shape):
        # entry x - y + n - 1 of the offset map classifies x - y
        window = off[tuple(slice(i, i + n) for i in x)][flip]
        for k, count in scales:
            if count:
                best[x] = max(best[x], np.sum(absf[window <= k - 1]) / count)
    return best


@pytest.mark.parametrize("matrix, dim, res", [
    ([[2.0]], 1, 256),
    ([[2.0, 1.0], [0.0, 2.0]], 2, 32),
], ids=["dyadic-256", "shear-32"])
def test_maximal_matches_ball_sums(matrix, dim, res):
    d = make_dilation(matrix)
    spec = GridSpec(radius=2.0, dim=dim, resolution=res)
    f = random_function(spec, np.random.default_rng(res))
    kr = default_krange(d, spec)
    got = maximal_apply(f, d, kr).values
    assert np.allclose(got, ball_sum_maximal(f, d, kr), rtol=1e-12, atol=0.0)
