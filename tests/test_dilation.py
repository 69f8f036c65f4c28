import math
import warnings

import numpy as np
import pytest

from herzlab import (
    Dilation,
    ball_diameter,
    check_quasi_triangle,
    default_krange,
    hardy_apply,
    herz_norm_report,
    make_dilation,
    parse_matrix,
)
from herzlab import dilation
from herzlab.dilation import (
    ORIGIN_INDEX,
    _log_abs_det,
    annulus_index_map,
    annulus_order,
    offset_index_map,
    offset_points,
    per_grid,
)
from herzlab.errors import (
    BadDim,
    EmptySamples,
    NotExpansive,
    NotSquare,
    OriginQuery,
    UnresolvableScale,
)
from herzlab.grid import GridFunction, GridSpec

from conftest import expansive_matrices, herz_params


def linear_scan_index(d, pts):
    """Reference annulus index: expand k until every point is inside (and
    none is), then count non-memberships over the whole window."""
    k_hi = 0
    while not np.all(d.ball_contains(pts, k_hi)):
        k_hi += 1
    k_lo = 0
    while np.any(d.ball_contains(pts, k_lo)):
        k_lo -= 1
    outside = np.zeros(pts.shape[0], dtype=int)
    for k in range(k_lo, k_hi + 1):
        outside += ~d.ball_contains(pts, k)
    return k_lo + outside - 1


def linear_scan_map(d, pts):
    flat = pts.reshape(-1, d.dim)
    nonzero = np.any(flat != 0.0, axis=-1)
    idx = np.full(flat.shape[0], ORIGIN_INDEX)
    idx[nonzero] = linear_scan_index(d, flat[nonzero])
    return idx.reshape(pts.shape[:-1])


def test_dyadic_interval_geometry(dyadic):
    assert dyadic.b == 2.0
    assert dyadic.w == 1
    # unit cell is the interval (-1/2, 1/2)
    halfwidth = math.sqrt(dyadic.radius_squared / dyadic.ellipsoid_form[0, 0])
    assert halfwidth == pytest.approx(0.5, abs=1e-12)


def test_isotropic_plane_disk(iso2):
    assert iso2.b == 4.0
    # volume-1 disk: measure B_0 on a fine grid
    spec = GridSpec(radius=1.0, dim=2, resolution=512)
    mask = iso2.ball_contains(spec.points().reshape(-1, 2), 0)
    area = np.count_nonzero(mask) * spec.cell_volume
    assert area == pytest.approx(1.0, abs=5e-3)
    # isotropy: ellipsoid form is a scalar matrix
    m = iso2.ellipsoid_form
    assert abs(m[0, 1]) < 1e-12 and m[0, 0] == pytest.approx(m[1, 1])


def test_not_expansive_rejected():
    with pytest.raises(NotExpansive):
        make_dilation([[1.0]])
    with pytest.raises(NotExpansive):
        make_dilation([[0.5, 0.0], [0.0, 3.0]])


@pytest.mark.parametrize("matrix", [[[math.inf]], [[2.0, -1e300], [0.0, 2.0]],
                                    [[-1.7976931348623157e308, 0.0], [0.0, 2.0]]])
def test_matrix_beyond_the_float_range_rejected(matrix):
    # an entry, det A or the ellipsoid form leaves the float range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnresolvableScale):
            make_dilation(matrix)


def test_shape_validation():
    with pytest.raises(NotSquare):
        make_dilation(np.ones((2, 3)))
    with pytest.raises(BadDim):
        make_dilation(2.0 * np.eye(3))


def test_expansive_margins(shear):
    assert 1.0 < shear.lambda_minus < 2.0
    assert 1.0 < shear.c_growth < shear.lambda_minus


def test_growth_inequality(dyadic, shear):
    # |Ax|_M >= c |x|_M guarantees the balls nest
    rng = np.random.default_rng(0)
    for d in (dyadic, shear):
        x = rng.uniform(-3, 3, size=(500, d.dim))
        before = np.sqrt(d.m_quadform(x))
        after = np.sqrt(d.m_quadform(x @ d.matrix.T))
        assert np.all(after >= d.c_growth * before * (1 - 1e-12))


def test_annulus_index_examples(dyadic):
    assert dyadic.annulus_index([0.6]) == 0
    assert dyadic.annulus_index([0.25]) == -1
    with pytest.raises(OriginQuery):
        dyadic.annulus_index([0.0])


def test_annulus_shift_under_dilation(dyadic, shear):
    rng = np.random.default_rng(1)
    for d in (dyadic, shear):
        pts = rng.uniform(-2, 2, size=(400, d.dim))
        pts = pts[np.any(np.abs(pts) > 1e-9, axis=1)]
        assert np.array_equal(d.annulus_index(pts @ d.matrix.T),
                              d.annulus_index(pts) + 1)


def test_rho_values(dyadic):
    assert dyadic.rho([0.0]) == 0.0
    assert dyadic.rho([0.6]) == 1.0
    assert dyadic.rho([0.25]) == 0.5


def test_rho_homogeneity_many(dyadic):
    rng = np.random.default_rng(2)
    pts = rng.uniform(-2, 2, size=(1000, 1))
    pts = pts[np.abs(pts[:, 0]) > 1e-12]
    r1 = dyadic.rho(pts)
    r2 = dyadic.rho(pts @ dyadic.matrix.T)
    assert np.allclose(r2, dyadic.b * r1, rtol=0, atol=0)


def test_quasi_triangle_sampled(dyadic):
    rng = np.random.default_rng(3)
    xs = rng.uniform(-4, 4, size=(10_000, 1))
    ys = rng.uniform(-4, 4, size=(10_000, 1))
    rep = check_quasi_triangle(dyadic, xs, ys)
    assert rep["pass"]
    assert rep["bound"] == 2.0


def test_quasi_triangle_degenerate(dyadic):
    rep = check_quasi_triangle(dyadic, [[0.5]], [[-0.5]])
    assert rep["max_ratio"] == 0.0
    with pytest.raises(EmptySamples):
        check_quasi_triangle(dyadic, np.empty((0, 1)), np.empty((0, 1)))


def test_ball_nesting_on_grid(dyadic, iso2):
    for d, res in ((dyadic, 1024), (iso2, 96)):
        spec = GridSpec(radius=2.0, dim=d.dim, resolution=res)
        pts = spec.points().reshape(-1, d.dim)
        for k in range(-3, 3):
            inner = d.ball_contains(pts, k)
            outer = d.ball_contains(pts, k + 1)
            assert not np.any(inner & ~outer)


def test_ball_measure_convergence(dyadic):
    errs = []
    for res in (256, 1024, 4096):
        spec = GridSpec(radius=2.0, dim=1, resolution=res)
        pts = spec.points().reshape(-1, 1)
        worst = 0.0
        for k in (-2, -1, 0, 1):
            meas = np.count_nonzero(dyadic.ball_contains(pts, k)) * spec.cell_volume
            worst = max(worst, abs(meas / dyadic.b**k - 1.0))
        errs.append(worst)
    assert errs[-1] <= 2e-2
    assert errs[-1] <= errs[0] or errs[0] <= 2e-2


def test_index_map_matches_pointwise(dyadic):
    spec = GridSpec(radius=2.0, dim=1, resolution=256)
    idx = annulus_index_map(dyadic, spec)
    pts = spec.points().reshape(-1, 1)
    direct = dyadic.annulus_index(pts)
    assert np.array_equal(idx.reshape(-1), direct)


def test_ball_diameter_doubles(dyadic):
    d0 = ball_diameter(dyadic, 0)
    assert ball_diameter(dyadic, 1) == pytest.approx(2 * d0)
    assert d0 == pytest.approx(1.0, abs=1e-12)


def test_parse_matrix():
    m = parse_matrix("2 1; 0 2")
    assert m.shape == (2, 2) and m[0, 1] == 1.0
    assert parse_matrix("2").shape == (1, 1)
    assert parse_matrix("2, 0\n0, 2")[1, 1] == 2.0


def test_extreme_magnitudes(dyadic):
    assert dyadic.annulus_index([1e-12]) == -39
    assert dyadic.annulus_index([1e12]) == 40
    assert dyadic.rho([1e-12]) == pytest.approx(2.0 ** -39)


from hypothesis import given, settings, strategies as st


@settings(max_examples=25, deadline=None)
@given(d1=st.floats(min_value=1.2, max_value=3.0),
       d2=st.floats(min_value=1.2, max_value=3.0),
       shear_entry=st.floats(min_value=-2.0, max_value=2.0),
       seed=st.integers(min_value=0, max_value=2**31))
def test_quasi_triangle_random_expansive(d1, d2, shear_entry, seed):
    # triangular matrices keep eigenvalues on the diagonal, so every
    # sample here is expansive; the geometric construction must deliver
    # the quasi-triangle bound regardless of the shear strength
    d = make_dilation([[d1, shear_entry], [0.0, d2]])
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-4, 4, size=(500, 2))
    ys = rng.uniform(-4, 4, size=(500, 2))
    rep = check_quasi_triangle(d, xs, ys)
    assert rep["pass"], rep


def test_ellipsoid_volume_identity(dyadic, iso2, shear):
    # omega_n r0^n / sqrt(det M) = 1: the unit cell has unit measure
    for d in (dyadic, iso2, shear):
        omega = 2.0 if d.dim == 1 else math.pi
        det_m = float(np.linalg.det(d.ellipsoid_form))
        vol = omega * d.radius ** d.dim / math.sqrt(det_m)
        assert vol == pytest.approx(1.0, rel=1e-9)


def test_annulus_index_matches_linear_scan(dyadic, iso2, shear):
    for d in (dyadic, iso2, shear):
        for res in ((64, 511, 1024) if d.dim == 1 else (17, 64, 128)):
            for radius in (2.0, 3.0):
                spec = GridSpec(radius=radius, dim=d.dim, resolution=res)
                assert np.array_equal(annulus_index_map(d, spec),
                                      linear_scan_map(d, spec.points()))
                assert np.array_equal(offset_index_map(d, spec),
                                      linear_scan_map(d, offset_points(spec)))


def test_annulus_index_extreme_points_fast_and_quiet(dyadic, iso2, shear,
                                                     monkeypatch):
    # a bracketed bisection needs a handful of ball tests even at 1e+-150,
    # and never forms a power of A that overflows
    calls = []
    original = Dilation.ball_contains

    def counting(self, pts, k):
        calls.append(k)
        return original(self, pts, k)

    monkeypatch.setattr(Dilation, "ball_contains", counting)
    tri = make_dilation([[3.0, 1.0], [0.0, 1.5]])
    for d in (dyadic, iso2, shear, tri):
        for mag in (1e150, 1e-150):
            x = mag * np.array([1.0, 0.3][:d.dim])
            calls.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                j = d.annulus_index(x)
                assert len(calls) <= 16, (d.matrix, mag, len(calls))
                assert all(np.all(np.isfinite(d.inv_power(k))) for k in calls)
                assert d.ball_contains(x[None], j + 1)[0]
                assert not d.ball_contains(x[None], j)[0]


def test_annulus_index_beyond_power_window_is_typed(shear):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnresolvableScale):
            shear.annulus_index(np.array([1e-300, 0.0]))


def test_offset_map_ball_masks(dyadic, shear):
    for d, spec in ((dyadic, GridSpec(radius=2.0, dim=1, resolution=512)),
                    (shear, GridSpec(radius=2.0, dim=2, resolution=64))):
        off = offset_index_map(d, spec)
        opts = offset_points(spec)
        k_lo, k_hi = default_krange(d, spec)
        for k in range(k_lo, k_hi + 1):
            mask = d.ball_contains(opts.reshape(-1, d.dim), k)
            assert np.array_equal(off <= k - 1, mask.reshape(off.shape))


def test_index_map_ball_masks(dyadic, iso2, shear):
    # B_k is {idx <= k - 1} on the cell centers, origin included
    for d, dim, resolutions in ((dyadic, 1, (512, 1024)), (shear, 2, (64, 128)),
                                (iso2, 2, (128,))):
        for res in resolutions:
            spec = GridSpec(radius=2.0, dim=dim, resolution=res)
            idx = annulus_index_map(d, spec)
            for k in range(-6, 6):
                assert np.array_equal(idx <= k - 1,
                                      d.ball_contains(spec.points(), k))


def test_default_krange_cached(shear):
    spec = GridSpec(radius=2.0, dim=2, resolution=96)
    first = default_krange(shear, spec)
    assert default_krange(shear, spec) is first
    assert first == default_krange.__wrapped__(shear, spec)


@settings(max_examples=30, deadline=None)
@given(matrix=expansive_matrices,
       half=st.integers(min_value=5, max_value=48),
       odd=st.booleans(),
       radius=st.sampled_from([0.5, 2.0, 3.0]))
def test_index_maps_match_linear_scan_random(matrix, half, odd, radius):
    d = make_dilation(matrix)
    spec = GridSpec(radius=radius, dim=d.dim, resolution=2 * half - odd)
    assert np.array_equal(annulus_index_map(d, spec),
                          linear_scan_map(d, spec.points()))
    assert np.array_equal(offset_index_map(d, spec),
                          linear_scan_map(d, offset_points(spec)))


def test_odd_grid_centre_cell_is_the_origin():
    # centres computed as -radius + h (i + 1/2) put this grid's centre
    # cell at -5.55e-17, where the map read -126 and the scan -121
    d = make_dilation([[1.875, -0.625], [0.0, 1.25]])
    spec = GridSpec(radius=0.5, dim=2, resolution=49)
    idx = annulus_index_map(d, spec)
    assert idx[24, 24] == ORIGIN_INDEX
    assert np.array_equal(idx, linear_scan_map(d, spec.points()))


@pytest.mark.parametrize("resolution", [12, 64, 128])
def test_index_maps_skip_ill_conditioned_far_scales(resolution):
    # eigenvalues 3 and 1.21875 with eigenvector (1, 2): the offset map's
    # window reaches k = -45, where the computed A^43 has condition number
    # about 6.5e16 and ball_contains put the offset (0.25, 0.5), whose form
    # is 5.9% outside B_1, inside B_{-43}
    d = make_dilation([[3.22265625, -1.001953125], [0.4453125, 0.99609375]])
    spec = GridSpec(radius=0.5, dim=2, resolution=resolution)
    assert np.array_equal(annulus_index_map(d, spec),
                          linear_scan_map(d, spec.points()))
    assert np.array_equal(offset_index_map(d, spec),
                          linear_scan_map(d, offset_points(spec)))


def test_grid_of_other_dimension_rejected(dyadic, shear):
    line = GridFunction(GridSpec(radius=2.0, dim=1, resolution=64), np.ones(64))
    plane = GridFunction(GridSpec(radius=2.0, dim=2, resolution=16), np.ones((16, 16)))
    for d, f in ((shear, line), (dyadic, plane)):
        with pytest.raises(BadDim):
            herz_norm_report(f, d, herz_params(), "herz")
        with pytest.raises(BadDim):
            hardy_apply(f, d)
        with pytest.raises(BadDim):
            annulus_index_map(d, f.spec)
        with pytest.raises(BadDim):
            offset_index_map(d, f.spec)


@settings(max_examples=30, deadline=None)
@given(matrix=expansive_matrices,
       half=st.integers(min_value=2, max_value=48),
       odd=st.booleans())
def test_annulus_order_runs_are_the_annuli(matrix, half, odd):
    # a permutation of the cells: the origin cell first, then each index
    # j (the annulus C_{j+1}) as one run in raster order
    d = make_dilation(matrix)
    spec = GridSpec(radius=2.0, dim=d.dim, resolution=2 * half - odd)
    idx = annulus_index_map(d, spec).reshape(-1)
    order = annulus_order(d, spec)
    assert np.array_equal(np.sort(order.cells), np.arange(idx.size))
    assert np.array_equal(order.cells[:order.ball(-10**6)],
                          np.flatnonzero(idx == ORIGIN_INDEX))
    inside = idx[idx != ORIGIN_INDEX]
    for j in range(int(inside.min()) - 2, int(inside.max()) + 3):
        assert order.ball(j + 1) == np.count_nonzero(idx <= j)
        assert np.array_equal(order.cells[order.ball(j):order.ball(j + 1)],
                              np.flatnonzero(idx == j))
    assert annulus_order(d, spec) is order


def test_log_abs_det_is_exact():
    # det [[1 + u, 1], [1, 1 - u]] = -u^2 with u = 2^-30: in floats the
    # product (1 + u)(1 - u) rounds to 1 and the difference to 0
    u = 2.0**-30
    assert _log_abs_det(np.array([[1 + u, 1.0], [1.0, 1 - u]])) == -60 * math.log(2.0)
    assert _log_abs_det(np.array([[-3.0]])) == pytest.approx(math.log(3.0), rel=1e-15)
    assert _log_abs_det(np.array([[2.0, 4.0], [1.0, 2.0]])) == -math.inf
    # far below the smallest float, and far above the largest
    assert _log_abs_det(np.array([[1e-300, 0.0], [0.0, 1e-300]])) == pytest.approx(
        -600 * math.log(10.0), rel=1e-15)
    assert _log_abs_det(np.array([[1e300, 0.0], [0.0, 1e300]])) == pytest.approx(
        600 * math.log(10.0), rel=1e-15)


def test_index_maps_classify_no_point_alone(dyadic, shear, monkeypatch):
    def refuse(self, pts):
        raise AssertionError("grid maps must not classify points one by one")

    monkeypatch.setattr(Dilation, "annulus_index", refuse)
    tri = make_dilation([[3.0, 1.0], [0.0, 1.5]])
    for d in (dyadic, shear, tri):
        for res in (16, 33):
            spec = GridSpec(radius=2.0, dim=d.dim, resolution=res)
            assert annulus_index_map(d, spec).shape == spec.shape
            assert offset_index_map(d, spec).shape == (2 * res - 1,) * d.dim


def test_index_maps_beyond_power_window_are_typed(dyadic, shear):
    for d in (dyadic, shear):
        spec = GridSpec(radius=1e-290, dim=d.dim, resolution=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for build in (annulus_index_map, offset_index_map):
                with pytest.raises(UnresolvableScale):
                    build(d, spec)


def test_index_maps_redecide_boundary_cells(dyadic, shear, monkeypatch):
    # put the offset m*h on the boundary of B_k (up to the rounding of h):
    # x = m h with |A^{-k} x|_M = r0, so its form is within ulps of r0^2
    probed = []
    original = Dilation.ball_contains

    def recording(self, pts, k):
        probed.append((np.array(pts), k))
        return original(self, pts, k)

    monkeypatch.setattr(Dilation, "ball_contains", recording)
    for d, m in ((dyadic, np.array([5.0])), (shear, np.array([3.0, 5.0]))):
        for k in (0, 1):
            res = 24
            h = d.radius / math.sqrt(d.m_quadform(m @ d.inv_power(k).T))
            spec = GridSpec(radius=h * res / 2, dim=d.dim, resolution=res)
            probed.clear()
            off = offset_index_map(d, spec)
            cell = tuple((m + res - 1).astype(int))
            x = offset_points(spec)[cell]
            assert any(j == k and np.any(np.all(p == x, axis=-1)) for p, j in probed)
            assert np.array_equal(off, linear_scan_map(d, offset_points(spec)))
            assert (off[cell] <= k - 1) == d.ball_contains(x[None], k)[0]


def test_per_grid_bounds_each_cache_by_bytes(shear, monkeypatch):
    # entries of 8 * size bytes against a budget of 100 bytes
    monkeypatch.setattr(dilation, "_CACHE_BYTES", 100)
    built = []

    @per_grid
    def build(d, spec, size):
        built.append(size)
        return np.zeros(size), (np.zeros(0),)

    spec = GridSpec(2.0, 2, 8)
    for size in (5, 6, 5):  # 40 + 48 bytes fit
        build(shear, spec, size)
    assert built == [5, 6]
    build(shear, spec, 2)  # 104 bytes would not: the cache is cleared
    build(shear, spec, 5)
    assert built == [5, 6, 2, 5]
    for _ in range(2):  # 160 bytes, past the budget, are cached alone
        build(shear, spec, 20)
    build(shear, spec, 2)
    assert built == [5, 6, 2, 5, 20, 2]
    build.cache_clear()
    build(shear, spec, 2)
    assert built == [5, 6, 2, 5, 20, 2, 2]
