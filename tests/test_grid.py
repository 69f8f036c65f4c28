import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from herzlab.errors import BadGrid, ConfigError, GridMismatch, IoError
from herzlab.grid import (
    GridFunction,
    GridSpec,
    bump_profile,
    from_descriptor,
    indicator,
    load_csv,
    save_csv,
    zeros,
)


def test_cell_geometry(line_spec):
    assert line_spec.cell_width == pytest.approx(4.0 / 512)
    assert line_spec.cell_volume == line_spec.cell_width
    centers = line_spec.axis_centers()
    assert len(centers) == 512
    assert centers[0] == pytest.approx(-2.0 + line_spec.cell_width / 2)
    # exactly antisymmetric: an odd grid's centre cell is the origin
    for res in (512, 49):
        c = GridSpec(radius=0.5, dim=1, resolution=res).axis_centers()
        assert np.array_equal(c, -c[::-1])
    assert GridSpec(radius=0.5, dim=1, resolution=49).axis_centers()[24] == 0.0


def test_points_shape(plane_spec):
    pts = plane_spec.points()
    assert pts.shape == (64, 64, 2)
    assert np.allclose(pts[:, :, 0], pts[:, :, 0][:, :1])  # x varies on axis 0


def test_immutability(line_spec):
    f = zeros(line_spec)
    with pytest.raises(ValueError):
        f.values[0] = 1.0
    with pytest.raises(AttributeError):
        f.values = np.ones(line_spec.shape)


def test_arithmetic_and_mismatch(line_spec):
    f = GridFunction(line_spec, np.ones(line_spec.shape))
    g = 2.0 * f
    assert (g - f).integral() == pytest.approx(4.0)
    other = GridSpec(radius=2.0, dim=1, resolution=256)
    with pytest.raises(GridMismatch):
        f + GridFunction(other, np.ones(other.shape))


def test_nonfinite_rejected(line_spec):
    vals = np.ones(line_spec.shape)
    vals[3] = np.inf
    with pytest.raises(ValueError) as info:
        GridFunction(line_spec, vals)
    assert isinstance(info.value, BadGrid)


@pytest.mark.parametrize("radius, resolution", [(2.0, 1), (2.0, -4), (0.0, 8),
                                                (-1.0, 8), (math.nan, 8),
                                                # cells of subnormal or infinite width
                                                (5e-324, 2), (1.7976931348623157e308, 8)])
def test_impossible_grid_rejected(radius, resolution):
    with pytest.raises(ValueError) as info:
        GridSpec(radius=radius, dim=1, resolution=resolution)
    assert isinstance(info.value, BadGrid)


def test_csv_roundtrip(tmp_path, line_spec):
    rng = np.random.default_rng(0)
    f = GridFunction(line_spec, rng.uniform(-1, 1, line_spec.shape))
    path = tmp_path / "f.csv"
    save_csv(f, path)
    g = load_csv(path)
    assert g.spec == line_spec
    assert np.array_equal(g.values, f.values)


def test_csv_roundtrip_2d(tmp_path, plane_spec):
    rng = np.random.default_rng(1)
    f = GridFunction(plane_spec, rng.uniform(-1, 1, plane_spec.shape))
    path = tmp_path / "f2.csv"
    save_csv(f, path)
    assert np.array_equal(load_csv(path).values, f.values)


def test_csv_text_is_float_repr(tmp_path):
    # every value is written as Python's shortest round-trip repr
    vals = [-0.0, 5e-324, 1e16, 1e-05, 0.1, 1.0000000000000002]
    spec = GridSpec(radius=0.1, dim=1, resolution=len(vals))
    path = tmp_path / "f.csv"
    save_csv(GridFunction(spec, np.array(vals)), path)
    assert path.read_text() == (
        "0.1,1,6\n-0.0,5e-324,1e+16,1e-05,0.1,1.0000000000000002\n")
    assert [v.hex() for v in load_csv(path).values.tolist()] == \
        [v.hex() for v in vals]


# the writer's edge values: signed zeros, the smallest subnormal, huge and
# tiny magnitudes
_EDGE = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, -1e-300]
_MIXED = st.one_of(st.sampled_from(_EDGE),
                   st.floats(allow_nan=False, allow_infinity=False))
_DENSE = _MIXED.map(lambda v: v or -0.0)  # no +0.0


@st.composite
def _csv_rows(draw):
    """(dim, rows): all-zero, dense (no +0.0) and mixed rows of one grid."""
    dim, n = draw(st.sampled_from([1, 2])), draw(st.integers(2, 6))
    kinds = {"zero": st.just(0.0), "dense": _DENSE, "mixed": _MIXED}
    return dim, [draw(st.lists(kinds[draw(st.sampled_from(sorted(kinds)))],
                               min_size=n, max_size=n))
                 for _ in range(n if dim == 2 else 1)]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_csv_rows())
def test_csv_text_matches_row_repr(tmp_path, case):
    # the writer's text is the plain per-row repr join, however many of
    # a row's cells are +0.0
    dim, rows = case
    spec = GridSpec(radius=1.5, dim=dim, resolution=len(rows[0]))
    vals = np.array(rows if dim == 2 else rows[0])
    path = tmp_path / "f.csv"
    save_csv(GridFunction(spec, vals), path)
    assert path.read_text() == "".join(
        [f"1.5,{dim},{spec.resolution}\n"]
        + [",".join(map(repr, row.tolist())) + "\n"
           for row in (vals if dim == 2 else vals[None, :])])


def test_csv_accepts_blank_lines_in_body(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("2.0,2,2\n\n1.0,-0.0\n\n3.5,4\n")
    g = load_csv(path)
    assert g.spec == GridSpec(radius=2.0, dim=2, resolution=2)
    assert g.values.tolist() == [[1.0, -0.0], [3.5, 4.0]]


def test_csv_blank_body_rejected_without_warning(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("2.0,1,2\n\n \n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IoError, match="no values"):
            load_csv(path)


def test_csv_load_streams(tmp_path):
    # the reader holds no copy of the file's text: its peak allocation is
    # the parsed array and the GridFunction's own copy of it
    spec = GridSpec(radius=2.0, dim=2, resolution=256)
    f = GridFunction(spec, np.random.default_rng(3).uniform(-1, 1, spec.shape))
    path = tmp_path / "f.csv"
    save_csv(f, path)
    tracemalloc.start()
    try:
        g = load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(g.values, f.values)
    assert peak < 3 * f.values.nbytes


def test_descriptors(line_spec):
    ind = from_descriptor(line_spec, {"family": "indicator", "lo": 0.0, "hi": 1.0})
    assert ind.integral() == pytest.approx(1.0, abs=2 * line_spec.cell_width)
    bump = from_descriptor(line_spec, {"family": "bump", "center": [0.0], "width": 0.5})
    assert bump.sup() > 0 and bump.values[0] == 0.0
    n1 = from_descriptor(line_spec, {"family": "noise", "seed": 9})
    n2 = from_descriptor(line_spec, {"family": "noise", "seed": 9})
    assert np.array_equal(n1.values, n2.values)


def test_descriptors_match_their_formulas(line_spec, plane_spec):
    # each family on the samples it reads: the line's centres, the
    # plane's radii and points, or the seeded generator alone
    x, r = line_spec.axis_centers(), plane_spec.radii()
    pts = plane_spec.points()
    for spec, desc, want in [
        (line_spec, {"family": "indicator", "lo": -0.25, "hi": 0.5},
         ((x >= -0.25) & (x < 0.5)).astype(float)),
        (plane_spec, {"family": "indicator"}, ((r >= 0.0) & (r < 1.0)).astype(float)),
        (plane_spec, {"family": "bump", "center": [0.1, -0.2], "width": 0.7},
         bump_profile(np.sum((pts - np.array([0.1, -0.2])) ** 2, axis=-1) / 0.7**2)),
        (plane_spec, {"family": "noise", "seed": 5, "amplitude": 2.0},
         2.0 * np.random.default_rng(5).uniform(-1.0, 1.0, size=plane_spec.shape)),
    ]:
        assert np.array_equal(from_descriptor(spec, desc).values, want)


@pytest.mark.parametrize("desc, why", [
    ([1, 2], "JSON object"),
    ({"family": "spline"}, "spline"),
    ({"family": "noise", "sede": 3}, "sede"),
    ({"family": "noise", "amplitude": 1e309}, "amplitude"),
    ({"family": "noise", "seed": "x"}, "seed"),
    ({"family": "noise", "seed": -1}, "seed"),
    ({"family": "indicator", "lo": [0, 1]}, "lo"),
    ({"family": "bump", "center": [0, 0, 0]}, "center"),
    ({"family": "bump", "center": [0, None]}, "center"),
    # a width that is not positive would divide by 0 or run as |width|
    ({"family": "bump", "width": 0}, "width"),
    ({"family": "bump", "width": -0.5}, "width"),
])
def test_bad_descriptor_rejected(plane_spec, desc, why):
    with pytest.raises(ConfigError, match=why):
        from_descriptor(plane_spec, desc)


def test_indicator_and_restriction(line_spec):
    x = line_spec.points()[..., 0]
    f = indicator(line_spec, x > 0)
    g = f.where(x > 1)
    assert g.integral() == pytest.approx(1.0, abs=2 * line_spec.cell_width)


@pytest.mark.parametrize("values", [[[0.5, -2.0], [1.5, 0.25]],
                                    [[-0.5, -2.0], [-1.5, -0.25]],
                                    [[0.0, -0.0], [-0.0, 0.0]],
                                    [[-0.0, -0.0], [-0.0, -0.0]]])
def test_sup_is_max_abs(values):
    spec = GridSpec(radius=1.0, dim=2, resolution=2)
    f = GridFunction(spec, np.array(values))
    assert f.sup() == np.max(np.abs(f.values))
    if not np.any(f.values):
        assert math.copysign(1.0, f.sup()) == 1.0  # +0.0, as max |f| gives


@pytest.mark.parametrize("dim", [1, 2])
def test_radii_fresh_on_each_call(dim):
    spec = GridSpec(radius=2.0, dim=dim, resolution=9)
    first, second = spec.radii(), spec.radii()
    assert not np.shares_memory(first, second)
    first[...] = -1.0
    assert np.array_equal(spec.radii(), second)
