import numpy as np
import pytest

from herzlab import suites
from herzlab.config import SuiteConfig
from herzlab.dilation import ball_diameter
from herzlab.grid import GridSpec


@pytest.mark.parametrize("check", [
    suites._lebesgue_holder_defect,
    suites._lebesgue_ball_product_const,
    suites._herz_decomposition,
    suites._algebra_sum,
    suites._algebra_product,
    suites._operators_size_hardy,
    suites._atoms_make_validate,
])
def test_checks_pass_on_the_shear_plane(shear, plane_spec, check):
    cfg = SuiteConfig()
    rows = list(check(shear, plane_spec, np.random.default_rng(cfg.seed), cfg))
    assert rows
    for row in rows:
        assert row.asserted and row.passed, (row.check, row.measured)


def test_ball_product_box_holds_the_ball(dyadic, shear):
    # on the dyadic line the box is exactly 2^(k-1)
    assert [ball_diameter(dyadic, k) / 2 for k in range(-3, 4)] == \
        [2.0 ** (k - 1) for k in range(-3, 4)]
    for k in range(-3, 4):
        half = ball_diameter(shear, k) / 2
        pts = GridSpec(radius=2 * half, dim=2, resolution=256).points().reshape(-1, 2)
        inside = pts[shear.ball_contains(pts, k)]
        assert np.all(np.abs(inside) <= half)
        # the dyadic box 2^(k-1) cuts the sheared ball
        assert np.any(np.abs(inside) > 2.0 ** (k - 1))
