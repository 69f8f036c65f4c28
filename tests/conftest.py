import numpy as np
import pytest

from herzlab import ExponentFunction, HerzSpaceParams, make_dilation
from herzlab.grid import GridSpec
# the verification suites' seeded generators, shared so tests and suites
# draw the same functions from the same RNG calls
from herzlab.suites import _random_function as random_function
from herzlab.suites import _seeded_herz_function as annulus_supported_function


@pytest.fixture(scope="session")
def dyadic():
    return make_dilation([[2.0]])


@pytest.fixture(scope="session")
def iso2():
    return make_dilation(2.0 * np.eye(2))


@pytest.fixture(scope="session")
def shear():
    return make_dilation([[2.0, 1.0], [0.0, 2.0]])


@pytest.fixture
def line_spec():
    return GridSpec(radius=2.0, dim=1, resolution=512)


@pytest.fixture
def plane_spec():
    return GridSpec(radius=2.0, dim=2, resolution=64)


def herz_params(alpha=0.3, p=1.5, q=2.0, theta=1.0, lam=0.0, **kw):
    return HerzSpaceParams(
        alpha=alpha if isinstance(alpha, ExponentFunction)
        else ExponentFunction.constant(alpha),
        p=p,
        q=q if isinstance(q, ExponentFunction) else ExponentFunction.constant(q),
        theta=theta,
        lambda_morrey=lam,
        **kw,
    )
