import numpy as np
import pytest
from hypothesis import strategies as st

from herzlab import ExponentFunction, HerzSpaceParams, make_dilation
from herzlab.grid import GridFunction, GridSpec
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


def ball_indicator(spec, d, k=0):
    """The indicator of the dilation ball B_k on the cells of spec."""
    mask = d.ball_contains(spec.points().reshape(-1, d.dim), k)
    return GridFunction(spec, mask.reshape(spec.shape).astype(float))


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


def similar_to_diagonal(l1, l2, s, t):
    """S diag(l1, l2) S^{-1} with the skewed S = [[1 + s t, s], [t, 1]]
    (det 1): a full matrix, non-normal unless s = t = 0, whose computed
    powers lose the zero pattern a triangular matrix keeps."""
    shear = np.array([[1.0 + s * t, s], [t, 1.0]])
    return (shear @ np.diag([l1, l2]) @ np.linalg.inv(shear)).tolist()


# upper and lower triangular 2x2 matrices (eigenvalues on the diagonal,
# so all expansive), full non-normal matrices with real eigenvalues of
# either sign, and two 1D dilations, one orientation-reversing
eigenvalues = st.floats(min_value=1.2, max_value=3.0)
expansive_matrices = st.one_of(
    st.tuples(eigenvalues, st.floats(min_value=-2.0, max_value=2.0),
              eigenvalues, st.booleans())
    .map(lambda t: [[t[0], 0.0], [t[1], t[2]]] if t[3] else [[t[0], t[1]], [0.0, t[2]]]),
    st.tuples(eigenvalues, eigenvalues, st.booleans(),
              st.floats(min_value=-1.5, max_value=1.5),
              st.floats(min_value=-1.5, max_value=1.5))
    .map(lambda t: similar_to_diagonal(t[0], -t[1] if t[2] else t[1], t[3], t[4])),
    st.sampled_from([[[-3.0]], [[1.5]]]))
