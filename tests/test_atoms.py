import numpy as np
import pytest

from herzlab import (
    Atom,
    OperatorSpec,
    Sequence,
    atom_make,
    atom_validate,
    atomic_sum_check,
    default_krange,
    dilate_phi,
    make_mollifier,
    min_moment_order,
    radial_maximal,
    size_condition_check,
)
from herzlab.dilation import annulus_index_map, offset_index_map, offset_points
from herzlab.errors import (
    IllConditioned,
    InvalidAtom,
    NonZeroMean,
    UnresolvableScale,
)
from herzlab.grid import GridFunction, GridSpec, zeros

from conftest import herz_params, random_function


@pytest.fixture(scope="module")
def hardy_params():
    return herz_params(alpha=0.6, p=1.0, q=2.0, delta2=0.5)


@pytest.fixture(scope="module")
def phi(dyadic):
    spec = GridSpec(radius=2.0, dim=1, resolution=2048)
    return make_mollifier(dyadic, spec)


def test_mollifier_mass_and_support(dyadic, phi):
    assert phi.phi.integral() == pytest.approx(1.0, abs=1e-8)
    idx = annulus_index_map(dyadic, phi.phi.spec)
    assert not np.any(phi.phi.values[idx >= 0] != 0.0)


def test_dilate_phi(dyadic, phi):
    p0 = dilate_phi(phi, 0)
    assert np.max(np.abs(p0.values - phi.phi.values)) <= 1e-12
    idx = annulus_index_map(dyadic, phi.phi.spec)
    for k in range(-2, 3):
        pk = dilate_phi(phi, k)
        assert pk.integral() == pytest.approx(1.0, abs=1e-6)
        assert not np.any(pk.values[idx >= k] != 0.0)
    with pytest.raises(UnresolvableScale):
        dilate_phi(phi, -9)


def test_radial_maximal_properties(dyadic, phi):
    spec = phi.phi.spec
    kr = default_krange(dyadic, spec)
    assert radial_maximal(zeros(spec), phi, kr).is_zero()
    mf = radial_maximal(phi.phi, phi, kr)
    center = spec.resolution // 2
    assert mf.values[center] > 0
    rng = np.random.default_rng(0)
    f = random_function(spec, rng)
    g = random_function(spec, rng)
    ma = radial_maximal(f, phi, kr)
    mb = radial_maximal(g, phi, kr)
    mab = radial_maximal(f + g, phi, kr)
    assert np.max(mab.values - ma.values - mb.values) <= 1e-9
    mc = radial_maximal(f * 4.0, phi, kr)
    assert np.max(np.abs(mc.values - 4.0 * ma.values)) <= 1e-9
    with pytest.raises(UnresolvableScale):
        radial_maximal(f, phi, (-12, -11))


def test_radial_maximal_kernel_vanishes_outside_ball(dyadic, shear, phi):
    # radial_maximal samples phi_k on the offset cells of B_k only; the
    # profile sampled on the whole offset grid is exactly 0 off them
    for d, mollifier in ((dyadic, phi),
                         (shear, make_mollifier(shear, GridSpec(2.0, 2, 64)))):
        spec = mollifier.phi.spec
        off = offset_index_map(d, spec).reshape(-1)
        opts = offset_points(spec).reshape(-1, d.dim)
        k_lo, k_hi = default_krange(d, spec)
        for k in range(k_lo, k_hi + 1):
            full = mollifier.profile(opts @ d.inv_power(k).T)
            assert not np.any(full[off > k - 1])


def test_haar_atom_moments(dyadic, hardy_params):
    spec = GridSpec(radius=0.5, dim=1, resolution=2048)
    params = herz_params(alpha=0.5, p=1.0, q=2.0, delta2=0.5)
    atom = atom_make("haar", 0, 0, dyadic, params, spec)
    rep0 = atom_validate(atom.data, 0, dyadic, params, 0)
    assert rep0["pass"]
    assert rep0["q_norm"] == pytest.approx(1.0, rel=1e-9)
    rep1 = atom_validate(atom.data, 0, dyadic, params, 1)
    assert not rep1["pass"]
    assert rep1["moments"]["1"] == pytest.approx(-0.25, abs=1e-8)


def test_haar_rejects_positive_s(dyadic, hardy_params):
    spec = GridSpec(radius=0.5, dim=1, resolution=512)
    with pytest.raises(InvalidAtom):
        atom_make("haar", 0, 1, dyadic, hardy_params, spec)
    with pytest.raises(InvalidAtom):
        atom_make("mystery", 0, 0, dyadic, hardy_params, spec)


def test_bump_corrected_atoms(dyadic, hardy_params):
    spec = GridSpec(radius=2.0, dim=1, resolution=2048)
    for k in (-1, 0, 1, 2):
        for s in (0, 1, 2):
            atom = atom_make("bump_corrected", k, s, dyadic, hardy_params, spec)
            rep = atom_validate(atom.data, k, dyadic, hardy_params, s)
            assert rep["pass"], (k, s, rep)
            assert rep["q_norm"] == pytest.approx(rep["bound"], rel=1e-9)


def test_bump_atoms_2d(iso2):
    spec = GridSpec(radius=2.0, dim=2, resolution=96)
    params = herz_params(alpha=0.6, p=1.0, q=2.0, delta2=0.5)
    atom = atom_make("bump_corrected", 0, 1, iso2, params, spec)
    rep = atom_validate(atom.data, 0, iso2, params, 1)
    assert rep["pass"]


def test_moment_cap(dyadic, hardy_params):
    spec = GridSpec(radius=2.0, dim=1, resolution=512)
    with pytest.raises(IllConditioned):
        atom_make("bump_corrected", 0, 5, dyadic, hardy_params, spec)


def test_moment_residual_scaling(dyadic, hardy_params):
    residuals = []
    for res in (1024, 2048):
        spec = GridSpec(radius=2.0, dim=1, resolution=res)
        atom = atom_make("bump_corrected", 1, 2, dyadic, hardy_params, spec)
        rep = atom_validate(atom.data, 1, dyadic, hardy_params, 2)
        residuals.append(max(abs(v) for v in rep["moments"].values()))
    assert residuals[1] <= max(residuals[0] * 4.0, 1e-12)


def test_min_moment_order(dyadic):
    params = herz_params(alpha=0.5, p=1.0, q=2.0, delta2=0.5)
    assert min_moment_order(dyadic, params) == 0
    params_hi = herz_params(alpha=1.0, p=1.0, q=2.0, delta2=0.5)
    # (1.0 - 0.5) ln 2 / ln 1.5 = 0.8547... -> floor 0
    assert min_moment_order(dyadic, params_hi) == 0
    params_vhi = herz_params(alpha=2.0, p=1.0, q=2.0, delta2=0.5)
    assert min_moment_order(dyadic, params_vhi) == 2


def test_validate_reports_admissibility(dyadic, hardy_params):
    spec = GridSpec(radius=2.0, dim=1, resolution=1024)
    atom = atom_make("bump_corrected", 0, 1, dyadic, hardy_params, spec)
    rep = atom_validate(atom.data, 0, dyadic, hardy_params, 1)
    assert rep["min_admissible_s"] == 0
    assert rep["s_admissible"]
    assert "alpha" in rep["note"]


def test_zero_function_passes_all(dyadic, hardy_params, line_spec):
    for k in (-2, 0, 2):
        for s in (0, 2):
            assert atom_validate(zeros(line_spec), k, dyadic, hardy_params,
                                 s)["pass"]


def test_restricted_type(dyadic, hardy_params):
    spec = GridSpec(radius=2.0, dim=1, resolution=1024)
    atom = atom_make("bump_corrected", -1, 0, dyadic, hardy_params, spec)
    rep = atom_validate(atom.data, -1, dyadic, hardy_params, 0,
                        restricted=True)
    assert not rep["restricted_ok"]


def test_atomic_sum_check(dyadic, phi, hardy_params):
    spec = phi.phi.spec
    atoms = [atom_make("bump_corrected", k, 1, dyadic, hardy_params, spec)
             for k in (0, 1, -1)]
    lam = Sequence(np.array([1.0, 0.5, 0.25]))
    rep = atomic_sum_check(atoms, lam, hardy_params, phi)
    assert np.isfinite(rep["ratio"]) and rep["ratio"] > 0
    assert "proxy" in rep
    rep2 = atomic_sum_check(atoms, lam.scale(2.0), hardy_params, phi)
    assert rep2["ratio"] == pytest.approx(rep["ratio"], rel=1e-9)
    repz = atomic_sum_check(atoms, lam.scale(0.0), hardy_params, phi)
    assert repz["degenerate"]
    bad = Atom(data=atoms[0].data * 100.0, scale_index=0, moment_order=1,
               params=hardy_params)
    with pytest.raises(InvalidAtom):
        atomic_sum_check([bad], Sequence(np.array([1.0])), hardy_params, phi)


def test_size_condition_hardy_exact_zero(dyadic, hardy_params):
    spec = GridSpec(radius=4.0, dim=1, resolution=1024)
    atom = atom_make("haar", 0, 0, dyadic, hardy_params, spec)
    rep = size_condition_check(OperatorSpec(kind="hardy"), atom, dyadic)
    assert rep["n_triggered"] > 0
    assert rep["far_field_exact_zero"]
    assert rep["tightest_c"] == 0.0


def test_size_condition_identity(dyadic, hardy_params):
    spec = GridSpec(radius=4.0, dim=1, resolution=1024)
    atom = atom_make("haar", 0, 0, dyadic, hardy_params, spec)
    rep = size_condition_check(OperatorSpec(kind="identity"), atom, dyadic)
    assert rep["tightest_c"] == 0.0


def test_size_condition_riesz_recorded(dyadic, hardy_params):
    spec = GridSpec(radius=4.0, dim=1, resolution=1024)
    cs = []
    for k in (-1, 0, 1):
        atom = atom_make("haar", k, 0, dyadic, hardy_params, spec)
        rep = size_condition_check(
            OperatorSpec(kind="truncated_riesz", cutoff=0.25), atom, dyadic)
        cs.append(rep["tightest_c"])
    assert all(np.isfinite(c) for c in cs)


def test_size_condition_rejects_nonzero_mean(dyadic, hardy_params):
    spec = GridSpec(radius=4.0, dim=1, resolution=512)
    mask = dyadic.ball_contains(spec.points().reshape(-1, 1), 0)
    f = GridFunction(spec, mask.reshape(spec.shape).astype(float))
    atom = Atom(data=f, scale_index=0, moment_order=0, params=hardy_params)
    with pytest.raises(NonZeroMean):
        size_condition_check(OperatorSpec(kind="hardy"), atom, dyadic)


def test_atomic_sum_admissibility_flag(dyadic, phi):
    spec = phi.phi.spec
    good = herz_params(alpha=0.6, p=1.0, q=2.0, delta2=0.5)
    atoms = [atom_make("bump_corrected", 0, 1, dyadic, good, spec)]
    lam = Sequence(np.array([1.0]))
    rep = atomic_sum_check(atoms, lam, good, phi)
    assert rep["admissible_weights"]
    low = herz_params(alpha=0.2, p=1.0, q=2.0, delta2=0.5)
    atoms_low = [atom_make("bump_corrected", 0, 1, dyadic, low, spec)]
    rep_low = atomic_sum_check(atoms_low, lam, low, phi)
    assert not rep_low["admissible_weights"]
