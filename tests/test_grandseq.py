import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from herzlab import (
    GrandSequenceParams,
    Sequence,
    eps_factor,
    grand_seq_norm,
    lp_seq_norm,
    nesting_report,
)
from herzlab.errors import BadExponent, BadParams
from herzlab.grandseq import _LOG_EPS, partial_sum_sup, sup_over_eps
from herzlab.oracles import (
    delta_sequence_value,
    grand_seq_dense,
    morrey_double_sup_reference,
)


def test_lp_basics():
    assert lp_seq_norm(Sequence(np.array([1.0])), 3.7) == 1.0
    assert lp_seq_norm(Sequence(np.array([1.0, 1.0])), 2.0) == pytest.approx(math.sqrt(2))
    assert lp_seq_norm(Sequence(np.array([3.0, 4.0])), 2.0) == pytest.approx(5.0)
    with pytest.raises(BadExponent):
        lp_seq_norm(Sequence(np.array([1.0])), 0.5)


def test_sequence_index_sets():
    Sequence(np.array([0.0, 1.0]), offset=0, index_set="N")
    with pytest.raises(BadParams):
        Sequence(np.array([1.0]), offset=-1, index_set="N")
    with pytest.raises(BadParams):
        Sequence(np.array([1.0]), offset=0, index_set="Z+")
    # leading zeros outside the index set are fine
    Sequence(np.array([0.0, 0.0, 1.0]), offset=-1, index_set="Z+")


def test_sequence_json_roundtrip():
    s = Sequence(np.array([1.0, -2.0, 0.5]), offset=-4)
    assert np.array_equal(Sequence.from_json_dict(s.to_json_dict()).values,
                          s.values)


def test_zero_sequence():
    params = GrandSequenceParams(p=2.0, theta=1.0)
    assert grand_seq_norm(Sequence(np.zeros(5)), params) == 0.0


def test_delta_sequence_oracle():
    val = grand_seq_norm(Sequence(np.array([1.0])),
                         GrandSequenceParams(p=1.0, theta=1.0))
    assert val == pytest.approx(delta_sequence_value(1.0, 1.0), abs=1e-6)
    assert val == pytest.approx(1.3211, abs=5e-4)


def test_theta_scaling_of_delta_value():
    v1 = grand_seq_norm(Sequence(np.array([1.0])),
                        GrandSequenceParams(p=1.0, theta=1.0))
    v2 = grand_seq_norm(Sequence(np.array([1.0])),
                        GrandSequenceParams(p=1.0, theta=2.0))
    assert v2 == pytest.approx(v1 ** 2, rel=1e-9)


def test_eps_factor_matches_delta():
    assert eps_factor(2.0, 1.5) == pytest.approx(
        delta_sequence_value(2.0, 1.5), abs=1e-6)


def test_dense_agreement_sweep():
    rng = np.random.default_rng(8)
    combos = [(p, t) for p in (1.0, 2.0, 3.0) for t in (0.5, 1.0, 2.0)]
    for i in range(60):
        n = int(rng.integers(1, 12))
        vals = rng.uniform(-2, 2, n) * 10.0 ** rng.integers(-3, 4)
        p, theta = combos[i % len(combos)]
        a = grand_seq_norm(Sequence(vals), GrandSequenceParams(p=p, theta=theta))
        b = grand_seq_dense(vals, p, theta)
        assert a == pytest.approx(b, rel=1e-6)


def test_grid_vs_denser_grid():
    # the library scan against sup_over_eps on a 10x denser scan of a
    # log value written out here
    rng = np.random.default_rng(9)
    dense = np.linspace(_LOG_EPS[0], _LOG_EPS[-1], 10 * len(_LOG_EPS))
    p, theta = 2.0, 1.0
    for _ in range(30):
        vals = rng.uniform(-2, 2, int(rng.integers(1, 10)))
        log_x = np.log(np.abs(vals))

        def log_value(log_eps):
            big_p = p * (1.0 + np.exp(log_eps))
            log_sum = np.logaddexp.reduce(np.multiply.outer(big_p, log_x), axis=1)
            return (theta * log_eps + log_sum) / big_p

        a = grand_seq_norm(Sequence(vals), GrandSequenceParams(p=p, theta=theta))
        b = max(math.exp(sup_over_eps(log_value, dense)[0]), np.max(np.abs(vals)))
        assert a == pytest.approx(b, rel=1e-6)


@pytest.mark.parametrize("theta", [1e-3, 1e-6, 1e-9])
def test_small_theta_against_analytic_sup(theta):
    # n ones, p = 1: the norm is max over eps of
    # exp((theta log eps + log n) / (1 + eps)); its derivative has the sign
    # of g(eps) = theta (1 + eps) / eps - theta log eps - log n, which falls
    # in eps, so bisect g on log eps over [1e-20, 1e3]
    n = 100
    lo, hi = math.log(1e-20), math.log(1e3)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        eps = math.exp(mid)
        if theta * (1.0 + eps) / eps - theta * mid - math.log(n) > 0:
            lo = mid
        else:
            hi = mid
    eps = math.exp(0.5 * (lo + hi))
    ref = math.exp((theta * math.log(eps) + math.log(n)) / (1.0 + eps))
    value, arg_eps = grand_seq_norm(Sequence(np.ones(n)),
                                    GrandSequenceParams(p=1.0, theta=theta),
                                    with_argmax=True)
    assert value == pytest.approx(ref, rel=1e-9)
    assert arg_eps == pytest.approx(eps, rel=1e-2)


@settings(max_examples=40, deadline=None)
@given(c=st.floats(min_value=1e-4, max_value=1e4),
       seed=st.integers(min_value=0, max_value=2**31))
def test_homogeneity(c, seed):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(-2, 2, int(rng.integers(1, 10)))
    seq = Sequence(vals)
    params = GrandSequenceParams(p=2.0, theta=1.0)
    n = grand_seq_norm(seq, params)
    if n > 0:
        assert grand_seq_norm(seq.scale(c), params) == pytest.approx(c * n, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_support_monotone(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    vals = rng.uniform(-2, 2, n)
    params = GrandSequenceParams(p=1.5, theta=1.0)
    base = grand_seq_norm(Sequence(vals), params)
    drop = vals.copy()
    drop[rng.integers(0, n)] = 0.0
    assert grand_seq_norm(Sequence(drop), params) <= base + 1e-12


def test_sup_limit_dominated():
    params = GrandSequenceParams(p=2.0, theta=3.0)
    for j in range(-3, 4):
        seq = Sequence.from_entries({j: 1.0})
        assert grand_seq_norm(seq, params) >= 1.0


def test_nesting_chain():
    x = Sequence(0.5 ** np.arange(10))
    rep = nesting_report(x, p=2.0, theta1=1.0, theta2=2.0, eps=0.25, delta=1.0)
    assert all(math.isfinite(v) for v in rep["ratios"].values())
    # doubling the sequence doubles every norm in the chain
    rep2 = nesting_report(x.scale(2.0), 2.0, 1.0, 2.0, 0.25, 1.0)
    for key in rep["norms"]:
        assert rep2["norms"][key] == pytest.approx(2 * rep["norms"][key], rel=1e-12)
    # delta sequence: all plain norms 1, grand values are the eps factors
    repd = nesting_report(Sequence(np.array([1.0])), 1.0, 1.0, 2.0, 0.5, 1.0)
    assert repd["norms"]["lp"] == 1.0
    assert repd["norms"]["grand_theta1"] == pytest.approx(eps_factor(1.0, 1.0), rel=1e-9)
    with pytest.raises(BadParams):
        nesting_report(x, 2.0, 2.0, 1.0, 0.25, 1.0)
    with pytest.raises(BadParams):
        nesting_report(x, 2.0, 1.0, 2.0, 0.9, 1.0)


def test_partial_sum_sup_against_dense_oracles():
    # leading, inner and trailing zeros; levels L = -3 .. K-4, b = 2
    b = 2.0
    cases = [
        (np.array([0.0, 0.0, 0.7, 1.3, 0.0, 0.4, 2.0, 0.0, 0.0]), 1.0, 1.0),
        (np.array([0.0, 1.5, 0.2, 0.0, 0.0, 3.0, 0.1]), 2.0, 0.5),
        (np.array([0.3, 0.0, 0.9, 0.05, 0.0]), 1.5, 2.0),
    ]
    for t, p, theta in cases:
        ks = np.arange(len(t)) - 3
        params = GrandSequenceParams(p=p, theta=theta)
        # sup over L of the weighted per-level sups: the dense oracle on
        # each truncation t_{k <= L}, independent of the main path
        per_level = np.array([grand_seq_dense(t[:i + 1], p, theta)
                              for i in range(len(t))])
        assert partial_sum_sup(t, params)[0] == pytest.approx(
            grand_seq_dense(t, p, theta), rel=1e-6)
        for lam in (0.0, 0.1, 0.4):
            log_w = -lam * math.log(b) * ks
            value, _, arg_pos = partial_sum_sup(t, params, log_w)
            ref = morrey_double_sup_reference(
                {int(k): float(v) for k, v in zip(ks, t)}, b, p, theta, lam)
            assert value == pytest.approx(ref, rel=1e-6)
            dense = np.exp(log_w) * per_level
            assert value == pytest.approx(float(np.max(dense)), rel=1e-6)
            near = np.flatnonzero(dense >= np.max(dense) * (1 - 1e-6))
            if np.all(dense[near] == dense[near[0]]):
                # unique dense maximum, or exact ties (trailing zeros at
                # lam = 0), which go to the smallest L
                assert arg_pos == near[0]
