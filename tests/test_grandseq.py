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
from herzlab.config import SuiteConfig
from herzlab.errors import BadExponent, BadParams
from herzlab.grandseq import _LOG_EPS, partial_sum_sup, sup_over_eps
from herzlab.oracles import (
    delta_sequence_value,
    grand_seq_dense,
    morrey_double_sup_reference,
)
from herzlab.suites import _grandseq_dense_agreement


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
    (row,) = _grandseq_dense_agreement(None, None, np.random.default_rng(8),
                                       SuiteConfig(seed=8))
    assert row.bound == 1e-13 and row.passed, row.measured


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


def _smooth(s):
    return -(s - 0.3) ** 2 + 0.25 * np.sin(s)


def _plateau(s):
    # flat 0 over |log eps| <= 10: about 100 scan points are local maxima
    return np.minimum(0.0, 10.0 - np.abs(s)) + 0.0


def _holes(s):
    v = -(s - 1.0) ** 2
    v = np.where(np.sin(37.0 * s) > 0.5, np.nan, v)
    return np.where(s < -20.0, -np.inf, v)


def _twin(s):
    # two plateaus of exactly 0: the tie goes to the smaller eps
    def bump(c):
        return np.minimum(0.0, 1.0 - 10.0 * (s - c) ** 2)
    return np.maximum(bump(-7.3), bump(2.45))


# golden values: (log_sup, arg_eps) as float.hex, then a budget of
# log_value calls (one more than the zoom takes)
@pytest.mark.parametrize("log_value, log_sup, arg_eps, calls", [
    (_smooth, "0x1.66b2c6895d66fp-4", "0x1.8374231b2b1e0p+0", 5),
    (lambda s: s, "0x1.ba18a998fffa0p+3", "0x1.e847ffffffffcp+19", 11),
    (lambda s: -2.0 * s, "0x1.25e4f7b2737fap+6", "0x1.0000000000003p-53", 10),
    (_plateau, "0x0.0p+0", "0x1.e585ee76c69e9p+11", 11),
    (_holes, "-0x1.0be7c1b620000p-71", "0x1.5bf0a8b12600ap+1", 12),
    (lambda s: np.full(s.shape, -np.inf), "-inf", "0x1.0000000000003p-53", 2),
    (_twin, "0x0.0p+0", "0x1.02283da2550ecp-11", 12),
], ids=["smooth", "max-at-255", "max-at-0", "plateau", "nan-and-inf",
        "all-inf", "twin"])
def test_sup_over_eps_golden(log_value, log_sup, arg_eps, calls):
    sizes = []

    def counted(log_eps):
        sizes.append(len(log_eps))
        return log_value(log_eps)

    got = sup_over_eps(counted, _LOG_EPS)
    assert tuple(float(v).hex() for v in got) == (log_sup, arg_eps)
    assert len(sizes) <= calls


def test_sup_over_eps_against_references():
    # smooth: the root s* of f' = -2 (s - 0.3) + 0.25 cos s, by bisection.
    # f is computed to within e = 2 ulp (sin, square, difference, all in
    # f's binade or below), f_star too.  The pick's computed value beats
    # one the zoom takes within 1e-10 of s*, so it lies within 2e of
    # f_star and its true value within 2e of f(s*); f'' < -2 then puts it
    # within sqrt(2e) of s*
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if -2.0 * (mid - 0.3) + 0.25 * math.cos(mid) > 0 else (lo, mid)
    s_star = 0.5 * (lo + hi)
    f_star = -(s_star - 0.3) ** 2 + 0.25 * math.sin(s_star)
    e = 2 * math.ulp(f_star)
    log_sup, arg_eps = sup_over_eps(_smooth, _LOG_EPS)
    assert abs(log_sup - f_star) <= 2 * e
    assert abs(math.log(arg_eps) - s_star) <= math.sqrt(2 * e)

    # nan-and-inf: the max 0 at s = 1 (sin 37 < 0.5, not a hole).  Near 1,
    # s - 1 is exact and -(s - 1)^2 orders the points exactly, so the last
    # bracket, under 1e-10 (|a| + |b|) < 2.1e-10 wide, holds s = 1 and the pick
    log_sup, arg_eps = sup_over_eps(_holes, _LOG_EPS)
    s = math.log(arg_eps)
    assert abs(s - 1.0) <= 2.1e-10 + 2 * math.ulp(1.0)
    assert -(2.1e-10 + 2 * math.ulp(1.0)) ** 2 <= log_sup <= 0.0

    # twin: 0 is attained on both plateaus, so the smallest eps with value 0
    # is the left end s0 = -7.3 - sqrt(0.1) of the left one.  1 - 10 (s + 7.3)^2
    # has slope 6.3 there and rounds by about 3e-15, so its computed zeros
    # start within 1e-15 of s0; the last bracket is under 1e-10 (|a| + |b|)
    # < 1.6e-9 wide and holds that start
    log_sup, arg_eps = sup_over_eps(_twin, _LOG_EPS)
    assert log_sup == 0.0
    assert abs(math.log(arg_eps) - (-7.3 - math.sqrt(0.1))) <= 1.6e-9


def _skewed(s):
    # f = -(e^y - 1 - y) / 64 with y = 8 (s + 5): the max 0 at s = -5,
    # where f'' = -1 and f''' = -8, so the vertex error k h^2 of a parabola
    # through three points is 8 times its size at k = 1
    y = 8.0 * (s + 5.0)
    with np.errstate(over="ignore"):
        return -(np.expm1(y) - y) / 64.0


def test_sup_over_eps_recovers_from_a_narrowed_miss():
    # after the scan, each call is the one bracket's row of 18 points
    rows = []

    def recorded(log_eps):
        v = _skewed(log_eps)
        rows.append((np.array(log_eps), np.where(np.isfinite(v), v, -np.inf)))
        return v

    log_sup, arg_eps = sup_over_eps(recorded, _LOG_EPS)
    assert all(len(t) == 18 for t, _ in rows[1:])
    # a round after a strictly peaked interior best is a vertex round: its
    # window, 19 of its own spacings wide, is at most h/8 for the spacing h
    # of the row that placed it.  A vertex round right after another has a
    # narrowed window; it has missed when its best point, at a window end,
    # beats its neighbour
    narrowed = missed = 0
    after_vertex = False
    for (t0, v0), (t, v) in zip(rows, rows[1:]):
        j0, j = int(np.argmax(v0)), int(np.argmax(v))
        vertex = 0 < j0 < len(t0) - 1 and v0[j0 - 1] < v0[j0] > v0[j0 + 1]
        if vertex:
            assert 19 * (t[1] - t[0]) <= (t0[1] - t0[0]) / 8 * (1 + 1e-12)
        if vertex and after_vertex:
            narrowed += 1
            missed += (j == 0 and v[0] > v[1]) or (j == 17 and v[17] > v[16])
        after_vertex = vertex
    assert narrowed >= 1 and missed >= 1, (narrowed, missed)

    # near s = -5, y is exact, expm1 is within an ulp of e^y - 1, and the
    # difference with y and the division by 64 are exact, so the computed
    # f is within 2^-52 |y| / 64 = 2^-55 |s + 5| of f; f lies within a
    # factor e^{8 |s + 5|} of -(s + 5)^2 / 2.  Those errors keep the last
    # rounds' points in order, so the last bracket, under
    # 1e-10 (|a| + |b|) < 1.01e-9 wide, holds s = -5 and a point within
    # that of it, whose computed value is above -5.2e-19.  The pick beats
    # it, so its true value is above -5.3e-19 and it lies within 1.1e-9
    assert -5.2e-19 <= log_sup <= 2.0 ** -100
    assert abs(math.log(arg_eps) + 5.0) <= 1.1e-9


def test_sup_over_eps_call_budget(monkeypatch):
    # the vertex zoom over 600 seeded sequences: equal and Morrey weights,
    # p in [1, 10], theta in [1e-9, 50] and magnitudes 1e+-200.  It makes
    # 4.62 log_value calls a supremum here, at most 12; an even zoom made
    # 10.7 (at most 11), and vertex windows of a fixed h/16 made 7.78
    import herzlab.grandseq as gs

    calls = []

    def counted_sup(log_value, log_eps):
        n = [0]

        def counted(s):
            n[0] += 1
            return log_value(s)

        got = sup_over_eps(counted, log_eps)
        calls.append(n[0])
        return got

    monkeypatch.setattr(gs, "sup_over_eps", counted_sup)
    for seed in range(600):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        x = rng.uniform(-1, 1, n) * 10.0 ** (rng.uniform(-3, 3, n) + rng.uniform(-200, 200))
        x[rng.random(n) < 0.2] = 0.0
        x[0] = x[0] or 1.0
        params = GrandSequenceParams(p=rng.uniform(1, 10),
                                     theta=math.exp(rng.uniform(math.log(1e-9), math.log(50))))
        ks = np.arange(n) - int(rng.integers(0, n))
        log_w = (np.where(ks <= 0, -rng.uniform(0, 1) * math.log(2.0) * ks, -np.inf)
                 if seed % 2 else 0.0)
        partial_sum_sup(x, params, log_w)
    assert len(calls) == 600
    assert max(calls) <= 12 and np.mean(calls) <= 5.0, (max(calls), np.mean(calls))


def analytic_ones_sup(theta, n):
    """(norm, argmax eps) of n ones at p = 1: the max over eps of
    exp((theta log eps + log n) / (1 + eps)).  Its derivative has the sign
    of g(eps) = theta (1 + eps) / eps - theta log eps - log n, which falls
    in eps, so g is bisected on log eps over [1e-20, 1e3]."""
    lo, hi = math.log(1e-20), math.log(1e3)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        eps = math.exp(mid)
        if theta * (1.0 + eps) / eps - theta * mid - math.log(n) > 0:
            lo = mid
        else:
            hi = mid
    eps = math.exp(0.5 * (lo + hi))
    return math.exp((theta * math.log(eps) + math.log(n)) / (1.0 + eps)), eps


@pytest.mark.parametrize("theta", [1e-3, 1e-6, 1e-9])
def test_small_theta_against_analytic_sup(theta):
    n = 100
    ref, eps = analytic_ones_sup(theta, n)
    value, arg_eps = partial_sum_sup(np.ones(n), GrandSequenceParams(p=1.0, theta=theta))[:2]
    assert value == pytest.approx(ref, rel=1e-9)
    assert arg_eps == pytest.approx(eps, rel=1e-2)


@pytest.mark.parametrize("theta", [1e-8, 1e-9, 1e-10])
def test_dense_oracle_reaches_small_eps(theta):
    # the maximiser theta / log n lies below 1e-8, so the dense scan must
    # reach down to the 2^-53 floor to see it
    n = 100
    ref, _ = analytic_ones_sup(theta, n)
    oracle = grand_seq_dense(np.ones(n), 1.0, theta)
    value = grand_seq_norm(Sequence(np.ones(n)), GrandSequenceParams(p=1.0, theta=theta))
    assert oracle == pytest.approx(ref, rel=1e-12)
    assert oracle == pytest.approx(value, rel=1e-12)


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
    # flat ones at tiny theta put the argmax eps far below 1e-8
    cases = [
        (np.array([0.0, 0.0, 0.7, 1.3, 0.0, 0.4, 2.0, 0.0, 0.0]), 1.0, 1.0, (0.0, 0.1, 0.4)),
        (np.array([0.0, 1.5, 0.2, 0.0, 0.0, 3.0, 0.1]), 2.0, 0.5, (0.0, 0.1, 0.4)),
        (np.array([0.3, 0.0, 0.9, 0.05, 0.0]), 1.5, 2.0, (0.0, 0.1, 0.4)),
        (np.ones(11), 1.0, 1e-9, (0.0, 0.1)),
        (np.ones(11), 1.0, 1e-12, (0.0, 0.1)),
    ]
    for t, p, theta, lams in cases:
        ks = np.arange(len(t)) - 3
        params = GrandSequenceParams(p=p, theta=theta)
        # sup over L of the weighted per-level sups: the dense oracle on
        # each truncation t_{k <= L}, independent of the main path
        per_level = np.array([grand_seq_dense(t[:i + 1], p, theta)
                              for i in range(len(t))])
        assert partial_sum_sup(t, params)[0] == pytest.approx(
            grand_seq_dense(t, p, theta), rel=1e-6)
        for lam in lams:
            log_w = -lam * math.log(b) * ks
            value, _, arg_pos = partial_sum_sup(t, params, log_w)
            ref = morrey_double_sup_reference(
                {int(k): float(v) for k, v in zip(ks, t)}, b, p, theta, lam)
            assert value == pytest.approx(ref, rel=1e-13, abs=0.0)
            dense = np.exp(log_w) * per_level
            assert value == pytest.approx(float(np.max(dense)), rel=1e-6)
            near = np.flatnonzero(dense >= np.max(dense) * (1 - 1e-6))
            if np.all(dense[near] == dense[near[0]]):
                # unique dense maximum, or exact ties (trailing zeros at
                # lam = 0), which go to the smallest L
                assert arg_pos == near[0]
