"""The dense oracles themselves: their independence from the norm code,
the slope bounds that prune their eps scan, and the Morrey reference
against the library's partial-sum supremum."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from herzlab import GrandSequenceParams, oracles
from herzlab.grandseq import partial_sum_sup


def test_oracles_import_no_norm_code():
    tree = ast.parse(Path(oracles.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported |= {alias.name for alias in node.names}
    names = {part for name in imported for part in name.split(".")}
    assert not names & {"grandseq", "herz", "varlebesgue", "dilation", "operators"}


def _scans(monkeypatch, call):
    """The (log_fn, gap_slope) pairs that ``call`` hands the dense scanner."""
    seen = []
    scan = oracles._dense_log_max

    def record(log_fn, gap_slope):
        seen.append((log_fn, gap_slope))
        return scan(log_fn, gap_slope)

    monkeypatch.setattr(oracles, "_dense_log_max", record)
    call()
    monkeypatch.undo()
    return seen


def _morrey(t, p, theta, lam):
    return lambda: oracles.morrey_double_sup_reference(
        {k - 3: float(v) for k, v in enumerate(t)}, 2.0, p, theta, lam)


_RNG = np.random.default_rng(12)
_RANDOM = _RNG.uniform(0, 1, 9) * 10.0 ** _RNG.integers(-3, 4, 9)

# (name, oracle call, whether the bound is nearly attained)
_CASES = [
    ("random", lambda: oracles.grand_seq_dense(_RANDOM, 1.5, 1.0), False),
    ("random-small-theta", lambda: oracles.grand_seq_dense(_RANDOM, 3.0, 1e-3), False),
    ("flat", lambda: oracles.grand_seq_dense(np.ones(100), 1.0, 1e-9), True),
    ("one-hot", lambda: oracles.grand_seq_dense(np.array([1.0]), 2.0, 0.5), True),
    ("morrey-random", _morrey(_RANDOM, 1.0, 2.0, 0.3), False),
    ("morrey-flat", _morrey(np.ones(11), 1.0, 1e-9, 0.1), True),
    ("geometric", lambda: oracles.constant_herz_reference(2.0, 2.0, 2.0, 1.0, 1.0), False),
    ("geometric-slow", lambda: oracles.constant_herz_reference(2.0, 0.01, 3.0, 1.0, 1e-3), False),
]


def _tenth_scan_slopes(log_fn, gap_slope):
    """Finite-difference slopes of ``log_fn`` and the bound over each
    step, at a tenth of the scan's density from its floor to its top."""
    s = np.linspace(math.log(oracles._EPS_LO), math.log(oracles._EPS_HI),
                    (oracles._POINTS - 1) // 10 + 1)
    fd = np.abs(np.diff(oracles._evaluate(log_fn, s))) / np.diff(s)
    return fd, gap_slope(s[:-1], s[1:])


@pytest.mark.parametrize("name, call, tight", _CASES, ids=[c[0] for c in _CASES])
def test_slope_bound_holds_over_the_scan(monkeypatch, name, call, tight):
    ((log_fn, gap_slope),) = _scans(monkeypatch, call)
    fd, bound = _tenth_scan_slopes(log_fn, gap_slope)
    assert np.all(fd <= bound)
    if tight:
        # uniform terms attain the entropy part; the eps part peaks at
        # 1.10 theta / p near log eps = -2.5, not at its bound's 1.2243
        assert np.max(fd) >= 0.85 * np.max(bound)


def test_gap_slope_bound_is_tight_in_every_gap(monkeypatch):
    # 100 equal terms at theta = 1e-9: the norm term's slope
    # H e^s / (p (1+e^s)^2), H = ln 100, is the whole slope, and the bound
    # takes it at each gap's point nearest 0, so it is attained to within
    # one gap's rise wherever the eps part (about 1e-9) is negligible
    ((log_fn, gap_slope),) = _scans(monkeypatch, _CASES[2][1])
    fd, bound = _tenth_scan_slopes(log_fn, gap_slope)
    big = bound > 1e-6
    assert np.count_nonzero(big) > 0.5 * bound.size
    assert np.all(fd[big] >= 0.99 * bound[big])


_FULL = [_CASES[i][:2] for i in (0, 1, 4, 6)]


@pytest.mark.parametrize("name, call", _FULL, ids=[c[0] for c in _FULL])
def test_pruned_scan_returns_the_full_scan_float(monkeypatch, name, call):
    # an infinite slope bound rules no gap out
    ((log_fn, gap_slope),) = _scans(monkeypatch, call)
    assert oracles._dense_log_max(log_fn, gap_slope).hex() == \
        oracles._dense_log_max(log_fn, lambda lo, hi: np.full(lo.shape, math.inf)).hex()


def test_morrey_reference_matches_partial_sum_sup():
    rng = np.random.default_rng(5)
    ks = np.arange(11) - 5
    for p in (1.0, 1.5, 3.0):
        for theta in (1.0, 0.5, 2.0, 1e-3, 1e-9):
            for lam in (0.0, 0.1, 0.3):
                t = rng.uniform(0, 1, 11) * 10.0 ** rng.uniform(-2, 2, 11)
                value = partial_sum_sup(t, GrandSequenceParams(p=p, theta=theta),
                                        -lam * math.log(2.0) * ks)[0]
                ref = oracles.morrey_double_sup_reference(
                    {int(k): float(v) for k, v in zip(ks, t)}, 2.0, p, theta, lam)
                assert value == pytest.approx(ref, rel=1e-13, abs=0.0)
