"""Grand Lebesgue sequence norms.

The grand norm of a finite-support sequence is

    sup_{eps > 0} eps^{theta/(p(1+eps))} * |x|_{l^{p(1+eps)}}.

The supremum is located by a log-spaced scan of eps over [1e-6, 1e6]
followed by golden-section refinement of every local-max bracket, and
competes with the analytic eps -> infinity limit |x|_inf (the eps -> 0+
limit is 0 and never attains the sup).  All l^P norms are evaluated in
log space so arbitrarily large inner exponents cannot overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import BadExponent, BadParams, NormOverflow

__all__ = [
    "Sequence",
    "EpsGrid",
    "GrandSequenceParams",
    "lp_seq_norm",
    "grand_seq_norm",
    "partial_sum_sup",
    "nesting_report",
    "eps_factor",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Sequence:
    """Finite-support real sequence over an integer index set.

    Entry k corresponds to values[k - offset].  index_set restricts the
    admissible support: "Z" (default), "Z+" (k >= 1) or "N" (k >= 0).
    """

    values: np.ndarray
    offset: int = 0
    index_set: str = "Z"

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise BadParams("sequence values must be one-dimensional")
        if not np.all(np.isfinite(vals)):
            raise BadParams("sequence entries must be finite")
        if self.index_set not in ("Z", "Z+", "N"):
            raise BadParams(f"unknown index set {self.index_set!r}")
        lowest = {"Z": None, "Z+": 1, "N": 0}[self.index_set]
        if lowest is not None and np.any(vals != 0.0):
            first = self.offset + int(np.argmax(vals != 0.0))
            if first < lowest:
                raise BadParams(
                    f"support reaches k = {first} outside {self.index_set}")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @staticmethod
    def from_entries(entries: dict[int, float], index_set: str = "Z") -> "Sequence":
        if not entries:
            return Sequence(np.zeros(1), 0, index_set)
        lo, hi = min(entries), max(entries)
        vals = np.zeros(hi - lo + 1)
        for k, v in entries.items():
            vals[k - lo] = v
        return Sequence(vals, lo, index_set)

    def indices(self) -> np.ndarray:
        return self.offset + np.arange(len(self.values))

    def scale(self, c: float) -> "Sequence":
        return Sequence(self.values * c, self.offset, self.index_set)

    def to_json_dict(self) -> dict:
        return {"offset": self.offset, "values": list(self.values),
                "index_set": self.index_set}

    @staticmethod
    def from_json_dict(d: dict) -> "Sequence":
        return Sequence(np.asarray(d["values"], dtype=float),
                        int(d.get("offset", 0)), d.get("index_set", "Z"))


@dataclass(frozen=True)
class EpsGrid:
    """Log-spaced eps evaluation set with refinement settings."""

    lo: float = 1e-6
    hi: float = 1e6
    points: int = 256
    refine_rel: float = 1e-10

    def __post_init__(self):
        if not (0 < self.lo < self.hi):
            raise BadParams("need 0 < lo < hi")
        if self.points < 200:
            raise BadParams("eps grid needs at least 200 points")

    def log_values(self) -> np.ndarray:
        return np.linspace(math.log(self.lo), math.log(self.hi), self.points)


@dataclass(frozen=True)
class GrandSequenceParams:
    p: float = 1.0
    theta: float = 1.0
    eps_grid: EpsGrid = field(default_factory=EpsGrid)

    def __post_init__(self):
        if self.p < 1.0:
            raise BadExponent(f"p must be >= 1, got {self.p}")
        if not self.theta > 0:
            raise BadParams(f"theta must be positive, got {self.theta}")


# --- l^p machinery -------------------------------------------------------

def _power_sum_norm(values: np.ndarray, r: float) -> float:
    """(sum |x_k|^r)^{1/r}; a quasi-norm when 0 < r < 1.  Entries are
    divided by max |x_k| before the power (homogeneous at any scale)."""
    a = np.abs(values)
    top = float(np.max(a, initial=0.0))
    if top == 0.0:
        return 0.0
    norm = top * float(np.sum((a / top) ** r) ** (1.0 / r))
    if norm == math.inf:
        raise NormOverflow("an l^r sequence norm exceeds the float range")
    return norm


def lp_seq_norm(x: Sequence, p: float) -> float:
    """(sum |x_k|^p)^{1/p} for p >= 1."""
    if p < 1.0:
        raise BadExponent(f"p must be >= 1, got {p}")
    return _power_sum_norm(x.values, p)


def _log_partial_norms(log_eps: np.ndarray, log_x: np.ndarray, p: float,
                       theta: float) -> np.ndarray:
    """(m, K) table of log eps^{theta/P} (sum_{j<=L} |x_j|^P)^{1/P}.

    Row i is eps = exp(log_eps[i]) with P = p(1+eps), column L the
    partial sum up to entry L; zero entries enter as log|x_j| = -inf.
    """
    big_p = p * (1.0 + np.exp(log_eps))[:, None]
    table = np.multiply(big_p, log_x)
    np.logaddexp.accumulate(table, axis=-1, out=table)
    table += theta * log_eps[:, None]
    table /= big_p
    return table


def _golden_max(fn: Callable[[float], float], a: float, b: float,
                rel: float) -> tuple[float, float]:
    """Golden-section maximization of fn on [a, b] (log-eps domain)."""
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    while abs(b - a) > rel * max(1.0, abs(a) + abs(b)):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    return (c, fc) if fc >= fd else (d, fd)


def sup_over_eps(log_value: Callable, grid: EpsGrid) -> tuple[float, float]:
    """Scan-then-refine supremum of a log-valued function of eps.

    ``log_value`` accepts an array of log(eps) and returns log values;
    every local maximum of the scan is refined by golden section.
    Returns (log_sup, argmax_eps); ties resolve to the smallest eps.
    """
    s = grid.log_values()
    v = np.asarray(log_value(s), dtype=float)
    finite = np.isfinite(v)
    if not np.any(finite):
        return -math.inf, grid.lo
    v = np.where(finite, v, -np.inf)

    def scalar(t: float) -> float:
        out = log_value(np.array([t]))
        val = float(np.asarray(out).reshape(-1)[0])
        return val if math.isfinite(val) else -math.inf

    n = len(s)
    left = np.concatenate(([-np.inf], v[:-1]))
    right = np.concatenate((v[1:], [-np.inf]))
    local_max = np.flatnonzero((v >= left) & (v >= right))
    # plateaus can mark many grid points; refining the top few suffices
    if len(local_max) > 8:
        local_max = local_max[np.argsort(v[local_max])[-8:]]
        local_max = np.sort(local_max)

    best_val, best_eps = -math.inf, grid.lo
    for i in local_max:
        a = s[i - 1] if i > 0 else s[i]
        b = s[i + 1] if i < n - 1 else s[i]
        if a == b:
            t, val = s[i], v[i]
        else:
            t, val = _golden_max(scalar, a, b, grid.refine_rel)
        if val > best_val or (val == best_val and math.exp(t) < best_eps):
            best_val, best_eps = val, math.exp(t)
    return best_val, best_eps


# --- the grand norm -------------------------------------------------------

def partial_sum_sup(values: np.ndarray, params: GrandSequenceParams,
                    log_weight=0.0) -> tuple[float, float, int]:
    """sup over eps > 0 and positions L of w_L eps^{theta/P} |x|_{l^P, <=L}.

    Here P = p(1+eps), |x|_{l^P, <=L} = (sum_{j<=L} |x_j|^P)^{1/P} and
    log w_L = ``log_weight`` (a scalar, or one entry per position; -inf
    drops a position).  The eps grid supremum competes with the
    eps -> infinity limit max_L w_L max_{j<=L} |x_j|.  Returns
    (value, arg_eps, arg_pos) with arg_eps = inf when the limit wins;
    ties go to the smallest eps, then the smallest L.  With equal
    weights the partial sums grow with L, so the sup is the full l^P sum.
    """
    x = np.abs(np.asarray(values, dtype=float))
    if not np.any(x):
        return 0.0, math.inf, 0
    log_w = np.broadcast_to(np.asarray(log_weight, dtype=float), x.shape)
    with np.errstate(divide="ignore"):
        log_x = np.log(x)
    p, theta = params.p, params.theta

    def weighted(log_eps: np.ndarray) -> np.ndarray:
        table = _log_partial_norms(log_eps, log_x, p, theta)
        table += log_w
        return table

    if np.all(log_w == log_w[0]):
        # equal weights: the partial sums grow with L, so the sup over L is
        # the full l^P sum, and an exp-sum shifted by max log|x| gives it
        # at a fraction of the cost of the accumulated table
        top = np.max(log_x)
        shifted = log_x - top

        def log_value(log_eps: np.ndarray) -> np.ndarray:
            big_p = p * (1.0 + np.exp(log_eps))
            s = np.sum(np.exp(np.multiply.outer(big_p, shifted)), axis=-1)
            return (theta / big_p) * log_eps + (top + np.log(s) / big_p) + log_w[0]
    else:
        def log_value(log_eps: np.ndarray) -> np.ndarray:
            return np.max(weighted(log_eps), axis=-1)

    log_sup, arg_eps = sup_over_eps(log_value, params.eps_grid)
    try:
        value = math.exp(log_sup) if math.isfinite(log_sup) else 0.0
    except OverflowError:
        value = math.inf
    with np.errstate(over="ignore"):
        limit = np.exp(log_w) * np.maximum.accumulate(x)
    arg_pos = int(np.argmax(limit))
    if not math.isfinite(max(value, limit[arg_pos])):
        raise NormOverflow("a grand sequence norm exceeds the float range")
    if limit[arg_pos] > value:
        return float(limit[arg_pos]), math.inf, arg_pos
    row = weighted(np.array([math.log(arg_eps)]))[0]
    return value, arg_eps, int(np.argmax(row))


def grand_seq_norm(x: Sequence, params: GrandSequenceParams,
                   *, with_argmax: bool = False):
    """Grand Lebesgue sequence norm (Sequence variant of the definition).

    Maximizes h(eps) = (theta/(p(1+eps))) log eps + log |x|_{l^{p(1+eps)}}
    over the eps grid with golden refinement, then takes the max with the
    analytic eps -> infinity limit |x|_inf.
    """
    value, arg_eps, _ = partial_sum_sup(x.values, params)
    return (value, arg_eps) if with_argmax else value


def eps_factor(p: float, theta: float) -> float:
    """sup_eps eps^{theta/(p(1+eps))}: the grand norm of a unit one-hot."""
    params = GrandSequenceParams(p=p, theta=theta)
    return grand_seq_norm(Sequence(np.array([1.0])), params)


def nesting_report(x: Sequence, p: float, theta1: float, theta2: float,
                   eps: float, delta: float) -> dict:
    """Consecutive norm ratios along the nesting chain.

    Chain: l^{p(1-eps)} -> l^p -> grand(theta1) -> grand(theta2)
    -> l^{p(1+delta)}; each step is an embedding, so each downstream/
    upstream ratio is bounded over sequence families by a constant that
    is recorded, not asserted.
    """
    if not (theta1 <= theta2 and theta1 > 0):
        raise BadParams("need 0 < theta1 <= theta2")
    if not (0 < eps < 1.0 / p):
        raise BadParams("need 0 < eps < 1/p")
    if not delta > 0:
        raise BadParams("need delta > 0")
    # p(1-eps) may dip below 1 (quasi-norm range); allowed by the chain
    n_shrunk = _power_sum_norm(x.values, p * (1.0 - eps))
    n_p = lp_seq_norm(x, p)
    n_g1 = grand_seq_norm(x, GrandSequenceParams(p=p, theta=theta1))
    n_g2 = grand_seq_norm(x, GrandSequenceParams(p=p, theta=theta2))
    n_grown = lp_seq_norm(x, p * (1.0 + delta))

    def ratio(a, b):
        return a / b if b > 0 else (0.0 if a == 0 else math.inf)

    return {
        "norms": {
            "lp_shrunk": n_shrunk, "lp": n_p,
            "grand_theta1": n_g1, "grand_theta2": n_g2,
            "lp_grown": n_grown,
        },
        "ratios": {
            "lp/lp_shrunk": ratio(n_p, n_shrunk),
            "grand_theta1/lp": ratio(n_g1, n_p),
            "grand_theta2/grand_theta1": ratio(n_g2, n_g1),
            "lp_grown/grand_theta2": ratio(n_grown, n_g2),
        },
        "params": {"p": p, "theta1": theta1, "theta2": theta2,
                   "eps": eps, "delta": delta},
    }
