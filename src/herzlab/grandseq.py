"""Grand Lebesgue sequence norms.

The grand norm of a finite-support sequence is

    sup_{eps > 0} eps^{theta/(p(1+eps))} * |x|_{l^{p(1+eps)}}.

The supremum is located by a fixed log-spaced scan of eps over
[2^-53, 1e6] followed by a vectorised zoom into every local-max
bracket, and competes with the analytic eps -> infinity limit |x|_inf.
Below 2^-53 the sum 1 + eps rounds to 1, so the log value only grows
with eps there and no smaller eps beats the scan floor; above eps = 4
both of its terms fall.  All l^P norms are evaluated in log space so
arbitrarily large inner exponents cannot overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BadExponent, BadParams, NormOverflow

__all__ = [
    "Sequence",
    "GrandSequenceParams",
    "lp_seq_norm",
    "grand_seq_norm",
    "partial_sum_sup",
    "nesting_report",
    "eps_factor",
]

# The eps scan, in log eps.  Below the floor 2^-53, 1 + eps rounds to 1,
# so P = p and the log value theta log(eps) / p + log |x|_p only grows
# with eps: no point under the floor can beat it.  For eps >= 4 both
# terms fall, so nothing beyond the ceiling 1e6 beats it either.
_LOG_EPS = np.linspace(-53.0 * math.log(2.0), math.log(1e6), 256)
_ZOOM = 18  # points per bracket in each zoom round


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
class GrandSequenceParams:
    p: float = 1.0
    theta: float = 1.0

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


def sup_over_eps(log_value: Callable, log_eps: np.ndarray) -> tuple[float, float]:
    """Scan-then-zoom supremum of a log-valued function of eps.

    ``log_value`` accepts a 1D array of log(eps) and returns log values.
    The scan ``log_eps`` picks the (up to 8 highest) local maxima; each
    is bracketed by its scan neighbours.  Every zoom round evaluates
    ``_ZOOM`` evenly spaced inner points of all live brackets in one
    call, then narrows each bracket to the neighbours of its best point,
    until the bracket is under 1e-10 relative.  Returns (log_sup,
    argmax_eps); the largest value wins, then the smallest eps.
    """
    s = np.asarray(log_eps, dtype=float)
    v = np.asarray(log_value(s), dtype=float)
    v = np.where(np.isfinite(v), v, -np.inf)
    if not np.any(np.isfinite(v)):
        return -math.inf, math.exp(s[0])

    n = len(s)
    left = np.concatenate(([-np.inf], v[:-1]))
    right = np.concatenate((v[1:], [-np.inf]))
    local_max = np.flatnonzero((v >= left) & (v >= right))
    # plateaus can mark many grid points; refining the top few suffices
    if len(local_max) > 8:
        local_max = np.sort(local_max[np.argsort(v[local_max])[-8:]])

    # the best point of each bracket so far, and the brackets
    best_t, best_v = s[local_max], v[local_max]
    a = s[np.maximum(local_max - 1, 0)]
    b = s[np.minimum(local_max + 1, n - 1)]
    frac = np.arange(1, _ZOOM + 1) / (_ZOOM + 1)

    def wide(a, b):
        return b - a > 1e-10 * np.maximum(1.0, np.abs(a) + np.abs(b))

    live = np.flatnonzero(wide(a, b))
    while len(live):
        # each row: the bracket ends around _ZOOM evenly spaced inner points
        pts = np.column_stack((a[live], a[live, None] + (b - a)[live, None] * frac,
                               b[live]))
        vals = np.asarray(log_value(pts[:, 1:-1].ravel()), dtype=float)
        vals = np.where(np.isfinite(vals), vals, -np.inf).reshape(len(live), _ZOOM)
        rows = np.arange(len(live))
        j = np.argmax(vals, axis=1)  # first maximum: the smallest eps
        t_j, v_j = pts[rows, j + 1], vals[rows, j]
        better = (v_j > best_v[live]) | ((v_j == best_v[live]) & (t_j < best_t[live]))
        best_t[live[better]], best_v[live[better]] = t_j[better], v_j[better]
        a[live], b[live] = pts[rows, j], pts[rows, j + 2]
        live = live[wide(a[live], b[live])]

    top = np.max(best_v)
    return float(top), math.exp(np.min(best_t[best_v == top]))


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

    log_sup, arg_eps = sup_over_eps(log_value, _LOG_EPS)
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
    by the scan and zoom of ``sup_over_eps``, then takes the max with the
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
