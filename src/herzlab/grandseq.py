"""Grand Lebesgue sequence norms.

The grand norm of a finite-support sequence is

    sup_{eps > 0} eps^{theta/(p(1+eps))} * |x|_{l^{p(1+eps)}}.

The supremum is located by a fixed log-spaced scan of eps over
[2^-53, 1e6] followed by a zoom into the (up to 8) local-max
brackets, a round aimed at the vertex of the parabola through the last
round's best point and its neighbours where those three peak, and
competes with the analytic eps -> infinity limit |x|_inf.  The window
about a vertex is h/16 wide on either side in a bracket's first vertex
round (h the spacing of the three points) and, in later ones, as wide
as the vertex's h^2 error, measured by how far it moved since the last
one; once the vertex is within rounding of the max, the bracket closes
about it.  A supremum takes the scan and three zoom rounds on most
inputs (4.6 log-value calls over 600 seeded sequences, where windows of
a fixed h/16 took 7.8).
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
_FRAC = np.arange(1, _ZOOM + 1) / (_ZOOM + 1)  # their places in a window


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
    ``_ZOOM`` evenly spaced inner points of a window of each live bracket,
    all in one call, then narrows each bracket to the neighbours of its
    best point, until the bracket is under 1e-10 relative.  Returns
    (log_sup, argmax_eps); the largest value wins, then the smallest eps.

    The window is the whole bracket (an even round, which shrinks it
    9.5-fold), except after a round (or the scan) whose best point is
    interior and strictly above its two neighbours, spaced h apart: then
    it is [c - r, c + r], clipped to the bracket, where c is the vertex of
    the parabola through the three (a tie with a neighbour may be a
    plateau, whose smallest eps the tie rule wants, so it zooms evenly).

    The radius r is how far the maximiser s* can still lie from c.  With
    f'' < 0 at s*, Taylor's theorem puts the vertex at
    c = s* + (f'''/f'') (d^2/2 - h^2/6) + O(h^3), where d is the middle
    point's offset from s*.  The best of evenly spaced points has
    |d| <= h/2, so |c - s*| lies between k h^2/24 and k h^2/6, with
    k = |f'''/f''|: the error is quadratic in h (successive parabolic
    interpolation; Brent, Algorithms for Minimization without
    Derivatives, 1973).
    - The first vertex round of a bracket has no measure of k: r = h/16.
    - A later one comes from points inside the window about the last
      vertex c', which was placed from a spacing h' >= 152 h.  The error
      of c' was at least k h'^2/24 and that of c is at most k h^2/6, so
      c moved by almost all of the error of c', and to leading order s*
      lies within e = 4 |c - c'| (h/h')^2 of c.  Rounding the values by
      delta = ulp(f(mid)) moves c by rho = h delta / |B| more, B the
      parabola's second difference, and the parabola stays within delta
      of its peak for w = h sqrt(2 delta / |B|) on either side of c.
      - When e + rho <= w, c is within rounding of the max: the bracket
        closes to [c - 2u, c + 2u], u = 1e-10 max(1, 2|c|) its stop
        width, and one even round over it ends the bracket.
      - Otherwise r = min(h/16, max(e + rho, 76 w)).  The floor keeps
        the next round's points 8 w apart, so that the parabola falls by
        64 delta from its peak to the next point.  Points closer than
        that differ by rounding, and their best three would not peak
        strictly, which leaves the bracket to even rounds.
    A vertex round shrinks its bracket at least 152-fold.  One whose best
    point is a window end has missed.  Its bracket keeps the old end
    beyond the window, where the max may lie, and its next round zooms
    evenly; a later vertex round starts again at r = h/16.  A best point
    that ties with its neighbour is no miss: a row flat at rounding level
    points nowhere, and the window end stands in.

    The brackets are kept in Python floats: there are at most 8, too few
    for numpy's per-call cost to pay off in their bookkeeping.  Only the
    windows are arrays, from which each round's points are built.
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
    best_t, best_v = s[local_max].tolist(), v[local_max].tolist()
    a = s[np.maximum(local_max - 1, 0)].tolist()
    b = s[np.minimum(local_max + 1, n - 1)].tolist()
    # each bracket's next window and, for a vertex window, its centre and
    # the spacing of the three points that placed it
    lo, hi = np.array(a), np.array(b)
    vertex = [False] * len(a)
    centre, spacing = [0.0] * len(a), [0.0] * len(a)

    def stop(lo_end, hi_end):
        # a bracket narrower than this is done
        return 1e-10 * max(1.0, abs(lo_end) + abs(hi_end))

    def aim(i, t, v3, after_vertex):
        # t = (left, mid, right) points, v3 their values; the parabola
        # through them has its vertex within half a step of mid.  Its bend
        # is a sum of two negative differences, so it cannot round to 0
        step = 0.5 * (t[2] - t[0])
        bend = (v3[0] - v3[1]) + (v3[2] - v3[1])
        if not (v3[0] < v3[1] > v3[2] and bend > -math.inf):
            return
        c = t[1] + 0.5 * step * (v3[0] - v3[2]) / bend
        r = step / 16
        if after_vertex:
            delta = math.ulp(v3[1])
            e = 4.0 * abs(c - centre[i]) * (step / spacing[i]) ** 2 + step * delta / -bend
            w = step * math.sqrt(2.0 * delta / -bend)
            if e <= w:
                u = stop(c, c)
                a[i], b[i] = max(a[i], c - 2.0 * u), min(b[i], c + 2.0 * u)
                lo[i], hi[i] = a[i], b[i]
                return
            r = min(r, max(e, 76.0 * w))
        lo[i], hi[i] = max(a[i], c - r), min(b[i], c + r)
        centre[i], spacing[i], vertex[i] = c, step, True

    for i, m in enumerate(local_max.tolist()):
        if 0 < m < n - 1:
            aim(i, s[m - 1:m + 2].tolist(), v[m - 1:m + 2].tolist(), False)

    def wide(i):
        return b[i] - a[i] > stop(a[i], b[i])

    live = [i for i in range(len(a)) if wide(i)]
    while live:
        # each bracket's _ZOOM evenly spaced inner points, all in one call;
        # with every bracket live, as is common, the windows are views
        idx = live if len(live) < len(a) else slice(None)
        pts = np.multiply.outer(hi[idx] - lo[idx], _FRAC)
        pts += lo[idx, None]
        vals = np.asarray(log_value(pts.ravel()), dtype=float).reshape(pts.shape)
        # first maximum: the smallest eps
        for i, row, v_row, j in zip(live, pts.tolist(), vals.tolist(),
                                    vals.argmax(axis=1).tolist()):
            if not v_row[j] < math.inf:
                # argmax picks a nan or +inf, and such points lose
                v_row = [u if math.isfinite(u) else -math.inf for u in v_row]
                j = max(range(_ZOOM), key=v_row.__getitem__)
            t_j, v_j = row[j], v_row[j]
            if v_j > best_v[i] or (v_j == best_v[i] and t_j < best_t[i]):
                best_t[i], best_v[i] = t_j, v_j
            if j > 0:
                a[i] = row[j - 1]
            elif v_row[1] == v_j:
                # flat where the tie rule put its best point: the window
                # end stands in (the bracket end itself in an even round)
                a[i] = float(lo[i])
            if j < _ZOOM - 1:
                b[i] = row[j + 1]
            after_vertex, vertex[i] = vertex[i], False
            lo[i], hi[i] = a[i], b[i]
            if 0 < j < _ZOOM - 1:
                aim(i, row[j - 1:j + 2], v_row[j - 1:j + 2], after_vertex)
        live = [i for i in live if wide(i)]

    top = float(np.max(best_v))  # numpy's pick among signed zeros
    return top, math.exp(min(t for t, v in zip(best_t, best_v) if v == top))


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
    if params.theta > 1e300 * params.p:
        # eps = e alone weighs max |x| by e^{theta / (3.7 p)}, past the float
        # range for any nonzero x once theta / p tops 5.4e3; here even
        # (theta / P) log eps would overflow
        raise NormOverflow("a grand sequence norm exceeds the float range")
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
        # at a fraction of the cost of the accumulated table.  log_value is
        # (theta / P) log eps + (top + log(s) / P) + w written in place, with
        # ufunc methods for np.sum and np.max (the same reductions without
        # the wrapper): the zoom rounds are short, so per-call costs count
        top = np.max(log_x)
        shifted = log_x - top
        w = float(log_w[0])

        def log_value(log_eps: np.ndarray) -> np.ndarray:
            big_p = np.exp(log_eps)
            big_p += 1.0
            big_p *= p
            terms = np.multiply.outer(big_p, shifted)
            s = np.add.reduce(np.exp(terms, out=terms), axis=-1)
            np.log(s, out=s)
            s /= big_p
            s += top
            out = np.divide(theta, big_p, out=big_p)
            out *= log_eps
            out += s
            out += w
            return out
    else:
        def log_value(log_eps: np.ndarray) -> np.ndarray:
            return np.maximum.reduce(weighted(log_eps), axis=-1)

    # a weight past the float range over an all-zero prefix adds nothing
    prefix = np.maximum.accumulate(x)
    with np.errstate(over="ignore"):
        limit = np.multiply(np.exp(log_w), prefix, where=prefix > 0, out=np.zeros(x.size))
    return _sup_ending(log_value, weighted, limit)


def _sup_ending(log_value: Callable, table: Callable,
                limit: np.ndarray) -> tuple[float, float, int]:
    """The eps supremum of ``log_value``, the row max of the (m, K) log
    values ``table(log_eps)``, against the eps -> infinity ``limit`` of
    each position.  Returns (value, arg_eps, arg_pos), arg_eps = inf when
    a limit wins."""
    log_sup, arg_eps = sup_over_eps(log_value, _LOG_EPS)
    try:
        value = math.exp(log_sup) if math.isfinite(log_sup) else 0.0
    except OverflowError:
        value = math.inf
    arg_pos = int(np.argmax(limit))
    if not math.isfinite(max(value, limit[arg_pos])):
        raise NormOverflow("a grand sequence norm exceeds the float range")
    if limit[arg_pos] > value:
        return float(limit[arg_pos]), math.inf, arg_pos
    return value, arg_eps, int(np.argmax(table(np.array([math.log(arg_eps)]))[0]))


def grand_seq_norm(x: Sequence, params: GrandSequenceParams) -> float:
    """Grand Lebesgue sequence norm (Sequence variant of the definition).

    Maximizes h(eps) = (theta/(p(1+eps))) log eps + log |x|_{l^{p(1+eps)}}
    by the scan and zoom of ``sup_over_eps``, then takes the max with the
    analytic eps -> infinity limit |x|_inf.
    """
    return partial_sum_sup(x.values, params)[0]


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
