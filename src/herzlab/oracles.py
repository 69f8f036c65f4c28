"""Independent reference values for the acceptance checks.

Everything here is deliberately brute force and shares no code with the
norm machinery: closed-form geometric sums, dense one-dimensional grid
maximization, and bisection root solves.  The main paths are checked
*against* these values, never the other way around.

One dense eps scanner, :func:`_dense_log_max`, serves all three eps
suprema: :func:`grand_seq_dense`, :func:`constant_herz_reference` and
:func:`morrey_double_sup_reference`.  It scans eps from 2^-53 to 1e8 at
50,000 points per decade, skipping the gaps that a certified slope bound
rules out, and polishes the best point with a parabola.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BadParams, ConfigError, UnknownTarget

__all__ = [
    "luxemburg_two_piece",
    "luxemburg_bisect",
    "grand_seq_dense",
    "constant_herz_reference",
    "delta_sequence_value",
    "morrey_double_sup_reference",
    "oracle_run",
]


def luxemburg_two_piece() -> dict:
    """Norm level for the two-piece modular t + t^2 = 1, t = 1/lam^2.

    Solved twice: scalar bisection on t, and the algebraic root
    t = (sqrt 5 - 1)/2; the returned value is the bisection result with
    the algebraic cross-check recorded.
    """
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid + mid * mid < 1.0:
            lo = mid
        else:
            hi = mid
    t_bisect = 0.5 * (lo + hi)
    t_algebraic = (math.sqrt(5.0) - 1.0) / 2.0
    return {
        "t": t_bisect,
        "t_algebraic": t_algebraic,
        "t_agreement": abs(t_bisect - t_algebraic),
        "norm": t_bisect ** -0.5,
    }


def luxemburg_bisect(v: np.ndarray, p_vals: np.ndarray, h: float) -> float:
    """Luxemburg norm of flat samples by bisection on the modular.

    ``v`` is nonnegative, not all zero, with max 1 (so the powers stay in
    range); ``p_vals`` are the exponent samples and ``h`` is the cell volume.
    The bracket grows/shrinks by powers of 2 from the p^- seed
    (sum v^{p^-} h)^{1/p^-}, p^- the smallest exponent sample; the
    midpoint of a bracket of relative width 1e-10 is returned.
    """
    def modular(lam: float) -> float:
        with np.errstate(over="ignore"):
            return float(np.sum((v / lam) ** p_vals) * h)

    p_lo = float(np.min(p_vals))
    seed = float(np.sum(v ** p_lo) * h) ** (1.0 / p_lo)
    if not (seed > 0) or not math.isfinite(seed):
        seed = 1.0

    lo = hi = seed
    for _ in range(4096):
        if modular(hi) <= 1.0:
            break
        hi *= 2.0
    for _ in range(4096):
        if modular(lo) >= 1.0:
            break
        lo /= 2.0

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if modular(mid) > 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-10 * hi:
            break
    return 0.5 * (lo + hi)


# below eps = 2^-53, 1 + eps rounds to 1, so a lower floor finds nothing larger
_EPS_LO, _EPS_HI = 2.0**-53, 1e8
# the dense scan: 50,000 points per decade of eps
_POINTS = round(math.log10(_EPS_HI / _EPS_LO) * 50_000) + 1
# every _STRIDE-th point is evaluated first; only the gaps between them
# that the slope bound cannot rule out are scanned in full
_STRIDE = 100


def _slope_bound(p: float, theta: float, entropy: float):
    """Bound on |d/ds| of log(eps^{theta/P} |x|_{l^P}), s = log eps and
    P = p (1 + e^s), over each gap of a scan, when ``entropy`` bounds the
    entropy H of the normalised terms pi_j = |x_j|^P / sum_i |x_i|^P at
    every P >= p.  Returns ``gap_slope(s_lo, s_hi)``, the bound over each
    gap [s_lo, s_hi] of two arrays of gap ends.

    The eps factor is theta u(s) / p with u = s / (1 + e^s), and
    |u'| = |1/(1+e^s) - s e^s/(1+e^s)^2| <= 1 + max |s| e^s/(1+e^s)^2
    = 1.22387... < 1.2243 at every s.  The norm term has
    d/dP log|x|_{l^P} = -H/P^2 and dP/ds = p e^s, so
    |d/ds log|x|_{l^P}| = H e^s / (p (1+e^s)^2) <= H / (4p).  That
    e^s / (1+e^s)^2 rises for s <= 0 and falls for s >= 0, so over a gap
    it is largest at the gap's point nearest 0.  Together: (1.2243 theta
    + H e^c / (1+e^c)^2) / p, c = the gap point nearest 0.  A maximum over
    several such functions (the Morrey levels L) keeps their largest
    bound.  The derivation needs finite p > 0 and theta >= 0.
    """
    if not (0 < p < math.inf and 0 <= theta < math.inf):
        raise BadParams(f"the dense oracles need finite p > 0 and theta >= 0, "
                        f"got p = {p!r}, theta = {theta!r}")

    def gap_slope(s_lo: np.ndarray, s_hi: np.ndarray) -> np.ndarray:
        c = np.clip(0.0, s_lo, s_hi)
        # e^c / (1+e^c)^2 = 1 / (4 cosh^2(c/2)), which cannot overflow
        return (1.2243 * theta + entropy / (4.0 * np.cosh(0.5 * c) ** 2)) / p

    return gap_slope


def _evaluate(log_fn, s: np.ndarray) -> np.ndarray:
    """``log_fn`` at every point of ``s``, 50,000 points a call, since
    each call builds a (points, entries) table."""
    return np.concatenate([log_fn(s[i:i + 50_000]) for i in range(0, s.size, 50_000)])


def _dense_log_max(log_fn, gap_slope) -> float:
    """Maximum of a log-valued function of eps, ``log_fn(log_eps)``, over
    a dense scan of [_EPS_LO, _EPS_HI] at 50,000 points per decade, with
    parabolic polish about the first maximal point.

    ``gap_slope(s_lo, s_hi)`` bounds |d log_fn / d log eps| over each gap
    [s_lo, s_hi].  Every _STRIDE-th point is evaluated first, with the
    top M of those values.  Within a gap of width G between two of them
    no value exceeds the larger end value plus the gap's slope bound
    times G / 2, so a gap is scanned in full only where that, plus a
    rounding margin of 1e-9 (1 + the largest finite coarse magnitude),
    reaches M.  Where every computed value lies within that margin of
    its exact value, any value the skipped gaps hold lies below M, so
    the first maximal point, and the returned float, are those of the
    full scan.

    That holds for :func:`grand_seq_dense`: its values sum
    (theta/P) log eps, the top log entry and a log-sum-exp, each computed
    to a few ulps and no larger than a few times 1 + max |value|, so the
    margin is millions of their ulps.  It is not argued for
    :func:`constant_herz_reference` near alpha + 1/q = 0, where
    ``log1p(-exp(-P log r))`` rounds like 1/(P log r): at b = 2, q = 2
    and p = theta = 1 the values are off by about 1e-10 at
    alpha + 1/q = 1e-6 and 1e-8 at 1e-8, near the margin itself.  Nor is
    it argued for :func:`morrey_double_sup_reference`.
    """
    s = np.linspace(math.log(_EPS_LO), math.log(_EPS_HI), _POINTS)
    coarse = np.append(np.arange(0, _POINTS - 1, _STRIDE), _POINTS - 1)
    v_coarse = _evaluate(log_fn, s[coarse])
    top = np.max(v_coarse)
    margin = 1e-9 * (1.0 + np.max(np.abs(v_coarse), initial=0.0,
                                  where=np.isfinite(v_coarse)))
    ends = s[coarse]
    reach = (np.maximum(v_coarse[:-1], v_coarse[1:])
             + gap_slope(ends[:-1], ends[1:]) * np.diff(ends) / 2.0 + margin)
    inner = [np.arange(coarse[g] + 1, coarse[g + 1])
             for g in np.flatnonzero(reach >= top)]
    idx = np.concatenate([coarse, *inner])
    vals = np.concatenate([v_coarse, _evaluate(log_fn, s[idx[coarse.size:]])])
    # the first maximum in scan order, as a full in-order scan finds it
    order = np.argsort(idx, kind="stable")
    i = order[int(np.argmax(vals[order]))]
    best_s, best_val = float(s[idx[i]]), float(vals[i])
    # parabolic vertex through the best triple
    h = s[1] - s[0]
    f0 = float(log_fn(np.array([best_s - h]))[0])
    f1 = best_val
    f2 = float(log_fn(np.array([best_s + h]))[0])
    denom = f0 - 2.0 * f1 + f2
    if denom < 0:
        step = 0.5 * h * (f0 - f2) / denom
        cand = best_s + step
        vc = float(log_fn(np.array([cand]))[0])
        if vc > best_val:
            best_val = vc
    return best_val


def grand_seq_dense(entries: np.ndarray, p: float, theta: float) -> float:
    """Brute-force grand sequence norm by dense eps scanning.

    Works in log space; competes with the eps -> infinity limit (the sup
    norm of the entries).
    """
    entries = np.abs(np.asarray(entries, dtype=float))
    entries = entries[entries > 0]
    if entries.size == 0:
        return 0.0
    log_abs = np.log(entries)
    m = float(np.max(log_abs))

    def log_fn(log_eps: np.ndarray) -> np.ndarray:
        eps = np.exp(log_eps)
        big_p = p * (1.0 + eps)
        lse = m + np.log(np.exp(np.multiply.outer(big_p, log_abs - m)).sum(axis=-1)) / big_p
        return (theta / big_p) * log_eps + lse

    # n terms have entropy at most ln n
    best = _dense_log_max(log_fn, _slope_bound(p, theta, math.log(entries.size)))
    return max(math.exp(best), float(np.exp(m)))


def delta_sequence_value(p: float = 1.0, theta: float = 1.0) -> float:
    """Grand norm of a unit one-hot sequence: sup eps^{theta/(p(1+eps))}."""
    return grand_seq_dense(np.array([1.0]), p, theta)


def constant_herz_reference(b: float, alpha: float, q: float, p: float,
                            theta: float) -> float:
    """Closed-form grand Herz norm of the unit-ball indicator.

    For constant exponents the scale terms are exactly geometric,
    t_k = (1 - 1/b)^{1/q} b^{k(alpha + 1/q)} for k <= 0, so the inner
    sum collapses to a geometric series and only the eps maximization
    remains; it competes with the eps -> infinity limit t_0.
    """
    c = (1.0 - 1.0 / b) ** (1.0 / q)
    ratio = b ** (alpha + 1.0 / q)
    if ratio <= 1.0:
        raise BadParams("alpha + 1/q must be positive for a finite norm")
    log_c = math.log(c)
    log_r = math.log(ratio)

    def log_fn(log_eps: np.ndarray) -> np.ndarray:
        eps = np.exp(log_eps)
        big_p = p * (1.0 + eps)
        # sum_{k<=0} (c r^k)^P = c^P / (1 - r^{-P})
        log_sum = big_p * log_c - np.log1p(-np.exp(-big_p * log_r))
        return (theta * log_eps + log_sum) / big_p

    # the terms (c r^k)^P normalise to the geometric law (1 - rho) rho^j,
    # rho = r^{-P}, whose entropy -ln(1 - rho) - rho ln rho / (1 - rho)
    # grows with rho <= r^{-p}
    rho, one_minus_rho = math.exp(-p * log_r), -math.expm1(-p * log_r)
    entropy = -math.log(one_minus_rho) + p * log_r * rho / one_minus_rho
    best = _dense_log_max(log_fn, _slope_bound(p, theta, entropy))
    return max(math.exp(best), c)


def morrey_double_sup_reference(t_by_k: dict[int, float], b: float, p: float,
                                theta: float, lam: float) -> float:
    """Brute-force double supremum over (eps, L) for given scale terms:
    the dense eps scan of the row max over L of the accumulated log
    partial sums, against the eps -> infinity limit."""
    ks = np.array(sorted(t_by_k), dtype=float)
    t = np.array([t_by_k[int(k)] for k in ks])
    log_t = np.where(t > 0, np.log(np.where(t > 0, t, 1.0)), -np.inf)
    log_w = -lam * ks * math.log(b)

    def log_fn(log_eps: np.ndarray) -> np.ndarray:
        big_p = p * (1.0 + np.exp(log_eps))
        lse = np.logaddexp.accumulate(np.multiply.outer(big_p, log_t), axis=-1)
        return np.max(log_w + (theta * log_eps[:, None] + lse) / big_p[:, None], axis=-1)

    # every level's terms are a prefix of the longest, so its entropy
    # bound ln n, n the positive terms, holds for all of them
    n = max(int(np.count_nonzero(t > 0)), 1)
    best = _dense_log_max(log_fn, _slope_bound(p, theta, math.log(n)))
    limit = float(np.max(np.where(t > 0, b ** (-lam * ks) * t, 0.0)))
    return max(math.exp(best), limit)


# the keys each oracle target reads, with their defaults
_TARGET_KEYS = {
    "luxemburg_algebraic": {},
    "grand_seq_dense": {"p": 1.0, "theta": 1.0, "entries": [1.0]},
    "constant_herz": {"b": 2.0, "alpha": 2.0, "q": 2.0, "p": 1.0, "theta": 1.0},
}


def oracle_run(target: str, config: dict | None = None) -> dict:
    """Compute a named oracle's values for file emission; ``config``
    holds ``oracle.*`` values by key without the prefix, and a key the
    target does not read raises ConfigError."""
    if target not in _TARGET_KEYS:
        raise UnknownTarget(f"no oracle named {target!r}")
    unread = sorted(set(config or {}) - set(_TARGET_KEYS[target]))
    if unread:
        raise ConfigError(f"oracle {target!r} does not read key 'oracle.{unread[0]}'")
    c = {**_TARGET_KEYS[target], **(config or {})}
    if target == "luxemburg_algebraic":
        return {"target": target, **luxemburg_two_piece()}
    if target == "grand_seq_dense":
        c = {"p": float(c["p"]), "theta": float(c["theta"]),
             "entries": list(np.asarray(c["entries"], dtype=float))}
        return {"target": target, **c, "value": grand_seq_dense(**c)}
    c = {k: float(v) for k, v in c.items()}
    return {"target": target, **c, "value": constant_herz_reference(**c)}
