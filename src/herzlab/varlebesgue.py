"""Variable-exponent Lebesgue machinery on grid functions.

The modular of ``f`` at level ``lam`` is ``sum (|f(x)|/lam)^{p(x)} dx``;
the Luxemburg norm is the unique ``lam`` with modular 1 (0 for the zero
function).  Exponent functions come in two certified families — constants
and the log-family ``p(x) = p_inf + (p0 - p_inf)/log(e + |x|)`` — plus
derived/custom evaluation rules used by checks and oracles.

Quantitative companions: the generalized Hölder defect with the explicit
constant ``r_p = 1 + 1/p^- - 1/p^+``, the ball norm-product ratio, the
ball-ratio exponent fit (delta_1, delta_2), the reciprocal product-norm
check, and the log-decay verifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dilation import Dilation, annulus_index_map
from .errors import (
    EmptyBall,
    GridMismatch,
    InsufficientRange,
    NonPositiveLambda,
    NormOverflow,
    NotInClassP,
    ReciprocalMismatch,
)
from .grid import GridFunction, GridSpec, indicator

__all__ = [
    "ExponentFunction",
    "modular",
    "luxemburg_norm",
    "conjugate",
    "holder_defect",
    "ball_norm_product",
    "subset_ratio_fit",
    "product_norm_check",
    "log_holder_check",
]


@dataclass(frozen=True)
class ExponentFunction:
    """Evaluation rule for p(.), q(.) or alpha(.) with stored bounds.

    kind is one of "constant", "log", "conjugate", "custom".  p_minus and
    p_plus are essential bounds over R^n; at_origin/at_infinity are the
    limit values p(0) and p_inf.
    """

    kind: str
    p_minus: float
    p_plus: float
    at_origin: float
    at_infinity: float
    value: Optional[float] = None
    fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    base: Optional["ExponentFunction"] = None
    name: str = ""

    # -- constructors --

    @staticmethod
    def constant(value: float, name: str = "") -> "ExponentFunction":
        value = float(value)
        return ExponentFunction(
            kind="constant", p_minus=value, p_plus=value,
            at_origin=value, at_infinity=value, value=value,
            name=name or f"const:{value:g}",
        )

    @staticmethod
    def log_family(p0: float, p_inf: float, name: str = "") -> "ExponentFunction":
        """p(x) = p_inf + (p0 - p_inf)/log(e + |x|); monotone in |x|."""
        p0, p_inf = float(p0), float(p_inf)
        return ExponentFunction(
            kind="log", p_minus=min(p0, p_inf), p_plus=max(p0, p_inf),
            at_origin=p0, at_infinity=p_inf,
            name=name or f"log:{p0:g},{p_inf:g}",
        )

    @staticmethod
    def custom(fn: Callable[[np.ndarray], np.ndarray], p_minus: float,
               p_plus: float, at_origin: float, at_infinity: float,
               name: str = "custom") -> "ExponentFunction":
        return ExponentFunction(
            kind="custom", p_minus=float(p_minus), p_plus=float(p_plus),
            at_origin=float(at_origin), at_infinity=float(at_infinity),
            fn=fn, name=name,
        )

    # -- evaluation --

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant"

    @property
    def in_class_p(self) -> bool:
        """1 < p^- and p^+ <= 1e150: the variable-exponent solve sums the
        terms q^2 exp(a) <= q^2 over the cells, and that sum must stay in
        the float range."""
        return self.p_minus > 1.0 and self.p_plus <= 1e150

    @property
    def log_holder_constant(self) -> Optional[float]:
        """Analytic C for the Def-style log decay bounds (family kinds only)."""
        if self.kind == "constant":
            return 0.0
        if self.kind == "log":
            return abs(self.at_origin - self.at_infinity)
        return None

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        """Evaluate at points of shape (..., n)."""
        pts = np.asarray(pts, dtype=float)
        if self.kind == "constant":
            return np.full(pts.shape[:-1], self.value)
        if self.kind == "log":
            r = np.sqrt(np.sum(pts * pts, axis=-1))
            return self._log_of_radius(np.asarray(r))[()]
        if self.kind == "conjugate":
            p = self.base(pts)
            return p / (p - 1.0)
        return np.asarray(self.fn(pts), dtype=float)

    def on_grid(self, spec: GridSpec) -> np.ndarray:
        # the families depend on |x| only, so they skip the cell centers
        if self.kind == "constant":
            return np.full(spec.shape, self.value)
        if self.kind == "log":
            return self._log_of_radius(spec.radii())
        if self.kind == "conjugate":
            p = self.base.on_grid(spec)
            return p / (p - 1.0)
        return self(spec.points())

    def _log_of_radius(self, r: np.ndarray) -> np.ndarray:
        """p_inf + (p0 - p_inf)/log(e + r), computed in place in ``r``,
        which must be a fresh array (both callers pass new radii)."""
        r += math.e
        np.log(r, out=r)
        np.divide(self.at_origin - self.at_infinity, r, out=r)
        r += self.at_infinity
        return r


def conjugate(p: ExponentFunction) -> ExponentFunction:
    """Pointwise conjugate p' = p/(p-1); requires class P."""
    if not p.in_class_p:
        raise NotInClassP(f"conjugate needs p^- > 1, got p^- = {p.p_minus:g}")
    if p.kind == "conjugate":
        return p.base
    if p.kind == "constant":
        return ExponentFunction.constant(p.value / (p.value - 1.0),
                                         name=f"({p.name})'")
    return ExponentFunction(
        kind="conjugate",
        p_minus=p.p_plus / (p.p_plus - 1.0),
        p_plus=p.p_minus / (p.p_minus - 1.0),
        at_origin=p.at_origin / (p.at_origin - 1.0),
        at_infinity=p.at_infinity / (p.at_infinity - 1.0),
        base=p,
        name=f"({p.name})'",
    )


# --- modular and Luxemburg norm -----------------------------------------

def modular(f: GridFunction, lam: float, p: ExponentFunction) -> float:
    """Quadrature value of sum (|f|/lam)^{p(x)} dx over the grid; over a
    region it is the modular of ``f.where(region)``, as a 0 sample adds 0."""
    if not lam > 0:
        raise NonPositiveLambda(f"lam must be positive, got {lam}")
    ratio = np.abs(f.values) / lam
    pv = p.on_grid(f.spec)
    with np.errstate(over="ignore"):
        total = np.sum(np.power(ratio, pv, where=ratio > 0,
                                out=np.zeros_like(ratio)))
    return float(total * f.spec.cell_volume)


def _newton(v: np.ndarray, p_vals: np.ndarray, h: float, p_lo: float,
            p_hi: float) -> float:
    """Root lam of the modular h sum (v/lam)^p = 1; v > 0 with max v = 1
    (overwritten: ``lux_core`` passes its own scratch, with the zero
    samples already dropped) and p_lo <= p_vals <= p_hi.

    Solves g(t) = log h + log S(t) = 0 for t = log lam, with
    S(t) = sum exp(a - q t) and a = q log v <= 0 over the nonzero samples.
    With pi the normalised terms and m_j = sum q^j pi, g' = -m1 and
    g'' = m2 - m1^2 = Var_pi q, so g is convex and strictly decreasing,
    its slope lies in [-p_hi, -p_lo], and g(0) alone brackets the root
    between g(0)/p_hi and g(0)/p_lo.

    t = 0 is evaluated as exp(a) (max 1, so no shift), and its two
    moments give a Halley step: the Newton step g/m1 over
    1 - g g''/(2 m1^2), taken where that divisor exceeds 1/2 and the step
    stays in the bracket, else the Newton step itself.  At any other t
    the largest term lies in [exp(-p_hi |t|), exp(p_hi |t|)], so while
    p_hi |t| <= 600 the sum can neither overflow nor vanish and is taken
    unshifted; beyond that the terms are shifted by their max, which puts
    S in [1, size].  Each later point takes the Newton step s = g/m1, or
    a bisection step where that leaves the bracket.

    Both steps certify their error, and the solve stops once it is at
    most 1e-12 in t, that is 1e-12 relative in lam at any scale.  A
    bisection step returns the midpoint, so it stops once the bracket is
    2e-12 wide.  For a Newton step, let d = t* - t: the Lagrange remainder
    gives t* - (t + s) = g''(xi) d^2 / (2 m1) >= 0, the mean value
    theorem gives |d| <= |g| / p_lo = |s| m1 / p_lo, and a variance over
    [p_lo, p_hi] is at most (p_hi - p_lo)^2 / 4, so
    0 <= t* - (t + s) <= (p_hi - p_lo)^2 m1 s^2 / (8 p_lo^2); the solve
    returns t + s with no further evaluation once that bound is at most
    1e-12.
    """
    q, a = p_vals, np.log(v, out=v)
    a *= q
    log_h = math.log(h)
    # a Newton step s from a point with mean exponent m1 errs by at most
    # err_coef m1 s^2
    err_coef = (p_hi - p_lo) ** 2 / (8.0 * p_lo * p_lo)

    # t = 0: the moments of exp(a), with g'' >= 0 up to rounding
    z = np.exp(a)
    total = float(np.sum(z))
    np.multiply(z, q, out=z)
    m1 = float(np.sum(z)) / total
    var = max(float(np.dot(q, z)) / total - m1 * m1, 0.0)
    g = log_h + math.log(total)
    lo, hi = sorted((g / p_hi, g / p_lo))
    # the Newton step from 0 stays in the bracket; the Halley step, that
    # step over 1 - g g''/(2 m1^2), replaces it where that divisor exceeds
    # 1/2 and the step stays in the bracket
    t = g / m1
    div = 1.0 - g * var / (2.0 * m1 * m1)
    if div > 0.5 and lo <= t / div <= hi:
        t /= div

    for _ in range(100):
        np.multiply(q, -t, out=z)
        np.add(z, a, out=z)
        shift = 0.0
        if p_hi * abs(t) > 600.0:
            shift = float(np.max(z))
            np.subtract(z, shift, out=z)
        np.exp(z, out=z)
        total = float(np.sum(z))
        g = log_h + shift + math.log(total)
        if g > 0:
            lo = t
        elif g < 0:
            hi = t
        else:
            break
        m1 = float(np.dot(q, z)) / total
        step = g / m1
        t_next = t + step
        if lo <= t_next <= hi:
            done = err_coef * m1 * step * step <= 1e-12
        else:  # the Newton step left the bracket
            t_next = 0.5 * (lo + hi)
            done = hi - lo <= 2e-12
        t = t_next
        if done:
            break
    return math.exp(t)


def lux_core(abs_vals: np.ndarray, p_vals, h: float,
             bounds: Optional[np.ndarray] = None,
             p_rows: Optional[tuple] = None) -> np.ndarray:
    """Luxemburg norms of flat nonnegative samples, one per segment.

    Segment i holds the samples ``bounds[i]:bounds[i + 1]``, with
    ``bounds`` nondecreasing from 0 to ``abs_vals.size`` (one segment of
    all samples by default); empty and all-zero segments give 0.
    ``abs_vals`` is scratch: a contiguous float array that the call
    overwrites, so a caller passes a fresh one (its gather or its
    ``np.abs``).  ``p_vals`` holds the exponent samples, or one float for
    a constant exponent; ``p_rows`` optionally holds their (min, max)
    over each segment, as two arrays with one row per segment (rows of
    empty segments are not read), and saves the ``minimum``/
    ``maximum.reduceat`` over ``p_vals`` that gives them otherwise.

    Each segment is divided in place by its own max (one scalar divide)
    before any power and multiplied back after, so every norm is
    homogeneous at any float scale.  The exponent's per-segment bounds
    pick the route: a segment with one exponent value takes the closed
    form (sum v^p h)^{1/p}, in one pass over all segments when every
    sample is equal (v^2 as v * v); any other nonzero segment goes to
    ``_newton`` with those bounds, which solves it to a certified 1e-12
    in log lam.  One ``minimum.reduceat`` over the divided samples finds
    the segments holding a zero (a sample may round to 0 in the divide),
    and only those drop their zero samples before the solve.  A segment's
    norm equals, bit for bit, a one-segment call on its samples.  Raises
    NormOverflow for a norm beyond float range.
    """
    if bounds is None:
        bounds = np.array([0, abs_vals.size])
    norms = np.zeros(len(bounds) - 1)
    lengths = np.diff(bounds)
    live = np.flatnonzero(lengths)  # the nonempty segments
    if live.size == 0:
        return norms
    # with the empty segments dropped, each start's run ends at the next
    starts = bounds[live]
    ends = starts + lengths[live]
    peak = np.maximum.reduceat(abs_vals, starts)
    if np.ndim(p_vals) == 0:
        pc = float(p_vals)
    else:
        if p_rows is None:
            p_lo = np.minimum.reduceat(p_vals, starts)
            p_hi = np.maximum.reduceat(p_vals, starts)
        else:
            p_lo, p_hi = p_rows[0][live], p_rows[1][live]
        pc = float(p_lo[0]) if p_lo.min() == p_hi.max() else None
    for s, e, m in zip(starts.tolist(), ends.tolist(), peak.tolist()):
        if m > 0:
            # one view as input and output: numpy then skips its overlap
            # check, which two views of the same samples would cost
            seg = abs_vals[s:e]
            np.divide(seg, m, out=seg)
    if pc is not None:  # one exponent value throughout
        if pc == 2.0:
            # the same floats as np.power(v, 2.0), in fewer cycles
            np.multiply(abs_vals, abs_vals, out=abs_vals)
        else:
            np.power(abs_vals, pc, out=abs_vals)
        unit = (np.add.reduceat(abs_vals, starts) * h) ** (1.0 / pc)
    else:
        unit = np.zeros(live.size)
        floor = np.minimum.reduceat(abs_vals, starts)
        for j in np.flatnonzero(peak).tolist():
            s, e = int(starts[j]), int(ends[j])
            v, q = abs_vals[s:e], p_vals[s:e]
            lo, hi = float(p_lo[j]), float(p_hi[j])
            if lo == hi:
                # a segment with one exponent value takes the closed form,
                # as it does on its own (v has max 1, so this call is exact)
                unit[j] = lux_core(v, lo, h)[0]
                continue
            if floor[j] == 0.0:
                nz = v > 0
                v, q = v[nz], q[nz]
            unit[j] = _newton(v, q, h, lo, hi)
    with np.errstate(over="ignore"):
        norms[live] = peak * unit
    if not np.all(np.isfinite(norms)):
        raise NormOverflow("an L^{q(.)} norm exceeds the float range")
    return norms


def luxemburg_norm(f: GridFunction, p: ExponentFunction) -> float:
    """Luxemburg norm: the unique lam > 0 with modular(f, lam, p) = 1
    (0 for the zero function); ``lux_core`` on the flattened grid, so a
    constant exponent takes the closed form and any other the Newton
    solve."""
    p_vals = p.value if p.is_constant else p.on_grid(f.spec).reshape(-1)
    return float(lux_core(np.abs(f.values).reshape(-1), p_vals,
                          f.spec.cell_volume)[0])


# --- quantitative inequality companions ----------------------------------

def holder_defect(f: GridFunction, g: GridFunction, p: ExponentFunction) -> float:
    """r_p * |f|_p * |g|_{p'} - integral |f g|, with r_p = 1 + 1/p^- - 1/p^+.

    Nonnegative up to discretization tolerance by the generalized Hölder
    inequality.
    """
    if f.spec != g.spec:
        raise GridMismatch("holder_defect needs matching grids")
    if not p.in_class_p:
        raise NotInClassP("holder_defect needs p in class P")
    r_p = 1.0 + 1.0 / p.p_minus - 1.0 / p.p_plus
    lhs = float(np.sum(np.abs(f.values * g.values)) * f.spec.cell_volume)
    return r_p * luxemburg_norm(f, p) * luxemburg_norm(g, conjugate(p)) - lhs


def ball_norm_product(d: Dilation, k: int, p: ExponentFunction,
                      spec: GridSpec) -> float:
    """|chi_{B_k}|_p * |chi_{B_k}|_{p'} / |B_k| on the given grid.

    Equals 1 exactly for constant p (up to the grid measure of B_k);
    bounded over k for maximal-operator-admissible exponents.
    """
    mask = annulus_index_map(d, spec) <= k - 1  # the cells of B_k
    if not np.any(mask):
        raise EmptyBall(f"B_{k} contains no cell of the grid")
    chi = indicator(spec, mask)
    return (luxemburg_norm(chi, p) * luxemburg_norm(chi, conjugate(p))
            / d.b ** k)


def subset_ratio_fit(d: Dilation, p: ExponentFunction, krange,
                     spec: GridSpec) -> tuple[float, float]:
    """Fit the ball-ratio exponents (delta_1, delta_2) by log-log regression.

    Regresses log(|chi_{B_j}|_p / |chi_{B_k}|_p) (and the p'-analogue)
    against log of the grid-measured |B_j|/|B_k| over pairs j < k.  For
    constant q the second fit returns 1 - 1/q to machine precision.
    """
    ks = sorted(int(k) for k in krange)
    pairs = [(j, k) for i, j in enumerate(ks) for k in ks[i + 1:]]
    if len(pairs) < 3:
        raise InsufficientRange("need at least 3 index pairs")

    idx = annulus_index_map(d, spec)
    pc = conjugate(p)
    norms_p, norms_pc, meas = {}, {}, {}
    for k in ks:
        mask = idx <= k - 1  # the cells of B_k
        if not np.any(mask):
            raise EmptyBall(f"B_{k} contains no cell of the grid")
        chi = indicator(spec, mask)
        norms_p[k] = luxemburg_norm(chi, p)
        norms_pc[k] = luxemburg_norm(chi, pc)
        meas[k] = float(np.count_nonzero(mask)) * spec.cell_volume

    x = np.array([math.log(meas[j] / meas[k]) for j, k in pairs])
    y1 = np.array([math.log(norms_p[j] / norms_p[k]) for j, k in pairs])
    y2 = np.array([math.log(norms_pc[j] / norms_pc[k]) for j, k in pairs])
    # least squares through the origin (equal sets give ratio 1)
    delta1 = float(x @ y1 / (x @ x))
    delta2 = float(x @ y2 / (x @ x))
    return delta1, delta2


def derived_reciprocal(q: ExponentFunction, r: ExponentFunction) -> ExponentFunction:
    """Exponent p with 1/p = 1/q + 1/r pointwise; must stay in class P."""
    p_minus = 1.0 / (1.0 / q.p_minus + 1.0 / r.p_minus)
    if p_minus <= 1.0:
        raise ReciprocalMismatch(
            f"derived p^- = {p_minus:g} <= 1 leaves class P")
    if q.is_constant and r.is_constant:
        return ExponentFunction.constant(
            1.0 / (1.0 / q.value + 1.0 / r.value),
            name=f"recip({q.name},{r.name})")
    return ExponentFunction.custom(
        fn=lambda pts: 1.0 / (1.0 / q(pts) + 1.0 / r(pts)),
        p_minus=p_minus,
        p_plus=1.0 / (1.0 / q.p_plus + 1.0 / r.p_plus),
        at_origin=1.0 / (1.0 / q.at_origin + 1.0 / r.at_origin),
        at_infinity=1.0 / (1.0 / q.at_infinity + 1.0 / r.at_infinity),
        name=f"recip({q.name},{r.name})",
    )


def product_norm_check(f: GridFunction, g: GridFunction,
                       q: ExponentFunction, r: ExponentFunction) -> dict:
    """Ratio |fg|_p / (|f|_q |g|_r) for 1/p = 1/q + 1/r.

    Constant exponents give the sharp constant 1; variable exponents are
    recorded without a hard bound.
    """
    if f.spec != g.spec:
        raise GridMismatch("product_norm_check needs matching grids")
    p = derived_reciprocal(q, r)
    denom = luxemburg_norm(f, q) * luxemburg_norm(g, r)
    num = luxemburg_norm(f * g, p)
    bound = 1.0 + 1e-6 if q.is_constant and r.is_constant else None
    return _ratio_record("product_norm", num, denom, bound)


def _ratio_record(check: str, num: float, denom: float,
                  bound: Optional[float]) -> dict:
    """The record of a ratio check num / denom <= bound.  A zero
    denominator is degenerate and passes with ratio 0; a bound of None
    records the ratio without a verdict."""
    if denom == 0.0:
        return {"check": check, "ratio": 0.0, "degenerate": True,
                "bound": bound, "pass": True}
    ratio = num / denom
    return {
        "check": check,
        "ratio": ratio,
        "degenerate": False,
        "bound": bound,
        "pass": bool(ratio <= bound) if bound is not None else None,
    }


def log_holder_check(g: ExponentFunction, samples: np.ndarray) -> dict:
    """Empirical log-decay constants of g at the origin and at infinity.

    Over the sample points, computes the smallest constants C_org, C_inf
    with |g(x) - g(0)| <= C_org / log(e + 1/|x|) and
    |g(x) - g_inf| <= C_inf / log(e + |x|).  Family kinds are compared
    against their analytic constant; other kinds are screened for
    divergence at small |x| (a jump through the origin makes the
    required constant grow like log(1/|x|)).
    """
    pts = np.atleast_2d(np.asarray(samples, dtype=float))
    r = np.sqrt(np.sum(pts * pts, axis=-1))
    keep = r > 0
    pts, r = pts[keep], r[keep]
    vals = g(pts)

    c_origin_req = np.abs(vals - g.at_origin) * np.log(math.e + 1.0 / r)
    c_inf_req = np.abs(vals - g.at_infinity) * np.log(math.e + r)
    c_origin = float(np.max(c_origin_req, initial=0.0))
    c_inf = float(np.max(c_inf_req, initial=0.0))

    analytic = g.log_holder_constant
    if analytic is not None:
        passed = c_origin <= analytic + 1e-9 and c_inf <= analytic + 1e-9
        status = "ok" if passed else "NotLogHolder"
    else:
        # divergence screen: compare the requirement on the innermost
        # decade of |x| against the overall median
        order = np.argsort(r)
        inner = c_origin_req[order[: max(1, len(r) // 8)]]
        med = float(np.median(c_origin_req))
        diverging = float(np.max(inner, initial=0.0)) > 10.0 * max(med, 1e-12)
        status = "NotLogHolder" if diverging else "ok"
        passed = not diverging
    return {
        "check": "log_holder",
        "c_origin": c_origin,
        "c_infinity": c_inf,
        "analytic_c": analytic,
        "status": status,
        "pass": bool(passed),
    }
