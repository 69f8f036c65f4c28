"""The four workloads: seeded inputs, one fixed round of operations, checks.

A workload's set-up builds every input from the seed and warms the
caches a user would have warm (annulus index maps, k-windows).  Every
round then runs the same operations, interleaved in one order that does
not change with the seed, so host-speed drift hits all operation types
alike and the share of failed operations is the same in every run.

In-process workloads scale their inputs by a fresh seeded factor
``c_r`` in [1e-3, 1e3] each round.  Every output is checked right after
its operation against the first round's output by absolute homogeneity
(within 1e-9), plus cheap exact properties.  The first round's output of
each operation is checked in depth against an independent oracle or
property after the timed loop, so the oracles' memory does not show in
the benchmark's peak RSS.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import shutil
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import herzlab as hz
from herzlab import oracles
from herzlab.varlebesgue import ExponentFunction as Exp

SHEAR = [[2.0, 1.0], [0.0, 2.0]]
DYADIC = [[2.0]]
RADIUS = 2.0
HOMOGENEITY_TOL = 1e-9
ORACLE_TOL = 1e-6
EXACT_TOL = 1e-12
# |grand Herz norm of chi_{B_0} - constant_herz_reference| / reference at
# alpha = 1/2, q = 2, p = theta = 1 is the discretization error: 9.8e-4,
# 3.2e-4 and 6.2e-5 on the shear at 256, 512 and 1024 cells a side,
# 1.3e-11 on the dyadic line at 4096 cells.  The smoke sizes measure
# 5.1e-3 and 5.2e-3 (shear 64 and 128) and 4.9e-8 (dyadic 512).  Each
# tolerance leaves about 1.5x headroom.
B0_TOL = {("shear", 64): 8e-3, ("shear", 128): 8e-3, ("shear", 256): 1.5e-3,
          ("shear", 512): 5e-4, ("shear", 1024): 1e-4,
          ("dyadic", 512): 8e-8, ("dyadic", 4096): 2e-11}


class CheckFailed(Exception):
    pass


def _close(value: float, ref: float, rel: float, what: str) -> None:
    if not (math.isfinite(value) and abs(value - ref) <= rel * abs(ref)):
        raise CheckFailed(f"{what}: {value!r} vs {ref!r} (rel tol {rel:g})")


@dataclass
class Op:
    """One operation of a round.

    ``prepare(c)`` builds the arguments for input scale c outside the
    timed interval and ``run(*args)`` is the timed library call.  After
    each call ``check`` compares ``value(out)`` (divided by c when
    ``homogeneous``) with the first round's, and runs ``inline(c, args,
    out)`` if given.  ``verify`` runs ``deep(c, args, out)`` on the first
    round's output once the timed loop is over.  ``extreme`` marks the
    fixed extreme-scale requests, which ignore c.
    """

    kind: str
    prepare: Callable
    run: Callable
    value: Optional[Callable] = None
    homogeneous: bool = True
    inline: Optional[Callable] = None
    deep: Optional[Callable] = None
    extreme: bool = False
    first: Optional[tuple] = None

    def check(self, c: float, args: tuple, out) -> None:
        if self.inline is not None:
            self.inline(c, args, out)
        if self.value is None:
            return
        v = self.value(out) / (c if self.homogeneous else 1.0)
        if self.first is None:
            self.first = (c, out, v)
        else:
            _close(v, self.first[2], HOMOGENEITY_TOL, f"{self.kind} homogeneity")

    def verify(self) -> None:
        if self.deep is not None and self.first is not None:
            c, out, _ = self.first
            self.deep(c, self.prepare(c), out)


@dataclass
class Workload:
    ops: list                       # in round order
    scales: Callable[[int], float]  # round -> input scale
    min_rounds: int                 # rounds every run makes, timed or not
    trace_rounds: int               # fixed rounds of each traced-run pass
    cleanup: Callable = field(default=lambda: None)
    cli_prefix: Optional[list] = None  # cli-cold: the command that starts the CLI


def _fixed_order(ops: list) -> list:
    """The round order: shuffled once with a constant seed, so that each
    operation follows the same neighbour (and its cache state) in every
    run, whatever the workload seed."""
    return [ops[i] for i in np.random.default_rng(0).permutation(len(ops))]


def _round_scales(seed: int) -> Callable[[int], float]:
    return lambda r: float(10.0 ** np.random.default_rng([seed, r]).uniform(-3, 3))


def _b0(d, spec):
    inside = d.ball_contains(spec.points().reshape(-1, spec.dim), 0)
    return hz.indicator(spec, inside.reshape(spec.shape))


@functools.cache
def _b0_reference(b: float) -> float:
    """Closed-form grand Herz norm of chi_{B_0} at alpha = 1/2, q = 2."""
    return oracles.constant_herz_reference(b, 0.5, 2.0, 1.0, 1.0)


def _shear_inputs(rng, spec):
    """Seeded noise, bump and annulus indicator on a shear grid.

    Supports have a seed-independent size, so the work per round does
    not depend on the seed."""
    center = rng.uniform(-0.3, 0.3, size=2)
    r_in = rng.uniform(0.3, 0.6)
    noise_seed = int(rng.integers(2**31))
    r = spec.radii()
    return {
        "noise": hz.from_descriptor(spec, {"family": "noise", "seed": noise_seed}),
        "bump": hz.from_descriptor(spec, {"family": "bump",
                                          "center": center.tolist(), "width": 1.0}),
        "annulus": hz.indicator(spec, (r >= r_in) & (r < r_in + 0.6)),
    }


def _herz_params(q, lam=0.1):
    return hz.HerzSpaceParams(alpha=Exp.constant(0.5), p=1.0, q=q,
                              theta=1.0, lambda_morrey=lam)


def _oracle_norm(rep: dict, params, b: float) -> float:
    """The oracle's norm for the per-k terms a report carries."""
    terms = rep["per_k_terms"]
    if rep["space"] == "herz-morrey":
        return oracles.morrey_double_sup_reference(
            {int(k): v for k, v in terms.items()}, b, params.p, params.theta,
            params.lambda_morrey)
    return oracles.grand_seq_dense(np.array(list(terms.values())),
                                   params.p, params.theta)


def _round_trip(f, g, what):
    scale = float(np.max(np.abs(f.values)))
    err = float(np.max(np.abs(f.values - g.values)))
    if not err <= EXACT_TOL * scale:
        raise CheckFailed(f"{what}: round trip error {err:g} (scale {scale:g})")


# --- norm-shear ---------------------------------------------------------------

def _report_op(d, f, params, space, kind, b0_tol=None):
    """herz_norm_report on c*f."""

    def deep(c, args, rep):
        _close(rep["norm"], _oracle_norm(rep, params, d.b), ORACLE_TOL,
               f"{kind} vs oracle")
        if space == "herz":
            lam0 = hz.herz_norm_report(args[0], d, replace(params, lambda_morrey=0.0),
                                       "herz-morrey")
            _close(lam0["norm"], rep["norm"], HOMOGENEITY_TOL,
                   f"{kind} Morrey lambda=0 vs Herz")
        if b0_tol is not None:
            _close(rep["norm"] / c, _b0_reference(d.b), b0_tol,
                   f"{kind} vs constant_herz_reference")

    return Op(kind, lambda c: (f * c,),
              lambda g: hz.herz_norm_report(g, d, params, space),
              value=lambda rep: rep["norm"], deep=deep)


def _extreme_op(d, f, params, space, scale, kind):
    """Fixed-scale request checked by homogeneity against the unscaled norm."""
    ref = []

    def inline(c, args, rep):
        if not ref:
            ref.append(hz.herz_norm_report(f, d, params, space)["norm"])
        _close(rep["norm"] / scale, ref[0], HOMOGENEITY_TOL, f"{kind} homogeneity")

    return Op(kind, lambda c: (f * scale,),
              lambda g: hz.herz_norm_report(g, d, params, space),
              inline=inline, extreme=True)


def norm_shear(seed: int, smoke: bool, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    d = hz.make_dilation(SHEAR)
    sizes = (64, 128) if smoke else (256, 512, 1024)
    spaces = ("herz", "herz-morrey", "nonhomog")
    qs = {"const": Exp.constant(2.0), "log": Exp.log_family(2.0, 3.0)}
    ops = []
    for n in sizes:
        spec = hz.GridSpec(RADIUS, 2, n)
        hz.annulus_index_map(d, spec)
        hz.default_krange(d, spec)
        inputs = _shear_inputs(rng, spec)
        kinds = list(inputs)
        # every (space, q) pair on all three inputs below the largest
        # size; on the largest, one input per pair keeps the round short
        for i, (space, qname) in enumerate((s, q) for s in spaces for q in qs):
            chosen = kinds if n != sizes[-1] else [kinds[i % len(kinds)]]
            for kind in chosen:
                ops.append(_report_op(d, inputs[kind], _herz_params(qs[qname]),
                                      space, f"{space}/{qname}/{kind}/{n}"))
        b0 = _b0(d, spec)
        ops.append(_report_op(d, b0, _herz_params(qs["const"]), "herz",
                              f"herz/const/b0/{n}", B0_TOL[("shear", n)]))
        ops.append(_report_op(d, b0, _herz_params(qs["log"]), "herz",
                              f"herz/log/b0/{n}"))
    # Extreme scales on a seed-independent input.  They fail today because
    # nothing divides by max|f| before the power sums in herz.slice_norms
    # and varlebesgue.lux_core.
    b0 = _b0(d, hz.GridSpec(RADIUS, 2, sizes[0]))
    for space, qname, scale in (("herz", "const", 1e200), ("herz", "const", 1e-200),
                                ("herz-morrey", "const", 1e200),
                                ("herz", "log", 1e-200)):
        ops.append(_extreme_op(d, b0, _herz_params(qs[qname]), space, scale,
                               f"extreme/{space}/{qname}/{scale:g}"))
    return Workload(_fixed_order(ops), _round_scales(seed),
                    min_rounds=2, trace_rounds=2)


# --- operator-sweep -------------------------------------------------------------

def _hardy_property(d, g, tg, cutoff, cells):
    pts = g.spec.points().reshape(-1, g.spec.dim)
    nonzero = np.any(pts != 0.0, axis=-1)
    bound = g.l1() / d.rho(pts[nonzero])
    if not np.all(np.abs(tg.values.reshape(-1)[nonzero]) <= bound * (1 + EXACT_TOL)):
        raise CheckFailed("Hardy output exceeds ||f||_1 / rho(x)")


def _maximal_property(d, g, tg, cutoff, cells):
    if not (np.all(tg.values >= np.abs(g.values) * (1 - EXACT_TOL))
            and np.all(tg.values <= g.sup() * (1 + EXACT_TOL))):
        raise CheckFailed("maximal output outside [|f|, sup|f|]")


def _riesz_property(d, g, tg, cutoff, cells):
    """Direct O(N^2) sum at sampled cells, without the FFT."""
    pts = g.spec.points().reshape(-1, g.spec.dim)
    vals = g.values.reshape(-1)
    for i in cells:
        rho = d.rho(pts[i] - pts)
        keep = rho >= cutoff
        direct = float(np.sum(vals[keep] / rho[keep]) * g.spec.cell_volume)
        _close(float(tg.values.reshape(-1)[i]), direct, 1e-9,
               "truncated Riesz vs direct sum")


def _identity_property(d, g, tg, cutoff, cells):
    if tg is not g:
        raise CheckFailed("identity operator returned a new function")


_PROPERTIES = {"hardy": _hardy_property, "maximal": _maximal_property,
               "truncated_riesz": _riesz_property, "identity": _identity_property}


def _ratio_op(d, f, kind, alpha, label, cells):
    """op_ratio of one operator on c*f; the ratio is scale invariant."""
    params = hz.HerzSpaceParams(alpha=Exp.constant(alpha), p=1.0,
                                q=Exp.constant(2.0), delta2=0.5)
    t_spec = hz.OperatorSpec(kind=kind, cutoff=0.25)

    def inline(c, args, ratio):
        if kind == "identity" and ratio != 1.0:
            raise CheckFailed(f"identity ratio {ratio!r} is not exactly 1")

    def deep(c, args, ratio):
        g = args[0]
        tg = hz.apply_operator(t_spec, g, d)
        n_t, _ = hz.grand_herz_norm(tg, d, params)
        n_f, _ = hz.grand_herz_norm(g, d, params)
        _close(ratio, n_t / n_f, EXACT_TOL, f"{label} ratio")
        _PROPERTIES[kind](d, g, tg, t_spec.cutoff, cells)

    return Op(label, lambda c: (f * c,),
              lambda g: hz.op_ratio(t_spec, g, d, params),
              value=float, homogeneous=False, inline=inline, deep=deep)


def operator_sweep(seed: int, smoke: bool, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    d = hz.make_dilation(SHEAR)
    sizes = (32, 64) if smoke else (128, 256)
    ops = []
    for n in sizes:
        spec = hz.GridSpec(RADIUS, 2, n)
        hz.annulus_index_map(d, spec)
        hz.default_krange(d, spec)
        inputs = _shear_inputs(rng, spec)
        kinds = [str(k) for k in rng.permutation(list(inputs))]
        cells = rng.choice(n * n, size=3, replace=False)
        plan = [("hardy", kinds[0]), ("truncated_riesz", kinds[1]),
                ("maximal", kinds[2]), ("identity", kinds[0])]
        if n == sizes[-1]:
            # a ninth cell: an odd round puts the median inside one
            # operation type instead of on the edge between two
            plan.append(("hardy", kinds[1]))
        for op_kind, kind in plan:
            alpha = float(rng.choice((0.1, 0.25, 0.4)))
            ops.append(_ratio_op(d, inputs[kind], op_kind, alpha,
                                 f"{op_kind}/{kind}/a{alpha:g}/{n}", cells))
    return Workload(_fixed_order(ops), _round_scales(seed),
                    min_rounds=2, trace_rounds=2)


# --- dyadic-seq ------------------------------------------------------------------

def _norm_value(out) -> float:
    return out[0] if isinstance(out, tuple) else out  # grand_herz_norm: (norm, tail)


def _scaled(f, c):
    return (f * c,)


def dyadic_seq(seed: int, smoke: bool, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    d = hz.make_dilation(DYADIC)
    spec = hz.GridSpec(RADIUS, 1, 256 if smoke else 1024)
    b0_spec = hz.GridSpec(RADIUS, 1, 512 if smoke else 4096)
    for s in (spec, b0_spec):
        hz.annulus_index_map(d, s)
        hz.default_krange(d, s)
    # inputs vanish inside the innermost ball the k-window drops, so a
    # block decomposition reproduces them exactly
    k_min, k_max = hz.default_krange(d, spec)
    cell_k = hz.annulus_index_map(d, spec) + 1
    window = (cell_k >= k_min) & (cell_k <= k_max)
    x = spec.points()[:, 0]
    fs = {
        "noise": hz.GridFunction(spec, rng.uniform(-1, 1, spec.shape) * window),
        "bump": hz.GridFunction(spec, np.exp(-((x - rng.uniform(-0.5, 0.5)) ** 2))
                                * window),
    }
    herz_p = _herz_params(Exp.constant(2.0), lam=0.0)
    morrey_p = _herz_params(Exp.constant(2.0), lam=0.1)
    ops = []

    for name, f in fs.items():
        scaled = functools.partial(_scaled, f)

        def decomposed(c, f=f):
            return (hz.block_decompose(f * c, d, herz_p),)

        def herz_deep(c, args, out, name=name):
            rep = hz.herz_norm_report(args[0], d, herz_p, "herz")
            _close(out[0], rep["norm"], EXACT_TOL, f"herz/{name} vs report")
            _close(out[0], _oracle_norm(rep, herz_p, d.b), ORACLE_TOL,
                   f"herz/{name} vs oracle")
            _close(hz.herz_morrey_norm(args[0], d, herz_p), out[0],
                   HOMOGENEITY_TOL, f"herz/{name} Morrey lambda=0")

        def morrey_deep(c, args, out, name=name):
            rep = hz.herz_norm_report(args[0], d, morrey_p, "herz-morrey")
            _close(out, rep["norm"], EXACT_TOL, f"morrey/{name} vs report")
            _close(out, _oracle_norm(rep, morrey_p, d.b), ORACLE_TOL,
                   f"morrey/{name} vs oracle")

        def split_deep(c, args, out, name=name):
            # constant alpha: the split form equals the direct norm
            _close(out, hz.grand_herz_norm(args[0], d, herz_p)[0],
                   HOMOGENEITY_TOL, f"split/{name} vs direct")

        def seqf_deep(c, args, out, name=name):
            g = hz.block_reconstruct(args[0])
            _close(out, hz.grand_herz_norm(g, d, herz_p)[0], HOMOGENEITY_TOL,
                   f"seq_functional/{name} vs grand Herz norm")

        def decompose_inline(c, args, dec, name=name):
            _round_trip(args[0], hz.block_reconstruct(dec), f"decompose/{name}")

        def reconstruct_inline(c, args, g, f=f, name=name):
            _round_trip(f * c, g, f"reconstruct/{name}")

        ops += [
            Op(f"herz/{name}", scaled, lambda g: hz.grand_herz_norm(g, d, herz_p),
               value=_norm_value, deep=herz_deep),
            Op(f"morrey/{name}", scaled, lambda g: hz.herz_morrey_norm(g, d, morrey_p),
               value=_norm_value, deep=morrey_deep),
            Op(f"split/{name}", scaled, lambda g: hz.split_norm(g, d, herz_p),
               value=_norm_value, deep=split_deep),
            Op(f"seq_functional/{name}", decomposed, hz.seq_functional,
               value=_norm_value, deep=seqf_deep),
            Op(f"decompose/{name}", scaled,
               lambda g: hz.block_decompose(g, d, herz_p), inline=decompose_inline),
            Op(f"reconstruct/{name}", decomposed, hz.block_reconstruct,
               inline=reconstruct_inline),
        ]

    def sum_inline(c, args, out):
        if not (out["pass"] and out["ratio"] <= 1.0 + 1e-6):
            raise CheckFailed(f"sum_check ratio {out['ratio']!r} above 1 + 1e-6")

    ops.append(Op("sum_check", lambda c: (fs["noise"] * c, fs["bump"] * c),
                  lambda f, g: hz.sum_check(f, g, d, morrey_p),
                  value=lambda out: out["ratio"], homogeneous=False,
                  inline=sum_inline))

    b0 = _b0(d, b0_spec)
    b0_tol = B0_TOL[("dyadic", b0_spec.resolution)]

    def b0_deep(c, args, out):
        _close(out[0] / c, _b0_reference(d.b), b0_tol,
               "herz/b0 vs constant_herz_reference")

    ops.append(Op("herz/b0", functools.partial(_scaled, b0),
                  lambda g: hz.grand_herz_norm(g, d, herz_p),
                  value=_norm_value, deep=b0_deep))

    for i, length in enumerate((8, 12, 16, 20, 24, 28, 32, 40)):
        x_seq = hz.Sequence(rng.uniform(0.0, 1.0, size=length) ** 2,
                            offset=int(rng.integers(-5, 5)))
        params = hz.GrandSequenceParams(*((1.0, 1.0) if i % 2 == 0 else (2.0, 0.5)))

        def seq_deep(c, args, out, params=params):
            _close(out, oracles.grand_seq_dense(args[0].values, params.p, params.theta),
                   ORACLE_TOL, "grand_seq vs oracle")

        ops.append(Op(f"grand_seq/{length}",
                      lambda c, x_seq=x_seq: (x_seq.scale(c),),
                      functools.partial(hz.grand_seq_norm, params=params),
                      value=float, deep=seq_deep))
    return Workload(_fixed_order(ops), _round_scales(seed),
                    min_rounds=2, trace_rounds=20)


# --- cli-cold ---------------------------------------------------------------------

SHEAR_CFG = """dilation.matrix = 2 1; 0 2
herz.alpha = const:0.5
herz.q = log:2,3
herz.lambda = 0.1
"""
DYADIC_CFG = """dilation.matrix = 2
herz.alpha = const:0.5
herz.q = const:2
herz.lambda = 0
"""


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(path.iterdir()) if path.is_dir() else [path]:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _cli_op(label, spawner, prefix, argv, out_path, check):
    """One `herzlab` subprocess; each distinct output is checked once.

    ``prefix`` is the shared command that starts the CLI, so a traced
    pass can swap in the tracing launcher."""
    seen = set()

    def prepare(c):
        if out_path.is_dir():
            shutil.rmtree(out_path)
        elif out_path.exists():
            out_path.unlink()
        return (prefix + argv,)

    def run(cmd):
        reply = spawner.run(cmd)
        if reply["returncode"] != 0:
            raise RuntimeError(f"exit {reply['returncode']}: {reply['stderr']}")
        return out_path

    def inline(c, args, path):
        digest = _digest(path)
        if digest not in seen:
            check(path)
            seen.add(digest)

    return Op(label, prepare, run, inline=inline)


def cli_cold(seed: int, smoke: bool, workdir: Path, spawner) -> Workload:
    """Three `herzlab` processes a round, with distinct latencies, so the
    median latency is the middle one's and not an edge between two."""
    rng = np.random.default_rng(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    shear_spec = hz.GridSpec(RADIUS, 2, 64 if smoke else 512)
    dy_spec = hz.GridSpec(RADIUS, 1, 512 if smoke else 4096)
    d2, d1 = hz.make_dilation(SHEAR), hz.make_dilation(DYADIC)

    # the shear input vanishes near the origin, inside the innermost
    # ball the k-window drops, so its decomposition reproduces it exactly
    r = shear_spec.radii()
    shear_f = hz.GridFunction(shear_spec, rng.uniform(-1, 1, shear_spec.shape)
                              * (r >= 0.1))
    hz.save_csv(shear_f, workdir / "shear.csv")
    hz.save_csv(_b0(d1, dy_spec), workdir / "dyadic_b0.csv")
    (workdir / "shear.cfg").write_text(SHEAR_CFG)
    (workdir / "dyadic.cfg").write_text(DYADIC_CFG)

    shear_p = _herz_params(Exp.log_family(2.0, 3.0), lam=0.1)
    dy_p = _herz_params(Exp.constant(2.0), lam=0.0)

    def norm_check(params, b, b0_tol=None):
        def check(path):
            rep = json.loads(path.read_text())
            _close(rep["norm"], _oracle_norm(rep, params, b), ORACLE_TOL,
                   f"cli {rep['space']} vs oracle")
            if b0_tol is not None:
                _close(rep["norm"], _b0_reference(b), b0_tol,
                       "cli b0 vs constant_herz_reference")
        return check

    def decompose_check(path):
        manifest = json.loads((path / "manifest.json").read_text())
        coeffs = hz.Sequence.from_json_dict(manifest["coefficients"])
        total = np.zeros(shear_spec.shape)
        for k, name in manifest["blocks"].items():
            total += coeffs.values[int(k) - coeffs.offset] \
                * hz.load_csv(path / name).values
        _round_trip(shear_f, hz.GridFunction(shear_spec, total), "cli decompose")
        _close(hz.grand_seq_norm(coeffs, shear_p.seq_params()),
               hz.grand_herz_norm(shear_f, d2, shear_p)[0], HOMOGENEITY_TOL,
               "cli seq_functional vs grand Herz norm")

    w = workdir
    specs = [
        ("norm/herz/dyadic_b0", ["norm", "--config", w / "dyadic.cfg", "--input",
                                 w / "dyadic_b0.csv", "--out", w / "b0.json"],
         w / "b0.json", norm_check(dy_p, d1.b, B0_TOL[("dyadic", dy_spec.resolution)])),
        ("norm/herz-morrey/shear", ["norm", "--space", "herz-morrey", "--config",
                                    w / "shear.cfg", "--input", w / "shear.csv",
                                    "--out", w / "morrey.json"],
         w / "morrey.json", norm_check(shear_p, d2.b)),
        ("decompose/shear", ["decompose", "--config", w / "shear.cfg", "--input",
                             w / "shear.csv", "--out", w / "dec_shear"],
         w / "dec_shear", decompose_check),
    ]
    prefix = [sys.executable, "-m", "herzlab.cli"]
    ops = [_cli_op(label, spawner, prefix, [str(a) for a in argv], out, check)
           for label, argv, out, check in specs]
    return Workload(_fixed_order(ops), lambda r: 1.0, min_rounds=1,
                    trace_rounds=2, cleanup=lambda: shutil.rmtree(workdir, True),
                    cli_prefix=prefix)


WORKLOADS = {
    "norm-shear": norm_shear,
    "operator-sweep": operator_sweep,
    "dyadic-seq": dyadic_seq,
    "cli-cold": cli_cold,
}
