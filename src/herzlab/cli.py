"""Command-line front end.

Subcommands: norm, decompose, atoms, sweep, verify, oracle.
Exit codes: 0 pass, 1 check failure, 2 usage, config or input error.

The verification modules (suites, oracles, reports) are imported by
the verify and oracle subcommands alone, so the other subcommands'
processes do not load them.

Outputs are deterministic for a fixed config and seed; per-check
runtimes are only written when --timings is passed so report files
byte-compare across runs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import atoms as at
from . import operators as ops
from .config import (
    SuiteConfig,
    config_value,
    float_list,
    load_config,
    parse_exponent,
    strict_flag,
    strict_int,
)
from .dilation import make_dilation, parse_matrix
from .errors import BadGrid, ConfigError, HerzlabError, IoError
from .grandseq import Sequence
from .grid import (
    GridFunction,
    GridSpec,
    from_descriptor,
    load_csv,
    save_csv,
)
from .herz import (
    HerzSpaceParams,
    block_decompose,
    herz_norm_report,
)


def _herz_params(raw: dict) -> HerzSpaceParams:
    kr = tuple(config_value(raw, key, strict_int) for key in ("herz.kmin", "herz.kmax"))
    if kr.count(None) == 1:
        raise ConfigError("herz.kmin and herz.kmax must be given together")
    return HerzSpaceParams(
        alpha=config_value(raw, "herz.alpha", parse_exponent, "const:0.5"),
        p=config_value(raw, "herz.p", float, 1.0),
        q=config_value(raw, "herz.q", parse_exponent, "const:2"),
        theta=config_value(raw, "herz.theta", float, 1.0),
        lambda_morrey=config_value(raw, "herz.lambda", float, 0.0),
        homogeneous=config_value(raw, "herz.homogeneous", strict_flag, 1),
        delta2=config_value(raw, "herz.delta2", float, 0.5),
        krange=None if None in kr else kr,
    )


def _grid_spec(raw: dict, dim: int, resolution: int | None,
               default_resolution: int) -> GridSpec:
    """The grid of ``grid.radius`` and ``grid.resolution``, the latter
    overridden by a ``--resolution`` flag; a value that no grid can have
    raises a ConfigError naming its key."""
    name = "--resolution"
    if resolution is None:
        name = "config key 'grid.resolution'"
        resolution = config_value(raw, "grid.resolution", strict_int, default_resolution)
    radius = config_value(raw, "grid.radius", float, 2.0)
    try:
        return GridSpec(radius=radius, dim=dim, resolution=resolution)
    except BadGrid as exc:
        key = name if str(exc).startswith("resolution") else "config key 'grid.radius'"
        raise ConfigError(f"{key}: {exc}") from None


def _load_input(path, raw: dict | None = None, dim: int = 1) -> GridFunction:
    p = Path(path)
    if not p.exists():
        raise IoError(f"input file {path} not found")
    if p.suffix == ".json":
        # synthetic-family descriptor; grid geometry comes from the config
        spec = _grid_spec(raw or {}, dim, None, 1024)
        try:
            return from_descriptor(spec, json.loads(p.read_text()))
        except (OSError, ValueError, ConfigError) as exc:
            raise IoError(f"bad function descriptor {path}: {exc}") from None
    return load_csv(p)


def _dilation_from(raw: dict, matrix: str | None = None):
    key, text = (("--matrix", matrix) if matrix
                 else ("dilation.matrix", str(raw.get("dilation.matrix", "2"))))
    try:
        rows = parse_matrix(text)
    except ValueError:
        raise ConfigError(f"{key} has malformed value {text!r}") from None
    return make_dilation(rows)


def _emit(obj: dict, out: str | Path | None) -> None:
    text = json.dumps(obj, indent=2, default=_json_default) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _json_default(v):
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (np.integer, np.floating, np.bool_)):
        return v.item()
    raise TypeError(f"not JSON serializable: {type(v)}")


# --- subcommands ------------------------------------------------------------

def _cmd_norm(args) -> int:
    raw = load_config(args.config) if args.config else {}
    d = _dilation_from(raw, args.matrix)
    f = _load_input(args.input, raw, d.dim)
    params = _herz_params(raw)
    rep = herz_norm_report(f, d, params, space=args.space)
    _emit(rep, args.out)
    return 0


def _cmd_decompose(args) -> int:
    raw = load_config(args.config) if args.config else {}
    d = _dilation_from(raw, args.matrix)
    f = _load_input(args.input, raw, d.dim)
    params = _herz_params(raw)
    dec = block_decompose(f, d, params)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "coefficients": dec.coefficients.to_json_dict(),
        "blocks": {},
    }
    for k in dec.block_indices():
        name = f"block_{k:+05d}.csv"
        # each dense block is dropped before the next is built
        save_csv(dec.block(k), outdir / name)
        manifest["blocks"][str(k)] = name
    _emit(manifest, outdir / "manifest.json")
    return 0


def _cmd_atoms(args) -> int:
    raw = load_config(args.config) if args.config else {}
    d = _dilation_from(raw, args.matrix)
    params = _herz_params(raw)
    spec = _grid_spec(raw, d.dim, args.resolution, 1024)

    if args.action == "make":
        atom = at.atom_make(args.kind, args.k, args.s, d, params, spec)
        outdir = Path(args.out or "atom_out")
        outdir.mkdir(parents=True, exist_ok=True)
        save_csv(atom.data, outdir / "atom.csv")
        rep = at.atom_validate(atom.data, atom.scale_index, d, params,
                               atom.moment_order)
        meta = {"k": atom.scale_index, "s": atom.moment_order,
                "kind": args.kind, "validation": rep}
        _emit(meta, outdir / "atom.json")
        return 0

    if args.action == "validate":
        if args.input is None:
            raise ConfigError("atoms validate needs --input")
        f = _load_input(args.input)
        rep = at.atom_validate(f, args.k, d, params, args.s)
        _emit(rep, args.out)
        return 0 if rep["pass"] else 1

    entries, coefficients = _read_manifest(args.manifest)
    atoms = [at.Atom(data=_load_input(path), scale_index=k, moment_order=s, params=params)
             for path, k, s in entries]
    lam = Sequence(coefficients)
    phi = at.make_mollifier(d, atoms[0].data.spec)
    rep = at.atomic_sum_check(atoms, lam, params, phi)
    _emit(rep, args.out)
    return 0


def _read_manifest(path: str | None) -> tuple[list, np.ndarray]:
    """The atoms of a sumcheck manifest, as (CSV path, scale k, moment
    order s) entries, and its coefficients; a missing flag raises a
    ConfigError, a missing or malformed file an IoError naming it."""
    if path is None:
        raise ConfigError("atoms sumcheck needs --manifest")
    if not Path(path).exists():
        raise IoError(f"manifest file {path} not found")
    try:
        manifest = json.loads(Path(path).read_text())
        entries = [(entry["path"], strict_int(entry["k"]), strict_int(entry.get("s", 0)))
                   for entry in manifest["atoms"]]
        coefficients = np.asarray(manifest["coefficients"], dtype=float)
    except KeyError as exc:
        raise IoError(f"bad manifest {path}: missing key {exc}") from None
    except (OSError, ValueError, TypeError) as exc:
        raise IoError(f"bad manifest {path}: {exc}") from None
    if not entries:
        raise IoError(f"bad manifest {path}: it lists no atoms")
    return entries, coefficients


def _parse_range(flag: str, text: str) -> list[float]:
    """The values of ``flag``, one value or a ``lo:hi:step`` range; a
    malformed or non-finite value raises a ConfigError naming the flag."""
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise ConfigError(f"{flag} must be a value or lo:hi:step, got {text!r}")
    try:
        values = [float(v) for v in parts]
    except ValueError:
        raise ConfigError(f"{flag} has malformed value {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{flag} needs finite values, got {text!r}")
    if len(values) == 1:
        return values
    lo, hi, step = values
    if step <= 0 or hi < lo:
        raise ConfigError(f"{flag} range needs lo <= hi and a positive step, got {text!r}")
    n = int(round((hi - lo) / step)) + 1
    return [lo + i * step for i in range(n) if lo + i * step <= hi + 1e-12]


def _viridis(t: float) -> str:
    stops = [(68, 1, 84), (59, 82, 139), (33, 145, 140),
             (94, 201, 98), (253, 231, 37)]
    t = min(max(t, 0.0), 1.0) * (len(stops) - 1)
    i = min(int(t), len(stops) - 2)
    frac = t - i
    rgb = [int(a + frac * (b - a)) for a, b in zip(stops[i], stops[i + 1])]
    return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"


def _write_svg_heatmap(rows: list[dict], path) -> None:
    alphas = sorted({r["alpha"] for r in rows})
    lams = sorted({r["lambda"] for r in rows})
    vals = {(r["alpha"], r["lambda"]): r["sup_ratio"] for r in rows}
    finite = [v for v in vals.values() if math.isfinite(v)]
    vmax = max(finite) if finite else 1.0
    vmin = min(finite) if finite else 0.0
    cell, margin = 28, 60
    width = margin + cell * len(alphas) + 20
    height = margin + cell * len(lams) + 20
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}">']
    for i, a in enumerate(alphas):
        for j, l in enumerate(lams):
            v = vals.get((a, l), float("nan"))
            t = 0.0 if vmax == vmin else (v - vmin) / (vmax - vmin)
            color = _viridis(t) if math.isfinite(v) else "rgb(200,200,200)"
            x, y = margin + i * cell, margin + j * cell
            parts.append(f'<rect x="{x}" y="{y}" width="{cell}" '
                         f'height="{cell}" fill="{color}">'
                         f'<title>alpha={a:g} lambda={l:g} sup={v:g}</title>'
                         f'</rect>')
    for i, a in enumerate(alphas):
        parts.append(f'<text x="{margin + i * cell + 4}" y="{margin - 8}" '
                     f'font-size="9">{a:g}</text>')
    for j, l in enumerate(lams):
        parts.append(f'<text x="4" y="{margin + j * cell + 16}" '
                     f'font-size="9">{l:g}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def _family_scales(text: str) -> int:
    """The count N of a ``--family`` value ``scales=N`` (5 when empty); any
    other entry raises a ConfigError naming --family."""
    scales = 5
    for part in filter(None, (p.strip() for p in text.split(","))):
        key, _, val = part.partition("=")
        if key.strip() != "scales" or not val.strip().isdecimal() or int(val) < 1:
            raise ConfigError(f"--family expects scales=N with N >= 1, got {part!r}")
        scales = int(val)
    return scales


def _cmd_sweep(args) -> int:
    raw = load_config(args.config) if args.config else {}
    for key in ("herz.alpha", "herz.lambda", "herz.homogeneous",
                "herz.kmin", "herz.kmax"):
        if key in raw:
            raise ConfigError(f"config key {key!r} is not read by sweep, which "
                              "sweeps --alpha and --lambda on the homogeneous "
                              "norm over its default window")
    d = _dilation_from(raw, args.matrix)
    spec = _grid_spec(raw, d.dim, args.resolution, 512)
    scales = _family_scales(args.family)
    alphas = _parse_range("--alpha", args.alpha)
    lams = _parse_range("--lambda", getattr(args, "lambda"))
    params = _herz_params(raw)

    r = spec.radii()
    seeds = [
        GridFunction(spec, (r < 0.5).astype(float)),
        GridFunction(spec, np.exp(-8.0 * r**2)),
        GridFunction(spec, ((r >= 0.5) & (r < 1.0)).astype(float)),
    ]
    family = ops.scale_translate_family(seeds, d, scales * len(seeds), seed=args.seed)

    t_spec = ops.OperatorSpec(kind=args.operator, cutoff=args.cutoff)
    rows = ops.boundedness_sweep(t_spec, d, alphas, lams, family, p=params.p, q=params.q,
                                 theta=params.theta, delta2=params.delta2)

    out = Path(args.out or "sweep.csv")
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha", "lambda", "family_size", "sup_ratio",
                         "admissible"])
        for row in rows:
            writer.writerow([row["alpha"], row["lambda"],
                             row["family_size"], repr(float(row["sup_ratio"])),
                             int(row["admissible"])])
    if args.svg:
        _write_svg_heatmap(rows, out.with_suffix(".svg"))
    return 0


def _cmd_verify(args) -> int:
    from .reports import VerificationReport, all_passed, write_csv_summary, write_json
    from .suites import run_suite

    cfg = SuiteConfig.from_file(args.config) if args.config else SuiteConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out:
        cfg.out_dir = args.out
    reports = run_suite(args.suite, cfg)
    outdir = Path(cfg.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    emitted = reports if args.timings else [
        VerificationReport(**{**r.__dict__, "runtime_s": 0.0})
        for r in reports
    ]
    write_json(emitted, outdir / f"{args.suite}.json")
    write_csv_summary(emitted, outdir / f"{args.suite}.csv")
    n_fail = sum(0 if r.ok() else 1 for r in reports)
    for r in reports:
        status = "pass" if r.ok() else ("FAIL" if r.asserted else "info")
        sys.stdout.write(f"[{status}] {r.check}\n")
    sys.stdout.write(f"{len(reports) - n_fail}/{len(reports)} checks ok\n")
    return 0 if all_passed(reports) else 1


def _cmd_oracle(args) -> int:
    from .oracles import oracle_run

    cfg = load_config(args.config) if args.config else {}
    # every oracle value is a number but the entries, a list of numbers
    sub = {k.split(".", 1)[1]: config_value(
               cfg, k, float_list if k == "oracle.entries" else float)
           for k in cfg if k.startswith("oracle.")}
    rep = oracle_run(args.target, sub)
    _emit(rep, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="herzlab",
        description="Anisotropic grand Herz-type norms of discretized "
                    "functions: norms, decompositions, operator sweeps, "
                    "verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="compute a Herz-type norm of a grid CSV")
    p.add_argument("--space", choices=["herz", "herz-morrey", "nonhomog"],
                   default="herz")
    p.add_argument("--config", default=None)
    p.add_argument("--matrix", default=None,
                   help="dilation rows, e.g. '2 1; 0 2' (overrides config)")
    p.add_argument("--input", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_norm)

    p = sub.add_parser("decompose", help="central-block decomposition")
    p.add_argument("--config", default=None)
    p.add_argument("--matrix", default=None)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("atoms", help="make/validate/sumcheck central atoms")
    p.add_argument("action", choices=["make", "validate", "sumcheck"])
    p.add_argument("--matrix", default=None)
    p.add_argument("--kind", default="bump_corrected",
                   choices=["haar", "bump_corrected"])
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--s", type=int, default=0)
    p.add_argument("--config", default=None)
    p.add_argument("--input", default=None)
    p.add_argument("--manifest", default=None)
    p.add_argument("--resolution", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_atoms)

    p = sub.add_parser("sweep", help="operator boundedness sweep")
    p.add_argument("--operator", default="hardy",
                   choices=["hardy", "truncated_riesz", "maximal", "identity"])
    p.add_argument("--alpha", default="0.05:0.45:0.05")
    p.add_argument("--lambda", default="0")
    p.add_argument("--family", default="scales=5")
    p.add_argument("--cutoff", type=float, default=0.25)
    p.add_argument("--config", default=None)
    p.add_argument("--matrix", default=None)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--resolution", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--svg", action="store_true")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--timings", action="store_true",
                   help="include wall times in report files "
                        "(breaks byte-determinism)")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("oracle", help="emit independent reference values")
    p.add_argument("--target", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except IoError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except HerzlabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
