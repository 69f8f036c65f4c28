import ast
import contextlib
import io
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from herzlab import ExponentFunction, HerzSpaceParams, make_dilation
from herzlab.cli import main
from herzlab.config import SuiteConfig, load_config, parse_config, parse_exponent
from herzlab.errors import BadGrid, BadParams, ConfigError
from herzlab.grid import GridFunction, GridSpec, load_csv, save_csv


@pytest.fixture
def workdir(tmp_path, dyadic):
    spec = GridSpec(radius=2.0, dim=1, resolution=256)
    x = spec.points()[..., 0]
    f = GridFunction(spec, (np.abs(x) < 0.5).astype(float))
    save_csv(f, tmp_path / "f.csv")
    (tmp_path / "cfg.txt").write_text(
        "dilation.matrix = 2\n"
        "herz.alpha = const:0.5\n"
        "herz.p = 1\n"
        "herz.q = const:2\n"
        "herz.theta = 1\n"
        "suite.seed = 7\n"
    )
    return tmp_path


def test_config_parsing():
    raw = parse_config("a.b = 3\nc = 1.5, 2.5\nname = hello  # comment\n")
    assert raw["a.b"] == 3
    assert raw["c"] == [1.5, 2.5]
    assert raw["name"] == "hello"
    with pytest.raises(ConfigError):
        parse_config("not a pair\n")


def test_parse_exponent():
    assert parse_exponent("const:2").value == 2.0
    fam = parse_exponent("log:2,3")
    assert fam.at_origin == 2.0 and fam.at_infinity == 3.0
    assert parse_exponent(2.5).value == 2.5
    with pytest.raises(ConfigError):
        parse_exponent("log:2")
    with pytest.raises(ConfigError):
        parse_exponent("spline:1,2,3")


def test_cli_norm(workdir, capsys):
    rc = main(["norm", "--space", "herz",
               "--config", str(workdir / "cfg.txt"),
               "--input", str(workdir / "f.csv")])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["norm"] > 0
    assert rep["argmax_L"] is None


def test_cli_norm_spaces_agree_for_zero_lambda(workdir, capsys):
    main(["norm", "--space", "herz", "--config", str(workdir / "cfg.txt"),
          "--input", str(workdir / "f.csv")])
    herz_rep = json.loads(capsys.readouterr().out)
    main(["norm", "--space", "herz-morrey", "--config",
          str(workdir / "cfg.txt"), "--input", str(workdir / "f.csv")])
    morrey_rep = json.loads(capsys.readouterr().out)
    assert morrey_rep["norm"] == pytest.approx(herz_rep["norm"], rel=1e-12)


def test_cli_decompose_round_trip(workdir):
    rc = main(["decompose", "--config", str(workdir / "cfg.txt"),
               "--input", str(workdir / "f.csv"),
               "--out", str(workdir / "dec")])
    assert rc == 0
    manifest = json.loads((workdir / "dec" / "manifest.json").read_text())
    total = None
    coeffs = manifest["coefficients"]
    for k_str, fname in manifest["blocks"].items():
        blk = load_csv(workdir / "dec" / fname)
        lam = coeffs["values"][int(k_str) - coeffs["offset"]]
        total = blk * lam if total is None else total + blk * lam
    f = load_csv(workdir / "f.csv")
    assert np.max(np.abs(total.values - f.values)) <= 1e-12


def test_cli_decompose_transient_memory(tmp_path):
    # a warm decompose holds at most about four grid-sized float arrays at
    # once (4.13 measured): the blocks are runs, written one at a time
    spec = GridSpec(radius=2.0, dim=2, resolution=256)
    rng = np.random.default_rng(22)
    save_csv(GridFunction(spec, rng.uniform(-1, 1, spec.shape) * (spec.radii() >= 0.1)),
             tmp_path / "f.csv")
    (tmp_path / "cfg.txt").write_text("dilation.matrix = 2 1; 0 2\nherz.q = log:2,3\n")
    args = ["decompose", "--config", str(tmp_path / "cfg.txt"),
            "--input", str(tmp_path / "f.csv"), "--out", str(tmp_path / "dec")]
    assert main(args) == 0
    tracemalloc.start()
    try:
        assert main(args) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 8 * spec.resolution ** 2


def test_cli_atoms_make_and_validate(workdir, capsys):
    rc = main(["atoms", "make", "--kind", "haar", "--k", "0", "--s", "0",
               "--config", str(workdir / "cfg.txt"),
               "--resolution", "512",
               "--out", str(workdir / "atom")])
    assert rc == 0
    meta = json.loads((workdir / "atom" / "atom.json").read_text())
    assert meta["validation"]["pass"]
    rc = main(["atoms", "validate", "--k", "0", "--s", "0",
               "--config", str(workdir / "cfg.txt"),
               "--input", str(workdir / "atom" / "atom.csv")])
    assert rc == 0


def test_cli_atoms_sumcheck(workdir, capsys):
    for i, k in enumerate((0, 1)):
        main(["atoms", "make", "--kind", "bump_corrected", "--k", str(k),
              "--s", "1", "--config", str(workdir / "cfg.txt"),
              "--resolution", "512", "--out", str(workdir / f"atom{i}")])
    capsys.readouterr()
    manifest = {
        "atoms": [
            {"path": str(workdir / "atom0" / "atom.csv"), "k": 0, "s": 1},
            {"path": str(workdir / "atom1" / "atom.csv"), "k": 1, "s": 1},
        ],
        "coefficients": [1.0, 0.5],
    }
    (workdir / "manifest.json").write_text(json.dumps(manifest))
    rc = main(["atoms", "sumcheck", "--manifest",
               str(workdir / "manifest.json"),
               "--config", str(workdir / "cfg.txt")])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["ratio"] > 0


def test_cli_sweep(workdir):
    rc = main(["sweep", "--operator", "identity", "--alpha", "0.1:0.2:0.1",
               "--lambda", "0", "--resolution", "128", "--family", "scales=2",
               "--out", str(workdir / "sweep.csv"), "--svg"])
    assert rc == 0
    lines = (workdir / "sweep.csv").read_text().strip().splitlines()
    assert lines[0].startswith("alpha,")
    assert len(lines) == 3
    assert all(line.split(",")[3] == "1.0" for line in lines[1:])
    assert (workdir / "sweep.svg").exists()


def test_cli_sweep_reads_norm_keys(workdir, monkeypatch):
    # herz.p, herz.q and herz.theta reach the sweep: its table is the one
    # boundedness_sweep gives for them on the same family
    import herzlab.operators as ops

    families = []
    make_family = ops.scale_translate_family

    def recorded_family(*args, **kwargs):
        families.append(make_family(*args, **kwargs))
        return families[-1]

    monkeypatch.setattr(ops, "scale_translate_family", recorded_family)
    (workdir / "sweep.txt").write_text("herz.q = log:2,3\nherz.p = 3\nherz.theta = 0.5\n")
    rc = main(["sweep", "--alpha", "0.1:0.2:0.1", "--lambda", "0", "--resolution", "64",
               "--family", "scales=1", "--config", str(workdir / "sweep.txt"),
               "--out", str(workdir / "sweep.csv")])
    assert rc == 0
    got = [line.split(",")[3] for line in
           (workdir / "sweep.csv").read_text().strip().splitlines()[1:]]
    hardy, d = ops.OperatorSpec(kind="hardy"), make_dilation([[2.0]])
    cells = [(0.1, 0.0), (0.2, 0.0)]
    want = ops.boundedness_sweep(hardy, d, cells, families[0], p=3.0,
                                 q=ExponentFunction.log_family(2.0, 3.0), theta=0.5)
    assert got == [repr(row["sup_ratio"]) for row in want]
    default = ops.boundedness_sweep(hardy, d, cells, families[0])
    assert got != [repr(row["sup_ratio"]) for row in default]


def test_cli_verify_deterministic(workdir):
    rc1 = main(["verify", "--suite", "grandseq", "--seed", "7",
                "--out", str(workdir / "r1")])
    rc2 = main(["verify", "--suite", "grandseq", "--seed", "7",
                "--out", str(workdir / "r2")])
    assert rc1 == 0 and rc2 == 0
    assert (workdir / "r1" / "grandseq.json").read_bytes() == \
        (workdir / "r2" / "grandseq.json").read_bytes()
    assert (workdir / "r1" / "grandseq.csv").read_bytes() == \
        (workdir / "r2" / "grandseq.csv").read_bytes()


def test_cli_verify_unknown_suite(workdir):
    assert main(["verify", "--suite", "nope",
                 "--out", str(workdir / "r")]) == 2


def test_cli_missing_input(workdir, capsys):
    assert main(["norm", "--input", str(workdir / "missing.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and str(workdir / "missing.csv") in err


@pytest.mark.parametrize("text, why", [
    ("2.0,1,4\n", "no values"),  # header only
    ("2.0,1,4\n1,2,abc,4\n", "abc"),
    ("2.0,2,2\n1,2\n3\n", "columns"),  # ragged rows
    ("2.0,1,4\n1,nan,2,3\n", "finite"),
    ("2.0,1.5,4\n1,2,3,4\n", "1.5"),  # non-integer header field
    ("2.0,1,4\n1,2,3\n", "(3,)"),  # short body
    ("2.0,1\n1,2\n", "header"),
    ("2.0,3,4\n1,2,3,4\n", "dim"),
])
def test_cli_rejects_malformed_csv(workdir, capsys, text, why):
    (workdir / "bad.csv").write_text(text)
    assert main(["norm", "--input", str(workdir / "bad.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:")
    assert str(workdir / "bad.csv") in err and why in err


@pytest.mark.parametrize("text, why", [
    ('{"family": "noise", "amplitude": 1e309}', "amplitude"),
    ('{"family": "noise", "seed": "x"}', "seed"),
    ("[1, 2]", "JSON object"),
    ('{"family": "noise", "sede": 3}', "sede"),
    ('{"family": "bump", "center": [0, 0, 0]}', "center"),
    ('{"family": "bump", "width": 0}', "width"),
    ('{"family": "bump", "width": -0.5}', "width"),
    ('{"family": "noise", "seed": 3', "Expecting"),
    ('{"family": "spline"}', "spline"),
])
def test_cli_rejects_malformed_descriptor(workdir, capsys, text, why):
    (workdir / "d.json").write_text(text)
    assert main(["norm", "--input", str(workdir / "d.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "Traceback" not in err
    assert str(workdir / "d.json") in err and why in err


@pytest.mark.parametrize("argv, files, why", [
    (["sweep", "--alpha", "abc"], {}, "--alpha"),
    (["sweep", "--lambda", "0:x:0.1"], {}, "--lambda"),
    (["sweep", "--alpha", "nan"], {}, "--alpha"),
    (["sweep", "--alpha", "inf"], {}, "--alpha"),
    (["sweep", "--lambda", "0:inf:0.1"], {}, "--lambda"),
    (["sweep", "--alpha", "0.4:0.1:0.1"], {}, "--alpha"),
    (["atoms", "validate"], {}, "--input"),
    (["atoms", "sumcheck"], {}, "--manifest"),
    (["atoms", "sumcheck", "--manifest", "{dir}/none.json"], {}, "none.json"),
    (["atoms", "sumcheck", "--manifest", "{dir}/m.json"],
     {"m.json": '{"coefficients": [1.0]}'}, "'atoms'"),
    (["atoms", "sumcheck", "--manifest", "{dir}/m.json"],
     {"m.json": '{"atoms": [], "coefficients": []}'}, "no atoms"),
    (["atoms", "sumcheck", "--manifest", "{dir}/m.json"],
     {"m.json": '{"atoms": [{"k": 0}], "coefficients": [1.0]}'}, "'path'"),
    (["atoms", "sumcheck", "--manifest", "{dir}/m.json"],
     {"m.json": '{"atoms": [{"path": "a.csv", "k": 0.5}], "coefficients": [1.0]}'}, "0.5"),
    (["atoms", "sumcheck", "--manifest", "{dir}/m.json"], {"m.json": "[1, 2]"}, "m.json"),
], ids=["alpha-abc", "lambda-x", "alpha-nan", "alpha-inf", "lambda-inf", "alpha-empty",
        "validate-no-input", "sumcheck-no-manifest", "manifest-missing",
        "manifest-no-atoms", "manifest-empty", "manifest-no-path", "manifest-fraction",
        "manifest-list"])
def test_cli_rejects_bad_flags_and_manifests(workdir, capsys, argv, files, why):
    for name, text in files.items():
        (workdir / name).write_text(text)
    assert main([arg.format(dir=workdir) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(("config error:", "input error:")) and "Traceback" not in err
    assert why in err


@pytest.mark.parametrize("argv, named", [
    (["norm", "--matrix", "2 1; 0 2", "--input", "{dir}/f.csv"], "f.csv"),
    (["decompose", "--matrix", "2 1; 0 2", "--input", "{dir}/f.csv", "--out", "{dir}/dec"],
     "f.csv"),
    (["atoms", "validate", "--matrix", "2 1; 0 2", "--input", "{dir}/f.csv"], "f.csv"),
    (["atoms", "sumcheck", "--matrix", "2 1; 0 2", "--manifest", "{dir}/m.json"], "f.csv"),
    (["norm", "--input", "{dir}/f2.csv"], "f2.csv"),
], ids=["norm", "decompose", "validate", "sumcheck", "plane-csv-on-line"])
def test_cli_rejects_grid_of_other_dimension(workdir, capsys, argv, named):
    save_csv(GridFunction(GridSpec(radius=2.0, dim=2, resolution=8), np.ones((8, 8))),
             workdir / "f2.csv")
    (workdir / "m.json").write_text(json.dumps(
        {"atoms": [{"path": str(workdir / "f.csv"), "k": 0, "s": 0}],
         "coefficients": [1.0]}))
    assert main([arg.format(dir=workdir) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "Traceback" not in err
    assert str(workdir / named) in err and "2D" in err and "1D" in err


def test_cli_atoms_read_descriptors_on_the_dilation_grid(workdir, capsys):
    # a descriptor is sampled on the config's grid in the matrix's dimension
    (workdir / "bump.json").write_text('{"family": "bump", "width": 0.3}')
    (workdir / "plane.txt").write_text("grid.resolution = 32\n")
    main(["atoms", "validate", "--matrix", "2 1; 0 2", "--input",
          str(workdir / "bump.json"), "--config", str(workdir / "plane.txt")])
    rep = json.loads(capsys.readouterr().out)
    assert list(rep["moments"]) == ["00"]


@pytest.mark.parametrize("action", ["validate", "sumcheck"])
def test_cli_atoms_sample_descriptors_at_the_resolution_flag(workdir, monkeypatch, action):
    # --resolution sets a descriptor's grid in every atoms action, as in make
    # (sumcheck validates each atom as it builds it)
    from herzlab import atoms
    seen = []
    validate = atoms.atom_validate

    def spy(f, *rest):
        seen.append(f.spec.resolution)
        return validate(f, *rest)

    monkeypatch.setattr(atoms, "atom_validate", spy)
    (workdir / "bump.json").write_text('{"family": "bump", "width": 0.3}')
    (workdir / "m.json").write_text(json.dumps(
        {"atoms": [{"path": str(workdir / "bump.json"), "k": 0, "s": 0}],
         "coefficients": [1.0]}))
    source = {"validate": ["--input", str(workdir / "bump.json")],
              "sumcheck": ["--manifest", str(workdir / "m.json")]}[action]
    main(["atoms", action, *source, "--resolution", "64", "--out", str(workdir / "r.json")])
    assert seen and set(seen) == {64}


def test_cli_norm_rejects_reversed_krange(workdir, capsys):
    with pytest.raises(BadParams):
        HerzSpaceParams(ExponentFunction.constant(0.5), 1.0, ExponentFunction.constant(2.0),
                        krange=(5, 2))
    (workdir / "bad.txt").write_text("herz.kmin = 5\nherz.kmax = 2\n")
    assert main(["norm", "--input", str(workdir / "f.csv"),
                 "--config", str(workdir / "bad.txt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: krange") and "Traceback" not in err


def test_cli_norm_rejects_non_finite_radius(workdir, capsys):
    # the grid refuses the radius before any scale loop can run on it
    for radius in (math.inf, math.nan):
        with pytest.raises(BadGrid):
            GridSpec(radius, 1, 32)
    (workdir / "f.json").write_text('{"family": "noise", "seed": 1}\n')
    (workdir / "bad.txt").write_text("grid.radius = inf\n")
    assert main(["norm", "--input", str(workdir / "f.json"),
                 "--config", str(workdir / "bad.txt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "grid.radius" in err


@pytest.mark.parametrize("config", [
    "grid.radius = 1e300\n",             # the form of B_k underflows to 0
    "dilation.matrix = 1e300 0; 0 2\n",  # likewise, from the matrix
    "grid.radius = 1e-300\n",            # the form of B_k overflows
    # user windows, checked before any array of their length exists
    "herz.kmin = -1000000000000\nherz.kmax = -3\n",
    "herz.kmin = -600\nherz.kmax = -3\n",
    "herz.kmin = 0\nherz.kmax = 1000000000000\n",
], ids=["radius-1e300", "matrix-1e300", "radius-1e-300", "window-1e12", "window-600",
        "window-up-1e12"])
def test_cli_norm_rejects_unresolvable_ball_scales(workdir, capsys, config):
    # default_krange or a window end reaches a ball whose diameter the
    # float range cannot give: a typed error, with no traceback and no
    # numpy warning
    (workdir / "f.json").write_text('{"family": "noise", "seed": 1}\n')
    (workdir / "bad.txt").write_text(config + "grid.resolution = 32\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["norm", "--input", str(workdir / "f.json"),
                   "--config", str(workdir / "bad.txt")])
    assert rc == 1 and not caught
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("error:") and "Traceback" not in err


def _strict_json(text: str):
    """json.loads that rejects Infinity, -Infinity and NaN (not RFC 8259)."""
    def reject(name):
        raise ValueError(f"non-finite number {name} in JSON")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("config, field", [
    # every slice of the window is empty: the eps -> infinity limit wins
    ("grid.radius = 1e-8\ngrid.resolution = 256\nherz.kmin = -100\nherz.kmax = -37\n",
     "argmax_eps"),
    # alpha + 1/q^+ < 0 < alpha(0) + 1/q^-: the tail has no finite bound
    ("herz.alpha = const:-0.4\nherz.q = log:2,3\n", "tail_bound"),
], ids=["limit-wins", "no-tail-bound"])
def test_cli_norm_writes_non_finite_values_as_null(workdir, capsys, config, field):
    (workdir / "bump.json").write_text('{"family": "bump", "center": [0.0], "width": 0.5}\n')
    (workdir / "c.txt").write_text("dilation.matrix = 2\n" + config)
    assert main(["norm", "--input", str(workdir / "bump.json"),
                 "--config", str(workdir / "c.txt")]) == 0
    rep = _strict_json(capsys.readouterr().out)
    assert rep[field] is None and math.isfinite(rep["norm"])


@pytest.fixture(scope="module")
def noise_dir(tmp_path_factory):
    """A directory holding a noise descriptor, shared by the examples."""
    path = tmp_path_factory.mktemp("noise")
    (path / "noise.json").write_text('{"family": "noise", "seed": 1}\n')
    return path


_ANY_FLOAT = st.floats()  # extreme finite floats, +-inf, nan, +-0 and negatives
_FLOAT_KEYS = ["grid.radius", "herz.p", "herz.theta", "herz.lambda", "herz.delta2"]


@st.composite
def _norm_configs(draw):
    """Config text for ``norm``: a dilation, a grid of at most 64 cells a
    side, any floats for the scalar keys and exponents, and a window
    whose ends, up to 1e13 apart, may be swapped."""
    x = repr(draw(_ANY_FLOAT))
    lines = [
        "dilation.matrix = " + draw(st.sampled_from(
            ["2", "-3", "2 1; 0 2", "3 0; 1 2", f"{x} 0; 0 2", f"2 {x}; 0 2"])),
        f"grid.resolution = {draw(st.integers(-2, 64))}",
    ]
    for key in draw(st.lists(st.sampled_from(_FLOAT_KEYS), unique=True, max_size=3)):
        lines.append(f"{key} = {draw(_ANY_FLOAT)!r}")
    for key in draw(st.lists(st.sampled_from(["herz.alpha", "herz.q"]), unique=True)):
        ends = draw(st.lists(_ANY_FLOAT, min_size=1, max_size=2))
        kind = "const" if len(ends) == 1 else "log"
        lines.append(f"{key} = {kind}:" + ",".join(map(repr, ends)))
    end = st.integers(-40, 40) | st.integers(-10**13, 10**13)
    window = draw(st.none() | st.tuples(end, end))
    if window is not None:
        lines += [f"herz.kmin = {window[0]}", f"herz.kmax = {window[1]}"]
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(config=_norm_configs(), space=st.sampled_from(["herz", "herz-morrey"]))
# a grand norm past the float range, a weight overflowing in b^{k alpha(x)},
# a tail bound past the float range, one whose b^{-rate} rounds to 1, a
# Morrey weight past the float range over empty slices, and a grid map
# whose far scales' A^{-k} underflow to 0
@example(config="herz.theta = 1.7976931348623157e308\n", space="herz")
@example(config="dilation.matrix = 2 1; 0 2\ngrid.resolution = 8\n"
         "herz.alpha = log:1.7976931348623157e308,1e-08\n", space="herz")
@example(config="dilation.matrix = 3 0; 1 2\ngrid.resolution = 2\ngrid.radius = 1e8\n"
         "herz.alpha = const:1e8\nherz.kmin = 31\nherz.kmax = 40\n", space="herz")
@example(config="grid.resolution = 8\nherz.alpha = const:0\nherz.q = const:1e100\n",
         space="herz")
@example(config="grid.resolution = 2\ngrid.radius = 0.5\nherz.lambda = 513\n"
         "herz.kmin = -2\nherz.kmax = 0\n", space="herz-morrey")
@example(config="dilation.matrix = 2 0; 0 2\ngrid.resolution = 9\ngrid.radius = 2e108\n",
         space="herz")
def test_cli_norm_ends_in_a_typed_error_on_any_config(noise_dir, config, space):
    # whatever the values, norm prints a strict JSON report or one typed
    # error line: no traceback, no hang and no numpy warning
    (noise_dir / "any.txt").write_text(config)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        rc = main(["norm", "--space", space, "--input", str(noise_dir / "noise.json"),
                   "--config", str(noise_dir / "any.txt")])
    assert rc in (0, 1, 2) and not caught, [str(w.message) for w in caught]
    err = err.getvalue()
    assert "Traceback" not in err
    if rc:
        assert err.splitlines()[-1].startswith(("error:", "config error:", "input error:"))
    else:
        assert isinstance(_strict_json(out.getvalue())["norm"], float)


def test_cli_atoms_make_rejects_negative_moment_order(workdir, capsys):
    rc = main(["atoms", "make", "--s", "-1", "--resolution", "64",
               "--out", str(workdir / "atom")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: moment order must be nonnegative\n"
    assert not (workdir / "atom").exists()


def test_cli_oracles(workdir, capsys):
    rc = main(["oracle", "--target", "luxemburg_algebraic"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["norm"] == pytest.approx(1.2720196495, abs=1e-9)
    rc = main(["oracle", "--target", "nothing"])
    assert rc == 1


@pytest.mark.parametrize("target, line", [
    ("grand_seq_dense", "oracle.b = 3"),
    ("luxemburg_algebraic", "oracle.p = 2"),
    ("constant_herz", "oracle.entries = 1, 2"),
])
def test_cli_oracle_rejects_unread_key(workdir, capsys, target, line):
    (workdir / "o.txt").write_text(line + "\n")
    rc = main(["oracle", "--target", target, "--config", str(workdir / "o.txt")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and line.split(" =")[0] in err


@pytest.mark.parametrize("target", ["grand_seq_dense", "constant_herz"])
@pytest.mark.parametrize("line", ["oracle.theta = nan", "oracle.theta = -1",
                                  "oracle.p = inf"])
def test_cli_oracle_rejects_exponents_its_scan_cannot_bound(workdir, capsys, target, line):
    (workdir / "o.txt").write_text(line + "\n")
    assert main(["oracle", "--target", target, "--config", str(workdir / "o.txt")]) == 1
    assert capsys.readouterr().err.startswith("error: the dense oracles need")


@pytest.mark.parametrize("args, line, named", [
    (["norm", "--matrix", "2 x"], "", "--matrix"),
    (["norm", "--matrix", "2 1; 0"], "", "--matrix"),
    (["norm"], "dilation.matrix = 2 x", "dilation.matrix"),
    (["oracle", "--target", "grand_seq_dense"], "oracle.p = abc", "oracle.p"),
    (["oracle", "--target", "grand_seq_dense"], "oracle.entries = 1, x",
     "oracle.entries"),
])
def test_cli_rejects_malformed_matrix_and_oracle_value(workdir, capsys, args, line,
                                                       named):
    (workdir / "bad.txt").write_text(line + "\n")
    if args[0] == "norm":
        args = [*args, "--input", str(workdir / "f.csv")]
    assert main([*args, "--config", str(workdir / "bad.txt")]) == 2
    assert named in capsys.readouterr().err


def test_cli_matrix_flag_and_descriptor_input(workdir, capsys):
    (workdir / "desc.json").write_text(
        '{"family": "indicator", "lo": 0.0, "hi": 0.5}')
    rc = main(["norm", "--matrix", "2", "--config", str(workdir / "cfg.txt"),
               "--input", str(workdir / "desc.json")])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["norm"] > 0


def test_run_suite_empty_name_rejected():
    from herzlab.suites import run_suite
    with pytest.raises(ConfigError):
        run_suite("", SuiteConfig())


def test_report_aggregation():
    from herzlab.reports import VerificationReport, all_passed
    ok = VerificationReport(check="a", reference="", inputs="", measured=1,
                            bound=2.0, passed=True)
    recorded = VerificationReport(check="b", reference="", inputs="",
                                  measured=1, bound=None, passed=None,
                                  asserted=False)
    bad = VerificationReport(check="c", reference="", inputs="", measured=3,
                             bound=2.0, passed=False)
    assert all_passed([ok, recorded])
    assert not all_passed([ok, bad])


def test_verify_reports_carry_seed(workdir):
    main(["verify", "--suite", "grandseq", "--seed", "123",
          "--out", str(workdir / "rs")])
    rows = json.loads((workdir / "rs" / "grandseq.json").read_text())
    assert all(r["seed"] == 123 for r in rows)


def test_cli_verify_timings_flag(workdir):
    rc = main(["verify", "--suite", "grandseq", "--seed", "7", "--timings",
               "--out", str(workdir / "rt")])
    assert rc == 0
    rows = json.loads((workdir / "rt" / "grandseq.json").read_text())
    assert any(r["runtime_s"] > 0 for r in rows)


def test_suite_config_family_and_grid_knobs(tmp_path):
    (tmp_path / "cfg.txt").write_text(
        "suite.seed = 3\n"
        "suite.families = const:2; log:2,3\n"
        "suite.alpha_grid = 0.1, 0.3\n"
        "suite.lambda_grid = 0.0, 0.05\n"
    )
    cfg = SuiteConfig.from_file(tmp_path / "cfg.txt")
    assert cfg.seed == 3
    fams = cfg.exponent_families()
    assert fams[0].value == 2.0
    assert fams[1].at_origin == 2.0 and fams[1].at_infinity == 3.0
    assert cfg.alpha_grid == [0.1, 0.3]
    assert cfg.lambda_grid == [0.0, 0.05]


@pytest.mark.parametrize("command, line", [
    # the checks write their own bounds: a tolerance key is unknown,
    # whatever its value
    ("verify", "tolerance.holder = abc"),
    ("verify", "tolerance.holder = 1e-20"),
    ("verify", "suite.seed = 1.5x"),
    ("verify", "suite.alpha_grid = 0.1, x"),
    ("verify", "suite.families = const:abc"),
    ("norm", "herz.p = abc"),
    ("norm", "herz.homogeneous = yes"),
    # integers and flags are rejected, not truncated
    ("verify", "suite.seed = 1.5"),
    ("norm", "herz.kmin = -2.7"),
    ("norm", "herz.homogeneous = 0.5"),
    ("norm", "herz.kmax = 3"),  # read only with herz.kmin
    # values no grid can have, in each command that builds a grid
    ("norm-json", "grid.resolution = 1"),
    ("norm-json", "grid.radius = 0"),
    ("atoms", "grid.resolution = 1"),
    ("sweep", "grid.radius = -1"),
    # the flag overrides a valid config value and is named itself
    ("sweep --resolution 1", "grid.resolution = 64"),
    # a --family entry other than scales=N, N a positive integer
    ("sweep --family scales=1.5", "grid.resolution = 64"),
    ("sweep --family sizes=2", "grid.resolution = 64"),
    # keys sweep does not read: alpha and lambda are swept, and it has no
    # window or non-homogeneous form
    ("sweep", "herz.alpha = const:0.9"),
    ("sweep", "herz.lambda = 0.1"),
    ("sweep", "herz.homogeneous = 0"),
    ("sweep", "herz.kmin = -3"),
    ("sweep", "herz.kmax = 2"),
])
def test_cli_rejects_malformed_config_value(workdir, capsys, command, line):
    (workdir / "bad.txt").write_text(line + "\n")
    (workdir / "f.json").write_text('{"family": "noise", "seed": 1}\n')
    args = {"norm": ["norm", "--input", str(workdir / "f.csv")],
            "norm-json": ["norm", "--input", str(workdir / "f.json")],
            "atoms": ["atoms", "make", "--out", str(workdir / "atom")],
            "sweep": ["sweep", "--out", str(workdir / "sweep.json")],
            "verify": ["verify", "--suite", "grandseq", "--out", str(workdir / "rv")]}
    command, *flag = command.split()
    assert main([*args[command], *flag, "--config", str(workdir / "bad.txt")]) == 2
    key = flag[0] if flag else line.split(" =")[0]
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key.split(".", 1)[-1] in err
    assert not (workdir / "rv").exists()


@pytest.mark.parametrize("key", ["herz.lamda", "tolerance.holdr", "suite.sed"])
@pytest.mark.parametrize("command", ["norm", "verify"])
def test_cli_rejects_unknown_config_key(workdir, capsys, command, key):
    (workdir / "bad.txt").write_text((workdir / "cfg.txt").read_text() + f"{key} = 3\n")
    args = {"norm": ["norm", "--input", str(workdir / "f.csv")],
            "verify": ["verify", "--suite", "geometry", "--out", str(workdir / "rv")]}
    assert main([*args[command], "--config", str(workdir / "bad.txt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err


def test_documented_and_bench_configs_load(tmp_path):
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    texts = [readme.split("### Configuration", 1)[1].split("```")[1]]
    # the cli-cold benchmark's config files, read without importing the bench
    tree = ast.parse((root / "bench" / "workloads.py").read_text())
    texts += [ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign)
              and getattr(node.targets[0], "id", None) in ("SHEAR_CFG", "DYADIC_CFG")]
    assert len(texts) == 3
    for i, text in enumerate(texts):
        (tmp_path / f"{i}.txt").write_text(text)
        assert load_config(tmp_path / f"{i}.txt") == parse_config(text)


def test_bench_workload_names_resolve():
    # every library name the benchmark's workloads read, found without
    # importing the bench, so that removing one fails here first
    import herzlab
    from herzlab import oracles

    root = Path(__file__).resolve().parents[1]
    tree = ast.parse((root / "bench" / "workloads.py").read_text())
    owners = {"hz": herzlab, "oracles": oracles, "Exp": ExponentFunction}
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in owners}
    assert {owner for owner, _ in used} == set(owners)
    missing = sorted(f"{owner}.{name}" for owner, name in used
                     if not hasattr(owners[owner], name))
    assert not missing


def test_import_leaves_scipy_unloaded():
    import os
    import subprocess
    import sys

    import herzlab

    src = os.path.dirname(os.path.dirname(herzlab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, herzlab, herzlab.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_norm_and_decompose_leave_verification_modules_unloaded(workdir):
    import os
    import subprocess
    import sys

    import herzlab

    src = os.path.dirname(os.path.dirname(herzlab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = """import sys
from herzlab.cli import main
w = sys.argv[1]
args = ["--config", w + "/cfg.txt", "--input", w + "/f.csv", "--out"]
assert main(["norm", *args, w + "/n.json"]) == 0
assert main(["decompose", *args, w + "/dec"]) == 0
print(sorted({"herzlab.suites", "herzlab.oracles", "herzlab.reports"} & set(sys.modules)))
"""
    out = subprocess.run([sys.executable, "-c", code, str(workdir)], capture_output=True,
                         text=True, env=env, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
    assert (workdir / "n.json").exists() and (workdir / "dec" / "manifest.json").exists()


def test_recorder_rows_get_their_own_interval(monkeypatch):
    from types import SimpleNamespace

    from herzlab import suites

    # check one starts at t = 10 and yields three rows, check two starts
    # at t = 20 and yields one
    clock = iter([10.0, 13.0, 14.0, 16.0, 20.0, 25.0])
    monkeypatch.setattr(suites, "time", SimpleNamespace(monotonic=lambda: next(clock)))

    def check(*names):
        def rows(d, spec, rng, cfg):
            for name in names:
                yield suites._row(name, "", {}, {}, None, True)
        return rows

    table = [(check("a", "b", "c"), "dyadic", None), (check("d"), "dyadic", None)]
    rows = suites._run_table(table, SuiteConfig(seed=3))
    # the three rows split their check's 6 s, counted once
    assert [r.runtime_s for r in rows] == [3.0, 1.0, 2.0, 5.0]
    assert [r.seed for r in rows] == [3, 3, 3, 3]
