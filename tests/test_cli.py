import ast
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from herzlab import ExponentFunction, make_dilation
from herzlab.cli import main
from herzlab.config import SuiteConfig, load_config, parse_config, parse_exponent
from herzlab.errors import ConfigError
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


def test_suite_config_tolerance_floor():
    # a sub-floor tolerance is rejected when the config is built, before
    # any check runs
    with pytest.raises(ConfigError):
        SuiteConfig(tolerances={"x": 1e-20})
    with pytest.raises(ConfigError):
        SuiteConfig.from_dict({"tolerance.x": 1e-20})
    assert SuiteConfig().tol("x", 1e-6) == 1e-6
    assert SuiteConfig.from_dict({"tolerance.x": 1e-3}).tol("x", 1e-6) == 1e-3


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
    want = ops.boundedness_sweep(hardy, d, [0.1, 0.2], [0.0], families[0], p=3.0,
                                 q=ExponentFunction.log_family(2.0, 3.0), theta=0.5)
    assert got == [repr(row["sup_ratio"]) for row in want]
    default = ops.boundedness_sweep(hardy, d, [0.1, 0.2], [0.0], families[0])
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
