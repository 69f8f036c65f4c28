import ast
import json
from pathlib import Path

import numpy as np
import pytest

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
    cfg = SuiteConfig(tolerances={"x": 1e-20})
    with pytest.raises(ConfigError):
        cfg.tol("x", 1e-6)
    assert SuiteConfig().tol("x", 1e-6) == 1e-6


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


def test_cli_missing_input(workdir):
    assert main(["norm", "--input", str(workdir / "missing.csv")]) == 2


def test_cli_oracles(workdir, capsys):
    rc = main(["oracle", "--target", "luxemburg_algebraic"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["norm"] == pytest.approx(1.2720196495, abs=1e-9)
    rc = main(["oracle", "--target", "nothing"])
    assert rc == 1


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


@pytest.mark.parametrize("key", ["herz.lamda", "tolerance.holdr", "suite.sed"])
@pytest.mark.parametrize("command", ["norm", "verify"])
def test_cli_rejects_unknown_config_key(workdir, capsys, command, key):
    (workdir / "bad.txt").write_text((workdir / "cfg.txt").read_text() + f"{key} = 3\n")
    args = {"norm": ["norm", "--input", str(workdir / "f.csv")],
            "verify": ["verify", "--suite", "geometry", "--out", str(workdir / "rv")]}
    assert main([*args[command], "--config", str(workdir / "bad.txt")]) == 2
    assert key in capsys.readouterr().err


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


def test_recorder_rows_get_their_own_interval(monkeypatch):
    from types import SimpleNamespace

    from herzlab import suites

    clock = iter([13.0, 14.0, 16.0, 25.0])
    monkeypatch.setattr(suites, "time", SimpleNamespace(monotonic=lambda: next(clock)))
    rec = suites._Recorder(seed=0)
    # three rows measured by one block that started at t = 10
    for name in ("a", "b", "c"):
        rec.add(name, "", {}, {}, None, True, 10.0)
    rec.add("d", "", {}, {}, None, True, 20.0)
    assert [r.runtime_s for r in rec.rows] == [3.0, 1.0, 2.0, 5.0]
