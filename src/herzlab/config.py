"""Plain-text configuration: dotted key=value pairs.

Example::

    suite.seed = 7
    grid.radius = 4
    grid.resolution = 1024
    dilation.matrix = 2 0; 0 2
    herz.alpha = const:0.3
    herz.q = log:2,3
    herz.p = 1
    herz.theta = 1
    herz.lambda = 0

Values parse as int, float, bare string, or comma list; '#' starts a
comment.  Exponent values use "const:V" or "log:P0,PINF"; lists of
exponent families separate entries with ';' so the log-family commas
survive (suite.families = const:2; log:2,3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .varlebesgue import ExponentFunction


def _parse_scalar(text: str):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_config(text: str) -> dict:
    """Flat dict of dotted keys to parsed values."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, val = line.split("=", 1)
        key = key.strip()
        val = val.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if "," in val and ";" not in val and not val.startswith(("const:", "log:")):
            out[key] = [_parse_scalar(v) for v in val.split(",")]
        else:
            out[key] = _parse_scalar(val)
    return out


# Every key some subcommand reads (README, "Configuration").  One file
# serves every subcommand, so a key another subcommand reads is allowed;
# any other key would be parsed and then ignored, so it is rejected.
KNOWN_KEYS = frozenset({
    "suite.seed", "suite.out", "suite.families", "suite.alpha_grid",
    "suite.lambda_grid",
    "tolerance.ball_measure", "tolerance.luxemburg_oracle",
    "tolerance.holder", "tolerance.ball_product",
    "grid.radius", "grid.resolution", "dilation.matrix",
    "herz.alpha", "herz.p", "herz.q", "herz.theta", "herz.lambda",
    "herz.delta2", "herz.homogeneous", "herz.kmin", "herz.kmax",
    "oracle.p", "oracle.theta", "oracle.entries", "oracle.b",
    "oracle.alpha", "oracle.q",
})


def load_config(path) -> dict:
    """Parse a config file, rejecting keys that no subcommand reads."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {path} not found")
    raw = parse_config(p.read_text())
    for key in raw:
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    return raw


def parse_exponent(text) -> ExponentFunction:
    """"const:2" or "log:2,3" (value at origin first)."""
    if isinstance(text, (int, float)):
        return ExponentFunction.constant(float(text))
    text = str(text).strip()
    if text.startswith("const:"):
        return ExponentFunction.constant(float(text[6:]))
    if text.startswith("log:"):
        parts = text[4:].split(",")
        if len(parts) != 2:
            raise ConfigError(f"log family needs two values, got {text!r}")
        return ExponentFunction.log_family(float(parts[0]), float(parts[1]))
    try:
        return ExponentFunction.constant(float(text))
    except ValueError:
        raise ConfigError(f"cannot parse exponent {text!r}") from None


@dataclass
class SuiteConfig:
    """Run parameters for the verification suites (``suite.*`` and
    ``tolerance.*`` keys).

    Every emitted report records the seed; tolerances below their
    machine-epsilon floors are rejected at load time.
    """

    seed: int = 7
    out_dir: str = "reports"
    tolerances: dict = field(default_factory=dict)
    families: list = field(default_factory=lambda: [
        "const:2", "const:1.5", "const:4", "log:2,3", "log:3,2"])
    alpha_grid: list = field(default_factory=lambda: [0.1, 0.25, 0.4])
    lambda_grid: list = field(default_factory=lambda: [0.0])

    def exponent_families(self) -> list:
        return [parse_exponent(text) for text in self.families]

    def tol(self, name: str, default: float) -> float:
        value = float(self.tolerances.get(name, default))
        floor = 4.0 * np.finfo(float).eps
        if value < floor:
            raise ConfigError(f"tolerance {name} = {value:g} below float floor")
        return value

    @staticmethod
    def from_dict(raw: dict) -> "SuiteConfig":
        cfg = SuiteConfig()
        if "suite.seed" in raw:
            cfg.seed = int(raw["suite.seed"])
        if "suite.out" in raw:
            cfg.out_dir = str(raw["suite.out"])
        if "suite.families" in raw:
            # ';'-separated so log-family commas survive
            val = raw["suite.families"]
            items = val if isinstance(val, list) else str(val).split(";")
            cfg.families = [str(v).strip() for v in items if str(v).strip()]
        if "suite.alpha_grid" in raw:
            val = raw["suite.alpha_grid"]
            cfg.alpha_grid = [float(v) for v in val] \
                if isinstance(val, list) else [float(val)]
        if "suite.lambda_grid" in raw:
            val = raw["suite.lambda_grid"]
            cfg.lambda_grid = [float(v) for v in val] \
                if isinstance(val, list) else [float(val)]
        for key, val in raw.items():
            if key.startswith("tolerance."):
                cfg.tolerances[key.split(".", 1)[1]] = float(val)
        return cfg

    @staticmethod
    def from_file(path) -> "SuiteConfig":
        return SuiteConfig.from_dict(load_config(path))
