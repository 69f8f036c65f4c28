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


def config_value(raw: dict, key: str, convert, default=None):
    """``convert`` of ``raw[key]``, or of ``default`` when the key is
    absent (None stays None); a malformed value raises a ConfigError
    naming the key."""
    value = raw.get(key, default)
    try:
        return None if value is None else convert(value)
    except (TypeError, ValueError):
        raise ConfigError(f"config key {key!r} has malformed value {value!r}") from None


def strict_int(value) -> int:
    """An integral value; a fraction is rejected, not truncated."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def strict_flag(value) -> bool:
    """A 0/1 flag; any other value is rejected."""
    if value not in (0, 1):
        raise ValueError(f"{value!r} is not 0 or 1")
    return bool(value)


def float_list(value) -> list[float]:
    return [float(v) for v in (value if isinstance(value, list) else [value])]


def _families(value) -> list[str]:
    # ';'-separated so log-family commas survive; every entry must parse
    items = value if isinstance(value, list) else str(value).split(";")
    names = [str(v).strip() for v in items if str(v).strip()]
    for name in names:
        parse_exponent(name)
    return names


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
    """Run parameters for the verification suites (``suite.*`` keys).

    Every emitted report records the seed.  Each check's bound is written
    in the check itself, so no config can loosen it.
    """

    seed: int = 7
    out_dir: str = "reports"
    families: list = field(default_factory=lambda: [
        "const:2", "const:1.5", "const:4", "log:2,3", "log:3,2"])
    alpha_grid: list = field(default_factory=lambda: [0.1, 0.25, 0.4])
    lambda_grid: list = field(default_factory=lambda: [0.0])

    def exponent_families(self) -> list:
        return [parse_exponent(text) for text in self.families]

    @staticmethod
    def from_dict(raw: dict) -> "SuiteConfig":
        fields = {}
        for key, name, convert in (("suite.seed", "seed", strict_int),
                                   ("suite.out", "out_dir", str),
                                   ("suite.families", "families", _families),
                                   ("suite.alpha_grid", "alpha_grid", float_list),
                                   ("suite.lambda_grid", "lambda_grid", float_list)):
            if key in raw:
                fields[name] = config_value(raw, key, convert)
        return SuiteConfig(**fields)

    @staticmethod
    def from_file(path) -> "SuiteConfig":
        return SuiteConfig.from_dict(load_config(path))
