"""Sampled functions on uniform box grids.

A :class:`GridFunction` is the universal discretization carrier: real
samples at the cell centers of a uniform grid on ``[-R, R]^n`` with
midpoint-rule quadrature weights.  Grid functions are immutable values;
combining functions from different grids raises :class:`GridMismatch`
instead of resampling silently.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass

import numpy as np

from .errors import BadDim, ConfigError, GridMismatch


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on the box [-radius, radius]^dim, cell-center samples."""

    radius: float
    dim: int
    resolution: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise BadDim(f"dim must be 1 or 2, got {self.dim}")
        if self.resolution < 2:
            raise ValueError("resolution must be at least 2")
        if not (self.radius > 0):
            raise ValueError("radius must be positive")

    @property
    def cell_width(self) -> float:
        return 2.0 * self.radius / self.resolution

    @property
    def cell_volume(self) -> float:
        return self.cell_width ** self.dim

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.resolution,) * self.dim

    def axis_centers(self) -> np.ndarray:
        h = self.cell_width
        return -self.radius + h * (np.arange(self.resolution) + 0.5)

    def points(self) -> np.ndarray:
        """Cell centers as an array of shape (*shape, dim)."""
        c = self.axis_centers()
        if self.dim == 1:
            return c[:, None]
        x, y = np.meshgrid(c, c, indexing="ij")
        return np.stack([x, y], axis=-1)

    def radii(self) -> np.ndarray:
        """Euclidean |x| at each cell center."""
        c = self.axis_centers()
        c2 = c * c
        return np.sqrt(c2 if self.dim == 1 else np.add.outer(c2, c2))


class GridFunction:
    """Real-valued samples on a :class:`GridSpec` with quadrature weights."""

    __slots__ = ("spec", "values")

    def __init__(self, spec: GridSpec, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != spec.shape:
            raise GridMismatch(
                f"values shape {values.shape} does not match grid {spec.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("grid function values must be finite")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("GridFunction is immutable")

    # --- arithmetic (matching grids only) ---

    def _check(self, other: "GridFunction") -> None:
        if self.spec != other.spec:
            raise GridMismatch("grid functions live on different grids")

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._check(other)
        return GridFunction(self.spec, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check(other)
        return GridFunction(self.spec, self.values - other.values)

    def __mul__(self, other):
        if isinstance(other, GridFunction):
            self._check(other)
            return GridFunction(self.spec, self.values * other.values)
        return GridFunction(self.spec, self.values * float(other))

    __rmul__ = __mul__

    def __neg__(self) -> "GridFunction":
        return GridFunction(self.spec, -self.values)

    def abs(self) -> "GridFunction":
        return GridFunction(self.spec, np.abs(self.values))

    # --- quadrature ---

    def integral(self) -> float:
        return float(np.sum(self.values) * self.spec.cell_volume)

    def l1(self) -> float:
        return float(np.sum(np.abs(self.values)) * self.spec.cell_volume)

    def sup(self) -> float:
        return float(np.max(np.abs(self.values)))

    def is_zero(self) -> bool:
        return not np.any(self.values)

    def where(self, mask: np.ndarray) -> "GridFunction":
        """Restriction f * chi_mask."""
        return GridFunction(self.spec, np.where(mask, self.values, 0.0))


def zeros(spec: GridSpec) -> GridFunction:
    return GridFunction(spec, np.zeros(spec.shape))


def indicator(spec: GridSpec, mask: np.ndarray) -> GridFunction:
    return GridFunction(spec, np.where(mask, 1.0, 0.0))


# --- CSV serialization -------------------------------------------------
#
# Line 1 is a header "radius,dim,resolution"; the remaining lines hold the
# sample values, one grid row per line.

def save_csv(f: GridFunction, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{float(f.spec.radius)!r},{f.spec.dim},{f.spec.resolution}\n")
        vals = f.values if f.spec.dim == 2 else f.values[None, :]
        for row in vals:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def load_csv(path) -> GridFunction:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if len(header) != 3:
            raise ConfigError(f"bad grid CSV header in {path}")
        radius, dim, resolution = float(header[0]), int(header[1]), int(header[2])
        spec = GridSpec(radius=radius, dim=dim, resolution=resolution)
        body = fh.read()
    vals = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    if dim == 1:
        vals = vals.reshape(-1)
    return GridFunction(spec, vals)


def bump_profile(t2: np.ndarray) -> np.ndarray:
    """The profile exp(-1/(1 - t^2)) on t^2 < 1, zero outside."""
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(t2 < 1.0, np.exp(-1.0 / np.maximum(1e-300, 1.0 - t2)), 0.0)


# --- synthetic families ------------------------------------------------
#
# JSON descriptors make seeded test inputs reproducible:
#   {"family": "indicator", "lo": 0.0, "hi": 1.0}
#   {"family": "bump", "center": 0.0, "width": 0.5}
#   {"family": "noise", "seed": 7, "amplitude": 1.0}

def from_descriptor(spec: GridSpec, desc: dict) -> GridFunction:
    family = desc.get("family")
    pts = spec.points()
    r = spec.radii()
    if family == "indicator":
        lo, hi = float(desc.get("lo", 0.0)), float(desc.get("hi", 1.0))
        if spec.dim == 1:
            mask = (pts[..., 0] >= lo) & (pts[..., 0] < hi)
        else:
            mask = (r >= lo) & (r < hi)
        return indicator(spec, mask)
    if family == "bump":
        center = np.asarray(desc.get("center", [0.0] * spec.dim), dtype=float).reshape(-1)
        width = float(desc.get("width", spec.radius / 2))
        return GridFunction(spec, bump_profile(np.sum((pts - center) ** 2, axis=-1) / width**2))
    if family == "noise":
        rng = np.random.default_rng(int(desc.get("seed", 0)))
        amp = float(desc.get("amplitude", 1.0))
        return GridFunction(spec, amp * rng.uniform(-1.0, 1.0, size=spec.shape))
    raise ConfigError(f"unknown synthetic family {family!r}")


def descriptor_from_json(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad function descriptor: {exc}") from exc
