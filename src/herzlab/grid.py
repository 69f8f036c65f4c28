"""Sampled functions on uniform box grids.

A :class:`GridFunction` is the universal discretization carrier: real
samples at the cell centers of a uniform grid on ``[-R, R]^n`` with
midpoint-rule quadrature weights.  Grid functions are immutable values;
combining functions from different grids raises :class:`GridMismatch`
instead of resampling silently.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import BadDim, BadGrid, ConfigError, GridMismatch, IoError


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
            raise BadGrid(f"resolution must be at least 2, got {self.resolution}")
        if not (0 < self.radius < math.inf):
            raise BadGrid(f"radius must be positive and finite, got {self.radius!r}")
        # a subnormal width rounds the cell centres together
        try:
            fits = self.cell_width >= sys.float_info.min and self.cell_volume < math.inf
        except OverflowError:
            fits = False
        if not fits:
            raise BadGrid(f"radius {self.radius!r} gives {self.resolution} cells a "
                          f"side of width {self.cell_width!r}, whose width or volume "
                          f"leaves the normal float range")

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
        """Cell centers along one axis, exactly antisymmetric about 0, so
        the centre cell of an odd grid is the origin itself."""
        n = self.resolution
        return self.cell_width * (np.arange(n) - (n - 1) / 2)

    def points(self) -> np.ndarray:
        """Cell centers as an array of shape (*shape, dim)."""
        c = self.axis_centers()
        if self.dim == 1:
            return c[:, None]
        x, y = np.meshgrid(c, c, indexing="ij")
        return np.stack([x, y], axis=-1)

    def cell_points(self, cells: np.ndarray) -> np.ndarray:
        """Centers of the cells with flat (raster) indices ``cells``, shape
        (cells.size, dim); the same values as ``points()`` there."""
        c = self.axis_centers()
        return np.stack([c[i] for i in np.unravel_index(cells, self.shape)], axis=-1)

    def radii(self) -> np.ndarray:
        """Euclidean |x| at each cell center, a fresh array on each call."""
        c = self.axis_centers()
        c2 = c * c
        r = c2 if self.dim == 1 else np.add.outer(c2, c2)
        return np.sqrt(r, out=r)


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
            raise BadGrid("grid function values must be finite")
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
        """max |f|, without an |f| temporary (exact: the values are finite);
        +0.0 for the zero function."""
        v = self.values
        return float(max(np.max(v), -np.min(v))) + 0.0

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
    vals = f.values if f.spec.dim == 2 else f.values[None, :]
    # +0.0 is the only float64 whose bits are all zero, and its repr is
    # "0.0"; -0.0 and every other value are written by repr
    nonzero = vals.view(np.uint64) != 0
    with open(path, "w") as fh:
        fh.write(f"{float(f.spec.radius)!r},{f.spec.dim},{f.spec.resolution}\n")
        # row by row: no list of every value at once
        for row, keep in zip(vals, nonzero):
            if keep.all():
                text = ",".join(map(repr, row.tolist()))
            else:
                cells = ["0.0"] * row.size
                at = np.flatnonzero(keep)
                for i, cell in zip(at.tolist(), map(repr, row[at].tolist())):
                    cells[i] = cell
                text = ",".join(cells)
            fh.write(text + "\n")


def load_csv(path) -> GridFunction:
    """The grid function written by :func:`save_csv`; a file that holds no
    such function raises an IoError naming it.  The rows stream from the
    file to ``np.loadtxt``, so no copy of the body text is made."""
    try:
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            if len(header) != 3:
                raise IoError(f"bad grid CSV header in {path}")
            spec = GridSpec(radius=float(header[0]), dim=int(header[1]),
                            resolution=int(header[2]))
            # lines up to the first that is not blank; a body of blank
            # lines alone would make np.loadtxt warn
            head = []
            for line in fh:
                head.append(line)
                if not line.isspace():
                    break
            else:
                raise IoError(f"grid CSV {path} holds no values")
            vals = np.loadtxt(itertools.chain(head, fh), delimiter=",", ndmin=2)
        return GridFunction(spec, vals.reshape(-1) if spec.dim == 1 else vals)
    except (OSError, ValueError, BadDim, GridMismatch) as exc:
        raise IoError(f"bad grid CSV {path}: {exc}") from None


def bump_profile(t2: np.ndarray) -> np.ndarray:
    """The profile exp(-1/(1 - t^2)) on t^2 < 1, zero outside."""
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(t2 < 1.0, np.exp(-1.0 / np.maximum(1e-300, 1.0 - t2)), 0.0)


# --- synthetic families ------------------------------------------------
#
# JSON descriptors make seeded test inputs reproducible:
#   {"family": "indicator", "lo": 0.0, "hi": 1.0}
#   {"family": "bump", "center": [0.0], "width": 0.5}  (one coordinate per axis)
#   {"family": "noise", "seed": 7, "amplitude": 1.0}

_FAMILY_KEYS = {"indicator": {"lo", "hi"}, "bump": {"center", "width"},
                "noise": {"seed", "amplitude"}}


def from_descriptor(spec: GridSpec, desc: dict) -> GridFunction:
    """The function a descriptor names on ``spec``, built from only the
    coordinates its family reads.  A descriptor that is not an object,
    names no known family, or holds a key its family does not read, a
    value that is not a finite number or a bump width that is not positive
    raises a ConfigError."""
    if not isinstance(desc, dict):
        raise ConfigError(f"function descriptor must be a JSON object, got {desc!r}")
    family = desc.get("family")
    if family not in _FAMILY_KEYS:
        raise ConfigError(f"unknown synthetic family {family!r}")
    unread = sorted(set(desc) - _FAMILY_KEYS[family] - {"family"})
    if unread:
        raise ConfigError(f"{family} descriptor does not read {', '.join(map(repr, unread))}")
    try:
        for key, value in desc.items():
            if key != "family" and not np.all(np.isfinite(np.asarray(value, dtype=float))):
                raise ValueError(f"{key} is not finite")
        if family == "indicator":
            lo, hi = float(desc.get("lo", 0.0)), float(desc.get("hi", 1.0))
            x = spec.axis_centers() if spec.dim == 1 else spec.radii()
            return indicator(spec, (x >= lo) & (x < hi))
        if family == "bump":
            center = np.asarray(desc.get("center", [0.0] * spec.dim), dtype=float)
            if center.size != spec.dim:
                raise ValueError(f"center needs {spec.dim} coordinates")
            width = float(desc.get("width", spec.radius / 2))
            if not width > 0:
                raise ValueError(f"width must be positive, got {width!r}")
            t2 = np.sum((spec.points() - center.reshape(-1)) ** 2, axis=-1) / width**2
            return GridFunction(spec, bump_profile(t2))
        rng = np.random.default_rng(int(desc.get("seed", 0)))
        amp = float(desc.get("amplitude", 1.0))
        return GridFunction(spec, amp * rng.uniform(-1.0, 1.0, size=spec.shape))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {family} descriptor {desc}: {exc}") from None
