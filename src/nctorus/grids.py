"""Uniformly sampled complex functions on an interval / rectangle.

These stand in for rapidly decaying smooth functions: every integral
operator in the package assumes the values are negligible at the box
edge, and callers get a warning (never silent corruption) when that
fails.  Sample points are u_j = -L + j*(2L/n) with n a power of two, so
FFT-based spectral calculus applies directly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .lattice import (FormatError, MismatchError, is_finite_number, is_number,
                      pairs_to_list, values_from_list)

__all__ = [
    "GridFunction1D",
    "GridFunction2D",
    "require_same_grid",
    "gaussian_1d",
    "gaussian_2d",
    "check_decay",
    "fourier_2d",
    "inverse_fourier_2d",
    "grid1d_to_obj",
    "grid1d_from_obj",
    "grid2d_to_obj",
    "grid2d_from_obj",
]


_DECAY_EDGE = 1e-10  # relative edge magnitude above which check_decay warns


def _freeze_values(grid, extents_positive: bool, extents: str,
                   counts: dict[str, int]) -> None:
    """Check a grid's extents and sample counts, then store its values as a
    read-only complex copy, shaped as the counts in order."""
    if not extents_positive:
        raise ValueError(f"{extents} must be positive")
    for name, n in counts.items():
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(f"{name} must be a power of two >= 8, got {n}")
    shape = tuple(counts.values())
    v = np.asarray(grid.values, dtype=np.complex128)
    if v.shape != shape:
        raise ValueError(f"values shape {v.shape} != {shape}")
    if not (np.all(np.isfinite(v.real)) and np.all(np.isfinite(v.imag))):
        raise ValueError("values must be finite")
    v = v.copy()
    v.flags.writeable = False
    object.__setattr__(grid, "values", v)


@dataclass(frozen=True)
class GridFunction1D:
    half_extent: float
    n: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        _freeze_values(self, self.half_extent > 0, "half_extent", {"n": self.n})

    @property
    def dx(self) -> float:
        return 2.0 * self.half_extent / self.n

    def axis(self) -> np.ndarray:
        return -self.half_extent + self.dx * np.arange(self.n)

    def freqs(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)

    def with_values(self, values: np.ndarray) -> "GridFunction1D":
        return GridFunction1D(self.half_extent, self.n, values)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.dx))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    def same_grid(self, other: "GridFunction1D") -> bool:
        return self.n == other.n and self.half_extent == other.half_extent


@dataclass(frozen=True)
class GridFunction2D:
    """Axis 0 is t, axis 1 is s; values row-major over (t, s)."""

    half_extent_t: float
    half_extent_s: float
    n_t: int
    n_s: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        _freeze_values(self, self.half_extent_t > 0 and self.half_extent_s > 0,
                       "half extents", {"n_t": self.n_t, "n_s": self.n_s})

    @property
    def dt(self) -> float:
        return 2.0 * self.half_extent_t / self.n_t

    @property
    def ds(self) -> float:
        return 2.0 * self.half_extent_s / self.n_s

    def t_axis(self) -> np.ndarray:
        return -self.half_extent_t + self.dt * np.arange(self.n_t)

    def s_axis(self) -> np.ndarray:
        return -self.half_extent_s + self.ds * np.arange(self.n_s)

    def t_freqs(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n_t, d=self.dt)

    def s_freqs(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n_s, d=self.ds)

    def with_values(self, values: np.ndarray) -> "GridFunction2D":
        return GridFunction2D(self.half_extent_t, self.half_extent_s,
                              self.n_t, self.n_s, values)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.dt * self.ds))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    def same_grid(self, other: "GridFunction2D") -> bool:
        return (self.n_t == other.n_t and self.n_s == other.n_s
                and self.half_extent_t == other.half_extent_t
                and self.half_extent_s == other.half_extent_s)


def require_same_grid(a: GridFunction2D, b: GridFunction2D) -> None:
    if not a.same_grid(b):
        raise MismatchError(
            f"grid mismatch: ({a.n_t}x{a.n_s}, L=({a.half_extent_t},{a.half_extent_s})) "
            f"vs ({b.n_t}x{b.n_s}, L=({b.half_extent_t},{b.half_extent_s}))")


def gaussian_1d(half_extent: float, n: int, center: float = 0.0,
                width: float = 1.0, momentum: float = 0.0) -> GridFunction1D:
    g = GridFunction1D(half_extent, n, np.zeros(n))
    x = g.axis()
    vals = np.exp(-((x - center) ** 2) / (2.0 * width ** 2) + 1j * momentum * x)
    return g.with_values(vals)


def gaussian_2d(half_extent_t: float, half_extent_s: float, n_t: int, n_s: int,
                center: tuple[float, float] = (0.0, 0.0),
                width: tuple[float, float] = (1.0, 1.0),
                momentum: tuple[float, float] = (0.0, 0.0),
                amplitude: complex = 1.0) -> GridFunction2D:
    g = GridFunction2D(half_extent_t, half_extent_s, n_t, n_s,
                       np.zeros((n_t, n_s)))
    t = g.t_axis()[:, None]
    s = g.s_axis()[None, :]
    vals = amplitude * np.exp(
        -((t - center[0]) ** 2) / (2.0 * width[0] ** 2)
        - ((s - center[1]) ** 2) / (2.0 * width[1] ** 2)
        + 1j * (momentum[0] * t + momentum[1] * s))
    return g.with_values(vals)


def check_decay(f: GridFunction1D | GridFunction2D) -> float:
    """Largest edge sample of any axis relative to the peak; warns when the
    box visibly clips f."""
    v = np.abs(f.values)
    peak = float(v.max())
    if peak == 0.0:
        return 0.0
    edge = max(np.take(v, [0, -1], axis).max() for axis in range(v.ndim)) / peak
    if edge > _DECAY_EDGE:
        warnings.warn(f"boundary decay {edge:.3e} exceeds {_DECAY_EDGE:.1e}; "
                      "the box clips this function", RuntimeWarning, stacklevel=2)
    return float(edge)


# -- continuous Fourier transform on the grid ---------------------------
# Convention: Ff(y) = integral e^{-i<x,y>} f(x) dx, inverse carries 1/(2pi)^n.
# With x_j = -L + j dx and y_m = (m - n/2) pi/L the Riemann sum becomes a
# plain FFT after modulation by (-1)^j; the pair below inverts exactly.

def _axis_setup(values: np.ndarray, axis: int,
                half_extent: float) -> tuple[float, np.ndarray, np.ndarray]:
    """dx, then (-1)^j and xi_m shaped to broadcast along axis of values."""
    n = values.shape[axis]
    dx = 2.0 * half_extent / n
    xi = (np.arange(n) - n // 2) * (np.pi / half_extent)
    sign = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    shape = [1] * values.ndim
    shape[axis] = n
    return dx, sign.reshape(shape), xi.reshape(shape)


def _fourier_axis(values: np.ndarray, axis: int, half_extent: float) -> np.ndarray:
    dx, sign, xi = _axis_setup(values, axis, half_extent)
    spec = np.fft.fft(values * sign, axis=axis)
    return spec * (dx * np.exp(1j * xi * half_extent))


def _inv_fourier_axis(values: np.ndarray, axis: int, half_extent: float) -> np.ndarray:
    dx, sign, xi = _axis_setup(values, axis, half_extent)
    back = np.fft.ifft(values * np.exp(-1j * xi * half_extent), axis=axis)
    return back * sign / dx


def _finite(vals: np.ndarray, stage: str) -> np.ndarray:
    """vals, a C-contiguous complex array; a FormatError naming stage if
    any of them is not finite."""
    parts = vals.reshape(-1).view(np.float64)
    if not (math.isfinite(parts.max()) and math.isfinite(parts.min())):
        raise FormatError(f"the {stage} is not finite at its final scaling: "
                          "the operand is too large")
    return vals


def fourier_2d(f: GridFunction2D) -> GridFunction2D:
    """F f on the dual grid; half extents become pi*n/(2L) per axis.  A
    transform that is not finite is a FormatError."""
    vals = _fourier_axis(f.values, 0, f.half_extent_t)
    vals = _finite(_fourier_axis(vals, 1, f.half_extent_s), "Fourier transform")
    lt = math.pi * f.n_t / (2.0 * f.half_extent_t)
    ls = math.pi * f.n_s / (2.0 * f.half_extent_s)
    return GridFunction2D(lt, ls, f.n_t, f.n_s, vals)


def inverse_fourier_2d(g: GridFunction2D) -> GridFunction2D:
    """Exact inverse of fourier_2d, including the 1/(2pi)^2 normalization.
    A transform that is not finite is a FormatError."""
    lt = math.pi * g.n_t / (2.0 * g.half_extent_t)
    ls = math.pi * g.n_s / (2.0 * g.half_extent_s)
    vals = _inv_fourier_axis(g.values, 1, ls)
    vals = _finite(_inv_fourier_axis(vals, 0, lt), "inverse Fourier transform")
    return GridFunction2D(lt, ls, g.n_t, g.n_s, vals)


# -- serialization -------------------------------------------------------

def grid1d_to_obj(f: GridFunction1D, pairs=pairs_to_list) -> dict:
    """The document of f; pairs encodes the value vector."""
    return {"half_extent": f.half_extent, "n": f.n, "values": pairs(f.values)}


def _grid_from_obj(obj, fields: tuple[str, ...], grid_type):
    """The grid_type in obj, whose fields besides "values" are sample counts
    (named n...) and half extents (named half_extent...), checked in the
    order given; grid_type takes the extents, the counts and the values."""
    if not isinstance(obj, dict):
        raise FormatError("grid document must be an object")
    for key in fields + ("values",):
        if key not in obj:
            raise FormatError(f'missing field "{key}"')
    counts = [key for key in fields if key.startswith("n")]
    extents = [key for key in fields if key.startswith("half_extent")]
    for key in counts:
        if not is_number(obj[key], int):
            raise FormatError(f'"{key}" must be an integer')
    for key in extents:
        if not is_finite_number(obj[key]):
            raise FormatError(f'"{key}" must be a finite number')
    shape = [obj[key] for key in counts]
    vals = values_from_list(obj["values"], math.prod(shape), "values")
    try:
        return grid_type(*(float(obj[key]) for key in extents), *shape, vals.reshape(shape))
    except ValueError as e:
        raise FormatError(str(e)) from e


def grid1d_from_obj(obj) -> GridFunction1D:
    return _grid_from_obj(obj, ("half_extent", "n"), GridFunction1D)


def grid2d_to_obj(f: GridFunction2D, pairs=pairs_to_list) -> dict:
    """The document of f; pairs encodes the row-major value vector."""
    return {
        "n_t": f.n_t,
        "n_s": f.n_s,
        "half_extent_t": f.half_extent_t,
        "half_extent_s": f.half_extent_s,
        "values": pairs(f.values.reshape(-1)),
    }


def grid2d_from_obj(obj) -> GridFunction2D:
    return _grid_from_obj(obj, ("n_t", "n_s", "half_extent_t", "half_extent_s"),
                          GridFunction2D)
