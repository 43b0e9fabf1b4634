"""Dense f64 tensors plus the row-gather primitive the masked linear backward uses.

Everything is a C-contiguous float64 ndarray. Operations return fresh arrays
and results are checked for NaN/Inf: a non-finite value is an error here, never
a silent state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericError

Array = np.ndarray


@dataclass(frozen=True)
class Shape:
    """An ordered list of positive dims for a spatial/token grid (e.g. (H, W) or (T,))."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.dims) == 0:
            raise DimensionError("Shape needs at least one dim")
        if any(int(d) < 1 for d in self.dims):
            raise DimensionError(f"all dims must be >= 1, got {self.dims}")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))

    @property
    def total(self) -> int:
        return int(np.prod(self.dims))

    def __iter__(self):
        return iter(self.dims)


def as_tensor(x) -> Array:
    """Coerce to a C-contiguous float64 array."""
    return np.ascontiguousarray(x, dtype=np.float64)


def _require_finite(name: str, a: Array) -> Array:
    if not np.all(np.isfinite(a)):
        raise NumericError(f"{name} produced non-finite values")
    return a


def matmul(a: Array, b: Array) -> Array:
    """Matrix product of a (m x k) and b (k x n).

    Summation over k is performed by a single deterministic BLAS call per
    process configuration, so repeated calls are bit-identical.
    """
    a = as_tensor(a)
    b = as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"inner dims disagree: {a.shape} x {b.shape}")
    return _require_finite("matmul", a @ b)


def gather_rows(x: Array, idx) -> Array:
    """Rows of x selected by idx, in idx order. Only the selected rows are read."""
    x = np.asarray(x)
    if x.ndim != 2:
        raise DimensionError(f"gather_rows expects a 2-D tensor, got {x.shape}")
    idx = np.asarray(idx, dtype=np.int64).reshape(-1)
    n = x.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"gather index out of range [0, {n})")
    out = np.ascontiguousarray(x[idx], dtype=np.float64)
    return _require_finite("gather_rows", out)
