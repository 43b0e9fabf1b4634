"""Synthetic token-grid datasets and the SBPD on-disk format.

SBPD layout (little-endian): magic b"SBPD", u32 version, u32 count, then the
four sample dims as u32 (T, H, W, C), then count * T * H * W * C float32
features. Labels travel in a sibling text file, one integer per line.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

MAGIC = b"SBPD"
VERSION = 1
HEADER_BYTES = 28  # magic, version, count and the four dims


@dataclass
class Dataset:
    x: np.ndarray        # count x H x W x C, float64
    labels: np.ndarray   # count, int64

    def __post_init__(self):
        if self.x.shape[0] != self.labels.shape[0]:
            raise ConfigurationError("feature/label counts differ")

    @property
    def count(self) -> int:
        return int(self.x.shape[0])

    def batches(self, batch_size: int):
        for start in range(0, self.count, batch_size):
            sl = slice(start, start + batch_size)
            yield self.x[sl], self.labels[sl]


def blob_center(k: int, h: int, w: int) -> tuple[float, float]:
    """Class k's bump centre on an h x w grid, as (row, column)."""
    if k < 4:
        return h * (0.25 + 0.5 * (k % 2)), w * (0.25 + 0.5 * (k // 2))
    angle = math.pi * (math.sqrt(5.0) - 1.0) * (k - 4)  # k - 4 golden turns
    return h * (0.5 + 0.25 * math.cos(angle)), w * (0.5 + 0.25 * math.sin(angle))


def make_blobs(count: int, grid=(8, 8), channels: int = 3, n_classes: int = 2,
               noise: float = 0.5, seed: int = 0) -> Dataset:
    """Balanced classes, each a smooth spatial bump at its own centre plus noise.

    Classes 0-3 sit at the four corner quarter points; class k >= 4 sits on
    a circle of a quarter of the grid around its middle, at k - 4 golden
    turns, so no two classes share a centre.
    """
    h, w = grid
    for name, size in (("count", count), ("grid height", h), ("grid width", w),
                       ("channels", channels), ("n_classes", n_classes)):
        if size < 1:
            raise ConfigurationError(f"dataset {name} must be >= 1, got {size}")
    if not math.isfinite(noise):
        raise ConfigurationError(f"dataset noise must be finite, got {noise}")
    rng = np.random.Generator(np.random.PCG64(seed))
    centers = [blob_center(k, h, w) for k in range(n_classes)]
    rr, cc = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    labels = np.arange(count, dtype=np.int64) % n_classes
    x = np.empty((count, h, w, channels))
    sigma2 = (0.15 * (h + w)) ** 2
    for i in range(count):
        cy, cx = centers[labels[i]]
        bump = np.exp(-((rr - cy) ** 2 + (cc - cx) ** 2) / sigma2)
        x[i] = bump[:, :, None] + noise * rng.normal(size=(h, w, channels))
    perm = rng.permutation(count)
    return Dataset(np.ascontiguousarray(x[perm]), labels[perm])


def write_sbpd(path, dataset: Dataset):
    x32 = np.ascontiguousarray(dataset.x, dtype="<f4")
    count, h, w, c = dataset.x.shape
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<IIIIII", VERSION, count, 1, h, w, c))
        f.write(x32.tobytes())
    with open(str(path) + ".labels", "w") as f:
        for v in dataset.labels:
            f.write(f"{int(v)}\n")


def read_sbpd(path) -> Dataset:
    """Load an SBPD file and its labels; any malformed input, a non-finite
    feature included, raises ConfigurationError. The header's sizes are
    checked against the file's before any feature is read."""
    with open(path, "rb") as f:
        header = f.read(HEADER_BYTES)
        if header[:4] != MAGIC:
            raise ConfigurationError(f"bad magic {header[:4]!r}, expected {MAGIC!r}")
        if len(header) < HEADER_BYTES:
            raise ConfigurationError(f"dataset file shorter than its {HEADER_BYTES}-byte header")
        version, count, t, h, w, c = struct.unpack("<IIIIII", header[4:])
        if version != VERSION:
            raise ConfigurationError(f"unsupported dataset version {version}")
        if 0 in (count, t, h, w, c):
            raise ConfigurationError(f"dataset has a zero size: count {count}, dims {(t, h, w, c)}")
        n = count * t * h * w * c
        size = os.fstat(f.fileno()).st_size - HEADER_BYTES
        if size < 4 * n:
            raise ConfigurationError(
                f"dataset file truncated: header claims {4 * n} feature bytes, file holds {size}")
        if size > 4 * n:
            raise ConfigurationError("trailing bytes after features")
        raw = f.read(4 * n)
    with np.errstate(invalid="ignore"):  # a signalling NaN is rejected below
        x = np.frombuffer(raw, dtype="<f4").astype(np.float64)
    # A float64 sum of float32 values cannot overflow, so it is finite
    # exactly when every feature is.
    if not math.isfinite(x.sum()):
        raise ConfigurationError("dataset features must be finite (found nan or inf)")
    x = x.reshape(count, t * h, w, c) if t != 1 else x.reshape(count, h, w, c)
    with open(str(path) + ".labels") as f:
        try:
            labels = np.array([int(ln) for ln in f if ln.strip()], dtype=np.int64)
        except (ValueError, OverflowError) as e:
            raise ConfigurationError(f"labels must be int64 integers, one per line: {e}") from e
    if labels.shape[0] != count:
        raise ConfigurationError("label count does not match dataset header")
    return Dataset(np.ascontiguousarray(x), labels)
