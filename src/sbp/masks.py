"""Keep/drop index masks, keep-ratio schedules, and per-layer mask plans.

A mask partitions a spatial/token grid into a kept set (gradients computed)
and a dropped set (gradients treated as zero). Grid sampling keeps a regular
lattice with a random phase; random sampling keeps a uniform subset. Ratios
are stored as exact fractions so comparisons never involve float division.
A schedule is a tuple of per-layer ratios, and a plan a read-only map from
layer id to its mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from .config import SAMPLERS, SCHEDULES, SHARINGS
from .errors import ConfigurationError, DimensionError

# The published increasing schedule for 8 layers averaging 0.5. Its entries are
# not a consistent 2-dp rounding of the underlying linear ramp (the exact ramp
# gives 0.54 and 0.61 where this list has 0.53 and 0.60), so the canonical case
# is pinned verbatim and other configurations use the rounded ramp.
_CANONICAL_INCREASING_8 = (0.25, 0.32, 0.39, 0.46, 0.53, 0.60, 0.68, 0.75)


def _as_ratio(r) -> Fraction:
    if isinstance(r, Fraction):
        f = r
    elif isinstance(r, int):
        f = Fraction(r)
    else:
        f = Fraction(str(float(r)))
    if not (0 < f <= 1):
        raise ConfigurationError(f"keep_ratio must be in (0, 1], got {r}")
    return f


@dataclass(frozen=True)
class IndexMask:
    """Partition of a flat index grid into kept and dropped indices."""

    domain_shape: tuple[int, ...]
    keep: tuple[int, ...]
    drop: tuple[int, ...]
    keep_ratio: Fraction

    def __post_init__(self):
        total = int(np.prod(self.domain_shape))
        ks, ds = set(self.keep), set(self.drop)
        if ks & ds:
            raise ConfigurationError("keep and drop sets overlap")
        if ks | ds != set(range(total)):
            raise ConfigurationError("keep and drop do not cover the index grid")
        if self.keep_ratio != Fraction(len(self.keep), total):
            raise ConfigurationError("stored keep_ratio disagrees with |keep| / total")

    @classmethod
    def from_keep(cls, domain_shape, keep_indices) -> "IndexMask":
        shape = tuple(int(d) for d in domain_shape)
        total = int(np.prod(shape))
        keep = tuple(sorted(int(i) for i in keep_indices))
        drop = tuple(sorted(set(range(total)) - set(keep)))
        return cls(shape, keep, drop, Fraction(len(keep), total))

    @property
    def is_full_keep(self) -> bool:
        return len(self.drop) == 0

    def keep_array(self) -> np.ndarray:
        return np.asarray(self.keep, dtype=np.int64)

    def drop_array(self) -> np.ndarray:
        return np.asarray(self.drop, dtype=np.int64)


def full_keep_mask(domain_shape) -> IndexMask:
    shape = tuple(int(d) for d in domain_shape)
    return IndexMask.from_keep(shape, range(int(np.prod(shape))))


def checkerboard_mask(h: int, w: int, phase: int = 0) -> IndexMask:
    """2-D checkerboard: keep positions where (row + col + phase) is even."""
    keep = [r * w + c for r in range(h) for c in range(w) if (r + c + phase) % 2 == 0]
    return IndexMask.from_keep((h, w), keep)


def _grid_keep(total: int, ratio: Fraction, phase: int) -> list[int]:
    """Evenly spaced kept indices at the given ratio and phase."""
    if ratio.numerator == 1:
        q = ratio.denominator
        return list(range(phase % q, total, q))
    # Non-reciprocal ratio: largest-remainder style even spacing of
    # floor(r * total) indices, phase shifts the pattern.
    m = (total * ratio.numerator) // ratio.denominator
    return sorted({(phase + (t * total) // m) % total for t in range(m)})


def _kept_count(total: int, ratio: Fraction) -> int:
    """floor(r * total); a ratio that keeps no index is an error."""
    m = (total * ratio.numerator) // ratio.denominator
    if m < 1:
        raise ConfigurationError(f"keep_ratio {ratio} keeps no index on a grid of {total}")
    return m


def sample_grid_mask(shape, keep_ratio, rng_seed: int, phase: int | None = None) -> IndexMask:
    """Regular-lattice mask: every q-th index kept (r = 1/q), lattice phase random.

    For r = 1/2 on a 2-D grid the two phases are complementary, so two
    consecutive resamples cover every position. Non-reciprocal ratios fall back
    to evenly spaced selection of floor(r * total) indices.
    """
    dims = tuple(int(d) for d in shape)
    ratio = _as_ratio(keep_ratio)
    total = math.prod(dims)
    # A 1/q lattice covers the grid in q phases only when q divides its total.
    if ratio.numerator == 1 and total % ratio.denominator:
        raise ConfigurationError(
            f"grid total {total} (dims {dims}) is not divisible by "
            f"the keep-ratio denominator {ratio.denominator}"
        )
    m = _kept_count(total, ratio)
    if ratio == 1:
        return full_keep_mask(dims)
    if phase is None:
        q = ratio.denominator if ratio.numerator == 1 else math.ceil(total / m)
        phase = int(np.random.Generator(np.random.PCG64(rng_seed)).integers(q))
    keep = _grid_keep(total, ratio, int(phase))
    return IndexMask.from_keep(dims, keep)


def sample_random_mask(shape, keep_ratio, rng_seed: int) -> IndexMask:
    """Uniform subset of floor(r * total) indices, drawn without replacement."""
    dims = tuple(int(d) for d in shape)
    ratio = _as_ratio(keep_ratio)
    total = math.prod(dims)
    m = _kept_count(total, ratio)
    if ratio == 1:
        return full_keep_mask(dims)
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    keep = sorted(int(i) for i in rng.choice(total, size=m, replace=False))
    return IndexMask.from_keep(dims, keep)


def build_schedule(kind: str, average, n_layers: int) -> tuple[Fraction, ...]:
    """Per-layer keep ratios over n_layers with the given average: constant,
    a linear ramp, or its reverse.

    Ramps run between average -/+ 0.25 (rounded to 2 decimals per layer); the
    canonical 8-layer, average-0.5 increasing ramp reproduces the published
    list exactly.
    """
    if n_layers < 1:
        raise ConfigurationError("n_layers must be >= 1")
    if kind not in SCHEDULES:
        raise ConfigurationError(f"unknown schedule kind {kind!r}")
    avg = _as_ratio(average)
    if kind == "uniform" or n_layers == 1:
        return (avg,) * n_layers
    lo, hi = avg - Fraction(1, 4), avg + Fraction(1, 4)
    if lo <= 0 or hi > 1:
        raise ConfigurationError(f"ramp endpoints {float(lo)}..{float(hi)} leave (0, 1]")
    if n_layers == 8 and avg == Fraction(1, 2):
        ramp = [Fraction(str(v)) for v in _CANONICAL_INCREASING_8]
    else:
        step = (hi - lo) / (n_layers - 1)
        ramp = [Fraction(str(round(float(lo + i * step), 2))) for i in range(n_layers)]
    return tuple(ramp[::-1] if kind == "decreasing" else ramp)


def intersect_masks(a: IndexMask, b: IndexMask) -> IndexMask:
    """keep = a.keep & b.keep, drop = a.drop | b.drop (the chain-rule composition law)."""
    if a.domain_shape != b.domain_shape:
        raise DimensionError(f"mask domains differ: {a.domain_shape} vs {b.domain_shape}")
    keep = sorted(set(a.keep) & set(b.keep))
    return IndexMask.from_keep(a.domain_shape, keep)


def downsample_mask(mask: IndexMask, factor: int) -> IndexMask:
    """Mask for a grid coarsened by an integer factor: a coarse cell is kept iff
    its top-left fine position is kept. Used when a shared mask crosses a
    resolution change."""
    if len(mask.domain_shape) != 2:
        raise ConfigurationError("downsample_mask needs a 2-D domain")
    if factor < 1:
        raise ConfigurationError(f"downsample factor must be >= 1, got {factor}")
    h, w = mask.domain_shape
    if h % factor or w % factor:
        raise ConfigurationError(f"grid {mask.domain_shape} not divisible by {factor}")
    hc, wc = h // factor, w // factor
    kept = set(mask.keep)
    keep = [r * wc + c for r in range(hc) for c in range(wc)
            if (r * factor) * w + (c * factor) in kept]
    return IndexMask.from_keep((hc, wc), keep)


def make_mask_plan(network, ratios, sampler: str, sharing: str, rng_seed: int):
    """A read-only {layer_id: IndexMask} map over a network's SBP-enabled
    layers, one keep ratio per layer.

    `network` must expose `sbp_layers() -> [(layer_id, domain_shape), ...]`.
    Shared mode takes one ratio for all layers; a single mask is sampled at
    the first layer's resolution and reused (lattice-downsampled if a later
    layer runs at a grid coarser by an integer factor; any other grid is an
    error).
    """
    if sampler not in SAMPLERS:
        raise ConfigurationError(f"unknown sampler {sampler!r}")
    if sharing not in SHARINGS:
        raise ConfigurationError(f"unknown sharing {sharing!r}")
    layers = list(network.sbp_layers())
    if len(ratios) != len(layers):
        raise ConfigurationError(
            f"schedule has {len(ratios)} layers, network has {len(layers)} SBP layers")
    sample = sample_grid_mask if sampler == "grid" else sample_random_mask
    if sharing == "independent":
        return MappingProxyType({lid: sample(shape, ratio, rng_seed + 1000003 * i)
                                 for i, ((lid, shape), ratio) in enumerate(zip(layers, ratios))})
    if len(set(ratios)) != 1:
        raise ConfigurationError("shared masks need one keep ratio for every layer")
    base_shape = tuple(layers[0][1])
    base = sample(base_shape, ratios[0], rng_seed)
    plan = {}
    for lid, shape in layers:
        factor = base_shape[0] // shape[0]
        if factor < 1 or tuple(d * factor for d in shape) != base_shape:
            raise ConfigurationError(
                f"shared plan: layer {lid} grid {tuple(shape)} is not grid "
                f"{base_shape} divided by an integer factor")
        plan[lid] = base if factor == 1 else downsample_mask(base, factor)
    return MappingProxyType(plan)


def mask_to_text(mask: IndexMask) -> str:
    """Line-oriented serialization: header with shape and exact ratio, then kept indices."""
    dims = "x".join(str(d) for d in mask.domain_shape)
    r = mask.keep_ratio
    lines = [f"shape={dims} ratio={r.numerator}/{r.denominator}"]
    lines += [str(i) for i in mask.keep]
    return "\n".join(lines) + "\n"


def mask_from_text(text: str) -> IndexMask:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    header = lines[0].split()
    fields = dict(part.split("=", 1) for part in header)
    dims = tuple(int(d) for d in fields["shape"].split("x"))
    keep = [int(ln) for ln in lines[1:]]
    mask = IndexMask.from_keep(dims, keep)
    p, q = (int(v) for v in fields["ratio"].split("/"))
    if mask.keep_ratio != Fraction(p, q):
        raise ConfigurationError("mask header ratio disagrees with kept indices")
    return mask
