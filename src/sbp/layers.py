"""Forward and backward rules for every operator family, in full and masked form.

Each masked (SBP) backward is elementwise-equivalent to running the full
backward after zeroing the upstream activation gradient at dropped indices;
the masked implementations additionally honor the memory contract where one
is declared: they read only kept-index activations. For attention the contract
holds by construction: `restrict_mhsa_cache` keeps only what a drop mode's
backward reads, and `mhsa_backward_kept` computes that backward from the
restricted cache alone, never rebuilding a full-shaped one.

Token masks address the flat spatial/token grid of a single sample; batched
inputs share one mask across the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from .errors import ConfigurationError, ContractViolationError, DimensionError
from .masks import IndexMask
from .tensor_core import Array, as_tensor, gather_rows, matmul

LN_EPS = 1e-6
DROP_MODES = ("query_only", "qkv", "head")


# ---------------------------------------------------------------------------
# Linear / PW-Conv
# ---------------------------------------------------------------------------


@dataclass
class LinearLayer:
    weight: Array  # C_in x C_out
    bias: Array | None = None

    def __post_init__(self):
        self.weight = as_tensor(self.weight)
        if self.weight.ndim != 2:
            raise DimensionError(f"linear weight must be 2-D, got {self.weight.shape}")
        if self.bias is not None:
            self.bias = as_tensor(self.bias)
            if self.bias.shape != (self.weight.shape[1],):
                raise DimensionError("bias length must equal C_out")


def linear_forward(layer: LinearLayer, x: Array) -> Array:
    out = matmul(x, layer.weight)
    if layer.bias is not None:
        out = out + layer.bias
    return out


def linear_backward_full(layer: LinearLayer, x: Array, upstream: Array):
    """Returns (dW, db, dX); db is None when the layer has no bias."""
    x = as_tensor(x)
    upstream = as_tensor(upstream)
    if x.shape[0] != upstream.shape[0] or upstream.shape[1] != layer.weight.shape[1]:
        raise DimensionError(f"backward shapes do not conform: x {x.shape}, up {upstream.shape}")
    dw = matmul(x.T, upstream)
    db = upstream.sum(axis=0) if layer.bias is not None else None
    dx = matmul(upstream, layer.weight.T)
    return dw, db, dx


def linear_backward_sbp(layer: LinearLayer, x: Array, upstream: Array, mask: IndexMask):
    """Masked backward: reads only kept rows of x and upstream; dropped dX rows are 0."""
    x = np.asarray(x)
    if mask.total != x.shape[0]:
        raise DimensionError(f"mask domain {mask.total} != row count {x.shape[0]}")
    if mask.is_full_keep:
        return linear_backward_full(layer, x, upstream)
    keep = mask.keep_array()
    x_k = gather_rows(x, keep)
    up_k = gather_rows(np.asarray(upstream), keep)
    if up_k.shape[1] != layer.weight.shape[1]:
        raise DimensionError("upstream width must equal C_out")
    dw = matmul(x_k.T, up_k)
    db = up_k.sum(axis=0) if layer.bias is not None else None
    dx = np.zeros((x.shape[0], layer.weight.shape[0]))
    if keep.size:
        dx[keep] = matmul(up_k, layer.weight.T)
    return dw, db, dx


# ---------------------------------------------------------------------------
# General 2-D convolution (cross-correlation, zero padding)
# ---------------------------------------------------------------------------


@dataclass
class Conv2dLayer:
    weight: Array  # k x k x C_in x C_out
    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        self.weight = as_tensor(self.weight)
        if self.weight.ndim != 4 or self.weight.shape[0] != self.weight.shape[1]:
            raise DimensionError(f"conv weight must be k x k x C_in x C_out, got {self.weight.shape}")
        if self.stride < 1 or self.padding < 0:
            raise ConfigurationError("stride must be >= 1 and padding >= 0")

    @property
    def kernel(self) -> int:
        return int(self.weight.shape[0])


def conv2d_output_grid(layer: Conv2dLayer, h: int, w: int) -> tuple[int, int]:
    k, s, p = layer.kernel, layer.stride, layer.padding
    if (h + 2 * p - k) % s or (w + 2 * p - k) % s:
        raise ConfigurationError(
            f"conv output size is not integral for input {h}x{w}, k={k}, s={s}, pad={p}")
    return (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1


def _im2col(layer: Conv2dLayer, x: Array):
    b, h, w, c = x.shape
    k, s, p = layer.kernel, layer.stride, layer.padding
    ho, wo = conv2d_output_grid(layer, h, w)
    xp = np.pad(x, ((0, 0), (p, p), (p, p), (0, 0)))
    cols = np.empty((b, ho, wo, k, k, c))
    for a in range(k):
        for bb in range(k):
            cols[:, :, :, a, bb, :] = xp[:, a:a + s * ho:s, bb:bb + s * wo:s, :]
    return cols, (ho, wo)


def conv2d_forward(layer: Conv2dLayer, x: Array) -> Array:
    x = as_tensor(x)
    if x.ndim != 4 or x.shape[3] != layer.weight.shape[2]:
        raise DimensionError(f"conv input must be B x H x W x {layer.weight.shape[2]}")
    b = x.shape[0]
    cols, (ho, wo) = _im2col(layer, x)
    k, c, co = layer.kernel, layer.weight.shape[2], layer.weight.shape[3]
    out = matmul(cols.reshape(b * ho * wo, k * k * c), layer.weight.reshape(k * k * c, co))
    return out.reshape(b, ho, wo, co)


def conv2d_backward_full(layer: Conv2dLayer, x: Array, upstream: Array):
    """Returns (dW, dX). dX is the full correlation of the (stride-interleaved,
    zero-padded) upstream with the 180-degree rotated kernel, realized through
    the column decomposition used by the forward pass."""
    x = as_tensor(x)
    upstream = as_tensor(upstream)
    b, h, w, c = x.shape
    k, s, p, co = layer.kernel, layer.stride, layer.padding, layer.weight.shape[3]
    cols, (ho, wo) = _im2col(layer, x)
    if upstream.shape != (b, ho, wo, co):
        raise DimensionError(f"upstream shape {upstream.shape} != {(b, ho, wo, co)}")
    up_flat = upstream.reshape(b * ho * wo, co)
    cols_flat = cols.reshape(b * ho * wo, k * k * c)
    dw = matmul(cols_flat.T, up_flat).reshape(layer.weight.shape)
    dcols = matmul(up_flat, layer.weight.reshape(k * k * c, co).T)
    dcols = dcols.reshape(b, ho, wo, k, k, c)
    dxp = np.zeros((b, h + 2 * p, w + 2 * p, c))
    for a in range(k):
        for bb in range(k):
            dxp[:, a:a + s * ho:s, bb:bb + s * wo:s, :] += dcols[:, :, :, a, bb, :]
    dx = dxp[:, p:p + h, p:p + w, :]
    return dw, dx


def conv2d_backward_sbp(layer: Conv2dLayer, x: Array, upstream: Array, mask: IndexMask):
    """Full backward with upstream zeroed at dropped output positions.

    For k > stride a dropped position can still receive nonzero dX through its
    neighbors' receptive fields; for stride >= k every input position feeding
    only dropped outputs gets exactly 0 and the rest are exact.
    """
    upstream = as_tensor(upstream)
    b, ho, wo, co = upstream.shape
    if mask.domain_shape != (ho, wo):
        raise DimensionError(f"mask grid {mask.domain_shape} != output grid {(ho, wo)}")
    if mask.is_full_keep:
        return conv2d_backward_full(layer, x, upstream)
    up = upstream.reshape(b, ho * wo, co).copy()
    up[:, mask.drop_array(), :] = 0.0
    return conv2d_backward_full(layer, x, up.reshape(b, ho, wo, co))


# ---------------------------------------------------------------------------
# Multi-head self-attention
# ---------------------------------------------------------------------------


@dataclass
class MhsaLayer:
    heads: int
    dim_head: int
    w_q: Array  # C x (h * d)
    w_k: Array
    w_v: Array
    w_o: Array  # (h * d) x C
    drop_mode: str = "qkv"

    def __post_init__(self):
        for name in ("w_q", "w_k", "w_v", "w_o"):
            setattr(self, name, as_tensor(getattr(self, name)))
        hd = self.heads * self.dim_head
        c = self.w_q.shape[0]
        if self.w_q.shape != (c, hd) or self.w_k.shape != (c, hd) or self.w_v.shape != (c, hd):
            raise DimensionError("w_q/w_k/w_v must all be C x (heads * dim_head)")
        if self.w_o.shape != (hd, c):
            raise DimensionError("w_o must be (heads * dim_head) x C")
        if self.drop_mode not in DROP_MODES:
            raise ConfigurationError(f"unknown drop_mode {self.drop_mode!r}")


@dataclass
class MhsaCache:
    x: Array | None  # B x N x C; None while a caller that can rebuild it holds the cache
    q: Array         # B x h x N x d
    k: Array
    v: Array
    s: Array         # B x h x N x N (attention weights; no backward reads the logits)
    a: Array         # B x h x N x d (per-head attention output)

    def element_count(self) -> int:
        return sum(t.size for t in (self.x, self.q, self.k, self.v, self.s, self.a)
                   if t is not None)


def _split_heads(t: Array, heads: int, dim_head: int) -> Array:
    b, n, _ = t.shape
    return t.reshape(b, n, heads, dim_head).transpose(0, 2, 1, 3)


def _merge_heads(t: Array) -> Array:
    b, h, n, d = t.shape
    return t.transpose(0, 2, 1, 3).reshape(b, n, h * d)


def mhsa_forward(layer: MhsaLayer, x: Array):
    """Scaled dot-product attention over all heads; returns (out, cache)."""
    x = as_tensor(x)
    if x.ndim != 3 or x.shape[2] != layer.w_q.shape[0]:
        raise DimensionError(f"mhsa input must be B x N x {layer.w_q.shape[0]}")
    h, d = layer.heads, layer.dim_head
    q = _split_heads(x @ layer.w_q, h, d)
    k = _split_heads(x @ layer.w_k, h, d)
    v = _split_heads(x @ layer.w_v, h, d)
    # Softmax in place on the one B x h x N x N buffer: the logits are not kept.
    s = q @ k.transpose(0, 1, 3, 2)
    s /= math.sqrt(d)
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    a = s @ v
    out = _merge_heads(a) @ layer.w_o
    return out, MhsaCache(x=x, q=q, k=k, v=v, s=s, a=a)


@dataclass
class MhsaGrads:
    dw_q: Array
    dw_k: Array
    dw_v: Array
    dw_o: Array
    dx: Array


def _check_cache(layer: MhsaLayer, cache: MhsaCache, upstream: Array):
    b, n, c = cache.x.shape
    if upstream.shape != (b, n, c):
        raise ContractViolationError(
            f"upstream shape {upstream.shape} does not match cache {cache.x.shape}")
    if cache.q.shape != (b, layer.heads, n, layer.dim_head):
        raise ContractViolationError("cache does not belong to this layer")


def mhsa_backward_full(layer: MhsaLayer, cache: MhsaCache, upstream: Array) -> MhsaGrads:
    upstream = as_tensor(upstream)
    _check_cache(layer, cache, upstream)
    h, d = layer.heads, layer.dim_head
    b, n, c = cache.x.shape
    x2 = cache.x.reshape(b * n, c)

    a_c = _merge_heads(cache.a)
    dw_o = a_c.reshape(b * n, h * d).T @ upstream.reshape(b * n, c)
    da = _split_heads(upstream @ layer.w_o.T, h, d)

    dv = cache.s.transpose(0, 1, 3, 2) @ da
    ds = da @ cache.v.transpose(0, 1, 3, 2)
    dm = cache.s * (ds - (ds * cache.s).sum(axis=-1, keepdims=True))
    dq = dm @ cache.k / math.sqrt(d)
    dk = dm.transpose(0, 1, 3, 2) @ cache.q / math.sqrt(d)

    dq_f = _merge_heads(dq).reshape(b * n, h * d)
    dk_f = _merge_heads(dk).reshape(b * n, h * d)
    dv_f = _merge_heads(dv).reshape(b * n, h * d)
    dw_q = x2.T @ dq_f
    dw_k = x2.T @ dk_f
    dw_v = x2.T @ dv_f
    dx = (dq_f @ layer.w_q.T + dk_f @ layer.w_k.T + dv_f @ layer.w_v.T).reshape(b, n, c)
    return MhsaGrads(dw_q, dw_k, dw_v, dw_o, dx)


def sample_head_keep(heads: int, keep_ratio, rng_seed: int) -> tuple[int, ...]:
    """Kept head indices for head-drop mode: ceil((1 - r) * h) heads are dropped."""
    r = float(keep_ratio)
    n_drop = math.ceil((1.0 - r) * heads)
    n_keep = heads - n_drop
    if n_keep < 1:
        return ()
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    return tuple(sorted(int(i) for i in rng.choice(heads, size=n_keep, replace=False)))


def restrict_mhsa_cache(cache: MhsaCache, keep, mode: str,
                        head_keep: tuple[int, ...] | None) -> MhsaCache:
    """The part of a full cache that `mode`'s masked backward reads.

    qkv: kept token rows of X/Q/K/V/A and the kept x kept block of S.
    query_only: kept query rows of Q; everything else whole.
    head: Q/K/V/S of the kept heads only; X and A whole (dW_o stays exact).
    An X of None stays None.
    """
    if mode == "qkv":
        def rows(t):
            return np.take(t, keep, axis=2)

        x = None if cache.x is None else np.take(cache.x, keep, axis=1)
        return MhsaCache(x, rows(cache.q), rows(cache.k), rows(cache.v),
                         np.take(rows(cache.s), keep, axis=3), rows(cache.a))
    if mode == "query_only":
        return MhsaCache(cache.x, np.take(cache.q, keep, axis=2),
                         cache.k, cache.v, cache.s, cache.a)
    if mode == "head":
        hk = np.asarray(sorted(head_keep or ()), dtype=np.int64)
        q, k, v, s = (np.take(t, hk, axis=1) for t in (cache.q, cache.k, cache.v, cache.s))
        return MhsaCache(cache.x, q, k, v, s, cache.a)
    raise ConfigurationError(f"unknown drop mode {mode!r}")


def mhsa_backward_kept(layer: MhsaLayer, restricted: MhsaCache, upstream: Array,
                       keep, mode: str, head_keep: tuple[int, ...] | None) -> MhsaGrads:
    """Masked attention backward straight from `restrict_mhsa_cache`'s output.

    `upstream` and the returned dX are full B x N x C; `keep` holds the kept
    token indices (unused in head mode, where `head_keep` lists the surviving
    heads).
    """
    h, d = layer.heads, layer.dim_head
    scale = 1.0 / math.sqrt(d)
    b, n, c = upstream.shape
    if mode == "head":
        hk = np.asarray(sorted(head_keep or ()), dtype=np.int64)
        if hk.size == h:
            return mhsa_backward_full(layer, restricted, upstream)
    # qkv works on the kept token rows throughout, the other modes on all rows.
    up = upstream[:, keep, :] if mode == "qkv" else upstream
    rows = up.shape[1]
    dw_o = _merge_heads(restricted.a).reshape(b * rows, h * d).T @ up.reshape(b * rows, c)
    da = _split_heads(up @ layer.w_o.T, h, d)

    if mode == "qkv":
        s_kk = restricted.s
        ds_kk = da @ restricted.v.transpose(0, 1, 3, 2)
        # Row sums of ds * s run over ALL keys: <dA_q, A_q> recovers them from
        # the cached per-head outputs without touching dropped columns of S.
        rowsum = (da * restricted.a).sum(axis=-1, keepdims=True)
        dm_kk = s_kk * (ds_kk - rowsum)
        dq = dm_kk @ restricted.k * scale
        dk = dm_kk.transpose(0, 1, 3, 2) @ restricted.q * scale
        dv = s_kk.transpose(0, 1, 3, 2) @ da
    elif mode == "query_only":
        # Value path is untouched: exact dV and dW_V.
        dv = restricted.s.transpose(0, 1, 3, 2) @ da
        da_k = da[:, :, keep, :]
        s_k = restricted.s[:, :, keep, :]
        a_k = restricted.a[:, :, keep, :]
        ds_k = da_k @ restricted.v.transpose(0, 1, 3, 2)
        rowsum = (da_k * a_k).sum(axis=-1, keepdims=True)  # == sum(ds * s) over keys
        dm_k = s_k * (ds_k - rowsum)
        dk = dm_k.transpose(0, 1, 3, 2) @ restricted.q * scale
        dq = np.zeros((b, h, n, d))
        dq[:, :, keep, :] = dm_k @ restricted.k * scale    # kept query rows
    elif mode == "head":
        dq = np.zeros((b, h, n, d))
        dk = np.zeros((b, h, n, d))
        dv = np.zeros((b, h, n, d))
        if hk.size:
            da_h = da[:, hk, :, :]
            s_h = restricted.s
            dv[:, hk, :, :] = s_h.transpose(0, 1, 3, 2) @ da_h
            ds_h = da_h @ restricted.v.transpose(0, 1, 3, 2)
            dm_h = s_h * (ds_h - (da_h * restricted.a[:, hk, :, :]).sum(axis=-1, keepdims=True))
            dq[:, hk, :, :] = dm_h @ restricted.k * scale
            dk[:, hk, :, :] = dm_h.transpose(0, 1, 3, 2) @ restricted.q * scale
    else:
        raise ConfigurationError(f"unknown drop mode {mode!r}")

    x2 = restricted.x.reshape(b * rows, c)
    dq_f = _merge_heads(dq).reshape(b * rows, h * d)
    dk_f = _merge_heads(dk).reshape(b * rows, h * d)
    dv_f = _merge_heads(dv).reshape(b * rows, h * d)
    dx = (dq_f @ layer.w_q.T + dk_f @ layer.w_k.T + dv_f @ layer.w_v.T).reshape(b, rows, c)
    if mode == "qkv":  # dropped token rows get no input gradient
        dx_k, dx = dx, np.zeros((b, n, c))
        dx[:, keep, :] = dx_k
    return MhsaGrads(x2.T @ dq_f, x2.T @ dk_f, x2.T @ dv_f, dw_o, dx)


def mhsa_backward_sbp(layer: MhsaLayer, cache: MhsaCache, upstream: Array,
                      mask: IndexMask, mode: str | None = None,
                      head_keep: tuple[int, ...] | None = None) -> MhsaGrads:
    """Masked attention backward from a full cache: restrict it, then run
    `mhsa_backward_kept`, the same code the transformer block runs.

    query_only: zero dM rows at dropped queries; dV and dW_V stay exact.
    qkv: zero dM rows and columns at dropped tokens plus dV/dA rows, so every
         weight gradient is a kept-subset estimate.
    head: zero the whole gradient of dropped heads (head_keep lists survivors).
    """
    mode = mode or layer.drop_mode
    if mode not in DROP_MODES:
        raise ConfigurationError(f"unknown drop mode {mode!r}")
    upstream = as_tensor(upstream)
    _check_cache(layer, cache, upstream)
    n = cache.x.shape[1]
    if mode != "head" and mask.total != n:
        raise DimensionError(f"mask domain {mask.total} != token count {n}")
    if mode != "head" and mask.is_full_keep:
        return mhsa_backward_full(layer, cache, upstream)
    if mode == "head":
        if head_keep is None:
            raise ConfigurationError("head mode needs head_keep (the surviving head indices)")
        if any(not 0 <= i < layer.heads for i in head_keep):
            raise ConfigurationError("head index out of range")
    keep = mask.keep_array()
    return mhsa_backward_kept(layer, restrict_mhsa_cache(cache, keep, mode, head_keep),
                              upstream, keep, mode, head_keep)


# ---------------------------------------------------------------------------
# LayerNorm, GELU, losses
# ---------------------------------------------------------------------------


def layer_norm_forward(x: Array, gamma: Array, beta: Array):
    """Per-token normalization over the last axis; returns (y, cache)."""
    x = as_tensor(x)
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    x_hat = (x - mean) * inv_std
    y = gamma * x_hat + beta
    return y, (x_hat, inv_std)


def layer_norm_backward(cache, gamma: Array, upstream: Array):
    """Returns (dgamma, dbeta, dx)."""
    x_hat, inv_std = cache
    upstream = as_tensor(upstream)
    c = x_hat.shape[-1]
    axes = tuple(range(upstream.ndim - 1))
    dgamma = (upstream * x_hat).sum(axis=axes)
    dbeta = upstream.sum(axis=axes)
    dxhat = upstream * gamma
    dx = inv_std * (dxhat
                    - dxhat.mean(axis=-1, keepdims=True)
                    - x_hat * (dxhat * x_hat).mean(axis=-1, keepdims=True))
    return dgamma, dbeta, dx


def gelu_cdf(x: Array) -> Array:
    """Standard normal CDF Phi(x), so that gelu(x) = x * Phi(x)."""
    return 0.5 * (1.0 + erf(x / math.sqrt(2.0)))


def gelu_forward(x: Array) -> Array:
    x = as_tensor(x)
    # Named, so the product gets its own buffer rather than reusing the CDF's:
    # with the reuse, peak RSS on the train-mlp16-random benchmark workload
    # rose by about 1 MB (heap layout; the live bytes are the same).
    cdf = gelu_cdf(x)
    return x * cdf


def gelu_backward(x: Array, upstream: Array, cdf: Array | None = None) -> Array:
    """upstream * gelu'(x); pass `cdf` = gelu_cdf(x) when the forward kept it."""
    x = as_tensor(x)
    if cdf is None:
        cdf = gelu_cdf(x)
    pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return upstream * (cdf + x * pdf)


def softmax_xent_loss(logits: Array, labels: np.ndarray):
    """Mean cross-entropy over rows; returns (loss, dlogits) with the 1/B folded in."""
    logits = as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise DimensionError("logits must be n x k with n labels")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_p = shifted - log_z
    n = logits.shape[0]
    loss = -log_p[np.arange(n), labels].mean()
    grad = np.exp(log_p)
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


def mse_loss(pred: Array, target: Array):
    """0.5 * mean over rows of the squared error; returns (loss, dpred)."""
    pred = as_tensor(pred)
    target = as_tensor(target)
    if pred.shape != target.shape:
        raise DimensionError("prediction/target shapes differ")
    n = pred.shape[0]
    diff = pred - target
    return 0.5 * float((diff * diff).sum()) / n, diff / n


# ---------------------------------------------------------------------------
# Network description
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LayerSpecEntry:
    kind: str               # "embed" | "block" | "mlp_layer" | "conv" | "pool" | "classifier"
    layer_id: str
    options: dict = field(default_factory=dict)
    sbp_enabled: bool = False


@dataclass(frozen=True)
class NetworkSpec:
    """Ordered layer descriptors plus the loss kind; the model builder realizes it."""

    layers: tuple[LayerSpecEntry, ...]
    loss: str = "xent"  # "xent" | "mse"

    def __post_init__(self):
        if self.loss not in ("xent", "mse"):
            raise ConfigurationError(f"unknown loss {self.loss!r}")
        if not any(e.kind in ("embed", "block", "mlp_layer", "conv", "classifier")
                   for e in self.layers):
            raise ConfigurationError("network needs at least one parameterized layer")

    def sbp_layers(self):
        """(layer_id, grid_shape) for every SBP-enabled layer, in network order."""
        out = []
        for e in self.layers:
            if e.sbp_enabled:
                out.append((e.layer_id, tuple(e.options["grid"])))
        return out
