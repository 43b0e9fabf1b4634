"""Forward and backward rules for every operator family.

Each operator has one backward, and it is the code the model nodes run.
A masked (SBP) backward is elementwise-equivalent to the exact backward after
zeroing the upstream activation gradient at dropped indices. The linear and
attention backwards get the masked case by running on less: the nodes hand
`linear_backward_kept` their kept token rows, and `mhsa_backward` the cache
`restrict_attention` cuts, so they read only kept-index activations (the
memory contract). `mhsa_backward` rebuilds Q, K and V from X on the kept
rows, queries and heads only; with nothing dropped it is the exact backward.
The conv backward has no masked form: the conv node zeroes the dropped
output positions of its own GELU gradient and runs `conv2d_backward` on it.

Token masks address the flat spatial/token grid of a single sample; batched
inputs share one mask across the batch.

Every array is a float64 ndarray. Non-finite values are not checked per
operation: they surface in the loss, the logits and the gradient store.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SBP_MODES
from .errors import ConfigurationError, DimensionError
from .masks import IndexMask

Array = np.ndarray
LN_EPS = 1e-6


def as_tensor(x) -> Array:
    """Coerce to a C-contiguous float64 array; a 0-d input stays 0-d."""
    return np.asarray(x, dtype=np.float64, order="C")


# ---------------------------------------------------------------------------
# Linear / PW-Conv
# ---------------------------------------------------------------------------


def row_gemm(x: Array, w: Array, b: Array | None = None) -> Array:
    """x @ w (+ b) as one GEMM over all leading rows of x, leading dims kept.

    A row's result does not depend on which other rows are present, so a
    backward that rebuilds a forward's product on a subset of its rows gets
    those rows of the forward's product, bit for bit. (With a single row in
    all, BLAS takes its matrix-vector path and the last bit may differ.)
    """
    out = x.reshape(-1, x.shape[-1]) @ w
    if b is not None:
        # A new buffer on purpose: with `out += b`, peak RSS on the
        # train-vit14-qkv benchmark workload rose by about 2 MB (heap layout;
        # the live bytes are the same).
        out = out + b
    return out.reshape(*x.shape[:-1], w.shape[1])


def linear_backward_kept(x: Array, dy: Array, w: Array, has_bias: bool,
                         out: Array | None = None):
    """(dW, db, dX) of y = x @ w (+ b) over whatever rows x and dy hold.

    Leading dims are flattened through reshaped views, so a B x N x C token
    batch costs no copy; dX has dy's leading dims. The model nodes pass their
    kept rows. db is None without a bias. dX is written into `out` when it is
    given, a C-contiguous array of x's shape that may be x itself: dW and db
    are taken first, and it is the same GEMM, so the bits are the same.
    """
    c_in, c_out = w.shape
    x2 = x.reshape(-1, c_in)
    dy2 = dy.reshape(x2.shape[0], c_out)  # also when c_out is 0 (no head kept)
    dw = x2.T @ dy2
    db = dy2.sum(axis=0) if has_bias else None
    dx = np.matmul(dy2, w.T, out=None if out is None else out.reshape(-1, c_in))
    return dw, db, dx.reshape(*dy.shape[:-1], c_in)


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
    out = cols.reshape(b * ho * wo, k * k * c) @ layer.weight.reshape(k * k * c, co)
    return out.reshape(b, ho, wo, co)


def conv2d_backward(layer: Conv2dLayer, x: Array, upstream: Array):
    """Returns (dW, dX). dX is the full correlation of the (stride-interleaved,
    zero-padded) upstream with the 180-degree rotated kernel, realized through
    the column decomposition used by the forward pass.

    A masked backward is this on an upstream zeroed at the dropped output
    positions. For k > stride a dropped position can still receive nonzero dX
    through its neighbors' receptive fields; for stride >= k every input
    position feeding only dropped outputs gets exactly 0 and the rest are
    exact.
    """
    x = as_tensor(x)
    upstream = as_tensor(upstream)
    b, h, w, c = x.shape
    k, s, p, co = layer.kernel, layer.stride, layer.padding, layer.weight.shape[3]
    cols, (ho, wo) = _im2col(layer, x)
    if upstream.shape != (b, ho, wo, co):
        raise DimensionError(f"upstream shape {upstream.shape} != {(b, ho, wo, co)}")
    up_flat = upstream.reshape(b * ho * wo, co)
    cols_flat = cols.reshape(b * ho * wo, k * k * c)
    dw = (cols_flat.T @ up_flat).reshape(layer.weight.shape)
    dcols = up_flat @ layer.weight.reshape(k * k * c, co).T
    dcols = dcols.reshape(b, ho, wo, k, k, c)
    dxp = np.zeros((b, h + 2 * p, w + 2 * p, c))
    for a in range(k):
        for bb in range(k):
            dxp[:, a:a + s * ho:s, bb:bb + s * wo:s, :] += dcols[:, :, :, a, bb, :]
    dx = dxp[:, p:p + h, p:p + w, :]
    return dw, dx


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

    def __post_init__(self):
        for name in ("w_q", "w_k", "w_v", "w_o"):
            setattr(self, name, as_tensor(getattr(self, name)))
        hd = self.heads * self.dim_head
        c = self.w_q.shape[0]
        if self.w_q.shape != (c, hd) or self.w_k.shape != (c, hd) or self.w_v.shape != (c, hd):
            raise DimensionError("w_q/w_k/w_v must all be C x (heads * dim_head)")
        if self.w_o.shape != (hd, c):
            raise DimensionError("w_o must be (heads * dim_head) x C")


@dataclass
class MhsaCache:
    # Q, K and V are not kept: the backward rebuilds them from X.
    x: Array  # B x N x C
    s: Array  # B x h x N x N (attention weights; no backward reads the logits)
    a: Array  # B x h x N x d (per-head attention output)


def _split_heads(t: Array, heads: int, dim_head: int) -> Array:
    b, n, _ = t.shape
    return t.reshape(b, n, heads, dim_head).transpose(0, 2, 1, 3)


def _merge_heads(t: Array) -> Array:
    b, h, n, d = t.shape
    return t.transpose(0, 2, 1, 3).reshape(b, n, h * d)


def _take(t: Array | None, index, axis: int) -> Array | None:
    """t's entries at `index` along `axis`; t itself when either is None."""
    return t if t is None or index is None else np.take(t, index, axis=axis)


def _head_weights(layer: MhsaLayer, heads):
    """(cols, (W_Q, W_K, W_V)): the projection columns of the heads `heads`
    and each weight on them, gathered into a contiguous array (a strided
    column view can change a product's last bit); (None, the weights
    themselves) when heads is None."""
    d = layer.dim_head
    cols = None if heads is None else (heads[:, None] * d + np.arange(d)).ravel()
    return cols, tuple(_take(w, cols, 1) for w in (layer.w_q, layer.w_k, layer.w_v))


def mhsa_projections(layer: MhsaLayer, x: Array, queries=None, heads=None):
    """Per-head Q, K and V (each B x h x N x d) of a B x N x C input: Q on the
    query rows `queries` only, and all three on the heads `heads` only (None
    keeps all). Each is one `row_gemm`, so a rebuild on a selection has the
    bits of the whole product's entries."""
    _, (w_q, w_k, w_v) = _head_weights(layer, heads)
    hs = layer.heads if heads is None else heads.size
    return tuple(_split_heads(row_gemm(t, w), hs, layer.dim_head)
                 for t, w in ((_take(x, queries, 1), w_q), (x, w_k), (x, w_v)))


def mhsa_forward(layer: MhsaLayer, x: Array):
    """Scaled dot-product attention over all heads; returns (out, cache)."""
    x = as_tensor(x)
    if x.ndim != 3 or x.shape[2] != layer.w_q.shape[0]:
        raise DimensionError(f"mhsa input must be B x N x {layer.w_q.shape[0]}")
    d = layer.dim_head
    q, k, v = mhsa_projections(layer, x)
    # Softmax in place on the one B x h x N x N buffer: the logits are not kept.
    s = q @ k.transpose(0, 1, 3, 2)
    s /= math.sqrt(d)
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    a = s @ v
    out = _merge_heads(a) @ layer.w_o
    return out, MhsaCache(x, s, a)


@dataclass
class MhsaGrads:
    dw_q: Array
    dw_k: Array
    dw_v: Array
    dw_o: Array
    dx: Array


def sample_head_keep(heads: int, keep_ratio, rng_seed: int) -> tuple[int, ...]:
    """Kept head indices for head-drop mode: ceil((1 - r) * h) heads are dropped."""
    r = float(keep_ratio)
    n_drop = math.ceil((1.0 - r) * heads)
    n_keep = heads - n_drop
    if n_keep < 1:
        return ()
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    return tuple(sorted(int(i) for i in rng.choice(heads, size=n_keep, replace=False)))


@dataclass(frozen=True, eq=False)
class Selection:
    """What a node's masked backward keeps: the mask it runs under, the kept
    token indices, and the token rows, query rows and heads of the attention
    backward. Each is a sorted int64 index array, or None where everything
    is kept."""

    mask: IndexMask | None = None
    keep: Array | None = None
    rows: Array | None = None
    queries: Array | None = None
    heads: Array | None = None


EXACT = Selection()  # no mask: every index, row, query and head is kept


def select(mask: IndexMask, mode: str, head_keep: tuple[int, ...] | None = None) -> Selection:
    """The selection `mode` keeps under `mask`: the kept token indices (None
    when the mask drops nothing), and for the attention backward the kept
    token rows in qkv, the kept query rows in query_only, and the heads in
    `head_keep` in head mode (None keeps every head)."""
    if mode not in SBP_MODES:
        raise ConfigurationError(f"unknown drop mode {mode!r}")
    keep = None if mask.is_full_keep else mask.keep_array()
    heads = None
    if mode == "head" and head_keep is not None:
        heads = np.asarray(sorted(head_keep), dtype=np.int64)
    return Selection(mask, keep, keep if mode == "qkv" else None,
                     keep if mode == "query_only" else None, heads)


def restrict_attention(s: Array, a: Array, sel: Selection) -> tuple[Array, Array]:
    """The part of a full S and A that the masked backward under `sel` reads:
    the token rows (of A and both axes of S) and the heads (of S; A stays
    whole, so dW_O stays exact). The query rows of S are taken by the
    backward itself."""
    rows, heads = sel.rows, sel.heads
    if rows is not None:
        # One gather over the flat kept x kept index of each N x N map.
        b, h, n, _ = s.shape
        s = np.take(s.reshape(b, h, n * n), (rows[:, None] * n + rows).ravel(), axis=2)
        s = s.reshape(b, h, rows.size, rows.size)
    return _take(s, heads, 1), _take(a, rows, 2)


def mhsa_backward(layer: MhsaLayer, cache: MhsaCache, upstream: Array,
                  queries=None, heads=None) -> MhsaGrads:
    """Attention backward on the token rows the cache covers, the query rows
    `queries` of them and the heads `heads` (sorted index arrays, as a
    `Selection` holds them; None keeps all).

    `upstream` and the returned dX cover the cache's token rows: all N, or the
    kept rows of a qkv cache. The cache holds S on the heads, as
    `restrict_attention` leaves it; A is whole, so dW_O is exact. Q, K and V
    are not cached: the kernel rebuilds them from X with `mhsa_projections`,
    Q on the query rows only and all three on the heads only, the forward's
    bits for each entry. dQ, and its shares of dW_Q and dX, cover the query
    rows only; the dropped heads' weight gradients are zero. With both
    selections None this is the exact backward.
    """
    h, d = layer.heads, layer.dim_head
    scale = 1.0 / math.sqrt(d)
    b, rows, c = upstream.shape
    dw_o = _merge_heads(cache.a).reshape(b * rows, h * d).T @ upstream.reshape(b * rows, c)
    da = _split_heads(upstream @ layer.w_o.T, h, d)
    da, a = _take(da, heads, 1), _take(cache.a, heads, 1)
    dv = cache.s.transpose(0, 1, 3, 2) @ da
    da, a, s = (_take(t, queries, 2) for t in (da, a, cache.s))
    q, k, v = mhsa_projections(layer, cache.x, queries, heads)
    # The softmax backward s * (ds - rowsum), in place on ds. The row sums of
    # ds * s run over ALL keys: <dA_q, A_q> recovers them from the cached
    # per-head outputs without touching dropped columns of S. Each temporary,
    # Q, K and V included, is freed at its last use.
    rowsum = (da * a).sum(axis=-1, keepdims=True)
    del a
    dm = da @ v.transpose(0, 1, 3, 2)
    del da, v
    dm -= rowsum
    dm *= s
    del s
    dq = dm @ k
    del k
    dq *= scale
    dk = dm.transpose(0, 1, 3, 2) @ q
    del dm, q
    dk *= scale

    # Each projection's weight gradient and dX share are the linear backward
    # over the rows its gradient covers. dQ's share goes last, added onto the
    # query rows of the dX that dK's and dV's shares cover in full.
    cols, (w_q, w_k, w_v) = _head_weights(layer, heads)
    x = cache.x
    dw_k, _, dx = linear_backward_kept(x, _merge_heads(dk), w_k, False)
    del dk
    dw_v, _, dx_v = linear_backward_kept(x, _merge_heads(dv), w_v, False)
    del dv
    dx += dx_v
    del dx_v
    dw_q, _, dx_q = linear_backward_kept(_take(x, queries, 1), _merge_heads(dq), w_q, False)
    del dq
    dx[:, slice(None) if queries is None else queries] += dx_q
    dws = [dw_q, dw_k, dw_v]
    if cols is not None:  # the dropped heads' columns stay zero
        for i, dw_kept in enumerate(dws):
            dws[i] = np.zeros((c, h * d))
            dws[i][:, cols] = dw_kept
    return MhsaGrads(*dws, dw_o, dx)


# ---------------------------------------------------------------------------
# LayerNorm, GELU, losses
# ---------------------------------------------------------------------------


def layer_norm_forward(x: Array, gamma: Array, beta: Array):
    """Per-token normalization over the last axis; returns (y, cache)."""
    x = as_tensor(x)
    mean = x.mean(axis=-1, keepdims=True)
    # The input is centred once: the variance is np.var's own formula on the
    # centred copy, and x_hat is built in place on it, so the bytes are those
    # of x.var() and (x - mean) * inv_std.
    x_hat = x - mean
    var = (x_hat * x_hat).sum(axis=-1, keepdims=True) / x.shape[-1]
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    x_hat *= inv_std
    y = gamma * x_hat + beta
    return y, (x_hat, inv_std)


def layer_norm_backward(cache, gamma: Array, upstream: Array):
    """Returns (dgamma, dbeta, dx)."""
    x_hat, inv_std = cache
    upstream = as_tensor(upstream)
    axes = tuple(range(upstream.ndim - 1))
    dgamma = (upstream * x_hat).sum(axis=axes)
    dbeta = upstream.sum(axis=axes)
    # inv_std * (dxhat - mean(dxhat) - x_hat * mean(dxhat * x_hat)), in place
    # on dxhat with one temporary; same operation order, same bytes.
    dxhat = upstream * gamma
    t = dxhat * x_hat
    m2 = t.mean(axis=-1, keepdims=True)
    np.multiply(x_hat, m2, out=t)
    dxhat -= dxhat.mean(axis=-1, keepdims=True)
    dxhat -= t
    dxhat *= inv_std
    return dgamma, dbeta, dxhat


def _coefficients(*values: float) -> tuple[Array, ...]:
    # 0-d arrays: an in-place ufunc takes them with less per-call work than
    # Python floats, and erf's blocks make many such calls.
    return tuple(np.array(v) for v in values)


# The cephes rational approximations that scipy.special.erf runs, leading
# 1 of U and Q implied: erf(x) = x T(x²)/U(x²) for |x| <= 1, and
# erfc(x) = exp(-x²) P(x)/Q(x) for 1 < x < 8.
_ERF_T = _coefficients(9.60497373987051638749e0, 9.00260197203842689217e1,
                       2.23200534594684319226e3, 7.00332514112805075473e3,
                       5.55923013010394962768e4)
_ERF_U = _coefficients(3.35617141647503099647e1, 5.21357949780152679795e2,
                       4.59432382970980127987e3, 2.26290000613890934246e4,
                       4.92673942608635921086e4)
_ERFC_P = _coefficients(2.46196981473530512524e-10, 5.64189564831068821977e-1,
                        7.46321056442269912687e0, 4.86371970985681366614e1,
                        1.96520832956077098242e2, 5.26445194995477358631e2,
                        9.34528527171957607540e2, 1.02755188689515710272e3,
                        5.57535335369399327526e2)
_ERFC_Q = _coefficients(1.32281951154744992508e1, 8.67072140885989742329e1,
                        3.54937778887819891062e2, 9.75708501743205489753e2,
                        1.82390916687909736289e3, 2.24633760818710981792e3,
                        1.65666309194161350182e3, 5.57535340817727675546e2)
# Beyond ±6, 1 - erfc(|x|) already rounds to 1 in float64.
_ERF_SATURATES = 6.0
# Elements per block. A call's scratch is four float64 buffers of this size
# (x², the numerator, and the queue of |x| > 1 elements with their indices):
# 256 KiB, which stays in L2 and inside the transformer block forward's
# transient-memory budget on the small ViT.
ERF_BLOCK = 8192


def _polevl(x: Array, coef: tuple[Array, ...], out: Array) -> Array:
    """coef[0] x^n + ... + coef[n], by Horner's rule into `out`."""
    np.multiply(x, coef[0], out=out)
    out += coef[1]
    for c in coef[2:]:
        out *= x
        out += c
    return out


def _p1evl(x: Array, coef: tuple[Array, ...], out: Array) -> Array:
    """x^n + coef[0] x^(n-1) + ... + coef[n-1], by Horner's rule into `out`."""
    np.add(x, coef[0], out=out)
    for c in coef[1:]:
        out *= x
        out += c
    return out


def erf(x: Array, out: Array | None = None) -> Array:
    """The error function, computed as cephes (and so scipy.special.erf) does.

    Same coefficients, Horner order and |x| > 1 split, so the result is
    cephes' bit for bit where |x| <= 1. Where |x| > 1, np.exp may differ from
    the C library's exp in the last bit, and so may the result (1 ulp). Those
    elements are queued and finished in batches by `_erf_tail`, which clamps
    |x| at 6, where the result is already ±1, so infinities need no branch of
    their own. Signed zeros keep their sign, nan stays nan, and no floating
    point warning is raised.

    Works block by block; `out` may be x itself, since each block of x is
    read before its part of `out` is written.
    """
    x = as_tensor(x)
    if out is None:
        out = np.empty_like(x)
    elif out.shape != x.shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise DimensionError(f"erf out {out.shape} does not fit input {x.shape}")
    src, dst = x.reshape(-1), out.reshape(-1)
    m = min(src.size, ERF_BLOCK)
    z, w = np.empty(m), np.empty(m)
    flags = np.empty(m, dtype=bool)
    queued_x, queued_at = np.empty(m), np.empty(m, dtype=np.intp)
    n_queued = 0
    # A huge or infinite x makes the main formula nan; the tail overwrites it.
    with np.errstate(all="ignore"):
        for i in range(0, src.size, ERF_BLOCK):
            blk, dk = src[i:i + ERF_BLOCK], dst[i:i + ERF_BLOCK]
            k = blk.size
            zk, wk, fk = z[:k], w[:k], flags[:k]
            np.multiply(blk, blk, out=zk)
            # z > 1 exactly where |x| > 1: there erf(x) = ±(1 - erfc(|x|)).
            np.greater(zk, 1.0, out=fk)
            tail = np.flatnonzero(fk)
            tail_x = blk[tail]
            # x T(z)/U(z) for the whole block; U(z) is the first write to out.
            _polevl(zk, _ERF_T, wk)
            wk *= blk
            np.divide(wk, _p1evl(zk, _ERF_U, dk), out=dk)
            if not tail.size:
                continue
            if n_queued + tail.size > m:
                _erf_tail(queued_x[:n_queued], queued_at[:n_queued], z, w, flags, dst)
                n_queued = 0
            end = n_queued + tail.size
            queued_x[n_queued:end] = tail_x
            np.add(tail, i, out=queued_at[n_queued:end])
            n_queued = end
        if n_queued:
            _erf_tail(queued_x[:n_queued], queued_at[:n_queued], z, w, flags, dst)
    return out


def _erf_tail(s: Array, at: Array, t: Array, p: Array, neg: Array, dst: Array):
    """dst[at] = ±(1 - erfc(|s|)) for 1 < |s|, the sign that of s, with
    cephes' erfc(a) = exp(-a²) P(a)/Q(a) and a = min(|s|, 6).

    Overwrites s; t, p and neg are scratch at least as long as s.
    """
    n = s.size
    t, p, neg = t[:n], p[:n], neg[:n]
    np.signbit(s, out=neg)
    np.abs(s, out=t)
    np.minimum(t, _ERF_SATURATES, out=t)
    np.multiply(t, t, out=s)
    np.negative(s, out=s)
    np.exp(s, out=s)
    s *= _polevl(t, _ERFC_P, p)
    s /= _p1evl(t, _ERFC_Q, p)
    np.subtract(1.0, s, out=s)
    # t is free again: it carries the sign (±0.5) to copysign.
    np.subtract(0.5, neg, out=t)
    dst[at] = np.copysign(s, t, out=s)


def gelu_cdf(x: Array) -> Array:
    """Standard normal CDF Phi(x), so that gelu(x) = x * Phi(x).

    Built in place on one buffer, in the operation order of
    0.5 * (1 + erf(x / sqrt(2))), with `erf` the cephes algorithm above.
    """
    # Into an array of x's shape: for a 0-d x, `x / math.sqrt(2.0)` would be
    # a numpy scalar, which no in-place step below can write into.
    t = np.divide(x, math.sqrt(2.0), out=np.empty_like(x))
    erf(t, out=t)
    t += 1.0
    t *= 0.5
    return t


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
    # upstream * (cdf + x * pdf) with pdf = exp(-x*x/2) / sqrt(2 pi), built in
    # one temporary in the same operation order (an array also for a 0-d x).
    t = np.multiply(x, -0.5, out=np.empty_like(x))
    t *= x
    np.exp(t, out=t)
    t /= math.sqrt(2.0 * math.pi)
    t *= x
    t += cdf
    t *= upstream
    return t


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
