"""The in-place kernels (the backwards and the LayerNorm forward) agree with
the out-of-place formulas they replaced, and write into no cached (tape)
array.

The references below are the kernels as they were before the rewrite: every
temporary allocated fresh, the LayerNorm forward centring its input twice,
and `head` mode computed over full B x h x N x d zero arrays. The attention
references read Q, K and V from the full forward projections, gathered to
the entries the masked backward reads; the kernel rebuilds those entries
from X. LayerNorm and GELU give the references' bytes. The attention kernel
agrees within the oracle tolerance: it takes the softmax row sums as
<dA, A> and sums dX in another order, so its last bits differ.
"""

import math

import numpy as np
import pytest

from sbp.layers import (
    LN_EPS,
    MhsaCache,
    MhsaGrads,
    MhsaLayer,
    _merge_heads,
    _split_heads,
    gelu_backward,
    gelu_cdf,
    layer_norm_backward,
    layer_norm_forward,
    mhsa_backward,
    mhsa_forward,
    mhsa_projections,
    select,
)
from sbp.masks import IndexMask, sample_grid_mask

from helpers import cut_cache, mhsa_backward_cut


def take(t, index, axis):
    return t if index is None else np.take(t, index, axis=axis)


def gathered_projections(layer, x, sel):
    """The full Q, K and V of x, gathered to the entries the masked backward
    under `sel` reads: token rows of all three, query rows of Q, heads of all
    three."""
    q, k, v = (take(t, sel.rows, 2) for t in mhsa_projections(layer, x))
    return tuple(take(t, sel.heads, 1) for t in (take(q, sel.queries, 2), k, v))


def old_mhsa_backward_full(layer, cache, upstream):
    h, d = layer.heads, layer.dim_head
    b, n, c = cache.x.shape
    q, k, v = mhsa_projections(layer, cache.x)
    x2 = cache.x.reshape(b * n, c)
    dw_o = _merge_heads(cache.a).reshape(b * n, h * d).T @ upstream.reshape(b * n, c)
    da = _split_heads(upstream @ layer.w_o.T, h, d)
    dv = cache.s.transpose(0, 1, 3, 2) @ da
    ds = da @ v.transpose(0, 1, 3, 2)
    dm = cache.s * (ds - (ds * cache.s).sum(axis=-1, keepdims=True))
    dq = dm @ k / math.sqrt(d)
    dk = dm.transpose(0, 1, 3, 2) @ q / math.sqrt(d)
    dq_f = _merge_heads(dq).reshape(b * n, h * d)
    dk_f = _merge_heads(dk).reshape(b * n, h * d)
    dv_f = _merge_heads(dv).reshape(b * n, h * d)
    dx = (dq_f @ layer.w_q.T + dk_f @ layer.w_k.T + dv_f @ layer.w_v.T).reshape(b, n, c)
    return MhsaGrads(x2.T @ dq_f, x2.T @ dk_f, x2.T @ dv_f, dw_o, dx)


def old_mhsa_backward_kept(layer, restricted, projections, upstream, keep, mode, head_keep):
    h, d = layer.heads, layer.dim_head
    q, k, v = projections
    scale = 1.0 / math.sqrt(d)
    b, n, c = upstream.shape
    if mode == "head":
        hk = np.asarray(sorted(head_keep or ()), dtype=np.int64)
        if hk.size == h:
            return old_mhsa_backward_full(layer, restricted, upstream)
    up = upstream[:, keep, :] if mode == "qkv" else upstream
    rows = up.shape[1]
    dw_o = _merge_heads(restricted.a).reshape(b * rows, h * d).T @ up.reshape(b * rows, c)
    da = _split_heads(up @ layer.w_o.T, h, d)
    if mode == "qkv":
        s_kk = restricted.s
        ds_kk = da @ v.transpose(0, 1, 3, 2)
        rowsum = (da * restricted.a).sum(axis=-1, keepdims=True)
        dm_kk = s_kk * (ds_kk - rowsum)
        dq = dm_kk @ k * scale
        dk = dm_kk.transpose(0, 1, 3, 2) @ q * scale
        dv = s_kk.transpose(0, 1, 3, 2) @ da
    elif mode == "query_only":
        dv = restricted.s.transpose(0, 1, 3, 2) @ da
        da_k = da[:, :, keep, :]
        s_k = restricted.s[:, :, keep, :]
        a_k = restricted.a[:, :, keep, :]
        ds_k = da_k @ v.transpose(0, 1, 3, 2)
        rowsum = (da_k * a_k).sum(axis=-1, keepdims=True)
        dm_k = s_k * (ds_k - rowsum)
        dk = dm_k.transpose(0, 1, 3, 2) @ q * scale
        dq = np.zeros((b, h, n, d))
        dq[:, :, keep, :] = dm_k @ k * scale
    else:
        dq = np.zeros((b, h, n, d))
        dk = np.zeros((b, h, n, d))
        dv = np.zeros((b, h, n, d))
        if hk.size:
            da_h = da[:, hk, :, :]
            s_h = restricted.s
            dv[:, hk, :, :] = s_h.transpose(0, 1, 3, 2) @ da_h
            ds_h = da_h @ v.transpose(0, 1, 3, 2)
            dm_h = s_h * (ds_h - (da_h * restricted.a[:, hk, :, :]).sum(axis=-1, keepdims=True))
            dq[:, hk, :, :] = dm_h @ k * scale
            dk[:, hk, :, :] = dm_h.transpose(0, 1, 3, 2) @ q * scale
    x2 = restricted.x.reshape(b * rows, c)
    dq_f = _merge_heads(dq).reshape(b * rows, h * d)
    dk_f = _merge_heads(dk).reshape(b * rows, h * d)
    dv_f = _merge_heads(dv).reshape(b * rows, h * d)
    dx = (dq_f @ layer.w_q.T + dk_f @ layer.w_k.T + dv_f @ layer.w_v.T).reshape(b, rows, c)
    if mode == "qkv":
        dx_k, dx = dx, np.zeros((b, n, c))
        dx[:, keep, :] = dx_k
    return MhsaGrads(x2.T @ dq_f, x2.T @ dk_f, x2.T @ dv_f, dw_o, dx)


def old_layer_norm_forward(x, gamma, beta):
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    x_hat = (x - mean) * inv_std
    return gamma * x_hat + beta, (x_hat, inv_std)


def old_layer_norm_backward(cache, gamma, upstream):
    x_hat, inv_std = cache
    axes = tuple(range(upstream.ndim - 1))
    dgamma = (upstream * x_hat).sum(axis=axes)
    dbeta = upstream.sum(axis=axes)
    dxhat = upstream * gamma
    dx = inv_std * (dxhat
                    - dxhat.mean(axis=-1, keepdims=True)
                    - x_hat * (dxhat * x_hat).mean(axis=-1, keepdims=True))
    return dgamma, dbeta, dx


def old_gelu_backward(x, upstream, cdf):
    pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return upstream * (cdf + x * pdf)


def same_bytes(a, b):
    """Equal shape and bytes: stricter than array_equal, it tells -0.0 from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_grads_close(new, old):
    for name in ("dw_q", "dw_k", "dw_v", "dw_o", "dx"):
        np.testing.assert_allclose(getattr(new, name), getattr(old, name), rtol=0, atol=1e-12,
                                   err_msg=name)


def snapshot(cache: MhsaCache):
    return {name: getattr(cache, name).copy() for name in ("x", "s", "a")}


def assert_cache_unchanged(cache: MhsaCache, before):
    for name, value in before.items():
        assert same_bytes(getattr(cache, name), value), f"backward wrote into cached {name}"


def backward_leaving_caches_unchanged(layer, cache, up, sel):
    """(gradients, cut cache) of the block's attention backward under `sel`,
    after checking that it wrote into neither the full cache nor its cut.
    The full cache is unchanged, so a second cut of it holds the cut's
    bytes as they were before the backward."""
    before_full = snapshot(cache)
    new, restricted = mhsa_backward_cut(layer, cache, up, sel)
    assert_cache_unchanged(cache, before_full)
    assert_cache_unchanged(restricted, snapshot(cut_cache(cache, sel)))
    return new, restricted


# (B, N, C, grid): the gradsim benchmark model and the 14x14 ViT, 2 heads each.
SHAPES = {"gradsim": (8, 64, 32, (8, 8)), "vit14": (16, 196, 64, (14, 14))}


def attention_case(shape, seed=0, heads=2):
    b, n, c, grid = SHAPES[shape]
    rng = np.random.Generator(np.random.PCG64(seed))
    d = c // heads
    w = [rng.normal(0.0, 1.0 / math.sqrt(c), (c, c)) for _ in range(4)]
    layer = MhsaLayer(heads, d, *w)
    _, cache = mhsa_forward(layer, rng.normal(size=(b, n, c)))
    return layer, cache, rng.normal(size=(b, n, c)), grid


def token_masks(grid):
    n = grid[0] * grid[1]
    return {"grid": sample_grid_mask(grid, 0.5, 3),
            "keep_first": IndexMask.from_keep(grid, [0]),
            "keep_last": IndexMask.from_keep(grid, [n - 1])}


@pytest.mark.parametrize("shape", sorted(SHAPES))
class TestAttention:
    def test_full(self, shape):
        layer, cache, up, _ = attention_case(shape)
        before = snapshot(cache)
        assert_grads_close(mhsa_backward(layer, cache, up),
                           old_mhsa_backward_full(layer, cache, up))
        assert_cache_unchanged(cache, before)

    @pytest.mark.parametrize("mode", ["qkv", "query_only"])
    @pytest.mark.parametrize("mask", ["grid", "keep_first", "keep_last"])
    def test_token_modes(self, shape, mode, mask):
        layer, cache, up, grid = attention_case(shape, seed=1)
        sel = select(token_masks(grid)[mask], mode)
        new, restricted = backward_leaving_caches_unchanged(layer, cache, up, sel)
        assert_grads_close(new, old_mhsa_backward_kept(
            layer, restricted, gathered_projections(layer, cache.x, sel), up, sel.keep, mode,
            None))

    @pytest.mark.parametrize("head_keep", [(), (0,), (1,), (0, 1)])
    def test_head_mode(self, shape, head_keep):
        layer, cache, up, grid = attention_case(shape, seed=2)
        sel = select(token_masks(grid)["grid"], "head", head_keep)
        new, restricted = backward_leaving_caches_unchanged(layer, cache, up, sel)
        assert_grads_close(new, old_mhsa_backward_kept(
            layer, restricted, gathered_projections(layer, cache.x, sel), up, sel.keep, "head",
            head_keep))
        d = layer.dim_head
        for h in set(range(layer.heads)) - set(head_keep):
            for dw in (new.dw_q, new.dw_k, new.dw_v):
                assert not dw[:, h * d:(h + 1) * d].any()


@pytest.mark.parametrize("shape", [(8, 64, 32), (16, 196, 64), (5, 7), (3, 4, 2, 33)])
def test_layer_norm_forward(shape):
    """The forward centres the input once, in place; np.var does the same
    inside, so y, x_hat and 1/sigma keep their bytes."""
    rng = np.random.Generator(np.random.PCG64(3))
    x = 2.0 + 3.0 * rng.normal(size=shape)
    gamma, beta = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
    x0 = x.copy()
    y, cache = layer_norm_forward(x, gamma, beta)
    y_old, cache_old = old_layer_norm_forward(x, gamma, beta)
    assert same_bytes(x, x0)
    assert same_bytes(y, y_old)
    assert all(same_bytes(a, b_) for a, b_ in zip(cache, cache_old))


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_layer_norm_backward(shape):
    b, n, c, _ = SHAPES[shape]
    rng = np.random.Generator(np.random.PCG64(4))
    gamma = rng.normal(size=c)
    _, cache = layer_norm_forward(rng.normal(size=(b, n, c)), gamma, rng.normal(size=c))
    up = rng.normal(size=(b, n, c))
    before = [t.copy() for t in cache]
    new = layer_norm_backward(cache, gamma, up)
    assert all(same_bytes(t, t0) for t, t0 in zip(cache, before))
    for a, b_ in zip(new, old_layer_norm_backward(cache, gamma, up)):
        assert same_bytes(a, b_)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_gelu_backward(shape):
    b, n, c, _ = SHAPES[shape]
    rng = np.random.Generator(np.random.PCG64(5))
    u = 3.0 * rng.normal(size=(b, n, 2 * c))
    cdf = gelu_cdf(u)
    up = rng.normal(size=u.shape)
    u0, cdf0, up0 = u.copy(), cdf.copy(), up.copy()
    new = gelu_backward(u, up, cdf)
    assert same_bytes(u, u0) and same_bytes(cdf, cdf0) and same_bytes(up, up0)
    assert same_bytes(new, old_gelu_backward(u, up, cdf))
