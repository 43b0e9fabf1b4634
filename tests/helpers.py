"""Independent reference implementations (oracles) used across the test suite.

Everything here is deliberately naive: explicit loops and full-shaped arrays
with explicit zeroing. The attention, token-linear and conv node references
share no code path with the library; the transformer block reference builds
on the attention one and on the library's LayerNorm and GELU, which are
checked on their own. `cut_cache` and `mhsa_backward_cut` are no oracles:
they are the attention backward as the transformer block runs it.
`snapshot_records` and `assert_records_unchanged` check that a backward
left a tape's records as they were.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from sbp.layers import (
    MhsaCache,
    MhsaLayer,
    _merge_heads,
    _split_heads,
    gelu_backward,
    gelu_forward,
    layer_norm_backward,
    layer_norm_forward,
    mhsa_backward,
    mhsa_forward,
    restrict_attention,
)


def naive_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def naive_conv2d(x, w, stride, padding):
    """Six-loop cross-correlation. x: B,H,W,C; w: k,k,C,Co."""
    b, h, wd, c = x.shape
    k = w.shape[0]
    co = w.shape[3]
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    ho = (h + 2 * padding - k) // stride + 1
    wo = (wd + 2 * padding - k) // stride + 1
    out = np.zeros((b, ho, wo, co))
    for bi in range(b):
        for oi in range(ho):
            for oj in range(wo):
                for a in range(k):
                    for bb in range(k):
                        for ci in range(c):
                            out[bi, oi, oj, :] += (
                                xp[bi, oi * stride + a, oj * stride + bb, ci]
                                * w[a, bb, ci, :])
    return out


def fd_grad(f, x, eps=1e-6):
    """Central finite differences of scalar f at array x."""
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * eps)
    return g


def softmax_rows(m):
    e = np.exp(m - m.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def mhsa_full_reference(layer: MhsaLayer, x, upstream):
    """Straightforward attention backward from first principles."""
    h, d = layer.heads, layer.dim_head
    b, n, c = x.shape
    q = _split_heads(x @ layer.w_q, h, d)
    k = _split_heads(x @ layer.w_k, h, d)
    v = _split_heads(x @ layer.w_v, h, d)
    s = softmax_rows(q @ k.transpose(0, 1, 3, 2) / math.sqrt(d))
    a = s @ v
    da = _split_heads(upstream @ layer.w_o.T, h, d)
    dv = s.transpose(0, 1, 3, 2) @ da
    ds = da @ v.transpose(0, 1, 3, 2)
    dm = s * (ds - (ds * s).sum(axis=-1, keepdims=True))
    dq = dm @ k / math.sqrt(d)
    dk = dm.transpose(0, 1, 3, 2) @ q / math.sqrt(d)
    x2 = x.reshape(b * n, c)
    dw_o = _merge_heads(a).reshape(b * n, h * d).T @ upstream.reshape(b * n, c)
    dq_f = _merge_heads(dq).reshape(b * n, h * d)
    dk_f = _merge_heads(dk).reshape(b * n, h * d)
    dv_f = _merge_heads(dv).reshape(b * n, h * d)
    dx = (dq_f @ layer.w_q.T + dk_f @ layer.w_k.T + dv_f @ layer.w_v.T).reshape(b, n, c)
    return {"dw_q": x2.T @ dq_f, "dw_k": x2.T @ dk_f, "dw_v": x2.T @ dv_f,
            "dw_o": dw_o, "dx": dx}


def mhsa_sbp_reference(layer: MhsaLayer, x, upstream, drop, mode, head_drop=()):
    """Masked attention backward by explicit zeroing of full-shaped tensors.

    query_only: zero dM rows at dropped queries after the softmax Jacobian.
    qkv: zero upstream dA rows, dV rows, and dM rows AND columns at dropped
         tokens.
    head: zero dM and dV entirely for dropped heads; dW_O stays exact.
    """
    h, d = layer.heads, layer.dim_head
    b, n, c = x.shape
    drop = np.asarray(drop, dtype=np.int64)
    q = _split_heads(x @ layer.w_q, h, d)
    k = _split_heads(x @ layer.w_k, h, d)
    v = _split_heads(x @ layer.w_v, h, d)
    s = softmax_rows(q @ k.transpose(0, 1, 3, 2) / math.sqrt(d))
    a = s @ v

    up = np.array(upstream)
    if mode == "qkv":
        up[:, drop, :] = 0.0
    da = _split_heads(up @ layer.w_o.T, h, d)
    x2 = x.reshape(b * n, c)
    dw_o = _merge_heads(a).reshape(b * n, h * d).T @ up.reshape(b * n, c)

    dv = s.transpose(0, 1, 3, 2) @ da
    ds = da @ v.transpose(0, 1, 3, 2)
    dm = s * (ds - (ds * s).sum(axis=-1, keepdims=True))
    if mode == "query_only":
        dm[:, :, drop, :] = 0.0
    elif mode == "qkv":
        dm[:, :, drop, :] = 0.0
        dm[:, :, :, drop] = 0.0
        dv[:, :, drop, :] = 0.0
    elif mode == "head":
        hd_drop = np.asarray(head_drop, dtype=np.int64)
        dm[:, hd_drop, :, :] = 0.0
        dv[:, hd_drop, :, :] = 0.0
    else:
        raise ValueError(mode)
    dq = dm @ k / math.sqrt(d)
    dk = dm.transpose(0, 1, 3, 2) @ q / math.sqrt(d)
    dq_f = _merge_heads(dq).reshape(b * n, h * d)
    dk_f = _merge_heads(dk).reshape(b * n, h * d)
    dv_f = _merge_heads(dv).reshape(b * n, h * d)
    dx = (dq_f @ layer.w_q.T + dk_f @ layer.w_k.T + dv_f @ layer.w_v.T).reshape(b, n, c)
    return {"dw_q": x2.T @ dq_f, "dw_k": x2.T @ dk_f, "dw_v": x2.T @ dv_f,
            "dw_o": dw_o, "dx": dx}


def token_linear_reference(w, b, x, upstream, drop):
    """(dW, db, dX) of gelu(x @ w + b) over B x N x C token rows, from a full
    backward whose upstream is zeroed at the dropped token rows `drop`.
    gelu'(u) = Phi(u) + u phi(u) with Phi from math.erf."""
    u = x @ w + b
    cdf = 0.5 * (1.0 + np.vectorize(math.erf)(u / math.sqrt(2.0)))
    pdf = np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    up = np.array(upstream)
    up[:, drop, :] = 0.0
    du = (up * (cdf + u * pdf)).reshape(-1, w.shape[1])
    x2 = x.reshape(-1, w.shape[0])
    return x2.T @ du, du.sum(axis=0), (du @ w.T).reshape(x.shape)


def conv_node_reference(w, x, upstream, drop):
    """(dW, dX) of gelu(conv(x, w)), stride 1 and padding k // 2, over a
    B x H x W x C grid, from a full backward whose upstream is zeroed at the
    dropped flat output positions `drop`. The conv and its backward are
    explicit loops; gelu'(u) = Phi(u) + u phi(u) with Phi from math.erf."""
    k, p = w.shape[0], w.shape[0] // 2
    u = naive_conv2d(x, w, 1, p)
    b, ho, wo, co = u.shape
    cdf = 0.5 * (1.0 + np.vectorize(math.erf)(u / math.sqrt(2.0)))
    pdf = np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    du = upstream * (cdf + u * pdf)
    for i in drop:
        du[:, i // wo, i % wo, :] = 0.0
    xp = np.pad(x, ((0, 0), (p, p), (p, p), (0, 0)))
    dw, dxp = np.zeros(w.shape), np.zeros(xp.shape)
    for bi in range(b):
        for oi in range(ho):
            for oj in range(wo):
                for a in range(k):
                    for bb in range(k):
                        dw[a, bb] += np.outer(xp[bi, oi + a, oj + bb], du[bi, oi, oj])
                        dxp[bi, oi + a, oj + bb] += w[a, bb] @ du[bi, oi, oj]
    h, wd = x.shape[1:3]
    return dw, dxp[:, p:p + h, p:p + wd]


def block_reference(block, x, dy, mask, mode, head_keep=None):
    """(grads, dX) of a transformer block on input x under `mask` and drop
    mode `mode`, by explicit zeroing: the MLP branch's upstream is zeroed at
    the dropped token rows, the residual passes the whole upstream on, and
    the attention gradient is `mhsa_sbp_reference`'s. In head mode,
    `head_keep` lists the kept heads (None keeps them all)."""
    drop = mask.drop_array()
    h1, ln1c = layer_norm_forward(x, block.ln1_g, block.ln1_b)
    att, _ = mhsa_forward(block._mhsa(), h1)
    x2 = x + att
    h2, ln2c = layer_norm_forward(x2, block.ln2_g, block.ln2_b)
    b, n, c = x.shape
    u = (h2.reshape(b * n, c) @ block.w1 + block.b1).reshape(b, n, -1)
    g = gelu_forward(u)

    up = np.array(dy)
    up[:, drop, :] = 0.0
    grads = {}
    dmo = up.reshape(b * n, c)
    grads["w2"] = g.reshape(b * n, -1).T @ dmo
    grads["b2"] = dmo.sum(axis=0)
    dg = (dmo @ block.w2.T).reshape(b, n, -1)
    du = gelu_backward(u, dg)
    du_f = du.reshape(b * n, -1)
    grads["w1"] = h2.reshape(b * n, c).T @ du_f
    grads["b1"] = du_f.sum(axis=0)
    dh2 = (du_f @ block.w1.T).reshape(b, n, c)
    grads["ln2_g"], grads["ln2_b"], dx2a = layer_norm_backward(ln2c, block.ln2_g, dh2)
    dx2 = dy + dx2a

    head_drop = ()
    if mode == "head" and head_keep is not None:
        head_drop = tuple(sorted(set(range(block.heads)) - set(head_keep)))
    mg = mhsa_sbp_reference(block._mhsa(), h1, dx2, drop, mode, head_drop)
    grads["w_q"], grads["w_k"] = mg["dw_q"], mg["dw_k"]
    grads["w_v"], grads["w_o"] = mg["dw_v"], mg["dw_o"]
    grads["ln1_g"], grads["ln1_b"], dxa = layer_norm_backward(ln1c, block.ln1_g, mg["dx"])
    return grads, dx2 + dxa


def cut_cache(cache, sel):
    """The part of a full attention cache the transformer block hands
    `mhsa_backward` under the selection `sel`: X on the token rows the
    backward covers, S and A as `restrict_attention` leaves them."""
    x = cache.x if sel.rows is None else cache.x[:, sel.rows]
    return MhsaCache(x, *restrict_attention(cache.s, cache.a, sel))


def mhsa_backward_cut(layer, cache, upstream, sel):
    """The attention backward as the transformer block runs it under `sel`,
    from a full cache and a B x N x C upstream: `mhsa_backward` on the cut
    cache and the upstream's rows it covers, and dX scattered back into a
    zero B x N x C array. Returns (gradients, the cut cache)."""
    rows = sel.rows
    cut = cut_cache(cache, sel)
    grads = mhsa_backward(layer, cut, upstream if rows is None else upstream[:, rows],
                          sel.queries, sel.heads)
    if rows is not None:  # dropped token rows get no input gradient
        dx, grads.dx = grads.dx, np.zeros(upstream.shape)
        grads.dx[:, rows] = dx
    return grads, cut


def zero_dropped(up, mask):
    """A copy of a B x H x W x C upstream, zero at the mask's dropped output
    positions: the upstream a masked conv backward runs on."""
    b, h, w, c = up.shape
    out = up.reshape(b, h * w, c).copy()
    out[:, mask.drop_array(), :] = 0.0
    return out.reshape(up.shape)


def random_mask(rng, shape, allow_extremes=False):
    from sbp.masks import IndexMask

    total = int(np.prod(shape))
    lo, hi = (0, total) if allow_extremes else (1, max(1, total - 1))
    m = int(rng.integers(lo, hi + 1))
    keep = rng.choice(total, size=m, replace=False)
    return IndexMask.from_keep(shape, keep)


def rounds_up_to(value, published, decimals):
    """True when `value` rounded up at `decimals` places is the `published` figure.

    The published memory ratios are read as rounded up (never understating
    memory), so the accepted window is one last-digit unit wide:
    (published - 10**-decimals, published]. The comparison is exact: pass a
    Fraction for an exact closed form; a float is taken at its exact binary
    value.
    """
    scale = 10 ** decimals
    return Fraction(math.ceil(Fraction(value) * scale), scale) == Fraction(str(published))


def snapshot_records(tape):
    """A copy of every array of every record on the tape, by position and name."""
    return [{name: a.copy() for name, a in rec.cache.items()} for _, rec in tape.records]


def assert_records_unchanged(tape, before):
    """Every record holds the names, shapes and bytes it held at `snapshot_records`."""
    assert len(tape.records) == len(before)
    for (node, rec), cache in zip(tape.records, before):
        assert rec.cache.keys() == cache.keys(), node.node_id
        for name, a in cache.items():
            got = rec.cache[name]
            assert got.shape == a.shape and got.tobytes() == a.tobytes(), \
                f"backward wrote into {node.node_id}.{name}"
