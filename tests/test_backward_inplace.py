"""The in-place kernels (the backwards and the LayerNorm forward) agree with
the out-of-place formulas they replaced, and write into no cached (tape)
array. The one write into a record, a masked token unit's input gradient
over its kept rows, happens only when the record is spent (see
`engine.backward`), and gives the bits of every other backward.

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
from sbp.engine import backward, forward, resolve
from sbp.layers import linear_backward_kept
from sbp.masks import IndexMask, build_schedule, full_keep_mask, make_mask_plan, sample_grid_mask
from sbp.models import (
    Rows,
    TokenLinearNode,
    build_model,
    mlp_spec,
    tiny_conv_spec,
    tiny_vit_spec,
)

from helpers import assert_records_unchanged, cut_cache, mhsa_backward_cut, snapshot_records


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


@pytest.mark.parametrize("has_bias", [True, False])
@pytest.mark.parametrize("shape", [(1, 1, 5, 3), (1, 4, 5, 3), (3, 4, 6, 6), (2, 7, 4, 9)])
def test_linear_backward_kept_into_x(shape, has_bias):
    """dX written over x (`out=x`) has the bits of the new dX, also for one
    row in all (a matrix-vector product); without `out` x stays as it was."""
    b, k, c_in, c_out = shape
    rng = np.random.Generator(np.random.PCG64(6))
    x = rng.normal(size=(b, k, c_in))
    dy, w = rng.normal(size=(b, k, c_out)), rng.normal(size=(c_in, c_out))
    x0 = x.copy()
    want = linear_backward_kept(x, dy, w, has_bias)
    assert same_bytes(x, x0) and not np.shares_memory(want[2], x)
    got = linear_backward_kept(x, dy, w, has_bias, out=x)
    assert np.shares_memory(got[2], x)
    for a, b_ in zip(got, want):
        assert a is b_ is None or same_bytes(a, b_)


# Spent records, on three-unit token MLPs and small vit and conv models.
SPEND_SPECS = {
    "mlp": mlp_spec(grid=(4, 4), in_channels=2, width=6, depth=3),
    "vit": tiny_vit_spec(grid=(4, 4), in_channels=2, embed=8, heads=2, depth=3,
                         sbp_fraction=2 / 3),
    "conv": tiny_conv_spec(grid=(4, 4), in_channels=2, channels=3, depth=2),
}
# Independent random masks under the increasing schedule (the benchmark's
# sampling), shared grid masks, one kept token per masked node, and masks
# that keep everything.
MASKS = ["random", "grid", "one-token", "full-keep"]


def spend_case(spec, masks, b):
    """(model, x, labels, selection map) for one spec, kind of masks and batch."""
    model = build_model(SPEND_SPECS[spec], 4)
    layers = model.sbp_layers()
    if masks in ("random", "grid"):
        schedule = build_schedule("increasing" if masks == "random" else "uniform", 0.5,
                                  len(layers))
        sharing = "independent" if masks == "random" else "shared"
        plan = make_mask_plan(model, schedule, masks, sharing, 11)
    elif masks == "one-token":
        plan = {node_id: IndexMask.from_keep(grid, [int(np.prod(grid)) // 3])
                for node_id, grid in layers}
    else:
        plan = {node_id: full_keep_mask(grid) for node_id, grid in layers}
    rng = np.random.Generator(np.random.PCG64(b))
    x, labels = rng.normal(size=(b, 4, 4, 2)), rng.integers(0, 2, size=b)
    return model, x, labels, resolve(model, plan, "qkv", 0, 0)


def assert_same_gradients(got, want):
    """Equal gradient stores and input gradients, bit for bit."""
    (store, dx), (store_want, dx_want) = got, want
    assert store.keys() == store_want.keys()
    for key in store_want.keys():
        assert same_bytes(store[key], store_want[key]), key
    assert same_bytes(dx, dx_want)


@pytest.mark.parametrize("b", [1, 3, 5])
@pytest.mark.parametrize("masks", MASKS)
def test_consumed_backward_equals_kept_tape(masks, b):
    """A planned tape's backward that leaves it for another, then the one
    that consumes it: the same bits, since only the second writes over it."""
    model, x, labels, plan = spend_case("mlp", masks, b)
    tape = forward(model, x, labels, plan=plan)
    kept = backward(tape, want_input_grad=True)
    consumed = backward(tape, want_input_grad=True, consume=True)
    assert not tape.records
    assert_same_gradients(consumed, kept)


@pytest.mark.parametrize("b", [1, 3, 5])
@pytest.mark.parametrize("masks", MASKS)
def test_restricted_copy_equals_consumed_planned_tape(masks, b):
    """The backward of an exact tape under a plan, which spends the copies
    it restricts, equals the planned tape's, kept and then consumed; the
    exact tape serves a second plan backward with the same bits."""
    model, x, labels, plan = spend_case("mlp", masks, b)
    exact = forward(model, x, labels)
    want = backward(exact, plan, want_input_grad=True)
    tape = forward(model, x, labels, plan=plan)
    assert_same_gradients(backward(tape, want_input_grad=True), want)
    assert_same_gradients(backward(tape, want_input_grad=True, consume=True), want)
    assert_same_gradients(backward(exact, plan, want_input_grad=True), want)


@pytest.mark.parametrize("spec, masks", [("mlp", m) for m in MASKS] + [
    ("vit", "grid"), ("vit", "full-keep"), ("conv", "grid"), ("conv", "full-keep")])
def test_backward_that_does_not_consume_leaves_every_record(spec, masks):
    """Exact and planned tapes keep every record's bytes through backwards
    without consume, with and without a plan."""
    model, x, labels, plan = spend_case(spec, masks, 5)
    exact, planned = forward(model, x, labels), forward(model, x, labels, plan=plan)
    exact_before, planned_before = snapshot_records(exact), snapshot_records(planned)
    backward(exact)
    backward(exact, plan)
    backward(planned)
    assert_records_unchanged(exact, exact_before)
    assert_records_unchanged(planned, planned_before)


@pytest.mark.parametrize("masks", MASKS)
def test_spent_unit_returns_its_kept_rows(masks, monkeypatch):
    """A masked unit's input gradient is written over its record's kept rows
    when the record is spent (consumed, or restricted in the call), and
    never over a full-keep record's input or a record left for another
    backward."""
    model, x, labels, plan = spend_case("mlp", masks, 3)
    seen = []
    unit_backward = TokenLinearNode.backward

    def spy(node, rec, dy):
        x_k = rec.cache["x"]
        grads, dx = unit_backward(node, rec, dy)
        seen.append((rec.spent, dx, x_k))
        return grads, dx

    monkeypatch.setattr(TokenLinearNode, "backward", spy)
    tape, exact = forward(model, x, labels, plan=plan), forward(model, x, labels)
    for spent, run in [(False, lambda: backward(tape)), (True, lambda: backward(exact, plan)),
                       (True, lambda: backward(tape, consume=True))]:
        seen.clear()
        run()
        assert len(seen) == 3
        for rec_spent, dx, x_k in seen:
            assert rec_spent == spent
            if masks == "full-keep":
                assert not isinstance(dx, Rows) and not np.shares_memory(dx, x_k)
            else:
                assert isinstance(dx, Rows) and np.shares_memory(dx.values, x_k) == spent
