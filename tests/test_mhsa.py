import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sbp.errors import ConfigurationError, DimensionError
from sbp.layers import (
    MhsaLayer,
    mhsa_backward,
    mhsa_forward,
    sample_head_keep,
    select,
)
from sbp.masks import IndexMask, full_keep_mask

from helpers import (
    cut_cache,
    fd_grad,
    mhsa_backward_cut,
    mhsa_full_reference,
    mhsa_sbp_reference,
    random_mask,
    softmax_rows,
)


def make_layer(rng, c, heads, dim_head):
    hd = heads * dim_head
    return MhsaLayer(heads, dim_head,
                     rng.normal(size=(c, hd)) / math.sqrt(c),
                     rng.normal(size=(c, hd)) / math.sqrt(c),
                     rng.normal(size=(c, hd)) / math.sqrt(c),
                     rng.normal(size=(hd, c)) / math.sqrt(hd))


def grads_as_dict(g):
    return {"dw_q": g.dw_q, "dw_k": g.dw_k, "dw_v": g.dw_v,
            "dw_o": g.dw_o, "dx": g.dx}


def backward_as_block(layer, cache, up, mask, mode, head_keep=None):
    """The block's attention backward under `mode`, from a full cache, with
    dX over all N rows."""
    return grads_as_dict(mhsa_backward_cut(layer, cache, up, select(mask, mode, head_keep))[0])


def poison_dropped_slots(p, keep, mode, head_keep):
    """Write NaN, in place, into every slot of a full cache that the
    restriction drops (in place keeps each tensor's memory layout). Q, K and
    V are rebuilt from X's kept rows; query_only reads X, S and A whole."""
    if mode == "qkv":
        drop = np.setdiff1d(np.arange(p.x.shape[1]), keep)
        p.x[:, drop, :] = np.nan
        p.a[:, :, drop, :] = np.nan
        p.s[:, :, drop, :] = np.nan
        p.s[:, :, :, drop] = np.nan
    elif mode == "head":
        p.s[:, np.setdiff1d(np.arange(p.s.shape[1]), head_keep), :, :] = np.nan


# (mode, kept tokens of 6, kept heads of 3); head mode ignores the token mask.
KEPT_CASES = [
    ("qkv", [1, 2, 5], None),
    ("qkv", [4], None),
    ("query_only", [0, 3, 4], None),
    ("query_only", [2], None),
    ("head", list(range(6)), (0, 2)),
    ("head", list(range(6)), (1,)),
    ("head", list(range(6)), ()),
]


class TestForward:
    def test_matches_first_principles(self):
        rng = np.random.Generator(np.random.PCG64(0))
        layer = make_layer(rng, 6, 2, 3)
        x = rng.normal(size=(2, 5, 6))
        out, cache = mhsa_forward(layer, x)
        from sbp.layers import _merge_heads, _split_heads
        q = _split_heads(x @ layer.w_q, 2, 3)
        k = _split_heads(x @ layer.w_k, 2, 3)
        v = _split_heads(x @ layer.w_v, 2, 3)
        s = softmax_rows(q @ k.transpose(0, 1, 3, 2) / math.sqrt(3))
        np.testing.assert_allclose(out, _merge_heads(s @ v) @ layer.w_o, atol=1e-12)
        np.testing.assert_allclose(cache.s, s, atol=1e-12)
        np.testing.assert_allclose(cache.s.sum(axis=-1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("b, n, c, h, d", [
        (2, 6, 6, 3, 2), (1, 5, 8, 2, 4), (3, 1, 4, 1, 4), (2, 17, 12, 4, 3)])
    @pytest.mark.parametrize("max_logit", [None, 700.0])
    def test_in_place_softmax_equals_out_of_place(self, b, n, c, h, d, max_logit):
        """The forward's in-place softmax gives the bytes of the out-of-place
        formula that kept the logits, also with logits near +-700."""
        rng = np.random.Generator(np.random.PCG64(n * 31 + h))
        layer = make_layer(rng, c, h, d)
        x = rng.normal(size=(b, n, c))

        def split(t):
            return t.reshape(b, n, h, d).transpose(0, 2, 1, 3)

        def logits(x):
            return split(x @ layer.w_q) @ split(x @ layer.w_k).transpose(0, 1, 3, 2) / math.sqrt(d)

        if max_logit is not None:  # logits scale with the square of x
            x = x * math.sqrt(max_logit / np.abs(logits(x)).max())
        m = logits(x)
        m_shift = m - m.max(axis=-1, keepdims=True)
        e = np.exp(m_shift)
        s = e / e.sum(axis=-1, keepdims=True)
        if max_logit is not None:
            assert 650.0 < np.abs(m).max() < 750.0
        _, cache = mhsa_forward(layer, x)
        np.testing.assert_array_equal(cache.s, s)

    def test_input_width_checked(self):
        rng = np.random.Generator(np.random.PCG64(1))
        layer = make_layer(rng, 6, 2, 3)
        with pytest.raises(DimensionError):
            mhsa_forward(layer, np.zeros((1, 4, 5)))


class TestBackwardFull:
    def test_matches_reference(self):
        rng = np.random.Generator(np.random.PCG64(2))
        layer = make_layer(rng, 6, 2, 3)
        x = rng.normal(size=(2, 5, 6))
        up = rng.normal(size=(2, 5, 6))
        _, cache = mhsa_forward(layer, x)
        got = grads_as_dict(mhsa_backward(layer, cache, up))
        ref = mhsa_full_reference(layer, x, up)
        for key in ref:
            np.testing.assert_allclose(got[key], ref[key], atol=1e-10)

    def test_matches_finite_differences(self):
        rng = np.random.Generator(np.random.PCG64(3))
        layer = make_layer(rng, 4, 2, 2)
        x = rng.normal(size=(1, 4, 4))
        up = rng.normal(size=(1, 4, 4))

        def loss():
            out, _ = mhsa_forward(layer, x)
            return float((out * up).sum())

        _, cache = mhsa_forward(layer, x)
        g = mhsa_backward(layer, cache, up)
        np.testing.assert_allclose(g.dw_q, fd_grad(loss, layer.w_q), rtol=1e-4, atol=1e-6)
        np.testing.assert_allclose(g.dw_k, fd_grad(loss, layer.w_k), rtol=1e-4, atol=1e-6)
        np.testing.assert_allclose(g.dw_v, fd_grad(loss, layer.w_v), rtol=1e-4, atol=1e-6)
        np.testing.assert_allclose(g.dw_o, fd_grad(loss, layer.w_o), rtol=1e-4, atol=1e-6)
        np.testing.assert_allclose(g.dx, fd_grad(loss, x), rtol=1e-4, atol=1e-6)


class TestBackwardSbp:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), mode=st.sampled_from(["query_only", "qkv"]))
    def test_equals_explicit_zeroing_oracle(self, seed, mode):
        rng = np.random.Generator(np.random.PCG64(seed))
        layer = make_layer(rng, 6, 2, 3)
        n = int(rng.integers(3, 8))
        x = rng.normal(size=(2, n, 6))
        up = rng.normal(size=(2, n, 6))
        _, cache = mhsa_forward(layer, x)
        mask = random_mask(rng, (n,))
        got = backward_as_block(layer, cache, up, mask, mode)
        ref = mhsa_sbp_reference(layer, x, up, mask.drop_array(), mode)
        for key in ref:
            np.testing.assert_allclose(got[key], ref[key], atol=1e-12, err_msg=key)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), n_keep_heads=st.integers(0, 3))
    def test_head_mode_equals_explicit_zeroing(self, seed, n_keep_heads):
        rng = np.random.Generator(np.random.PCG64(seed))
        heads = 3
        layer = make_layer(rng, 6, heads, 2)
        x = rng.normal(size=(2, 4, 6))
        up = rng.normal(size=(2, 4, 6))
        _, cache = mhsa_forward(layer, x)
        head_keep = tuple(sorted(
            int(i) for i in rng.choice(heads, size=n_keep_heads, replace=False)))
        head_drop = tuple(sorted(set(range(heads)) - set(head_keep)))
        got = backward_as_block(layer, cache, up, full_keep_mask((4,)), "head", head_keep)
        ref = mhsa_sbp_reference(layer, x, up, [], "head", head_drop=head_drop)
        for key in ref:
            np.testing.assert_allclose(got[key], ref[key], atol=1e-12, err_msg=key)

    def test_query_only_value_path_exact(self):
        rng = np.random.Generator(np.random.PCG64(5))
        layer = make_layer(rng, 6, 2, 3)
        x = rng.normal(size=(2, 6, 6))
        up = rng.normal(size=(2, 6, 6))
        _, cache = mhsa_forward(layer, x)
        mask = IndexMask.from_keep((6,), [0, 3, 4])
        g_full = mhsa_backward(layer, cache, up)
        g = backward_as_block(layer, cache, up, mask, "query_only")
        np.testing.assert_allclose(g["dw_v"], g_full.dw_v, atol=1e-12)
        np.testing.assert_allclose(g["dw_o"], g_full.dw_o, atol=1e-12)

    def test_head_mode_output_projection_exact(self):
        rng = np.random.Generator(np.random.PCG64(6))
        layer = make_layer(rng, 6, 3, 2)
        x = rng.normal(size=(1, 4, 6))
        up = rng.normal(size=(1, 4, 6))
        _, cache = mhsa_forward(layer, x)
        g_full = mhsa_backward(layer, cache, up)
        g = backward_as_block(layer, cache, up, full_keep_mask((4,)), "head", (1,))
        np.testing.assert_allclose(g["dw_o"], g_full.dw_o, atol=1e-12)

    def test_qkv_memory_contract_nan_poison(self):
        """qkv reads only kept rows of X and A and the kept block of S; Q, K
        and V are rebuilt from X's kept rows."""
        rng = np.random.Generator(np.random.PCG64(7))
        layer = make_layer(rng, 6, 2, 3)
        n = 6
        x = rng.normal(size=(2, n, 6))
        up = rng.normal(size=(2, n, 6))
        _, cache = mhsa_forward(layer, x)
        mask = IndexMask.from_keep((n,), [1, 2, 5])
        clean = backward_as_block(layer, cache, up, mask, "qkv")
        drop = mask.drop_array()
        cache.x[:, drop, :] = np.nan
        cache.a[:, :, drop, :] = np.nan
        cache.s[:, :, drop, :] = np.nan
        cache.s[:, :, :, drop] = np.nan
        poisoned = backward_as_block(layer, cache, up, mask, "qkv")
        for key in clean:
            np.testing.assert_array_equal(poisoned[key], clean[key], err_msg=key)

    @pytest.mark.parametrize("mode, keep, head_keep", KEPT_CASES)
    def test_kept_backward_matches_poisoned_full_cache(self, mode, keep, head_keep):
        rng = np.random.Generator(np.random.PCG64(12))
        layer = make_layer(rng, 6, 3, 2)
        x = rng.normal(size=(2, 6, 6))
        up = rng.normal(size=(2, 6, 6))
        _, cache = mhsa_forward(layer, x)
        mask = IndexMask.from_keep((6,), keep)
        kept = backward_as_block(layer, cache, up, mask, mode, head_keep)
        poison_dropped_slots(cache, np.asarray(keep), mode, head_keep)
        poisoned = backward_as_block(layer, cache, up, mask, mode, head_keep)
        for key in kept:
            assert np.all(np.isfinite(kept[key])), key
            np.testing.assert_array_equal(kept[key], poisoned[key], err_msg=key)

    @pytest.mark.parametrize("mode, keep, head_keep", KEPT_CASES)
    def test_restricted_cache_shapes(self, mode, keep, head_keep):
        rng = np.random.Generator(np.random.PCG64(13))
        b, n, c, h, d = 2, 6, 6, 3, 2
        _, cache = mhsa_forward(make_layer(rng, c, h, d), rng.normal(size=(b, n, c)))
        r = cut_cache(cache, select(IndexMask.from_keep((n,), keep), mode, head_keep))
        got = {name: getattr(r, name).shape for name in ("x", "s", "a")}
        nk, hk = len(keep), len(head_keep or ())
        expected = {
            "qkv": dict(x=(b, nk, c), s=(b, h, nk, nk), a=(b, h, nk, d)),
            "query_only": dict(x=(b, n, c), s=(b, h, n, n), a=(b, h, n, d)),
            "head": dict(x=(b, n, c), s=(b, hk, n, n), a=(b, h, n, d)),
        }[mode]
        assert got == expected

    def test_full_keep_dispatches(self):
        rng = np.random.Generator(np.random.PCG64(8))
        layer = make_layer(rng, 6, 2, 3)
        x = rng.normal(size=(1, 4, 6))
        up = rng.normal(size=(1, 4, 6))
        _, cache = mhsa_forward(layer, x)
        g_full = grads_as_dict(mhsa_backward(layer, cache, up))
        for mode in ("query_only", "qkv"):
            g = backward_as_block(layer, cache, up, full_keep_mask((4,)), mode)
            for key in g_full:
                assert np.array_equal(g[key], g_full[key])
        g = backward_as_block(layer, cache, up, full_keep_mask((4,)), "head", (0, 1))
        for key in g_full:
            assert np.array_equal(g[key], g_full[key])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown drop mode"):
            select(full_keep_mask((4,)), "rows")


class TestSampleHeadKeep:
    def test_drop_count_ceil(self):
        # r = 0.5 over 3 heads drops ceil(1.5) = 2, keeping one
        assert len(sample_head_keep(3, 0.5, 0)) == 1
        assert len(sample_head_keep(4, 0.5, 0)) == 2
        assert sample_head_keep(2, 1.0, 0) == (0, 1)

    def test_all_dropped_possible(self):
        assert sample_head_keep(2, 0.0, 0) == ()

    def test_deterministic_in_seed(self):
        assert sample_head_keep(8, 0.5, 7) == sample_head_keep(8, 0.5, 7)
        picks = {sample_head_keep(8, 0.5, s) for s in range(20)}
        assert len(picks) > 1
