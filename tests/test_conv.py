import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sbp.engine import resolve
from sbp.errors import ConfigurationError, DimensionError
from sbp.layers import (EXACT, Conv2dLayer, conv2d_backward, conv2d_forward, conv2d_output_grid,
                        select)
from sbp.masks import IndexMask, checkerboard_mask, full_keep_mask
from sbp.models import Conv2dNode, build_model, tiny_conv_spec

from helpers import conv_node_reference, fd_grad, naive_conv2d, random_mask, zero_dropped


def make_layer(rng, k, c_in, c_out, stride=1, padding=0):
    return Conv2dLayer(rng.normal(size=(k, k, c_in, c_out)),
                       stride=stride, padding=padding)


class TestForward:
    @pytest.mark.parametrize("k,stride,padding,h,w", [
        (1, 1, 0, 4, 4),
        (2, 2, 0, 4, 6),
        (3, 1, 1, 5, 5),
        (3, 1, 0, 5, 4),
        (3, 3, 0, 6, 6),
        (2, 1, 1, 3, 3),
    ])
    def test_matches_six_loop_reference(self, k, stride, padding, h, w):
        rng = np.random.Generator(np.random.PCG64(k * 100 + stride * 10 + padding))
        layer = make_layer(rng, k, 2, 3, stride, padding)
        x = rng.normal(size=(2, h, w, 2))
        expected = naive_conv2d(x, layer.weight, stride, padding)
        np.testing.assert_allclose(conv2d_forward(layer, x), expected, atol=1e-10)

    def test_output_grid(self):
        layer = Conv2dLayer(np.zeros((3, 3, 1, 1)), stride=1, padding=1)
        assert conv2d_output_grid(layer, 8, 8) == (8, 8)

    def test_non_integral_output_rejected(self):
        layer = Conv2dLayer(np.zeros((3, 3, 1, 1)), stride=2, padding=0)
        with pytest.raises(ConfigurationError):
            conv2d_output_grid(layer, 6, 6)

    def test_channel_mismatch(self):
        rng = np.random.Generator(np.random.PCG64(0))
        layer = make_layer(rng, 3, 2, 3)
        with pytest.raises(DimensionError):
            conv2d_forward(layer, np.zeros((1, 5, 5, 4)))

    def test_non_square_kernel_rejected(self):
        with pytest.raises(DimensionError):
            Conv2dLayer(np.zeros((2, 3, 1, 1)))


class TestBackwardFull:
    @pytest.mark.parametrize("k,stride,padding", [(1, 1, 0), (3, 1, 1), (2, 2, 0)])
    def test_matches_finite_differences(self, k, stride, padding):
        rng = np.random.Generator(np.random.PCG64(11))
        layer = make_layer(rng, k, 2, 2, stride, padding)
        x = rng.normal(size=(2, 4, 4, 2))
        ho, wo = conv2d_output_grid(layer, 4, 4)
        up = rng.normal(size=(2, ho, wo, 2))

        def loss():
            return float((conv2d_forward(layer, x) * up).sum())

        dw, dx = conv2d_backward(layer, x, up)
        np.testing.assert_allclose(dw, fd_grad(loss, layer.weight), rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(dx, fd_grad(loss, x), rtol=1e-5, atol=1e-7)

    def test_upstream_shape_checked(self):
        rng = np.random.Generator(np.random.PCG64(12))
        layer = make_layer(rng, 3, 1, 1)
        with pytest.raises(DimensionError):
            conv2d_backward(layer, np.zeros((1, 5, 5, 1)), np.zeros((1, 5, 5, 1)))


class TestBackwardSbp:
    """The masked conv backward as the conv node runs it: the GELU gradient
    zeroed at the dropped output positions, then `conv2d_backward`."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), k=st.integers(1, 4), b=st.integers(1, 3))
    def test_equals_zero_then_full_oracle(self, seed, k, b):
        rng = np.random.Generator(np.random.PCG64(seed))
        node = Conv2dNode("conv", (3, 4), 2, 2, rng, kernel=k, sbp_enabled=True)
        x = rng.normal(size=(b, 3, 4, 2))
        up = rng.normal(size=(b, *node.out_grid, 2))
        mask = random_mask(rng, node.out_grid, allow_extremes=True)
        grads, dx = node.backward(node.restrict(node.forward(x)[1], select(mask, "qkv")), up)
        dw_ref, dx_ref = conv_node_reference(node.w, x, up, mask.drop)
        np.testing.assert_allclose(grads["w"], dw_ref, atol=1e-12)
        np.testing.assert_allclose(dx, dx_ref, atol=1e-12)

    def test_neighbor_effect_k3_s1_checkerboard(self):
        """With overlapping receptive fields a dropped output position still
        leaves nonzero input gradient behind, through its kept neighbors."""
        rng = np.random.Generator(np.random.PCG64(13))
        layer = make_layer(rng, 3, 1, 1, stride=1, padding=1)
        x = rng.normal(size=(1, 4, 4, 1))
        up = rng.normal(size=(1, 4, 4, 1))
        mask = checkerboard_mask(4, 4, phase=0)
        _, dx = conv2d_backward(layer, x, zero_dropped(up, mask))
        dx_flat = dx.reshape(16)
        # input positions under dropped outputs still receive gradient
        assert np.all(dx_flat[mask.drop_array()] != 0.0)

    def test_stride_ge_kernel_exact_or_zero(self):
        """Disjoint receptive fields: every input position is either exactly
        its full-backward gradient or exactly zero."""
        rng = np.random.Generator(np.random.PCG64(14))
        layer = make_layer(rng, 2, 2, 2, stride=2, padding=0)
        x = rng.normal(size=(1, 4, 4, 2))
        up = rng.normal(size=(1, 2, 2, 2))
        mask = IndexMask.from_keep((2, 2), [0, 3])
        _, dx_full = conv2d_backward(layer, x, up)
        _, dx = conv2d_backward(layer, x, zero_dropped(up, mask))
        for oi in range(2):
            for oj in range(2):
                block = dx[0, 2 * oi:2 * oi + 2, 2 * oj:2 * oj + 2, :]
                ref = dx_full[0, 2 * oi:2 * oi + 2, 2 * oj:2 * oj + 2, :]
                if oi * 2 + oj in (0, 3):
                    np.testing.assert_array_equal(block, ref)
                else:
                    assert np.all(block == 0.0)

    def test_full_keep_equals_exact(self):
        """A mask that drops nothing gives the exact backward's bits."""
        rng = np.random.Generator(np.random.PCG64(15))
        node = Conv2dNode("conv", (4, 4), 1, 2, rng, sbp_enabled=True)
        x = rng.normal(size=(2, 4, 4, 1))
        up = rng.normal(size=(2, 4, 4, 2))
        rec = node.forward(x)[1]
        exact = node.backward(node.restrict(rec, EXACT), up)
        full = node.backward(node.restrict(rec, select(full_keep_mask((4, 4)), "qkv")), up)
        assert np.array_equal(exact[0]["w"], full[0]["w"])
        assert np.array_equal(exact[1], full[1])

    def test_mask_grid_mismatch(self):
        """A plan's mask must lie on its conv's output grid; `resolve` checks."""
        model = build_model(tiny_conv_spec(grid=(4, 4), in_channels=1, channels=2, depth=1), 0)
        with pytest.raises(DimensionError, match="conv0"):
            resolve(model, {"conv0": full_keep_mask((2, 2))}, "qkv", 0, 0)
