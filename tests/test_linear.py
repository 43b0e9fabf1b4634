import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sbp.errors import DimensionError
from sbp.layers import (
    LinearLayer,
    as_tensor,
    linear_backward_full,
    linear_backward_kept,
    linear_backward_sbp,
    linear_forward,
)
from sbp.masks import IndexMask, full_keep_mask

from helpers import fd_grad, naive_matmul, random_mask


def make_layer(rng, c_in, c_out, bias=True):
    return LinearLayer(rng.normal(size=(c_in, c_out)),
                       rng.normal(size=c_out) if bias else None)


class TestAsTensor:
    def test_contiguous_f64(self):
        t = as_tensor([[1, 2], [3, 4]])
        assert t.dtype == np.float64
        assert t.flags["C_CONTIGUOUS"]

    def test_transposed_input_made_contiguous(self):
        t = as_tensor(np.arange(6.0).reshape(2, 3).T)
        assert t.flags["C_CONTIGUOUS"]


class TestForward:
    def test_matches_naive(self):
        rng = np.random.Generator(np.random.PCG64(0))
        layer = make_layer(rng, 4, 3)
        x = rng.normal(size=(5, 4))
        expected = naive_matmul(x, layer.weight) + layer.bias
        np.testing.assert_allclose(linear_forward(layer, x), expected, atol=1e-12)

    def test_width_mismatch(self):
        rng = np.random.Generator(np.random.PCG64(0))
        layer = make_layer(rng, 4, 3)
        with pytest.raises(DimensionError):
            linear_forward(layer, np.zeros((5, 3)))
        with pytest.raises(DimensionError):
            linear_forward(layer, np.zeros(4))


class TestBackwardFull:
    def test_matches_finite_differences(self):
        rng = np.random.Generator(np.random.PCG64(1))
        layer = make_layer(rng, 4, 3)
        x = rng.normal(size=(6, 4))
        up = rng.normal(size=(6, 3))

        def loss():
            return float((linear_forward(layer, x) * up).sum())

        dw, db, dx = linear_backward_full(layer, x, up)
        np.testing.assert_allclose(dw, fd_grad(loss, layer.weight), rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(db, fd_grad(loss, layer.bias), rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(dx, fd_grad(loss, x), rtol=1e-6, atol=1e-8)

    def test_zero_upstream(self):
        rng = np.random.Generator(np.random.PCG64(2))
        layer = make_layer(rng, 3, 2)
        dw, db, dx = linear_backward_full(layer, rng.normal(size=(4, 3)), np.zeros((4, 2)))
        assert not dw.any() and not db.any() and not dx.any()


class TestBackwardKept:
    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no_bias"])
    def test_token_batch_equals_full_on_flattened_rows(self, bias):
        """The kernel the model nodes run, on B x N x C, is bit for bit the
        2-D oracle entry point on the B*N flattened rows."""
        rng = np.random.Generator(np.random.PCG64(8))
        layer = make_layer(rng, 5, 3, bias=bias)
        x = rng.normal(size=(4, 7, 5))
        dy = rng.normal(size=(4, 7, 3))
        dw, db, dx = linear_backward_kept(x, dy, layer.weight, bias)
        dw_ref, db_ref, dx_ref = linear_backward_full(layer, x.reshape(28, 5), dy.reshape(28, 3))
        assert np.array_equal(dw, dw_ref)
        assert (db is None and db_ref is None) or np.array_equal(db, db_ref)
        assert dx.shape == x.shape
        assert np.array_equal(dx.reshape(28, 5), dx_ref)


class TestBackwardSbp:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(2, 10),
           c_in=st.integers(1, 5), c_out=st.integers(1, 5))
    def test_equals_zero_then_full_oracle(self, seed, n, c_in, c_out):
        rng = np.random.Generator(np.random.PCG64(seed))
        layer = make_layer(rng, c_in, c_out)
        x = rng.normal(size=(n, c_in))
        up = rng.normal(size=(n, c_out))
        mask = random_mask(rng, (n,), allow_extremes=True)

        up_zeroed = up.copy()
        up_zeroed[mask.drop_array()] = 0.0
        dw_ref, db_ref, dx_ref = linear_backward_full(layer, x, up_zeroed)
        dw, db, dx = linear_backward_sbp(layer, x, up, mask)
        np.testing.assert_allclose(dw, dw_ref, atol=1e-12)
        np.testing.assert_allclose(db, db_ref, atol=1e-12)
        np.testing.assert_allclose(dx, dx_ref, atol=1e-12)

    def test_dropped_dx_rows_exactly_zero(self):
        rng = np.random.Generator(np.random.PCG64(3))
        layer = make_layer(rng, 3, 2)
        x = rng.normal(size=(6, 3))
        up = rng.normal(size=(6, 2))
        mask = IndexMask.from_keep((6,), [1, 4])
        _, _, dx = linear_backward_sbp(layer, x, up, mask)
        assert np.all(dx[[0, 2, 3, 5]] == 0.0)

    def test_memory_contract_nan_poison(self):
        """Dropped x and upstream rows are never read."""
        rng = np.random.Generator(np.random.PCG64(4))
        layer = make_layer(rng, 3, 2)
        x = rng.normal(size=(6, 3))
        up = rng.normal(size=(6, 2))
        mask = IndexMask.from_keep((6,), [0, 2, 5])
        x_poisoned = x.copy()
        up_poisoned = up.copy()
        x_poisoned[mask.drop_array()] = np.nan
        up_poisoned[mask.drop_array()] = np.nan
        dw, db, dx = linear_backward_sbp(layer, x_poisoned, up_poisoned, mask)
        assert np.all(np.isfinite(dw)) and np.all(np.isfinite(db))
        assert np.all(np.isfinite(dx))
        dw_ref, db_ref, dx_ref = linear_backward_sbp(layer, x, up, mask)
        np.testing.assert_array_equal(dw, dw_ref)
        np.testing.assert_array_equal(dx, dx_ref)

    def test_full_keep_dispatches_bitwise(self):
        rng = np.random.Generator(np.random.PCG64(5))
        layer = make_layer(rng, 4, 4)
        x = rng.normal(size=(5, 4))
        up = rng.normal(size=(5, 4))
        full = linear_backward_full(layer, x, up)
        sbp = linear_backward_sbp(layer, x, up, full_keep_mask((5,)))
        for a, b in zip(full, sbp):
            assert np.array_equal(a, b)

    def test_no_bias_returns_none(self):
        rng = np.random.Generator(np.random.PCG64(6))
        layer = make_layer(rng, 3, 2, bias=False)
        mask = IndexMask.from_keep((4,), [0, 1])
        _, db, _ = linear_backward_sbp(layer, rng.normal(size=(4, 3)),
                                       rng.normal(size=(4, 2)), mask)
        assert db is None

    def test_mask_domain_mismatch(self):
        rng = np.random.Generator(np.random.PCG64(7))
        layer = make_layer(rng, 3, 2)
        with pytest.raises(DimensionError):
            linear_backward_sbp(layer, rng.normal(size=(4, 3)),
                                rng.normal(size=(4, 2)),
                                IndexMask.from_keep((5,), [0]))
