import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sbp.layers import as_tensor, linear_backward_kept, row_gemm, select
from sbp.masks import IndexMask, full_keep_mask
from sbp.models import Rows, TokenLinearNode, rows_at

from helpers import fd_grad, naive_matmul, random_mask, token_linear_reference


def make_node(rng, n, c_in, c_out):
    """A masked token-linear unit with a nonzero bias."""
    node = TokenLinearNode("lin", n, c_in, c_out, rng, sbp_enabled=True)
    node.b = rng.normal(size=c_out)
    return node


def masked_backward(node, x, up, mask):
    """(grads, dX) of `node` as the engine runs it under `mask`: the forward's
    record restricted to the kept rows, then the backward."""
    return node.backward(node.restrict(node.forward(x)[1], select(mask, "qkv")), up)


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
        """row_gemm on B x N x C token rows is the naive product of each
        sample's rows, plus the bias."""
        rng = np.random.Generator(np.random.PCG64(0))
        w, b = rng.normal(size=(4, 3)), rng.normal(size=3)
        x = rng.normal(size=(2, 5, 4))
        out = row_gemm(x, w, b)
        assert out.shape == (2, 5, 3)
        for i in range(2):
            np.testing.assert_allclose(out[i], naive_matmul(x[i], w) + b, atol=1e-12)


class TestBackwardFull:
    def test_matches_finite_differences(self):
        rng = np.random.Generator(np.random.PCG64(1))
        w, b = rng.normal(size=(4, 3)), rng.normal(size=3)
        x = rng.normal(size=(6, 4))
        up = rng.normal(size=(6, 3))

        def loss():
            return float((row_gemm(x, w, b) * up).sum())

        dw, db, dx = linear_backward_kept(x, up, w, True)
        np.testing.assert_allclose(dw, fd_grad(loss, w), rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(db, fd_grad(loss, b), rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(dx, fd_grad(loss, x), rtol=1e-6, atol=1e-8)

    def test_zero_upstream(self):
        rng = np.random.Generator(np.random.PCG64(2))
        dw, db, dx = linear_backward_kept(rng.normal(size=(4, 3)), np.zeros((4, 2)),
                                          rng.normal(size=(3, 2)), True)
        assert not dw.any() and not db.any() and not dx.any()


class TestBackwardKept:
    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no_bias"])
    def test_token_batch_equals_full_on_flattened_rows(self, bias):
        """The kernel on B x N x C token rows is bit for bit the kernel on
        the B*N flattened rows."""
        rng = np.random.Generator(np.random.PCG64(8))
        w = rng.normal(size=(5, 3))
        x = rng.normal(size=(4, 7, 5))
        dy = rng.normal(size=(4, 7, 3))
        dw, db, dx = linear_backward_kept(x, dy, w, bias)
        dw_ref, db_ref, dx_ref = linear_backward_kept(x.reshape(28, 5), dy.reshape(28, 3), w, bias)
        assert np.array_equal(dw, dw_ref)
        assert (db is None and db_ref is None) or np.array_equal(db, db_ref)
        assert dx.shape == x.shape
        assert np.array_equal(dx.reshape(28, 5), dx_ref)


class TestBackwardSbp:
    """The masked TokenLinearNode: the kernel on the kept rows of its record."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6), b=st.integers(1, 5), n=st.integers(2, 10),
           c_in=st.integers(1, 5), c_out=st.integers(1, 5))
    def test_equals_zero_then_full_oracle(self, seed, b, n, c_in, c_out):
        rng = np.random.Generator(np.random.PCG64(seed))
        node = make_node(rng, n, c_in, c_out)
        x = rng.normal(size=(b, n, c_in))
        up = rng.normal(size=(b, n, c_out))
        mask = random_mask(rng, (n,), allow_extremes=True)
        grads, dx = masked_backward(node, x, up, mask)
        dw_ref, db_ref, dx_ref = token_linear_reference(node.w, node.b, x, up, mask.drop_array())
        np.testing.assert_allclose(grads["w"], dw_ref, atol=1e-12)
        np.testing.assert_allclose(grads["b"], db_ref, atol=1e-12)
        np.testing.assert_allclose(rows_at(dx, None), dx_ref, atol=1e-12)

    def test_dropped_dx_rows_exactly_zero(self):
        """dX is passed on as the kept rows only; read whole, every dropped
        row is 0."""
        rng = np.random.Generator(np.random.PCG64(3))
        node = make_node(rng, 6, 3, 2)
        x = rng.normal(size=(2, 6, 3))
        up = rng.normal(size=(2, 6, 2))
        _, dx = masked_backward(node, x, up, IndexMask.from_keep((6,), [1, 4]))
        assert isinstance(dx, Rows) and dx.keep.tolist() == [1, 4] and dx.n == 6
        assert dx.values.shape == (2, 2, 3)
        assert np.all(rows_at(dx, None)[:, [0, 2, 3, 5]] == 0.0)

    def test_memory_contract_nan_poison(self):
        """Dropped rows of the input and the upstream are never read."""
        rng = np.random.Generator(np.random.PCG64(4))
        node = make_node(rng, 6, 3, 2)
        x = rng.normal(size=(2, 6, 3))
        up = rng.normal(size=(2, 6, 2))
        mask = IndexMask.from_keep((6,), [0, 2, 5])
        x_poisoned = x.copy()
        up_poisoned = up.copy()
        x_poisoned[:, mask.drop_array()] = np.nan
        up_poisoned[:, mask.drop_array()] = np.nan
        grads, dx = masked_backward(node, x_poisoned, up_poisoned, mask)
        assert np.all(np.isfinite(grads["w"])) and np.all(np.isfinite(grads["b"]))
        assert np.all(np.isfinite(rows_at(dx, None)))
        grads_ref, dx_ref = masked_backward(node, x, up, mask)
        np.testing.assert_array_equal(grads["w"], grads_ref["w"])
        np.testing.assert_array_equal(rows_at(dx, None), rows_at(dx_ref, None))

    def test_full_keep_dispatches_bitwise(self):
        """A mask that drops nothing gives the exact backward, bit for bit,
        and a whole dX array."""
        rng = np.random.Generator(np.random.PCG64(5))
        node = make_node(rng, 5, 4, 4)
        x = rng.normal(size=(3, 5, 4))
        up = rng.normal(size=(3, 5, 4))
        grads_full, dx_full = node.backward(node.forward(x)[1], up)
        grads, dx = masked_backward(node, x, up, full_keep_mask((5,)))
        assert isinstance(dx, np.ndarray) and np.array_equal(dx, dx_full)
        for key in grads_full:
            assert np.array_equal(grads[key], grads_full[key]), key

    def test_no_bias_returns_none(self):
        rng = np.random.Generator(np.random.PCG64(6))
        keep = [0, 1]
        x, dy = rng.normal(size=(2, 4, 3)), rng.normal(size=(2, 4, 2))
        _, db, dx = linear_backward_kept(x[:, keep], dy[:, keep], rng.normal(size=(3, 2)), False)
        assert db is None and dx.shape == (2, 2, 3)
