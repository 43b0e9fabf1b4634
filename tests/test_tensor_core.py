import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sbp.errors import DimensionError, NumericError
from sbp.tensor_core import Shape, as_tensor, gather_rows, matmul

from helpers import naive_matmul


class TestShape:
    def test_total(self):
        assert Shape((3, 4)).total == 12
        assert Shape((7,)).total == 7

    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            Shape(())

    def test_rejects_nonpositive(self):
        with pytest.raises(DimensionError):
            Shape((3, 0))
        with pytest.raises(DimensionError):
            Shape((-1,))

    def test_iterates_dims(self):
        assert tuple(Shape((2, 5))) == (2, 5)


class TestAsTensor:
    def test_contiguous_f64(self):
        t = as_tensor([[1, 2], [3, 4]])
        assert t.dtype == np.float64
        assert t.flags["C_CONTIGUOUS"]

    def test_transposed_input_made_contiguous(self):
        t = as_tensor(np.arange(6.0).reshape(2, 3).T)
        assert t.flags["C_CONTIGUOUS"]


class TestMatmul:
    def test_against_naive_triple_loop(self):
        rng = np.random.Generator(np.random.PCG64(0))
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        np.testing.assert_allclose(matmul(a, b), naive_matmul(a, b), atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(m=st.integers(1, 6), k=st.integers(1, 6), n=st.integers(1, 6),
           seed=st.integers(0, 10**6))
    def test_matches_naive_on_random_shapes(self, m, k, n, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        a = rng.normal(size=(m, k))
        b = rng.normal(size=(k, n))
        np.testing.assert_allclose(matmul(a, b), naive_matmul(a, b), atol=1e-10)

    def test_rejects_mismatched_inner_dims(self):
        with pytest.raises(DimensionError):
            matmul(np.zeros((2, 3)), np.zeros((4, 2)))

    def test_rejects_non_2d(self):
        with pytest.raises(DimensionError):
            matmul(np.zeros(3), np.zeros((3, 2)))

    def test_nonfinite_result_raises(self):
        big = np.full((2, 2), 1e308)
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            matmul(big, big)

    def test_deterministic_repeats(self):
        rng = np.random.Generator(np.random.PCG64(1))
        a = rng.normal(size=(20, 30))
        b = rng.normal(size=(30, 10))
        first = matmul(a, b)
        for _ in range(3):
            assert np.array_equal(first, matmul(a, b))


class TestGatherScatter:
    def test_gather_selects_in_order(self):
        x = np.arange(12.0).reshape(4, 3)
        out = gather_rows(x, [2, 0])
        np.testing.assert_array_equal(out, x[[2, 0]])

    def test_gather_reads_only_selected_rows(self):
        x = np.arange(12.0).reshape(4, 3)
        x[1] = np.nan
        x[3] = np.nan
        out = gather_rows(x, [0, 2])
        assert np.all(np.isfinite(out))

    def test_gather_out_of_range(self):
        with pytest.raises(IndexError):
            gather_rows(np.zeros((3, 2)), [3])
