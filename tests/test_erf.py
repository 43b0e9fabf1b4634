"""`sbp.layers.erf` against `scipy.special.erf`, the cephes code it ports.

Where |x| <= 1 both run the same arithmetic, so the bits agree. Where
|x| > 1 the result goes through exp(-x²), and numpy's exp may round the last
bit differently from the C library's, so one ulp is allowed there. scipy is
a test-only reference: the package does not import it.
"""

import math

import numpy as np
import pytest

from sbp.errors import DimensionError
from sbp.layers import ERF_BLOCK, erf, gelu_backward, gelu_forward

scipy_special = pytest.importorskip("scipy.special")


def ulp_distance(a, b):
    """Distance in units in the last place between same-signed finite doubles."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


def same_bytes(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_bitwise_scipy_where_abs_x_at_most_1():
    rng = np.random.Generator(np.random.PCG64(0))
    x = np.concatenate([rng.uniform(-1.0, 1.0, 200_000),
                        np.sign(rng.uniform(-1, 1, 20_000)) * 10.0 ** rng.uniform(-300, 0, 20_000),
                        [1.0, -1.0, 0.5, -0.5]])
    assert same_bytes(erf(x), scipy_special.erf(x))


def test_within_one_ulp_of_scipy_elsewhere():
    rng = np.random.Generator(np.random.PCG64(1))
    mags = np.concatenate([rng.uniform(1.0, 8.0, 200_000), 10.0 ** rng.uniform(0, 3, 20_000)])
    x = np.concatenate([mags, -mags])
    ours, ref = erf(x), scipy_special.erf(x)
    assert np.array_equal(np.signbit(ours), np.signbit(x))
    assert ulp_distance(ours, ref).max() <= 1


def test_special_values():
    above_one = np.nextafter(1.0, 2.0)
    x = np.array([0.0, -0.0, np.inf, -np.inf, 1e-300, -1e-300, above_one, -above_one])
    ours, ref = erf(x), scipy_special.erf(x)
    assert same_bytes(ours[:6], ref[:6])
    assert np.array_equal(ours[:4], [0.0, -0.0, 1.0, -1.0])
    assert np.array_equal(np.signbit(ours[:2]), [False, True])
    assert ours[4] == pytest.approx(2.0 / math.sqrt(math.pi) * 1e-300, rel=1e-15)
    # Just above 1 the erfc branch takes over, and erf does not step down.
    assert ulp_distance(ours[6:], ref[6:]).max() <= 1
    assert ours[6] == -ours[7] >= erf(np.array([1.0]))[0]
    assert np.isnan(erf(np.array([np.nan, -np.nan]))).all()


def test_saturated_tail_is_exactly_one_without_warnings():
    x = np.array([6.0, 7.5, 8.0, 27.0, 1e300, np.inf])
    with np.errstate(all="raise"):
        assert np.array_equal(erf(x), np.ones(6))
        assert np.array_equal(erf(-x), -np.ones(6))


@pytest.mark.parametrize("size", [1, ERF_BLOCK - 1, ERF_BLOCK, ERF_BLOCK + 1,
                                  2 * ERF_BLOCK + 5])
def test_block_boundaries_and_aliasing(size):
    rng = np.random.Generator(np.random.PCG64(size))
    x = 2.5 * rng.normal(size=size)
    x[-1] = 3.0  # the last block always takes the tail
    fresh = erf(x)
    ref = scipy_special.erf(x)
    assert ulp_distance(fresh, ref).max() <= 1
    inner = np.abs(x) <= 1.0
    assert same_bytes(fresh[inner], ref[inner])
    aliased = x.copy()
    assert erf(aliased, out=aliased) is aliased
    assert same_bytes(aliased, fresh)
    out = np.empty_like(x)
    assert erf(x, out=out) is out and same_bytes(out, fresh)


def test_keeps_shape_and_rejects_a_mismatched_out():
    x = np.linspace(-3.0, 3.0, 24).reshape(2, 3, 4)
    assert ulp_distance(erf(x), scipy_special.erf(x)).max() <= 1
    assert erf(np.empty((0, 3))).shape == (0, 3)
    with pytest.raises(DimensionError, match="does not fit"):
        erf(x, out=np.empty((3, 2, 4)))


def test_zero_d_input_stays_zero_d():
    """A scalar gives a 0-d result with the one-element call's value."""
    cases = [(erf(np.float64(0.5)), erf(np.array([0.5]))),
             (gelu_forward(0.5), gelu_forward(np.array([0.5]))),
             (gelu_backward(0.5, 2.0), gelu_backward(np.array([0.5]), np.array([2.0])))]
    for got, one in cases:
        assert np.shape(got) == () and same_bytes(np.asarray(got).reshape(1), one)
