import math

import numpy as np
from scipy.special import erf

from sbp.layers import gelu_backward, gelu_cdf, gelu_forward


def old_gelu(x):
    """GELU as the forward computed it before the CDF was factored out."""
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def old_gelu_backward(x, upstream):
    cdf = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
    pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return upstream * (cdf + x * pdf)


def sample_inputs():
    """Both signs, magnitudes from 1e-300 up to 40, plus zero and the saturated tails."""
    rng = np.random.Generator(np.random.PCG64(0))
    mags = np.concatenate([10.0 ** rng.uniform(-300, math.log10(40.0), 4000),
                           rng.uniform(0.0, 8.0, 4000), [0.0, 1e-300, 40.0]])
    return np.concatenate([mags, -mags])


class TestGelu:
    def test_x_times_cdf_is_the_old_formula_bitwise(self):
        x = sample_inputs()
        assert np.array_equal(x * gelu_cdf(x), old_gelu(x))
        assert np.array_equal(gelu_forward(x), old_gelu(x))
        # The signs of zeros agree too (-40 * 0 is -0 either way).
        assert np.array_equal(np.signbit(gelu_forward(x)), np.signbit(old_gelu(x)))

    def test_backward_with_cached_cdf_is_the_old_formula_bitwise(self):
        x = sample_inputs()
        up = np.random.Generator(np.random.PCG64(1)).normal(size=x.shape)
        ref = old_gelu_backward(x, up)
        assert np.array_equal(gelu_backward(x, up, gelu_cdf(x)), ref)
        assert np.array_equal(gelu_backward(x, up), ref)
