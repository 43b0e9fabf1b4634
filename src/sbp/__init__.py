"""Stochastic backpropagation: exact forward passes, masked backward passes.

The backward pass computes gradients from a kept subset of activation indices
while the forward pass stays untouched; kept-index caching is what buys the
activation-memory savings, and the masked gradients are exactly what a full
backward would produce after zeroing upstream activation gradients at dropped
indices.

BLAS is pinned to one thread here, before any submodule loads numpy, so
results are byte-identical whatever the CLI's --threads; an explicit setting
in the environment wins. Under glibc the malloc thresholds are fixed here too
(see `_pin_malloc_thresholds`), with the same rule for the environment.
"""

import ctypes
import os

for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _pin_malloc_thresholds() -> bool:
    """Fix glibc's mmap threshold at 32 MiB and its trim threshold at 64 MiB.

    With glibc's dynamic thresholds, the freed top of the heap is handed back
    to the OS after every backward pass and the next one faults the same
    pages in again (about 134k minor faults per `sbp gradsim` run on the
    8x8 ViT benchmark workload). 32 MiB is glibc's own ceiling for the
    dynamic mmap threshold. Both values are set, because any `mallopt` call
    turns the dynamic thresholds off. Returns True when both were set, and
    False, changing nothing, without glibc or when MALLOC_MMAP_THRESHOLD_ or
    MALLOC_TRIM_THRESHOLD_ is set in the environment.
    """
    if "MALLOC_MMAP_THRESHOLD_" in os.environ or "MALLOC_TRIM_THRESHOLD_" in os.environ:
        return False
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (ValueError, OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_set = mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1
    trim_set = mallopt(_M_TRIM_THRESHOLD, 64 << 20) == 1
    return mmap_set and trim_set


_pin_malloc_thresholds()

from .errors import (
    ConfigurationError,
    ContractViolationError,
    DimensionError,
    NumericError,
    SbpError,
)
from .masks import (
    IndexMask,
    build_schedule,
    checkerboard_mask,
    downsample_mask,
    full_keep_mask,
    intersect_masks,
    make_mask_plan,
    mask_from_text,
    mask_to_text,
    sample_grid_mask,
    sample_random_mask,
)
from .layers import (
    Conv2dLayer,
    MhsaCache,
    MhsaGrads,
    MhsaLayer,
    Selection,
    as_tensor,
    conv2d_backward,
    conv2d_forward,
    gelu_backward,
    gelu_cdf,
    gelu_forward,
    layer_norm_backward,
    layer_norm_forward,
    linear_backward_kept,
    mhsa_backward,
    mhsa_forward,
    mhsa_projections,
    mse_loss,
    restrict_attention,
    sample_head_keep,
    select,
    softmax_xent_loss,
)
from .models import (
    Model,
    build_model,
    mlp_spec,
    tiny_conv_spec,
    tiny_vit_spec,
    vit_tiny_preset,
)
from .engine import (
    GradientStore,
    Tape,
    backward,
    finite_difference_grad,
    forward,
    resolve,
    sgd_step,
)
from .analysis import (
    ChainRuleReport,
    ConvStage,
    GradReport,
    MemoryReport,
    PointwiseStage,
    activation_memory_estimate,
    bootstrap_mean_diff,
    chain_rule_report,
    cosine_similarity,
    grad_similarity_experiment,
    l2_norm_trace,
    measure_step_peaks,
    mhsa_memory_ratio,
    pointwise_stack_report,
)
from .data import Dataset, make_blobs, read_sbpd, write_sbpd
from .config import ModelConfig, TrainConfig, default_config, parse_config

__version__ = "0.1.0"
