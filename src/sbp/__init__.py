"""Stochastic backpropagation: exact forward passes, masked backward passes.

The backward pass computes gradients from a kept subset of activation indices
while the forward pass stays untouched; kept-index caching is what buys the
activation-memory savings, and the masked gradients are exactly what a full
backward would produce after zeroing upstream activation gradients at dropped
indices.

BLAS is pinned to one thread here, before any submodule loads numpy, so
results are byte-identical whatever the CLI's --threads; an explicit setting
in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .errors import (
    ConfigurationError,
    ContractViolationError,
    DimensionError,
    NumericError,
    SbpError,
)
from .tensor_core import Shape, as_tensor, gather_rows, matmul
from .masks import (
    IndexMask,
    KeepRatioSchedule,
    MaskPlan,
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
    LinearLayer,
    MhsaCache,
    MhsaGrads,
    MhsaLayer,
    NetworkSpec,
    conv2d_backward_full,
    conv2d_backward_sbp,
    conv2d_forward,
    gelu_backward,
    gelu_cdf,
    gelu_forward,
    layer_norm_backward,
    layer_norm_forward,
    linear_backward_full,
    linear_backward_sbp,
    linear_forward,
    mhsa_backward_full,
    mhsa_backward_kept,
    mhsa_backward_sbp,
    mhsa_forward,
    mse_loss,
    restrict_mhsa_cache,
    sample_head_keep,
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
    grad,
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
    mhsa_memory_ratio,
    pointwise_stack_report,
    prediction_consistency,
    weight_similarity,
)
from .data import Dataset, make_blobs, read_sbpd, write_sbpd
from .config import TrainConfig, default_config, parse_config

__version__ = "0.1.0"
