"""Sequential tape: record activations at forward time, replay them backward.

The tape is built once per forward pass. Whatever a node needs for its backward
is cached while the activations are still live; nothing is recomputed and no
second forward happens. Under SBP the node records hold kept-index slices only,
so the tape's cached-element count is the honest memory figure. Evaluation
needs no backward, so `predict` runs the same nodes without a tape.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractViolationError, NumericError
from .layers import mse_loss, sample_head_keep, softmax_xent_loss
from .masks import IndexMask, MaskPlan
from .models import Model, NodeRecord

Array = np.ndarray


@dataclass
class Tape:
    """One recorded forward pass, ready to be differentiated."""

    model: Model
    records: list  # [(node, NodeRecord)]
    loss: float
    logits: Array
    dlogits: Array
    batch_size: int

    def cached_elements(self) -> int:
        return sum(rec.cached_elements for _, rec in self.records)


@dataclass
class GradientStore:
    """Gradients keyed exactly like Model.params(), all finite, all f64."""

    grads: dict[str, Array]

    def __getitem__(self, key):
        return self.grads[key]

    def keys(self):
        return self.grads.keys()

    def items(self):
        return self.grads.items()

    def check_against(self, params: dict[str, Array]):
        if set(self.grads) != set(params):
            missing = set(params) - set(self.grads)
            extra = set(self.grads) - set(params)
            raise ContractViolationError(
                f"gradient keys mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        for key, g in self.grads.items():
            if g.shape != params[key].shape:
                raise ContractViolationError(f"gradient shape mismatch for {key}")
            if not np.all(np.isfinite(g)):
                raise NumericError(f"non-finite gradient for {key}")

    def flat(self) -> Array:
        return np.concatenate([self.grads[k].ravel() for k in sorted(self.grads)])


def _loss_and_grad(kind: str, logits: Array, labels: Array):
    if kind == "xent":
        return softmax_xent_loss(logits, labels)
    if kind == "mse":
        return mse_loss(logits, labels)
    raise ConfigurationError(f"unknown loss {kind!r}")


def head_keep_for(node, ratio, step: int, seed: int):
    """Deterministic per-node, per-step head subset for head-drop mode."""
    mix = (seed * 1000003 + step * 7919 + zlib.crc32(node.node_id.encode())) % (2 ** 31)
    return sample_head_keep(node.heads, ratio, mix)


def forward(model: Model, x: Array, labels: Array, plan: MaskPlan | None = None,
            mode: str = "qkv", step: int = 0, head_seed: int = 0) -> Tape:
    """Run the network, recording a tape. plan=None disables SBP entirely."""
    masks = dict(plan.per_layer) if plan is not None else {}
    h = np.asarray(x, dtype=np.float64)
    records = []
    for node in model.nodes:
        mask = None
        head_keep = None
        if node.sbp_enabled and node.mask_group in masks:
            mask = masks[node.mask_group]
            if mode == "head" and node.kind == "block":
                head_keep = head_keep_for(node, mask.keep_ratio, step, head_seed)
        node_mode = mode if node.kind == "block" else None
        h, rec = node.forward(h, mask=mask, mode=node_mode if mask is not None else None,
                              head_keep=head_keep)
        records.append((node, rec))
    logits = h
    loss, dlogits = _loss_and_grad(model.loss, logits, np.asarray(labels))
    if not np.isfinite(loss):
        raise NumericError("loss is non-finite")
    return Tape(model, records, float(loss), logits, dlogits, x.shape[0])


def predict(model: Model, x: Array) -> Array:
    """Logits of an exact forward pass that records no tape.

    Each node's record is dropped as soon as its forward returns, so only one
    node's activations are alive at a time.
    """
    h = np.asarray(x, dtype=np.float64)
    for node in model.nodes:
        h = node.forward(h)[0]
    if not np.all(np.isfinite(h)):
        raise NumericError("logits are non-finite")
    return h


def backward(tape: Tape, want_input_grad: bool = False):
    """Differentiate a recorded tape. Returns a GradientStore (and dx on request)."""
    dy = tape.dlogits
    grads: dict[str, Array] = {}
    for node, rec in reversed(tape.records):
        node_grads, dy = node.backward(rec, dy)
        for name, g in node_grads.items():
            grads[f"{node.node_id}.{name}"] = g
    store = GradientStore(grads)
    store.check_against(tape.model.params())
    if want_input_grad:
        return store, dy
    return store


def grad(model: Model, x: Array, labels: Array, plan: MaskPlan | None = None,
         mode: str = "qkv", step: int = 0, head_seed: int = 0):
    """Convenience: forward + backward in one call. Returns (loss, GradientStore)."""
    tape = forward(model, x, labels, plan=plan, mode=mode, step=step, head_seed=head_seed)
    return tape.loss, backward(tape)


def sgd_step(model: Model, grads: GradientStore, lr: float):
    """In-place vanilla SGD: theta <- theta - lr * g."""
    params = model.params()
    grads.check_against(params)
    updated = {k: params[k] - lr * grads[k] for k in params}
    model.set_params(updated)


def finite_difference_grad(model: Model, x: Array, labels: Array,
                           eps: float = 1e-5) -> GradientStore:
    """Central-difference loss gradient, parameter by parameter. Exact-path only."""
    params = {k: v.copy() for k, v in model.params().items()}
    out = {}
    for key, base in params.items():
        g = np.zeros_like(base)
        flat = base.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            work = {k: (v.copy() if k == key else v) for k, v in params.items()}
            work[key].ravel()[i] = orig + eps
            model.set_params(work)
            lp = forward(model, x, labels).loss
            work[key].ravel()[i] = orig - eps
            model.set_params(work)
            lm = forward(model, x, labels).loss
            gflat[i] = (lp - lm) / (2 * eps)
        out[key] = g
    model.set_params(params)
    return GradientStore(out)
