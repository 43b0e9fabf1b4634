"""Sequential tape: record activations at forward time, replay them backward.

The tape is built once per forward pass, and the forward is always exact.
Whatever a node needs for its backward is cached while the activations are
still live; no second forward happens. SBP restriction is a separate per-node
step (`Node.restrict`), and this module alone decides when it runs. A plan
is the map `resolve` builds, once per step, from a mask plan (node id to
`IndexMask`, each on its node's grid) to the `Selection` each node runs
under; no node sees a drop mode. A forward under a plan runs
each masked node over batch chunks and restricts each chunk's record at once,
so the tape holds kept-index slices only, its cached-element count is the
honest memory figure, and no node's full record of the whole batch is ever
alive; where nothing else reads a masked node's input, its output is
written over it (`_chunked_forward`). The backward passes each node's
input gradient to the node before it, a masked token unit's as its kept
rows (`models.Rows`), and every node reads it with `models.rows_at`. A
backward under a plan restricts each record of an exact tape just
before that node's backward, so one exact tape serves the exact gradient and
any number of masked ones. A backward may write a gradient over a record
that no one reads afterwards; `backward` says when a record is spent.
Evaluation needs no backward, so `predict` runs the same nodes without a
tape.
"""

from __future__ import annotations

import zlib
from collections.abc import Mapping
from dataclasses import dataclass, replace
from types import MappingProxyType

import numpy as np

from .errors import ConfigurationError, ContractViolationError, DimensionError, NumericError
from .layers import EXACT, Selection, mse_loss, sample_head_keep, select, softmax_xent_loss
from .masks import IndexMask
from .models import Model, NodeRecord, batch_chunks, rows_at

Array = np.ndarray
Selections = Mapping[str, Selection]  # node id -> the selection it runs under


@dataclass
class Tape:
    """One recorded forward pass, ready to be differentiated."""

    model: Model
    records: list  # [(node, NodeRecord)]
    loss: float
    logits: Array
    dlogits: Array
    plan: Selections | None = None  # the plan the records were restricted under

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


def resolve(model: Model, plan: Mapping[str, IndexMask] | None, mode: str, step: int,
            head_seed: int) -> Selections | None:
    """Every node's selection at `step`, read-only, or None without a plan.

    An SBP-enabled node runs under the mask of its own node id, which must
    lie on the node's grid; other nodes ignore theirs. Without a mask, or
    under one that drops nothing, a node keeps everything: the exact
    backward. Only transformer blocks draw kept heads, and only in head mode.
    """
    if plan is None:
        return None
    sels = {}
    for node in model.nodes:
        mask = plan.get(node.node_id) if node.sbp_enabled else None
        if mask is not None and mask.domain_shape != node.grid:
            raise DimensionError(f"node {node.node_id}: mask grid {mask.domain_shape} "
                                 f"!= node grid {node.grid}")
        if mask is None or mask.is_full_keep:
            sels[node.node_id] = Selection(mask)
        elif mode == "head" and node.kind == "block":
            sels[node.node_id] = select(
                mask, mode, head_keep_for(node, mask.keep_ratio, step, head_seed))
        else:
            sels[node.node_id] = select(mask, mode)
    return MappingProxyType(sels)


def _chunked_forward(node, x: Array, sel: Selection,
                     owned: bool) -> tuple[Array, NodeRecord]:
    """A masked node's output and restricted record, run over batch chunks.

    Each chunk's record is restricted as soon as the chunk has run, and the
    chunk's output and restricted record are written into batch-sized
    buffers allocated from the first chunk, activation by activation under
    its name. So the node's full record of the whole batch is never alive,
    and no concatenation doubles the tape. An activation that is the chunk's
    input itself (a record caching its input whole) becomes the whole input,
    not a copy. Every row-wise operation gives the same bits on a chunk as on
    the whole batch.

    The output is written over x, chunk by chunk, when all of these hold:
    the engine owns x (`owned`: x is an earlier node's output, never the
    caller's, and no record on the tape shares its memory), the output has
    x's per-sample shape, and the restricted record shares no memory with
    the input (a conv record, or a token record under a full-keep mask,
    caches its input whole). Each chunk's input is then spent once its
    output is written, and no later chunk reads it, so no second
    batch-sized buffer is allocated. Otherwise the output gets a new buffer.
    The values are copied, so the bits are the same either way.
    """
    out = rec = None
    for part in batch_chunks(x.shape[0]):
        x_part = x[part]
        y, chunk = node.forward(x_part)
        chunk = node.restrict(chunk, sel)
        if rec is None:
            spent = owned and y.shape[1:] == x.shape[1:] and not any(
                np.shares_memory(a, x_part) for a in chunk.cache.values())
            out = x if spent else np.empty((x.shape[0], *y.shape[1:]))
            rec = replace(chunk, cache={
                name: x if a is x_part else np.empty((x.shape[0], *a.shape[1:]))
                for name, a in chunk.cache.items()})
        out[part] = y
        for name, a in chunk.cache.items():
            if rec.cache[name] is not x:
                rec.cache[name][part] = a
        del y, chunk
    return out, rec


def forward(model: Model, x: Array, labels: Array, plan: Selections | None = None) -> Tape:
    """Run the network, recording a tape. plan=None disables SBP entirely.

    Under a plan each masked node runs over batch chunks, each chunk's record
    restricted as soon as it has run, and its output possibly written over
    its input (`_chunked_forward` says when); the other nodes run on the
    whole batch, as without a plan. The caller's `x` is never written.
    """
    h = np.asarray(x, dtype=np.float64)
    records = []
    for i, node in enumerate(model.nodes):
        sel = EXACT if plan is None else plan[node.node_id]
        if sel.mask is not None:
            owned = i > 0 and not any(np.shares_memory(h, a) for _, r in records
                                      for a in r.cache.values())
            h, rec = _chunked_forward(node, h, sel, owned)
        else:
            h, rec = node.forward(h)
        records.append((node, rec))
    logits = h
    loss, dlogits = _loss_and_grad(model.loss, logits, np.asarray(labels))
    if not np.isfinite(loss):
        raise NumericError("loss is non-finite")
    return Tape(model, records, float(loss), logits, dlogits, plan)


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


def backward(tape: Tape, plan: Selections | None = None, want_input_grad: bool = False,
             consume: bool = False):
    """Differentiate a recorded tape. Returns a GradientStore (and dx on request).

    With a plan, the tape must be exact (recorded without one): each record is
    restricted just before its node's backward, so only one node's restricted
    copy is alive at a time and the tape itself is left as it was. The result
    equals the backward of `forward(..., plan)`.
    With consume=True each record leaves the tape once its node's backward
    has run, so its activations are freed while the rest of the backward
    runs; the tape keeps no records afterwards. Otherwise the tape is left
    as it was, ready for another backward.

    A record is spent, and its node's backward may write a gradient over it,
    when no one reads it afterwards: it is consumed, or it is the restricted
    copy this call just made under `plan`. A masked token unit then writes
    its input gradient over its kept rows. A full-keep record is never
    written, since its arrays may be the input itself or the exact tape's.
    The gradients are the same bits either way.
    """
    if plan is not None and tape.plan is not None:
        raise ConfigurationError("tape was recorded under a mask plan already; "
                                 "a second plan needs an exact tape")
    dy = tape.dlogits
    grads: dict[str, Array] = {}
    records = tape.records if consume else list(tape.records)
    while records:
        node, rec = records.pop()
        if plan is not None:
            rec = node.restrict(rec, plan[node.node_id])
        if consume or plan is not None:
            rec = replace(rec, spent=True)
        node_grads, dy = node.backward(rec, dy)
        for name, g in node_grads.items():
            grads[f"{node.node_id}.{name}"] = g
    store = GradientStore(grads)
    store.check_against(tape.model.params())
    if want_input_grad:
        return store, rows_at(dy, None)
    return store


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
