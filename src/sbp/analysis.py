"""Gradient-fidelity diagnostics: cosine similarity, memory accounting,
chain-rule classification, training-trajectory comparisons, bootstrap CIs."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, asdict
from fractions import Fraction

import numpy as np

from .errors import ConfigurationError
from .engine import GradientStore, Tape, backward, forward, predict, sbp_context
from .masks import IndexMask, MaskPlan
from .models import Model

Array = np.ndarray


# ---------------------------------------------------------------------------
# Cosine similarity
# ---------------------------------------------------------------------------


def cosine_similarity(a: Array, b: Array) -> float:
    """Cosine of the angle between two flattened tensors.

    Conventions for degenerate inputs: two zero vectors agree perfectly (1.0);
    exactly one zero vector is total disagreement (0.0).
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ConfigurationError(f"cosine operands differ in size: {a.size} vs {b.size}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 and nb == 0.0:
        return 1.0
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(a @ b) / (na * nb)


# ---------------------------------------------------------------------------
# Gradient-similarity experiments
# ---------------------------------------------------------------------------


@dataclass
class GradReport:
    step: int
    cosine: float
    sbp_norm: float
    exact_norm: float
    per_node: dict      # node_id -> cosine over that node's parameter block
    per_node_l2: dict   # node_id -> (sbp grad L2, exact grad L2)
    node_kinds: dict    # node_id -> layer kind label

    def __post_init__(self):
        for node_id, c in self.per_node.items():
            if not -1.0 - 1e-12 <= c <= 1.0 + 1e-12:
                raise ConfigurationError(f"cosine out of range for {node_id}: {c}")


def _per_node_blocks(store: GradientStore) -> dict:
    by_node: dict[str, list[str]] = {}
    for key in store.keys():
        node_id = key.rsplit(".", 1)[0]
        by_node.setdefault(node_id, []).append(key)
    return {nid: np.concatenate([store[k].ravel() for k in sorted(keys)])
            for nid, keys in sorted(by_node.items())}


@dataclass
class ExactReference:
    """One batch's exact tape and gradient, with the figures every variant
    compares against."""

    tape: Tape
    grads: GradientStore
    norm: float         # L2 norm of grads.flat()
    blocks: dict        # node_id -> that node's flattened exact gradient


def exact_reference(model: Model, x: Array, labels: Array) -> ExactReference:
    """Exact (no-SBP) tape and gradient of one batch at the model's current weights.

    At fixed weights one reference serves every SBP variant run on that batch:
    each takes its masked gradient from the same exact tape.
    """
    tape = forward(model, x, labels, plan=None)
    grads = backward(tape)
    return ExactReference(tape, grads, float(np.linalg.norm(grads.flat())),
                          _per_node_blocks(grads))


def grad_similarity_experiment(model: Model, batches, plan_fn, mode: str = "qkv",
                               head_seed: int = 0, exact=None, start: int = 0
                               ) -> list[GradReport]:
    """Fixed-weight comparison of SBP gradients against exact ones.

    `batches` yields (x, labels), numbered as steps from `start`; `plan_fn(step)`
    returns the MaskPlan for that step (resampling is the caller's policy), and
    head mode draws its heads per step. Weights are never updated.
    `exact`, if given, holds `exact_reference` of each batch in order, so
    callers comparing several variants run one forward per batch; otherwise
    it is computed here. Either way the SBP gradient is the masked backward of
    the exact tape, so each batch costs one forward.
    """
    kinds = {node.node_id: node.kind for node in model.nodes if node.params()}
    reports = []
    for step, (x, labels) in enumerate(batches, start):
        ref = exact_reference(model, x, labels) if exact is None else exact[step - start]
        g_sbp = backward(ref.tape, plan=plan_fn(step), mode=mode, step=step,
                         head_seed=head_seed)
        flat_sbp = g_sbp.flat()
        blocks_sbp = _per_node_blocks(g_sbp)
        reports.append(GradReport(
            step=step,
            cosine=cosine_similarity(flat_sbp, ref.grads.flat()),
            sbp_norm=float(np.linalg.norm(flat_sbp)),
            exact_norm=ref.norm,
            per_node={nid: cosine_similarity(blocks_sbp[nid], ref.blocks[nid])
                      for nid in blocks_sbp},
            per_node_l2={nid: (float(np.linalg.norm(blocks_sbp[nid])),
                               float(np.linalg.norm(ref.blocks[nid])))
                         for nid in blocks_sbp},
            node_kinds=kinds,
        ))
    if not reports:
        raise ConfigurationError("empty batch stream")
    if exact is not None and len(exact) != len(reports):
        raise ConfigurationError(
            f"{len(exact)} exact references for {len(reports)} batches")
    return reports


# ---------------------------------------------------------------------------
# Memory model
# ---------------------------------------------------------------------------


def mhsa_memory_ratio(r, d: int, n: int, mode: str = "query_only"):
    """Analytic attention activation-memory ratio (SBP cache / full cache).

    With c = d/n (head width over token count), the two closed forms are

        query_only: (r (c + 2) + 2 c) / ((c + 2) + 2 c)
        qkv:        r (3 + 2 r c) / (3 + 2 c)

    query_only shrinks the query tensor and the query rows of both attention
    maps while keys, values and the input/output stay whole; qkv shrinks all
    three projections linearly and both maps quadratically. Head mode has no
    closed form here; the engine's per-node estimate covers it.

    The published reference figures are these exact values rounded up at
    their printed precision, so a figure never understates memory:

        query_only r=1/2, d=64, n=196:  89/146 = 0.60959 -> 0.61
        query_only r=1/4, d=64, n=196: 121/292 = 0.41438 -> 0.42
        qkv        r=1/2, d=64, n=196: 163/358 = 0.45531 -> 0.46
        qkv        r=1/4, d=64, n=196: 155/716 = 0.21648 -> 0.22
        query_only r=1/2, d=32, n=392:  59/110 = 0.53636 -> 0.537

    Rational inputs give an exact rational result; floats give a float.
    """
    if isinstance(r, Fraction):
        c = Fraction(int(d), int(n))
        two, three = Fraction(2), Fraction(3)
    else:
        r = float(r)
        c = d / n
        two, three = 2.0, 3.0
    if not (0 < r <= 1):
        raise ConfigurationError(f"keep ratio must be in (0, 1], got {r}")
    if mode == "query_only":
        return (r * (c + two) + two * c) / ((c + two) + two * c)
    if mode == "qkv":
        return r * (three + two * r * c) / (three + two * c)
    raise ConfigurationError(f"no closed-form ratio for mode {mode!r}")


@dataclass
class MemoryReport:
    per_node: dict          # node_id -> (estimated_elements, full_elements)
    estimated_total: int
    full_total: int
    mhsa_breakdown: dict    # node_id -> {"io_2hdn", "qkv_3hdn", "maps_hnn"}: full-cache
                            # terms per sample. The tape keeps one map (S, not the
                            # logits) and of the io pair only the output: the
                            # attention input is rebuilt from LN1's x_hat

    @property
    def ratio(self) -> float:
        return self.estimated_total / self.full_total if self.full_total else 1.0


def activation_memory_estimate(model: Model, plan: MaskPlan | None, mode: str,
                               batch_size: int, head_keep_counts: dict | None = None
                               ) -> MemoryReport:
    """Analytic cached-element count per node, next to the no-SBP figure.

    The estimate mirrors exactly what each node's forward records, so it must
    match a real tape's cached_elements() for the same configuration.
    """
    masks = dict(plan.per_layer) if plan is not None else {}
    per_node = {}
    breakdown = {}
    est_total = 0
    full_total = 0
    for node in model.nodes:
        full = node.estimate_cached(batch_size, None, None)
        mask = sbp_context(node, masks, None, 0, 0)[0]
        if mask is None or mask.is_full_keep:
            est = full
        else:
            if node.kind == "block":
                hk = (head_keep_counts or {}).get(node.node_id)
                est = node.estimate_cached(batch_size, len(mask.keep), mode,
                                           head_keep_count=hk)
            else:
                est = node.estimate_cached(batch_size, len(mask.keep), mode)
        per_node[node.node_id] = (est, full)
        if node.kind == "block":
            h, n, d = node.heads, node.n_tokens, node.dim_head
            breakdown[node.node_id] = {
                "io_2hdn": 2 * h * d * n,
                "qkv_3hdn": 3 * h * d * n,
                "maps_hnn": h * n * n,
            }
        est_total += est
        full_total += full
    return MemoryReport(per_node, est_total, full_total, breakdown)


# ---------------------------------------------------------------------------
# Chain-rule composition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointwiseStage:
    """One token/position-wise masked layer: positions never mix."""

    layer_id: str
    grid: tuple
    mask: IndexMask | None = None


@dataclass(frozen=True)
class ConvStage:
    """One conv layer; the mask (if any) lives on its output grid."""

    layer_id: str
    in_grid: tuple
    kernel: int
    stride: int = 1
    padding: int = 0
    mask: IndexMask | None = None

    @property
    def out_grid(self) -> tuple:
        h, w = self.in_grid
        k, s, p = self.kernel, self.stride, self.padding
        if (h + 2 * p - k) % s or (w + 2 * p - k) % s:
            raise ConfigurationError("conv stage output size is not integral")
        return ((h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1)


@dataclass
class ChainRuleReport:
    """Gradient-status classification through a stack of masked layers.

    Point-wise layers never mix positions, so their effective kept set is the
    intersection of all masks above (every position is exact or exactly zero).
    A conv layer spreads gradient over receptive fields: a position whose
    contributing outputs are partly dropped is approximate (the neighbor
    effect, possible whenever kernel > stride), and with stride >= kernel
    every position is exact-or-zero again.
    """

    input_classes: tuple         # class per position of the stack input
    per_layer_classes: dict      # layer_id -> classes at that layer's input
    per_layer_sparsity: dict     # layer_id -> fraction of zero positions
    weight_classes: dict         # layer_id -> "exact" | "approximate" | "zero"
    effective_keep: tuple        # input positions with a surviving gradient

    @property
    def vanishing(self) -> bool:
        return len(self.effective_keep) == 0


def _combine(contributing: list) -> str:
    if not contributing or all(c == "zero" for c in contributing):
        return "zero"
    if all(c == "exact" for c in contributing):
        return "exact"
    return "approximate"


def chain_rule_report(stages: list) -> ChainRuleReport:
    """Classify gradient status per position for a forward-ordered stack.

    The loss side supplies exact gradients at the top; each stage first zeroes
    the positions its mask drops, then pushes classes down through its
    position dependence (identity for point-wise, receptive fields for conv).
    """
    if not stages:
        raise ConfigurationError("need at least one stage")
    top = stages[-1]
    out_grid = top.out_grid if isinstance(top, ConvStage) else top.grid
    classes = ["exact"] * int(np.prod(out_grid))
    per_layer_classes = {}
    per_layer_sparsity = {}
    weight_classes = {}
    for stage in reversed(stages):
        if stage.mask is not None:
            grid = stage.out_grid if isinstance(stage, ConvStage) else stage.grid
            if stage.mask.domain_shape != tuple(grid):
                raise ConfigurationError(
                    f"stage {stage.layer_id}: mask domain {stage.mask.domain_shape} "
                    f"!= output grid {tuple(grid)}")
            for i in stage.mask.drop:
                classes[i] = "zero"
        weight_classes[stage.layer_id] = _combine(classes)
        if isinstance(stage, ConvStage):
            h, w = stage.in_grid
            ho, wo = stage.out_grid
            k, s, p = stage.kernel, stage.stride, stage.padding
            nxt = []
            for r in range(h):
                for c in range(w):
                    contributing = []
                    for orow in range(ho):
                        for ocol in range(wo):
                            dr = r + p - orow * s
                            dc = c + p - ocol * s
                            if 0 <= dr < k and 0 <= dc < k:
                                contributing.append(classes[orow * wo + ocol])
                    nxt.append(_combine(contributing))
            classes = nxt
        per_layer_classes[stage.layer_id] = tuple(classes)
        per_layer_sparsity[stage.layer_id] = classes.count("zero") / len(classes)
    effective_keep = tuple(i for i, c in enumerate(classes) if c != "zero")
    return ChainRuleReport(tuple(classes), per_layer_classes, per_layer_sparsity,
                           weight_classes, effective_keep)


def pointwise_stack_report(layer_masks: list[tuple[str, IndexMask]]) -> ChainRuleReport:
    """Convenience wrapper for a pure point-wise stack sharing one grid."""
    if not layer_masks:
        raise ConfigurationError("need at least one masked layer")
    shape = layer_masks[0][1].domain_shape
    stages = [PointwiseStage(lid, tuple(shape), m) for lid, m in layer_masks]
    return chain_rule_report(stages)


# ---------------------------------------------------------------------------
# Trajectory comparisons
# ---------------------------------------------------------------------------


def l2_norm_trace(grad_stores, flag_window: int = 50):
    """Per-node gradient L2 norms over a run.

    Returns (per_node, flagged): per_node maps node_id to the norm time
    series; flagged lists nodes whose norm sits at exactly 0 for at least
    flag_window consecutive steps (the vanishing-gradient symptom).
    """
    per_node: dict[str, list[float]] = {}
    for g in grad_stores:
        for nid, block in _per_node_blocks(g).items():
            per_node.setdefault(nid, []).append(float(np.linalg.norm(block)))
    flagged = []
    for nid, series in per_node.items():
        run = 0
        for v in series:
            run = run + 1 if v == 0.0 else 0
            if run >= flag_window:
                flagged.append(nid)
                break
    return per_node, flagged


def flat_params(model: Model) -> Array:
    p = model.params()
    return np.concatenate([p[k].ravel() for k in sorted(p)])


def weight_similarity(model_a: Model, model_b: Model) -> float:
    return cosine_similarity(flat_params(model_a), flat_params(model_b))


def prediction_consistency(model_a: Model, model_b: Model, x: Array) -> float:
    """Fraction of samples where the two models pick the same class."""
    la = predict(model_a, x).argmax(axis=1)
    lb = predict(model_b, x).argmax(axis=1)
    return float((la == lb).mean())


def accuracy(model: Model, x: Array, labels) -> float:
    pred = predict(model, x).argmax(axis=1)
    return float((pred == np.asarray(labels)).mean())


# ---------------------------------------------------------------------------
# Bootstrap
# ---------------------------------------------------------------------------


def bootstrap_mean_diff(a, b, n_boot: int = 2000, seed: int = 0,
                        lo_pct: float = 5.0, hi_pct: float = 95.0):
    """Percentile bootstrap CI for mean(a - b) over paired observations."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ConfigurationError("paired bootstrap needs equal-length samples")
    diff = a - b
    rng = np.random.Generator(np.random.PCG64(seed))
    idx = rng.integers(0, diff.size, size=(n_boot, diff.size))
    means = diff[idx].mean(axis=1)
    return float(np.percentile(means, lo_pct)), float(np.percentile(means, hi_pct))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def format_float(v: float) -> str:
    return "%.17g" % float(v)


def write_csv(path, header: list[str], rows):
    """Deterministic CSV: floats via repr-precision %g, unix newlines."""
    with open(path, "w", newline="\n") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([format_float(v) if isinstance(v, float) else v for v in row])


def write_json(path, obj):
    def default(o):
        if isinstance(o, Fraction):
            return f"{o.numerator}/{o.denominator}"
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, (np.integer,)):
            return int(o)
        if isinstance(o, (np.floating,)):
            return float(o)
        if hasattr(o, "__dataclass_fields__"):
            return asdict(o)
        raise TypeError(f"not serializable: {type(o)}")
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True, default=default)
        f.write("\n")
