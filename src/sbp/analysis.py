"""Gradient-fidelity diagnostics: cosine similarity, memory accounting,
chain-rule classification, training-trajectory comparisons, bootstrap CIs."""

from __future__ import annotations

import csv
import json
import tracemalloc
from dataclasses import dataclass, asdict
from fractions import Fraction

import numpy as np

from .errors import ConfigurationError
from .engine import GradientStore, Selections, Tape, backward, forward, predict
from .layers import EXACT, conv2d_output_grid
from .masks import IndexMask
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
    cosine: float
    sbp_norm: float
    per_node: dict      # node_id -> cosine over that node's parameter block
    per_node_l2: dict   # node_id -> SBP grad L2 over that block
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
    """One batch's exact tape and gradient, which every variant compares against."""

    tape: Tape
    grads: GradientStore
    blocks: dict        # node_id -> that node's flattened exact gradient


def exact_reference(model: Model, x: Array, labels: Array) -> ExactReference:
    """Exact (no-SBP) tape and gradient of one batch at the model's current weights.

    At fixed weights one reference serves every SBP variant run on that batch:
    each takes its masked gradient from the same exact tape.
    """
    tape = forward(model, x, labels, plan=None)
    grads = backward(tape)
    return ExactReference(tape, grads, _per_node_blocks(grads))


def grad_similarity_experiment(ref: ExactReference, plan: Selections | None) -> GradReport:
    """Fixed-weight comparison of one batch's SBP gradient with its exact one.

    The SBP gradient is the masked backward of `ref`'s exact tape under the
    `engine.resolve` map `plan`, so a comparison runs no forward and the
    weights are never updated.
    """
    g_sbp = backward(ref.tape, plan=plan)
    flat_sbp = g_sbp.flat()
    blocks = _per_node_blocks(g_sbp)
    return GradReport(
        cosine=cosine_similarity(flat_sbp, ref.grads.flat()),
        sbp_norm=float(np.linalg.norm(flat_sbp)),
        per_node={nid: cosine_similarity(b, ref.blocks[nid]) for nid, b in blocks.items()},
        per_node_l2={nid: float(np.linalg.norm(b)) for nid, b in blocks.items()},
        node_kinds={node.node_id: node.kind
                    for node in ref.tape.model.nodes if node.params()},
    )


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

    The two forms do not count the same cache. Per head, in elements,
    query_only's full cache is 3·n·d for Q, K and V plus 2·n² for the two
    maps (n² each): the physical count. qkv weights its maps by 2·r²·c
    against 3·r for the projections, so its full cache is 3·n·d + 2·d²: each
    map counts d², not n². Both forms reproduce the published figures, so
    neither is changed here. `activation_memory_estimate` is the physical
    count, the one the tape matches.

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
    mhsa_breakdown: dict    # node_id -> {"ln1_xhat_nc", "ln1_inv_std_n", "s_hnn",
                            # "a_hnd"}: per sample, the elements of each field the
                            # unmasked attention record caches (LN1's x_hat and
                            # 1/sigma, S, A); X, Q, K and V are rebuilt, not cached

    @property
    def ratio(self) -> float:
        return self.estimated_total / self.full_total if self.full_total else 1.0


def activation_memory_estimate(model: Model, plan: Selections | None,
                               batch_size: int) -> MemoryReport:
    """Analytic cached-element count per node, next to the no-SBP figure.

    Each node's selection comes from the `engine.resolve` map `plan`, as in
    `forward(model, x, labels, plan)`, so the estimate must match that
    tape's cached_elements().
    """
    per_node = {}
    breakdown = {}
    est_total = 0
    full_total = 0
    for node in model.nodes:
        full = node.estimate_cached(batch_size, EXACT)
        est = node.estimate_cached(batch_size, EXACT if plan is None else plan[node.node_id])
        per_node[node.node_id] = (est, full)
        if node.kind == "block":
            h, n, d = node.heads, node.n_tokens, node.dim_head
            breakdown[node.node_id] = {
                "ln1_xhat_nc": n * node.embed,
                "ln1_inv_std_n": n,
                "s_hnn": h * n * n,
                "a_hnd": h * n * d,
            }
        est_total += est
        full_total += full
    return MemoryReport(per_node, est_total, full_total, breakdown)


def measure_step_peaks(model: Model, x: Array, labels: Array, plan: Selections | None) -> dict:
    """Traced peaks of one training step, as `sbp train` runs it: `forward`
    under the `engine.resolve` map `plan`, then `backward(consume=True)`.

    Each peak is in bytes above what was live before the forward (tracemalloc
    counts this process's Python and numpy allocations only). The backward
    peak includes the tape it consumes (`tape_bytes`, its cached elements as
    float64); the step peak is the larger of the two. It starts and stops
    tracemalloc itself, so nothing else may be tracing.
    """
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tape = forward(model, x, labels, plan=plan)
        fwd = tracemalloc.get_traced_memory()[1] - start
        tape_bytes = 8 * tape.cached_elements()
        tracemalloc.reset_peak()
        backward(tape, consume=True)
        bwd = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return {"tape_bytes": tape_bytes, "forward_peak_bytes": fwd,
            "backward_peak_bytes": bwd, "step_peak_bytes": max(fwd, bwd)}


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
        return conv2d_output_grid(self, *self.in_grid)


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


def accuracy(model: Model, x: Array, labels) -> float:
    pred = predict(model, x).argmax(axis=1)
    return float((pred == np.asarray(labels)).mean())


# ---------------------------------------------------------------------------
# Bootstrap
# ---------------------------------------------------------------------------


N_BOOT = 2000
CI_PERCENTILES = (5.0, 95.0)  # a 90% interval


def _percentile(ordered: Array, q: float) -> float:
    """`np.percentile(ordered, q)` of a sorted 1-D array, bit for bit, by
    numpy's default linear method (nan when it holds a nan, which sorts
    last). np.percentile calls np.unique, which imports numpy.ma on first use."""
    if np.isnan(ordered[-1]):
        return float("nan")
    g = (ordered.size - 1) * (q / 100)
    i = int(g)
    t = g - i
    a, b = ordered[i], ordered[min(i + 1, ordered.size - 1)]
    return float(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)


def bootstrap_mean_diff(a, b, seed: int = 0):
    """Percentile bootstrap CI (`CI_PERCENTILES`, over `N_BOOT` resamples)
    for mean(a - b) over paired observations."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ConfigurationError("paired bootstrap needs equal-length samples")
    diff = a - b
    rng = np.random.Generator(np.random.PCG64(seed))
    idx = rng.integers(0, diff.size, size=(N_BOOT, diff.size))
    means = np.sort(diff[idx].mean(axis=1))
    return tuple(_percentile(means, q) for q in CI_PERCENTILES)


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


def write_gradsim_csv(path, reports):
    """One variant's gradsim CSV: for each batch, every node's cosine and SBP
    gradient L2 norm, then the whole-model `__overall__` row."""
    rows = []
    for i, r in enumerate(reports):
        for nid in sorted(r.per_node):
            rows.append([i, nid, r.node_kinds[nid],
                         float(r.per_node[nid]), float(r.per_node_l2[nid])])
        rows.append([i, "__overall__", "all", float(r.cosine), float(r.sbp_norm)])
    write_csv(path, ["batch", "layer_id", "layer_kind", "cosine", "l2_norm"], rows)


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
