"""The planned forward runs each masked node over batch chunks.

Each chunk's record is restricted as soon as the chunk has run, so the
forward's peak stays below the backward's. The chunked forward must give the
bytes of an exact forward followed by `restrict`: the same outputs, the same
named record arrays and the same cached-element counts, also when it writes
each output over its spent input. A training step's traced peak, above what
was live before it, is checked against the full step's.
"""

import numpy as np
import pytest

from sbp.analysis import activation_memory_estimate, measure_step_peaks
from sbp.engine import _chunked_forward, forward, resolve
from sbp.masks import build_schedule, make_mask_plan
from sbp.models import (
    BATCH_CHUNK,
    ClassifierNode,
    MeanPoolNode,
    Model,
    Node,
    NodeRecord,
    TokenEmbedNode,
    TokenLinearNode,
    batch_chunks,
    build_model,
    mlp_spec,
    tiny_conv_spec,
    tiny_vit_spec,
)

# (spec, drop mode, sampler, sharing, keep ratio); mlp draws independent
# random masks. conv-same-width's first, masked conv reads the caller's input,
# and mlp-full-keep's unit records cache their input whole.
CASES = {
    "vit-qkv": (tiny_vit_spec(grid=(4, 4), in_channels=2, embed=8, heads=2, depth=3,
                              sbp_fraction=2 / 3), "qkv", "grid", "shared", 0.5),
    "vit-query_only": (tiny_vit_spec(grid=(4, 4), in_channels=2, embed=8, heads=2, depth=3,
                                     sbp_fraction=2 / 3), "query_only", "grid", "shared",
                       0.5),
    "vit-head": (tiny_vit_spec(grid=(4, 4), in_channels=2, embed=12, heads=3, depth=3,
                               sbp_fraction=2 / 3), "head", "grid", "shared", 0.5),
    "mlp": (mlp_spec(grid=(4, 4), in_channels=2, width=6, depth=3), "qkv", "random",
            "independent", 0.5),
    "mlp-full-keep": (mlp_spec(grid=(4, 4), in_channels=2, width=6, depth=3), "qkv", "grid",
                      "shared", 1.0),
    "conv": (tiny_conv_spec(grid=(4, 4), in_channels=2, channels=3, depth=2), "qkv", "grid",
             "shared", 0.5),
    "conv-same-width": (tiny_conv_spec(grid=(4, 4), in_channels=2, channels=2, depth=2),
                        "qkv", "grid", "shared", 0.5),
}
STEP, HEAD_SEED = 3, 5


def case(name, b):
    spec, mode, sampler, sharing, ratio = CASES[name]
    model = build_model(spec, 4)
    rng = np.random.Generator(np.random.PCG64(b))
    x = rng.normal(size=(b, 4, 4, 2))
    labels = rng.integers(0, 2, size=b)
    schedule = build_schedule("uniform", ratio, len(model.sbp_layers()))
    plan = make_mask_plan(model, schedule, sampler, sharing, 11)
    return model, x, labels, resolve(model, plan, mode, STEP, HEAD_SEED)


def assert_same_cache(got, want):
    """The same names, each array equal in shape, dtype and bits."""
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].shape == want[name].shape, name
        assert got[name].dtype == want[name].dtype, name
        assert np.array_equal(got[name], want[name]), name


def assert_activations(cache, b):
    """Every cached value is a float64 activation with the batch on axis 0."""
    for name, a in cache.items():
        assert isinstance(a, np.ndarray) and a.dtype == np.float64, name
        assert a.shape[0] == b, name


@pytest.mark.parametrize("b", range(1, 14))
def test_batch_chunks_cover_the_batch(b):
    parts = batch_chunks(b)
    assert parts[0].start == 0 and parts[-1].stop == b
    assert all(p.stop == q.start for p, q in zip(parts, parts[1:]))
    assert all(min(BATCH_CHUNK, b) <= p.stop - p.start < 2 * BATCH_CHUNK for p in parts)


@pytest.mark.parametrize("b", [1, 2, 5, 9])
@pytest.mark.parametrize("name", sorted(CASES))
def test_chunked_forward_equals_exact_then_restrict(name, b):
    model, x, labels, plan = case(name, b)
    h = x
    masked = 0
    for node in model.nodes:
        sel = plan[node.node_id]
        y_ref, full = node.forward(h)
        if sel.mask is not None:
            masked += 1
            y, rec = _chunked_forward(node, h, sel, owned=False)
            ref = node.restrict(full, sel)
            assert np.array_equal(y, y_ref)
            for record in (full, ref, rec):
                assert_activations(record.cache, b)
            assert_same_cache(rec.cache, ref.cache)
            assert rec.sel is ref.sel is sel
            assert rec.cached_elements == ref.cached_elements
            if node.kind == "conv":  # a record caching its input holds it, not a copy
                assert rec.cache["x"] is h
            # Given the input to spend, the output is written over it unless
            # the record caches that input whole (conv, a full-keep unit).
            spent = h.copy()
            y, rec = _chunked_forward(node, spent, sel, owned=True)
            assert (y is spent) == (node.kind == "block" or sel.keep is not None
                                    and node.kind == "linear")
            assert np.array_equal(y, y_ref)
            assert_same_cache(rec.cache, ref.cache)
        h = y_ref
    assert masked == len(model.sbp_layers())
    x_before = x.copy()
    tape = forward(model, x, labels, plan=plan)
    assert np.array_equal(x, x_before)  # the caller's input is never written
    assert np.array_equal(tape.logits, forward(model, x, labels).logits)


class PassNode(Node):
    """Hands its input on as its output and records it."""

    kind = "pass"
    node_id = "pass"

    def params(self):
        return {}

    def forward(self, x):
        return x, NodeRecord({"x": x})

    def backward(self, rec, dy):
        return {}, dy


@pytest.mark.parametrize("first", ["unit", "pass"])
def test_forward_writes_over_no_input_it_does_not_own(first):
    """A masked unit's input is the caller's x, or an array a record on the
    tape holds: the planned forward writes its output elsewhere."""
    rng = np.random.Generator(np.random.PCG64(2))
    unit = TokenLinearNode("mlp0", 16, 3, 3, rng, sbp_enabled=True, grid=(4, 4))
    nodes = [unit, MeanPoolNode("pool", (16, 3)), ClassifierNode("head", 3, 2, rng)]
    if first == "pass":
        nodes[:0] = [TokenEmbedNode("embed", 16, 3, 3, rng), PassNode()]
    model = Model(nodes, "xent")
    x, labels = rng.normal(size=(5, 16, 3)), rng.integers(0, 2, size=5)
    plan = make_mask_plan(model, build_schedule("uniform", 0.5, 1), "grid", "shared", 1)
    x_before = x.copy()
    tape = forward(model, x, labels, plan=resolve(model, plan, "qkv", 0, 0))
    exact = forward(model, x, labels)
    assert np.array_equal(x, x_before)
    for (node, got), (_, want) in zip(tape.records, exact.records):
        if node is not unit:  # the unit's own record is restricted
            assert_same_cache(got.cache, want.cache)
    assert np.array_equal(tape.logits, exact.logits)


@pytest.mark.parametrize("name", sorted(CASES))
def test_estimate_matches_chunked_tape(name):
    model, x, labels, plan = case(name, 5)
    tape = forward(model, x, labels, plan=plan)
    report = activation_memory_estimate(model, plan, 5)
    assert report.estimated_total == tape.cached_elements()


# ROADMAP item 2's configs and the train-mlp16-random benchmark's own at
# r=0.5: (spec, B, grid, width C, schedule, sampler, sharing, step-peak ratio
# bound, backward bound in B x N x C arrays above the tape). Measured: vit14
# 0.557 and 6.1, below the 9.6 of an attention backward that keeps every
# temporary to the end; mlp16 0.493 and 0.74, and mlp16-random 0.496 and
# 1.10, where each masked unit passes its kept rows on and writes them over
# its consumed record, and the planned forward writes each output over its
# spent input.
MLP16 = mlp_spec(grid=(16, 16), in_channels=3, width=128, depth=6)
STEP_CASES = {
    "vit14-qkv": (tiny_vit_spec(grid=(14, 14), in_channels=3, embed=64, heads=2, depth=6,
                                mlp_ratio=2, sbp_fraction=2 / 3), 16, (14, 14), 64,
                  "uniform", "grid", "shared", 0.57, 8.0),
    "mlp16": (MLP16, 32, (16, 16), 128, "uniform", "grid", "shared", 0.55, 1.0),
    "mlp16-random": (MLP16, 32, (16, 16), 128, "increasing", "random", "independent", 0.55,
                     1.25),
}


@pytest.mark.parametrize("name", sorted(STEP_CASES))
def test_step_peak(name):
    """The planned forward peaks no higher than the planned backward plus one
    B x N x C array, the planned step peaks at most `ratio` times the full
    step, and the planned backward at most `above_tape` B x N x C arrays
    above the tape it consumes."""
    spec, b, grid, width, schedule, sampler, sharing, ratio, above_tape = STEP_CASES[name]
    model = build_model(spec, 3)
    rng = np.random.Generator(np.random.PCG64(5))
    x = rng.normal(size=(b, *grid, 3))
    labels = rng.integers(0, 2, size=b)
    ratios = build_schedule(schedule, 0.5, len(model.sbp_layers()))
    plan = resolve(model, make_mask_plan(model, ratios, sampler, sharing, 7), "qkv", 0, 0)
    full = measure_step_peaks(model, x, labels, None)
    planned = measure_step_peaks(model, x, labels, plan)
    bnc = b * grid[0] * grid[1] * width * 8
    assert planned["forward_peak_bytes"] <= planned["backward_peak_bytes"] + bnc
    assert planned["step_peak_bytes"] <= ratio * full["step_peak_bytes"]
    assert planned["backward_peak_bytes"] <= planned["tape_bytes"] + above_tape * bnc
