"""The transformer block's slim record and the consumed training tape.

The block caches only what its backward cannot rebuild; it rebuilds the
attention input and the MLP pre-activation u from the cached LN x_hat, and
the attention kernel rebuilds Q, K and V from that input. The reference
below runs the block backward from the attention input and u as the forward
computed them, and the slim record must give the same bytes in every drop
mode. The Q, K and V rebuild is checked against the forward's projections
directly. A training step frees each record once its node's
backward has run, while an exact tape shared between backwards stays whole.
"""

import math
import tracemalloc
import weakref

import numpy as np
import pytest

import sbp.engine
import sbp.models
from sbp.cli import EXIT_OK, main
from sbp.engine import backward, forward, resolve
from sbp.layers import (
    EXACT,
    MhsaLayer,
    gelu_backward,
    gelu_cdf,
    layer_norm_backward,
    layer_norm_forward,
    linear_backward_kept,
    mhsa_backward,
    mhsa_forward,
    mhsa_projections,
    select,
)
from sbp.masks import IndexMask, build_schedule, make_mask_plan, sample_grid_mask
from sbp.models import build_model, tiny_vit_spec

from helpers import cut_cache, mhsa_backward_cut, mhsa_sbp_reference

# (B, grid, embed): the gradsim benchmark model's 8 x 64 x 32 and the 14x14
# ViT's 16 x 196 x 64, 2 heads each.
SHAPES = {"gradsim": (8, (8, 8), 32), "vit14": (16, (14, 14), 64)}

# (mode, head_keep, mask kind): the full record, then every drop mode under a
# grid mask and under a mask that keeps one token.
CASES = [("full", None, None)] + [
    (mode, head_keep, mask_kind) for mask_kind in ("grid", "keep_one")
    for mode, head_keep in [("qkv", None), ("query_only", None), ("head", ()),
                            ("head", (0,)), ("head", (1,)), ("head", (0, 1))]]


def block_case(shape):
    b, grid, embed = SHAPES[shape]
    spec = tiny_vit_spec(grid=grid, in_channels=3, embed=embed, heads=2, depth=1,
                         sbp_fraction=1.0)
    block = [n for n in build_model(spec, 3).nodes if n.kind == "block"][0]
    rng = np.random.Generator(np.random.PCG64(11))
    n = grid[0] * grid[1]
    return block, rng.normal(size=(b, n, embed)), rng.normal(size=(b, n, embed)), grid


CASE_IDS = [f"{m}-{hk}-{k}" for m, hk, k in CASES]


def record_case(block, x, grid, mode, head_keep, mask_kind):
    """(selection, record) of the block's forward on x, cut to one CASES entry."""
    rec = block.forward(x)[1]
    if mode == "full":
        return EXACT, rec
    mask = (sample_grid_mask(grid, 0.5, 3) if mask_kind == "grid"
            else IndexMask.from_keep(grid, [grid[0] * grid[1] // 3]))
    sel = select(mask, mode, head_keep)
    return sel, block.restrict(rec, sel)


def gather(t, keep):
    return t if keep is None else np.take(t, keep, axis=1)


def add_rows(base, keep, rows):
    if keep is None:
        return base + rows
    out = base.copy()
    out[:, keep, :] += rows
    return out


def cached_input_u_backward(block, x, dy, sel):
    """(grads, dx) of the block from a record that caches u and the attention
    and MLP inputs as the forward computed them, cut to the selection `sel`."""
    h1, ln1c = layer_norm_forward(x, block.ln1_g, block.ln1_b)
    att, mc = mhsa_forward(block._mhsa(), h1)
    h2, ln2c = layer_norm_forward(x + att, block.ln2_g, block.ln2_b)
    b, n, c = x.shape
    u = (h2.reshape(b * n, c) @ block.w1 + block.b1).reshape(b, n, -1)
    keep, ln1_keep, queries, heads = sel.keep, sel.rows, sel.queries, sel.heads
    mc = cut_cache(mc, sel)
    ln1c = tuple(gather(t, ln1_keep) for t in ln1c)
    ln2c, h2, u = tuple(gather(t, keep) for t in ln2c), gather(h2, keep), gather(u, keep)

    grads = {}
    cdf = gelu_cdf(u)
    grads["w2"], grads["b2"], dg = linear_backward_kept(u * cdf, gather(dy, keep),
                                                        block.w2, True)
    grads["w1"], grads["b1"], dh2 = linear_backward_kept(h2, gelu_backward(u, dg, cdf),
                                                         block.w1, True)
    grads["ln2_g"], grads["ln2_b"], dxm = layer_norm_backward(ln2c, block.ln2_g, dh2)
    dx2 = add_rows(dy, keep, dxm)
    # In qkv the kernel's upstream and dX cover the kept rows only.
    mg = mhsa_backward(block._mhsa(), mc, gather(dx2, ln1_keep), queries, heads)
    grads["w_q"], grads["w_k"], grads["w_v"], grads["w_o"] = (
        mg.dw_q, mg.dw_k, mg.dw_v, mg.dw_o)
    grads["ln1_g"], grads["ln1_b"], dxa = layer_norm_backward(ln1c, block.ln1_g, mg.dx)
    return grads, add_rows(dx2, ln1_keep, dxa)


@pytest.mark.parametrize("shape", sorted(SHAPES))
class TestSlimBlockRecord:
    def test_full_record_holds_no_qkv_or_u(self, shape):
        block, x, _, _ = block_case(shape)
        cache = block.forward(x)[1].cache
        assert sorted(cache) == ["a", "cdf", "ln1_inv_std", "ln1_xhat", "ln2_inv_std",
                                 "ln2_xhat", "s"]

    @pytest.mark.parametrize("mode, head_keep, mask_kind", CASES, ids=CASE_IDS)
    def test_rebuild_is_bitwise(self, shape, mode, head_keep, mask_kind):
        block, x, dy, grid = block_case(shape)
        sel, rec = record_case(block, x, grid, mode, head_keep, mask_kind)
        grads, dx = block.backward(rec, dy)
        ref, dx_ref = cached_input_u_backward(block, x, dy, sel)
        assert set(grads) == set(ref)
        for key in ref:
            assert np.array_equal(grads[key], ref[key]), key
        assert np.array_equal(dx, dx_ref)

    @pytest.mark.parametrize("mode, head_keep, mask_kind", CASES, ids=CASE_IDS)
    def test_projection_rebuild_is_bitwise(self, shape, mode, head_keep, mask_kind):
        """Q, K and V rebuilt from the attention input on the record's rows,
        on its query rows and heads, are the entries of the forward's
        projections, bit for bit."""
        block, x, _, grid = block_case(shape)
        sel, rec = record_case(block, x, grid, mode, head_keep, mask_kind)
        layer = block._mhsa()
        full = mhsa_projections(layer, layer_norm_forward(x, block.ln1_g, block.ln1_b)[0])
        x_rec = block.ln1_g * rec.cache["ln1_xhat"] + block.ln1_b
        rebuilt = mhsa_projections(layer, x_rec, sel.queries, sel.heads)

        def entries(t, queries):
            for index, axis in ((sel.rows, 2), (queries, 2), (sel.heads, 1)):
                t = t if index is None else np.take(t, index, axis=axis)
            return t

        for name, got, want, queries in zip("qkv", rebuilt, full, (sel.queries, None, None)):
            assert np.array_equal(got, entries(want, queries)), name

    @pytest.mark.parametrize("mode, head_keep", [("qkv", None), ("query_only", None),
                                                 ("head", (1,)), (None, None),
                                                 ("head", (0, 1))])
    def test_attention_backward_covers_record_rows(self, shape, mode, head_keep, monkeypatch):
        """Exact and masked records alike run the one attention kernel. The
        block hands it the upstream rows its record covers and gets dX back
        on those rows: B x k x C in qkv, never a B x N x C array that it
        would gather straight back; B x N x C for an exact record and in the
        other modes, every head kept included."""
        block, x, dy, grid = block_case(shape)
        mask = sample_grid_mask(grid, 0.5, 3)
        seen = []

        def spy(layer, cache, upstream, *args):
            mg = mhsa_backward(layer, cache, upstream, *args)
            seen.append((upstream.shape, mg.dx.shape))
            return mg

        monkeypatch.setattr(sbp.models, "mhsa_backward", spy)
        rec = block.forward(x)[1]
        if mode is not None:
            rec = block.restrict(rec, select(mask, mode, head_keep))
        block.backward(rec, dy)
        b, n, c = x.shape
        rows = mask.keep_array().size if mode == "qkv" else n
        assert seen == [((b, rows, c), (b, rows, c))]


@pytest.mark.parametrize("kept", [0, 21, 63])
def test_one_row_rebuild_within_oracle(kept):
    """B = 1 and one kept token in qkv: the kernel's Q, K and V rebuild is a
    one-row product, which BLAS may run as a matrix-vector product whose last
    bit differs from the forward's GEMM row. The gradient stays within the
    oracle's tolerance of the zeroing reference."""
    rng = np.random.Generator(np.random.PCG64(kept))
    n, c, heads = 64, 32, 2
    layer = MhsaLayer(heads, c // heads,
                      *(rng.normal(0.0, 1.0 / math.sqrt(c), (c, c)) for _ in range(4)))
    x, up = rng.normal(size=(1, n, c)), rng.normal(size=(1, n, c))
    _, cache = mhsa_forward(layer, x)
    mask = IndexMask.from_keep((n,), [kept])
    got, _ = mhsa_backward_cut(layer, cache, up, select(mask, "qkv"))
    ref = mhsa_sbp_reference(layer, x, up, mask.drop_array(), "qkv")
    for key, want in ref.items():
        np.testing.assert_allclose(getattr(got, key), want, rtol=0, atol=1e-12, err_msg=key)


VIT_CONFIG = """
model.kind = vit
model.grid = 4x4
model.in_channels = 2
model.embed = 8
model.heads = 2
model.depth = 3
model.sbp_fraction = 0.6666666666666666
sbp.keep_ratio = 0.5
train.steps = 3
train.batch_size = 8
data.count = 16
"""


def vit8_case():
    """The gradsim benchmark ViT (8x8 grid, embed 32, 4 of 6 blocks SBP), one
    batch of 8 and a uniform grid plan."""
    spec = tiny_vit_spec(grid=(8, 8), in_channels=3, embed=32, heads=2, depth=6,
                         sbp_fraction=2 / 3)
    model = build_model(spec, 1)
    rng = np.random.Generator(np.random.PCG64(2))
    x = rng.normal(size=(8, 8, 8, 3))
    labels = rng.integers(0, 2, size=8)
    sched = build_schedule("uniform", 0.5, len(model.sbp_layers()))
    return model, x, labels, make_mask_plan(model, sched, "grid", "shared", 4)


class TestConsumedTape:
    def test_train_frees_every_record(self, tmp_path, monkeypatch):
        real_backward = sbp.engine.backward
        seen = []

        def spy(tape, *args, **kwargs):
            refs = [weakref.ref(rec.cache["ln1_xhat"]) for node, rec in tape.records
                    if node.kind == "block"]
            store = real_backward(tape, *args, **kwargs)
            seen.append((len(refs), sum(ref() is not None for ref in refs),
                         len(tape.records)))
            return store

        monkeypatch.setattr(sbp.engine, "backward", spy)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(VIT_CONFIG)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
        # Three steps, three blocks each; no cached array outlives its backward.
        assert seen == [(3, 0, 0)] * 3

    def test_shared_exact_tape_stays_whole(self):
        model, x, labels, plan = vit8_case()
        tape = forward(model, x, labels)
        records = list(tape.records)
        backward(tape)
        first = backward(tape, plan=resolve(model, plan, "query_only", 0, 0))
        second = backward(tape, plan=resolve(model, plan, "query_only", 0, 0))
        assert set(first.keys()) == set(second.keys())
        assert np.array_equal(first.flat(), second.flat())
        assert len(tape.records) == len(records)
        assert all(a is b for a, b in zip(tape.records, records))

    def test_consumed_backward_peaks_lower(self):
        model, x, labels, plan = vit8_case()

        def backward_peak(consume):
            tracemalloc.start()
            try:
                tape = forward(model, x, labels, plan=resolve(model, plan, "qkv", 0, 0))
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                backward(tape, consume=consume)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        kept, consumed = backward_peak(False), backward_peak(True)
        assert consumed < kept
