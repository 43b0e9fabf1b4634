"""Activations live only while something reads them.

The token-MLP unit caches the kept rows of its input only and rebuilds its
GELU input u in the backward; the reference below is the unit as it ran when
its record still cached u, and the slim record must give the same bytes.
The pool backward hands its upstream a read-only broadcast view rather than
a B x N x C copy, and the transformer block's forward frees each intermediate
at its last use.
"""

import tracemalloc

import numpy as np
import pytest

from sbp.engine import backward, forward, resolve
from sbp.layers import gelu_backward, gelu_forward, linear_backward_kept, select
from sbp.masks import IndexMask, sample_grid_mask, sample_random_mask
from sbp.models import (
    MeanPoolNode,
    TokenLinearNode,
    build_model,
    mlp_spec,
    rows_at,
    tiny_conv_spec,
    tiny_vit_spec,
)

# (B, grid, c_in, c_out): a small unit and the train-mlp16 benchmark's unit.
UNITS = {"small": (2, (4, 4), 3, 5), "mlp16": (32, (16, 16), 128, 128)}
MASKS = [None, "grid", "random", "keep_one"]


def make_mask(kind, grid):
    if kind == "grid":
        return sample_grid_mask(grid, 0.5, 3)
    if kind == "random":
        return sample_random_mask(grid, 0.5, 3)
    return IndexMask.from_keep(grid, [grid[0] * grid[1] // 3])


def unit_case(shape):
    b, grid, c_in, c_out = UNITS[shape]
    n = grid[0] * grid[1]
    rng = np.random.Generator(np.random.PCG64(21))
    node = TokenLinearNode("mlp0", n, c_in, c_out, rng, sbp_enabled=True, grid=grid)
    node.b = rng.normal(size=c_out)
    return node, rng.normal(size=(b, n, c_in)), rng.normal(size=(b, n, c_out)), grid


def cached_u_unit(node, x, dy, keep):
    """(y, grads, dx) of the unit from a record that caches the kept rows of
    its input and of u, as the forward computed them."""
    b, n, c = x.shape
    u = (x.reshape(b * n, c) @ node.w + node.b).reshape(b, n, -1)
    y = gelu_forward(u)
    if keep is not None:
        x, u, dy = (np.take(t, keep, axis=1) for t in (x, u, dy))
    dw, db, dx_k = linear_backward_kept(x, gelu_backward(u, dy), node.w, True)
    if keep is None:
        return y, {"w": dw, "b": db}, dx_k
    dx = np.zeros((b, n, c))
    dx[:, keep, :] = dx_k
    return y, {"w": dw, "b": db}, dx


@pytest.mark.parametrize("shape", sorted(UNITS))
class TestTokenUnitRecord:
    @pytest.mark.parametrize("mask_kind", MASKS)
    def test_rebuild_is_bitwise(self, shape, mask_kind):
        node, x, dy, grid = unit_case(shape)
        y, rec = node.forward(x)
        keep = None
        if mask_kind is not None:
            mask = make_mask(mask_kind, grid)
            keep = mask.keep_array()
            rec = node.restrict(rec, select(mask, "qkv"))
        x_k = rec.cache["x"]
        assert x_k.shape == (x.shape[0], x.shape[1] if keep is None else len(keep), x.shape[2])
        assert (rec.sel.mask is None) == (keep is None)
        grads, dx = node.backward(rec, dy)
        y_ref, ref, dx_ref = cached_u_unit(node, x, dy, keep)
        assert np.array_equal(y, y_ref)
        assert set(grads) == set(ref)
        for key in ref:
            assert np.array_equal(grads[key], ref[key]), key
        assert np.array_equal(rows_at(dx, None), dx_ref)


def one_row_case():
    """Batch 1 with one kept token per unit: each u rebuild is a 1-row product."""
    spec = mlp_spec(grid=(8, 8), in_channels=3, width=32, depth=3, sbp_fraction=1.0)
    model = build_model(spec, 2)
    rng = np.random.Generator(np.random.PCG64(8))
    x = rng.normal(size=(1, 8, 8, 3))
    labels = rng.integers(0, 2, size=1)
    plan = {lid: IndexMask.from_keep(shape, [17 + 9 * i])
            for i, (lid, shape) in enumerate(model.sbp_layers())}
    return model, x, labels, resolve(model, plan, "qkv", 0, 0)


class TestOneKeptRow:
    def test_exact_tape_equals_masked_forward(self):
        model, x, labels, plan = one_row_case()
        from_exact = backward(forward(model, x, labels), plan=plan)
        from_masked = backward(forward(model, x, labels, plan=plan))
        assert set(from_exact.keys()) == set(from_masked.keys())
        assert np.array_equal(from_exact.flat(), from_masked.flat())

    def test_equals_zero_then_full(self):
        model, x, labels, plan = one_row_case()
        masks = {nid: sel.mask for nid, sel in plan.items() if sel.mask is not None}
        store = backward(forward(model, x, labels, plan=plan))
        tape = forward(model, x, labels)
        dy = tape.dlogits
        for node, rec in reversed(tape.records):
            if node.node_id in masks:
                dy = np.array(dy)
                dy[:, masks[node.node_id].drop_array(), :] = 0.0
            node_grads, dy = node.backward(rec, dy)
            for name, g in node_grads.items():
                np.testing.assert_allclose(store[f"{node.node_id}.{name}"], g,
                                           atol=1e-12, rtol=0)


class TestPoolView:
    @pytest.mark.parametrize("shape", [(3, 16, 5), (3, 4, 4, 5)])
    def test_backward_is_read_only_view(self, shape):
        pool = MeanPoolNode("pool", shape[1:])
        x = np.random.Generator(np.random.PCG64(4)).normal(size=shape)
        _, rec = pool.forward(x)
        dy = np.random.Generator(np.random.PCG64(5)).normal(size=(shape[0], shape[-1]))
        dx = pool.backward(rec, dy)[1]
        n = x.size // (shape[0] * shape[-1])
        assert dx.shape == shape
        assert not dx.flags.writeable
        lo, hi = np.lib.array_utils.byte_bounds(dx)
        assert hi - lo == dy.nbytes  # B x C floats behind all B x N x C
        expected = np.repeat(dy[:, None], n, 1) / n
        assert np.array_equal(dx.reshape(expected.shape), expected)

    @pytest.mark.parametrize("spec", [
        mlp_spec(grid=(4, 4), in_channels=2, width=6, depth=2),
        tiny_vit_spec(grid=(4, 4), in_channels=2, embed=8, heads=2, depth=2),
        tiny_conv_spec(grid=(4, 4), in_channels=2, channels=3, depth=2),
    ], ids=["mlp", "vit", "conv"])
    def test_model_grads_equal_writable_copy(self, spec, monkeypatch):
        model = build_model(spec, 6)
        rng = np.random.Generator(np.random.PCG64(7))
        x = rng.normal(size=(3, 4, 4, 2))
        labels = rng.integers(0, 2, size=3)
        view = backward(forward(model, x, labels), want_input_grad=True)
        real_backward = MeanPoolNode.backward

        def writable(self, rec, dy):
            grads, dx = real_backward(self, rec, dy)
            return grads, np.array(dx)

        monkeypatch.setattr(MeanPoolNode, "backward", writable)
        copy = backward(forward(model, x, labels), want_input_grad=True)
        assert set(view[0].keys()) == set(copy[0].keys())
        assert np.array_equal(view[0].flat(), copy[0].flat())
        assert np.array_equal(view[1], copy[1])


@pytest.mark.parametrize("b, grid, embed", [(16, (14, 14), 64), (8, (8, 8), 32)])
def test_block_forward_transient(b, grid, embed):
    """One block forward peaks at most 5 B x N x C arrays above what it
    returns (its record and output)."""
    spec = tiny_vit_spec(grid=grid, in_channels=3, embed=embed, heads=2, depth=1,
                         sbp_fraction=1.0)
    block = [n for n in build_model(spec, 3).nodes if n.kind == "block"][0]
    x = np.random.Generator(np.random.PCG64(11)).normal(size=(b, grid[0] * grid[1], embed))
    tracemalloc.start()
    try:
        out, rec = block.forward(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - (rec.cached_elements * 8 + out.nbytes) <= 5 * x.nbytes
