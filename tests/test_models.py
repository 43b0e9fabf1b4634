import hashlib

import numpy as np
import pytest

from sbp.analysis import activation_memory_estimate
from sbp.config import ModelConfig
from sbp.engine import backward, forward, resolve, sgd_step
from sbp.errors import ConfigurationError
from sbp.layers import gelu_backward, gelu_forward, linear_backward_kept, select
from sbp.masks import IndexMask, build_schedule, make_mask_plan
from sbp.models import (
    TokenLinearNode,
    TransformerBlockNode,
    build_model,
    mlp_spec,
    rows_at,
    tiny_conv_spec,
    tiny_vit_spec,
    vit_tiny_preset,
)


class TestBuildModel:
    def test_deterministic_in_seed(self):
        spec = tiny_vit_spec(grid=(4, 4), in_channels=2, embed=8, heads=2, depth=2)
        a = build_model(spec, seed=42).params()
        b = build_model(spec, seed=42).params()
        assert set(a) == set(b)
        for key in a:
            assert np.array_equal(a[key], b[key])

    def test_different_seeds_differ(self):
        spec = mlp_spec(grid=(2, 2), in_channels=2, width=4, depth=1)
        a = build_model(spec, 0).params()
        b = build_model(spec, 1).params()
        assert any(not np.array_equal(a[k], b[k]) for k in a)

    @pytest.mark.parametrize("spec, ids, digest", [
        (mlp_spec(grid=(4, 4), in_channels=2, width=6, depth=2),
         ["embed", "mlp0", "mlp1", "pool", "head"], "c1184dca3d04f556"),
        (tiny_vit_spec(grid=(4, 4), in_channels=2, embed=8, heads=2, depth=3),
         ["embed", "block0", "block1", "block2", "pool", "head"], "abd7f7a98d890b55"),
        (tiny_conv_spec(grid=(4, 4), in_channels=2, channels=3, depth=3, kernel=2),
         ["conv0", "conv1", "conv2", "pool", "head"], "2eac0c5a057b8c5b"),
    ], ids=["mlp", "vit", "conv"])
    def test_initialisation_is_pinned(self, spec, ids, digest):
        """Node ids, parameter keys and the RNG draw order (embed, the units
        in order, then the classifier) fix every parameter's bytes, so a
        checkpoint written by one version loads into the next."""
        model = build_model(spec, 7)
        assert [n.node_id for n in model.nodes] == ids
        h = hashlib.sha256()
        for key, value in sorted(model.params().items()):
            h.update(key.encode())
            h.update(value.tobytes())
        assert h.hexdigest()[:16] == digest

    def test_fd_scale_vit_under_2000_params(self):
        spec = tiny_vit_spec(grid=(4, 4), in_channels=2, embed=8, heads=2,
                             depth=3, mlp_ratio=2)
        assert build_model(spec, 0).n_params() <= 2000

    def test_preset_structure(self):
        blocks = [n for n in build_model(vit_tiny_preset(), 0).nodes if n.kind == "block"]
        assert len(blocks) == 12
        assert blocks[0].embed == 192
        assert sum(n.sbp_enabled for n in blocks) == 8

    def test_unknown_layer_kind(self):
        with pytest.raises(ConfigurationError):
            build_model(ModelConfig(kind="warp"), 0)

    def test_even_kernel_convs_chain_their_grids(self):
        """An even kernel grows the grid by one per conv. Each conv reads the
        grid the one before it wrote, so the pool's input shape and the
        memory estimate follow the real activations."""
        spec = tiny_conv_spec(grid=(4, 4), in_channels=2, channels=3, depth=3, kernel=2,
                              sbp_fraction=0.0)
        model = build_model(spec, 0)
        assert [n.out_grid for n in model.nodes if n.kind == "conv"] == [(5, 5), (6, 6), (7, 7)]
        rng = np.random.Generator(np.random.PCG64(1))
        x = rng.normal(size=(2, 4, 4, 2))
        tape = forward(model, x, rng.integers(0, 2, size=2))
        _, dx = backward(tape, want_input_grad=True)
        assert dx.shape == x.shape
        report = activation_memory_estimate(model, None, 2)
        assert report.estimated_total == tape.cached_elements()

    def test_even_kernel_convs_mask_their_own_grids(self):
        """Under SBP each even-kernel conv's mask lives on the grid that conv
        writes, so a plan of independent masks trains."""
        spec = tiny_conv_spec(grid=(4, 4), in_channels=2, channels=3, depth=2, kernel=2,
                              sbp_fraction=1.0)
        model = build_model(spec, 0)
        plan = make_mask_plan(model, build_schedule("uniform", 0.75, 2), "grid",
                              "independent", 3)
        assert [m.domain_shape for m in plan.values()] == [(5, 5), (6, 6)]
        rng = np.random.Generator(np.random.PCG64(1))
        x, labels = rng.normal(size=(2, 4, 4, 2)), rng.integers(0, 2, size=2)
        sels = resolve(model, plan, "qkv", 2, 0)
        tape = forward(model, x, labels, plan=sels)
        report = activation_memory_estimate(model, sels, 2)
        assert report.estimated_total == tape.cached_elements()
        grads = backward(tape)
        assert set(grads.keys()) == set(model.params())
        sgd_step(model, grads, 0.1)

    def test_embed_must_divide_heads(self):
        rng = np.random.Generator(np.random.PCG64(0))
        with pytest.raises(ConfigurationError):
            TransformerBlockNode("b", 4, 7, 2, 2, rng)


class TestSbpFlags:
    def test_last_layers_flagged(self):
        spec = tiny_vit_spec(depth=6, sbp_fraction=2 / 3)
        flags = [n.sbp_enabled for n in build_model(spec, 0).nodes if n.kind == "block"]
        assert flags == [False, False, True, True, True, True]

    def test_zero_fraction_disables_all(self):
        spec = mlp_spec(depth=3, sbp_fraction=0.0)
        assert not any(n.sbp_enabled for n in build_model(spec, 0).nodes if n.kind == "linear")

    def test_sbp_layers_lists_flagged_groups(self):
        spec = tiny_vit_spec(grid=(4, 4), depth=3, sbp_fraction=2 / 3)
        model = build_model(spec, 0)
        layers = model.sbp_layers()
        assert [lid for lid, _ in layers] == ["block1", "block2"]
        assert all(g == (4, 4) for _, g in layers)

    @pytest.mark.parametrize("spec", [
        mlp_spec(grid=(4, 4), in_channels=2, width=6, depth=3, sbp_fraction=2 / 3),
        tiny_vit_spec(grid=(4, 4), in_channels=2, embed=8, heads=2, depth=3),
        tiny_conv_spec(grid=(4, 4), in_channels=2, channels=3, depth=3, sbp_fraction=2 / 3),
    ], ids=["mlp", "vit", "conv"])
    def test_sbp_nodes_are_keyed_by_node_id(self, spec):
        """A node runs under the plan mask of its own node id, so every
        SBP-enabled node's id is one of the plan's layer ids."""
        model = build_model(spec, 0)
        layer_ids = [lid for lid, _ in model.sbp_layers()]
        sbp_ids = [node.node_id for node in model.nodes if node.sbp_enabled]
        assert sbp_ids == layer_ids
        assert len(layer_ids) == 2


def _two_step_unit(node, x, dy, keep):
    """The token-MLP unit as two nodes, a linear node and then a GELU node,
    each gathering its upstream's kept rows and scattering its input gradient
    into zeros. Returns (y, dw, db, dx)."""
    rows = slice(None) if keep is None else keep
    b, n, c = x.shape
    u = (x.reshape(b * n, c) @ node.w + node.b).reshape(b, n, -1)
    y = gelu_forward(u)
    du = np.zeros(u.shape)
    du[:, rows, :] = gelu_backward(np.ascontiguousarray(u[:, rows, :]),
                                   np.ascontiguousarray(dy[:, rows, :]))
    dw, db, dx_k = linear_backward_kept(np.ascontiguousarray(x[:, rows, :]),
                                        np.ascontiguousarray(du[:, rows, :]), node.w, True)
    dx = np.zeros(x.shape)
    dx[:, rows, :] = dx_k
    return y, dw, db, dx


class TestTokenMlpUnit:
    @pytest.mark.parametrize("keep", [None, [5]], ids=["unmasked", "keep-one"])
    def test_fused_equals_two_step(self, keep):
        rng = np.random.Generator(np.random.PCG64(8))
        node = TokenLinearNode("mlp0", 16, 3, 5, rng, sbp_enabled=True, grid=(4, 4))
        node.b = rng.normal(size=5)
        x = rng.normal(size=(2, 16, 3))
        dy = rng.normal(size=(2, 16, 5))
        y, rec = node.forward(x)
        if keep is not None:
            rec = node.restrict(rec, select(IndexMask.from_keep((4, 4), keep), "qkv"))
        grads, dx = node.backward(rec, dy)
        y_ref, dw_ref, db_ref, dx_ref = _two_step_unit(node, x, dy, keep)
        assert np.array_equal(y, y_ref)
        assert np.array_equal(grads["w"], dw_ref)
        assert np.array_equal(grads["b"], db_ref)
        assert np.array_equal(rows_at(dx, None), dx_ref)


class TestModelParams:
    def test_set_params_roundtrip(self):
        model = build_model(mlp_spec(grid=(2, 2), in_channels=2, width=4, depth=1), 0)
        params = {k: v + 1.0 for k, v in model.params().items()}
        model.set_params(params)
        after = model.params()
        for key in params:
            np.testing.assert_array_equal(after[key], params[key])

    def test_set_params_missing_key(self):
        model = build_model(mlp_spec(grid=(2, 2), in_channels=2, width=4, depth=1), 0)
        params = model.params()
        params.pop(sorted(params)[0])
        with pytest.raises(ConfigurationError):
            model.set_params(params)


class TestForwardShapes:
    @pytest.mark.parametrize("spec,n_classes", [
        (mlp_spec(grid=(2, 2), in_channels=2, width=4, depth=1, n_classes=3), 3),
        (tiny_vit_spec(grid=(2, 2), in_channels=2, embed=4, heads=2, depth=1,
                       n_classes=2), 2),
        (tiny_conv_spec(grid=(4, 4), in_channels=2, channels=3, depth=1,
                        n_classes=4), 4),
    ], ids=["mlp", "vit", "conv"])
    def test_logits_shape(self, spec, n_classes):
        model = build_model(spec, 0)
        rng = np.random.Generator(np.random.PCG64(0))
        x = rng.normal(size=(5, spec.grid[0], spec.grid[1], spec.in_channels))
        labels = rng.integers(0, n_classes, size=5)
        tape = forward(model, x, labels)
        assert tape.logits.shape == (5, n_classes)
        assert np.isfinite(tape.loss)
