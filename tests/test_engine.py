import numpy as np
import pytest

from sbp.engine import (
    GradientStore,
    backward,
    finite_difference_grad,
    forward,
    grad,
    head_keep_for,
    predict,
    sgd_step,
)
from sbp.errors import ConfigurationError, ContractViolationError, NumericError
from sbp.layers import gelu_backward, layer_norm_backward
from sbp.masks import IndexMask, MaskPlan, build_schedule, full_keep_mask, make_mask_plan
from sbp.models import build_model, mlp_spec, tiny_conv_spec, tiny_vit_spec

from helpers import mhsa_sbp_reference


def small_batch(rng, model_kind="mlp", grid=(2, 2), channels=2, batch=3):
    x = rng.normal(size=(batch, grid[0], grid[1], channels))
    labels = rng.integers(0, 2, size=batch)
    return x, labels


class TestFullBackward:
    @pytest.mark.parametrize("spec", [
        mlp_spec(grid=(2, 2), in_channels=2, width=4, depth=2),
        tiny_vit_spec(grid=(2, 2), in_channels=2, embed=4, heads=2, depth=2),
        tiny_conv_spec(grid=(4, 4), in_channels=2, channels=3, depth=2),
    ], ids=["mlp", "vit", "conv"])
    def test_matches_finite_differences(self, spec):
        model = build_model(spec, seed=0)
        rng = np.random.Generator(np.random.PCG64(1))
        grid = spec.layers[0].options["grid"]
        x, labels = small_batch(rng, grid=grid)
        _, store = grad(model, x, labels)
        fd = finite_difference_grad(model, x, labels)
        for key in store.keys():
            np.testing.assert_allclose(store[key], fd[key], rtol=1e-4, atol=1e-6,
                                       err_msg=key)

    def test_input_gradient(self):
        model = build_model(mlp_spec(grid=(2, 2), in_channels=2, width=4, depth=1), 0)
        rng = np.random.Generator(np.random.PCG64(2))
        x, labels = small_batch(rng)
        tape = forward(model, x, labels)
        _, dx = backward(tape, want_input_grad=True)
        eps = 1e-6
        fd = np.zeros_like(x)
        for idx in np.ndindex(x.shape):
            xp = x.copy(); xp[idx] += eps
            xm = x.copy(); xm[idx] -= eps
            fd[idx] = (forward(model, xp, labels).loss
                       - forward(model, xm, labels).loss) / (2 * eps)
        np.testing.assert_allclose(dx.reshape(x.shape), fd, rtol=1e-4, atol=1e-7)

    def test_nonfinite_loss_raises(self):
        model = build_model(mlp_spec(grid=(2, 2), in_channels=2, width=4, depth=1), 0)
        bad = {k: v.copy() for k, v in model.params().items()}
        key = sorted(bad)[0]
        bad[key] = np.full_like(bad[key], np.inf)
        model.set_params(bad)
        rng = np.random.Generator(np.random.PCG64(3))
        x, labels = small_batch(rng)
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            forward(model, x, labels)


class TestPredict:
    @pytest.mark.parametrize("spec", [
        mlp_spec(grid=(2, 2), in_channels=2, width=4, depth=2),
        tiny_vit_spec(grid=(2, 2), in_channels=2, embed=4, heads=2, depth=2),
        tiny_conv_spec(grid=(4, 4), in_channels=2, channels=3, depth=2),
    ], ids=["mlp", "vit", "conv"])
    def test_equals_tape_logits(self, spec):
        model = build_model(spec, seed=0)
        rng = np.random.Generator(np.random.PCG64(2))
        x, labels = small_batch(rng, grid=spec.layers[0].options["grid"], batch=5)
        np.testing.assert_array_equal(predict(model, x), forward(model, x, labels).logits)

    def test_nonfinite_logits_raise(self):
        model = build_model(mlp_spec(grid=(2, 2), in_channels=2, width=4, depth=1), 0)
        bad = dict(model.params())
        bad["head.b"] = np.array([0.0, np.nan])
        model.set_params(bad)
        x, _ = small_batch(np.random.Generator(np.random.PCG64(3)))
        with pytest.raises(NumericError):
            predict(model, x)


class TestSbpEngine:
    def make_mlp(self):
        spec = mlp_spec(grid=(4, 4), in_channels=2, width=6, depth=2, sbp_fraction=1.0)
        return build_model(spec, seed=4)

    def plan_for(self, model, ratio=0.5, sampler="grid", sharing="independent", seed=0):
        sched = build_schedule("uniform", ratio, len(model.sbp_layers()))
        return make_mask_plan(model, sched, sampler, sharing, seed)

    def test_mlp_equals_zero_then_full(self):
        """Engine SBP gradients match a full backward whose upstream is zeroed
        at dropped token rows at each masked unit boundary."""
        model = self.make_mlp()
        rng = np.random.Generator(np.random.PCG64(5))
        x = rng.normal(size=(3, 4, 4, 2))
        labels = rng.integers(0, 2, size=3)
        plan = self.plan_for(model, seed=7)
        masks = dict(plan.per_layer)

        tape_sbp = forward(model, x, labels, plan=plan)
        store_sbp = backward(tape_sbp)

        tape_full = forward(model, x, labels)
        dy = tape_full.dlogits
        ref = {}
        for node, rec in reversed(tape_full.records):
            if node.kind == "gelu" and node.mask_group in masks:
                dy = dy.copy()
                dy[:, masks[node.mask_group].drop_array(), :] = 0.0
            node_grads, dy = node.backward(rec, dy)
            for name, g in node_grads.items():
                ref[f"{node.node_id}.{name}"] = g
        for key in ref:
            np.testing.assert_allclose(store_sbp[key], ref[key], atol=1e-12,
                                       err_msg=key)

    def test_full_ratio_plan_identical_to_disabled(self):
        model = self.make_mlp()
        rng = np.random.Generator(np.random.PCG64(6))
        x = rng.normal(size=(2, 4, 4, 2))
        labels = rng.integers(0, 2, size=2)
        plan = self.plan_for(model, ratio=1.0)
        loss_a, store_a = grad(model, x, labels, plan=plan)
        loss_b, store_b = grad(model, x, labels, plan=None)
        assert loss_a == loss_b
        for key in store_a.keys():
            assert np.array_equal(store_a[key], store_b[key]), key

    def test_forward_loss_unchanged_by_sbp(self):
        model = self.make_mlp()
        rng = np.random.Generator(np.random.PCG64(7))
        x = rng.normal(size=(2, 4, 4, 2))
        labels = rng.integers(0, 2, size=2)
        plan = self.plan_for(model)
        tape_sbp = forward(model, x, labels, plan=plan)
        tape_full = forward(model, x, labels)
        assert tape_sbp.loss == tape_full.loss
        assert np.array_equal(tape_sbp.logits, tape_full.logits)

    def test_tape_cache_shrinks_under_sbp(self):
        model = self.make_mlp()
        rng = np.random.Generator(np.random.PCG64(8))
        x = rng.normal(size=(2, 4, 4, 2))
        labels = rng.integers(0, 2, size=2)
        full = forward(model, x, labels).cached_elements()
        masked = forward(model, x, labels, plan=self.plan_for(model)).cached_elements()
        assert masked < full

    def test_deterministic_gradients(self):
        model = self.make_mlp()
        rng = np.random.Generator(np.random.PCG64(9))
        x = rng.normal(size=(2, 4, 4, 2))
        labels = rng.integers(0, 2, size=2)
        plan = self.plan_for(model)
        _, a = grad(model, x, labels, plan=plan)
        _, b = grad(model, x, labels, plan=plan)
        for key in a.keys():
            assert np.array_equal(a[key], b[key])


class TestBlockSbp:
    """Transformer block gradients from restricted caches against an oracle
    that zeroes full-shaped tensors explicitly."""

    def setup_block(self, seed):
        spec = tiny_vit_spec(grid=(4, 4), in_channels=2, embed=6, heads=2,
                             depth=1, sbp_fraction=1.0)
        model = build_model(spec, seed=seed)
        block = [n for n in model.nodes if n.kind == "block"][0]
        rng = np.random.Generator(np.random.PCG64(seed + 100))
        x = rng.normal(size=(2, 16, 6))
        dy = rng.normal(size=(2, 16, 6))
        return block, x, dy

    def block_reference(self, block, x, dy, mask, mode, head_keep=None):
        from sbp.layers import gelu_forward, layer_norm_forward, mhsa_forward

        drop = mask.drop_array()
        h1, ln1c = layer_norm_forward(x, block.ln1_g, block.ln1_b)
        att, _ = mhsa_forward(block._mhsa(), h1)
        x2 = x + att
        h2, ln2c = layer_norm_forward(x2, block.ln2_g, block.ln2_b)
        b, n, c = x.shape
        u = (h2.reshape(b * n, c) @ block.w1 + block.b1).reshape(b, n, -1)
        g = gelu_forward(u)

        up = dy.copy()
        up[:, drop, :] = 0.0
        grads = {}
        dmo = up.reshape(b * n, c)
        grads["w2"] = g.reshape(b * n, -1).T @ dmo
        grads["b2"] = dmo.sum(axis=0)
        dg = (dmo @ block.w2.T).reshape(b, n, -1)
        du = gelu_backward(u, dg)
        du_f = du.reshape(b * n, -1)
        grads["w1"] = h2.reshape(b * n, c).T @ du_f
        grads["b1"] = du_f.sum(axis=0)
        dh2 = (du_f @ block.w1.T).reshape(b, n, c)
        grads["ln2_g"], grads["ln2_b"], dx2a = layer_norm_backward(
            ln2c, block.ln2_g, dh2)
        dx2 = dy + dx2a

        head_drop = ()
        if mode == "head":
            head_drop = tuple(sorted(set(range(block.heads)) - set(head_keep)))
        mg = mhsa_sbp_reference(block._mhsa(), h1, dx2, drop, mode, head_drop)
        grads["w_q"], grads["w_k"] = mg["dw_q"], mg["dw_k"]
        grads["w_v"], grads["w_o"] = mg["dw_v"], mg["dw_o"]
        grads["ln1_g"], grads["ln1_b"], dxa = layer_norm_backward(
            ln1c, block.ln1_g, mg["dx"])
        return grads, dx2 + dxa

    @pytest.mark.parametrize("mode", ["query_only", "qkv", "head"])
    def test_restricted_cache_matches_oracle(self, mode):
        block, x, dy = self.setup_block(seed=20)
        mask = IndexMask.from_keep((4, 4), list(range(0, 16, 2)))
        head_keep = (1,) if mode == "head" else None
        y, rec = block.forward(x, mask=mask, mode=mode, head_keep=head_keep)
        got, dx = block.backward(rec, dy)
        ref, dx_ref = self.block_reference(block, x, dy, mask, mode, head_keep)
        for key in ref:
            np.testing.assert_allclose(got[key], ref[key], atol=1e-10, err_msg=key)
        np.testing.assert_allclose(dx, dx_ref, atol=1e-10)

    @pytest.mark.parametrize("mode", ["query_only", "qkv", "head"])
    def test_all_gradients_finite_from_restricted_cache(self, mode):
        """The block's backward runs on the kept-only cache alone, in every
        drop mode, and yields finite gradients everywhere."""
        block, x, dy = self.setup_block(seed=21)
        mask = IndexMask.from_keep((4, 4), [0, 3, 5, 9, 12, 14])
        head_keep = (0,) if mode == "head" else None
        _, rec = block.forward(x, mask=mask, mode=mode, head_keep=head_keep)
        got, dx = block.backward(rec, dy)
        for key, g in got.items():
            assert np.all(np.isfinite(g)), key
        assert np.all(np.isfinite(dx))


def assert_stores_equal(a, b):
    assert set(a.keys()) == set(b.keys())
    for key in a.keys():
        assert np.array_equal(a[key], b[key]), key


def keep_one_plan(model, token=3):
    """Every SBP layer keeps a single token: in head mode with two heads that
    ratio also drops every head."""
    layers = model.sbp_layers()
    mask = IndexMask.from_keep(layers[0][1], [token])
    return MaskPlan(tuple((lid, mask) for lid, _ in layers), "shared")


class TestRestrictAtBackward:
    """backward(exact tape, plan) must equal backward(forward(plan)) bit for bit."""

    def check(self, model, x, labels, plan, mode="qkv", step=0, head_seed=0):
        exact = forward(model, x, labels)
        exact_grads = backward(exact)
        planned = backward(forward(model, x, labels, plan=plan, mode=mode, step=step,
                                   head_seed=head_seed))
        masked = backward(exact, plan=plan, mode=mode, step=step, head_seed=head_seed)
        assert_stores_equal(masked, planned)
        # The exact tape is left as it was: its plain backward is unchanged.
        assert_stores_equal(backward(exact), exact_grads)

    def test_mlp_independent_random_masks(self):
        model = build_model(mlp_spec(grid=(4, 4), in_channels=2, width=6, depth=3), 4)
        x, labels = small_batch(np.random.Generator(np.random.PCG64(30)), grid=(4, 4))
        sched = build_schedule("increasing", 0.5, len(model.sbp_layers()))
        for seed in range(3):
            self.check(model, x, labels,
                       make_mask_plan(model, sched, "random", "independent", seed))

    @pytest.mark.parametrize("mode", ["qkv", "query_only", "head"])
    @pytest.mark.parametrize("plan_kind", ["grid", "keep_one"])
    def test_vit_modes(self, mode, plan_kind):
        spec = tiny_vit_spec(grid=(4, 4), in_channels=2, embed=8, heads=2,
                             depth=3, sbp_fraction=2 / 3)
        model = build_model(spec, 5)
        x, labels = small_batch(np.random.Generator(np.random.PCG64(31)), grid=(4, 4))
        if plan_kind == "grid":
            sched = build_schedule("uniform", 0.5, len(model.sbp_layers()))
            plan = make_mask_plan(model, sched, "grid", "shared", 2)
        else:
            plan = keep_one_plan(model)
            if mode == "head":
                tape = forward(model, x, labels, plan=plan, mode=mode)
                assert [rec.head_keep for node, rec in tape.records
                        if node.kind == "block" and node.sbp_enabled] == [(), ()]
        for step in (0, 1):
            self.check(model, x, labels, plan, mode=mode, step=step, head_seed=7)

    def test_conv_grid_masks(self):
        spec = tiny_conv_spec(grid=(4, 4), in_channels=2, channels=3, depth=2)
        model = build_model(spec, 6)
        x, labels = small_batch(np.random.Generator(np.random.PCG64(32)), grid=(4, 4))
        sched = build_schedule("uniform", 0.5, len(model.sbp_layers()))
        self.check(model, x, labels, make_mask_plan(model, sched, "grid", "shared", 1))

    def test_plan_on_restricted_tape_rejected(self):
        model = build_model(mlp_spec(grid=(4, 4), in_channels=2, width=6, depth=2), 4)
        x, labels = small_batch(np.random.Generator(np.random.PCG64(33)), grid=(4, 4))
        sched = build_schedule("uniform", 0.5, len(model.sbp_layers()))
        plan = make_mask_plan(model, sched, "grid", "shared", 0)
        tape = forward(model, x, labels, plan=plan)
        with pytest.raises(ConfigurationError):
            backward(tape, plan=plan)
        backward(tape)  # without a second plan the restricted tape is fine


class TestNodeRestrict:
    """restrict(full record) is the record a masked forward makes."""

    def records_equal(self, a, b):
        assert (a.mask, a.mode, a.head_keep, a.cached_elements) == (
            b.mask, b.mode, b.head_keep, b.cached_elements)

        def leaves(cache):
            if isinstance(cache, dict):
                return [t for k in sorted(cache) for t in leaves(cache[k])]
            if isinstance(cache, (tuple, list)):
                return [t for item in cache for t in leaves(item)]
            if hasattr(cache, "__dataclass_fields__"):
                return [getattr(cache, f) for f in cache.__dataclass_fields__]
            return [cache]

        la, lb = leaves(a.cache), leaves(b.cache)
        assert len(la) == len(lb)
        for u, v in zip(la, lb):
            assert (u is None and v is None) or np.array_equal(u, v)

    @pytest.mark.parametrize("mode,head_keep", [
        ("qkv", None), ("query_only", None), ("head", (1,)), ("head", ())])
    def test_block(self, mode, head_keep):
        block, x, _ = TestBlockSbp().setup_block(seed=22)
        mask = IndexMask.from_keep((4, 4), [2, 7, 11])
        _, full = block.forward(x)
        _, rec = block.forward(x, mask=mask, mode=mode, head_keep=head_keep)
        self.records_equal(block.restrict(full, mask, mode, head_keep), rec)
        assert rec.cached_elements < full.cached_elements

    @pytest.mark.parametrize("spec", [
        mlp_spec(grid=(4, 4), in_channels=2, width=6, depth=1),
        tiny_conv_spec(grid=(4, 4), in_channels=2, channels=3, depth=1),
    ], ids=["mlp", "conv"])
    def test_token_and_conv_nodes(self, spec):
        model = build_model(spec, 0)
        mask = IndexMask.from_keep((4, 4), [0, 5, 6, 15])
        h = np.random.Generator(np.random.PCG64(34)).normal(size=(2, 4, 4, 2))
        for node in model.nodes:
            if not node.sbp_enabled:
                h = node.forward(h)[0]
                continue
            _, full = node.forward(h)
            h, rec = node.forward(h, mask=mask)
            self.records_equal(node.restrict(full, mask), rec)


class TestGradientStore:
    def test_missing_key_detected(self):
        store = GradientStore({"a": np.zeros(2)})
        with pytest.raises(ContractViolationError):
            store.check_against({"a": np.zeros(2), "b": np.zeros(3)})

    def test_shape_mismatch_detected(self):
        store = GradientStore({"a": np.zeros((2, 3))})
        with pytest.raises(ContractViolationError):
            store.check_against({"a": np.zeros((3, 2))})

    def test_nonfinite_detected(self):
        store = GradientStore({"a": np.array([1.0, np.nan])})
        with pytest.raises(NumericError):
            store.check_against({"a": np.zeros(2)})

    def test_flat_is_sorted_concat(self):
        store = GradientStore({"b": np.array([3.0]), "a": np.array([1.0, 2.0])})
        np.testing.assert_array_equal(store.flat(), [1.0, 2.0, 3.0])


class TestSgdStep:
    def test_updates_in_place(self):
        model = build_model(mlp_spec(grid=(2, 2), in_channels=2, width=4, depth=1), 0)
        before = {k: v.copy() for k, v in model.params().items()}
        grads = GradientStore({k: np.ones_like(v) for k, v in before.items()})
        sgd_step(model, grads, lr=0.1)
        after = model.params()
        for key in before:
            np.testing.assert_allclose(after[key], before[key] - 0.1, atol=1e-15)


class TestHeadKeepFor:
    class N:
        def __init__(self, nid="block0"):
            self.node_id = nid
            self.heads = 8

    def test_deterministic_and_node_dependent(self):
        a = self.N("block0")
        assert head_keep_for(a, 0.5, 3, 7) == head_keep_for(a, 0.5, 3, 7)
        picks = {head_keep_for(self.N(f"blk{i}"), 0.5, 0, 0) for i in range(10)}
        assert len(picks) > 1

    def test_ratio_sets_kept_head_count(self):
        node = self.N()
        assert len(head_keep_for(node, 0.5, 0, 0)) == 4
        assert len(head_keep_for(node, 0.25, 0, 0)) == 2
        assert head_keep_for(node, 1.0, 0, 0) == tuple(range(8))

    def test_head_forward_leaves_nodes_unchanged(self):
        spec = tiny_vit_spec(grid=(4, 4), in_channels=2, embed=8, heads=2,
                             depth=2, sbp_fraction=1.0)
        model = build_model(spec, seed=0)
        before = [sorted(vars(node)) for node in model.nodes]
        plan = make_mask_plan(model, build_schedule("uniform", 0.5, 2), "grid", "shared", 0)
        x, labels = small_batch(np.random.Generator(np.random.PCG64(2)), grid=(4, 4))
        forward(model, x, labels, plan=plan, mode="head")
        assert [sorted(vars(node)) for node in model.nodes] == before
