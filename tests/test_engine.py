import numpy as np
import pytest

from sbp.engine import (
    GradientStore,
    backward,
    finite_difference_grad,
    forward,
    head_keep_for,
    predict,
    resolve,
    sgd_step,
)
from sbp.errors import ConfigurationError, ContractViolationError, DimensionError, NumericError
from sbp.layers import select
from sbp.masks import IndexMask, build_schedule, full_keep_mask, make_mask_plan
from sbp.models import build_model, mlp_spec, tiny_conv_spec, tiny_vit_spec

from helpers import block_reference


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
        x, labels = small_batch(rng, grid=spec.grid)
        store = backward(forward(model, x, labels))
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

    def test_conv_forward_overflow_raises(self):
        """No per-operation finiteness check: a conv stack whose activations
        overflow still ends in NumericError, at the loss."""
        model = build_model(tiny_conv_spec(grid=(4, 4), in_channels=2, channels=3, depth=2), 0)
        model.set_params({k: v * 1e200 if k.startswith("conv") else v
                          for k, v in model.params().items()})
        x, labels = small_batch(np.random.Generator(np.random.PCG64(3)), grid=(4, 4))
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="loss"):
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
        x, labels = small_batch(rng, grid=spec.grid, batch=5)
        np.testing.assert_array_equal(predict(model, x), forward(model, x, labels).logits)

    def test_nonfinite_logits_raise(self):
        model = build_model(mlp_spec(grid=(2, 2), in_channels=2, width=4, depth=1), 0)
        bad = dict(model.params())
        bad["head.b"] = np.array([0.0, np.nan])
        model.set_params(bad)
        x, _ = small_batch(np.random.Generator(np.random.PCG64(3)))
        with pytest.raises(NumericError):
            predict(model, x)


# (mode, sharing, B) of the vit cases of the zero-then-full engine test.
VIT_CASES = [(mode, sharing, b) for mode in ("qkv", "query_only", "head")
             for sharing in ("shared", "independent") for b in (1, 3, 5, 9)]


class TestSbpEngine:
    def make_mlp(self):
        spec = mlp_spec(grid=(4, 4), in_channels=2, width=6, depth=2, sbp_fraction=1.0)
        return build_model(spec, seed=4)

    def plan_for(self, model, ratio=0.5, sampler="grid", sharing="independent", seed=0,
                 mode="qkv"):
        sched = build_schedule("uniform", ratio, len(model.sbp_layers()))
        return resolve(model, make_mask_plan(model, sched, sampler, sharing, seed), mode, 0, 0)

    # The conv and vit batches cross the planned forward's chunk boundaries;
    # B = 1 with a vit runs each row product on one sample.
    @pytest.mark.parametrize("spec, b, mode, sharing", [
        (mlp_spec(grid=(4, 4), in_channels=2, width=6, depth=2, sbp_fraction=1.0), 3,
         "qkv", "independent"),
        *((tiny_conv_spec(grid=(4, 4), in_channels=2, channels=3, depth=2), b,
           "qkv", "independent") for b in (3, 5, 9)),
        *((tiny_vit_spec(grid=(4, 4), in_channels=2, embed=6, heads=2, depth=2,
                         sbp_fraction=1.0), b, mode, sharing) for mode, sharing, b in VIT_CASES),
    ], ids=["mlp-B3", "conv-B3", "conv-B5", "conv-B9",
            *(f"vit-{mode}-{sharing}-B{b}" for mode, sharing, b in VIT_CASES)])
    def test_mlp_equals_zero_then_full(self, spec, b, mode, sharing):
        """Engine SBP gradients match a full backward whose upstream is zeroed
        at dropped token rows (conv: output positions) at each masked node;
        a masked transformer block's share is the zeroing block reference."""
        model = build_model(spec, seed=4)
        rng = np.random.Generator(np.random.PCG64(5))
        x = rng.normal(size=(b, 4, 4, 2))
        labels = rng.integers(0, 2, size=b)
        plan = self.plan_for(model, sharing=sharing, seed=7, mode=mode)

        tape_sbp = forward(model, x, labels, plan=plan)
        store_sbp = backward(tape_sbp)

        tape_full = forward(model, x, labels)
        inputs = [x]  # each node's input, which the block reference starts from
        for node, _ in tape_full.records[:-1]:
            inputs.append(node.forward(inputs[-1])[0])
        dy = tape_full.dlogits
        ref = {}
        for (node, rec), node_input in zip(reversed(tape_full.records), reversed(inputs)):
            mask = plan[node.node_id].mask
            if mask is not None and node.kind == "block":
                heads = plan[node.node_id].heads
                node_grads, dy = block_reference(node, node_input, dy, mask, mode,
                                                 None if heads is None else heads.tolist())
            else:
                if mask is not None:
                    dy = dy.copy()  # B x N x C, or B x H x W x C zeroed through a B x HW x C view
                    dy.reshape(b, -1, dy.shape[-1])[:, mask.drop_array(), :] = 0.0
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
        tape_a, tape_b = forward(model, x, labels, plan=plan), forward(model, x, labels)
        assert tape_a.loss == tape_b.loss
        store_a, store_b = backward(tape_a), backward(tape_b)
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
        a = backward(forward(model, x, labels, plan=plan))
        b = backward(forward(model, x, labels, plan=plan))
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

    @pytest.mark.parametrize("mode", ["query_only", "qkv", "head"])
    def test_restricted_cache_matches_oracle(self, mode):
        block, x, dy = self.setup_block(seed=20)
        mask = IndexMask.from_keep((4, 4), list(range(0, 16, 2)))
        head_keep = (1,) if mode == "head" else None
        rec = block.restrict(block.forward(x)[1], select(mask, mode, head_keep))
        got, dx = block.backward(rec, dy)
        ref, dx_ref = block_reference(block, x, dy, mask, mode, head_keep)
        for key in ref:
            np.testing.assert_allclose(got[key], ref[key], atol=1e-12, err_msg=key)
        np.testing.assert_allclose(dx, dx_ref, atol=1e-12)

    @pytest.mark.parametrize("mode", ["query_only", "qkv", "head"])
    def test_all_gradients_finite_from_restricted_cache(self, mode):
        """The block's backward runs on the kept-only cache alone, in every
        drop mode, and yields finite gradients everywhere."""
        block, x, dy = self.setup_block(seed=21)
        mask = IndexMask.from_keep((4, 4), [0, 3, 5, 9, 12, 14])
        head_keep = (0,) if mode == "head" else None
        rec = block.restrict(block.forward(x)[1], select(mask, mode, head_keep))
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
    return {lid: mask for lid, _ in layers}


class TestRestrictAtBackward:
    """backward(exact tape, plan) must equal backward(forward(plan)) bit for bit."""

    def check(self, model, x, labels, plan, mode="qkv", step=0, head_seed=0):
        exact = forward(model, x, labels)
        exact_grads = backward(exact)
        sels = resolve(model, plan, mode, step, head_seed)
        tape = forward(model, x, labels, plan=sels)
        # A planned forward's records carry the map's selections themselves.
        assert all(rec.sel is sels[node.node_id] for node, rec in tape.records
                   if sels[node.node_id].mask is not None)
        planned = backward(tape)
        masked = backward(exact, plan=sels)
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
                tape = forward(model, x, labels, plan=resolve(model, plan, mode, 0, 0))
                assert [rec.sel.heads.tolist() for node, rec in tape.records
                        if node.kind == "block" and node.sbp_enabled] == [[], []]
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
        plan = resolve(model, make_mask_plan(model, sched, "grid", "shared", 0), "qkv", 0, 0)
        tape = forward(model, x, labels, plan=plan)
        with pytest.raises(ConfigurationError):
            backward(tape, plan=plan)
        backward(tape)  # without a second plan the restricted tape is fine


class TestNodeRestrict:
    """restrict cuts a full record down to what the masked backward reads, and
    the analytic estimate counts exactly that."""

    @pytest.mark.parametrize("mode,head_keep", [
        ("qkv", None), ("query_only", None), ("head", (1,)), ("head", ())])
    def test_block(self, mode, head_keep):
        block, x, _ = TestBlockSbp().setup_block(seed=22)
        mask = IndexMask.from_keep((4, 4), [2, 7, 11])
        _, full = block.forward(x)
        sel = select(mask, mode, head_keep)
        rec = block.restrict(full, sel)
        assert rec.sel is sel
        assert rec.cached_elements < full.cached_elements
        assert rec.cached_elements == block.estimate_cached(2, sel)

    @pytest.mark.parametrize("spec", [
        mlp_spec(grid=(4, 4), in_channels=2, width=6, depth=1),
        tiny_conv_spec(grid=(4, 4), in_channels=2, channels=3, depth=1),
    ], ids=["mlp", "conv"])
    def test_token_and_conv_nodes(self, spec):
        model = build_model(spec, 0)
        mask = IndexMask.from_keep((4, 4), [0, 5, 6, 15])
        h = np.random.Generator(np.random.PCG64(34)).normal(size=(2, 4, 4, 2))
        for node in model.nodes:
            h, full = node.forward(h)
            if not node.sbp_enabled:
                continue
            sel = select(mask, "qkv")
            rec = node.restrict(full, sel)
            assert rec.sel.mask is mask
            # Token nodes keep 4 of 16 rows; conv keeps its whole record.
            expected = full.cached_elements if node.kind == "conv" else full.cached_elements // 4
            assert rec.cached_elements == expected
            assert rec.cached_elements == node.estimate_cached(2, sel)
            if node.kind == "linear":
                # The unit caches the kept rows of its input; the mask gives their indices.
                assert rec.cache["x"].shape == (2, 4, node.w.shape[0])
                assert rec.sel.keep.tolist() == [0, 5, 6, 15]


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


SELECTION_FIELDS = ("keep", "rows", "queries", "heads")


class TestResolve:
    """resolve turns a plan, drop mode, step and head seed into one read-only
    map from node id to the selection that node runs under."""

    def vit(self):
        spec = tiny_vit_spec(grid=(4, 4), in_channels=2, embed=8, heads=4, depth=3,
                             sbp_fraction=2 / 3)
        return build_model(spec, 5)

    def grid_plan(self, model, ratio=0.5):
        sched = build_schedule("uniform", ratio, len(model.sbp_layers()))
        return make_mask_plan(model, sched, "grid", "shared", 2)

    def test_covers_every_node_read_only(self):
        model = self.vit()
        sels = resolve(model, self.grid_plan(model), "qkv", 0, 0)
        assert list(sels) == [node.node_id for node in model.nodes]
        with pytest.raises(TypeError):
            sels["block0"] = None

    def test_no_plan_gives_none(self):
        assert resolve(self.vit(), None, "head", 3, 7) is None

    @pytest.mark.parametrize("mode", ["qkv", "query_only", "head"])
    def test_equal_inputs_give_equal_maps(self, mode):
        model = self.vit()
        plan = self.grid_plan(model)
        a, b = resolve(model, plan, mode, 4, 9), resolve(model, plan, mode, 4, 9)
        assert a.keys() == b.keys()
        for node_id in a:
            assert a[node_id].mask is b[node_id].mask
            for field in SELECTION_FIELDS:
                x, y = getattr(a[node_id], field), getattr(b[node_id], field)
                assert (x is None and y is None) or np.array_equal(x, y), (node_id, field)

    def test_nodes_without_a_mask_keep_everything(self):
        model = self.vit()
        layers = model.sbp_layers()
        mask = IndexMask.from_keep(layers[0][1], [0, 5, 10])
        # Only the first SBP block gets a mask; a mask named after a node that
        # is not SBP-enabled is ignored.
        plan = {layers[0][0]: mask, "embed": full_keep_mask((16,))}
        sels = resolve(model, plan, "head", 0, 0)
        for node in model.nodes:
            sel = sels[node.node_id]
            if node.node_id == layers[0][0]:
                assert sel.mask is mask and sel.keep.tolist() == [0, 5, 10]
            else:
                assert sel.mask is None, node.node_id
                assert all(getattr(sel, f) is None for f in SELECTION_FIELDS), node.node_id

    @pytest.mark.parametrize("spec, node_id, grid", [
        (mlp_spec(grid=(4, 4), in_channels=2, width=6, depth=2), "mlp1", (16,)),
        (mlp_spec(grid=(4, 4), in_channels=2, width=6, depth=2), "mlp1", (2, 8)),
        (tiny_conv_spec(grid=(4, 4), in_channels=2, channels=3, depth=2), "conv1", (16,)),
    ], ids=["linear-flat", "linear-2x8", "conv-flat"])
    def test_mask_off_its_node_grid_rejected(self, spec, node_id, grid):
        """A hand-built plan's mask must lie on its node's grid, for every
        node kind: one of the right size on another grid is not accepted."""
        model = build_model(spec, 0)
        plan = {lid: full_keep_mask(shape) for lid, shape in model.sbp_layers()}
        plan[node_id] = IndexMask.from_keep(grid, range(0, 16, 2))
        with pytest.raises(DimensionError, match=f"node {node_id}: mask grid"):
            resolve(model, plan, "qkv", 0, 0)

    @pytest.mark.parametrize("mode", ["qkv", "query_only", "head"])
    def test_full_keep_mask_keeps_everything(self, mode):
        """A mask that drops nothing keeps its mask, so the node still runs
        chunked, and keeps every index, row, query and head."""
        model = self.vit()
        sels = resolve(model, self.grid_plan(model, ratio=1.0), mode, 1, 3)
        for node_id, _ in model.sbp_layers():
            assert sels[node_id].mask.is_full_keep
            assert all(getattr(sels[node_id], f) is None for f in SELECTION_FIELDS)

    def test_heads_drawn_for_blocks_in_head_mode_only(self):
        model = self.vit()
        plan = self.grid_plan(model)
        for mode in ("qkv", "query_only"):
            assert all(sel.heads is None for sel in resolve(model, plan, mode, 0, 0).values())
        draws = [resolve(model, plan, "head", step, 7) for step in range(6)]
        for node in model.nodes:
            for sels in draws:
                if node.kind == "block" and node.sbp_enabled:
                    assert sels[node.node_id].heads.size == 2
                else:
                    assert sels[node.node_id].heads is None
        per_step = {tuple(sels["block2"].heads.tolist()) for sels in draws}
        assert len(per_step) > 1, "heads do not change with the step"
        mlp = build_model(mlp_spec(grid=(4, 4), in_channels=2, width=6, depth=2), 4)
        sels = resolve(mlp, self.grid_plan(mlp), "head", 0, 0)
        assert all(sel.heads is None for sel in sels.values())


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
        forward(model, x, labels, plan=resolve(model, plan, "head", 0, 0))
        assert [sorted(vars(node)) for node in model.nodes] == before
