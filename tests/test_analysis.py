from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sbp.analysis import (
    CI_PERCENTILES,
    N_BOOT,
    ConvStage,
    PointwiseStage,
    accuracy,
    activation_memory_estimate,
    bootstrap_mean_diff,
    chain_rule_report,
    cosine_similarity,
    exact_reference,
    grad_similarity_experiment,
    l2_norm_trace,
    mhsa_memory_ratio,
    pointwise_stack_report,
    _percentile,
)
from sbp.engine import GradientStore, forward, predict, resolve
from sbp.errors import ConfigurationError
from sbp.masks import (
    IndexMask,
    build_schedule,
    checkerboard_mask,
    full_keep_mask,
    make_mask_plan,
)
from sbp.models import build_model, mlp_spec, tiny_conv_spec, tiny_vit_spec

from helpers import rounds_up_to


class TestCosine:
    def test_parallel_and_antiparallel(self):
        v = np.array([1.0, 2.0, -1.0])
        assert cosine_similarity(v, 3.0 * v) == pytest.approx(1.0)
        assert cosine_similarity(v, -v) == pytest.approx(-1.0)

    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 5.0]) == pytest.approx(0.0)

    def test_both_zero_is_one(self):
        assert cosine_similarity(np.zeros(3), np.zeros(3)) == 1.0

    def test_one_zero_is_zero(self):
        assert cosine_similarity(np.zeros(3), np.ones(3)) == 0.0

    def test_size_mismatch(self):
        with pytest.raises(ConfigurationError):
            cosine_similarity(np.zeros(3), np.zeros(4))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 20))
    def test_always_in_unit_interval(self, seed, n):
        rng = np.random.Generator(np.random.PCG64(seed))
        c = cosine_similarity(rng.normal(size=n), rng.normal(size=n))
        assert -1.0 - 1e-12 <= c <= 1.0 + 1e-12


class TestMhsaMemoryRatio:
    def test_full_keep_is_one(self):
        assert mhsa_memory_ratio(Fraction(1), 64, 196, "query_only") == 1
        assert mhsa_memory_ratio(Fraction(1), 64, 196, "qkv") == 1

    def test_monotone_in_ratio(self):
        for mode in ("query_only", "qkv"):
            vals = [mhsa_memory_ratio(r, 64, 196, mode)
                    for r in (0.25, 0.5, 0.75, 1.0)]
            assert vals == sorted(vals)

    def test_qkv_never_exceeds_query_only(self):
        for r in (0.1, 0.25, 0.5, 0.75, 0.99):
            assert (mhsa_memory_ratio(r, 64, 196, "qkv")
                    <= mhsa_memory_ratio(r, 64, 196, "query_only"))

    def test_reference_points_two_decimals(self):
        half, quarter = Fraction(1, 2), Fraction(1, 4)
        assert rounds_up_to(mhsa_memory_ratio(half, 64, 196, "query_only"), 0.61, 2)
        assert rounds_up_to(mhsa_memory_ratio(half, 64, 196, "qkv"), 0.46, 2)
        assert rounds_up_to(mhsa_memory_ratio(quarter, 64, 196, "qkv"), 0.22, 2)
        assert rounds_up_to(mhsa_memory_ratio(half, 32, 392, "query_only"), 0.537, 3)

    def test_exact_fraction_arithmetic(self):
        got = mhsa_memory_ratio(Fraction(1, 2), 64, 196, "qkv")
        c = Fraction(64, 196)
        assert got == Fraction(1, 2) * (3 + 2 * Fraction(1, 2) * c) / (3 + 2 * c)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            mhsa_memory_ratio(0.0, 64, 196, "query_only")
        with pytest.raises(ConfigurationError):
            mhsa_memory_ratio(0.5, 64, 196, "head")


class TestMemoryEstimate:
    # Keep ratios 1/2, 1/4 and 1/16 of the 4x4 grid's tokens; at 1/16 one
    # token and no head of two is kept.
    @pytest.mark.parametrize("mode, keep_ratio", [
        pytest.param(mode, r, id=mode if r == 0.5 else f"{mode}-{r}")
        for r in (0.5, 0.25, 0.0625) for mode in ("query_only", "qkv", "head")])
    def test_estimate_matches_tape_vit(self, mode, keep_ratio):
        spec = tiny_vit_spec(grid=(4, 4), in_channels=2, embed=8, heads=2,
                             depth=3, sbp_fraction=2 / 3)
        model = build_model(spec, 0)
        sched = build_schedule("uniform", keep_ratio, len(model.sbp_layers()))
        plan = resolve(model, make_mask_plan(model, sched, "grid", "shared", 0), mode, 1, 5)
        rng = np.random.Generator(np.random.PCG64(1))
        x = rng.normal(size=(3, 4, 4, 2))
        labels = rng.integers(0, 2, size=3)
        tape = forward(model, x, labels, plan=plan)
        report = activation_memory_estimate(model, plan, batch_size=3)
        assert report.estimated_total == tape.cached_elements()
        assert report.ratio < 1.0

    def test_estimate_matches_tape_mlp(self):
        spec = mlp_spec(grid=(4, 4), in_channels=2, width=6, depth=2)
        model = build_model(spec, 0)
        sched = build_schedule("uniform", 0.25, len(model.sbp_layers()))
        plan = resolve(model, make_mask_plan(model, sched, "random", "independent", 3),
                       "qkv", 0, 0)
        rng = np.random.Generator(np.random.PCG64(2))
        x = rng.normal(size=(2, 4, 4, 2))
        labels = rng.integers(0, 2, size=2)
        tape = forward(model, x, labels, plan=plan)
        report = activation_memory_estimate(model, plan, batch_size=2)
        assert report.estimated_total == tape.cached_elements()

    def test_mhsa_breakdown_counts_the_attention_record(self):
        spec = tiny_vit_spec(grid=(4, 4), in_channels=2, embed=8, heads=2, depth=2)
        model = build_model(spec, 0)
        x = np.random.Generator(np.random.PCG64(3)).normal(size=(3, 4, 4, 2))
        tape = forward(model, x, np.zeros(3, dtype=np.int64))
        report = activation_memory_estimate(model, None, batch_size=3)
        blocks = [(node, rec) for node, rec in tape.records if node.kind == "block"]
        assert set(report.mhsa_breakdown) == {node.node_id for node, _ in blocks}
        for node, rec in blocks:
            cache = rec.cache
            terms = report.mhsa_breakdown[node.node_id]
            assert 3 * terms["ln1_xhat_nc"] == cache["ln1_xhat"].size
            assert 3 * terms["ln1_inv_std_n"] == cache["ln1_inv_std"].size
            assert 3 * terms["s_hnn"] == cache["s"].size
            assert 3 * terms["a_hnd"] == cache["a"].size
            assert 3 * sum(terms.values()) == sum(cache[name].size for name in
                                                  ("ln1_xhat", "ln1_inv_std", "s", "a"))

    def test_no_plan_equals_full(self):
        model = build_model(mlp_spec(grid=(2, 2), in_channels=2, width=4, depth=1), 0)
        report = activation_memory_estimate(model, None, batch_size=2)
        assert report.estimated_total == report.full_total
        assert report.ratio == 1.0


class TestChainRule:
    def test_shared_pointwise_masks_never_vanish(self):
        m = checkerboard_mask(4, 4, phase=0)
        report = pointwise_stack_report([("l0", m), ("l1", m), ("l2", m)])
        assert not report.vanishing
        assert set(report.effective_keep) == set(m.keep)
        assert set(report.input_classes) == {"exact", "zero"}

    def test_disjoint_pointwise_masks_vanish(self):
        a = checkerboard_mask(4, 4, phase=0)
        b = checkerboard_mask(4, 4, phase=1)
        report = pointwise_stack_report([("l0", a), ("l1", b)])
        assert report.vanishing
        assert report.per_layer_sparsity["l0"] == 1.0

    def test_pointwise_classes_exact_or_zero(self):
        a = checkerboard_mask(4, 4, phase=0)
        report = pointwise_stack_report([("l0", a), ("l1", a)])
        assert set(report.input_classes) <= {"exact", "zero"}

    def test_conv_neighbor_effect_gives_approximate(self):
        stage = ConvStage("c0", (4, 4), kernel=3, stride=1, padding=1,
                          mask=checkerboard_mask(4, 4, phase=0))
        report = chain_rule_report([stage])
        assert "approximate" in report.input_classes
        assert report.weight_classes["c0"] == "approximate"
        assert not report.vanishing

    def test_stride_ge_kernel_exact_or_zero(self):
        stage = ConvStage("c0", (4, 4), kernel=2, stride=2,
                          mask=IndexMask.from_keep((2, 2), [0, 3]))
        report = chain_rule_report([stage])
        assert set(report.input_classes) == {"exact", "zero"}
        assert report.per_layer_sparsity["c0"] == 0.5

    def test_non_integral_conv_stage_rejected(self):
        stage = ConvStage("c0", (5, 5), kernel=2, stride=2)
        with pytest.raises(ConfigurationError, match="not integral"):
            stage.out_grid
        with pytest.raises(ConfigurationError):
            chain_rule_report([stage])

    def test_unmasked_stack_all_exact(self):
        report = chain_rule_report([PointwiseStage("l0", (2, 2)),
                                    PointwiseStage("l1", (2, 2))])
        assert set(report.input_classes) == {"exact"}
        assert report.weight_classes["l1"] == "exact"

    def test_mask_grid_mismatch(self):
        with pytest.raises(ConfigurationError):
            chain_rule_report([PointwiseStage("l0", (2, 2),
                                              checkerboard_mask(4, 4))])

    def test_empty_stack_rejected(self):
        with pytest.raises(ConfigurationError):
            chain_rule_report([])


class TestGradSimilarity:
    def make(self):
        spec = tiny_vit_spec(grid=(4, 4), in_channels=2, embed=8, heads=2,
                             depth=2, sbp_fraction=1.0)
        model = build_model(spec, 0)
        rng = np.random.Generator(np.random.PCG64(3))
        batches = [(rng.normal(size=(4, 4, 4, 2)), rng.integers(0, 2, size=4))
                   for _ in range(3)]
        sched = build_schedule("uniform", 0.5, len(model.sbp_layers()))
        plan = make_mask_plan(model, sched, "grid", "shared", 0)
        return model, batches, plan

    def test_reports_per_batch(self):
        model, batches, plan = self.make()
        for step, (x, labels) in enumerate(batches):
            rep = grad_similarity_experiment(exact_reference(model, x, labels),
                                             resolve(model, plan, "qkv", step, 0))
            assert -1.0 <= rep.cosine <= 1.0
            assert rep.sbp_norm > 0
            assert set(rep.per_node) == set(rep.per_node_l2) == set(rep.node_kinds)
            assert rep.node_kinds["block0"] == "block"

    def test_full_ratio_gives_cosine_one(self):
        model, batches, _ = self.make()
        sched = build_schedule("uniform", 1.0, len(model.sbp_layers()))
        plan = make_mask_plan(model, sched, "grid", "shared", 0)
        for step, (x, labels) in enumerate(batches):
            rep = grad_similarity_experiment(exact_reference(model, x, labels),
                                             resolve(model, plan, "qkv", step, 0))
            assert rep.cosine == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("mode", ["qkv", "query_only", "head"])
    def test_shared_exact_reference_matches_inline(self, mode):
        """A reference that other maps ran on first gives the report a fresh
        one does: the masked backward leaves the exact tape as it was."""
        model, batches, plan = self.make()
        x, labels = batches[0]
        shared = exact_reference(model, x, labels)
        for step in range(3):
            grad_similarity_experiment(shared, resolve(model, plan, mode, step, 4))
        sel = resolve(model, plan, mode, 1, 4)
        assert (grad_similarity_experiment(shared, sel)
                == grad_similarity_experiment(exact_reference(model, x, labels), sel))

    def test_cli_gradsim_runs_one_exact_pass_per_batch(self, tmp_path, monkeypatch):
        import sbp.analysis
        from sbp.cli import main

        calls, exact_calls = [], []

        def counting_forward(*args, **kwargs):
            calls.append(1)
            if kwargs.get("plan") is None:
                exact_calls.append(1)
            return forward(*args, **kwargs)

        monkeypatch.setattr(sbp.analysis, "forward", counting_forward)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model.kind = vit\nmodel.grid = 4x4\nmodel.in_channels = 2\n"
                       "model.embed = 8\nmodel.heads = 2\nmodel.depth = 2\n"
                       "train.batch_size = 4\ndata.count = 12\n"
                       "gradsim.variants = uniform-grid-qkv,uniform-grid-head\n"
                       "gradsim.batches = 3\n")
        assert main(["gradsim", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--threads", "2"]) == 0
        assert len(exact_calls) == 3
        assert len(calls) == 3  # the variants' masked gradients need no forward


class TestTrajectoryTools:
    def test_l2_trace_flags_sustained_zero(self):
        stores = [GradientStore({"a.w": np.zeros(3), "b.w": np.ones(3)})
                  for _ in range(5)]
        per_node, flagged = l2_norm_trace(stores, flag_window=5)
        assert flagged == ["a"]
        assert len(per_node["b"]) == 5

    def test_l2_trace_short_zero_not_flagged(self):
        stores = [GradientStore({"a.w": np.zeros(3)}) for _ in range(3)]
        _, flagged = l2_norm_trace(stores, flag_window=5)
        assert flagged == []

    def test_accuracy_range(self):
        spec = mlp_spec(grid=(2, 2), in_channels=2, width=4, depth=1)
        a = build_model(spec, 0)
        rng = np.random.Generator(np.random.PCG64(4))
        x = rng.normal(size=(8, 2, 2, 2))
        labels = rng.integers(0, 2, size=8)
        assert 0.0 <= accuracy(a, x, labels) <= 1.0

    @pytest.mark.parametrize("spec", [
        mlp_spec(grid=(4, 4), in_channels=2, width=8, depth=2, n_classes=3),
        tiny_vit_spec(grid=(4, 4), in_channels=2, embed=8, heads=2, depth=2, n_classes=3),
        tiny_conv_spec(grid=(4, 4), in_channels=2, channels=4, depth=2, n_classes=3),
    ], ids=["mlp", "vit", "conv"])
    def test_accuracy_and_consistency_are_tape_argmax(self, spec):
        a, b = build_model(spec, 0), build_model(spec, 1)
        rng = np.random.Generator(np.random.PCG64(6))
        x = rng.normal(size=(32, 4, 4, 2))
        labels = rng.integers(0, 3, size=32)
        pred_a = forward(a, x, labels).logits.argmax(axis=1)
        pred_b = forward(b, x, labels).logits.argmax(axis=1)
        assert accuracy(a, x, labels) == float((pred_a == labels).mean())
        # Evaluation's predictions are the tape's, model by model.
        assert np.array_equal(predict(b, x).argmax(axis=1), pred_b)

    def test_accuracy_keeps_no_tape(self):
        """Evaluation holds one node's activations at a time, so its traced
        peak stays below the bytes of the full tape it no longer builds."""
        import tracemalloc

        spec = tiny_vit_spec(grid=(8, 8), in_channels=3, embed=32, heads=2, depth=6)
        model = build_model(spec, 0)
        rng = np.random.Generator(np.random.PCG64(7))
        x = rng.normal(size=(16, 8, 8, 3))
        labels = rng.integers(0, 2, size=16)
        tape_bytes = 8 * forward(model, x, labels).cached_elements()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            accuracy(model, x, labels)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < tape_bytes


class TestBootstrap:
    def test_clear_separation(self):
        rng = np.random.Generator(np.random.PCG64(5))
        a = rng.normal(1.0, 0.1, size=100)
        b = rng.normal(0.0, 0.1, size=100)
        lo, hi = bootstrap_mean_diff(a, b, seed=0)
        assert lo > 0.8 and hi < 1.2

    def test_no_difference_straddles_zero(self):
        rng = np.random.Generator(np.random.PCG64(6))
        a = rng.normal(0.0, 1.0, size=200)
        b = rng.normal(0.0, 1.0, size=200)
        lo, hi = bootstrap_mean_diff(a, b, seed=0)
        assert lo < 0.0 < hi

    def test_deterministic_in_seed(self):
        a = np.arange(10.0)
        b = np.arange(10.0)[::-1]
        assert bootstrap_mean_diff(a, b, seed=3) == bootstrap_mean_diff(a, b, seed=3)

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            bootstrap_mean_diff(np.zeros(3), np.zeros(4))

    @staticmethod
    def samples():
        """Random, tied and short samples: sizes 1 to 400, some drawn from
        four values only, at scales from 1e-6 to 1e6."""
        rng = np.random.Generator(np.random.PCG64(8))
        for i in range(300):
            n = int(rng.integers(1, 400)) if i >= 20 else i % 5 + 1
            if i % 3 == 0:
                yield rng.integers(0, 4, size=n).astype(np.float64)
            else:
                yield rng.normal(size=n) * 10.0 ** int(rng.integers(-6, 7))

    def test_percentile_matches_numpy_bitwise(self):
        rng = np.random.Generator(np.random.PCG64(9))
        for x in self.samples():
            x = np.sort(x)
            for q in (*CI_PERCENTILES, 0.0, 50.0, 100.0, float(rng.uniform(0, 100))):
                got, want = _percentile(x, q), float(np.percentile(x, q))
                assert got == want, (x.size, q, got, want)

    def test_interval_matches_numpy_percentiles_bitwise(self):
        with_nan = np.arange(1000.0)
        with_nan[3] = np.nan  # about a third of the resampled means stay finite
        for seed, a in enumerate([*self.samples(), with_nan]):
            b = a[::-1].copy()
            rng = np.random.Generator(np.random.PCG64(seed))
            idx = rng.integers(0, a.size, size=(N_BOOT, a.size))
            means = (a - b)[idx].mean(axis=1)
            want = tuple(float(np.percentile(means, q)) for q in CI_PERCENTILES)
            assert np.array_equal(bootstrap_mean_diff(a, b, seed=seed), want, equal_nan=True)
