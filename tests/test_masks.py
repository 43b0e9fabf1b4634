from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sbp.errors import ConfigurationError, DimensionError
from sbp.masks import (
    IndexMask,
    build_schedule,
    checkerboard_mask,
    downsample_mask,
    full_keep_mask,
    intersect_masks,
    make_mask_plan,
    mask_from_text,
    mask_to_text,
    sample_grid_mask,
    sample_random_mask,
)

from helpers import random_mask


class TestIndexMask:
    def test_partition_enforced(self):
        with pytest.raises(ConfigurationError):
            IndexMask((4,), (0, 1), (1, 2, 3), Fraction(1, 2))

    def test_coverage_enforced(self):
        with pytest.raises(ConfigurationError):
            IndexMask((4,), (0,), (1, 2), Fraction(1, 4))

    def test_ratio_consistency_enforced(self):
        with pytest.raises(ConfigurationError):
            IndexMask((4,), (0, 1), (2, 3), Fraction(1, 4))

    def test_from_keep(self):
        m = IndexMask.from_keep((2, 2), [3, 0])
        assert m.keep == (0, 3)
        assert m.drop == (1, 2)
        assert m.keep_ratio == Fraction(1, 2)

    def test_full_keep(self):
        m = full_keep_mask((3, 3))
        assert m.is_full_keep
        assert m.keep_ratio == 1

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10**6), h=st.integers(1, 5), w=st.integers(1, 5))
    def test_keep_drop_always_partition(self, seed, h, w):
        rng = np.random.Generator(np.random.PCG64(seed))
        m = random_mask(rng, (h, w))
        assert set(m.keep) | set(m.drop) == set(range(h * w))
        assert not set(m.keep) & set(m.drop)
        assert m.keep_ratio == Fraction(len(m.keep), h * w)


class TestGridSampler:
    def test_half_ratio_phases_are_complementary(self):
        a = sample_grid_mask((4, 4), 0.5, 0, phase=0)
        b = sample_grid_mask((4, 4), 0.5, 0, phase=1)
        assert set(a.keep) | set(b.keep) == set(range(16))
        assert not set(a.keep) & set(b.keep)

    def test_half_ratio_is_even_lattice(self):
        m = sample_grid_mask((4, 4), 0.5, 0, phase=0)
        assert m.keep == tuple(range(0, 16, 2))

    def test_divisibility_error_names_dims(self):
        with pytest.raises(ConfigurationError) as e:
            sample_grid_mask((3, 3), 0.5, 0)
        assert "9" in str(e.value) and "2" in str(e.value)

    def test_non_reciprocal_ratio_keeps_floor(self):
        m = sample_grid_mask((5, 5), 0.32, 0, phase=0)
        assert len(m.keep) == 8  # floor(0.32 * 25)

    def test_ratio_one_full_keep(self):
        assert sample_grid_mask((4, 4), 1.0, 3).is_full_keep

    def test_phase_from_seed_is_deterministic(self):
        a = sample_grid_mask((4, 4), 0.25, 9)
        b = sample_grid_mask((4, 4), 0.25, 9)
        assert a.keep == b.keep

    def test_keeps_evenly_spaced(self):
        m = sample_grid_mask((2, 8), 0.25, 0, phase=2)
        diffs = np.diff(m.keep_array())
        assert np.all(diffs == 4)


class TestRandomSampler:
    def test_count_and_determinism(self):
        a = sample_random_mask((4, 4), 0.5, 5)
        b = sample_random_mask((4, 4), 0.5, 5)
        assert len(a.keep) == 8
        assert a.keep == b.keep

    def test_different_seeds_differ(self):
        seeds = [sample_random_mask((8, 8), 0.5, s).keep for s in range(6)]
        assert len(set(seeds)) > 1

    def test_ratio_one_full_keep(self):
        assert sample_random_mask((4, 4), 1.0, 0).is_full_keep

    def test_indivisible_grid_keeps_floor(self):
        """The lattice's divisibility rule is the grid sampler's only: on 25
        positions r = 1/2 keeps floor(25 / 2) = 12."""
        m = sample_random_mask((5, 5), 0.5, 0)
        assert len(m.keep) == 12
        assert m.domain_shape == (5, 5)


class TestSchedules:
    def test_uniform_constant(self):
        assert build_schedule("uniform", 0.5, 4) == (Fraction(1, 2),) * 4

    def test_canonical_increasing_eight_layers(self):
        s = build_schedule("increasing", 0.5, 8)
        assert [float(r) for r in s] == [
            0.25, 0.32, 0.39, 0.46, 0.53, 0.60, 0.68, 0.75]

    def test_decreasing_is_reverse(self):
        inc = build_schedule("increasing", 0.5, 8)
        dec = build_schedule("decreasing", 0.5, 8)
        assert dec == inc[::-1]

    def test_ramp_endpoints(self):
        s = build_schedule("increasing", 0.5, 5)
        assert float(s[0]) == 0.25
        assert float(s[-1]) == 0.75

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 12),
           avg_cents=st.integers(26, 75))
    def test_ramp_mean_near_average(self, n, avg_cents):
        avg = Fraction(avg_cents, 100)
        s = build_schedule("increasing", avg, n)
        mean = sum(s, Fraction(0)) / n
        # Each entry is rounded to 2 decimals, so the mean can drift by up
        # to half a rounding unit.
        assert abs(mean - avg) <= Fraction(1, 200) + Fraction(1, 10**9)
        assert list(s) == sorted(s)
        assert build_schedule("decreasing", avg, n) == s[::-1]

    def test_endpoints_leaving_unit_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            build_schedule("increasing", 0.2, 4)
        with pytest.raises(ConfigurationError):
            build_schedule("increasing", 0.9, 4)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            build_schedule("sawtooth", 0.5, 4)


class TestIntersection:
    def test_worked_example(self):
        a = IndexMask.from_keep((4,), [0, 2])
        b = IndexMask.from_keep((4,), [2, 3])
        m = intersect_masks(a, b)
        assert m.keep == (2,)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_keep_intersection_drop_union(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        a = random_mask(rng, (3, 4), allow_extremes=True)
        b = random_mask(rng, (3, 4), allow_extremes=True)
        m = intersect_masks(a, b)
        assert set(m.keep) == set(a.keep) & set(b.keep)
        assert set(m.drop) == set(a.drop) | set(b.drop)

    def test_domain_mismatch(self):
        with pytest.raises(DimensionError):
            intersect_masks(full_keep_mask((4,)), full_keep_mask((5,)))


class TestDownsample:
    def test_halving(self):
        m = checkerboard_mask(4, 4, phase=0)
        d = downsample_mask(m, 2)
        assert d.domain_shape == (2, 2)
        # every coarse cell's top-left fine position sits on the kept color
        assert d.is_full_keep

    def test_indivisible_rejected(self):
        with pytest.raises(ConfigurationError):
            downsample_mask(checkerboard_mask(4, 4), 3)

    @pytest.mark.parametrize("factor", [0, -1])
    def test_factor_below_one_rejected(self, factor):
        with pytest.raises(ConfigurationError, match="factor must be >= 1"):
            downsample_mask(checkerboard_mask(4, 4), factor)


class TestMaskPlan:
    def test_shared_requires_uniform(self):
        class Net:
            def sbp_layers(self):
                return [("a", (4, 4)), ("b", (4, 4))]

        sched = build_schedule("increasing", 0.5, 2)
        with pytest.raises(ConfigurationError):
            make_mask_plan(Net(), sched, "grid", "shared", 0)

    def test_shared_reuses_one_mask(self):
        class Net:
            def sbp_layers(self):
                return [("a", (4, 4)), ("b", (4, 4))]

        plan = make_mask_plan(Net(), build_schedule("uniform", 0.5, 2),
                              "grid", "shared", 0)
        assert plan["a"] is plan["b"]
        with pytest.raises(TypeError):
            del plan["b"]

    def test_shared_downsamples_across_resolutions(self):
        class Net:
            def sbp_layers(self):
                return [("a", (4, 4)), ("b", (2, 2))]

        plan = make_mask_plan(Net(), build_schedule("uniform", 0.5, 2),
                              "grid", "shared", 0)
        assert plan["b"].domain_shape == (2, 2)

    @pytest.mark.parametrize("grids", [[(5, 5), (6, 6)], [(4, 4), (3, 3)], [(4, 6), (2, 2)]],
                             ids=["finer", "not-a-divisor", "uneven"])
    def test_shared_rejects_grid_without_integer_factor(self, grids):
        """A shared mask reaches another grid only by an integer coarsening."""
        class Net:
            def sbp_layers(self):
                return [("a", grids[0]), ("b", grids[1])]

        with pytest.raises(ConfigurationError, match="layer b grid"):
            make_mask_plan(Net(), build_schedule("uniform", 0.75, 2), "grid", "shared", 0)

    def test_independent_layers_get_distinct_seeds(self):
        class Net:
            def sbp_layers(self):
                return [("a", (8, 8)), ("b", (8, 8))]

        plan = make_mask_plan(Net(), build_schedule("uniform", 0.5, 2),
                              "random", "independent", 0)
        assert list(plan) == ["a", "b"]
        assert plan["a"].keep != plan["b"].keep
        with pytest.raises(TypeError):
            plan["a"] = plan["b"]

    def test_schedule_length_mismatch(self):
        class Net:
            def sbp_layers(self):
                return [("a", (4, 4))]

        with pytest.raises(ConfigurationError):
            make_mask_plan(Net(), build_schedule("uniform", 0.5, 2),
                           "grid", "independent", 0)

    @pytest.mark.parametrize("sampler, sharing", [("halton", "shared"), ("grid", "Shared"),
                                                  ("grid", "both")])
    def test_unknown_sampler_or_sharing_rejected(self, sampler, sharing):
        class Net:
            def sbp_layers(self):
                return [("a", (4, 4))]

        with pytest.raises(ConfigurationError, match="unknown"):
            make_mask_plan(Net(), build_schedule("uniform", 0.5, 1), sampler, sharing, 0)


class TestSerialization:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_roundtrip(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        m = random_mask(rng, (4, 4), allow_extremes=True)
        back = mask_from_text(mask_to_text(m))
        assert back == m

    def test_header_ratio_checked(self):
        text = mask_to_text(checkerboard_mask(2, 2))
        bad = text.replace("ratio=1/2", "ratio=1/4")
        with pytest.raises(ConfigurationError):
            mask_from_text(bad)
