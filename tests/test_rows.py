"""A masked token unit hands its input gradient on as its kept rows.

`Rows(values, keep, n)` stands for the B x n x C array that is zero outside
`keep`, and `rows_at` is how every node reads its upstream. The reference is
how the units passed gradients before: scatter the kept rows into a zero
B x n x C array, then gather the rows the next unit keeps. Both must give
the same bits, signed zeros included.
"""

import numpy as np
import pytest

from sbp.engine import backward, forward, resolve
from sbp.masks import build_schedule, make_mask_plan
from sbp.models import MeanPoolNode, Rows, build_model, mlp_spec, rows_at

B, N, C = 3, 10, 4

# (upstream keep, node keep); None keeps every row.
PAIRS = {
    "equal": ([1, 4, 7], [1, 4, 7]),
    "upstream-in-node": ([2, 5], [0, 2, 5, 9]),
    "node-in-upstream": ([0, 2, 5, 9], [2, 5]),
    "disjoint": ([0, 1, 2], [6, 8]),
    "one-common": ([1, 3, 6], [0, 3, 9]),
    "keep-one": ([4], [4]),
    "keep-one-missed": ([4], [5]),
    "upstream-none": (None, [1, 2, 8]),
    "node-none": ([1, 2, 8], None),
    "both-none": (None, None),
}


def as_keep(keep):
    return None if keep is None else np.asarray(keep, dtype=np.int64)


def scatter_then_gather(values, up_keep, keep, n=N):
    """The dense handoff: kept rows scattered into zeros, then gathered."""
    dense = values
    if up_keep is not None:
        dense = np.zeros((values.shape[0], n, values.shape[2]))
        dense[:, up_keep, :] = values
    return dense if keep is None else np.take(dense, keep, axis=1)


def upstream(values, up_keep):
    return values if up_keep is None else Rows(values, up_keep, N)


def assert_same_bits(got, want):
    assert isinstance(got, np.ndarray)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_rows_at_equals_scatter_then_gather(name):
    up_keep, keep = (as_keep(k) for k in PAIRS[name])
    k = N if up_keep is None else up_keep.size
    values = np.random.Generator(np.random.PCG64(3)).normal(size=(B, k, C))
    values[0, 0, 0] = -0.0  # a negative zero is copied, not recomputed
    want = scatter_then_gather(values, up_keep, keep)
    assert_same_bits(rows_at(upstream(values, up_keep), keep), want)
    for part in (slice(0, 1), slice(1, B)):  # a batch chunk of the upstream
        assert_same_bits(rows_at(upstream(values, up_keep)[part], keep), want[part])


@pytest.mark.parametrize("keep", [[0, 3, 9], None], ids=["kept", "all"])
def test_rows_at_reads_the_pool_view(keep):
    pool = MeanPoolNode("pool", (N, C))
    dy = np.random.Generator(np.random.PCG64(4)).normal(size=(B, C))
    view = pool.backward(pool.forward(np.zeros((B, N, C)))[1], dy)[1]
    assert not view.flags.writeable
    keep = as_keep(keep)
    assert_same_bits(rows_at(view, keep), scatter_then_gather(np.array(view), None, keep))


def planned_mlp(fraction):
    """An mlp with independent random masks on its last units, under a plan."""
    model = build_model(mlp_spec(grid=(4, 4), in_channels=2, width=6, depth=3,
                                 sbp_fraction=fraction), 5)
    rng = np.random.Generator(np.random.PCG64(6))
    x, labels = rng.normal(size=(5, 4, 4, 2)), rng.integers(0, 2, size=5)
    schedule = build_schedule("uniform", 0.5, len(model.sbp_layers()))
    plan = make_mask_plan(model, schedule, "random", "independent", 9)
    return model, x, labels, resolve(model, plan, "qkv", 0, 0)


@pytest.mark.parametrize("fraction", [1.0, 2 / 3], ids=["all", "partial"])
def test_masked_units_pass_kept_rows(fraction):
    model, x, labels, plan = planned_mlp(fraction)
    tape = forward(model, x, labels, plan=plan)
    dy, dense = tape.dlogits, tape.dlogits
    ref = {}
    for node, rec in reversed(tape.records):
        keep = plan[node.node_id].keep
        grads, dy = node.backward(rec, dy)
        if node.kind == "linear" and keep is not None:
            assert isinstance(dy, Rows)
            assert dy.values.shape == (5, keep.size, 6) and np.array_equal(dy.keep, keep)
        else:
            assert isinstance(dy, np.ndarray)
        # The chain as it ran before: every gradient scattered into zeros.
        ref_grads, dense = node.backward(rec, dense)
        if isinstance(dense, Rows):
            dense = scatter_then_gather(dense.values, dense.keep, None, dense.n)
        for name, g in ref_grads.items():
            assert_same_bits(grads[name], g)
            ref[f"{node.node_id}.{name}"] = g
    store, dx = backward(tape, want_input_grad=True)
    assert_same_bits(dx, dense)
    for key, g in ref.items():
        assert_same_bits(store[key], g)
