"""Acceptance gate: one test per release criterion.

Run with `pytest -v tests/test_acceptance.py`; each test name is the
criterion's pass/fail line. Every check is against an independent oracle
(explicit zeroing, finite differences, naive references) at the stated
tolerances; nothing here is loosened to make a run green.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from sbp.analysis import (
    ConvStage,
    accuracy,
    bootstrap_mean_diff,
    chain_rule_report,
    exact_reference,
    grad_similarity_experiment,
    l2_norm_trace,
    mhsa_memory_ratio,
    pointwise_stack_report,
)
from sbp.cli import main as cli_main
from sbp.data import make_blobs
from sbp.engine import backward, finite_difference_grad, forward, resolve, sgd_step
from sbp.layers import (
    Conv2dLayer,
    MhsaLayer,
    conv2d_backward,
    conv2d_forward,
    linear_backward_kept,
    mhsa_backward,
    mhsa_forward,
    row_gemm,
    select,
)
from sbp.masks import (
    IndexMask,
    build_schedule,
    checkerboard_mask,
    intersect_masks,
    make_mask_plan,
)
from sbp.models import (
    Conv2dNode,
    Model,
    TokenLinearNode,
    TransformerBlockNode,
    build_model,
    mlp_spec,
    rows_at,
    tiny_vit_spec,
)

from helpers import (
    block_reference,
    conv_node_reference,
    fd_grad,
    mhsa_backward_cut,
    random_mask,
    rounds_up_to,
    token_linear_reference,
    zero_dropped,
)


def report(line: str):
    print(line, flush=True)


# ---------------------------------------------------------------------------
# Criterion 1: SBP backward == full backward with zeroed dropped upstream,
# elementwise within 1e-12, over 1,000 random instances, on the code that
# trains: the token-linear node, the conv node, and the transformer block in
# every drop mode. The token-linear and conv references share no code with
# the library. The block reference is built on the library's own
# layer_norm_*, gelu_* and mhsa_forward, so a fault common to both would not
# show here: LayerNorm and GELU are checked only against
# finite differences (criterion 2's tiny_vit), and the attention kernel
# against the independent `mhsa_sbp_reference` alone in tests/test_mhsa.py.
# ---------------------------------------------------------------------------


def _worst(got, ref):
    return max(float(np.max(np.abs(a - b))) for a, b in zip(got, ref))


def _linear_error(rng):
    """A masked TokenLinearNode as a training step runs it: forward, restrict
    the record to the kept rows, backward; its kept-row dX read with
    rows_at."""
    b = int(rng.integers(1, 6))
    n = int(rng.integers(2, 9))
    c_in = int(rng.integers(1, 5))
    c_out = int(rng.integers(1, 5))
    node = TokenLinearNode("lin", n, c_in, c_out, rng, sbp_enabled=True)
    node.b = rng.normal(size=c_out)
    x = rng.normal(size=(b, n, c_in))
    up = rng.normal(size=(b, n, c_out))
    mask = random_mask(rng, (n,), allow_extremes=True)
    rec = node.restrict(node.forward(x)[1], select(mask, "qkv"))
    grads, dx = node.backward(rec, up)
    ref = token_linear_reference(node.w, node.b, x, up, mask.drop_array())
    return _worst((grads["w"], grads["b"], rows_at(dx, None)), ref)


def _conv_error(rng):
    """A masked Conv2dNode (kernel 1 to 3, padding k // 2, then GELU) as a
    training step runs it: forward, restrict, backward. Returns the error
    against `conv_node_reference` and the case's traits among "even kernel",
    "keep none" and "keep all"."""
    k = int(rng.integers(1, 4))
    b = int(rng.integers(1, 4))
    h, w, c_in, c_out = (int(v) for v in rng.integers(1, [5, 5, 4, 4]))
    node = Conv2dNode("conv", (h, w), c_in, c_out, rng, kernel=k, sbp_enabled=True)
    x = rng.normal(size=(b, h, w, c_in))
    up = rng.normal(size=(b, *node.out_grid, c_out))
    mask = random_mask(rng, node.out_grid, allow_extremes=True)
    grads, dx = node.backward(node.restrict(node.forward(x)[1], select(mask, "qkv")), up)
    traits = {"even kernel": k % 2 == 0, "keep none": not mask.keep, "keep all": not mask.drop}
    ref = conv_node_reference(node.w, x, up, mask.drop)
    return _worst((grads["w"], dx), ref), {t for t, hit in traits.items() if hit}


def _block_error(rng, mode):
    """A TransformerBlockNode's backward from its record restricted under
    `mode`, against the zeroing block reference; no head kept included."""
    heads = int(rng.integers(1, 3))
    c = heads * int(rng.integers(1, 4))
    n = int(rng.integers(2, 7))
    b = int(rng.integers(1, 4))
    block = TransformerBlockNode("block", n, c, heads, int(rng.integers(1, 3)), rng,
                                 sbp_enabled=True)
    # The weights keep their init scale; the LayerNorm and bias parameters
    # are drawn away from their 1 and 0 starts.
    for name in ("ln1_g", "ln1_b", "ln2_g", "ln2_b", "b1", "b2"):
        block.set_param(name, rng.normal(size=getattr(block, name).shape))
    x = rng.normal(size=(b, n, c))
    up = rng.normal(size=(b, n, c))
    mask = random_mask(rng, (n,))
    head_keep = None
    if mode == "head":
        n_keep = int(rng.integers(0, heads + 1))
        head_keep = tuple(sorted(int(i) for i in rng.choice(heads, size=n_keep, replace=False)))
    got, dx = block.backward(block.restrict(block.forward(x)[1], select(mask, mode, head_keep)),
                             up)
    ref, dx_ref = block_reference(block, x, up, mask, mode, head_keep)
    assert set(got) == set(ref)
    return _worst([got[k] for k in ref] + [dx], [ref[k] for k in ref] + [dx_ref])


def test_criterion_1_oracle_equivalence_1000_instances():
    rng = np.random.Generator(np.random.PCG64(1234))
    worst = 0.0
    for _ in range(400):
        worst = max(worst, _linear_error(rng))
    conv_traits = set()
    for _ in range(300):
        err, traits = _conv_error(rng)
        worst = max(worst, err)
        conv_traits |= traits
    assert conv_traits == {"even kernel", "keep none", "keep all"}, conv_traits
    for mode in ("query_only", "qkv", "head"):
        for _ in range(100):
            worst = max(worst, _block_error(rng, mode))
    ok = worst <= 1e-12
    report(f"criterion 1 (oracle equivalence, 1000 instances): "
           f"{'PASS' if ok else 'FAIL'} max |sbp - zeroed-full| = {worst:.3e} "
           f"(tolerance 1e-12)")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 2: full backward matches central finite differences (h=1e-5)
# within relative error 1e-5 for every operator and a 3-block tiny_vit.
# ---------------------------------------------------------------------------


def _rel_err(got, want):
    denom = np.maximum(np.abs(want), 1e-3)
    return float(np.max(np.abs(got - want) / denom))


def test_criterion_2_gradient_correctness_finite_differences():
    rng = np.random.Generator(np.random.PCG64(2))
    worst = 0.0

    w, bias = rng.normal(size=(4, 3)), rng.normal(size=3)
    x = rng.normal(size=(5, 4))
    up = rng.normal(size=(5, 3))
    dw, db, dx = linear_backward_kept(x, up, w, True)
    loss = lambda: float((row_gemm(x, w, bias) * up).sum())
    for got, ref in [(dw, fd_grad(loss, w, eps=1e-5)),
                     (db, fd_grad(loss, bias, eps=1e-5)),
                     (dx, fd_grad(loss, x, eps=1e-5))]:
        worst = max(worst, _rel_err(got, ref))

    conv = Conv2dLayer(rng.normal(size=(3, 3, 2, 2)), stride=1, padding=1)
    xc = rng.normal(size=(2, 4, 4, 2))
    upc = rng.normal(size=(2, 4, 4, 2))
    dwc, dxc = conv2d_backward(conv, xc, upc)
    loss = lambda: float((conv2d_forward(conv, xc) * upc).sum())
    worst = max(worst, _rel_err(dwc, fd_grad(loss, conv.weight, eps=1e-5)))
    worst = max(worst, _rel_err(dxc, fd_grad(loss, xc, eps=1e-5)))

    att = MhsaLayer(2, 2, rng.normal(size=(4, 4)), rng.normal(size=(4, 4)),
                    rng.normal(size=(4, 4)), rng.normal(size=(4, 4)))
    xa = rng.normal(size=(1, 4, 4))
    upa = rng.normal(size=(1, 4, 4))

    def loss():
        out, _ = mhsa_forward(att, xa)
        return float((out * upa).sum())

    _, cache = mhsa_forward(att, xa)
    g = mhsa_backward(att, cache, upa)
    for got, param in [(g.dw_q, att.w_q), (g.dw_k, att.w_k),
                       (g.dw_v, att.w_v), (g.dw_o, att.w_o)]:
        worst = max(worst, _rel_err(got, fd_grad(loss, param, eps=1e-5)))
    worst = max(worst, _rel_err(g.dx, fd_grad(loss, xa, eps=1e-5)))

    spec = tiny_vit_spec(grid=(4, 4), in_channels=2, embed=8, heads=2,
                         depth=3, mlp_ratio=2)
    model = build_model(spec, seed=0)
    n_params = model.n_params()
    assert n_params <= 2000, f"tiny_vit has {n_params} params, budget is 2000"
    xb = rng.normal(size=(2, 4, 4, 2))
    labels = rng.integers(0, 2, size=2)
    store = backward(forward(model, xb, labels))
    fd = finite_difference_grad(model, xb, labels, eps=1e-5)
    for key in store.keys():
        worst = max(worst, _rel_err(store[key], fd[key]))

    ok = worst <= 1e-5
    report(f"criterion 2 (gradient correctness vs finite differences): "
           f"{'PASS' if ok else 'FAIL'} max relative error = {worst:.3e} "
           f"(tolerance 1e-5, {n_params}-param tiny_vit)")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 3: memory contract. NaN-poisoned dropped cache rows never leak
# into gradients; a uniform-r linear-stack tape caches exactly r x full.
# ---------------------------------------------------------------------------


def _linear_stack_model(depth=3, n_tokens=16, width=6, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    nodes = [TokenLinearNode(f"lin{i}", n_tokens, width, width, rng,
                             sbp_enabled=True, grid=(4, 4))
             for i in range(depth)]
    return Model(nodes, "mse")


def test_criterion_3_memory_contract():
    rng = np.random.Generator(np.random.PCG64(3))

    # NaN poison, linear: a masked TokenLinearNode never reads the dropped
    # rows of its input or its upstream.
    lin = TokenLinearNode("lin", 6, 3, 2, rng, sbp_enabled=True)
    x = rng.normal(size=(2, 6, 3))
    up = rng.normal(size=(2, 6, 2))
    mask = IndexMask.from_keep((6,), [0, 2, 5])
    x[:, mask.drop_array()] = np.nan
    up[:, mask.drop_array()] = np.nan
    grads, dx = lin.backward(lin.restrict(lin.forward(x)[1], select(mask, "qkv")), up)
    linear_ok = all(np.all(np.isfinite(t)) for t in (grads["w"], grads["b"], rows_at(dx, None)))

    # NaN poison, MHSA qkv: the kernel, on the cut the block makes of a full
    # cache, reads only kept rows of X and A and the kept block of S;
    # Q, K and V are rebuilt from X's kept rows.
    att = MhsaLayer(2, 3, rng.normal(size=(6, 6)), rng.normal(size=(6, 6)),
                    rng.normal(size=(6, 6)), rng.normal(size=(6, 6)))
    xa = rng.normal(size=(2, 6, 6))
    upa = rng.normal(size=(2, 6, 6))
    _, cache = mhsa_forward(att, xa)
    sel = select(IndexMask.from_keep((6,), [1, 3, 4]), "qkv")
    drop = sel.mask.drop_array()
    cache.x[:, drop, :] = np.nan
    cache.a[:, :, drop, :] = np.nan
    cache.s[:, :, drop, :] = np.nan
    cache.s[:, :, :, drop] = np.nan
    g, _ = mhsa_backward_cut(att, cache, upa, sel)
    mhsa_ok = all(np.all(np.isfinite(t))
                  for t in (g.dw_q, g.dw_k, g.dw_v, g.dw_o, g.dx))

    # Tape count: uniform r=1/2 over a pure linear stack caches exactly
    # half of what the full run caches.
    model = _linear_stack_model()
    shared_mask = checkerboard_mask(4, 4, phase=0)
    plan = {f"lin{i}": shared_mask for i in range(3)}
    xs = rng.normal(size=(3, 16, 6))
    target = rng.normal(size=(3, 16, 6))
    sels = resolve(model, plan, "qkv", 0, 0)
    cached_sbp = forward(model, xs, target, plan=sels).cached_elements()
    cached_full = forward(model, xs, target).cached_elements()
    count_ok = cached_sbp * 2 == cached_full

    ok = linear_ok and mhsa_ok and count_ok
    report(f"criterion 3 (memory contract): {'PASS' if ok else 'FAIL'} "
           f"nan-free linear={linear_ok} nan-free mhsa-qkv={mhsa_ok} "
           f"tape {cached_sbp} x 2 == full {cached_full} -> {count_ok}")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 4: closed-form attention memory ratios against the published
# figures (d/n = 64/196). The figures are read as the exact closed form rounded
# UP at two decimals, so a figure never understates memory. PAPER.md holds only
# the abstract, so this rule is inferred from the five reference figures in the
# suite (these four, plus 0.537 at n=392, d=32 in test_analysis.py): all five
# are their exact values rounded up, only three of five rounded to nearest
# (121/292 = 0.41438 -> 0.42 and 59/110 = 0.53636 -> 0.537 are not).
# ---------------------------------------------------------------------------


def test_criterion_4_closed_form_memory_numbers():
    cases = [
        (Fraction(1, 2), "query_only", 0.61),
        (Fraction(1, 2), "qkv", 0.46),
        (Fraction(1, 4), "query_only", 0.42),
        (Fraction(1, 4), "qkv", 0.22),
    ]
    failures = []
    for r, mode, published in cases:
        got = mhsa_memory_ratio(r, 64, 196, mode)
        if not rounds_up_to(got, published, 2):
            failures.append(f"{mode} r={r}: formula {got} = {float(got):.5f} "
                            f"does not round up to published {published}")
    ok = not failures
    detail = ("all four equal the exact closed form rounded up at two decimals"
              if ok else "; ".join(failures))
    report(f"criterion 4 (closed-form memory figures): "
           f"{'PASS' if ok else 'FAIL'} {detail}")
    assert ok, (
        "Each published figure must be the exact closed form rounded up at its "
        "printed precision, i.e. lie in (published - 0.01, published]. This "
        "reading fits all five reference figures in the suite; rounding to "
        "nearest fits only three of five. " + detail)


# ---------------------------------------------------------------------------
# Criterion 5: chain-rule composition. Intersection law over 500 random mask
# pairs, vanishing disjoint stack with exactly-zero bottom gradients, conv
# neighbor effect at k=3 s=1, exact-or-zero dichotomy at s >= k.
# ---------------------------------------------------------------------------


def test_criterion_5_chain_rule():
    rng = np.random.Generator(np.random.PCG64(5))
    intersection_ok = True
    for _ in range(500):
        a = random_mask(rng, (3, 4), allow_extremes=True)
        b = random_mask(rng, (3, 4), allow_extremes=True)
        rep = pointwise_stack_report([("top", a), ("bottom", b)])
        if set(rep.effective_keep) != set(intersect_masks(a, b).keep):
            intersection_ok = False
            break

    # Disjoint masks on consecutive point-wise units: everything below them
    # gets an exactly-zero gradient.
    model = build_model(mlp_spec(grid=(4, 4), in_channels=2, width=6, depth=2,
                                 sbp_fraction=1.0), seed=0)
    plan = {"mlp0": checkerboard_mask(4, 4, phase=0), "mlp1": checkerboard_mask(4, 4, phase=1)}
    x = rng.normal(size=(3, 4, 4, 2))
    labels = rng.integers(0, 2, size=3)
    store = backward(forward(model, x, labels, plan=resolve(model, plan, "qkv", 0, 0)))
    embed_keys = [k for k in store.keys() if k.startswith("embed.")]
    vanish_ok = all(np.all(store[k] == 0.0) for k in embed_keys)
    rep = pointwise_stack_report([("mlp1", checkerboard_mask(4, 4, phase=1)),
                                  ("mlp0", checkerboard_mask(4, 4, phase=0))])
    vanish_ok = vanish_ok and rep.vanishing

    # Neighbor effect: k=3 s=1 checkerboard leaves nonzero dX under dropped
    # output positions. A masked conv backward is the conv backward on the
    # upstream zeroed at the dropped positions.
    conv = Conv2dLayer(rng.normal(size=(3, 3, 1, 1)), stride=1, padding=1)
    xc = rng.normal(size=(1, 4, 4, 1))
    upc = rng.normal(size=(1, 4, 4, 1))
    cmask = checkerboard_mask(4, 4, phase=0)
    _, dx = conv2d_backward(conv, xc, zero_dropped(upc, cmask))
    neighbor_ok = bool(np.all(dx.reshape(16)[cmask.drop_array()] != 0.0))
    crep = chain_rule_report([ConvStage("c", (4, 4), kernel=3, stride=1,
                                        padding=1, mask=cmask)])
    neighbor_ok = neighbor_ok and "approximate" in crep.input_classes

    # Dichotomy: s >= k gives positionwise exact-or-zero input gradients.
    conv2 = Conv2dLayer(rng.normal(size=(2, 2, 2, 2)), stride=2, padding=0)
    x2 = rng.normal(size=(1, 4, 4, 2))
    up2 = rng.normal(size=(1, 2, 2, 2))
    dmask = IndexMask.from_keep((2, 2), [1, 2])
    _, dx_full = conv2d_backward(conv2, x2, up2)
    _, dx_sbp = conv2d_backward(conv2, x2, zero_dropped(up2, dmask))
    dichotomy_ok = True
    for oi in range(2):
        for oj in range(2):
            block = dx_sbp[0, 2 * oi:2 * oi + 2, 2 * oj:2 * oj + 2, :]
            ref = dx_full[0, 2 * oi:2 * oi + 2, 2 * oj:2 * oj + 2, :]
            if oi * 2 + oj in dmask.keep:
                dichotomy_ok &= bool(np.array_equal(block, ref))
            else:
                dichotomy_ok &= bool(np.all(block == 0.0))
    drep = chain_rule_report([ConvStage("c", (4, 4), kernel=2, stride=2,
                                        mask=dmask)])
    dichotomy_ok = dichotomy_ok and set(drep.input_classes) == {"exact", "zero"}

    ok = intersection_ok and vanish_ok and neighbor_ok and dichotomy_ok
    report(f"criterion 5 (chain rule): {'PASS' if ok else 'FAIL'} "
           f"intersection(500)={intersection_ok} disjoint-vanishing={vanish_ok} "
           f"neighbor-effect={neighbor_ok} stride-dichotomy={dichotomy_ok}")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 6: gradient-cosine orderings at 90% bootstrap confidence
# (5th/95th percentiles) over 200 fixed-weight batches.
# ---------------------------------------------------------------------------


CRITERION_6_VARIANTS = {  # name: (schedule, sampler, mode)
    "uniform_grid_qkv": ("uniform", "grid", "qkv"),
    "increasing_grid_qkv": ("increasing", "grid", "qkv"),
    "decreasing_grid_qkv": ("decreasing", "grid", "qkv"),
    "uniform_random_qkv": ("uniform", "random", "qkv"),
    "uniform_grid_head": ("uniform", "grid", "head"),
}


def _plan_fn(model, schedule_kind, sampler, mode):
    n_layers = len(model.sbp_layers())
    sharing = "shared" if schedule_kind == "uniform" else "independent"

    def plan_fn(step):
        sched = build_schedule(schedule_kind, 0.5, n_layers)
        plan = make_mask_plan(model, sched, sampler, sharing, 1000 + step * 13)
        return resolve(model, plan, mode, step, 5)

    return plan_fn


def test_criterion_6_statistical_orderings():
    spec = tiny_vit_spec(grid=(8, 8), in_channels=3, embed=32, heads=2,
                         depth=6, mlp_ratio=2, sbp_fraction=2 / 3)
    model = build_model(spec, seed=42)
    data = make_blobs(1600, grid=(8, 8), channels=3, noise=0.5, seed=9)
    batches = list(data.batches(8))
    assert len(batches) == 200

    # One exact forward and backward per batch, shared by every variant.
    plans = {name: _plan_fn(model, *variant) for name, variant in CRITERION_6_VARIANTS.items()}
    cos = {name: [] for name in CRITERION_6_VARIANTS}
    for step, batch in enumerate(batches):
        ref = exact_reference(model, *batch)
        for name in CRITERION_6_VARIANTS:
            cos[name].append(grad_similarity_experiment(ref, plans[name](step)).cosine)
    cos = {name: np.array(values) for name, values in cos.items()}
    ci = lambda a, b: bootstrap_mean_diff(cos[a], cos[b], seed=3)
    lo_ui, _ = ci("uniform_grid_qkv", "increasing_grid_qkv")
    lo_ud, _ = ci("uniform_grid_qkv", "decreasing_grid_qkv")
    _, hi_gr = ci("uniform_grid_qkv", "uniform_random_qkv")
    lo_qh, _ = ci("uniform_grid_qkv", "uniform_grid_head")

    checks = {
        "uniform > increasing": lo_ui > 0.0,
        "uniform > decreasing": lo_ud > 0.0,
        "grid >= random": hi_gr >= 0.0,
        "qkv > head": lo_qh > 0.0,
    }
    ok = all(checks.values())
    detail = (f"uniform-increasing lo={lo_ui:.4f}, uniform-decreasing "
              f"lo={lo_ud:.4f}, grid-random hi={hi_gr:.4f}, qkv-head "
              f"lo={lo_qh:.4f}")
    report(f"criterion 6 (statistical orderings, 200 batches, 90% bootstrap): "
           f"{'PASS' if ok else 'FAIL'} {detail}")
    assert ok, checks


# ---------------------------------------------------------------------------
# Criterion 7: desk-scale training. Full backprop reaches >= 0.99 on the
# separable task; shared-grid r=0.5 SBP lands within 2 points; no per-layer
# gradient norm sits at exactly zero for 50 consecutive steps.
# ---------------------------------------------------------------------------


def _train(model, data, steps, batch_size, lr, use_sbp, seed=0, mode="qkv"):
    batches = list(data.batches(batch_size))
    n_layers = len(model.sbp_layers())
    stores = []
    for step in range(steps):
        x, labels = batches[step % len(batches)]
        plan = None
        if use_sbp and n_layers:
            sched = build_schedule("uniform", 0.5, n_layers)
            plan = resolve(model, make_mask_plan(model, sched, "grid", "shared",
                                                 seed * 77 + step * 13), mode, step, seed)
        tape = forward(model, x, labels, plan=plan)
        store = backward(tape)
        stores.append(store)
        sgd_step(model, store, lr)
    xs = data.x
    return accuracy(model, xs, data.labels), stores


def test_criterion_7_desk_scale_training():
    data = make_blobs(256, grid=(8, 8), channels=3, noise=0.1, seed=1)
    results = {}
    flagged_all = []
    runs = [
        ("mlp", mlp_spec(grid=(8, 8), in_channels=3, width=16, depth=3), 0.5),
        ("vit", tiny_vit_spec(grid=(8, 8), in_channels=3, embed=16, heads=2,
                              depth=3, mlp_ratio=2, sbp_fraction=2 / 3), 0.05),
    ]
    for name, spec, lr in runs:
        full_acc, _ = _train(build_model(spec, seed=0), data, steps=500,
                             batch_size=16, lr=lr, use_sbp=False)
        sbp_acc, stores = _train(build_model(spec, seed=0), data, steps=500,
                                 batch_size=16, lr=lr, use_sbp=True)
        _, flagged = l2_norm_trace(stores, flag_window=50)
        flagged_all.extend(f"{name}:{nid}" for nid in flagged)
        results[name] = (full_acc, sbp_acc)

    full_ok = all(full >= 0.99 for full, _ in results.values())
    gap_ok = all(abs(full - sbp) <= 0.02 for full, sbp in results.values())
    trace_ok = not flagged_all
    ok = full_ok and gap_ok and trace_ok
    detail = ", ".join(f"{name} full={full:.3f} sbp={sbp:.3f}"
                       for name, (full, sbp) in results.items())
    report(f"criterion 7 (desk-scale training): {'PASS' if ok else 'FAIL'} "
           f"{detail}; zero-norm flags={flagged_all or 'none'}")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 8: byte determinism across reruns and thread counts, and r=1.0
# byte-identical to SBP disabled.
# ---------------------------------------------------------------------------


ACCEPT_CONFIG = """
model.kind = vit
model.grid = 4x4
model.in_channels = 2
model.embed = 8
model.heads = 2
model.depth = 2
model.sbp_fraction = 1.0
sbp.keep_ratio = 0.5
train.steps = 6
train.batch_size = 8
train.lr = 0.05
data.count = 32
data.noise = 0.3
"""


def _run_train(tmp_path, text, name, threads=1):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text)
    out = tmp_path / name
    code = cli_main(["train", "--config", str(cfg), "--out", str(out),
                     "--threads", str(threads)])
    assert code == 0
    return (out / "train.csv").read_bytes(), out


def test_criterion_8_determinism(tmp_path):
    runs = [_run_train(tmp_path, ACCEPT_CONFIG, f"run{i}", threads=t)[0]
            for i, t in enumerate([1, 1, 4])]
    rerun_ok = runs[0] == runs[1]
    threads_ok = runs[0] == runs[2]

    full_text = ACCEPT_CONFIG.replace("sbp.keep_ratio = 0.5",
                                      "sbp.keep_ratio = 1.0")
    off_text = ACCEPT_CONFIG + "sbp.enabled = false\n"
    csv_full, out_full = _run_train(tmp_path, full_text, "full")
    csv_off, out_off = _run_train(tmp_path, off_text, "off")
    a = np.load(out_full / "checkpoint.npz")
    b = np.load(out_off / "checkpoint.npz")
    params_ok = all(np.array_equal(a[k], b[k])
                    for k in a.files if k != "config_hash")
    csv_ok = csv_full == csv_off

    ok = rerun_ok and threads_ok and params_ok and csv_ok
    report(f"criterion 8 (determinism): {'PASS' if ok else 'FAIL'} "
           f"rerun={rerun_ok} threads-1-vs-4={threads_ok} "
           f"r1-vs-disabled csv={csv_ok} params={params_ok}")
    assert ok
