"""Closed-form attention activation-memory ratios, plus an estimate-vs-tape
cross-check on two small instantiated models (a tiny ViT and a token MLP).

The closed forms depend only on the keep ratio r and c = d/n (head width over
token count). The table covers the 196-token, 64-wide-head configuration and
the 392-token, 32-wide-head long-sequence configuration.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sbp.analysis import activation_memory_estimate, mhsa_memory_ratio
from sbp.engine import forward, resolve
from sbp.masks import build_schedule, make_mask_plan
from sbp.models import build_model, mlp_spec, tiny_vit_spec


def closed_form_table():
    configs = [("n=196 d=64", 64, 196), ("n=392 d=32", 32, 392)]
    ratios = [0.25, 0.5, 0.75, 1.0]
    print(f"{'config':>12s} {'mode':>12s} " + " ".join(f"r={r:<6}" for r in ratios))
    for label, d, n in configs:
        for mode in ("query_only", "qkv"):
            row = " ".join(f"{mhsa_memory_ratio(r, d, n, mode):<8.4f}" for r in ratios)
            print(f"{label:>12s} {mode:>12s} {row}")


def tape_cross_check(seed):
    vit = tiny_vit_spec(grid=(8, 8), in_channels=3, embed=32, heads=2,
                        depth=6, mlp_ratio=2, sbp_fraction=2 / 3)
    mlp = mlp_spec(grid=(8, 8), in_channels=3, width=32, depth=3)
    # The drop mode applies to attention blocks only; the token MLP ignores it.
    for label, spec, mode in (("vit query_only", vit, "query_only"),
                              ("vit qkv", vit, "qkv"), ("mlp", mlp, "qkv")):
        model = build_model(spec, seed=seed)
        rng = np.random.Generator(np.random.PCG64(seed))
        x = rng.normal(size=(4, 8, 8, 3))
        labels = rng.integers(0, 2, size=4)
        sched = build_schedule("uniform", 0.5, len(model.sbp_layers()))
        plan = resolve(model, make_mask_plan(model, sched, "grid", "shared", seed), mode, 0, 0)
        tape = forward(model, x, labels, plan=plan)
        est = activation_memory_estimate(model, plan, batch_size=4)
        match = est.estimated_total == tape.cached_elements()
        print(f"{label:>14s}: estimate {est.estimated_total} "
              f"tape {tape.cached_elements()} match={match} "
              f"ratio={est.ratio:.4f}")


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--skip-tape-check", action="store_true")
    args = p.parse_args()
    closed_form_table()
    if not args.skip_tape_check:
        print()
        tape_cross_check(args.seed)


if __name__ == "__main__":
    main()
