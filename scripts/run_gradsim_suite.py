"""Fixed-weight gradient-similarity suite across schedule/sampler/mode variants.

Runs the same batch stream through every variant, writes one CSV per variant
plus a JSON summary with 90% bootstrap intervals on the pairwise mean-cosine
differences, and prints the ordering table. The weights never change, so each
batch gets one exact forward, and every variant takes its masked gradient from
that one exact tape. Batches run one at a time instead of holding every
batch's tape.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sbp.analysis import (bootstrap_mean_diff, exact_reference,
                          grad_similarity_experiment, write_gradsim_csv, write_json)
from sbp.data import make_blobs
from sbp.engine import resolve
from sbp.masks import build_schedule, make_mask_plan
from sbp.models import build_model, tiny_vit_spec

VARIANTS = [
    ("uniform-grid-qkv", "uniform", "grid", "qkv"),
    ("increasing-grid-qkv", "increasing", "grid", "qkv"),
    ("decreasing-grid-qkv", "decreasing", "grid", "qkv"),
    ("uniform-random-qkv", "uniform", "random", "qkv"),
    ("uniform-grid-query_only", "uniform", "grid", "query_only"),
    ("uniform-grid-head", "uniform", "grid", "head"),
]


def run_variant(model, batch, step, exact, schedule_kind, sampler, mode, keep_ratio,
                plan_seed, head_seed):
    """One variant's report on the batch numbered `step`, from its exact reference."""
    n_layers = len(model.sbp_layers())
    sharing = "shared" if schedule_kind == "uniform" else "independent"

    def plan_fn(s):
        sched = build_schedule(schedule_kind, keep_ratio, n_layers)
        plan = make_mask_plan(model, sched, sampler, sharing, plan_seed + s * 13)
        return resolve(model, plan, mode, s, head_seed)

    return grad_similarity_experiment(model, [batch], plan_fn, exact=[exact], start=step)[0]


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--batches", type=int, default=200)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--keep-ratio", type=float, default=0.5)
    p.add_argument("--model-seed", type=int, default=42)
    p.add_argument("--data-seed", type=int, default=9)
    p.add_argument("--plan-seed", type=int, default=1000)
    p.add_argument("--head-seed", type=int, default=5)
    p.add_argument("--bootstrap-seed", type=int, default=3)
    args = p.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    spec = tiny_vit_spec(grid=(8, 8), in_channels=3, embed=32, heads=2,
                         depth=6, mlp_ratio=2, sbp_fraction=2 / 3)
    model = build_model(spec, seed=args.model_seed)
    data = make_blobs(args.batches * args.batch_size, grid=(8, 8), channels=3,
                      noise=0.5, seed=args.data_seed)
    per_variant = {name: [] for name, *_ in VARIANTS}
    for step, batch in enumerate(data.batches(args.batch_size)):
        exact = exact_reference(model, *batch)
        for name, schedule, sampler, mode in VARIANTS:
            per_variant[name].append(run_variant(
                model, batch, step, exact, schedule, sampler, mode,
                args.keep_ratio, args.plan_seed, args.head_seed))

    cosines = {}
    summary = {"variants": {}, "pairwise": {}}
    for name, *_ in VARIANTS:
        reports = per_variant[name]
        write_gradsim_csv(out / f"gradsim_{name}.csv", reports)
        cosines[name] = np.array([r.cosine for r in reports])
        summary["variants"][name] = {
            "mean_cosine": float(cosines[name].mean()),
            "std_cosine": float(cosines[name].std(ddof=1)),
            "n_batches": len(reports),
        }
        print(f"{name:28s} mean cosine {cosines[name].mean():.4f}")

    names = [v[0] for v in VARIANTS]
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            a, b = names[i], names[j]
            lo, hi = bootstrap_mean_diff(cosines[a], cosines[b],
                                         seed=args.bootstrap_seed)
            summary["pairwise"][f"{a}_minus_{b}"] = {
                "mean_diff": float(cosines[a].mean() - cosines[b].mean()),
                "ci90": [lo, hi],
            }

    write_json(out / "gradsim_summary.json", summary)
    print(f"wrote {out / 'gradsim_summary.json'}")


if __name__ == "__main__":
    main()
