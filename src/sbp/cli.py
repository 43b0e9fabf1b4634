"""Command-line front end: train / gradsim / memreport / chaindemo / gendata.

BLAS threading is pinned to one thread when the `sbp` package loads, before
numpy, so results are byte-identical regardless of --threads; worker threads
only spread independent work items and results are merged in index order.

Exit codes: 0 success, 2 configuration error, 3 numeric failure. stdout
carries only the report path; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _load_config(path, seed_override):
    """The validated config at `path`, `--seed` overriding train.seed, and
    the sha256 of its text."""
    from .config import parse_config, validate_config
    text = Path(path).read_text()
    cfg = parse_config(text)
    if seed_override is not None:
        cfg.train.seed = seed_override
        validate_config(cfg)
    return cfg, hashlib.sha256(text.encode()).hexdigest()


def _own_seed(seed) -> int:
    """The `--seed` of a command that reads no config: 0 when unset."""
    from .errors import ConfigurationError

    if seed is not None and seed < 0:
        raise ConfigurationError(f"--seed must be >= 0, got {seed}")
    return seed or 0


def _load_dataset(cfg):
    """The run's dataset, checked against `cfg.model`: each sample is a
    grid x in_channels array and each label a class index."""
    from .data import make_blobs, read_sbpd
    from .errors import ConfigurationError

    m = cfg.model
    if not cfg.data.path:
        return make_blobs(cfg.data.count, grid=m.grid, channels=m.in_channels,
                          n_classes=m.n_classes, noise=cfg.data.noise, seed=cfg.data.seed)
    dataset = read_sbpd(cfg.data.path)
    shape = (*m.grid, m.in_channels)
    if dataset.x.shape[1:] != shape:
        raise ConfigurationError(f"dataset samples have shape {dataset.x.shape[1:]}, "
                                 f"model.grid and model.in_channels need {shape}")
    lo, hi = dataset.labels.min(), dataset.labels.max()
    if lo < 0 or hi >= m.n_classes:
        raise ConfigurationError(f"dataset labels span [{lo}, {hi}], "
                                 f"model.n_classes = {m.n_classes} needs [0, {m.n_classes})")
    return dataset


def _make_plan(model, cfg, step, schedule_kind=None, sampler=None, mode=None):
    """This step's `engine.resolve` map (every node's selection), or None."""
    from .engine import resolve
    from .errors import ConfigurationError
    from .masks import build_schedule, make_mask_plan

    if not cfg.sbp.enabled:
        return None
    mode = mode or cfg.sbp.mode
    if mode == "head" and cfg.model.kind != "vit":
        raise ConfigurationError("head drop mode needs an attention model")
    n_sbp = len(model.sbp_layers())
    if n_sbp == 0:
        return None
    kind = schedule_kind or cfg.sbp.schedule
    sharing = cfg.sbp.sharing
    if kind != "uniform" and sharing == "shared":
        sharing = "independent"
    ratios = build_schedule(kind, cfg.sbp.keep_ratio, n_sbp)
    seed = cfg.train.seed * 77 + (step * 13 if cfg.sbp.resample_each_step else 0)
    plan = make_mask_plan(model, ratios, sampler or cfg.sbp.sampler, sharing, seed)
    return resolve(model, plan, mode, step, cfg.train.seed)


def _dump_masks(plan, dump_dir, step):
    """Each node's mask, and each kept-heads list (one index per line)."""
    from .masks import mask_to_text

    if plan is None:
        return
    d = Path(dump_dir)
    d.mkdir(parents=True, exist_ok=True)
    for node_id, sel in plan.items():
        if sel.mask is not None:
            (d / f"step{step:05d}_{node_id}.mask").write_text(mask_to_text(sel.mask))
        if sel.heads is not None:
            (d / f"step{step:05d}_{node_id}.heads").write_text(
                "".join(f"{h}\n" for h in sel.heads))


def _map(fn, items, threads: int) -> list:
    """[fn(item) for item in items], spread over `threads` worker threads.

    With one thread the calls run on the calling thread: a one-worker pool
    would only give them a second malloc arena next to the training heap.
    """
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _outdir(args) -> Path:
    d = Path(args.out)
    d.mkdir(parents=True, exist_ok=True)
    return d


def cmd_train(args):
    import numpy as np
    from .analysis import accuracy, write_csv, write_json
    from .engine import backward, forward, sgd_step
    from .errors import NumericError
    from .models import build_model

    cfg, cfg_hash = _load_config(args.config, args.seed)
    out = _outdir(args)
    model = build_model(cfg.model, cfg.train.seed)
    dataset = _load_dataset(cfg)
    batches = list(dataset.batches(cfg.train.batch_size))
    rows = []
    for step in range(cfg.train.steps):
        x, labels = batches[step % len(batches)]
        plan = _make_plan(model, cfg, step)
        if args.dump_masks:
            _dump_masks(plan, args.dump_masks, step)
        try:
            tape = forward(model, x, labels, plan=plan)
        except NumericError as e:
            raise NumericError(f"step {step}: {e}") from e
        cached = tape.cached_elements()
        # Each record is freed as soon as its node's backward has run.
        grads = backward(tape, consume=True)
        train_acc = float((tape.logits.argmax(axis=1) == labels).mean())
        rows.append([step, float(tape.loss), train_acc, cached,
                     float(np.linalg.norm(grads.flat()))])
        sgd_step(model, grads, cfg.train.lr)
        # One tape at a time: free this step's activations before the next
        # forward (or the evaluation) allocates its own.
        del tape, grads
    accs = _map(lambda b: accuracy(model, b[0], b[1]), batches, args.threads)
    counts = [b[1].shape[0] for b in batches]
    final_acc = float(np.average(accs, weights=counts))
    csv_path = out / "train.csv"
    write_csv(csv_path, ["step", "loss", "train_acc", "cached_elements", "grad_l2"], rows)
    write_json(out / "summary.json", {"final_accuracy": final_acc,
                                      "steps": cfg.train.steps,
                                      "config_hash": cfg_hash})
    params = model.params()
    np.savez(out / "checkpoint.npz", config_hash=cfg_hash,
             **{k: params[k] for k in sorted(params)})
    print(csv_path)
    return EXIT_OK


def _variant_tokens(cfg):
    """(name, schedule, sampler, mode) per gradsim variant, all checked up front."""
    from .config import SAMPLERS, SBP_MODES, SCHEDULES
    from .errors import ConfigurationError

    tokens = [t.strip() for t in cfg.gradsim.variants.split(",") if t.strip()]
    if not tokens:
        return [("base", cfg.sbp.schedule, cfg.sbp.sampler, cfg.sbp.mode)]
    out = []
    for tok in tokens:
        parts = tok.split("-")
        if len(parts) != 3:
            raise ConfigurationError(
                f"variant {tok!r} must be schedule-sampler-mode, e.g. uniform-grid-qkv")
        schedule, sampler, mode = parts
        for what, value, allowed in (("schedule", schedule, SCHEDULES),
                                     ("sampler", sampler, SAMPLERS),
                                     ("mode", mode, SBP_MODES)):
            if value not in allowed:
                raise ConfigurationError(f"variant {tok!r}: unknown {what} {value!r}")
        if mode == "head" and cfg.model.kind != "vit":
            raise ConfigurationError(
                f"variant {tok!r}: head drop mode needs an attention model")
        out.append((tok, schedule, sampler, mode))
    return out


def cmd_gradsim(args):
    import numpy as np
    from .analysis import (bootstrap_mean_diff, exact_reference,
                           grad_similarity_experiment, write_gradsim_csv, write_json)
    from .models import build_model

    cfg, cfg_hash = _load_config(args.config, args.seed)
    variants = _variant_tokens(cfg)
    out = _outdir(args)
    model = build_model(cfg.model, cfg.train.seed)
    dataset = _load_dataset(cfg)
    n_batches = cfg.gradsim.batches or cfg.train.steps
    batches = list(dataset.batches(cfg.train.batch_size))
    batches = [batches[i % len(batches)] for i in range(n_batches)]

    def compare(step):
        """Every variant's report on one batch, all from one shared exact tape."""
        ref = exact_reference(model, *batches[step])
        return [grad_similarity_experiment(ref, _make_plan(
                    model, cfg, step, schedule_kind=schedule, sampler=sampler, mode=mode))
                for _name, schedule, sampler, mode in variants]

    per_batch = _map(compare, range(len(batches)), args.threads)

    summary = {"config_hash": cfg_hash, "variants": {}}
    variant_means = {}
    for v, (name, *_) in enumerate(variants):
        reports = [row[v] for row in per_batch]
        write_gradsim_csv(out / f"gradsim_{name}.csv", reports)
        cosines = np.array([r.cosine for r in reports])
        lo, hi = bootstrap_mean_diff(cosines, np.zeros_like(cosines), seed=cfg.train.seed)
        variant_means[name] = cosines
        summary["variants"][name] = {
            "mean_cosine": float(cosines.mean()),
            "ci90_mean": [lo, hi],
            "n_batches": len(reports),
        }
    names = list(variant_means)
    pairs = {}
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            a, b = names[i], names[j]
            lo, hi = bootstrap_mean_diff(variant_means[a], variant_means[b],
                                         seed=cfg.train.seed)
            pairs[f"{a}_minus_{b}"] = {"mean_diff": float(variant_means[a].mean()
                                                          - variant_means[b].mean()),
                                       "ci90": [lo, hi]}
    summary["pairwise"] = pairs
    path = out / "gradsim_summary.json"
    write_json(path, summary)
    print(path)
    return EXIT_OK


def cmd_memreport(args):
    from .analysis import (activation_memory_estimate, measure_step_peaks,
                           mhsa_memory_ratio, write_json)
    from .engine import forward
    from .models import build_model

    cfg, cfg_hash = _load_config(args.config, args.seed)
    out = _outdir(args)
    model = build_model(cfg.model, cfg.train.seed)
    dataset = _load_dataset(cfg)
    x, labels = next(dataset.batches(cfg.train.batch_size))
    plan = _make_plan(model, cfg, 0)
    report = activation_memory_estimate(model, plan, x.shape[0])
    tape = forward(model, x, labels, plan=plan)
    payload = {
        "config_hash": cfg_hash,
        "per_node": {k: {"estimated": int(e), "full": int(f)}
                     for k, (e, f) in report.per_node.items()},
        "mhsa_breakdown": report.mhsa_breakdown,
        "estimated_total": report.estimated_total,
        "full_total": report.full_total,
        "ratio": report.ratio,
        "tape_cached_elements": tape.cached_elements(),
    }
    if args.measure:
        del tape
        peaks = {name: measure_step_peaks(model, x, labels, p)
                 for name, p in (("full", None), ("plan", plan))}
        peaks["step_peak_ratio"] = (peaks["plan"]["step_peak_bytes"]
                                    / peaks["full"]["step_peak_bytes"])
        payload["measured"] = peaks
    if cfg.model.kind == "vit":
        n = int(cfg.model.grid[0] * cfg.model.grid[1])
        d = cfg.model.embed // cfg.model.heads
        payload["closed_form"] = {
            mode: mhsa_memory_ratio(cfg.sbp.keep_ratio, d, n, mode)
            for mode in ("query_only", "qkv")
        }
    payload["closed_form_reference"] = {
        "vit_like_n196_d64": {
            mode: {str(r): mhsa_memory_ratio(r, 64, 196, mode) for r in (0.25, 0.5, 1.0)}
            for mode in ("query_only", "qkv")
        },
        "video_like_n392_d32": {
            "query_only": {"0.5": mhsa_memory_ratio(0.5, 32, 392, "query_only")},
        },
    }
    path = out / "memory.json"
    write_json(path, payload)
    print(path)
    return EXIT_OK


def cmd_chaindemo(args):
    from .analysis import (ConvStage, PointwiseStage, chain_rule_report,
                           pointwise_stack_report, write_json)
    from .masks import IndexMask, checkerboard_mask, sample_grid_mask

    seed = _own_seed(args.seed)
    out = _outdir(args)
    grid = (4, 4)

    shared = sample_grid_mask(grid, 0.5, seed)
    shared_rep = pointwise_stack_report([("pw0", shared), ("pw1", shared)])

    half = grid[0] * grid[1] // 2
    m_low = IndexMask.from_keep(grid, range(half))
    m_high = IndexMask.from_keep(grid, range(half, 2 * half))
    disjoint_rep = pointwise_stack_report([("pw0", m_low), ("pw1", m_high)])

    conv_rep = chain_rule_report([
        PointwiseStage("pw0", grid, checkerboard_mask(*grid, phase=0)),
        ConvStage("conv0", grid, kernel=3, stride=1, padding=1,
                  mask=checkerboard_mask(*grid, phase=1)),
    ])

    payload = {
        "shared_stack": {
            "effective_keep": list(shared_rep.effective_keep),
            "shared_keep": list(shared.keep),
            "sparsity": shared_rep.per_layer_sparsity,
            "vanishing": shared_rep.vanishing,
        },
        "disjoint_stack": {
            "effective_keep": list(disjoint_rep.effective_keep),
            "vanishing": disjoint_rep.vanishing,
        },
        "pointwise_conv_stack": {
            "input_classes": list(conv_rep.input_classes),
            "n_approximate": conv_rep.input_classes.count("approximate"),
            "weight_classes": conv_rep.weight_classes,
        },
    }
    path = out / "chain.json"
    write_json(path, payload)
    print(path)
    return EXIT_OK


def cmd_gendata(args):
    from .data import make_blobs, write_sbpd
    from .errors import ConfigurationError

    try:
        h, w = (int(p) for p in args.grid.split("x"))
    except ValueError as e:
        raise ConfigurationError(f"--grid must be HxW, got {args.grid!r}") from e
    ds = make_blobs(args.count, grid=(h, w), channels=args.channels,
                    n_classes=args.classes, noise=args.noise, seed=_own_seed(args.seed))
    write_sbpd(args.out, ds)
    print(args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sbp", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--threads", type=int, default=1)

    sp = sub.add_parser("train", help="train a model, write the metrics CSV + checkpoint")
    common(sp)
    sp.add_argument("--dump-masks", default=None, help="directory for per-step mask dumps")
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("gradsim", help="fixed-weight SBP vs exact gradient cosines")
    common(sp)
    sp.set_defaults(func=cmd_gradsim)

    sp = sub.add_parser("memreport", help="activation-memory estimate vs tape count")
    common(sp)
    sp.add_argument("--measure", action="store_true",
                    help="also trace the forward, backward and step peaks of one "
                         "training step on the first batch, full and under the plan")
    sp.set_defaults(func=cmd_memreport)

    sp = sub.add_parser("chaindemo", help="stacked-mask chain-rule classification demo")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", required=True, help="output directory")
    sp.set_defaults(func=cmd_chaindemo)

    sp = sub.add_parser("gendata", help="write a synthetic SBPD dataset")
    sp.add_argument("--out", required=True, help="output dataset file path")
    sp.add_argument("--count", type=int, default=256)
    sp.add_argument("--grid", default="8x8")
    sp.add_argument("--channels", type=int, default=3)
    sp.add_argument("--classes", type=int, default=2)
    sp.add_argument("--noise", type=float, default=0.5)
    sp.add_argument("--seed", type=int, default=None)
    sp.set_defaults(func=cmd_gendata)
    return p


def main(argv=None) -> int:
    from .errors import ConfigurationError, ContractViolationError, DimensionError, NumericError

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, DimensionError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericError, ContractViolationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
