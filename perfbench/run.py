#!/usr/bin/env python3
"""Benchmark of the `sbp` command line on three fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Each run generates its inputs from the seed (an SBPD data set written with
`sbp.data.make_blobs` + `write_sbpd`, and a config file), then runs the
command again and again, each time in a fresh process that calls
`sbp.cli.main(argv)`, until `--seconds` have passed (closed loop, one command
at a time, BLAS pinned to one thread). Every repetition's outputs are checked.
End-to-end metrics are medians over the untraced repetitions. With
`--trace 1`, untraced and traced repetitions alternate; the traced ones give
the per-layer metrics and the difference gives the tracing overhead. The last
line of standard output is one JSON object: `correct`, `attempted`, `failed`,
`metrics` (end-to-end ones with `--trace 0`, per-layer ones with `--trace 1`,
names and units as listed in BENCHMARK.json). `--all` runs every workload
traced and prints everything; it exits non-zero if any check fails.

Only this process tree's own wall clock, `ru_maxrss` and tracemalloc are
used: no system-wide tracing, no cache dropping.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from worker import BLAS_VARS  # noqa: E402

LIMITS = ("measured with this process tree's wall clock (time.perf_counter), "
          "ru_maxrss of each run process and tracemalloc only; no system-wide "
          "tracing, no cache dropping")
RUN_BUDGET_S = 165.0      # every run must end well inside 180 s
MIN_REPS = {"untraced": 3, "setup": 3, "traced": 2}


@dataclass(frozen=True)
class Workload:
    command: str            # "train" or "gradsim"
    grid: tuple
    batch: int
    batches: int            # distinct batches in the generated data set
    config: str             # model and SBP lines; seed, data and size are added per run
    steps: int = 0          # train: steps per run
    variants: tuple = ()    # gradsim: schedule-sampler-mode tokens
    threads: int = 1

    @property
    def ops(self) -> int:
        """Operations per run: training steps, or variant x batch evaluations."""
        return self.steps if self.command == "train" else len(self.variants) * self.batches


# The reason for each workload is its `why` line in BENCHMARK.json.
# sbp_fraction 2/3 written so that ceil(fraction * 6) is 4 SBP blocks of 6.
VIT_TWO_THIRDS = "model.sbp_fraction = 0.6666666666666666\n"

WORKLOADS = {
    "train-vit14-qkv": Workload(
        command="train", grid=(14, 14), batch=16, batches=4, steps=4,
        config=("model.kind = vit\nmodel.embed = 64\nmodel.heads = 2\nmodel.depth = 6\n"
                "model.mlp_ratio = 2\n" + VIT_TWO_THIRDS +
                "sbp.mode = qkv\nsbp.keep_ratio = 0.5\nsbp.sampler = grid\n"
                "sbp.sharing = shared\nsbp.schedule = uniform\n"
                "sbp.resample_each_step = true\ntrain.lr = 0.01\n")),
    "train-mlp16-random": Workload(
        command="train", grid=(16, 16), batch=32, batches=2, steps=8,
        config=("model.kind = mlp\nmodel.width = 128\nmodel.depth = 6\n"
                "model.sbp_fraction = 1.0\nsbp.keep_ratio = 0.5\nsbp.sampler = random\n"
                "sbp.sharing = independent\nsbp.schedule = increasing\n"
                "sbp.resample_each_step = true\ntrain.lr = 0.05\n")),
    "gradsim-vit8-modes": Workload(
        command="gradsim", grid=(8, 8), batch=8, batches=12, threads=2,
        variants=("uniform-grid-qkv", "uniform-grid-query_only", "uniform-grid-head",
                  "increasing-grid-qkv"),
        config=("model.kind = vit\nmodel.embed = 32\nmodel.heads = 2\nmodel.depth = 6\n"
                "model.mlp_ratio = 2\n" + VIT_TWO_THIRDS +
                "sbp.keep_ratio = 0.5\nsbp.sampler = grid\nsbp.sharing = shared\n")),
}


@dataclass
class Rep:
    mode: str
    result: dict | None
    errors: list
    digest: str | None = None
    guard: float | None = None   # final loss (train) or mean cosine (gradsim)

    @property
    def ok(self) -> bool:
        return not self.errors


# ---------------------------------------------------------------------------
# Inputs and repetitions
# ---------------------------------------------------------------------------


def prepare(workload: Workload, seed: int, rundir: Path) -> Path:
    """Write the seeded data set and config; return the config path."""
    from sbp.data import make_blobs, write_sbpd

    data = rundir / "data.sbpd"
    write_sbpd(data, make_blobs(workload.batch * workload.batches, grid=workload.grid,
                                channels=3, n_classes=2, noise=0.5, seed=seed))
    text = workload.config + (
        f"model.grid = {workload.grid[0]}x{workload.grid[1]}\n"
        f"train.batch_size = {workload.batch}\ntrain.seed = {seed}\n"
        f"data.path = {data}\n")
    if workload.command == "train":
        text += f"train.steps = {workload.steps}\n"
    else:
        text += (f"gradsim.variants = {','.join(workload.variants)}\n"
                 f"gradsim.batches = {workload.batches}\n")
    config = rundir / "run.cfg"
    config.write_text(text)
    return config


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_rep(workload: Workload, config: Path, rundir: Path, index: int, mode: str,
            timeout: float) -> Rep:
    out = rundir / f"out{index}"
    threads = min(workload.threads, os.cpu_count() or 1)
    job = {"argv": [workload.command, "--config", str(config), "--out", str(out),
                    "--threads", str(threads)],
           "mode": mode, "result": str(rundir / f"rep{index}.json")}
    job_path = rundir / f"job{index}.json"
    job_path.write_text(json.dumps(job))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path)],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return Rep(mode, None, [f"rep {index}: timed out after {timeout:.0f} s"])
    if proc.returncode != 0 or not Path(job["result"]).is_file():
        return Rep(mode, None, [f"rep {index}: worker exited {proc.returncode}: "
                                f"{proc.stderr.strip()[-2000:]}"])
    result = json.loads(Path(job["result"]).read_text())
    rep = Rep(mode, result, [])
    try:
        check_rep(workload, rep, out)
    except (KeyError, ValueError, TypeError) as e:
        rep.errors.append(f"rep {index}: malformed output: {e!r}")
    shutil.rmtree(out, ignore_errors=True)
    return rep


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


def _in_unit_range(value: float) -> bool:
    # GradReport accepts cosines up to 1e-12 outside [-1, 1] (rounding of a @ b).
    return math.isfinite(value) and -1.0 - 1e-12 <= value <= 1.0 + 1e-12


def check_rep(workload: Workload, rep: Rep, out: Path):
    r = rep.result
    errors = rep.errors
    if r["exit_code"] != 0:
        errors.append(f"exit code {r['exit_code']}: {r['error'] or ''}".strip())
        return
    blas = r["environment"]["openblas"]
    if not blas or any(lib["threads"] != 1 for lib in blas):
        errors.append(f"OpenBLAS threads are not 1: {blas}")
    if not any(s[2] == "engine.forward" for s in r["spans"]):
        errors.append("no engine.forward call was seen")
    if rep.mode == "setup":
        return
    if workload.command == "train":
        path = out / "train.csv"
        if not path.is_file():
            errors.append("train.csv missing")
            return
        rows = list(csv.DictReader(path.read_text().splitlines()))
        losses = [float(row["loss"]) for row in rows]
        if len(rows) != workload.steps:
            errors.append(f"train.csv has {len(rows)} rows, expected {workload.steps}")
        if not losses or not all(math.isfinite(v) for v in losses):
            errors.append("train.csv has a non-finite or missing loss")
        else:
            rep.guard = losses[-1]
    else:
        path = out / "gradsim_summary.json"
        if not path.is_file():
            errors.append("gradsim_summary.json missing")
            return
        variants = json.loads(path.read_text()).get("variants", {})
        if sorted(variants) != sorted(workload.variants):
            errors.append(f"summary variants {sorted(variants)} != {sorted(workload.variants)}")
            return
        for name, v in variants.items():
            if v.get("n_batches") != workload.batches:
                errors.append(f"{name}: n_batches {v.get('n_batches')} != {workload.batches}")
            cosines = [float(v.get("mean_cosine", math.nan))]
            per_batch = out / f"gradsim_{name}.csv"
            if per_batch.is_file():
                cosines += [float(row["cosine"]) for row in
                            csv.DictReader(per_batch.read_text().splitlines())]
            else:
                errors.append(f"gradsim_{name}.csv missing")
            if not all(_in_unit_range(c) for c in cosines):
                errors.append(f"{name}: a cosine is outside [-1, 1] or non-finite")
        rep.guard = statistics.fmean(float(v["mean_cosine"]) for v in variants.values())
    rep.digest = hashlib.sha256(path.read_bytes()).hexdigest()


def check_determinism(workload: Workload, reps: list):
    """Outputs of one seed must be byte-identical across every repetition."""
    digests = [rep.digest for rep in reps if rep.digest is not None]
    if not digests:
        return
    expected = statistics.mode(digests)
    name = "train.csv" if workload.command == "train" else "gradsim_summary.json"
    for i, rep in enumerate(reps):
        if rep.digest is not None and rep.digest != expected:
            rep.errors.append(f"rep {i}: {name} differs from the other repetitions")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _median(values, default=0.0):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else default


def _union_s(intervals) -> float:
    """Total length covered by possibly overlapping [start, end] intervals."""
    total = 0.0
    end = -math.inf
    for s, e in sorted(intervals):
        if e > end:
            total += e - max(s, end)
            end = e
    return total


def _first_forward(r: dict) -> float:
    return min(s[4] for s in r["spans"] if s[2] == "engine.forward")


def setup_s(r: dict) -> float:
    """Process start to the first forward pass."""
    return _first_forward(r) - r["t0"]


def end_to_end(workload: Workload, r: dict) -> dict:
    spans = r["spans"]
    first_step = _first_forward(r)
    if workload.command == "train":
        loop_end = max((s[5] for s in spans if s[2] == "engine.sgd_step"), default=r["t_end"])
    else:
        loop_end = r["t_end"]
    ops_per_s = workload.ops / (loop_end - first_step)
    figures = {
        "run_s": r["t_end"] - r["t0"],
        "ops_per_s": ops_per_s,
        "peak_rss_mb": r["peak_rss_mb"],
    }
    if workload.command == "train":
        figures["train_samples_per_s"] = ops_per_s * workload.batch
    else:
        figures["gradsim_evals_per_s"] = ops_per_s
    return figures


def span_table(spans) -> dict:
    """Span name -> [inclusive seconds, self seconds, calls]."""
    children = defaultdict(float)
    for sid, parent, _name, _tid, start, end in spans:
        if parent is not None:
            children[parent] += end - start
    table = {}
    for sid, _parent, name, _tid, start, end in spans:
        row = table.setdefault(name, [0.0, 0.0, 0])
        row[0] += end - start
        row[1] += end - start - children[sid]
        row[2] += 1
    return table


def per_layer(workload: Workload, rep: Rep) -> dict:
    r = rep.result
    spans = r["spans"]
    figures = {}
    for name, (incl, self_s, calls) in span_table(spans).items():
        # Node methods are `module.kind.method`; their quantities join with "_".
        sep = "_" if name.count(".") == 2 else "."
        figures[f"{name}{sep}ms"] = incl * 1e3
        figures[f"{name}{sep}self_ms"] = self_s * 1e3
        figures[f"{name}{sep}calls"] = calls

    def samples(name, sbp=True):
        return [s for s in r["samples"] if s["name"] == name and s["sbp"] == sbp]

    def mb(values):
        return _median([None if v is None else v / 1e6 for v in values])

    forwards = samples("engine.forward")
    figures["engine.tape_mb"] = mb(s["tape"] for s in forwards)
    figures["engine.tape_counted_mb"] = mb(s["counted"] for s in forwards)
    figures["engine.forward.peak_mb"] = mb(s["peak"] for s in forwards)
    figures["engine.backward.peak_mb"] = mb(s["peak"] for s in samples("engine.backward"))
    exact = len(samples("engine.forward", sbp=False))
    figures["analysis.exact_passes_per_eval"] = (
        exact / workload.ops if workload.command == "gradsim" else 0.0)

    def intervals(*names):
        return [(s[4], s[5]) for s in spans if s[2] in names]

    experiments = intervals("analysis.grad_similarity_experiment")
    busy = _union_s(experiments)
    figures["cli.gradsim.parallelism"] = (
        sum(e - s for s, e in experiments) / busy if busy else 0.0)
    figures["cli.eval_ms"] = _union_s(intervals("analysis.accuracy")) * 1e3
    figures["cli.outputs_ms"] = _union_s(intervals(
        "analysis.write_csv", "analysis.write_json", "numpy.savez")) * 1e3
    guard = "cli.final_loss" if workload.command == "train" else "cli.mean_cosine"
    figures[guard] = rep.guard
    return figures


def median_figures(rows: list) -> dict:
    keys = sorted({k for row in rows for k in row})
    return {k: _median([row.get(k, 0.0) for row in rows]) for k in keys}


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, why: str) -> dict:
    workload = WORKLOADS[name]
    started = time.perf_counter()
    rundir = WORK / f"{name}-seed{seed}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    config = prepare(workload, seed, rundir)
    # Set-up is short and noisy, so each untraced run is followed by two
    # set-up-only runs that stop at the first forward pass.
    modes = ("untraced", "traced") if trace else ("untraced", "setup", "setup")
    reps = []
    took = {}   # mode -> duration of its last repetition
    measure_start = time.perf_counter()
    while True:
        mode = modes[len(reps) % len(modes)]
        left = seconds - (time.perf_counter() - measure_start)
        if all(sum(rep.mode == m for rep in reps) >= MIN_REPS[m] for m in modes):
            if left <= 0:
                break
            if took.get(mode, 0.0) > left:
                # A full repetition would overrun --seconds; set-up runs fill the rest.
                if trace:
                    break
                mode = "setup"
        budget = RUN_BUDGET_S - (time.perf_counter() - started)
        if reps and budget < 1.5 * max(took.values()):
            break
        t = time.perf_counter()
        reps.append(run_rep(workload, config, rundir, len(reps), mode, timeout=max(1.0, budget)))
        took[mode] = time.perf_counter() - t
    check_determinism(workload, reps)

    ok = {m: [rep for rep in reps if rep.ok and rep.mode == m] for m in modes}
    untraced = ok["untraced"]
    e2e = median_figures([end_to_end(workload, rep.result) for rep in untraced])
    if untraced:
        e2e["setup_s"] = _median(setup_s(rep.result) for rep in untraced + ok.get("setup", []))
        e2e["final_loss" if workload.command == "train" else "mean_cosine"] = untraced[0].guard
    traced = ok.get("traced", [])
    layers = median_figures([per_layer(workload, rep) for rep in traced])
    if traced and untraced:
        layers["trace.overhead_s"] = (
            _median([rep.result["t_end"] - rep.result["t0"] for rep in traced])
            - _median([rep.result["t_end"] - rep.result["t0"] for rep in untraced]))
    runs = [rep for rep in reps if rep.mode != "setup"]
    failed = sum(workload.ops for rep in runs if not rep.ok)
    summary = {
        "workload": name, "why": why, "seed": seed, "seconds": seconds,
        "reps": {m: sum(rep.mode == m for rep in reps) for m in dict.fromkeys(modes)},
        "attempted": workload.ops * len(runs), "failed": failed,
        "errors": [e for rep in reps for e in rep.errors],
        "end_to_end": e2e, "per_layer": layers,
        "environment": next((rep.result["environment"] for rep in reps if rep.result), None),
        "limits": LIMITS,
    }
    (rundir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    return summary


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

E2E_UNITS = {"setup_s": "s", "run_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB",
             "train_samples_per_s": "1/s", "gradsim_evals_per_s": "1/s",
             "final_loss": "nat", "mean_cosine": "1"}


def print_report(summary: dict, benchmark: dict):
    s = summary
    reps = ", ".join(f"{mode} {n}" for mode, n in s["reps"].items())
    print(f"== {s['workload']}  seed {s['seed']}  repetitions: {reps} ==")
    print(f"   why: {s['why']}")
    print("   end-to-end (median over untraced reps):")
    for key, unit in E2E_UNITS.items():
        value = s["end_to_end"].get(key)
        print(f"     {key:<24} {'n/a' if value is None else f'{value:.6g}'} "
              f"{'' if value is None else unit}")
    rate = s["failed"] / s["attempted"] if s["attempted"] else 1.0
    print(f"     {'error_rate':<24} {rate:.6g} ({s['failed']} of {s['attempted']} operations)")
    if s["per_layer"]:
        units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
        print("   per-layer (median over traced reps; * = listed in BENCHMARK.json):")
        for key, value in sorted(s["per_layer"].items()):
            mark = "*" if key in units else " "
            print(f"    {mark}{key:<48} {value:.6g} {units.get(key, '')}")
        overhead = s["per_layer"].get("trace.overhead_s")
        if overhead is not None:
            print(f"   tracing overhead: traced run_s - untraced run_s = {overhead:.4g} s")
    env = s["environment"] or {}
    print(f"   environment: nproc {env.get('nproc')}, affinity {env.get('cpu_affinity')}, "
          f"{env.get('cpu_model')}, python {env.get('python')}, numpy {env.get('numpy')}, "
          f"scipy {env.get('scipy')}")
    for lib in env.get("openblas", []):
        print(f"     {lib['library']}: threads {lib['threads']}, {lib['config']}")
    print(f"   limits: {s['limits']}")
    for error in s["errors"]:
        print(f"   CHECK FAILED: {error}")


def correct(summary: dict) -> bool:
    return summary["failed"] == 0 and not summary["errors"]


def result_line(summary: dict, names: list) -> dict:
    figures = {**summary["end_to_end"], **summary["per_layer"]}
    return {
        "correct": correct(summary),
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {m["name"]: {"value": figures.get(m["name"]) or 0.0, "unit": m["unit"]}
                    for m in names},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--all", action="store_true", help="run every workload, traced")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.all == (args.workload is not None):
        p.error("give exactly one of --workload and --all")
    if args.seed < 0 or (args.seconds is not None and args.seconds <= 0):
        p.error("--seed must be >= 0 and --seconds > 0")
    bench_file = ROOT / "BENCHMARK.json"
    if not (SRC / "sbp" / "cli.py").is_file() or not bench_file.is_file():
        print(f"error: no program to measure: {SRC / 'sbp'} or {bench_file} is missing",
              file=sys.stderr)
        return 2
    benchmark = json.loads(bench_file.read_text())
    whys = {w["name"]: w["why"] for w in benchmark["workloads"]}
    seconds = args.seconds or benchmark["run_seconds"]
    # On SIGTERM, unwind so subprocess.run kills and reaps the running repetition.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    if args.all:
        summaries = [run_workload(name, args.seed, seconds, True, whys[name])
                     for name in WORKLOADS]
        for s in summaries:
            print_report(s, benchmark)
        ok = all(correct(s) for s in summaries)
        print(json.dumps({"correct": ok,
                          "attempted": sum(s["attempted"] for s in summaries),
                          "failed": sum(s["failed"] for s in summaries)}))
        return 0 if ok else 1

    summary = run_workload(args.workload, args.seed, seconds, bool(args.trace),
                           whys[args.workload])
    print_report(summary, benchmark)
    if not summary["per_layer" if args.trace else "end_to_end"]:
        print("error: no repetition succeeded; no metrics to report", file=sys.stderr)
        return 1
    result = result_line(summary, benchmark["per_layer" if args.trace else "end_to_end"])
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
