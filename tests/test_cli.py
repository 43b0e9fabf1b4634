import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sbp.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main

from helpers import rounds_up_to


BASE_CONFIG = """
model.kind = mlp
model.grid = 4x4
model.in_channels = 2
model.width = 8
model.depth = 2
model.n_classes = 2
sbp.enabled = true
sbp.keep_ratio = 0.5
train.steps = 5
train.batch_size = 8
train.lr = 0.2
train.seed = 0
data.count = 32
data.noise = 0.3
data.seed = 1
"""

VIT_CONFIG = """
model.kind = vit
model.grid = 4x4
model.in_channels = 2
model.embed = 8
model.heads = 2
model.depth = 2
model.sbp_fraction = 1.0
sbp.keep_ratio = 0.5
train.steps = 3
train.batch_size = 8
data.count = 16
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def run(args):
    return main([str(a) for a in args])


class TestTrain:
    def test_writes_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        assert run(["train", "--config", cfg, "--out", out]) == EXIT_OK
        assert (out / "train.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "checkpoint.npz").exists()
        printed = capsys.readouterr().out.strip()
        assert printed == str(out / "train.csv")
        lines = (out / "train.csv").read_text().splitlines()
        assert lines[0] == "step,loss,train_acc,cached_elements,grad_l2"
        assert len(lines) == 6
        summary = json.loads((out / "summary.json").read_text())
        assert 0.0 <= summary["final_accuracy"] <= 1.0
        assert summary["steps"] == 5

    def test_byte_deterministic_across_threads_and_reruns(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        outputs = []
        for name, threads in [("a", 1), ("b", 4), ("c", 1)]:
            out = tmp_path / name
            assert run(["train", "--config", cfg, "--out", out,
                        "--threads", threads]) == EXIT_OK
            outputs.append((out / "train.csv").read_bytes()
                           + (out / "summary.json").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_full_keep_matches_disabled(self, tmp_path):
        base = BASE_CONFIG.replace("sbp.keep_ratio = 0.5", "sbp.keep_ratio = 1.0")
        disabled = BASE_CONFIG.replace("sbp.enabled = true", "sbp.enabled = false")
        results = []
        for name, text in [("full", base), ("off", disabled)]:
            cfg = write_config(tmp_path, text, f"{name}.cfg")
            out = tmp_path / name
            assert run(["train", "--config", cfg, "--out", out]) == EXIT_OK
            data = np.load(out / "checkpoint.npz")
            results.append({k: data[k] for k in data.files if k != "config_hash"})
        for key in results[0]:
            assert np.array_equal(results[0][key], results[1][key]), key

    def test_sbp_reduces_cached_elements_column(self, tmp_path):
        cfg_on = write_config(tmp_path, BASE_CONFIG, "on.cfg")
        cfg_off = write_config(
            tmp_path, BASE_CONFIG.replace("sbp.enabled = true", "sbp.enabled = false"),
            "off.cfg")
        cached = {}
        for name, cfg in [("on", cfg_on), ("off", cfg_off)]:
            out = tmp_path / f"cache_{name}"
            assert run(["train", "--config", cfg, "--out", out]) == EXIT_OK
            rows = (out / "train.csv").read_text().splitlines()[1:]
            cached[name] = int(rows[0].split(",")[3])
        assert cached["on"] < cached["off"]

    def test_seed_override_changes_run(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out_a, out_b = tmp_path / "s0", tmp_path / "s9"
        assert run(["train", "--config", cfg, "--out", out_a]) == EXIT_OK
        assert run(["train", "--config", cfg, "--out", out_b, "--seed", 9]) == EXIT_OK
        assert (out_a / "train.csv").read_bytes() != (out_b / "train.csv").read_bytes()

    def test_dump_masks(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        dumps = tmp_path / "masks"
        assert run(["train", "--config", cfg, "--out", out,
                    "--dump-masks", dumps]) == EXIT_OK
        files = sorted(p.name for p in dumps.iterdir())
        assert files, "no mask dumps written"
        assert files[0].startswith("step00000_")
        from sbp.masks import mask_from_text
        mask = mask_from_text((dumps / files[0]).read_text())
        assert mask.domain_shape == (4, 4)

    def test_divergence_exits_numeric(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG.replace(
            "train.lr = 0.2", "train.lr = 1e200"))
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            code = run(["train", "--config", cfg, "--out", out])
        assert code == EXIT_NUMERIC
        assert "step" in capsys.readouterr().err

    def test_nonfinite_evaluation_exits_numeric(self, tmp_path, capsys, monkeypatch):
        import sbp.engine

        def poisoning_sgd_step(model, grads, lr):
            sgd_step(model, grads, lr)
            model.set_params({k: np.full_like(v, np.nan) for k, v in model.params().items()})

        sgd_step = sbp.engine.sgd_step
        monkeypatch.setattr(sbp.engine, "sgd_step", poisoning_sgd_step)
        cfg = write_config(tmp_path, BASE_CONFIG.replace("train.steps = 5", "train.steps = 1"))
        out = tmp_path / "out"
        code = run(["train", "--config", cfg, "--out", out])
        assert code == EXIT_NUMERIC
        assert "non-finite" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("text", [BASE_CONFIG, VIT_CONFIG], ids=["mlp", "vit"])
    def test_one_tape_alive_at_a_time(self, tmp_path, monkeypatch, text):
        import weakref

        import sbp.analysis
        import sbp.engine

        tapes = []
        alive = []  # live earlier tapes at the start of each forward / evaluation

        def tracking_forward(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in tapes))
            tape = forward(*args, **kwargs)
            tapes.append(weakref.ref(tape))
            return tape

        def tracking_accuracy(*args):
            alive.append(sum(ref() is not None for ref in tapes))
            return accuracy(*args)

        forward, accuracy = sbp.engine.forward, sbp.analysis.accuracy
        monkeypatch.setattr(sbp.engine, "forward", tracking_forward)
        monkeypatch.setattr(sbp.analysis, "accuracy", tracking_accuracy)
        cfg = write_config(tmp_path, text)
        assert run(["train", "--config", cfg, "--out", tmp_path / "out"]) == EXIT_OK
        assert len(tapes) >= 3
        assert alive and not any(alive)

    def test_single_thread_evaluates_on_the_calling_thread(self, tmp_path, monkeypatch):
        import threading

        import sbp.analysis

        threads = []

        def recording_accuracy(*args):
            threads.append(threading.current_thread())
            return accuracy(*args)

        accuracy = sbp.analysis.accuracy
        monkeypatch.setattr(sbp.analysis, "accuracy", recording_accuracy)
        cfg = write_config(tmp_path, BASE_CONFIG)
        outputs = {}
        for n in (1, 2):
            threads.clear()
            out = tmp_path / f"t{n}"
            assert run(["train", "--config", cfg, "--out", out, "--threads", n]) == EXIT_OK
            on_main = {t is threading.main_thread() for t in threads}
            assert on_main == ({True} if n == 1 else {False})
            outputs[n] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert outputs[1] == outputs[2]

    def test_missing_config_exits_config(self, tmp_path):
        assert run(["train", "--config", tmp_path / "nope.cfg",
                    "--out", tmp_path / "out"]) == EXIT_CONFIG

    def test_invalid_config_exits_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "model.kind = resnet\n")
        assert run(["train", "--config", cfg,
                    "--out", tmp_path / "out"]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_head_mode_needs_attention_model(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG + "sbp.mode = head\n")
        assert run(["train", "--config", cfg,
                    "--out", tmp_path / "out"]) == EXIT_CONFIG


class TestGradsim:
    def test_variants_and_summary(self, tmp_path):
        text = VIT_CONFIG + ("gradsim.variants = uniform-grid-qkv,uniform-grid-head\n"
                             "gradsim.batches = 2\n")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert run(["gradsim", "--config", cfg, "--out", out]) == EXIT_OK
        assert (out / "gradsim_uniform-grid-qkv.csv").exists()
        assert (out / "gradsim_uniform-grid-head.csv").exists()
        summary = json.loads((out / "gradsim_summary.json").read_text())
        assert set(summary["variants"]) == {"uniform-grid-qkv", "uniform-grid-head"}
        for v in summary["variants"].values():
            assert -1.0 <= v["mean_cosine"] <= 1.0
            assert v["n_batches"] == 2
        assert len(summary["pairwise"]) == 1

    def test_overall_row_present(self, tmp_path):
        cfg = write_config(tmp_path, VIT_CONFIG + "gradsim.batches = 1\n")
        out = tmp_path / "out"
        assert run(["gradsim", "--config", cfg, "--out", out]) == EXIT_OK
        body = (out / "gradsim_base.csv").read_text()
        assert "__overall__" in body

    def test_bad_variant_token(self, tmp_path):
        cfg = write_config(tmp_path, VIT_CONFIG + "gradsim.variants = uniformgridqkv\n")
        assert run(["gradsim", "--config", cfg,
                    "--out", tmp_path / "out"]) == EXIT_CONFIG

    def test_thread_count_does_not_change_output(self, tmp_path):
        cfg = write_config(tmp_path, VIT_CONFIG + "gradsim.batches = 3\n")
        blobs = []
        for name, threads in [("t1", 1), ("t4", 4)]:
            out = tmp_path / name
            assert run(["gradsim", "--config", cfg, "--out", out,
                        "--threads", threads]) == EXIT_OK
            blobs.append((out / "gradsim_base.csv").read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("base, token, why", [
        (VIT_CONFIG, "uniform-grid-bogus", "unknown mode 'bogus'"),
        (VIT_CONFIG, "uniform-lattice-qkv", "unknown sampler 'lattice'"),
        (VIT_CONFIG, "steep-grid-qkv", "unknown schedule 'steep'"),
        (BASE_CONFIG, "uniform-grid-head", "needs an attention model"),
    ], ids=["mode", "sampler", "schedule", "head-without-attention"])
    def test_bad_variant_fails_before_any_pass(self, tmp_path, capsys, base, token, why):
        cfg = write_config(tmp_path, base + f"gradsim.variants = uniform-grid-qkv,{token}\n")
        assert run(["gradsim", "--config", cfg, "--out", tmp_path / "out"]) == EXIT_CONFIG
        assert why in capsys.readouterr().err
        assert not list(tmp_path.glob("**/gradsim_*"))

    def test_head_variant_draws_heads_per_batch(self, tmp_path, monkeypatch):
        import sbp.engine

        steps = []

        def recording_head_keep_for(node, ratio, step, seed):
            steps.append(step)
            return head_keep_for(node, ratio, step, seed)

        head_keep_for = sbp.engine.head_keep_for
        monkeypatch.setattr(sbp.engine, "head_keep_for", recording_head_keep_for)
        cfg = write_config(tmp_path, VIT_CONFIG + ("gradsim.variants = uniform-grid-head\n"
                                                   "gradsim.batches = 3\n"))
        assert run(["gradsim", "--config", cfg, "--out", tmp_path / "out"]) == EXIT_OK
        assert sorted(set(steps)) == [0, 1, 2]

    def test_concurrent_head_variants_match_across_threads(self, tmp_path):
        # Variants with different keep schedules run at once on one shared
        # model; a short switch interval makes interleaving likely.
        text = VIT_CONFIG + ("gradsim.variants = uniform-grid-head,increasing-grid-head\n"
                             "gradsim.batches = 3\n")
        cfg = write_config(tmp_path, text)
        outputs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for threads in (1, 2, 4):
                out = tmp_path / f"t{threads}"
                assert run(["gradsim", "--config", cfg, "--out", out,
                            "--threads", threads]) == EXIT_OK
                outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        finally:
            sys.setswitchinterval(interval)
        assert len(outputs[0]) == 3
        assert outputs[0] == outputs[1] == outputs[2]


class TestMemreport:
    def test_estimate_matches_tape(self, tmp_path):
        cfg = write_config(tmp_path, VIT_CONFIG)
        out = tmp_path / "out"
        assert run(["memreport", "--config", cfg, "--out", out]) == EXIT_OK
        payload = json.loads((out / "memory.json").read_text())
        assert payload["estimated_total"] == payload["tape_cached_elements"]
        assert payload["ratio"] < 1.0
        assert "closed_form" in payload
        ref = payload["closed_form_reference"]["vit_like_n196_d64"]
        assert rounds_up_to(ref["query_only"]["0.5"], 0.61, 2)
        assert rounds_up_to(ref["qkv"]["0.5"], 0.46, 2)
        video = payload["closed_form_reference"]["video_like_n392_d32"]
        assert rounds_up_to(video["query_only"]["0.5"], 0.537, 3)

    def test_mlp_has_no_closed_form_block(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        assert run(["memreport", "--config", cfg, "--out", out]) == EXIT_OK
        payload = json.loads((out / "memory.json").read_text())
        assert "closed_form" not in payload


class TestChaindemo:
    def test_reports_three_scenarios(self, tmp_path):
        out = tmp_path / "out"
        assert run(["chaindemo", "--out", out]) == EXIT_OK
        payload = json.loads((out / "chain.json").read_text())
        shared = payload["shared_stack"]
        assert not shared["vanishing"]
        assert shared["effective_keep"] == shared["shared_keep"]
        assert payload["disjoint_stack"]["vanishing"]
        assert payload["disjoint_stack"]["effective_keep"] == []
        assert payload["pointwise_conv_stack"]["n_approximate"] > 0


class TestGendata:
    def test_roundtrip_through_train(self, tmp_path):
        data_path = tmp_path / "toy.sbpd"
        assert run(["gendata", "--out", data_path, "--count", 16,
                    "--grid", "4x4", "--channels", 2, "--noise", 0.3,
                    "--seed", 1]) == EXIT_OK
        assert data_path.exists()
        cfg = write_config(tmp_path, BASE_CONFIG + f"data.path = {data_path}\n")
        out = tmp_path / "out"
        assert run(["train", "--config", cfg, "--out", out]) == EXIT_OK

    def test_corrupt_dataset_exits_config(self, tmp_path):
        data_path = tmp_path / "bad.sbpd"
        data_path.write_bytes(b"JUNKJUNKJUNK")
        cfg = write_config(tmp_path, BASE_CONFIG + f"data.path = {data_path}\n")
        assert run(["train", "--config", cfg,
                    "--out", tmp_path / "out"]) == EXIT_CONFIG


# Run in a fresh interpreter with the BLAS variables unset: importing the CLI
# must pin every OpenBLAS that numpy and scipy load, and each library is asked
# for its own thread count, since the variables only say what was requested.
BLAS_PROBE = """
import ctypes
import json
import sbp.cli
with open("/proc/self/maps") as f:
    paths = sorted({line.split()[-1] for line in f
                    if "openblas" in line.lower() and "/" in line})
counts = []
for path in paths:
    lib = ctypes.CDLL(path)
    for name in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                 "scipy_openblas_get_num_threads",
                 "scipy_openblas_get_num_threads64_"):
        get = getattr(lib, name, None)
        if get is not None:
            get.argtypes = []
            get.restype = ctypes.c_int
            counts.append(get())
print(json.dumps(counts))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
def test_importing_cli_pins_blas_to_one_thread():
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
                        "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", BLAS_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout)
    assert counts, "no OpenBLAS library was loaded"
    assert all(c == 1 for c in counts), counts
