"""The malloc policy `sbp` sets when it loads: a backward reuses heap pages
instead of faulting them in again. Each check runs in a fresh interpreter,
since the policy is process-wide and is set at import."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

pytestmark = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                                reason="the malloc policy applies under glibc only")


def run_python(code, **env):
    full_env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    full_env.update(env, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                                  os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=full_env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


# The gradsim benchmark model: 8x8 ViT, embed 32, 2 heads, depth 6 with 4 SBP
# blocks, B=8, grid masks at r=0.5.
FAULTS_PER_BACKWARD = """
import resource
import numpy as np
from sbp.engine import backward, forward, resolve
from sbp.masks import build_schedule, make_mask_plan
from sbp.models import build_model, tiny_vit_spec

model = build_model(tiny_vit_spec(grid=(8, 8), in_channels=3, embed=32, heads=2, depth=6,
                                  mlp_ratio=2, sbp_fraction=2 / 3), 0)
rng = np.random.Generator(np.random.PCG64(0))
x, labels = rng.normal(size=(8, 8, 8, 3)), rng.integers(0, 2, size=8)
tape = forward(model, x, labels)
plan = resolve(model, make_mask_plan(model, build_schedule("uniform", 0.5, 4), "grid",
                                    "shared", 0), "qkv", 0, 0)
for _ in range(5):
    backward(tape, plan)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    backward(tape, plan)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


def test_backward_reuses_heap_pages():
    """With glibc's dynamic thresholds each of these backwards took several
    hundred minor faults: the freed heap top was trimmed and faulted back in."""
    assert float(run_python(FAULTS_PER_BACKWARD)) <= 50


def test_policy_applied():
    assert run_python("import sbp; print(sbp._pin_malloc_thresholds())") == "True"


@pytest.mark.parametrize("var", ["MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"])
def test_environment_setting_wins(var):
    assert run_python("import sbp; print(sbp._pin_malloc_thresholds())",
                      **{var: "1048576"}) == "False"
