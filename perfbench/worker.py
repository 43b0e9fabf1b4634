"""One run of the `sbp` CLI in a fresh process: `python3 worker.py JOB.json`.

JOB.json holds `argv` (passed to `sbp.cli.main`), `mode` and `result` (where
to write the result JSON). BLAS threading is pinned here, before anything
loads numpy. Modes: `untraced` wraps only the few calls whose timestamps the
end-to-end metrics need; `setup` stops the command at its first forward pass,
to sample set-up time cheaply; `traced` wraps every discovered function and
runs tracemalloc.
"""

import os
import sys
import time

T0 = time.perf_counter()

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")

# Span names the untraced run needs: the first step starts at the first
# forward, and the training loop ends with the last SGD update.
PROBES = frozenset({"engine.forward", "engine.sgd_step"})


def openblas_libraries():
    """Thread count and build string of every OpenBLAS this process loaded.

    Asks each library itself, since the environment variables only say what
    was requested.
    """
    import ctypes

    with open("/proc/self/maps") as f:
        paths = sorted({line.split()[-1] for line in f
                        if "openblas" in line.lower() and "/" in line})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path), "threads": None, "config": None}
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                if get_threads is not None:
                    get_threads.argtypes = []
                    get_threads.restype = ctypes.c_int
                    entry["threads"] = get_threads()
                get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
                if get_config is not None:
                    get_config.argtypes = []
                    get_config.restype = ctypes.c_char_p
                    entry["config"] = get_config().decode().strip()
        found.append(entry)
    return found


def environment():
    import platform

    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas_libraries(),
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
    }


def main(job_path):
    import json

    with open(job_path) as f:
        job = json.load(f)
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was loaded before BLAS threads were pinned")
    for var in BLAS_VARS:
        os.environ[var] = "1"

    import resource
    import traceback
    import tracemalloc

    import sbp.cli
    from tracer import StopRun, Tracer

    traced = job["mode"] == "traced"
    tracer = Tracer(only=None if traced else PROBES, memory=traced,
                    stop_at="engine.forward" if job["mode"] == "setup" else None)
    tracer.install()
    if traced:
        tracemalloc.start()
    error = None
    try:
        code = sbp.cli.main(job["argv"])
    except StopRun:
        code = 0
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 1
    except Exception:
        code = 1
        error = traceback.format_exc()
    t_end = time.perf_counter()
    if traced:
        tracemalloc.stop()
    result = {
        "exit_code": code,
        "error": error,
        "t0": T0,
        "t_end": t_end,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "spans": tracer.spans,
        "samples": tracer.samples,
        "environment": environment(),
    }
    with open(job["result"], "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main(sys.argv[1])
