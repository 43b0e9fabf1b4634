"""Span tracer that wraps the program's functions from outside the program.

Discovery, not a list: every public function defined in an `sbp.*` module is
wrapped, and the wrapper is bound under every name that held the original in
any loaded `sbp` module (so `sbp.models`' imported copy of a `layers` kernel,
or `sbp.analysis`' copy of `engine.forward`, is traced too). Classes that
define both `forward` and `backward` (the model nodes) get those two methods
wrapped under `<module>.<kind>.<method>`. Names that a later version deletes
are simply never seen; nothing here names a private helper.

Spans stay in memory (`Tracer.spans`) until the caller writes them out.
Import this module only after BLAS threading is pinned: it loads numpy lazily.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import pkgutil
import sys
import threading
import time
import tracemalloc
import weakref

# Functions outside `sbp` whose time belongs to a layer of the program:
# `np.savez` writes the training checkpoint.
EXTERNAL = (("numpy", "savez"),)


def _short(module_name: str) -> str:
    return module_name[4:] if module_name.startswith("sbp.") else module_name


def _sbp_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "sbp" or name.startswith("sbp."))]


def _array_bounds(a):
    """[low, high) byte addresses an ndarray view spans."""
    ptr = a.__array_interface__["data"][0]
    low = high = ptr
    for n, s in zip(a.shape, a.strides):
        if s >= 0:
            high += s * (n - 1)
        else:
            low += s * (n - 1)
    return low, high + a.itemsize


def distinct_bytes(root, skip_types=()) -> int:
    """Bytes of distinct array memory reachable from `root`.

    Views into one buffer are merged by address range, so an array cached
    twice, or a slice of a cached array, is counted once.
    """
    import numpy as np

    seen = set()
    ranges = []
    todo = [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or obj is None or isinstance(obj, skip_types):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            if obj.size:
                ranges.append(_array_bounds(obj))
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            todo.extend(obj)
        elif hasattr(obj, "__dict__") and not isinstance(obj, type):
            todo.extend(vars(obj).values())
    total = 0
    end = None
    for low, high in sorted(ranges):
        if end is None or low >= end:
            total += high - low
            end = high
        elif high > end:
            total += high - end
            end = high
    return total


class StopRun(BaseException):
    """Raised at the `stop_at` span; a BaseException so program code passes it up."""


class _PeakProbe:
    """tracemalloc peak of one engine call, valid only if no other ran meanwhile."""

    def __init__(self):
        self.lock = threading.Lock()
        self.active = 0
        self.epoch = 0

    def start(self):
        with self.lock:
            self.active += 1
            self.epoch += 1
            if self.active > 1:
                return None
            tracemalloc.reset_peak()
            return self.epoch, tracemalloc.get_traced_memory()[0]

    def stop(self, token):
        with self.lock:
            self.active -= 1
            if token is None or token[0] != self.epoch:
                return None
            return tracemalloc.get_traced_memory()[1] - token[1]


class Tracer:
    """Wraps program functions and records spans.

    `only`: if given, the set of span names to wrap (the untraced run's
    timestamps); otherwise everything discovered. `memory`: also record, for
    each `engine.forward`/`engine.backward` call, its tracemalloc peak and
    the tape size. `stop_at`: a span name whose first call is recorded with
    zero length and ends the run by raising StopRun.
    """

    def __init__(self, only=None, memory=False, stop_at=None):
        self.only = only
        self.memory = memory
        self.stop_at = stop_at
        self.spans = []     # (id, parent id or None, name, thread, start, end)
        self.samples = []   # per engine call: {"name", "sbp", "peak", "tape", "counted"}
        self._ids = itertools.count()
        self._local = threading.local()
        self._node_types = ()
        self._sbp_tapes = weakref.WeakValueDictionary()  # id -> tape of a planned forward
        self._peak = _PeakProbe() if memory else None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, fn, args, kwargs):
        if name == self.stop_at:
            now = time.perf_counter()
            self.spans.append((next(self._ids), None, name, threading.get_ident(), now, now))
            raise StopRun(name)
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, threading.get_ident(), start, end))

    def _wrap(self, name, fn):
        if self.memory and name in ("engine.forward", "engine.backward"):
            return self._wrap_engine(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._record(name, fn, args, kwargs)
        return wrapper

    def _wrap_engine(self, name, fn):
        sig = inspect.signature(fn)

        def argument(args, kwargs, key, position):
            try:
                return sig.bind_partial(*args, **kwargs).arguments.get(key)
            except TypeError:
                return args[position] if len(args) > position else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "engine.forward":
                sbp = argument(args, kwargs, "plan", 3) is not None
            else:
                tape = argument(args, kwargs, "tape", 0)
                sbp = tape is not None and self._sbp_tapes.get(id(tape)) is tape
            token = self._peak.start()
            try:
                result = self._record(name, fn, args, kwargs)
            finally:
                peak = self._peak.stop(token)
            sample = {"name": name, "sbp": sbp, "peak": peak}
            if name == "engine.forward":
                self._record("perfbench.tape_walk", self._measure_tape,
                             (result, sbp, sample), {})
            self.samples.append(sample)
            return result
        return wrapper

    def _measure_tape(self, tape, sbp, sample):
        if sbp:
            try:
                self._sbp_tapes[id(tape)] = tape
            except TypeError:
                pass
        sample["tape"] = distinct_bytes(getattr(tape, "records", None), self._node_types)
        counted = getattr(tape, "cached_elements", None)
        sample["counted"] = 8 * counted() if callable(counted) else None

    def install(self):
        """Wrap every discovered target. Call after `import sbp`."""
        import sbp
        for info in pkgutil.iter_modules(sbp.__path__):
            importlib.import_module(f"sbp.{info.name}")
        modules = _sbp_modules()
        targets = {}
        for module in modules:
            for value in vars(module).values():
                if str(getattr(value, "__module__", None)).startswith("sbp."):
                    targets[id(value)] = value
        node_types = []
        for value in targets.values():
            if inspect.isfunction(value) and not value.__name__.startswith("_"):
                self._rebind(f"{_short(value.__module__)}.{value.__name__}", value, modules)
            elif inspect.isclass(value) and {"forward", "backward"} <= set(vars(value)):
                node_types.append(value)
                kind = vars(value).get("kind") or value.__name__.lower()
                for method in ("forward", "backward"):
                    span = f"{_short(value.__module__)}.{kind}.{method}"
                    if self.only is None or span in self.only:
                        setattr(value, method, self._wrap(span, vars(value)[method]))
        self._node_types = tuple(node_types)
        for module_name, attr in EXTERNAL:
            module = sys.modules.get(module_name)
            fn = getattr(module, attr, None)
            if fn is not None:
                self._rebind(f"{module_name}.{attr}", fn, [module])

    def _rebind(self, span, fn, modules):
        if self.only is not None and span not in self.only:
            return
        wrapper = self._wrap(span, fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
