"""Boundary tracing for the benchmark's traced run.

Spans are recorded only where one zpeta module calls into another, and
only from the benchmark's own files: nothing under ``src/`` changes.

* A function of module B imported into module A (``from .spectrum import
  dim_ker`` in ``eta``) is wrapped by rebinding the name in A's namespace.
* A module imported whole (``from . import charsums`` in ``cli``) is
  replaced in the caller's namespace by a proxy whose functions are
  wrapped.
* The benchmark's own calls into ``cli.main`` and the library functions go
  through wrappers as well.

Calls inside a module keep their original bindings, so the hot inner
loops (``sum_legendre_shift`` -> ``OddPrime.legendre``, about 1.8 M calls
at p = 97) carry no tracing cost.  Classes and methods are not wrapped;
the one exception is the dense kernel of ``manifold.IntMatrix``, whose
``__matmul__`` and ``charpoly`` get counters (not spans), because that is
where the manifold layer spends its time.

Sweeps run with ``--jobs`` fork a process pool.  The pool class is rebound
in the calling module so that each task runs under ``_pool_task`` in the
worker; the worker summarizes its spans and writes them, with its cache
counters, to a spool directory that the parent reads after the operation.
Pool workers are forked, so they inherit the installed wrappers.
"""

from __future__ import annotations

import functools
import importlib
import os
import pickle
import resource
import time
import types
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

LAYERS = ("numtheory", "charsums", "exact", "spectrum", "eta", "manifold", "cli")

# A span whose name is None stands for work done in another process: it
# covers its parent's time, but its own time is summarized where it ran.
REMOTE = None

# Forked pool workers find the tracer here; set by install(), cleared by
# uninstall().
_active: "Tracer | None" = None


def layer_modules(package) -> dict[str, types.ModuleType]:
    """The zpeta submodules that form the traced layers."""
    return {name: importlib.import_module(f"{package.__name__}.{name}") for name in LAYERS}


def lru_caches(package) -> dict[str, object]:
    """Every functools cache at module level in a layer, by "module.name"."""
    found = {}
    for layer, module in layer_modules(package).items():
        for name, obj in vars(module).items():
            if callable(getattr(obj, "cache_info", None)) and callable(
                getattr(obj, "cache_clear", None)
            ):
                found[f"{layer}.{name}"] = obj
    return found


def cache_counts(package) -> dict[str, tuple[int, int]]:
    """(hits, misses) of every layer cache."""
    return {
        name: (info.hits, info.misses)
        for name, info in ((n, c.cache_info()) for n, c in lru_caches(package).items())
    }


def covered_length(intervals, start: float, end: float) -> float:
    """Length of the union of the intervals, each clipped to [start, end]."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted((max(s, start), min(e, end)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> list[float]:
    """Self time of each span: duration minus the time its children cover.

    ``spans`` is a sequence of (name, parent index or -1, start, end).
    Children in one process nest and never overlap; children run in pool
    workers can overlap each other, so the covered time is the length of
    the union of the children's intervals, clipped to the parent's.
    """
    children = defaultdict(list)
    for _, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - covered_length(children.get(i, ()), start, end)
        for i, (_, _, start, end) in enumerate(spans)
    ]


def summarize(spans) -> dict[str, list]:
    """Per span name: [calls, total self time]; remote spans are skipped."""
    out: dict[str, list] = {}
    for (name, _, _, _), own in zip(spans, self_times(spans)):
        if name is REMOTE:
            continue
        entry = out.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += own
    return out


def merge_summary(into: dict[str, list], other: dict[str, list]) -> None:
    for name, (calls, own) in other.items():
        entry = into.setdefault(name, [0, 0.0])
        entry[0] += calls
        entry[1] += own


class _LayerProxy:
    """Stands in for a whole module in a caller's namespace."""

    def __init__(self, module: types.ModuleType, wrapped: dict[str, object]):
        self._module = module
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Spans at layer boundaries, plus kernel counters, for one process."""

    def __init__(self, package, spool: Path):
        self.package = package
        self.spool = spool
        self.pid = os.getpid()
        self.spans: list[list] = []  # [name, parent index, start, end]
        self._stack: list[int] = []
        self.counters: dict = {}
        self.reset_counters()
        self._undo: list[tuple[object, str, object]] = []
        self._spilled = 0

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()

        return traced

    def reset_counters(self) -> None:
        self.counters.update(matmul_calls=0, matmul_mults=0, charpoly_s=0.0)

    def take_spans(self) -> list[list]:
        """The spans recorded so far; recording starts afresh."""
        taken = list(self.spans)
        self.spans.clear()
        return taken

    # -- installing the boundary wrappers ----------------------------------

    def _rebind(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        global _active
        modules = layer_modules(self.package)
        owner_layer = {}
        for layer, module in modules.items():
            for obj in vars(module).values():
                if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
                    owner_layer[id(obj)] = layer
        by_module = {id(m): layer for layer, m in modules.items()}
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType):
                    home = owner_layer.get(id(obj))
                    if home is not None and home != layer:
                        self._rebind(module, name, self.wrap(f"{home}.{obj.__name__}", obj))
                elif isinstance(obj, types.ModuleType) and id(obj) in by_module and obj is not module:
                    home = by_module[id(obj)]
                    wrapped = {
                        fname: self.wrap(f"{home}.{fname}", fn)
                        for fname, fn in vars(obj).items()
                        if isinstance(fn, types.FunctionType) and owner_layer.get(id(fn)) == home
                    }
                    self._rebind(module, name, _LayerProxy(obj, wrapped))
                elif obj is ProcessPoolExecutor:
                    self._rebind(module, name, _TracedPool)
        self._install_kernel_counters(modules["manifold"].IntMatrix)
        _active = self

    def _install_kernel_counters(self, matrix_cls) -> None:
        counters = self.counters
        matmul = matrix_cls.__matmul__
        charpoly = matrix_cls.charpoly

        def counted_matmul(a, b):
            counters["matmul_calls"] += 1
            counters["matmul_mults"] += a.n ** 3  # computed: n^3 per dense product
            return matmul(a, b)

        def timed_charpoly(m):
            t0 = time.perf_counter()
            try:
                return charpoly(m)
            finally:
                counters["charpoly_s"] += time.perf_counter() - t0

        self._rebind(matrix_cls, "__matmul__", counted_matmul)
        self._rebind(matrix_cls, "charpoly", timed_charpoly)

    def uninstall(self) -> None:
        global _active
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)
        _active = None

    # -- pool workers --------------------------------------------------------

    def _enter_worker(self) -> None:
        # Forked from the parent mid-operation: drop the inherited spans.
        self.pid = os.getpid()
        self.spans.clear()
        self._stack.clear()

    def _spill(self, task_span, caches: dict, counters: dict) -> None:
        record = {
            "pid": self.pid,
            "task": (task_span[2], task_span[3]),
            "summary": summarize(self.take_spans()),
            "caches": caches,
            "counters": counters,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        self._spilled += 1
        path = self.spool / f"{self.pid}-{self._spilled}.pkl"
        with open(path, "wb") as fh:
            pickle.dump(record, fh)

    def collect_worker_records(self) -> list[dict]:
        """Read and remove what pool workers spilled since the last call."""
        records = []
        for path in sorted(self.spool.glob("*.pkl")):
            with open(path, "rb") as fh:
                records.append(pickle.load(fh))  # written by this run's own workers
            path.unlink()
        return records


def _pool_task(fn, *args):
    """Runs one pool task in a worker under a span, then spills the trace."""
    tracer = _active
    if tracer.pid != os.getpid():
        tracer._enter_worker()
    caches0 = cache_counts(tracer.package)
    counters0 = dict(tracer.counters)
    try:
        return tracer.wrap("cli.pool_task", fn)(*args)
    finally:
        caches1 = cache_counts(tracer.package)
        tracer._spill(
            tracer.spans[0],
            {k: (caches1[k][0] - caches0[k][0], caches1[k][1] - caches0[k][1]) for k in caches1},
            {k: tracer.counters[k] - counters0[k] for k in counters0},
        )


class _TracedPool(ProcessPoolExecutor):
    """ProcessPoolExecutor whose tasks run under ``_pool_task``."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(functools.partial(_pool_task, fn), *args, **kwargs)
