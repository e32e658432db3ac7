"""Outside-in span tracer for the corpusforge layers.

`Tracer.install()` replaces the public functions and methods of each
layer module with wrappers that record one span per call: name, start,
end, parent span, thread and the command it ran under. Every reference
to a wrapped function in any corpusforge module (including names bound
by `from .x import y`) is swapped, so calls made through imports are
traced too. Generator functions record one span per `next()`, which is
where their work happens. `uninstall()` restores the originals.

Spans are kept in memory in flat arrays and summarized after the run:
per span name the call count, total time and self time, where self
time is the span's duration minus the part of it covered by its child
spans. A span opened on a thread with no open span (a pool worker)
takes the innermost open span of the main thread as its parent, so a
command's self time is its wall time minus the union of everything its
workers did.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import threading
from array import array
from time import perf_counter

LAYERS = ("textnorm", "signals", "annotate", "kneser_ney", "mlmodels",
          "records", "dedup", "filtering", "pipeline")

# Per-word, per-feature, per-rule or per-pair helpers. Their own cost is
# close to that of a wrapper, so tracing them would mostly measure the
# tracer; their time stays in the self time of their callers.
UNTRACED = frozenset({
    "mlmodels.fnv1a64",
    "mlmodels.HashedNgramLM.log_prob",
    "kneser_ney.KneserNeyLM.map_token",
    "kneser_ney.KneserNeyLM.prob",
    "dedup.estimate_jaccard",
    "dedup.UnionFind.find",
    "dedup.UnionFind.union",
    "filtering.Rule.fires",
})


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.thread = array("i")
        self.command = array("i")
        self.error = array("b")
        self.counters: dict[str, float] = {}
        self.current_command = -1
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_ident = threading.get_ident()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._hooks = {}

    # -- recording --------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else -1
        with self._lock:
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(parent)
            self.thread.append(threading.get_ident() & 0x7FFFFFFF)
            self.command.append(self.current_command)
            self.error.append(0)
            self.end.append(0.0)
            self.start.append(perf_counter())
        stack.append(idx)
        return idx

    def close(self, idx: int, failed: bool = False) -> None:
        self.end[idx] = perf_counter()
        if failed:
            self.error[idx] = 1
        self._stack().pop()

    def count(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0.0) + amount

    def put(self, key: str, value: float) -> None:
        self.counters[key] = value

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        idx = self.open(self._name_id(name))
        try:
            yield
        except BaseException:
            self.close(idx, True)
            raise
        self.close(idx)

    # -- patching ---------------------------------------------------------

    def hook(self, name: str, fn) -> None:
        """fn(tracer, args, kwargs, result) runs after each call of the
        named function returns."""
        self._hooks[name] = fn

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        hook = self._hooks.get(name)
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer.open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer.close(idx)
                        return
                    except BaseException:
                        tracer.close(idx, True)
                        raise
                    tracer.close(idx)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx, True)
                raise
            tracer.close(idx)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        import importlib

        modules = [importlib.import_module(f"corpusforge.{layer}") for layer in LAYERS]
        replaced: dict[int, object] = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    if name not in UNTRACED:
                        replaced[id(obj)] = self._wrap(obj, name)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        for modname, module in list(sys.modules.items()):
            if modname != "corpusforge" and not modname.startswith("corpusforge."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapped = replaced.get(id(obj))
                if wrapped is not None:
                    self._set(module, attr, wrapped)

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__contains__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if name in UNTRACED:
                continue
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(raw.__func__, name)))
            elif isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(raw.__func__, name)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(raw, name))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summary ----------------------------------------------------------

    def self_times(self) -> array:
        """Self time of every span: duration minus the union of its
        children's intervals (a plain sum when all children ran on the
        span's own thread, where they cannot overlap)."""
        n = len(self.name)
        start, end, parent, thread = self.start, self.end, self.parent, self.thread
        child_sum = array("d", bytes(8 * n))
        cross: dict[int, list[tuple[float, float]]] = {}
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child_sum[p] += end[i] - start[i]
                if thread[p] != thread[i]:
                    cross[p] = []
        if cross:
            for i in range(n):
                p = parent[i]
                if p in cross:
                    cross[p].append((start[i], end[i]))
        out = array("d", bytes(8 * n))
        for i in range(n):
            covered = _union_length(cross[i]) if i in cross else child_sum[i]
            out[i] = end[i] - start[i] - covered
        return out

    def summary(self) -> dict:
        """{(command index, span name): {count, total_s, self_s, errors}}"""
        selfs = self.self_times()
        agg: dict[tuple[int, str], dict] = {}
        for i in range(len(self.name)):
            key = (self.command[i], self.names[self.name[i]])
            row = agg.get(key)
            if row is None:
                row = agg[key] = {"count": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0}
            row["count"] += 1
            row["total_s"] += self.end[i] - self.start[i]
            row["self_s"] += selfs[i]
            row["errors"] += self.error[i]
        return agg


def _union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by (start, end) intervals that may overlap."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is not None and start <= cur_end:
            cur_end = max(cur_end, end)
            continue
        if cur_end is not None:
            total += cur_end - cur_start
        cur_start, cur_end = start, end
    if cur_end is not None:
        total += cur_end - cur_start
    return total
