"""Outside-in span tracing of the rggdist layers.

The tracer patches the package from outside: every function that one
rggdist module imports from another is replaced, in the importing
module's namespace, by a wrapper that records a span, and so are the
``probability`` methods of the connection models.  A span is named after
the call site (``graphdist.triple_product_integral``) and belongs to the
layer that defines the callee (``distances``).  Calls inside one module
are not seen; their time is that module's self time.

Spans live in per-thread buffers in memory and are written out at the
end as a gzipped Chrome trace-event file.  Self time is computed per
thread: a span's duration minus the durations of its children on the
same thread.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import threading
import time
import types
from array import array

LAYERS = (
    "cli", "graphdist", "distances", "quadrature", "montecarlo", "geometry", "connection", "bounds",
)


class _ThreadSpans:
    """Spans opened on one thread, as parallel arrays."""

    def __init__(self, tid: int):
        self.tid = tid
        self.names = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadSpans] = []
        self._names: list[tuple[str, str]] = []  # (span name, layer)
        self._name_ids: dict[tuple[str, str], int] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = _ThreadSpans(threading.get_ident())
            self._local.spans = spans
            with self._lock:
                self._threads.append(spans)
        return spans

    def _name_id(self, name: str, layer: str) -> int:
        key = (name, layer)
        with self._lock:
            nid = self._name_ids.get(key)
            if nid is None:
                nid = self._name_ids[key] = len(self._names)
                self._names.append(key)
        return nid

    def wrap(self, name: str, layer: str, fn):
        """``fn`` with each call recorded as a span of ``layer``."""
        nid = self._name_id(name, layer)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            args = [self._callback(a) for a in args]
            kwargs = {k: self._callback(v) for k, v in kwargs.items()}
            spans = self._spans()
            stack = spans.stack
            idx = len(spans.names)
            spans.names.append(nid)
            spans.parents.append(stack[-1] if stack else -1)
            spans.ends.append(0.0)
            stack.append(idx)
            spans.starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                spans.ends[idx] = clock()
                stack.pop()

        traced.__traced__ = True
        return traced

    def _callback(self, obj):
        """Wrap an rggdist function passed as an argument (an integrand, a
        weight), so that its time counts for the layer that defines it
        rather than for the layer that calls it back."""
        fn = getattr(obj, "__func__", obj)
        if not isinstance(fn, types.FunctionType) or getattr(fn, "__traced__", False):
            return obj
        package, _, home = fn.__module__.rpartition(".")
        if package != "rggdist" or home not in LAYERS:
            return obj
        return self.wrap(f"{home}.{fn.__qualname__}", home, obj)

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every cross-module function import and model ``probability``."""
        for layer in LAYERS:
            module = importlib.import_module(f"rggdist.{layer}")
            for attr, obj in sorted(vars(module).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                package, _, home = obj.__module__.rpartition(".")
                if package == "rggdist" and home != layer and home in LAYERS:
                    self._patch(module, attr, self.wrap(f"{layer}.{attr}", home, obj))
        connection = importlib.import_module("rggdist.connection")
        for cls in _subclasses(connection.ConnectionModel):
            if "probability" in vars(cls):
                self._patch(
                    cls, "probability",
                    self.wrap(f"{cls.__name__}.probability", "connection", vars(cls)["probability"]),
                )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- reporting ----------------------------------------------------------

    def layer_totals(self, root_tid: int):
        """Per-layer self time on the session thread, calls on all threads,
        and the self time of spans on other threads."""
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        other_threads_s = 0.0
        for spans in self._threads:
            n = len(spans.names)
            child_s = [0.0] * n
            for i in range(n):
                p = spans.parents[i]
                if p >= 0:
                    child_s[p] += spans.ends[i] - spans.starts[i]
            for i in range(n):
                layer = self._names[spans.names[i]][1]
                calls[layer] += 1
                own = spans.ends[i] - spans.starts[i] - child_s[i]
                if spans.tid == root_tid:
                    self_s[layer] += own
                else:
                    other_threads_s += own
        return self_s, calls, other_threads_s

    def span_count(self) -> int:
        return sum(len(s.names) for s in self._threads)

    def write(self, path: str) -> None:
        """Write all spans as a gzipped Chrome trace-event file (times in us)."""
        tids = {s.tid: k for k, s in enumerate(self._threads)}
        with gzip.open(path, "wt") as fh:
            fh.write('{"displayTimeUnit":"ms","traceEvents":[\n')
            first = True
            for spans in self._threads:
                for i in range(len(spans.names)):
                    name, layer = self._names[spans.names[i]]
                    event = {
                        "name": name, "cat": layer, "ph": "X", "pid": 0,
                        "tid": tids[spans.tid],
                        "ts": round(spans.starts[i] * 1e6, 3),
                        "dur": round((spans.ends[i] - spans.starts[i]) * 1e6, 3),
                        "args": {"id": i, "parent": spans.parents[i]},
                    }
                    fh.write(("" if first else ",\n") + json.dumps(event))
                    first = False
            fh.write("\n]}\n")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)
