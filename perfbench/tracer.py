"""Outside-in span recorder for the traced benchmark runs.

The program under test is not edited.  :meth:`Tracer.install` swaps
timing wrappers in for the public functions at each layer boundary
(class attributes, the operator catalog and two module globals) and
:meth:`Tracer.uninstall` puts the originals back, so an untraced
statement runs exactly the code a user runs.

Each span records its name, layer, start, end, parent and statement id.
Spans live in memory until the run ends.  A span is only recorded under
an open statement (:meth:`Tracer.statement`), so set-up work and
background threads leave no trace.

Spans cross threads in three places, each linked explicitly:

* client verb -> server handler thread: the verb span is published under
  its session id (or tenant, for ``new_session``) and the server's
  ``QueryService.handle`` wrapper adopts it as parent;
* ``PartitionScheduler.map`` -> worker threads: each task is wrapped so
  the worker starts under the coordinator's fan-out span;
* ``PersistentArray.scan`` is a generator, so its span accumulates only
  the time spent inside ``next()`` (busy time), not the consumer's.
"""

from __future__ import annotations

import functools
import threading
from time import perf_counter
from typing import Any, Callable, Optional

LAYERS = ("service", "query", "core", "cluster", "storage", "obs")


class Span:
    __slots__ = (
        "sid", "name", "layer", "stmt", "parent", "thread",
        "start", "end", "busy", "attrs",
    )

    def __init__(self, sid, name, layer, stmt, parent, thread):
        self.sid = sid
        self.name = name
        self.layer = layer
        self.stmt = stmt
        self.parent = parent
        self.thread = thread
        self.start = perf_counter()
        self.end: Optional[float] = None
        #: time actually spent in the span's own call; differs from
        #: end - start only for generator spans
        self.busy: Optional[float] = None
        self.attrs: dict[str, Any] = {}

    @property
    def duration(self) -> float:
        if self.busy is not None:
            return self.busy
        return (self.end or self.start) - self.start


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        #: session id (or ("tenant", name)) -> the client verb span in flight
        self._open_verbs: dict[Any, Span] = {}
        self._saved: list[tuple[Any, str, Any]] = []
        self._statements = 0

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, layer: str, parent: Span) -> Span:
        with self._lock:
            span = Span(
                len(self.spans), name, layer, parent.stmt, parent.sid,
                threading.get_ident(),
            )
            self.spans.append(span)
        return span

    def statement(self, kind: str) -> "_Statement":
        """Context manager opening a statement's root span on this thread."""
        return _Statement(self, kind)

    # -- wrappers -----------------------------------------------------------

    def _timed(self, layer: str, name: str, fn: Callable,
               after: Optional[Callable[[Span, tuple, Any], None]] = None) -> Callable:
        """Wrap *fn* in a span; *after* annotates the closed span from the
        call's arguments and result (bookkeeping kept out of the span)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if not stack:
                return fn(*args, **kwargs)
            span = tracer._open(name, layer, stack[-1])
            stack.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = perf_counter()
            if after is not None:
                after(span, args, out)
            return out

        return wrapper

    def _verb(self, name: str, fn: Callable, throttled: type) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(client, *args, **kwargs):
            stack = tracer._stack()
            if not stack:
                return fn(client, *args, **kwargs)
            if name == "new_session":
                key = ("tenant", kwargs.get("tenant", args[0] if args else "default"))
            else:
                key = args[0] if args else kwargs.get("session_id")
            span = tracer._open("service.verb." + name, "service", stack[-1])
            stack.append(span)
            tracer._open_verbs[key] = span
            try:
                return fn(client, *args, **kwargs)
            except throttled:
                span.attrs["throttled"] = 1
                raise
            finally:
                tracer._open_verbs.pop(key, None)
                stack.pop()
                span.end = perf_counter()

        return wrapper

    def _handle(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(service, path, params):
            if path == "/new_session":
                key = ("tenant", params.get("tenant", "default"))
            else:
                key = params.get("id")
            parent = tracer._open_verbs.get(key)
            if parent is None:
                return fn(service, path, params)
            span = tracer._open("service.handle", "service", parent)
            stack = tracer._stack()
            stack.append(span)
            try:
                return fn(service, path, params)
            finally:
                stack.pop()
                span.end = perf_counter()

        return wrapper

    def _fanout(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(scheduler, tasks):
            stack = tracer._stack()
            if not stack:
                return fn(scheduler, tasks)
            span = tracer._open("cluster.fanout", "cluster", stack[-1])
            stack.append(span)

            def adopt(task):
                def run():
                    inner = tracer._stack()
                    if inner and inner[-1] is span:  # inline (serial) path
                        return task()
                    saved = list(inner)
                    inner[:] = [span]
                    child = tracer._open("cluster.task", "cluster", span)
                    inner.append(child)
                    try:
                        return task()
                    finally:
                        child.end = perf_counter()
                        inner[:] = saved

                return run

            try:
                return fn(scheduler, [adopt(t) for t in tasks])
            finally:
                stack.pop()
                span.end = perf_counter()

        return wrapper

    def _scan(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if not stack:
                return fn(*args, **kwargs)
            span = tracer._open("storage.scan", "storage", stack[-1])
            inner = fn(*args, **kwargs)

            def timed_iter():
                busy = 0.0
                try:
                    while True:
                        t0 = perf_counter()
                        try:
                            item = next(inner)
                        except StopIteration:
                            busy += perf_counter() - t0
                            return
                        busy += perf_counter() - t0
                        yield item
                finally:
                    inner.close()
                    span.busy = busy
                    span.end = perf_counter()

            return timed_iter()

        return wrapper

    # -- install / uninstall ------------------------------------------------

    def _swap(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = make(original)
        else:
            # Only attributes the class defines itself: restoring an
            # inherited one with setattr would shadow the base class.
            original = vars(owner)[attr]
            setattr(owner, attr, make(original))
        self._saved.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics are taken at."""
        if self._saved:
            return
        from repro.cluster.grid import DistributedArray
        from repro.cluster.scheduler import PartitionScheduler
        from repro.core.array import SciArray
        from repro.core.ops import OPERATORS
        from repro.obs import explain
        from repro.obs.recorder import FlightRecorder
        from repro.query import executor
        from repro.query.cost import CostModel
        from repro.query.planner import Planner
        from repro.service.client import ShimClient, Throttled
        from repro.service.server import QueryService, ResultPager
        from repro.storage.manager import PersistentArray

        swap = self._swap
        for verb in ("new_session", "execute_query", "read_bytes", "release_session"):
            swap(ShimClient, verb, lambda f, v=verb: self._verb(v, f, Throttled))
        swap(QueryService, "handle", self._handle)
        swap(ResultPager, "read", lambda f: self._timed(
            "service", "service.serialize", f,
            lambda span, args, out: span.attrs.update(bytes=len(out))))
        swap(executor.Executor, "run", lambda f: self._timed("query", "query.run", f))
        swap(vars(executor), "parse_statement",
             lambda f: self._timed("query", "query.parse", f))
        swap(Planner, "plan", lambda f: self._timed("query", "query.plan", f))
        swap(executor.Executor, "run_planned",
             lambda f: self._timed("query", "query.execute", f))
        swap(vars(explain), "build_report",
             lambda f: self._timed("obs", "obs.profile", f))
        swap(CostModel, "observe", lambda f: self._timed("obs", "obs.profile", f))
        swap(FlightRecorder, "record_profile",
             lambda f: self._timed("obs", "obs.profile", f))
        def cells_in(span, args, out):
            span.attrs["cells_in"] = sum(
                a.count_occupied() for a in args if isinstance(a, SciArray))

        for op in list(OPERATORS):
            swap(OPERATORS, op,
                 lambda f, o=op: self._timed("core", "core.op." + o, f, cells_in))
        for method in ("subsample", "aggregate", "regrid", "materialize",
                       "sjoin", "filter", "apply"):
            swap(DistributedArray, method,
                 lambda f: self._timed("cluster", "cluster.op", f))
        swap(DistributedArray, "load",
             lambda f: self._timed("cluster", "cluster.load", f))
        swap(PartitionScheduler, "map", self._fanout)
        swap(PersistentArray, "scan", self._scan)
        swap(PersistentArray, "flush",
             lambda f: self._timed("storage", "storage.flush", f))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


class _Statement:
    def __init__(self, tracer: Tracer, kind: str) -> None:
        self.tracer = tracer
        self.kind = kind
        self.span: Optional[Span] = None

    def __enter__(self) -> Span:
        tracer = self.tracer
        with tracer._lock:
            tracer._statements += 1
            span = Span(
                len(tracer.spans), "statement", "client",
                tracer._statements, None, threading.get_ident(),
            )
            tracer.spans.append(span)
        span.attrs["kind"] = self.kind
        tracer._stack().append(span)
        self.span = span
        return span

    def __exit__(self, *exc: Any) -> None:
        self.tracer._stack().pop()
        self.span.end = perf_counter()
