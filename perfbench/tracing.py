"""Span recording around the engine's public callables, from outside.

The traced run wraps each layer's entry points (SQL front end, plan
cache, optimizer, planner, executor, XML publisher, catalog, WAL,
admission) with a recorder. A span is ``(id, parent, request, name,
start, end)``; spans live in memory and are written out when the run
ends. A layer's self time is its span's duration minus the part of that
interval its child spans cover.

Nothing under ``src/`` changes: the wrappers replace attributes on the
engine's classes and, for functions ``repro.api`` imports by name, on the
``repro.api`` module where they are looked up. :func:`instrument`
restores every attribute on exit.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, NamedTuple


class Span(NamedTuple):
    span_id: int
    parent: int  # 0 for a request's root span
    request: int
    name: str
    start: int  # perf_counter_ns
    end: int


class SpanRecorder:
    """In-memory span and count store; safe to share between threads.

    Each thread keeps its own stack of open spans, so spans from the
    reader and the writer thread nest only within their own request.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.spans: list[Span] = []
        self.request_kinds: dict[int, str] = {}
        self.counts: Counter[str] = Counter()
        #: ``Counters`` objects of every execution; their work is summed
        #: at the end because streamed executions fill them lazily.
        self.execution_counters: list[Any] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def request(self, kind: str) -> Iterator[int]:
        """A root span for one benchmark operation (read, document, commit)."""
        request_id = next(self._ids)
        self.request_kinds[request_id] = kind
        self._local.request = request_id
        try:
            with self.span(kind):
                yield request_id
        finally:
            self._local.request = 0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        start = self.clock()
        stack.append(span_id)
        try:
            yield
        finally:
            stack.pop()
            self.spans.append(
                Span(span_id, parent, getattr(self._local, "request", 0),
                     name, start, self.clock())
            )

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(
        self,
        fn: Callable,
        name: str,
        observe: Callable[["SpanRecorder", Any], None] | None = None,
    ) -> Callable:
        """``fn`` recorded as span ``name``; ``observe`` sees each result."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                record = span._asdict()
                record["kind"] = self.request_kinds.get(span.request, "")
                out.write(json.dumps(record) + "\n")


def self_times(spans: Iterable[Span]) -> dict[int, int]:
    """Span id -> duration minus the union of its children's intervals.

    Child intervals are clipped to the parent's, so a child that outlives
    its parent (a generator finishing late) never makes self time
    negative, and overlapping children are not subtracted twice.
    """
    spans = list(spans)
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span.parent:
            children[span.parent].append((span.start, span.end))
    result = {}
    for span in spans:
        covered = 0
        cursor = span.start
        for start, end in sorted(children.get(span.span_id, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.span_id] = (span.end - span.start) - covered
    return result


def self_time_by_name(
    recorder: SpanRecorder, kinds: Iterable[str] | None = None
) -> dict[str, int]:
    """Total self time in ns per span name, optionally only for spans
    inside requests of the given kinds."""
    wanted = None if kinds is None else set(kinds)
    own = self_times(recorder.spans)
    totals: Counter[str] = Counter()
    for span in recorder.spans:
        if wanted is None or recorder.request_kinds.get(span.request) in wanted:
            totals[span.name] += own[span.span_id]
    return dict(totals)


def span_counts(
    recorder: SpanRecorder, kinds: Iterable[str] | None = None
) -> dict[str, int]:
    wanted = None if kinds is None else set(kinds)
    counts: Counter[str] = Counter()
    for span in recorder.spans:
        if wanted is None or recorder.request_kinds.get(span.request) in wanted:
            counts[span.name] += 1
    return dict(counts)


# ----------------------------------------------------------------------
# The engine's layer boundaries
# ----------------------------------------------------------------------


def _count_lookup(recorder: SpanRecorder, entry: Any) -> None:
    recorder.count("plancache.lookups")
    if entry is not None:
        recorder.count("plancache.hits")


def _keep_counters(recorder: SpanRecorder, result: Any) -> None:
    counters = getattr(result, "counters", None)
    if counters is not None:
        recorder.execution_counters.append(counters)


def layer_boundaries() -> list[tuple[Any, str, str, Callable | None]]:
    """``(owner, attribute, span name, observer)`` for every wrapped callable.

    ``repro.api`` imports the SQL front-end functions and ``compile_plan``
    by name, so those are replaced on the ``repro.api`` module; methods
    are replaced on their classes, which every caller looks up.
    """
    import repro.api as api
    from repro.optimizer.engine import Optimizer
    from repro.optimizer.plancache import PlanCache
    from repro.optimizer.planner import Planner
    from repro.serve import AdmissionController
    from repro.sql.binder import Binder
    from repro.storage.catalog import Catalog
    from repro.storage.wal import WriteAheadLog
    from repro.xmlpub.stream import XmlChunkStream
    from repro.xmlpub.translate import Translator

    return [
        (api, "parse_statement", "sql.parse", None),
        (api, "parse", "sql.parse", None),
        (api, "parameterize", "sql.normalize", None),
        (api, "print_statement", "sql.normalize", None),
        (api, "text_digest", "sql.normalize", None),
        (Binder, "bind", "sql.bind", None),
        (PlanCache, "lookup", "optimizer.plancache.lookup", _count_lookup),
        (Optimizer, "optimize", "optimizer.optimize", None),
        (Planner, "plan", "optimizer.planner", None),
        (api, "compile_plan", "execution.compile", None),
        (api.Database, "execute", "execution.execute", _keep_counters),
        (api.Database, "execute_stream", "execution.execute", _keep_counters),
        (api.RowStream, "__next__", "execution.execute", None),
        (Translator, "translate", "xmlpub.translate", None),
        (XmlChunkStream, "__next__", "xmlpub.tag", None),
        (Catalog, "insert_rows", "storage.catalog.insert", None),
        (Catalog, "begin_transaction", "storage.catalog.txn", None),
        (Catalog, "commit_transaction", "storage.catalog.txn", None),
        (Catalog, "snapshot", "storage.catalog.snapshot", None),
        (WriteAheadLog, "append", "storage.wal.append", None),
        (api.Database, "checkpoint", "storage.wal.checkpoint", None),
        (AdmissionController, "acquire", "serve.admission_wait", None),
    ]


@contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every layer boundary for the duration of the block."""
    saved = []
    try:
        for owner, attribute, name, observe in layer_boundaries():
            original = owner.__dict__[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, recorder.wrap(original, name, observe))
        yield recorder
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
