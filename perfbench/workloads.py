"""The benchmark's three workloads over the public engine API.

Every workload runs one closed-loop client (each call waits for its
reply) on the main thread. ``read-write`` adds one open-loop writer
thread on a fixed schedule, so at most two threads generate load.

* ``read-hot`` -- in-memory ``Database`` at SF 0.02; seeded uniform draws
  over the eight Fig-8 formulations (exact repeats) and every Table-1
  sweep instance (literals vary within a shape). After warm-up every
  lookup hits the plan cache, so the front end dominates and the
  optimizer and storage are idle: the no-change control for them.
* ``publish`` -- in-memory ``Database`` at SF 0.02; ``Database.publish``
  of the XQuery forms of paper Q1 and Q2 in a seeded fixed cycle (two
  thirds Q1, one third Q2, each half ``gapply`` and half ``union``).
  Publishing bypasses the plan cache, so the optimizer, the translator
  and the tagger run on every document; the 2:1 weights keep the median
  inside the Q1 mode and p90 inside the Q2-``union`` mode.
* ``read-write`` -- durable store (``Database.open`` with
  ``fsync="always"``, and the service config's ``fsync="always"``) at
  SF 0.1 behind ``Service``; one reader session cycles the Fig-8
  formulations while a writer commits 20 times a second (nine in ten a
  one-row insert, one in ten a part + partsupp transaction) and
  checkpoints every 200 commits. Storage, WAL, checkpoints, admission,
  snapshots and plan invalidation are all on the read path here.

Correctness gate: every read must equal a reference computed at set-up
with ``use_plan_cache=False`` (as a multiset, plus the ORDER BY key's
order); in ``read-write`` only rows of suppliers that existed at set-up
are compared. Every document must equal, group by group, the union SQL's
rows run through ``ConstantSpaceTagger``. After ``read-write`` the store
is shut down and reopened and every acknowledged write must be there.
"""

from __future__ import annotations

import itertools
import random
import re
import shutil
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterator, NamedTuple

from stats import OpenLoopSchedule, OpTally, SpeedProbe
from tracing import SpanRecorder

from repro.api import Database
from repro.errors import ReproError
from repro.serve import Service, ServiceConfig
from repro.storage.types import DataType
from repro.workloads.queries import PAPER_QUERIES
from repro.workloads.rule_queries import TABLE1_SWEEPS
from repro.workloads.tpch import TpchConfig, load_tpch
from repro.xmlpub import ConstantSpaceTagger, tpch_supplier_view, translate_xquery

#: Paper Q1 and Q2 as XQuery over the supplier view (the forms in
#: ``benchmarks/bench_xml_publishing.py``).
XQUERIES = {
    "Q1": (
        "for $s in /doc(tpch.xml)/suppliers/supplier return <ret> $s/s_suppkey, "
        "<parts> for $p in $s/part return <part> $p/p_name, $p/p_retailprice "
        "</part> </parts>, avg($s/part/p_retailprice) </ret>"
    ),
    "Q2": (
        "for $s in /doc(tpch.xml)/suppliers/supplier return <ret> $s/s_suppkey, "
        "<count_above> count($s/part[p_retailprice >= avg($s/part/p_retailprice)]) "
        "</count_above>, <count_below> count($s/part[p_retailprice < "
        "avg($s/part/p_retailprice)]) </count_below> </ret>"
    ),
}
PUBLISH_CYCLE = (
    ("Q1", "gapply"), ("Q1", "union"), ("Q1", "gapply"), ("Q1", "union"),
    ("Q2", "gapply"), ("Q2", "union"),
)

TXN_EVERY = 10  # every tenth commit is a transaction
CHECKPOINT_EVERY = 200  # commits between Database.checkpoint() calls
EVENTS = "bench_events"

_ORDER_BY = re.compile(r"order\s+by\s+([\w.]+)\s*$", re.IGNORECASE)


def fig8_texts() -> list[tuple[str, str]]:
    """(label, SQL) for the eight Fig-8 formulations."""
    texts = []
    for query in PAPER_QUERIES:
        texts.append((f"{query.name}/gapply", query.gapply_sql))
        texts.append((f"{query.name}/baseline", query.baseline_sql))
    return texts


def table1_texts() -> list[tuple[str, str]]:
    """(label, SQL) for every Table-1 sweep instance."""
    return [
        (f"{sweep.rule_name}/{parameter}", sql)
        for sweep in TABLE1_SWEEPS
        for parameter, sql in sweep.instances()
    ]


def _normal(row: tuple) -> tuple:
    # Plans may sum floats in different orders; compare to 6 decimals.
    return tuple(round(v, 6) if isinstance(v, float) else v for v in row)


@dataclass
class Expected:
    """A read's reference rows: a multiset, plus the ORDER BY key column
    whose order the result must keep (ties make the full order free)."""

    rows: Counter
    order_index: int | None
    keep: Callable[[tuple], bool] | None = None

    @classmethod
    def from_result(cls, text: str, result: Any, keep=None) -> "Expected":
        order_index = None
        match = _ORDER_BY.search(text.strip())
        if match:
            column = match.group(1).split(".")[-1].lower()
            names = [n.split(".")[-1].lower() for n in result.schema.qualified_names()]
            order_index = names.index(column)
        expected = cls(Counter(), order_index, keep)
        expected.rows = Counter(_normal(r) for r in expected._kept(result.rows))
        return expected

    def _kept(self, rows: list[tuple]) -> list[tuple]:
        return rows if self.keep is None else [r for r in rows if self.keep(r)]

    def matches(self, rows: list[tuple]) -> bool:
        kept = self._kept(rows)
        if self.order_index is not None:
            keys = [r[self.order_index] for r in kept]
            if keys != sorted(keys):
                return False
        return Counter(_normal(r) for r in kept) == self.rows


def group_fragments(document: str, root_tag: str, group_tag: str) -> list[str]:
    """The document's top-level group elements, sorted (formulations emit
    groups in different orders)."""
    head, tail = f"<{root_tag}>", f"</{root_tag}>"
    if not (document.startswith(head) and document.endswith(tail)):
        raise ValueError(f"document is not one <{root_tag}> element")
    close = f"</{group_tag}>"
    parts = document[len(head):-len(tail)].split(close)
    if parts[-1]:
        raise ValueError("trailing text after the last group")
    return sorted(part + close for part in parts[:-1])


class Checked(NamedTuple):
    rows: int
    bytes_out: int
    ok: bool


@dataclass
class Segment:
    """What one or more measuring windows observed."""

    tally: OpTally
    latencies: list[float] = field(default_factory=list)  # client ops, s
    keys: list[str] = field(default_factory=list)  # op label per latency
    rows: int = 0
    bytes_out: int = 0
    write_tally: OpTally | None = None
    write_latencies: list[float] = field(default_factory=list)  # from due, s
    write_lateness: list[float] = field(default_factory=list)  # s
    write_seconds: float = 0.0  # first due time to the last commit's end
    #: Growth of the plan-cache and WAL counters over the window.
    stat_deltas: Counter = field(default_factory=Counter)
    #: Machine speed sampled between the client's operations.
    probe: SpeedProbe = field(default_factory=SpeedProbe)

    def absorb(self, other: "Segment") -> None:
        """Add another window's observations to this one."""
        self.tally.absorb(other.tally)
        self.latencies += other.latencies
        self.keys += other.keys
        self.rows += other.rows
        self.bytes_out += other.bytes_out
        if other.write_tally is not None:
            if self.write_tally is None:
                self.write_tally = OpTally(other.write_tally.typed)
            self.write_tally.absorb(other.write_tally)
        self.write_latencies += other.write_latencies
        self.write_lateness += other.write_lateness
        self.write_seconds += other.write_seconds
        self.stat_deltas.update(other.stat_deltas)
        self.probe.samples += other.probe.samples


def merged(segments: list[Segment]) -> Segment:
    total = segments[0]
    for segment in segments[1:]:
        total.absorb(segment)
    return total


class Workload:
    """Set-up, references, measured windows and the final checks."""

    name = ""
    op = ""  # the closed-loop client's operation: "read" or "document"
    #: Tail percentile reported; the highest with >= 10 samples beyond it
    #: at the default run length.
    tail_pct = 90.0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.db: Database | None = None

    def setup(self) -> None:
        raise NotImplementedError

    def discard(self) -> None:
        self.db = None

    def prepare_references(self) -> None:
        raise NotImplementedError

    def ops(self) -> Iterator[tuple[str, Callable[[], Any], Callable[[Any], Checked]]]:
        """Endless ``(label, call, check)``: ``call()`` is the timed
        operation, ``check(reply)`` the untimed correctness gate."""
        raise NotImplementedError

    def check_read(self, text: str, result: Any) -> Checked:
        return Checked(len(result.rows), 0, self.expected[text].matches(result.rows))

    def engine_counters(self) -> dict:
        stats = dict(self.db.plan_cache.stats())
        if self.db.wal is not None:
            stats.update(self.db.wal.stats())
        return stats

    def run(self, seconds: float, recorder: SpanRecorder | None = None) -> Segment:
        segment = Segment(OpTally((ReproError,)))
        before = self.engine_counters()
        end = time.perf_counter() + seconds
        self.start_background(segment, end, recorder)
        try:
            self._client_loop(segment, end, recorder)
        finally:
            self.stop_background(segment)
        after = self.engine_counters()
        segment.stat_deltas.update(
            {key: value - before.get(key, 0) for key, value in after.items()}
        )
        return segment

    def _client_loop(
        self, segment: Segment, end: float, recorder: SpanRecorder | None
    ) -> None:
        perf = time.perf_counter
        for label, call, check in self.ops():
            now = perf()
            if now >= end:
                return
            segment.probe.poll(now)
            started = perf()
            try:
                if recorder is None:
                    reply = call()
                else:
                    with recorder.request(self.op):
                        reply = call()
            except ReproError as error:
                segment.tally.error(error)
                continue
            elapsed = perf() - started
            rows, size, ok = check(reply)
            if not ok:
                segment.tally.mismatch()
                continue
            segment.tally.ok()
            segment.latencies.append(elapsed)
            segment.keys.append(label)
            segment.rows += rows
            segment.bytes_out += size

    def start_background(self, segment, end, recorder) -> None:
        pass

    def stop_background(self, segment) -> None:
        pass

    def finish(self) -> list[str]:
        """End-of-run checks; returns problems found."""
        return []


class ReadHot(Workload):
    name = "read-hot"
    op = "read"
    tail_pct = 99.0
    scale = 0.02

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.texts = fig8_texts() + table1_texts()

    def setup(self) -> None:
        db = Database()
        load_tpch(db.catalog, TpchConfig(scale=self.scale, seed=self.seed))
        for _, text in self.texts:
            db.sql(text)
        self.db = db

    def prepare_references(self) -> None:
        self.expected = {
            text: Expected.from_result(text, self.db.sql(text, use_plan_cache=False))
            for _, text in self.texts
        }

    def ops(self):
        db, rng = self.db, self.rng
        while True:
            label, text = rng.choice(self.texts)
            yield label, partial(db.sql, text), partial(self.check_read, text)


class Publish(Workload):
    name = "publish"
    op = "document"
    tail_pct = 90.0
    scale = 0.02

    def setup(self) -> None:
        db = Database()
        load_tpch(db.catalog, TpchConfig(scale=self.scale, seed=self.seed))
        self.view = tpch_supplier_view()
        for name, formulation in sorted(set(PUBLISH_CYCLE)):
            db.publish(self.view, XQUERIES[name], formulation).read_all()
        self.db = db

    def prepare_references(self) -> None:
        self.expected = {}
        for name, xquery in XQUERIES.items():
            translated = translate_xquery(xquery, self.view, self.db.catalog)
            rows = self.db.sql(translated.outer_union_sql, use_plan_cache=False).rows
            spec = translated.spec
            document = ConstantSpaceTagger(spec).tag_to_string(rows)
            self.expected[name] = (
                spec.root_tag, spec.group_tag,
                group_fragments(document, spec.root_tag, spec.group_tag),
            )

    def ops(self):
        cycle = list(PUBLISH_CYCLE)
        self.rng.shuffle(cycle)
        db, view = self.db, self.view
        while True:
            for name, formulation in cycle:
                yield (
                    f"{name}/{formulation}",
                    partial(self._publish, db, view, name, formulation),
                    partial(self._check, name),
                )

    @staticmethod
    def _publish(db, view, name: str, formulation: str) -> tuple[Any, bytes]:
        stream = db.publish(view, XQUERIES[name], formulation)
        return stream, stream.read_all()

    def _check(self, name: str, reply: tuple[Any, bytes]) -> Checked:
        stream, document = reply
        root, group, fragments = self.expected[name]
        try:
            ok = group_fragments(document.decode("utf-8"), root, group) == fragments
        except ValueError:
            ok = False
        return Checked(stream.stats.rows_in, len(document), ok)


class ReadWrite(Workload):
    name = "read-write"
    op = "read"
    tail_pct = 90.0
    scale = 0.1
    write_rate = 20.0  # commits per second offered by the open-loop writer
    #: Writer tail: 600 commits in a 30 s window leave 12 samples beyond
    #: p98 (p99 would have 6).
    write_tail_pct = 98.0

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.texts = fig8_texts()
        config = TpchConfig(scale=self.scale, seed=seed)
        self.base_parts = config.part_count
        self.base_suppliers = config.supplier_count
        self.path: str | None = None
        self.service: Service | None = None
        self._writer: threading.Thread | None = None
        self._writer_error: BaseException | None = None

    def setup(self) -> None:
        self.path = tempfile.mkdtemp(prefix="store-", dir=self.workdir)
        db = Database.open(self.path, fsync="always")
        load_tpch(db.catalog, TpchConfig(scale=self.scale, seed=self.seed))
        db.create_table(
            EVENTS,
            [("e_id", DataType.INTEGER), ("e_note", DataType.STRING)],
            primary_key=["e_id"],
        )
        self.db = db
        self.service = Service(db, ServiceConfig(fsync="always"))
        self.session = self.service.session(client="reader")
        self.commits = 0
        self.acked_events: list[int] = []
        self.acked_parts: list[tuple[int, int]] = []  # (partkey, suppkey)
        # Keys are never reused, even after a commit that raised.
        self.event_ids, self.part_serials = itertools.count(), itertools.count()
        for _, text in self.texts:
            self.session.sql(text)
        # Warm the write path: one plain insert and one transaction.
        self._commit(False)
        self._commit(True)

    def discard(self) -> None:
        if self.service is not None:
            self.service.shutdown()
        shutil.rmtree(self.path, ignore_errors=True)
        self.service = self.db = None

    def prepare_references(self) -> None:
        suppliers = {
            row[0] for row in self.db.sql("select s_suppkey from supplier").rows
        }
        self.suppliers = suppliers

        def keep(row: tuple) -> bool:
            return row[0] in suppliers

        self.expected = {
            text: Expected.from_result(
                text, self.db.sql(text, use_plan_cache=False), keep
            )
            for _, text in self.texts
        }

    def ops(self):
        session, rng = self.session, self.rng
        while True:
            order = list(self.texts)
            rng.shuffle(order)
            for label, text in order:
                yield label, partial(session.sql, text), partial(self.check_read, text)

    def _commit(self, transaction: bool) -> None:
        """One commit: a one-row insert, or a transaction adding a part
        supplied by a supplier key that did not exist at set-up."""
        if not transaction:
            event_id = next(self.event_ids)
            self.service.insert(EVENTS, [(event_id, f"event {event_id}")])
            self.acked_events.append(event_id)
            return
        serial = next(self.part_serials)
        partkey = self.base_parts + 1 + serial
        suppkey = self.base_suppliers + 1 + serial
        rng = random.Random(self.seed * 1_000_003 + serial)
        txn = self.service.begin()
        try:
            self.service.insert("part", [(
                partkey, f"bench part {serial}", "Manufacturer#1", "Brand#11",
                "STANDARD PLATED TIN", rng.randint(1, 50), "SM BOX",
                round(rng.uniform(900.0, 2000.0), 2), "inserted by the writer",
            )])
            self.service.insert("partsupp", [(
                partkey, suppkey, rng.randint(1, 9_999),
                round(rng.uniform(1.0, 1_000.0), 2), "inserted by the writer",
            )])
        except BaseException:
            txn.rollback()
            raise
        txn.commit()
        self.acked_parts.append((partkey, suppkey))

    def start_background(self, segment, end, recorder) -> None:
        schedule = OpenLoopSchedule(self.write_rate, time.perf_counter())
        self._schedule = schedule
        segment.write_tally = OpTally((ReproError,))
        self._writer_error = None

        def write_loop() -> None:
            perf = time.perf_counter
            index = 0
            try:
                while schedule.due(index) < end:
                    wait = schedule.due(index) - perf()
                    if wait > 0:
                        time.sleep(wait)
                    issued = perf()
                    transaction = self.commits % TXN_EVERY == TXN_EVERY - 1
                    try:
                        if recorder is None:
                            self._commit(transaction)
                        else:
                            with recorder.request("commit"):
                                self._commit(transaction)
                    except ReproError as error:
                        segment.write_tally.error(error)
                    else:
                        segment.write_tally.ok()
                    finished = perf()
                    schedule.record(index, issued, finished)
                    segment.write_seconds = finished - schedule.start
                    self.commits += 1
                    if self.commits % CHECKPOINT_EVERY == 0:
                        if recorder is None:
                            self.db.checkpoint()
                        else:
                            with recorder.request("checkpoint"):
                                self.db.checkpoint()
                    index += 1
            except BaseException as error:  # re-raised on the main thread
                self._writer_error = error

        self._writer = threading.Thread(target=write_loop, name="bench-writer")
        self._writer.start()

    def stop_background(self, segment) -> None:
        self._writer.join()
        self._writer = None
        if self._writer_error is not None:
            raise self._writer_error
        segment.write_latencies = self._schedule.latencies
        segment.write_lateness = self._schedule.lateness

    def finish(self) -> list[str]:
        """Shut down, reopen the store, and look for every acknowledged
        write."""
        self.service.shutdown()
        self.service = None
        try:
            reopened = Database.open(self.path)
        except ReproError as error:
            return [f"the store did not reopen: {error}"]
        try:
            events = {r[0] for r in reopened.sql(f"select e_id from {EVENTS}").rows}
            parts = {r[0] for r in reopened.sql("select p_partkey from part").rows}
            supplies = {
                (r[0], r[1])
                for r in reopened.sql("select ps_partkey, ps_suppkey from partsupp").rows
            }
        finally:
            reopened.close()
        shutil.rmtree(self.path, ignore_errors=True)
        problems = []
        lost = [e for e in self.acked_events if e not in events]
        if lost:
            problems.append(f"{len(lost)} acknowledged inserts lost, e.g. e_id {lost[0]}")
        lost_parts = [
            p for p in self.acked_parts if p[0] not in parts or p not in supplies
        ]
        if lost_parts:
            problems.append(
                f"{len(lost_parts)} acknowledged transactions lost, e.g. {lost_parts[0]}"
            )
        return problems


WORKLOADS = {cls.name: cls for cls in (ReadHot, Publish, ReadWrite)}
