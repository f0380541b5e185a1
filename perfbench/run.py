"""One end-to-end benchmark of the publishing engine.

Usage, from the repository root::

    python3 perfbench/run.py --workload read-hot --seed 1 --seconds 30 --trace 0

Workloads: ``read-hot``, ``publish`` and ``read-write`` (see
``workloads.py`` for what each one stresses and why). The engine is
imported from ``src/`` of the same checkout, so nothing is installed.
The TPC-H data and every query draw derive from ``--seed``.

A run sets the workload up three times (``setup_s`` is the median),
computes reference answers, then measures for ``--seconds``:

* ``--trace 0`` measures untraced and reports the end-to-end metrics;
* ``--trace 1`` measures ``--seconds`` untraced and ``--seconds`` with
  every layer boundary wrapped in span recorders (``tracing.py``), in
  alternating blocks, and reports the per-layer metrics plus the tracing
  overhead. Spans are written to ``perfbench/out/spans-*.jsonl``.

Times are normalized to a reference machine speed: the host's speed
drifts by tens of percent over seconds, so a speed probe (``stats.py``)
samples it between operations and every end-to-end time measured in
the window is scaled by reference probe time over measured probe time
(rates inversely). ``setup_s`` is too short for the probe to sample its
speed and, like the per-layer metrics, is reported as measured. The
human-readable lines show each metric as measured and normalized, with
its unit and sample count; the JSON carries the normalized values.

The last line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``. A wrong row, a wrong document or a lost acknowledged write
makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

from stats import MIN_BEYOND, percentile, samples_beyond, tail_percentile
from tracing import SpanRecorder, instrument, self_time_by_name, span_counts

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPEATS = 3
TRACE_BLOCKS = 6

#: Per-layer self times (ms per client operation) and their span names.
CLIENT_SELF_MS = {
    "sql.parse_ms": "sql.parse",
    "sql.normalize_ms": "sql.normalize",
    "sql.bind_ms": "sql.bind",
    "optimizer.optimize_ms": "optimizer.optimize",
    "optimizer.plancache.lookup_ms": "optimizer.plancache.lookup",
    "optimizer.planner_ms": "optimizer.planner",
    "execution.compile_ms": "execution.compile",
    "execution.execute_ms": "execution.execute",
    "xmlpub.translate_ms": "xmlpub.translate",
    "xmlpub.tag_ms": "xmlpub.tag",
    "storage.catalog.snapshot_ms": "storage.catalog.snapshot",
    "serve.admission_wait_ms": "serve.admission_wait",
}
#: Writer-side self times (ms per commit).
COMMIT_SELF_MS = {
    "storage.catalog.insert_ms": "storage.catalog.insert",
    "storage.catalog.txn_ms": "storage.catalog.txn",
    "storage.wal.append_ms": "storage.wal.append",
}
#: Layers on the path of a plan-cache hit before execution starts.
FRONT_END = ("sql.parse", "sql.normalize", "optimizer.plancache.lookup", "optimizer.planner")
#: ROADMAP re-anchor findings: (finding, workload, metric, what it measured)
FINDINGS = (
    ("front-end share of a cache hit", "read-hot", "report.frontend_share_pct",
     "lex+parse 30% and physical re-planning 30% of a Q3/baseline hit"),
    ("plan-cache hit ratio under writes", "read-write", "optimizer.plancache.hit_ratio",
     "every write evicts every plan (82 ms vs 3.9 ms hit)"),
    ("optimizer share of a document", "publish", "report.optimizer_share_pct",
     "cold optimization 270-310 ms vs 3-5 ms execution"),
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, segment, setup_times: list[float]) -> dict:
    lat = segment.latencies
    speed = segment.probe.speed()
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "p50_ms": metric(percentile(lat, 50) * 1e3 * speed, "ms"),
        "tail_ms": metric(percentile(lat, workload.tail_pct) * 1e3 * speed, "ms"),
        "ops_per_s": metric(len(lat) / sum(lat) / speed, "1/s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def writer_figures(workload, segment) -> dict:
    """Open-loop writer latency and rate; zeros when there is no writer."""
    lat = segment.write_latencies
    if not lat:
        return {"serve.write_p50_ms": 0.0, "serve.write_p98_ms": 0.0,
                "serve.commits_per_s": 0.0, "serve.writer_lag_ms": 0.0}
    return {
        "serve.write_p50_ms": percentile(lat, 50) * 1e3,
        "serve.write_p98_ms": percentile(lat, workload.write_tail_pct) * 1e3,
        "serve.commits_per_s": len(lat) / segment.write_seconds,
        "serve.writer_lag_ms": statistics.fmean(segment.write_lateness) * 1e3,
    }


def tracing_overhead_pct(untraced, traced) -> float:
    """Traced over untraced latency, per operation label (median of each),
    weighted by the label's share of untraced time."""
    def by_label(segment) -> dict[str, list[float]]:
        groups: dict[str, list[float]] = {}
        for label, latency in zip(segment.keys, segment.latencies):
            groups.setdefault(label, []).append(latency)
        return groups

    plain, wrapped = by_label(untraced), by_label(traced)
    total = sum(untraced.latencies)
    ratio = 0.0
    for label, values in plain.items():
        if label in wrapped:
            weight = sum(values) / total
            ratio += weight * statistics.median(wrapped[label]) / statistics.median(values)
        else:
            ratio += sum(values) / total
    return (ratio - 1.0) * 100.0


def per_layer(workload, untraced, traced, recorder) -> dict:
    client = (workload.op,)
    ops = len(traced.latencies) + traced.tally.failed
    commits = len(traced.write_latencies)
    own = self_time_by_name(recorder, client)
    counts = span_counts(recorder, client)
    writer_own = self_time_by_name(recorder, ("commit",))
    deltas = traced.stat_deltas

    def per(total: float, base: int) -> float:
        return total / base if base else 0.0

    values: dict[str, float] = {}
    for name, span in CLIENT_SELF_MS.items():
        values[name] = per(own.get(span, 0) / 1e6, ops)
    for name, span in COMMIT_SELF_MS.items():
        values[name] = per(writer_own.get(span, 0) / 1e6, commits)
    lookups = recorder.counts["plancache.lookups"]
    op_ns = sum(
        s.end - s.start for s in recorder.spans
        if s.parent == 0 and recorder.request_kinds.get(s.request) == workload.op
    )
    checkpoints = [
        s.end - s.start for s in recorder.spans
        if s.parent == 0 and recorder.request_kinds.get(s.request) == "checkpoint"
    ]
    values.update({
        "optimizer.optimize_calls_per_op": per(counts.get("optimizer.optimize", 0), ops),
        "optimizer.plancache.hit_ratio": per(recorder.counts["plancache.hits"], lookups),
        "optimizer.plancache.invalidations_per_write": per(deltas["invalidations"], commits),
        "optimizer.plancache.replans": per(deltas["replans"], ops),
        "execution.work_per_op": per(
            sum(c.total_work for c in recorder.execution_counters), ops
        ),
        "execution.rows_per_op": per(traced.rows, ops),
        "xmlpub.bytes_per_doc": per(traced.bytes_out, ops),
        "storage.wal.fsyncs_per_commit": per(deltas["fsyncs"], commits),
        "storage.wal.bytes_per_commit": per(deltas["wal_bytes"], commits),
        "storage.wal.checkpoint_ms": statistics.fmean(checkpoints) / 1e6 if checkpoints else 0.0,
        "trace.overhead_pct": tracing_overhead_pct(untraced, traced),
        "report.frontend_share_pct": 100.0 * per(sum(own.get(n, 0) for n in FRONT_END), op_ns),
        "report.optimizer_share_pct": 100.0 * per(own.get("optimizer.optimize", 0), op_ns),
    })
    values.update(writer_figures(workload, untraced))
    return values


LAYER_UNITS = {"_ms": "ms", "_pct": "%", "_ratio": "ratio", "_per_s": "1/s"}


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    if name.endswith(("bytes_per_doc", "bytes_per_commit")):
        return "bytes"
    return "count"


def print_end_to_end(workload, segment, setup_times) -> None:
    """The issue-level names, each with its unit and sample count, as
    measured and normalized to the reference machine speed."""
    lat = segment.latencies
    n = len(lat)
    op = workload.op
    label = "publish" if op == "document" else "read"
    speed = segment.probe.speed()
    # (name, measured value, unit, speed factor applied, samples)
    rows = [("setup_s", statistics.median(setup_times), "s", 1.0,
             f"{len(setup_times)} set-ups")]
    pcts = sorted({50.0, 90.0, workload.tail_pct})
    for pct in pcts:
        beyond = f", {samples_beyond(n, pct)} beyond" if pct > 50 else ""
        rows.append((f"{label}_p{pct:g}_ms", percentile(lat, pct) * 1e3, "ms", speed,
                     f"{n} {op}s{beyond}"))
    rows.append((f"{label}s_per_s" if op == "read" else "publish_docs_per_s",
                 n / sum(lat), "1/s", 1 / speed, f"{n} {op}s"))
    if op == "document":
        rows.append(("publish_mb_per_s", segment.bytes_out / 1e6 / sum(lat), "MB/s",
                     1 / speed, f"{segment.bytes_out} bytes"))
    if segment.write_latencies:
        writes = writer_figures(workload, segment)
        w = len(segment.write_latencies)
        tail = workload.write_tail_pct
        rows += [
            ("write_p50_ms", writes["serve.write_p50_ms"], "ms", speed, f"{w} commits"),
            (f"write_p{tail:g}_ms", writes["serve.write_p98_ms"], "ms", speed,
             f"{w} commits, {samples_beyond(w, tail)} beyond"),
            ("commits_per_s", writes["serve.commits_per_s"], "1/s", 1.0,
             f"{w} commits offered at {workload.write_rate:g}/s"),
            ("writer_lag_ms", writes["serve.writer_lag_ms"], "ms", speed, f"{w} commits"),
        ]
    attempted, failed, _ = tally_totals(segment)
    rows.append(("error_rate", failed / attempted, "ratio", 1.0,
                 f"{failed} of {attempted} ops"))
    rows.append(("peak_rss_mb", peak_rss_mb(), "MB", 1.0, "1 process"))
    print(f"  machine speed: {speed:.4f} x reference while measuring"
          f" ({len(segment.probe.samples)} probes)")
    print(f"  {'metric':<22} {'measured':>12} {'normalized':>12} unit")
    for name, value, unit, factor, count in rows:
        print(f"  {name:<22} {value:>12.4f} {value * factor:>12.4f} {unit:<5} (n: {count})")
    for tally in (segment.tally, segment.write_tally):
        if tally is not None and tally.error_kinds:
            print(f"  typed errors: {tally.error_kinds}")
    rule = tail_percentile(n)
    if rule is None or rule < workload.tail_pct:
        print(f"  WARNING: fewer than {MIN_BEYOND} {op}s beyond p{workload.tail_pct:g};"
              f" lengthen --seconds")


def print_layers(values: dict, workload: str) -> None:
    for name, value in values.items():
        print(f"  {name:<44} {value:>14.4f} {layer_unit(name)}")
    for finding, where, name, anchor in FINDINGS:
        if where == workload:
            print(f"  re-anchor finding, measured from outside: {finding} = "
                  f"{values[name]:.3f} {layer_unit(name)} (re-anchor: {anchor})")


def tally_totals(*segments) -> tuple[int, int, int]:
    """(attempted, failed, wrong) over client and writer operations."""
    attempted = failed = wrong = 0
    for segment in segments:
        for tally in (segment.tally, segment.write_tally):
            if tally is not None:
                attempted += tally.attempted
                failed += tally.failed
                wrong += tally.wrong
    return attempted, failed, wrong


def interleaved(workload, seconds: float, recorder: SpanRecorder):
    """Untraced and traced windows of ``seconds`` each, cut into blocks
    and alternated (U T T U U T ...) so that drift in machine speed falls
    on both sides of the tracing-overhead comparison alike."""
    from workloads import merged

    plain, traced = [], []
    block = seconds / TRACE_BLOCKS
    for index in range(2 * TRACE_BLOCKS):
        if index % 4 in (1, 2):
            with instrument(recorder):
                traced.append(workload.run(block, recorder))
        else:
            plain.append(workload.run(block))
    return merged(plain), merged(traced)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT_DIR)
    setup_times = []
    for attempt in range(SETUP_REPEATS):
        if attempt:
            workload.discard()
        gc.collect()
        started = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - started)
    workload.prepare_references()
    gc.collect()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}")
    if args.trace:
        recorder = SpanRecorder()
        untraced, traced = interleaved(workload, args.seconds, recorder)
        segments = [untraced, traced]
    else:
        untraced = workload.run(args.seconds)
        segments = [untraced]
    problems = workload.finish()
    attempted, failed, wrong = tally_totals(*segments)
    if wrong:
        problems.append(f"{wrong} wrong results")
    if not untraced.latencies:
        problems.append("no operation completed")
    if problems:
        for problem in problems:
            print(f"INCORRECT: {problem}")
        metrics = {}
    elif args.trace:
        values = per_layer(workload, untraced, traced, recorder)
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
        recorder.write_jsonl(path)
        print(f"per-layer metrics ({len(traced.latencies)} traced {workload.op}s;"
              f" spans in {os.path.relpath(path, ROOT)}):")
        print_layers(values, args.workload)
        metrics = {name: metric(value, layer_unit(name)) for name, value in values.items()}
    else:
        metrics = end_to_end(workload, untraced, setup_times)
        print("end-to-end metrics:")
        print_end_to_end(workload, untraced, setup_times)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
