"""One measured process of the end-to-end benchmark.

``run.py`` launches this file once per (workload, repeat) so peak RSS,
interned strings and caches are per run.  It builds the workload's engine
at default constructor arguments, runs the timed section

    load_trace(csv) -> micro-batched push -> flush() -> rows()

checks the emitted rows against the generator's ground truth, and prints
one JSON object on its last line.  With ``--trace`` it also returns spans
around every call into the engine and runs the workload's probe ladder
(same input, successively richer queries), whose differences are each
layer's self time.  Layers are measured from outside, through public
functions only; nothing under ``src/`` knows about this file.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import itertools
import json
import math
import os
import platform
import pstats
import resource
import sys
import time
import traceback
from array import array
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"measure.py: engine sources not found at {SRC}")
sys.path.insert(0, str(SRC))

import workloads as W  # noqa: E402  (sibling file; the script dir is on sys.path)
from repro.core.language import parse_program  # noqa: E402
from repro.dsms.columns import ColumnBatch  # noqa: E402
from repro.dsms.engine import Engine  # noqa: E402
from repro.dsms.multi_engine import MultiQueryEngine  # noqa: E402
from repro.dsms.native import find_compiler  # noqa: E402
from repro.dsms.sharding import ShardedEngine  # noqa: E402
from repro.rfid.traceio import load_trace  # noqa: E402

clock = time.perf_counter

#: Query texts per workload and probe-ladder rung.  Every workload also has
#: the rung "null": streams declared, no query.
QUERIES: dict[str, dict[str, list[str]]] = {
    "epc_filter": {"full": [W.EX3_EPC], "filter": [W.EX3_FILTER_ONLY]},
    "dedup_window": {"full": [W.EX1_DEDUP]},
    "location_table": {"full": [W.EX2_LOCATION]},
    "seq_quality": {"full": [W.EX6_QUALITY_WINDOWED]},
    "quality_sharded": {
        "full": [W.EX6_QUALITY_RECENT],
        "single": [W.EX6_QUALITY_RECENT],
        "serial": [W.EX6_QUALITY_RECENT],
    },
    "temporal_mix": {
        "full": [W.EX4_CONTAINMENT, W.EX5_WORKFLOW, W.EX8_THEFT],
        "star": [W.EX4_CONTAINMENT],
        "exception_seq": [W.EX5_WORKFLOW],
        "subquery": [W.EX8_THEFT],
    },
}


class Pipeline:
    """One wired engine: what the timed section pushes to and reads from."""

    def __init__(self, engine: Any, catalog: Engine) -> None:
        self.engine = engine  # push / flush target
        self.catalog = catalog  # Engine whose schemas load_trace coerces against
        self.results: Callable[[], list[list[dict]]] = lambda: []
        self.state: Callable[[], dict[str, int]] = lambda: {}
        self.compile_s = 0.0  # time inside Engine.query / register
        self.spawn_s = 0.0  # worker spawn-and-ready (parallel executor)
        self.churn_marks: list[tuple[int, float, float]] = []

    def before_batch(self, index: int) -> None:
        pass

    def close(self) -> None:
        close = getattr(self.engine, "close", None)
        if close is not None:
            close()


class MultiQueryPipeline(Pipeline):
    """multi_query: replays the registration schedule of
    ``workloads.multi_query_plan`` against a MultiQueryEngine."""

    def __init__(self, spec: dict, register: bool) -> None:
        engine = MultiQueryEngine()
        super().__init__(engine, engine.engine)
        self.spec = spec
        self.plan = W.multi_query_plan(spec)
        self.subscriptions: list[Any] = []
        self.live_eq: list[Any] = []  # oldest first
        self.next_tag = 0
        self.register_s = self.cancel_s = 0.0
        self.registered = 0
        for name, schema in W.STREAMS["multi_query"]:
            engine.create_stream(name, schema)
        if not register:
            self.plan["churn_batches"] = []
            return
        self.live_eq = [self._register_eq() for _ in range(spec["eq"])]
        for lo, hi in self.plan["ranges"]:
            self._register(W.multi_range_query(lo, hi))
        for _ in range(spec["seq"]):
            self._register(W.MULTI_SEQ)
        self.results = lambda: [sub.rows() for sub in self.subscriptions]
        self.state = lambda: {"registry.state_peak": engine.state_size()}

    def _register(self, text: str) -> Any:
        start = clock()
        subscription = self.engine.register(text)
        self.register_s += clock() - start
        self.registered += 1
        self.subscriptions.append(subscription)
        return subscription

    def _register_eq(self) -> Any:
        tag = f"t{self.next_tag:05d}"
        self.next_tag += 1
        return self._register(W.multi_eq_query(tag))

    def before_batch(self, index: int) -> None:
        if index not in self.plan["churn_batches"]:
            return
        start = clock()
        churn = self.spec["churn"]
        for subscription in self.live_eq[:churn]:
            self.engine.cancel(subscription)
        self.cancel_s += clock() - start
        self.live_eq = self.live_eq[churn:] + [
            self._register_eq() for _ in range(churn)
        ]
        self.churn_marks.append((index, start, clock()))


def build(workload: str, rung: str = "full") -> Pipeline:
    """Construct, declare and register: everything before the first reading.

    Engines take default constructor arguments only; the sole exception is
    ``n_shards=2`` plus the executor on quality_sharded.
    """
    spec = W.SPECS[workload]
    if workload == "multi_query":
        pipe = MultiQueryPipeline(spec, register=rung == "full")
        pipe.compile_s = pipe.register_s
        return pipe
    if workload == "quality_sharded" and rung in ("full", "serial"):
        engine = ShardedEngine(
            n_shards=2, executor="parallel" if rung == "full" else "serial"
        )
        pipe = Pipeline(engine, engine.catalog)
    else:
        engine = Engine()
        pipe = Pipeline(engine, engine)
    for name, schema in W.STREAMS[workload]:
        engine.create_stream(name, schema)
    for name, schema in W.TABLES.get(workload, ()):
        engine.create_table(name, schema)
    start = clock()
    handles = [engine.query(text) for text in QUERIES[workload].get(rung, ())]
    pipe.compile_s = clock() - start
    if isinstance(engine, ShardedEngine):
        start = clock()
        engine.start()
        pipe.spawn_s = clock() - start
    if not handles:
        return pipe
    if workload == "dedup_window":
        handles = [engine.collect("cleaned_readings")]
    if workload == "location_table":
        table = engine.table("object_movement")
        pipe.results = lambda: [list(table.scan())]
    else:
        pipe.results = lambda: [handle.rows() for handle in handles]
    if isinstance(engine, Engine):
        state_of = {
            "seq_quality": ("operators.seq.state_peak", "full"),
            "quality_sharded": ("operators.seq.state_peak", "single"),
            "temporal_mix": ("operators.exception_seq.state_peak", "exception_seq"),
        }.get(workload)
        if state_of and rung == state_of[1]:
            operator = handles[0].operator
            pipe.state = lambda: {state_of[0]: operator.state_size}
    return pipe


def timed_section(
    pipe: Pipeline,
    spec: dict,
    csv_path: str,
    records: list | None = None,
    sample_state: bool = False,
) -> dict[str, Any]:
    """load_trace -> micro-batched push -> flush -> rows, with a timestamp
    at every boundary.  Probe rungs pass the already-loaded *records*."""
    batch = spec["batch"]
    columnar = spec.get("columnar", False)
    marks: list[tuple[float, float, float]] = []  # batch start, packed, pushed
    peaks: dict[str, int] = {}
    failed = 0
    start = clock()
    if records is None:
        records = load_trace(csv_path, pipe.catalog)
    loaded = clock()
    engine = pipe.engine
    if columnar:
        stream = records[0][0]
        schema = pipe.catalog.streams.get(stream).schema
    for index, lo in enumerate(range(0, len(records), batch)):
        t0 = t1 = clock()
        try:
            pipe.before_batch(index)
            chunk = records[lo:lo + batch]
            if columnar:
                packed = ColumnBatch.from_rows(
                    schema, [(row, ts) for _, row, ts in chunk]
                )
                t1 = clock()
                engine.push_columns(stream, packed)
            else:
                engine.run_trace(chunk)
        except Exception:
            if not failed:
                traceback.print_exc()
            failed += 1
        marks.append((t0, t1, clock()))
        if sample_state and index % 16 == 0:
            for name, size in pipe.state().items():
                peaks[name] = max(peaks.get(name, 0), size)
    pushed = clock()
    fired = engine.flush() or 0
    flushed = clock()
    results = pipe.results()
    end = clock()
    return {
        "records": records, "results": results, "marks": marks, "peaks": peaks,
        "failed": failed, "fired": fired, "start": start, "loaded": loaded,
        "pushed": pushed, "flushed": flushed, "end": end,
        # What the probe ladder differences: everything after trace decode.
        "engine_s": end - loaded,
    }


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


# ---------------------------------------------------------------------------
# Ground-truth checks (engine-independent) and the output digest
# ---------------------------------------------------------------------------


Rows = list[list[tuple]]  # per handle, each emitted row as a value tuple


def check(workload: str, results: Rows, truth: dict) -> str | None:
    """None when the emitted rows equal the generator's ground truth,
    else a one-line description of the first difference found."""

    def differs(rows: list[tuple], want: list[list], what: str) -> str | None:
        if rows != [tuple(row) for row in want]:
            return f"{len(rows)} {what} differ, want {len(want)}"
        return None

    if workload == "epc_filter":
        counts = [count for count, in results[0]]
        if counts != list(range(1, truth["matching"] + 1)):
            return f"running count ends at {counts[-1:]}, want {truth['matching']}"
    elif workload == "dedup_window":
        return differs(results[0], truth["cleaned"], "cleaned readings")
    elif workload == "location_table":
        return differs(results[0], truth["rows"], "table rows")
    elif workload in ("seq_quality", "quality_sharded"):
        # Per completed product, the full cross product of its re-reads.
        expected = {
            (tag, *combination)
            for tag, steps in truth["completed"].items()
            for combination in itertools.product(*steps)
        }
        rows = results[0]
        if len(rows) != len(expected) or set(rows) != expected:
            return f"{len(rows)} matches ({len(set(rows))} distinct), want {len(expected)}"
    elif workload == "temporal_mix":
        cases, violations, thefts = results
        return (
            differs(cases, truth["cases"], "case rows")
            or differs(violations, truth["violations"], "violation rows")
            or differs(thefts, [[tag] for tag in truth["thefts"]], "theft alerts")
        )
    elif workload == "multi_query":
        counts = [len(rows) for rows in results]
        if counts != truth["counts"]:
            wrong = sum(a != b for a, b in zip(counts, truth["counts"]))
            return f"{wrong} of {len(truth['counts'])} subscriptions miscount"
    return None


def digest(results: Rows) -> str:
    """Ordered sha256 over every emitted row, handle by handle.

    Hashed column by column (a float column as its packed doubles, any
    other as its repr): row order and every value count, and 350,000 rows
    cost a tenth of a second instead of one.
    """
    sha = hashlib.sha256()
    for rows in results:
        sha.update(b"#handle %d" % len(rows))
        for column in zip(*rows):
            if all(type(value) is float for value in column):
                sha.update(array("d", column).tobytes())
            else:
                sha.update(repr(column).encode())
    return sha.hexdigest()


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced pass and the probe ladder
# ---------------------------------------------------------------------------


def spans_of(run: dict, pipe: Pipeline, columnar: bool) -> list[dict]:
    """The traced pass as spans: run -> {traceio.load, batch[i] ->
    {columns.pack | registry.churn, engine.push}, engine.flush,
    engine.rows}.  ``parent`` is an index into the list; ``batch`` is the
    identifier the spans of one micro-batch share."""
    spans: list[dict] = []

    def add(name: str, start: float, end: float, parent: int | None,
            batch: int | None = None) -> int:
        spans.append({"name": name, "start": start - run["start"],
                      "end": end - run["start"], "parent": parent, "batch": batch})
        return len(spans) - 1

    root = add("run", run["start"], run["end"], None)
    add("traceio.load", run["start"], run["loaded"], root)
    churn = {index: (start, end) for index, start, end in pipe.churn_marks}
    for index, (t0, t1, t2) in enumerate(run["marks"]):
        parent = add("batch", t0, t2, root, index)
        if columnar:
            add("columns.pack", t0, t1, parent, index)
        if index in churn:
            add("registry.churn", *churn[index], parent, index)
            t1 = churn[index][1]
        add("engine.push", t1, t2, parent, index)
    add("engine.flush", run["pushed"], run["flushed"], root)
    add("engine.rows", run["flushed"], run["end"], root)
    return spans


def layer_metrics(workload: str, run: dict, pipe: Pipeline, spans: list[dict],
                  csv_path: str) -> dict[str, float]:
    """Per-layer metrics of one workload.  Runs the probe ladder."""
    spec = W.SPECS[workload]
    records = run["records"]
    n = len(records)
    wall = run["end"] - run["start"]
    pushes = sorted((t2 - t0) * 1e3 for t0, _, t2 in run["marks"])
    load_s = run["loaded"] - run["start"]
    rows_out = sum(len(rows) for rows in run["results"])
    texts = {t for rung in QUERIES.get(workload, {}).values() for t in rung}
    if workload == "multi_query":
        texts = [subscription.text for subscription in pipe.subscriptions]
    start = clock()
    for text in texts:
        parse_program(text)
    parse_s = clock() - start
    top_level = sum(s["end"] - s["start"] for s in spans if s["parent"] == 0)
    out: dict[str, float] = {
        "traceio.load_s": load_s,
        "traceio.rows_per_s": n / load_s,
        "language.parse_s": parse_s,
        "language.compile_s": pipe.compile_s,
        "engine.push_s": sum(t2 - t1 for _, t1, t2 in run["marks"]),
        "engine.push_p50_ms": percentile(pushes, 0.50),
        "engine.push_max_ms": pushes[-1],
        "engine.flush_s": run["flushed"] - run["pushed"],
        "engine.rows_s": run["end"] - run["flushed"],
        "engine.rows_out": rows_out,
        "clock.timers_fired": run["fired"],
        "clock.flush_s": run["flushed"] - run["pushed"],
        "trace.span_gap_pct": 100.0 * (1.0 - top_level / wall),
    }
    if len(pushes) >= 1000:  # ten samples beyond the percentile
        out["engine.push_p99_ms"] = percentile(pushes, 0.99)
    if spec.get("columnar"):
        out["columns.pack_s"] = sum(t1 - t0 for t0, t1, _ in run["marks"])
        out["columns.rows_per_batch"] = n / len(run["marks"])
    out.update(run["peaks"])

    def probe(rung: str, sample_state: bool = False) -> dict:
        rung_pipe = build(workload, rung)
        try:
            return timed_section(rung_pipe, spec, csv_path, records, sample_state)
        finally:
            rung_pipe.close()

    full_s = run["engine_s"]
    null_s = probe("null")["engine_s"]
    out["streams.ingest_s"] = null_s
    if workload == "epc_filter":
        filter_s = probe("filter")["engine_s"]
        out["expressions.filter_self_s"] = filter_s - null_s
        out["aggregates.self_s"] = full_s - filter_s
    elif workload == "dedup_window":
        out["operators.subquery.self_s"] = full_s - null_s
    elif workload == "location_table":
        out["table.self_s"] = full_s - null_s
        out["table.rows"] = len(run["results"][0])
    elif workload == "seq_quality":
        out["operators.seq.self_s"] = full_s - null_s
        out["operators.seq.matches_per_tuple"] = rows_out / n
    elif workload == "quality_sharded":
        single = probe("single", sample_state=True)
        serial_s = probe("serial")["engine_s"]
        out.update(single["peaks"])
        out["operators.seq.self_s"] = single["engine_s"] - null_s
        out["operators.seq.matches_per_tuple"] = rows_out / n
        out["sharding.route_merge_self_s"] = serial_s - single["engine_s"]
        # Base: the 2-shard serial probe; above 1 the parallel executor wins.
        out["sharding.parallel_ratio"] = serial_s / full_s
        out["transport.spawn_s"] = pipe.spawn_s
        stats = pipe.engine.transport_stats()
        totals = stats["totals"]
        per_shard = [entry["records_sent"] for entry in stats["per_shard"]]
        out["sharding.skew"] = max(per_shard) / (sum(per_shard) / len(per_shard))
        out["transport.bytes_per_tuple"] = (
            totals["bytes_sent"] + totals["bytes_received"]
        ) / n
        out["transport.frames"] = totals["frames_sent"]
        for name in ("round_trips", "encode_s", "decode_s",
                     "worker_encode_s", "worker_decode_s"):
            out[f"transport.{name}"] = totals[name]
    elif workload == "temporal_mix":
        for rung in ("star", "exception_seq", "subquery"):
            rung_run = probe(rung, sample_state=True)
            out[f"operators.{rung}.self_s"] = rung_run["engine_s"] - null_s
            out.update(rung_run["peaks"])
    elif workload == "multi_query":
        stats = pipe.engine.stats()
        out["registry.register_s"] = pipe.register_s
        out["registry.register_us_per_query"] = 1e6 * pipe.register_s / pipe.registered
        out["registry.cancel_s"] = pipe.cancel_s
        out["registry.dispatch_self_s"] = full_s - null_s
        out["registry.deliveries_per_tuple"] = stats["deliveries"] / n
        for name in ("shared_plans", "indexed_entries", "residual_entries"):
            out[f"registry.{name}"] = stats[name]
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def peak_rss_mib() -> float:
    """High-water RSS of this process plus that of its largest worker.

    Read from VmHWM, not ``ru_maxrss``: Linux carries the forking parent's
    high-water mark into the child's ``ru_maxrss`` across exec, so this
    process would report run.py's input generator instead of the engine.
    Workers are forked without exec, so RUSAGE_CHILDREN is theirs.
    """
    with open("/proc/self/status") as handle:
        own = next(int(line.split()[1]) for line in handle if line.startswith("VmHWM:"))
    return (own + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def environment(pipe: Pipeline) -> dict[str, Any]:
    """Informational record of the host and the tier the engine runs at."""
    load = os.getloadavg()[0]
    nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "loadavg_1m": load,
        "contended": load > nproc,
        "c_compiler": find_compiler(),
        "execution_tier": pipe.engine.execution_tier(),
    }


def profile_section(pipe: Pipeline, spec: dict, csv_path: str, path: str,
                    meta: dict) -> dict:
    """The timed section under cProfile; top 25 by cumulative time."""
    profiler = cProfile.Profile()
    run = profiler.runcall(timed_section, pipe, spec, csv_path)
    stats = pstats.Stats(profiler).sort_stats("cumulative")
    top = [
        {"function": f"{Path(file).name}:{line}({name})", "ncalls": stats.stats[key][1],
         "tottime_s": stats.stats[key][2], "cumtime_s": stats.stats[key][3]}
        for key in stats.fcn_list[:25]
        for file, line, name in [key]
    ]
    with open(path, "w") as handle:
        json.dump({"meta": meta, "top_cumulative": top}, handle, indent=1)
    return run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--csv", required=True)
    parser.add_argument("--truth", required=True)
    parser.add_argument("--trace", action="store_true",
                        help="also return spans and run the probe ladder")
    parser.add_argument("--profile-out", help="run the timed section under cProfile")
    args = parser.parse_args()
    workload, spec = args.workload, W.SPECS[args.workload]

    setups: list[float] = []
    while True:
        start = clock()
        pipe = build(workload)
        setups.append(clock() - start)
        if len(setups) >= W.SETUP_REPEATS[workload]:
            break
        pipe.close()
    setup_s = sorted(setups)[len(setups) // 2]
    meta = environment(pipe)

    try:
        if args.profile_out:
            run = profile_section(pipe, spec, args.csv, args.profile_out, meta)
        else:
            run = timed_section(pipe, spec, args.csv, sample_state=args.trace)
        layers = spans = None
        if args.trace:
            spans = spans_of(run, pipe, spec.get("columnar", False))
            layers = layer_metrics(workload, run, pipe, spans, args.csv)
    finally:
        pipe.close()
    peak_rss = peak_rss_mib()  # before the check below allocates its own

    with open(args.truth) as handle:
        truth = json.load(handle)
    n = len(run["records"])
    emitted = [[tuple(row.values()) for row in rows] for rows in run["results"]]
    problem = check(workload, emitted, truth)
    if problem:
        print(f"{workload}: result check failed: {problem}", file=sys.stderr)
    ops_total = len(run["marks"]) + 1
    pushes = sorted((t2 - t0) * 1e3 for t0, _, t2 in run["marks"])
    wall = run["end"] - run["start"]
    print(json.dumps({
        "workload": workload,
        "readings": n,
        "wall_s": wall,
        "ops_total": ops_total,
        "ops_failed": ops_total if problem else run["failed"],
        "digest": digest(emitted),
        "meta": meta,
        "layers": layers,
        "spans": spans,
        "metrics": {
            "tuples_per_s": n / wall,
            "push_p95_ms": percentile(pushes, 0.95),
            "peak_rss_mb": peak_rss,
            "setup_s": setup_s,
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
