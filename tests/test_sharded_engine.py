"""Differential tests: ShardedEngine output equals a single Engine's.

The sharded engine's contract is *indistinguishability*: for any workload,
the merged output stream — tuples, values, and order — must be exactly
what one Engine produces, at every shard count, under both executors.
These tests run the paper scenarios through both paths and compare row
lists (not sets): order is part of the contract.
"""

import pytest

from repro.dsms import Engine, ShardedEngine
from repro.dsms.errors import EslSemanticError
from repro.rfid import (
    build_dedup,
    build_dedup_sharded,
    build_lab_workflow,
    build_location,
    build_lab_workflow_sharded,
    build_quality_check,
    build_quality_check_sharded,
    dedup_workload,
    lab_workflow_workload,
    location_workload,
    quality_check_workload,
    quality_query_text,
)
from repro.rfid.scenarios import DEDUP_QUERY, LOCATION_QUERY


QUALITY_DDL = [
    ("c1", "readerid str, tagid str, tagtime float"),
    ("c2", "readerid str, tagid str, tagtime float"),
    ("c3", "readerid str, tagid str, tagtime float"),
    ("c4", "readerid str, tagid str, tagtime float"),
]


def quality_rows(workload):
    scenario = build_quality_check(workload).feed()
    return scenario.rows(), scenario.handle.results


# -- Example 6: hash-partitioned SEQ ---------------------------------------


@pytest.mark.parametrize("n_shards", [1, 2, 8])
def test_quality_serial_matches_single(n_shards):
    workload = quality_check_workload(n_products=60, seed=31)
    expected_rows, expected_results = quality_rows(workload)
    scenario = build_quality_check_sharded(workload, n_shards=n_shards).feed()
    try:
        assert scenario.rows() == expected_rows
        # Tuple-level equality: timestamps and values, in order.
        got = [(t.ts, t.values) for t in scenario.handle.results]
        assert got == [(t.ts, t.values) for t in expected_results]
    finally:
        scenario.engine.close()


@pytest.mark.parametrize("n_shards", [2, 4])
def test_quality_parallel_matches_single(n_shards):
    workload = quality_check_workload(n_products=40, seed=32)
    expected_rows, _ = quality_rows(workload)
    scenario = build_quality_check_sharded(
        workload, n_shards=n_shards, executor="parallel", batch_size=64
    ).feed()
    try:
        assert scenario.rows() == expected_rows
    finally:
        scenario.engine.close()


def test_quality_routes_by_hoisted_tagid_chain():
    workload = quality_check_workload(n_products=10, seed=33)
    scenario = build_quality_check_sharded(workload, n_shards=4)
    try:
        for stream in ("c1", "c2", "c3", "c4"):
            assert scenario.engine.route_for(stream) == ("hash", "tagid")
        assert scenario.handle.partition_field == "tagid"
    finally:
        scenario.engine.close()


def test_quality_state_partitions_across_shards():
    """Hash-routed per-tag partitions are disjoint: shard operator states
    sum to the single engine's state."""
    workload = quality_check_workload(n_products=50, seed=34)
    single = build_quality_check(workload).feed()
    sharded = build_quality_check_sharded(workload, n_shards=4).feed()
    try:
        assert sharded.handle.state_size == single.handle.operator.state_size
    finally:
        sharded.engine.close()


# -- Example 1: dedup (shard_by override, and broadcast fallback) ----------


def test_dedup_sharded_matches_single():
    workload = dedup_workload(n_tags=20, presences_per_tag=3, seed=41)
    expected = build_dedup(workload).feed().rows()
    scenario = build_dedup_sharded(workload, n_shards=4).feed()
    try:
        assert scenario.engine.route_for("readings") == ("hash", "tag_id")
        assert scenario.rows() == expected
    finally:
        scenario.engine.close()


def test_dedup_parallel_matches_single():
    workload = dedup_workload(n_tags=15, presences_per_tag=3, seed=42)
    expected = build_dedup(workload).feed().rows()
    scenario = build_dedup_sharded(
        workload, n_shards=2, executor="parallel"
    ).feed()
    try:
        assert scenario.rows() == expected
    finally:
        scenario.engine.close()


def test_dedup_without_key_falls_back_to_broadcast():
    """No shard_by and no hoisted key: the query runs replicated (every
    shard sees every tuple, output ships from shard 0) and still matches."""
    workload = dedup_workload(n_tags=12, presences_per_tag=3, seed=43)
    expected = build_dedup(workload).feed().rows()
    engine = ShardedEngine(n_shards=3)
    try:
        engine.create_stream(
            "readings", "reader_id str, tag_id str, read_time float"
        )
        engine.create_stream(
            "cleaned_readings", "reader_id str, tag_id str, read_time float"
        )
        engine.query(DEDUP_QUERY, name="dedup")
        handle = engine.collect("cleaned_readings")
        engine.run_trace(workload.trace)
        engine.flush()
        assert engine.route_for("readings") == ("broadcast", None)
        assert handle.rows() == expected
    finally:
        engine.close()


# -- Example 5: EXCEPTION_SEQ with timer-driven violations -----------------


@pytest.mark.parametrize("n_shards,executor", [
    (1, "serial"), (2, "serial"), (8, "serial"), (2, "parallel"),
])
def test_workflow_exception_seq_matches_single(n_shards, executor):
    """Active-expiration timeouts fire via the broadcast clock; violation
    tuples (timer outputs) must merge into the single engine's order."""
    workload = lab_workflow_workload(n_runs=30, violation_rate=0.4, seed=44)
    single = build_lab_workflow(workload, partitioned=True).feed(
        advance_to=1e9
    )
    expected = single.rows()
    assert expected, "workload must produce violations for this test"
    scenario = build_lab_workflow_sharded(
        workload, n_shards=n_shards, executor=executor
    ).feed(advance_to=1e9)
    try:
        assert scenario.rows() == expected
    finally:
        scenario.engine.close()


# -- routing conflicts and lifecycle ---------------------------------------


def _quality_engine(n_shards=2, **kw):
    engine = ShardedEngine(n_shards=n_shards, **kw)
    for name, schema in QUALITY_DDL:
        engine.create_stream(name, schema)
    return engine


def test_keyless_query_after_hash_route_raises():
    engine = _quality_engine()
    try:
        engine.query(quality_query_text(), name="quality")
        with pytest.raises(EslSemanticError, match="every\\s+shard"):
            engine.query("SELECT count(tagid) FROM c1", name="tally")
    finally:
        engine.close()


def test_conflicting_shard_keys_raise():
    engine = ShardedEngine(n_shards=2)
    try:
        for name in ("x", "y", "z"):
            engine.create_stream(name, "a str, b str, t float")
        engine.query(
            "SELECT x2.a FROM x AS x1, y AS x2 "
            "WHERE SEQ(x1, x2) AND x1.a=x2.a",
            name="by_a",
        )
        assert engine.route_for("x") == ("hash", "a")
        with pytest.raises(EslSemanticError, match="conflicting shard keys"):
            engine.query(
                "SELECT x2.b FROM x AS x1, z AS x2 "
                "WHERE SEQ(x1, x2) AND x1.b=x2.b",
                name="by_b",
            )
    finally:
        engine.close()


def test_shard_by_unknown_field_raises():
    engine = _quality_engine(shard_by={"c1": "serial_no"})
    try:
        with pytest.raises(EslSemanticError, match="serial_no"):
            engine.query(quality_query_text(), name="quality")
    finally:
        engine.close()


@pytest.mark.parametrize("executor", ["serial", "parallel"])
def test_broadcast_then_partitioned_runs_replicated(executor):
    """A broadcast pin (from an earlier keyless query) demotes a later
    partitionable query to replicated — correct, just not parallel."""
    workload = quality_check_workload(n_products=25, seed=45)
    single_engine = Engine()
    for name, schema in QUALITY_DDL:
        single_engine.create_stream(name, schema)
    tally_single = single_engine.query("SELECT count(tagid) FROM c1", name="t")
    quality_single = single_engine.query(quality_query_text(), name="q")
    single_engine.run_trace(workload.trace)
    single_engine.flush()

    engine = _quality_engine(n_shards=3, executor=executor, batch_size=32)
    try:
        tally = engine.query("SELECT count(tagid) FROM c1", name="t")
        quality = engine.query(quality_query_text(), name="q")
        assert quality.replicated
        for stream in ("c1", "c2", "c3", "c4"):
            assert engine.route_for(stream) == ("broadcast", None)
        engine.run_trace(workload.trace)
        engine.flush()
        assert tally.rows() == tally_single.rows()
        assert quality.rows() == quality_single.rows()
    finally:
        engine.close()


def test_setup_after_first_push_raises():
    engine = _quality_engine()
    try:
        engine.query(quality_query_text(), name="quality")
        engine.push(
            "c1", {"readerid": "r", "tagid": "t", "tagtime": 1.0}, ts=1.0
        )
        with pytest.raises(EslSemanticError, match="freezes"):
            engine.create_stream("late", "a str")
    finally:
        engine.close()


def test_invalid_constructor_args():
    with pytest.raises(EslSemanticError):
        ShardedEngine(n_shards=0)
    with pytest.raises(EslSemanticError):
        ShardedEngine(executor="threads")
    with pytest.raises(EslSemanticError):
        ShardedEngine(executor="futures")


# -- pipe transport: routing mixes, epochs, lifecycle ----------------------


def test_mixed_hash_and_broadcast_parallel_matches_single():
    """Hash-routed SEQ streams and a broadcast (replicated keyless query)
    stream in one parallel engine: both outputs match the single engine."""
    workload = quality_check_workload(n_products=25, seed=48)

    single = Engine()
    for name, schema in QUALITY_DDL:
        single.create_stream(name, schema)
    single.create_stream("audit", "tagid str")
    q_single = single.query(quality_query_text(), name="q")
    t_single = single.query("SELECT count(tagid) FROM audit", name="t")
    for stream, values, ts in workload.trace:
        single.push(stream, values, ts=ts)
        if stream == "c1":
            single.push("audit", (values["tagid"],), ts=ts)
    single.flush()

    engine = _quality_engine(n_shards=3, executor="parallel", batch_size=32)
    try:
        engine.create_stream("audit", "tagid str")
        quality = engine.query(quality_query_text(), name="q")
        tally = engine.query("SELECT count(tagid) FROM audit", name="t")
        for stream, values, ts in workload.trace:
            engine.push(stream, values, ts=ts)
            if stream == "c1":
                engine.push("audit", (values["tagid"],), ts=ts)
        engine.flush()
        assert engine.route_for("c1") == ("hash", "tagid")
        assert engine.route_for("audit") == ("broadcast", None)
        assert quality.rows() == q_single.rows()
        assert tally.rows() == t_single.rows()
    finally:
        engine.close()


def test_workflow_exception_seq_parallel_across_batch_epochs():
    """Timer-driven EXCEPTION_SEQ violations with a tiny batch size: the
    timeouts that produce violation tuples fire from clock advances that
    cross many transport batch epochs, and the merged order must still be
    the single engine's."""
    workload = lab_workflow_workload(n_runs=25, violation_rate=0.4, seed=49)
    expected = build_lab_workflow(workload, partitioned=True).feed(
        advance_to=1e9
    ).rows()
    assert expected, "workload must produce violations for this test"
    scenario = build_lab_workflow_sharded(
        workload, n_shards=2, executor="parallel", batch_size=8
    ).feed(advance_to=1e9)
    try:
        assert scenario.rows() == expected
    finally:
        scenario.engine.close()


def test_context_manager_and_close_idempotent():
    workload = quality_check_workload(n_products=15, seed=46)
    expected_rows, _ = quality_rows(workload)
    scenario = build_quality_check_sharded(
        workload, n_shards=2, executor="parallel", batch_size=32
    )
    with scenario.engine as engine:
        assert scenario.feed().rows() == expected_rows
        assert engine.alive_workers() == 2
    assert engine.alive_workers() == 0
    engine.close()  # second close is a no-op
    assert engine.alive_workers() == 0


def test_transport_stats_shape():
    workload = quality_check_workload(n_products=10, seed=47)
    scenario = build_quality_check_sharded(
        workload, n_shards=2, executor="parallel", batch_size=16
    ).feed()
    try:
        stats = scenario.engine.transport_stats()
        assert stats["executor"] == "parallel"
        assert stats["codec"] == "framed"
        assert stats["n_shards"] == 2
        assert len(stats["per_shard"]) == 2
        for entry in stats["per_shard"]:
            for key in (
                "frames_sent", "heartbeat_frames", "records_sent",
                "bytes_sent", "bytes_received", "round_trips",
                "encode_s", "decode_s", "worker_encode_s",
                "worker_decode_s", "batch_size",
            ):
                assert key in entry, key
        totals = stats["totals"]
        # Hash routing ships every trace record to exactly one shard.
        assert totals["records_sent"] == len(workload.trace)
        assert totals["frames_sent"] >= totals["round_trips"] > 0
        assert totals["bytes_sent"] > 0 and totals["bytes_received"] > 0
    finally:
        scenario.engine.close()


def test_serial_transport_stats_empty():
    engine = _quality_engine()
    try:
        engine.query(quality_query_text(), name="quality")
        engine.push(
            "c1", {"readerid": "r", "tagid": "t", "tagtime": 1.0}, ts=1.0
        )
        stats = engine.transport_stats()
        assert stats["executor"] == "serial"
        assert stats["codec"] is None
        assert stats["per_shard"] == []
        assert stats["totals"] == {}
        assert engine.alive_workers() == 0
    finally:
        engine.close()


def test_duplicate_and_stale_heartbeats_coalesce():
    """Only a strictly newer clock stamp reaches the workers: duplicate
    and stale advances are absorbed router-side (a stale clock cannot
    fire timers, so skipping preserves merge order exactly)."""
    engine = _quality_engine(executor="parallel", batch_size=1024)
    try:
        engine.query(quality_query_text(), name="quality")
        engine.advance_time(10.0)
        baseline = engine.transport_stats()["totals"]["heartbeat_frames"]
        assert baseline == 2  # one advance frame per shard
        engine.advance_time(10.0)  # duplicate stamp: coalesced away
        engine.advance_time(9.0)  # stale stamp: skipped
        totals = engine.transport_stats()["totals"]
        assert totals["heartbeat_frames"] == baseline
        engine.advance_time(11.0)  # newer stamp: one frame per shard again
        totals = engine.transport_stats()["totals"]
        assert totals["heartbeat_frames"] == baseline + 2
    finally:
        engine.close()


# -- public surface: UDFs and batch ingestion -------------------------------


def scaled_time(tagtime):
    """Module-level so parallel workers can unpickle it."""
    return tagtime * 10.0


UDF_QUERY = (
    "SELECT C1.tagid, scaled_time(C2.tagtime) AS scaled "
    "FROM c1 AS C1, c2 AS C2 "
    "WHERE SEQ(C1, C2) MODE RECENT AND C1.tagid = C2.tagid"
)


def _feed_pairs(engine, n=40):
    for i in range(n):
        tag = f"t{i % 7}"
        engine.push("c1", {"readerid": "r1", "tagid": tag, "tagtime": i}, i)
        engine.push(
            "c2", {"readerid": "r2", "tagid": tag, "tagtime": i + 0.5}, i + 0.5
        )
    engine.flush()


@pytest.mark.parametrize("executor", ["serial", "parallel"])
def test_register_udf_matches_single(executor):
    single = Engine()
    for name, schema in QUALITY_DDL:
        single.create_stream(name, schema)
    single.register_udf("scaled_time", scaled_time)
    expected_handle = single.query(UDF_QUERY)
    _feed_pairs(single)
    expected = expected_handle.rows()
    assert expected

    with _quality_engine(executor=executor) as engine:
        engine.register_udf("scaled_time", scaled_time)
        handle = engine.query(UDF_QUERY)
        _feed_pairs(engine)
        assert handle.rows() == expected


@pytest.mark.parametrize("positional", [False, True], ids=["dict", "tuple"])
def test_push_batch_matches_single(positional):
    trace = quality_check_workload(n_products=20, seed=45).trace
    single = build_quality_check(quality_check_workload(n_products=20, seed=45))
    single.feed()
    expected = single.rows()

    fields = ("readerid", "tagid", "tagtime")
    with _quality_engine() as engine:
        handle = engine.query(quality_query_text())
        for stream, values, ts in trace:
            row = tuple(values[f] for f in fields) if positional else values
            assert engine.push_batch(stream, [(row, ts)]) == 1
        engine.flush()
        assert handle.rows() == expected


# -- parallel handle reads: table sinks, state size, clock -----------------


def test_parallel_table_sink_and_state_size_match_single():
    """An INSERT INTO table query's rows() and a SEQ handle's state_size
    read through the worker pipes like the serial executor reads them."""
    location = location_workload(n_tags=12, moves_per_tag=4, seed=51)
    expected = build_location(location).feed().rows()
    quality = quality_check_workload(n_products=30, seed=52)
    single = build_quality_check(quality).feed()
    sharded = ShardedEngine(
        n_shards=2, executor="parallel", shard_by={"tag_locations": "tid"}
    )
    try:
        sharded.create_stream(
            "tag_locations", "readerid str, tid str, tagtime float, loc str"
        )
        sharded.create_table(
            "object_movement", "tagid str, location str, start_time float"
        )
        table_handle = sharded.query(LOCATION_QUERY, name="location")
        for stream, ddl in QUALITY_DDL:
            sharded.create_stream(stream, ddl)
        seq_handle = sharded.query(quality_query_text(), name="quality")
        trace = sorted(location.trace + quality.trace, key=lambda r: r[2])
        sharded.run_trace(trace)
        sharded.flush()
        key = lambda row: (row["tagid"], row["start_time"])  # noqa: E731
        assert sorted(table_handle.rows(), key=key) == sorted(expected, key=key)
        assert seq_handle.state_size == single.handle.operator.state_size
        assert sharded.now == trace[-1][2]
    finally:
        sharded.close()
