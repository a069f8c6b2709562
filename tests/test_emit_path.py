"""One emit path: every producer hands results to a callback, and only a
Collector (or, sharded, the router's stamped runs) retains rows.

The retention tests count live objects with :mod:`gc` after a run, so a
producer that quietly keeps its own list of outcomes, alerts or shipped
rows fails here even when its output is correct.  The fused-SEQ tests at
the end hold the chain-built rows of Example 6 against the SeqMatch path.
"""

import gc
import sys

import pytest

from repro.core.operators import SeqMatch, SequenceOutcome, SymmetricExistsOperator
from repro.dsms import Engine, MultiQueryEngine, ShardedEngine, Tuple
from repro.rfid import door_workload, lab_workflow_workload, quality_check_workload
from repro.rfid.scenarios import (
    DOOR_QUERY_THEFT,
    WORKFLOW_QUERY,
    quality_query_text,
)

DOOR_SCHEMA = "tagid str, tagtype str, tagtime float"


def _alive(kind, keep):
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, kind) and keep(obj))


def _workflow_engine(engine):
    for name in ("a1", "a2", "a3"):
        engine.create_stream(name, "tagid str, tagtime float")
    return engine


def _assert_no_outcomes_alive(op):
    assert op.exceptions_emitted > 0
    assert _alive(SequenceOutcome, lambda o: o.args[0] is op.args[0]) == 0


def _assert_only_window_tuples_alive(op, schema):
    """After flush no outer waits for a decision, so the only input tuples
    still alive are the ones the inner-history buffer holds (including the
    evicted prefix it compacts lazily)."""
    assert op.emitted > 0
    assert op.pending_count == 0
    held = len(op._history._tuples)
    assert _alive(Tuple, lambda t: t.schema is schema) == held


def test_exception_seq_outcomes_not_retained_on_engine():
    workload = lab_workflow_workload(n_runs=30, violation_rate=0.5, seed=5)
    engine = _workflow_engine(Engine())
    handle = engine.query(WORKFLOW_QUERY)
    engine.run_trace(workload.trace)
    engine.flush()
    assert len(handle.rows()) == workload.truth["violations"]
    _assert_no_outcomes_alive(handle.operator)


def test_exception_seq_outcomes_not_retained_through_registry():
    workload = lab_workflow_workload(n_runs=30, violation_rate=0.5, seed=5)
    mq = _workflow_engine(MultiQueryEngine())
    answers = []
    sub = mq.register(WORKFLOW_QUERY, on_answer=lambda tup: answers.append(1))
    mq.run_trace(workload.trace)
    mq.flush()
    assert len(answers) == workload.truth["violations"]
    assert sub.collector is None and sub.results == []
    _assert_no_outcomes_alive(sub.plan.handle.operator)


def test_symmetric_alerts_not_retained_on_engine():
    engine = Engine()
    engine.create_stream("tag_readings", DOOR_SCHEMA)
    handle = engine.query(DOOR_QUERY_THEFT)
    engine.run_trace(door_workload(n_events=200, seed=3).trace)
    engine.flush()
    assert handle.rows()
    _assert_only_window_tuples_alive(
        handle.operator, engine.streams.get("tag_readings").schema
    )


def test_symmetric_alerts_not_retained_through_registry():
    mq = MultiQueryEngine()
    mq.create_stream("tag_readings", DOOR_SCHEMA)
    answers = []
    sub = mq.register(DOOR_QUERY_THEFT, on_answer=lambda tup: answers.append(1))
    mq.run_trace(door_workload(n_events=200, seed=3).trace)
    mq.flush()
    assert answers
    _assert_only_window_tuples_alive(
        sub.plan.handle.operator, mq.engine.streams.get("tag_readings").schema
    )


def _theft_snapshot(n_alerts):
    engine = Engine()
    engine.create_stream("tag_readings", DOOR_SCHEMA)
    op = SymmetricExistsOperator(
        engine, "tag_readings", "tag_readings", 60.0, 60.0,
        outer_where=lambda t: t["tagtype"] == "item",
        inner_where=lambda cand, outer: cand["tagtype"] == "person",
    )
    for i in range(n_alerts):
        ts = i * 1000.0
        engine.push(
            "tag_readings",
            {"tagid": f"i{i}", "tagtype": "item", "tagtime": ts}, ts,
        )
    engine.advance_time(n_alerts * 1000.0)
    assert op.emitted == n_alerts
    return op.snapshot_state()


def test_symmetric_snapshot_does_not_grow_with_alerts():
    def shape(blob):
        return {key: len(value) for key, value in blob.items()
                if isinstance(value, list)}

    small, large = _theft_snapshot(10), _theft_snapshot(1000)
    assert set(small) == set(large)
    assert shape(small) == shape(large)


def test_serial_shard_runtime_keeps_no_emitted_rows():
    workload = quality_check_workload(n_products=30, seed=41)
    sharded = ShardedEngine(n_shards=2, executor="serial")
    for name in ("c1", "c2", "c3", "c4"):
        sharded.create_stream(name, "readerid str, tagid str, tagtime float")
    handle = sharded.query(quality_query_text())
    sharded.run_trace(workload.trace)
    sharded.flush()
    assert handle.rows()
    for runtime in sharded._executor._runtimes:
        assert runtime.take_outputs() == {}
    assert _alive(Tuple, lambda t: t.schema == handle.schema) == 0
    sharded.close()


# -- fused SEQ emission ---------------------------------------------------------
#
# An all-column select list on a star-free SEQ builds each row straight from
# the match chain; one item spelled as an expression sends the same query
# through the general SeqMatch path.  The two must agree row for row.

QUALITY_SCHEMA = "readerid str, tagid str, tagtime float"
MODES = ("UNRESTRICTED", "RECENT", "CHRONICLE", "CONSECUTIVE")


def _general(text):
    return text.replace(
        "SELECT C1.tagid, C1.tagtime,", "SELECT C1.tagid, C1.tagtime + 0 AS tagtime,"
    )


def _quality_rows(kind, text, trace):
    if kind == "engine":
        engine = Engine()
    elif kind == "multi":
        engine = MultiQueryEngine()
    else:
        engine = ShardedEngine(2, executor="serial")
    for name in ("c1", "c2", "c3", "c4"):
        engine.create_stream(name, QUALITY_SCHEMA)
    if kind == "multi":
        answers = []
        engine.register(text, on_answer=answers.append)
        read = lambda: [tup.as_dict() for tup in answers]  # noqa: E731
    else:
        read = engine.query(text).rows
    engine.run_trace(trace)
    engine.flush()
    rows = read()
    if kind == "serial":
        engine.close()
    return rows


@pytest.mark.parametrize("mode", MODES)
def test_fused_rows_match_general_path(mode):
    # A re-read interrupts a CONSECUTIVE run, so that mode reads each once.
    rereads = 1 if mode == "CONSECUTIVE" else 2
    trace = quality_check_workload(n_products=25, rereads=rereads, seed=8).trace
    fused = quality_query_text(mode)
    assert _general(fused) != fused
    reference = _quality_rows("engine", _general(fused), trace)
    assert reference
    for kind in ("engine", "multi", "serial"):
        assert _quality_rows(kind, fused, trace) == reference, kind
        assert _quality_rows(kind, _general(fused), trace) == reference, kind


def test_example6_builds_no_seq_match(monkeypatch):
    trace = quality_check_workload(n_products=25, rereads=2, seed=8).trace
    built = []

    class Counting(SeqMatch):
        __slots__ = ()

        def __new__(cls, *args):
            built.append(1)
            return super().__new__(cls)

    # Every module of the package that names SeqMatch builds the counting
    # subclass instead, whichever constructor it calls.
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name.startswith("repro") and getattr(module, "SeqMatch", None) is SeqMatch:
            monkeypatch.setattr(module, "SeqMatch", Counting)
    fused = _quality_rows("engine", quality_query_text(None), trace)
    assert fused and built == []
    general = _quality_rows("engine", _general(quality_query_text(None)), trace)
    assert general == fused and len(built) == len(fused)


def test_fused_insert_into_stream_and_table():
    trace = quality_check_workload(n_products=25, rereads=2, seed=8).trace
    engine = Engine()
    for name in ("c1", "c2", "c3", "c4"):
        engine.create_stream(name, QUALITY_SCHEMA)
    engine.create_table("done", "tagid str, t1 float, t2 float, t3 float, t4 float")
    text = quality_query_text(None)
    select = engine.query(text)
    engine.query("INSERT INTO finished " + text)
    engine.query("INSERT INTO done " + text)
    finished = engine.collect("finished")
    engine.run_trace(trace)
    want = [tuple(row.values()) for row in select.rows()]
    assert want
    assert [tuple(row.values()) for row in finished.rows()] == want
    assert [tup.ts for tup in finished] == [tup.ts for tup in select.results]
    assert [tuple(row.values()) for row in engine.table("done").scan()] == want


def test_unrestricted_rows_stay_distinct_with_many_matches_per_anchor():
    """Each anchor completes rereads**3 chains through one reused chain
    list; a fused emitter that kept the list would repeat rows."""
    workload = quality_check_workload(n_products=20, rereads=3, seed=4)
    rows = _quality_rows("engine", quality_query_text(None), workload.trace)
    values = [tuple(row.values()) for row in rows]
    assert len(values) == 3 ** 4 * len(workload.truth)
    assert len(set(values)) == len(values)
    assert {row["tagid"] for row in rows} == set(workload.truth)
