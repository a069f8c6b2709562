"""Query and engine lifecycle: what a cancelled or stopped query leaves
behind, and what an engine accepts after ``close()``.

* A cancelled subscription (``MultiQueryEngine``) or a stopped handle
  (``Engine``) must not stay reachable from its engine: once the caller
  drops it, its operator and state are garbage.
* After ``close()``, every data and clock entry point raises
  ``EslSemanticError`` naming the closed engine instead of dropping or
  buffering the record; reads keep working.
"""

import gc
import weakref

import pytest

from repro.dsms import Engine, MultiQueryEngine, ShardedEngine
from repro.dsms.columns import ColumnBatch
from repro.dsms.errors import EslSemanticError

STREAMS = {"a": "tag_id str, v float", "b": "tag_id str, w float"}
SEQ = (
    "SELECT X.tag_id, X.v, Y.w FROM a AS X, b AS Y "
    "WHERE SEQ(X, Y) AND X.tag_id = Y.tag_id"
)


def _declare(engine):
    for name, schema in STREAMS.items():
        engine.create_stream(name, schema)


def _feed(engine, n=40):
    for i in range(n):
        engine.push("a", [f"t{i % 4}", float(i)], ts=float(2 * i))
        engine.push("b", [f"t{i % 4}", float(i)], ts=float(2 * i + 1))


# -- leak: nothing keeps a released query alive ------------------------------


def test_cancelled_subscription_releases_its_operator():
    mq = MultiQueryEngine()
    _declare(mq)
    sub = mq.register(SEQ)
    _feed(mq)
    assert sub.plan.handle.operator.state_size > 0
    operator = weakref.ref(sub.plan.handle.operator)
    mq.cancel(sub)
    del sub
    gc.collect()
    assert operator() is None


def test_stopped_handle_releases_its_operator():
    engine = Engine()
    _declare(engine)
    handle = engine.query(SEQ)
    _feed(engine)
    assert handle.operator.state_size > 0
    operator = weakref.ref(handle.operator)
    handle.stop()
    assert handle not in engine.queries
    del handle
    gc.collect()
    assert operator() is None


def test_query_stop_rounds_leave_no_queries_behind():
    engine = Engine()
    _declare(engine)
    for _ in range(100):
        engine.query(SEQ).stop()
    assert engine.queries == []


# -- data after close() ------------------------------------------------------


def _entry_points(engine):
    """Every data and clock entry point, each with a valid argument."""
    catalog = engine.catalog if isinstance(engine, ShardedEngine) else engine.engine
    schema = catalog.streams.get("a").schema
    batch = ColumnBatch.from_rows(schema, [(("t9", 1.0), 500.0)])
    return [
        lambda: engine.push("a", ["t9", 1.0], ts=500.0),
        lambda: engine.push_batch("a", [(["t9", 1.0], 500.0)]),
        lambda: engine.push_columns("a", batch),
        lambda: engine.run_trace([("a", ["t9", 1.0], 500.0)]),
        lambda: engine.advance_time(500.0),
        lambda: engine.flush(),
    ]


def _closed_engine(kind):
    if kind == "multi":
        engine = MultiQueryEngine()
        _declare(engine)
        sub = engine.register(SEQ)
        _feed(engine)
        engine.close()
        return engine, sub.rows
    engine = ShardedEngine(n_shards=2, executor=kind)
    _declare(engine)
    handle = engine.query(SEQ)
    _feed(engine)
    engine.flush()
    engine.close()
    return engine, handle.rows


@pytest.mark.parametrize("kind", ["multi", "serial", "parallel"])
def test_data_after_close_raises(kind):
    engine, rows = _closed_engine(kind)
    try:
        before = rows()
        assert before
        name = "MultiQueryEngine" if kind == "multi" else "ShardedEngine"
        for call in _entry_points(engine):
            with pytest.raises(EslSemanticError, match=f"{name} is closed"):
                call()
        assert rows() == before
        if kind != "multi":
            assert engine.transport_stats()["n_shards"] == 2
            assert engine.alive_workers() == 0
    finally:
        engine.close()


def test_sharded_close_before_any_push_still_refuses_data():
    engine = ShardedEngine(n_shards=2, executor="parallel")
    _declare(engine)
    engine.query(SEQ)
    engine.close()
    with pytest.raises(EslSemanticError, match="ShardedEngine is closed"):
        engine.push("a", ["t1", 1.0], ts=1.0)
    assert engine.alive_workers() == 0
