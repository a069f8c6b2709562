"""SEQ run emission and the column-wise Collector, held against the oracle.

A star-free ``SeqOperator`` hands its matches over one run at a time:
``on_run(chain, stage0, hi)`` delivers the rows ``chain[1:]`` x
``stage0[:hi]``.  UNRESTRICTED with no pairing closure and an exact window
(or none) passes the stage-0 history itself; a pairing closure or a
non-exact window passes the survivors; RECENT, CHRONICLE and CONSECUTIVE
pass their one chosen chain.  Every shape below must emit the oracle's
rows, in the oracle's order, on ``Engine``, ``MultiQueryEngine`` and
``ShardedEngine(2)``, through a plain SELECT (a ``Collector``), an
``INSERT INTO`` stream and an ``INSERT INTO`` table, with the fused
column select list and with the general ``SeqMatch`` path.
"""

import random

import pytest

from repro.dsms import Engine, MultiQueryEngine
from repro.dsms.engine import Collector

from .oracle import generate
from .oracle.engines import check

STREAMS = {name: generate.SEQ_SCHEMA for name in ("s0", "s1", "s2")}
FROM = "s0 AS x, s1 AS y, s2 AS z"
KEYED = "x.k = y.k AND x.k = z.k"

#: name -> WHERE clause; the comment names the operator branch it takes.
SHAPES = {
    # UNRESTRICTED, exact window, no pairing closure: the block path.
    "exact-window": f"SEQ(x, y, z) OVER [2 SECONDS PRECEDING z] AND {KEYED}",
    "no-window": f"SEQ(x, y, z) AND {KEYED}",
    "unkeyed": "SEQ(x, y, z) OVER [1 SECONDS PRECEDING z]",
    # UNRESTRICTED, filtered: a pairing closure, or a non-exact window.
    "pairing": (
        f"SEQ(x, y, z) OVER [2 SECONDS PRECEDING z] AND {KEYED}"
        " AND z.v - x.v > 0.5"
    ),
    "following-window": f"SEQ(x, y, z) OVER [2 SECONDS FOLLOWING x] AND {KEYED}",
    "mid-anchor-window": f"SEQ(x, y, z) OVER [1 SECONDS PRECEDING y] AND {KEYED}",
    # The other modes: one chain per call.
    "recent": f"SEQ(x, y, z) MODE RECENT AND {KEYED}",
    "recent-pairing": f"SEQ(x, y, z) MODE RECENT AND {KEYED} AND x.v < z.v",
    "chronicle": (
        f"SEQ(x, y, z) OVER [2 SECONDS PRECEDING z] MODE CHRONICLE AND {KEYED}"
    ),
    "consecutive": f"SEQ(x, y, z) MODE CONSECUTIVE AND {KEYED}",
}

#: name -> (select list, table column spec for INSERT INTO a table).
ITEMS = {
    # Every item a plain alias.field: the fused path, with stage-0 columns
    # before, between and after the prefix columns.
    "fused": (
        "x.k, y.tag, x.v, z.v, x.tag", "a int, b str, c float, d float, e str"
    ),
    # Prefix columns only: no stage-0 column to extend.
    "fused-prefix": ("z.v, y.tag", "a float, b str"),
    # An expression item: the general SeqMatch path.
    "general": ("x.v + 0, y.tag, z.v", "a float, b str, c float"),
}


def _case(seed, where, items, spec):
    rng = random.Random(seed)
    select = f"SELECT {items} FROM {FROM} WHERE {where}"
    return generate.Case(
        dict(STREAMS),
        [select, f"INSERT INTO out {select}", f"INSERT INTO done {select}"],
        generate.trace(rng, STREAMS, n=120, dense=True),
        {"done": spec},
    )


@pytest.mark.parametrize("items", ITEMS)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", range(3))
def test_runs_match_oracle_on_every_sink(seed, shape, items):
    select_list, spec = ITEMS[items]
    case = _case(seed, SHAPES[shape], select_list, spec)
    outputs = check(case)
    assert outputs[0] == outputs[1]
    assert len(outputs[2]) == len(outputs[0])


def _engine_handle(where, items):
    engine = Engine()
    for name, spec in STREAMS.items():
        engine.create_stream(name, spec)
    handle = engine.query(f"SELECT {items} FROM {FROM} WHERE {where}")
    return engine, handle


@pytest.mark.parametrize("items", ("fused", "general"))
@pytest.mark.parametrize("shape", SHAPES)
def test_matches_emitted_counts_rows(shape, items):
    engine, handle = _engine_handle(SHAPES[shape], ITEMS[items][0])
    engine.run_trace(generate.trace(random.Random(4), STREAMS, n=360, dense=True))
    assert handle.operator.matches_emitted == len(handle.collector) > 0


def test_block_path_hands_over_the_history():
    """The exact-window UNRESTRICTED run passes the stage-0 history list
    itself; a pairing closure passes a fresh list of survivors."""
    seen = {}
    for shape in ("exact-window", "pairing"):
        engine, handle = _engine_handle(SHAPES[shape], ITEMS["fused"][0])
        operator = handle.operator
        calls = []
        histories = []
        wrapped = operator._on_run

        def on_run(chain, stage0, hi, wrapped=wrapped, calls=calls):
            calls.append((stage0, hi))
            wrapped(chain, stage0, hi)

        operator._on_run = on_run
        original = operator._attempt_indexed

        def attempt(partition, anchor, original=original):
            histories.append(partition.histories[0])
            original(partition, anchor)

        operator._attempt_indexed = attempt
        engine.run_trace(
            generate.trace(random.Random(1), STREAMS, n=120, dense=True)
        )
        assert calls and sum(hi for _, hi in calls) == len(handle.collector)
        seen[shape] = any(
            stage0 is history for stage0, _ in calls for history in histories
        )
    assert seen == {"exact-window": True, "pairing": False}


@pytest.mark.parametrize("items", ("fused", "general"))
def test_clear_then_collect_again(items):
    """clear() empties the column lists the emit path bound, in place."""
    trace = generate.trace(random.Random(2), STREAMS, n=240, dense=True)
    half = len(trace) // 2
    where = SHAPES["exact-window"]
    _, reference = _engine_handle(where, ITEMS[items][0])
    reference.engine.run_trace(trace[:half])
    first = len(reference.collector)
    reference.engine.run_trace(trace[half:])
    want = reference.rows()[first:]
    assert first and want

    engine, handle = _engine_handle(where, ITEMS[items][0])
    engine.run_trace(trace[:half])
    handle.clear()
    assert len(handle.collector) == 0 and handle.rows() == []
    engine.run_trace(trace[half:])
    assert handle.rows() == want
    want_ts = [tup.ts for tup in reference.results][first:]
    assert [tup.ts for tup in handle.results] == want_ts


def test_stream_collector_keeps_arrival_stamps_across_clear():
    engine = Engine()
    engine.create_stream("s", "v int, tag str")
    out = engine.collect("s")
    engine.push("s", [1, "a"], 1.0)
    out.clear()
    pushed = [engine.push("s", [i, f"t{i}"], float(i)) for i in range(2, 6)]
    results = out.results
    assert [(t.values, t.ts, t.stream, t.seq) for t in results] == [
        (t.values, t.ts, t.stream, t.seq) for t in pushed
    ]
    assert out.rows() == [{"v": i, "tag": f"t{i}"} for i in range(2, 6)]


def test_zero_column_stream_still_counts_its_rows():
    engine = Engine()
    engine.create_stream("ticks", "")
    out = engine.collect("ticks")
    engine.push("ticks", [], 1.0)
    engine.push("ticks", {}, 2.0)
    assert len(out) == 2
    assert out.rows() == [{}, {}]
    assert [(t.values, t.ts) for t in out.results] == [((), 1.0), ((), 2.0)]


def test_len_and_repr_build_no_tuples(monkeypatch):
    engine, handle = _engine_handle(SHAPES["exact-window"], ITEMS["fused"][0])
    mq = MultiQueryEngine()
    for name, spec in STREAMS.items():
        mq.create_stream(name, spec)
    sub = mq.register(
        f"SELECT {ITEMS['fused'][0]} FROM {FROM} WHERE {SHAPES['recent']}"
    )
    trace = generate.trace(random.Random(3), STREAMS, n=120, dense=True)
    engine.run_trace(trace)
    mq.run_trace(trace)

    def refuse(self):
        raise AssertionError("Tuples materialised")

    monkeypatch.setattr(Collector, "results", property(refuse))
    rows = len(handle.collector)
    assert rows == handle.operator.matches_emitted > 0
    assert f"{rows} tuples" in repr(handle.collector)
    answers = len(sub.collector)
    assert answers > 0 and f"{answers} answers" in repr(sub)


def test_unbound_collector_refuses_rows():
    engine = Engine()
    engine.create_stream("s", "v int")
    collector = Collector("bare")
    engine.streams.get("s").subscribe(collector)
    assert len(collector) == 0 and collector.rows() == [] and collector.results == []
    with pytest.raises(TypeError):
        engine.push("s", [1], 1.0)
