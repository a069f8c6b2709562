"""The paper's eight scenarios, packaged end-to-end.

Each ``build_*`` function creates a fresh :class:`Engine`, declares the
scenario's streams/tables, registers the paper's query (verbatim where the
paper gives one), and returns a :class:`Scenario` that can feed a workload
trace and expose results.  Examples and benchmarks share these builders so
the query text lives in exactly one place.
"""

from __future__ import annotations

from typing import Any

from ..dsms.engine import Engine, QueryHandle
from ..dsms.sharding import ShardedEngine
from .workloads import WorkloadResult


class Scenario:
    """A wired engine + query + workload bundle."""

    def __init__(
        self,
        engine: Any,  # Engine or ShardedEngine (same feeding surface)
        handle: Any,  # QueryHandle or ShardedQueryHandle
        workload: WorkloadResult,
        name: str,
    ) -> None:
        self.engine = engine
        self.handle = handle
        self.workload = workload
        self.name = name
        self.fed = False

    def feed(self, advance_to: float | None = None) -> "Scenario":
        """Run the workload trace through the engine (idempotent).

        ``advance_to`` optionally pushes virtual time past the last tuple so
        trailing timers (timeouts, symmetric windows) fire.
        """
        if not self.fed:
            self.engine.run_trace(self.workload.trace)
            if advance_to is not None:
                self.engine.advance_time(advance_to)
            else:
                self.engine.flush()
            self.fed = True
        return self

    def rows(self) -> list[dict[str, Any]]:
        """Result rows: the handle's collected output, or — for queries that
        persist into a table (Example 2) — the table contents."""
        return self.handle.rows()

    def __repr__(self) -> str:
        return f"Scenario({self.name}, fed={self.fed})"


# -- Example 1: duplicate elimination -----------------------------------------

DEDUP_QUERY = """
INSERT INTO cleaned_readings
SELECT * FROM readings AS r1
WHERE NOT EXISTS
  (SELECT * FROM TABLE( readings OVER
     (RANGE 1 SECONDS PRECEDING CURRENT)) AS r2
   WHERE r2.reader_id = r1.reader_id
     AND r2.tag_id = r1.tag_id)
"""


def build_dedup(workload: WorkloadResult) -> Scenario:
    engine = Engine()
    engine.create_stream("readings", "reader_id str, tag_id str, read_time float")
    engine.create_stream(
        "cleaned_readings", "reader_id str, tag_id str, read_time float"
    )
    engine.query(DEDUP_QUERY, name="dedup")
    collector = engine.collect("cleaned_readings")
    handle = QueryHandle(engine, "dedup-out", None, collector)
    return Scenario(engine, handle, workload, "example1-dedup")


def build_dedup_sharded(
    workload: WorkloadResult,
    n_shards: int = 4,
    executor: str = "serial",
    **engine_kwargs: Any,
) -> Scenario:
    """Example 1 dedup on a :class:`ShardedEngine`.

    The dedup predicate correlates only within one ``tag_id`` (the EXISTS
    window matches on the same reader *and* tag), so an explicit
    ``shard_by`` keys the stream even though the equality lives inside the
    sub-query where the analyzer cannot hoist it.
    """
    engine = ShardedEngine(
        n_shards=n_shards,
        executor=executor,
        shard_by={"readings": "tag_id"},
        **engine_kwargs,
    )
    engine.create_stream("readings", "reader_id str, tag_id str, read_time float")
    engine.create_stream(
        "cleaned_readings", "reader_id str, tag_id str, read_time float"
    )
    engine.query(DEDUP_QUERY, name="dedup")
    handle = engine.collect("cleaned_readings")
    return Scenario(engine, handle, workload, "example1-dedup-sharded")


# -- Example 2: location tracking ----------------------------------------------

LOCATION_QUERY = """
INSERT INTO object_movement
SELECT tid, loc, tagtime
FROM tag_locations WHERE NOT EXISTS
  (SELECT tagid FROM object_movement
   WHERE tagid = tid AND location = loc)
"""


def build_location(workload: WorkloadResult) -> Scenario:
    engine = Engine()
    engine.create_stream(
        "tag_locations", "readerid str, tid str, tagtime float, loc str"
    )
    engine.create_table("object_movement", "tagid str, location str, start_time float")
    handle = engine.query(LOCATION_QUERY, name="location")
    return Scenario(engine, handle, workload, "example2-location")


# -- Example 3: EPC pattern aggregation -----------------------------------------

EPC_AGG_QUERY = """
SELECT count(tid) FROM readings WHERE tid LIKE '20.%.%'
AND extract_serial(tid) > 5000
AND extract_serial(tid) < 9999
"""


def build_epc_aggregation(workload: WorkloadResult) -> Scenario:
    engine = Engine()
    engine.create_stream("readings", "reader_id str, tid str, read_time float")
    handle = engine.query(EPC_AGG_QUERY, name="epc-agg")
    return Scenario(engine, handle, workload, "example3-epc")


# -- Example 4 / 7 / Figure 1: containment ----------------------------------------

CONTAINMENT_QUERY = """
SELECT FIRST(R1*).tagtime, COUNT(R1*), R2.tagid, R2.tagtime
FROM R1, R2
WHERE SEQ(R1*, R2) MODE CHRONICLE
AND R2.tagtime - LAST(R1*).tagtime <= 5 SECONDS
AND R1.tagtime - R1.previous.tagtime <= 1 SECONDS
"""

CONTAINMENT_PER_ITEM_QUERY = """
SELECT R1.tagid, R1.tagtime, R2.tagid, R2.tagtime
FROM R1, R2
WHERE SEQ(R1*, R2) MODE CHRONICLE
AND R2.tagtime - LAST(R1*).tagtime <= 5 SECONDS
AND R1.tagtime - R1.previous.tagtime <= 1 SECONDS
"""


def build_containment(
    workload: WorkloadResult,
    per_item: bool = False,
) -> Scenario:
    engine = Engine()
    engine.create_stream("r1", "readerid str, tagid str, tagtime float")
    engine.create_stream("r2", "readerid str, tagid str, tagtime float")
    query = CONTAINMENT_PER_ITEM_QUERY if per_item else CONTAINMENT_QUERY
    handle = engine.query(query, name="containment")
    return Scenario(engine, handle, workload, "fig1-containment")


# -- Example 5: lab workflow exceptions --------------------------------------------

WORKFLOW_QUERY = """
SELECT A1.tagid, A2.tagid, A3.tagid
FROM A1, A2, A3
WHERE EXCEPTION_SEQ(A1, A2, A3)
OVER [1 HOURS FOLLOWING A1]
"""

WORKFLOW_CLEVEL_QUERY = """
SELECT A1.tagid, A2.tagid, A3.tagid
FROM A1, A2, A3
WHERE (CLEVEL_SEQ(A1, A2, A3)
OVER [1 HOURS FOLLOWING A1]) < 3
"""

# Example 5 with the per-sample equality chain made explicit.  The paper's
# verbatim query tracks one global automaton; this variant keys the
# automaton by tagid — the form that partitions cleanly across shards (the
# analyzer hoists the chain to partition_by exactly as in Example 6).
WORKFLOW_PARTITIONED_QUERY = """
SELECT A1.tagid, A2.tagid, A3.tagid
FROM A1, A2, A3
WHERE EXCEPTION_SEQ(A1, A2, A3)
OVER [1 HOURS FOLLOWING A1]
AND A1.tagid=A2.tagid AND A1.tagid=A3.tagid
"""


def build_lab_workflow(
    workload: WorkloadResult,
    use_clevel: bool = False,
    partitioned: bool = False,
) -> Scenario:
    engine = Engine()
    for name in ("a1", "a2", "a3"):
        engine.create_stream(name, "tagid str, tagtime float")
    if use_clevel:
        query = WORKFLOW_CLEVEL_QUERY
    elif partitioned:
        query = WORKFLOW_PARTITIONED_QUERY
    else:
        query = WORKFLOW_QUERY
    handle = engine.query(query, name="workflow")
    return Scenario(engine, handle, workload, "example5-workflow")


def build_lab_workflow_sharded(
    workload: WorkloadResult,
    n_shards: int = 4,
    executor: str = "serial",
    **engine_kwargs: Any,
) -> Scenario:
    """Example 5 on a :class:`ShardedEngine`, using the tagid-partitioned
    query variant.  Active-expiration timeouts fire on every shard via the
    broadcast clock, so timer-driven violations merge deterministically."""
    engine = ShardedEngine(
        n_shards=n_shards,
        executor=executor,
        **engine_kwargs,
    )
    for name in ("a1", "a2", "a3"):
        engine.create_stream(name, "tagid str, tagtime float")
    handle = engine.query(WORKFLOW_PARTITIONED_QUERY, name="workflow")
    return Scenario(engine, handle, workload, "example5-workflow-sharded")


# -- Example 6: four-step quality check ---------------------------------------------

QUALITY_QUERY = """
SELECT C1.tagid, C1.tagtime, C2.tagtime, C3.tagtime, C4.tagtime
FROM C1, C2, C3, C4
WHERE SEQ(C1, C2, C3, C4)
AND C1.tagid=C2.tagid AND C1.tagid=C3.tagid
AND C1.tagid=C4.tagid
"""


def quality_query_text(
    mode: str | None = "RECENT", window_minutes: float | None = None
) -> str:
    """Example 6's query text, optionally with MODE / the windowed variant."""
    query = QUALITY_QUERY
    if window_minutes is not None:
        query = query.replace(
            "WHERE SEQ(C1, C2, C3, C4)",
            f"WHERE SEQ(C1, C2, C3, C4) OVER [{window_minutes:g} MINUTES "
            "PRECEDING C4]",
        )
    if mode is not None:
        query = query.replace(
            "AND C1.tagid=C2.tagid",
            f"MODE {mode}\nAND C1.tagid=C2.tagid",
        )
    return query


def build_quality_check(
    workload: WorkloadResult,
    mode: str | None = "RECENT",
    window_minutes: float | None = None,
) -> Scenario:
    """Example 6, optionally with MODE and the 30-minute window variant.

    The paper's verbatim query is UNRESTRICTED; RECENT is the optimized
    evaluation it recommends for this scenario, so it is the default here.
    """
    engine = Engine()
    for name in ("c1", "c2", "c3", "c4"):
        engine.create_stream(name, "readerid str, tagid str, tagtime float")
    handle = engine.query(quality_query_text(mode, window_minutes), name="quality")
    return Scenario(engine, handle, workload, "example6-quality")


def build_quality_check_sharded(
    workload: WorkloadResult,
    n_shards: int = 4,
    executor: str = "serial",
    mode: str | None = "RECENT",
    window_minutes: float | None = None,
    batch_size: int = 2048,
    **engine_kwargs: Any,
) -> Scenario:
    """Example 6 on a :class:`ShardedEngine`.

    The query's tagid equality chain is hoisted to a partition key by the
    analyzer, so every input stream hash-routes by tagid with no overrides.
    """
    engine = ShardedEngine(
        n_shards=n_shards,
        executor=executor,
        batch_size=batch_size,
        **engine_kwargs,
    )
    for name in ("c1", "c2", "c3", "c4"):
        engine.create_stream(name, "readerid str, tagid str, tagtime float")
    handle = engine.query(quality_query_text(mode, window_minutes), name="quality")
    return Scenario(engine, handle, workload, "example6-quality-sharded")


# -- Example 8: door security ----------------------------------------------------

DOOR_QUERY_PERSONS = """
SELECT person.tagid
FROM tag_readings AS person
WHERE person.tagtype = 'person' AND NOT EXISTS
  (SELECT * FROM tag_readings AS item
   OVER [1 MINUTES PRECEDING AND FOLLOWING person]
   WHERE item.tagtype = 'item')
"""

# The text of section 3.2 actually asks for the inverse alert — an *item*
# leaving with no person nearby is the potential theft.  Same construct,
# roles swapped:
DOOR_QUERY_THEFT = """
SELECT item.tagid
FROM tag_readings AS item
WHERE item.tagtype = 'item' AND NOT EXISTS
  (SELECT * FROM tag_readings AS person
   OVER [1 MINUTES PRECEDING AND FOLLOWING item]
   WHERE person.tagtype = 'person')
"""


def build_door(
    workload: WorkloadResult,
    theft_variant: bool = True,
) -> Scenario:
    engine = Engine()
    engine.create_stream("tag_readings", "tagid str, tagtype str, tagtime float")
    query = DOOR_QUERY_THEFT if theft_variant else DOOR_QUERY_PERSONS
    handle = engine.query(query, name="door")
    return Scenario(engine, handle, workload, "example8-door")
