"""Run one program on every configuration we ship, in the oracle's shape.

A program is a list of statement texts over declared streams and tables;
its outputs are one entry per SELECT: the table's final rows (dicts) for
``INSERT INTO`` a table, else the ``(values, ts)`` rows the query emitted
(for ``INSERT INTO`` a stream, that stream's rows).
"""

from __future__ import annotations

from repro.core.language import parse_program
from repro.core.language.ast_nodes import SelectStatement
from repro.dsms.checkpoint import capture_engine_state, restore_engine_state
from repro.dsms.engine import Engine
from repro.dsms.multi_engine import MultiQueryEngine
from repro.dsms.sharding import ShardedEngine

from .relational import run_program


def pairs(results):
    return [(tuple(tup.values), tup.ts) for tup in results]


def wire(kind, statements, streams, tables):
    """*kind* of engine (``engine``, ``serial``, ``parallel`` or
    ``multi``) with the program registered: ``(engine, readers)``, one
    reader per SELECT.

    ``MultiQueryEngine`` subscribes only to continuous SELECTs: INSERTs
    and table-only SELECTs (one-shot reads) run on its shared engine.
    """
    if kind == "engine":
        engine = host = Engine()
    elif kind == "multi":
        engine = MultiQueryEngine()
        host = engine.engine
    else:
        engine = ShardedEngine(2, executor=kind)
        host = engine.catalog
    for name, spec in streams.items():
        engine.create_stream(name, spec)
    for name, spec in tables.items():
        engine.create_table(name, spec)
    table_names = {name.lower() for name in tables}
    readers = []
    for text in statements:
        (statement,) = parse_program(text)
        if not isinstance(statement, SelectStatement):
            engine.ddl(text) if kind == "multi" else engine.query(text)
            continue
        target = statement.insert_into
        one_shot = all(
            item.name.lower() in table_names for item in statement.from_items
        )
        if kind != "multi":
            handle = engine.query(text)
        elif target is not None or one_shot:
            handle = host.query(text)
        else:
            handle = engine.register(text)
        if target is None:
            readers.append(lambda h=handle: pairs(h.results))
        elif target.lower() in table_names:
            if kind in ("serial", "parallel"):
                readers.append(handle.rows)
            else:
                readers.append(lambda t=host.table(target): list(t.scan()))
        else:
            collected = (host if kind == "multi" else engine).collect(target)
            readers.append(lambda c=collected: pairs(c.results))
    return engine, readers


def _close(engine):
    close = getattr(engine, "close", None)
    if close is not None:
        close()


def run(kind, statements, streams, tables, trace, until=None):
    """The program's outputs on one configuration after *trace*."""
    engine, readers = wire(kind, statements, streams, tables)
    try:
        engine.run_trace(trace)
        if until is not None:
            engine.advance_time(until)
        return [reader() for reader in readers]
    finally:
        _close(engine)


def run_restored(statements, streams, trace, cut):
    """A SELECT-only program's outputs when one ``Engine`` runs
    ``trace[:cut]``, is checkpointed, and a fresh engine restored from the
    checkpoint runs the rest: each query's rows before the cut, then after.
    """
    first, before = wire("engine", statements, streams, {})
    first.run_trace(trace[:cut])
    second, after = wire("engine", statements, streams, {})
    restore_engine_state(second, capture_engine_state(first))
    second.run_trace(trace[cut:])
    return [head() + tail() for head, tail in zip(before, after)]


def configurations(executors=("serial",)):
    """Every configuration to hold against the oracle: ``Engine``,
    ``MultiQueryEngine`` and ``ShardedEngine(2)`` on each of
    *executors*."""
    return ("engine", "multi", *executors)


def check(case, executors=("serial",)):
    """Hold every configuration against the oracle on *case* (a
    :class:`~tests.oracle.generate.Case`); returns the oracle's outputs."""
    expected = run_program(
        case.text, case.streams, case.tables, case.trace, case.until
    )
    for kind in configurations(executors):
        got = run(
            kind, case.statements, case.streams, case.tables, case.trace,
            case.until,
        )
        assert got == expected, f"{kind} diverged on {case.statements}"
    return expected
