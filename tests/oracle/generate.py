"""Random programs over the paper's query shapes, and random traces.

Each generator takes a ``random.Random`` and returns a :class:`Case`:
streams and tables to declare, statement texts, a trace of ``(stream,
row, ts)`` records, and the clock time the run ends at.  Traces carry
NULLs, timestamp ties within and across streams, duplicate reads,
unicode text and int64 edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

KEYS = (0, 1, 2, 0, 1, None, 2**63 - 1, -(2**63))
VALUES = (0.5, -2.25, 7.0, -0.0, 1e3, 2.0**53, 0.75)
TAGS = ("a", "ab", "ガ-dock", "été", "", "a_b", "b")
STEPS = (0.0, 0.0, 0.5, 1.0, 1.5, 3.0)
#: Dense traces: two keys, short steps, re-read bursts.
DENSE_KEYS = (0, 1, 0, 1, None)
DENSE_STEPS = (0.0, 0.25, 0.25, 0.5)


@dataclass
class Case:
    streams: dict
    statements: list
    trace: list
    tables: dict = field(default_factory=dict)
    until: float | None = None

    @property
    def text(self):
        return ";\n".join(self.statements)


def _maybe_null(rng, value, p=0.2):
    return None if rng.random() < p else value


def trace(rng, schemas, n=36, time_field=None, dense=False):
    """*n* records over the streams of *schemas* (name -> column spec).

    Columns named ``k`` draw partition keys, ``v`` floats and the text
    columns tags; *time_field* columns carry the record's timestamp.
    About one record in seven re-reads the previous one.  A *dense*
    trace draws from two keys (and NULL), steps time in quarter seconds
    and re-reads every other record, so each key's per-stream history
    runs to dozens of rows.
    """
    out, ts = [], 0.0
    names = list(schemas)
    keys, steps, reread = (
        (DENSE_KEYS, DENSE_STEPS, 0.5) if dense else (KEYS, STEPS, 0.15)
    )
    for _ in range(n):
        if out and rng.random() < reread:
            stream, row, _ = out[-1]
            out.append((stream, dict(row), ts))
        else:
            stream = rng.choice(names)
            row = {}
            for part in schemas[stream].split(","):
                column, kind = part.split()
                if column == time_field:
                    row[column] = _maybe_null(rng, ts, 0.05)
                elif kind == "int":
                    row[column] = rng.choice(keys)
                elif kind == "float":
                    row[column] = _maybe_null(rng, rng.choice(VALUES))
                else:
                    row[column] = _maybe_null(rng, rng.choice(TAGS))
            out.append((stream, row, ts))
        ts += rng.choice(steps)
    return out


def _number(rng):
    return rng.choice(("0", "0.5", "1", "-1", "2.25", "1000"))


# ---------------------------------------------------------------------------
# SEQ (star-free)
# ---------------------------------------------------------------------------

SEQ_SCHEMA = "k int, v float, tag str"


def _single(rng, a):
    return rng.choice((
        f"{a}.v > {_number(rng)}",
        f"{a}.tag LIKE 'a%'",
        f"{a}.k IN (0, 1)",
        f"{a}.v IS NOT NULL",
        f"{a}.tag <> ''",
        f"NOT ({a}.v BETWEEN 0 AND 1)",
    ))


def _cross(rng, a, b):
    return rng.choice((
        f"{b}.v - {a}.v > {_number(rng)}",
        f"{a}.tag = {b}.tag",
        f"{a}.v < {b}.v",
        f"{a}.k <> {b}.k",
        f"({a}.v > {b}.v OR {b}.tag IS NULL)",
        f"{a}.tag || {b}.tag LIKE '%b%'",
    ))


def _items(rng, aliases):
    if rng.random() < 0.1:
        return "*"
    pool = []
    for a in aliases:
        pool += [f"{a}.k", f"{a}.v", f"{a}.tag", f"upper({a}.tag)"]
    for a, b in zip(aliases, aliases[1:]):
        pool += [
            f"{b}.v - {a}.v",
            f"{a}.tag || {b}.tag",
            f"CASE WHEN {a}.v > {b}.v THEN 'up' ELSE 'down' END",
            f"coalesce({a}.tag, {b}.tag, 'none')",
        ]
    return ", ".join(rng.sample(pool, rng.randint(1, 3)))


def _window(rng, aliases, directions=("PRECEDING", "FOLLOWING")):
    if rng.random() < 0.4:
        return ""
    seconds = rng.choice((0, 0.5, 1, 2, 4))
    return f" OVER [{seconds} SECONDS {rng.choice(directions)} {rng.choice(aliases)}]"


def seq_case(rng, mode=None, dense=False):
    """A star-free SEQ; *dense* draws two or three stages over a long
    :func:`trace` ``(dense=True)``."""
    n = rng.choice((2, 2, 3) if dense else (2, 2, 3, 3, 4))
    aliases = ["x", "y", "z", "w"][:n]
    streams = rng.sample(["s0", "s1", "s2", "s3"], n)
    if n > 2 and mode != "CONSECUTIVE" and rng.random() < 0.15:
        streams[-1] = streams[0]  # one stream at two positions
    clause = f"SEQ({', '.join(aliases)}){_window(rng, aliases)}"
    if mode is not None:
        clause += f" MODE {mode}"
    terms = [clause]
    if rng.random() < 0.5:
        terms += [f"{aliases[0]}.k = {a}.k" for a in aliases[1:]]
    terms += [_single(rng, rng.choice(aliases)) for _ in range(rng.randint(0, 2))]
    terms += [
        _cross(rng, *sorted(rng.sample(aliases, 2), key=aliases.index))
        for _ in range(rng.randint(0, 2))
    ]
    froms = ", ".join(f"{s} AS {a}" for a, s in zip(aliases, streams))
    text = f"SELECT {_items(rng, aliases)} FROM {froms} WHERE {' AND '.join(terms)}"
    schemas = {s: SEQ_SCHEMA for s in sorted(set(streams))}
    if dense:
        return Case(schemas, [text], trace(rng, schemas, n=120, dense=True))
    return Case(schemas, [text], trace(rng, schemas))


# ---------------------------------------------------------------------------
# Star sequences SEQ(p*, c)
# ---------------------------------------------------------------------------

STAR_SCHEMA = "k int, t float, tag str"


def star_case(rng, mode=None):
    clause = "SEQ(p*, c)" + (f" MODE {mode}" if mode else "")
    terms = [clause]
    gap = rng.choice((0.5, 1, 2))
    terms += rng.choice((
        [f"p.t - p.previous.t <= {gap} SECONDS"],
        [f"p.t - p.previous.t < {gap}"],
        ["p.tag = p.previous.tag"],
        [],
    ))
    terms += rng.sample([
        f"c.t - LAST(p*).t <= {rng.choice((1, 3, 5))} SECONDS",
        f"COUNT(p*) <= {rng.choice((1, 2, 4))}",
        f"FIRST(p*).t > c.t - {rng.choice((2, 6))}",
        "c.tag <> ''",
        "p.k = c.k",
    ], rng.randint(0, 2))
    if rng.random() < 0.3:
        items = rng.sample(["p.t", "p.tag", "c.t", "c.tag"], rng.randint(2, 3))
        if not any(item.startswith("p.") for item in items):
            items.append("p.t")
    else:
        items = rng.sample(
            ["FIRST(p*).t", "LAST(p*).tag", "COUNT(p*)", "c.tag", "c.t"],
            rng.randint(1, 3),
        )
    text = (
        f"SELECT {', '.join(items)} FROM a AS p, b AS c "
        f"WHERE {' AND '.join(terms)}"
    )
    schemas = {"a": STAR_SCHEMA, "b": STAR_SCHEMA}
    return Case(schemas, [text], trace(rng, schemas, n=40, time_field="t"))


# ---------------------------------------------------------------------------
# EXCEPTION_SEQ / CLEVEL_SEQ
# ---------------------------------------------------------------------------


def exception_case(rng, mode=None):
    n = rng.choice((2, 3, 3))
    aliases = ["f", "g", "h"][:n]
    streams = rng.sample(["e0", "e1", "e2"], n)
    window = rng.choice((
        "",
        f" OVER [{rng.choice((1, 2, 5))} SECONDS FOLLOWING {aliases[0]}]",
        f" OVER [{rng.choice((1, 2, 5))} SECONDS FOLLOWING {aliases[0]}]",
        f" OVER [{rng.choice((2, 5))} SECONDS PRECEDING {aliases[-1]}]",
    ))
    operator = f"({', '.join(aliases)}){window}"
    if mode is not None:
        operator += f" MODE {mode}"
    clause = rng.choice((
        f"EXCEPTION_SEQ{operator}",
        f"(CLEVEL_SEQ{operator}) < {n}",
        f"(CLEVEL_SEQ{operator}) = {n}",
        f"(CLEVEL_SEQ{operator}) >= 1",
        f"2 > (CLEVEL_SEQ{operator})",
    ))
    terms = [clause]
    if rng.random() < 0.5:
        terms += [f"{aliases[0]}.k = {a}.k" for a in aliases[1:]]
    terms += rng.sample([
        f"{aliases[1]}.t - {aliases[0]}.t < {rng.choice((1, 3))}",
        f"{aliases[0]}.tag <> {aliases[1]}.tag",
        f"{aliases[1]}.tag IS NOT NULL",
        f"{aliases[0]}.tag LIKE '%a%'",
    ], rng.randint(0, 2))
    items = [f"{a}.{rng.choice(('tag', 't', 'k'))}" for a in aliases]
    text = f"SELECT {', '.join(items)} FROM " + ", ".join(
        f"{s} AS {a}" for a, s in zip(aliases, streams)
    ) + f" WHERE {' AND '.join(terms)}"
    schemas = {s: "k int, tag str, t float" for s in sorted(streams)}
    events = trace(rng, schemas, n=30, time_field="t")
    until = rng.choice((None, events[-1][2] + rng.choice((0.5, 3.0, 20.0))))
    return Case(schemas, [text], events, until=until)


# ---------------------------------------------------------------------------
# EXISTS: windowed (Ex. 1), table (Ex. 2), symmetric (Ex. 8)
# ---------------------------------------------------------------------------

READS = "rid str, tag str, t float"


def window_exists_case(rng):
    inner = rng.choice(("r", "r", "q"))
    if rng.random() < 0.25:
        window = f"ROWS {rng.choice((0, 1, 3))} PRECEDING"
    else:
        window = f"RANGE {rng.choice((0, 0.5, 1, 2))} SECONDS PRECEDING CURRENT"
    inner_terms = rng.choice((
        ["r2.rid = r1.rid", "r2.tag = r1.tag"],
        ["r2.tag = r1.tag"],
        ["r2.t > r1.t - 1"],
        ["r2.tag = upper(r1.tag)"],
        ["r2.tag = r1.tag", "r2.rid <> 'x'"],
        ["r2.tag = r1.tag || ''", "r2.t < r1.t"],
    ))
    negate = rng.choice(("NOT ", "NOT ", ""))
    outer = rng.choice(("", "r1.tag IS NOT NULL AND ", "r1.rid <> 'b' AND "))
    items = rng.choice(("*", "r1.tag, r1.t", "r1.rid"))
    text = (
        f"SELECT {items} FROM r AS r1 WHERE {outer}{negate}EXISTS "
        f"(SELECT * FROM TABLE({inner} OVER ({window})) AS r2 "
        f"WHERE {' AND '.join(inner_terms)})"
    )
    schemas = {"r": READS, "q": READS}
    return Case(schemas, [text], trace(rng, schemas, n=40, time_field="t"))


def table_exists_case(rng):
    schemas = {"r": "rid str, tag str, loc str, t float"}
    tables = {"m": "mtag str, mloc str, mt float"}
    statements = []
    if rng.random() < 0.5:
        rows = ", ".join(
            f"({_text(rng)}, {_text(rng)}, {rng.choice(('0.5', 'NULL', '2.0'))})"
            for _ in range(rng.randint(1, 3))
        )
        statements.append(f"INSERT INTO m VALUES {rows}")
    if rng.random() < 0.6:
        statements.append(
            "INSERT INTO m SELECT tag, loc, t FROM r WHERE NOT EXISTS "
            "(SELECT mtag FROM m WHERE mtag = tag AND mloc = loc)"
        )
    else:
        extra = rng.choice(("", " AND m.mt < r.t", " AND m.mloc <> r.loc"))
        negate = rng.choice(("NOT ", ""))
        statements.append(
            f"SELECT r.tag, r.t FROM r WHERE {negate}EXISTS "
            f"(SELECT * FROM m WHERE m.mtag = r.tag{extra})"
        )
    return Case(schemas, statements, trace(rng, schemas, n=30, time_field="t"),
                tables=tables)


def _text(rng):
    tag = rng.choice(TAGS + (None,))
    return "NULL" if tag is None else f"'{tag}'"


def symmetric_case(rng):
    schemas = {"d": "tag str, kind str, t float", "e": "tag str, kind str, t float"}
    inner = rng.choice(("d", "d", "e"))
    seconds = rng.choice((0.5, 1, 2, 4))
    window = rng.choice((
        f"{seconds} SECONDS PRECEDING AND FOLLOWING p",
        f"{seconds} SECONDS FOLLOWING p",
    ))
    extra = rng.choice(("", " AND i.tag <> p.tag", " AND i.t > p.t"))
    negate = rng.choice(("NOT ", "NOT ", ""))
    text = (
        f"SELECT p.tag, p.t FROM d AS p WHERE p.kind = 'person' AND {negate}EXISTS "
        f"(SELECT * FROM {inner} AS i OVER [{window}] "
        f"WHERE i.kind = 'item'{extra})"
    )
    events = trace(rng, schemas, n=30, time_field="t")
    for _, row, _ in events:
        row["kind"] = rng.choice(("person", "item", "item", None))
    until = rng.choice((None, events[-1][2] + 10.0))
    return Case(schemas, [text], events, until=until)


# ---------------------------------------------------------------------------
# Aggregates: running (Ex. 3), windowed, and one-shot grouped over tables
# ---------------------------------------------------------------------------


def running_aggregate_case(rng):
    schemas = {"s": SEQ_SCHEMA}
    items = rng.sample(
        ["count(*)", "count(v)", "sum(v)", "min(k)", "max(tag)", "avg(v)"],
        rng.randint(1, 3),
    )
    group = rng.random() < 0.5
    if group:
        items.insert(0, "tag")
    where = rng.choice(("", " WHERE v IS NOT NULL", " WHERE tag LIKE 'a%'", " WHERE k < 2"))
    source = rng.choice((
        "s", "s",
        f"TABLE(s OVER (RANGE {rng.choice((0, 1, 2.5))} SECONDS PRECEDING CURRENT)) AS w",
        f"TABLE(s OVER (ROWS {rng.choice((1, 3))} PRECEDING)) AS w",
    ))
    text = f"SELECT {', '.join(items)} FROM {source}{where}"
    if group:
        text += " GROUP BY tag"
    if rng.random() < 0.3:
        text += rng.choice((" HAVING count(*) > 1", " HAVING sum(v) IS NOT NULL"))
    return Case(schemas, [text], trace(rng, schemas, n=30))


def grouped_table_case(rng):
    tables = {"t": "g str, k int, v float"}
    rows = ", ".join(
        f"({_text(rng)}, {rng.choice(('0', '1', '2', 'NULL', '-3'))}, "
        f"{rng.choice(('0.5', '-2.25', 'NULL', '7.0', '1e3'))})"
        for _ in range(rng.randint(0, 8))
    )
    statements = [f"INSERT INTO t VALUES {rows}"] if rows else []
    items = rng.sample(
        ["count(*)", "count(v)", "sum(v)", "min(k)", "max(k)", "avg(v)", "sum(k)"],
        rng.randint(1, 3),
    )
    group = rng.random() < 0.6
    if group:
        items.insert(0, "g")
    query = f"SELECT {', '.join(items)} FROM t"
    query += rng.choice(("", " WHERE k > 0", " WHERE v IS NOT NULL", " WHERE g <> 'a'"))
    if group:
        query += " GROUP BY g"
    if rng.random() < 0.4:
        query += rng.choice((
            " HAVING count(*) > 1", " HAVING sum(v) IS NOT NULL", " HAVING min(k) < 1",
        ))
    statements.append(query)
    return Case({}, statements, [], tables=tables)


SHAPES = {
    "seq": seq_case,
    "star": star_case,
    "exception": exception_case,
    "window-exists": window_exists_case,
    "table-exists": table_exists_case,
    "symmetric": symmetric_case,
    "running-aggregate": running_aggregate_case,
    "grouped-table": grouped_table_case,
}
