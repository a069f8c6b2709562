"""Random single-stream filters x random traces, held against the oracle.

Every configuration we ship must emit exactly the oracle's rows: ``Engine``
fed as rows and as ``ColumnBatch``es, ``MultiQueryEngine``, and
``ShardedEngine`` on the serial executor (plus one parallel case).  A
``MultiQueryEngine`` holding one filter with its gated literal swapped
across a column's value domain (one shared plan) is refereed too.
"""

import ast
import random

import pytest

from repro.core.language import parse_program
from repro.dsms.columns import ColumnBatch
from repro.dsms.engine import Engine
from repro.dsms.multi_engine import MultiQueryEngine
from repro.dsms.schema import Schema
from repro.dsms.sharding import ShardedEngine

from .filter import run_filter

SCHEMA = "k int, v float, tag str"
KS = (0, 1, -1, 7, 2**53, 2**53 + 1, 2**63 - 1, -(2**63))
VS = (0.5, -2.25, 7.0, -0.0, 2.0**53, 1e3)
TAGS = ("a", "ガ-dock", "été", "", "a_b", "%", "ab")
INT_LITERALS = ("0", "1", "7", "9007199254740993", "9223372036854775807")
FLOAT_LITERALS = ("0.5", "2.25", "9007199254740992.0", "1e3", "NULL")
TEXT_LITERALS = ("'a'", "'ガ-dock'", "'été'", "''", "'ab'")
PATTERNS = ("'a%'", "'%b'", "'_'", "'ガ%'", "'%\\_%'", "'a_b'", "'%'", "''")


def trace(rng, n=30):
    rows, ts = [], 0.0
    for _ in range(n):
        row = {
            "k": rng.choice(KS), "v": rng.choice(VS), "tag": rng.choice(TAGS),
        }
        for field in row:
            if rng.random() < 0.25:
                row[field] = None
        rows.append((row, ts))
        ts += rng.choice((0.0, 0.0, 0.5, 1.0))  # ties are common
    return rows


def number(rng, depth):
    pick = rng.randrange(5 if depth else 3)
    if pick == 0:
        return rng.choice(("k", "s.k", "v", "s.v"))
    if pick == 1:
        return rng.choice(INT_LITERALS + FLOAT_LITERALS)
    if pick == 2:
        return f"-{rng.choice(INT_LITERALS + ('k', 'v'))}"
    if pick == 3:
        return f"-({number(rng, depth - 1)})"
    op = rng.choice("+-*/%")
    return f"({number(rng, depth - 1)} {op} {number(rng, depth - 1)})"


def text(rng, depth):
    pick = rng.randrange(3 if depth else 2)
    if pick == 0:
        return rng.choice(("tag", "s.tag"))
    if pick == 1:
        return rng.choice(TEXT_LITERALS)
    left = rng.choice((text, number))(rng, depth - 1)
    return f"({left} || {text(rng, depth - 1)})"


def predicate(rng, depth=2):
    pick = rng.randrange(9 if depth else 6)
    nt = rng.choice(("", "NOT "))
    op = rng.choice(("=", "<>", "!=", "<", "<=", ">", ">="))
    if pick == 0:
        return f"{number(rng, 1)} {op} {number(rng, 1)}"
    if pick == 1:
        return f"{text(rng, 1)} {op} {text(rng, 1)}"
    if pick == 2:
        operand = rng.choice((number, text))(rng, 1)
        return f"{operand} IS {nt}NULL"
    if pick == 3:
        low, high = number(rng, 0), number(rng, 0)
        return f"{number(rng, 1)} {nt}BETWEEN {low} AND {high}"
    if pick == 4:
        options = ", ".join(number(rng, 0) for _ in range(rng.randrange(1, 4)))
        return f"{number(rng, 1)} {nt}IN ({options})"
    if pick == 5:
        return f"{text(rng, 1)} {nt}LIKE {rng.choice(PATTERNS)}"
    if pick == 6:
        return f"NOT ({predicate(rng, depth - 1)})"
    joiner = rng.choice(("AND", "OR"))
    return f"({predicate(rng, depth - 1)} {joiner} {predicate(rng, depth - 1)})"


def query(rng):
    items = ", ".join(
        f"{rng.choice((number, text))(rng, 1)} AS c{i}"
        for i in range(rng.randrange(1, 4))
    )
    return f"SELECT {items} FROM s WHERE {predicate(rng)}"


def feed(engine, rows, columnar):
    if not columnar:
        engine.push_batch("s", rows)
        return
    schema = Schema.parse(SCHEMA)
    for start in range(0, len(rows), 8):
        batch = ColumnBatch.from_rows(schema, rows[start:start + 8])
        engine.push_columns("s", batch)


def pairs(tuples):
    return [(tup.values, tup.ts) for tup in tuples]


def outputs(text_, rows, executors=("serial",)):
    """Rows per configuration, keyed by a readable label."""
    out = {}
    for columnar in (False, True):
        engine = Engine()
        engine.create_stream("s", SCHEMA)
        handle = engine.query(text_)
        feed(engine, rows, columnar)
        out["columns" if columnar else "rows"] = pairs(handle.results)
    multi = MultiQueryEngine()
    multi.create_stream("s", SCHEMA)
    subscription = multi.register(text_)
    feed(multi, rows, columnar=False)
    out["multi"] = pairs(subscription.results)
    for executor in executors:
        with ShardedEngine(2, executor=executor) as sharded:
            sharded.create_stream("s", SCHEMA)
            handle = sharded.query(text_)
            feed(sharded, rows, columnar=executor == "parallel")
            sharded.flush()
            out[executor] = pairs(handle.results)
    return out


def check(text_, rows, **kwargs):
    (statement,) = parse_program(text_)
    expected = run_filter(statement, rows)
    for label, got in outputs(text_, rows, **kwargs).items():
        assert got == expected, f"{label} diverged on {text_}"
    return expected


@pytest.mark.parametrize("seed", range(150))
def test_random_filter_matches_oracle(seed):
    rng = random.Random(seed)
    check(query(rng), trace(rng))


#: Literal spellings per gated column, over and beyond the trace's values:
#: ints on the float column, and literals no reading carries.
GATED = {
    "k": ("0", "1", "7", "9007199254740993", "9223372036854775807", "3"),
    "v": ("0.5", "7.0", "7", "9007199254740992.0", "1e3", "0", "4.5"),
    "tag": tuple(f"'{tag}'" for tag in TAGS) + ("'zz'",),
}


@pytest.mark.parametrize("seed", range(60))
def test_gated_literal_variants_match_oracle(seed):
    rng = random.Random(seed)
    rows = trace(rng)
    column = rng.choice(sorted(GATED))
    gate = rng.choice((f"{column} = {{}}", f"{{}} = s.{column}"))
    items = ", ".join(
        f"{rng.choice((number, text))(rng, 1)} AS c{i}"
        for i in range(rng.randrange(1, 3))
    ) + f", {column} AS g"
    rest = rng.choice(("", f" AND ({predicate(rng)})"))
    template = f"SELECT {items} FROM s WHERE {gate}{rest}"
    literals = GATED[column] + (GATED[column][0],)  # one literal twice
    texts = [template.format(literal) for literal in literals]
    multi = MultiQueryEngine()
    multi.create_stream("s", SCHEMA)
    subscriptions = [multi.register(text_) for text_ in texts]
    feed(multi, rows, columnar=False)
    for text_, subscription in zip(texts, subscriptions):
        (statement,) = parse_program(text_)
        assert pairs(subscription.results) == run_filter(statement, rows), text_
    if not rest:  # one plan per literal type
        kinds = {type(ast.literal_eval(literal)) for literal in literals}
        assert multi.stats()["shared_plans"] == len(kinds), template
    multi.close()


@pytest.mark.transport
def test_parallel_shards_match_oracle():
    rng = random.Random(7)
    assert check(
        query(rng), trace(rng, n=60), executors=("serial", "parallel")
    )


class TestPinnedReadings:
    """Divergences the oracle found, each pinned with the reading we take
    (see docs/LANGUAGE.md)."""

    ROWS = [
        ({"k": 5, "v": None, "tag": "a"}, 0.0),
        ({"k": 2, "v": 1.0, "tag": None}, 1.0),
        ({"k": 2, "v": None, "tag": "b"}, 2.0),
    ]

    def test_not_between_with_a_null_bound(self):
        # 5 NOT BETWEEN NULL AND 3 = NOT (5 >= NULL AND 5 <= 3)
        #                          = NOT (NULL AND FALSE) = TRUE.
        got = check(
            "SELECT k AS c0 FROM s WHERE k NOT BETWEEN v AND 3", self.ROWS
        )
        assert got == [((5,), 0.0)]

    def test_between_with_a_null_bound_is_false_when_the_other_fails(self):
        got = check(
            "SELECT k AS c0 FROM s WHERE NOT (k BETWEEN 3 AND v)", self.ROWS
        )
        assert got == [((2,), 1.0), ((2,), 2.0)]
