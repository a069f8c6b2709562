"""The SEQ pairing loop on dense traces, held against the oracle.

Star-free SEQ pairs candidates with compiled closures: each cross-alias
conjunct runs once per candidate through ``pairing_prebound``, over
stage histories walked by predecessor cuts.  These traces make those
histories long (few keys, re-read bursts) and every query here must
emit the oracle's rows (``tests/oracle``) on ``Engine``,
``MultiQueryEngine`` and ``ShardedEngine(2)``:

* dense UNRESTRICTED and RECENT two-stage chains, a four-stage chain
  with cross terms at two stages, and NULL-heavy, unicode /
  embedded-NUL and Kleene-star traces,
* every predicate shape of the row-filter differentials (comparisons
  either way round, arithmetic, ``||``, NOT, unary minus, BETWEEN, IN,
  LIKE, IS NULL, Kleene AND/OR, constant terms, a raising operand), each
  as a cross-alias pairing conjunct,
* window eviction over long histories and the checkpoint round trip.
"""

import pytest

from repro.core.operators.seq import SeqOperator
from repro.dsms.engine import Engine

from .oracle.engines import check, run_restored
from .oracle.generate import Case
from .oracle.relational import run_program

AB_STREAMS = {"a": "tag_id str, v float", "b": "tag_id str, w float"}


def records(batches):
    """``[(stream, [(row, ts), ...]), ...]`` as one ``(stream, row, ts)``
    trace, in feed order."""
    return [(stream, row, ts) for stream, rows in batches for row, ts in rows]


def seq_operators(engine):
    return [c for c in engine.checkpointables if isinstance(c, SeqOperator)]


def dense_seq_batches(n=400, tags=8, nulls=False):
    """Interleaved a/b batches: each tag's history grows to dozens of rows."""
    batches = []
    ts = 0.0
    for start in range(0, n, 100):
        a_rows = []
        b_rows = []
        for i in range(100):
            k = start + i
            v = None if nulls and k % 7 == 0 else ((k * 13) % 100) / 100.0
            w = None if nulls and k % 5 == 0 else ((k * 29) % 100) / 100.0
            a_rows.append(({"tag_id": f"t{k % tags}", "v": v}, ts + i))
            b_rows.append(
                ({"tag_id": f"t{(k * 3) % tags}", "w": w}, ts + 150.0 + i)
            )
        batches.append(("a", a_rows))
        batches.append(("b", b_rows))
        ts += 400.0
    return batches


def check_ab(query, batches):
    (out,) = check(Case(AB_STREAMS, [query], records(batches)))
    assert out


class TestDenseTraces:
    def test_unrestricted(self):
        check_ab(
            "SELECT X.tag_id, X.v, Y.w FROM a AS X, b AS Y "
            "WHERE SEQ(X, Y) AND X.tag_id = Y.tag_id AND Y.w - X.v > 0.3",
            dense_seq_batches(),
        )

    def test_recent_mode(self):
        check_ab(
            "SELECT X.tag_id, X.v, Y.w FROM a AS X, b AS Y "
            "WHERE SEQ(X, Y) OVER [300 SECONDS PRECEDING Y] MODE RECENT "
            "AND X.tag_id = Y.tag_id AND Y.w - X.v > 0.3",
            dense_seq_batches(),
        )

    def test_four_stage_chain(self):
        query = """
        SELECT C1.tagid, C1.tagtime, C4.tagtime
        FROM C1, C2, C3, C4
        WHERE SEQ(C1, C2, C3, C4)
        AND C1.tagid=C2.tagid AND C1.tagid=C3.tagid AND C1.tagid=C4.tagid
        AND C4.tagtime - C1.tagtime < 900
        AND C3.tagtime - C2.tagtime < 400
        """
        trace = []
        ts = 0.0
        for wave in range(30):
            for stream in ("c1", "c2", "c3", "c4"):
                step = 500.0 if wave % 5 == 2 and stream == "c3" else 25.0
                ts += step
                trace.append((stream, {"readerid": stream,
                                       "tagid": f"pallet{wave % 6}",
                                       "tagtime": ts}, ts))
        streams = {
            name: "readerid str, tagid str, tagtime float"
            for name in ("c1", "c2", "c3", "c4")
        }
        (out,) = check(Case(streams, [query], trace))
        assert out

    def test_null_heavy_trace(self):
        check_ab(
            "SELECT X.tag_id, X.v, Y.w FROM a AS X, b AS Y "
            "WHERE SEQ(X, Y) AND X.tag_id = Y.tag_id AND Y.w - X.v > 0.2",
            dense_seq_batches(nulls=True),
        )

    def test_unicode_and_embedded_nul(self):
        """No partition key: every anchor pairs against the whole history,
        comparing unicode and embedded-NUL text."""
        query = (
            "SELECT X.tag_id, Y.tag_id FROM a AS X, b AS Y "
            "WHERE SEQ(X, Y) AND X.loc <> Y.loc AND Y.w - X.v > 0.1"
        )
        streams = {
            "a": "tag_id str, v float, loc str",
            "b": "tag_id str, w float, loc str",
        }
        locs = ("ガ-dock", "café", "yard", "b\x00elt", None)
        batches = []
        ts = 0.0
        for start in range(0, 200, 50):
            a_rows = [({"tag_id": f"t{(start + i) % 4}",
                        "v": ((start + i) * 13 % 100) / 100.0,
                        "loc": locs[(start + i) % 5]}, ts + i)
                      for i in range(50)]
            b_rows = [({"tag_id": f"t{(start + i) % 4}",
                        "w": ((start + i) * 29 % 100) / 100.0,
                        "loc": locs[(start + i) % 3]}, ts + 80.0 + i)
                      for i in range(50)]
            batches.append(("a", a_rows))
            batches.append(("b", b_rows))
            ts += 200.0
        (out,) = check(Case(streams, [query], records(batches)))
        assert out

    def test_kleene_star_trace(self):
        query = """
        SELECT FIRST(R1*).tagtime, COUNT(R1*), R2.tagid, R2.tagtime
        FROM R1, R2
        WHERE SEQ(R1*, R2) MODE CHRONICLE
        AND R2.tagtime - LAST(R1*).tagtime <= 5 SECONDS
        AND R1.tagtime - R1.previous.tagtime <= 1 SECONDS
        """
        streams = {
            "r1": "readerid str, tagid str, tagtime float",
            "r2": "readerid str, tagid str, tagtime float",
        }
        trace = []
        ts = 0.0
        for case in range(10):
            for item in range(2 + case % 4):
                trace.append(("r1", {"readerid": "r1",
                                     "tagid": f"p{case}_{item}",
                                     "tagtime": ts}, ts))
                ts += 0.4
            ts += 2.0
            trace.append(("r2", {"readerid": "r2", "tagid": f"case{case}",
                                 "tagtime": ts}, ts))
            ts += 12.0
        (out,) = check(Case(streams, [query], trace))
        assert len(out) == 10


def shape_batches(n=160, tags=4, block=40):
    """Dense a/b batches with NULLs in every non-key column, unicode and
    embedded-NUL text, int64-edge ints, and a string ``x`` on every
    ``k = 7`` row (``X.x + ...`` raises there and only there)."""
    huge = 1 << 61
    ks = (1, 2, 5, None, 7, huge, -huge, 3)
    locs = ("dock", "ガ-dock", "yard", None, "d\x00ck")
    batches = []
    ts = 0.0
    for start in range(0, n, block):
        a_rows = []
        b_rows = []
        for i in range(block):
            j = start + i
            k = ks[j % 8]
            a_rows.append(({
                "tag_id": f"t{j % tags}",
                "v": None if j % 7 == 0 else (j * 13 % 100) / 100.0,
                "k": k,
                "x": "oops" if k == 7 else (None if j % 9 == 0 else j % 12),
                "loc": locs[j % 5],
            }, ts + i))
            b_rows.append(({
                "tag_id": f"t{(j * 3) % tags}",
                "w": None if j % 6 == 0 else (j * 29 % 100) / 100.0,
                "k": ks[(j * 5) % 8],
                "loc": locs[(j * 2) % 5],
            }, ts + block + 10.0 + i))
        batches.append(("a", a_rows))
        batches.append(("b", b_rows))
        ts += 2 * block + 40.0
    return batches


#: The predicate shapes of the row-filter differentials, each rewritten
#: as a conjunct over both aliases, so it is decided while pairing (X's
#: history scanned with Y bound).
PAIRING_SHAPES = {
    "literal-left": "0.5 < X.v + Y.w",
    "arith-by-constant": "X.v * 2 > Y.w",
    "division-and-concat": "(X.v / 2 < Y.w AND X.loc || Y.loc <> 'dockdock')",
    "not": "NOT (X.k = Y.k)",
    "unary-minus": "-X.k > -Y.k",
    "between": "X.v BETWEEN Y.w - 0.5 AND Y.w",
    "not-between": "X.v NOT BETWEEN Y.w - 0.5 AND Y.w",
    "in-with-null": "X.k + Y.k IN (1, 2, 5, 8, NULL)",
    "not-in": "X.k - Y.k NOT IN (0, 3)",
    "huge-int-vs-float": "X.k + Y.k > 100.5",
    "like-or": "Y.loc LIKE 'd%' OR Y.w > X.v",
    "unicode-like": "X.loc NOT LIKE 'ガ%' OR X.loc = Y.loc",
    "is-null": "(X.v IS NULL OR X.loc IS NOT NULL) AND X.v <> Y.w",
    "or-over-nested-and": "(X.v < 0.5 AND X.loc = Y.loc) OR Y.w IS NULL",
    "constant-null": "X.v + Y.w > NULL",
    "constant-terms": "(1 = 1 AND X.v < Y.w) OR (1 = 2 AND X.k = Y.k)",
    "raising-guarded": "(X.k <> 7 AND X.x + Y.k > 9) OR Y.w < 0.1",
    "raising-unguarded": "(X.v < 2.0 AND X.x + Y.k > 9) OR Y.w < 0.1",
}


class TestPairingConjunctShapes:
    """Each shape decided per candidate over real partition histories."""

    @pytest.mark.parametrize(
        "conjunct", PAIRING_SHAPES.values(), ids=PAIRING_SHAPES.keys()
    )
    def test_shape_matches_oracle(self, conjunct):
        query = (
            "SELECT X.tag_id, X.v, X.k, Y.w, Y.k FROM a AS X, b AS Y "
            f"WHERE SEQ(X, Y) AND X.tag_id = Y.tag_id AND ({conjunct})"
        )
        streams = {
            "a": "tag_id str, v float, k int, x any, loc str",
            "b": "tag_id str, w float, k int, loc str",
        }
        (out,) = check(Case(streams, [query], records(shape_batches())))
        assert out


class TestWindowedHistories:
    QUERY = (
        "SELECT X.tag_id, X.v, Y.w FROM a AS X, b AS Y "
        "WHERE SEQ(X, Y) OVER [200 SECONDS PRECEDING Y] "
        "AND X.tag_id = Y.tag_id AND Y.w - X.v > 0.2"
    )

    def test_eviction_matches_oracle(self):
        trace = records(dense_seq_batches())
        check(Case(AB_STREAMS, [self.QUERY], trace))
        # The 200 s window over a 1600 s trace evicted from the front of
        # the surviving histories while the loop kept pairing.
        engine = Engine()
        for name, spec in AB_STREAMS.items():
            engine.create_stream(name, spec)
        engine.query(self.QUERY)
        engine.run_trace(trace)
        (op,) = seq_operators(engine)
        assert any(
            partition.removed[0] > 0 for partition in op._partitions.values()
        )

    def test_checkpoint_roundtrip_matches_oracle(self):
        trace = records(dense_seq_batches())
        expected = run_program(self.QUERY, AB_STREAMS, {}, trace)
        cut = len(trace) // 2
        assert run_restored([self.QUERY], AB_STREAMS, trace, cut) == expected
        # The continuation after the cut actually matched something.
        before = run_program(self.QUERY, AB_STREAMS, {}, trace[:cut])
        assert len(expected[0]) > len(before[0])
