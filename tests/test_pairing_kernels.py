"""Differential, mirror-upkeep, and checkpoint tests for the pairing tier.

The pairing-kernel tier batches the SEQ match-enumeration hot path: each
partition keeps a columnar mirror of its history, and cross-alias
conjuncts are lowered to per-stage candidate masks — Python columnar
closures (vector tier).  Masks only prune: every survivor re-runs the
scalar pairing check, so query output must be **byte-identical** to the
mask-free ``tier="closure"`` engine in values, timestamps and order.

Covered here, all under the ``pairing`` marker (the eight paper queries
run at every tier in ``tests/test_tier_matrix.py``):

* dense SEQ traces that actually engage the masks (UNRESTRICTED and
  RECENT, two- and four-stage chains), plus NULL-heavy, unicode /
  embedded-NUL, and Kleene-star traces,
* every predicate shape the column kernels lower (comparisons either way
  round, arithmetic, ``||``, NOT, unary minus, BETWEEN, IN, LIKE, IS NULL,
  Kleene AND/OR, constant terms, a raising operand), each as a
  cross-alias pairing conjunct,
* mirror upkeep under window eviction and the checkpoint round trip
  (mirrors are derived state: restore must rebuild them exactly),
* the ``execution_tier()`` pairing report.
"""

import pytest

from repro.core.operators.seq import SeqOperator
from repro.dsms.checkpoint import capture_engine_state, restore_engine_state
from repro.dsms.columns import ColumnBatch
from repro.dsms.engine import Engine
from repro.dsms.lowering import TIERS

pytestmark = pytest.mark.pairing


def run_tiers(setup, batches):
    """Run one workload through every execution tier.

    ``setup(engine)`` declares streams/queries and returns a list of
    zero-arg result accessors; ``batches`` is ``[(stream, [(values, ts),
    ...]), ...]`` fed via ``push_columns`` in order (so cross-stream
    interleaving is preserved batch-for-batch).  Asserts byte-identical
    results across tiers and returns ``(common_output, vector_engine)``.
    """
    per_tier = {}
    for tier in TIERS:
        engine = Engine(tier=tier)
        accessors = setup(engine)
        for stream, rows in batches:
            schema = engine.streams.get(stream).schema
            engine.push_columns(stream, ColumnBatch.from_rows(schema, rows))
        per_tier[tier] = [accessor() for accessor in accessors]
    baseline = per_tier["closure"]
    for tier, output in per_tier.items():
        assert output == baseline, f"tier {tier!r} diverged from closure"
    assert engine.tier == "vector"
    return baseline, engine


def results_of(handle):
    return lambda: [(t.values, t.ts, t.stream) for t in handle.results]


def seq_operators(engine):
    return [c for c in engine.checkpointables if isinstance(c, SeqOperator)]


def dense_seq_batches(n=400, tags=8, nulls=False):
    """Interleaved a/b batches dense enough to exceed the mask floor."""
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


class TestPairingMaskDifferentials:
    AB_DDL = (("a", "tag_id str, v float"), ("b", "tag_id str, w float"))

    def _setup(self, query):
        def setup(engine):
            for name, ddl in self.AB_DDL:
                engine.create_stream(name, ddl)
            return [results_of(engine.query(query))]

        return setup

    def test_unrestricted_masks_engage(self):
        query = (
            "SELECT X.tag_id, X.v, Y.w FROM a AS X, b AS Y "
            "WHERE SEQ(X, Y) AND X.tag_id = Y.tag_id AND Y.w - X.v > 0.3"
        )
        (out,), vector_engine = run_tiers(
            self._setup(query), dense_seq_batches()
        )
        assert out
        (op,) = seq_operators(vector_engine)
        assert op._pairing_plan is not None

    def test_vector_plan(self):
        engine = Engine()  # vector tier
        for name, ddl in self.AB_DDL:
            engine.create_stream(name, ddl)
        engine.query(
            "SELECT X.tag_id FROM a AS X, b AS Y "
            "WHERE SEQ(X, Y) AND X.tag_id = Y.tag_id AND Y.w - X.v > 0.3"
        )
        (op,) = seq_operators(engine)
        assert op._pairing_plan is not None
        # Stage 0 scans X's history while Y is bound: it must carry the
        # mask; mirrors are built exactly for plan-covered stages.
        assert op._pairing_plan[0] is not None
        assert op._mirror_specs is not None

    def test_recent_mode_masks(self):
        query = (
            "SELECT X.tag_id, X.v, Y.w FROM a AS X, b AS Y "
            "WHERE SEQ(X, Y) OVER [300 SECONDS PRECEDING Y] MODE RECENT "
            "AND X.tag_id = Y.tag_id AND Y.w - X.v > 0.3"
        )
        (out,), vector_engine = run_tiers(
            self._setup(query), dense_seq_batches()
        )
        assert out
        (op,) = seq_operators(vector_engine)
        assert op._use_cuts and op._pairing_plan is not None

    def test_four_stage_chain_masks_multiple_stages(self):
        query = """
        SELECT C1.tagid, C1.tagtime, C4.tagtime
        FROM C1, C2, C3, C4
        WHERE SEQ(C1, C2, C3, C4)
        AND C1.tagid=C2.tagid AND C1.tagid=C3.tagid AND C1.tagid=C4.tagid
        AND C4.tagtime - C1.tagtime < 900
        AND C3.tagtime - C2.tagtime < 400
        """

        def setup(engine):
            for name in ("c1", "c2", "c3", "c4"):
                engine.create_stream(
                    name, "readerid str, tagid str, tagtime float"
                )
            return [results_of(engine.query(query))]

        batches = []
        ts = 0.0
        for wave in range(30):
            for stream in ("c1", "c2", "c3", "c4"):
                step = 500.0 if wave % 5 == 2 and stream == "c3" else 25.0
                ts += step
                batches.append((stream, [
                    ({"readerid": stream, "tagid": f"pallet{wave % 6}",
                      "tagtime": ts}, ts)
                ]))
        (out,), vector_engine = run_tiers(setup, batches)
        assert out
        (op,) = seq_operators(vector_engine)
        plan = op._pairing_plan
        assert plan is not None
        # C4.tagtime - C1.tagtime is decidable at stage 0 (scanning C1
        # with C4 bound); C3.tagtime - C2.tagtime at stage 1.
        assert plan[0] is not None and plan[1] is not None

    def test_null_heavy_trace(self):
        query = (
            "SELECT X.tag_id, X.v, Y.w FROM a AS X, b AS Y "
            "WHERE SEQ(X, Y) AND X.tag_id = Y.tag_id AND Y.w - X.v > 0.2"
        )
        (out,), _ = run_tiers(
            self._setup(query), dense_seq_batches(nulls=True)
        )
        assert out

    def test_unicode_and_embedded_nul(self):
        """Unicode and embedded-NUL string operands leave the mirrors
        trusted, and every tier still agrees byte-for-byte."""
        query = (
            "SELECT X.tag_id, Y.tag_id FROM a AS X, b AS Y "
            "WHERE SEQ(X, Y) AND X.loc <> Y.loc AND Y.w - X.v > 0.1"
        )

        def setup(engine):
            engine.create_stream("a", "tag_id str, v float, loc str")
            engine.create_stream("b", "tag_id str, w float, loc str")
            return [results_of(engine.query(query))]

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
        (out,), vector_engine = run_tiers(setup, batches)
        assert out
        (op,) = seq_operators(vector_engine)
        for partition in op._partitions.values():
            if partition.mirrors is None:
                continue
            for store in partition.mirrors:
                if store is not None:
                    assert store.ok

    def test_kleene_star_trace(self):
        """Star sequences take the StarSeqOperator path — no mirrors,
        no masks — and must be untouched by the pairing tier."""
        query = """
        SELECT FIRST(R1*).tagtime, COUNT(R1*), R2.tagid, R2.tagtime
        FROM R1, R2
        WHERE SEQ(R1*, R2) MODE CHRONICLE
        AND R2.tagtime - LAST(R1*).tagtime <= 5 SECONDS
        AND R1.tagtime - R1.previous.tagtime <= 1 SECONDS
        """

        def setup(engine):
            engine.create_stream("r1", "readerid str, tagid str, tagtime float")
            engine.create_stream("r2", "readerid str, tagid str, tagtime float")
            return [results_of(engine.query(query))]

        batches = []
        ts = 0.0
        for case in range(10):
            items = [({"readerid": "r1", "tagid": f"p{case}_{item}",
                       "tagtime": ts + item * 0.4}, ts + item * 0.4)
                     for item in range(2 + case % 4)]
            ts += len(items) * 0.4
            batches.append(("r1", items))
            ts += 2.0
            batches.append(
                ("r2", [({"readerid": "r2", "tagid": f"case{case}",
                          "tagtime": ts}, ts)])
            )
            ts += 12.0
        (out,), vector_engine = run_tiers(setup, batches)
        assert len(out) == 10
        assert not seq_operators(vector_engine)  # star path, not SeqOperator


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
#: as a conjunct over both aliases so it lowers to the stage-0 pairing
#: mask (X's history scanned while Y is bound).
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
    """Each shape's kernels run over real partition histories and the
    vector tier emits what the mask-free ``tier="closure"`` emits."""

    @pytest.mark.parametrize(
        "conjunct", PAIRING_SHAPES.values(), ids=PAIRING_SHAPES.keys()
    )
    def test_shape_matches_closure(self, conjunct):
        query = (
            "SELECT X.tag_id, X.v, X.k, Y.w, Y.k FROM a AS X, b AS Y "
            f"WHERE SEQ(X, Y) AND X.tag_id = Y.tag_id AND ({conjunct})"
        )

        def setup(engine):
            engine.create_stream("a", "tag_id str, v float, k int, x any, loc str")
            engine.create_stream("b", "tag_id str, w float, k int, loc str")
            return [results_of(engine.query(query))]

        (out,), vector_engine = run_tiers(setup, shape_batches())
        assert out
        (op,) = seq_operators(vector_engine)
        assert op._pairing_plan is not None and op._pairing_plan[0] is not None


class TestMirrorUpkeep:
    QUERY = (
        "SELECT X.tag_id, X.v, Y.w FROM a AS X, b AS Y "
        "WHERE SEQ(X, Y) OVER [200 SECONDS PRECEDING Y] "
        "AND X.tag_id = Y.tag_id AND Y.w - X.v > 0.2"
    )

    def _build(self):
        engine = Engine()
        engine.create_stream("a", "tag_id str, v float")
        engine.create_stream("b", "tag_id str, w float")
        handle = engine.query(self.QUERY)
        return engine, handle

    @staticmethod
    def _assert_mirrors_exact(op):
        checked = 0
        for partition in op._partitions.values():
            assert partition.mirrors is not None
            for store, history in zip(
                partition.mirrors, partition.histories
            ):
                if store is None:
                    continue
                checked += 1
                assert store.ok
                assert store.timestamps == [t.ts for t in history]
                for j, column in enumerate(store.columns):
                    assert column == [t.values[j] for t in history]
        assert checked  # the plan covered at least one stage somewhere

    def test_eviction_keeps_mirrors_in_sync(self):
        engine, _handle = self._build()
        for stream, rows in dense_seq_batches():
            for values, ts in rows:
                engine.push(stream, values, ts=ts)
        (op,) = seq_operators(engine)
        assert op._pairing_plan is not None
        # The 200 s window over a 1600 s trace has evicted from the
        # front of every surviving history; the mirrors must have
        # tracked those evictions row for row.
        assert any(
            partition.removed[0] > 0
            for partition in op._partitions.values()
        )
        self._assert_mirrors_exact(op)

    def test_checkpoint_roundtrip_rebuilds_mirrors(self):
        batches = dense_seq_batches()
        half = len(batches) // 2

        source, source_handle = self._build()
        for stream, rows in batches[:half]:
            for values, ts in rows:
                source.push(stream, values, ts=ts)
        state = capture_engine_state(source)

        restored, restored_handle = self._build()
        restore_engine_state(restored, state)

        (src_op,) = seq_operators(source)
        (dst_op,) = seq_operators(restored)
        assert dst_op._pairing_plan is not None
        self._assert_mirrors_exact(dst_op)
        # The rebuilt mirrors must equal the source's, column for
        # column.
        assert set(src_op._partitions) == set(dst_op._partitions)
        for key, src_part in src_op._partitions.items():
            dst_part = dst_op._partitions[key]
            for src_store, dst_store in zip(
                src_part.mirrors, dst_part.mirrors
            ):
                if src_store is None:
                    assert dst_store is None
                    continue
                assert dst_store.columns == src_store.columns
                assert dst_store.timestamps == src_store.timestamps

        # And the restored engine must keep producing exactly what the
        # uninterrupted source produces.
        seen = len(source_handle.results)
        for stream, rows in batches[half:]:
            for values, ts in rows:
                source.push(stream, values, ts=ts)
                restored.push(stream, values, ts=ts)
        tail = [
            (t.values, t.ts) for t in source_handle.results[seen:]
        ]
        assert [
            (t.values, t.ts) for t in restored_handle.results
        ] == tail
        assert tail  # the continuation actually matched something


class TestReporting:
    def test_tier_report_carries_pairing_ladder(self):
        assert Engine().execution_tier()["pairing"] == {
            "requested": "vector", "active": "vector",
        }
        assert Engine(tier="closure").execution_tier()["pairing"] == {
            "requested": "closure", "active": "closure",
        }

    def test_sharded_tier_report_carries_pairing(self):
        from repro.dsms.sharding import ShardedEngine

        sharded = ShardedEngine(n_shards=2, tier="closure")
        tier = sharded.execution_tier()
        assert tier["pairing"] == {"requested": "closure", "active": "closure"}
