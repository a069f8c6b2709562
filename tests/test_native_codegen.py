"""Differential, fallback-chain, and compile-cache tests for the native tier.

The native codegen tier compiles admission predicates to C kernels; its
contract is the same as the vectorized tier's, only stricter to verify:
whatever the host (compiler present, absent, cache warm, cache corrupted),
query output must be **byte-identical** to the interpreted engine — same
values, same timestamps, same order.  Every differential here runs its
workload at all four ``tier`` values and asserts exact equality, on
predicates the C tier actually compiles and on adversarial value mixes
(NULLs, huge ints, unicode LIKE subjects); the eight paper queries run
the same way in ``tests/test_tier_matrix.py``.
"""

import glob
import os

import pytest

from repro.dsms import native as native_mod
from repro.dsms.columns import ColumnBatch
from repro.dsms.engine import Engine
from repro.dsms.lowering import TIERS
from repro.dsms.native import NativeState, find_compiler
from repro.dsms.native_codegen import lower_kernel, translation_unit
from repro.dsms.schema import Schema

pytestmark = pytest.mark.native

HAS_CC = find_compiler() is not None
requires_cc = pytest.mark.skipif(
    not HAS_CC, reason="no C compiler on this host"
)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Every test gets a private kernel cache directory."""
    monkeypatch.setenv(native_mod.CACHE_ENV, str(tmp_path / "kernel-cache"))


def spaced(rows, start=0.0, step=1.0):
    return [(values, start + index * step) for index, values in enumerate(rows)]


def run_tiers(setup, batches, post=None):
    """Run one workload through all four execution tiers.

    ``setup(engine)`` declares streams/queries and returns a list of
    zero-arg result accessors; ``batches`` is ``[(stream, [(values, ts),
    ...]), ...]`` fed via ``push_columns`` in order (so cross-stream
    interleaving is preserved batch-for-batch).  Asserts byte-identical
    results across tiers and returns ``(common_output, native_engine)``.
    """
    per_tier = {}
    native_engine = None
    for tier in TIERS:
        engine = Engine(tier=tier)
        accessors = setup(engine)
        for stream, rows in batches:
            schema = engine.streams.get(stream).schema
            engine.push_columns(stream, ColumnBatch.from_rows(schema, rows))
        if post is not None:
            post(engine)
        per_tier[tier] = [accessor() for accessor in accessors]
        if tier == "native":
            native_engine = engine
    baseline = per_tier["interpreted"]
    for tier, output in per_tier.items():
        assert output == baseline, f"tier {tier!r} diverged from interpreted"
    return baseline, native_engine


def results_of(handle):
    return lambda: [(t.values, t.ts, t.stream) for t in handle.results]


# ---------------------------------------------------------------------------
# Native-engagement differentials: predicates the C tier actually compiles
# ---------------------------------------------------------------------------


class TestNativeKernelDifferentials:
    SCHEMA = "tag_id int, pressure float, loc str"

    def _filter_workload(self, n=600):
        locations = ("dock", "yard", "belt", None)
        rows = []
        for i in range(n):
            rows.append(
                ({"tag_id": None if i % 17 == 0 else i,
                  "pressure": None if i % 13 == 0 else (i * 37 % 100) / 100.0,
                  "loc": locations[i % 4]}, float(i))
            )
        return [("readings", rows[start:start + 100])
                for start in range(0, n, 100)]

    def test_strict_filter_mask(self):
        def setup(engine):
            engine.create_stream("readings", self.SCHEMA)
            return [results_of(engine.query(
                "SELECT tag_id, pressure FROM readings AS R "
                "WHERE R.pressure < 0.4 AND R.loc = 'dock' "
                "AND R.tag_id % 3 <> 1"
            ))]

        (out,), native_engine = run_tiers(setup, self._filter_workload())
        assert out
        if HAS_CC:
            stats = native_engine.native_state.stats()
            assert stats["kernels_built"] + stats["cache_hits"] >= 1
            assert stats["masked_batches"] > 0
            assert stats["lowering_fallbacks"] == 0

    def test_like_and_between_and_inlist(self):
        def setup(engine):
            engine.create_stream("readings", "tid str, w float, k int")
            return [results_of(engine.query(
                "SELECT tid FROM readings AS R WHERE tid LIKE '20.%.ca' "
                "AND R.w BETWEEN 0.2 AND 0.8 AND R.k IN (1, 2, 5, NULL)"
            ))]

        rows = []
        for i in range(400):
            suffix = ("ca", "fb", "ガ")[i % 3]
            rows.append(
                ({"tid": f"20.{i}.{suffix}",
                  "w": None if i % 11 == 0 else (i % 10) / 10.0,
                  "k": i % 7}, float(i))
            )
        batches = [("readings", rows[start:start + 80])
                   for start in range(0, 400, 80)]
        (out,), native_engine = run_tiers(setup, batches)
        assert out
        if HAS_CC:
            assert native_engine.native_state.stats()["masked_batches"] > 0

    def test_seq_lenient_mask(self):
        def setup(engine):
            engine.create_stream("a", "tag_id str, v float")
            engine.create_stream("b", "tag_id str, w float")
            return [results_of(engine.query(
                "SELECT X.tag_id, X.v, Y.w FROM a AS X, b AS Y "
                "WHERE SEQ(X, Y) AND X.tag_id = Y.tag_id "
                "AND X.v < 0.3 AND Y.w > 0.6"
            ))]

        batches = []
        ts = 0.0
        for start in range(0, 600, 100):
            a_rows = [({"tag_id": f"t{(start + i) * 7 % 40}",
                        "v": ((start + i) * 13 % 100) / 100.0}, ts + i)
                      for i in range(100)]
            b_rows = [({"tag_id": f"t{(start + i) * 11 % 40}",
                        "w": ((start + i) * 29 % 100) / 100.0}, ts + 150.0 + i)
                      for i in range(100)]
            batches.append(("a", a_rows))
            batches.append(("b", b_rows))
            ts += 400.0
        (out,), native_engine = run_tiers(setup, batches)
        assert out
        if HAS_CC:
            assert native_engine.native_state.stats()["masked_batches"] > 0

    def test_huge_int_taint_over_admits_safely(self):
        """|int| > 2^53 comparisons taint to UNKNOWN in C (always admit);
        the scalar re-check downstream restores exact semantics."""

        def setup(engine):
            engine.create_stream("readings", "x int, p float")
            return [results_of(engine.query(
                "SELECT x FROM readings AS R WHERE R.x > 100.5"
            ))]

        huge = 1 << 61
        rows = [({"x": value, "p": 0.0}, float(i)) for i, value in enumerate(
            [huge, -huge, 3, 200, None, huge + 1, 7, 101]
        )]
        (out,), _ = run_tiers(setup, [("readings", rows)])
        assert [values[0] for values, _t, _s in out] == [huge, 200, huge + 1, 101]

    def test_udf_predicate_falls_back_per_predicate(self):
        """A UDF conjunct cannot lower to C: only that predicate falls
        back (counted), the engine and every other query keep working."""

        def setup(engine):
            engine.register_udf("halve", lambda v: v / 2.0)
            # Separate streams: a hook-less subscriber forces its own
            # stream to materialize fully, so the plain query needs its
            # own stream to demonstrate masking continues elsewhere.
            engine.create_stream("readings", self.SCHEMA)
            engine.create_stream("readings2", self.SCHEMA)
            return [
                results_of(engine.query(
                    "SELECT tag_id FROM readings AS R "
                    "WHERE halve(R.pressure) < 0.2"
                )),
                results_of(engine.query(
                    "SELECT tag_id FROM readings2 AS R WHERE R.pressure < 0.4"
                )),
            ]

        batches = list(self._filter_workload(n=300))
        # Streams share the global clock: replay the same rows on the
        # second stream at strictly later timestamps.
        batches += [
            ("readings2", [(values, ts + 1000.0) for values, ts in rows])
            for _stream, rows in batches
        ]
        (udf_out, plain_out), native_engine = run_tiers(setup, batches)
        assert udf_out and plain_out
        if HAS_CC:
            stats = native_engine.native_state.stats()
            assert stats["lowering_fallbacks"] >= 1  # the UDF predicate
            assert stats["masked_batches"] > 0  # the plain one still masks


# ---------------------------------------------------------------------------
# Fallback chain: engines behave identically on a compiler-less host
# ---------------------------------------------------------------------------


class TestFallbackChain:
    QUERY = "SELECT tag_id FROM readings AS R WHERE R.pressure < 0.5"
    SCHEMA = "tag_id int, pressure float"

    def _run(self, tier="vector"):
        engine = Engine(tier=tier)
        engine.create_stream("readings", self.SCHEMA)
        handle = engine.query(self.QUERY)
        schema = engine.streams.get("readings").schema
        rows = [({"tag_id": i, "pressure": (i * 7 % 10) / 10.0}, float(i))
                for i in range(50)]
        engine.push_columns("readings", ColumnBatch.from_rows(schema, rows))
        return engine, [(t.values, t.ts) for t in handle.results]

    def test_disable_env_masks_compiler_out(self, monkeypatch):
        monkeypatch.setenv(native_mod.DISABLE_ENV, "1")
        engine, out = self._run("native")
        tier = engine.execution_tier()
        assert tier["requested"] == "native"
        assert tier["active"] == "vector"
        assert tier["compiler"] is None
        assert engine.native_state.stats()["kernels_built"] == 0
        _, reference = self._run()
        assert out == reference

    def test_monkeypatched_compiler_discovery(self, monkeypatch):
        monkeypatch.setattr(native_mod, "find_compiler", lambda: None)
        engine, out = self._run("native")
        assert engine.execution_tier()["active"] == "vector"
        _, reference = self._run()
        assert out == reference

    @requires_cc
    def test_tier_report_with_compiler(self):
        engine, _ = self._run("native")
        tier = engine.execution_tier()
        assert tier["active"] == "native"
        assert tier["compiler"]
        assert tier["native"]["masked_batches"] > 0

    def test_sharded_and_multi_engine_tier_reports(self, monkeypatch):
        from repro.dsms.multi_engine import MultiQueryEngine
        from repro.dsms.sharding import ShardedEngine

        monkeypatch.setenv(native_mod.DISABLE_ENV, "1")
        sharded = ShardedEngine(n_shards=2, tier="native")
        assert sharded.execution_tier()["active"] == "vector"
        multi = MultiQueryEngine(tier="native")
        assert multi.execution_tier()["active"] == "vector"


# ---------------------------------------------------------------------------
# Compile cache: content-addressed .so reuse and corruption recovery
# ---------------------------------------------------------------------------


@requires_cc
class TestCompileCache:
    QUERY = (
        "SELECT tag_id FROM readings AS R "
        "WHERE R.pressure < 0.25 AND R.tag_id > 10"
    )
    SCHEMA = "tag_id int, pressure float"

    def _run_native(self):
        engine = Engine(tier="native")
        engine.create_stream("readings", self.SCHEMA)
        handle = engine.query(self.QUERY)
        schema = engine.streams.get("readings").schema
        rows = [({"tag_id": i, "pressure": (i * 3 % 100) / 100.0}, float(i))
                for i in range(80)]
        engine.push_columns("readings", ColumnBatch.from_rows(schema, rows))
        return engine, [(t.values, t.ts) for t in handle.results]

    def test_second_engine_reuses_cached_so(self):
        first, out_first = self._run_native()
        stats_first = first.native_state.stats()
        assert stats_first["kernels_built"] == 1
        assert stats_first["cache_hits"] == 0

        second, out_second = self._run_native()
        stats_second = second.native_state.stats()
        assert stats_second["kernels_built"] == 0
        assert stats_second["cache_hits"] == 1
        assert out_second == out_first

        cache_dir = os.environ[native_mod.CACHE_ENV]
        assert len(glob.glob(os.path.join(cache_dir, "*.so"))) == 1

    def test_corrupted_cache_entry_rebuilt(self):
        # Prime the cache from a *separate process*: corrupting a .so
        # that is still dlopen'ed by this process would invalidate live
        # mappings (and glibc caches handles by path), which is not the
        # scenario — on-disk corruption happens between runs.
        import subprocess
        import sys
        import textwrap

        script = textwrap.dedent(
            f"""
            from repro.dsms.columns import ColumnBatch
            from repro.dsms.engine import Engine

            engine = Engine(tier="native")
            engine.create_stream("readings", {self.SCHEMA!r})
            engine.query({self.QUERY!r})
            schema = engine.streams.get("readings").schema
            rows = [(
                {{"tag_id": i, "pressure": (i * 3 % 100) / 100.0}}, float(i)
            ) for i in range(10)]
            engine.push_columns(
                "readings", ColumnBatch.from_rows(schema, rows)
            )
            assert engine.native_state.stats()["kernels_built"] == 1
            """
        )
        subprocess.run(
            [sys.executable, "-c", script], check=True, env=os.environ.copy()
        )

        cache_dir = os.environ[native_mod.CACHE_ENV]
        (so_path,) = glob.glob(os.path.join(cache_dir, "*.so"))
        with open(so_path, "wb") as fh:
            fh.write(b"this is not a shared object")

        engine, out = self._run_native()
        stats = engine.native_state.stats()
        assert stats["kernels_built"] == 1  # rebuilt, not loaded
        # The rebuilt artifact replaced the corrupted entry in place.
        assert glob.glob(os.path.join(cache_dir, "*.so")) == [so_path]
        reference = Engine()
        reference.create_stream("readings", self.SCHEMA)
        handle = reference.query(self.QUERY)
        schema = reference.streams.get("readings").schema
        rows = [({"tag_id": i, "pressure": (i * 3 % 100) / 100.0}, float(i))
                for i in range(80)]
        reference.push_columns(
            "readings", ColumnBatch.from_rows(schema, rows)
        )
        assert out == [(t.values, t.ts) for t in handle.results]

    def test_distinct_predicates_get_distinct_kernels(self):
        self._run_native()
        other = Engine(tier="native")
        other.create_stream("readings", self.SCHEMA)
        other.query("SELECT tag_id FROM readings AS R WHERE R.pressure > 0.9")
        schema = other.streams.get("readings").schema
        other.push_columns(
            "readings",
            ColumnBatch.from_rows(schema, [({"tag_id": 1, "pressure": 0.95},
                                            0.0)]),
        )
        assert other.native_state.stats()["kernels_built"] == 1
        cache_dir = os.environ[native_mod.CACHE_ENV]
        assert len(glob.glob(os.path.join(cache_dir, "*.so"))) == 2


# ---------------------------------------------------------------------------
# Lowering unit checks
# ---------------------------------------------------------------------------


class TestLowering:
    SCHEMA = Schema.parse("tag_id int, pressure float, loc str")

    def _terms(self, text):
        from repro.core.language.parser import parse_expression
        from repro.dsms.expressions import And

        predicate = parse_expression(text)
        if isinstance(predicate, And):
            return list(predicate.operands)
        return [predicate]

    def test_deterministic_source_enables_cache_sharing(self):
        terms = self._terms("R.pressure < 0.5 AND R.loc = 'dock'")
        spec_a = lower_kernel(terms, self.SCHEMA, "r", "strict")
        spec_b = lower_kernel(terms, self.SCHEMA, "r", "strict")
        assert spec_a is not None and spec_b is not None
        assert translation_unit([spec_a]) == translation_unit([spec_b])

    def test_strict_and_lenient_differ_only_in_admit(self):
        terms = self._terms("R.pressure < 0.5")
        strict = lower_kernel(terms, self.SCHEMA, "r", "strict")
        lenient = lower_kernel(terms, self.SCHEMA, "r", "lenient")
        assert strict.source != lenient.source

    def test_udf_term_bails(self):
        from repro.dsms.expressions import Column, FunctionCall, BinaryOp, Literal

        call = FunctionCall("halve", [Column("pressure", "r")])
        term = BinaryOp("<", call, Literal(0.2))
        assert lower_kernel([term], self.SCHEMA, "r", "strict") is None

    def test_unknown_column_bails(self):
        terms = self._terms("R.bogus < 0.5")
        assert lower_kernel(terms, self.SCHEMA, "r", "strict") is None

    @requires_cc
    def test_native_state_counts_runtime_fallback(self):
        """A column value outside int64 range at runtime abandons that
        batch (never wrong output) and increments runtime_fallbacks."""
        from repro.dsms.native import native_admission_mask

        state = NativeState()
        terms = self._terms("R.tag_id > 5")
        mask = native_admission_mask(terms, self.SCHEMA, "r", "strict", state)
        assert mask is not None
        good = mask([[1, 7, None], [0.0, 0.0, 0.0], ["a", "b", "c"]],
                    [0.0, 1.0, 2.0], 3)
        assert list(good) == [0, 1, 0]
        over = mask([[1, 1 << 80], [0.0, 0.0], ["a", "b"]], [0.0, 1.0], 2)
        assert over is None
        assert state.stats()["runtime_fallbacks"] == 1
