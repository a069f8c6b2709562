"""Property-based tests (hypothesis) for core invariants.

Each property encodes a semantic guarantee the paper's constructs rely on:
mode equivalences, purging soundness, longest-match, SQL/EPC agreement,
window retention, and clock monotonicity.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.baselines import JoinSequenceBaseline
from repro.core.language import parse_program
from repro.core.operators import (
    PairingMode,
    SeqArg,
    make_sequence_operator,
)
from repro.dsms import Engine, Schema, Tuple, VirtualClock
from repro.dsms.windows import RangeWindowBuffer
from repro.epc import EpcCode, EpcPattern, pattern_to_sql

from .oracle.temporal import run_temporal

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

#: A trace over k streams: list of (stream_index, gap) pairs.
def trace_strategy(n_streams: int, max_len: int = 40):
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=n_streams - 1),
            st.floats(min_value=0.1, max_value=3.0, allow_nan=False),
        ),
        min_size=0,
        max_size=max_len,
    )


def build_engine(n_streams: int) -> Engine:
    engine = Engine()
    for index in range(n_streams):
        engine.create_stream(f"s{index}", "tagid str, tagtime float")
    return engine


def run_trace(engine: Engine, raw: list[tuple[int, float]]) -> list[tuple[str, float]]:
    t = 0.0
    fed = []
    for stream_index, gap in raw:
        t += gap
        name = f"s{stream_index}"
        engine.push(name, {"tagid": "x", "tagtime": t}, ts=t)
        fed.append((name, t))
    return fed


# ---------------------------------------------------------------------------
# SEQ mode properties
# ---------------------------------------------------------------------------


class TestSeqProperties:
    @given(trace_strategy(3))
    @settings(max_examples=60, deadline=None)
    def test_unrestricted_equals_join_baseline(self, raw):
        """Footnote 3: UNRESTRICTED SEQ == the n-way join formulation."""
        streams = ["s0", "s1", "s2"]
        engine = build_engine(3)
        got = []
        make_sequence_operator(
            engine, [SeqArg(s) for s in streams],
            mode=PairingMode.UNRESTRICTED,
            on_match=got.append,
        )
        join = JoinSequenceBaseline(engine, streams)
        run_trace(engine, raw)
        op_keys = sorted(m.key() for m in got)
        join_keys = sorted(
            tuple(((b[s].ts, b[s].seq),) for s in streams)
            for b in join.matches
        )
        assert op_keys == join_keys

    @given(trace_strategy(3))
    @settings(max_examples=60, deadline=None)
    def test_recent_and_chronicle_subset_of_unrestricted(self, raw):
        """Every RECENT/CHRONICLE event is also an UNRESTRICTED event."""
        results = {}
        for mode in (PairingMode.UNRESTRICTED, PairingMode.RECENT,
                     PairingMode.CHRONICLE):
            engine = build_engine(3)
            got = []
            make_sequence_operator(
                engine, [SeqArg(f"s{i}") for i in range(3)], mode=mode,
                on_match=got.append,
            )
            run_trace(engine, raw)
            # Compare by timestamp chains: timestamps are strictly
            # increasing (gaps >= 0.1), so they identify tuples across the
            # three independent engine runs.
            results[mode] = {
                tuple(t.ts for t in m.all_tuples()) for m in got
            }
        assert results[PairingMode.RECENT] <= results[PairingMode.UNRESTRICTED]
        assert results[PairingMode.CHRONICLE] <= results[
            PairingMode.UNRESTRICTED
        ]

    @given(trace_strategy(3))
    @settings(max_examples=60, deadline=None)
    def test_recent_at_most_one_match_per_anchor(self, raw):
        engine = build_engine(3)
        op = make_sequence_operator(
            engine, [SeqArg(f"s{i}") for i in range(3)],
            mode=PairingMode.RECENT,
        )
        fed = run_trace(engine, raw)
        anchors = sum(1 for name, __ in fed if name == "s2")
        assert op.matches_emitted <= anchors

    @given(trace_strategy(3))
    @settings(max_examples=60, deadline=None)
    def test_recent_purge_is_sound(self, raw):
        """Aggressive purging never changes RECENT results.

        Reference: recompute the backward-greedy chain per anchor from the
        *complete* trace prefix, with no purging at all.
        """
        engine = build_engine(3)
        matches = []
        make_sequence_operator(
            engine, [SeqArg(f"s{i}") for i in range(3)],
            mode=PairingMode.RECENT,
            on_match=matches.append,
        )
        fed = run_trace(engine, raw)

        expected = []
        seen: dict[str, list[float]] = {"s0": [], "s1": [], "s2": []}
        for name, ts in fed:
            if name == "s2":
                # most recent s1 strictly before ts, then most recent s0
                # strictly before that.
                s1_candidates = [u for u in seen["s1"] if u < ts]
                if s1_candidates:
                    s1 = max(s1_candidates)
                    s0_candidates = [u for u in seen["s0"] if u < s1]
                    if s0_candidates:
                        expected.append((max(s0_candidates), s1, ts))
            seen[name].append(ts)
        got = [
            tuple(t.ts for t in m.all_tuples()) for m in matches
        ]
        assert got == expected

    @given(trace_strategy(3))
    @settings(max_examples=60, deadline=None)
    def test_chronicle_consumes_each_tuple_once(self, raw):
        engine = build_engine(3)
        got = []
        make_sequence_operator(
            engine, [SeqArg(f"s{i}") for i in range(3)],
            mode=PairingMode.CHRONICLE,
            on_match=got.append,
        )
        run_trace(engine, raw)
        used: set[tuple[float, int]] = set()
        for match in got:
            for tup in match.all_tuples():
                key = (tup.ts, tup.seq)
                assert key not in used, "tuple reused under CHRONICLE"
                used.add(key)

    @given(trace_strategy(2, max_len=30))
    @settings(max_examples=60, deadline=None)
    def test_consecutive_matches_are_adjacent(self, raw):
        engine = build_engine(2)
        got = []
        make_sequence_operator(
            engine, [SeqArg("s0"), SeqArg("s1")],
            mode=PairingMode.CONSECUTIVE,
            on_match=got.append,
        )
        fed = run_trace(engine, raw)
        order = [ts for __, ts in fed]
        for match in got:
            stamps = [t.ts for t in match.all_tuples()]
            i = order.index(stamps[0])
            assert order[i : i + 2] == stamps  # adjacent in joint history

    @given(trace_strategy(2, max_len=30))
    @settings(max_examples=40, deadline=None)
    def test_matches_are_time_ordered(self, raw):
        for mode in PairingMode:
            engine = build_engine(2)
            got = []
            make_sequence_operator(
                engine, [SeqArg("s0"), SeqArg("s1")], mode=mode,
                on_match=got.append,
            )
            run_trace(engine, raw)
            for match in got:
                stamps = [(t.ts, t.seq) for t in match.all_tuples()]
                assert stamps == sorted(stamps)


class TestStarProperties:
    @given(
        st.lists(st.floats(min_value=0.05, max_value=3.0, allow_nan=False),
                 min_size=1, max_size=25),
    )
    @settings(max_examples=60, deadline=None)
    def test_runs_partition_the_product_stream(self, gaps):
        """With a gap threshold, CHRONICLE star runs never share or drop
        product tuples: every product lands in exactly one emitted run when
        a case reading follows each run."""
        engine = Engine()
        engine.create_stream("p", "tagid str, tagtime float")
        engine.create_stream("c", "tagid str, tagtime float")
        got = []
        make_sequence_operator(
            engine,
            [SeqArg("p", starred=True, max_gap=1.0), SeqArg("c")],
            mode=PairingMode.CHRONICLE,
            on_match=got.append,
        )
        t = 0.0
        stamps = []
        for gap in gaps:
            t += gap
            engine.push("p", {"tagid": f"p{t:g}", "tagtime": t}, ts=t)
            stamps.append(t)
        # Enough case readings to drain every run.
        for i in range(len(gaps)):
            t += 10.0
            engine.push("c", {"tagid": f"c{i}", "tagtime": t}, ts=t)
        emitted = [t.ts for m in got for t in m.run_for("p")]
        assert sorted(emitted) == stamps

    @given(st.integers(min_value=1, max_value=10))
    @settings(max_examples=30, deadline=None)
    def test_longest_match_count(self, n_products):
        engine = Engine()
        engine.create_stream("p", "tagid str, tagtime float")
        engine.create_stream("c", "tagid str, tagtime float")
        got = []
        make_sequence_operator(
            engine, [SeqArg("p", starred=True), SeqArg("c")],
            mode=PairingMode.CHRONICLE,
            on_match=got.append,
        )
        for i in range(n_products):
            engine.push("p", {"tagid": f"p{i}", "tagtime": float(i)},
                        ts=float(i))
        engine.push("c", {"tagid": "c", "tagtime": 100.0}, ts=100.0)
        assert len(got) == 1
        assert got[0].count("p") == n_products


# ---------------------------------------------------------------------------
# Window buffer properties
# ---------------------------------------------------------------------------

SCHEMA = Schema.of("v")


class TestWindowProperties:
    @given(
        st.lists(st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
                 min_size=1, max_size=50),
        st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_range_buffer_invariant(self, gaps, duration):
        buffer = RangeWindowBuffer(duration)
        t = 0.0
        for gap in gaps:
            t += gap
            buffer.append(Tuple(SCHEMA, ["x"], t))
            held = list(buffer)
            assert all(t - duration <= tup.ts <= t for tup in held)
            # nothing inside the window was evicted:
            assert held[0].ts >= t - duration

    @given(
        st.lists(st.floats(min_value=0.01, max_value=2.0, allow_nan=False),
                 min_size=2, max_size=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_tuples_preceding_consistency(self, gaps):
        buffer = RangeWindowBuffer(None)
        tuples = []
        t = 0.0
        for gap in gaps:
            t += gap
            tup = Tuple(SCHEMA, ["x"], t)
            buffer.append(tup)
            tuples.append(tup)
        anchor = tuples[-1]
        duration = t / 2
        got = list(buffer.tuples_preceding(anchor, duration))
        expected = [
            u for u in tuples[:-1] if anchor.ts - duration <= u.ts
        ]
        assert got == expected


# ---------------------------------------------------------------------------
# EPC properties
# ---------------------------------------------------------------------------


class TestEpcProperties:
    @given(
        st.integers(min_value=0, max_value=(1 << 28) - 1),
        st.integers(min_value=0, max_value=(1 << 24) - 1),
        st.integers(min_value=0, max_value=(1 << 36) - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_text_roundtrip(self, company, product, serial):
        code = EpcCode(company, product, serial)
        assert EpcCode.parse(str(code)) == code

    @given(
        st.integers(min_value=0, max_value=(1 << 28) - 1),
        st.integers(min_value=0, max_value=(1 << 24) - 1),
        st.integers(min_value=0, max_value=(1 << 36) - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_gid96_roundtrip(self, company, product, serial):
        code = EpcCode(company, product, serial)
        assert EpcCode.from_gid96(code.to_gid96()) == code

    @given(
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=0, max_value=20000),
        st.integers(min_value=0, max_value=10000),
        st.integers(min_value=0, max_value=10000),
    )
    @settings(max_examples=100, deadline=None)
    def test_pattern_matches_definition(self, company, product, serial,
                                        lo_raw, width):
        lo = lo_raw
        hi = lo_raw + width
        pattern = EpcPattern(f"20.*.[{lo}-{hi}]")
        code = EpcCode(company, product, serial)
        expected = company == 20 and lo <= serial <= hi
        assert pattern.matches(code) is expected

    @given(st.integers(min_value=0, max_value=9999),
           st.integers(min_value=0, max_value=9999))
    @settings(max_examples=40, deadline=None)
    def test_sql_translation_agrees(self, serial, lo_raw):
        lo, hi = sorted((lo_raw, lo_raw + 500))
        pattern = EpcPattern(f"20.*.[{lo}-{hi}]")
        sql = pattern_to_sql(pattern)
        engine = Engine()
        engine.create_stream("readings", "tid str")
        handle = engine.query(f"SELECT tid FROM readings WHERE {sql}")
        epc = f"20.1.{serial}"
        engine.push("readings", {"tid": epc}, ts=0.0)
        assert (len(handle.rows()) == 1) is pattern.matches(epc)


# ---------------------------------------------------------------------------
# Dedup idempotence
# ---------------------------------------------------------------------------


class TestDedupProperties:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["t1", "t2", "t3"]),
                st.floats(min_value=0.05, max_value=2.5, allow_nan=False),
            ),
            min_size=1, max_size=30,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_dedup_output_has_no_window_duplicates(self, raw):
        """Example 1's output never contains two same-key tuples within 1s
        — which also makes the filter idempotent."""
        engine = Engine()
        engine.create_stream(
            "readings", "reader_id str, tag_id str, read_time float"
        )
        engine.create_stream(
            "cleaned_readings", "reader_id str, tag_id str, read_time float"
        )
        engine.query("""
            INSERT INTO cleaned_readings
            SELECT * FROM readings AS r1 WHERE NOT EXISTS
              (SELECT * FROM TABLE(readings OVER
                 (RANGE 1 SECONDS PRECEDING CURRENT)) AS r2
               WHERE r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id)
        """)
        out = engine.collect("cleaned_readings")
        t = 0.0
        for tag, gap in raw:
            t += gap
            engine.push(
                "readings",
                {"reader_id": "r", "tag_id": tag, "read_time": t},
                ts=t,
            )
        by_tag: dict[str, list[float]] = {}
        for tup in out.results:
            by_tag.setdefault(tup["tag_id"], []).append(tup.ts)
        for stamps in by_tag.values():
            for a, b in zip(stamps, stamps[1:]):
                # Strictly-greater up to one float ulp: `anchor - 1.0`
                # computed inside the window probe may differ from `b - a`
                # by rounding at the exact boundary.
                assert b - a > 1.0 - 1e-9


# ---------------------------------------------------------------------------
# Clock properties
# ---------------------------------------------------------------------------


class TestClockProperties:
    @given(
        st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                 min_size=1, max_size=30),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_timer_fires_exactly_once_in_order(self, deadlines):
        clock = VirtualClock()
        fired: list[float] = []
        for deadline in deadlines:
            clock.schedule(deadline, fired.append)
        clock.advance(max(deadlines) + 1)
        assert fired == sorted(deadlines)

    @given(
        st.lists(st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
                 min_size=1, max_size=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_incremental_advance_equals_single_advance(self, gaps):
        deadlines = []
        t = 0.0
        for gap in gaps:
            t += gap
            deadlines.append(t)
        single = VirtualClock()
        fired_single: list[float] = []
        for d in deadlines:
            single.schedule(d, fired_single.append)
        single.advance(t + 1)

        stepped = VirtualClock()
        fired_stepped: list[float] = []
        for d in deadlines:
            stepped.schedule(d, fired_stepped.append)
        u = 0.0
        for gap in gaps:
            u += gap / 2
            stepped.advance(u)
            u += gap / 2
            stepped.advance(u)
        stepped.advance(t + 1)
        assert fired_single == fired_stepped


class TestStarReferenceModel:
    """A hand-built star operator against the oracle's reading of
    SEQ(A*, B) MODE CHRONICLE (``tests/oracle/temporal.py``)."""

    @staticmethod
    def reference(events, max_gap):
        """events: list of ('a'|'b', ts).  Returns list of (run, b_ts)."""
        (statement,) = parse_program(
            "SELECT p.tagtime, c.tagtime FROM a AS p, b AS c "
            "WHERE SEQ(p*, c) MODE CHRONICLE "
            f"AND p.tagtime - p.previous.tagtime <= {max_gap!r}"
        )
        trace = [(kind, {"tagid": kind, "tagtime": ts}, ts) for kind, ts in events]
        fields = {"a": ["tagid", "tagtime"], "b": ["tagid", "tagtime"]}
        emitted = []
        for (run_ts, b_ts), _ in run_temporal(statement, trace, fields):
            if not emitted or emitted[-1][1] != b_ts:
                emitted.append(([], b_ts))
            emitted[-1][0].append(run_ts)
        return emitted

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b"]),
                st.floats(min_value=0.05, max_value=3.0, allow_nan=False),
            ),
            min_size=1, max_size=40,
        ),
        st.floats(min_value=0.2, max_value=2.0, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_chronicle_star_matches_reference(self, raw, max_gap):
        events = []
        t = 0.0
        for kind, gap in raw:
            t += gap
            events.append((kind, t))

        engine = Engine()
        engine.create_stream("a", "tagid str, tagtime float")
        engine.create_stream("b", "tagid str, tagtime float")
        from repro.core.operators import (
            PairingMode, SeqArg, make_sequence_operator,
        )

        matches = []
        make_sequence_operator(
            engine,
            [SeqArg("a", starred=True, max_gap=max_gap), SeqArg("b")],
            mode=PairingMode.CHRONICLE,
            on_match=matches.append,
        )
        for kind, ts in events:
            engine.push(kind, {"tagid": kind, "tagtime": ts}, ts=ts)

        got = [
            ([t.ts for t in m.run_for("a")], m.tuple_for("b").ts)
            for m in matches
        ]
        expected = self.reference(events, max_gap)
        assert got == expected

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b"]),
                st.floats(min_value=0.05, max_value=3.0, allow_nan=False),
            ),
            min_size=1, max_size=40,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_chronicle_star_runs_disjoint(self, raw):
        events = []
        t = 0.0
        for kind, gap in raw:
            t += gap
            events.append((kind, t))
        engine = Engine()
        engine.create_stream("a", "tagid str, tagtime float")
        engine.create_stream("b", "tagid str, tagtime float")
        from repro.core.operators import (
            PairingMode, SeqArg, make_sequence_operator,
        )

        got = []
        make_sequence_operator(
            engine,
            [SeqArg("a", starred=True, max_gap=1.0), SeqArg("b")],
            mode=PairingMode.CHRONICLE,
            on_match=got.append,
        )
        for kind, ts in events:
            engine.push(kind, {"tagid": kind, "tagtime": ts}, ts=ts)
        seen: set[float] = set()
        for match in got:
            for tup in match.run_for("a"):
                assert tup.ts not in seen  # no A tuple packed twice
                seen.add(tup.ts)
