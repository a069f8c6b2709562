"""Failure-injection integration tests.

Real RFID feeds are messy: duplicated reports, missed reads, timestamp
jitter (out-of-order delivery), and ghost tags.  These tests drive the
paper's queries through that mess and check the behaviour degrades the way
the design intends — reorder buffers restore order, dedup absorbs
duplicates, missed reads lose only the affected sequences, ghosts never
crash expression evaluation.
"""

import random

import pytest

from repro.dsms import Engine
from repro.dsms.errors import OutOfOrderError
from repro.rfid import ReaderModel, build_quality_check, quality_check_workload


class TestOutOfOrderDelivery:
    def test_strict_stream_rejects_jitter(self):
        engine = Engine()
        engine.create_stream("s", "tagid str")
        engine.push("s", {"tagid": "a"}, ts=5.0)
        with pytest.raises(OutOfOrderError):
            engine.stream("s").push_row(["b"], ts=4.0)

    def test_reorder_buffer_restores_seq_detection(self):
        """Jittered arrivals within the slack are re-sorted before the
        operator sees them, so SEQ still fires."""
        engine = Engine()
        engine.create_stream("a", "tagid str, tagtime float",
                             allow_out_of_order=True, reorder_slack=2.0)
        engine.create_stream("b", "tagid str, tagtime float")
        handle = engine.query(
            "SELECT A.tagtime, B.tagtime FROM a AS A, b AS B WHERE SEQ(A, B)"
        )
        # Two a-tuples arrive swapped (1.4 before 1.0) within the slack.
        stream = engine.stream("a")
        stream.push_row(["x", 1.4], ts=1.4)
        stream.push_row(["x", 1.0], ts=1.0)
        stream.flush()
        engine.push("b", {"tagid": "x", "tagtime": 5.0}, ts=5.0)
        # Both a tuples were delivered, in timestamp order.
        assert len(handle.rows()) == 2
        assert handle.rows()[0]["tagtime"] in (1.0, 1.4)

    def test_out_of_order_error_carries_structured_context(self):
        engine = Engine()
        engine.create_stream("s", "tagid str")
        engine.push("s", {"tagid": "a"}, ts=5.0)
        with pytest.raises(OutOfOrderError) as excinfo:
            engine.stream("s").push_row(["b"], ts=4.0)
        err = excinfo.value
        assert err.stream == "s"
        assert err.ts == 4.0
        assert err.last_ts == 5.0

    def test_equal_ts_reorder_is_deterministic(self):
        """Jittered tuples that tie on timestamp leave the reorder buffer
        in arrival order, identically across runs with the same seed."""

        def run():
            rng = random.Random(42)
            engine = Engine()
            stream = engine.create_stream(
                "s", "tagid str", allow_out_of_order=True, reorder_slack=5.0
            )
            got = engine.collect("s")
            # Batches of ties at ts 1.0, 2.0, ... arrive shuffled within
            # the slack; ties carry distinct ids so order is observable.
            rows = [
                (f"t{batch}.{i}", float(batch))
                for batch in range(1, 5)
                for i in range(4)
            ]
            rng.shuffle(rows)
            for tagid, ts in rows:
                stream.push_row([tagid], ts=ts)
            stream.flush()
            arrival = [tagid for tagid, _ts in rows]
            return [t["tagid"] for t in got], arrival

        first, arrival_a = run()
        second, arrival_b = run()
        assert first == second
        assert arrival_a == arrival_b
        # Timestamps are released in order, and tied tuples keep their
        # arrival order (the buffer sorts stably on ts alone).
        by_batch = {}
        for tagid in first:
            by_batch.setdefault(tagid.split(".")[0], []).append(tagid)
        assert sorted(first, key=lambda t: float(t[1])) == first
        for batch, members in by_batch.items():
            in_arrival = [t for t in arrival_a if t.startswith(batch + ".")]
            assert members == in_arrival

    def test_stale_tuples_dropped_beyond_slack(self):
        engine = Engine()
        stream = engine.create_stream(
            "s", "tagid str", allow_out_of_order=True, reorder_slack=1.0
        )
        got = engine.collect("s")
        stream.push_row(["fresh"], ts=100.0)
        stream.push_row(["ancient"], ts=1.0)  # hopeless: dropped
        stream.flush()
        assert [t["tagid"] for t in got] == ["fresh"]


class TestNoisyReaders:
    def make_noisy_trace(self, miss_rate=0.0, drop_rate=0.0, ghost_rate=0.0,
                         seed=5):
        """Products pass four checkpoints; each checkpoint reader is noisy."""
        rng = random.Random(seed)
        readers = [
            ReaderModel(f"c{i+1}", miss_rate=miss_rate, drop_rate=drop_rate,
                        ghost_rate=ghost_rate, rng=random.Random(seed + i))
            for i in range(4)
        ]
        records = []
        complete = set()
        t = 0.0
        for product in range(30):
            tag = f"20.9.{9000 + product}"
            seen_all = True
            t0 = t
            for step, reader in enumerate(readers):
                t0 += rng.uniform(2.0, 5.0)
                reports = reader.observe(tag, t0)
                if not any(r.tag_id == tag for r in reports):
                    seen_all = False
                for report in reports:
                    records.append((
                        f"c{step+1}",
                        {"readerid": report.reader_id, "tagid": report.tag_id,
                         "tagtime": report.ts},
                        report.ts,
                    ))
            if seen_all:
                complete.add(tag)
            t += rng.uniform(1.0, 3.0)
        records.sort(key=lambda record: record[2])
        return records, complete

    def run_quality(self, records):
        engine = Engine()
        for name in ("c1", "c2", "c3", "c4"):
            engine.create_stream(name, "readerid str, tagid str, tagtime float")
        handle = engine.query("""
            SELECT C1.tagid FROM c1, c2, c3, c4
            WHERE SEQ(C1, C2, C3, C4) MODE RECENT
            AND C1.tagid=C2.tagid AND C1.tagid=C3.tagid AND C1.tagid=C4.tagid
        """)
        engine.run_trace(records)
        return {row["tagid"] for row in handle.rows()}

    def test_clean_feed_detects_everything(self):
        records, complete = self.make_noisy_trace()
        assert self.run_quality(records) == complete

    def test_missed_reads_lose_only_affected_products(self):
        records, complete = self.make_noisy_trace(miss_rate=0.3)
        detected = self.run_quality(records)
        # Nothing phantom, and exactly the fully-read products detected.
        assert detected == complete
        assert len(complete) < 30  # the noise actually bit

    def test_ghost_reads_are_harmless(self):
        records, complete = self.make_noisy_trace(ghost_rate=0.5)
        detected = self.run_quality(records)
        # Ghost readings only ADD tuples under other tag ids; with per-tag
        # partitioning they cannot remove a true product's detection.
        assert complete <= detected
        # Any extra detections would be ghost coincidences (a corrupted tag
        # completing all four steps) — possible in principle, absent here.
        assert detected - complete == set()

    def test_duplicates_do_not_double_count_chronicle(self):
        """CHRONICLE consumes per match, so duplicate checkpoint reports
        cannot manufacture extra sequence completions per tag."""
        records, complete = self.make_noisy_trace(drop_rate=0.0)
        # Duplicate every record (same timestamps: stable order preserved).
        doubled = []
        for stream, row, ts in records:
            doubled.append((stream, dict(row), ts))
            doubled.append((stream, dict(row), ts))
        engine = Engine()
        for name in ("c1", "c2", "c3", "c4"):
            engine.create_stream(name, "readerid str, tagid str, tagtime float")
        handle = engine.query("""
            SELECT C1.tagid FROM c1, c2, c3, c4
            WHERE SEQ(C1, C2, C3, C4) MODE RECENT
            AND C1.tagid=C2.tagid AND C1.tagid=C3.tagid AND C1.tagid=C4.tagid
        """)
        engine.run_trace(doubled)
        detected = {row["tagid"] for row in handle.rows()}
        assert detected == complete  # same set, even if more match events


class TestDedupFrontEnd:
    def test_dedup_feeds_clean_stream_into_seq(self):
        """The paper's composition: Example 1 dedup -> derived stream ->
        downstream SEQ query consumes the clean stream."""
        engine = Engine()
        engine.create_stream("raw", "reader_id str, tag_id str, read_time float")
        engine.create_stream("clean", "reader_id str, tag_id str, read_time float")
        engine.create_stream("gate", "reader_id str, tag_id str, read_time float")
        engine.query("""
            INSERT INTO clean
            SELECT * FROM raw AS r1 WHERE NOT EXISTS
              (SELECT * FROM TABLE(raw OVER
                 (RANGE 1 SECONDS PRECEDING CURRENT)) AS r2
               WHERE r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id)
        """)
        pairs = engine.query("""
            SELECT C.tag_id FROM clean AS C, gate AS G
            WHERE SEQ(C, G) MODE CHRONICLE AND C.tag_id = G.tag_id
        """)
        # A burst of duplicates, then the gate reading.
        for ts in (0.0, 0.2, 0.4, 0.6):
            engine.push("raw", {"reader_id": "r", "tag_id": "t1",
                                "read_time": ts}, ts=ts)
        engine.push("gate", {"reader_id": "g", "tag_id": "t1",
                             "read_time": 5.0}, ts=5.0)
        # CHRONICLE pairs the single deduplicated reading once.
        assert len(pairs.rows()) == 1


class TestBruteForceReference:
    def test_exception_automaton_matches_reference(self):
        """The EXCEPTION_SEQ automaton (CONSECUTIVE) against a direct
        simulation of the paper's rules, over random traces."""
        rng = random.Random(11)
        for trial in range(50):
            n_events = rng.randint(1, 25)
            trace = [
                (rng.choice(["a", "b", "c"]), float(i))
                for i in range(n_events)
            ]
            # Reference: explicit state machine per the paper's scenarios.
            expected = []
            partial = 0  # completion level
            order = {"a": 0, "b": 1, "c": 2}
            for stream, ts in trace:
                stage = order[stream]
                if stage == partial:
                    partial += 1
                    if partial == 3:
                        expected.append(("completed", 3))
                        partial = 0
                elif partial > 0:
                    expected.append(("wrong_tuple", partial))
                    partial = 1 if stage == 0 else 0
                else:
                    expected.append(("wrong_start", 0))
            # Actual.
            from repro.core.operators import ExceptionSeqOperator, SeqArg

            engine = Engine()
            for name in ("a", "b", "c"):
                engine.create_stream(name, "tagid str, tagtime float")
            got = []
            ExceptionSeqOperator(
                engine, [SeqArg("a"), SeqArg("b"), SeqArg("c")],
                on_outcome=lambda o: got.append((o.reason.value, o.level)),
            )
            for stream, ts in trace:
                engine.push(stream, {"tagid": "x", "tagtime": ts}, ts=ts)
            assert got == expected, f"trial {trial}: {trace}"
