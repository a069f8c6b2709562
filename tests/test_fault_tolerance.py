"""Fault-tolerant sharded execution tests.

The recovery contract under test: with ``fault_tolerance='restart'``,
killing (or wedging, or corrupting the input of) any one shard worker
mid-trace must yield merged output *byte-identical* to an unfaulted
single-engine run — checkpoint restore plus replay-log re-delivery plus
duplicate suppression reconstructs the exact stamped row sequence.
Under ``'degrade'`` the dropped shard's partitions — and only those —
go stale, and the engine says so.

Checkpoint round-trip units (capture/restore on a single Engine) and the
supervisor's escalation policy are tested without worker processes; the
end-to-end injection tests are marked ``transport`` and ``faults``.
"""

import pytest

from repro.dsms import Engine, ShardedEngine
from repro.dsms.checkpoint import capture_engine_state, restore_engine_state
from repro.dsms.errors import (
    CheckpointError,
    EslSemanticError,
    FrameCorrupt,
    TransportError,
    WorkerCrashed,
    WorkerHung,
)
from repro.dsms.faults import FaultPlan
from repro.dsms.sharding import shard_of
from repro.dsms.supervisor import ShardSupervisor, classify_failure
from repro.rfid import (
    build_dedup,
    build_dedup_sharded,
    build_quality_check,
    build_quality_check_sharded,
    dedup_workload,
    quality_check_workload,
)
from repro.rfid.scenarios import DOOR_QUERY_THEFT


def _dedup_pair(n_shards, **kwargs):
    workload = dedup_workload(n_tags=40, presences_per_tag=8, seed=7)
    expected = build_dedup(workload).feed().rows()
    scenario = build_dedup_sharded(
        workload, n_shards=n_shards, executor="parallel",
        batch_size=128, adaptive_batch=False, **kwargs,
    )
    return scenario, expected


def _quality_pair(n_shards, **kwargs):
    workload = quality_check_workload(n_products=120, seed=77)
    expected = build_quality_check(workload).feed().rows()
    scenario = build_quality_check_sharded(
        workload, n_shards=n_shards, executor="parallel",
        batch_size=32, adaptive_batch=False, **kwargs,
    )
    return scenario, expected


# -- differential recovery: restart ------------------------------------------


@pytest.mark.transport
@pytest.mark.faults
@pytest.mark.parametrize("n_shards", [2, 4])
@pytest.mark.parametrize("build", [_dedup_pair, _quality_pair],
                         ids=["dedup", "quality"])
def test_kill_one_worker_restart_matches_single_engine(build, n_shards):
    """Crash mid-batch (the kill lands between dispatch and ack): the
    restarted worker restores its checkpoint, replays the log, and the
    merged output is byte-identical to the unfaulted single-engine run."""
    victim = n_shards - 1
    plan = FaultPlan().kill_worker(victim, after_batches=2)
    scenario, expected = build(
        n_shards,
        fault_tolerance="restart",
        checkpoint_interval=20.0,
        fault_plan=plan,
    )
    with scenario.engine as engine:
        engine.start()
        assert scenario.feed().rows() == expected
        stats = engine.fault_stats()
        assert stats["recoveries"] >= 1
        assert stats["degraded_shards"] == []
        assert [e["kind"] for e in plan.events] == ["kill"]
        assert not engine.stale


@pytest.mark.transport
@pytest.mark.faults
def test_recovery_without_checkpoints_replays_from_start():
    """checkpoint_interval=None: the replay log spans the whole run and a
    crashed worker rebuilds from the spec, still byte-identical."""
    plan = FaultPlan().kill_worker(0, after_batches=2)
    scenario, expected = _dedup_pair(
        2, fault_tolerance="restart", fault_plan=plan,
    )
    with scenario.engine as engine:
        engine.start()
        assert scenario.feed().rows() == expected
        assert engine.fault_stats()["checkpoints"] == 0
        assert engine.fault_stats()["recoveries"] >= 1


@pytest.mark.transport
@pytest.mark.faults
def test_wedged_worker_detected_and_restarted():
    """SIGSTOP wedge: the worker stays alive but makes no progress; hang
    detection classifies it and restart recovers byte-identically."""
    plan = FaultPlan().wedge_worker(1, after_batches=3)
    scenario, expected = _dedup_pair(
        2,
        fault_tolerance="restart",
        checkpoint_interval=20.0,
        hang_timeout=1.0,
        fault_plan=plan,
    )
    with scenario.engine as engine:
        engine.start()
        assert scenario.feed().rows() == expected
        events = engine.fault_stats()["events"]
        assert any(e.get("failure") == "hang" for e in events)


@pytest.mark.transport
@pytest.mark.faults
def test_corrupt_frame_classified_and_recovered():
    """A flipped payload byte fails the worker-side CRC; the failure is
    classified as corruption (restartable) and restart recovers."""
    plan = FaultPlan().corrupt_frame(1, frame_index=2)
    scenario, expected = _dedup_pair(
        2, fault_tolerance="restart", checkpoint_interval=20.0,
        fault_plan=plan,
    )
    with scenario.engine as engine:
        engine.start()
        assert scenario.feed().rows() == expected
        events = engine.fault_stats()["events"]
        assert any(e.get("failure") == "corrupt" for e in events)


@pytest.mark.transport
@pytest.mark.faults
def test_corruption_is_classified_even_when_the_router_sees_the_pipe_close_first(
    monkeypatch,
):
    """The worker reports the bad frame and exits; if the router's next
    send hits the closed pipe before the reader thread has surfaced that
    report, the failure must still be classified by its cause."""
    import time

    from repro.dsms import transport

    real_loads, real_after = transport.loads_oob, FaultPlan.after_send

    def slow_loads(*args, **kwargs):  # the reader dawdles over ERROR frames
        time.sleep(0.5)
        return real_loads(*args, **kwargs)

    def after_send(self, shard, n_records, process):
        if self.events and not self.pending:  # just sent the bad frame:
            time.sleep(0.2)                   # let the worker report and exit
            monkeypatch.setattr(FaultPlan, "after_send", real_after)
        return real_after(self, shard, n_records, process)

    monkeypatch.setattr(transport, "loads_oob", slow_loads)
    monkeypatch.setattr(FaultPlan, "after_send", after_send)
    plan = FaultPlan().corrupt_frame(1, frame_index=2)
    scenario, expected = _dedup_pair(
        2, fault_tolerance="restart", checkpoint_interval=20.0,
        fault_plan=plan,
    )
    with scenario.engine as engine:
        engine.start()
        assert scenario.feed().rows() == expected
        failures = [e.get("failure") for e in engine.fault_stats()["events"]]
        assert "corrupt" in failures and "crash" not in failures


@pytest.mark.transport
@pytest.mark.faults
def test_fail_fast_still_raises_and_tears_down():
    """The default policy keeps the pre-existing contract: a crashed
    worker surfaces as WorkerCrashed and every worker is torn down."""
    plan = FaultPlan().kill_worker(1, after_batches=2)
    scenario, _ = _dedup_pair(2, fault_plan=plan)
    engine = scenario.engine
    try:
        engine.start()
        with pytest.raises(WorkerCrashed):
            scenario.feed()
        assert engine.alive_workers() == 0
    finally:
        engine.close()


# -- degrade ----------------------------------------------------------------


@pytest.mark.transport
@pytest.mark.faults
def test_degrade_flags_exactly_the_dropped_shards_partitions():
    plan = FaultPlan().kill_worker(1, after_batches=3)
    scenario, expected = _dedup_pair(
        2, fault_tolerance="degrade", max_restarts=0, fault_plan=plan,
    )
    with scenario.engine as engine:
        engine.start()
        rows = scenario.feed().rows()
        assert engine.degraded_shards == {1}
        assert engine.stale and scenario.handle.stale
        stale = set(engine.stale_partitions()[1])
        routed_to_1 = {
            f"20.1.{1000 + i}" for i in range(40)
            if shard_of(f"20.1.{1000 + i}", 2) == 1
        }
        assert stale == routed_to_1
        # Survivor partitions are complete; only dropped-shard rows differ.
        surviving = [r for r in expected if r["tag_id"] not in routed_to_1]
        assert [r for r in rows if r["tag_id"] not in routed_to_1] == surviving
        assert len(rows) < len(expected)


@pytest.mark.transport
@pytest.mark.faults
def test_degrade_after_restart_budget_exhausted():
    """With a budget of 1, the first crash restarts; killing the restarted
    worker again degrades the shard instead of raising."""
    plan = (
        FaultPlan()
        .kill_worker(1, after_batches=2)
        .kill_worker(1, after_batches=5)
    )
    scenario, _ = _dedup_pair(
        2, fault_tolerance="degrade", max_restarts=1,
        checkpoint_interval=20.0, fault_plan=plan,
    )
    with scenario.engine as engine:
        engine.start()
        scenario.feed().rows()
        stats = engine.fault_stats()
        assert stats["recoveries"] == 1
        assert stats["degraded_shards"] == [1]


# -- transport error surface --------------------------------------------------


@pytest.mark.transport
@pytest.mark.faults
def test_close_is_idempotent_with_dead_workers():
    plan = FaultPlan().kill_worker(0, after_batches=1)
    scenario, _ = _dedup_pair(2, fault_plan=plan)
    engine = scenario.engine
    engine.start()
    with pytest.raises(TransportError):
        scenario.feed()
    engine.close()
    engine.close()  # second close: no-op, no exception
    assert engine.alive_workers() == 0


@pytest.mark.transport
@pytest.mark.faults
def test_dropped_frame_raises_hang_not_deadlock():
    """A silently swallowed frame keeps its in-flight slot; hang detection
    turns the would-be deadlock into WorkerHung within the deadline."""
    plan = FaultPlan().drop_frame(1, frame_index=1)
    scenario, _ = _dedup_pair(2, hang_timeout=0.5, fault_plan=plan)
    engine = scenario.engine
    try:
        engine.start()
        with pytest.raises(WorkerHung):
            scenario.feed()
    finally:
        engine.close()


def test_fault_options_require_parallel_executor():
    for kwargs in (
        {"fault_tolerance": "restart"},
        {"checkpoint_interval": 5.0},
        {"hang_timeout": 1.0},
        {"fault_plan": FaultPlan()},
    ):
        with pytest.raises(EslSemanticError):
            ShardedEngine(n_shards=2, executor="serial", **kwargs)
    with pytest.raises(EslSemanticError):
        ShardedEngine(n_shards=2, executor="parallel",
                      fault_tolerance="retry-forever")


def test_non_positive_hang_timeout_is_rejected():
    """A zero or negative hang timeout would declare every worker hung on
    its first in-flight frame; None is how hang detection is turned off."""
    for timeout in (0, 0.0, -1, float("nan")):
        with pytest.raises(EslSemanticError, match="hang_timeout"):
            ShardedEngine(n_shards=2, executor="parallel", hang_timeout=timeout)
    ShardedEngine(n_shards=2, executor="parallel", hang_timeout=None).close()


@pytest.mark.transport
@pytest.mark.faults
def test_forced_checkpoint_under_restart_policy():
    """ShardedEngine.checkpoint() cuts one round across the live shards
    mid-trace without perturbing the merged output."""
    scenario, expected = _quality_pair(2, fault_tolerance="restart")
    trace = scenario.workload.trace
    half = len(trace) // 2
    with scenario.engine as engine:
        engine.start()
        engine.run_trace(trace[:half])
        engine.checkpoint()
        assert engine.fault_stats()["checkpoints"] == 1
        engine.run_trace(trace[half:])
        engine.flush()
        assert scenario.handle.rows() == expected
        assert engine.fault_stats()["recoveries"] == 0


# -- supervisor policy units --------------------------------------------------


class TestSupervisor:
    def test_classification(self):
        assert classify_failure(WorkerCrashed("x")) == "crash"
        assert classify_failure(WorkerHung("x")) == "hang"
        assert classify_failure(FrameCorrupt("x")) == "corrupt"
        assert classify_failure(TransportError("x")) == "application"

    def test_fail_fast_always_raises(self):
        sup = ShardSupervisor("fail_fast", backoff_s=0.0)
        assert sup.on_failure(0, WorkerCrashed("x")) == "raise"

    def test_application_errors_never_restart(self):
        """Replaying input that raised an application error raises it
        again, so restart/degrade must not loop on it."""
        sup = ShardSupervisor("restart", backoff_s=0.0)
        assert sup.on_failure(0, TransportError("bad record")) == "raise"

    def test_restart_budget_then_raise_or_degrade(self):
        sup = ShardSupervisor("restart", max_restarts=2, backoff_s=0.0)
        assert sup.on_failure(0, WorkerCrashed("x")) == "restart"
        assert sup.on_failure(0, WorkerCrashed("x")) == "restart"
        assert sup.on_failure(0, WorkerCrashed("x")) == "raise"
        sup = ShardSupervisor("degrade", max_restarts=1, backoff_s=0.0)
        assert sup.on_failure(3, WorkerHung("x")) == "restart"
        assert sup.on_failure(3, WorkerHung("x")) == "degrade"
        assert sup.degraded == {3}

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            ShardSupervisor("panic")


# -- checkpoint round-trip units ----------------------------------------------


class TestCheckpointRoundTrip:
    def _roundtrip(self, make_engine, feed_half, feed_rest):
        """Run a workload split in two; checkpoint at the split on engine
        A, restore into a fresh engine B, feed the rest to both: outputs
        must agree exactly."""
        a_engine, a_handle = make_engine()
        b_engine, b_handle = make_engine()
        feed_half(a_engine)
        state = capture_engine_state(a_engine)
        restore_engine_state(b_engine, state)
        # B starts from the checkpointed cut: only post-restore emissions
        # can appear, and they must match A's post-checkpoint emissions.
        a_before = len(a_handle.results)
        b_before = len(b_handle.results)
        feed_rest(a_engine)
        feed_rest(b_engine)
        a_tail = a_handle.results[a_before:]
        b_tail = b_handle.results[b_before:]
        assert [t.values for t in a_tail] == [t.values for t in b_tail]
        assert [t.ts for t in a_tail] == [t.ts for t in b_tail]
        return a_tail

    def test_seq_operator_roundtrip(self):
        workload = quality_check_workload(n_products=30, seed=5)
        half = len(workload.trace) // 2

        def make():
            scenario = build_quality_check(
                quality_check_workload(n_products=30, seed=5)
            )
            return scenario.engine, scenario.handle

        def feed_half(engine):
            for stream, values, ts in workload.trace[:half]:
                engine.push(stream, values, ts)

        def feed_rest(engine):
            for stream, values, ts in workload.trace[half:]:
                engine.push(stream, values, ts)
            engine.flush()

        self._roundtrip(make, feed_half, feed_rest)

    def test_window_probe_roundtrip(self):
        workload = dedup_workload(n_tags=10, presences_per_tag=4, seed=3)
        half = len(workload.trace) // 2

        def make():
            scenario = build_dedup(
                dedup_workload(n_tags=10, presences_per_tag=4, seed=3)
            )
            return scenario.engine, scenario.handle

        def feed_half(engine):
            for stream, values, ts in workload.trace[:half]:
                engine.push(stream, values, ts)

        def feed_rest(engine):
            for stream, values, ts in workload.trace[half:]:
                engine.push(stream, values, ts)
            engine.flush()

        self._roundtrip(make, feed_half, feed_rest)

    def test_aggregate_roundtrip(self):
        def make():
            engine = Engine()
            engine.create_stream("r", "tagid str, temp float")
            handle = engine.query(
                "SELECT tagid, avg(temp), count(temp) FROM r "
                "GROUP BY tagid",
                name="agg",
            )
            return engine, handle

        def feed_half(engine):
            for i in range(10):
                engine.push("r", {"tagid": f"t{i % 3}", "temp": float(i)},
                            ts=float(i))

        def feed_rest(engine):
            for i in range(10, 20):
                engine.push("r", {"tagid": f"t{i % 3}", "temp": float(i)},
                            ts=float(i))
            engine.flush()

        self._roundtrip(make, feed_half, feed_rest)

    def test_symmetric_exists_roundtrip(self):
        """Example 8 cut while an item awaits its FOLLOWING half: the
        pending decision (timer re-armed) and the inner history cross."""
        before_cut = [
            ("i1", "item", 0.0), ("p1", "person", 30.0),
            ("p2", "person", 75.0), ("i2", "item", 100.0), ("i3", "item", 170.0),
        ]
        after_cut = [("p3", "person", 240.0), ("i4", "item", 400.0)]

        def make():
            engine = Engine()
            engine.create_stream("tag_readings", "tagid str, tagtype str, tagtime float")
            return engine, engine.query(DOOR_QUERY_THEFT, name="door")

        def feed_half(engine):
            for tagid, kind, ts in before_cut:
                engine.push("tag_readings", [tagid, kind, ts], ts=ts)

        def feed_rest(engine):
            for tagid, kind, ts in after_cut:
                engine.push("tag_readings", [tagid, kind, ts], ts=ts)
            engine.flush()

        tail = self._roundtrip(make, feed_half, feed_rest)
        assert [(t.values, t.ts) for t in tail] == [(("i3",), 230.0), (("i4",), 460.0)]

    def test_unsupported_operator_raises_checkpoint_error(self):
        engine = Engine()
        for name in ("a1", "a2", "a3"):
            engine.create_stream(name, "tagid str")
        engine.query(
            "SELECT A1.tagid FROM a1, a2, a3 WHERE EXCEPTION_SEQ(A1, A2, A3)",
            name="exc",
        )
        with pytest.raises(CheckpointError, match="EXCEPTION_SEQ"):
            capture_engine_state(engine)

    def test_stream_late_drop_count_roundtrip(self):
        def make():
            engine = Engine()
            engine.create_stream(
                "r", "tagid str", allow_out_of_order=True, reorder_slack=1.0
            )
            return engine
        source = make()
        source.streams.get("r").push_row(["a"], ts=10.0)
        source.streams.get("r").push_row(["late"], ts=1.0)
        restored = make()
        restore_engine_state(restored, capture_engine_state(source))
        stream = restored.streams.get("r")
        assert stream.late_dropped == 1
        stream.push_row(["later"], ts=2.0)
        assert stream.late_dropped == 2

    def test_version_mismatch_rejected(self):
        engine = Engine()
        engine.create_stream("s", "a str")
        state = capture_engine_state(engine)
        state["version"] = 999
        with pytest.raises(CheckpointError, match="version"):
            restore_engine_state(engine, state)
