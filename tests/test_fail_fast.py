"""Fail-fast worker failures on ``ShardedEngine(executor="parallel")``.

A shard worker that dies, wedges or is fed a damaged frame is never
recovered: the router raises ``WorkerCrashed``, ``WorkerHung`` or a
``TransportError`` carrying the worker's traceback, and every worker is
reaped before the error leaves the engine.  Faults are injected on the
real process (signals) or the real pipe (raw bytes), not through a hook
in the engine.
"""

import os
import signal
import threading
import time

import pytest

from repro.dsms import ShardedEngine
from repro.dsms import transport
from repro.dsms.errors import (
    EslSemanticError,
    TransportError,
    WorkerCrashed,
    WorkerHung,
)
from repro.rfid import build_dedup_sharded, dedup_workload

pytestmark = pytest.mark.transport


def _started(**kwargs):
    """A two-shard parallel Example 1 engine that has already routed
    half its trace, and the half still to feed."""
    workload = dedup_workload(n_tags=40, presences_per_tag=8, seed=7)
    scenario = build_dedup_sharded(
        workload, n_shards=2, executor="parallel", batch_size=128, **kwargs
    )
    engine = scenario.engine
    engine.start()
    half = len(workload.trace) // 2
    engine.run_trace(workload.trace[:half])
    engine._executor.sync()  # both workers have answered every frame
    return engine, workload.trace[half:]


def _client(engine, shard):
    return engine._executor._clients[shard]


def _feed(engine, rest):
    engine.run_trace(rest)
    engine.flush()


def test_fail_fast_still_raises_and_tears_down():
    """A SIGKILLed worker surfaces as WorkerCrashed and every worker is
    torn down."""
    engine, rest = _started()
    try:
        process = _client(engine, 1)._process
        os.kill(process.pid, signal.SIGKILL)
        process.join(timeout=5.0)
        with pytest.raises(WorkerCrashed):
            _feed(engine, rest)
        assert engine.alive_workers() == 0
    finally:
        engine.close()


def test_close_is_idempotent_with_dead_workers():
    engine, rest = _started()
    process = _client(engine, 0)._process
    os.kill(process.pid, signal.SIGKILL)
    process.join(timeout=5.0)
    with pytest.raises(TransportError):
        _feed(engine, rest)
    engine.close()
    engine.close()  # second close: no-op, no exception
    assert engine.alive_workers() == 0


def test_stopped_worker_raises_hang_not_deadlock():
    """A SIGSTOPped worker keeps frames in flight with no acknowledgement;
    hang detection turns the would-be deadlock into WorkerHung."""
    hang_timeout = 0.5
    engine, rest = _started(hang_timeout=hang_timeout)
    process = _client(engine, 1)._process
    try:
        os.kill(process.pid, signal.SIGSTOP)
        started = time.monotonic()
        with pytest.raises(WorkerHung, match="hang_timeout"):
            _feed(engine, rest)
        # The deadline, plus reaping a stopped worker before the error is
        # raised: STOP frame, SIGTERM, SIGKILL, with a join after each.
        assert time.monotonic() - started < hang_timeout + 10.0
        assert engine.alive_workers() == 0
    finally:
        if process.is_alive():
            process.kill()
            process.join(timeout=5.0)
        engine.close()


def _assert_worker_codec_error(exc):
    assert not isinstance(exc, WorkerCrashed)
    message = str(exc)
    assert "shard 1 worker failed: FrameCodecError" in message
    assert "--- worker traceback ---" in message
    assert "decode_frame" in message


def test_garbage_on_the_pipe_carries_the_workers_codec_error():
    """Bytes that are not a frame make the worker report FrameCodecError
    with its traceback and exit; the router raises that report."""
    engine, rest = _started()
    try:
        _client(engine, 1)._conn.send_bytes(b"\x00garbage")
        with pytest.raises(TransportError) as raised:
            _feed(engine, rest)
        _assert_worker_codec_error(raised.value)
        assert engine.alive_workers() == 0
    finally:
        engine.close()


def test_corruption_is_classified_even_when_the_router_sees_the_pipe_close_first(
    monkeypatch,
):
    """The worker reports the bad frame and exits; if the router's next
    send hits the closed pipe before the reader thread has surfaced that
    report, the raised error must still be the worker's report."""
    engine, rest = _started()
    release = threading.Event()
    real_loads = transport.loads_oob
    real_pipe_closed = transport.ShardWorkerClient._pipe_closed

    def held_loads(*args, **kwargs):  # the reader sits on the ERROR frame
        release.wait(timeout=10.0)
        return real_loads(*args, **kwargs)

    def pipe_closed(self, exc, doing):  # ...until a send has hit the pipe
        release.set()
        return real_pipe_closed(self, exc, doing)

    try:
        monkeypatch.setattr(transport, "loads_oob", held_loads)
        monkeypatch.setattr(transport.ShardWorkerClient, "_pipe_closed", pipe_closed)
        client = _client(engine, 1)
        client._conn.send_bytes(b"\x00garbage")
        client._process.join(timeout=5.0)  # the worker has reported and exited
        assert client._error is None
        with pytest.raises(TransportError) as raised:
            _feed(engine, rest)
        assert release.is_set()
        assert isinstance(raised.value.__cause__, OSError)  # a send failed
        _assert_worker_codec_error(raised.value)
    finally:
        release.set()
        engine.close()


def test_hang_timeout_requires_parallel_executor():
    with pytest.raises(EslSemanticError, match="hang_timeout"):
        ShardedEngine(n_shards=2, executor="serial", hang_timeout=1.0)


def test_non_positive_hang_timeout_is_rejected():
    """A zero or negative hang timeout would declare every worker hung on
    its first in-flight frame; None is how hang detection is turned off."""
    for timeout in (0, 0.0, -1, float("nan")):
        with pytest.raises(EslSemanticError, match="hang_timeout"):
            ShardedEngine(n_shards=2, executor="parallel", hang_timeout=timeout)
    ShardedEngine(n_shards=2, executor="parallel", hang_timeout=None).close()
