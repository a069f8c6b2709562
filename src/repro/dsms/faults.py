"""Deterministic fault injection for the sharded pipe transport.

A :class:`FaultPlan` is attached router-side to a
:class:`~repro.dsms.transport.ShardWorkerClient` (it is never pickled
across the pipe) and consulted from the client's send path:

* :meth:`FaultPlan.before_send` may **corrupt** a frame (flip a payload
  byte so the worker's CRC check fails) or **drop** it entirely (the
  in-flight slot is kept, so the router observes a hang).
* :meth:`FaultPlan.after_send` may **kill** the worker process
  (``SIGTERM``, simulating a crash) or **wedge** it (``SIGSTOP``,
  simulating a livelock) once a shard has been sent a given number of
  data frames.

Faults are one-shot: each scheduled fault fires at most once and is
recorded in :attr:`FaultPlan.events` so tests can assert on exactly what
was injected and when.  All triggers are counted in *data frames sent to
that shard* (the client's ``frames_sent`` counter), which is
deterministic for a fixed workload and batch size.
"""

from __future__ import annotations

import os
import signal
from typing import Any

__all__ = ["FaultPlan"]


class _Fault:
    __slots__ = ("kind", "shard", "trigger", "fired")

    def __init__(self, kind: str, shard: int, trigger: int):
        self.kind = kind
        self.shard = shard
        self.trigger = trigger
        self.fired = False


class FaultPlan:
    """A schedule of faults to inject into shard-worker transport links."""

    def __init__(self) -> None:
        self._faults: list[_Fault] = []
        self._data_frames: dict[int, int] = {}
        self.events: list[dict[str, Any]] = []

    # -- schedule -----------------------------------------------------------

    def kill_worker(self, shard: int, after_batches: int) -> "FaultPlan":
        """SIGTERM the worker once *after_batches* data frames were sent."""
        self._faults.append(_Fault("kill", shard, after_batches))
        return self

    def wedge_worker(self, shard: int, after_batches: int) -> "FaultPlan":
        """SIGSTOP the worker (it stays alive but makes no progress)."""
        self._faults.append(_Fault("wedge", shard, after_batches))
        return self

    def drop_frame(self, shard: int, frame_index: int) -> "FaultPlan":
        """Silently swallow the *frame_index*-th frame sent to *shard*."""
        self._faults.append(_Fault("drop", shard, frame_index))
        return self

    def corrupt_frame(self, shard: int, frame_index: int) -> "FaultPlan":
        """Flip a payload byte of the *frame_index*-th frame to *shard*."""
        self._faults.append(_Fault("corrupt", shard, frame_index))
        return self

    # -- client-facing hooks ------------------------------------------------

    def before_send(
        self, shard: int, frame_index: int, frame: bytes, n_records: int
    ) -> bytes | None:
        """Called with each outgoing frame; returns the (possibly modified)
        frame, or None to drop it while keeping in-flight accounting."""
        for fault in self._faults:
            if fault.fired or fault.shard != shard:
                continue
            if fault.kind == "drop" and frame_index == fault.trigger:
                fault.fired = True
                self._record("drop", shard, frame_index=frame_index)
                return None
            if fault.kind == "corrupt" and frame_index == fault.trigger:
                fault.fired = True
                self._record("corrupt", shard, frame_index=frame_index)
                if len(frame) > 12:  # flip a byte inside the payload
                    mutated = bytearray(frame)
                    mutated[12] ^= 0xFF
                    return bytes(mutated)
                return frame
        return frame

    def after_send(self, shard: int, n_records: int, process: Any) -> None:
        """Called after each frame write; applies kill/wedge thresholds."""
        if n_records:
            self._data_frames[shard] = self._data_frames.get(shard, 0) + 1
        sent = self._data_frames.get(shard, 0)
        for fault in self._faults:
            if fault.fired or fault.shard != shard:
                continue
            if fault.kind not in ("kill", "wedge"):
                continue
            if sent < fault.trigger:
                continue
            fault.fired = True
            if fault.kind == "kill":
                self._record("kill", shard, after_batches=fault.trigger)
                process.terminate()
            else:
                self._record("wedge", shard, after_batches=fault.trigger)
                pid = getattr(process, "pid", None)
                if pid is not None:
                    os.kill(pid, signal.SIGSTOP)

    # -- bookkeeping --------------------------------------------------------

    def _record(self, kind: str, shard: int, **detail: Any) -> None:
        self.events.append({"kind": kind, "shard": shard, **detail})

    @property
    def pending(self) -> int:
        return sum(1 for fault in self._faults if not fault.fired)

    def __repr__(self) -> str:
        return (
            f"FaultPlan({len(self._faults)} faults, "
            f"{len(self.events)} fired)"
        )
