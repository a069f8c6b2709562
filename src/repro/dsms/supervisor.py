"""Shard-worker supervision policy: classify failures, decide recovery.

The :class:`ShardSupervisor` is a pure policy object used by the sharded
executor.  It does not touch processes itself; given a transport failure
it answers two questions:

1. **Is this failure restartable?**  Crashes (:class:`WorkerCrashed`),
   hangs (:class:`WorkerHung`) and wire corruption
   (:class:`FrameCorrupt`) are infrastructure failures: restarting the
   worker and replaying its input is sound.  A generic
   :class:`TransportError` carrying a worker *application* exception is
   **not** restartable — replaying the same input would raise the same
   exception again — so it always escalates.

2. **What does the escalation policy say?**

   * ``fail_fast`` (default): re-raise immediately; no recovery.  This
     is the pre-existing behaviour and costs nothing on the hot path.
   * ``restart``: allow up to ``max_restarts`` restarts per shard with
     linear backoff (``backoff_s * attempt``); beyond that, re-raise.
   * ``degrade``: allow restarts like ``restart``; if a shard exhausts
     its restart budget, drop it and route its traffic to survivors,
     flagging affected outputs as stale.

Every decision is appended to :attr:`events` so tests (and the fault
bench) can assert on the exact recovery sequence.
"""

from __future__ import annotations

import time
from typing import Any

from .errors import FrameCorrupt, TransportError, WorkerCrashed, WorkerHung

__all__ = ["ShardSupervisor", "ESCALATION_POLICIES"]

ESCALATION_POLICIES = ("fail_fast", "restart", "degrade")

#: Linear backoff unit slept between restart attempts (``* attempt``).
RESTART_BACKOFF_S = 0.05


def classify_failure(exc: BaseException) -> str:
    """Map a transport exception to a failure class label."""
    if isinstance(exc, WorkerCrashed):
        return "crash"
    if isinstance(exc, WorkerHung):
        return "hang"
    if isinstance(exc, FrameCorrupt):
        return "corrupt"
    if isinstance(exc, TransportError):
        return "application"
    return "unknown"


class ShardSupervisor:
    """Decides whether and how a failed shard worker is recovered."""

    def __init__(
        self,
        policy: str = "fail_fast",
        max_restarts: int = 3,
        backoff_s: float = RESTART_BACKOFF_S,
    ) -> None:
        if policy not in ESCALATION_POLICIES:
            raise ValueError(
                f"unknown escalation policy {policy!r}; "
                f"expected one of {ESCALATION_POLICIES}"
            )
        self.policy = policy
        self.max_restarts = max_restarts
        self.backoff_s = backoff_s
        self.restarts: dict[int, int] = {}
        self.degraded: set[int] = set()
        self.events: list[dict[str, Any]] = []

    # -- decisions ----------------------------------------------------------

    def on_failure(self, shard: int, exc: BaseException) -> str:
        """Record a failure and return the action to take.

        Returns one of:

        * ``"restart"`` — respawn the worker and replay (the supervisor
          has already slept the backoff delay);
        * ``"degrade"`` — drop the shard, remap traffic to survivors;
        * ``"raise"``   — no recovery; the caller re-raises *exc*.
        """
        failure = classify_failure(exc)
        attempt = self.restarts.get(shard, 0) + 1
        action = self._decide(shard, failure, attempt)
        self.events.append(
            {
                "shard": shard,
                "failure": failure,
                "error": f"{type(exc).__name__}: {exc}",
                "attempt": attempt,
                "action": action,
            }
        )
        if action == "restart":
            self.restarts[shard] = attempt
            if self.backoff_s > 0:
                time.sleep(self.backoff_s * attempt)
        elif action == "degrade":
            self.degraded.add(shard)
        return action

    def _decide(self, shard: int, failure: str, attempt: int) -> str:
        if self.policy == "fail_fast":
            return "raise"
        if failure not in ("crash", "hang", "corrupt"):
            # Application errors recur on replay: never restart for them.
            return "raise"
        if attempt <= self.max_restarts:
            return "restart"
        return "degrade" if self.policy == "degrade" else "raise"

    def on_recovered(self, shard: int, latency_s: float) -> None:
        self.events.append(
            {"shard": shard, "action": "recovered", "latency_s": latency_s}
        )

    def __repr__(self) -> str:
        return (
            f"ShardSupervisor(policy={self.policy!r}, "
            f"restarts={dict(self.restarts)}, degraded={sorted(self.degraded)})"
        )
