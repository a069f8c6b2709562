"""Simulated RFID readers.

The paper's deployments use physical readers (warehouse portals, packing
stations, wrist-band readers).  We replace them with stochastic simulators
that reproduce the artifacts the paper's queries exist to handle:

* **duplicate reads** — a tag sitting in an antenna field is reported many
  times ("Duplication is common in RFID data"), with sub-second spacing;
* **missed reads** — a configurable probability that a tag present in the
  field is never reported;
* **timestamp jitter** — small random offsets on report times;
* **ghost reads** — rare spurious tag IDs (malformed or foreign EPCs).

A reader turns *presence intervals* (tag X was in the field during
[t0, t1]) into a list of timestamped readings.  Scenario generators in
:mod:`repro.rfid.workloads` compose readers into full traces with ground
truth.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, Sequence

from ..epc.codes import EpcCode


class Reading:
    """One raw reader report: (reader, tag, time)."""

    __slots__ = ("reader_id", "tag_id", "ts")

    def __init__(self, reader_id: str, tag_id: str, ts: float) -> None:
        self.reader_id = reader_id
        self.tag_id = tag_id
        self.ts = ts

    def as_row(self) -> dict[str, object]:
        return {"reader_id": self.reader_id, "tag_id": self.tag_id,
                "read_time": self.ts}

    def __repr__(self) -> str:
        return f"Reading({self.reader_id}, {self.tag_id}, {self.ts:g})"


class ReaderModel:
    """Stochastic model of one reader's reporting behaviour.

    Args:
        reader_id: identifier stamped on every reading.
        read_interval: seconds between repeated reports while a tag stays in
            the field (the duplicate cadence; typical hardware reports every
            0.2-0.5 s).
        miss_rate: probability that a presence interval produces no readings
            at all.
        drop_rate: probability that any individual repeat report is dropped.
        jitter: uniform +/- jitter applied to each report time.
        ghost_rate: probability (per presence) of an extra spurious reading
            with a corrupted tag id.
        rng: random source (pass a seeded Random for reproducibility).
    """

    def __init__(
        self,
        reader_id: str,
        read_interval: float = 0.25,
        miss_rate: float = 0.0,
        drop_rate: float = 0.0,
        jitter: float = 0.0,
        ghost_rate: float = 0.0,
        rng: random.Random | None = None,
    ) -> None:
        if read_interval <= 0:
            raise ValueError("read_interval must be positive")
        for name, rate in (
            ("miss_rate", miss_rate),
            ("drop_rate", drop_rate),
            ("ghost_rate", ghost_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        self.reader_id = reader_id
        self.read_interval = read_interval
        self.miss_rate = miss_rate
        self.drop_rate = drop_rate
        self.jitter = jitter
        self.ghost_rate = ghost_rate
        self.rng = rng or random.Random(0)

    def observe(
        self, tag_id: str | EpcCode, start: float, end: float | None = None
    ) -> list[Reading]:
        """Readings produced for a tag present during [start, end].

        With ``end=None`` the tag is observed exactly once (a drive-by read).
        Output is time-sorted.
        """
        tag = str(tag_id)
        if self.rng.random() < self.miss_rate:
            return []
        readings: list[Reading] = []
        if end is None or end <= start:
            times = [start]
        else:
            times = []
            t = start
            while t <= end:
                times.append(t)
                t += self.read_interval
        for t in times:
            if readings and self.rng.random() < self.drop_rate:
                continue  # never drop the very first report of a presence
            stamp = t
            if self.jitter:
                stamp += self.rng.uniform(-self.jitter, self.jitter)
                stamp = max(stamp, 0.0)
            readings.append(Reading(self.reader_id, tag, stamp))
        if readings and self.rng.random() < self.ghost_rate:
            ghost_time = readings[-1].ts + self.read_interval / 2
            readings.append(
                Reading(self.reader_id, _corrupt(tag, self.rng), ghost_time)
            )
        readings.sort(key=lambda r: r.ts)
        return readings

    def __repr__(self) -> str:
        return (
            f"ReaderModel({self.reader_id!r}, interval={self.read_interval:g}s, "
            f"miss={self.miss_rate:g}, drop={self.drop_rate:g})"
        )


def _corrupt(tag: str, rng: random.Random) -> str:
    """Flip one character of a tag id to simulate a ghost read."""
    if not tag:
        return "???"
    index = rng.randrange(len(tag))
    replacement = rng.choice("0123456789")
    return tag[:index] + replacement + tag[index + 1:]


def merge_readings(groups: Iterable[Sequence[Reading]]) -> list[Reading]:
    """Merge several readers' outputs into one time-sorted list.

    Ties keep the per-group order, matching how middleware serializes
    simultaneous reports.
    """
    merged: list[Reading] = []
    for group in groups:
        merged.extend(group)
    merged.sort(key=lambda r: r.ts)
    return merged


def readings_to_trace(
    readings: Iterable[Reading], stream_name: str
) -> Iterator[tuple[str, dict[str, object], float]]:
    """Convert readings into ``engine.run_trace`` records."""
    for reading in readings:
        yield (stream_name, reading.as_row(), reading.ts)
