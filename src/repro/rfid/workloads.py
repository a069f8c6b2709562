"""Workload generators with ground truth for every paper scenario.

Each generator produces a :class:`WorkloadResult`:

* ``trace`` — time-sorted ``(stream, row_dict, ts)`` records ready for
  :meth:`repro.dsms.engine.Engine.run_trace`;
* ``truth`` — the scenario-specific ground truth (what a perfect detector
  should output), used by the benchmarks to score accuracy.

The parameters default to the paper's numbers where it gives them:
t0 = 5 s (case gap, Example 4), t1 = 1 s (intra-case product gap),
1 hour (lab deadline, Example 5), 1 minute (door window, section 3.2).
"""

from __future__ import annotations

import random
from typing import Any, Iterable, Sequence

from ..epc.codes import EpcCode, generate_epcs
from .readers import Reading, ReaderModel, merge_readings

TraceRecord = tuple[str, dict[str, Any], float]


class WorkloadResult:
    """A generated trace plus its ground truth."""

    def __init__(self, trace: list[TraceRecord], truth: Any) -> None:
        self.trace = trace
        self.truth = truth

    def __len__(self) -> int:
        return len(self.trace)

    def __repr__(self) -> str:
        return f"WorkloadResult({len(self.trace)} records)"


def _sorted_trace(records: Iterable[TraceRecord]) -> list[TraceRecord]:
    return sorted(records, key=lambda record: record[2])


# ---------------------------------------------------------------------------
# E1: duplicate elimination
# ---------------------------------------------------------------------------


def dedup_workload(
    n_tags: int = 50,
    presences_per_tag: int = 5,
    dwell: float = 0.8,
    read_interval: float = 0.25,
    presence_gap: float = 5.0,
    seed: int = 7,
    stream: str = "readings",
) -> WorkloadResult:
    """Tags dwelling in one reader's field, producing duplicate reports.

    Each presence lasts *dwell* seconds (several repeat reads at
    *read_interval*); presences of the same tag are *presence_gap* seconds
    apart, far beyond the 1 s dedup threshold.  Ground truth = one logical
    reading per presence (the first report), as Example 1's filter should
    output.
    """
    rng = random.Random(seed)
    reader = ReaderModel("door1", read_interval=read_interval,
                         rng=random.Random(seed + 1))
    readings: list[Reading] = []
    truth: list[tuple[str, float]] = []
    for tag_index in range(n_tags):
        tag = f"20.1.{1000 + tag_index}"
        offset = rng.uniform(0.0, 2.0)
        for presence in range(presences_per_tag):
            start = offset + presence * presence_gap
            reports = reader.observe(tag, start, start + dwell)
            if reports:
                truth.append((tag, reports[0].ts))
            readings.extend(reports)
    merged = merge_readings([readings])
    trace = [(stream, r.as_row(), r.ts) for r in merged]
    return WorkloadResult(_sorted_trace(trace), sorted(truth, key=lambda t: t[1]))


# ---------------------------------------------------------------------------
# E2: location tracking
# ---------------------------------------------------------------------------


def location_workload(
    n_tags: int = 20,
    n_locations: int = 4,
    moves_per_tag: int = 6,
    reads_per_stay: int = 3,
    stay_duration: float = 30.0,
    seed: int = 11,
    stream: str = "tag_locations",
) -> WorkloadResult:
    """Tags wandering across locations, re-read repeatedly at each stop.

    Ground truth = the movement history each tag should leave in
    ``object_movement``: one entry per *first visit* to a location (the
    paper's query suppresses re-inserts of an already-recorded
    (tag, location) pair).
    """
    rng = random.Random(seed)
    locations = [f"loc{i}" for i in range(n_locations)]
    records: list[TraceRecord] = []
    truth: list[tuple[str, str, float]] = []
    for tag_index in range(n_tags):
        tag = f"20.2.{2000 + tag_index}"
        seen: set[str] = set()
        t = rng.uniform(0.0, 10.0)
        previous: str | None = None
        for __ in range(moves_per_tag):
            choices = [loc for loc in locations if loc != previous]
            location = rng.choice(choices)
            previous = location
            first_ts = t
            for read in range(reads_per_stay):
                records.append(
                    (
                        stream,
                        {"readerid": f"rd_{location}", "tid": tag,
                         "tagtime": t, "loc": location},
                        t,
                    )
                )
                t += stay_duration / reads_per_stay
            if location not in seen:
                seen.add(location)
                truth.append((tag, location, first_ts))
            t += rng.uniform(5.0, 20.0)
    return WorkloadResult(
        _sorted_trace(records), sorted(truth, key=lambda item: item[2])
    )


# ---------------------------------------------------------------------------
# E3: EPC-pattern aggregation
# ---------------------------------------------------------------------------


def epc_stream_workload(
    n_readings: int = 2000,
    companies: Sequence[int] = (20, 21, 37),
    serial_range: tuple[int, int] = (1, 12000),
    pattern_company: int = 20,
    pattern_serial: tuple[int, int] = (5000, 9999),
    seed: int = 13,
    stream: str = "readings",
) -> WorkloadResult:
    """A mixed-company EPC reading stream.

    Ground truth = how many readings match the ALE pattern
    ``{pattern_company}.*.[lo-hi]`` — strictly, with the paper's Example 3
    open interval ``> 5000 AND < 9999`` counted separately as
    ``truth['paper_count']``.
    """
    rng = random.Random(seed)
    records: list[TraceRecord] = []
    pattern_count = 0
    paper_count = 0
    lo, hi = pattern_serial
    for index in range(n_readings):
        company = rng.choice(list(companies))
        product = rng.randint(1, 50)
        serial = rng.randint(*serial_range)
        epc = EpcCode(company, product, serial)
        ts = index * 0.01
        records.append(
            (stream, {"reader_id": "agg1", "tid": str(epc), "read_time": ts}, ts)
        )
        if company == pattern_company and lo <= serial <= hi:
            pattern_count += 1
        if company == pattern_company and lo < serial < hi:
            paper_count += 1
    truth = {"pattern_count": pattern_count, "paper_count": paper_count}
    return WorkloadResult(records, truth)


# ---------------------------------------------------------------------------
# E4 / Figure 1: containment (packing)
# ---------------------------------------------------------------------------


def packing_workload(
    n_cases: int = 40,
    products_per_case: tuple[int, int] = (2, 8),
    intra_gap: float = 0.4,
    case_delay: float = 3.0,
    inter_case_gap: float = 2.0,
    overlap_next_case: bool = True,
    seed: int = 17,
    product_stream: str = "r1",
    case_stream: str = "r2",
) -> WorkloadResult:
    """Figure 1's packing station: product runs followed by case readings.

    * products of one case are read *intra_gap* seconds apart
      (< t1 = 1 s);
    * the case tag is read *case_delay* seconds after its last product
      (< t0 = 5 s);
    * consecutive cases' product runs are *inter_case_gap* seconds apart
      (> t1), and with ``overlap_next_case`` (requires case_delay >
      inter_case_gap) the next case's products begin streaming before the
      previous case tag is read — the hard part of Figure 1(b).

    Ground truth maps each case tag to its product tag list (in packing
    order).
    """
    if intra_gap >= 1.0:
        raise ValueError("intra_gap must stay below the paper's t1 = 1 s")
    rng = random.Random(seed)
    epcs = list(generate_epcs(
        n_cases * products_per_case[1] + n_cases,
        company=20,
        rng=random.Random(seed + 1),
    ))
    records: list[TraceRecord] = []
    truth: dict[str, list[str]] = {}
    t = 0.0
    epc_iter = iter(epcs)
    pending_case: tuple[str, float] | None = None
    for case_index in range(n_cases):
        count = rng.randint(*products_per_case)
        products = [str(next(epc_iter)) for __ in range(count)]
        case_tag = f"case.{case_index}.{1 + case_index}"
        start = t
        for position, product in enumerate(products):
            ts = start + position * intra_gap
            records.append(
                (
                    product_stream,
                    {"readerid": "r1", "tagid": product, "tagtime": ts},
                    ts,
                )
            )
        last_product_ts = start + (count - 1) * intra_gap
        case_ts = last_product_ts + case_delay
        if pending_case is not None and overlap_next_case:
            # The previous case tag is read after this case's products have
            # started streaming in (Figure 1(b) overlap).
            prev_tag, prev_ts = pending_case
            records.append(
                (
                    case_stream,
                    {"readerid": "r2", "tagid": prev_tag, "tagtime": prev_ts},
                    prev_ts,
                )
            )
            pending_case = None
        if overlap_next_case and case_index < n_cases - 1:
            pending_case = (case_tag, case_ts)
        else:
            records.append(
                (
                    case_stream,
                    {"readerid": "r2", "tagid": case_tag, "tagtime": case_ts},
                    case_ts,
                )
            )
        truth[case_tag] = products
        t = last_product_ts + inter_case_gap
    if pending_case is not None:
        tag, ts = pending_case
        records.append(
            (case_stream, {"readerid": "r2", "tagid": tag, "tagtime": ts}, ts)
        )
    return WorkloadResult(_sorted_trace(records), truth)


# ---------------------------------------------------------------------------
# E5: lab workflow with injected violations
# ---------------------------------------------------------------------------


def lab_workflow_workload(
    n_runs: int = 60,
    violation_rate: float = 0.3,
    step_gap: float = 300.0,
    deadline: float = 3600.0,
    seed: int = 19,
    streams: tuple[str, str, str] = ("a1", "a2", "a3"),
) -> WorkloadResult:
    """Staff performing the A->B->C lab procedure, with injected violations.

    Each run is one of: ``ok`` (A, B, C in order within the deadline),
    ``wrong_order`` (A then C), ``wrong_start`` (B first), or ``timeout``
    (A then B, then silence past the deadline).  Ground truth counts each
    category and records the per-run labels in order.
    """
    rng = random.Random(seed)
    records: list[TraceRecord] = []
    labels: list[str] = []
    counts = {"ok": 0, "wrong_order": 0, "wrong_start": 0, "timeout": 0}
    t = 0.0
    for run in range(n_runs):
        tag = f"op{run}"
        if rng.random() < violation_rate:
            kind = rng.choice(["wrong_order", "wrong_start", "timeout"])
        else:
            kind = "ok"
        labels.append(kind)
        counts[kind] += 1
        a_stream, b_stream, c_stream = streams
        if kind == "ok":
            for stream, offset in ((a_stream, 0.0), (b_stream, step_gap),
                                   (c_stream, 2 * step_gap)):
                ts = t + offset
                records.append((stream, {"tagid": tag, "tagtime": ts}, ts))
            t += 2 * step_gap
        elif kind == "wrong_order":
            records.append((a_stream, {"tagid": tag, "tagtime": t}, t))
            ts = t + step_gap
            records.append((c_stream, {"tagid": tag, "tagtime": ts}, ts))
            t += step_gap
        elif kind == "wrong_start":
            records.append((b_stream, {"tagid": tag, "tagtime": t}, t))
        else:  # timeout: start, one step, then silence past the deadline
            records.append((a_stream, {"tagid": tag, "tagtime": t}, t))
            ts = t + step_gap
            records.append((b_stream, {"tagid": tag, "tagtime": ts}, ts))
            t += deadline + step_gap
        t += rng.uniform(deadline * 1.1, deadline * 1.5)
    truth = {"counts": counts, "labels": labels,
             "violations": n_runs - counts["ok"]}
    return WorkloadResult(_sorted_trace(records), truth)


# ---------------------------------------------------------------------------
# E6: four-step quality check
# ---------------------------------------------------------------------------


def quality_check_workload(
    n_products: int = 200,
    step_delay: tuple[float, float] = (5.0, 60.0),
    dropout_rate: float = 0.15,
    interleave: bool = True,
    seed: int = 23,
    streams: tuple[str, str, str, str] = ("c1", "c2", "c3", "c4"),
    rereads: int = 1,
) -> WorkloadResult:
    """Products passing the four checking steps of Example 6.

    A *dropout_rate* fraction abandon the line mid-way (uniformly after
    step 1, 2 or 3).  With ``interleave`` products overlap in time, so the
    operator must disentangle them by tag id.  Ground truth lists the tag
    ids that complete all four steps, with their step timestamps.

    ``rereads`` > 1 models a checkpoint reader reporting the same tag
    several times while it dwells in the field (0.5 s apart) — the raw
    RFID condition Example 1 deduplicates away.  Fed *without* a dedup
    stage, an UNRESTRICTED SEQ then pairs every combination of re-reads,
    which is what the state-layer tests use to stress match enumeration.  Ground truth timestamps remain the first read per step.
    """
    rng = random.Random(seed)
    reread_gap = min(0.5, step_delay[0] / (rereads + 1))
    records: list[TraceRecord] = []
    completed: dict[str, list[float]] = {}
    start = 0.0
    for index in range(n_products):
        tag = f"20.6.{6000 + index}"
        steps = 4
        if rng.random() < dropout_rate:
            steps = rng.randint(1, 3)
        t = start
        stamps: list[float] = []
        for step in range(steps):
            t += rng.uniform(*step_delay)
            for read in range(rereads):
                read_ts = t + read * reread_gap
                records.append(
                    (
                        streams[step],
                        {
                            "readerid": streams[step],
                            "tagid": tag,
                            "tagtime": read_ts,
                        },
                        read_ts,
                    )
                )
            stamps.append(t)
        if steps == 4:
            completed[tag] = stamps
        start += rng.uniform(1.0, 10.0) if interleave else t + 1.0
    return WorkloadResult(_sorted_trace(records), completed)


# ---------------------------------------------------------------------------
# E8: door security (theft detection)
# ---------------------------------------------------------------------------


def door_workload(
    n_events: int = 150,
    theft_rate: float = 0.15,
    lone_person_rate: float = 0.2,
    tau: float = 60.0,
    escort_offset: float = 20.0,
    seed: int = 29,
    stream: str = "tag_readings",
) -> WorkloadResult:
    """Items and persons passing the door reader of section 3.2.

    Event kinds:

    * ``escorted`` — an item with a person within *escort_offset* (< tau);
    * ``theft`` — an item with no person within tau either side;
    * ``lone_person`` — a person with no item nearby.

    Ground truth lists the theft item ids (text-faithful reading: alert on
    items without a person) and the lone-person ids (the literal Example 8
    query's output).  Events are separated by > 2*tau so windows never
    bleed into each other.
    """
    rng = random.Random(seed)
    records: list[TraceRecord] = []
    thefts: list[str] = []
    lone_persons: list[str] = []
    t = 0.0
    for index in range(n_events):
        roll = rng.random()
        if roll < theft_rate:
            item = f"item{index}"
            records.append(
                (stream, {"tagid": item, "tagtype": "item", "tagtime": t}, t)
            )
            thefts.append(item)
        elif roll < theft_rate + lone_person_rate:
            person = f"person{index}"
            records.append(
                (stream, {"tagid": person, "tagtype": "person", "tagtime": t}, t)
            )
            lone_persons.append(person)
        else:
            item = f"item{index}"
            person = f"person{index}"
            offset = rng.uniform(-escort_offset, escort_offset)
            item_ts = t
            person_ts = max(t + offset, 0.0)
            records.append(
                (stream, {"tagid": item, "tagtype": "item",
                          "tagtime": item_ts}, item_ts)
            )
            records.append(
                (stream, {"tagid": person, "tagtype": "person",
                          "tagtime": person_ts}, person_ts)
            )
        t += 2 * tau + rng.uniform(10.0, 60.0)
    truth = {"thefts": thefts, "lone_persons": lone_persons,
             "horizon": t + 2 * tau}
    return WorkloadResult(_sorted_trace(records), truth)


# ---------------------------------------------------------------------------
# Generic multi-stream sequence workload (ablation benches)
# ---------------------------------------------------------------------------


def uniform_sequence_workload(
    n_streams: int = 4,
    n_tuples: int = 1000,
    mean_gap: float = 1.0,
    n_tags: int = 10,
    seed: int = 31,
    stream_prefix: str = "s",
) -> WorkloadResult:
    """Tuples arriving uniformly at random across *n_streams* streams.

    The stress-test shape for pairing-mode state and the join baseline:
    no structure, so UNRESTRICTED match counts grow combinatorially.
    Ground truth is None (these benches measure cost, not accuracy).
    """
    rng = random.Random(seed)
    records: list[TraceRecord] = []
    t = 0.0
    for __ in range(n_tuples):
        t += rng.expovariate(1.0 / mean_gap)
        stream = f"{stream_prefix}{rng.randrange(n_streams)}"
        tag = f"tag{rng.randrange(n_tags)}"
        records.append((stream, {"tagid": tag, "tagtime": t}, t))
    return WorkloadResult(records, None)
