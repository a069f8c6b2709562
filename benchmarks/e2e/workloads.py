"""Frozen inputs of the end-to-end benchmark: query texts, sizes, generators.

Everything the measured program sees comes from here: the paper's query
texts (verbatim), the stream/table declarations, and seeded generators
that write one CSV trace plus an engine-independent ground truth per
(workload, seed).  Nothing in this file imports ``repro`` — the shapes are
modelled on ``repro.rfid.workloads`` but owned by the benchmark, so a later
edit under ``src/`` cannot change the load.

A seed permutes identities and timing only.  Counts that set the amount of
work (readings, matches, table rows, violations) are the same for every
seed, so the spread between seeds is measurement noise, not input drift.
"""

from __future__ import annotations

import bisect
import csv
import json
import random
from pathlib import Path
from typing import Any

Record = tuple[str, float, dict[str, Any]]  # (stream, ts, fields)

# ---------------------------------------------------------------------------
# Query texts (paper examples, verbatim) and declarations
# ---------------------------------------------------------------------------

EX1_DEDUP = """
INSERT INTO cleaned_readings
SELECT * FROM readings AS r1
WHERE NOT EXISTS
  (SELECT * FROM TABLE( readings OVER
     (RANGE 1 SECONDS PRECEDING CURRENT)) AS r2
   WHERE r2.reader_id = r1.reader_id
     AND r2.tag_id = r1.tag_id)
"""

EX2_LOCATION = """
INSERT INTO object_movement
SELECT tid, loc, tagtime
FROM tag_locations WHERE NOT EXISTS
  (SELECT tagid FROM object_movement
   WHERE tagid = tid AND location = loc)
"""

EX3_EPC = """
SELECT count(tid) FROM readings WHERE tid LIKE '20.%.%'
AND extract_serial(tid) > 5000
AND extract_serial(tid) < 9999
"""

# Probe-ladder rung for epc_filter: Example 3's WHERE clause without the
# aggregate, so (full query - this) is the aggregate's self time.
EX3_FILTER_ONLY = """
SELECT tid FROM readings WHERE tid LIKE '20.%.%'
AND extract_serial(tid) > 5000
AND extract_serial(tid) < 9999
"""

EX4_CONTAINMENT = """
SELECT FIRST(R1*).tagtime, COUNT(R1*), R2.tagid, R2.tagtime
FROM R1, R2
WHERE SEQ(R1*, R2) MODE CHRONICLE
AND R2.tagtime - LAST(R1*).tagtime <= 5 SECONDS
AND R1.tagtime - R1.previous.tagtime <= 1 SECONDS
"""

EX5_WORKFLOW = """
SELECT A1.tagid, A2.tagid, A3.tagid
FROM A1, A2, A3
WHERE EXCEPTION_SEQ(A1, A2, A3)
OVER [1 HOURS FOLLOWING A1]
"""

# Example 6 as printed is UNRESTRICTED; the paper's windowed form adds the
# OVER clause, its optimised form adds MODE RECENT.
EX6_QUALITY_WINDOWED = """
SELECT C1.tagid, C1.tagtime, C2.tagtime, C3.tagtime, C4.tagtime
FROM C1, C2, C3, C4
WHERE SEQ(C1, C2, C3, C4) OVER [30 MINUTES PRECEDING C4]
AND C1.tagid=C2.tagid AND C1.tagid=C3.tagid
AND C1.tagid=C4.tagid
"""

EX6_QUALITY_RECENT = """
SELECT C1.tagid, C1.tagtime, C2.tagtime, C3.tagtime, C4.tagtime
FROM C1, C2, C3, C4
WHERE SEQ(C1, C2, C3, C4)
MODE RECENT
AND C1.tagid=C2.tagid AND C1.tagid=C3.tagid
AND C1.tagid=C4.tagid
"""

EX8_THEFT = """
SELECT item.tagid
FROM tag_readings AS item
WHERE item.tagtype = 'item' AND NOT EXISTS
  (SELECT * FROM tag_readings AS person
   OVER [1 MINUTES PRECEDING AND FOLLOWING item]
   WHERE person.tagtype = 'person')
"""

MULTI_SEQ = (
    "SELECT R.tag_id, R.read_time, E.exit_time FROM readings AS R, exits AS E "
    "WHERE SEQ(R, E) MODE RECENT AND R.tag_id = E.tag_id"
)


def multi_eq_query(tag: str) -> str:
    return (
        "SELECT reader_id, tag_id, read_time FROM readings "
        f"WHERE tag_id = '{tag}'"
    )


def multi_range_query(lo: float, hi: float) -> str:
    return (
        "SELECT tag_id, read_time FROM readings "
        f"WHERE read_time >= {lo!r} AND read_time < {hi!r}"
    )


READING_SCHEMA = "readerid str, tagid str, tagtime float"

#: Streams (and tables) each workload declares, in declaration order.
STREAMS: dict[str, list[tuple[str, str]]] = {
    "epc_filter": [("readings", "reader_id str, tid str, read_time float")],
    "dedup_window": [
        ("readings", "reader_id str, tag_id str, read_time float"),
        ("cleaned_readings", "reader_id str, tag_id str, read_time float"),
    ],
    "location_table": [
        ("tag_locations", "readerid str, tid str, tagtime float, loc str"),
    ],
    "seq_quality": [(name, READING_SCHEMA) for name in ("c1", "c2", "c3", "c4")],
    "quality_sharded": [(name, READING_SCHEMA) for name in ("c1", "c2", "c3", "c4")],
    "temporal_mix": [
        ("r1", READING_SCHEMA),
        ("r2", READING_SCHEMA),
        ("a1", "tagid str, tagtime float"),
        ("a2", "tagid str, tagtime float"),
        ("a3", "tagid str, tagtime float"),
        ("tag_readings", "tagid str, tagtype str, tagtime float"),
    ],
    "multi_query": [
        ("readings", "reader_id str, tag_id str, read_time float"),
        ("exits", "tag_id str, exit_time float"),
    ],
}
TABLES: dict[str, list[tuple[str, str]]] = {
    "location_table": [
        ("object_movement", "tagid str, location str, start_time float"),
    ],
}

# ---------------------------------------------------------------------------
# Frozen sizes.  Calibrated so one pass of the timed section takes about
# two seconds on the 2-core seed host and never has fewer than 400
# micro-batches; `batch` is the micro-batch size in readings.
# ---------------------------------------------------------------------------

SPECS: dict[str, dict[str, Any]] = {
    "epc_filter": {"batch": 512, "columnar": True, "readings": 204_800},
    "dedup_window": {
        "batch": 4, "tags": 240, "presences": 2, "reads": 9,
        "read_gap": 0.1, "away": 1.3,
    },
    "location_table": {"batch": 8, "tags": 120, "reads_per_stay": 6},
    "seq_quality": {
        "batch": 48, "products": 1_600, "rereads": 4, "dropout": 0.15,
    },
    "quality_sharded": {
        "batch": 256, "products": 28_000, "rereads": 1, "dropout": 0.15,
    },
    "temporal_mix": {"batch": 256, "cases": 5_120, "runs": 14_400, "door": 28_800},
    "multi_query": {
        "batch": 128, "readings": 51_200, "tags": 2_400, "eq": 1_900,
        "range": 80, "seq": 20, "churn_every": 100, "churn": 20,
        "exit_every": 40,
    },
}

WORKLOADS = tuple(SPECS)

#: Engine builds per measured process; setup_s is their median.  A single
#: engine compiles one to three queries in about a millisecond, so it is
#: built often enough for a steady median; 2,000 registrations take about a
#: second and are steady alone.
SETUP_REPEATS = {name: 9 for name in SPECS} | {"quality_sharded": 5, "multi_query": 1}


# ---------------------------------------------------------------------------
# Generators: (records sorted by ts, ground truth)
# ---------------------------------------------------------------------------


def _exact_share(rng: random.Random, n: int, shares: dict[str, float]) -> list[str]:
    """A shuffled label list holding exactly ``round(n * share)`` of each
    label; the first label takes the remainder."""
    labels: list[str] = []
    first, *rest = shares
    for label in rest:
        labels += [label] * round(n * shares[label])
    labels += [first] * (n - len(labels))
    rng.shuffle(labels)
    return labels


def gen_epc_filter(rng: random.Random, spec: dict) -> tuple[list[Record], Any]:
    """Example 3: a mixed-company EPC stream; truth = matching readings."""
    records: list[Record] = []
    matching = 0
    for index in range(spec["readings"]):
        company = rng.choice((20, 21, 37))
        serial = rng.randint(1, 12_000)
        ts = index * 0.01
        records.append((
            "readings", ts,
            {"reader_id": "agg1", "tid": f"{company}.{rng.randint(1, 50)}.{serial}",
             "read_time": ts},
        ))
        if company == 20 and 5000 < serial < 9999:
            matching += 1
    return records, {"matching": matching}


def gen_dedup_window(rng: random.Random, spec: dict) -> tuple[list[Record], Any]:
    """Example 1: tags dwelling in a reader field, re-read every
    ``read_gap`` s; presences of one tag are ``away`` s (> the 1 s window)
    apart.  Truth = the first read of each presence."""
    reads, read_gap = spec["reads"], spec["read_gap"]
    period = reads * read_gap + spec["away"]
    records: list[Record] = []
    first_reads: list[tuple[float, str, str]] = []
    for tag_index in range(spec["tags"]):
        tag = f"20.1.{1000 + tag_index}"
        reader = f"dock{tag_index % 4}"
        offset = rng.uniform(0.0, period)
        for presence in range(spec["presences"]):
            start = offset + presence * period
            for read in range(reads):
                ts = start + read * read_gap + rng.uniform(0.0, 0.02)
                records.append((
                    "readings", ts,
                    {"reader_id": reader, "tag_id": tag, "read_time": ts},
                ))
                if read == 0:
                    first_reads.append((ts, reader, tag))
    records.sort(key=lambda record: record[1])
    first_reads.sort()
    return records, {"cleaned": [[r, t, ts] for ts, r, t in first_reads]}


def gen_location_table(rng: random.Random, spec: dict) -> tuple[list[Record], Any]:
    """Example 2: each tag makes five stays over four distinct locations
    (the fourth stay revisits the first), re-read at every stay.  Truth =
    one table row per first visit."""
    locations = [f"loc{i}" for i in range(8)]
    records: list[Record] = []
    first_visits: list[tuple[float, str, str]] = []
    for tag_index in range(spec["tags"]):
        tag = f"20.2.{2000 + tag_index}"
        a, b, c, d = rng.sample(locations, 4)
        t = rng.uniform(0.0, 30.0)
        seen: set[str] = set()
        for location in (a, b, c, a, d):
            if location not in seen:
                seen.add(location)
                first_visits.append((t, tag, location))
            for _ in range(spec["reads_per_stay"]):
                records.append((
                    "tag_locations", t,
                    {"readerid": f"rd_{location}", "tid": tag, "tagtime": t,
                     "loc": location},
                ))
                t += rng.uniform(4.0, 6.0)
            t += rng.uniform(5.0, 20.0)
    records.sort(key=lambda record: record[1])
    first_visits.sort()
    return records, {"rows": [[tag, loc, ts] for ts, tag, loc in first_visits]}


def gen_quality_line(rng: random.Random, spec: dict) -> tuple[list[Record], Any]:
    """Example 6: products pass four checkpoints 5-60 s apart, each
    checkpoint reporting the tag ``rereads`` times 0.5 s apart; an exact
    ``dropout`` share leaves the line after step 1, 2 or 3.  Truth = the
    read times per step of every product that completes."""
    rereads = spec["rereads"]
    fates = _exact_share(
        rng, spec["products"],
        {"4": 1 - spec["dropout"], "1": spec["dropout"] / 3,
         "2": spec["dropout"] / 3, "3": spec["dropout"] / 3},
    )
    records: list[Record] = []
    completed: dict[str, list[list[float]]] = {}
    start = 0.0
    for index, fate in enumerate(fates):
        tag = f"20.6.{6000 + index}"
        t = start
        steps: list[list[float]] = []
        for step in range(int(fate)):
            t += rng.uniform(5.0, 60.0)
            times = [t + read * 0.5 for read in range(rereads)]
            stream = f"c{step + 1}"
            for ts in times:
                records.append(
                    (stream, ts, {"readerid": stream, "tagid": tag, "tagtime": ts})
                )
            steps.append(times)
        if fate == "4":
            completed[tag] = steps
        start += rng.uniform(1.0, 10.0)
    records.sort(key=lambda record: record[1])
    return records, {"completed": completed}


def _last(labels: list[str], label: str) -> list[str]:
    """Swap one *label* to the end of a shuffled label list."""
    at = labels.index(label)
    labels[at], labels[-1] = labels[-1], labels[at]
    return labels


def gen_temporal_mix(rng: random.Random, spec: dict) -> tuple[list[Record], Any]:
    """Examples 4/7, 5 and 8 on one timeline.

    The lab procedure (hours per run) sets the length of the timeline; the
    packing line works in pallets of eight overlapping cases and the door
    sees isolated passages, both spread evenly over the same span so the
    six streams interleave from the first reading to the last.  The last
    lab run times out and the last passage is an unescorted item, so their
    timers are still pending when the trace ends and flush() fires them.
    """
    records: list[Record] = []

    # -- lab workflow (Example 5): one procedure run at a time, the next
    # starting 1.1-1.5 deadlines after the previous one ended.
    kinds = _last(_exact_share(
        rng, spec["runs"],
        {"ok": 0.7, "wrong_order": 0.1, "wrong_start": 0.1, "timeout": 0.1},
    ), "timeout")
    steps = {  # kind -> (stream, offset) per reading, violation row pattern
        "ok": ((("a1", 0.0), ("a2", 300.0), ("a3", 600.0)), None),
        "wrong_order": ((("a1", 0.0), ("a3", 300.0)), (True, False, False)),
        "wrong_start": ((("a2", 0.0),), (False, False, False)),
        "timeout": ((("a1", 0.0), ("a2", 300.0)), (True, True, False)),
    }
    violations: list[list[Any]] = []
    t = horizon = 0.0
    for run, kind in enumerate(kinds):
        tag = f"op{run}"
        readings, pattern = steps[kind]
        for stream, offset in readings:
            records.append((stream, t + offset, {"tagid": tag, "tagtime": t + offset}))
        if pattern is not None:
            violations.append([tag if bound else None for bound in pattern])
        horizon = t + readings[-1][1] + 60.0
        t += readings[-1][1] + (3600.0 if kind == "timeout" else 0.0)
        t += rng.uniform(3960.0, 5400.0)

    # -- packing line (Examples 4/7): products 0.4 s apart (< t1 = 1 s),
    # case tag 3 s after its last product (< t0 = 5 s), next case's
    # products starting 2 s after the previous run (> t1) — i.e. before
    # the previous case tag is read, the hard part of Figure 1(b).
    sizes = [2 + index % 7 for index in range(spec["cases"])]
    rng.shuffle(sizes)
    pallets = spec["cases"] // 8
    cases: list[list[Any]] = []
    serial = 0
    for case_index, size in enumerate(sizes):
        if case_index % 8 == 0:
            t = (case_index // 8 + rng.random() * 0.5) * horizon / pallets
        first = t
        for _ in range(size):
            serial += 1
            records.append(
                ("r1", t, {"readerid": "r1", "tagid": f"20.4.{serial}", "tagtime": t})
            )
            t += 0.4
        case_ts = t - 0.4 + 3.0
        tag = f"case.{case_index}"
        records.append(("r2", case_ts, {"readerid": "r2", "tagid": tag, "tagtime": case_ts}))
        cases.append([first, size, tag, case_ts])
        t += 2.0 - 0.4

    # -- door (Example 8): passages more than two 1-minute windows apart;
    # an escort walks through within 20 s of the item.
    passages = _last(_exact_share(
        rng, spec["door"], {"escorted": 0.65, "theft": 0.15, "lone_person": 0.2}
    ), "theft")
    slot = horizon / spec["door"]
    if slot * 0.8 < 250.0:
        raise ValueError("door passages closer than two 1-minute windows")
    thefts: list[str] = []
    for index, kind in enumerate(passages):
        t = (index + 0.5 + rng.uniform(-0.1, 0.1)) * slot
        if index == len(passages) - 1:
            t = horizon - 30.0
        seen = {"escorted": (("item", 0.0), ("person", rng.uniform(-20.0, 20.0))),
                "theft": (("item", 0.0),), "lone_person": (("person", 0.0),)}[kind]
        for tagtype, offset in seen:
            records.append((
                "tag_readings", t + offset,
                {"tagid": f"{tagtype}{index}", "tagtype": tagtype, "tagtime": t + offset},
            ))
        if kind == "theft":
            thefts.append(f"item{index}")

    records.sort(key=lambda record: record[1])
    cases.sort(key=lambda case: case[3])
    return records, {"cases": cases, "violations": violations, "thefts": thefts}


def multi_query_plan(spec: dict) -> dict[str, Any]:
    """The registration schedule of multi_query, shared by the generator
    (for ground truth) and the measured process (to replay it).

    Subscriptions are numbered in registration order.  Initially: ``eq``
    per-tag equality filters on tags 0..eq-1, ``range`` read_time
    intervals, ``seq`` identical SEQ queries.  Before every
    ``churn_every``-th batch the ``churn`` oldest live equality filters are
    cancelled and filters for the next unused tags registered.
    """
    n_batches = -(-(spec["readings"] + spec["readings"] // spec["exit_every"]) // spec["batch"])
    span = spec["readings"] * 0.01
    width = span / 200
    ranges = [
        (round(i * span / spec["range"], 2), round(i * span / spec["range"] + width, 2))
        for i in range(spec["range"])
    ]
    churn_batches = list(range(spec["churn_every"], n_batches, spec["churn_every"]))
    if spec["eq"] + len(churn_batches) * spec["churn"] > spec["tags"]:
        raise ValueError("multi_query: not enough tags for the churn schedule")
    return {"n_batches": n_batches, "ranges": ranges, "churn_batches": churn_batches}


def gen_multi_query(rng: random.Random, spec: dict) -> tuple[list[Record], Any]:
    """Readings uniform over the tag universe, a sparse exits stream, and
    per-subscription answer counts over each registration interval."""
    plan = multi_query_plan(spec)
    tags = [f"t{i:05d}" for i in range(spec["tags"])]
    records: list[Record] = []
    last_read: set[str] = set()
    exit_tags = rng.sample(tags, spec["readings"] // spec["exit_every"])
    seq_matches = 0
    for index in range(spec["readings"]):
        tag = rng.choice(tags)
        ts = index * 0.01
        records.append((
            "readings", ts,
            {"reader_id": f"r{rng.randrange(8)}", "tag_id": tag, "read_time": ts},
        ))
        last_read.add(tag)
        if index % spec["exit_every"] == spec["exit_every"] - 1:
            tag = exit_tags.pop()
            ts += 0.005
            records.append(("exits", ts, {"tag_id": tag, "exit_time": ts}))
            seq_matches += tag in last_read

    # Registration intervals [from_batch, to_batch) of every equality
    # filter, in registration order.
    batch = spec["batch"]
    intervals: list[list[Any]] = [[tags[i], 0, plan["n_batches"]] for i in range(spec["eq"])]
    oldest = 0
    for at in plan["churn_batches"]:
        for _ in range(spec["churn"]):
            intervals[oldest][2] = at
            oldest += 1
            intervals.append([tags[len(intervals)], at, plan["n_batches"]])
    per_tag_batches: dict[str, list[int]] = {}
    range_counts = [0] * len(plan["ranges"])
    lows = [lo for lo, _ in plan["ranges"]]  # ascending and disjoint
    for position, (stream, ts, fields) in enumerate(records):
        if stream != "readings":
            continue
        per_tag_batches.setdefault(fields["tag_id"], []).append(position // batch)
        slot = bisect.bisect_right(lows, ts) - 1
        if slot >= 0 and ts < plan["ranges"][slot][1]:
            range_counts[slot] += 1
    eq_counts = [
        sum(lo <= b < hi for b in per_tag_batches.get(tag, ()))
        for tag, lo, hi in intervals
    ]
    initial = eq_counts[: spec["eq"]] + range_counts + [seq_matches] * spec["seq"]
    return records, {"counts": initial + eq_counts[spec["eq"]:]}


GENERATORS = {
    "epc_filter": gen_epc_filter,
    "dedup_window": gen_dedup_window,
    "location_table": gen_location_table,
    "seq_quality": gen_quality_line,
    "quality_sharded": gen_quality_line,
    "temporal_mix": gen_temporal_mix,
    "multi_query": gen_multi_query,
}


# ---------------------------------------------------------------------------
# CSV + truth cache
# ---------------------------------------------------------------------------


def materialise(workload: str, seed: int, out_dir: Path) -> tuple[Path, Path]:
    """Write (or reuse) the CSV trace and truth file of one (workload,
    seed, size) and return their paths.

    The CSV has the ``stream,ts,<fields...>`` layout ``load_trace`` reads.
    Files of the same workload under another seed or size are dropped so
    a long series of seeds does not fill the disk.
    """
    spec = SPECS[workload]
    size = "-".join(str(value) for value in spec.values())
    stem = f"{workload}.s{seed}.{size}"
    csv_path = out_dir / f"{stem}.csv"
    truth_path = out_dir / f"{stem}.truth.json"
    if csv_path.exists() and truth_path.exists():
        return csv_path, truth_path
    out_dir.mkdir(parents=True, exist_ok=True)
    for stale in out_dir.glob(f"{workload}.s*"):
        stale.unlink()
    rng = random.Random(f"{workload}:{seed}")
    records, truth = GENERATORS[workload](rng, spec)
    fields = sorted({name for _, _, row in records for name in row})
    with open(csv_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["stream", "ts", *fields])
        writer.writerows(
            [stream, repr(ts), *[row.get(name, "") for name in fields]]
            for stream, ts, row in records
        )
    with open(truth_path, "w") as handle:
        json.dump(truth, handle)
    return csv_path, truth_path
