"""Command-line interface: run ESL-EV scripts against CSV traces.

Usage::

    python -m repro --script queries.sql --trace readings.csv
    python -m repro --script queries.sql --trace readings.csv --explain
    python -m repro --demo containment        # run a packaged scenario

The script file contains ``;``-separated ESL-EV statements (DDL first,
then continuous queries).  The trace file is the CSV format of
:mod:`repro.rfid.traceio`.  Output rows from the *last* query in the
script are printed as CSV to stdout; ``--follow STREAM`` prints a derived
stream instead.

Named benchmarks run through the ``bench`` subcommand and write their
machine-readable report next to the working directory::

    python -m repro bench sharded_scaling --out . --reps 3
"""

from __future__ import annotations

import argparse
import csv
import sys
from typing import Sequence

from .core.planner import describe_handle
from .dsms import Engine
from .rfid import scenarios, workloads
from .rfid.traceio import load_trace, replay

#: Named demos: (workload factory, scenario builder, feed kwargs)
DEMOS = {
    "dedup": (workloads.dedup_workload, scenarios.build_dedup, {}),
    "location": (workloads.location_workload, scenarios.build_location, {}),
    "epc": (workloads.epc_stream_workload, scenarios.build_epc_aggregation, {}),
    "containment": (workloads.packing_workload, scenarios.build_containment, {}),
    "workflow": (workloads.lab_workflow_workload, scenarios.build_lab_workflow, {}),
    "quality": (workloads.quality_check_workload, scenarios.build_quality_check, {}),
    "door": (workloads.door_workload, scenarios.build_door, {}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run ESL-EV stream queries against RFID traces.",
    )
    parser.add_argument("--script", help="ESL-EV statements (;-separated)")
    parser.add_argument("--trace", help="CSV trace file to replay")
    parser.add_argument(
        "--time-scale", type=float, default=1.0,
        help="timestamp scale factor for the replay (default 1.0)",
    )
    parser.add_argument(
        "--follow", metavar="STREAM",
        help="print tuples of this derived stream instead of the last "
             "query's rows",
    )
    parser.add_argument(
        "--explain", action="store_true",
        help="print the compiled plan of the last query and exit",
    )
    parser.add_argument(
        "--flush", action="store_true",
        help="fire pending timers at end of trace (timeouts, windows)",
    )
    parser.add_argument(
        "--demo", choices=sorted(DEMOS),
        help="run a packaged paper scenario on simulated data",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="workload seed for --demo",
    )
    return parser


def _print_rows(rows: Sequence[dict], out=None) -> None:
    out = out if out is not None else sys.stdout
    if not rows:
        print("(no output rows)", file=out)
        return
    writer = csv.writer(out)
    header = list(rows[0].keys())
    writer.writerow(header)
    for row in rows:
        writer.writerow([row.get(column, "") for column in header])


def run_script(args: argparse.Namespace) -> int:
    engine = Engine()
    with open(args.script) as handle:
        text = handle.read()
    query_handle = engine.query(text, name="cli")
    if args.explain:
        print(describe_handle(query_handle).render())
        return 0
    collector = None
    if args.follow:
        collector = engine.collect(args.follow)
    if args.trace:
        trace = load_trace(args.trace, engine)
        replay(engine, trace, time_scale=args.time_scale)
    if args.flush:
        engine.flush()
    if collector is not None:
        _print_rows(collector.rows())
    elif query_handle.output is None:
        _print_rows(query_handle.rows())
    else:
        print(
            f"query writes to {query_handle.output.name!r}; "
            f"use --follow {query_handle.output.name} to print it",
            file=sys.stderr,
        )
        return 1
    return 0


def run_demo(args: argparse.Namespace) -> int:
    factory, builder, feed_kwargs = DEMOS[args.demo]
    workload = factory(seed=args.seed) if args.seed is not None else factory()
    scenario = builder(workload)
    advance_to = None
    if isinstance(workload.truth, dict):
        advance_to = workload.truth.get("horizon")
    scenario.feed(advance_to=advance_to, **feed_kwargs)
    print(f"# scenario: {scenario.name}", file=sys.stderr)
    print(f"# trace records: {len(workload.trace)}", file=sys.stderr)
    rows = scenario.rows()
    _print_rows(rows)
    print(f"# output rows: {len(rows)}", file=sys.stderr)
    return 0


def build_bench_parser() -> argparse.ArgumentParser:
    from .bench import BENCH_RUNNERS

    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Run a named benchmark and write BENCH_<name>.json.",
    )
    parser.add_argument(
        "name", choices=sorted(BENCH_RUNNERS),
        help="benchmark to run",
    )
    parser.add_argument(
        "--out", default=".", metavar="DIR",
        help="directory for the BENCH_<name>.json report (default: cwd)",
    )
    parser.add_argument(
        "--reps", type=int, default=None,
        help="repetitions per configuration (default: REPRO_BENCH_REPS or 3)",
    )
    parser.add_argument(
        "--size", type=int, default=None,
        help="workload size knob (products, runner-specific default)",
    )
    parser.add_argument(
        "--executor", choices=("serial", "parallel"), default=None,
        help="sharded executor to measure (runner-specific default)",
    )
    return parser


def run_bench(argv: Sequence[str]) -> int:
    import inspect

    from .bench import BENCH_RUNNERS

    args = build_bench_parser().parse_args(argv)
    runner = BENCH_RUNNERS[args.name]
    kwargs: dict = {}
    if args.reps is not None:
        kwargs["reps"] = args.reps
    if args.size is not None:
        kwargs["n_products"] = args.size
    if args.executor is not None:
        kwargs["executor"] = args.executor
    accepted = inspect.signature(runner).parameters
    dropped = sorted(set(kwargs) - set(accepted))
    if dropped:
        print(
            f"# {args.name} ignores: {', '.join(dropped)}", file=sys.stderr
        )
        kwargs = {key: kwargs[key] for key in kwargs if key in accepted}
    report = runner(**kwargs)
    path = report.write(args.out)
    print(f"# wrote {path}", file=sys.stderr)
    for entry in report.experiments:
        line = (
            f"{entry['label']}: {entry['throughput_tuples_per_s']:,.0f} "
            "tuples/s"
        )
        if "speedup_vs_single" in entry:
            line += f" speedup={entry['speedup_vs_single']:.2f}x"
        if entry.get("cpu_limited"):
            line += " (cpu-limited)"
        print(line, file=sys.stderr)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "bench":
        return run_bench(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.demo:
        return run_demo(args)
    if not args.script:
        parser.error("either --script or --demo is required")
    return run_script(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
