"""End-to-end benchmark over the paper's queries: the one command.

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed 2007]
        [--seconds 13 | --repeats N] [--trace] [--aa] [--profile NAME]
        [--pin-digests] [--out benchmarks/e2e/out]

Generates each workload's input once per (workload, seed), then launches
``measure.py`` as a fresh child process per repeat, one at a time (closed
loop, one client, one thread; quality_sharded adds its two workers).  An
untraced invocation launches repeats of a workload until ``--seconds`` have
passed and reports the best repeat of
every end-to-end metric, beside its median and spread (on a shared host
interference only ever slows a repeat; README.md has the measurements
behind that choice); ``--trace`` runs one untraced and one traced pass and
reports the per-layer metrics.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Exit status is
non-zero when a result check fails, repeats disagree on the output
digest, a child fails, or (``--aa``) two back-to-back sets differ by more
than a metric's bound.

Metric names, units and bounds are read from BENCHMARK.json at the root of
the repository; README.md in this directory is the glossary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import workloads as W

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"


def contract() -> dict[str, Any]:
    with open(HERE.parents[1] / "BENCHMARK.json") as handle:
        return json.load(handle)


def launch(workload: str, csv_path: Path, truth_path: Path, *extra: str) -> dict:
    """One fresh measured process; its last stdout line is its result."""
    command = [
        sys.executable, str(HERE / "measure.py"), "--workload", workload,
        "--csv", str(csv_path), "--truth", str(truth_path), *extra,
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=170)
    if done.returncode != 0:
        sys.exit(f"run.py: measured process for {workload} exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def spread(values: list[float]) -> float:
    """Interquartile range (0 with fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def measure(workload: str, seed: int, seconds: float, repeats: int | None,
            out_dir: Path, pinned: dict[str, str], bench: dict) -> dict[str, Any]:
    """Untraced repeats of one workload; each metric's best repeat is its
    value, median and interquartile range are kept beside it."""
    csv_path, truth_path = W.materialise(workload, seed, out_dir)
    runs: list[dict] = []
    deadline = time.monotonic() + seconds
    while (len(runs) < repeats) if repeats else (time.monotonic() < deadline):
        runs.append(launch(workload, csv_path, truth_path))
    digests = {run["digest"] for run in runs}
    metrics = {}
    for spec in bench["end_to_end"]:
        values = [run["metrics"][spec["name"]] for run in runs]
        metrics[spec["name"]] = {
            "best": max(values) if spec["better"] == "higher" else min(values),
            "median": statistics.median(values),
            "iqr": spread(values), "values": values,
        }
    digest = runs[0]["digest"]
    result = {
        "workload": workload, "seed": seed, "repeats": len(runs),
        "readings": runs[0]["readings"],
        "ops_total": sum(run["ops_total"] for run in runs),
        "ops_failed": sum(run["ops_failed"] for run in runs),
        "digest": digest,
        "digest_consistent": len(digests) == 1,
        # None: nothing pinned for this (workload, seed, size).
        "digest_match": (pinned[csv_path.stem] == digest
                         if csv_path.stem in pinned else None),
        "input": csv_path.stem,
        "metrics": metrics,
        "meta": runs[0]["meta"],
    }
    with open(out_dir / f"e2e_{workload}.json", "w") as handle:
        json.dump(result, handle, indent=1)
    return result


def trace(workload: str, seed: int, out_dir: Path) -> dict[str, Any]:
    """One untraced pass, then the traced pass with its probe ladder."""
    csv_path, truth_path = W.materialise(workload, seed, out_dir)
    trace_path = out_dir / f"trace_{workload}.json"
    plain = launch(workload, csv_path, truth_path)
    traced = launch(workload, csv_path, truth_path, "--trace")
    layers = traced["layers"]
    # Base: the untraced pass of this same invocation.
    layers["trace.overhead_pct"] = 100.0 * (traced["wall_s"] / plain["wall_s"] - 1.0)
    with open(trace_path, "w") as handle:
        json.dump({"meta": traced["meta"], "workload": workload, "seed": seed,
                   "untraced_wall_s": plain["wall_s"], "layers": layers,
                   "spans": traced["spans"]}, handle)
    return {
        "workload": workload, "seed": seed, "layers": layers,
        "ops_total": plain["ops_total"] + traced["ops_total"],
        "ops_failed": plain["ops_failed"] + traced["ops_failed"],
        "digest_consistent": plain["digest"] == traced["digest"],
        "meta": traced["meta"], "trace_file": str(trace_path),
    }


def profile(workload: str, seed: int, out_dir: Path) -> None:
    """One pass under cProfile, to cross-check the probe-ladder shares."""
    csv_path, truth_path = W.materialise(workload, seed, out_dir)
    path = out_dir / f"profile_{workload}.json"
    launch(workload, csv_path, truth_path, "--profile-out", str(path))
    with open(path) as handle:
        top = json.load(handle)["top_cumulative"]
    print(f"== {workload}: top 25 by cumulative time (cProfile) -> {path}")
    for entry in top:
        print(f"   {entry['cumtime_s']:9.3f} s cum {entry['tottime_s']:9.3f} s self "
              f"{entry['ncalls']:>9} calls  {entry['function']}")


def report_header(result: dict) -> None:
    meta = result["meta"]
    tier = meta["execution_tier"]
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"{result['ops_total']} ops, {result['ops_failed']} failed  "
          f"tier {tier['active']} (pairing {tier['pairing']['active']})  "
          f"cc {'yes' if meta['c_compiler'] else 'no'}  "
          f"load {meta['loadavg_1m']:.2f}/{meta['nproc']}")
    if meta["contended"]:
        print("   WARNING: contended host (load average above nproc)")
    if not result["digest_consistent"]:
        print("   FAILED: repeats of this invocation emitted different rows")


def report_measured(result: dict, bench: dict) -> None:
    report_header(result)
    match = {True: "matches pinned", False: "DIFFERS FROM PINNED DIGEST",
             None: "not pinned"}[result["digest_match"]]
    print(f"   {result['repeats']} repeats of {result['readings']} readings  "
          f"digest {result['digest'][:12]} ({match})")
    if result["digest_match"] is False:
        print("   WARNING: digest_match false: emitted rows changed since "
              "digests.json was pinned")
    for spec in bench["end_to_end"]:
        values = result["metrics"][spec["name"]]
        print(f"   {spec['name']:<14}{values['best']:>14.6g} {spec['unit']:<11}"
              f"median {values['median']:.6g}  iqr {values['iqr']:.3g}  "
              f"({spec['better']} is better, bound {spec['bound']:.0%})")


def report_traced(result: dict, bench: dict) -> None:
    report_header(result)
    print(f"   spans -> {result['trace_file']}")
    for spec in bench["per_layer"]:
        if spec["name"] in result["layers"]:
            print(f"   {spec['name']:<36}{result['layers'][spec['name']]:>16.6g} "
                  f"{spec['unit']}")


def all_correct(results: list[dict]) -> bool:
    return all(r["ops_failed"] == 0 and r["digest_consistent"] for r in results)


def final_line(results: list[dict], bench: dict, traced: bool) -> str:
    """The machine-readable last line.  With one workload the metric names
    are exactly BENCHMARK.json's; with several they are prefixed."""
    metrics: dict[str, dict] = {}
    for result in results:
        prefix = f"{result['workload']}." if len(results) > 1 else ""
        for spec in bench["per_layer" if traced else "end_to_end"]:
            if traced:  # a layer the workload does not exercise did nothing
                value = result["layers"].get(spec["name"], 0.0)
            else:
                value = result["metrics"][spec["name"]]["best"]
            metrics[prefix + spec["name"]] = {"value": value, "unit": spec["unit"]}
    return json.dumps({
        "correct": all_correct(results),
        "attempted": sum(result["ops_total"] for result in results),
        "failed": sum(result["ops_failed"] for result in results),
        "metrics": metrics,
    })


def compare_sets(first: list[dict], second: list[dict], bench: dict) -> bool:
    """A/A: both values, their relative difference and the bound, per
    workload x end-to-end metric.  True when every pair agrees."""
    agree = True
    print("== A/A: two back-to-back sets of the same code")
    for a, b in zip(first, second):
        for spec in bench["end_to_end"]:
            x = a["metrics"][spec["name"]]["best"]
            y = b["metrics"][spec["name"]]["best"]
            diff = (y - x) / x
            ok = abs(diff) <= spec["bound"]
            agree &= ok
            print(f"   {a['workload']:<16}{spec['name']:<14}{x:>14.6g}{y:>14.6g} "
                  f"{spec['unit']:<11}{diff:>+8.2%}  bound {spec['bound']:.0%}  "
                  f"{'ok' if ok else 'EXCEEDS BOUND'}")
    return agree


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", action="append", choices=W.WORKLOADS,
                        help="repeatable; default: all seven")
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--seconds", type=float, default=13.0,
                        help="launch repeats of a workload for this long (untraced runs)")
    parser.add_argument("--repeats", type=int,
                        help="fixed number of repeats instead of --seconds")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="per-layer run: spans + probe ladder")
    parser.add_argument("--aa", action="store_true",
                        help="run the untraced set twice and compare the two")
    parser.add_argument("--profile", choices=W.WORKLOADS,
                        help="run one workload once under cProfile and stop")
    parser.add_argument("--pin-digests", action="store_true",
                        help="record this run's output digests in digests.json")
    parser.add_argument("--out", type=Path, default=HERE / "out")
    args = parser.parse_args()
    bench = contract()
    names = args.workload or list(W.WORKLOADS)
    args.out.mkdir(parents=True, exist_ok=True)

    if args.profile:
        profile(args.profile, args.seed, args.out)
        return 0
    if args.trace:
        results = [trace(name, args.seed, args.out) for name in names]
        for result in results:
            report_traced(result, bench)
        print(final_line(results, bench, traced=True))
        return 0 if all_correct(results) else 1

    with open(DIGESTS) as handle:
        pinned = json.load(handle)

    def one_set() -> list[dict]:
        results = []
        for name in names:
            results.append(
                measure(name, args.seed, args.seconds, args.repeats, args.out,
                        pinned, bench)
            )
            report_measured(results[-1], bench)
        return results

    results = one_set()
    agree = compare_sets(results, one_set(), bench) if args.aa else True
    if args.pin_digests:
        pinned.update({result["input"]: result["digest"] for result in results})
        with open(DIGESTS, "w") as handle:
            json.dump(pinned, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(final_line(results, bench, traced=False))
    return 0 if all_correct(results) and agree else 1


if __name__ == "__main__":
    sys.exit(main())
