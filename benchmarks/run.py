#!/usr/bin/env python3
"""The benchmark: one command, every workload, every metric by name.

    python3 benchmarks/run.py --seed 42                  # all six workloads
    python3 benchmarks/run.py --workload mbtc_raftmongo --trace 1
    python3 benchmarks/run.py --quick --out quick.json   # self-check sizes

A run of one workload is single-process and closed-loop (one caller, no
worker pools).  Its order:

1. ``SETUPS`` cold child processes (``child.py``) each import ``repro`` and
   generate the inputs from ``--seed``; ``setup_s`` is their median.  The
   last one also writes the inputs out, does one repetition and reports its
   peak resident set.
2. One untimed warm-up repetition here (page cache, imports).
3. Timed repetitions, each on a freshly built spec, until ``--seconds`` have
   passed and ``--repeats`` are done.  Every repetition's outcome is checked
   against the known answer.

With ``--trace 1`` step 3 alternates plain and staged repetitions (one span
per stage the benchmark can see) and then runs the per-layer probes of
``layers.py``; the end-to-end metrics always come from ``--trace 0``.

After each workload's table the last line printed is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric of ``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
``--trace 1`` (0 where the workload does not reach that layer).  ``--out``
gets the full document ``compare.py`` reads.  Exit code 0 when every outcome
matched, 1 when one did not, 2 when there is nothing to measure.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence

from spans import REP_SPAN, Recorder

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Everything a run writes -- generated logs, corpora, the library's own temp
#: files, spans -- stays under this directory of the checkout.
WORK_ROOT = os.path.join(ROOT, ".bench_work")

#: Cold set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Least timed repetitions per run.
REPEATS = 5
#: Least plain/staged repetition pairs of a traced pass.
TRACED_PAIRS = 3


def load_contract() -> Dict[str, Any]:
    """``BENCHMARK.json``: the one place metric names, units and bounds live."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def summary(values: Sequence[float], unit: str) -> Dict[str, Any]:
    """Median, quartiles, extremes and count of one metric's samples."""
    if len(values) > 1:
        q1, _median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values), "unit": unit, "n": len(values),
        "q1": q1, "q3": q3, "min": min(values), "max": max(values),
    }


def cold_start(name: str, seed: int, quick: bool, full: bool, workdir: str) -> Dict[str, Any]:
    """Set the workload up in a fresh process; see ``child.py``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (SRC, env.get("PYTHONPATH")) if part
    )
    argv = [sys.executable, os.path.join(HERE, "child.py"), name, str(seed),
            str(int(quick)), str(int(full)), workdir]
    done = subprocess.run(argv, env=env, stdout=subprocess.PIPE, check=True, timeout=150)
    return json.loads(done.stdout.decode("utf-8").splitlines()[-1])


def measure_workload(
    name: str, args: argparse.Namespace, contract: Dict[str, Any], workdir: str, rec
) -> Dict[str, Any]:
    """Set up, repeat, check; returns the workload's section of the document."""
    import workloads  # needs src/ on the path, which main() has seen to

    workload = workloads.make_workload(name, args.quick)
    # Only the last child writes the inputs, repeats once and reports memory.
    colds = [
        cold_start(name, args.seed, args.quick, index == args.setups - 1,
                   os.path.join(workdir, name))
        for index in range(args.setups)
    ]
    inputs = workloads.Inputs(**colds[-1]["inputs"])
    workload.run(inputs)  # warm-up

    plain: List[Any] = []
    staged: List[Any] = []
    # A traced pass spends half its time on repetition pairs, half on probes.
    deadline = time.perf_counter() + (args.seconds / 2 if args.trace else args.seconds)
    while len(plain) < args.repeats or time.perf_counter() < deadline:
        gc.collect()
        plain.append(workload.run(inputs))
        if args.trace:
            gc.collect()
            staged.append(workload.run(inputs, rec))

    checked = plain + staged
    failed = sum(workload.failed(inputs, obs) for obs in checked)
    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    if args.trace:
        values = layer_values(workload, inputs, plain, staged, colds, rec, args.seed)
        undeclared = sorted(set(values) - set(units))
        if undeclared:
            raise RuntimeError(f"{name}: undeclared per-layer metrics {undeclared}")
        metrics = {key: summary([value], units[key]) for key, value in values.items()}
    else:
        samples = {
            "wall_s": [obs.wall_s for obs in plain],
            "work_per_s": [obs.work / obs.wall_s for obs in plain],
            "setup_s": [cold["import_s"] + cold["generate_s"] for cold in colds],
            "peak_rss_mb": [colds[-1]["peak_rss_mb"]],
        }
        metrics = {key: summary(values, units[key]) for key, values in samples.items()}
    attempted = workload.attempted(inputs) * len(checked)
    return {
        "work_unit": workload.unit,
        "input_digest": inputs.digest,
        "sizes": inputs.sizes,
        "counts": plain[-1].counts,
        "repetitions": len(plain),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "metrics": metrics,
    }


def layer_values(workload, inputs, plain, staged, colds, rec, seed) -> Dict[str, float]:
    """The traced pass's numbers: staged self times, then the layer probes."""
    wall = statistics.median(obs.wall_s for obs in plain)
    staged_wall = statistics.median(obs.wall_s for obs in staged)
    # Self seconds per span name, averaged over the staged repetitions.
    stages = {
        span: seconds / len(staged)
        for span, seconds in rec.self_times(workload.name, REP_SPAN).items()
    }
    total = sum(stages.values())
    values = workload.layer_metrics(inputs, staged[-1], wall, stages, rec, seed)
    for span in workload.stage_spans:
        values[f"{span}_share"] = stages[span] / total
    values.update({
        "bench.import_s": statistics.median(cold["import_s"] for cold in colds),
        "bench.staged_wall_s": staged_wall,
        "bench.trace_overhead_share": staged_wall / wall - 1.0,
        "bench.unattributed_share": stages[REP_SPAN] / total,
    })
    return values


def result_line(section: Dict[str, Any], declared: List[Dict[str, str]]) -> str:
    """The driver's line: every declared metric, 0 where the layer is idle."""
    metrics = {}
    for metric in declared:
        measured = section["metrics"].get(metric["name"])
        metrics[metric["name"]] = {
            "value": measured["median"] if measured else 0.0, "unit": metric["unit"],
        }
    return json.dumps({
        "correct": section["failed"] == 0,
        "attempted": section["attempted"],
        "failed": section["failed"],
        "metrics": metrics,
    })


def print_section(name: str, section: Dict[str, Any], seed: int) -> None:
    print(f"{name}  seed {seed}  {section['repetitions']} repetitions  "
          f"input {section['input_digest'][:12]}  {section['sizes']}")
    for key, m in section["metrics"].items():
        spread = (
            f"  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  min {m['min']:.6g}  "
            f"max {m['max']:.6g}  n {m['n']}" if m["n"] > 1 else ""
        )
        print(f"  {key:<40} {m['median']:>14.6g} {m['unit']}{spread}")
    print(f"  {'failed_share':<40} {section['failed_share']:>14.6g} share  "
          f"({section['failed']} of {section['attempted']} operations)")


def write_atomic(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp, path)


def parse_args(argv: Optional[Sequence[str]], contract: Dict[str, Any]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", metavar="NAME",
                        choices=[w["name"] for w in contract["workloads"]],
                        help="measure only this workload (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=42,
                        help="seed of the input generators (default 42)")
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]),
                        help="measure each workload for at least this long")
    parser.add_argument("--repeats", type=int,
                        help="least timed repetitions per workload "
                             f"(default {REPEATS}; {TRACED_PAIRS} pairs with --trace 1)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced pass, per-layer metrics only")
    parser.add_argument("--quick", action="store_true",
                        help="tenth-size inputs, 2 repetitions: a self-check, never a baseline")
    parser.add_argument("--out", metavar="FILE", help="write the full document here")
    args = parser.parse_args(argv)
    if args.repeats is None:
        args.repeats = TRACED_PAIRS if args.trace else REPEATS
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    # The traced pass reports no set-up time, so it sets up once.
    args.setups = 1 if args.trace else SETUPS
    if args.quick:
        args.seconds, args.repeats, args.setups = 0.0, 2, 1
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    contract = load_contract()
    args = parse_args(argv, contract)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no {os.path.join('src', 'repro')} in {ROOT}: nothing to measure",
              file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    names = args.workload or [w["name"] for w in contract["workloads"]]
    declared = contract["per_layer"] if args.trace else contract["end_to_end"]
    rec = Recorder()
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    # The library's own temp files (SQLite store, frontier spill) go there too.
    tempfile.tempdir = workdir
    sections: Dict[str, Any] = {}
    try:
        for name in names:
            sections[name] = measure_workload(name, args, contract, workdir, rec)
            print_section(name, sections[name], args.seed)
            print(result_line(sections[name], declared), flush=True)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)
        if args.trace:
            rec.write(f"{args.out}.spans.jsonl" if args.out
                      else os.path.join(WORK_ROOT, "spans.jsonl"))
    if args.out:
        document = {
            "quick": args.quick, "seed": args.seed, "seconds": args.seconds,
            "repeats": args.repeats, "trace": args.trace,
            "environment": {
                "nproc": os.cpu_count(), "python": platform.python_version(),
                "platform": platform.platform(),
            },
            "workloads": sections,
        }
        write_atomic(args.out, json.dumps(document, indent=2, sort_keys=True) + "\n")
    return 1 if any(section["failed"] for section in sections.values()) else 0


if __name__ == "__main__":
    # str hashes are salted per process, and set and dict layouts follow them:
    # check_locking4 reads 6-8% slower under some salts than others.  Every
    # measuring process, the children included, runs with the salt switched off.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.orig_argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
