#!/usr/bin/env python3
"""Compare two ``run.py --out`` documents: the noise-aware regression gate.

    python3 benchmarks/compare.py BASE.json NEW.json

One row per (workload, metric) the two documents share: both medians, NEW
over BASE as a ratio with its base, and for the end-to-end metrics -- the
ones ``BENCHMARK.json`` gives a bound -- a verdict:

``worse`` / ``better``
    NEW's median is worse / better than BASE's by more than the bound.
``unresolved``
    Neither, but the quartile spread of the repetitions (in either document)
    is wider than the bound: the runs cannot tell "unchanged" from "moved",
    so it is not reported as unchanged.
``within-bound``
    Neither, and both spreads are inside the bound.

Per-layer metrics have no bound; their rows read ``info``.

The two documents must measure the same thing: it refuses (exit code 2) when
seed, ``--seconds``, ``--repeats``, the traced flag, an ``input_digest`` or
an input size differs, or when either is a ``--quick`` run.  Exit code 1 on
any ``worse`` row or any rise in ``failed_share``, else 0.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Optional, Sequence

from run import load_contract

SAME_SETTINGS = ("seed", "seconds", "repeats", "trace")
SAME_INPUTS = ("input_digest", "sizes")


def refusal(base: Dict[str, Any], new: Dict[str, Any]) -> Optional[str]:
    """Why the two documents cannot be compared, or None."""
    for label, doc in (("BASE", base), ("NEW", new)):
        if doc["quick"]:
            return f"{label} is a --quick run: a self-check, never a baseline"
    for key in SAME_SETTINGS:
        if base[key] != new[key]:
            return f"{key} differs: {base[key]!r} vs {new[key]!r}"
    if sorted(base["workloads"]) != sorted(new["workloads"]):
        return "the documents hold different workloads"
    for name, section in base["workloads"].items():
        for key in SAME_INPUTS:
            if section[key] != new["workloads"][name][key]:
                return f"{name}: {key} differs"
    return None


def spread(metric: Dict[str, Any]) -> float:
    """Quartile distance of the repetitions, as a share of their median."""
    return (metric["q3"] - metric["q1"]) / abs(metric["median"]) if metric["median"] else 0.0


def verdict(base: Dict[str, Any], new: Dict[str, Any], better: str, bound: float) -> str:
    change = (new["median"] - base["median"]) / abs(base["median"])
    worsening = change if better == "lower" else -change
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    if max(spread(base), spread(new)) > bound:
        return "unresolved"
    return "within-bound"


def compare(
    base: Dict[str, Any], new: Dict[str, Any], contract: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """One row per shared (workload, metric), plus each ``failed_share``."""
    bounded = {m["name"]: m for m in contract["end_to_end"]}
    rows: List[Dict[str, Any]] = []
    for name, section in base["workloads"].items():
        other = new["workloads"][name]
        for key, a in section["metrics"].items():
            b = other["metrics"].get(key)
            if b is None:
                continue
            rule = bounded.get(key)
            rows.append({
                "workload": name, "metric": key, "unit": a["unit"],
                "base": a["median"], "new": b["median"],
                "verdict": verdict(a, b, rule["better"], rule["bound"]) if rule else "info",
            })
        rows.append({
            "workload": name, "metric": "failed_share", "unit": "share",
            "base": section["failed_share"], "new": other["failed_share"],
            "verdict": "worse" if other["failed_share"] > section["failed_share"]
            else "within-bound",
        })
    return rows


def render(row: Dict[str, Any]) -> str:
    base, new = row["base"], row["new"]
    ratio = f"{new / base:.3f}x of BASE's {base:.6g} {row['unit']}" if base else "-"
    return (f"{row['workload']:<20} {row['metric']:<40} {base:>12.6g} {new:>12.6g}  "
            f"{ratio:<36} {row['verdict']}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if len(argv) != 2:
        print("usage: compare.py BASE.json NEW.json", file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    base, new = documents
    reason = refusal(base, new)
    if reason is not None:
        print(f"compare.py: refusing to compare: {reason}", file=sys.stderr)
        return 2
    rows = compare(base, new, load_contract())
    print(f"{'workload':<20} {'metric':<40} {'BASE':>12} {'NEW':>12}  {'NEW / BASE':<36} verdict")
    for row in rows:
        print(render(row))
    worse = [row for row in rows if row["verdict"] == "worse"]
    unresolved = [row for row in rows if row["verdict"] == "unresolved"]
    print(f"{len(worse)} worse, {len(unresolved)} unresolved, {len(rows)} rows")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
