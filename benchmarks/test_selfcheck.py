"""Self-check of the benchmark: ``python -m pytest benchmarks -q``.

Not collected by the tier-1 run (``testpaths = ["tests"]``).  Everything
here runs at ``--quick`` size; nothing asserts a speed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import compare
import run

CONTRACT = run.load_contract()
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
END_TO_END = [m["name"] for m in CONTRACT["end_to_end"]]
PER_LAYER = [m["name"] for m in CONTRACT["per_layer"]]


def run_cli(tmp_path, *flags):
    """``run.py --quick`` as the driver starts it; (result lines, document, its path)."""
    out = os.path.join(tmp_path, "out.json")
    done = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--quick", "--out", out, *flags],
        stdout=subprocess.PIPE, check=True, cwd=run.ROOT, timeout=120,
    )
    lines = [json.loads(line) for line in done.stdout.decode("utf-8").splitlines()
             if line.startswith("{")]
    with open(out, encoding="utf-8") as handle:
        return lines, json.load(handle), out


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    return run_cli(tmp_path_factory.mktemp("quick"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return run_cli(tmp_path_factory.mktemp("traced"), "--trace", "1")


def test_quick_reports_every_end_to_end_metric_and_no_failure(quick):
    lines, document, _out = quick
    assert document["quick"] is True
    assert sorted(document["workloads"]) == sorted(WORKLOADS)
    assert len(lines) == len(WORKLOADS)
    for name, line in zip(WORKLOADS, lines):
        section = document["workloads"][name]
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == END_TO_END
        assert all(m["value"] > 0 for m in line["metrics"].values())
        assert sorted(section["metrics"]) == sorted(END_TO_END)
        assert section["failed_share"] == 0


def test_traced_reports_every_per_layer_metric(traced):
    lines, document, out = traced
    measured = set()
    for name, line in zip(WORKLOADS, lines):
        section = document["workloads"][name]
        assert line["correct"] is True
        # Every declared name on the driver's line, none undeclared in the document.
        assert list(line["metrics"]) == PER_LAYER
        assert set(section["metrics"]) <= set(PER_LAYER)
        # What every workload has: a spec, and the benchmark's own numbers.
        for key in PER_LAYER:
            if key.startswith(("bench.", "compile.compile_s", "compile.expand_us", "tla.spec.",
                               "tla.values.")):
                assert key in section["metrics"], key
        measured |= set(section["metrics"])
    assert measured == set(PER_LAYER)
    assert document["workloads"]["check_locking4_disk"]["metrics"][
        "engine.frontier.spilled_states"]["median"] > 0
    with open(f"{out}.spans.jsonl", encoding="utf-8") as handle:
        spans = [json.loads(line) for line in handle]
    assert {span["workload"] for span in spans} == set(WORKLOADS)
    assert all(sorted(span) == ["end", "name", "parent", "start", "workload"] for span in spans)


def test_two_quick_runs_have_identical_inputs_and_counts(quick, tmp_path):
    _lines, first, _out = quick
    _lines, second, _out = run_cli(tmp_path)
    for name in WORKLOADS:
        a, b = first["workloads"][name], second["workloads"][name]
        for key in ("input_digest", "sizes", "counts", "attempted"):
            assert a[key] == b[key], (name, key)


def test_wrong_expected_count_fails_the_run(monkeypatch, tmp_path, capsys):
    import workloads

    key = ("check_locking4", True)
    wrong = dict(workloads.EXPECTED[key], distinct=workloads.EXPECTED[key]["distinct"] + 1)
    monkeypatch.setitem(workloads.EXPECTED, key, wrong)
    out = os.path.join(tmp_path, "wrong.json")
    assert run.main(["--quick", "--workload", "check_locking4", "--out", out]) == 1
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert line["correct"] is False and line["failed"] > 0
    with open(out, encoding="utf-8") as handle:
        assert json.load(handle)["workloads"]["check_locking4"]["failed_share"] > 0


def test_no_source_tree_is_an_error_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", os.path.join(tmp_path, "src"))
    assert run.main(["--quick"]) == 2
    assert capsys.readouterr().out == ""


# -- compare.py, on synthetic documents --------------------------------------


def document(wall=2.0, spread=0.01, **top):
    def metric(median, unit):
        return {"unit": unit, "n": 7, "median": median,
                "q1": median * (1 - spread / 2), "q3": median * (1 + spread / 2),
                "min": median * (1 - spread), "max": median * (1 + spread)}

    section = {
        "input_digest": "d1", "sizes": {"events": 10}, "counts": {}, "attempted": 7,
        "failed": 0, "failed_share": 0.0,
        "metrics": {
            "wall_s": metric(wall, "s"), "work_per_s": metric(1000 / wall, "1/s"),
            "setup_s": metric(0.5, "s"), "peak_rss_mb": metric(50.0, "MB"),
        },
    }
    doc = {"quick": False, "seed": 42, "seconds": 10.0, "repeats": 5, "trace": 0,
           "workloads": {"check_locking4": section}}
    doc.update(top)
    return doc


def verdicts(base, new):
    return {row["metric"]: row["verdict"] for row in compare.compare(base, new, CONTRACT)}


def compare_cli(tmp_path, base, new):
    paths = []
    for label, doc in (("base", base), ("new", new)):
        paths.append(os.path.join(tmp_path, f"{label}.json"))
        with open(paths[-1], "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
    return compare.main(paths)


def test_compare_flags_a_slowdown_beyond_the_bound_and_passes_one_inside(tmp_path):
    bound = next(m["bound"] for m in CONTRACT["end_to_end"] if m["name"] == "wall_s")
    base = document()
    slow = document(wall=2.0 * (1 + 2 * bound))
    assert verdicts(base, slow)["wall_s"] == "worse"
    assert verdicts(base, slow)["work_per_s"] == "worse"
    assert verdicts(base, slow)["setup_s"] == "within-bound"
    assert verdicts(base, slow)["peak_rss_mb"] == "within-bound"
    assert compare_cli(tmp_path, base, slow) == 1
    near = document(wall=2.0 * (1 + bound / 5))
    assert set(verdicts(base, near).values()) == {"within-bound"}
    assert compare_cli(tmp_path, base, near) == 0
    assert verdicts(base, document(wall=2.0 / (1 + 2 * bound)))["wall_s"] == "better"


def test_compare_reports_wide_spread_as_unresolved():
    assert verdicts(document(), document(wall=2.04, spread=0.6))["wall_s"] == "unresolved"


def test_compare_fails_on_a_rise_in_failed_share(tmp_path):
    failing = document()
    failing["workloads"]["check_locking4"].update(failed=1, failed_share=1 / 7)
    assert verdicts(document(), failing)["failed_share"] == "worse"
    assert compare_cli(tmp_path, document(), failing) == 1


@pytest.mark.parametrize("change", [
    {"quick": True}, {"seed": 7}, {"seconds": 5.0}, {"repeats": 9}, {"trace": 1},
])
def test_compare_refuses_documents_that_measure_different_things(tmp_path, change):
    assert compare.refusal(document(), document(**change)) is not None
    assert compare_cli(tmp_path, document(), document(**change)) == 2


def test_compare_refuses_different_inputs():
    for key, value in (("input_digest", "d2"), ("sizes", {"events": 11})):
        other = document()
        other["workloads"]["check_locking4"][key] = value
        assert compare.refusal(document(), other) is not None
