"""MBTCG: strategies, dedup, emitters and the CLI loop."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.mbtcg import (
    GenerationError,
    TestCase,
    behaviour_fingerprint,
    generate_suite,
    read_corpus,
    replay_corpus,
    write_corpus,
)
from repro.mbtcg.emitters import write_log_suite, write_pytest_module
from repro.mbtcg.generator import build_graph
from repro.mbtcg.strategies import (
    coverage_minimized,
    coverage_pairs,
    exhaustive_behaviours,
    state_classes,
)
from repro.pipeline.cli import main
from repro.pipeline.runner import check_traces
from repro.tla import check_trace
from repro.tla.registry import build_spec, get_entry

from conftest import make_counter_spec


@pytest.fixture(scope="module")
def ot_spec():
    return build_spec("ot_array")


@pytest.fixture(scope="module")
def ot_graph(ot_spec):
    return build_graph(ot_spec)


@pytest.fixture(scope="module")
def exhaustive_suite(ot_spec, ot_graph):
    return generate_suite(ot_spec, strategy="exhaustive", max_length=6, graph=ot_graph)


# ---------------------------------------------------------------------------
# The acceptance-criterion core: exhaustive generation replays cleanly.
# ---------------------------------------------------------------------------


def test_exhaustive_suite_is_deduplicated(exhaustive_suite):
    ids = [case.case_id for case in exhaustive_suite.cases]
    assert len(ids) == len(set(ids))
    assert exhaustive_suite.stats.emitted == len(ids)
    assert exhaustive_suite.stats.enumerated >= len(ids)


def test_every_exhaustive_case_replays_through_check_traces(
    ot_spec, exhaustive_suite
):
    report = check_traces(ot_spec, exhaustive_suite.traces(), workers=2)
    assert report.failed == 0
    assert report.passed == len(exhaustive_suite)


def test_exhaustive_covers_every_action(exhaustive_suite):
    assert exhaustive_suite.action_names() == {
        "Insert",
        "Remove",
        "Set",
        "Integrate",
    }


def test_coverage_suite_is_strictly_smaller_with_identical_coverage(
    ot_spec, ot_graph, exhaustive_suite
):
    coverage_suite = generate_suite(
        ot_spec, strategy="coverage", max_length=6, graph=ot_graph
    )
    assert 0 < len(coverage_suite) < len(exhaustive_suite)
    # Identical (action, enabled-state-class) coverage, hence identical
    # action coverage -- the acceptance criterion.
    assert (
        coverage_suite.stats.coverage_pair_count
        == exhaustive_suite.stats.coverage_pair_count
    )
    assert coverage_suite.action_names() == exhaustive_suite.action_names()
    # And a subset: every chosen case exists in the exhaustive suite.
    exhaustive_ids = {case.case_id for case in exhaustive_suite.cases}
    assert {case.case_id for case in coverage_suite.cases} <= exhaustive_ids


def test_coverage_greedy_actually_covers_all_goals(ot_graph):
    chosen, _ = coverage_minimized(ot_graph, max_length=6)
    pool, _ = exhaustive_behaviours(ot_graph, max_length=6)
    classes = state_classes(ot_graph)
    want = set()
    for behaviour in pool:
        want |= coverage_pairs(ot_graph, behaviour, classes)
    got = set()
    for behaviour in chosen:
        got |= coverage_pairs(ot_graph, behaviour, classes)
    assert got == want


def test_random_strategy_is_seeded_and_deduplicated(ot_spec, ot_graph):
    a = generate_suite(
        ot_spec, strategy="random", max_length=6, n_tests=20, seed=3, graph=ot_graph
    )
    b = generate_suite(
        ot_spec, strategy="random", max_length=6, n_tests=20, seed=3, graph=ot_graph
    )
    assert [case.case_id for case in a.cases] == [case.case_id for case in b.cases]
    assert len(a) <= 20
    ids = [case.case_id for case in a.cases]
    assert len(ids) == len(set(ids))
    for case in a.cases:
        assert check_trace(ot_spec, case.trace()).ok


def test_mbtcg_imports_cold():
    """`import repro.mbtcg` must work before repro.pipeline is initialized."""
    src_dir = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", "import repro.mbtcg; import repro.pipeline"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src_dir), "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    assert proc.returncode == 0, proc.stderr


def test_generate_suite_rejects_bad_inputs(ot_spec):
    with pytest.raises(GenerationError):
        generate_suite(ot_spec, strategy="nope")
    with pytest.raises(GenerationError):
        generate_suite(ot_spec, max_length=0)


def test_build_graph_refuses_violating_specs():
    spec = make_counter_spec(limit=9, invariant_bound=4)
    with pytest.raises(GenerationError, match="cannot generate tests"):
        build_graph(spec)


def test_behaviour_fingerprint_distinguishes_actions(ot_graph):
    behaviour = next(ot_graph.behaviours(max_length=6))
    renamed = [(action and action + "X", state) for action, state in behaviour]
    assert behaviour_fingerprint(behaviour) != behaviour_fingerprint(renamed)
    case = TestCase.from_behaviour(behaviour)
    assert case.case_id == format(behaviour_fingerprint(behaviour), "016x")
    assert len(case) == len(behaviour)


def test_unregistered_spec_can_generate_but_not_emit(tmp_path):
    spec = make_counter_spec(limit=3)
    suite = generate_suite(spec, strategy="exhaustive", max_length=4)
    assert len(suite) == 1  # one chain behaviour
    with pytest.raises(GenerationError, match="registry_ref"):
        write_corpus(suite, str(tmp_path / "corpus.jsonl"))


# ---------------------------------------------------------------------------
# Emitters
# ---------------------------------------------------------------------------


def test_corpus_round_trip_and_replay(tmp_path, exhaustive_suite):
    path = tmp_path / "corpus.jsonl"
    count = write_corpus(exhaustive_suite, str(path))
    assert count == len(exhaustive_suite)
    header, cases = read_corpus(str(path))
    assert header["spec"] == "ot_array"
    assert header["case_count"] == count
    assert header["stats"]["emitted"] == count
    assert [case["id"] for case in cases] == [
        case.case_id for case in exhaustive_suite.cases
    ]
    replay_header, report = replay_corpus(str(path), workers=2)
    assert replay_header == header
    assert report.failed == 0 and report.passed == count


def test_read_corpus_rejects_truncation_and_bad_format(tmp_path, exhaustive_suite):
    path = tmp_path / "corpus.jsonl"
    write_corpus(exhaustive_suite, str(path))
    lines = path.read_text().splitlines()
    truncated = tmp_path / "truncated.jsonl"
    truncated.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(GenerationError, match="truncated"):
        read_corpus(str(truncated))
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"format": "something-else"}) + "\n")
    with pytest.raises(GenerationError, match="not a repro-mbtcg-corpus"):
        read_corpus(str(bad))
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(GenerationError, match="empty"):
        read_corpus(str(empty))


def test_pytest_emitter_produces_a_passing_suite(tmp_path, ot_spec, ot_graph):
    suite = generate_suite(ot_spec, strategy="coverage", max_length=6, graph=ot_graph)
    module = tmp_path / "test_generated_ot.py"
    write_pytest_module(suite, str(module))
    src_dir = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", str(module)],
        capture_output=True,
        text=True,
        cwd=str(tmp_path),
        env={"PYTHONPATH": str(src_dir), "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert f"{len(suite)} passed" in proc.stdout


def test_log_suite_replays_through_the_log_pipeline(tmp_path, ot_spec, ot_graph):
    from repro.pipeline.logs import trace_from_logs

    suite = generate_suite(ot_spec, strategy="coverage", max_length=6, graph=ot_graph)
    paths = write_log_suite(suite, ot_spec, str(tmp_path), limit=3)
    entry = get_entry("ot_array")
    per_node = entry.per_node_variables(ot_spec)
    by_case = {}
    for path in paths:
        by_case.setdefault(Path(path).name.rsplit("-node", 1)[0], []).append(path)
    assert len(by_case) == min(3, len(suite))
    for case_paths in by_case.values():
        rebuilt = trace_from_logs(ot_spec, sorted(case_paths), per_node=per_node)
        assert check_trace(ot_spec, rebuilt).ok


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_generate_exhaustive_with_replay(tmp_path, capsys):
    out = tmp_path / "corpus.jsonl"
    code = main(
        [
            "generate",
            "--spec",
            "ot_array",
            "--strategy",
            "exhaustive",
            "--max-length",
            "6",
            "--out",
            str(out),
            "--replay",
        ]
    )
    captured = capsys.readouterr().out
    assert code == 0
    assert out.exists()
    assert "MBTCG -> MBTC loop closed" in captured
    header, cases = read_corpus(str(out))
    assert header["strategy"] == "exhaustive" and len(cases) == 210


def test_cli_generate_smoke_preset(tmp_path, capsys):
    out = tmp_path / "smoke_corpus.jsonl"
    code = main(["generate", "--smoke", "--out", str(out)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "loop closed" in captured
    header, _cases = read_corpus(str(out))
    assert header["spec"] == "ot_array"
    assert header["max_length"] <= 5


def test_cli_generate_requires_a_spec(capsys):
    assert main(["generate"]) == 2
    assert "--spec is required" in capsys.readouterr().err


def test_cli_generate_coverage_smaller_than_exhaustive(tmp_path):
    exhaustive_out = tmp_path / "ex.jsonl"
    coverage_out = tmp_path / "cov.jsonl"
    assert main(["generate", "--spec", "ot_array", "--out", str(exhaustive_out)]) == 0
    assert (
        main(
            [
                "generate",
                "--spec",
                "ot_array",
                "--strategy",
                "coverage",
                "--out",
                str(coverage_out),
            ]
        )
        == 0
    )
    ex_header, _ = read_corpus(str(exhaustive_out))
    cov_header, _ = read_corpus(str(coverage_out))
    assert cov_header["case_count"] < ex_header["case_count"]
    assert (
        cov_header["stats"]["coverage_pair_count"]
        == ex_header["stats"]["coverage_pair_count"]
    )
