"""MBTCG: strategies, dedup, emitters and the CLI loop."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.mbtcg import (
    STRATEGIES,
    GenerationError,
    TestCase,
    behaviour_fingerprint,
    corpus_traces,
    generate_suite,
    generator,
    read_corpus,
    replay_corpus,
    strategies,
    testcase,
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
from repro.pipeline.runner import BatchReport, TraceOutcome, check_traces
from repro.tla import State, check_trace
from repro.tla.registry import build_spec, get_entry
from repro.tla.trace import SuccessorCache
from repro.tla import values as values_module
from repro.tla.values import fingerprint, state_fingerprint

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


@pytest.fixture(scope="module")
def coverage_suite(ot_spec, ot_graph):
    return generate_suite(ot_spec, strategy="coverage", max_length=6, graph=ot_graph)


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
    report = check_traces(ot_spec, exhaustive_suite.traces())
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
    coverage_suite, exhaustive_suite
):
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


# The sha256 of the 1,482 case ids of ``ot_array init_length=6`` (exhaustive,
# max_length=6), comma-joined in suite order (PYTHONHASHSEED 0 and 123 alike).
# Re-pinned once, for fingerprints mod 2**64 - 59: the suite's sorted
# (actions, states) lists are the same as under the older digest's pin.
_PAPER_SIZE_IDS = "bddcfe6460bde162463cf5ca944f26bd4bb98fbc0b3df8c4ec8d91a28f4f5d6b"


def test_case_ids_are_pinned():
    spec = build_spec("ot_array", init_length=6)
    suite = generate_suite(spec, strategy="exhaustive", max_length=6)
    ids = ",".join(case.case_id for case in suite.cases)
    assert len(suite) == 1482
    assert hashlib.sha256(ids.encode()).hexdigest() == _PAPER_SIZE_IDS


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_case_id_is_the_behaviour_fingerprint_of_fresh_states(ot_spec, ot_graph, strategy):
    suite = generate_suite(
        ot_spec, strategy=strategy, max_length=6, n_tests=20, seed=3, graph=ot_graph
    )
    for case in suite.cases:
        # Fresh states: a State keeps the fingerprint it was built with.
        behaviour = [
            (action, State.from_values(state.schema, state.values))
            for action, state in zip(case.actions, case.states)
        ]
        assert case.case_id == format(behaviour_fingerprint(behaviour), "016x")


def test_graph_states_carry_the_fingerprint_the_bfs_found_them_by():
    graph = build_graph(build_spec("ot_array", init_length=3))
    assert len(graph) > 100
    for node, state in enumerate(graph.states()):
        known = state._fp  # read before anything asks: nothing is walked here
        assert known is not None
        assert known == state_fingerprint(state.values)
        assert graph.id_of(state) == node


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_generation_on_a_collected_graph_walks_no_state(monkeypatch, ot_spec, strategy):
    graph = build_graph(ot_spec)
    slots = {id(value) for state in graph.states() for value in state.values}
    walk = values_module._fp_of
    walked = []

    def watching(value, *args):
        if id(value) in slots:
            walked.append(value)
        return walk(value, *args)

    # Case ids, dedup and coverage goals all read the fingerprint each graph
    # state was placed with; the one walk recurses through the module name.
    monkeypatch.setattr(values_module, "_fp_of", watching)
    suite = generate_suite(
        ot_spec, strategy=strategy, max_length=6, n_tests=20, seed=3, graph=graph
    )
    classes = state_classes(graph)
    for case in suite.cases:
        coverage_pairs(graph, case, classes)
    assert suite.cases and not walked


@pytest.mark.parametrize("strategy", ["exhaustive", "coverage"])
def test_behaviour_fingerprint_runs_once_per_enumerated_behaviour(
    monkeypatch, ot_spec, ot_graph, strategy
):
    calls = []
    real = behaviour_fingerprint

    def counting(behaviour):
        calls.append(len(behaviour))
        return real(behaviour)

    # Wherever repro.mbtcg holds the name: dedup, TestCase and the coverage
    # sort each used to compute it for themselves.
    for module in (testcase, strategies, generator):
        monkeypatch.setattr(module, "behaviour_fingerprint", counting, raising=False)
    suite = generate_suite(ot_spec, strategy=strategy, max_length=6, graph=ot_graph)
    assert len(calls) == suite.stats.enumerated == 210


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
    replay_header, report = replay_corpus(str(path))
    assert replay_header == header
    assert report.failed == 0 and report.passed == count


def test_corpus_traces_decodes_and_binds_each_state_row_once(tmp_path, exhaustive_suite):
    path = tmp_path / "corpus.jsonl"
    write_corpus(exhaustive_suite, str(path))
    header, cases = read_corpus(str(path))
    references = sum(len(case["states"]) for case in cases)
    assert header["state_count"] == 225 < references
    spec = build_spec(header["spec"], **header["params"])  # its own, cold substrate
    traces = list(corpus_traces(spec, cases))
    stats = SuccessorCache.for_spec(spec).stats()
    assert stats["decode_hits"] + stats["decode_misses"] == header["state_count"]
    # One row, one payload object, one Binding -- in every case that names it.
    assert cases[0]["states"][0] is cases[1]["states"][0]
    assert traces[0].bindings[0] is traces[1].bindings[0]
    assert len({id(binding) for trace in traces for binding in trace.bindings}) == 225
    assert sum(len(trace) for trace in traces) == references


def test_corpora_are_byte_identical_across_hash_seeds(tmp_path):
    src_dir = Path(__file__).resolve().parent.parent / "src"
    written = []
    for seed in ("0", "123"):
        out = tmp_path / f"seed{seed}.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "generate", "--spec", "ot_array", "--out", str(out)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src_dir), "PYTHONHASHSEED": seed},
        )
        assert proc.returncode == 0, proc.stderr
        written.append(out.read_bytes())
    assert written[0] == written[1]
    assert json.loads(written[0].splitlines()[0])["version"] == 3


def _tampered_corpus(path, suite, number=1):
    """Write ``suite`` to ``path`` with state row ``number`` rewritten to an
    unreachable value; returns {case index: position of that state in it}."""
    write_corpus(suite, str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    (row,) = [row for row in rows if row.get("state") == number]
    row["vars"]["arrays"] = [[99], [98]]
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    case_rows = [row for row in rows if "id" in row]
    return {
        index: case["states"].index(number)
        for index, case in enumerate(case_rows)
        if number in case["states"]
    }


def test_a_tampered_state_row_fails_exactly_the_cases_that_name_it(
    tmp_path, exhaustive_suite
):
    """A replay can fail, and one state row is every case that names it."""
    path = tmp_path / "corpus.jsonl"
    entered_at = _tampered_corpus(path, exhaustive_suite)
    assert 1 < len(entered_at) < len(exhaustive_suite)
    assert min(entered_at.values()) >= 1  # not the initial state
    header, report = replay_corpus(str(path))
    assert report.total == header["case_count"] == len(exhaustive_suite)
    assert not report.errors
    assert {outcome.index for outcome in report.failures} == set(entered_at)
    assert report.passed == report.total - len(entered_at)
    for outcome in report.failures:
        step = entered_at[outcome.index]
        assert f"step {step - 1} -> {step} of the trace" in outcome.detail


def _verdicts(report):
    return (
        report.total,
        report.passed,
        sorted((outcome.index, outcome.detail) for outcome in report.failures),
        sorted((outcome.index, outcome.error) for outcome in report.errors),
    )


def test_replays_on_fresh_specs_agree_verdict_for_verdict(tmp_path, exhaustive_suite):
    path = tmp_path / "corpus.jsonl"
    _tampered_corpus(path, exhaustive_suite)
    _header, first = replay_corpus(str(path))
    _header, second = replay_corpus(str(path))
    assert first.failed and first.passed
    assert _verdicts(second) == _verdicts(first)


def test_an_interner_eviction_sheds_the_shared_bindings_and_no_verdict(
    tmp_path, exhaustive_suite
):
    path = tmp_path / "corpus.jsonl"
    _tampered_corpus(path, exhaustive_suite)
    header, cases = read_corpus(str(path))

    def replay(interner_entries):
        spec = build_spec(header["spec"], **header["params"])
        cache = SuccessorCache.for_spec(spec)
        if interner_entries:
            cache.interner.max_entries = interner_entries
        return cache, check_traces(spec, corpus_traces(spec, cases))

    roomy_cache, roomy = replay(None)
    tiny_cache, tiny = replay(16)
    assert roomy_cache.interner.evictions == 0 < tiny_cache.interner.evictions
    # Bindings made before an eviction are made again, not carried across it.
    assert tiny_cache.decode_misses > roomy_cache.decode_misses == header["state_count"]
    assert roomy.failed and _verdicts(tiny) == _verdicts(roomy)


def _edit_row(index, **changes):
    """A corpus edit: rewrite the keys of row ``index``; ``None`` drops a key."""

    def edit(lines):
        row = {**json.loads(lines[index]), **changes}
        lines[index] = json.dumps({k: v for k, v in row.items() if v is not None})

    return edit


def _move_row(source, target):
    return lambda lines: lines.insert(target, lines.pop(source))


# The coverage suite's file: header, state rows 0-2, then the first case row
# ("states": [0, 1, 2]) on line 5.  Each entry: edit, refused line, message.
_MALFORMED = {
    "truncated": (lambda lines: lines.pop(), None, r"declares 4 case row\(s\).*truncated"),
    "case_count": (_edit_row(0, case_count=5), None, r"declares 5 case row\(s\)"),
    "state_count": (_edit_row(0, state_count=99), None, r"declares 99 state row\(s\)"),
    "other-format": (_edit_row(0, format="something-else"), None, "not a repro-mbtcg-corpus"),
    "header-not-an-object": (
        lambda lines: lines.insert(0, "[1]"), None, "not a repro-mbtcg-corpus"
    ),
    "empty": (lambda lines: lines.clear(), None, "is empty"),
    "v1": (_edit_row(0, version=1), None, "unsupported version 1"),
    "v2-older-case-ids": (_edit_row(0, version=2), None, "unsupported version 2"),
    "no-spec": (_edit_row(0, spec=None), 1, "header is missing 'spec'"),
    "not-json": (lambda lines: lines.insert(3, "{not json"), 4, "not valid JSON"),
    "torn-last-line": (
        lambda lines: lines.append(lines.pop()[:25]), "last", "not valid JSON"
    ),
    "stray-object": (
        lambda lines: lines.insert(2, '{"foo": 1}'), 3, "neither a state row nor a case row"
    ),
    "stray-list": (
        lambda lines: lines.insert(2, "[0, 1]"), 3, "neither a state row nor a case row"
    ),
    "state-renumbered": (_edit_row(2, state=5), 3, "numbered 5, expected 1"),
    "state-numbered-true": (_edit_row(2, state=True), 3, "numbered True, expected 1"),
    "state-repeated": (_move_row(1, 2), 2, "numbered 1, expected 0"),
    "state-without-vars": (_edit_row(2, vars=None), 3, "no 'vars' object"),
    "case-before-its-state": (_move_row(3, 5), 4, r"names state 2; the 2 state row\(s\)"),
    "state-out-of-range": (_edit_row(4, states=[0, 1, 10**6]), 5, "names state 1000000"),
    "state-minus-one": (_edit_row(4, states=[0, 1, -1]), 5, "names state -1"),
    "state-true": (_edit_row(4, states=[0, True, 2]), 5, "names state True"),
    "state-inline": (_edit_row(4, states=[0, 1, {"arrays": []}]), 5, r"names state \{"),
    "states-not-a-list": (_edit_row(4, states=5), 5, "must be lists"),
    "actions-too-few": (
        _edit_row(4, actions=[None, "Insert"]), 5, r"2 action\(s\) for 3 state\(s\)"
    ),
    "no-id": (_edit_row(4, id=None), 5, "case row is missing 'id'"),
    "no-actions": (_edit_row(4, actions=None), 5, "case row is missing 'actions'"),
    "no-states": (_edit_row(4, states=None), 5, "case row is missing 'states'"),
}


@pytest.mark.parametrize("name", _MALFORMED)
def test_read_corpus_rejects_truncation_and_bad_format(tmp_path, coverage_suite, name):
    """Every malformed file is one GenerationError -- naming ``path:lineno``
    where one line is at fault -- and never a traceback out of the replay."""
    edit, lineno, message = _MALFORMED[name]
    good = tmp_path / "corpus.jsonl"
    write_corpus(coverage_suite, str(good))
    lines = good.read_text().splitlines()
    assert json.loads(lines[4])["states"] == [0, 1, 2]  # what the table assumes
    edit(lines)
    bad = tmp_path / f"{name}.jsonl"
    bad.write_text("".join(line + "\n" for line in lines))
    if lineno is not None:
        lineno = len(lines) if lineno == "last" else lineno
        message = f"{re.escape(str(bad))}:{lineno}: .*{message}"
    with pytest.raises(GenerationError, match=message):
        replay_corpus(str(bad))


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
    # The corpus bytes ROADMAP and CHANGES cite: states, case ids and order.
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "f81541d0d7202aff86cf27d673b627a030cc2593f7027ff39215e3f1d0ab1d07"
    )


def test_cli_generate_replay_with_an_errored_case_exits_1(tmp_path, capsys, monkeypatch):
    """A case whose check raised is neither passed nor failed -- and not clean."""
    out = tmp_path / "corpus.jsonl"

    def errored_replay(path):
        header, cases = read_corpus(path)
        report = BatchReport(
            spec_name=header["spec_name"], total=len(cases), passed=len(cases) - 1
        )
        report.errors.append(TraceOutcome(index=2, ok=False, error="RuntimeError: boom"))
        return header, report

    monkeypatch.setattr("repro.pipeline.cli.replay_corpus", errored_replay)
    code = main(["generate", "--smoke", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL 0  ERROR 1" in captured.out
    assert "loop closed" not in captured.out
    _header, cases = read_corpus(str(out))
    assert f"first: case {cases[2]['id']}: RuntimeError: boom" in captured.err


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
