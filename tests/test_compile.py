"""Compiled-vs-interpreted parity for :mod:`repro.compile`.

The compilation contract is *bit-identical results*: every stat, every
counterexample trace, every coverage figure must match the interpreted path
exactly, for every registered spec and every engine.  These tests enforce
that contract directly rather than trusting the kernels; anything the
compiler specializes away (guard fusion, precomputed fingerprints, verdict
memoisation) is re-derived here through the interpreted path and compared.
"""

import random

import pytest

from repro.compile import compile_spec
from repro.compile.interner import ValueInterner, state_fingerprint
from repro.compile.kernels import CompiledSpec
from repro.engine import check_spec
from repro.engine.base import InterpretedExpander, make_expander
from repro.pipeline.cli import main
from repro.tla.errors import CheckerError
from repro.tla.registry import build_spec
from repro.tla.values import NULL, fingerprint, freeze


def _stats(result):
    return (
        result.distinct_states,
        result.generated_states,
        result.max_depth,
        result.peak_frontier,
        dict(result.action_counts),
        result.ok,
    )


def _violation(result):
    violation = result.invariant_violation
    if violation is None:
        return None
    return (violation.property_name, [state.values for state in violation.trace])


def _run_pair(spec_name, params, **kwargs):
    """Run the same check compiled and interpreted; return both results."""
    compiled = check_spec(
        build_spec(spec_name, **params),
        check_properties=False,
        compile_mode="on",
        **kwargs,
    )
    interpreted = check_spec(
        build_spec(spec_name, **params),
        check_properties=False,
        compile_mode="off",
        **kwargs,
    )
    assert compiled.compiled and not interpreted.compiled
    return compiled, interpreted


# ---------------------------------------------------------------------------
# Golden-stats parity: every engine x every registered spec
# ---------------------------------------------------------------------------

CASES = [
    ("locking", {}, {}),
    ("locking", {"mutation": "xx_compatible"}, {}),
    ("ot_array", {}, {}),
    ("raftmongo", {}, {"max_states": 1200}),
]


@pytest.mark.parametrize("engine", ["fingerprint", "states"])
@pytest.mark.parametrize("spec_name,params,limits", CASES)
def test_serial_engines_bit_identical(spec_name, params, limits, engine):
    compiled, interpreted = check_pair = _run_pair(
        spec_name, params, engine=engine, **limits
    )
    assert _stats(compiled) == _stats(interpreted)
    assert _violation(compiled) == _violation(interpreted)
    for result in check_pair:
        assert result.engine == engine


@pytest.mark.parametrize("spec_name,params,limits", CASES)
def test_parallel_engine_bit_identical(spec_name, params, limits):
    compiled, interpreted = _run_pair(
        spec_name, params, engine="parallel", workers=2, **limits
    )
    assert _stats(compiled) == _stats(interpreted)
    assert _violation(compiled) == _violation(interpreted)


@pytest.mark.parametrize(
    "spec_name,params",
    [
        ("locking", {}),
        ("locking", {"mutation": "xx_compatible"}),
        ("raftmongo", {}),
    ],
)
def test_simulate_engine_bit_identical(spec_name, params):
    compiled, interpreted = _run_pair(
        spec_name, params, engine="simulate", walks=50, walk_depth=20, seed=0
    )
    assert _stats(compiled) == _stats(interpreted)
    assert _violation(compiled) == _violation(interpreted)
    assert compiled.walks == interpreted.walks


def test_mutated_locking_counterexample_found_compiled():
    """The compiled path must surface the seeded bug, byte-for-byte."""
    compiled, interpreted = _run_pair("locking", {"mutation": "xx_compatible"})
    assert not compiled.ok
    trace = _violation(compiled)
    assert trace is not None and trace == _violation(interpreted)
    assert trace[0] in ("MutualExclusion", "ExclusiveIsExclusive", "NoConflictingGrants")


# ---------------------------------------------------------------------------
# Checkpoint / resume across the compiled path
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", ["fingerprint", "parallel"])
def test_checkpoint_resume_compiled_matches_golden(tmp_path, engine):
    workers = 2 if engine == "parallel" else None
    spec = build_spec("locking")
    golden = check_spec(
        spec, check_properties=False, engine=engine, workers=workers, compile_mode="on"
    )

    path = tmp_path / "ck.bin"
    truncated = check_spec(
        build_spec("locking"),
        check_properties=False,
        engine=engine,
        workers=workers,
        compile_mode="on",
        max_depth=4,
        checkpoint_path=str(path),
        checkpoint_every=2,
    )
    assert truncated.truncated

    resumed = check_spec(
        build_spec("locking"),
        check_properties=False,
        engine=engine,
        workers=workers,
        compile_mode="on",
        resume_path=str(path),
    )
    assert _stats(resumed) == _stats(golden)


def test_checkpoint_written_interpreted_resumed_compiled(tmp_path):
    """Checkpoints are a shared boundary: either path can resume the other."""
    golden = check_spec(
        build_spec("locking"), check_properties=False, compile_mode="off"
    )
    path = tmp_path / "ck.bin"
    check_spec(
        build_spec("locking"),
        check_properties=False,
        compile_mode="off",
        max_depth=4,
        checkpoint_path=str(path),
        checkpoint_every=2,
    )
    resumed = check_spec(
        build_spec("locking"),
        check_properties=False,
        compile_mode="on",
        resume_path=str(path),
    )
    assert _stats(resumed) == _stats(golden)


# ---------------------------------------------------------------------------
# Property test: CompiledSpec.successors vs Specification.successors
# ---------------------------------------------------------------------------


def _reachable_sample(spec, limit=300, sample=40, seed=0):
    """BFS a prefix of the reachable space interpreted, then sample states."""
    states = list(spec.initial_states())
    seen = {state.fingerprint() for state in states}
    queue = list(states)
    while queue and len(states) < limit:
        state = queue.pop(0)
        for _, successor in spec.successors(state):
            fp = successor.fingerprint()
            if fp not in seen:
                seen.add(fp)
                states.append(successor)
                queue.append(successor)
    rng = random.Random(seed)
    return rng.sample(states, min(sample, len(states)))


@pytest.mark.parametrize(
    "spec_name,params,native",
    [
        ("locking", {}, True),
        ("ot_array", {}, True),
        ("raftmongo", {}, True),
        ("locking", {"mutation": "xx_compatible"}, True),
        ("locking", {}, False),
        ("locking", {"mutation": "xx_compatible"}, False),
    ],
)
def test_compiled_successors_match_interpreted_on_random_states(
    spec_name, params, native
):
    """The expander seam itself: both implementations, entry for entry."""
    spec = build_spec(spec_name, **params)
    compiled = compile_spec(build_spec(spec_name, **params), native=native)
    assert isinstance(compiled, CompiledSpec)
    interpreted = InterpretedExpander(spec)
    for state in spec.initial_states():
        fp = state.fingerprint()
        assert compiled.verdict_for(state.values, fp) == interpreted.verdict_for(
            state.values, fp
        )
    for state in _reachable_sample(spec):
        # Action, value tuple, fingerprint, violated-invariant name and
        # constraint verdict of every successor, in order.
        assert compiled.expand(state.values) == interpreted.expand(state.values)
        expected = [(name, successor) for name, successor in spec.successors(state)]
        actual = list(compiled.successors(state))
        assert actual == expected
        for _, successor in expected:
            # By name: the two specs are separate builds, so a violated
            # Invariant is a different (identity-compared) object in each.
            violated = compiled.violated_invariant(successor)
            reference = spec.violated_invariant(successor)
            assert (violated and violated.name) == (reference and reference.name)
            assert compiled.within_constraint(successor) == spec.within_constraint(
                successor
            )


@pytest.mark.parametrize(
    "params", [{}, {"n_threads": 3}, {"mutation": "xx_compatible"}]
)
def test_native_locking_kernel_matches_generic(params):
    """The hand-specialized locking kernel vs the generic closure kernels."""
    native = compile_spec(build_spec("locking", **params))
    generic = compile_spec(build_spec("locking", **params), native=False)
    assert native.native and not generic.native
    spec = build_spec("locking", **params)
    for state in _reachable_sample(spec, limit=200, sample=30):
        assert native.expand(state.values) == generic.expand(state.values)


# ---------------------------------------------------------------------------
# Auto mode: fallback on failure, hard error under --compile on
# ---------------------------------------------------------------------------


def test_auto_mode_falls_back_to_interpreted(monkeypatch):
    import repro.compile as compile_pkg

    def _boom(spec, **kwargs):
        raise RuntimeError("synthetic compile failure")

    monkeypatch.setattr(compile_pkg, "compile_spec", _boom)
    golden = check_spec(
        build_spec("locking"), check_properties=False, compile_mode="off"
    )
    fallback = check_spec(
        build_spec("locking"), check_properties=False, compile_mode="auto"
    )
    assert not fallback.compiled
    assert _stats(fallback) == _stats(golden)


def test_auto_fallback_says_why(monkeypatch, tmp_path, capsys):
    """The fallback keeps ``compiled == False`` but is no longer silent."""
    import json

    import repro.compile as compile_pkg

    def _boom(spec, **kwargs):
        raise RuntimeError("synthetic compile failure")

    monkeypatch.setattr(compile_pkg, "compile_spec", _boom)
    reason = "RuntimeError: synthetic compile failure"
    expander, fallback = make_expander(build_spec("locking"), "auto")
    assert isinstance(expander, InterpretedExpander) and fallback == reason
    assert make_expander(build_spec("locking"), "off")[1] is None

    # Pool workers apply the same policy with the same mode: they fall back
    # too, and the run still matches the interpreted one.
    golden = check_spec(
        build_spec("locking"), check_properties=False, compile_mode="off"
    )
    pooled = check_spec(
        build_spec("locking"), check_properties=False, engine="parallel", workers=2
    )
    assert not pooled.compiled and pooled.compile_error == reason
    assert _stats(pooled) == _stats(golden)

    path = tmp_path / "m.jsonl"
    assert main(["check", "locking", "--metrics-out", str(path)]) == 0
    out = capsys.readouterr().out
    assert f"WARNING: spec compilation failed ({reason}); interpreting" in out
    assert " compiled" not in out
    records = [json.loads(line) for line in path.read_text().splitlines()]
    (metrics,) = [r for r in records if r["kind"] == "metrics"]
    assert metrics["labels"]["compiled"] == f"interpreted ({reason})"


def test_compile_on_failure_is_a_checker_error(monkeypatch):
    import repro.compile as compile_pkg

    def _boom(spec, **kwargs):
        raise RuntimeError("synthetic compile failure")

    monkeypatch.setattr(compile_pkg, "compile_spec", _boom)
    with pytest.raises(CheckerError, match="compilation failed"):
        check_spec(build_spec("locking"), check_properties=False, compile_mode="on")


def test_result_records_compilation():
    result = check_spec(
        build_spec("locking"), check_properties=False, compile_mode="on"
    )
    assert result.compiled
    assert result.compile_seconds >= 0.0
    assert " compiled" in result.summary()
    interpreted = check_spec(
        build_spec("locking"), check_properties=False, compile_mode="off"
    )
    assert " compiled" not in interpreted.summary()


def test_invalid_compile_mode_rejected():
    with pytest.raises(ValueError, match="compile mode"):
        check_spec(build_spec("locking"), compile_mode="sometimes")


# ---------------------------------------------------------------------------
# CLI flag
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["on", "off", "auto"])
def test_cli_compile_flag(capsys, mode):
    assert main(["check", "locking", "--compile", mode]) == 0
    out = capsys.readouterr().out
    if mode == "off":
        assert " compiled" not in out
    else:
        assert " compiled" in out


# ---------------------------------------------------------------------------
# Interner unit behaviour
# ---------------------------------------------------------------------------


def test_interner_fingerprints_match_interpreted():
    interner = ValueInterner()
    samples = [
        0,
        1,
        True,
        1.0,
        "held",
        None,
        NULL,
        b"raw",
        (1, 2, ("nested", None)),
        frozenset({1, 2, 3}),
        {"mode": "X", "holders": (0,)},
        [{"a": 1}, {"a": 2}],
    ]
    for value in samples:
        _, fp = interner.intern(value)
        assert fp == fingerprint(freeze(value), frozen=True)


def test_interner_distinguishes_equal_primitives_of_different_type():
    """True == 1 == 1.0 in Python; their fingerprints must not collapse."""
    interner = ValueInterner()
    fps = {interner.intern(v)[1] for v in (True, 1, 1.0)}
    assert len(fps) == 3


def test_interner_canonicalizes_equal_values():
    interner = ValueInterner()
    a, fp_a = interner.intern(("x", ("y", 1)))
    b, fp_b = interner.intern(("x", ("y", 1)))
    assert a is b and fp_a == fp_b
    assert interner.stats()["hits"] >= 1


def test_state_fingerprint_matches_state_class():
    spec = build_spec("locking")
    for state in _reachable_sample(spec, limit=50, sample=10):
        interner = ValueInterner()
        slot_fps = interner.slot_fingerprints(state.values)
        assert state_fingerprint(slot_fps) == state.fingerprint()


# ---------------------------------------------------------------------------
# Satellite fast paths
# ---------------------------------------------------------------------------


def test_action_is_enabled_short_circuits():
    spec = build_spec("locking")
    for state in spec.initial_states():
        enabled = set(spec.enabled_actions(state))
        expected = {
            action.name
            for action in spec.actions
            if any(True for _ in action.successors(state))
        }
        assert enabled == expected


def test_with_frozen_fields_and_updates_fast_paths():
    from repro.tla import Record

    record = Record(mode="S", holders=frozenset({1}))
    updated = record.with_frozen_fields(mode="X")
    assert updated["mode"] == "X" and updated["holders"] == frozenset({1})

    spec = build_spec("locking")
    state = next(iter(spec.initial_states()))
    frozen_value = freeze(state["held"])
    clone = state.with_frozen_updates({"held": frozen_value})
    assert clone == state
    assert clone.fingerprint() == state.fingerprint()


def test_coverage_counts_enabled_actions():
    from repro.tla.coverage import CoverageReport, coverage_of_trace

    spec = build_spec("locking")
    trace = [state for state in spec.initial_states()]
    report = coverage_of_trace(spec, trace)
    assert report.enabled_action_counts.get("Acquire", 0) >= 1
    merged = report.merge(report)
    assert merged.enabled_action_counts["Acquire"] == (
        2 * report.enabled_action_counts["Acquire"]
    )
    roundtrip = CoverageReport.from_json(report.to_json())
    assert roundtrip.enabled_action_counts == report.enabled_action_counts
