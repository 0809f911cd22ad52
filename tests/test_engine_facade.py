"""Cross-engine parity across the repro.engine seam.

The engine and store names, how ``ModelChecker`` resolves and refuses each
engine x store pair, and the contract that all engines -- including
``simulate`` -- agree about what is reachable and what violates.
"""

import pytest

import repro.engine
from repro.engine import ENGINES, STORES, ModelChecker
from repro.pipeline.cli import main
from repro.tla.registry import build_spec


def _stats(result):
    return (
        result.distinct_states,
        result.generated_states,
        result.max_depth,
        result.action_counts,
        result.peak_frontier,
    )


_GRAPH = "collect_graph"
_STORE = "supports stores"

#: ``(engine, store) -> (answer without collect_graph, answer with it)`` on
#: locking without properties: a ``(resolved_engine, resolved_store)`` pair,
#: or the phrase of the refused parameter.  Recorded from the engine classes
#: and their capability flags, before they became rules in ModelChecker.
RESOLUTION = {
    ("auto", "auto"): (("fingerprint", "fingerprint"), ("states", "states")),
    ("auto", "fingerprint"): (("fingerprint", "fingerprint"), _STORE),
    ("auto", "states"): (_STORE, ("states", "states")),
    ("auto", "disk"): (("fingerprint", "disk"), _STORE),
    ("fingerprint", "auto"): (("fingerprint", "fingerprint"), _GRAPH),
    ("fingerprint", "fingerprint"): (("fingerprint", "fingerprint"), _GRAPH),
    ("fingerprint", "states"): (_STORE, _GRAPH),
    ("fingerprint", "disk"): (("fingerprint", "disk"), _GRAPH),
    ("states", "auto"): (("states", "states"), ("states", "states")),
    ("states", "fingerprint"): (_STORE, _STORE),
    ("states", "states"): (("states", "states"), ("states", "states")),
    ("states", "disk"): (_STORE, _STORE),
    ("simulate", "auto"): (("simulate", "fingerprint"), _GRAPH),
    ("simulate", "fingerprint"): (("simulate", "fingerprint"), _GRAPH),
    ("simulate", "states"): (_STORE, _GRAPH),
    ("simulate", "disk"): (("simulate", "disk"), _GRAPH),
}


class TestResolution:
    def test_engine_and_store_names(self):
        assert ENGINES == ("auto", "fingerprint", "states", "simulate")
        assert STORES == ("auto", "fingerprint", "states", "disk")

    @pytest.mark.parametrize("collect_graph", [False, True])
    @pytest.mark.parametrize("store", STORES)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_every_engine_store_pair_resolves_or_is_refused(
        self, locking_spec, engine, store, collect_graph
    ):
        expected = RESOLUTION[engine, store][collect_graph]
        options = dict(engine=engine, store=store, collect_graph=collect_graph)
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=expected):
                ModelChecker(locking_spec, check_properties=False, **options)
        else:
            checker = ModelChecker(locking_spec, check_properties=False, **options)
            assert (checker.resolved_engine, checker.resolved_store) == expected

    @pytest.mark.parametrize(
        "argv,resolved,why",
        [
            (
                ["check", "raftmongo", "--param", "n_nodes=2", "--store", "disk"],
                "'states'",
                "check_properties",
            ),
            (["check", "locking", "--store", "states"], "'fingerprint'", "no state graph"),
        ],
    )
    def test_an_auto_refusal_says_what_auto_chose_and_why(
        self, capsys, argv, resolved, why
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and err.count("\n") == 1
        assert "engine='auto'" in err and f"resolved to {resolved}" in err
        assert why in err and "supports stores" in err

    @pytest.mark.parametrize(
        "removed,listed",
        [({"engine": "parallel"}, "'simulate'"), ({"store": "lru"}, "'disk'")],
    )
    def test_removed_names_are_refused_with_what_is_registered(
        self, locking_spec, removed, listed
    ):
        with pytest.raises(ValueError, match=f"unknown .*expected one of .*{listed}"):
            repro.engine.check_spec(locking_spec, check_properties=False, **removed)


class TestStoreValidation:
    def test_unknown_store_rejected(self, locking_spec):
        with pytest.raises(ValueError, match="unknown store"):
            repro.engine.ModelChecker(locking_spec, store="mmap")

    def test_incompatible_engine_store_pairs_rejected(self, locking_spec):
        with pytest.raises(ValueError, match="supports stores"):
            repro.engine.ModelChecker(
                locking_spec, check_properties=False, engine="states", store="disk"
            )
        with pytest.raises(ValueError, match="supports stores"):
            repro.engine.ModelChecker(
                locking_spec,
                check_properties=False,
                engine="fingerprint",
                store="states",
            )

    @pytest.mark.parametrize(
        "option,message",
        [
            (
                {"spill_threshold": 10},
                "spill_threshold applies to the fingerprint engine only; the "
                "states engine's graph holds every state, so spilling its "
                "frontier saves nothing",
            ),
            (
                {"checkpoint_path": "x.ckpt"},
                "checkpoint_path/resume_path apply to the fingerprint engine "
                "only; a checkpoint does not carry the states engine's graph",
            ),
            (
                {"resume_path": "x.ckpt"},
                "checkpoint_path/resume_path apply to the fingerprint engine "
                "only; a checkpoint does not carry the states engine's graph",
            ),
        ],
    )
    def test_the_states_engine_refuses_spilling_and_checkpoints_for_what_they_miss(
        self, locking_spec, option, message
    ):
        with pytest.raises(ValueError) as refused:
            ModelChecker(locking_spec, check_properties=False, engine="states", **option)
        assert str(refused.value) == message

    def test_capacity_only_applies_to_the_disk_store(self, locking_spec):
        with pytest.raises(ValueError, match="store_capacity"):
            repro.engine.ModelChecker(
                locking_spec, check_properties=False, store_capacity=100
            )


class TestCrossEngineParity:
    """All engines agree on the mutated spec's violated invariant."""

    def test_every_engine_finds_the_seeded_mutation(self):
        spec = build_spec("locking", mutation="xx_compatible")
        results = {
            "fingerprint": repro.engine.check_spec(
                spec, check_properties=False, engine="fingerprint"
            ),
            "states": repro.engine.check_spec(
                spec, check_properties=False, engine="states"
            ),
            "simulate": repro.engine.check_spec(
                spec,
                check_properties=False,
                engine="simulate",
                walks=50,
                walk_depth=20,
                seed=0,
            ),
        }
        for engine, result in results.items():
            assert not result.ok, engine
            assert result.invariant_violation is not None, engine
            assert result.invariant_violation.property_name == "MutualExclusion"
            # every engine's counterexample must be a real behaviour ending
            # in a genuinely violating state
            trace = result.invariant_violation.trace
            assert trace[0] in spec.initial_states()
            for current, nxt in zip(trace, trace[1:]):
                assert nxt in [s for _a, s in spec.successors(current)]
            assert spec.violated_invariant(trace[-1]).name == "MutualExclusion"
        # the exhaustive BFS engines remain bit-identical to each other
        assert _stats(results["fingerprint"])[:4] == _stats(results["states"])[:4]
        assert [s.values for s in results["fingerprint"].invariant_violation.trace] == [
            s.values for s in results["states"].invariant_violation.trace
        ]

    def test_simulate_distinct_states_bounded_by_reachable_space(self):
        spec = build_spec("locking")
        full = repro.engine.check_spec(spec, check_properties=False)
        sampled = repro.engine.check_spec(
            spec,
            check_properties=False,
            engine="simulate",
            walks=100,
            walk_depth=30,
            seed=9,
        )
        assert sampled.ok
        assert 0 < sampled.distinct_states <= full.distinct_states
