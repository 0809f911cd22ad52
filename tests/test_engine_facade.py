"""Cross-engine parity across the repro.engine seam.

The engine and store registries, store validation, and the contract that all
engines -- including ``simulate`` -- agree about what is reachable and what
violates.
"""

import pytest

import repro.engine
from repro.engine import ENGINES, STORES, engine_names, get_engine, store_names
from repro.tla.registry import build_spec


def _stats(result):
    return (
        result.distinct_states,
        result.generated_states,
        result.max_depth,
        result.action_counts,
        result.peak_frontier,
    )


class TestRegistries:
    def test_registries_expose_all_engines_and_stores(self):
        assert ENGINES == ("auto",) + engine_names()
        assert engine_names() == ("fingerprint", "states", "simulate")
        assert STORES[0] == "auto"
        assert store_names() == ("fingerprint", "states", "disk")
        assert get_engine("simulate").name == "simulate"
        with pytest.raises(ValueError, match="unknown engine"):
            get_engine("warp")

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
