"""Cross-engine parity across the repro.engine seam.

The engine and store names, what ``ModelChecker`` reports and refuses for
each engine x store pair with the state graph kept or not, and the
contract that all engines -- including ``simulate`` -- agree about what is
reachable and what violates.
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


#: What keeps the state graph: nothing, ``collect_graph``, or the temporal
#: properties of RaftMongo (locking has none).
GRAPH = {
    "none": ("locking", {}, dict(check_properties=False)),
    "collect_graph": ("locking", {}, dict(check_properties=False, collect_graph=True)),
    "properties": ("raftmongo", {"n_nodes": 2}, dict(check_properties=True)),
}

#: ``(engine, store) -> (answer without the graph, answer with it)``: the
#: ``(engine, store)`` the checker reports, or the refused parameter as
#: the refusal names it.
MATRIX = {
    ("fingerprint", "fingerprint"): (("fingerprint", "fingerprint"), ("fingerprint", "graph")),
    ("fingerprint", "disk"): (("fingerprint", "disk"), "store='disk'"),
    ("simulate", "fingerprint"): (("simulate", "fingerprint"), "engine='simulate'"),
    ("simulate", "disk"): (("simulate", "disk"), "engine='simulate'"),
}

#: How each reason for the graph tells the caller to drop it.
DROP = {"collect_graph": "collect_graph (--dot)", "properties": "--no-properties"}


def _checker(graph, **options):
    name, params, keep = GRAPH[graph]
    return ModelChecker(build_spec(name, **params), **keep, **options)


class TestOptions:
    def test_engine_and_store_names(self):
        assert ENGINES == ("fingerprint", "simulate")
        assert STORES == ("fingerprint", "disk")

    @pytest.mark.parametrize("graph", list(GRAPH))
    @pytest.mark.parametrize("store", STORES)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_every_engine_store_pair_runs_or_is_refused(self, engine, store, graph):
        expected = MATRIX[engine, store][graph != "none"]
        if isinstance(expected, str):
            with pytest.raises(ValueError) as refused:
                _checker(graph, engine=engine, store=store)
            message = str(refused.value)
            assert message.startswith(expected + " cannot be combined with the state graph")
            assert DROP[graph] in message and "auto" not in message
        else:
            checker = _checker(graph, engine=engine, store=store)
            assert (checker.engine, checker.store) == expected

    @pytest.mark.parametrize(
        "argv,needle",
        [
            (["--store", "disk"], "--no-properties"),
            (["--checkpoint", "x.ckpt"], "--no-properties"),
            (["--resume", "x.ckpt"], "--no-properties"),
            (["--spill-threshold", "10"], "--no-properties"),
            (["--dot", "g.dot", "--store", "disk"], "collect_graph (--dot)"),
            (["--dot", "g.dot", "--checkpoint", "x.ckpt"], "collect_graph (--dot)"),
            (["--dot", "g.dot", "--engine", "simulate"], "collect_graph (--dot)"),
            (["--dot", "g.dot", "--spill-threshold", "10"], "collect_graph (--dot)"),
        ],
    )
    def test_a_graph_refusal_says_what_asked_for_the_graph_in_one_line(
        self, capsys, monkeypatch, tmp_path, argv, needle
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["check", "raftmongo", "--param", "n_nodes=2"] + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "cannot be combined with the state graph" in err
        assert needle in err and "auto" not in err
        assert not (tmp_path / "g.dot").exists() and not (tmp_path / "x.ckpt").exists()

    @pytest.mark.parametrize(
        "argv",
        [["--store", "disk"], ["--spill-threshold", "10"], ["--checkpoint", "x.ckpt"]],
    )
    def test_dropping_the_properties_drops_the_refusal(
        self, capsys, monkeypatch, tmp_path, argv
    ):
        monkeypatch.chdir(tmp_path)
        argv = ["check", "raftmongo", "--param", "n_nodes=2", "--no-properties"] + argv
        assert main(argv) == 0
        assert "607 distinct states" in capsys.readouterr().out

    def test_the_default_engine_keeps_the_graph_for_properties_and_dot(
        self, capsys, tmp_path
    ):
        dot = tmp_path / "g.dot"
        assert main(["check", "raftmongo", "--param", "n_nodes=2", "--dot", str(dot)]) == 0
        out = capsys.readouterr().out
        assert "[engine=fingerprint store=graph]" in out
        assert "  property CommitPointEventuallyPropagated: holds" in out
        assert "note:" not in out and dot.read_text().startswith("digraph")

    def test_walks_skip_properties_with_one_note(self, capsys):
        argv = ["check", "raftmongo", "--param", "n_nodes=2", "--engine", "simulate"]
        assert main(argv + ["--walks", "5", "--depth", "5"]) == 0
        out = capsys.readouterr().out
        assert out.count("note:") == 1
        assert out.startswith("note: simulate engine skips temporal properties")

    @pytest.mark.parametrize(
        "removed,listed",
        [({"engine": "parallel"}, "'simulate'"), ({"store": "lru"}, "'disk'")],
    )
    def test_removed_names_are_refused_with_what_is_registered(
        self, locking_spec, removed, listed
    ):
        with pytest.raises(ValueError, match=f"unknown .*expected one of .*{listed}"):
            repro.engine.check_spec(locking_spec, check_properties=False, **removed)

    @pytest.mark.parametrize("removed", ["auto", "states"])
    @pytest.mark.parametrize("flag", ["--engine", "--store"])
    def test_the_cli_offers_neither_auto_nor_states(self, capsys, flag, removed):
        with pytest.raises(SystemExit) as exited:
            main(["check", "locking", flag, removed])
        assert exited.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("store", ["auto", "states"])
    def test_the_library_refuses_the_removed_store_names(self, locking_spec, store):
        with pytest.raises(ValueError, match=f"unknown store '{store}'"):
            ModelChecker(locking_spec, check_properties=False, store=store)

    def test_the_library_refuses_engine_auto(self, locking_spec):
        with pytest.raises(ValueError, match="unknown engine 'auto'"):
            ModelChecker(locking_spec, check_properties=False, engine="auto")


class TestStatesSpelling:
    """``engine="states"`` is the library's old spelling of ``"fingerprint"``."""

    @pytest.mark.parametrize("collect_graph", [False, True], ids=["no-graph", "graph"])
    def test_states_gives_the_fingerprint_result(self, locking_spec, collect_graph):
        options = dict(check_properties=False, collect_graph=collect_graph)
        states = repro.engine.check_spec(locking_spec, engine="states", **options)
        fingerprint = repro.engine.check_spec(locking_spec, engine="fingerprint", **options)
        assert _stats(states) == _stats(fingerprint)
        assert (states.engine, states.store) == (fingerprint.engine, fingerprint.store)
        if collect_graph:
            assert [s.values for s in states.graph.states()] == [
                s.values for s in fingerprint.graph.states()
            ]
            assert states.graph.edges == fingerprint.graph.edges
        else:
            assert states.graph is None and fingerprint.graph is None

    def test_states_keeps_the_graph_for_properties(self, raft_mbtc_2node_spec):
        result = repro.engine.check_spec(raft_mbtc_2node_spec, engine="states")
        assert (result.engine, result.store) == ("fingerprint", "graph")
        assert [outcome.holds for outcome in result.property_outcomes] == [True]


class TestStoreValidation:
    def test_unknown_store_rejected(self, locking_spec):
        with pytest.raises(ValueError, match="unknown store"):
            repro.engine.ModelChecker(locking_spec, store="mmap")

    @pytest.mark.parametrize(
        "option,refused",
        [
            ({"store": "disk"}, "store='disk'"),
            ({"engine": "simulate"}, "engine='simulate'"),
            ({"spill_threshold": 10}, "spill_threshold"),
            ({"checkpoint_path": "x.ckpt"}, "checkpoint_path/resume_path"),
            ({"resume_path": "x.ckpt"}, "checkpoint_path/resume_path"),
        ],
    )
    def test_a_graph_run_refuses_what_it_cannot_do_in_the_callers_terms(
        self, locking_spec, raft_mbtc_2node_spec, option, refused
    ):
        with pytest.raises(ValueError) as asked:
            ModelChecker(locking_spec, check_properties=False, collect_graph=True, **option)
        assert str(asked.value) == (
            f"{refused} cannot be combined with the state graph, which a run "
            "keeps in memory; collect_graph (--dot) asks for it"
        )
        with pytest.raises(ValueError) as properties:
            ModelChecker(raft_mbtc_2node_spec, **option)
        assert str(properties.value) == (
            f"{refused} cannot be combined with the state graph, which a run "
            "keeps in memory; RaftMongo[mbtc]'s temporal properties are checked "
            "on it (pass check_properties=False, --no-properties, to skip them)"
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
            "graph": repro.engine.check_spec(
                spec, check_properties=False, collect_graph=True
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
        # the BFS is bit-identical with and without the graph
        assert _stats(results["fingerprint"])[:4] == _stats(results["graph"])[:4]
        assert [s.values for s in results["fingerprint"].invariant_violation.trace] == [
            s.values for s in results["graph"].invariant_violation.trace
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
