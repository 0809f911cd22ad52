"""The first-class spec registry: lookup, registry_ref stamping, CLI choices."""

import pytest

from repro.tla import Specification
from repro.tla.errors import SpecError
from repro.tla import registry
from repro.tla.registry import (
    build_spec,
    build_worker_spec,
    get_entry,
    register_spec,
    registered_names,
    worker_spec_args,
)


def test_builtin_families_are_registered():
    names = registered_names()
    assert {"locking", "raftmongo"} <= set(names)
    assert names == sorted(names)


def test_build_spec_stamps_registry_ref():
    spec = build_spec("raftmongo", n_nodes=2, variant="mbtc")
    assert isinstance(spec, Specification)
    assert spec.registry_ref == ("raftmongo", {"n_nodes": 2, "variant": "mbtc"})
    # The ref rebuilds an equivalent spec -- the pool workers' contract.
    name, params = spec.registry_ref
    rebuilt = build_spec(name, **params)
    assert rebuilt.name == spec.name
    assert rebuilt.schema.names == spec.schema.names
    assert rebuilt.initial_states() == spec.initial_states()


def test_worker_bootstrap_adopts_the_coordinators_providers(monkeypatch):
    import sys

    import widecounter_spec  # noqa: F401 - appends itself to PROVIDER_MODULES

    args = worker_spec_args(build_spec("_test_widecounter", limit=2))
    assert args[:2] == ("_test_widecounter", {"limit": 2})
    assert "widecounter_spec" in args[2]
    # What a spawn-started worker begins with: nothing registered, the
    # default providers only, the provider module not yet imported.
    monkeypatch.setattr(registry, "PROVIDER_MODULES", ["repro.specs"])
    monkeypatch.setattr(registry, "_REGISTRY", {})
    monkeypatch.setattr(registry, "_loaded_providers", set())
    monkeypatch.delitem(sys.modules, "widecounter_spec")
    rebuilt = build_worker_spec(*args)
    assert rebuilt.registry_ref == ("_test_widecounter", {"limit": 2})
    assert rebuilt.initial_states()[0]["xs"] == (0,) * 6


def test_unknown_name_and_bad_params_raise_spec_error():
    with pytest.raises(SpecError, match="unknown specification"):
        build_spec("no-such-spec")
    with pytest.raises(SpecError, match="bad parameters"):
        build_spec("locking", bogus_param=1)


def test_duplicate_registration_requires_replace():
    register_spec("_test_dup", lambda: None, replace=True)
    with pytest.raises(SpecError, match="already registered"):
        register_spec("_test_dup", lambda: None)
    register_spec("_test_dup", lambda: None, replace=True)


def test_cli_spec_choices_follow_late_registrations(capsys):
    from repro.pipeline.cli import build_parser

    with pytest.raises(SystemExit):
        build_parser().parse_args(["check", "_test_live"])
    assert "locking" in capsys.readouterr().err  # the usage line names the choices
    register_spec("_test_live", lambda: None, replace=True)
    assert build_parser().parse_args(["check", "_test_live"]).spec == "_test_live"


def test_cli_rejects_spec_registered_without_log_metadata(capsys):
    from repro.pipeline.cli import main
    from repro.specs.locking import spec_factory

    register_spec("_test_nometa", spec_factory, replace=True)
    assert main(["trace", "_test_nometa", "whatever.jsonl"]) == 2
    assert "per_node_variables" in capsys.readouterr().err
    # Without --log-dir, simulate works fine (metadata only gates log writing).
    assert main(["simulate", "_test_nometa", "--traces", "5"]) == 0


def test_build_spec_by_name_returns_entry_with_pipeline_hooks():
    spec, entry = build_spec("locking", n_threads=3), get_entry("locking")
    assert spec.constants["n_threads"] == 3
    assert spec.registry_ref == ("locking", {"n_threads": 3})
    assert entry.per_node_variables(spec) == ("held",)
    assert entry.node_count(spec) == 3
