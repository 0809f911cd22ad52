"""First-class specification registry: build any registered spec by name.

The registry is the serialization layer of everything multi-process: a
:class:`~repro.tla.spec.Specification` is a bundle of closures and therefore
does not pickle, so worker processes receive the ``(name, params)`` pair that
*rebuilds* it instead (TLC does the same thing -- every worker parses the
``.tla`` file rather than receiving a parsed module).  :func:`build_spec`
stamps the pair onto the spec as ``spec.registry_ref``; the one caller that
runs worker processes, the simulation engine's sharded walks
(:mod:`repro.engine.simulate`), hands :func:`worker_spec_args` to its pool
and calls :func:`build_worker_spec` in each worker.

Spec modules register themselves at import time via :func:`register_spec`;
the built-in families under :mod:`repro.specs` are loaded lazily on first
lookup so that importing :mod:`repro.tla` alone stays cheap and cycle-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from .errors import SpecError
from .spec import Specification

__all__ = [
    "SpecEntry",
    "build_spec",
    "build_worker_spec",
    "get_entry",
    "register_spec",
    "registered_names",
    "worker_spec_args",
]


@dataclass(frozen=True)
class SpecEntry:
    """One checkable specification family, addressable by name.

    ``factory`` builds the spec from flat keyword parameters.  The two
    optional callables are the log-pipeline metadata: which variables are
    per-node arrays and how many node slots they carry.
    """

    name: str
    description: str
    factory: Callable[..., Specification]
    per_node_variables: Optional[Callable[[Specification], Tuple[str, ...]]] = None
    node_count: Optional[Callable[[Specification], int]] = None


_REGISTRY: Dict[str, SpecEntry] = {}

#: Modules imported on first lookup; importing them runs their
#: ``register_spec`` calls.  Kept as a mutable list so embedders can append
#: their own provider modules before the first ``build_spec``.
PROVIDER_MODULES: List[str] = ["repro.specs"]

_loaded_providers: set = set()


def _ensure_providers() -> None:
    for module_name in list(PROVIDER_MODULES):
        if module_name not in _loaded_providers:
            # Mark as loaded only on success, so a provider whose import fails
            # (missing dependency, syntax error) is retried and keeps
            # surfacing its real error instead of "unknown specification".
            import_module(module_name)
            _loaded_providers.add(module_name)


def register_spec(
    name: str,
    factory: Callable[..., Specification],
    *,
    description: str = "",
    per_node_variables: Optional[Callable[[Specification], Tuple[str, ...]]] = None,
    node_count: Optional[Callable[[Specification], int]] = None,
    replace: bool = False,
) -> SpecEntry:
    """Register a spec family under ``name``; returns the created entry."""
    if name in _REGISTRY and not replace:
        raise SpecError(f"specification name {name!r} is already registered")
    entry = SpecEntry(
        name=name,
        description=description,
        factory=factory,
        per_node_variables=per_node_variables,
        node_count=node_count,
    )
    _REGISTRY[name] = entry
    return entry


def get_entry(name: str) -> SpecEntry:
    """Look up a registry entry; raises :class:`SpecError` for unknown names."""
    _ensure_providers()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise SpecError(f"unknown specification {name!r}; known: {known}") from None


def registered_names() -> List[str]:
    """Sorted names of every registered spec family."""
    _ensure_providers()
    return sorted(_REGISTRY)


def build_spec(name: str, **params: Any) -> Specification:
    """Build a registered spec and stamp its ``registry_ref``.

    The stamped ``(name, params)`` pair must survive a round trip through
    another process: pool workers call ``build_spec(name, **params)`` to
    obtain their own copy of the spec.
    """
    entry = get_entry(name)
    try:
        spec = entry.factory(**params)
    except TypeError as exc:
        raise SpecError(f"bad parameters for {name!r}: {exc}") from exc
    spec.registry_ref = (name, dict(params))
    return spec


def worker_spec_args(spec: Specification) -> Tuple[str, Dict[str, Any], List[str]]:
    """The picklable arguments a worker passes to :func:`build_worker_spec`.

    ``spec`` must come from :func:`build_spec`; callers that accept
    hand-built specs check ``spec.registry_ref`` before starting a pool.
    """
    assert spec.registry_ref is not None
    name, params = spec.registry_ref
    return name, params, list(PROVIDER_MODULES)


def build_worker_spec(
    name: str, params: Dict[str, Any], provider_modules: Iterable[str]
) -> Specification:
    """Rebuild the coordinator's spec inside a worker process.

    Under the 'spawn' start method a worker starts with a fresh registry;
    adopting the coordinator's provider list first keeps specs whose
    factories live outside the default providers buildable (under 'fork'
    the registrations are inherited and adopting is a no-op).
    """
    for module_name in provider_modules:
        if module_name not in PROVIDER_MODULES:
            PROVIDER_MODULES.append(module_name)
    return build_spec(name, **params)
