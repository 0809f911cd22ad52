"""First-class specification registry: build any registered spec by name.

A :class:`~repro.tla.spec.Specification` is a bundle of closures and
therefore does not pickle, so what names a spec outside the process is the
``(name, params)`` pair that *rebuilds* it.  :func:`build_spec` stamps the
pair onto the spec as ``spec.registry_ref``, and checkpoints record it so a
resume refuses a checkpoint of another spec.

Spec modules register themselves at import time via :func:`register_spec`;
the built-in families under :mod:`repro.specs` are loaded lazily on first
lookup so that importing :mod:`repro.tla` alone stays cheap and cycle-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import Any, Callable, Dict, List, Optional, Tuple

from .errors import SpecError
from .spec import Specification

__all__ = [
    "SpecEntry",
    "build_spec",
    "get_entry",
    "register_spec",
    "registered_names",
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

    def log_layout(self, spec: Specification) -> Tuple[Tuple[str, ...], int]:
        """``(per_node, nodes)``: how ``spec``'s state splits into per-node logs.

        ``register_spec`` makes the metadata optional (checking needs only a
        factory); every command that reads or writes per-node logs asks here.
        """
        if self.per_node_variables is None or self.node_count is None:
            raise SpecError(
                f"specification {self.name!r} was registered without "
                "per_node_variables/node_count metadata, which per-node logs "
                "require; pass them to register_spec to enable this command"
            )
        return self.per_node_variables(spec), self.node_count(spec)


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

    ``build_spec(name, **params)`` with the stamped ``(name, params)`` pair
    builds an equal spec again.
    """
    entry = get_entry(name)
    try:
        spec = entry.factory(**params)
    except TypeError as exc:
        raise SpecError(f"bad parameters for {name!r}: {exc}") from exc
    spec.registry_ref = (name, dict(params))
    return spec
