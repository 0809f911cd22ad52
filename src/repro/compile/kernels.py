"""CompiledSpec: the specialized executable form of a specification.

A :class:`CompiledSpec` is what the engines run instead of interpreting the
spec per state.  Its core surface is two functions over *value tuples* (the
fixed-slot, schema-indexed state representation -- no dict lookups, no
``State`` allocation on the hot path):

``expand(values)``
    The fused guard+update successor kernel: one call yields the complete
    expansion of a state as :data:`~repro.engine.base.SuccessorInfo`
    entries -- ``(action, values, fingerprint, violated invariant,
    constraint verdict)`` -- the exact wire shape the interpreted
    :class:`~repro.engine.base.InterpretedExpander` produces, so every
    engine consumes either interchangeably.

``verdict_for(values, fp)``
    The invariant/constraint evaluator, memoized per fingerprint through
    the same :func:`~repro.engine.base.memoized_verdict` (cap and eviction
    policy included) the interpreted expander uses.

Two kernel generators exist: a *native* backend (currently
:mod:`repro.compile.native_locking`) that compiles the spec's transition
relation down to exec-generated straight-line code, and the *generic*
backend in this module, which still calls the spec's action closures but
replaces everything around them -- freeze walks, state fingerprints,
invariant dispatch -- with one interning pass and incremental per-slot
fingerprint splicing (unchanged slots are never re-walked).

Boundary fidelity: the adapter also satisfies the interpreted
``initial_states`` / ``successors`` / ``violated_invariant`` /
``within_constraint`` surface, converting losslessly to real
:class:`~repro.tla.state.State` objects, and delegates every other
attribute to the wrapped spec -- counterexample replay, StateGraph
retention, checkpoints and store snapshots flow through unchanged code and
stay bit-identical.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..engine.base import SuccessorInfo, memoized_verdict
from ..tla.errors import EvaluationError
from ..tla.spec import Invariant, Specification
from ..tla.state import State
from .interner import ValueInterner, state_fingerprint

__all__ = ["CompiledSpec", "build_generic_kernels"]


def build_generic_kernels(
    spec: Specification, interner: ValueInterner
) -> Tuple[Callable, Callable, Dict[str, Any]]:
    """``(expand, verdict_for, info)`` driving the spec's own action closures.

    Works for any specification.  Parity with :class:`~repro.tla.spec.Action`
    is structural: the effect call alone is wrapped in
    :class:`EvaluationError` (generator-body exceptions escape raw, exactly
    as in ``Action.successors``), items are classified State-before-Mapping,
    and unknown update variables raise the schema's own ``SpecError``.
    """
    schema = spec.schema
    index_of = schema.index_of
    actions = spec.actions
    intern = interner.intern
    slot_fingerprints = interner.slot_fingerprints
    verdicts: Dict[int, Tuple[Optional[str], bool]] = {}

    def verdict_for(values: Tuple[Any, ...], fp: int) -> Tuple[Optional[str], bool]:
        cached = verdicts.get(fp)  # a hit must not pay for building a State
        if cached is None:
            state = State.from_values(schema, values)
            cached = memoized_verdict(spec, state, fp, verdicts)
        return cached

    def expand(values: Tuple[Any, ...]) -> List[SuccessorInfo]:
        state = State.from_values(schema, values)
        slot_fps: Optional[List[int]] = None
        entries: List[SuccessorInfo] = []
        append = entries.append
        for act in actions:
            name = act.name
            try:
                produced = act.effect(state)
            except Exception as exc:  # noqa: BLE001 - mirror Action.successors
                raise EvaluationError(
                    f"action {name!r} raised {type(exc).__name__}: {exc}",
                    action=name,
                ) from exc
            if produced is None:
                continue
            for item in produced:
                tp = type(item)
                if tp is dict or (
                    not isinstance(item, State) and isinstance(item, Mapping)
                ):
                    if slot_fps is None:
                        slot_fps = slot_fingerprints(values)
                    new_values = list(values)
                    new_fps = list(slot_fps)
                    for var, val in item.items():
                        canonical, vfp = intern(val)
                        slot = index_of(var)
                        new_values[slot] = canonical
                        new_fps[slot] = vfp
                    nvals = tuple(new_values)
                    nfp = state_fingerprint(new_fps)
                elif isinstance(item, State):
                    pairs = [intern(val) for val in item.values]
                    nvals = tuple(pair[0] for pair in pairs)
                    nfp = state_fingerprint(pair[1] for pair in pairs)
                else:
                    raise EvaluationError(
                        f"action {name!r} produced {tp.__name__}; "
                        "expected State or mapping of variable updates",
                        action=name,
                    )
                verdict = verdicts.get(nfp)
                if verdict is None:
                    verdict = verdict_for(nvals, nfp)
                append((name, nvals, nfp, verdict[0], verdict[1]))
        return entries

    info = {"native": False, "kernel": "generic"}
    return expand, verdict_for, info


class CompiledSpec:
    """A specification specialized into flat compiled form.

    Engines use :attr:`expand` / :attr:`verdict_for` on value tuples; code
    written against the interpreted surface (replay, coverage, graph
    retention, tests) can use this object wherever a ``Specification`` goes
    -- the adapter methods convert at the boundary and every unlisted
    attribute delegates to the wrapped spec.
    """

    def __init__(
        self,
        spec: Specification,
        expand: Callable[[Tuple[Any, ...]], List[SuccessorInfo]],
        verdict_for: Callable[[Tuple[Any, ...], int], Tuple[Optional[str], bool]],
        info: Dict[str, Any],
        interner: Optional[ValueInterner] = None,
    ) -> None:
        self.spec = spec
        self.schema = spec.schema
        self.expand = expand
        self.verdict_for = verdict_for
        self.compile_info = dict(info)
        self.interner = interner
        self._invariants_by_name = {inv.name: inv for inv in spec.invariants}

    def __repr__(self) -> str:
        kernel = self.compile_info.get("kernel", "?")
        return f"CompiledSpec({self.spec.name!r}, kernel={kernel!r})"

    @property
    def native(self) -> bool:
        """True when the spec compiled to exec-generated native kernels."""
        return bool(self.compile_info.get("native"))

    # Interpreted-surface adapter --------------------------------------------
    def initial_states(self) -> List[State]:
        return self.spec.initial_states()

    def successors(self, state: State) -> List[Tuple[str, State]]:
        """``Specification.successors`` computed through the compiled kernel."""
        schema = self.schema
        return [
            (name, State.from_values(schema, values))
            for name, values, _fp, _violated, _within in self.expand(state.values)
        ]

    def violated_invariant(self, state: State) -> Optional[Invariant]:
        name, _within = self.verdict_for(state.values, state.fingerprint())
        if name is None:
            return None
        return self._invariants_by_name[name]

    def within_constraint(self, state: State) -> bool:
        _name, within = self.verdict_for(state.values, state.fingerprint())
        return within

    def __getattr__(self, name: str) -> Any:
        return getattr(self.spec, name)
