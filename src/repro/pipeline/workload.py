"""Synthetic workload generation: thousands of diverse traces, no replica set.

The paper's MBTC data came from real test executions; reproducing that at
scale needs a cheaper source.  This module drives a specification's own
actions as a random walk, yielding randomized-but-valid executions, and can
inject faults that are *guaranteed* invalid (each mutation is validated
against the spec at generation time), so a batch run exercises both the PASS
and FAIL paths of the checker with known expectations.

Generation is deterministic: trace ``i`` of a workload with seed ``s`` is
produced by ``random.Random(s * 1_000_003 + i)``, so individual traces can be
regenerated for diagnosis without rebuilding the whole batch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from ..tla import Specification, State
from ..tla.trace import SuccessorCache, TraceFold

__all__ = ["FAULT_KINDS", "GeneratedTrace", "generate_trace", "generate_workload"]

#: Fault kinds the generator can inject, all verified-invalid by construction.
FAULT_KINDS: Tuple[str, ...] = ("teleport", "drop-head")

_SEED_STRIDE = 1_000_003


@dataclass
class GeneratedTrace:
    """One synthetic execution with its expected checking outcome."""

    states: List[State]
    actions: List[Optional[str]]
    expect_ok: bool = True
    fault: Optional[str] = None
    seed: int = 0

    def __len__(self) -> int:
        return len(self.states)


def generate_trace(
    spec: Specification,
    rng: random.Random,
    *,
    min_steps: int = 4,
    max_steps: int = 24,
    stutter_probability: float = 0.0,
    successor_cache: Optional[SuccessorCache] = None,
) -> GeneratedTrace:
    """Random-walk the specification's actions into one valid execution.

    The walk starts at a random initial state and repeatedly takes a random
    enabled transition; it stops early only at terminal states.  With
    ``stutter_probability`` the walk occasionally repeats a state, mirroring
    log events that change nothing modelled (paper Section 4.1's "equivalent
    to one of the spec's actions" filter is imperfect in practice).
    """
    if min_steps < 0 or max_steps < min_steps:
        raise ValueError(f"bad step bounds: min={min_steps} max={max_steps}")
    cache = successor_cache if successor_cache is not None else SuccessorCache(spec)
    state = rng.choice(spec.initial_states())
    binding = cache.bind(state.values)
    states = [state]
    actions: List[Optional[str]] = [None]
    target = rng.randint(min_steps, max_steps)
    while len(states) <= target:
        if stutter_probability and rng.random() < stutter_probability:
            states.append(state)
            actions.append("<stutter>")
            continue
        # What ``spec.successors(state)`` returns, order and duplicates included.
        expansion = cache.expansion(binding)
        if not expansion:
            break
        action_name, values, _fp = rng.choice(expansion)
        # Only the chosen successor is bound; the kernel derived it from the
        # canonical values, so those are what its unchanged slots still hold.
        binding = cache.bind(values, (binding[1], *binding[1:]))
        state = State.from_values(spec.schema, binding[1])
        states.append(state)
        actions.append(action_name)
    return GeneratedTrace(states=states, actions=actions)


def _inject_teleport(
    spec: Specification, trace: GeneratedTrace, rng: random.Random, cache: SuccessorCache
) -> Optional[GeneratedTrace]:
    """Splice a non-successor state into the trace (an impossible transition)."""
    states = trace.states
    if len(states) < 3:
        return None
    candidates = list(range(1, len(states)))
    rng.shuffle(candidates)
    fold = TraceFold(spec, cache)
    for index in candidates:
        previous = states[index - 1]
        foreign = [
            s for s in states if s != previous and s != states[index]
        ]
        rng.shuffle(foreign)
        for replacement in foreign:
            if not fold.check([previous, replacement], require_initial=False).ok:
                mutated = states[: index] + [replacement]
                return GeneratedTrace(
                    states=mutated,
                    actions=trace.actions[: index] + ["<fault>"],
                    expect_ok=False,
                    fault="teleport",
                )
    return None


def _inject_drop_head(
    spec: Specification, trace: GeneratedTrace, rng: random.Random, cache: SuccessorCache
) -> Optional[GeneratedTrace]:
    """Drop leading states so the trace no longer starts in an initial state."""
    states = trace.states
    initials = spec.initial_states()
    candidates = [
        k for k in range(1, len(states)) if states[k] not in initials
    ]
    if not candidates:
        return None
    start = rng.choice(candidates)
    return GeneratedTrace(
        states=states[start:],
        actions=[None] + trace.actions[start + 1 :],
        expect_ok=False,
        fault="drop-head",
    )


_INJECTORS = {"teleport": _inject_teleport, "drop-head": _inject_drop_head}


def generate_workload(
    spec: Specification,
    *,
    n_traces: int,
    seed: int = 0,
    fault_rate: float = 0.0,
    min_steps: int = 4,
    max_steps: int = 24,
    stutter_probability: float = 0.0,
) -> Iterator[GeneratedTrace]:
    """Yield ``n_traces`` executions, a ``fault_rate`` fraction of them invalid.

    Fault injection picks a kind from :data:`FAULT_KINDS` and keeps the trace
    valid (labelled ``expect_ok=True``) if no guaranteed-invalid mutation
    exists for it, so every label is trustworthy.
    """
    if not 0.0 <= fault_rate <= 1.0:
        raise ValueError(f"fault_rate must be in [0, 1], got {fault_rate}")
    cache = SuccessorCache(spec)
    for index in range(n_traces):
        rng = random.Random(seed * _SEED_STRIDE + index)
        trace = generate_trace(
            spec,
            rng,
            min_steps=min_steps,
            max_steps=max_steps,
            stutter_probability=stutter_probability,
            successor_cache=cache,
        )
        trace.seed = seed * _SEED_STRIDE + index
        if fault_rate and rng.random() < fault_rate:
            kind = rng.choice(FAULT_KINDS)
            mutated = _INJECTORS[kind](spec, trace, rng, cache)
            if mutated is not None:
                mutated.seed = trace.seed
                yield mutated
                continue
        yield trace
