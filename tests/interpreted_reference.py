"""The spec's own action closures as an expander: the tests' successor oracle.

Every check run and every trace fold compiles its spec
(:func:`repro.compile.compile_spec`) into a
:class:`~repro.compile.CompiledSpec`.  :class:`InterpretedExpander` answers
the same three calls -- ``transitions``, ``verdict_for``, ``expand`` -- by
interpreting the spec state by state, so the two can be compared entry for
entry, and :func:`use_oracle` puts it where the library compiles, so a whole
check, walk or trace fold runs on it (the ``oracle`` fixture in
``conftest.py``; the parity tables' ``"off"`` column).
"""

import contextlib
from typing import Any, Dict, List, Tuple

import pytest

import repro.compile
from repro.engine.base import SuccessorInfo, Transition, Verdict
from repro.tla.spec import Specification
from repro.tla.state import State


class InterpretedExpander:
    """The expander surface over the spec's own closures.

    ``transitions(values)`` is a state's successors as
    :data:`~repro.engine.base.Transition` entries, ``verdict_for(values,
    fp)`` one state's ``(violated invariant name, constraint verdict)`` from
    the spec's own predicates, and ``expand(values)`` the successors with
    memoized verdicts, as :data:`~repro.engine.base.SuccessorInfo` entries --
    what :class:`~repro.compile.CompiledSpec` must emit, in the same order.
    ``expand``'s verdict memo (a plain dict: an oracle needs no cap) lives
    as long as the expander: one per run.
    """

    #: A compiled spec's ``interner``: there is none to share.
    interner = None

    def __init__(self, spec: Specification) -> None:
        self.spec = spec
        #: What a check run's ``kernel`` label and ``SuccessorCache.kernel`` read.
        self.compile_info = {"kernel": "interpreted"}
        self._verdicts: Dict[int, Verdict] = {}

    def transitions(self, values: Tuple[Any, ...]) -> List[Transition]:
        state = State.from_values(self.spec.schema, values)
        return [
            (action_name, nxt.values, nxt.fingerprint())
            for action_name, nxt in self.spec.successors(state)
        ]

    def expand(self, values: Tuple[Any, ...]) -> List[SuccessorInfo]:
        verdict_for, verdicts = self.verdict_for, self._verdicts
        entries: List[SuccessorInfo] = []
        for action_name, nvalues, nfp in self.transitions(values):
            cached = verdicts.get(nfp)
            if cached is None:
                cached = verdicts[nfp] = verdict_for(nvalues, nfp)
            entries.append((action_name, nvalues, nfp, cached[0], cached[1]))
        return entries

    def verdict_for(self, values: Tuple[Any, ...], fp: int) -> Verdict:
        spec = self.spec
        state = State.from_values(spec.schema, values)
        violated = spec.violated_invariant(state)
        return (
            None if violated is None else violated.name,
            spec.within_constraint(state),
        )


def use_oracle(monkeypatch: pytest.MonkeyPatch) -> None:
    """Until ``monkeypatch`` is undone, every spec the library compiles -- a
    check run's, a ``SuccessorCache``'s -- runs on :class:`InterpretedExpander`.

    Both call sites import ``compile_spec`` from :mod:`repro.compile` when
    they run, so replacing the module attribute reaches them.
    """
    monkeypatch.setattr(repro.compile, "compile_spec", InterpretedExpander)


@contextlib.contextmanager
def oracle_runs(mode: str = "off"):
    """:func:`use_oracle` for the enclosed block when ``mode`` is ``"off"``;
    ``"on"`` leaves the compiled kernels in place."""
    with pytest.MonkeyPatch.context() as patch:
        if mode == "off":
            use_oracle(patch)
        yield
