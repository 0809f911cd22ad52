"""Pluggable exploration engines for the model checker (the TLC substitute).

One exploration strategy per module, all registered by name:

* :mod:`repro.engine.fingerprint` -- ``"fingerprint"``: level-synchronous
  BFS over interned 64-bit fingerprints (the default when no state graph is
  needed; the one engine that checkpoints, resumes and spills),
* :mod:`repro.engine.serial` -- ``"states"``: BFS retaining every distinct
  ``State`` (required for temporal properties, DOT export and MBTCG, and the
  unhashed reference the fingerprint engine is compared against),
* :mod:`repro.engine.simulate` -- ``"simulate"``: seeded random-walk
  simulation with walk/depth budgets, for state spaces too large to exhaust.

Visited-state storage is a second, independent seam
(:mod:`repro.engine.store`): engines accept any registered store they
declare compatible.  Every store is exact; they differ in where the set
lives -- an in-memory dict of fingerprints (each mapped to its parent's,
the replay pointer), retained ``State`` objects, or the ``disk`` store
(:mod:`repro.engine.diskstore`), which million-state runs pair with
spill-to-disk frontiers (:mod:`repro.engine.frontier`) so peak RSS stays
flat as distinct-state counts climb orders of magnitude.

Execution robustness is a third seam (:mod:`repro.resilience`): the
simulation engine's ``workers > 1`` walks dispatch through a supervised
worker pool (crash/hang detection, bounded retry, degrade-to-serial) with a
seeded chaos layer to test it, and the fingerprint engine can checkpoint and
resume through the store snapshot seam.

Spec execution is a fourth seam, the *expander*: an object with three
calls over value tuples.  ``transitions(values)`` is a state's successors
as ``(action, successor values, fingerprint)`` entries -- what both BFS
engines and the trace fold step on; ``verdict_for(values, fp)`` is one
state's ``(violated invariant, constraint verdict)``, which the BFS engines
ask once per *new* state and which keeps no memo; ``expand(values)`` is the
transitions with verdicts attached through a capped per-fingerprint memo,
for the simulation engine, whose walks revisit states.  It has two
implementations,
:class:`repro.compile.CompiledSpec` (fused successor kernels over
fixed-slot value tuples) and
:class:`~repro.engine.base.InterpretedExpander` (the spec's own action
closures), and one factory, :func:`~repro.engine.base.make_expander`, which
applies ``compile_mode="on"|"off"|"auto"`` for the coordinator and for
every pool worker.  Each engine is written once against
``CheckContext.expander`` and never asks which implementation it holds.
Results are bit-identical under either expander.

:class:`~repro.engine.core.ModelChecker` coordinates: it resolves
``engine="auto"``/``store="auto"`` eagerly, validates the combination,
builds the shared :class:`~repro.engine.base.CheckContext` and runs the
selected engine.

Adding an engine or store is one file: subclass
:class:`~repro.engine.base.Engine` (or register a store factory) and
register it -- the coordinator, CLI and registry pick it up by name.
"""

from .base import (
    CheckContext,
    CheckResult,
    Engine,
    engine_names,
    get_engine,
    register_engine,
)
from .frontier import SpillFrontier
from .store import (
    DiskFingerprintStore,
    FingerprintSetStore,
    StateRetainingStore,
    StateStore,
    make_store,
    register_store,
    store_names,
)

# Importing the engine modules registers them; the order fixes the public
# ENGINES tuple.
from .fingerprint import FingerprintEngine
from .serial import SerialStatesEngine
from .simulate import SimulationEngine
from .core import ModelChecker, check_spec

__all__ = [
    "CheckContext",
    "CheckResult",
    "DiskFingerprintStore",
    "ENGINES",
    "Engine",
    "FingerprintEngine",
    "FingerprintSetStore",
    "ModelChecker",
    "STORES",
    "SerialStatesEngine",
    "SimulationEngine",
    "SpillFrontier",
    "StateRetainingStore",
    "StateStore",
    "check_spec",
    "engine_names",
    "get_engine",
    "make_store",
    "register_engine",
    "register_store",
    "store_names",
]

#: Engine names accepted by ``ModelChecker(engine=...)`` and the CLI.
ENGINES = ("auto",) + engine_names()

#: Store names accepted by ``ModelChecker(store=...)`` and the CLI.
STORES = ("auto",) + store_names()
