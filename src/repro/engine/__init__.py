"""Pluggable exploration engines for the model checker (the TLC substitute).

One exploration strategy per module, all registered by name:

* :mod:`repro.engine.fingerprint` -- ``"fingerprint"``: serial BFS over
  interned 64-bit fingerprints (the default when no state graph is needed),
* :mod:`repro.engine.serial` -- ``"states"``: BFS retaining every distinct
  ``State`` (required for temporal properties, DOT export and MBTCG),
* :mod:`repro.engine.parallel` -- ``"parallel"``: level-synchronous BFS with
  each frontier sharded across a process pool, bit-identical to
  ``fingerprint``,
* :mod:`repro.engine.simulate` -- ``"simulate"``: seeded random-walk
  simulation with walk/depth budgets, for state spaces too large to exhaust.

Visited-state storage is a second, independent seam
(:mod:`repro.engine.store`): engines accept any registered store they
declare compatible, so memory behaviour (exact set, state-retaining,
bounded LRU, exact disk-backed) is chosen per run without touching engine
code.  Million-state runs pair the ``disk`` store
(:mod:`repro.engine.diskstore`) with spill-to-disk frontiers
(:mod:`repro.engine.frontier`) so peak RSS stays flat as distinct-state
counts climb orders of magnitude.

Execution robustness is a third seam (:mod:`repro.resilience`): the pooled
engines dispatch through a supervised worker pool (crash/hang detection,
bounded retry, degrade-to-serial), the level-synchronous BFS engines can
checkpoint and resume through the store snapshot seam, and a seeded chaos
layer injects worker faults deterministically for testing all of it.

Spec execution is a fourth seam, the *expander*: an object with
``expand(values)`` -- a state's full expansion as ``(action, successor
values, fingerprint, violated invariant, constraint verdict)`` entries --
and ``verdict_for(values, fp)``.  It has two implementations,
:class:`repro.compile.CompiledSpec` (fused successor kernels over
fixed-slot value tuples) and
:class:`~repro.engine.base.InterpretedExpander` (the spec's own action
closures), and one factory, :func:`~repro.engine.base.make_expander`, which
applies ``compile_mode="on"|"off"|"auto"`` for the coordinator and for
every pool worker.  Each engine is written once against
``CheckContext.expander`` and never asks which implementation it holds;
``fingerprint`` and ``parallel`` also share one level loop
(:func:`~repro.engine.fingerprint.bfs_levels`).  Results are bit-identical
under either expander.

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
    BoundedLRUStore,
    DiskFingerprintStore,
    FingerprintSetStore,
    StateRetainingStore,
    StateStore,
    make_store,
    register_store,
    store_names,
)

# Importing the engine modules registers them; the order fixes the public
# ENGINES tuple (and keeps its historical prefix).
from .fingerprint import FingerprintEngine
from .serial import SerialStatesEngine
from .parallel import ParallelEngine, default_worker_count
from .simulate import SimulationEngine
from .core import ModelChecker, check_spec

__all__ = [
    "BoundedLRUStore",
    "CheckContext",
    "CheckResult",
    "DiskFingerprintStore",
    "ENGINES",
    "Engine",
    "FingerprintEngine",
    "FingerprintSetStore",
    "ModelChecker",
    "ParallelEngine",
    "STORES",
    "SerialStatesEngine",
    "SimulationEngine",
    "SpillFrontier",
    "StateRetainingStore",
    "StateStore",
    "check_spec",
    "default_worker_count",
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
