"""The exploration engines of the model checker (the TLC substitute).

Two exploration strategies, each one function:

* :mod:`repro.engine.fingerprint` -- the one BFS, level-synchronous over
  64-bit fingerprints, behind two engine names: ``"fingerprint"`` (the
  default when no state graph is needed; the one that checkpoints, resumes
  and spills) and ``"states"``, whose store is the
  :class:`~repro.tla.graph.StateGraph` -- the fingerprint store plus states
  and edges -- and, when collected, the run's graph (required for temporal
  properties, DOT export and MBTCG),
* :mod:`repro.engine.simulate` -- ``"simulate"``: seeded random-walk
  simulation with walk/depth budgets, for state spaces too large to exhaust,
  in one process that expands each walked state once per run.

Visited-state storage is a second, independent seam
(:mod:`repro.engine.store`): the ``fingerprint`` and ``simulate`` engines
take the ``fingerprint`` or ``disk`` store, the ``states`` engine the
``states`` store.  Every store maps a state's fingerprint to its parent's
(the replay pointer); they differ in where that lives and what rides with
it -- an in-memory dict, the state graph, or the ``disk`` store
(:mod:`repro.engine.diskstore`, imported when one is first made or
``repro.engine.DiskFingerprintStore`` is first read), which million-state
runs pair with spill-to-disk frontiers (:mod:`repro.engine.frontier`) so
peak RSS stays flat as distinct-state counts climb orders of magnitude.

The fingerprint engine can checkpoint and resume through the store snapshot
seam (:mod:`repro.resilience`).

Spec execution is a third seam, the *expander*: every run compiles the spec
into a :class:`repro.compile.CompiledSpec` (:mod:`repro.compile.kernels`
documents its three calls over value tuples), and each engine is written
once against ``CheckContext.expander``.  Results are bit-identical to
interpreting the spec's own action closures, which the test suite keeps as
its oracle.

:class:`~repro.engine.core.ModelChecker` coordinates: it resolves
``engine="auto"``/``store="auto"`` eagerly, validates the combination --
it is the one place that knows which engine accepts which store and
option -- builds the shared :class:`~repro.engine.base.CheckContext` and
calls the selected engine's function.
"""

from .base import CheckContext, CheckResult
from .core import ENGINES, STORES, ModelChecker, check_spec
from .frontier import SpillFrontier
from .store import FingerprintSetStore, StateStore, make_store

__all__ = [
    "CheckContext",
    "CheckResult",
    "DiskFingerprintStore",
    "ENGINES",
    "FingerprintSetStore",
    "ModelChecker",
    "STORES",
    "SpillFrontier",
    "StateStore",
    "check_spec",
    "make_store",
]


def __getattr__(name: str):
    # The disk store (and ``sqlite3`` under it) loads when first asked for.
    if name == "DiskFingerprintStore":
        from .diskstore import DiskFingerprintStore

        return DiskFingerprintStore
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
