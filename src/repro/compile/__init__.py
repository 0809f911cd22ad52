"""Spec compilation: specialize a specification at check time.

Interpreting action closures over dict-backed frozen values caps serial
throughput around 25k generated states/sec at million-state scale.  This
package takes the query-engine route instead -- compile the high-level
description down to a specialized executable form once per run, then execute
that form per state:

* **fixed-slot tuple states** -- kernels operate on schema-indexed value
  tuples; real ``State`` objects are built only at boundaries (replay,
  graph retention, checkpoints, store snapshots), which therefore stay
  bit-identical to the interpreted path;
* **precomputed per-slot fingerprint layout** -- a successor's fingerprint
  is spliced from the parent's per-slot fingerprints, never re-walking
  unchanged variables (:mod:`repro.compile.interner`);
* **fused guard+update successor kernels** -- plain Python functions
  generated per action; the locking spec gets exec-specialized unrolled
  kernels (:mod:`repro.compile.native_locking`), everything else the
  generic interning driver (:mod:`repro.compile.kernels`);
* **specialized invariant/constraint evaluators** -- fingerprint-memoized
  verdicts with the interpreted path's exact cap and eviction policy.

Entry point: :func:`compile_spec`, called by
:func:`repro.engine.base.make_expander` per the ``--compile on|off|auto``
policy.  ``auto`` (the default) falls back to interpretation if compilation
raises; ``on`` turns a :class:`CompileError` into a run failure.
"""

from __future__ import annotations

from typing import Optional

from ..tla.errors import CheckerError
from ..tla.spec import Specification
from .interner import ValueInterner
from .kernels import CompiledSpec, build_generic_kernels

__all__ = ["CompileError", "CompiledSpec", "ValueInterner", "compile_spec"]


class CompileError(CheckerError):
    """Raised when a specification cannot be specialized."""


def compile_spec(spec: Specification, *, native: bool = True) -> CompiledSpec:
    """Specialize ``spec`` into its flat compiled form.

    ``native=False`` forces the generic kernels even for specs that have an
    exec-specialized backend -- the parity suite uses it to check the two
    kernel generations against each other.
    """
    if not isinstance(spec, Specification):
        if isinstance(spec, CompiledSpec):
            return spec
        raise CompileError(
            f"cannot compile {type(spec).__name__}; expected a Specification"
        )
    if not spec.actions:
        raise CompileError(f"specification {spec.name!r} declares no actions")

    interner: Optional[ValueInterner] = None
    kernels = None
    if native:
        from .native_locking import compile_locking

        kernels = compile_locking(spec)
    if kernels is None:
        interner = ValueInterner()
        kernels = build_generic_kernels(spec, interner)
    expand, verdict_for, info = kernels
    return CompiledSpec(spec, expand, verdict_for, info, interner=interner)
