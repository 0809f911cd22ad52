"""Spec compilation: specialize a specification at check time.

Interpreting action closures over dict-backed frozen values re-does, for
every generated state, work whose answer is already known.  This package
takes the query-engine route instead -- specialize the high-level
description once per run, then execute the specialized form per state:

* **fixed-slot tuple states** -- kernels operate on schema-indexed value
  tuples; real ``State`` objects are built only at boundaries (replay,
  graph retention, checkpoints, store snapshots), which therefore stay
  bit-identical to the interpreted path;
* **precomputed per-slot fingerprint layout** -- a successor's fingerprint
  is spliced from the parent's per-slot fingerprints, never re-walking
  unchanged variables (:mod:`repro.compile.interner`);
* **one generic kernel for any spec: a read-set memo**
  (:mod:`repro.compile.kernels`) -- each action effect, invariant and the
  constraint runs once per distinct binding of the variables it *reads*
  (recorded by a read-tracking ``State``), not once per state; the results
  sit in per-action decision tries keyed on the interner's canonical
  objects, so an expansion is a few dict lookups and slot splices.  It
  relies on one contract: an effect or predicate is a function of what it
  reads through the ``State`` surface.  Anything it cannot attribute to
  single slots counts as reading all of them and is simply not memoized;
* **a native kernel for the locking spec**
  (:mod:`repro.compile.native_locking`) -- exec-generated straight-line
  code, 313 hand-specialized lines that the generic kernel cannot replace
  yet: locking has one variable, so every read is the whole state and the
  memo cannot hit (README "Spec compilation" has the numbers);
* **fingerprint-memoized invariant/constraint verdicts** -- with the
  interpreted path's exact cap and eviction policy.

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
    return CompiledSpec(spec, *kernels, interner=interner)
