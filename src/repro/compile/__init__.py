"""Spec compilation: specialize a specification at check time.

Interpreting action closures over dict-backed frozen values re-does, for
every generated state, work whose answer is already known.  This package
takes the query-engine route instead -- specialize the high-level
description once per run, then execute the specialized form per state:

* **fixed-slot tuple states** -- kernels operate on schema-indexed value
  tuples; real ``State`` objects are built only at boundaries (replay,
  graph retention, checkpoints, store snapshots), which therefore stay
  bit-identical to interpreting the spec's closures (the test suite's
  oracle, ``tests/interpreted_reference.py``);
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
* **invariant/constraint verdicts on demand** -- ``verdict_for`` once per
  new BFS state, with no memo; the simulation engine's walks memoize them by
  fingerprint, and keep each walked state's successors as the one record
  the trace fold keeps too (:mod:`repro.compile.expansion`).

Entry point: :func:`compile_spec`, which every check run
(:meth:`repro.engine.core.ModelChecker.run`) and every trace fold
(:class:`repro.tla.trace.SuccessorCache`) calls.  It has nothing to refuse:
a :class:`~repro.tla.spec.Specification` always has actions, and a spec the
native kernel does not fit gets the generic one.
"""

from __future__ import annotations

from typing import Optional

from ..tla.spec import Specification
from .interner import ValueInterner
from .kernels import CompiledSpec, build_generic_kernels

__all__ = ["CompiledSpec", "ValueInterner", "compile_spec"]


def compile_spec(spec: Specification, *, native: bool = True) -> CompiledSpec:
    """Specialize ``spec`` into its flat compiled form.

    ``native=False`` forces the generic kernels even for specs that have an
    exec-specialized backend -- the parity suite uses it to check the two
    kernel generations against each other.
    """
    interner: Optional[ValueInterner] = None
    kernels = None
    if native:
        from .native_locking import compile_locking

        kernels = compile_locking(spec)
    if kernels is None:
        interner = ValueInterner()
        kernels = build_generic_kernels(spec, interner)
    return CompiledSpec(spec, *kernels, interner=interner)
