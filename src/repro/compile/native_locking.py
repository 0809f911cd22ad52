"""Exec-specialized successor kernels for the hierarchical-locking spec.

The generic compiled driver (:mod:`repro.compile.kernels`) still calls the
spec's action closures, so it inherits their per-successor costs: building a
``State`` per parent, allocating update dicts, re-walking rows.  The locking
spec is small and regular enough to compile *past* the closures: this module
emits Python source for two kernels specialized to the run's
:class:`~repro.specs.locking.LockingConfig` and ``exec``\\ s them with the
thread loop unrolled (``n_threads`` is a model constant):
``transitions(values)`` -- guards, row updates and fingerprints in one
function -- and the ``violated`` evaluator behind ``verdict_for``; the
one ``expand`` both kernels share is :meth:`repro.compile.CompiledSpec.expand`.
The BFS engines call ``verdict_for`` once per new state, the simulation
engine's walks once per generated fingerprint, through their verdict memo.

What gets precomputed, all derived from the same tables the interpreted spec
uses so the two cannot drift:

* ``TERM<t>[row]`` -- thread ``t``'s row (a ``(g, db, coll)`` mode triple)
  as its share of the state fingerprint; rows live in a tiny universe, so
  these memos saturate fast;
* ``ACQ<t>[row]`` -- the row-local acquire candidates ``(idx, blockers,
  new_row, new_term)`` of thread ``t`` that already pass the
  self-free and parent-intent guards; only the cross-thread grant check
  remains per state, as a frozenset membership test against the other
  threads' modes;
* ``REL<t>[row]`` -- the single releasable (deepest held) lock of a row, if
  any, as ``(new_row, new_term)``: release order means the first held
  resource scanning leaf-to-root has no held children by construction;
* ``BLOCKERS[mode]`` -- modes whose concurrent grant blocks ``mode``, with
  the seeded ``xx_compatible`` bug applied exactly as the spec's
  ``_grantable`` does (a second X slips past the check);
* ``CONFL[mode]`` -- the *unmutated* incompatibility sets, used by the
  generated invariant evaluator: the seeded bug lives in the grant path
  only, never in the invariants.

A successor state's fingerprint is the parent's with one row term swapped:
the state rule of :mod:`repro.tla.values` is linear in its slots, and the
one slot, ``held``, is a tuple whose fingerprint is linear in its rows'
cubes, so ``fp(state) = BASE + sum(TERM<t>[row t])`` mod ``FP_PRIME`` with
``BASE = state_fingerprint(((),))`` and ``TERM<t>[row] = slot_term(0,
_position_term(t, fingerprint(row)))``.  An Acquire or a Release is then one
add and one ``% FP_PRIME`` -- no value walk and no digest; the terms come
from the values module's rule, not from a copy of it.

:func:`compile_locking` returns ``None`` (falling back to the generic
driver) unless the spec is the registry-built locking spec with the exact
action/invariant surface this module was specialized against.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from ..specs.locking import (
    COMPATIBILITY,
    LOCK_MODES,
    NO_LOCK,
    REQUIRED_PARENT_MODE,
    RESOURCES,
    LockingConfig,
)
from ..tla.state import State
from ..tla.values import FP_PRIME, _fp_of, _position_term, slot_term, state_fingerprint

__all__ = ["compile_locking"]

_EXPECTED_ACTIONS = ("Acquire", "Release")
_EXPECTED_INVARIANTS = (
    "MutualExclusion",
    "NoConflictingGrants",
    "HierarchyRespected",
    "ExclusiveIsExclusive",
)
_CONFIG_KEYS = ("n_threads", "allow_exclusive", "mutation")


class _Unfit(Exception):
    """A state of a shape the generated kernels were not specialized for."""


def _gen_transitions_source(n: int) -> str:
    """Source of ``transitions(values)`` with the thread loop unrolled.

    Trace checking steps on it too, where ``values`` comes out of a log and
    can be anything: a ``held`` of another shape (``_term`` refuses rows
    of another shape or vocabulary) goes to ``_unfit(values)``.
    """
    lines = [
        "def transitions(values):",
        "  try:",
        "    held = values[0]",
        f"    if type(held) is not tuple or len(held) != {n}: raise _Unfit",
    ]
    for t in range(n):
        lines.append(f"    row{t} = held[{t}]")
    for t in range(n):
        # A zero term (one chance in 2**64) only recomputes: ``or`` is safe.
        lines.append(f"    r{t} = TERM{t}.get(row{t}) or _term({t}, row{t})")
    lines.append("    here = BASE + " + " + ".join(f"r{t}" for t in range(n)))
    for t in range(n):
        lines.append(f"    s{t} = here - r{t}")
    lines += ["    entries = []", "    append = entries.append"]
    for t in range(n):
        others = [o for o in range(n) if o != t]
        nheld = ", ".join("new_row" if o == t else f"row{o}" for o in range(n))
        if n == 1:
            nheld += ","
        lines.append(f"    opts = ACQ{t}.get(row{t})")
        lines.append(f"    if opts is None: opts = _acq({t}, row{t})")
        lines.append("    for idx, blk, new_row, nterm in opts:")
        guard = " or ".join(f"row{o}[idx] in blk" for o in others)
        if guard:
            lines.append(f"        if {guard}:")
            lines.append("            continue")
        lines.append(f"        nheld = ({nheld})")
        lines.append(f'        append(("Acquire", (nheld,), (s{t} + nterm) % _P))')
    for t in range(n):
        nheld = ", ".join("new_row" if o == t else f"row{o}" for o in range(n))
        if n == 1:
            nheld += ","
        lines.append(f"    rel = REL{t}.get(row{t}, _MISS)")
        lines.append(f"    if rel is _MISS: rel = _rel({t}, row{t})")
        lines.append("    if rel is not None:")
        lines.append("        new_row, nterm = rel")
        lines.append(f"        nheld = ({nheld})")
        lines.append(f'        append(("Release", (nheld,), (s{t} + nterm) % _P))')
    lines += ["    return entries", "  except _Unfit:", "    return _unfit(values)"]
    return "\n".join(lines)


def _gen_violated_source(n: int) -> str:
    """Source of ``violated(held) -> invariant name or None``, unrolled.

    Invariants are evaluated in declaration order, each fully across all
    resource levels before the next starts, so the *first* violated name
    matches ``Specification.violated_invariant`` exactly.
    """
    lines = ["def violated(held):"]
    for t in range(n):
        lines.append(f"    row{t} = held[{t}]")
    xs_expr = " + ".join(f"(row{t}[idx] == _X)" for t in range(n))
    lines.append("    for idx in _IDXS:")
    lines.append(f"        if {xs_expr} > 1:")
    lines.append('            return "MutualExclusion"')
    lines.append("    for idx in _IDXS:")
    for t in range(n):
        lines.append(f"        m{t} = row{t}[idx]")
    for i in range(n):
        for j in range(i + 1, n):
            lines.append(
                f"        if m{i} != _NO and m{j} != _NO and m{j} in CONFL[m{i}]:"
            )
            lines.append('            return "NoConflictingGrants"')
    for t in range(n):
        lines.append(f"    h = HIER.get(row{t})")
        lines.append(f"    if h is None: h = _hier(row{t})")
        lines.append("    if not h:")
        lines.append('        return "HierarchyRespected"')
    lines.append("    for idx in _IDXS:")
    lines.append(f"        xs = {xs_expr}")
    not_nox = " or ".join(f"row{t}[idx] not in _NOX" for t in range(n))
    lines.append(f"        if xs and (xs > 1 or {not_nox}):")
    lines.append('            return "ExclusiveIsExclusive"')
    lines.append("    return None")
    return "\n".join(lines)


def compile_locking(
    spec: Any,
) -> Optional[Tuple[Callable, Callable, Dict[str, Any]]]:
    """``(transitions, verdict_for, info)`` for a registry-built locking spec.

    Returns ``None`` when the spec is not the locking spec this module was
    specialized against -- unexpected actions, invariants, constraint, a
    seeded mutation this module does not model -- so the caller falls back
    to the generic (still compiled, still correct) driver.
    """
    ref = getattr(spec, "registry_ref", None)
    if not (ref and ref[0] == "locking"):
        return None
    if tuple(act.name for act in spec.actions) != _EXPECTED_ACTIONS:
        return None
    if tuple(inv.name for inv in spec.invariants) != _EXPECTED_INVARIANTS:
        return None
    if spec.constraint is not None or tuple(spec.schema.names) != ("held",):
        return None
    if any(key not in spec.constants for key in _CONFIG_KEYS):
        return None
    mutation = spec.constants["mutation"]
    if mutation is not None and mutation != "xx_compatible":
        return None  # a seeded bug this module does not model
    cfg = LockingConfig(
        n_threads=spec.constants["n_threads"],
        allow_exclusive=spec.constants["allow_exclusive"],
        mutation=mutation,
    )

    blockers = {
        mode: frozenset(
            other for other in LOCK_MODES if not COMPATIBILITY[(mode, other)]
        )
        for mode in LOCK_MODES
    }
    # The unmutated sets drive the invariant evaluator; the grant-path copy
    # gets the seeded bug, mirroring _grantable vs _no_conflicting_grants.
    confl = dict(blockers)
    if cfg.mutation == "xx_compatible":
        blockers = dict(blockers)
        blockers["X"] = blockers["X"] - {"X"}

    n_resources = len(RESOURCES)
    n_threads = cfg.n_threads
    vocabulary = frozenset((*LOCK_MODES, NO_LOCK))
    _MISS = object()
    rows: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
    terms = [{} for _ in range(n_threads)]
    acqs = [{} for _ in range(n_threads)]
    rels = [{} for _ in range(n_threads)]
    hier: Dict[Tuple[str, ...], bool] = {}

    def _term(t: int, row: Tuple[str, ...]) -> int:
        """Thread ``t`` holding ``row``: its share of the state fingerprint."""
        if type(row) is not tuple or len(row) != n_resources or not vocabulary.issuperset(row):
            raise _Unfit
        term = terms[t][row] = slot_term(0, _position_term(t, _fp_of(row)))
        return term

    def _intern_row(row: Tuple[str, ...]) -> Tuple[str, ...]:
        return rows.setdefault(row, row)

    def _acq(t: int, row: Tuple[str, ...]) -> Tuple:
        opts = []
        for idx in range(n_resources):
            if row[idx] != NO_LOCK:
                continue
            for mode in cfg.modes:
                if idx and row[idx - 1] not in REQUIRED_PARENT_MODE[mode]:
                    continue
                new_row = _intern_row(row[:idx] + (mode,) + row[idx + 1 :])
                new_term = terms[t].get(new_row) or _term(t, new_row)
                opts.append((idx, blockers[mode], new_row, new_term))
        result = acqs[t][row] = tuple(opts)
        return result

    def _rel(t: int, row: Tuple[str, ...]) -> Optional[Tuple]:
        result = None
        for idx in range(n_resources - 1, -1, -1):
            if row[idx] != NO_LOCK:
                new_row = _intern_row(row[:idx] + (NO_LOCK,) + row[idx + 1 :])
                result = (new_row, terms[t].get(new_row) or _term(t, new_row))
                break
        rels[t][row] = result
        return result

    def _hier(row: Tuple[str, ...]) -> bool:
        ok = True
        for idx in range(1, n_resources):
            mode = row[idx]
            if mode != NO_LOCK and row[idx - 1] not in REQUIRED_PARENT_MODE[mode]:
                ok = False
                break
        hier[row] = ok
        return ok

    namespace: Dict[str, Any] = {
        "_P": FP_PRIME,
        "BASE": state_fingerprint(((),)),
        "_X": "X",
        "_NO": NO_LOCK,
        "_NOX": frozenset((NO_LOCK, "X")),
        "_IDXS": tuple(range(n_resources)),
        "_MISS": _MISS,
        "_Unfit": _Unfit,
        "CONFL": confl,
        "HIER": hier,
        "_term": _term,
        "_acq": _acq,
        "_rel": _rel,
        "_hier": _hier,
    }
    for t in range(n_threads):
        namespace.update({f"TERM{t}": terms[t], f"ACQ{t}": acqs[t], f"REL{t}": rels[t]})

    def _unfit(values: Tuple[Any, ...]) -> list:
        # Not a state this kernel was specialized for (a log can report
        # anything): the spec's own closures answer, or raise what they
        # always raised.  Anything else is a bug here and surfaces.
        state = State.from_values(spec.schema, values)
        return [(name, nxt.values, nxt.fingerprint()) for name, nxt in spec.successors(state)]

    namespace["_unfit"] = _unfit
    source = "\n".join(
        (_gen_violated_source(cfg.n_threads), _gen_transitions_source(cfg.n_threads))
    )
    exec(compile(source, "<locking-kernels>", "exec"), namespace)
    violated, transitions = namespace["violated"], namespace["transitions"]

    def verdict_for(values: Tuple[Any, ...], fp: int) -> Tuple[Optional[str], bool]:
        # The locking spec declares no state constraint (guarded above), so
        # every state is within bounds.
        return violated(values[0]), True

    info = {
        "kernel": "native",
        "unrolled_threads": cfg.n_threads,
        "mutation": cfg.mutation,
    }
    return transitions, verdict_for, info
