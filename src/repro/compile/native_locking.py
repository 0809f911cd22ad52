"""Exec-specialized successor kernels for the hierarchical-locking spec.

The generic compiled driver (:mod:`repro.compile.kernels`) still calls the
spec's action closures, so it inherits their per-successor costs: building a
``State`` per parent, allocating update dicts, re-walking rows.  The locking
spec is small and regular enough to compile *past* the closures: this module
emits Python source for a fused ``expand(values)`` kernel -- guards, row
updates, fingerprints and invariant verdicts in one function -- specialized
to the run's :class:`~repro.specs.locking.LockingConfig`, and ``exec``\\ s it
with the thread loop unrolled (``n_threads`` is a model constant).

What gets precomputed, all derived from the same tables the interpreted spec
uses so the two cannot drift:

* ``MODEPACK`` -- the packed 8-byte fingerprint of every lock-mode string;
* ``ROWPACK`` -- packed fingerprint per per-thread row (``(g, db, coll)``
  mode triple); rows live in a tiny universe, so this memo saturates fast;
* ``ACQ[row]`` -- the row-local acquire candidates ``(idx, mode, blockers,
  new_row, new_pack)`` that already pass the self-free and parent-intent
  guards; only the cross-thread grant check remains per state, as a
  frozenset membership test against the other threads' modes;
* ``REL[row]`` -- the single releasable (deepest held) lock of a row, if
  any: release order means the first held resource scanning leaf-to-root
  has no held children by construction;
* ``BLOCKERS[mode]`` -- modes whose concurrent grant blocks ``mode``, with
  the seeded ``xx_compatible`` bug applied exactly as the spec's
  ``_grantable`` does (a second X slips past the check);
* ``CONFL[mode]`` -- the *unmutated* incompatibility sets, used by the
  generated invariant evaluator: the seeded bug lives in the grant path
  only, never in the invariants.

A successor state's fingerprint is assembled from the parent's row packs by
splicing in the one changed row -- no value walk at all.  The emitted bytes
match :func:`repro.tla.values._fp_of` format for formula
``T(T(T(P(mode)...)...))`` by construction.

:func:`compile_locking` returns ``None`` (falling back to the generic
driver) unless the spec is the registry-built locking spec with the exact
action/invariant surface this module was specialized against.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Callable, Dict, Optional, Tuple

from ..engine.base import VERDICT_MEMO_MAX, InterpretedExpander
from ..specs.locking import (
    COMPATIBILITY,
    LOCK_MODES,
    NO_LOCK,
    REQUIRED_PARENT_MODE,
    RESOURCES,
    LockingConfig,
)
from ..tla.values import _FP_PACK, _digest

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


def _mode_pack(mode: str) -> bytes:
    return _FP_PACK(_digest(b"P" + repr(mode).encode("utf-8")))


def _gen_expand_source(n: int, verdicts: bool) -> str:
    """Source of ``expand(values)`` with the thread loop unrolled.

    With ``verdicts=False`` the same walk as ``transitions(values)``: the
    verdict lookup is left out and the entries are ``(action, values, fp)``.
    That one is stepped on by trace checking, where ``values`` comes out of
    a log and can be anything, so it refuses a ``held`` of another shape
    (``_rowpack`` refuses rows of another shape or vocabulary).
    """
    if verdicts:
        emit = [
            "v = VERDICTS.get(fp, _MISS)",
            "if v is _MISS: v = _verdict(nheld, fp)",
            'append(("{action}", (nheld,), fp, v, True))',
        ]
    else:
        emit = ['append(("{action}", (nheld,), fp))']
    name = "expand" if verdicts else "transitions"
    lines = [f"def {name}(values):", "    held = values[0]"]
    if not verdicts:
        lines.append(f"    if type(held) is not tuple or len(held) != {n}: raise _Unfit")
    for t in range(n):
        lines.append(f"    row{t} = held[{t}]")
    for t in range(n):
        # Non-empty bytes are always truthy, so ``or`` is a safe miss test.
        lines.append(f"    p{t} = ROWPACK.get(row{t}) or _rowpack(row{t})")
    lines += ["    entries = []", "    append = entries.append"]
    for t in range(n):
        others = [o for o in range(n) if o != t]
        nheld = ", ".join("new_row" if o == t else f"row{o}" for o in range(n))
        if n == 1:
            nheld += ","
        packs = " + ".join("npack" if o == t else f"p{o}" for o in range(n))
        lines.append(f"    opts = ACQ.get(row{t})")
        lines.append(f"    if opts is None: opts = _acq(row{t})")
        lines.append("    for idx, mode, blk, new_row, npack in opts:")
        guard = " or ".join(f"row{o}[idx] in blk" for o in others)
        if guard:
            lines.append(f"        if {guard}:")
            lines.append("            continue")
        lines.append(f"        nheld = ({nheld})")
        lines.append(f"        hfp = _digest(_T + {packs})")
        lines.append("        fp = _digest(_T + _PACK(hfp))")
        lines += ["        " + line.format(action="Acquire") for line in emit]
    for t in range(n):
        others = [o for o in range(n) if o != t]
        nheld = ", ".join("new_row" if o == t else f"row{o}" for o in range(n))
        if n == 1:
            nheld += ","
        packs = " + ".join("npack" if o == t else f"p{o}" for o in range(n))
        lines.append(f"    rel = REL.get(row{t}, _MISS)")
        lines.append(f"    if rel is _MISS: rel = _rel(row{t})")
        lines.append("    if rel is not None:")
        lines.append("        new_row, npack = rel")
        lines.append(f"        nheld = ({nheld})")
        lines.append(f"        hfp = _digest(_T + {packs})")
        lines.append("        fp = _digest(_T + _PACK(hfp))")
        lines += ["        " + line.format(action="Release") for line in emit]
    lines.append("    return entries")
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
) -> Optional[Tuple[Callable, Callable, Callable, Dict[str, Any]]]:
    """``(transitions, expand, verdict_for, info)`` for a registry-built locking spec.

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
    _MISS = object()
    rows: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
    rowpack: Dict[Tuple[str, ...], bytes] = {}
    acq: Dict[Tuple[str, ...], Tuple] = {}
    rel: Dict[Tuple[str, ...], Optional[Tuple]] = {}
    hier: Dict[Tuple[str, ...], bool] = {}
    verdicts: Dict[int, Optional[str]] = {}
    modepack = {mode: _mode_pack(mode) for mode in (*LOCK_MODES, NO_LOCK)}

    def _rowpack(row: Tuple[str, ...]) -> bytes:
        if type(row) is not tuple or len(row) != n_resources:
            raise _Unfit
        try:
            pack = _FP_PACK(_digest(b"T" + b"".join(modepack[m] for m in row)))
        except KeyError:  # not a lock mode
            raise _Unfit from None
        rowpack[row] = pack
        return pack

    def _intern_row(row: Tuple[str, ...]) -> Tuple[str, ...]:
        return rows.setdefault(row, row)

    def _acq(row: Tuple[str, ...]) -> Tuple:
        opts = []
        for idx in range(n_resources):
            if row[idx] != NO_LOCK:
                continue
            for mode in cfg.modes:
                if idx and row[idx - 1] not in REQUIRED_PARENT_MODE[mode]:
                    continue
                new_row = _intern_row(row[:idx] + (mode,) + row[idx + 1 :])
                opts.append(
                    (
                        idx,
                        mode,
                        blockers[mode],
                        new_row,
                        rowpack.get(new_row) or _rowpack(new_row),
                    )
                )
        result = tuple(opts)
        acq[row] = result
        return result

    def _rel(row: Tuple[str, ...]) -> Optional[Tuple]:
        result = None
        for idx in range(n_resources - 1, -1, -1):
            if row[idx] != NO_LOCK:
                new_row = _intern_row(row[:idx] + (NO_LOCK,) + row[idx + 1 :])
                result = (new_row, rowpack.get(new_row) or _rowpack(new_row))
                break
        rel[row] = result
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
        "_digest": _digest,
        "_PACK": _FP_PACK,
        "_T": b"T",
        "_X": "X",
        "_NO": NO_LOCK,
        "_NOX": frozenset((NO_LOCK, "X")),
        "_IDXS": tuple(range(n_resources)),
        "_MISS": _MISS,
        "_Unfit": _Unfit,
        "CONFL": confl,
        "ROWPACK": rowpack,
        "ACQ": acq,
        "REL": rel,
        "HIER": hier,
        "VERDICTS": verdicts,
        "_rowpack": _rowpack,
        "_acq": _acq,
        "_rel": _rel,
        "_hier": _hier,
    }
    violated_source = _gen_violated_source(cfg.n_threads)
    exec(compile(violated_source, "<locking-violated>", "exec"), namespace)
    violated = namespace["violated"]

    def _verdict(held: Tuple, fp: int) -> Optional[str]:
        name = violated(held)
        if len(verdicts) >= VERDICT_MEMO_MAX:
            for key in list(islice(verdicts, len(verdicts) // 2)):
                del verdicts[key]
        verdicts[fp] = name
        return name

    namespace["_verdict"] = _verdict
    for with_verdicts in (True, False):
        source = _gen_expand_source(cfg.n_threads, with_verdicts)
        exec(compile(source, "<locking-expand>", "exec"), namespace)
    expand, fitted_transitions = namespace["expand"], namespace["transitions"]
    interpreted = InterpretedExpander(spec)

    def transitions(values: Tuple[Any, ...]) -> list:
        try:
            return fitted_transitions(values)
        except _Unfit:
            # Not a state this kernel was specialized for (a log can report
            # anything): the spec's own closures answer, or raise what they
            # always raised.  Anything else is a bug here and surfaces.
            return interpreted.transitions(values)

    def verdict_for(values: Tuple[Any, ...], fp: int) -> Tuple[Optional[str], bool]:
        name = verdicts.get(fp, _MISS)
        if name is _MISS:
            name = _verdict(values[0], fp)
        # The locking spec declares no state constraint (guarded above), so
        # every state is within bounds.
        return name, True

    info = {
        "native": True,
        "kernel": "locking",
        "unrolled_threads": cfg.n_threads,
        "mutation": cfg.mutation,
    }
    return transitions, expand, verdict_for, info
