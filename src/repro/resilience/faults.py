"""Deterministic fault injection (the chaos layer) for supervised pools.

Recovery code that only runs when production breaks is recovery code that
has never run.  This module makes every failure mode of the supervised
worker pool (:mod:`repro.resilience.supervisor`) reproducible on demand: a
:class:`FaultPlan` decides, as a pure function of ``(seed, worker_id,
task_index)``, whether a worker executing a task should

* ``crash``   -- exit the process with the chaos sentinel exit code,
* ``hang``    -- sleep past every timeout until the supervisor kills it,
* ``slow``    -- sleep briefly before executing (latency, no failure),
* ``corrupt`` -- return its result with a deliberately wrong checksum, so
  the supervisor's envelope validation rejects it.

Because the decision is keyed on the *worker id* and worker ids are never
reused (every respawn gets a fresh one), a retried task rolls a fresh
decision on its fresh worker -- a run with ``rate < 1`` always makes
progress, while ``rate = 1`` deterministically exhausts the first task's
retries, after which the pool gives up and its callers compute inline.  The
same seed always yields the same fault table (:meth:`FaultPlan.table`),
which is what the chaos-determinism tests pin.

Plans reach worker pools two ways: explicitly (the ``chaos`` argument of
``SupervisedPool``, wired from ``repro check --chaos-seed/--chaos-rate``) or
ambiently via the environment (:meth:`FaultPlan.from_env` reads
``REPRO_CHAOS_SEED`` / ``REPRO_CHAOS_RATE`` / ``REPRO_CHAOS_KINDS``), so any
supervised pool in the process tree -- including the batch trace runner,
which has no chaos CLI flags of its own -- can be put under fault injection
without touching its call sites.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

__all__ = [
    "CHAOS_EXIT_CODE",
    "ENV_CHAOS_KINDS",
    "ENV_CHAOS_RATE",
    "ENV_CHAOS_SEED",
    "FAULT_KINDS",
    "FaultPlan",
    "HANG_SECONDS",
    "SLOW_SECONDS",
]

#: Sentinel exit code a chaos-crashed worker dies with, so supervisor logs
#: can tell an injected crash from a genuine one.
CHAOS_EXIT_CODE = 87

#: Every fault kind the chaos layer can inject, in the order they are drawn.
FAULT_KINDS: Tuple[str, ...] = ("crash", "hang", "slow", "corrupt")

#: How long a ``slow`` fault stalls before the task proceeds normally.
SLOW_SECONDS = 0.05

#: How long a ``hang`` fault sleeps: past any sensible task timeout, so the
#: supervisor's timer, not the sleep, ends it.
HANG_SECONDS = 3600.0

ENV_CHAOS_SEED = "REPRO_CHAOS_SEED"
ENV_CHAOS_RATE = "REPRO_CHAOS_RATE"
ENV_CHAOS_KINDS = "REPRO_CHAOS_KINDS"


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, rate-controlled schedule of injected worker faults.

    ``fault_for(worker_id, task_index)`` is a pure function: the same plan
    always injects the same fault (or none) for the same key, independent of
    wall-clock time, scheduling, or how often it is asked.
    """

    seed: int = 0
    rate: float = 0.0
    kinds: Tuple[str, ...] = FAULT_KINDS

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"chaos rate must be in [0, 1]; got {self.rate}")
        unknown = [kind for kind in self.kinds if kind not in FAULT_KINDS]
        if unknown or not self.kinds:
            raise ValueError(
                f"chaos kinds must be a non-empty subset of {FAULT_KINDS}; "
                f"got {self.kinds}"
            )

    def fault_for(self, worker_id: int, task_index: int) -> Optional[str]:
        """The fault to inject when ``worker_id`` executes ``task_index``.

        Two independent draws from an RNG keyed on ``(seed, worker_id,
        task_index)``: first whether to fault at all (probability ``rate``),
        then which kind (uniform over ``kinds``).
        """
        if self.rate <= 0.0:
            return None
        rng = random.Random(f"chaos:{self.seed}:{worker_id}:{task_index}")
        if rng.random() >= self.rate:
            return None
        return self.kinds[rng.randrange(len(self.kinds))]

    def table(self, workers: int, tasks: int) -> Dict[Tuple[int, int], str]:
        """The full fault table over a ``workers x tasks`` key grid.

        Only non-``None`` entries are included; the chaos-determinism tests
        compare tables across plan instances built from the same seed.
        """
        entries: Dict[Tuple[int, int], str] = {}
        for worker_id in range(workers):
            for task_index in range(tasks):
                kind = self.fault_for(worker_id, task_index)
                if kind is not None:
                    entries[(worker_id, task_index)] = kind
        return entries

    # -- wire formats --------------------------------------------------------
    def to_params(self) -> Dict[str, object]:
        """A picklable/keyword dict that rebuilds this plan in a worker."""
        return {"seed": self.seed, "rate": self.rate, "kinds": tuple(self.kinds)}

    @classmethod
    def from_env(
        cls, environ: Optional[Mapping[str, str]] = None
    ) -> Optional["FaultPlan"]:
        """Build a plan from ``REPRO_CHAOS_*`` variables; None when disabled.

        ``REPRO_CHAOS_RATE`` (a float > 0) switches chaos on;
        ``REPRO_CHAOS_SEED`` defaults to 0 and ``REPRO_CHAOS_KINDS`` (a
        comma-separated subset of :data:`FAULT_KINDS`) defaults to all kinds.
        """
        env = os.environ if environ is None else environ
        raw_rate = env.get(ENV_CHAOS_RATE)
        if raw_rate is None:
            return None
        rate = float(raw_rate)
        if rate <= 0.0:
            return None
        kinds: Tuple[str, ...] = FAULT_KINDS
        raw_kinds = env.get(ENV_CHAOS_KINDS)
        if raw_kinds:
            parsed: List[str] = [
                part.strip() for part in raw_kinds.split(",") if part.strip()
            ]
            kinds = tuple(parsed)
        return cls(seed=int(env.get(ENV_CHAOS_SEED, "0")), rate=rate, kinds=kinds)
