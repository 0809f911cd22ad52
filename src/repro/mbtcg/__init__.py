"""MBTCG: model-based test-case generation (paper Section 5).

The second half of the paper, and the closing of its loop: where MBTC
(:mod:`repro.pipeline`) checks recorded executions *against* a
specification, MBTCG enumerates the specification's behaviours *into*
executable test cases -- the technique the MongoDB Realm Sync team used to
generate 4,913 operational-transformation tests from their array-OT spec.

The subsystem layers on the model checker's retained state graph:

* :mod:`~repro.mbtcg.testcase` -- behaviours as deduplicable
  :class:`~repro.mbtcg.testcase.TestCase` artifacts, keyed by stable
  behaviour fingerprints,
* :mod:`~repro.mbtcg.strategies` -- exhaustive bounded enumeration (the
  paper's approach), a coverage-minimized greedy suite over
  ``(action, enabled-state-class)`` goals, and seeded random sampling for
  graphs too large to enumerate,
* :mod:`~repro.mbtcg.generator` -- orchestration: model-check, enumerate,
  dedup, and stamp statistics,
* :mod:`~repro.mbtcg.emitters` -- JSON-lines corpora (a state table and the
  cases that name its rows, replayable through
  :func:`repro.pipeline.runner.check_traces`), runnable pytest source, and
  per-node log files in the :mod:`repro.pipeline.logs` format -- so every
  generated test flows straight back into MBTC.

CLI: ``python -m repro generate`` (see the README for the generate ->
replay loop).
"""

from .emitters import (
    CORPUS_FORMAT,
    CORPUS_VERSION,
    corpus_traces,
    read_corpus,
    replay_corpus,
    write_corpus,
    write_log_suite,
    write_pytest_module,
)
from .generator import (
    GeneratedSuite,
    GenerationError,
    GenerationStats,
    build_graph,
    generate_suite,
)
from .strategies import (
    STRATEGIES,
    coverage_minimized,
    exhaustive_behaviours,
    random_sampled,
)
from .testcase import Behaviour, TestCase, behaviour_fingerprint

__all__ = [
    "Behaviour",
    "CORPUS_FORMAT",
    "CORPUS_VERSION",
    "GeneratedSuite",
    "GenerationError",
    "GenerationStats",
    "STRATEGIES",
    "TestCase",
    "behaviour_fingerprint",
    "build_graph",
    "corpus_traces",
    "coverage_minimized",
    "exhaustive_behaviours",
    "generate_suite",
    "random_sampled",
    "read_corpus",
    "replay_corpus",
    "write_corpus",
    "write_log_suite",
    "write_pytest_module",
]
