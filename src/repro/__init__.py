"""Reproduction of MongoDB-style model-based trace checking (MBTC).

Layers, bottom to top:

* :mod:`repro.tla` -- the TLA+/TLC substitute: value universe, states,
  specifications, trace checking, coverage, and DOT export.
* :mod:`repro.engine` -- the pluggable exploration engines behind the model
  checker (fingerprint and state-retaining BFS plus random-walk simulation)
  and the visited-state store seam (in-memory, state-retaining, disk).
* :mod:`repro.specs` -- concrete specifications: ``RaftMongo`` (two variants,
  as in the paper) and hierarchical ``Locking``.
* :mod:`repro.pipeline` -- the scale layer: JSON-lines server-log ingestion,
  synthetic workload generation with fault injection, a batch
  trace-checking runner with merged coverage, and the ``python -m repro`` CLI.
* :mod:`repro.mbtcg` -- model-based test-case generation: enumerates spec
  behaviours from the retained state graph into deduplicated corpora, pytest
  source and per-node logs, all replayable back through MBTC.
* :mod:`repro.obs` -- the unified telemetry layer threaded through all of
  the above: run-scoped metrics, phase spans, live progress, schema-versioned
  JSONL sinks and profiling hooks, strictly additive over every output.
"""

__version__ = "0.9.0"

__all__ = ["__version__"]
