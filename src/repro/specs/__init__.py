"""Concrete specifications checked by the reproduction.

* :mod:`repro.specs.raft_mongo` -- the replication-protocol spec the paper
  trace-checks (Section 4), in its ``original`` and ``mbtc`` variants.
* :mod:`repro.specs.locking` -- the hierarchical-locking spec discussed as
  the hypothetical second MBTC target (Section 4.2.5).
* :mod:`repro.specs.ot_array` -- array operational transformation, the MBTCG
  case study (Section 5): :mod:`repro.mbtcg` enumerates its behaviours into
  executable OT test cases.

Each module also exposes the pipeline hooks (``spec_factory``,
``per_node_variables``, ``node_count``) registered with :mod:`repro.tla.registry`
so the CLI builds specs by name.
"""

from . import locking, ot_array, raft_mongo

__all__ = ["locking", "ot_array", "raft_mongo"]
