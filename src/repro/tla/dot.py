"""GraphViz DOT export for state graphs.

TLC can dump the reachable state graph as a GraphViz DOT file; the Realm Sync
team wrote a Golang program that parses that file and generates C++ test
cases (paper Section 5.2).  We reproduce the export half of that workflow:
the model checker writes a DOT file via :func:`to_dot` (``check --dot``).
The in-process test-case generator, :mod:`repro.mbtcg`, consumes the
retained :class:`~repro.tla.graph.StateGraph` directly (lossless values, no
re-parsing); DOT is the visualization and cross-tool exchange format.

Node labels carry the full state as JSON, so another tool can read the
states back losslessly.
"""

from __future__ import annotations

import json
from typing import List

from .graph import StateGraph

__all__ = ["to_dot"]


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(graph: StateGraph, *, name: str = "StateGraph") -> str:
    """Render a :class:`StateGraph` as GraphViz DOT text.

    Every node's label is the JSON encoding of the state's variable bindings;
    every edge's label is the action name that produced the transition.
    """
    lines: List[str] = [f"digraph {name} {{"]
    initial = set(graph.initial_ids)
    for node_id, state in enumerate(graph.states()):
        label = _escape(json.dumps(state.to_dict(), sort_keys=True, default=str))
        init_attr = ",init=true" if node_id in initial else ""
        lines.append(f'  {node_id} [label="{label}"{init_attr}];')
    for edge in graph.edges:
        lines.append(f'  {edge.source} -> {edge.target} [label="{_escape(edge.action)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
