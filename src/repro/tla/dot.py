"""GraphViz DOT export and parsing for state graphs.

TLC can dump the reachable state graph as a GraphViz DOT file; the Realm Sync
team wrote a Golang program that parses that file and generates C++ test
cases (paper Section 5.2).  We reproduce both halves of that workflow: the
model checker exports a DOT file via :func:`to_dot`, and :func:`parse_dot`
reads such a file back for offline inspection.  The in-process test-case
generator, :mod:`repro.mbtcg`, consumes the retained
:class:`~repro.tla.graph.StateGraph` directly (lossless values, no
re-parsing); DOT remains the visualization and cross-tool exchange format.

Node labels carry the full state as JSON so that parsing is lossless.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .errors import SpecError
from .graph import StateGraph

__all__ = ["ParsedEdge", "ParsedStateGraph", "parse_dot", "to_dot"]

_NODE_RE = re.compile(r'^\s*(\d+)\s*\[label="(.*)"(?:,\s*init=(true|false))?\]\s*;?\s*$')
_EDGE_RE = re.compile(r'^\s*(\d+)\s*->\s*(\d+)\s*\[label="(.*)"\]\s*;?\s*$')


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _unescape(text: str) -> str:
    return text.replace('\\"', '"').replace("\\\\", "\\")


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


@dataclass(frozen=True)
class ParsedEdge:
    """An edge parsed back from a DOT file."""

    source: int
    action: str
    target: int


@dataclass
class ParsedStateGraph:
    """A state graph reconstructed from DOT text.

    Node states come back as plain dictionaries (JSON data), suitable for
    offline tooling that only reads the variable values recorded at each
    node.  The in-process generator (:mod:`repro.mbtcg`) consumes the live
    :class:`~repro.tla.graph.StateGraph` instead, so its emitted states stay
    lossless ``State`` objects.
    """

    nodes: Dict[int, dict] = field(default_factory=dict)
    initial: List[int] = field(default_factory=list)
    edges: List[ParsedEdge] = field(default_factory=list)

    def outgoing(self, node_id: int) -> List[ParsedEdge]:
        return [edge for edge in self.edges if edge.source == node_id]

    def terminal_ids(self) -> List[int]:
        sources = {edge.source for edge in self.edges}
        return [node_id for node_id in self.nodes if node_id not in sources]

    def __len__(self) -> int:
        return len(self.nodes)


def parse_dot(text: str) -> ParsedStateGraph:
    """Parse DOT text produced by :func:`to_dot` back into a graph."""
    parsed = ParsedStateGraph()
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith(("digraph", "}")):
            continue
        edge_match = _EDGE_RE.match(line)
        if edge_match:
            source, target = int(edge_match.group(1)), int(edge_match.group(2))
            action = _unescape(edge_match.group(3))
            parsed.edges.append(ParsedEdge(source, action, target))
            continue
        node_match = _NODE_RE.match(line)
        if node_match:
            node_id = int(node_match.group(1))
            label = _unescape(node_match.group(2))
            try:
                parsed.nodes[node_id] = json.loads(label)
            except json.JSONDecodeError as exc:
                raise SpecError(f"unparseable node label in DOT line: {raw_line!r}") from exc
            if node_match.group(3) == "true":
                parsed.initial.append(node_id)
            continue
        raise SpecError(f"unrecognized DOT line: {raw_line!r}")
    _validate(parsed)
    return parsed


def _validate(parsed: ParsedStateGraph) -> None:
    for edge in parsed.edges:
        if edge.source not in parsed.nodes or edge.target not in parsed.nodes:
            raise SpecError(
                f"edge {edge.source}->{edge.target} references an undeclared node"
            )


def roundtrip_counts(graph: StateGraph) -> Tuple[int, int]:
    """(node count, edge count) after a serialize/parse round trip.

    Provided for sanity checks in tests and benchmarks: the counts must be
    identical to the in-memory graph's.
    """
    parsed = parse_dot(to_dot(graph))
    return len(parsed.nodes), len(parsed.edges)
