"""Reading and writing graph transaction files.

Two text formats are supported:

* the classic *graph transaction* format used by the AIDS / GraphGrep family
  of tools (``t # <id>`` / ``v <id> <label>`` / ``e <u> <v> [label]`` lines);
* a JSON format (one dataset = a list of :meth:`Graph.to_dict` payloads).

JSON round-trips every :class:`repro.graph.Graph` losslessly.  The text
format renumbers vertices ``0..n-1`` and refuses, on write, any label or graph
id it could not read back unchanged; whatever it writes reads back equal.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from pathlib import Path

from repro.errors import GraphError, GraphFormatError
from repro.graph.graph import Graph


def parse_transaction_text(text: str) -> list[Graph]:
    """Parse the ``t # id / v / e`` transaction format from a string."""
    graphs: list[Graph] = []
    current: Graph | None = None
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "t":
            # "t # 3" or "t 3"
            payload = [p for p in parts[1:] if p != "#"]
            graph_id: int | str | None = None
            if payload:
                graph_id = _parse_scalar(payload[0])
            current = Graph(graph_id=graph_id)
            graphs.append(current)
        elif kind == "v":
            if current is None:
                raise GraphFormatError(f"line {line_number}: vertex before any 't' line")
            if len(parts) < 3:
                raise GraphFormatError(f"line {line_number}: vertex line needs an id and a label")
            try:
                current.add_vertex(_parse_scalar(parts[1]), parts[2])
            except GraphError as exc:
                raise GraphFormatError(f"line {line_number}: {exc}") from None
        elif kind == "e":
            if current is None:
                raise GraphFormatError(f"line {line_number}: edge before any 't' line")
            if len(parts) < 3:
                raise GraphFormatError(f"line {line_number}: edge line needs two endpoints")
            label = parts[3] if len(parts) > 3 else None
            try:
                current.add_edge(_parse_scalar(parts[1]), _parse_scalar(parts[2]), label)
            except GraphError as exc:
                raise GraphFormatError(f"line {line_number}: {exc}") from None
        else:
            raise GraphFormatError(f"line {line_number}: unknown record type {kind!r}")
    return graphs


def _parse_scalar(token: str) -> int | str:
    """Parse ints where possible so vertex/graph ids behave naturally."""
    try:
        return int(token)
    except ValueError:
        return token


def _is_token(text: object) -> bool:
    """True when ``text`` is one non-empty whitespace-free token, read back as itself."""
    return isinstance(text, str) and text.split() == [text]


def format_transaction_text(graphs: Iterable[Graph]) -> str:
    """Serialise graphs to the transaction text format.

    Vertices are renumbered ``0..n-1`` in insertion order.  Raises
    :class:`GraphFormatError` for anything the format cannot carry: an empty
    label, or a label or graph id that would not read back as itself (one
    containing whitespace, or a string id that parses as an int).
    """
    lines: list[str] = []
    for index, graph in enumerate(graphs):
        graph_id = graph.graph_id if graph.graph_id is not None else index
        token = str(graph_id)
        if not _is_token(token) or token == "#" or _parse_scalar(token) != graph_id:
            raise GraphFormatError(f"graph id {graph_id!r} cannot be written as one token")
        lines.append(f"t # {graph_id}")
        vertex_order = {vertex: position for position, vertex in enumerate(graph.vertices())}
        for vertex in graph.vertices():
            label = graph.label(vertex)
            if not _is_token(label):
                raise GraphFormatError(
                    f"graph {graph_id!r}, vertex {vertex!r}: label {label!r} "
                    "cannot be written as one token"
                )
            lines.append(f"v {vertex_order[vertex]} {label}")
        for u, v in graph.edges():
            label = graph.edge_label(u, v)
            if label is not None and not _is_token(label):
                raise GraphFormatError(
                    f"graph {graph_id!r}, edge ({u!r}, {v!r}): label {label!r} "
                    "cannot be written as one token"
                )
            suffix = f" {label}" if label is not None else ""
            lines.append(f"e {vertex_order[u]} {vertex_order[v]}{suffix}")
    return "\n".join(lines) + ("\n" if lines else "")


def load_transaction_file(path: str | Path) -> list[Graph]:
    """Load a dataset from a transaction-format text file."""
    content = Path(path).read_text(encoding="utf-8")
    return parse_transaction_text(content)


def save_transaction_file(graphs: Iterable[Graph], path: str | Path) -> None:
    """Write a dataset to a transaction-format text file."""
    Path(path).write_text(format_transaction_text(graphs), encoding="utf-8")


def load_json_file(path: str | Path) -> list[Graph]:
    """Load a dataset from a JSON file produced by :func:`save_json_file`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, list):
        raise GraphFormatError("JSON dataset must be a list of graph objects")
    return [Graph.from_dict(entry) for entry in payload]


def save_json_file(graphs: Iterable[Graph], path: str | Path) -> None:
    """Write a dataset to JSON (a list of :meth:`Graph.to_dict` payloads)."""
    payload = [graph.to_dict() for graph in graphs]
    Path(path).write_text(json.dumps(payload, indent=2), encoding="utf-8")


def load_dataset(path: str | Path) -> list[Graph]:
    """Load a dataset, dispatching on the file extension (.json or text)."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        return load_json_file(path)
    return load_transaction_file(path)

