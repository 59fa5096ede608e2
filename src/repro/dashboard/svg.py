"""SVG rendering of graphs ("automatic visualization for graphs").

The demo advertises automatic graph visualisation for chemistry,
bioinformatics and social-network applications.  This module produces
self-contained SVG strings (no external dependencies): vertices on a circular
layout — or a simple force-directed refinement — labelled with their vertex
labels, edges as lines.
"""

from __future__ import annotations

import math
from html import escape

from repro.graph.graph import Graph

#: Colour per label hash bucket, chosen to be distinguishable on white.
_PALETTE = (
    "#4C72B0", "#DD8452", "#55A868", "#C44E52", "#8172B3",
    "#937860", "#DA8BC3", "#8C8C8C", "#CCB974", "#64B5CD",
)


def _label_color(label: str) -> str:
    return _PALETTE[hash(label) % len(_PALETTE)]


def circular_layout(graph: Graph, radius: float = 180.0, center: float = 220.0) -> dict:
    """Place vertices evenly on a circle."""
    positions = {}
    vertices = graph.vertices()
    count = max(1, len(vertices))
    for index, vertex in enumerate(vertices):
        angle = 2.0 * math.pi * index / count
        positions[vertex] = (
            center + radius * math.cos(angle),
            center + radius * math.sin(angle),
        )
    return positions


def spring_layout(graph: Graph, iterations: int = 60, size: float = 440.0) -> dict:
    """Light force-directed refinement of the circular layout."""
    positions = circular_layout(graph, radius=size * 0.4, center=size / 2)
    vertices = graph.vertices()
    if len(vertices) < 3:
        return positions
    ideal = size / math.sqrt(len(vertices))
    for _ in range(iterations):
        forces = {vertex: [0.0, 0.0] for vertex in vertices}
        for i, u in enumerate(vertices):
            for v in vertices[i + 1:]:
                dx = positions[u][0] - positions[v][0]
                dy = positions[u][1] - positions[v][1]
                distance = max(1e-6, math.hypot(dx, dy))
                repulsion = (ideal * ideal) / distance
                forces[u][0] += repulsion * dx / distance
                forces[u][1] += repulsion * dy / distance
                forces[v][0] -= repulsion * dx / distance
                forces[v][1] -= repulsion * dy / distance
        for u, v in graph.edges():
            dx = positions[u][0] - positions[v][0]
            dy = positions[u][1] - positions[v][1]
            distance = max(1e-6, math.hypot(dx, dy))
            attraction = (distance * distance) / ideal
            forces[u][0] -= attraction * dx / distance
            forces[u][1] -= attraction * dy / distance
            forces[v][0] += attraction * dx / distance
            forces[v][1] += attraction * dy / distance
        for vertex in vertices:
            fx, fy = forces[vertex]
            magnitude = max(1e-6, math.hypot(fx, fy))
            step = min(magnitude, 8.0)
            x = positions[vertex][0] + step * fx / magnitude
            y = positions[vertex][1] + step * fy / magnitude
            positions[vertex] = (
                min(size - 20, max(20, x)),
                min(size - 20, max(20, y)),
            )
    return positions


def render_graph_svg(
    graph: Graph,
    size: int = 440,
    layout: str = "spring",
    vertex_radius: int = 14,
    title: str | None = None,
) -> str:
    """Render a graph as a standalone SVG document string."""
    positions = (
        spring_layout(graph, size=float(size)) if layout == "spring" else circular_layout(graph)
    )
    parts: list[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{size / 2}" y="18" text-anchor="middle" font-size="14" '
            f'font-family="sans-serif">{escape(title)}</text>'
        )
    for u, v in graph.edges():
        (x1, y1), (x2, y2) = positions[u], positions[v]
        parts.append(
            f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
            'stroke="#555" stroke-width="1.5"/>'
        )
    for vertex in graph.vertices():
        x, y = positions[vertex]
        label = graph.label(vertex)
        parts.append(
            f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{vertex_radius}" '
            f'fill="{_label_color(label)}" stroke="#222" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{y + 4:.1f}" text-anchor="middle" font-size="11" '
            f'font-family="sans-serif" fill="white">{escape(str(label))}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
