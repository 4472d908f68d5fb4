"""Note-class diagrams: one plane point per class, a polyline through them.

Classes are collected in order of first appearance; repeated occurrences are
dropped.  The x coordinate is the first-occurrence ordinal.  The y
coordinate of a pitched class is its letter offset from the clef's reference
note (treble e, bass d, alto a): the representative of the cyclic letter
distance lying in the window -2..4, so a fifth above the reference is still
"above" while the two letters just below stay negative.  Reversed
orientation negates every offset.  Rests keep their x but carry no y; they
render as vertical marks.

Consecutive pitched points are joined by an edge when their offsets differ;
equal-offset joins and any extra closure edges are opt-in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .score import PITCHES, Score, class_parts

CLEF_REFERENCE = {"treble": "e", "bass": "d", "alto": "a"}

ORIENTATIONS = ("standard", "reversed")


class DiagramError(ValueError):
    """Invalid diagram request (unknown clef, bad edge, empty score)."""


def classify_notes(score: Score) -> list:
    """Distinct class tokens in first-appearance order, each checked by
    ``class_parts``.  Pitched classes and rest classes both count."""
    labels = list(dict.fromkeys(token for measure in score.measures for token in measure))
    if not labels:
        raise DiagramError("score has no events")
    for label in labels:
        class_parts(label)
    return labels


def letter_offset(pitch: str, reference: str) -> int:
    """Signed letter distance from ``reference``, reduced to the window
    -2..4 of the cyclic order a..g."""
    i = (PITCHES.index(pitch) - PITCHES.index(reference)) % len(PITCHES)
    return i if i <= 4 else i - len(PITCHES)


@dataclass(frozen=True)
class ClassPoint:
    label: str
    x: int
    y: int | None  # None for rests


@dataclass(frozen=True)
class PointDiagram:
    """Points plus two kinds of edges: ``edges`` joins consecutive pitched
    points (the polyline), ``closures`` holds user-chosen pairs."""

    points: tuple
    edges: tuple = ()
    orientation: str = "standard"
    closures: tuple = ()


def assign_points(
    classes: Sequence[str],
    clef: str,
    orientation: str = "standard",
) -> PointDiagram:
    """Place one point per class: x by first-occurrence ordinal, y by letter
    offset from the clef reference (negated for reversed orientation)."""
    if clef not in CLEF_REFERENCE:
        raise DiagramError(f"unknown clef {clef!r}")
    if orientation not in ORIENTATIONS:
        raise DiagramError(f"unknown orientation {orientation!r}")
    reference = CLEF_REFERENCE[clef]
    sign = 1 if orientation == "standard" else -1
    points = []
    for x, label in enumerate(classes):
        pitch = class_parts(label)[0]
        y = None if pitch is None else sign * letter_offset(pitch, reference)
        points.append(ClassPoint(label, x, y))
    return PointDiagram(tuple(points), orientation=orientation)


def build_polyline(
    diagram: PointDiagram,
    connect_equal_y: bool = False,
    extra_edges: Iterable = (),
) -> PointDiagram:
    """Add edges between consecutive pitched points.

    Equal-offset neighbours are skipped unless ``connect_equal_y``;
    ``extra_edges`` are user-chosen closure pairs of pitched point indices."""
    pitched = [i for i, p in enumerate(diagram.points) if p.y is not None]
    edges = []
    for a, b in zip(pitched, pitched[1:]):
        if connect_equal_y or diagram.points[a].y != diagram.points[b].y:
            edges.append((a, b))
    n = len(diagram.points)
    closures = []
    for pair in extra_edges:
        i, j = pair
        if not (0 <= i < n and 0 <= j < n):
            raise DiagramError(f"extra edge ({i}, {j}) references an unknown point")
        if diagram.points[i].y is None or diagram.points[j].y is None:
            raise DiagramError(f"extra edge ({i}, {j}) touches a rest")
        closures.append((i, j))
    return replace(diagram, edges=tuple(edges), closures=tuple(closures))


def diagram_for_score(
    score: Score,
    clef: str | None = None,
    orientation: str = "standard",
    connect_equal_y: bool = False,
    extra_edges: Iterable = (),
) -> PointDiagram:
    """Full pipeline: classify, place points, draw the polyline edges."""
    classes = classify_notes(score)
    diagram = assign_points(classes, clef or score.clef, orientation)
    return build_polyline(diagram, connect_equal_y, extra_edges)


def parse_edges(text: str) -> tuple:
    """Sidecar extra-edges format: one ``i j`` pair per line, ``#`` comments."""
    pairs = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise DiagramError(f"edge line {lineno}: expected two indices")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise DiagramError(f"edge line {lineno}: expected two indices") from None
    return tuple(pairs)


# ---------------------------------------------------------------------------
# Emitters
# ---------------------------------------------------------------------------

def emit_json(diagram: PointDiagram) -> str:
    data = {
        "schema": "1",
        "orientation": diagram.orientation,
        "points": [
            {"label": p.label, "x": p.x, "y": p.y} for p in diagram.points
        ],
        "edges": [list(e) for e in diagram.edges + diagram.closures],
    }
    return json.dumps(data, indent=2) + "\n"


_UNIT = 40
_MARGIN = 60


def emit_svg(diagram: PointDiagram) -> str:
    """Stand-alone SVG 1.1: labeled circles on an integer grid (y up),
    polyline chains for the consecutive edges, dashed lines for closure
    edges, vertical dashes for rests."""
    points = diagram.points
    if not points:
        raise DiagramError("nothing to draw")
    ys = [p.y for p in points if p.y is not None]
    y_max = max(ys, default=0)
    y_min = min(ys, default=0)
    width = 2 * _MARGIN + _UNIT * max(p.x for p in points)
    height = 2 * _MARGIN + _UNIT * (y_max - y_min)

    def sx(x: int) -> int:
        return _MARGIN + _UNIT * x

    def sy(y: int) -> int:
        return _MARGIN + _UNIT * (y_max - y)  # svg is y-down, diagram is y-up

    # stitch consecutive edges into maximal chains so each renders as one
    # polyline element
    chains: list[list[int]] = []
    for a, b in diagram.edges:
        if chains and chains[-1][-1] == a:
            chains[-1].append(b)
        else:
            chains.append([a, b])

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {width} {height}">',
    ]
    for chain in chains:
        coords = " ".join(f"{sx(points[i].x)},{sy(points[i].y)}" for i in chain)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="black" stroke-width="2"/>'
        )
    for a, b in diagram.closures:
        pa, pb = points[a], points[b]
        parts.append(
            f'<line x1="{sx(pa.x)}" y1="{sy(pa.y)}" x2="{sx(pb.x)}" y2="{sy(pb.y)}" '
            f'stroke="black" stroke-width="2" stroke-dasharray="6,4"/>'
        )
    for p in points:
        if p.y is None:
            x = sx(p.x)
            parts.append(
                f'<line x1="{x}" y1="{sy(y_max)}" x2="{x}" y2="{sy(y_min)}" '
                f'stroke="grey" stroke-width="1" stroke-dasharray="2,6"/>'
            )
            parts.append(
                f'<text x="{x + 6}" y="{sy(y_min) + 18}" font-size="12">{p.label}</text>'
            )
        else:
            parts.append(
                f'<circle cx="{sx(p.x)}" cy="{sy(p.y)}" r="6" '
                f'fill="white" stroke="black" stroke-width="2"/>'
            )
            parts.append(
                f'<text x="{sx(p.x) + 8}" y="{sy(p.y) - 8}" font-size="12">{p.label}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
