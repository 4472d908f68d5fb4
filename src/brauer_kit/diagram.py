"""Note-class diagrams: one plane point per class, a polyline through them.

``diagram_for_score`` builds the points, the chain edges and the closures in
one pass over the score's distinct class tokens, taken in order of first
appearance; repeated occurrences are dropped.  A point's x coordinate is its
position in that order.  The y coordinate of a pitched class is its letter
offset from the clef's reference letter (``score.CLEFS``: treble e, bass d,
alto a): the representative of the cyclic letter distance lying in the
window -2..4, so a fifth above the reference is still "above" while the two
letters just below stay negative.  Reversed orientation negates every
offset.  Rests keep their position but carry no y; they render as vertical
marks.

Consecutive pitched points are joined by an edge when their offsets differ;
equal-offset joins and any extra closure edges are opt-in.
"""

from __future__ import annotations

import json
from collections import namedtuple
from itertools import chain
from collections.abc import Iterable

from .brauer import SCHEMA, _is_int, ascii_ints
from .score import CLEFS, PITCHES, Score, class_parts

ORIENTATIONS = ("standard", "reversed")


class DiagramError(ValueError):
    """Invalid diagram request (unknown clef, bad edge, empty score)."""

    code = "E_DIAGRAM"  # the CLI's error code


def letter_offset(pitch: str, reference: str) -> int:
    """Signed letter distance from ``reference``, reduced to the window
    -2..4 of the cyclic order a..g."""
    i = (PITCHES.index(pitch) - PITCHES.index(reference)) % len(PITCHES)
    return i if i <= 4 else i - len(PITCHES)


ClassPoint = namedtuple("ClassPoint", "label y")
ClassPoint.__doc__ = """A class token's point: its ``label`` and its offset ``y``,
None for rests."""

PointDiagram = namedtuple("PointDiagram", "points edges orientation closures")
PointDiagram.__doc__ = """Points plus two kinds of edges: ``edges`` joins
consecutive pitched points (the polyline), ``closures`` holds user-chosen
pairs.  An edge names its points by position."""


def diagram_for_score(
    score: Score,
    clef: str | None = None,
    orientation: str = "standard",
    connect_equal_y: bool = False,
    extra_edges: Iterable = (),
) -> PointDiagram:
    """One point per distinct class token, in first-appearance order, with
    the edges between consecutive pitched points (equal-offset neighbours
    only when ``connect_equal_y``) and ``extra_edges`` as closure pairs of
    pitched point positions.  A closure may not join a point to itself or
    repeat an edge, in either direction, and an extra edge that is not a
    pair of integers, bools excluded, is a DiagramError that names it.
    ``clef`` overrides the score's own."""
    labels = list(dict.fromkeys(chain.from_iterable(score.measures)))
    if not labels:
        raise DiagramError("score has no events")
    pitches = [class_parts(label)[0] for label in labels]
    clef = score.clef if clef is None else clef
    if not isinstance(clef, str) or clef not in CLEFS:
        raise DiagramError(f"unknown clef {clef!r}")
    if orientation not in ORIENTATIONS:
        raise DiagramError(f"unknown orientation {orientation!r}")
    sign = 1 if orientation == "standard" else -1
    points, edges, last = [], [], None
    for i, (label, pitch) in enumerate(zip(labels, pitches)):
        y = None if pitch is None else sign * letter_offset(pitch, CLEFS[clef])
        points.append(ClassPoint(label, y))
        if y is None:
            continue
        if last is not None and (connect_equal_y or points[last].y != y):
            edges.append((last, i))
        last = i
    closures, drawn = [], set(map(frozenset, edges))  # an edge either way round
    for edge in extra_edges:
        try:
            i, j = edge
        except (TypeError, ValueError):  # not iterable, or not two items
            i = j = None
        if not (_is_int(i) and _is_int(j)):
            raise DiagramError(f"extra edge {edge!r} is not a pair of point indices")
        if not (0 <= i < len(points) and 0 <= j < len(points)):
            raise DiagramError(f"extra edge ({i}, {j}) references an unknown point")
        if points[i].y is None or points[j].y is None:
            raise DiagramError(f"extra edge ({i}, {j}) touches a rest")
        if i == j:
            raise DiagramError(f"extra edge ({i}, {j}) joins a point to itself")
        if frozenset((i, j)) in drawn:
            raise DiagramError(f"extra edge ({i}, {j}) repeats an edge of the diagram")
        drawn.add(frozenset((i, j)))
        closures.append((i, j))
    return PointDiagram(tuple(points), tuple(edges), orientation, tuple(closures))


def parse_edges(text: str) -> tuple:
    """Sidecar extra-edges format: one ``i j`` pair per line, ``#`` comments."""
    pairs = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            i, j = ascii_ints(line.split())
        except ValueError:  # not two runs of ASCII digits
            raise DiagramError(f"edge line {lineno}: expected two indices") from None
        pairs.append((i, j))
    return tuple(pairs)


# ---------------------------------------------------------------------------
# Emitters
# ---------------------------------------------------------------------------

def emit_json(diagram: PointDiagram) -> str:
    data = {
        "schema": SCHEMA,
        "orientation": diagram.orientation,
        "points": [
            {"label": p.label, "x": x, "y": p.y} for x, p in enumerate(diagram.points)
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
    width = 2 * _MARGIN + _UNIT * (len(points) - 1)
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
        coords = " ".join(f"{sx(i)},{sy(points[i].y)}" for i in chain)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="black" stroke-width="2"/>'
        )
    for a, b in diagram.closures:
        parts.append(
            f'<line x1="{sx(a)}" y1="{sy(points[a].y)}" x2="{sx(b)}" y2="{sy(points[b].y)}" '
            f'stroke="black" stroke-width="2" stroke-dasharray="6,4"/>'
        )
    for i, p in enumerate(points):
        x = sx(i)
        if p.y is None:
            parts.append(
                f'<line x1="{x}" y1="{sy(y_max)}" x2="{x}" y2="{sy(y_min)}" '
                f'stroke="grey" stroke-width="1" stroke-dasharray="2,6"/>'
            )
            parts.append(
                f'<text x="{x + 6}" y="{sy(y_min) + 18}" font-size="12">{p.label}</text>'
            )
        else:
            parts.append(
                f'<circle cx="{x}" cy="{sy(p.y)}" r="6" '
                f'fill="white" stroke="black" stroke-width="2"/>'
            )
            parts.append(
                f'<text x="{x + 8}" y="{sy(p.y) - 8}" font-size="12">{p.label}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
