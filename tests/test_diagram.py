import json
import re
from pathlib import Path

import pytest

from brauer_kit.diagram import (
    CLEF_REFERENCE,
    DiagramError,
    PointDiagram,
    ClassPoint,
    assign_points,
    build_polyline,
    classify_notes,
    diagram_for_score,
    emit_json,
    emit_svg,
    letter_offset,
    parse_edges,
)
from brauer_kit.score import Score, ScoreError, parse_score

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "brauer_kit" / "fixtures"

A6 = parse_score((FIXTURES / "canon_a6.bsc").read_text())
CRAB = parse_score((FIXTURES / "canon_crab.bsc").read_text(), strict=False)

# The fourteen published pitched classes of the six-voice canon with their
# letter offsets from the bass reference d, in first-appearance order.
A6_PITCHED_POINTS = [
    ("e16", 1), ("d16", 0), ("c16", -1), ("b16", -2),
    ("d8", 0), ("e8", 1), ("f8", 2), ("g8", 3),
    ("g32", 3), ("f16", 2), ("e32", 1), ("f32", 2),
    ("a16", 4), ("g16", 3),
]


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def test_classify_a6_pitched_classes():
    classes = classify_notes(A6)
    assert sum(1 for c in classes if not c.startswith("r")) == 14
    assert len(classes) == 16  # plus the quarter and eighth rests


def test_classify_single_note_score():
    assert classify_notes(parse_score("| c16 c16")) == ["c16"]


def test_classify_crab_includes_rests():
    classes = classify_notes(CRAB)
    assert any(c.startswith("r") for c in classes)
    assert len(classes) == 28


def test_classify_strips_groups():
    classes = classify_notes(parse_score("| [ b8 f8 ] ( b8 e8 )"))
    assert classes == ["b8", "f8", "e8"]


def test_classify_rejects_empty_score():
    hollow = Score(measures=((),))
    with pytest.raises(DiagramError):
        classify_notes(hollow)


def test_classify_rejects_foreign_token_before_clef():
    # a hand-built score skips the parser; its foreign token fails in
    # classification, before the unknown clef is seen
    hand_built = Score(measures=(("c16", "h8"),))
    with pytest.raises(ScoreError, match="foreign vertex label 'h8'"):
        diagram_for_score(hand_built, clef="tenor")


def test_classify_rejects_token_with_trailing_newline():
    with pytest.raises(ScoreError, match=r"foreign vertex label 'b8\\n'"):
        classify_notes(Score(measures=(("b8\n", "c4"),)))


# ---------------------------------------------------------------------------
# Point assignment
# ---------------------------------------------------------------------------

def test_letter_offsets_from_bass_reference():
    offsets = {p: letter_offset(p, "d") for p in "abcdefg"}
    assert offsets == {"d": 0, "e": 1, "f": 2, "g": 3, "a": 4, "b": -2, "c": -1}


def test_a6_points_match_published_list():
    diagram = assign_points(classify_notes(A6), "bass")
    pitched = [(p.label, p.y) for p in diagram.points if p.y is not None]
    assert pitched == A6_PITCHED_POINTS


def test_x_is_first_occurrence_ordinal_without_gaps():
    diagram = assign_points(classify_notes(A6), "bass")
    assert [p.x for p in diagram.points] == list(range(16))


def test_reference_note_gets_zero():
    diagram = assign_points(classify_notes(parse_score("clef=treble | e16 e16")), "treble")
    assert diagram.points[0].y == 0


def test_reversed_orientation_negates():
    classes = classify_notes(A6)
    std = assign_points(classes, "bass", "standard")
    rev = assign_points(classes, "bass", "reversed")
    for a, b in zip(std.points, rev.points):
        if a.y is None:
            assert b.y is None
        else:
            assert b.y == -a.y


def test_clef_references():
    assert CLEF_REFERENCE == {"treble": "e", "bass": "d", "alto": "a"}
    with pytest.raises(DiagramError):
        assign_points(classify_notes(A6), "tenor")


def test_offset_translation_is_congruent_mod_seven():
    # moving the reference by k letters shifts each offset by -k modulo the
    # seven-letter cycle (the representative window is fixed)
    for pitch in "abcdefg":
        base = letter_offset(pitch, "d")
        shifted = letter_offset(pitch, "e")
        assert (shifted - (base - 1)) % 7 == 0


def test_rests_carry_no_y():
    diagram = assign_points(classify_notes(A6), "bass")
    rests = [p for p in diagram.points if p.label.startswith("r")]
    assert rests and all(p.y is None for p in rests)


# ---------------------------------------------------------------------------
# Polyline construction
# ---------------------------------------------------------------------------

def test_two_points_one_edge():
    diagram = PointDiagram((ClassPoint("a16", 0, 0), ClassPoint("b16", 1, 1)))
    assert build_polyline(diagram).edges == ((0, 1),)


def test_equal_y_pair_skipped_without_flag():
    diagram = PointDiagram((ClassPoint("a16", 0, 2), ClassPoint("a8", 1, 2)))
    assert build_polyline(diagram).edges == ()
    assert build_polyline(diagram, connect_equal_y=True).edges == ((0, 1),)


def test_a6_polyline_skips_the_equal_y_pair():
    diagram = diagram_for_score(A6)
    # g8 (x=9) and g32 (x=10) share offset 3 and stay unconnected
    assert (9, 10) not in diagram.edges
    assert len(diagram.edges) == 12
    for a, b in diagram.edges:
        assert diagram.points[a].y != diagram.points[b].y


def test_edges_skip_rest_points():
    diagram = diagram_for_score(A6)
    rest_indices = {p.x for p in diagram.points if p.y is None}
    assert all(a not in rest_indices and b not in rest_indices for a, b in diagram.edges)


def test_extra_edges_appended():
    diagram = PointDiagram((ClassPoint("a16", 0, 0), ClassPoint("b16", 1, 1)))
    out = build_polyline(diagram, extra_edges=[(1, 0)])
    assert out.edges == ((0, 1),)
    assert out.closures == ((1, 0),)


def test_extra_edge_unknown_point_rejected():
    diagram = PointDiagram((ClassPoint("a16", 0, 0),))
    with pytest.raises(DiagramError):
        build_polyline(diagram, extra_edges=[(0, 5)])


def test_edge_count_bound():
    diagram = diagram_for_score(A6, extra_edges=[(1, 3)])
    assert len(diagram.edges) + len(diagram.closures) <= len(diagram.points) - 1 + 1


def test_parse_edges_sidecar():
    assert parse_edges("0 3\n# closure\n2 5\n") == ((0, 3), (2, 5))
    with pytest.raises(DiagramError):
        parse_edges("0 3 5\n")


def test_parse_edges_breaks_lines_only_at_newline():
    # form feed, NEL and U+2028 are whitespace inside a line, not line ends
    for sep in ["\x0c", "\x85", "\u2028"]:
        with pytest.raises(DiagramError, match="edge line 1: expected two indices"):
            parse_edges(f"0 3{sep}2 5\n")
    assert parse_edges("0 3\r\n2 5\r\n") == ((0, 3), (2, 5))


# ---------------------------------------------------------------------------
# Emitters
# ---------------------------------------------------------------------------

def test_emit_json_schema():
    data = json.loads(emit_json(diagram_for_score(A6)))
    assert data["schema"] == "1"
    assert data["orientation"] == "standard"
    assert data["points"][1] == {"label": "e16", "x": 1, "y": 1}
    assert data["points"][0]["y"] is None
    assert [1, 2] in data["edges"]


def test_emit_svg_structure():
    svg = emit_svg(diagram_for_score(A6))
    assert svg.startswith('<?xml version="1.0"')
    assert 'version="1.1"' in svg
    viewbox = re.search(r'viewBox="0 0 (\d+) (\d+)"', svg)
    assert viewbox  # integer viewbox
    assert svg.count("<circle") == 14
    assert svg.count("<polyline") >= 1
    assert svg.count("<text") == 16  # every class labeled, rests included


def test_emit_svg_y_axis_points_up():
    svg = emit_svg(diagram_for_score(A6))
    def circle_y(label):
        # the label text sits 8px above/right of its circle
        m = re.search(rf'<text x="\d+" y="(\d+)" font-size="12">{label}</text>', svg)
        return int(m.group(1))
    assert circle_y("a16") < circle_y("b16")  # higher offset renders higher


def test_emit_svg_chain_edge_across_rest_stays_in_polyline():
    # e4 -> g4 joins consecutive pitched points across the rest class r4
    svg = emit_svg(diagram_for_score(parse_score("clef=treble\n| e4 r4 g4 a4\n")))
    polylines = re.findall(r'<polyline points="([^"]*)"', svg)
    assert len(polylines) == 1
    assert len(polylines[0].split()) == 3
    assert 'stroke-dasharray="6,4"' not in svg


def test_emit_svg_extra_edges_dashed():
    svg = emit_svg(diagram_for_score(A6, extra_edges=[(1, 3)]))
    assert 'stroke-dasharray="6,4"' in svg


def test_reversed_twice_is_standard():
    classes = classify_notes(A6)
    once = assign_points(classes, "bass", "reversed")
    flipped = PointDiagram(
        tuple(
            ClassPoint(p.label, p.x, None if p.y is None else -p.y)
            for p in once.points
        ),
        orientation="standard",
    )
    assert flipped.points == assign_points(classes, "bass", "standard").points
