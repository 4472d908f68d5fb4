import json
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from brauer_kit.diagram import (
    ORIENTATIONS,
    DiagramError,
    PointDiagram,
    diagram_for_score,
    emit_json,
    emit_svg,
    letter_offset,
    parse_edges,
)
from brauer_kit.score import CLEFS, Score, ScoreError, parse_score

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import gen  # noqa: E402

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


def labels(diagram):
    return [p.label for p in diagram.points]


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def test_classify_a6_pitched_classes():
    points = diagram_for_score(A6).points
    assert sum(1 for p in points if p.y is not None) == 14
    assert len(points) == 16  # plus the quarter and eighth rests


def test_classify_single_note_score():
    assert labels(diagram_for_score(parse_score("| c16 c16"))) == ["c16"]


def test_classify_crab_includes_rests():
    points = diagram_for_score(CRAB).points
    assert any(p.label.startswith("r") for p in points)
    assert len(points) == 28


@pytest.mark.parametrize("name", [
    *(path.name for path in sorted(FIXTURES.glob("*.bsc"))),
    *(f"seed{seed}-{n}" for seed in (3, 7, 23) for n in (500, 2000)),
])
def test_point_order_is_first_appearance(name):
    if name.endswith(".bsc"):
        score = parse_score((FIXTURES / name).read_text(), strict=False)
    else:
        seed, n = map(int, name[4:].split("-"))
        score = parse_score(gen.score_input(seed, n)["text"])
    first_seen = list(dict.fromkeys(token for measure in score.measures for token in measure))
    assert labels(diagram_for_score(score)) == first_seen


def test_classify_strips_groups():
    diagram = diagram_for_score(parse_score("| [ b8 f8 ] ( b8 e8 )"))
    assert labels(diagram) == ["b8", "f8", "e8"]


def test_classify_rejects_empty_score():
    hollow = Score(measures=((),))
    with pytest.raises(DiagramError, match="score has no events"):
        diagram_for_score(hollow, clef="tenor", orientation="sideways")


def test_classify_rejects_foreign_token_before_clef():
    # a hand-built score skips the parser, but not the score's own door: its
    # foreign token fails where it is built, before the unknown clef is seen
    with pytest.raises(ScoreError, match="foreign vertex label 'h8'"):
        diagram_for_score(Score(measures=(("c16", "h8"),)), clef="tenor")


def test_classify_rejects_token_with_trailing_newline():
    with pytest.raises(ScoreError, match=r"foreign vertex label 'b8\\n'"):
        diagram_for_score(Score(measures=(("b8\n", "c4"),)))


# ---------------------------------------------------------------------------
# Point assignment
# ---------------------------------------------------------------------------

def test_letter_offsets_from_bass_reference():
    offsets = {p: letter_offset(p, "d") for p in "abcdefg"}
    assert offsets == {"d": 0, "e": 1, "f": 2, "g": 3, "a": 4, "b": -2, "c": -1}


def test_a6_points_match_published_list():
    diagram = diagram_for_score(A6, clef="bass")
    pitched = [(p.label, p.y) for p in diagram.points if p.y is not None]
    assert pitched == A6_PITCHED_POINTS


def test_x_is_first_occurrence_ordinal_without_gaps():
    data = json.loads(emit_json(diagram_for_score(A6)))
    assert [p["x"] for p in data["points"]] == list(range(16))


def test_reference_note_gets_zero():
    diagram = diagram_for_score(parse_score("clef=treble | e16 e16"))
    assert diagram.points[0].y == 0


def test_reversed_orientation_negates():
    std = diagram_for_score(A6, orientation="standard")
    rev = diagram_for_score(A6, orientation="reversed")
    for a, b in zip(std.points, rev.points):
        if a.y is None:
            assert b.y is None
        else:
            assert b.y == -a.y


def test_clef_references():
    assert CLEFS == {"treble": "e", "bass": "d", "alto": "a"}
    with pytest.raises(DiagramError, match="unknown clef 'tenor'"):
        diagram_for_score(A6, clef="tenor", orientation="sideways")
    # an empty clef is no clef, not the score's own
    with pytest.raises(DiagramError, match="unknown clef ''"):
        diagram_for_score(A6, clef="")
    # a clef that cannot be hashed is named too
    with pytest.raises(DiagramError, match=r"^unknown clef \['bass'\]$"):
        diagram_for_score(A6, clef=["bass"])
    with pytest.raises(DiagramError, match="unknown orientation 'sideways'"):
        diagram_for_score(A6, orientation="sideways", extra_edges=[(0, 99)])


def test_offset_translation_is_congruent_mod_seven():
    # moving the reference by k letters shifts each offset by -k modulo the
    # seven-letter cycle (the representative window is fixed)
    for pitch in "abcdefg":
        base = letter_offset(pitch, "d")
        shifted = letter_offset(pitch, "e")
        assert (shifted - (base - 1)) % 7 == 0


def test_rests_carry_no_y():
    diagram = diagram_for_score(A6)
    rests = [p for p in diagram.points if p.label.startswith("r")]
    assert rests and all(p.y is None for p in rests)


# ---------------------------------------------------------------------------
# Polyline construction
# ---------------------------------------------------------------------------

def test_two_points_one_edge():
    assert diagram_for_score(parse_score("| a16 b16")).edges == ((0, 1),)


def test_equal_y_pair_skipped_without_flag():
    score = parse_score("| a16 a8")
    assert diagram_for_score(score).edges == ()
    assert diagram_for_score(score, connect_equal_y=True).edges == ((0, 1),)


def test_a6_polyline_skips_the_equal_y_pair():
    diagram = diagram_for_score(A6)
    # g8 (x=9) and g32 (x=10) share offset 3 and stay unconnected
    assert (9, 10) not in diagram.edges
    assert len(diagram.edges) == 12
    for a, b in diagram.edges:
        assert diagram.points[a].y != diagram.points[b].y


def test_edges_skip_rest_points():
    diagram = diagram_for_score(A6)
    rest_indices = {x for x, p in enumerate(diagram.points) if p.y is None}
    assert all(a not in rest_indices and b not in rest_indices for a, b in diagram.edges)


def test_extra_edges_appended():
    out = diagram_for_score(parse_score("| a16 b16 c16"), extra_edges=[(2, 0)])
    assert out.edges == ((0, 1), (1, 2))
    assert out.closures == ((2, 0),)


@pytest.mark.parametrize("pairs, message", [
    ([(1, 1)], r"extra edge \(1, 1\) joins a point to itself"),
    ([(2, 1)], r"extra edge \(2, 1\) repeats an edge of the diagram"),
    ([(0, 2), (2, 0)], r"extra edge \(2, 0\) repeats an edge of the diagram"),
], ids=["loop", "chain-edge", "closure-reversed"])
def test_extra_edge_loop_or_repeat_rejected(pairs, message):
    with pytest.raises(DiagramError, match=message + "$"):
        diagram_for_score(parse_score("| a16 b16 c16"), extra_edges=pairs)


def test_extra_edge_unknown_point_rejected():
    score = parse_score("| a16 b16")
    with pytest.raises(DiagramError, match=r"extra edge \(0, 5\) references an unknown point"):
        diagram_for_score(score, extra_edges=[(0, 5)])
    with pytest.raises(DiagramError, match=r"extra edge \(-1, 0\) references an unknown point"):
        diagram_for_score(score, extra_edges=[(-1, 0)])


@pytest.mark.parametrize(
    "edge", [(0.0, 1.0), ("0", "1"), (0, 1, 2), 5, (True, 3)],
    ids=["floats", "strings", "triple", "int", "bool"],
)
def test_extra_edge_must_be_a_pair_of_integers(edge):
    with pytest.raises(DiagramError) as err:
        diagram_for_score(A6, extra_edges=[edge])
    assert str(err.value) == f"extra edge {edge!r} is not a pair of point indices"


def test_edge_count_bound():
    diagram = diagram_for_score(A6, extra_edges=[(1, 3)])
    assert len(diagram.edges) + len(diagram.closures) <= len(diagram.points) - 1 + 1


def test_parse_edges_sidecar():
    assert parse_edges("0 3\n# closure\n2 5\n") == ((0, 3), (2, 5))
    with pytest.raises(DiagramError):
        parse_edges("0 3 5\n")


@pytest.mark.parametrize("number", ["\u0663", "+1", "1_0", "-1"])
def test_parse_edges_takes_ascii_digits_only(number):
    # int() would read each of these as a number
    for line in (f"{number} 2", f"2 {number}"):
        with pytest.raises(DiagramError, match="^edge line 2: expected two indices$"):
            parse_edges(f"0 1\n{line}\n")


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
    assert int(viewbox.group(1)) == 2 * 60 + 40 * 15  # margins plus 15 units
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


def test_emit_svg_needs_a_point():
    with pytest.raises(DiagramError, match="^nothing to draw$"):
        emit_svg(PointDiagram((), (), "standard", ()))


def test_reversed_twice_is_standard():
    once = diagram_for_score(A6, orientation="reversed")
    flipped = [(p.label, None if p.y is None else -p.y) for p in once.points]
    assert flipped == [(p.label, p.y) for p in diagram_for_score(A6).points]


# ---------------------------------------------------------------------------
# The diagram against README's rules
# ---------------------------------------------------------------------------

CLASS_TOKENS = st.builds(
    lambda acc, letter, exponent, dot: f"{acc}{letter}{exponent}{dot}",
    st.sampled_from(["", "-", "+", "="]),
    st.sampled_from("abcdefgr"),
    st.sampled_from(["64", "32", "16", "8", "4", "2", "1"]),
    st.sampled_from(["", "."]),
).filter(lambda t: not t.endswith("1.") and not (t[0] in "-+=" and t[1] == "r"))


def expected_diagram(measures, clef, orientation, connect_equal_y, closures):
    """README's rules, written out: classes in first-appearance order, x the
    ordinal, y the letter distance from the clef's letter taken in -2..4
    (negated when reversed), chain edges between consecutive pitched points
    whose y differs unless equal joins are asked for, then the closures.
    A closure that is a loop or repeats an edge, either way round, gives
    the error message instead."""
    order = []
    for measure in measures:
        for token in measure:
            if token not in order:
                order.append(token)
    reference = {"treble": "e", "bass": "d", "alto": "a"}[clef]
    sign = -1 if orientation == "reversed" else 1
    points = []
    for x, label in enumerate(order):
        letter = label.lstrip("-+=")[0]
        if letter == "r":
            y = None
        else:
            d = ("abcdefg".index(letter) - "abcdefg".index(reference)) % 7
            y = sign * (d - 7 if d > 4 else d)
        points.append({"label": label, "x": x, "y": y})
    pitched = [p for p in points if p["y"] is not None]
    edges = [
        [a["x"], b["x"]] for a, b in zip(pitched, pitched[1:])
        if connect_equal_y or a["y"] != b["y"]
    ]
    drawn = [set(edge) for edge in edges]
    for i, j in closures:
        if i == j:
            return f"extra edge ({i}, {j}) joins a point to itself"
        if {i, j} in drawn:
            return f"extra edge ({i}, {j}) repeats an edge of the diagram"
        drawn.append({i, j})
    return {"schema": "1", "orientation": orientation, "points": points,
            "edges": edges + [list(pair) for pair in closures]}


@st.composite
def diagram_requests(draw):
    measures = draw(st.lists(st.lists(CLASS_TOKENS, min_size=1, max_size=8),
                             min_size=1, max_size=5))
    score = parse_score("".join("| " + " ".join(m) + "\n" for m in measures))
    pitched = [
        x for x, label in enumerate(dict.fromkeys(t for m in measures for t in m))
        if not label.startswith("r")
    ]
    closures = (
        draw(st.lists(st.tuples(st.sampled_from(pitched), st.sampled_from(pitched)),
                      max_size=3))
        if pitched else []
    )
    return (measures, score, draw(st.sampled_from(sorted(CLEFS))),
            draw(st.sampled_from(ORIENTATIONS)), draw(st.booleans()), closures)


@settings(max_examples=150, deadline=None)
@given(diagram_requests())
def test_diagram_follows_the_readme_rules(request):
    measures, score, clef, orientation, connect_equal_y, closures = request
    expected = expected_diagram(measures, clef, orientation, connect_equal_y, closures)
    if isinstance(expected, str):
        with pytest.raises(DiagramError, match=re.escape(expected) + "$"):
            diagram_for_score(score, clef, orientation, connect_equal_y, closures)
        return
    diagram = diagram_for_score(score, clef, orientation, connect_equal_y, closures)
    assert json.loads(emit_json(diagram)) == expected

    svg = emit_svg(diagram)
    points = expected["points"]
    assert svg.count("<circle") == sum(1 for p in points if p["y"] is not None)
    assert svg.count('stroke-dasharray="2,6"') == sum(1 for p in points if p["y"] is None)
    segments = sum(len(chain.split()) - 1
                   for chain in re.findall(r'<polyline points="([^"]*)"', svg))
    dashed = svg.count('stroke-dasharray="6,4"')
    assert segments + dashed == len(expected["edges"])
