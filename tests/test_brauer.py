import ast
import random
import sys
import tracemalloc
from collections import Counter
from enum import IntEnum
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import brauer_kit
from brauer_kit.brauer import (
    BrauerConfiguration,
    ConfigError,
    Polygon,
    config_from_words,
    invariants,
    invariants_from_histogram,
    invariants_from_tallies,
    parse_config,
)
from reference import (
    UnknownVertexError,
    build_quiver,
    check_polygons,
    invariants_by_union_find,
    invariants_from_histogram_by_mu,
    parse_config_by_lines,
    successor_sequence,
    valency,
    vertex_universe,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import gen  # noqa: E402

# Keylength-4 split of the worked Vigenere ciphertext OOPAELRIXFGGBWDODDEPK.
VIGENERE_WORDS = [
    ["O", "E", "X", "B", "D", "K"],
    ["O", "L", "F", "W", "D"],
    ["P", "R", "G", "D", "E"],
    ["A", "I", "G", "O", "P"],
]

# Seven-measure staff example: one word per measure, one token per note class.
SLYM_WORDS = [
    ["b8", "f8", "e8", "b8", "d8", "-g8", "e8", "b8"],
    ["-c16", "-g8", "e8", "b16", "f16"],
    ["b16", "f8", "-c8", "a16", "f16"],
    ["b8", "f8", "e8", "b8", "d8", "-g8", "e8", "b8"],
    ["-c8", "-g8", "e8", "b8", "-b8", "-b8", "-g8", "e8"],
    ["b16", "f8", "-c8", "a32"],
    ["b16", "f8", "-c8", "a16", "f16"],
]


def vigenere_config():
    return config_from_words(VIGENERE_WORDS)


def slym_config():
    return config_from_words(SLYM_WORDS)


def loop_count_oracle(config):
    """Independent loop census: a vertex spread over several polygons
    contributes (occurrences - 1) per polygon; a vertex confined to a single
    polygon contributes its frequency there (1 if valency 1)."""
    per_vertex_polys = {}
    for poly in config.polygons:
        for v, f in Counter(poly.word).items():
            per_vertex_polys.setdefault(v, []).append(f)
    loops = 0
    for counts in per_vertex_polys.values():
        if len(counts) == 1:
            loops += max(counts[0], 1)
        else:
            loops += sum(f - 1 for f in counts)
    return loops


def random_config(rng, max_polygons=6, alphabet="abcdefgh"):
    words = []
    for _ in range(rng.randint(1, max_polygons)):
        size = rng.randint(2, 7)
        words.append([rng.choice(alphabet) for _ in range(size)])
    return config_from_words(words)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def test_polygon_rejects_short_word():
    with pytest.raises(ConfigError, match=r"^polygon 1: word length 1 < 2$"):
        config_from_words([["a", "b"], ["a"]])
    with pytest.raises(ConfigError, match=r"^polygon 0: empty vertex label$"):
        config_from_words([["a", ""]])


@pytest.mark.parametrize("label", [5, None, b"x", ["b"]])
def test_a_label_that_is_not_a_string_is_named(label):
    with pytest.raises(ConfigError) as err:
        config_from_words([["a", label]])
    assert str(err.value) == f"polygon 0: vertex label {label!r} is not a string"


class Label(str):
    """A label of a ``str`` subclass: a label like any other."""


def config_error(build):
    """The message of the ConfigError that ``build()`` raises, or None."""
    try:
        build()
    except ConfigError as exc:
        return str(exc)
    return None


@given(st.lists(
    st.lists(
        st.sampled_from(["a", "b", "", 5, None, Label("a"), Label("")]) | st.builds(list),
        max_size=4,
    ),
    max_size=6,
))
def test_constructor_names_the_first_fault_of_the_polygon_loop(words):
    # short words, empty labels, labels that are not strings and labels that
    # cannot be hashed: the constructor and the reference loop raise the
    # same message, or none
    polygons = tuple(Polygon(tuple(word)) for word in words)
    assert config_error(lambda: BrauerConfiguration(polygons)) == config_error(
        lambda: check_polygons(polygons)
    )


def test_polygon_label_must_be_permutation():
    with pytest.raises(ConfigError, match="polygon 1: label is not a permutation of 1..2"):
        parse_config("a b c\nd e label: 1 1\n")
    with pytest.raises(ConfigError, match="polygon 0: label is not a permutation of 1..2"):
        parse_config("a b label:\n")
    # a line error anywhere comes before a label error
    with pytest.raises(ConfigError, match="line 2: polygon needs at least 2 vertices"):
        parse_config("a b label: 1 1\nc\n")
    assert parse_config("a b label: 2 1\n") == parse_config("a b\n")


def test_vertex_universe_order_is_first_occurrence():
    assert vertex_universe(vigenere_config()) == (
        "O", "E", "X", "B", "D", "K", "L", "F", "W", "P", "R", "G", "A", "I",
    )


# ---------------------------------------------------------------------------
# Valency and successor sequences
# ---------------------------------------------------------------------------

def test_valency_vigenere_O():
    assert valency(vigenere_config(), "O") == 3


def test_valency_single_occurrence():
    assert valency(config_from_words([["a", "b"]]), "a") == 1


def test_valency_slym_eighth_b():
    assert valency(slym_config(), "b8") == 7


def test_valency_unknown_vertex():
    with pytest.raises(UnknownVertexError):
        valency(vigenere_config(), "Z")


def test_successor_sequence_vigenere_D():
    seq = successor_sequence(vigenere_config(), "D")
    assert [p for p, _ in seq] == [0, 1, 2]


def test_successor_sequence_valency_one():
    seq = successor_sequence(config_from_words([["a", "b"]]), "b")
    assert seq == ((0, 1),)


def test_successor_sequence_slym_eighth_e():
    seq = successor_sequence(slym_config(), "e8")
    assert [p for p, _ in seq] == [0, 0, 1, 3, 3, 4, 4]


def test_successor_sequence_orders_within_polygon_by_position():
    seq = successor_sequence(config_from_words([["a", "b", "a"]]), "a")
    assert seq == ((0, 0), (0, 2))


# ---------------------------------------------------------------------------
# Quiver
# ---------------------------------------------------------------------------

def test_quiver_vigenere_loops():
    quiver = build_quiver(vigenere_config())
    assert quiver.loop_count == 9
    loop_tags = sorted(a.vertex for a in quiver.arrows if a.source == a.target)
    assert loop_tags == sorted(["A", "L", "R", "I", "X", "F", "B", "W", "K"])


def test_quiver_slym_has_twelve_loops():
    assert build_quiver(slym_config()).loop_count == 12


def test_quiver_single_polygon_aab():
    # Successor order for a is (0,0) < (0,2); both cyclic pairs stay in
    # polygon 0, so a yields 2 loops and valency-1 b yields one more.
    quiver = build_quiver(config_from_words([["a", "a", "b"]]))
    assert quiver.loop_count == 3
    assert len(quiver.arrows) == 3


def test_quiver_arrow_count_formula():
    quiver = build_quiver(vigenere_config())
    # sum of valencies over vertices with val >= 2, plus one per val-1 vertex
    assert len(quiver.arrows) == (3 + 3 + 2 + 2 + 2) + 9


def test_quiver_wraparound_arrow():
    quiver = build_quiver(config_from_words([["a", "b"], ["a", "c"]]))
    a_arrows = [x for x in quiver.arrows if x.vertex == "a"]
    assert {(x.source, x.target) for x in a_arrows} == {(0, 1), (1, 0)}


def test_loop_oracle_on_fixed_configs():
    for cfg in (vigenere_config(), slym_config()):
        assert build_quiver(cfg).loop_count == loop_count_oracle(cfg)


def test_loop_oracle_on_random_configs():
    rng = random.Random(20240917)
    for _ in range(300):
        cfg = random_config(rng)
        assert build_quiver(cfg).loop_count == loop_count_oracle(cfg)


# ---------------------------------------------------------------------------
# Dimensions
# ---------------------------------------------------------------------------

def test_dim_lambda_vigenere():
    assert invariants(vigenere_config()).dim_lambda == 35


def test_dim_lambda_two_singleton_vertices():
    # one polygon "ab": 2*1 + 1*(2-1) + 1*(2-1) = 4
    assert invariants(config_from_words([["a", "b"]])).dim_lambda == 4


def test_dim_lambda_slym():
    assert invariants(slym_config()).dim_lambda == 176


def test_dim_center_vigenere():
    assert invariants(vigenere_config()).dim_center == 14


def test_dim_center_slym():
    assert invariants(slym_config()).dim_center == 20


def test_dim_center_single_polygon():
    # 1 + 1 - 2 + 4 + 2 - 2 = 4
    assert invariants(config_from_words([["a", "b"]])).dim_center == 4


def quiver_components(cfg) -> int:
    """Components of the quiver's underlying graph, by a search over its
    arrows.  Every polygon holding a vertex lies on that vertex's circular
    order, so these are the components of the polygon-vertex incidence
    graph."""
    adjacent = {i: set() for i in range(len(cfg.polygons))}
    for arrow in build_quiver(cfg).arrows:
        adjacent[arrow.source].add(arrow.target)
        adjacent[arrow.target].add(arrow.source)
    unseen = set(adjacent)
    count = 0
    while unseen:
        count += 1
        stack = [unseen.pop()]
        while stack:
            reached = adjacent[stack.pop()] & unseen
            unseen -= reached
            stack.extend(reached)
    return count


def test_is_connected():
    for words, components in (
        (VIGENERE_WORDS, 1),
        ([["a", "b"]], 1),
        ([["a", "b"], ["c", "d"]], 2),
        ([["a", "b"], ["c", "d"], ["b", "e"]], 2),
    ):
        cfg = config_from_words(words)
        assert quiver_components(cfg) == components
        assert invariants(cfg).connected == (components == 1)


def test_connected_through_a_later_polygon():
    # [a b] and [c d] join only through [b c], after both have been counted
    for words in (
        [["a", "b"], ["c", "d"], ["b", "c"]],
        [["a", "b"], ["c", "d"], ["e", "f"], ["d", "e"], ["f", "a"]],
        [["a", "b"], ["c", "d"], ["e", "f"], ["b", "e"], ["c", "a"]],
    ):
        cfg = config_from_words(words)
        assert quiver_components(cfg) == 1
        assert invariants(cfg).connected
    cfg = config_from_words([["a", "b"], ["c", "d"], ["e", "f"], ["b", "c"]])
    assert quiver_components(cfg) == 2
    assert not invariants(cfg).connected


@given(st.lists(
    st.lists(st.sampled_from("abcdefghijkl"), min_size=2, max_size=3),
    min_size=1,
    max_size=8,
))
def test_connected_matches_quiver_search(words):
    # short words over a wide alphabet: often disconnected, often joined
    # only through a later polygon
    cfg = config_from_words(words)
    assert invariants(cfg).connected == (quiver_components(cfg) == 1)


def test_connectivity_settles_at_one_component_holding_every_vertex():
    for words, loops, connected in (
        # [a b] [b c] hold every vertex in one component; a, held once so
        # far, gains its second holder after that
        ("a b / b c / a a / c b", 1, True),
        ("a b / a b / b a", 0, True),  # settled at the first polygon
        # one component forms before c and d appear, in a second component
        ("a b / a b / c d / b c", 1, True),
        ("a b / a b / c d / b c / d d", 1, True),
        ("a b / c d / b e", 4, False),
        ("a b / c d / a b / c d", 0, False),  # every vertex seen, never one component
    ):
        cfg = config_from_words(word.split() for word in words.split(" / "))
        inv = invariants(cfg)
        assert (inv.loops, inv.connected) == (loops, connected)
        assert inv.loops == build_quiver(cfg).loop_count
        assert inv == invariants_by_union_find(cfg)
        assert connected == (quiver_components(cfg) == 1)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 40).flatmap(lambda labels: st.lists(
    st.lists(st.integers(0, labels - 1), min_size=2, max_size=6),
    min_size=1,
    max_size=40,
)))
def test_invariants_match_the_union_find_over_every_polygon(words):
    # few labels settle early, many keep the union-find running to the end
    # or leave the configuration disconnected
    cfg = config_from_words([[f"v{c}" for c in word] for word in words])
    oracle = invariants_by_union_find(cfg)
    assert invariants(cfg) == oracle
    width = max(map(max, words)) + 1
    rows = [[word.count(c) for c in range(width)] for word in words]
    assert invariants_from_tallies(rows) == oracle
    assert oracle.connected == (quiver_components(cfg) == 1)


# ---------------------------------------------------------------------------
# Invariants bundle
# ---------------------------------------------------------------------------

def test_invariants_single_polygon():
    inv = invariants(config_from_words([["a", "b"]]))
    assert (inv.dim_lambda, inv.dim_center, inv.loops) == (4, 4, 2)
    assert inv.valency_histogram == {1: 2}


@given(st.lists(
    st.lists(st.sampled_from("abcdefghijkl"), min_size=2, max_size=7),
    min_size=1,
    max_size=6,
))
def test_invariants_match_dedicated_operations(words):
    # README's formulas evaluated vertex by vertex from the definition-level
    # operations; the alphabet is wide enough for disconnected input,
    # repeated vertices and valency-1 vertices alike
    cfg = config_from_words(words)
    val = {v: len(successor_sequence(cfg, v)) for v in vertex_universe(cfg)}
    mu = {v: 2 if f == 1 else 1 for v, f in val.items()}
    loops = build_quiver(cfg).loop_count
    singletons = sum(1 for f in val.values() if f == 1)
    inv = invariants(cfg)
    assert inv.dim_lambda == 2 * len(words) + sum(f * (f * mu[v] - 1) for v, f in val.items())
    assert inv.dim_center == (
        1 + len(words) - len(val) + sum(mu.values()) + loops - singletons
    )
    assert inv.loops == loops
    assert inv.connected == (quiver_components(cfg) == 1)
    assert (inv.polygon_count, inv.vertex_count) == (len(words), len(val))
    assert inv.valency_histogram == Counter(val.values())


@given(
    st.lists(
        st.lists(st.sampled_from("abcdefghijkl"), min_size=2, max_size=7),
        min_size=1,
        max_size=6,
    ),
    st.randoms(use_true_random=False),
)
def test_invariants_unchanged_by_vertex_renaming(words, rng):
    # a bijective renaming keeps every valency, every polygon's letter
    # frequencies and the polygon-vertex incidence, connected or not; the
    # new names mix old labels with fresh ones
    labels = sorted({v for word in words for v in word})
    pool = labels + [f"x{i}" for i in range(len(labels))]
    rename = dict(zip(labels, rng.sample(pool, len(labels))))
    renamed = config_from_words([[rename[v] for v in word] for word in words])
    assert invariants(renamed) == invariants(config_from_words(words))


def test_invariants_disconnected_flags_center():
    inv = invariants(config_from_words([["a", "b"], ["c", "d"]]))
    assert not inv.connected
    # formula applied verbatim: 1 + 2 - 4 + 8 + 4 - 4
    assert inv.dim_center == 7
    data = inv.to_json_dict()
    assert data["dimCenter"] == 7
    assert data["connected"] is False


def test_invariants_from_histogram_crab():
    inv = invariants_from_histogram(
        13, {1: 12, 2: 3, 3: 2, 4: 1, 5: 2, 9: 2, 11: 3}, loops=32
    )
    assert (inv.dim_lambda, inv.dim_center) == (582, 46)


def test_invariants_from_histogram_rejects_negative_loops():
    with pytest.raises(ConfigError, match="^loop count must be >= 0$"):
        invariants_from_histogram(1, {2: 1}, -5)


def test_invariants_from_histogram_matches_full_computation():
    rng = random.Random(7)
    for _ in range(50):
        cfg = random_config(rng)
        if quiver_components(cfg) != 1:
            continue
        inv = invariants(cfg)
        summary = invariants_from_histogram(
            inv.polygon_count, inv.valency_histogram, inv.loops
        )
        assert summary.dim_lambda == inv.dim_lambda
        assert summary.dim_center == inv.dim_center


# a valency as an int or as the string of ASCII digits a JSON document holds,
# with or without leading zeros; "01" and 1 name one valency, and a second
# key for it is an error
HISTOGRAM_VALENCIES = st.integers(1, 30) | st.builds(
    lambda val, zeros: "0" * zeros + str(val), st.integers(1, 30), st.integers(0, 2)
)


@settings(max_examples=300)
@given(
    st.integers(1, 60),
    st.dictionaries(HISTOGRAM_VALENCIES, st.integers(0, 20), max_size=30),
    st.integers(0, 300),
)
@example(1, {}, 0)                # no vertex at all
@example(1, {1: 20}, 300)         # more loops than any such configuration has
@example(1, {"30": 20, 1: 0}, 0)   # 600 occurrences in one polygon and no loop
def test_invariants_from_histogram_matches_the_paper_form(polygons, histogram, loops):
    # the closed form against the paper's sum over the multiplicities, on
    # histograms whether or not a configuration realizes them
    seen = set()
    for val in histogram:
        if int(val) in seen:
            with pytest.raises(ConfigError) as caught:
                invariants_from_histogram(polygons, histogram, loops)
            assert str(caught.value) == f"valency {val!r} repeats valency {int(val)}"
            return
        seen.add(int(val))
    got = invariants_from_histogram(polygons, histogram, loops)
    want = invariants_from_histogram_by_mu(polygons, histogram, loops)
    assert got == want
    assert list(got.valency_histogram.items()) == list(want.valency_histogram.items())
    assert got.connected is want.connected is True


@pytest.mark.parametrize("args, message", [
    ((2, {1.9: 2, 2: 1}, 1), "valency 1.9 is not an integer"),
    ((2, {2: 1}, 0.5), "loop count 0.5 is not an integer"),
    ((2.5, {2: 1}, 1), "polygon count 2.5 is not an integer"),
    ((2, {"\u0661": 2, " 2": 1}, 1), "valency '\u0661' is not an integer"),
    ((2, {1: 2, " 2": 1}, 1), "valency ' 2' is not an integer"),
    ((2, {"x": 1}, 1), "valency 'x' is not an integer"),
    ((2, {"2": 1.0}, 1), "valency '2': vertex count 1.0 is not an integer"),
    ((1, {0: 1}, 0), "histogram entries must map valency >= 1 to count >= 0"),
    # Python counts a bool as an int; JSON's true is no count
    ((True, {2: 1}, 1), "polygon count True is not an integer"),
    ((2, {2: 1}, False), "loop count False is not an integer"),
    ((2, {True: 2}, 1), "valency True is not an integer"),
    ((2, {"2": True}, 1), "valency '2': vertex count True is not an integer"),
    # two keys that spell one valency would keep only the later count
    ((2, {1: 2, "1": 3}, 1), "valency '1' repeats valency 1"),
    ((2, {"1": 2, "01": 3}, 1), "valency '01' repeats valency 1"),
], ids=[
    "float-valency", "float-loops", "float-polygons", "arabic-indic-digit",
    "space", "letter", "float-count", "valency-zero", "bool-polygons",
    "bool-loops", "bool-valency", "bool-count", "int-and-string-valency",
    "leading-zero-valency",
])
def test_invariants_from_histogram_names_the_fault(args, message):
    with pytest.raises(ConfigError) as caught:
        invariants_from_histogram(*args)
    assert str(caught.value) == message


def tally_words(rows):
    """The words of a tally table: polygon i holds rows[i][c] copies of
    vertex c."""
    return [[f"v{c}" for c, n in enumerate(row) for _ in range(n)] for row in rows]


@given(st.integers(1, 5).flatmap(lambda width: st.lists(
    st.lists(st.integers(0, 3), min_size=width, max_size=width).filter(lambda r: sum(r) >= 2),
    min_size=1,
    max_size=6,
)))
def test_invariants_from_tallies_match_the_listed_words(rows):
    # zero columns are no vertex; a column with one nonzero row closes its
    # circular order there with one loop more
    assert invariants_from_tallies(rows) == invariants(config_from_words(tally_words(rows)))


def test_invariants_from_tallies_read_a_row_of_int_subclasses_as_its_ints():
    # an IntEnum entry is an int that is not exactly one, so _all_ints's fast
    # test fails and its per-entry _is_int test admits it
    Count = IntEnum("Count", {"ONE": 1, "TWO": 2})
    rows = [[Count.TWO, 0, Count.ONE], [1, 1, 1]]
    assert invariants_from_tallies(rows) == invariants_from_tallies([[2, 0, 1], [1, 1, 1]])


def test_invariants_from_tallies_reject_what_a_configuration_rejects():
    with pytest.raises(ConfigError, match=r"^polygon 1: word length 1 < 2$"):
        invariants_from_tallies([[1, 1], [0, 1]])
    with pytest.raises(ConfigError):
        invariants_from_tallies([])


def test_invariants_from_tallies_reject_a_negative_entry():
    # the rows sum to 2 each, but vertex 1 cannot occur -1 times in polygon 0
    with pytest.raises(ConfigError, match=r"^polygon 0: negative occurrence count -1$"):
        invariants_from_tallies([[2, -1, 1], [1, 1, 0]])


def test_invariants_from_tallies_reject_an_entry_that_is_not_an_integer():
    # an entry counts occurrences; 2.5 would give dim Z 5.5 and 2.5 loops
    with pytest.raises(ConfigError, match=r"^polygon 0: occurrence count 2\.5 is not an integer$"):
        invariants_from_tallies([[2.5, 1, 0], [1, 1, 1]])
    with pytest.raises(ConfigError, match=r"^polygon 1: occurrence count '1' is not an integer$"):
        invariants_from_tallies([[1, 1, 1], [1, "1", 1]])
    # Python counts a bool as an int
    with pytest.raises(ConfigError, match=r"^polygon 0: occurrence count True is not an integer$"):
        invariants_from_tallies([[True, True]])


def _int_tests(tree: ast.AST, scope: str):
    """(scope, form) of each test of a type against ``int``: an
    ``isinstance(..., int)`` call, or a set or comparison that holds ``int``
    itself, as in ``{int}.issuperset(map(type, row))`` or ``type(x) is int``."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{scope}.{node.name}"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and any(isinstance(n, ast.Name) and n.id == "int"
                        for n in ast.walk(node.args[1]))):
            yield inner, "isinstance"
        elif isinstance(node, (ast.Set, ast.Compare)) and any(
                isinstance(n, ast.Name) and n.id == "int" for n in ast.iter_child_nodes(node)):
            yield inner, "type"
        yield from _int_tests(node, inner)


def test_every_integer_check_asks_is_int():
    # an inline isinstance(x, int) lets bools through, unlike _is_int; the
    # one C pass over exact ints, which falls back to _is_int, is _all_ints
    found = []
    for path in sorted(Path(brauer_kit.__file__).parent.glob("*.py")):
        found.extend(_int_tests(ast.parse(path.read_text()), path.stem))
    assert sorted(found) == [
        ("brauer._all_ints", "type"),
        ("brauer._is_int", "isinstance"),
    ]


def test_invariants_from_tallies_reject_rows_of_unequal_length():
    # zip(*rows) would cut the columns to the shortest row
    with pytest.raises(ConfigError, match=r"^polygon 1: 2 tallies, expected 3$"):
        invariants_from_tallies([[1, 1, 1], [1, 1]])
    with pytest.raises(ConfigError, match=r"^polygon 2: 4 tallies, expected 3$"):
        invariants_from_tallies([[1, 1, 1], [2, 0, 0], [1, 1, 0, 1]])
    # a table or a row that is not a sequence is named where it is met
    for table in (5, None, (row for row in [[1, 1]])):
        with pytest.raises(ConfigError, match=r"^tally table .* is not a sequence$"):
            invariants_from_tallies(table)
    with pytest.raises(ConfigError, match=r"^polygon 0: tally row 5 is not a sequence$"):
        invariants_from_tallies([5, 6])
    with pytest.raises(ConfigError, match=r"^polygon 1: tally row None is not a sequence$"):
        invariants_from_tallies([[1, 1], None, [1]])
    # a set or a dict row has a length but no order of its own
    with pytest.raises(ConfigError, match=r"^polygon 1: tally row \{5, 7\} is not a sequence$"):
        invariants_from_tallies([[1, 1], {5, 7}])
    with pytest.raises(ConfigError, match=r"^polygon 0: tally row \{0: 2, 1: 2\} is not a sequence$"):
        invariants_from_tallies([{0: 2, 1: 2}, [1, 1]])
    assert invariants_from_tallies([(1, 1), range(2, 4)]) == invariants_from_tallies([[1, 1], [2, 3]])
    with pytest.raises(ConfigError, match=r"^polygon 1: 1 tallies, expected 2$"):
        invariants_from_tallies([[1, 1], [1], 5])


# ---------------------------------------------------------------------------
# Center identity for frequency-one configurations
# ---------------------------------------------------------------------------
# dim Z = m + n + 1 with m polygons and n valency-1 vertices, for connected
# configurations whose polygons hold each vertex once.

def center_identity_sides(words):
    """(dim Z, m + n + 1) of a frequency-one connected configuration."""
    assert all(len(set(word)) == len(word) for word in words)
    inv = invariants(config_from_words(words))
    assert inv.connected
    n = sum(1 for f in Counter(v for word in words for v in word).values() if f == 1)
    return inv.dim_center, len(words) + n + 1


def test_center_identity_vigenere():
    assert center_identity_sides(VIGENERE_WORDS) == (14, 4 + 9 + 1)


def test_center_identity_single_polygon():
    assert center_identity_sides([["a", "b"]]) == (4, 4)
    # a repeated vertex breaks it: dim Z 5 against m + n + 1 = 3
    assert invariants(config_from_words([["a", "a", "b"]])).dim_center == 5


def test_center_identity_random_distinct_words():
    rng = random.Random(13)
    alphabet = "abcdefghij"
    for _ in range(100):
        words = []
        for i in range(rng.randint(1, 5)):
            size = rng.randint(2, 6)
            word = rng.sample(alphabet, size)
            if i > 0 and words:
                word[0] = words[-1][-1]  # keep the incidence graph connected
                if len(set(word)) < len(word):
                    word = list(dict.fromkeys(word))
                    if len(word) < 2:
                        word.append(next(c for c in alphabet if c not in word))
            words.append(word)
        dim_z, claimed = center_identity_sides(words)
        assert dim_z == claimed


# ---------------------------------------------------------------------------
# Structural properties
# ---------------------------------------------------------------------------

words_strategy = st.lists(
    st.lists(st.sampled_from("abcde"), min_size=2, max_size=6),
    min_size=1,
    max_size=5,
)


@given(words_strategy)
def test_valency_sum_equals_total_word_length(words):
    cfg = config_from_words(words)
    total = sum(valency(cfg, v) for v in vertex_universe(cfg))
    assert total == sum(len(w) for w in words)


@given(words_strategy, st.randoms(use_true_random=False))
def test_dim_invariant_under_word_shuffle(words, rng):
    cfg = config_from_words(words)
    shuffled = []
    for w in words:
        w = list(w)
        rng.shuffle(w)
        shuffled.append(w)
    cfg2 = config_from_words(shuffled)
    assert invariants(cfg).dim_lambda == invariants(cfg2).dim_lambda
    assert build_quiver(cfg).loop_count == build_quiver(cfg2).loop_count
    if quiver_components(cfg) == 1:
        assert invariants(cfg).dim_center == invariants(cfg2).dim_center


@given(words_strategy)
def test_deleting_polygon_never_increases_valency(words):
    cfg = config_from_words(words)
    if len(words) < 2:
        return
    smaller = config_from_words(words[:-1])
    for v in vertex_universe(smaller):
        assert valency(smaller, v) <= valency(cfg, v)


@given(words_strategy)
def test_dim_lambda_lower_bound(words):
    cfg = config_from_words(words)
    assert invariants(cfg).dim_lambda >= 2 * len(words)


@given(words_strategy)
def test_center_equals_one_plus_polygons_plus_loops(words):
    # Consequence of the fixed multiplicity rule: the mu-sum cancels the
    # vertex count against the valency-1 census.
    cfg = config_from_words(words)
    if quiver_components(cfg) != 1:
        return
    assert invariants(cfg).dim_center == 1 + len(cfg.polygons) + build_quiver(cfg).loop_count


# ---------------------------------------------------------------------------
# Config file format
# ---------------------------------------------------------------------------

def test_parse_config_round_trip():
    text = "O E X B D K\nO L F W D\nP R G D E\nA I G O P\n"
    cfg = parse_config(text)
    assert cfg == vigenere_config()


def test_parse_config_comments_and_labels():
    cfg = parse_config("# two polygons\na b c label: 3 1 2\nb d # trailing\n")
    assert [p.word for p in cfg.polygons] == [("a", "b", "c"), ("b", "d")]


def test_parse_config_label_suffix_starts_at_a_token():
    # only a token that starts with "label:" begins the suffix
    assert [p.word for p in parse_config("a b xlabel: 2 1 3\n").polygons] == [
        ("a", "b", "xlabel:", "2", "1", "3")
    ]
    assert parse_config("a b label:2 1\n") == parse_config("a b\n")
    assert parse_config("a\tb\tlabel:\t2 1\n") == parse_config("a b\n")
    with pytest.raises(ConfigError, match="line 1: malformed label permutation"):
        parse_config("a b label: 1 label: 2\n")


@pytest.mark.parametrize("number", ["\u0663", "+1", "1_0", "-1"])
def test_parse_config_label_takes_ascii_digits_only(number):
    # int() would read each of these as a number
    with pytest.raises(ConfigError, match="^line 1: malformed label permutation$"):
        parse_config(f"a b c label: 2 3 {number}\n")


def test_parse_config_breaks_lines_only_at_newline():
    # form feed, NEL and U+2028 separate vertices, not polygons
    for sep in ["\x0c", "\x85", "\u2028"]:
        cfg = parse_config(f"a b{sep}c d\ne f\n")
        assert [p.word for p in cfg.polygons] == [("a", "b", "c", "d"), ("e", "f")]
    with pytest.raises(ConfigError, match="line 3: polygon needs at least 2 vertices"):
        parse_config("a\x0cb\nc d\ne\n")


def test_parse_config_rejects_bad_label():
    with pytest.raises(ConfigError) as err:
        parse_config("a b label: 1 1\n")
    assert str(err.value) == "polygon 0: label is not a permutation of 1..2"


def test_parse_config_rejects_short_line():
    with pytest.raises(ConfigError) as err:
        parse_config("a\n")
    assert str(err.value) == "line 1: polygon needs at least 2 vertices"


def test_parse_config_rejects_empty():
    with pytest.raises(ConfigError) as err:
        parse_config("# nothing here\n")
    assert str(err.value) == "no polygons found"


def test_parse_config_fault_order():
    # within a line a malformed permutation comes first; a label suffix alone
    # is a short polygon, not a blank line; polygons are counted, not lines
    for text, message in [
        ("a b\nc label: x\n", "line 2: malformed label permutation"),
        ("a b\nlabel: 1 2\n", "line 2: polygon needs at least 2 vertices"),
        ("x y # c\nlabel: 1 2\n", "line 2: polygon needs at least 2 vertices"),
        ("# a b\n\n", "no polygons found"),
        ("\na b\n\nc d label: 2 2\n", "polygon 1: label is not a permutation of 1..2"),
    ]:
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value) == message
    # '#' cuts inside a word; "xlabel:" is a vertex
    assert [p.word for p in parse_config("a b#c d\nxlabel: e\n").polygons] == [
        ("a", "b"), ("xlabel:", "e"),
    ]


CONFIG_TOKENS = ["a", "b", "xlabel:", "label:", "1", "2", "3", "\u0663", "-1", "#"]
CONFIG_SPACES = [" ", "\t", "\r", "\x0c", "\x85", "\u2028"]


@st.composite
def config_lines(draw):
    """Lines of tokens, many of them with a label suffix that permutes the
    line's token positions or one position more, so that whole files parse
    or fail only at a polygon's label."""
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        tokens = draw(st.lists(st.sampled_from(CONFIG_TOKENS), max_size=4))
        if draw(st.booleans()):
            n = len(tokens) + draw(st.integers(0, 1))
            tokens += ["label:", *map(str, draw(st.permutations(range(1, n + 1))))]
        lines.append(draw(st.sampled_from(CONFIG_SPACES)).join(tokens))
    return "\n".join(lines)


CONFIG_TEXTS = st.one_of(
    config_lines(),
    st.lists(st.sampled_from(CONFIG_TOKENS + CONFIG_SPACES + ["\n"]), max_size=40).map("".join),
)


def config_outcome(parse, text):
    try:
        return parse(text)
    except ConfigError as err:
        return str(err)


@settings(max_examples=400)
@given(CONFIG_TEXTS)
def test_parse_config_matches_line_reader(text):
    cfg = config_outcome(parse_config, text)
    assert cfg == config_outcome(parse_config_by_lines, text)
    if not isinstance(cfg, str):
        # the constructor's check that parse_config skips could not have failed
        assert cfg == BrauerConfiguration(cfg.polygons)


def test_parse_config_peak_memory_is_the_line_readers():
    text = gen.config_input(7, 1_000)["text"]

    def peak(parse):
        parse(text)  # a first call leaves nothing behind to count
        tracemalloc.start()
        try:
            parse(text)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(parse_config) <= 1.05 * peak(parse_config_by_lines)
