import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from brauer_kit.brauer import (
    ConfigError,
    UnknownVertexError,
    build_quiver,
    config_from_words,
    invariants,
    invariants_from_histogram,
    parse_config,
    successor_sequence,
    valency,
)

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
    assert vigenere_config().vertex_universe == (
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
    val = {v: len(successor_sequence(cfg, v)) for v in cfg.vertex_universe}
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
    total = sum(valency(cfg, v) for v in cfg.vertex_universe)
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
    for v in smaller.vertex_universe:
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


def test_parse_config_breaks_lines_only_at_newline():
    # form feed, NEL and U+2028 separate vertices, not polygons
    for sep in ["\x0c", "\x85", "\u2028"]:
        cfg = parse_config(f"a b{sep}c d\ne f\n")
        assert [p.word for p in cfg.polygons] == [("a", "b", "c", "d"), ("e", "f")]
    with pytest.raises(ConfigError, match="line 3: polygon needs at least 2 vertices"):
        parse_config("a\x0cb\nc d\ne\n")


def test_parse_config_rejects_bad_label():
    with pytest.raises(ConfigError):
        parse_config("a b label: 1 1\n")


def test_parse_config_rejects_short_line():
    with pytest.raises(ConfigError):
        parse_config("a\n")


def test_parse_config_rejects_empty():
    with pytest.raises(ConfigError):
        parse_config("# nothing here\n")
