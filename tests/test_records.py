"""The package's nine records are named tuples.  Each keeps its field names
and order, its repr, equality and hashing by fields, its immutability and
its checks with their messages; as a tuple it also equals the plain tuple of
its fields, and its ``_make`` and ``_replace`` work.  A record built with
``_make`` or ``_replace`` skips its checks, so each place in the package
that does so names the test that shows the checks could not have failed.
Every record that a public producer returns, on inputs of its own domain,
and every record nested in it, is rebuilt by its constructor unchanged."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import brauer_kit
from brauer_kit.brauer import (
    AlgebraInvariants,
    BrauerConfiguration,
    ConfigError,
    Polygon,
    config_from_words,
    invariants,
    invariants_from_tallies,
    parse_config,
)
from brauer_kit.cipher import LETTERS, CipherError
from brauer_kit.coincidence import (
    KeyCandidate,
    KeyLengthCandidate,
    KeyRecovery,
    friedman_keylength,
    friedman_recover_key,
)
from brauer_kit.diagram import (
    ORIENTATIONS,
    ClassPoint,
    DiagramError,
    PointDiagram,
    diagram_for_score,
)
from brauer_kit.score import CLEFS, Score, ScoreError, parse_score, score_to_config

# name -> (build, field names, repr, hashable, [(bad arguments, error, message)]);
# each call of build makes a new record from new, equal values
RECORDS = {
    "Polygon": (
        lambda: Polygon(("a", "b")),
        ("word",),
        "Polygon(word=('a', 'b'))",
        True,
        [],
    ),
    "BrauerConfiguration": (
        lambda: BrauerConfiguration((Polygon(("a", "b")), Polygon(("b", "c")))),
        ("polygons",),
        "BrauerConfiguration(polygons=(Polygon(word=('a', 'b')), Polygon(word=('b', 'c'))))",
        True,
        [
            (((),), ConfigError, "configuration has no polygons"),
            (((Polygon(("a", "b")), Polygon(("c",))),), ConfigError,
             "polygon 1: word length 1 < 2"),
            (((Polygon(("a", "")),),), ConfigError, "polygon 0: empty vertex label"),
            (((Polygon(("a", ["b"])),),), ConfigError,
             "polygon 0: vertex label ['b'] is not a string"),
            ((5,), ConfigError, "5 is not a sequence of polygons"),
            ((None,), ConfigError, "None is not a sequence of polygons"),
            ((iter(()),), ConfigError, "configuration has no polygons"),
        ],
    ),
    "AlgebraInvariants": (
        lambda: AlgebraInvariants(8, 4, 1, 2, 3, {1: 2, 2: 1}),
        ("dim_lambda", "dim_center", "loops", "polygon_count", "vertex_count",
         "valency_histogram", "connected"),
        "AlgebraInvariants(dim_lambda=8, dim_center=4, loops=1, polygon_count=2, "
        "vertex_count=3, valency_histogram={1: 2, 2: 1}, connected=True)",
        False,  # the histogram is a dict
        [],
    ),
    "KeyLengthCandidate": (
        lambda: KeyLengthCandidate(2, (Fraction(1, 15), Fraction(1, 16)), Fraction(1, 480),
                                   True, (4,), ((1, 2), (3, 4))),
        ("m", "per_list_ioc", "score", "flagged", "related", "counts"),
        "KeyLengthCandidate(m=2, per_list_ioc=(Fraction(1, 15), Fraction(1, 16)), "
        "score=Fraction(1, 480), flagged=True, related=(4,), counts=((1, 2), (3, 4)))",
        True,
        [],
    ),
    "KeyCandidate": (
        lambda: KeyCandidate("AB", 1.0),
        ("key", "chi2"),
        "KeyCandidate(key='AB', chi2=1.0)",
        True,
        [],
    ),
    "KeyRecovery": (
        lambda: KeyRecovery(((0, 1, 25),), (), (KeyCandidate("AB", 1.0),)),
        ("differences", "residuals", "candidates"),
        "KeyRecovery(differences=((0, 1, 25),), residuals=(), "
        "candidates=(KeyCandidate(key='AB', chi2=1.0),))",
        True,
        [],
    ),
    "ClassPoint": (
        lambda: ClassPoint("r4", None),
        ("label", "y"),
        "ClassPoint(label='r4', y=None)",
        True,
        [],
    ),
    "PointDiagram": (
        lambda: PointDiagram((ClassPoint("e4", 0), ClassPoint("g4", 2)), ((0, 1),),
                             "standard", ()),
        ("points", "edges", "orientation", "closures"),
        "PointDiagram(points=(ClassPoint(label='e4', y=0), ClassPoint(label='g4', y=2)), "
        "edges=((0, 1),), orientation='standard', closures=())",
        True,
        [],
    ),
    "Score": (
        lambda: Score((("e4", "g4"),)),
        ("measures", "clef", "time", "warnings"),
        "Score(measures=(('e4', 'g4'),), clef='treble', time=None, warnings=())",
        True,
        [
            (((),), ScoreError, "a score needs at least one measure"),
            (((("e4", "g4"),), "tenor"), ScoreError, "unknown clef 'tenor'"),
            (((("e4", "h8"),),), ScoreError, "foreign vertex label 'h8'"),
            (((("c1.", "g4"),),), ScoreError, "a sixty-fourth value cannot be dotted"),
            (((("e4", ["g4"]),),), ScoreError, "foreign vertex label ['g4']"),
            ((5,), ScoreError, "5 is not a sequence of measures"),
            (((("e4", "g4"),), "treble", (4, 3)), ScoreError, "unsupported time signature 4/3"),
            (((("e4", "g4"),), "treble", "x"), ScoreError, "unsupported time signature 'x'"),
            (((("e4", "g4"),), ["treble"]), ScoreError, "unknown clef ['treble']"),
            # the faults come in order: the measures, their tokens, the clef, the time
            (((), "tenor"), ScoreError, "a score needs at least one measure"),
            (((("h8", "g4"),), "tenor", (4, 3)), ScoreError, "foreign vertex label 'h8'"),
            (((("e4", "g4"),), "tenor", (4, 3)), ScoreError, "unknown clef 'tenor'"),
            (((("e4", "g4"),), "treble", (4, 3), 5), ScoreError, "unsupported time signature 4/3"),
            # warnings are a tuple or a list of strings
            (((("e4", "g4"),), "treble", None, 5), ScoreError, "warnings 5 are not a tuple of strings"),
            (((("e4", "g4"),), "treble", None, "w"), ScoreError,
             "warnings 'w' are not a tuple of strings"),
            (((("e4", "g4"),), "treble", None, ["w", 1]), ScoreError,
             "warnings ['w', 1] are not a tuple of strings"),
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_keeps_its_fields_repr_equality_immutability_and_checks(name):
    build, fields, text, hashable, bad = RECORDS[name]
    record, twin = build(), build()
    assert type(record).__name__ == name
    assert record._fields == fields
    assert repr(record) == text
    assert record == twin and not record != twin
    assert record == tuple(getattr(record, field) for field in fields)
    assert len(record) == len(fields)
    assert type(record)._make(record) == record
    assert record._replace() == record
    if hashable:
        assert hash(record) == hash(twin)
    else:
        with pytest.raises(TypeError):
            hash(record)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert record == twin
    for args, error, message in bad:
        with pytest.raises(error) as err:
            type(record)(*args)
        assert str(err.value) == message


@pytest.mark.parametrize("time, warnings, stored", [
    ([4, 4], (), ((4, 4), ())),
    (iter((4, 4)), (), ((4, 4), ())),
    ((2, 2), ["w"], ((2, 2), ("w",))),
    (None, ("w", "v"), (None, ("w", "v"))),
])
def test_every_score_the_constructor_admits_can_be_hashed(time, warnings, stored):
    # the time is kept as the pair (n, 2^m) and the warnings as a tuple, as
    # parse_score keeps them, whatever held them
    score = Score((("c4", "d4"),), "treble", time, warnings)
    assert (score.time, score.warnings) == stored
    assert hash(score) == hash(Score._make(((("c4", "d4"),), "treble", *stored)))


@pytest.mark.parametrize("polygons", [
    [Polygon(("a", "b")), Polygon(("b", "c"))],
    (polygon for polygon in [Polygon(("a", "b")), Polygon(("b", "c"))]),
    [Polygon(["a", "b"]), Polygon("bc")],
], ids=["list", "generator", "words-not-tuples"])
def test_every_configuration_the_constructor_admits_can_be_hashed(polygons):
    # the polygons and each word are kept as tuples, as parse_config keeps
    # them, and a generator is read once, not stored spent
    config = BrauerConfiguration(polygons)
    stored = (Polygon(("a", "b")), Polygon(("b", "c")))
    assert config.polygons == stored
    assert hash(config) == hash(BrauerConfiguration._make((stored,)))
    assert invariants(config) == invariants(BrauerConfiguration._make((stored,)))


# "module.function" -> the test that shows, over the function's whole input
# domain, that the record's constructor would accept what it builds
UNCHECKED_BUILDS = {
    # its property compares the record with the one the constructor builds
    "brauer.parse_config": "test_brauer.py::test_parse_config_matches_line_reader",
    # AlgebraInvariants has no checks; the union-find oracle builds the record
    # with its constructor, and the property compares the two
    "brauer._incidence": "test_brauer.py::test_invariants_match_the_union_find_over_every_polygon",
    # its property compares the score with the one the reference parser
    # builds with the constructor
    "score.parse_score": "test_score.py::test_parser_matches_reference",
    # a Score passed its own door, so only a short measure can fail; the
    # property rebuilds every record it returns with the constructors
    "score.score_to_config": "test_records.py::test_every_produced_record_passes_its_constructor",
}


def _unchecked_builds(tree: ast.AST, scope: str):
    """The scopes that hold a ``._make(`` or ``._replace(`` call, one per call."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{scope}.{node.name}"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("_make", "_replace")):
            yield inner
        yield from _unchecked_builds(node, inner)


def test_every_record_built_without_its_checks_names_its_covering_test():
    found = set()
    for path in Path(brauer_kit.__file__).parent.glob("*.py"):
        found.update(_unchecked_builds(ast.parse(path.read_text()), path.stem))
    assert found == set(UNCHECKED_BUILDS)
    for covering in UNCHECKED_BUILDS.values():
        file, name = covering.split("::")
        assert f"\ndef {name}(" in (Path(__file__).parent / file).read_text()


# Each public producer's inputs, drawn from its own domain: mostly valid
# ones, and ones with its faults.
LABELS = st.sampled_from(["a", "b", "c", "d", "a1"])
VALID_WORDS = st.lists(st.lists(LABELS, min_size=2, max_size=5), min_size=1, max_size=5)
WORDS = st.one_of(
    VALID_WORDS, st.lists(st.lists(st.one_of(LABELS, st.just("")), max_size=5), max_size=5))
CONFIG_TEXTS = st.one_of(
    WORDS.map(lambda words: "\n".join(map(" ".join, words))),
    st.lists(st.lists(st.sampled_from(["a", "b", "label:", "1", "2", "#", "\u0663"]),
                      max_size=6).map(" ".join), max_size=5).map("\n".join),
)
CLASS_TOKENS = st.sampled_from(["c4", "-d8", "+e16", "=f2", "g64", "a32.", "r4", "b16", "c1"])
MEASURES = st.lists(st.lists(CLASS_TOKENS, min_size=2, max_size=5).map(tuple), min_size=1,
                    max_size=5).map(tuple)
SCORE_TEXTS = st.one_of(
    MEASURES.map(lambda measures: "".join("| " + " ".join(m) + "\n" for m in measures)),
    st.lists(st.one_of(CLASS_TOKENS, st.sampled_from(
        ["|", "(", ")", "[", "]", "{", "}x2", "}x0", "time=4/4", "clef=bass", "c1.", "h4"])),
        max_size=24).map(" ".join),
)
SCORES = st.builds(Score, MEASURES, st.sampled_from(sorted(CLEFS)))
TALLIES = st.integers(1, 5).flatmap(lambda width: st.one_of(
    st.lists(st.lists(st.integers(0, 3), min_size=width, max_size=width).filter(
        lambda row: sum(row) >= 2), min_size=1, max_size=5),
    st.lists(st.lists(st.integers(-1, 3), min_size=width, max_size=width), max_size=5),
))
CIPHERS = st.one_of(st.text(LETTERS[:8], min_size=24, max_size=200),
                    st.text(LETTERS[:6] + "a", max_size=30))
COUNTS = st.lists(st.lists(st.integers(0, 9), min_size=26, max_size=26), min_size=1, max_size=5)

# name -> (producer, strategy of its arguments, records every result holds)
PRODUCERS = {
    "parse_config": (parse_config, st.tuples(CONFIG_TEXTS), {"BrauerConfiguration", "Polygon"}),
    "config_from_words": (config_from_words, st.tuples(WORDS),
                          {"BrauerConfiguration", "Polygon"}),
    "parse_score": (parse_score, st.tuples(SCORE_TEXTS, st.booleans()), {"Score"}),
    "score_to_config": (score_to_config, st.tuples(st.one_of(
        SCORES, SCORE_TEXTS.map(lambda text: parse_score(text, strict=False)))),
        {"BrauerConfiguration", "Polygon"}),
    "invariants": (invariants, st.tuples(VALID_WORDS.map(config_from_words)),
                   {"AlgebraInvariants"}),
    "invariants_from_tallies": (invariants_from_tallies, st.tuples(TALLIES),
                                {"AlgebraInvariants"}),
    "friedman_keylength": (friedman_keylength, st.tuples(CIPHERS, st.integers(0, 12)),
                           {"KeyLengthCandidate"}),
    "friedman_recover_key": (friedman_recover_key, st.tuples(COUNTS),
                             {"KeyRecovery", "KeyCandidate"}),
    "diagram_for_score": (diagram_for_score, st.tuples(
        SCORES, st.sampled_from([None, *sorted(CLEFS)]), st.sampled_from(ORIENTATIONS),
        st.booleans(), st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=3)),
        {"PointDiagram", "ClassPoint"}),
}


def _records(value):
    """Every record in ``value``, itself included, within tuples and lists."""
    if hasattr(value, "_fields"):
        yield value
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from _records(item)


@pytest.mark.parametrize("name", sorted(PRODUCERS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_produced_record_passes_its_constructor(name, data):
    produce, arguments, kinds = PRODUCERS[name]
    try:
        result = produce(*data.draw(arguments))
    except (CipherError, ConfigError, DiagramError, ScoreError):
        return
    records = list(_records(result))
    assert kinds <= {type(r).__name__ for r in records}
    for record in records:
        assert type(record)(*record) == record
