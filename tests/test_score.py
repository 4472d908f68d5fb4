import itertools
import random
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from brauer_kit.brauer import config_from_words, invariants
from brauer_kit.score import (
    MAX_EVENTS,
    _CLASSES,
    _PLAIN,
    _SYMBOLS,
    Score,
    ScoreError,
    ScoreParseError,
    class_parts,
    config_to_message,
    measure_target,
    parse_score,
    score_to_config,
)

import textgen
from reference import (
    class_parts_by_regex,
    parse_score_by_group_list,
    tokenize_by_regex,
    valency,
    vertex_universe,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import gen  # noqa: E402

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "brauer_kit" / "fixtures"

SLYM = (FIXTURES / "slym.bsc").read_text()

# Valid note and rest tokens, each its own canonical label.
TOKENS = ("c4", "-d8", "+e16", "=f2", "g64", "a32.", "b1", "r4", "r16.", "-b16")


def measure_sum(tokens) -> int:
    """Effective exponent sum of one measure's tokens."""
    return sum(class_parts(t)[1] for t in tokens)


# ---------------------------------------------------------------------------
# Tokens and events
# ---------------------------------------------------------------------------

def test_event_foreign_label_rejected():
    for label in ["h8", "g3", "g", "rr8", "-r8", "O", "", "b8 ", "b8\n"]:
        with pytest.raises(ScoreError, match="foreign vertex label"):
            class_parts(label)
    # a label that is not a string, hashable or not, is named
    for label, text in [(["c4"], "['c4']"), (5, "5"), (None, "None")]:
        with pytest.raises(ScoreError) as err:
            class_parts(label)
        assert str(err.value) == f"foreign vertex label {text}"


def outcome(check, *args):
    """The message of the ScoreError that ``check(*args)`` raises, or None."""
    try:
        check(*args)
    except ScoreError as exc:
        return str(exc)
    return None


@given(st.sampled_from(sorted(_CLASSES)) | st.text(max_size=4)
       | st.sampled_from(["h8", "c3", "b8\n", "-r8", "c4 "]), st.integers(0, 2))
def test_score_door_accepts_exactly_the_class_tokens(label, at):
    # the door walks every label through class_parts: a score holding it
    # is built, or fails with class_parts's own message
    measure = ["c4", "d8"]
    measure.insert(at, label)
    assert outcome(Score, (("e4", "f4"), measure)) == outcome(class_parts, label)
    if label:  # an empty label is the configuration's own fault
        config = config_from_words([["e4", "f4"], measure])
        assert outcome(config_to_message, config) == outcome(class_parts, label)


def test_dotted_effective_exponent():
    assert class_parts("b16.") == ("b", 24)
    assert class_parts("-b16") == ("b", 16)
    assert class_parts("r8.") == (None, 12)


def test_dotting_sixty_fourth_rejected():
    for label in ["a1.", "r1."]:
        with pytest.raises(ScoreError, match="a sixty-fourth value cannot be dotted"):
            class_parts(label)
    with pytest.raises(ScoreParseError) as err:
        parse_score("time=4/4\n| c16 c16 c16 c8 a1. c4\n")
    assert str(err.value) == "line 2, column 18: a sixty-fourth value cannot be dotted"


def test_accidental_variants_are_distinct_classes():
    config = score_to_config(parse_score("| g8 -g8 +g8 =g8 g8"))
    assert vertex_universe(config) == ("g8", "-g8", "+g8", "=g8")


# Pieces of class tokens and of near misses, so joined strings often parse.
PIECES = ("-", "+", "=", "a", "g", "h", "r", ".", "0", "1", "2", "3", "4", "6", "8",
          "16", "32", "64", "9")


@given(st.lists(st.sampled_from(PIECES), max_size=5).map("".join))
def test_parser_and_class_parts_share_one_grammar(s):
    try:
        parts = class_parts(s)
    except ScoreError:
        parts = None
    try:
        measures = parse_score("| " + s).measures
    except ScoreError:
        measures = None
    assert (measures == ((s,),)) == (parts is not None)
    if parts is not None:
        letter = s.lstrip("-+=")[0]
        digits = int(s.lstrip("-+=abcdefgr").rstrip("."))
        assert parts == (None if letter == "r" else letter,
                         digits * 3 / 2 if s.endswith(".") else digits)


def parts_outcome(parts, word):
    try:
        return parts(word)
    except ScoreError as exc:
        return type(exc), str(exc)


def test_class_table_matches_reference():
    # every class token and dotted sixty-fourth, near misses in each of the
    # four slots, and every word of up to three pieces
    slots = itertools.product(
        ("", "-", "+", "=", "#"), "abcdefghr",
        ("64", "32", "16", "8", "4", "2", "1", "3", "0", "128", ""), ("", ".", ".."),
    )
    pieces = (p for n in range(4) for p in itertools.product(PIECES, repeat=n))
    for word in map("".join, itertools.chain(slots, pieces)):
        assert parts_outcome(class_parts, word) == parts_outcome(class_parts_by_regex, word)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_slym_fixture():
    score = parse_score(SLYM)
    assert len(score.measures) == 7
    assert score.clef == "bass"
    assert score.time == (2, 2)
    assert all(measure_sum(m) == 64 for m in score.measures)


def test_parse_single_measure():
    score = parse_score("clef=treble time=4/4 | c16 c16 c16 c16")
    assert len(score.measures) == 1
    assert measure_sum(score.measures[0]) == 64


def test_parse_strict_duration_error():
    with pytest.raises(ScoreParseError) as err:
        parse_score("clef=treble time=4/4 | c16 c16")
    assert "sums to 32" in str(err.value)


def test_parse_lax_collects_warning():
    score = parse_score("clef=treble time=4/4 | c16 c16", strict=False)
    assert len(score.warnings) == 1
    assert "measure 1" in score.warnings[0]


def test_parse_without_time_skips_duration_check():
    score = parse_score("| c16 c16")
    assert score.warnings == ()
    assert score.time is None


def test_parse_unknown_token_position():
    with pytest.raises(ScoreParseError) as err:
        parse_score("clef=bass\n| b8 q9 e8")
    assert err.value.line == 2
    assert "q9" in str(err.value)


def test_parse_unclosed_group():
    for text, message in [
        ("| [ b8 f8", "line 1, column 3: unclosed group (bracket)"),
        # the oldest open group of any kind is named, the oldest of its kind too
        ("| ( c4 [ c4 ] { c4", "line 1, column 3: unclosed group (paren)"),
        ("| { c4 ( c4", "line 1, column 3: unclosed group (brace)"),
        ("| ( c4 ( c4", "line 1, column 3: unclosed group (paren)"),
    ]:
        with pytest.raises(ScoreParseError) as err:
            parse_score(text)
        assert str(err.value) == message


def test_parse_unmatched_close():
    for text, message in [
        ("| b8 ] f8", "line 1, column 6: unmatched closing bracket"),
        # a closer never ends a group of another kind
        ("| ( c4 ]", "line 1, column 8: unmatched closing bracket"),
        ("| [ c4 }x2 ]", "line 1, column 8: unmatched closing brace"),
    ]:
        with pytest.raises(ScoreParseError) as err:
            parse_score(text)
        assert str(err.value) == message


def test_parse_empty_measure_rejected():
    with pytest.raises(ScoreParseError) as err:
        parse_score("| b8 f8 | | e8 f8")
    assert "empty measure" in str(err.value)


def test_parse_group_spanning_measures():
    score = parse_score("| b8 ( b8 | b8 ) f8")
    assert score.measures == (("b8", "b8"), ("b8", "f8"))


def test_parse_interleaved_group_kinds():
    # a slur opened in the previous measure may close inside a bracket
    score = parse_score("| ( b16 b16 | [ b8 ) f8 e8 =g8 ]")
    assert len(score.measures) == 2
    # a closer ends the newest open group of its own kind, so kinds may cross
    assert parse_score("| ( [ c4 ) ]").measures == (("c4",),)


def test_parse_brace_repeats_contents():
    score = parse_score("| { c16 d16 }x2")
    assert score.measures == (("c16", "d16", "c16", "d16"),)


def test_parse_brace_must_close_in_measure():
    with pytest.raises(ScoreParseError):
        parse_score("| { c16 d16 | c16 }x2")


def test_parse_bracket_must_close_in_measure():
    # a bracket group holds elements of one measure; a brace open at the
    # same bar is reported first, with its own message
    with pytest.raises(ScoreParseError) as err:
        parse_score("| c8 [ d8 | e8 ]")
    assert str(err.value) == "line 1, column 6: bracket group must close inside its measure"
    with pytest.raises(ScoreParseError) as err:
        parse_score("| [ c8 { d8\n| e8 }x2 ]")
    assert str(err.value) == "line 1, column 8: repeat group must close inside its measure"
    assert len(parse_score("| ( [ c8 ] | e8 )").measures) == 2


def test_parse_header_after_content_rejected():
    with pytest.raises(ScoreParseError):
        parse_score("| c16 c16 clef=bass")


def test_parse_bad_time_signature():
    with pytest.raises(ScoreParseError):
        parse_score("time=4/3 | c16 c16")


def test_time_signature_takes_ascii_digits_only():
    with pytest.raises(ScoreParseError) as err:
        parse_score("time=\u0664/\u0664 | c16 c16")  # Arabic-Indic 4/4
    assert str(err.value) == "line 1, column 1: malformed time signature '\u0664/\u0664'"


def test_repeat_count_takes_ascii_digits_only():
    with pytest.raises(ScoreParseError) as err:
        parse_score("| { a4 }x\u0663")  # Arabic-Indic 3
    assert str(err.value) == "line 1, column 8: unknown token '}x\u0663'"


def test_parse_repeat_over_target_builds_no_copies():
    # the repeat limit fails at its }xN token, before the measure sum is
    # checked; the three million copies are never built
    tracemalloc.start()
    try:
        with pytest.raises(ScoreParseError) as err:
            parse_score("time=4/4 | {c64}x3000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == (
        f"line 1, column 16: repeat group expands the score past {MAX_EVENTS} events"
    )
    assert peak < 1_000_000


def test_parse_repeat_over_target_keeps_error_order():
    # the limit error comes where it is met: after an earlier token error,
    # before a later token error and before any measure-sum error
    with pytest.raises(ScoreParseError, match="line 1, column 12: unknown token 'h4'"):
        parse_score("time=4/4 | h4 | {c64}x3000000")
    limit = f"line 1, column 16: repeat group expands the score past {MAX_EVENTS} events"
    with pytest.raises(ScoreParseError) as err:
        parse_score("time=4/4 | {c64}x3000000 | h4")
    assert str(err.value) == limit
    with pytest.raises(ScoreParseError) as err:
        parse_score("time=4/4 | c16 | {c64}x3000000")
    assert str(err.value) == limit.replace("column 16", "column 22")
    # the sum of a repeat around an unexpanded repeat is still exact
    with pytest.raises(ScoreParseError, match="measure 1 sums to 432, "):
        parse_score("time=4/4 | {c16 {c64}x3}x2 c16")


def test_parse_repeat_lax_still_expands():
    score = parse_score("time=4/4 | { c64 }x3 c16", strict=False)
    assert score.measures == (("c64",) * 3 + ("c16",),)
    assert score.warnings == ("measure 1 sums to 208, expected 64 for 4/4",)


def test_parse_repeat_count_zero():
    with pytest.raises(ScoreParseError) as err:
        parse_score("| { c4 d4 }x0")
    assert str(err.value) == "line 1, column 11: repeat count must be >= 1"


def test_parse_repeat_count_too_large():
    with pytest.raises(ScoreParseError, match="repeat count is too large"):
        parse_score("| { c16 }x" + "9" * 5000)


def test_parse_repeat_limit():
    # a score holds at most MAX_EVENTS events once its repeats are expanded;
    # the error names the }xN token that would pass the limit
    score = parse_score("| c4 {c4}x999999")
    assert sum(map(len, score.measures)) == MAX_EVENTS
    with pytest.raises(ScoreParseError) as err:
        parse_score("| c4 c4\n| {c4}x999999 { c4 }x2", strict=False)
    assert str(err.value) == (
        f"line 2, column 6: repeat group expands the score past {MAX_EVENTS} events"
    )
    # it comes before a later token error and a strict measure sum
    with pytest.raises(ScoreParseError, match="line 1, column 6: repeat group expands"):
        parse_score("| {c4}x9999999 | h4")
    with pytest.raises(ScoreParseError, match="line 1, column 15: repeat group expands"):
        parse_score("time=4/4 | {c4}x9999999")
    # an empty body has nothing to copy, however large its count, also one
    # past sys.maxsize, which no list can be multiplied by
    assert parse_score("| c4 { }x999999999 c4").measures == (("c4", "c4"),)
    assert parse_score("| c4 { }x" + "9" * 40 + " c4").measures == (("c4", "c4"),)


# ---------------------------------------------------------------------------
# Source positions
# ---------------------------------------------------------------------------

SEPARATORS = st.lists(
    st.sampled_from([" ", "\t", "\n", "\n\n", "  \n \t", " # note | c4 (\n", " #\n"]),
    min_size=1, max_size=3,
).map("".join)


@st.composite
def laid_out_scores(draw):
    """Random valid DSL text with random whitespace, blank lines and
    comments, the token boundaries it has (offset, bracket open), and the
    Score it must parse to, built here without the parser."""
    time_sig = draw(st.sampled_from([None, (4, 4), (3, 8)]))
    pieces = []  # (token, bracket open after it)
    if time_sig is not None:
        pieces.append((f"clef=bass time={time_sig[0]}/{time_sig[1]}", False))
    measures = []
    for _ in range(draw(st.integers(1, 5))):
        tokens = draw(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=5))
        pieces.append(("|", False))
        shape = draw(st.sampled_from(["plain", "bracket", "repeat"]))
        if shape == "plain":
            pieces.extend((t, False) for t in tokens)
        elif shape == "bracket":
            i = draw(st.integers(0, len(tokens) - 1))
            j = draw(st.integers(i + 1, len(tokens)))
            pieces.extend((t, False) for t in tokens[:i])
            pieces.append(("[", True))
            pieces.extend((t, True) for t in tokens[i:j])
            pieces.append(("]", False))
            pieces.extend((t, False) for t in tokens[j:])
        else:
            n = draw(st.integers(1, 3))
            pieces.append(("{", False))
            pieces.extend((t, False) for t in tokens)
            pieces.append((f"}}x{n}", False))
            tokens = tokens * n
        measures.append(tuple(tokens))
    text = ""
    boundaries = []
    for token, in_bracket in pieces:
        text += draw(SEPARATORS)
        text += token
        boundaries.append((len(text), in_bracket))
    text += draw(SEPARATORS)
    warnings = ()
    if time_sig is not None:
        target = measure_target(time_sig)
        warnings = tuple(
            f"measure {i + 1} sums to {measure_sum(m)}, expected {target} "
            f"for {time_sig[0]}/{time_sig[1]}"
            for i, m in enumerate(measures) if measure_sum(m) != target
        )
    expected = Score(
        measures=tuple(measures),
        clef="bass" if time_sig else "treble",
        time=time_sig,
        warnings=warnings,
    )
    return text, boundaries, expected


@given(laid_out_scores())
def test_layout_does_not_change_the_score(case):
    text, _, expected = case
    assert parse_score(text, strict=False) == expected


@given(laid_out_scores(), st.data())
def test_parse_error_position_matches_reference(case, data):
    text, boundaries, _ = case
    offset, in_bracket = data.draw(st.sampled_from(boundaries))
    bad = data.draw(st.sampled_from(
        ["h4", "zz", "@", "c3", ")"] + ([] if in_bracket else ["]"])
    ))
    text = text[:offset] + data.draw(SEPARATORS) + bad + text[offset:]
    pos = text.index(bad, offset)
    with pytest.raises(ScoreParseError) as err:
        parse_score(text, strict=False)
    assert (err.value.line, err.value.col) == (
        text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)
    )


# n nested groups, n groups open across n measures, n nested repeats
GROUP_TEXTS = {
    "nested-parens": lambda n: "| " + "( " * n + "a4 " + ") " * n,
    "spanning-parens": lambda n: "( " * n + "| a4 " * n + ") " * n,
    "nested-repeats": lambda n: "| " + "{ " * n + "a4 " * n + "}x1 " * n,
}


@pytest.mark.parametrize("make", [
    textgen.sample_score,
    *(lambda _, n, text=text: text(n) for text in GROUP_TEXTS.values()),
], ids=["measures", *GROUP_TEXTS])
def test_parse_time_grows_linearly_with_measures(make):
    # 8x the measures or groups must cost well under 20x the time; counting
    # newlines from the start of the text for every token grew about 35x at
    # these sizes, and one list of open groups of every kind, searched and
    # walked at each closer and bar, about 60x.  Alternating rounds let a slow
    # spell of the host hit both sizes.
    small = make(random.Random(1), 500)
    large = make(random.Random(2), 4000)
    best = {small: float("inf"), large: float("inf")}
    for _ in range(5):
        for text in best:
            start = time.perf_counter()
            parse_score(text)
            best[text] = min(best[text], time.perf_counter() - start)
    assert best[large] < 20 * best[small]


def test_token_lines_cost_little_more_than_plain_lines():
    # every line is read by one reader, so a measure line that also holds a
    # tie, a bracket and a comment parses within 2.5x the plain line; with a
    # second reader for such lines it cost about 3x.  Alternating rounds let
    # a slow spell of the host hit both texts.
    plain = gen.score_input(7, 2000)["text"]
    token = "\n".join(
        f"| ( [ {row[2:]} ] ) # m" if row.startswith("| ") else row
        for row in plain.split("\n")
    )
    assert parse_score(token) == parse_score(plain)
    best = {plain: float("inf"), token: float("inf")}
    for _ in range(7):
        for text in best:
            start = time.perf_counter()
            parse_score(text)
            best[text] = min(best[text], time.perf_counter() - start)
    assert best[token] <= 2.5 * best[plain]


def test_measure_target_values():
    assert measure_target((2, 2)) == 64
    assert measure_target((4, 4)) == 64
    assert measure_target((3, 4)) == 48
    assert measure_target((6, 8)) == 48
    # a part is an int, not a float and not a bool
    for time in [(2, True), (2.0, 4), (True, 4)]:
        with pytest.raises(ScoreError) as err:
            measure_target(time)
        assert str(err.value) == f"unsupported time signature {time[0]}/{time[1]}"
    # a signature is a pair
    for time in [(4, 4, 4), 4]:
        with pytest.raises(ScoreError) as err:
            measure_target(time)
        assert str(err.value) == f"unsupported time signature {time!r}"


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

# Pieces of DSL text: tokens, near misses, comments and header items that
# hold '#'.  They are joined with nothing, which glues them into longer
# words, or with whitespace, ``\n`` included.
DSL_PIECES = (
    "|", "[", "]", "(", ")", "{", "}x2", "}x1", "}x0", "c4", "-d8", "+e16.",
    "r4", "a64.", "h4", "$", "}x" + "9" * 25, "c3", "#", "# note | c4 (",
    "a4#x", "clef=treble", "clef=treble#", "time=4/4", "time=3/8", "ref=x#y",
    "accidentals=+f", "a4" * 10, "{a4}x1" * 4, "ref=" + "x" * 20, "c1.", "r1.",
    "c1.d4",
)
SPACES = ("", " ", "\n", "\t", "\x0b", "\x0c", "\r", "\x1c", "\x85", "\xa0", "\u3000",
          " \n ")
DSL_TEXT = st.lists(
    st.tuples(st.sampled_from(DSL_PIECES), st.sampled_from(SPACES)), max_size=30,
).map(lambda parts: "".join(piece + space for piece, space in parts))


def parse_outcome(text, strict, parse=parse_score):
    try:
        return parse(text, strict=strict)
    except ScoreError as exc:
        return type(exc), str(exc)


@given(DSL_TEXT)
@example(gen.score_input(3, 500)["text"])
@example(gen.score_input(7, 500)["text"])
@example("| a4#x b4\n| a4#x c4 a4")
@example("ref=x#y clef=treble# | c4")
@example("| c4 [ |h4")
def test_tokenizer_matches_reference(text):
    # the parser reads words where the reference tokenizes the whole text, so
    # every token, fault and position shows in the outcome: the measures, or
    # the error with its line and column, and which fault comes first
    for strict in (True, False):
        assert parse_outcome(text, strict) == parse_outcome(
            text, strict, parse_score_by_group_list
        )


@given(DSL_TEXT)
@example("| ( [ c4 ) ]")
@example("| [ c8 { d8\n| e8 }x2 ]")
@example("| { c8 [ d8 | e8 ] }x2")
@example(GROUP_TEXTS["nested-parens"](50))
@example(GROUP_TEXTS["spanning-parens"](50))
@example(GROUP_TEXTS["nested-repeats"](50))
def test_parser_matches_reference(text):
    for strict in (True, False):
        assert parse_outcome(text, strict) == parse_outcome(
            text, strict, parse_score_by_group_list
        )


# The separators that do not end a line; str.split() and the token grammar
# both read each of them as whitespace.
LINE_SPACES = tuple(space for space in SPACES if space and "\n" not in space)
# Class tokens of plain lines, and whole 4/4 measures among them.
PLAIN_WORDS = ("c16", "-d16", "+e16", "=f16", "r16", "g32", "r32", "a64", "b16.", "c8", "d8")
FULL_MEASURES = (
    ("|", "c16", "d16", "e16", "f16"), ("|", "a64"), ("|", "g32", "r32"),
    ("|", "b16.", "c8", "r32"),
)
# Bar shapes a plain line may hold, and pieces that leave the plain path or
# fail on it.
PLAIN_BARS = (("|",), ("||",), ("|", "|"), ("c16|d16",))
OFF_PLAIN = (
    "c1.", "r1.", "(", ")", "[", "]", "{", "}x2", "}x3", "clef=bass", "time=4/4",
    "# c16 |", "h4", "a4b4",
)


@st.composite
def plain_heavy_texts(draw):
    """Lines of several measures, three in four of them plain; the others
    mix in empty measures, group symbols, header items, comments, glued or
    foreign words and dotted sixty-fourths.  A line that does not start with
    a bar goes on with the measure of the line before it."""
    pieces = [
        st.lists(st.sampled_from(PLAIN_WORDS), min_size=1, max_size=5).map(lambda w: ("|", *w)),
        st.sampled_from(FULL_MEASURES),
        st.lists(st.sampled_from(PLAIN_WORDS), min_size=1, max_size=3).map(tuple),
    ]
    odd = [st.sampled_from(PLAIN_BARS), st.sampled_from(OFF_PLAIN).map(lambda p: (p,))]
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        shapes = pieces if draw(st.integers(0, 3)) else pieces + odd
        words = [w for piece in draw(st.lists(st.one_of(shapes), max_size=4)) for w in piece]
        lines.append(draw(st.sampled_from(("", " "))) + "".join(
            w + draw(st.sampled_from(LINE_SPACES)) for w in words
        ))
    head = draw(st.sampled_from(("", "time=4/4\n", "clef=bass time=3/4 ")))
    return head + "\n".join(lines)


@given(plain_heavy_texts())
@example("| c4 | | d4")
@example("| c4 c1. d4\n| e4")
@example("| c4 r1.")
@example("| c4 | d4\nclef=bass")
@example("|\ntime=4/4\n| a64")
@example("\n \t\nclef=bass time=4/4\n| a64")
@example("| c4 [\n| d4")
@example("| c4 {\n| d4\n}x2")
@example("( \n| c4 | d4\n| e4 )")
@example("time=4/4\n| a64\n| { c16 }x3")
@example("time=4/4\n| a64 | ( c16 c16 c16\n) | a64")
@example("time=4/4\n| a64\n|\n  c16 c16 c16\n| a64")
@example("time=4/4\n| c16\x1cc16\x85c16\xa0c16\u3000|\rc16 c16\tc16")
@example("( \n| c4 | d4 )\n| e4")
@example("| c4 | d4 | a4b4\n| e4 || f4")
@example("| c4 || d4 # a comment")
def test_plain_lines_match_the_reference(text):
    for strict in (True, False):
        assert parse_outcome(text, strict) == parse_outcome(
            text, strict, parse_score_by_group_list
        )


@pytest.mark.parametrize("text", [
    "time=4/4\n| c16 c16 c16 c16 | c16 | c8 c8 c8 c8 c8 | c16 c16 c16 c16 | c4",
    "time=4/4\n| c16 c16 c16 c16\n| c16 c16 c16\n  | c4\n| a64 | c2 c2 c2",
    "time=3/4 | ( c16 c16 ) | [ c16 c16 c16 ] | { c16 }x3 | { c8 }x2 c8",
    gen.score_input(7, 500)["text"].replace("| e16 r16 g16 a16", "| e16 r16 g16", 1)
    + "| c16\n| c4 c4 c4 c4 c4\n",
])
def test_measure_sums_are_checked_in_score_order(text):
    # several measures are off: strict parsing stops at the first, lax
    # parsing warns about each, in order
    for strict in (True, False):
        assert parse_outcome(text, strict) == parse_outcome(
            text, strict, parse_score_by_group_list
        )
    assert len(parse_score(text, strict=False).warnings) >= 2


def test_repeated_word_reports_its_own_position():
    # every occurrence of a word is read from the same table entry, and each
    # is reported at its own line and column
    with pytest.raises(ScoreParseError) as err:
        parse_score("time=4/4\n| c16 c16 c16 c16\n  | c16 c16 c16\n")
    assert str(err.value) == "line 3, column 5: measure 2 sums to 48, expected 64 for 4/4"
    with pytest.raises(ScoreParseError) as err:
        parse_score("| ( c4 )\n| c4 )")
    assert str(err.value) == "line 2, column 6: unmatched closing paren"
    with pytest.raises(ScoreParseError) as err:
        parse_score("| a4\n| a4$")
    assert str(err.value) == "line 2, column 5: unknown token '$'"
    # a kept comment still ends its line
    assert parse_score("a4#x b4\n a4#x c4").measures == (("a4", "a4"),)


def test_symbol_and_plain_tables_match_the_reference():
    # a word in ``_SYMBOLS`` is the one token the reference reads there (a
    # lone '#' is a comment, which it does not yield); a word in ``_PLAIN``
    # is one event, and every class token is one but the 29 dotted
    # sixty-fourths, which a score may not hold
    assert set(_SYMBOLS) == set("|[](){#")
    for word, (match,) in _SYMBOLS.items():
        assert (match[0], match.start()) == (word, 0)
        if match.lastgroup == "comment":
            assert list(tokenize_by_regex(word + "c4 d4")) == []
        else:
            assert list(tokenize_by_regex(word)) == [(match.lastgroup, word, (1, 1))]
    assert len(_PLAIN) == 406 - 29
    for word, token in _PLAIN.items():
        assert token == word
        assert list(tokenize_by_regex(word)) == [("event", word, (1, 1))]
        class_parts_by_regex(word)  # raises for a dotted sixty-fourth


def test_parsed_tokens_share_one_string_per_class():
    # every occurrence of a class is the table's own string, so a long score
    # holds a few dozen token strings and not one per event
    s = parse_score(gen.score_input(7, 500)["text"], strict=False)
    tokens = [t for m in s.measures for t in m]
    assert len({id(t) for t in tokens}) == len(set(tokens))


def parse_peak(text, parse=parse_score):
    tracemalloc.start()
    try:
        parse(text, strict=False)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "text",
    ["| " + "a4" * 50_000, "|" + "{a4}x1" * 25_000, "| " + "a4b4 " * 5_000],
    ids=["events", "repeats", "glued"],
)
def test_long_word_keeps_the_reference_peak(text):
    # a word of several tokens is scanned where it stands, so its tokens are
    # not held beside the ones the parser keeps; the reference parser reads
    # the streaming reference tokenizer
    assert parse_peak(text) <= 1.1 * parse_peak(text, parse_score_by_group_list)


# ---------------------------------------------------------------------------
# Encoding to configurations
# ---------------------------------------------------------------------------

def test_slym_encoding_invariants():
    inv = invariants(score_to_config(parse_score(SLYM)))
    assert (inv.dim_lambda, inv.dim_center, inv.loops) == (176, 20, 12)
    assert inv.vertex_count == 12


def test_slym_valencies_match_published_table():
    config = score_to_config(parse_score(SLYM))
    expected = {
        "b8": 7, "-b8": 2, "-c8": 4, "d8": 2, "e8": 7, "f8": 5, "-g8": 5,
        "a16": 2, "a32": 1, "b16": 4, "-c16": 1, "f16": 3,
    }
    assert {v: valency(config, v) for v in vertex_universe(config)} == expected


def test_single_measure_encoding():
    config = score_to_config(parse_score("clef=treble time=4/4 | c16 c16 c16 c16"))
    assert invariants(config).dim_lambda == 14  # 2 + 4*(4-1)


def test_score_to_config_rejects_tiny_measure():
    score = Score(measures=(("c64",),))
    with pytest.raises(ScoreError):
        score_to_config(score)
    # the first short measure is named
    score = Score(measures=(("c4", "d4"), ("e4",), ("f4", "g4"), ()))
    with pytest.raises(ScoreError, match=r"^measure 2 has fewer than 2 events$"):
        score_to_config(score)


def test_groups_do_not_affect_encoding():
    plain = score_to_config(parse_score("| b8 f8 e8 b8"))
    grouped = score_to_config(parse_score("| [ b8 f8 ] ( e8 b8 )"))
    assert plain == grouped


def test_invariants_independent_of_event_order():
    forward = score_to_config(parse_score("| b8 f8 e8 b8 | -c16 e16 e16"))
    shuffled = score_to_config(parse_score("| b8 b8 e8 f8 | e16 -c16 e16"))
    assert invariants(forward) == invariants(shuffled)


# ---------------------------------------------------------------------------
# Decoding back to DSL text
# ---------------------------------------------------------------------------

def test_config_to_message_round_trip():
    config = score_to_config(parse_score(SLYM))
    text = config_to_message(config, clef="bass", time=(2, 2))
    assert score_to_config(parse_score(text)) == config


@given(st.lists(st.lists(st.sampled_from(TOKENS), min_size=2, max_size=6),
                min_size=1, max_size=6),
       st.sampled_from([None, "treble", "bass", "alto"]))
def test_config_to_message_round_trip_property(words, clef):
    config = config_from_words(words)
    assert score_to_config(parse_score(config_to_message(config, clef=clef))) == config


def test_config_to_message_single_polygon():
    config = score_to_config(parse_score("| c16 d16"))
    assert config_to_message(config) == "| c16 d16\n"


def test_config_to_message_rejects_foreign_labels():
    with pytest.raises(ScoreError):
        config_to_message(config_from_words([["O", "E"]]))
    # a trailing newline is no part of a class token
    with pytest.raises(ScoreError, match=r"foreign vertex label 'b8\\n'"):
        config_to_message(config_from_words([["b8\n", "c4"]]))
    # the header too is one that parse_score reads
    config = config_from_words([["c4", "d4"]])
    with pytest.raises(ScoreError, match=r"^unknown clef 'nope'$"):
        config_to_message(config, clef="nope")
    with pytest.raises(ScoreError, match=r"^unknown clef \['bass'\]$"):
        config_to_message(config, clef=["bass"])
    with pytest.raises(ScoreError, match=r"^unsupported time signature 3/5$"):
        config_to_message(config, time=(3, 5))
    with pytest.raises(ScoreError, match=r"^unsupported time signature \(4, 4, 4\)$"):
        config_to_message(config, time=(4, 4, 4))


def test_round_trip_is_fixpoint_on_canonical_text():
    config = score_to_config(parse_score(SLYM))
    text = config_to_message(config, clef="bass", time=(2, 2))
    again = config_to_message(score_to_config(parse_score(text)), clef="bass", time=(2, 2))
    assert text == again


def test_fixture_measures_sum_to_signature():
    for name, lax in [
        ("slym.bsc", False),
        ("canon_a6.bsc", False),
        ("canon_crab.bsc", True),
        ("canon_qi.bsc", True),
    ]:
        score = parse_score((FIXTURES / name).read_text(), strict=not lax)
        target = measure_target(score.time)
        off = [i for i, m in enumerate(score.measures) if measure_sum(m) != target]
        if not lax:
            assert off == []
        else:
            assert len(off) == len(score.warnings) > 0

