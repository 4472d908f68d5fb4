import random
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from brauer_kit.brauer import config_from_words, invariants, valency
from brauer_kit.score import (
    MAX_EVENTS,
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
    assert config.vertex_universe == ("g8", "-g8", "+g8", "=g8")


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
    with pytest.raises(ScoreParseError) as err:
        parse_score("| [ b8 f8")
    assert "unclosed" in str(err.value)


def test_parse_unmatched_close():
    with pytest.raises(ScoreParseError):
        parse_score("| b8 ] f8")


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


def test_parse_time_grows_linearly_with_measures():
    # 8x the measures must cost well under 20x the time; counting newlines
    # from the start of the text for every token grew about 35x at these
    # sizes.  Alternating rounds let a slow spell of the host hit both sizes.
    small = textgen.sample_score(random.Random(1), 500)
    large = textgen.sample_score(random.Random(2), 4000)
    best = {small: float("inf"), large: float("inf")}
    for _ in range(5):
        for text in best:
            start = time.perf_counter()
            parse_score(text)
            best[text] = min(best[text], time.perf_counter() - start)
    assert best[large] < 20 * best[small]


def test_measure_target_values():
    assert measure_target((2, 2)) == 64
    assert measure_target((4, 4)) == 64
    assert measure_target((3, 4)) == 48
    assert measure_target((6, 8)) == 48


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
    assert {v: valency(config, v) for v in config.vertex_universe} == expected


def test_single_measure_encoding():
    config = score_to_config(parse_score("clef=treble time=4/4 | c16 c16 c16 c16"))
    assert invariants(config).dim_lambda == 14  # 2 + 4*(4-1)


def test_score_to_config_rejects_tiny_measure():
    score = Score(measures=(("c64",),))
    with pytest.raises(ScoreError):
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

