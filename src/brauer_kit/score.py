"""Textual score DSL and its Brauer-configuration encoding.

The DSL writes a staff piece as measures of note tokens::

    clef=bass time=2/2 ref=4th-line
    | b8 f8 e8 b8 d8 -g8 e8 b8
    | -c16 -g8 e8 b16 f16

A class token is a pitch ``a``..``g`` after an optional ``-`` flat, ``+``
sharp or ``=`` natural, or ``r`` for a rest; then the duration exponent
(whole note 64 down to sixty-fourth 1); then an optional dot, which
multiplies the effective exponent by 3/2.  ``|`` separates measures.
``[ ]`` bracket groups (closed inside their measure) and ``( )`` ties/slurs
(which may span measures) are checked for balance and then dropped;
``{ ... }xN`` repeats its contents N times inside one measure.  A closer
ends the newest open group of its own kind, so kinds may cross
(``( [ ) ]``).  The text is read a line at a time, and parsing is linear
in the text.  ``ref=`` and ``accidentals=`` header items are accepted
annotations that are not stored.  ``#`` starts a comment.

Under a time signature n/2^m every measure's effective exponents must sum
to n * 2^(6-m); strict parsing rejects violations, lax parsing records them
as warnings.  A repeat group may not expand the score past ``MAX_EVENTS``
events.

A score is its measures, each a tuple of class tokens.  A token is the
canonical text of its (duration + dot, accidental, pitch-or-rest) class, so
the measures are already the words of the score's configuration: one
polygon per measure, one vertex per class.  Octaves and grouping never
enter vertex identity.  ``class_parts`` reads a token's pitch letter and
effective exponent from the class table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import repeat
from .brauer import BrauerConfiguration, config_from_words


class ScoreError(ValueError):
    """Invalid score, event or vertex label."""


class ScoreParseError(ScoreError):
    """DSL parse failure with source position."""

    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, column {col}: {message}")


PITCHES = "abcdefg"
EXPONENTS = (64, 32, 16, 8, 4, 2, 1)

# Each clef and the letter its diagram offsets count from.
CLEFS = {"treble": "e", "bass": "d", "alto": "a"}

MAX_EVENTS = 10**6  # events a score may hold once its repeat groups are expanded

# One note or rest class: accidental and pitch letter (or r), exponent, dot.
CLASS_TOKEN = r"(?:[-+=]?([a-g])|r)(64|32|16|8|4|2|1)(\.?)"
# Every token ``CLASS_TOKEN`` accepts -> (pitch letter or None for a rest,
# effective exponent).  A dot scales the exponent by exactly 3/2; a dotted
# sixty-fourth, which the grammar accepts but no score may hold, has None.
_CLASSES = {
    m[0]: (m[1], None if m[3] and m[2] == "1" else int(m[2]) * (3 if m[3] else 2) // 2)
    for m in map(re.compile(CLASS_TOKEN).fullmatch, [
        acc + pitch + str(exponent) + dot
        for acc in ("", "-", "+", "=") for pitch in PITCHES + "r"
        for exponent in EXPONENTS for dot in ("", ".")
    ])
    if m
}


def class_parts(token: str) -> tuple:
    """Pitch letter (None for a rest) and effective exponent of a class
    token, read from the class table."""
    parts = _CLASSES.get(token)
    if parts is None:
        raise ScoreError(f"foreign vertex label {token!r}")
    if parts[1] is None:
        raise ScoreError("a sixty-fourth value cannot be dotted")
    return parts


@dataclass(frozen=True)
class Score:
    measures: tuple                    # one tuple of note tokens per measure
    clef: str = "treble"
    time: tuple | None = None          # (n, denominator), denominator = 2^m
    warnings: tuple = ()

    def __post_init__(self):
        if not self.measures:
            raise ScoreError("a score needs at least one measure")
        if self.clef not in CLEFS:
            raise ScoreError(f"unknown clef {self.clef!r}")


def measure_target(time: tuple) -> int:
    """Required exponent sum for one measure of signature n/2^m."""
    n, denom = time
    if denom not in EXPONENTS or n < 1:
        raise ScoreError(f"unsupported time signature {n}/{denom}")
    return n * (64 // denom)


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"""(?P<comment>\#)
      | (?P<header>(?:clef|time|ref|accidentals)=\S+)
      | (?P<bar>\|)
      | (?P<event>""" + CLASS_TOKEN + r""")
      | (?P<obracket>\[) | (?P<cbracket>\])
      | (?P<oparen>\() | (?P<cparen>\))
      | (?P<obrace>\{) | (?P<cbrace>\}x[0-9]+)
    """,
    re.VERBOSE,
)
_WORD = re.compile(r"\S+")
# Every word that is one whole token other than a header item or a ``}xN``:
# the class tokens and the bar and group symbols, each mapped to its kind and
# one shared copy of itself.  ``_TOKEN`` names the kind, so the table cannot
# disagree with it.
_ONE_TOKEN = {
    m[0]: (m.lastgroup, m[0])
    for m in map(_TOKEN.fullmatch, ["|", "[", "]", "(", ")", "{", *_CLASSES])
}
# The class tokens a score may hold (not the dotted sixty-fourths), each
# mapped to the class table's own string.
_PLAIN = {token: token for token, (_, exponent) in _CLASSES.items() if exponent is not None}


def _plain_line(row: str, line: int) -> list | None:
    """The tokens of a line of ``_PLAIN`` words and bars: each bar, and each
    run of class tokens between two bars as one ``("run", tokens, pos)``.
    None for any other line; it is split only up to its first bar segment
    that holds another word, and not at all if it opens a comment or group."""
    if "#" in row or "(" in row or "[" in row or "{" in row:
        return None
    items, col = [], 0
    for segment in row.split("|"):
        if col:
            items.append(("bar", "|", (line, col)))
        run = list(map(_PLAIN.get, segment.split()))
        if not all(run):  # a word that is not in ``_PLAIN``
            return None
        if run:
            items.append(("run", run, (line, col + 1)))
        col += len(segment) + 1
    return items


def _tokenize_line(row: str, line: int):
    """Yield ``(kind, text, (line, col))`` for every token of one line but
    comments; the column is 1-based and counts characters.  No token but a
    comment holds whitespace, so a word in ``_ONE_TOKEN`` is that token (the
    table's shared text is yielded), and any other word is scanned with
    ``_TOKEN`` where it stands.  A ``#`` runs to the end of the line."""
    for w in _WORD.finditer(row):
        word, col = w[0], w.start() + 1
        token = _ONE_TOKEN.get(word)
        if token is not None:
            yield token[0], token[1], (line, col)
            continue
        off = 0
        while off < len(word):
            m = _TOKEN.match(word, off)
            if m is None:
                bad = word[off:][:12]
                raise ScoreParseError(f"unknown token {bad!r}", line, col + off)
            if m.lastgroup == "comment":
                return  # the rest of the line is a comment
            yield m.lastgroup, m[0], (line, col + off)
            off = m.end()


def _tokenize(text: str):
    """``_tokenize_line`` over each line of the text; only ``\n`` starts one."""
    for line, row in enumerate(text.split("\n"), 1):
        yield from _tokenize_line(row, line)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _parse_header_item(item: str, line: int, col: int, header: dict) -> None:
    key, _, value = item.partition("=")
    if key in header:
        raise ScoreParseError(f"duplicate header item {key!r}", line, col)
    header[key] = value
    if key == "clef" and value not in CLEFS:
        raise ScoreParseError(f"unknown clef {value!r}", line, col)
    if key == "time":
        m = re.fullmatch(r"([0-9]+)/([0-9]+)", value)
        if not m:
            raise ScoreParseError(f"malformed time signature {value!r}", line, col)
        try:
            header["time"] = (int(m.group(1)), int(m.group(2)))
            str(measure_target(header["time"]))  # the measure-sum message prints it
        except ScoreError as exc:
            raise ScoreParseError(str(exc), line, col) from None
        except ValueError:  # more digits than Python converts between int and str
            raise ScoreParseError("time signature is too large", line, col) from None


def _measure_start(text: str, i: int) -> tuple:
    """Position of the first event of measure ``i`` (0-based) of a text that parses."""
    in_measure = False
    for kind, _, pos in _tokenize(text):
        if kind == "event" and not in_measure:
            if i == 0:
                return pos
            i -= 1
        if kind in ("bar", "event"):
            in_measure = kind == "event"


def parse_score(text: str, strict: bool = True) -> Score:
    """Parse DSL text one line at a time: ``_plain_line`` reads a line of
    bars and class tokens, any other line is tokenized, and a bar from either
    is read by one rule.  Under a time signature the measures' sums are then
    read from the class table in one pass; a violation raises in strict
    mode, at a position found by tokenizing the text again, or becomes a
    warning."""
    header: dict = {}
    measures: list = []  # one tuple of tokens per measure
    measured = 0  # tokens in ``measures``
    current: list = []
    # open groups of each kind, oldest first: (line, col, token count of the
    # open measure when the group opened)
    opened: dict = {"bracket": [], "paren": [], "brace": []}
    seen_content = False

    for line, row in enumerate(text.split("\n"), 1):
        for kind, value, (_, col) in _plain_line(row, line) or _tokenize_line(row, line):
            if kind == "header":
                if seen_content:
                    raise ScoreParseError("header item after score content", line, col)
                _parse_header_item(value, line, col, header)
                continue
            seen_content = True
            if kind == "bar":
                for group, name in (("brace", "repeat group"), ("bracket", "bracket group")):
                    if opened[group]:
                        raise ScoreParseError(
                            f"{name} must close inside its measure", *opened[group][0][:2]
                        )
                if current:
                    measures.append(tuple(current))
                    measured += len(current)
                    current = []
                elif measures:
                    raise ScoreParseError("empty measure", line, col)
            elif kind == "event":
                if value not in _PLAIN:
                    raise ScoreParseError("a sixty-fourth value cannot be dotted", line, col)
                current.append(value)
            elif kind == "run":
                current.extend(value)
            elif kind in ("obracket", "oparen", "obrace"):
                opened[kind[1:]].append((line, col, len(current)))
            else:  # cbracket, cparen or cbrace: it ends the newest open group of its kind
                want = kind[1:]
                if not opened[want]:
                    raise ScoreParseError(f"unmatched closing {want}", line, col)
                start = opened[want].pop()[2]
                if want != "brace":
                    continue
                try:
                    repeats = int(value[2:])
                except ValueError:  # more digits than int() converts
                    raise ScoreParseError("repeat count is too large", line, col) from None
                if repeats < 1:
                    raise ScoreParseError("repeat count must be >= 1", line, col)
                # fail before any copy is built; a measure sum stays <= 96 * MAX_EVENTS
                size = len(current) - start
                if measured + len(current) + size * (repeats - 1) > MAX_EVENTS:
                    raise ScoreParseError(
                        f"repeat group expands the score past {MAX_EVENTS} events", line, col
                    )
                # copy only a body that repeats; an empty list times a count past
                # sys.maxsize overflows
                if size and repeats > 1:
                    current.extend(current[start:] * (repeats - 1))

    oldest = [(g[0][:2], kind) for kind, g in opened.items() if g]  # of each kind
    if oldest:
        (line, col), kind = min(oldest)
        raise ScoreParseError(f"unclosed group ({kind})", line, col)
    if current:
        measures.append(tuple(current))
    if not measures:
        raise ScoreParseError("score has no measures", 1, 1)

    warnings: list[str] = []
    time = header.get("time")
    if time is not None:
        target = measure_target(time)
        weight = {token: exponent for token, (_, exponent) in _CLASSES.items()}
        totals = list(map(sum, map(map, repeat(weight.__getitem__), measures)))
        if totals.count(target) != len(totals):  # name each measure that is off
            for i, total in enumerate(totals):
                if total != target:
                    message = (
                        f"measure {i + 1} sums to {total}, expected {target} "
                        f"for {time[0]}/{time[1]}"
                    )
                    if strict:
                        raise ScoreParseError(message, *_measure_start(text, i))
                    warnings.append(message)

    return Score(
        measures=tuple(measures),
        clef=header.get("clef", "treble"),
        time=time,
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def score_to_config(score: Score) -> BrauerConfiguration:
    """One polygon per measure, in score order; vertices are note classes."""
    if min(map(len, score.measures)) < 2:
        for i, measure in enumerate(score.measures):
            if len(measure) < 2:
                raise ScoreError(f"measure {i + 1} has fewer than 2 events")
    return config_from_words(score.measures)


def config_to_message(
    config: BrauerConfiguration,
    clef: str | None = None,
    time: tuple | None = None,
) -> str:
    """Emit the concatenated polygon words as DSL text, one measure per
    polygon.  Every vertex label must be a well-formed note or rest token."""
    for poly in config.polygons:
        for label in poly.word:
            class_parts(label)
    lines = []
    head = []
    if clef is not None:
        head.append(f"clef={clef}")
    if time is not None:
        head.append(f"time={time[0]}/{time[1]}")
    if head:
        lines.append(" ".join(head))
    lines.extend("| " + " ".join(poly.word) for poly in config.polygons)
    return "\n".join(lines) + "\n"
