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
(``( [ ) ]``).  ``ref=`` and ``accidentals=`` header items are accepted
annotations that are not stored.  ``#`` starts a comment, except inside a
header item.

The text is read by one reader, a line at a time, and parsing is linear in
the text.  A line is split into words once; a run of class tokens joins its
measure in one step, and a word of several tokens is scanned where it
stands.  A place in the text is kept as (line, word, offset) and becomes a
column only when an error is raised.

Under a time signature n/2^m every measure's effective exponents must sum
to n * 2^(6-m); strict parsing rejects violations, lax parsing records them
as warnings.  A repeat group may not expand the score past ``MAX_EVENTS``
events.

A score is its measures, each a tuple of class tokens.  A token is the
canonical text of its (duration + dot, accidental, pitch-or-rest) class, so
the measures are already the words of the score's configuration: one
polygon per measure, one vertex per class.  Octaves and grouping never
enter vertex identity.  ``class_parts`` reads a token's pitch letter and
effective exponent from the class table, and ``Score`` walks its tokens
through it where it is made; ``parse_score`` and ``score_to_config``,
whose input has met those rules, build their records with ``_make``.
"""

from __future__ import annotations

import re
from collections import namedtuple
from itertools import chain, islice, repeat
from .brauer import BrauerConfiguration, Polygon, _is_int


class ScoreError(ValueError):
    """Invalid score, event or vertex label."""

    code = "E_SCORE"  # the CLI's error code


class ScoreParseError(ScoreError):
    """DSL parse failure with source position."""

    code = "E_SCORE_PARSE"  # the CLI's error code

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
# Each class token's effective exponent, the weight a measure sum adds up.
_WEIGHT = {token: exponent for token, (_, exponent) in _CLASSES.items()}


def class_parts(token: str) -> tuple:
    """Pitch letter (None for a rest) and effective exponent of a class
    token, read from the class table."""
    parts = isinstance(token, str) and _CLASSES.get(token)
    if not parts:
        raise ScoreError(f"foreign vertex label {token!r}")
    if parts[1] is None:
        raise ScoreError("a sixty-fourth value cannot be dotted")
    return parts


class Score(namedtuple("Score", "measures clef time warnings")):
    """One tuple of class tokens per measure, the clef, the time signature
    (n, denominator) with denominator = 2^m, or None, and a tuple of warning
    strings.  The constructor checks each; ``_make`` and ``_replace`` do not."""

    __slots__ = ()

    def __new__(cls, measures: tuple, clef: str = "treble", time: tuple | None = None,
                warnings: tuple = ()):
        try:
            measures = tuple(map(tuple, measures))
        except TypeError:  # not an iterable of iterables
            raise ScoreError(f"{measures!r} is not a sequence of measures") from None
        if not measures:
            raise ScoreError("a score needs at least one measure")
        for label in chain.from_iterable(measures):
            class_parts(label)
        if not isinstance(clef, str) or clef not in CLEFS:
            raise ScoreError(f"unknown clef {clef!r}")
        time = None if time is None else _time_pair(time)
        if not (isinstance(warnings, (tuple, list)) and all(isinstance(w, str) for w in warnings)):
            raise ScoreError(f"warnings {warnings!r} are not a tuple of strings")
        return super().__new__(cls, measures, clef, time, tuple(warnings))


def _time_pair(time) -> tuple:
    """``time`` as the pair (n, 2^m) of ints, and not bools, of a signature n/2^m."""
    try:
        n, denom = time
    except (TypeError, ValueError):  # not a pair
        raise ScoreError(f"unsupported time signature {time!r}") from None
    if not (_is_int(n) and _is_int(denom)) or denom not in EXPONENTS or n < 1:
        raise ScoreError(f"unsupported time signature {n}/{denom}")
    return n, denom


def measure_target(time: tuple) -> int:
    """Required exponent sum for one measure of the time signature (n, 2^m)."""
    n, denom = _time_pair(time)
    return n * (64 // denom)


# ---------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------

# One token of a word.  A header item runs to the end of its word, so a
# ``#`` inside it is part of the item; any other ``#`` ends the line.
# ``unknown`` takes the rest of a word where no other kind matches.
_TOKEN = re.compile(
    r"""(?P<comment>\#)
      | (?P<header>(?:clef|time|ref|accidentals)=\S+)
      | (?P<bar>\|)
      | (?P<event>""" + CLASS_TOKEN + r""")
      | (?P<obracket>\[) | (?P<cbracket>\])
      | (?P<oparen>\() | (?P<cparen>\))
      | (?P<obrace>\{) | (?P<cbrace>\}x[0-9]+)
      | (?P<unknown>\S+)
    """,
    re.VERBOSE,
)
_WORD = re.compile(r"\S+")
# The one-character words other than a class token (a bar, a group symbol
# or a lone ``#``), each mapped to its scan: the one match of ``_TOKEN``, so
# the table cannot disagree with it.
_SYMBOLS = {s: (_TOKEN.fullmatch(s),) for s in "|[](){#"}
# The class tokens a score may hold (not the dotted sixty-fourths), each
# mapped to the class table's own string.
_PLAIN = {token: token for token, (_, exponent) in _CLASSES.items() if exponent is not None}


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _parse_header_item(item: str, header: dict) -> None:
    """Read one ``key=value`` item into ``header``; a fault raises a
    ``ScoreError`` that the caller places."""
    key, _, value = item.partition("=")
    if key in header:
        raise ScoreError(f"duplicate header item {key!r}")
    header[key] = value
    if key == "clef" and value not in CLEFS:
        raise ScoreError(f"unknown clef {value!r}")
    if key == "time":
        m = re.fullmatch(r"([0-9]+)/([0-9]+)", value)
        if not m:
            raise ScoreError(f"malformed time signature {value!r}")
        try:
            header["time"] = (int(m.group(1)), int(m.group(2)))
            str(measure_target(header["time"]))  # the measure-sum message prints it
        except ScoreError:
            raise
        except ValueError:  # more digits than Python converts between int and str
            raise ScoreError("time signature is too large") from None


def _error(message: str, rows: list, line: int, word: int, off: int) -> ScoreParseError:
    """The error at character ``off`` of word ``word`` (0-based) of a line;
    the column is found by splitting that one line into words again."""
    w = next(islice(_WORD.finditer(rows[line - 1]), word, None))
    return ScoreParseError(message, line, w.start() + 1 + off)


def parse_score(text: str, strict: bool = True) -> Score:
    """Parse DSL text one line at a time.  A line is split into words once:
    each run of words in ``_PLAIN`` joins the open measure in one step, and
    any other word is read from ``_SYMBOLS`` or scanned with ``_TOKEN``.
    Under a time signature the measures' sums are then read from the class
    table in one pass; a violation raises in strict mode, at the measure's
    recorded first event, or becomes a warning."""
    header: dict = {}
    measures: list = []  # one tuple of tokens per measure
    starts: list = []  # the place of each measure's first event
    measured = 0  # tokens in ``measures``
    current: list = []
    # open groups of each kind, oldest first: (line, word, offset, token
    # count of the open measure when the group opened)
    opened: dict = {"bracket": [], "paren": [], "brace": []}
    seen_content = False
    rows = text.split("\n")

    for line, row in enumerate(rows, 1):
        words = row.split()
        # each plain word's token, and None for any other word and at the end
        runs = [*map(_PLAIN.get, words), None]
        begin = 0
        while True:
            i = runs.index(None, begin)
            if i > begin:
                if not current:
                    start = (line, begin, 0)
                current += runs[begin:i]
                seen_content = True
            if i == len(words):
                break
            begin = i + 1
            word = words[i]
            for m in _SYMBOLS.get(word) or _TOKEN.finditer(word):
                kind = m.lastgroup
                if kind == "comment":
                    begin = len(words)  # the rest of the line is a comment
                    break
                if kind == "unknown":
                    raise _error(f"unknown token {m[0][:12]!r}", rows, line, i, m.start())
                if kind == "header":
                    if seen_content:
                        raise _error("header item after score content", rows, line, i, m.start())
                    try:
                        _parse_header_item(m[0], header)
                    except ScoreError as exc:
                        raise _error(str(exc), rows, line, i, m.start()) from None
                    continue
                seen_content = True
                if kind == "bar":
                    for group, name in (("brace", "repeat group"), ("bracket", "bracket group")):
                        if opened[group]:
                            raise _error(
                                f"{name} must close inside its measure", rows, *opened[group][0][:3]
                            )
                    if current:
                        measures.append(tuple(current))
                        starts.append(start)
                        measured += len(current)
                        current = []
                    elif measures:
                        raise _error("empty measure", rows, line, i, m.start())
                elif kind == "event":
                    token = _PLAIN.get(m[0])
                    if token is None:
                        raise _error("a sixty-fourth value cannot be dotted", rows, line, i, m.start())
                    if not current:
                        start = (line, i, m.start())
                    current.append(token)
                elif kind in ("obracket", "oparen", "obrace"):
                    opened[kind[1:]].append((line, i, m.start(), len(current)))
                else:  # cbracket, cparen or cbrace: it ends the newest open group of its kind
                    want = kind[1:]
                    if not opened[want]:
                        raise _error(f"unmatched closing {want}", rows, line, i, m.start())
                    begun = opened[want].pop()[3]
                    if want != "brace":
                        continue
                    try:
                        repeats = int(m[0][2:])
                    except ValueError:  # more digits than int() converts
                        raise _error("repeat count is too large", rows, line, i, m.start()) from None
                    if repeats < 1:
                        raise _error("repeat count must be >= 1", rows, line, i, m.start())
                    # fail before any copy is built; a measure sum stays <= 96 * MAX_EVENTS
                    size = len(current) - begun
                    if measured + len(current) + size * (repeats - 1) > MAX_EVENTS:
                        raise _error(
                            f"repeat group expands the score past {MAX_EVENTS} events",
                            rows, line, i, m.start(),
                        )
                    # copy only a body that repeats; an empty list times a count past
                    # sys.maxsize overflows
                    if size and repeats > 1:
                        current.extend(current[begun:] * (repeats - 1))

    oldest = [(g[0][:3], kind) for kind, g in opened.items() if g]  # of each kind
    if oldest:
        place, kind = min(oldest)
        raise _error(f"unclosed group ({kind})", rows, *place)
    if current:
        measures.append(tuple(current))
        starts.append(start)
    if not measures:
        raise ScoreParseError("score has no measures", 1, 1)

    warnings: list[str] = []
    time = header.get("time")
    if time is not None:
        target = measure_target(time)
        totals = list(map(sum, map(map, repeat(_WEIGHT.__getitem__), measures)))
        if totals.count(target) != len(totals):  # name each measure that is off
            for i, total in enumerate(totals):
                if total != target:
                    message = (
                        f"measure {i + 1} sums to {total}, expected {target} "
                        f"for {time[0]}/{time[1]}"
                    )
                    if strict:
                        raise _error(message, rows, *starts[i])
                    warnings.append(message)

    # the tokens came from _PLAIN, and the clef and time passed _parse_header_item
    return Score._make((tuple(measures), header.get("clef", "treble"), time, tuple(warnings)))


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def score_to_config(score: Score) -> BrauerConfiguration:
    """One polygon per measure, in score order; vertices are note classes.
    A score's tokens are non-empty strings, so only a short measure can fail."""
    if min(map(len, score.measures)) < 2:
        for i, measure in enumerate(score.measures):
            if len(measure) < 2:
                raise ScoreError(f"measure {i + 1} has fewer than 2 events")
    return BrauerConfiguration._make((tuple(map(Polygon, score.measures)),))


def config_to_message(
    config: BrauerConfiguration,
    clef: str | None = None,
    time: tuple | None = None,
) -> str:
    """Emit the concatenated polygon words as DSL text, one measure per
    polygon.  Every vertex label must be a well-formed note or rest token,
    and the clef and time signature ones that ``parse_score`` reads."""
    words = [poly.word for poly in config.polygons]
    Score(words, "treble" if clef is None else clef, time)  # the door checks labels, clef and time
    lines = []
    head = []
    if clef is not None:
        head.append(f"clef={clef}")
    if time is not None:
        head.append(f"time={time[0]}/{time[1]}")
    if head:
        lines.append(" ".join(head))
    lines.extend("| " + " ".join(word) for word in words)
    return "\n".join(lines) + "\n"
