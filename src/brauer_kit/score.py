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
``{ ... }xN`` repeats its contents N times inside one measure.  ``ref=`` and
``accidentals=`` header items are accepted annotations that are not stored.
``#`` starts a comment.

Under a time signature n/2^m every measure's effective exponents must sum
to n * 2^(6-m); strict parsing rejects violations, lax parsing records them
as warnings.  A repeat group may not expand the score past ``MAX_EVENTS``
events.

A score is its measures, each a tuple of class tokens.  A token is the
canonical text of its (duration + dot, accidental, pitch-or-rest) class, so
the measures are already the words of the score's configuration: one
polygon per measure, one vertex per class.  Octaves and grouping never
enter vertex identity.  ``class_parts`` reads a token's pitch letter and
effective exponent.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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

CLEFS = ("treble", "bass", "alto")

MAX_EVENTS = 10**6  # events a score may hold once its repeat groups are expanded

# One note or rest class: accidental and pitch letter (or r), exponent, dot.
CLASS_TOKEN = r"(?:[-+=]?([a-g])|r)(64|32|16|8|4|2|1)(\.?)"
_CLASS = re.compile(CLASS_TOKEN)


def class_parts(token: str) -> tuple:
    """Pitch letter (None for a rest) and effective exponent of a class
    token; a dot scales the exponent by exactly 3/2."""
    m = _CLASS.fullmatch(token)
    if m is None:
        raise ScoreError(f"foreign vertex label {token!r}")
    pitch, exponent, dot = m.groups()
    if dot and exponent == "1":
        raise ScoreError("a sixty-fourth value cannot be dotted")
    return pitch, int(exponent) * 3 // 2 if dot else int(exponent)


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
    r"""(?P<ws>\s+)
      | (?P<comment>\#[^\n]*)
      | (?P<header>(?:clef|time|ref|accidentals)=\S+)
      | (?P<bar>\|)
      | (?P<event>""" + CLASS_TOKEN + r""")
      | (?P<obracket>\[) | (?P<cbracket>\])
      | (?P<oparen>\() | (?P<cparen>\))
      | (?P<obrace>\{) | (?P<cbrace>\}x\d+)
    """,
    re.VERBOSE,
)


def _tokenize(text: str):
    """Yield ``(kind, text, (line, col))`` for every token but whitespace and
    comments; line and column are 1-based, the column counts characters.
    Comments stop before a newline, so only whitespace tokens move the line:
    each is scanned once, which keeps tokenizing linear in the text."""
    pos = 0
    line, line_start = 1, 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            bad = text[pos:].split()[0][:12]
            raise ScoreParseError(f"unknown token {bad!r}", line, pos - line_start + 1)
        kind = m.lastgroup
        end = m.end()
        if kind == "ws":
            newlines = text.count("\n", pos, end)
            if newlines:
                line += newlines
                line_start = text.rfind("\n", pos, end) + 1
        elif kind != "comment":
            yield kind, m.group(), (line, pos - line_start + 1)
        pos = end


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

@dataclass
class _Group:
    kind: str
    line: int
    col: int
    start: int      # token index in the open measure (braces only)
    start_sum: int  # exponent sum of the open measure (braces only)


def _parse_header_item(item: str, line: int, col: int, header: dict) -> None:
    key, _, value = item.partition("=")
    if key in header:
        raise ScoreParseError(f"duplicate header item {key!r}", line, col)
    header[key] = value
    if key == "clef" and value not in CLEFS:
        raise ScoreParseError(f"unknown clef {value!r}", line, col)
    if key == "time":
        m = re.fullmatch(r"(\d+)/(\d+)", value)
        if not m:
            raise ScoreParseError(f"malformed time signature {value!r}", line, col)
        try:
            header["time"] = (int(m.group(1)), int(m.group(2)))
            str(measure_target(header["time"]))  # the measure-sum message prints it
        except ScoreError as exc:
            raise ScoreParseError(str(exc), line, col) from None
        except ValueError:  # more digits than Python converts between int and str
            raise ScoreParseError("time signature is too large", line, col) from None


def parse_score(text: str, strict: bool = True) -> Score:
    """Parse DSL text.  Measure-sum violations raise in strict mode and are
    collected as warnings otherwise."""
    header: dict = {}
    measures: list = []  # (tokens, position of the first token, exponent sum)
    measured = 0  # tokens in ``measures``
    current: list = []
    current_pos: tuple | None = None
    current_sum = 0
    open_groups: list[_Group] = []
    seen_content = False
    weights: dict = {}  # token -> effective exponent, computed once per class

    def flush_measure(bar: tuple | None) -> None:
        """Close the open measure at a bar (its position) or at the end of
        the text (None)."""
        nonlocal measured, current, current_pos, current_sum
        for kind, name in (("brace", "repeat group"), ("bracket", "bracket group")):
            for g in open_groups:
                if g.kind == kind:
                    raise ScoreParseError(
                        f"{name} must close inside its measure", g.line, g.col
                    )
        if current:
            measures.append((tuple(current), current_pos, current_sum))
            measured += len(current)
        elif measures and bar is not None:
            raise ScoreParseError("empty measure", *bar)
        current = []
        current_pos = None
        current_sum = 0

    for kind, value, (line, col) in _tokenize(text):
        if kind == "header":
            if seen_content:
                raise ScoreParseError("header item after score content", line, col)
            _parse_header_item(value, line, col, header)
            continue
        seen_content = True
        if kind == "bar":
            flush_measure((line, col))
        elif kind == "event":
            if current_pos is None:
                current_pos = (line, col)
            weight = weights.get(value)
            if weight is None:
                try:
                    weight = weights[value] = class_parts(value)[1]
                except ScoreError as exc:  # a dotted sixty-fourth
                    raise ScoreParseError(str(exc), line, col) from None
            current.append(value)
            current_sum += weight
        elif kind in ("obracket", "oparen", "obrace"):
            open_groups.append(_Group(kind[1:], line, col, len(current), current_sum))
        else:  # cbracket, cparen or cbrace
            want = kind[1:]
            match = next((g for g in reversed(open_groups) if g.kind == want), None)
            if match is None:
                raise ScoreParseError(f"unmatched closing {want}", line, col)
            open_groups.remove(match)
            if want != "brace":
                continue
            try:
                repeats = int(value[2:])
            except ValueError:  # more digits than int() converts
                raise ScoreParseError("repeat count is too large", line, col) from None
            if repeats < 1:
                raise ScoreParseError("repeat count must be >= 1", line, col)
            # fail before any copy is built; a measure sum stays <= 96 * MAX_EVENTS
            body = current[match.start:]
            if measured + len(current) + len(body) * (repeats - 1) > MAX_EVENTS:
                raise ScoreParseError(
                    f"repeat group expands the score past {MAX_EVENTS} events", line, col
                )
            current_sum += (current_sum - match.start_sum) * (repeats - 1)
            if body:  # an empty list times a count past sys.maxsize overflows
                current.extend(body * (repeats - 1))

    if open_groups:
        g = open_groups[0]
        raise ScoreParseError(f"unclosed group ({g.kind})", g.line, g.col)
    flush_measure(None)
    if not measures:
        raise ScoreParseError("score has no measures", 1, 1)

    warnings: list[str] = []
    time = header.get("time")
    if time is not None:
        target = measure_target(time)
        for i, (_, pos, total) in enumerate(measures):
            if total != target:
                message = (
                    f"measure {i + 1} sums to {total}, expected {target} "
                    f"for {time[0]}/{time[1]}"
                )
                if strict:
                    raise ScoreParseError(message, *pos)
                warnings.append(message)

    return Score(
        measures=tuple(tokens for tokens, _, _ in measures),
        clef=header.get("clef", "treble"),
        time=time,
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def score_to_config(score: Score) -> BrauerConfiguration:
    """One polygon per measure, in score order; vertices are note classes."""
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
