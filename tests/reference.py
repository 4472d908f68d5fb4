"""Definition-level constructions that the counting passes are tested
against.

The quiver of a configuration built as the definition reads: one arrow per
covering in each vertex's circular order of occurrences, found by rescanning
the configuration once per vertex.  The Vigenere split as a configuration,
one polygon per decimated list.  The program computes neither: it counts
``brauer.invariants`` in one pass over the words and reads the split's
invariants from its letter tallies (``brauer.invariants_from_tallies``).
That pass with its union-find run over every polygon, and a
configuration's checks made polygon by polygon; ``brauer._incidence``
stops joining polygons once those read so far form one component holding
every vertex, and ``BrauerConfiguration`` checks each distinct label once.
The dimension formulas in the paper's form, which sum the multiplicity
of every vertex; ``brauer.invariants_from_histogram`` states them in closed
form, dim Z = 1 + polygons + loops.
The configuration file read line by line, each line's rules applied as it
is read and the record built by the checking constructor;
``brauer.parse_config`` reads the text in whole-text passes and builds the
record without checking its words again.
The folding of text into the alphabet as one loop over its characters;
``Alphabet.normalize`` folds with string methods and regular expressions.
A block permutation as the checked record that the package used to keep,
with its apply, inverse and text reader; ``cipher.transposition_encrypt``,
``transposition_decrypt`` and ``parse_permutation`` take plain tuples.
A split's letter counts as one call of a per-list tally for each decimated
list; ``coincidence.list_counts`` counts each list in place.
Key recovery as one shifted overlap per list pair and shift, and one
decryption tally and one set of expected counts per anchored key;
``coincidence.friedman_recover_key`` reads a pair's 26 overlaps from one
product of two packed integers, rotates only the first decryption's tally
and computes the expected counts once.
The score tokenizer as one regular-expression match per token and per run
of whitespace over the whole text, which counts lines and columns as it
goes.  The score parser reads that tokenizer's stream, with one list of open
groups of every kind, searched from its end at each closer, removed from by
equality and walked at each bar, a running exponent sum and the first
event's position per measure.  ``score.parse_score`` shares no tokenizer
with them: it splits each line into words once, adds each run of plain
class tokens to a measure in one step, scans any other word with its own
pattern, keeps one stack per group kind, reads each measure's sum from the
class table at the time check, and finds a column only for an error.  A
class token's parts as one match of ``CLASS_TOKEN``; ``score.class_parts``
looks the token up in the class table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from collections import Counter, namedtuple
from itertools import chain
from typing import Collection, Hashable, Iterable, Mapping, Sequence

from brauer_kit.brauer import (
    AlgebraInvariants,
    BrauerConfiguration,
    ConfigError,
    _LABEL_SUFFIX,
    ascii_ints,
    config_from_words,
    invariants_from_histogram,
)
from brauer_kit.cipher import LETTERS, CipherError, split_blocks
from brauer_kit.coincidence import ENGLISH_FREQUENCIES, KeyCandidate, KeyRecovery, decimate
from brauer_kit.score import (
    CLASS_TOKEN,
    MAX_EVENTS,
    Score,
    ScoreError,
    ScoreParseError,
    _parse_header_item,
    class_parts,
    measure_target,
)


class UnknownVertexError(KeyError):
    """An operation named a vertex that is not in the configuration."""


@dataclass(frozen=True)
class Arrow:
    source: int
    target: int
    vertex: str


@dataclass(frozen=True)
class Quiver:
    """One node per polygon; arrows from circular successor orders."""

    arrows: tuple[Arrow, ...]

    @property
    def loop_count(self) -> int:
        return sum(1 for a in self.arrows if a.source == a.target)


def vertex_universe(config: BrauerConfiguration) -> tuple[str, ...]:
    """All vertices, ordered by first occurrence."""
    seen: dict[str, None] = {}
    for poly in config.polygons:
        for v in poly.word:
            seen.setdefault(v, None)
    return tuple(seen)


def valency(config: BrauerConfiguration, vertex: str) -> int:
    """Total number of occurrences of ``vertex`` over all polygon words."""
    val = sum(poly.word.count(vertex) for poly in config.polygons)
    if val == 0:
        raise UnknownVertexError(vertex)
    return val


def successor_sequence(config: BrauerConfiguration, vertex: str) -> tuple[tuple[int, int], ...]:
    """Occurrences of ``vertex`` as (polygon index, word position) pairs,
    in that order."""
    entries = [
        (i, pos)
        for i, poly in enumerate(config.polygons)
        for pos, v in enumerate(poly.word)
        if v == vertex
    ]
    if not entries:
        raise UnknownVertexError(vertex)
    return tuple(entries)


def build_quiver(config: BrauerConfiguration) -> Quiver:
    """Construct the quiver induced by the configuration.

    A vertex of valency v >= 2 yields v arrows, one per consecutive pair of
    its successor sequence including the wrap-around closing the circular
    order.  A valency-1 vertex yields a single loop at its polygon.
    """
    arrows: list[Arrow] = []
    for vertex in vertex_universe(config):
        seq = successor_sequence(config, vertex)
        if len(seq) == 1:
            arrows.append(Arrow(seq[0][0], seq[0][0], vertex))
            continue
        for i, (src, _) in enumerate(seq):
            tgt = seq[(i + 1) % len(seq)][0]
            arrows.append(Arrow(src, tgt, vertex))
    return Quiver(tuple(arrows))


def incidence_by_union_find(
    sizes: Sequence[int],
    valency_histogram: Mapping[int, int],
    holdings: Iterable[Collection[Hashable]],
) -> AlgebraInvariants:
    """``brauer._incidence`` with the union-find run over every polygon:
    each polygon gives (size - #distinct vertices) loops, a vertex held by
    one polygon only gives one loop more, every polygon holding a vertex is
    joined to the first one that held it, and the incidence graph is
    connected when a single root remains."""
    first: dict = {}     # vertex -> first polygon holding it
    shared: set = set()  # vertices held by more than one polygon
    parent = list(range(len(sizes)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    incidences = 0
    for i, held in enumerate(holdings):
        incidences += len(held)
        for v in held:
            j = first.setdefault(v, i)
            if j != i:
                shared.add(v)
                parent[find(i)] = find(j)
    loops = sum(sizes) - incidences + len(first) - len(shared)
    inv = invariants_from_histogram(len(sizes), valency_histogram, loops)
    roots = sum(1 for i, p in enumerate(parent) if i == p)
    return inv if roots == 1 else inv._replace(connected=False)


def invariants_by_union_find(config: BrauerConfiguration) -> AlgebraInvariants:
    """``brauer.invariants`` counted by ``incidence_by_union_find``."""
    words = [poly.word for poly in config.polygons]
    valencies = Counter(chain.from_iterable(words))
    return incidence_by_union_find(
        list(map(len, words)), Counter(valencies.values()), map(set, words)
    )


def invariants_from_histogram_by_mu(
    polygon_count: int,
    valency_histogram: Mapping[int, int],
    loops: int,
) -> AlgebraInvariants:
    """The dimension formulas in the paper's form, with the multiplicity
    mu = 2 at valency 1 and 1 elsewhere summed over the vertices and
    applied per valency.  Keys and counts are read with ``int``; the input
    is not checked."""
    histogram = {int(k): int(v) for k, v in valency_histogram.items()}
    vertex_count = sum(histogram.values())
    val_one = histogram.get(1, 0)
    sum_mu = vertex_count + val_one
    dim_l = 2 * polygon_count + sum(
        count * val * (val * (2 if val == 1 else 1) - 1)
        for val, count in histogram.items()
    )
    dim_z = 1 + polygon_count - vertex_count + sum_mu + loops - val_one
    return AlgebraInvariants(
        dim_lambda=dim_l,
        dim_center=dim_z,
        loops=loops,
        polygon_count=polygon_count,
        vertex_count=vertex_count,
        valency_histogram=dict(sorted(histogram.items())),
    )


def check_polygons(polygons) -> None:
    """``BrauerConfiguration``'s checks polygon by polygon: raise the
    ConfigError of the first fault, if there is one."""
    if not polygons:
        raise ConfigError("configuration has no polygons")
    for i, poly in enumerate(polygons):
        if len(poly.word) < 2:
            raise ConfigError(f"polygon {i}: word length {len(poly.word)} < 2")
        bad = [v for v in poly.word if not isinstance(v, str) or v == ""]
        if bad and isinstance(bad[0], str):
            raise ConfigError(f"polygon {i}: empty vertex label")
        if bad:
            raise ConfigError(f"polygon {i}: vertex label {bad[0]!r} is not a string")


def parse_config_by_lines(text: str) -> BrauerConfiguration:
    words: list[tuple[str, ...]] = []
    bad_label: str | None = None  # reported only once every line has parsed
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        label: list[int] | None = None
        suffix = "label:" in line and _LABEL_SUFFIX.search(line)
        if suffix:
            try:
                label = sorted(ascii_ints(line[suffix.end():].split()))
            except ValueError:
                raise ConfigError(f"line {lineno}: malformed label permutation")
            line = line[:suffix.start()]
        tokens = tuple(line.split())
        if len(tokens) < 2:
            raise ConfigError(f"line {lineno}: polygon needs at least 2 vertices")
        if bad_label is None and label is not None and label != list(range(1, len(tokens) + 1)):
            bad_label = (
                f"polygon {len(words)}: label is not a permutation of 1..{len(tokens)}"
            )
        words.append(tokens)
    if not words:
        raise ConfigError("no polygons found")
    if bad_label is not None:
        raise ConfigError(bad_label)
    return config_from_words(words)


def vigenere_to_config(cipher: str, m: int) -> BrauerConfiguration:
    """Configuration of a normalized ciphertext under an assumed key length:
    one polygon per decimated list, in list order."""
    return config_from_words([tuple(part) for part in decimate(cipher, m)])


def normalize_by_loop(text: str, strip: bool = False) -> str:
    """``Alphabet.normalize`` as one loop over the characters: only a-z
    fold, whitespace is dropped, and any other character is dropped with
    ``strip`` or raises at its offset."""
    folded = text.translate(str.maketrans(LETTERS.lower(), LETTERS))
    out = []
    for i, ch in enumerate(folded):
        if ch in LETTERS:
            out.append(ch)
        elif strip or ch.isspace():
            continue
        else:
            raise CipherError(f"character {ch!r} at offset {i} is not in the alphabet")
    return "".join(out)


class BlockPermutation(namedtuple("BlockPermutation", "oneline")):
    """One-line notation: position i of the output takes input position
    oneline[i] (1-based)."""

    __slots__ = ()

    def __new__(cls, oneline: tuple[int, ...]):
        n = len(oneline)
        if sorted(oneline) != list(range(1, n + 1)):
            raise CipherError(f"{oneline} is not a permutation of 1..{n}")
        return super().__new__(cls, oneline)

    def __len__(self) -> int:
        return len(self.oneline)

    def apply(self, block: str) -> str:
        if len(block) != len(self.oneline):
            raise CipherError(
                f"block length {len(block)} != permutation length {len(self.oneline)}"
            )
        return "".join(block[j - 1] for j in self.oneline)

    def inverse(self) -> "BlockPermutation":
        inv = [0] * len(self.oneline)
        for i, j in enumerate(self.oneline, start=1):
            inv[j - 1] = i
        return BlockPermutation(tuple(inv))

    @classmethod
    def from_text(cls, text: str) -> "BlockPermutation":
        try:
            return cls(tuple(ascii_ints(text.replace(",", " ").split())))
        except ValueError:  # not ASCII digits, too long for int(), or no permutation
            raise CipherError(f"malformed permutation {text!r}") from None


def transposition_encrypt(text: str, perms: Sequence[BlockPermutation]) -> str:
    """Cut ``text`` into one block per permutation, of its length, and
    reorder each block by its permutation."""
    blocks = split_blocks(text, [len(p) for p in perms])
    return "".join(p.apply(b) for b, p in zip(blocks, perms))


def transposition_decrypt(text: str, perms: Sequence[BlockPermutation]) -> str:
    """Encryption with the inverse permutations, each distinct one inverted
    once."""
    inverses = {p: p.inverse() for p in set(perms)}
    return transposition_encrypt(text, [inverses[p] for p in perms])


def encrypt_by_record(text: str, perms: Sequence[tuple[int, ...]]) -> str:
    """``transposition_encrypt`` above on the records of ``perms``."""
    return transposition_encrypt(text, [BlockPermutation(p) for p in perms])


def decrypt_by_record(text: str, perms: Sequence[tuple[int, ...]]) -> str:
    return transposition_decrypt(text, [BlockPermutation(p) for p in perms])


def parse_permutation_by_record(text: str) -> tuple[int, ...]:
    return BlockPermutation.from_text(text).oneline


def letter_counts(text: str) -> list[int]:
    """Occurrences of each letter of A-Z in ``text``, in alphabet order.
    Other characters are not counted; ``list_counts`` rejects them."""
    return [text.count(ch) for ch in LETTERS]  # 26 scans in C beat one Counter


def list_counts(cipher: str, m: int) -> list[list[int]]:
    """``letter_counts`` of each of the m decimated lists of ``cipher``.
    The counts of all lists add up to the text's length unless it holds a
    character outside A-Z, which is an error naming every such character."""
    counts = [letter_counts(part) for part in decimate(cipher, m)]
    if sum(map(sum, counts)) != len(cipher):
        unknown = sorted(set(cipher) - set(LETTERS))
        raise CipherError(f"characters {unknown} are not in the alphabet")
    return counts


def chi_squared(counts) -> Fraction:
    """Chi-squared statistic of letter counts summing to n > 0, from its
    definition sum (c - e)**2 / e, each expected count e = n * freq / 100
    with ``freq`` in percent, in exact fractions."""
    n, score = sum(counts), Fraction(0)
    for count, freq in zip(counts, ENGLISH_FREQUENCIES.values()):
        exp = n * Fraction(freq, 1000) / 100
        score += (count - exp) ** 2 / exp
    return score


def chi_squared_float(counts) -> float:
    """``chi_squared`` in float operations, each frequency the float of its
    percentage: the exact statistic must read the same at the report's 6
    places."""
    n, score = sum(counts), 0.0
    for count, freq in zip(counts, ENGLISH_FREQUENCIES.values()):
        exp = n * (freq / 1000) / 100.0
        score += (count - exp) ** 2 / exp
    return score


def recover_key_by_overlaps(counts) -> KeyRecovery:
    """``friedman_recover_key`` index by index: for each list pair the shift
    s maximizing sum_h f_i[h] * f_j[h - s] (the first, on ties) gives
    k_i - k_j; the star (0, j) fixes the key up to k_0, and each of the 26
    anchors is scored on its own recount of the decryption's tally, by the
    chi-squared's definition."""
    n, m = len(LETTERS), len(counts)
    differences = tuple(
        (i, j, max(range(n), key=lambda s: sum(
            counts[i][h] * counts[j][(h - s) % n] for h in range(n)
        )))
        for i in range(m)
        for j in range(i + 1, m)
    )
    base = (0,) + tuple(-d % n for _, _, d in differences[: m - 1])
    residuals = tuple(
        (i, j, residual)
        for i, j, d in differences
        if (residual := (d - (base[i] - base[j])) % n)
    )
    candidates = []
    for k0 in range(n):
        key = tuple((r + k0) % n for r in base)
        plain = [sum(c[(h + k) % n] for c, k in zip(counts, key)) for h in range(n)]
        candidates.append(KeyCandidate("".join(LETTERS[k] for k in key), chi_squared(plain)))
    candidates.sort(key=lambda c: c.chi2)
    return KeyRecovery(differences, residuals, tuple(candidates))


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


def class_parts_by_regex(token: str) -> tuple:
    """Pitch letter (None for a rest) and effective exponent of a class
    token; a dot scales the exponent by exactly 3/2."""
    m = re.fullmatch(CLASS_TOKEN, token)
    if m is None:
        raise ScoreError(f"foreign vertex label {token!r}")
    pitch, exponent, dot = m.groups()
    if dot and exponent == "1":
        raise ScoreError("a sixty-fourth value cannot be dotted")
    return pitch, int(exponent) * 3 // 2 if dot else int(exponent)


def tokenize_by_regex(text: str):
    """Yield ``(kind, text, (line, col))`` for every token but whitespace and
    comments; the column is 1-based and counts characters.  Comments stop
    before a newline, so only whitespace tokens move the line: each is
    scanned once, which keeps tokenizing linear in the text."""
    pos = 0
    line = 1
    line_start = 0
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


@dataclass
class _Group:
    kind: str
    line: int
    col: int
    start: int      # token index in the open measure (braces only)
    start_sum: int  # exponent sum of the open measure (braces only)


def parse_score_by_group_list(text: str, strict: bool = True) -> Score:
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

    for kind, value, (line, col) in tokenize_by_regex(text):
        if kind == "header":
            if seen_content:
                raise ScoreParseError("header item after score content", line, col)
            try:
                _parse_header_item(value, header)
            except ScoreError as exc:
                raise ScoreParseError(str(exc), line, col) from None
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
