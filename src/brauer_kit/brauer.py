"""Brauer configurations and their closed-form algebra invariants.

A configuration is an ordered list of polygons; each polygon is a word
(an ordered multiset) over opaque vertex labels.  The list order is the
orientation of the successor sequences.  Every vertex is kept
non-truncated: valency-1 vertices carry multiplicity 2, all others
multiplicity 1.

The induced quiver has one node per polygon.  Each vertex contributes one
arrow per covering in the circular order of its occurrences; a valency-1
vertex contributes a single loop at its polygon.  The dimensions of the
algebra and of its center need only the valencies, the multiplicity rule
and the loop census, so no quiver is built: ``invariants`` counts them
from a configuration's words, ``invariants_from_tallies`` reads
them from a table of per-polygon vertex counts such as a Vigenere split's
letter tallies, and ``invariants_from_histogram`` turns them into exact
integers.  The definition-level quiver, which the counts are tested
against, is in ``tests/reference.py``.

``parse_config`` reads a configuration file in whole-text passes and
checks each of the file's rules once: having passed them, its words meet
every rule of ``BrauerConfiguration``, so the record is made with the
named tuple's ``_make`` and its words are not checked again.  The
line-by-line reader it is tested against is in ``tests/reference.py``.
"""

from __future__ import annotations

import re
from collections import Counter, namedtuple
from itertools import chain, compress, count
from collections.abc import Collection, Hashable, Iterable, Mapping, Sequence


SCHEMA = "1"  # the "schema" field of every JSON document brauer-kit writes


class ConfigError(ValueError):
    """Structurally invalid polygon, configuration or configuration file."""

    code = "E_CONFIG"  # the CLI's error code


# ---------------------------------------------------------------------------
# Data types
# ---------------------------------------------------------------------------

Polygon = namedtuple("Polygon", "word")
Polygon.__doc__ = """One word of a configuration: the ordered vertex occurrences
(repetitions allowed).  Its index is its position in the configuration."""


class BrauerConfiguration(namedtuple("BrauerConfiguration", "polygons")):
    """An ordered tuple of polygons; polygon order fixes successor sequences.
    The polygons, and each one's word, are kept as tuples, whatever held them."""

    __slots__ = ()

    def __new__(cls, polygons: Iterable[Polygon]):
        try:
            polygons = tuple(polygons)
        except TypeError:  # not iterable
            raise ConfigError(f"{polygons!r} is not a sequence of polygons") from None
        if not polygons:
            raise ConfigError("configuration has no polygons")
        for i, poly in enumerate(polygons):
            if len(poly.word) < 2:
                raise ConfigError(f"polygon {i}: word length {len(poly.word)} < 2")
            for v in poly.word:
                if not isinstance(v, str):
                    raise ConfigError(f"polygon {i}: vertex label {v!r} is not a string")
                if not v:
                    raise ConfigError(f"polygon {i}: empty vertex label")
        return super().__new__(cls, tuple(Polygon(tuple(poly.word)) for poly in polygons))


def config_from_words(words: Iterable[Sequence[str]]) -> BrauerConfiguration:
    """Build a configuration from an iterable of vertex-label sequences."""
    return BrauerConfiguration(tuple(Polygon(tuple(w)) for w in words))


class AlgebraInvariants(namedtuple("AlgebraInvariants", (
    "dim_lambda", "dim_center", "loops", "polygon_count", "vertex_count",
    "valency_histogram", "connected",
), defaults=(True,))):
    """Dimension data of the algebra induced by a configuration: dim Lambda,
    dim Z, the loop census, the polygon and vertex counts, the valency
    histogram (valency -> vertex count) and the ``connected`` flag.

    The center formula is stated for connected configurations; on
    disconnected input ``dim_center`` still carries the formula value
    (several published reference figures rely on exactly that reading) and
    ``connected`` flags the caveat.
    """

    __slots__ = ()

    def to_json_dict(self) -> dict:
        """Canonical JSON form with stable key order."""
        out: dict = {
            "dimLambda": self.dim_lambda,
            "dimCenter": self.dim_center,
            "loops": self.loops,
            "polygons": self.polygon_count,
            "vertices": self.vertex_count,
            "valencyHistogram": {
                str(k): self.valency_histogram[k]
                for k in sorted(self.valency_histogram)
            },
        }
        if not self.connected:
            out["connected"] = False
        return out


# ---------------------------------------------------------------------------
# Dimensions
# ---------------------------------------------------------------------------

def _incidence(
    sizes: Sequence[int],
    valency_histogram: Mapping[int, int],
    holdings: Iterable[Collection[Hashable]],
) -> AlgebraInvariants:
    """Invariants of the configuration whose polygons have ``sizes``
    occurrences and hold the distinct vertices ``holdings``, in turn.

    The loop census needs the polygon-vertex incidence: each polygon gives
    (size - #distinct vertices) loops, one per repeated occurrence, and a
    vertex held by one polygon only closes its circular order there with
    one loop more.  Every polygon holding a vertex is joined to the first
    one that held it; the incidence graph is connected when a single root
    remains; the roots are counted down as unions succeed.  Once the
    polygons read so far form one component that holds every vertex, the
    answer is settled: each later polygon joins that component and holds
    only vertices held before, so it adds only its incidences and marks its
    vertices as shared."""
    first: dict = {}     # vertex -> first polygon holding it
    shared: set = set()  # vertices held by more than one polygon
    parent = list(range(len(sizes)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    vertices, roots = sum(valency_histogram.values()), len(sizes)
    incidences = 0
    holdings = iter(holdings)  # the settled polygons are read on from here
    for i, held in enumerate(holdings):
        incidences += len(held)
        root = i  # polygon i's root; no earlier polygon was joined to i
        for v in held:
            j = first.setdefault(v, i)
            if j != i:
                shared.add(v)
                r = find(j)
                if r != root:  # a union: two components become one
                    parent[root] = r
                    root = r
                    roots -= 1
        # polygons 0..i are one component when the roots left are it and
        # the len(sizes) - 1 - i polygons still to read
        if len(first) == vertices and roots == len(sizes) - i:
            roots = 1
            break
    for held in holdings:
        incidences += len(held)
        shared.update(held)
    loops = sum(sizes) - incidences + len(first) - len(shared)
    inv = invariants_from_histogram(len(sizes), valency_histogram, loops)
    return inv if roots == 1 else inv._replace(connected=False)


def invariants(config: BrauerConfiguration) -> AlgebraInvariants:
    """Full invariant bundle counted from the polygons' words; disconnected
    input is flagged rather than rejected, with the center formula applied
    verbatim."""
    words = [poly.word for poly in config.polygons]
    valencies = Counter(chain.from_iterable(words))
    return _incidence(list(map(len, words)), Counter(valencies.values()), map(set, words))


def invariants_from_tallies(rows: Sequence[Sequence[int]]) -> AlgebraInvariants:
    """``invariants`` of the configuration whose polygon i holds
    ``rows[i][c]`` occurrences of vertex c, read from that tally table
    without listing an occurrence.  The rows are sequences of one length,
    and every entry is an integer, not a bool, and not negative; a Vigenere
    split is the table of its lists' letter counts (``coincidence.list_counts``).

    The vertices are the columns with a nonzero entry, each of valency its
    column sum, and a polygon holds its row's nonzero columns.
    """
    if not isinstance(rows, Sequence):
        raise ConfigError(f"tally table {rows!r} is not a sequence")
    sizes = []
    for i, row in enumerate(rows):
        # a set or a dict has a length but no order; a list or a tuple, the
        # rows of a split, skips the slower abstract test
        if type(row) not in (list, tuple) and not isinstance(row, Sequence):
            raise ConfigError(f"polygon {i}: tally row {row!r} is not a sequence")
        width = len(row)
        if width != len(rows[0]):
            raise ConfigError(f"polygon {i}: {width} tallies, expected {len(rows[0])}")
        if not _all_ints(row):
            bad = next(f for f in row if not _is_int(f))
            raise ConfigError(f"polygon {i}: occurrence count {bad!r} is not an integer")
        if min(row, default=0) < 0:
            raise ConfigError(f"polygon {i}: negative occurrence count {min(row)}")
        sizes.append(sum(row))
        if sizes[-1] < 2:
            raise ConfigError(f"polygon {i}: word length {sizes[-1]} < 2")
    histogram = Counter(map(sum, zip(*rows)))
    del histogram[0]  # a column that no row holds is no vertex
    return _incidence(sizes, histogram, (list(compress(count(), row)) for row in rows))


def _is_int(value) -> bool:
    """Whether ``value`` is an integer and not a bool, which Python counts as
    one: the package's one rule for a count, an index or a permutation entry."""
    return isinstance(value, int) and not isinstance(value, bool)


def _all_ints(values: Sequence) -> bool:
    """Whether every entry of ``values`` passes ``_is_int``: the package's one
    pass that takes a sequence of exact ints in C, without a call per entry."""
    return {int}.issuperset(map(type, values)) or all(map(_is_int, values))


def invariants_from_histogram(
    polygon_count: int,
    valency_histogram: Mapping[int, int],
    loops: int,
) -> AlgebraInvariants:
    """Invariants from summary data alone: a valency histogram, the polygon
    count and a loop census.  Assumes the standard multiplicity rule and a
    connected configuration.  This is the one home of the dimension
    formulas; ``invariants`` and ``invariants_from_tallies`` feed it the
    counts of a configuration.

    The polygon count, the loop count and every vertex count are integers,
    and not bools; a valency is an integer or, as in a JSON document, a
    string of ASCII digits, and no two keys spell one valency.  Any other
    value is a ConfigError that names it."""
    if not _is_int(polygon_count):
        raise ConfigError(f"polygon count {polygon_count!r} is not an integer")
    if polygon_count < 1:
        raise ConfigError("polygon count must be positive")
    histogram = {}
    for val, n in valency_histogram.items():
        try:
            key = val if _is_int(val) else ascii_ints([val])[0]
        except (TypeError, ValueError):  # not a string, or not ASCII digits
            raise ConfigError(f"valency {val!r} is not an integer") from None
        if key in histogram:
            raise ConfigError(f"valency {val!r} repeats valency {key}")
        if not _is_int(n):
            raise ConfigError(f"valency {val!r}: vertex count {n!r} is not an integer")
        histogram[key] = n
    if any(k < 1 or v < 0 for k, v in histogram.items()):
        raise ConfigError("histogram entries must map valency >= 1 to count >= 0")
    if not _is_int(loops):
        raise ConfigError(f"loop count {loops!r} is not an integer")
    if loops < 0:
        raise ConfigError("loop count must be >= 0")
    vertex_count = sum(histogram.values())
    # the paper's forms, with Σμ = V + #{val = 1} and val·(val·μ - 1) = 1 at valency 1
    dim_l = 2 * polygon_count + histogram.get(1, 0) + sum(
        count * val * (val - 1) for val, count in histogram.items()
    )
    dim_z = 1 + polygon_count + loops
    return AlgebraInvariants(
        dim_lambda=dim_l,
        dim_center=dim_z,
        loops=loops,
        polygon_count=polygon_count,
        vertex_count=vertex_count,
        valency_histogram=dict(sorted(histogram.items())),
    )


# ---------------------------------------------------------------------------
# Configuration file format
# ---------------------------------------------------------------------------
# Line-oriented: one polygon per line (lines end only at "\n"),
# whitespace-separated vertex labels, '#' starts a comment, and an optional
# suffix, begun by a token that starts with "label:", gives a permutation of
# word positions as space-separated 1-based integers.  The permutation is
# checked and then dropped: no invariant depends on it.

_COMMENT = re.compile("#.*")  # '.' stops only at "\n"
_LABEL_SUFFIX = re.compile(r"(?<!\S)label:")
_NUMBER = re.compile("[0-9]+")


def ascii_ints(words: Sequence[str]) -> list[int]:
    """The integers that ``words`` write as runs of ASCII digits; a sign, an
    ``_``, another script's digit or more digits than ``int()`` converts
    raise ValueError."""
    if not all(map(_NUMBER.fullmatch, words)):
        raise ValueError("not a run of ASCII digits")
    return list(map(int, words))


def parse_config(text: str) -> BrauerConfiguration:
    """The configuration that ``text`` writes in the file format above.

    The faults, first found first: a line's malformed permutation, then its
    short polygon, line by line; no polygon at all; the first polygon whose
    permutation is not of 1..n."""
    if "#" in text:
        text = _COMMENT.sub("", text)
    rows = text.split("\n")
    # row index -> its sorted label, or None when the label is malformed; a
    # label row is a polygon even with no words
    labels: dict[int, list[int] | None] = {}
    if "label:" in text:
        for i, row in enumerate(rows):
            suffix = "label:" in row and _LABEL_SUFFIX.search(row)
            if suffix:
                rows[i] = row[:suffix.start()]
                try:
                    labels[i] = sorted(ascii_ints(row[suffix.end():].split()))
                except ValueError:
                    labels[i] = None
    words = list(map(tuple, map(str.split, rows)))
    del rows  # freed before the polygons are made, to keep the peak memory down
    # a line fault is looked up in what was collected; only then are the
    # lines walked again, to name the first
    if (None in labels.values() or 1 in map(len, words)
            or any(not words[i] for i in labels)):
        for i, word in enumerate(words):
            if i in labels and labels[i] is None:
                raise ConfigError(f"line {i + 1}: malformed label permutation")
            if len(word) == 1 or (not word and i in labels):
                raise ConfigError(f"line {i + 1}: polygon needs at least 2 vertices")
    polygons = tuple(map(Polygon, filter(None, words)))
    if not polygons:
        raise ConfigError("no polygons found")
    for i, label in labels.items():
        n = len(words[i])
        if label != list(range(1, n + 1)):
            raise ConfigError(
                f"polygon {i - words[:i].count(())}: label is not a permutation of 1..{n}"
            )
    # the checks above are all of BrauerConfiguration's: str.split yields no
    # empty label, so the words are not checked again
    return BrauerConfiguration._make((polygons,))
