"""Brauer configurations and their closed-form algebra invariants.

A configuration is an ordered list of polygons; each polygon is a word
(an ordered multiset) over opaque vertex labels.  The list order is the
orientation used to build successor sequences.  Every vertex is kept
non-truncated: valency-1 vertices carry multiplicity 2, all others
multiplicity 1.

The induced quiver has one node per polygon.  Each vertex contributes one
arrow per covering in the circular order of its occurrences; a valency-1
vertex contributes a single loop at its polygon.  From valencies, the
multiplicity rule and the loop census, the dimension of the algebra and of
its center follow in exact integer arithmetic.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence


class ConfigError(ValueError):
    """Structurally invalid polygon, configuration or configuration file."""


class UnknownVertexError(KeyError):
    """An operation named a vertex that is not in the configuration."""


# ---------------------------------------------------------------------------
# Data types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Polygon:
    """One word of a configuration: the ordered vertex occurrences
    (repetitions allowed).  Its index is its position in the configuration."""

    word: tuple[str, ...]


@dataclass(frozen=True)
class BrauerConfiguration:
    """An ordered tuple of polygons; polygon order fixes successor sequences."""

    polygons: tuple[Polygon, ...]

    def __post_init__(self):
        if not self.polygons:
            raise ConfigError("configuration has no polygons")
        for i, poly in enumerate(self.polygons):
            if len(poly.word) < 2:
                raise ConfigError(f"polygon {i}: word length {len(poly.word)} < 2")
            if any(not isinstance(v, str) or not v for v in poly.word):
                raise ConfigError(f"polygon {i}: empty vertex label")

    @property
    def vertex_universe(self) -> tuple[str, ...]:
        """All vertices, ordered by first occurrence."""
        seen: dict[str, None] = {}
        for poly in self.polygons:
            for v in poly.word:
                seen.setdefault(v, None)
        return tuple(seen)


def config_from_words(words: Iterable[Sequence[str]]) -> BrauerConfiguration:
    """Build a configuration from an iterable of vertex-label sequences."""
    return BrauerConfiguration(tuple(Polygon(tuple(w)) for w in words))


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


@dataclass(frozen=True)
class AlgebraInvariants:
    """Dimension data of the algebra induced by a configuration.

    The center formula is stated for connected configurations; on
    disconnected input ``dim_center`` still carries the formula value
    (several published reference figures rely on exactly that reading) and
    ``connected`` flags the caveat.
    """

    dim_lambda: int
    dim_center: int
    loops: int
    polygon_count: int
    vertex_count: int
    valency_histogram: Mapping[int, int]
    connected: bool = True

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
# Valency, successor sequences, quiver
# ---------------------------------------------------------------------------

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
    order.  A valency-1 vertex yields a single loop at its polygon.  This is
    the definition-level construction, the reference ``invariants`` is
    checked against; it rescans the configuration once per vertex.
    """
    arrows: list[Arrow] = []
    for vertex in config.vertex_universe:
        seq = successor_sequence(config, vertex)
        if len(seq) == 1:
            arrows.append(Arrow(seq[0][0], seq[0][0], vertex))
            continue
        for i, (src, _) in enumerate(seq):
            tgt = seq[(i + 1) % len(seq)][0]
            arrows.append(Arrow(src, tgt, vertex))
    return Quiver(tuple(arrows))


# ---------------------------------------------------------------------------
# Dimensions
# ---------------------------------------------------------------------------

def invariants(config: BrauerConfiguration) -> AlgebraInvariants:
    """Full invariant bundle from one counting pass over the polygons;
    disconnected input is flagged rather than rejected, with the center
    formula applied verbatim.

    The loop census is the closed form of the circular successor orders:
    each polygon contributes (word length - #distinct vertices) loops, one
    per repeated occurrence, and a vertex confined to one polygon closes its
    circular order there with one loop more.  The same pass joins every
    polygon holding a vertex to the first one that held it; the incidence
    graph is connected when a single root remains.
    """
    valencies: Counter = Counter()
    first: dict[str, int] = {}  # vertex -> first polygon holding it
    shared: set[str] = set()    # vertices held by more than one polygon
    parent = list(range(len(config.polygons)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    loops = 0
    for i, poly in enumerate(config.polygons):
        distinct = set(poly.word)
        valencies.update(poly.word)
        loops += len(poly.word) - len(distinct)
        for v in distinct:
            j = first.setdefault(v, i)
            if j != i:
                shared.add(v)
                parent[find(i)] = find(j)
    loops += len(first) - len(shared)
    inv = invariants_from_histogram(
        len(config.polygons), Counter(valencies.values()), loops
    )
    roots = sum(1 for i, p in enumerate(parent) if i == p)
    return inv if roots == 1 else replace(inv, connected=False)


def invariants_from_histogram(
    polygon_count: int,
    valency_histogram: Mapping[int, int],
    loops: int,
) -> AlgebraInvariants:
    """Invariants from summary data alone: a valency histogram, the polygon
    count and a loop census.  Assumes the standard multiplicity rule and a
    connected configuration.  This is the one home of the dimension
    formulas; ``invariants`` feeds it the counts of a configuration."""
    if polygon_count < 1:
        raise ConfigError("polygon count must be positive")
    histogram = {int(k): int(v) for k, v in valency_histogram.items()}
    if any(k < 1 or v < 0 for k, v in histogram.items()):
        raise ConfigError("histogram entries must map valency >= 1 to count >= 0")
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


# ---------------------------------------------------------------------------
# Configuration file format
# ---------------------------------------------------------------------------
# Line-oriented: one polygon per line (lines end only at "\n"),
# whitespace-separated vertex labels, '#' starts a comment, and an optional
# suffix, begun by a token that starts with "label:", gives a permutation of
# word positions as space-separated 1-based integers.  The permutation is
# checked and then dropped: no invariant depends on it.

_LABEL_SUFFIX = re.compile(r"(?<!\S)label:")


def parse_config(text: str) -> BrauerConfiguration:
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
                label = sorted(int(tok) for tok in line[suffix.end():].split())
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
