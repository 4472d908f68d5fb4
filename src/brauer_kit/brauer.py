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


class DisconnectedError(ValueError):
    """The center identity checked on a disconnected configuration.

    ``components`` holds the polygon indices of each connected component of
    the polygon-vertex incidence graph.
    """

    def __init__(self, components: Sequence[Sequence[int]]):
        self.components = tuple(tuple(c) for c in components)
        listed = "; ".join("{%s}" % ", ".join(map(str, c)) for c in self.components)
        super().__init__(f"configuration is disconnected: polygon components {listed}")


# ---------------------------------------------------------------------------
# Data types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Polygon:
    """One word of a configuration.

    ``index`` is the 0-based position in the configuration, ``word`` the
    ordered vertex occurrences (repetitions allowed).
    """

    index: int
    word: tuple[str, ...]

    def __post_init__(self):
        if self.index < 0:
            raise ConfigError(f"polygon index {self.index} is negative")
        if len(self.word) < 2:
            raise ConfigError(
                f"polygon {self.index}: word length {len(self.word)} < 2"
            )
        if any(not isinstance(v, str) or not v for v in self.word):
            raise ConfigError(f"polygon {self.index}: empty vertex label")

    def frequencies(self) -> Counter:
        """Occurrence count of each vertex within this word."""
        return Counter(self.word)


@dataclass(frozen=True)
class BrauerConfiguration:
    """An ordered tuple of polygons; polygon order fixes successor sequences."""

    polygons: tuple[Polygon, ...]

    def __post_init__(self):
        if not self.polygons:
            raise ConfigError("configuration has no polygons")
        for i, poly in enumerate(self.polygons):
            if poly.index != i:
                raise ConfigError(
                    f"polygon at position {i} carries index {poly.index}"
                )

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
    return BrauerConfiguration(tuple(Polygon(i, tuple(w)) for i, w in enumerate(words)))


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
        (poly.index, pos)
        for poly in config.polygons
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
# Connectivity
# ---------------------------------------------------------------------------

def polygon_components(config: BrauerConfiguration) -> list[list[int]]:
    """Connected components of the polygon-vertex incidence graph,
    as groups of polygon indices."""
    by_vertex: dict[str, list[int]] = {}
    for poly in config.polygons:
        for v in set(poly.word):
            by_vertex.setdefault(v, []).append(poly.index)

    n = len(config.polygons)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for members in by_vertex.values():
        root = find(members[0])
        for other in members[1:]:
            parent[find(other)] = root

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values())


# ---------------------------------------------------------------------------
# Dimensions
# ---------------------------------------------------------------------------

def dim_lambda(config: BrauerConfiguration) -> int:
    """Dimension of the induced algebra:
    2 * #polygons + sum over vertices of val * (val * mu - 1)."""
    return invariants(config).dim_lambda


def invariants(config: BrauerConfiguration) -> AlgebraInvariants:
    """Full invariant bundle from one counting pass over the polygons;
    disconnected input is flagged rather than rejected, with the center
    formula applied verbatim.

    The loop census is the closed form of the circular successor orders:
    each polygon contributes (word length - #distinct vertices) loops, one
    per repeated occurrence, and a vertex confined to one polygon closes its
    circular order there with one loop more.
    """
    valencies: Counter = Counter()
    polygons_of: Counter = Counter()  # vertex -> distinct polygons holding it
    loops = 0
    for poly in config.polygons:
        distinct = set(poly.word)
        valencies.update(poly.word)
        polygons_of.update(distinct)
        loops += len(poly.word) - len(distinct)
    loops += sum(1 for k in polygons_of.values() if k == 1)
    inv = invariants_from_histogram(
        len(config.polygons), Counter(valencies.values()), loops
    )
    return inv if len(polygon_components(config)) == 1 else replace(inv, connected=False)


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
# Center identity for frequency-one configurations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CenterIdentityVerdict:
    """Comparison of the center dimension against #polygons + #valency-1 + 1."""

    polygon_count: int
    val_one_count: int
    claimed: int
    actual: int

    @property
    def equal(self) -> bool:
        return self.claimed == self.actual


def check_center_identity(config: BrauerConfiguration) -> CenterIdentityVerdict:
    """Verify dim Z = m + n + 1 where m counts polygons and n the valency-1
    vertices.  Requires every within-polygon frequency to equal 1 and a
    connected configuration."""
    for poly in config.polygons:
        for v, f in poly.frequencies().items():
            if f > 1:
                raise ConfigError(
                    f"polygon {poly.index}: vertex {v!r} occurs {f} times; "
                    "the identity requires within-polygon frequency 1"
                )
    inv = invariants(config)
    if not inv.connected:
        raise DisconnectedError(polygon_components(config))
    m = inv.polygon_count
    n = inv.valency_histogram.get(1, 0)
    return CenterIdentityVerdict(m, n, m + n + 1, inv.dim_center)


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
