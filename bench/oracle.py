"""Output checks for the benchmark, computed apart from the program.

Every expected value here comes from the generator's own data and from the
closed forms README states: the valency histogram, the per-polygon
frequency form of the loop census, dim Lambda, dim Z and connectivity by a
union-find of this file's own.  The program is never imported.

``python3 bench/oracle.py`` tests the oracle itself against README's table
of fixture figures.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from collections import Counter
from fractions import Fraction
from pathlib import Path

import gen

SVG = "{http://www.w3.org/2000/svg}"
PITCHES = "abcdefg"
TREBLE_REFERENCE = "e"
CLOSURE_DASH = "6,4"
REST_DASH = "2,6"
DEFAULT_TOP = 5


class OracleError(AssertionError):
    """The program's output disagrees with the oracle."""


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise OracleError(what)


def _round(value) -> float:
    return round(float(value), 6)


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------

def _connected(words) -> bool:
    parent = list(range(len(words)))

    def root(i: int) -> int:
        while parent[i] != i:
            i = parent[i]
        return i

    first: dict = {}
    for i, word in enumerate(words):
        for v in word:
            j = first.setdefault(v, i)
            parent[root(i)] = root(j)
    return len({root(i) for i in range(len(words))}) == 1


def config_invariants(words) -> dict:
    """The invariants report README specifies, from closed forms."""
    valency: Counter = Counter()
    polygons_of: Counter = Counter()  # vertex -> distinct polygons holding it
    repeats = 0                        # sum over polygons of (f - 1)
    for word in words:
        freq = Counter(word)
        valency.update(freq)
        polygons_of.update(freq.keys())
        repeats += sum(f - 1 for f in freq.values())
    # a vertex met in one polygon only closes its circular order there
    loops = repeats + sum(1 for k in polygons_of.values() if k == 1)
    singletons = sum(1 for f in valency.values() if f == 1)
    mu_sum = len(valency) + singletons
    dim_lambda = 2 * len(words) + sum(
        f * (f * (2 if f == 1 else 1) - 1) for f in valency.values()
    )
    dim_center = 1 + len(words) - len(valency) + mu_sum + loops - singletons
    histogram = Counter(valency.values())
    report = {
        "schema": "1",
        "dimLambda": dim_lambda,
        "dimCenter": dim_center,
        "loops": loops,
        "polygons": len(words),
        "vertices": len(valency),
        "valencyHistogram": {str(k): histogram[k] for k in sorted(histogram)},
    }
    if not _connected(words):
        report["connected"] = False
    return report


def histogram_dims(polygons: int, histogram: dict, loops: int) -> tuple[int, int]:
    """dim Lambda and dim Z from summary data: polygon count, valency
    histogram and loop census."""
    hist = {int(k): v for k, v in histogram.items()}
    vertices = sum(hist.values())
    singletons = hist.get(1, 0)
    dim_lambda = 2 * polygons + sum(
        n * f * (f * (2 if f == 1 else 1) - 1) for f, n in hist.items()
    )
    dim_center = 1 + polygons - vertices + (vertices + singletons) + loops - singletons
    return dim_lambda, dim_center


def check_analyze(report: dict, expected: dict) -> None:
    _expect(report == expected, f"analyze report {report} != oracle {expected}")
    _expect(list(report) == list(expected), "analyze report key order")


# ---------------------------------------------------------------------------
# Attack
# ---------------------------------------------------------------------------

def _ioc(text: str) -> Fraction:
    n = len(text)
    return Fraction(sum(f * (f - 1) for f in Counter(text).values()), n * (n - 1))


def _split(cipher: str, counts: Counter, m: int) -> dict:
    """The report fields that depend on the key length ``m``."""
    n = len(cipher)
    singletons = sum(1 for f in counts.values() if f == 1)
    dim_lambda = 2 * m + sum(f * (f - 1) for f in counts.values() if f >= 2) + singletons
    lists = [cipher[i::m] for i in range(m)]
    split = config_invariants(lists)
    _expect(split["dimLambda"] == dim_lambda, "oracle: two forms of dim Lambda")
    return {
        "brauerIoc": _round(Fraction(dim_lambda - 2 * m, n * (n - 1))),
        "perListIoC": [_round(_ioc(part)) for part in lists],
        "brauer": {
            "dimLambda": dim_lambda,
            "dimCenter": split["dimCenter"],
            "loops": split["loops"],
        },
    }


def expect_attack(data: dict, max_keylen: int) -> dict:
    """Expected report fields, for the key length and for each multiple of
    it up to ``max_keylen``: README lets a multiple rank first, with the key
    length among its ``related`` lengths."""
    cipher, key = data["cipher"], data["key"]
    _expect(gen.vigenere(cipher, key, -1) == data["plain"], "generator round trip")
    counts = Counter(cipher)
    return {
        "length": len(cipher),
        "ioc": _round(_ioc(cipher)),
        "key": key,
        "by_keylen": {
            m: _split(cipher, counts, m)
            for m in range(len(key), max_keylen + 1, len(key))
        },
    }


def check_attack(report: dict, expected: dict, max_keylen: int) -> None:
    for field in ("length", "ioc"):
        _expect(report[field] == expected[field],
                f"attack {field}: {report[field]} != oracle {expected[field]}")
    m, key = report["recoveredKeylen"], expected["key"]
    _expect(m in expected["by_keylen"], f"recovered key length {m}, key has {len(key)}")
    split = expected["by_keylen"][m]
    for field in ("brauerIoc", "brauer"):
        _expect(report[field] == split[field],
                f"attack {field}: {report[field]} != oracle {split[field]}")
    keys = report["keyCandidates"]
    _expect(len(keys) == DEFAULT_TOP, f"{len(keys)} key candidates, want {DEFAULT_TOP}")
    _expect(keys[0]["key"] == key * (m // len(key)), f"top key {keys[0]['key']}")
    chi2 = [k["chi2"] for k in keys]
    _expect(chi2 == sorted(chi2), "key candidates not sorted by chi2")
    lengths = report["keylengthCandidates"]
    _expect(sorted(c["m"] for c in lengths) == list(range(1, max_keylen + 1)),
            "key length candidates do not cover 1..max")
    scores = [c["score"] for c in lengths]
    _expect(scores == sorted(scores), "key length candidates not sorted by score")
    top = lengths[0]
    _expect(top["m"] == m, f"top key length {top['m']}")
    _expect(top["perListIoC"] == split["perListIoC"], "per-list IoC of the key length")
    if m != len(key):
        _expect(len(key) in top["related"], f"key length {m} does not relate {len(key)}")


# ---------------------------------------------------------------------------
# Diagrams
# ---------------------------------------------------------------------------

def _offset(label: str) -> int | None:
    if label.startswith("r"):
        return None
    pitch = label[1] if label[0] in "-+=" else label[0]
    d = (PITCHES.index(pitch) - PITCHES.index(TREBLE_REFERENCE)) % 7
    return d if d <= 4 else d - 7


def expect_graph(words) -> dict:
    labels = list(dict.fromkeys(v for word in words for v in word))
    points = [{"label": v, "x": x, "y": _offset(v)} for x, v in enumerate(labels)]
    pitched = [p for p in points if p["y"] is not None]
    edges = [[a["x"], b["x"]] for a, b in zip(pitched, pitched[1:]) if a["y"] != b["y"]]
    return {"schema": "1", "orientation": "standard", "points": points, "edges": edges}


def check_graph(diagram: dict, svg_text: str, expected: dict) -> bool:
    """Raise on a wrong diagram; return False when the SVG breaks README's
    rule that dashed lines are drawn only for ``--edges`` closure pairs."""
    _expect(diagram == expected, "graph JSON differs from the oracle's diagram")
    root = ET.fromstring(svg_text)
    _expect(root.tag == SVG + "svg", "SVG root element")
    points = expected["points"]
    circles = root.findall(SVG + "circle")
    _expect(len(circles) == sum(1 for p in points if p["y"] is not None),
            "one circle per pitched point")
    lines = root.findall(SVG + "line")
    rests = [e for e in lines if e.get("stroke-dasharray") == REST_DASH]
    _expect(len(rests) == sum(1 for p in points if p["y"] is None),
            "one vertical mark per rest")
    dashed = [e for e in lines if e.get("stroke-dasharray") == CLOSURE_DASH]
    segments = sum(
        len(e.get("points").split()) - 1 for e in root.findall(SVG + "polyline")
    )
    _expect(segments + len(dashed) == len(expected["edges"]), "one stroke per edge")
    return not dashed


# ---------------------------------------------------------------------------
# Self-test against README's fixture table
# ---------------------------------------------------------------------------

# fixture: (polygons, dim Lambda, dim Z, loops)
README_SCORES = {
    "slym": (7, 176, 20, 12),
    "canon_a6": (9, 109, 22, 12),
    "canon_crab": (18, 589, 55, 36),
    "canon_qi": (28, 1569, 70, 41),
}
README_DISCONNECTED = "canon_a6"
# fixture: (polygons, dim Lambda, dim Z, loops)
README_HISTOGRAMS = {
    "canon_crab": (13, 582, 46, 32),
    "canon_qi": (28, 1565, 67, 38),
}


def score_words(text: str) -> list[tuple[str, ...]]:
    """Measures of a score as note-class words.  Headers, comments and the
    group symbols ``[ ] ( )`` carry no class."""
    measures: list[list[str]] = []
    for line in text.splitlines():
        for tok in line.split("#", 1)[0].split():
            if tok == "|":
                measures.append([])
            elif tok in "[]()" or "=" in tok[1:]:
                continue
            elif tok.startswith(("{", "}")):
                raise ValueError("repeat groups are not read by the oracle")
            else:
                measures[-1].append(tok)
    return [tuple(m) for m in measures if m]


def self_test(fixture_dir: Path) -> None:
    for stem, figures in README_SCORES.items():
        inv = config_invariants(score_words((fixture_dir / f"{stem}.bsc").read_text()))
        got = (inv["polygons"], inv["dimLambda"], inv["dimCenter"], inv["loops"])
        _expect(got == figures, f"oracle on {stem}.bsc: {got}")
        if stem == README_DISCONNECTED:
            _expect(inv.get("connected") is False, f"{stem}.bsc is disconnected")
    for stem, (polygons, dim_l, dim_z, loops) in README_HISTOGRAMS.items():
        data = json.loads((fixture_dir / f"{stem}.hist.json").read_text())
        _expect((data["polygons"], data["loops"]) == (polygons, loops),
                f"{stem}.hist.json summary")
        got = histogram_dims(polygons, data["valencyHistogram"], loops)
        _expect(got == (dim_l, dim_z), f"oracle on {stem}.hist.json: {got}")


if __name__ == "__main__":
    fixtures = Path(__file__).resolve().parents[1] / "src" / "brauer_kit" / "fixtures"
    self_test(fixtures)
    print(f"oracle agrees with README's table on {len(README_SCORES)} scores "
          f"and {len(README_HISTOGRAMS)} histograms")
