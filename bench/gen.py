"""Seeded input generators for the benchmark workloads.

Each generator returns the text of one input file together with the data
the oracle needs to check the program's answer (the plaintext and key, the
polygon words, the measures).  The same seed and size always give the same
input.  Nothing here imports the program.
"""

from __future__ import annotations

import random

ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"

# Relative letter frequencies of English text, in percent (A..Z).
ENGLISH_WEIGHTS = (
    8.167, 1.492, 2.782, 4.253, 12.702, 2.228, 2.015, 6.094, 6.966, 0.153,
    0.772, 4.025, 2.406, 6.749, 7.507, 1.929, 0.095, 5.987, 6.327, 9.056,
    2.758, 0.978, 2.360, 0.150, 1.974, 0.074,
)

ATTACK_KEY = "QUAERENDO"
ATTACK_LINE = 80

POLYGON_LABELS = 10

SCORE_HEADER = "clef=treble time=4/4"
MEASURE_UNITS = 64  # 4/4 in duration-exponent units
DURATIONS = (16, 8, 4, 2)
REST_SHARE = 0.10
# Flat and sharp shares among pitched notes; the rest are plain.
FLAT_SHARE = 0.15
SHARP_SHARE = 0.15
# Every score opens with this measure.  Its first-appearance classes are
# e16, r16, g16, a16, so the chain edge e16 -> g16 spans the rest class
# r16; that makes the rest-spanning edge of every generated score
# independent of the seed.
OPENING_MEASURE = ("e16", "r16", "g16", "a16")


def vigenere(text: str, key: str, sign: int = 1) -> str:
    shifts = [ALPHABET.index(k) for k in key]
    m = len(shifts)
    return "".join(
        ALPHABET[(ALPHABET.index(ch) + sign * shifts[i % m]) % 26]
        for i, ch in enumerate(text)
    )


def attack_input(seed: int, length: int) -> dict:
    """English-frequency plaintext under the fixed key, as 80-column lines."""
    rng = random.Random(f"attack/{seed}/{length}")
    plain = "".join(rng.choices(ALPHABET, weights=ENGLISH_WEIGHTS, k=length))
    cipher = vigenere(plain, ATTACK_KEY)
    lines = [cipher[i:i + ATTACK_LINE] for i in range(0, length, ATTACK_LINE)]
    return {"text": "\n".join(lines) + "\n", "plain": plain, "cipher": cipher,
            "key": ATTACK_KEY}


def config_input(seed: int, polygons: int) -> dict:
    """Random polygons of 10 vertices drawn, with repetition, from
    3 x polygons names."""
    rng = random.Random(f"config/{seed}/{polygons}")
    universe = 3 * polygons
    words = [
        tuple(f"v{rng.randrange(universe)}" for _ in range(POLYGON_LABELS))
        for _ in range(polygons)
    ]
    text = "".join(" ".join(w) + "\n" for w in words)
    return {"text": text, "words": words}


def _note(rng: random.Random, duration: int) -> str:
    if rng.random() < REST_SHARE:
        return f"r{duration}"
    r = rng.random()
    acc = "-" if r < FLAT_SHARE else "+" if r < FLAT_SHARE + SHARP_SHARE else ""
    return f"{acc}{rng.choice('abcdefg')}{duration}"


def score_input(seed: int, measures: int) -> dict:
    """Treble 4/4 score: the fixed opening measure, then random measures."""
    rng = random.Random(f"score/{seed}/{measures}")
    bars = [OPENING_MEASURE]
    for _ in range(measures - 1):
        left, bar = MEASURE_UNITS, []
        while left:
            duration = rng.choice([d for d in DURATIONS if d <= left])
            bar.append(_note(rng, duration))
            left -= duration
        bars.append(tuple(bar))
    text = SCORE_HEADER + "\n" + "".join("| " + " ".join(b) + "\n" for b in bars)
    return {"text": text, "words": bars}
