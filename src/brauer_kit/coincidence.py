"""Coincidence statistics and the Friedman ciphertext-only attack.

Indices of coincidence are exact rationals; decimals appear only when
rendering reports.  The attack splits a ciphertext into candidate decimated
lists, scores key lengths by how close the per-list indices come to the
English target 0.065, recovers shift differences from mutual indices, and
ranks the anchored keys by a chi-squared fit of the decryption.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .cipher import CipherError, LETTERS, VigenereKey

# Relative letter frequencies of English text, in percent, A to Z.
ENGLISH_FREQUENCIES = dict(zip(LETTERS, (
    8.167, 1.492, 2.782, 4.253, 12.702, 2.228, 2.015, 6.094, 6.966, 0.153,
    0.772, 4.025, 2.406, 6.749, 7.507, 1.929, 0.095, 5.987, 6.327, 9.056,
    2.758, 0.978, 2.360, 0.150, 1.974, 0.074,
)))

IOC_TARGET = Fraction(65, 1000)
IOC_WINDOW = Fraction(1, 100)


def letter_counts(text: str) -> list[int]:
    """Occurrences of each letter of A-Z in ``text``, in alphabet order."""
    counts = Counter(text)
    unknown = set(counts) - set(LETTERS)
    if unknown:
        raise CipherError(f"characters {sorted(unknown)} are not in the alphabet")
    return [counts.get(ch, 0) for ch in LETTERS]


def index_of_coincidence(text: str) -> Fraction:
    """Probability that two random positions of ``text`` hold the same
    character: sum f(f-1) / (N(N-1))."""
    n = len(text)
    if n < 2:
        raise CipherError("index of coincidence needs a text of length >= 2")
    num = sum(f * (f - 1) for f in letter_counts(text))
    return Fraction(num, n * (n - 1))


def _overlap(f1: list[int], f2: list[int], shift: int) -> int:
    """Numerator of the shifted mutual index: sum_i f1[i] * f2[i - shift]."""
    n = len(f1)
    return sum(f1[i] * f2[(i - shift) % n] for i in range(n))


def decimate(text: str, m: int) -> list[str]:
    """Split ``text`` into m lists; list i takes positions i, i+m, i+2m, ...
    Each list must hold 2 characters, so the text needs 2m: checked first."""
    if m < 1:
        raise CipherError("list count must be >= 1")
    if len(text) < 2 * m:
        raise CipherError(f"splitting into {m} lists leaves a list shorter than 2")
    return [text[i::m] for i in range(m)]


def _chi_squared(counts: list[int], n: int) -> float:
    """Chi-squared statistic of letter counts summing to ``n`` > 0."""
    score = 0.0
    for count, freq in zip(counts, ENGLISH_FREQUENCIES.values()):
        exp = n * freq / 100.0
        score += (count - exp) ** 2 / exp
    return score


# ---------------------------------------------------------------------------
# Key length estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KeyLengthCandidate:
    m: int
    per_list_ioc: tuple[Fraction, ...]
    score: Fraction  # mean |ioc - target| over the m lists
    flagged: bool    # every list has |ioc - target| <= IOC_WINDOW
    related: tuple[int, ...]  # other flagged lengths in divisor relation


def friedman_keylength(cipher: str, max_len: int) -> list[KeyLengthCandidate]:
    """Rank candidate key lengths 1..max_len by mean |IoC - 0.065|.

    Candidates are sorted by ascending score, ties by smaller length.  When
    several flagged lengths divide one another (a key length and its
    multiples explain the same text equally well), each carries the others
    in ``related`` rather than being dropped.
    """
    if max_len < 1:
        raise CipherError("max_len must be >= 1")
    if len(cipher) < 2 * max_len:
        raise CipherError(
            f"ciphertext of length {len(cipher)} is too short for key lengths up to {max_len}"
        )
    scored = []  # (m, per-list IoCs, score, flagged) for every m
    for m in range(1, max_len + 1):
        iocs = tuple(index_of_coincidence(part) for part in decimate(cipher, m))
        deviations = [abs(i - IOC_TARGET) for i in iocs]
        scored.append((m, iocs, sum(deviations, Fraction(0)) / m, max(deviations) <= IOC_WINDOW))
    flagged = [m for m, _, _, flag in scored if flag]
    candidates = [
        KeyLengthCandidate(m, iocs, score, flag, tuple(
            other for other in flagged if other != m and (other % m == 0 or m % other == 0)
        ) if flag else ())
        for m, iocs, score, flag in scored
    ]
    return sorted(candidates, key=lambda c: (c.score, c.m))


# ---------------------------------------------------------------------------
# Key recovery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KeyCandidate:
    key: str
    chi2: float


@dataclass(frozen=True)
class KeyRecovery:
    differences: tuple[tuple[int, int, int], ...]  # (i, j, k_i - k_j mod n)
    residuals: tuple[tuple[int, int, int], ...]    # pairs inconsistent with the star solution
    candidates: tuple[KeyCandidate, ...]           # ranked by chi-squared, best first


def friedman_recover_key(cipher: str, m: int) -> KeyRecovery:
    """Recover Vigenere key candidates of length ``m``.

    For each list pair the shift maximizing the mutual index gives one
    difference k_i - k_j.  The star of pairs (0, j) fixes the key up to k_0;
    every other pair is checked against it and, where it disagrees, reported
    in ``residuals``.  The 26 choices of k_0 are ranked by the chi-squared
    fit of their decryptions against English frequencies, taken from the
    per-list letter counts rotated by each key residue.
    """
    n = len(LETTERS)
    counts = [letter_counts(part) for part in decimate(cipher, m)]
    # max keeps the first of equal overlaps, so ties go to the smaller shift
    differences = tuple(
        (i, j, max(range(n), key=lambda s: _overlap(counts[i], counts[j], s)))
        for i in range(m)
        for j in range(i + 1, m)
    )
    # the first m - 1 pairs are the star (0, j); with k_0 = 0 they fix the key
    base = (0,) + tuple(-d % n for _, _, d in differences[: m - 1])
    residuals = tuple(
        (i, j, residual)
        for i, j, d in differences
        if (residual := (d - (base[i] - base[j])) % n)
    )
    candidates = []
    for k0 in range(n):
        # the difference system is translation invariant, so every anchor
        # choice shifts the base solution uniformly
        key = tuple((r + k0) % n for r in base)
        # list j decrypts cipher letter h + k_j to plaintext letter h
        plain = [sum(c[(h + k) % n] for c, k in zip(counts, key)) for h in range(n)]
        candidates.append(
            KeyCandidate(VigenereKey(key).to_text(), _chi_squared(plain, len(cipher)))
        )
    candidates.sort(key=lambda c: c.chi2)
    return KeyRecovery(differences, residuals, tuple(candidates))
