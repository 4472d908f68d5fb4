import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from brauer_kit.cipher import LETTERS, CipherError, VigenereKey, vigenere_decrypt, vigenere_encrypt
from brauer_kit.coincidence import (
    ENGLISH_FREQUENCIES,
    IOC_TARGET,
    IOC_WINDOW,
    decimate,
    friedman_keylength,
    friedman_recover_key,
    index_of_coincidence,
)
from textgen import SAMPLE_TEXT, sample_english, sample_uniform

CIPHERTEXT = "OOPAELRIXFGGBWDODDEPK"


def ioc_oracle(text):
    """Brute force: fraction of position pairs holding equal characters."""
    pairs = list(combinations(range(len(text)), 2))
    equal = sum(1 for i, j in pairs if text[i] == text[j])
    return Fraction(equal, len(pairs))


def mutual_index_shift(t1, t2, shift):
    """Reference for the attack's shifted overlaps: the fraction of letter
    pairs (a from t1, b from t2) with a = b + shift mod 26."""
    c1, c2 = Counter(t1), Counter(t2)
    hits = sum(c1[a] * c2[LETTERS[(LETTERS.index(a) - shift) % 26]] for a in c1)
    return Fraction(hits, len(t1) * len(t2))


def chi_squared(text):
    """Reference for the attack's chi-squared, which it takes from rotated
    per-list counts: the statistic of ``text``'s own letter counts against
    English frequencies, in the same float operations."""
    counts = Counter(text)
    score = 0.0
    for letter, freq in ENGLISH_FREQUENCIES.items():
        expected = len(text) * freq / 100.0
        score += (counts[letter] - expected) ** 2 / expected
    return score


# ---------------------------------------------------------------------------
# Index of coincidence
# ---------------------------------------------------------------------------

def test_ioc_constant_text():
    assert index_of_coincidence("AAAA") == 1


def test_ioc_all_distinct():
    assert index_of_coincidence("ABCDEF") == 0


def test_ioc_worked_ciphertext():
    assert ioc_oracle(CIPHERTEXT) == Fraction(18, 420)
    assert index_of_coincidence(CIPHERTEXT) == Fraction(18, 420)


def test_ioc_requires_two_characters():
    with pytest.raises(CipherError):
        index_of_coincidence("A")


@given(st.text(alphabet="ABCD", min_size=2, max_size=40))
def test_ioc_matches_pair_counting_oracle(text):
    assert index_of_coincidence(text) == ioc_oracle(text)


@given(st.text(alphabet="ABCD", min_size=2, max_size=40), st.randoms(use_true_random=False))
def test_ioc_permutation_invariant(text, rng):
    chars = list(text)
    rng.shuffle(chars)
    assert index_of_coincidence("".join(chars)) == index_of_coincidence(text)


# ---------------------------------------------------------------------------
# Mutual index
# ---------------------------------------------------------------------------

def test_mutual_index_identical_single_characters():
    assert mutual_index_shift("A", "A", 0) == 1


def test_mutual_index_disjoint_alphabets():
    assert mutual_index_shift("AAAA", "BBBB", 0) == 0


def test_mutual_index_shift_peaks_at_key_difference():
    shifted = vigenere_encrypt(SAMPLE_TEXT, VigenereKey.from_text("F"))  # shift 5
    scores = [mutual_index_shift(SAMPLE_TEXT, shifted, s) for s in range(26)]
    assert scores.index(max(scores)) == (0 - 5) % 26


@given(st.text(alphabet="ABCDE", min_size=1, max_size=30),
       st.text(alphabet="ABCDE", min_size=1, max_size=30),
       st.integers(0, 25))
def test_mutual_index_swap_symmetry(t1, t2, s):
    assert mutual_index_shift(t1, t2, s) == mutual_index_shift(t2, t1, (-s) % 26)


# ---------------------------------------------------------------------------
# Key length estimation
# ---------------------------------------------------------------------------

def test_decimate_round_robin():
    assert decimate("ABCDEFG", 3) == ["ADG", "BE", "CF"]
    assert decimate("ABCD", 2) == ["AC", "BD"]
    with pytest.raises(CipherError, match="splitting into 2 lists leaves a list shorter than 2"):
        decimate("ABC", 2)


def test_keylength_found_on_generated_ciphertext():
    rng = random.Random(42)
    plain = sample_english(rng, 700)
    cipher = vigenere_encrypt(plain, VigenereKey.from_text("MDPI"))
    candidates = friedman_keylength(cipher, 8)
    assert candidates[0].m == 4
    top = candidates[0]
    assert all(abs(i - IOC_TARGET) <= Fraction(15, 1000) for i in top.per_list_ioc)


def test_keylength_monoalphabetic_ioc_near_target():
    rng = random.Random(7)
    plain = sample_english(rng, 600)
    cipher = vigenere_encrypt(plain, VigenereKey.from_text("Q"))
    [ioc] = friedman_keylength(cipher, 1)[0].per_list_ioc
    assert abs(ioc - IOC_TARGET) <= Fraction(1, 100)


def test_keylength_uniform_text_not_flagged():
    rng = random.Random(3)
    cipher = sample_uniform(rng, 600)
    candidates = friedman_keylength(cipher, 8)
    assert not any(c.flagged for c in candidates)
    for c in candidates:
        for ioc in c.per_list_ioc:
            assert abs(ioc - Fraction(1, 26)) < Fraction(2, 100)


def test_keylength_reports_divisor_ambiguity():
    rng = random.Random(11)
    plain = sample_english(rng, 800)
    cipher = vigenere_encrypt(plain, VigenereKey.from_text("KEY"))
    candidates = friedman_keylength(cipher, 6)
    by_m = {c.m: c for c in candidates}
    if by_m[3].flagged and by_m[6].flagged:
        assert 6 in by_m[3].related and 3 in by_m[6].related


def test_keylength_rejects_short_ciphertext():
    with pytest.raises(CipherError):
        friedman_keylength("ABCDE", 8)


def keylength_reference(cipher, max_len):
    """README's ranking written out plainly: (m, per-list IoCs, score,
    flagged, related) for every length, by ascending score, then length."""
    rows = []
    for m in range(1, max_len + 1):
        iocs = []
        for part in (cipher[i::m] for i in range(m)):
            counts = Counter(part)
            iocs.append(Fraction(sum(f * (f - 1) for f in counts.values()),
                                 len(part) * (len(part) - 1)))
        deviations = [abs(i - IOC_TARGET) for i in iocs]
        rows.append((m, tuple(iocs), sum(deviations) / m,
                     all(d <= IOC_WINDOW for d in deviations)))
    flagged = {m for m, _, _, flag in rows if flag}
    ranked = [
        (m, iocs, score, flag, tuple(sorted(
            other for other in flagged
            if other != m and (other % m == 0 or m % other == 0)
        )) if flag else ())
        for m, iocs, score, flag in rows
    ]
    return sorted(ranked, key=lambda row: (row[2], row[0]))


# English under a short key flags its length and the multiples; uniform
# letters flag nothing
ENCRYPTED_TEXTS = st.builds(
    lambda seed, length, key: vigenere_encrypt(
        sample_english(random.Random(seed), length), VigenereKey(tuple(key))
    ),
    st.integers(0, 2**32),
    st.integers(24, 600),
    st.lists(st.integers(0, 25), min_size=1, max_size=4),
) | st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ", min_size=24, max_size=300)


@settings(max_examples=60, deadline=None)
@given(ENCRYPTED_TEXTS, st.integers(1, 12))
@example("AAABBBCCCDEFGHIJ", 1)  # IoC 18/240 = 0.075, on the window's edge
def test_keylength_matches_plain_reference(cipher, max_len):
    candidates = friedman_keylength(cipher, max_len)
    assert [
        (c.m, c.per_list_ioc, c.score, c.flagged, c.related) for c in candidates
    ] == keylength_reference(cipher, max_len)


# ---------------------------------------------------------------------------
# Key recovery
# ---------------------------------------------------------------------------

def test_recover_key_reports_pairs_off_the_star():
    recovery = friedman_recover_key(CIPHERTEXT, 4)
    assert recovery.differences == (
        (0, 1, 18), (0, 2, 23), (0, 3, 15), (1, 2, 25), (1, 3, 14), (2, 3, 15),
    )
    # the star fixes k = (0, 8, 3, 11); (1, 2) then disagrees by 25 - (8 - 3)
    assert recovery.residuals == ((1, 2, 20), (1, 3, 17), (2, 3, 23))


@settings(max_examples=80, deadline=None)
@given(st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ", min_size=4, max_size=300), st.data())
def test_residuals_are_the_pairs_off_the_star(cipher, data):
    m = data.draw(st.integers(1, min(len(cipher) // 2, 12)))
    recovery = friedman_recover_key(cipher, m)
    assert [(i, j) for i, j, _ in recovery.differences] == [
        (i, j) for i in range(m) for j in range(i + 1, m)
    ]
    for candidate in recovery.candidates:
        k = VigenereKey.from_text(candidate.key).residues
        off = {(i, j): (d - (k[i] - k[j])) % 26 for i, j, d in recovery.differences}
        assert all(off[0, j] == 0 for j in range(1, m))
        assert recovery.residuals == tuple(
            (i, j, r) for (i, j), r in off.items() if r
        )


def test_recover_key_caesar_identity():
    recovery = friedman_recover_key(SAMPLE_TEXT, 1)
    assert recovery.candidates[0].key == "A"


def test_recover_key_end_to_end():
    rng = random.Random(99)
    plain = sample_english(rng, 800)
    cipher = vigenere_encrypt(plain, VigenereKey.from_text("MDPI"))
    recovery = friedman_recover_key(cipher, 4)
    assert "MDPI" in [c.key for c in recovery.candidates[:3]]
    assert recovery.residuals == ()


def test_recover_key_rejects_trivial_lists():
    with pytest.raises(CipherError):
        friedman_recover_key("ABCD", 3)


def test_chi_squared_prefers_english():
    shifted = vigenere_encrypt(SAMPLE_TEXT, VigenereKey.from_text("G"))
    assert chi_squared(SAMPLE_TEXT) < chi_squared(shifted)


def test_recovered_differences_peak_mutual_index():
    cipher = vigenere_encrypt(SAMPLE_TEXT, VigenereKey.from_text("KEY"))
    lists = decimate(cipher, 3)
    recovery = friedman_recover_key(cipher, 3)
    assert [(i, j) for i, j, _ in recovery.differences] == [(0, 1), (0, 2), (1, 2)]
    for i, j, d in recovery.differences:
        row = [mutual_index_shift(lists[i], lists[j], s) for s in range(26)]
        assert row[d] == max(row)


@pytest.mark.parametrize("m, length", [(1, 200), (3, 301), (4, 803), (7, 1000)])
def test_key_candidate_chi2_equals_chi2_of_decryption(m, length):
    # candidates are scored from rotated per-list counts; the decryption
    # they stand for must give exactly the same float
    rng = random.Random(m * length)
    key = VigenereKey(tuple(rng.randrange(26) for _ in range(m)))
    cipher = vigenere_encrypt(sample_english(rng, length), key)
    candidates = friedman_recover_key(cipher, m).candidates
    assert len(candidates) == 26
    for c in candidates:
        plain = vigenere_decrypt(cipher, VigenereKey.from_text(c.key))
        assert c.chi2 == chi_squared(plain)
