import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from brauer_kit.cipher import CipherError, VigenereKey, vigenere_decrypt, vigenere_encrypt
from brauer_kit.coincidence import (
    IOC_TARGET,
    chi_squared,
    decimate,
    friedman_keylength,
    friedman_recover_key,
    index_of_coincidence,
    mutual_index_shift,
    solve_shift_differences,
)
from textgen import SAMPLE_TEXT, sample_english, sample_uniform

CIPHERTEXT = "OOPAELRIXFGGBWDODDEPK"


def ioc_oracle(text):
    """Brute force: fraction of position pairs holding equal characters."""
    pairs = list(combinations(range(len(text)), 2))
    equal = sum(1 for i, j in pairs if text[i] == text[j])
    return Fraction(equal, len(pairs))


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


def test_mutual_index_empty_rejected():
    with pytest.raises(CipherError):
        mutual_index_shift("", "A", 0)


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


# ---------------------------------------------------------------------------
# Key recovery
# ---------------------------------------------------------------------------

def test_solve_difference_system_forced():
    # k1 - k0 = 3 and k2 - k1 = 12 with k0 = 0 force (0, 3, 15)
    diffs = {(0, 1): (0 - 3) % 26, (1, 2): (3 - 15) % 26}
    residues, residuals = solve_shift_differences(3, diffs)
    assert residues == (0, 3, 15)
    assert residuals == []


def test_solve_difference_system_reports_cycle_residual():
    # (0,1) and (0,2) fix the solution (0, 25, 21); the cycle through (1,2)
    # then disagrees by 1 - (25 - 21) = -3
    diffs = {(0, 1): 1, (1, 2): 1, (0, 2): 5}
    residues, residuals = solve_shift_differences(3, diffs)
    assert residues == (0, 25, 21)
    assert residuals == [(1, 2, 23)]


def test_solve_difference_system_unconstrained_position():
    with pytest.raises(CipherError):
        solve_shift_differences(3, {(0, 1): 4})


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
