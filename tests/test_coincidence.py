import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from brauer_kit import cli, coincidence
from brauer_kit.cipher import LETTERS, CipherError, split_blocks, vigenere_decrypt, vigenere_encrypt
from brauer_kit.coincidence import (
    ENGLISH_FREQUENCIES,
    IOC_TARGET,
    IOC_WINDOW,
    decimate,
    friedman_keylength,
    friedman_recover_key,
    index_of_coincidence,
    list_counts,
)
from reference import (chi_squared as reference_chi_squared, chi_squared_float,
                       list_counts as list_counts_by_list, recover_key_by_overlaps)
from textgen import SAMPLE_TEXT, sample_english, sample_uniform

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import gen  # noqa: E402

CIPHERTEXT = "OOPAELRIXFGGBWDODDEPK"
# the benchmark's generated ciphertexts for seed 7 at 5 000 and 80 000 letters
SEED7 = gen.attack_input(7, 5_000)["cipher"]
SEED7_80K = gen.attack_input(7, 80_000)["cipher"]


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
    English frequencies, from its definition in exact fractions."""
    counts = Counter(text)
    return reference_chi_squared([counts[letter] for letter in ENGLISH_FREQUENCIES])


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
    shifted = vigenere_encrypt(SAMPLE_TEXT, "F")  # shift 5
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

@pytest.mark.parametrize("door, args, value", [
    (list_counts, ("ABAB", True), "list count True"),
    (decimate, ("ABAB", True), "list count True"),
    (split_blocks, ("AB", [True, True]), "block size True"),
    (friedman_keylength, (CIPHERTEXT, True), "max_len True"),
    (list_counts, ("ABAB", 2.0), "list count 2.0"),
    (friedman_keylength, (CIPHERTEXT, 2.0), "max_len 2.0"),
    (split_blocks, ("AB", [1.0, 1]), "block size 1.0"),
], ids=["list_counts-bool", "decimate-bool", "split_blocks-bool", "friedman_keylength-bool",
        "list_counts-float", "friedman_keylength-float", "split_blocks-float"])
def test_length_doors_name_a_value_that_is_not_an_integer(door, args, value):
    # Python counts a bool as an int and a float fails in range() and in
    # slicing; each door asks brauer._is_int first
    with pytest.raises(CipherError, match=f"^{value} is not an integer$"):
        door(*args)


def test_decimate_round_robin():
    assert decimate("ABCDEFG", 3) == ["ADG", "BE", "CF"]
    assert decimate("ABCD", 2) == ["AC", "BD"]
    with pytest.raises(CipherError, match="splitting into 2 lists leaves a list shorter than 2"):
        decimate("ABC", 2)


def test_keylength_found_on_generated_ciphertext():
    rng = random.Random(42)
    plain = sample_english(rng, 700)
    cipher = vigenere_encrypt(plain, "MDPI")
    candidates = friedman_keylength(cipher, 8)
    assert candidates[0].m == 4
    top = candidates[0]
    assert all(abs(i - IOC_TARGET) <= Fraction(15, 1000) for i in top.per_list_ioc)


def test_keylength_monoalphabetic_ioc_near_target():
    rng = random.Random(7)
    plain = sample_english(rng, 600)
    cipher = vigenere_encrypt(plain, "Q")
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
    cipher = vigenere_encrypt(plain, "KEY")
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
        sample_english(random.Random(seed), length), "".join(LETTERS[k] for k in key)
    ),
    st.integers(0, 2**32),
    st.integers(24, 600),
    st.lists(st.integers(0, 25), min_size=1, max_size=4),
) | st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ", min_size=24, max_size=300)


@settings(max_examples=60, deadline=None)
@given(ENCRYPTED_TEXTS, st.integers(1, 40))
@example("AAABBBCCCDEFGHIJ", 1)  # IoC 18/240 = 0.075, on the window's edge
@example("ABCDEFGH" * 12 + "I" * 11 + "JKLMN" * 9 + "OPQ" * 8, 1)  # 1694/30800 = 0.055, the lower edge
@example(SAMPLE_TEXT[:40], 20)  # two letters a list at the longest length
@example(SEED7, coincidence.MAX_KEYLEN)  # 5 050 lists, of two sizes where m does not divide 5 000
def test_keylength_matches_plain_reference(cipher, max_len):
    # lengths up to 40 take most counts from a multiple's, several levels
    # down; a length past half the text is the ranking's error, tested apart
    max_len = min(max_len, len(cipher) // 2)
    candidates = friedman_keylength(cipher, max_len)
    assert [
        (c.m, c.per_list_ioc, c.score, c.flagged, c.related) for c in candidates
    ] == keylength_reference(cipher, max_len)
    for c in candidates:
        assert c.counts == tuple(
            tuple(cipher[i::c.m].count(ch) for ch in LETTERS) for i in range(c.m)
        )


# texts long enough for the lengths past M/2 to share a split
LONG_TEXTS = st.builds(
    lambda seed, length, key: vigenere_encrypt(
        sample_english(random.Random(seed), length), "".join(LETTERS[k] for k in key)
    ),
    st.integers(0, 2**32),
    st.integers(2_000, 40_000),
    st.lists(st.integers(0, 25), min_size=1, max_size=12),
) | st.builds(
    lambda seed, length: sample_uniform(random.Random(seed), length),
    st.integers(0, 2**32),
    st.integers(2_000, 40_000),
)


@settings(max_examples=20, deadline=None)
@given(LONG_TEXTS, st.integers(1, 40))
@example(SEED7_80K, 20)  # four shared splits in place of ten
@example(SEED7_80K, coincidence.MAX_KEYLEN)  # 37 shared splits; every length up to 50 sums 2m
def test_keylength_from_shared_splits_matches_plain_reference(cipher, max_len):
    candidates = friedman_keylength(cipher, max_len)
    assert [
        (c.m, c.per_list_ioc, c.score, c.flagged, c.related) for c in candidates
    ] == keylength_reference(cipher, max_len)
    for c in candidates:
        assert c.counts == tuple(
            tuple(cipher[i::c.m].count(ch) for ch in LETTERS) for i in range(c.m)
        )


def test_keylength_splits_only_the_top_half(monkeypatch):
    # every shorter length's counts are sums of a multiple's
    split = []

    def spy(text, m):
        split.append(m)
        return decimate(text, m)

    monkeypatch.setattr(coincidence, "decimate", spy)
    friedman_keylength(vigenere_encrypt(SAMPLE_TEXT, "KEY"), 20)
    assert sorted(split) == list(range(11, 21))


def test_keylength_shares_splits_of_long_lists(monkeypatch):
    # at 80 000 letters a common multiple of lengths in 11..20 keeps lists
    # of 256 letters, so one split serves several lengths
    split = []

    def spy(text, m):
        split.append(m)
        return decimate(text, m)

    monkeypatch.setattr(coincidence, "decimate", spy)
    friedman_keylength(SEED7_80K, 20)
    assert len(split) <= 5
    assert all(any(s % m == 0 for s in split) for m in range(11, 21))
    assert all(len(SEED7_80K) // s >= 256 for s in split)


def test_unknown_characters_are_named_once_for_the_whole_text():
    with pytest.raises(CipherError, match=r"^characters \['1', 'a'\] are not in the alphabet$"):
        friedman_keylength("AB1CDEFGHIJKLMNOPQRa", 10)


def test_unknown_characters_are_named_once_when_splits_are_shared():
    cipher = SEED7_80K[:40_000] + "1" + SEED7_80K[40_000:-2] + "a"
    assert len(cipher) == 80_000
    with pytest.raises(CipherError, match=r"^characters \['1', 'a'\] are not in the alphabet$"):
        friedman_keylength(cipher, 20)


def _counts_or_error(count, text, m):
    """``count(text, m)``, or the text of the CipherError it raises."""
    try:
        return count(text, m)
    except CipherError as exc:
        return str(exc)


# Texts over A-Z and four characters outside it, and list counts from one
# below the least to one past the most that leave every list 2 letters.
@settings(max_examples=150, deadline=None)
@given(
    st.one_of(st.text(LETTERS, max_size=400), st.text(LETTERS + "a\u00e9 1", max_size=400))
    .flatmap(lambda text: st.tuples(st.just(text), st.integers(-1, len(text) // 2 + 1)))
)
@example(("", 0))
@example(("AB" * 200, 200))
@example(("AB" * 200 + "\u00e9", 1))
def test_list_counts_match_the_per_list_reference(case):
    text, m = case
    for split in (m, len(text) // 2):  # at N // 2 every list holds 2 or 3 letters
        assert _counts_or_error(list_counts, text, split) == _counts_or_error(
            list_counts_by_list, text, split)


# ---------------------------------------------------------------------------
# Key recovery
# ---------------------------------------------------------------------------

def test_recover_key_reports_pairs_off_the_star():
    recovery = friedman_recover_key(list_counts(CIPHERTEXT, 4))
    assert recovery.differences == (
        (0, 1, 18), (0, 2, 23), (0, 3, 15), (1, 2, 25), (1, 3, 14), (2, 3, 15),
    )
    # the star fixes k = (0, 8, 3, 11); (1, 2) then disagrees by 25 - (8 - 3)
    assert recovery.residuals == ((1, 2, 20), (1, 3, 17), (2, 3, 23))


@settings(max_examples=80, deadline=None)
@given(st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ", min_size=4, max_size=300), st.data())
def test_residuals_are_the_pairs_off_the_star(cipher, data):
    m = data.draw(st.integers(1, min(len(cipher) // 2, 12)))
    recovery = friedman_recover_key(list_counts(cipher, m))
    assert [(i, j) for i, j, _ in recovery.differences] == [
        (i, j) for i in range(m) for j in range(i + 1, m)
    ]
    for candidate in recovery.candidates:
        k = [LETTERS.index(ch) for ch in candidate.key]
        off = {(i, j): (d - (k[i] - k[j])) % 26 for i, j, d in recovery.differences}
        assert all(off[0, j] == 0 for j in range(1, m))
        assert recovery.residuals == tuple(
            (i, j, r) for (i, j), r in off.items() if r
        )


def test_recover_key_caesar_identity():
    recovery = friedman_recover_key(list_counts(SAMPLE_TEXT, 1))
    assert recovery.candidates[0].key == "A"


def test_recover_key_end_to_end():
    rng = random.Random(99)
    plain = sample_english(rng, 800)
    cipher = vigenere_encrypt(plain, "MDPI")
    recovery = friedman_recover_key(list_counts(cipher, 4))
    assert "MDPI" in [c.key for c in recovery.candidates[:3]]
    assert recovery.residuals == ()


def test_recover_key_rejects_trivial_lists():
    with pytest.raises(CipherError):
        friedman_recover_key(list_counts("ABCD", 3))


def test_recover_key_rejects_zero_lists():
    with pytest.raises(ValueError, match="^key recovery needs at least one list$"):
        friedman_recover_key([])


def test_recover_key_rejects_a_row_not_of_26_counts():
    with pytest.raises(ValueError, match="^list 1 has 25 letter counts, expected 26$"):
        friedman_recover_key([[1] * 26, [1] * 25])
    with pytest.raises(ValueError, match="^list 0 has 27 letter counts, expected 26$"):
        friedman_recover_key([[1] * 27])
    # a table or a row that is not a sequence is named where it is met
    for table in (5, None, iter([[1] * 26])):
        with pytest.raises(CipherError, match="^letter counts .* are not a sequence of lists$"):
            friedman_recover_key(table)
    with pytest.raises(CipherError, match="^list 0 is 5, not a sequence of letter counts$"):
        friedman_recover_key([5])
    with pytest.raises(CipherError, match="^list 1 is None, not a sequence of letter counts$"):
        friedman_recover_key([[1] * 26, None, [1] * 25])
    with pytest.raises(CipherError, match="^list 0 has 25 letter counts, expected 26$"):
        friedman_recover_key([[1] * 25, 5])


def test_recover_key_rejects_a_negative_count():
    with pytest.raises(ValueError, match="^list 0 has a negative letter count -1$"):
        friedman_recover_key([[-1] * 26, [2] * 26])


def test_recover_key_rejects_a_count_that_is_not_an_integer():
    # a count is a number of letters; a float cannot be packed into a slot
    with pytest.raises(ValueError, match=r"^list 0 has a letter count 0\.5 that is not an integer$"):
        friedman_recover_key([[0.5] * 26, [1.5] * 26])
    with pytest.raises(ValueError, match=r"^list 1 has a letter count '1' that is not an integer$"):
        friedman_recover_key([[1] * 26, [1] * 25 + ["1"]])
    # Python counts a bool as an int
    with pytest.raises(ValueError, match=r"^list 0 has a letter count True that is not an integer$"):
        friedman_recover_key([[True] * 26])


def test_recover_key_rejects_lists_without_letters():
    # no letter leaves no decryption to score; one empty list among others
    # is still read
    for rows in ([[0] * 26], [[0] * 26, [0] * 26]):
        with pytest.raises(ValueError, match="^key recovery needs at least one letter$"):
            friedman_recover_key(rows)
    assert friedman_recover_key([[1] * 26, [0] * 26]).differences == ((0, 1, 0),)


def test_chi_squared_prefers_english():
    shifted = vigenere_encrypt(SAMPLE_TEXT, "G")
    assert chi_squared(SAMPLE_TEXT) < chi_squared(shifted)


def test_recovered_differences_peak_mutual_index():
    cipher = vigenere_encrypt(SAMPLE_TEXT, "KEY")
    lists = decimate(cipher, 3)
    recovery = friedman_recover_key(list_counts(cipher, 3))
    assert [(i, j) for i, j, _ in recovery.differences] == [(0, 1), (0, 2), (1, 2)]
    for i, j, d in recovery.differences:
        row = [mutual_index_shift(lists[i], lists[j], s) for s in range(26)]
        assert row[d] == max(row)


# A tally row of zeros, small counts and counts of 10**30, or a constant row,
# on which all 26 shifts tie.
TALLY_ROWS = st.one_of(
    st.lists(st.sampled_from((0, 0, 1, 2, 3, 7, 10**30)), min_size=26, max_size=26),
    st.integers(0, 5).map(lambda v: [v] * 26),
)


@st.composite
def tally_tables(draw):
    m = draw(st.integers(1, 12))
    rows = [draw(TALLY_ROWS)] * m if draw(st.booleans()) else draw(
        st.lists(TALLY_ROWS, min_size=m, max_size=m)
    )
    assume(any(map(any, rows)))  # chi-squared needs a nonempty text
    return tuple(map(tuple, rows)) if draw(st.booleans()) else rows


@settings(max_examples=150, deadline=None)
@given(tally_tables())
@example(list_counts(
    vigenere_encrypt(sample_english(random.Random(30), 3_000), "BRAUER" * 5),
    30,
))
@example(list_counts(SEED7, 9))  # the key's length: every chi2 compared with ==
@example(list_counts(SEED7, coincidence.MAX_KEYLEN))  # 4 950 list pairs
@example([[2**64] * 26] * 3)  # every overlap is 26 * 2**128, the slot bound past 64 bits
@example([[0] * 26, [0] * 7 + [1] + [0] * 18])  # one nonzero entry: all overlaps are 0
def test_recovery_reads_the_overlaps_and_decryptions_from_rotations(rows):
    # one product per pair gives what one overlap per pair and shift and one
    # recount per anchor give, ties and ranking included
    assert friedman_recover_key(rows) == recover_key_by_overlaps(rows)


@pytest.mark.parametrize("m, length", [(1, 200), (3, 301), (4, 803), (7, 1000)])
def test_key_candidate_chi2_equals_chi2_of_decryption(m, length):
    # candidates are scored from rotated per-list counts; the decryption
    # they stand for must give exactly the same fraction
    rng = random.Random(m * length)
    key = "".join(LETTERS[rng.randrange(26)] for _ in range(m))
    cipher = vigenere_encrypt(sample_english(rng, length), key)
    candidates = friedman_recover_key(list_counts(cipher, m)).candidates
    assert len(candidates) == 26
    for c in candidates:
        plain = vigenere_decrypt(cipher, c.key)
        assert c.chi2 == chi_squared(plain)


@pytest.mark.parametrize("length", [60, 500, 5_000, 20_000])
def test_exact_chi2_rounds_and_ranks_as_the_float_statistic(length):
    # the report rounds each exact chi2 to 6 places; on the benchmark's
    # attack texts, at the key's length and at a length that is not one of
    # its multiples, it reads as the float statistic did, in the same order
    for seed in range(120):
        cipher = gen.attack_input(seed, length)["cipher"]
        for m in (len(gen.ATTACK_KEY), 8):
            counts = list_counts(cipher, m)
            candidates = friedman_recover_key(counts).candidates
            floats = []
            for c in candidates:
                plain = [sum(row[(h + LETTERS.index(k)) % 26] for row, k in zip(counts, c.key))
                         for h in range(26)]
                floats.append((chi_squared_float(plain), c.key))
                assert cli._round(c.chi2) == round(floats[-1][0], 6), (seed, m, c.key)
            # anchor a's key starts with letter a: float ties in anchor order
            assert [key for _, key in sorted(floats, key=lambda f: (f[0], f[1][0]))] == \
                [c.key for c in candidates], (seed, m)
