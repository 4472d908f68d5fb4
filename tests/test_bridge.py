import random
from collections import Counter
from fractions import Fraction

import pytest

from brauer_kit.bridge import (
    brauer_ioc,
    check_permutation_invariance,
    check_dim_coincidence_identity,
    check_center_frequency_identity,
    transposition_to_config,
    vigenere_to_config,
)
from brauer_kit.brauer import dim_lambda, invariants
from brauer_kit.cipher import BlockPermutation, CipherError, VigenereKey, vigenere_encrypt
from textgen import sample_english

CIPHERTEXT = "OOPAELRIXFGGBWDODDEPK"


def random_permutation(rng, size):
    order = list(range(1, size + 1))
    rng.shuffle(order)
    return BlockPermutation(tuple(order))


def text_with_min_count(rng, distinct=5, min_count=2, max_count=6):
    """Random text in which every present character occurs >= min_count times."""
    letters = rng.sample("ABCDEFGHIJKLMNOPQRSTUVWXYZ", distinct)
    chars = []
    for ch in letters:
        chars.extend(ch * rng.randint(min_count, max_count))
    rng.shuffle(chars)
    return "".join(chars)


# ---------------------------------------------------------------------------
# Vigenere split
# ---------------------------------------------------------------------------

def test_vigenere_to_config_lists():
    config = vigenere_to_config(CIPHERTEXT, 4)
    assert [p.word for p in config.polygons] == [
        ("O", "E", "X", "B", "D", "K"),
        ("O", "L", "F", "W", "D"),
        ("P", "R", "G", "D", "E"),
        ("A", "I", "G", "O", "P"),
    ]


def test_vigenere_to_config_dimensions():
    inv = invariants(vigenere_to_config(CIPHERTEXT, 4))
    assert (inv.dim_lambda, inv.dim_center, inv.loops) == (35, 14, 9)


def test_vigenere_to_config_repeated_characters():
    config = vigenere_to_config("ABAB", 2)
    assert [p.word for p in config.polygons] == [("A", "A"), ("B", "B")]
    # 2*2 + 2*(2*1-1) + 2*(2*1-1)
    assert dim_lambda(config) == 8


def test_vigenere_to_config_rejects_short_lists():
    with pytest.raises(CipherError):
        vigenere_to_config("ABC", 2)


def test_brauer_ioc_counts_singletons():
    ioc = brauer_ioc(invariants(vigenere_to_config(CIPHERTEXT, 4)))
    assert ioc == Fraction(27, 420)
    # 9 singleton characters, each adding 1/(N(N-1)) over the plain index
    from brauer_kit.coincidence import index_of_coincidence
    assert ioc - index_of_coincidence(CIPHERTEXT) == Fraction(9, 420)


# ---------------------------------------------------------------------------
# Transposition configurations
# ---------------------------------------------------------------------------

def test_transposition_to_config_blocks():
    config = transposition_to_config("CRYPTOGRAPHY", [4, 4, 4])
    assert [p.word for p in config.polygons] == [
        tuple("CRYP"), tuple("TOGR"), tuple("APHY"),
    ]


def test_transposition_to_config_rejects_bad_partition():
    with pytest.raises(CipherError):
        transposition_to_config("CRYPTO", [4, 4])
    with pytest.raises(CipherError):
        transposition_to_config("ABC", [1, 2])


def test_permutation_invariance_worked_example():
    pi = BlockPermutation((3, 4, 1, 2))
    verdict = check_permutation_invariance("CRYPTOGRAPHY", [pi, pi, pi])
    assert verdict.equal
    assert verdict.plain_invariants.dim_lambda == verdict.cipher_invariants.dim_lambda


def test_permutation_invariance_identity():
    ident = BlockPermutation((1, 2, 3, 4))
    verdict = check_permutation_invariance("CRYPTOGRAPHY", [ident, ident, ident])
    assert verdict.equal


def test_permutation_invariance_random_cases():
    rng = random.Random(2024)
    for _ in range(100):
        sizes = [rng.randint(2, 6) for _ in range(rng.randint(1, 4))]
        text = "".join(rng.choice("ABCDEFGH") for _ in range(sum(sizes)))
        perms = [random_permutation(rng, s) for s in sizes]
        assert check_permutation_invariance(text, perms).equal


# ---------------------------------------------------------------------------
# Dimension identities
# ---------------------------------------------------------------------------

def test_dim_coincidence_identity_holds_without_singletons():
    verdict = check_dim_coincidence_identity("AABBCCDD", 2)
    assert verdict.precondition_ok and verdict.holds
    assert verdict.lhs == verdict.rhs == 12


def test_dim_coincidence_identity_diagnostic_on_worked_ciphertext():
    verdict = check_dim_coincidence_identity(CIPHERTEXT, 4)
    assert not verdict.precondition_ok
    assert (verdict.lhs, verdict.rhs) == (35, 26)
    assert verdict.gap == len(verdict.violations) == 9
    assert verdict.violations == ("A", "B", "F", "I", "K", "L", "R", "W", "X")


def test_dim_coincidence_identity_generated_inputs():
    rng = random.Random(5)
    for _ in range(100):
        text = text_with_min_count(rng)
        m = rng.randint(1, max(1, len(text) // 4))
        verdict = check_dim_coincidence_identity(text, m)
        assert verdict.precondition_ok and verdict.holds


def test_center_frequency_identity_holds_when_characters_spread():
    verdict = check_center_frequency_identity("AABBCCDD", 2)
    assert verdict.precondition_ok and verdict.holds
    assert verdict.lhs == verdict.rhs == 3


def test_center_frequency_identity_diagnostic_on_worked_ciphertext():
    verdict = check_center_frequency_identity(CIPHERTEXT, 4)
    assert not verdict.precondition_ok
    assert verdict.lhs == 14
    assert "A" in verdict.violations


def test_center_frequency_identity_generated_inputs():
    rng = random.Random(17)
    checked = 0
    while checked < 100:
        text = text_with_min_count(rng, distinct=6, min_count=3)
        m = rng.randint(2, 4)
        lists = [text[i::m] for i in range(m)]
        spread = Counter()
        for part in lists:
            spread.update(set(part))
        if any(v < 2 for v in spread.values()):
            continue
        verdict = check_center_frequency_identity(text, m)
        assert verdict.precondition_ok and verdict.holds
        checked += 1


def test_dim_gap_equals_singleton_count():
    rng = random.Random(31)
    for _ in range(100):
        length = rng.randint(4, 60)
        text = "".join(rng.choice("ABCDEFGHIJ") for _ in range(length))
        m = rng.randint(1, length // 2)
        if any(len(text[i::m]) < 2 for i in range(m)):
            continue
        counts = Counter(text)
        singletons = sum(1 for f in counts.values() if f == 1)
        expected = 2 * m + sum(f * (f - 1) for f in counts.values()) + singletons
        assert dim_lambda(vigenere_to_config(text, m)) == expected


def test_invariants_stable_under_alphabet_substitution():
    # A bijective substitution applied uniformly to the whole text renames
    # vertices without touching valencies, so every invariant survives.
    rng = random.Random(8)
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    for _ in range(50):
        plain = sample_english(rng, rng.randint(20, 60))
        m = rng.randint(1, 5)
        if any(len(plain[i::m]) < 2 for i in range(m)):
            continue
        table = str.maketrans(alphabet, "".join(rng.sample(alphabet, 26)))
        substituted = plain.translate(table)
        assert invariants(vigenere_to_config(plain, m)) == invariants(
            vigenere_to_config(substituted, m)
        )


def test_per_list_profiles_stable_under_reencryption():
    # Re-encrypting with a second key of the same length shifts each list by
    # a constant, preserving every per-list frequency profile (and with it
    # the right side of the center identity).  Whole-text invariants need
    # not survive: characters shared between lists can split apart.
    rng = random.Random(8)
    for _ in range(50):
        plain = sample_english(rng, rng.randint(20, 60))
        m = rng.randint(1, 5)
        key = VigenereKey(tuple(rng.randrange(26) for _ in range(m)))
        cipher = vigenere_encrypt(plain, key)
        for before, after in zip(
            (plain[i::m] for i in range(m)), (cipher[i::m] for i in range(m))
        ):
            assert sorted(Counter(before).values()) == sorted(Counter(after).values())
    # concrete witness that the whole-text invariants do change
    assert invariants(vigenere_to_config("ABBA", 2)) != invariants(
        vigenere_to_config(vigenere_encrypt("ABBA", VigenereKey((0, 1))), 2)
    )
