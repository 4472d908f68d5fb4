import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from brauer_kit.bridge import brauer_ioc, vigenere_to_config
from brauer_kit.brauer import ConfigError, config_from_words, invariants
from brauer_kit.cipher import (
    BlockPermutation,
    CipherError,
    VigenereKey,
    split_blocks,
    transposition_encrypt,
    vigenere_encrypt,
)
from brauer_kit.coincidence import index_of_coincidence
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


def block_invariants(text, sizes):
    """Invariants of a block partition: one polygon per block."""
    return invariants(config_from_words(split_blocks(text, sizes)))


def singletons(text):
    return sorted(ch for ch, f in Counter(text).items() if f == 1)


def dim_coincidence_rhs(text, m):
    """2m + N(N-1) * IoC, the dimension a split has without singletons."""
    return 2 * m + sum(f * (f - 1) for f in Counter(text).values())


def center_frequency_rhs(text, m):
    """1 + m + sum over lists of (frequency - 1)."""
    return 1 + m + sum(f - 1 for i in range(m) for f in Counter(text[i::m]).values())


def spread_violations(text, m):
    """Characters that occur once or in fewer than two lists: the center
    frequency identity needs there to be none."""
    spread = Counter(ch for i in range(m) for ch in set(text[i::m]))
    return sorted(ch for ch, f in Counter(text).items() if f == 1 or spread[ch] < 2)


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
    assert invariants(config).dim_lambda == 8


def test_vigenere_to_config_rejects_short_lists():
    with pytest.raises(CipherError):
        vigenere_to_config("ABC", 2)


def test_brauer_ioc_counts_singletons():
    ioc = brauer_ioc(invariants(vigenere_to_config(CIPHERTEXT, 4)))
    assert ioc == Fraction(27, 420)
    # 9 singleton characters, each adding 1/(N(N-1)) over the plain index
    assert ioc - index_of_coincidence(CIPHERTEXT) == Fraction(9, 420)


@given(st.text(alphabet="ABCDE", min_size=2, max_size=40))
def test_brauer_ioc_is_ioc_plus_singleton_share(text):
    # the paper's identity dim = 2m + N(N-1)*IoC, read through the attack's
    # own brauerIoc for every key length the text admits; each singleton
    # adds 1/(N(N-1)) to it
    n = len(text)
    expected = index_of_coincidence(text) + Fraction(len(singletons(text)), n * (n - 1))
    for m in range(1, n // 2 + 1):
        assert brauer_ioc(invariants(vigenere_to_config(text, m))) == expected


# ---------------------------------------------------------------------------
# Transposition configurations
# ---------------------------------------------------------------------------

def test_transposition_to_config_blocks():
    config = config_from_words(split_blocks("CRYPTOGRAPHY", [4, 4, 4]))
    assert [p.word for p in config.polygons] == [
        tuple("CRYP"), tuple("TOGR"), tuple("APHY"),
    ]


def test_transposition_to_config_rejects_bad_partition():
    with pytest.raises(CipherError):
        split_blocks("CRYPTO", [4, 4])
    with pytest.raises(ConfigError):
        config_from_words(split_blocks("ABC", [1, 2]))


def test_permutation_invariance_worked_example():
    pi = BlockPermutation((3, 4, 1, 2))
    cipher = transposition_encrypt("CRYPTOGRAPHY", [pi, pi, pi])
    assert cipher == "YPCRGRTOHYAP"
    assert block_invariants(cipher, [4, 4, 4]) == block_invariants("CRYPTOGRAPHY", [4, 4, 4])


def test_permutation_invariance_identity():
    ident = BlockPermutation((1, 2, 3, 4))
    assert transposition_encrypt("CRYPTOGRAPHY", [ident, ident, ident]) == "CRYPTOGRAPHY"


def test_permutation_invariance_random_cases():
    rng = random.Random(2024)
    for _ in range(100):
        sizes = [rng.randint(2, 6) for _ in range(rng.randint(1, 4))]
        text = "".join(rng.choice("ABCDEFGH") for _ in range(sum(sizes)))
        perms = [random_permutation(rng, s) for s in sizes]
        cipher = transposition_encrypt(text, perms)
        assert block_invariants(cipher, sizes) == block_invariants(text, sizes)


# ---------------------------------------------------------------------------
# Dimension identities
# ---------------------------------------------------------------------------

def test_dim_coincidence_identity_holds_without_singletons():
    assert singletons("AABBCCDD") == []
    assert invariants(vigenere_to_config("AABBCCDD", 2)).dim_lambda == 12
    assert dim_coincidence_rhs("AABBCCDD", 2) == 12


def test_dim_coincidence_identity_diagnostic_on_worked_ciphertext():
    # the worked ciphertext has singletons, and the identity misses by
    # exactly their number
    assert singletons(CIPHERTEXT) == ["A", "B", "F", "I", "K", "L", "R", "W", "X"]
    assert invariants(vigenere_to_config(CIPHERTEXT, 4)).dim_lambda == 35
    assert dim_coincidence_rhs(CIPHERTEXT, 4) == 26


def test_center_frequency_identity_holds_when_characters_spread():
    assert spread_violations("AABBCCDD", 2) == []
    assert invariants(vigenere_to_config("AABBCCDD", 2)).dim_center == 3
    assert center_frequency_rhs("AABBCCDD", 2) == 3


def test_center_frequency_identity_diagnostic_on_worked_ciphertext():
    # without its precondition the identity does not hold
    assert "A" in spread_violations(CIPHERTEXT, 4)
    assert invariants(vigenere_to_config(CIPHERTEXT, 4)).dim_center == 14
    assert center_frequency_rhs(CIPHERTEXT, 4) == 5


def test_center_frequency_identity_generated_inputs():
    rng = random.Random(17)
    checked = 0
    while checked < 100:
        text = text_with_min_count(rng, distinct=6, min_count=3)
        m = rng.randint(2, 4)
        if spread_violations(text, m):
            continue
        assert invariants(vigenere_to_config(text, m)).dim_center == (
            center_frequency_rhs(text, m)
        )
        checked += 1


def test_dim_gap_equals_singleton_count():
    rng = random.Random(31)
    for _ in range(100):
        length = rng.randint(4, 60)
        text = "".join(rng.choice("ABCDEFGHIJ") for _ in range(length))
        m = rng.randint(1, length // 2)
        if any(len(text[i::m]) < 2 for i in range(m)):
            continue
        expected = dim_coincidence_rhs(text, m) + len(singletons(text))
        assert invariants(vigenere_to_config(text, m)).dim_lambda == expected


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
