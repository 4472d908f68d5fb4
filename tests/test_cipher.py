import re
import string
import sys
from itertools import filterfalse

import pytest
from hypothesis import example, given, strategies as st

from brauer_kit.cipher import (
    LETTERS,
    Alphabet,
    BlockPermutation,
    CipherError,
    split_blocks,
    transposition_decrypt,
    transposition_encrypt,
    vigenere_decrypt,
    vigenere_encrypt,
)
from reference import normalize_by_loop

PI = BlockPermutation((3, 4, 1, 2))

# Decrypted 4x3 grid in row-major text: rows CRA, RGP, YOH, PTY, so its
# columns read CRYP, RGOT, APHY top to bottom.
DECRYPTED_GRID = "CRARGPYOHPTY"

# The route down the first column, up the second and down the third, as the
# transposition key of the 4x3 grid: entry k is the row-major index of the
# k-th cell visited.
ROUTE_4X3 = BlockPermutation.from_text("1 4 7 10 11 8 5 2 3 6 9 12")


# ---------------------------------------------------------------------------
# Alphabet
# ---------------------------------------------------------------------------

def test_normalize_case_folds():
    assert Alphabet().normalize("classical") == "CLASSICAL"


def test_normalize_rejects_foreign_character_with_offset():
    with pytest.raises(CipherError) as err:
        Alphabet().normalize("AB3C")
    assert str(err.value) == "character '3' at offset 2 is not in the alphabet"


def test_normalize_strip_drops_foreign_characters():
    assert Alphabet().normalize("a b,3c!", strip=True) == "ABC"


@pytest.mark.parametrize("text, foreign, offset", [
    ("straße", "ß", 4), ("résumé", "é", 1), ("ıf", "ı", 0), ("ſt", "ſ", 0), ("ﬀ", "ﬀ", 0),
], ids=["sharp-s", "e-acute", "dotless-i", "long-s", "ff-ligature"])
def test_normalize_folds_only_ascii_letters(text, foreign, offset):
    # a character that uppercases to ASCII letters is still foreign, and is
    # reported as written at its offset in the input
    with pytest.raises(CipherError) as err:
        Alphabet().normalize(text)
    assert str(err.value) == f"character {foreign!r} at offset {offset} is not in the alphabet"


@given(st.text())
@example("straße ıſﬀ")
def test_normalize_strip_keeps_exactly_the_ascii_letters(text):
    expected = "".join(ch.upper() for ch in text if ch.isascii() and ch.isalpha())
    assert Alphabet().normalize(text, strip=True) == expected


def _outcome(normalize, text, strip):
    try:
        return "ok", normalize(text, strip=strip)
    except CipherError as exc:
        return "error", str(exc)


# ASCII letters, whitespace that str.split and str.isspace both name (tab,
# vertical tab, the information separator \x1c, NEL, the ideographic space),
# and characters that look like letters or spaces but are foreign: the zero
# width space, digits, letters that fold to ASCII letters only under
# Unicode case rules, and a fullwidth A.
WHITESPACE = " \n\t\x0b\x1c\x85\u3000"
FOREIGN = "\u200b0123456789ßſﬀＡ"


@given(
    st.one_of(
        st.text(alphabet=string.ascii_letters + WHITESPACE),
        st.text(alphabet=string.ascii_letters + WHITESPACE + FOREIGN),
    ),
    st.booleans(),
)
@example("", False)
@example("\u3000\x85", False)
@example("ab\u200bc", False)
@example("ab\u200bc", True)
@example("aＡ\x1cß", False)
def test_normalize_matches_the_loop(text, strip):
    # the string methods and regular expressions give the loop's output,
    # and each error names the same character at the same offset
    assert _outcome(Alphabet().normalize, text, strip) == _outcome(normalize_by_loop, text, strip)


# ---------------------------------------------------------------------------
# Vigenere
# ---------------------------------------------------------------------------

def test_vigenere_worked_example():
    key = "MDPI"
    cipher = vigenere_encrypt("classicalcryptography", key)
    assert cipher == "OOPAELRIXFGGBWDODDEPK"
    assert vigenere_decrypt(cipher, key) == "CLASSICALCRYPTOGRAPHY"


def test_vigenere_zero_key_is_identity():
    key = "AAA"
    assert vigenere_encrypt("HELLO", key) == "HELLO"


def test_vigenere_empty_key_rejected():
    with pytest.raises(CipherError, match="^empty key$"):
        vigenere_encrypt("AB", "")
    with pytest.raises(CipherError, match="^empty key$"):
        vigenere_decrypt("AB", " \n")
    # the key is checked before the text
    with pytest.raises(CipherError, match="^empty key$"):
        vigenere_encrypt("HI5", "")


def test_vigenere_rejects_foreign_plaintext():
    with pytest.raises(CipherError):
        vigenere_encrypt("HI5", "A")


def test_vigenere_key_is_folded_like_the_text():
    plain = "classicalcryptography"
    assert vigenere_encrypt(plain, "m dp\ti") == vigenere_encrypt(plain, "MDPI")


def test_vigenere_rejects_foreign_key():
    with pytest.raises(CipherError, match="^character '1' at offset 1 is not in the alphabet$"):
        vigenere_encrypt("AB", "M1")


@given(
    st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ", min_size=1, max_size=60),
    st.lists(st.integers(0, 25), min_size=1, max_size=8),
)
def test_vigenere_round_trip(plain, residues):
    key = "".join(LETTERS[r] for r in residues)
    assert vigenere_decrypt(vigenere_encrypt(plain, key), key) == plain


# ---------------------------------------------------------------------------
# Block transposition
# ---------------------------------------------------------------------------

def test_transposition_single_block():
    assert transposition_encrypt("CRYP", [PI]) == "YPCR"


def test_transposition_second_block():
    assert transposition_encrypt("TOGR", [PI]) == "GRTO"


def test_transposition_identity():
    ident = BlockPermutation((1, 2, 3))
    assert transposition_encrypt("ABC", [ident]) == "ABC"


def test_transposition_full_plaintext():
    cipher = transposition_encrypt("CRYPTOGRAPHY", [PI, PI, PI])
    assert cipher == "YPCRGRTOHYAP"
    assert transposition_decrypt(cipher, [PI, PI, PI]) == "CRYPTOGRAPHY"


def test_transposition_length_mismatch():
    with pytest.raises(CipherError, match="block sizes sum to 4 but text has length 3"):
        transposition_encrypt("CRY", [PI])


def test_split_blocks_rejects_negative_size():
    # the sizes sum to the text's length, but C would fall in two blocks
    with pytest.raises(CipherError, match="^negative block size -1$"):
        split_blocks("ABCD", [3, -1, 2])


def test_block_permutation_rejects_non_bijection():
    with pytest.raises(CipherError):
        BlockPermutation((1, 1, 2))


def test_block_permutation_inverse():
    assert PI.inverse().apply(PI.apply("CRYP")) == "CRYP"
    assert BlockPermutation.from_text("3 4 1 2") == PI


@pytest.mark.parametrize(
    "text", ["1 \u0663 2", "2 +1", "1_0 " + " ".join(map(str, range(1, 10)))]
)
def test_block_permutation_text_takes_ascii_digits_only(text):
    # int() would read each of these as a permutation
    with pytest.raises(CipherError, match="^malformed permutation "):
        BlockPermutation.from_text(text)


@given(
    st.text(alphabet="ABCDEFGH", min_size=2, max_size=10).filter(lambda s: len(s) >= 2),
    st.randoms(use_true_random=False),
)
def test_transposition_round_trip(block, rng):
    order = list(range(1, len(block) + 1))
    rng.shuffle(order)
    perm = BlockPermutation(tuple(order))
    assert transposition_decrypt(perm.apply(block), [perm]) == block


def test_decrypt_inverts_each_distinct_permutation_once(monkeypatch):
    calls = []
    inverse = BlockPermutation.inverse

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(BlockPermutation, "inverse", counted)
    ident = BlockPermutation((1, 2))
    perms = [PI, ident, PI, BlockPermutation((3, 4, 1, 2)), ident]
    assert transposition_decrypt("YPCRABGRTOHYAPCD", perms) == "CRYPABTOGRAPHYCD"
    assert sorted(calls, key=len) == [ident, PI]


# ---------------------------------------------------------------------------
# Routes
# ---------------------------------------------------------------------------

def test_route_boustrophedon_reads_plaintext():
    assert transposition_encrypt(DECRYPTED_GRID, [ROUTE_4X3]) == "CRYPTOGRAPHY"


def test_route_second_column_bottom_up_continues_plaintext():
    # reading column 2 upward yields the second plaintext block
    up_col2 = tuple(r * 3 + 1 + 1 for r in range(3, -1, -1))
    column_only = "".join(DECRYPTED_GRID[j - 1] for j in up_col2)
    assert column_only == "TOGR"
    with pytest.raises(CipherError, match="is not a permutation"):
        BlockPermutation(up_col2)  # partial routes are rejected


def test_route_single_cell():
    assert transposition_encrypt("X", [BlockPermutation((1,))]) == "X"


def test_route_duplicate_cell_rejected():
    with pytest.raises(CipherError, match="is not a permutation"):
        BlockPermutation((1, 1))


def test_route_inverse_round_trip():
    text = transposition_encrypt(DECRYPTED_GRID, [ROUTE_4X3])
    # writing the text back along the route reproduces the grid
    assert transposition_decrypt(text, [ROUTE_4X3]) == DECRYPTED_GRID


@given(st.integers(1, 8), st.integers(1, 8), st.randoms(use_true_random=False))
def test_boustrophedon_matches_a_cell_walk(rows, cols, rng):
    text = "".join(rng.choice("ABCDEFGHIJKLMNOPQRSTUVWXYZ") for _ in range(rows * cols))
    grid = [text[r * cols:(r + 1) * cols] for r in range(rows)]
    walk = []
    for c in range(cols):
        for r in range(rows) if c % 2 == 0 else reversed(range(rows)):
            walk.append(grid[r][c])
    route = BlockPermutation(tuple(
        r * cols + c + 1
        for c in range(cols)
        for r in (range(rows) if c % 2 == 0 else range(rows - 1, -1, -1))
    ))
    assert transposition_encrypt(text, [route]) == "".join(walk)
    assert transposition_decrypt("".join(walk), [route]) == text


def test_whitespace_is_one_set_of_characters():
    # normalize finds a foreign character with the regular expression \s and
    # drops whitespace with str.split; both must name exactly the characters
    # that str.isspace names, on every code point
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert "".join(re.findall(r"\s", every)) == "".join(filter(str.isspace, every))
    assert "".join(every.split()) == "".join(filterfalse(str.isspace, every))
