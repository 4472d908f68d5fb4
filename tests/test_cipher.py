import re
import string
import sys
from itertools import filterfalse

import pytest
from hypothesis import example, given, settings, strategies as st

from brauer_kit.cipher import (
    LETTERS,
    Alphabet,
    CipherError,
    parse_permutation,
    split_blocks,
    transposition_decrypt,
    transposition_encrypt,
    vigenere_decrypt,
    vigenere_encrypt,
)
from brauer_kit import cipher
from reference import (
    decrypt_by_record,
    encrypt_by_record,
    normalize_by_loop,
    parse_permutation_by_record,
)

PI = (3, 4, 1, 2)

# Decrypted 4x3 grid in row-major text: rows CRA, RGP, YOH, PTY, so its
# columns read CRYP, RGOT, APHY top to bottom.
DECRYPTED_GRID = "CRARGPYOHPTY"

# The route down the first column, up the second and down the third, as the
# transposition key of the 4x3 grid: entry k is the row-major index of the
# k-th cell visited.
ROUTE_4X3 = parse_permutation("1 4 7 10 11 8 5 2 3 6 9 12")


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
    assert transposition_encrypt("ABC", [(1, 2, 3)]) == "ABC"


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


def test_split_blocks_takes_a_block_of_size_zero():
    # only a negative size is refused: an empty block is a block
    assert split_blocks("AB", [0, 2]) == ["", "AB"]


def test_block_permutation_rejects_non_bijection():
    for crypt in (transposition_encrypt, transposition_decrypt):
        with pytest.raises(CipherError, match=r"^\(1, 1, 2\) is not a permutation of 1\.\.3$"):
            crypt("ABC", [(1, 1, 2)])


def test_transposition_names_a_bad_permutation_as_given():
    # checked before the blocks are cut, and printed as the caller wrote it
    for perm, message in (
        ((1, 1), "(1, 1) is not a permutation of 1..2"),
        ([2, 3], "[2, 3] is not a permutation of 1..2"),
    ):
        with pytest.raises(CipherError) as err:
            transposition_encrypt("ABC", [(1, 2), perm])
        assert str(err.value) == message


def test_block_permutation_inverse():
    assert transposition_decrypt(transposition_encrypt("CRYP", [PI]), [PI]) == "CRYP"
    assert transposition_decrypt("CRYP", [PI]) == "YPCR"  # (3 4 1 2) is its own inverse
    assert transposition_decrypt("ABC", [(2, 3, 1)]) == transposition_encrypt("ABC", [(3, 1, 2)])
    assert parse_permutation("3 4 1 2") == parse_permutation("3,4,,1 2") == PI


def test_list_permutations_work_in_both_directions():
    perms = [[3, 4, 1, 2], [2, 1], [3, 4, 1, 2]]
    assert transposition_encrypt("CRYPABTOGR", perms) == "YPCRBAGRTO"
    assert transposition_decrypt("YPCRBAGRTO", perms) == "CRYPABTOGR"


@pytest.mark.parametrize("perms, message", [
    ([(1.0, 2.0)], "(1.0, 2.0) is not a permutation of 1..2"),
    ([(1, 2), (1.0, 2.0)], "(1.0, 2.0) is not a permutation of 1..2"),  # equal tuples
    ([[2, "1"]], "[2, '1'] is not a permutation of 1..2"),
    ([(2, True)], "(2, True) is not a permutation of 1..2"),
    ([(1, 2), (True, 2)], "(True, 2) is not a permutation of 1..2"),  # equal tuples
])
def test_entries_that_are_not_ints_are_rejected(perms, message):
    for crypt in (transposition_encrypt, transposition_decrypt):
        with pytest.raises(CipherError) as err:
            crypt("AB" * len(perms), perms)
        assert str(err.value) == message


@pytest.mark.parametrize(
    "text", ["1 \u0663 2", "2 +1", "1_0 " + " ".join(map(str, range(1, 10)))]
)
def test_block_permutation_text_takes_ascii_digits_only(text):
    # int() would read each of these as a permutation
    with pytest.raises(CipherError, match="^malformed permutation "):
        parse_permutation(text)


@given(
    st.text(alphabet="ABCDEFGH", min_size=2, max_size=10).filter(lambda s: len(s) >= 2),
    st.randoms(use_true_random=False),
)
def test_transposition_round_trip(block, rng):
    order = list(range(1, len(block) + 1))
    rng.shuffle(order)
    perm = tuple(order)
    assert transposition_decrypt(transposition_encrypt(block, [perm]), [perm]) == block


def _result(f, *args):
    try:
        return "ok", f(*args)
    except CipherError as exc:
        return "error", str(exc)


# valid permutations, the empty one among them, and tuples with repeats, 0,
# negatives or gaps; entries that are not ints and lists are left out, since
# the record's TypeError on them is the defect that the tuples mend
PERMUTATIONS = st.one_of(
    st.integers(0, 6).flatmap(lambda n: st.permutations(range(1, n + 1))).map(tuple),
    st.lists(st.integers(-2, 8), max_size=6).map(tuple),
)


@st.composite
def transposition_inputs(draw):
    perms = draw(st.lists(st.one_of(PERMUTATIONS, st.sampled_from([PI, (2, 1)])), max_size=5))
    size = sum(map(len, perms))
    text = draw(st.one_of(
        st.text("ABCDEFG", min_size=size, max_size=size),
        st.text("ABCDEFG", max_size=size + 2),
    ))
    return text, perms


@settings(max_examples=300)
@given(transposition_inputs())
@example(("", []))
@example(("AB", [()]))
@example(("AB", [(), (2, 1), ()]))
@example(("ABC", [(2, 1), (1, 1)]))
@example(("ABC", [(0, 1)]))
def test_transposition_matches_the_record(inputs):
    # the same text, or the same error, as the record that checked each
    # permutation once when it was built
    text, perms = inputs
    assert _result(transposition_encrypt, text, perms) == _result(encrypt_by_record, text, perms)
    assert _result(transposition_decrypt, text, perms) == _result(decrypt_by_record, text, perms)


@settings(max_examples=300)
@given(st.one_of(
    st.text("0123456789, -+_\u0663", max_size=16),
    st.integers(1, 7).flatmap(lambda n: st.permutations(range(1, n + 1))).map(
        lambda perm: ", ".join(map(str, perm))
    ),
    st.integers(4301, 4400).map(lambda n: "1 " + "2" * n),
))
@example("")
@example("1,,2")
@example("2 1 " + "3" * 4301)
def test_parse_permutation_matches_the_record(text):
    assert _result(parse_permutation, text) == _result(parse_permutation_by_record, text)


def test_decrypt_inverts_each_distinct_permutation_once(monkeypatch):
    calls = []
    checked = cipher._checked

    def counted(p):
        calls.append(p)
        return checked(p)

    monkeypatch.setattr(cipher, "_checked", counted)
    ident = (1, 2)
    perms = [PI, ident, PI, [3, 4, 1, 2], ident]
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
        transposition_encrypt(column_only, [up_col2])  # partial routes are rejected


def test_route_single_cell():
    assert transposition_encrypt("X", [(1,)]) == "X"


def test_route_duplicate_cell_rejected():
    with pytest.raises(CipherError, match="is not a permutation"):
        transposition_decrypt("XY", [(1, 1)])


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
    route = tuple(
        r * cols + c + 1
        for c in range(cols)
        for r in (range(rows) if c % 2 == 0 else range(rows - 1, -1, -1))
    )
    assert transposition_encrypt(text, [route]) == "".join(walk)
    assert transposition_decrypt("".join(walk), [route]) == text


def test_whitespace_is_one_set_of_characters():
    # normalize finds a foreign character with the regular expression \s and
    # drops whitespace with str.split; both must name exactly the characters
    # that str.isspace names, on every code point
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert "".join(re.findall(r"\s", every)) == "".join(filter(str.isspace, every))
    assert "".join(every.split()) == "".join(filterfalse(str.isspace, every))
