import pytest
from hypothesis import given, strategies as st

from brauer_kit.cipher import (
    Alphabet,
    BlockPermutation,
    CipherError,
    RouteSpec,
    VigenereKey,
    column_boustrophedon,
    grid_from_columns,
    route_read,
    row_major,
    split_blocks,
    transposition_decrypt,
    transposition_encrypt,
    vigenere_decrypt,
    vigenere_encrypt,
)

PI = BlockPermutation((3, 4, 1, 2))

# Decrypted 4x3 grid: plaintext blocks written column by column.
DECRYPTED_GRID = grid_from_columns("CRYPRGOTAPHY", rows=4)


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


# ---------------------------------------------------------------------------
# Vigenere
# ---------------------------------------------------------------------------

def test_vigenere_worked_example():
    key = VigenereKey.from_text("MDPI")
    cipher = vigenere_encrypt("classicalcryptography", key)
    assert cipher == "OOPAELRIXFGGBWDODDEPK"
    assert vigenere_decrypt(cipher, key) == "CLASSICALCRYPTOGRAPHY"


def test_vigenere_zero_key_is_identity():
    key = VigenereKey((0, 0, 0))
    assert vigenere_encrypt("HELLO", key) == "HELLO"


def test_vigenere_empty_key_rejected():
    with pytest.raises(CipherError):
        VigenereKey(())
    with pytest.raises(CipherError):
        VigenereKey.from_text("")


def test_vigenere_rejects_foreign_plaintext():
    with pytest.raises(CipherError):
        vigenere_encrypt("HI5", VigenereKey.from_text("A"))


@given(
    st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ", min_size=1, max_size=60),
    st.lists(st.integers(0, 25), min_size=1, max_size=8),
)
def test_vigenere_round_trip(plain, residues):
    key = VigenereKey(tuple(residues))
    assert vigenere_decrypt(vigenere_encrypt(plain, key), key) == plain


# ---------------------------------------------------------------------------
# Block transposition
# ---------------------------------------------------------------------------

def test_transposition_single_block():
    assert transposition_encrypt(["CRYP"], [PI]) == "YPCR"


def test_transposition_second_block():
    assert transposition_encrypt(["TOGR"], [PI]) == "GRTO"


def test_transposition_identity():
    ident = BlockPermutation((1, 2, 3))
    assert transposition_encrypt(["ABC"], [ident]) == "ABC"


def test_transposition_full_plaintext():
    blocks = split_blocks("CRYPTOGRAPHY", [4, 4, 4])
    cipher = transposition_encrypt(blocks, [PI, PI, PI])
    assert cipher == "YPCRGRTOHYAP"
    assert transposition_decrypt(split_blocks(cipher, [4, 4, 4]), [PI, PI, PI]) == "CRYPTOGRAPHY"


def test_transposition_length_mismatch():
    with pytest.raises(CipherError):
        transposition_encrypt(["CRY"], [PI])


def test_block_permutation_rejects_non_bijection():
    with pytest.raises(CipherError):
        BlockPermutation((1, 1, 2))


def test_block_permutation_inverse():
    assert PI.inverse().apply(PI.apply("CRYP")) == "CRYP"
    assert BlockPermutation.from_text("3 4 1 2") == PI


@given(
    st.text(alphabet="ABCDEFGH", min_size=2, max_size=10).filter(lambda s: len(s) >= 2),
    st.randoms(use_true_random=False),
)
def test_transposition_round_trip(block, rng):
    order = list(range(1, len(block) + 1))
    rng.shuffle(order)
    perm = BlockPermutation(tuple(order))
    assert transposition_decrypt([perm.apply(block)], [perm]) == block


# ---------------------------------------------------------------------------
# Route reading
# ---------------------------------------------------------------------------

def test_grid_from_columns():
    assert DECRYPTED_GRID == ("CRA", "RGP", "YOH", "PTY")


def test_route_boustrophedon_reads_plaintext():
    route = column_boustrophedon(4, 3)
    assert route_read(DECRYPTED_GRID, route) == "CRYPTOGRAPHY"


def test_route_second_column_bottom_up_continues_plaintext():
    # reading column 2 upward yields the second plaintext block
    up_col2 = RouteSpec(tuple((r, 1) for r in range(3, -1, -1)))
    column_only = "".join(DECRYPTED_GRID[r][1] for r in range(3, -1, -1))
    assert column_only == "TOGR"
    with pytest.raises(CipherError):
        route_read(DECRYPTED_GRID, up_col2)  # partial routes are rejected


def test_route_row_major():
    assert route_read(DECRYPTED_GRID, row_major(4, 3)) == "CRARGPYOHPTY"


def test_route_single_cell():
    assert route_read(("X",), RouteSpec(((0, 0),))) == "X"


def test_route_duplicate_cell_rejected():
    bad = RouteSpec(((0, 0), (0, 0)))
    with pytest.raises(CipherError):
        route_read(("XY",), bad)


def test_route_inverse_round_trip():
    route = column_boustrophedon(4, 3)
    text = route_read(DECRYPTED_GRID, route)
    # writing the text back along the route reproduces the grid
    cells = {}
    for ch, (r, c) in zip(text, route.cells):
        cells[(r, c)] = ch
    rebuilt = tuple(
        "".join(cells[(r, c)] for c in range(3)) for r in range(4)
    )
    assert rebuilt == DECRYPTED_GRID
