"""Classical cryptosystems over the fixed alphabet A-Z.

Vigenere shifts and block transpositions, whose keys are tuples in one-line
notation; a route through a grid is the one-block transposition key that
lists its cells' row-major indices in order.
``LETTERS`` is the one alphabet of the package: a letter's index in it is its
residue, and 26 is the modulus of every shift.  Only the ASCII letters a-z
fold into it; anything else is rejected unless explicitly stripped.
"""

from __future__ import annotations

import re
from collections.abc import Sequence

from .brauer import _all_ints, _is_int, ascii_ints

LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_FOLD = str.maketrans(LETTERS.lower(), LETTERS)
_NOT_LETTERS = re.compile(r"[^A-Z]+")
_FOREIGN = re.compile(r"[^A-Z\s]")  # neither a letter nor whitespace


class CipherError(ValueError):
    """Invalid key, block shape, permutation or out-of-alphabet character."""

    code = "E_CIPHER"  # the CLI's error code


class Alphabet:
    """Folding of free text into ``LETTERS``."""

    def normalize(self, text: str, strip: bool = False) -> str:
        """Fold ``text`` into the alphabet; only the ASCII letters a-z fold.

        With ``strip`` foreign characters are dropped; otherwise the first
        that is not whitespace raises, as written, at its offset in ``text``.
        ``\\s``, ``str.split`` and ``str.isspace`` name the same characters.
        """
        folded = text.translate(_FOLD)
        if strip:
            return _NOT_LETTERS.sub("", folded)
        foreign = _FOREIGN.search(folded)
        if foreign:
            raise CipherError(
                f"character {foreign.group()!r} at offset {foreign.start()} is not in the alphabet"
            )
        return "".join(folded.split())


DEFAULT_ALPHABET = Alphabet()


# ---------------------------------------------------------------------------
# Vigenere
# ---------------------------------------------------------------------------

def _shift(text: str, key: str, sign: int) -> str:
    """Shift letter i of ``text`` by ``sign`` times the residue of key letter
    i mod len(key).  The key is folded like the text, and before it, so an
    empty or foreign key is reported before a foreign text."""
    shifts = [LETTERS.index(ch) for ch in DEFAULT_ALPHABET.normalize(key)]
    if not shifts:
        raise CipherError("empty key")
    m = len(shifts)
    return "".join(
        LETTERS[(LETTERS.index(ch) + sign * shifts[i % m]) % len(LETTERS)]
        for i, ch in enumerate(DEFAULT_ALPHABET.normalize(text))
    )


def vigenere_encrypt(plain: str, key: str) -> str:
    """Shift position i by key[i mod len(key)]."""
    return _shift(plain, key, +1)


def vigenere_decrypt(cipher: str, key: str) -> str:
    return _shift(cipher, key, -1)


# ---------------------------------------------------------------------------
# Block transposition
# ---------------------------------------------------------------------------

def _checked(p: Sequence[int]) -> Sequence[int]:
    n = len(p)
    if not _all_ints(p) or sorted(p) != list(range(1, n + 1)):
        raise CipherError(f"{p} is not a permutation of 1..{n}")
    return p


def parse_permutation(text: str) -> tuple[int, ...]:
    """The permutation that ``text`` writes in one-line notation, its
    entries ASCII digits split by commas or whitespace."""
    try:
        return _checked(tuple(ascii_ints(text.replace(",", " ").split())))
    except ValueError:  # not ASCII digits, too long for int(), or no permutation
        raise CipherError(f"malformed permutation {text!r}") from None


def split_blocks(text: str, sizes: Sequence[int]) -> list[str]:
    """Partition ``text`` into consecutive blocks of the given sizes."""
    if not _all_ints(sizes):
        bad = next(size for size in sizes if not _is_int(size))
        raise CipherError(f"block size {bad!r} is not an integer")
    if any(size < 0 for size in sizes):
        raise CipherError(f"negative block size {min(sizes)}")
    if sum(sizes) != len(text):
        raise CipherError(
            f"block sizes sum to {sum(sizes)} but text has length {len(text)}"
        )
    blocks, start = [], 0
    for size in sizes:
        blocks.append(text[start:start + size])
        start += size
    return blocks


def _transpose(text: str, perms: Sequence[Sequence[int]], invert: bool) -> str:
    orders = {}
    for p in perms:
        key = tuple(p)
        # checked once per distinct tuple, and again if not all ints: (1.0, 2.0)
        # and (True, 2) equal (1, 2)
        if key not in orders or not _all_ints(key):
            order = [j - 1 for j in _checked(p)]
            orders[key] = sorted(range(len(order)), key=order.__getitem__) if invert else order
    reads = [orders[tuple(p)] for p in perms]
    blocks = split_blocks(text, list(map(len, reads)))
    return "".join(b[i] for b, order in zip(blocks, reads) for i in order)


def transposition_encrypt(text: str, perms: Sequence[Sequence[int]]) -> str:
    """Cut ``text`` into one block per permutation p, of its length; position
    i of a block's output takes the block's position p[i] (1-based)."""
    return _transpose(text, perms, invert=False)


def transposition_decrypt(text: str, perms: Sequence[Sequence[int]]) -> str:
    """Encryption with the inverse permutations, each distinct one inverted once."""
    return _transpose(text, perms, invert=True)
