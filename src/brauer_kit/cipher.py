"""Classical cryptosystems over the fixed alphabet A-Z.

Vigenere shifts and block transpositions; a route through a grid is the
one-block transposition key that lists its cells' row-major indices in order.
``LETTERS`` is the one alphabet of the package: a letter's index in it is its
residue, and 26 is the modulus of every shift.  Only the ASCII letters a-z
fold into it; anything else is rejected unless explicitly stripped.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterable, Sequence

from .brauer import ascii_ints

LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_FOLD = str.maketrans(LETTERS.lower(), LETTERS)
_NOT_LETTERS = re.compile(r"[^A-Z]+")
_FOREIGN = re.compile(r"[^A-Z\s]")  # neither a letter nor whitespace


class CipherError(ValueError):
    """Invalid key, block shape, permutation or out-of-alphabet character."""


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


def _letters(residues: Iterable[int]) -> str:
    """The letters of ``residues`` taken modulo the alphabet size."""
    return "".join(LETTERS[r % len(LETTERS)] for r in residues)


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
    return _letters(
        LETTERS.index(ch) + sign * shifts[i % m]
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

class BlockPermutation(namedtuple("BlockPermutation", "oneline")):
    """One-line notation: position i of the output takes input position
    oneline[i] (1-based)."""

    __slots__ = ()

    def __new__(cls, oneline: tuple[int, ...]):
        n = len(oneline)
        if sorted(oneline) != list(range(1, n + 1)):
            raise CipherError(f"{oneline} is not a permutation of 1..{n}")
        return super().__new__(cls, oneline)

    def __len__(self) -> int:
        return len(self.oneline)

    def apply(self, block: str) -> str:
        if len(block) != len(self.oneline):
            raise CipherError(
                f"block length {len(block)} != permutation length {len(self.oneline)}"
            )
        return "".join(block[j - 1] for j in self.oneline)

    def inverse(self) -> "BlockPermutation":
        inv = [0] * len(self.oneline)
        for i, j in enumerate(self.oneline, start=1):
            inv[j - 1] = i
        return BlockPermutation(tuple(inv))

    @classmethod
    def from_text(cls, text: str) -> "BlockPermutation":
        try:
            return cls(tuple(ascii_ints(text.replace(",", " ").split())))
        except ValueError:  # not ASCII digits, too long for int(), or no permutation
            raise CipherError(f"malformed permutation {text!r}") from None


def split_blocks(text: str, sizes: Sequence[int]) -> list[str]:
    """Partition ``text`` into consecutive blocks of the given sizes."""
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


def transposition_encrypt(text: str, perms: Sequence[BlockPermutation]) -> str:
    """Cut ``text`` into one block per permutation, of its length, and
    reorder each block by its permutation."""
    blocks = split_blocks(text, [len(p) for p in perms])
    return "".join(p.apply(b) for b, p in zip(blocks, perms))


def transposition_decrypt(text: str, perms: Sequence[BlockPermutation]) -> str:
    """Encryption with the inverse permutations, each distinct one inverted
    once."""
    inverses = {p: p.inverse() for p in set(perms)}
    return transposition_encrypt(text, [inverses[p] for p in perms])

