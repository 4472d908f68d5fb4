"""Classical cryptosystems over the fixed alphabet A-Z.

Vigenere shifts, block transpositions with one permutation per block, and
route (grid) reading.  ``LETTERS`` is the one alphabet of the package: a
letter's index in it is its residue, and its length 26 is the modulus of
every shift.  Anything outside it is rejected unless explicitly stripped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


class CipherError(ValueError):
    """Invalid key, block shape, route or out-of-alphabet character."""


class Alphabet:
    """Folding of free text into ``LETTERS``."""

    def normalize(self, text: str, strip: bool = False) -> str:
        """Case-fold ``text`` into the alphabet.

        With ``strip`` foreign characters are dropped; otherwise the first
        foreign character raises, reporting its offset in the folded text.
        """
        folded = text.upper()
        out = []
        for i, ch in enumerate(folded):
            if ch in LETTERS:
                out.append(ch)
            elif strip or ch.isspace():
                continue
            else:
                raise CipherError(f"character {ch!r} at offset {i} is not in the alphabet")
        return "".join(out)


def _letters(residues: Iterable[int]) -> str:
    """The letters of ``residues`` taken modulo the alphabet size."""
    return "".join(LETTERS[r % len(LETTERS)] for r in residues)


DEFAULT_ALPHABET = Alphabet()


# ---------------------------------------------------------------------------
# Vigenere
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VigenereKey:
    residues: tuple[int, ...]

    def __post_init__(self):
        if not self.residues:
            raise CipherError("empty key")
        if any(r < 0 for r in self.residues):
            raise CipherError("key residues must be non-negative")

    @classmethod
    def from_text(cls, key: str) -> "VigenereKey":
        key = DEFAULT_ALPHABET.normalize(key)
        if not key:
            raise CipherError("empty key")
        return cls(tuple(LETTERS.index(ch) for ch in key))

    def to_text(self) -> str:
        return _letters(self.residues)

    def __len__(self) -> int:
        return len(self.residues)


def _shift(text: str, key: VigenereKey, sign: int) -> str:
    m = len(key)
    return _letters(
        LETTERS.index(ch) + sign * key.residues[i % m]
        for i, ch in enumerate(DEFAULT_ALPHABET.normalize(text))
    )


def vigenere_encrypt(plain: str, key: VigenereKey) -> str:
    """Shift position i by key[i mod len(key)]."""
    return _shift(plain, key, +1)


def vigenere_decrypt(cipher: str, key: VigenereKey) -> str:
    return _shift(cipher, key, -1)


# ---------------------------------------------------------------------------
# Block transposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockPermutation:
    """One-line notation: position i of the output takes input position
    oneline[i] (1-based)."""

    oneline: tuple[int, ...]

    def __post_init__(self):
        n = len(self.oneline)
        if sorted(self.oneline) != list(range(1, n + 1)):
            raise CipherError(f"{self.oneline} is not a permutation of 1..{n}")

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
            return cls(tuple(int(tok) for tok in text.replace(",", " ").split()))
        except ValueError:
            raise CipherError(f"malformed permutation {text!r}") from None


def split_blocks(text: str, sizes: Sequence[int]) -> list[str]:
    """Partition ``text`` into consecutive blocks of the given sizes."""
    if sum(sizes) != len(text):
        raise CipherError(
            f"block sizes sum to {sum(sizes)} but text has length {len(text)}"
        )
    blocks, start = [], 0
    for size in sizes:
        blocks.append(text[start:start + size])
        start += size
    return blocks


def transposition_encrypt(blocks: Sequence[str], perms: Sequence[BlockPermutation]) -> str:
    """Reorder each block by its permutation and concatenate."""
    if len(blocks) != len(perms):
        raise CipherError("one permutation per block required")
    return "".join(p.apply(b) for b, p in zip(blocks, perms))


def transposition_decrypt(blocks: Sequence[str], perms: Sequence[BlockPermutation]) -> str:
    """Apply the inverse permutations blockwise."""
    if len(blocks) != len(perms):
        raise CipherError("one permutation per block required")
    return "".join(p.inverse().apply(b) for b, p in zip(blocks, perms))


# ---------------------------------------------------------------------------
# Route (grid) reading
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RouteSpec:
    """Ordered (row, col) cells visiting each grid cell exactly once."""

    cells: tuple[tuple[int, int], ...]

    def validate_for(self, rows: int, cols: int) -> None:
        expected = {(r, c) for r in range(rows) for c in range(cols)}
        actual = set(self.cells)
        if len(self.cells) != len(actual):
            raise CipherError("route visits a cell more than once")
        if actual != expected:
            missing = sorted(expected - actual)
            extra = sorted(actual - expected)
            detail = []
            if missing:
                detail.append(f"missing {missing[:4]}")
            if extra:
                detail.append(f"outside grid {extra[:4]}")
            raise CipherError("route does not cover the grid: " + ", ".join(detail))


def route_read(grid: Sequence[str], route: RouteSpec) -> str:
    """Concatenate grid cells in route order.  ``grid`` is a list of equal
    length row strings."""
    rows = len(grid)
    if rows == 0:
        raise CipherError("empty grid")
    cols = len(grid[0])
    if any(len(row) != cols for row in grid):
        raise CipherError("ragged grid")
    route.validate_for(rows, cols)
    return "".join(grid[r][c] for r, c in route.cells)


def row_major(rows: int, cols: int) -> RouteSpec:
    return RouteSpec(tuple((r, c) for r in range(rows) for c in range(cols)))


def column_boustrophedon(rows: int, cols: int) -> RouteSpec:
    """Down the first column, up the second, and so on."""
    cells = []
    for c in range(cols):
        rng = range(rows) if c % 2 == 0 else range(rows - 1, -1, -1)
        cells.extend((r, c) for r in rng)
    return RouteSpec(tuple(cells))


def grid_from_columns(text: str, rows: int) -> tuple[str, ...]:
    """Write ``text`` into a grid column by column, top to bottom."""
    if rows < 1 or len(text) % rows != 0:
        raise CipherError(f"text of length {len(text)} does not fill {rows} rows")
    cols = len(text) // rows
    return tuple(
        "".join(text[c * rows + r] for c in range(cols)) for r in range(rows)
    )
