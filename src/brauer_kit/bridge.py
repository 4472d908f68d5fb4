"""Bridges from ciphertexts to Brauer configurations.

A Vigenere ciphertext split into its decimated lists, or any block
partition of a text, becomes a configuration whose polygons are the lists
and whose vertices are the characters.  The checks below compare the
closed-form dimensions of those configurations against the coincidence
counts of the text itself.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .brauer import (
    AlgebraInvariants,
    BrauerConfiguration,
    config_from_words,
    dim_lambda,
    invariants,
)
from .cipher import (
    BlockPermutation,
    CipherError,
    DEFAULT_ALPHABET,
    split_blocks,
    transposition_encrypt,
)
from .coincidence import decimate


def vigenere_to_config(cipher: str, m: int) -> BrauerConfiguration:
    """Configuration of a ciphertext under an assumed key length: one
    polygon per decimated list, in list order.  ``cipher`` is already
    normalized (``Alphabet.normalize``); every caller folds its text once."""
    # every list holds 2 characters exactly when the text has 2m: check first
    if len(cipher) < 2 * m:
        raise CipherError(f"key length {m} leaves lists shorter than 2 characters")
    return config_from_words([tuple(part) for part in decimate(cipher, m)])


def transposition_to_config(text: str, block_sizes: Sequence[int]) -> BrauerConfiguration:
    """Configuration of a block partition: one polygon per block."""
    if any(size < 2 for size in block_sizes):
        raise CipherError("every block must have size >= 2")
    blocks = split_blocks(text, block_sizes)
    return config_from_words([tuple(b) for b in blocks])


def brauer_ioc(inv: AlgebraInvariants) -> Fraction:
    """(dim - 2m) / (N(N-1)) from the invariants of a key length m split.

    m is the polygon count and N, the text length, is the occurrence total
    sum(val * count) of the valency histogram.  Coincides with the standard
    index of coincidence exactly when no character of the text is a
    singleton; each singleton adds 1/(N(N-1)).
    """
    n = sum(val * count for val, count in inv.valency_histogram.items())
    if n < 2:
        raise CipherError("text shorter than 2")
    return Fraction(inv.dim_lambda - 2 * inv.polygon_count, n * (n - 1))


# ---------------------------------------------------------------------------
# Permutation invariance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PermutationVerdict:
    plain_invariants: AlgebraInvariants
    cipher_invariants: AlgebraInvariants

    @property
    def equal(self) -> bool:
        return self.plain_invariants == self.cipher_invariants


def check_permutation_invariance(
    plain: str, perms: Sequence[BlockPermutation]
) -> PermutationVerdict:
    """Blockwise transposition never changes the configuration invariants:
    encrypt ``plain`` with one permutation per block and compare."""
    sizes = [len(p) for p in perms]
    cipher = transposition_encrypt(plain, perms)
    plain_config = transposition_to_config(plain, sizes)
    cipher_config = transposition_to_config(cipher, sizes)
    return PermutationVerdict(invariants(plain_config), invariants(cipher_config))


# ---------------------------------------------------------------------------
# Dimension identities for Vigenere splits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityVerdict:
    """Outcome of comparing a dimension against its coincidence-count form.

    When the precondition fails the verdict is diagnostic: both sides are
    still reported together with the violating characters, and ``gap``
    explains the difference."""

    name: str
    precondition_ok: bool
    lhs: int
    rhs: int
    violations: tuple[str, ...] = ()

    @property
    def holds(self) -> bool:
        return self.precondition_ok and self.lhs == self.rhs

    @property
    def gap(self) -> int:
        return self.lhs - self.rhs


def check_dim_coincidence_identity(cipher: str, m: int) -> IdentityVerdict:
    """dim = 2m + N(N-1) * IoC, valid when every character present occurs
    at least twice.  Singletons each contribute 1 to the left side only."""
    cipher = DEFAULT_ALPHABET.normalize(cipher)
    config = vigenere_to_config(cipher, m)
    counts = Counter(cipher)
    singletons = tuple(sorted(ch for ch, f in counts.items() if f == 1))
    lhs = dim_lambda(config)
    rhs = 2 * m + sum(f * (f - 1) for f in counts.values())
    return IdentityVerdict("dim = 2m + N(N-1)*IoC", not singletons, lhs, rhs, singletons)


def check_center_frequency_identity(cipher: str, m: int) -> IdentityVerdict:
    """dim of the center = 1 + m + sum over lists of (frequency - 1),
    valid when every character occurs at least twice and in at least two
    different lists."""
    cipher = DEFAULT_ALPHABET.normalize(cipher)
    config = vigenere_to_config(cipher, m)
    lists = decimate(cipher, m)
    per_list = [Counter(part) for part in lists]
    spread = Counter()
    for counts in per_list:
        spread.update(set(counts))
    total = Counter(cipher)
    violations = tuple(sorted(
        ch for ch in total if total[ch] == 1 or spread[ch] < 2
    ))
    # the identity is about the formula value, which needs no connectivity
    lhs = invariants(config).dim_center
    rhs = 1 + m + sum(f - 1 for counts in per_list for f in counts.values())
    return IdentityVerdict(
        "dim Z = 1 + m + sum(f_ij - 1)", not violations, lhs, rhs, violations
    )
