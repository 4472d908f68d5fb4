"""Bridges from ciphertexts to Brauer configurations.

A Vigenere ciphertext split into its decimated lists is a configuration
whose polygons are the lists and whose vertices are the characters; its
tally table, the lists' letter counts (``coincidence.list_counts``), fixes
every invariant (``brauer.invariants_from_tallies``).  ``brauer_ioc``
reads the text's coincidence index back from those invariants.  A block
partition of a text is the configuration
``config_from_words(split_blocks(text, sizes))``.
"""

from __future__ import annotations

from fractions import Fraction

from .brauer import AlgebraInvariants
from .cipher import CipherError


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
