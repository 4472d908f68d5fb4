"""Bridges from ciphertexts to Brauer configurations.

A Vigenere ciphertext split into its decimated lists becomes a
configuration whose polygons are the lists and whose vertices are the
characters; ``decimate`` checks that a key length m meets 2m <= N, so that
every list is a polygon.  ``brauer_ioc`` reads the text's coincidence index
back from that configuration's invariants.  A block partition of a text is
the configuration ``config_from_words(split_blocks(text, sizes))``.
"""

from __future__ import annotations

from fractions import Fraction

from .brauer import AlgebraInvariants, BrauerConfiguration, config_from_words
from .cipher import CipherError
from .coincidence import decimate


def vigenere_to_config(cipher: str, m: int) -> BrauerConfiguration:
    """Configuration of a ciphertext under an assumed key length: one
    polygon per decimated list, in list order.  ``cipher`` is already
    normalized (``Alphabet.normalize``); every caller folds its text once."""
    return config_from_words([tuple(part) for part in decimate(cipher, m)])


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
