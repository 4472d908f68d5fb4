"""Coincidence statistics and the Friedman ciphertext-only attack.

Every figure is an int or an exact rational; decimals appear only when
rendering reports.  The attack splits a ciphertext into candidate decimated
lists, scores key lengths by how close the per-list indices come to the
English target 0.065, recovers shift differences from the 26 cyclic overlaps
of each pair of lists' tallies (a Vigenere shift rotates a tally), and ranks
the anchored keys by a chi-squared fit of the decryption, all in integers:
the ranking compares and sums the deviations of each list's coincidence
count from the target, recovery reads a pair's 26 overlaps from one product
of two big integers that hold the tallies in fixed-width slots (Kronecker
substitution), and a chi-squared is one fraction over integer products.

Everything after the split reads the lists' letter counts.  Ranking key
lengths up to M counts letters only for a few splits: from M down, a length
that divides no split yet shares one at a common multiple while its lists
keep at least _MIN_LIST letters.  Each length's lists' counts are then sums
of the smallest table it divides among the splits and the longer lengths.
Recovery takes one length's counts, so the attack counts each split once.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations, starmap
from math import lcm, prod
from operator import mul
from struct import Struct
from collections.abc import Sequence

from .brauer import _is_int
from .cipher import CipherError, LETTERS

# Relative letter frequencies F of English text, A to Z, in thousandths of
# a percent: letter h is expected N * F_h / 10**5 times in N letters.
ENGLISH_FREQUENCIES = dict(zip(LETTERS, (
    8167, 1492, 2782, 4253, 12702, 2228, 2015, 6094, 6966, 153,
    772, 4025, 2406, 6749, 7507, 1929, 95, 5987, 6327, 9056,
    2758, 978, 2360, 150, 1974, 74,
)))
_LCM = lcm(*ENGLISH_FREQUENCIES.values())  # L, 218 bits
_WEIGHTS = [_LCM // f for f in ENGLISH_FREQUENCIES.values()]  # the integers L / F_h

IOC_TARGET = Fraction(65, 1000)
IOC_WINDOW = Fraction(1, 100)

# Ceiling of the attack's --keylen and --max-keylen.  Recovery at m compares
# m(m-1)/2 list pairs and the ranking up to M reports M(M+1)/2 list indices,
# so the work grows with the square of either flag.  The ceiling was set
# against a budget of 2 s and 100 MB for the slowest attack on 100 000
# letters (README's Limits).
MAX_KEYLEN = 100

# Fewest letters in a list of a split shared by several key lengths.  A
# shared split scans the text once for many lengths but makes 26 str.count
# calls on each of its lists, so on short lists the calls cost more than
# the scans they save.  Ranking seed 7's bench text (best of 3-15 calls,
# Python 3.11, a shared 2-CPU x86-64 host, two runs): a 64-letter floor
# made 20 000 letters 6-22 % slower at M = 100, while floors of 192 and
# 256 made 80 000 letters 10-43 % faster at M = 8, 20 and 100, and 256
# lost nowhere at 5 000-100 000 letters.
_MIN_LIST = 256


def list_counts(cipher: str, m: int) -> list[list[int]]:
    """Occurrences of each letter of A-Z, in alphabet order, in each of the
    m decimated lists of ``cipher``.  They add up to the text's length unless
    it holds a character outside A-Z, an error naming every such character."""
    # 26 scans in C per list beat one Counter
    counts = [list(map(part.count, LETTERS)) for part in decimate(cipher, m)]
    if sum(map(sum, counts)) != len(cipher):
        unknown = sorted(set(cipher) - set(LETTERS))
        raise CipherError(f"characters {unknown} are not in the alphabet")
    return counts


def _coincidences(counts: Sequence[int]) -> tuple[int, int]:
    """(sum f(f-1), N(N-1)) for letter counts summing to N: the numerator
    and denominator of the index of coincidence, for N >= 2."""
    n = sum(counts)
    return sum(map(mul, counts, counts)) - n, n * (n - 1)


def index_of_coincidence(text: str) -> Fraction:
    """Probability that two random positions of ``text`` hold the same
    character: sum f(f-1) / (N(N-1))."""
    if len(text) < 2:
        raise CipherError("index of coincidence needs a text of length >= 2")
    return Fraction(*_coincidences(list_counts(text, 1)[0]))


def decimate(text: str, m: int) -> list[str]:
    """Split ``text`` into m lists; list i takes positions i, i+m, i+2m, ...
    Each list must hold 2 characters, so the text needs 2m: checked first."""
    if not _is_int(m):
        raise CipherError(f"list count {m!r} is not an integer")
    if m < 1:
        raise CipherError("list count must be >= 1")
    if len(text) < 2 * m:
        raise CipherError(f"splitting into {m} lists leaves a list shorter than 2")
    return [text[i::m] for i in range(m)]


# ---------------------------------------------------------------------------
# Key length estimation
# ---------------------------------------------------------------------------

KeyLengthCandidate = namedtuple("KeyLengthCandidate", "m per_list_ioc score flagged related counts")
KeyLengthCandidate.__doc__ = """A ranked key length ``m``: the IoC of each of its
lists (``per_list_ioc``), the ``score`` mean |ioc - target| over them,
``flagged`` when every list has |ioc - target| <= IOC_WINDOW, the other
flagged lengths in divisor relation (``related``), and the letter counts of
each list, A to Z (``counts``)."""


def friedman_keylength(cipher: str, max_len: int) -> list[KeyLengthCandidate]:
    """Rank candidate key lengths 1..max_len by mean |IoC - 0.065|.

    Candidates are sorted by ascending score, ties by smaller length.  When
    several flagged lengths divide one another (a key length and its
    multiples explain the same text equally well), each carries the others
    in ``related`` rather than being dropped.
    """
    if not _is_int(max_len):
        raise CipherError(f"max_len {max_len!r} is not an integer")
    if max_len < 1:
        raise CipherError("max_len must be >= 1")
    if len(cipher) < 2 * max_len:
        raise CipherError(
            f"ciphertext of length {len(cipher)} is too short for key lengths up to {max_len}"
        )
    # list i of m is the sum of the lists j = i (mod m) of any multiple of
    # m.  Longest first, a length that divides no split yet joins one at a
    # common multiple whose lists keep _MIN_LIST letters, or starts its own;
    # then each length sums the smallest table counted so far that it divides
    splits: list[int] = []
    for m in range(max_len, 0, -1):
        if any(split % m == 0 for split in splits):
            continue
        for k, split in enumerate(splits):
            if (common := lcm(split, m)) * _MIN_LIST <= len(cipher):
                splits[k] = common
                break
        else:
            splits.append(m)
    counts = {split: list_counts(cipher, split) for split in splits}
    for m in range(max_len, 0, -1):
        lists = counts[min(k for k in counts if k % m == 0)]
        counts[m] = lists if len(lists) == m else [
            [sum(column) for column in zip(*lists[i::m])] for i in range(m)]
    # list i's IoC is s/p, and its deviation from the target a/b is
    # |s*b - a*p| / (b*p): each gap |s*b - a*p| is checked against the window
    # and summed in integers, per denominator p.  A length's lists have at
    # most two sizes, so its score is one fraction over at most two p.
    a, b = IOC_TARGET.numerator, IOC_TARGET.denominator
    u, v = IOC_WINDOW.numerator, IOC_WINDOW.denominator
    scored = []  # (m, per-list IoCs, score, flagged) for every m
    for m in range(1, max_len + 1):
        pairs = list(map(_coincidences, counts[m]))
        gaps: dict[int, int] = {}  # p -> sum of the gaps of the lists with p
        flag = True
        for s, p in pairs:
            gap = abs(s * b - a * p)
            flag = flag and gap * v <= u * b * p  # gap/(b*p) <= u/v
            gaps[p] = gaps.get(p, 0) + gap
        den = prod(gaps)
        score = Fraction(sum(g * (den // p) for p, g in gaps.items()), b * den * m)
        scored.append((m, tuple(starmap(Fraction, pairs)), score, flag))
    flagged = [m for m, _, _, flag in scored if flag]
    candidates = [
        KeyLengthCandidate(m, iocs, score, flag, tuple(
            other for other in flagged if other != m and (other % m == 0 or m % other == 0)
        ) if flag else (), tuple(map(tuple, counts[m])))
        for m, iocs, score, flag in scored
    ]
    return sorted(candidates, key=lambda c: (c.score, c.m))


# ---------------------------------------------------------------------------
# Key recovery
# ---------------------------------------------------------------------------

KeyCandidate = namedtuple("KeyCandidate", "key chi2")
KeyCandidate.__doc__ = """A recovered ``key`` and the chi-squared fit of its
decryption against English (``chi2``), an exact ``Fraction``."""

KeyRecovery = namedtuple("KeyRecovery", "differences residuals candidates")
KeyRecovery.__doc__ = """The shift ``differences`` (i, j, k_i - k_j mod n) of the
list pairs, the ``residuals``, the pairs inconsistent with the star solution,
and the key ``candidates``, ranked by chi-squared, best first."""


def friedman_recover_key(counts: Sequence[Sequence[int]]) -> KeyRecovery:
    """Recover Vigenere key candidates from the letter counts of a
    ciphertext's m decimated lists (``list_counts``, or a ranked length's
    ``counts``): sequences of 26 integers, none a bool or negative.

    A shift by s rotates a list's tally, so for each list pair i < j the
    shift with the largest overlap sum_h f_i[h] * f_j[h - s] gives one
    difference k_i - k_j.  A pair's 26 overlaps are 26 consecutive slots of
    one product: list i's counts times list j's reversed counts written out
    twice, each packed into an integer of slots wide enough for 26 * top**2
    at the largest count top.  The star of pairs (0, j)
    fixes the key up to k_0; every other pair is checked against it and,
    where it disagrees, reported in ``residuals``.  The 26 choices of k_0
    are ranked by the exact chi-squared fit of their decryptions against
    English, ties in anchor order; each decryption's tally is a rotation of
    the first, which sums each list's tally rotated back by its key residue.
    """
    if not isinstance(counts, Sequence):
        raise CipherError(f"letter counts {counts!r} are not a sequence of lists")
    n, m = len(LETTERS), len(counts)
    if not m:
        raise CipherError("key recovery needs at least one list")
    for j, c in enumerate(counts):
        if not isinstance(c, Sequence):
            raise CipherError(f"list {j} is {c!r}, not a sequence of letter counts")
        if len(c) != n:
            raise CipherError(f"list {j} has {len(c)} letter counts, expected {n}")
        for f in c:
            if not _is_int(f):
                raise CipherError(f"list {j} has a letter count {f!r} that is not an integer")
        if min(c) < 0:
            raise CipherError(f"list {j} has a negative letter count {min(c)}")
    if not any(map(any, counts)):  # no decryption to score
        raise CipherError("key recovery needs at least one letter")
    # an overlap sums n products of two counts, so it is at most n * top**2;
    # slots of that many bytes never carry into the next
    top = max(map(max, counts))
    width = ((n * top * top).bit_length() + 7) // 8

    def pack(row: Sequence[int]) -> int:
        return int.from_bytes(b"".join(f.to_bytes(width, "big") for f in row), "big")

    forward = list(map(pack, counts))
    backward = [pack(c[::-1] * 2) for c in counts]
    # the product's 3n - 1 slots, most significant first: n - 1 partial
    # sums, then the overlaps for s = 0..n-1; equal-width big-endian bytes
    # order as the integers they hold
    size, slots = (3 * n - 1) * width, Struct(f"{(n - 1) * width}x" + f"{width}s" * n)
    differences = []
    for i, j in combinations(range(m), 2):
        overlaps = slots.unpack_from((forward[i] * backward[j]).to_bytes(size, "big"))
        # index finds the first maximum, so ties go to the smaller shift
        differences.append((i, j, overlaps.index(max(overlaps))))
    # the first m - 1 pairs are the star (0, j); with k_0 = 0 they fix the key
    base = (0,) + tuple(-d % n for _, _, d in differences[: m - 1])
    residuals = tuple(
        (i, j, residual)
        for i, j, d in differences
        if (residual := (d - (base[i] - base[j])) % n)
    )
    # list j decrypts cipher letter h + k_j to plaintext letter h
    plain = list(map(sum, zip(*(c[k:] + c[:k] for c, k in zip(counts, base)))))
    # sum (c_h - e_h)**2 / e_h, e_h = N * F_h / 10**5 for N letters, is 10**5 / N
    # * sum c_h**2 / F_h - 2N + N * sum(F) / 10**5: integers over 10**5 * N * L
    length, squares = sum(plain), [c * c for c in plain]
    rest = length * length * _LCM * (sum(ENGLISH_FREQUENCIES.values()) - 2 * 10**5)
    # anchoring k_0 at a adds a to every k_j and rotates the decryption by a;
    # the numerators over the one denominator rank the anchors, ties in order
    ranked = sorted((10**10 * sum(map(mul, squares[a:] + squares[:a], _WEIGHTS)) + rest, a)
                    for a in range(n))
    candidates = tuple(KeyCandidate("".join(LETTERS[(k + a) % n] for k in base),
                                    Fraction(num, 10**5 * length * _LCM)) for num, a in ranked)
    return KeyRecovery(tuple(differences), residuals, candidates)
