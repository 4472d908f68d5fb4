"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS line with its
measured numbers (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import random
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

from brauer_kit.brauer import (
    build_quiver,
    config_from_words,
    invariants,
    invariants_from_histogram,
    valency,
)
from brauer_kit.bridge import vigenere_to_config
from brauer_kit.cipher import (
    BlockPermutation,
    VigenereKey,
    split_blocks,
    transposition_encrypt,
    vigenere_decrypt,
    vigenere_encrypt,
)
from brauer_kit.coincidence import IOC_TARGET, friedman_keylength, friedman_recover_key
from brauer_kit.diagram import assign_points, classify_notes
from brauer_kit.score import parse_score, score_to_config

from textgen import sample_english

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "brauer_kit" / "fixtures"


def report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


# ---------------------------------------------------------------------------
# 1. Vigenere exactness
# ---------------------------------------------------------------------------

def test_criterion_1_vigenere_exactness():
    key = VigenereKey.from_text("MDPI")
    assert vigenere_encrypt("classicalcryptography", key) == "OOPAELRIXFGGBWDODDEPK"
    assert vigenere_decrypt("OOPAELRIXFGGBWDODDEPK", key) == "CLASSICALCRYPTOGRAPHY"
    vigenere_encrypt("classicalcryptography", key)  # warm
    best = min(
        _timed(lambda: vigenere_encrypt("classicalcryptography", key))
        for _ in range(5)
    )
    assert best < 0.001, f"single encryption took {best * 1e3:.3f} ms"
    report(1, f"exact ciphertext match, round-trip, {best * 1e6:.0f} us per encryption")


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# 2. Vigenere-induced configuration
# ---------------------------------------------------------------------------

def test_criterion_2_vigenere_split_invariants():
    inv = invariants(vigenere_to_config("OOPAELRIXFGGBWDODDEPK", 4))
    assert (inv.dim_lambda, inv.dim_center, inv.loops) == (35, 14, 9)
    report(2, "keylen-4 split gives dim 35, center 14, 9 loops")


# ---------------------------------------------------------------------------
# 3. Reduced staff example
# ---------------------------------------------------------------------------

def test_criterion_3_reduced_staff_example():
    config = score_to_config(parse_score((FIXTURES / "slym.bsc").read_text()))
    inv = invariants(config)
    assert (inv.dim_lambda, inv.dim_center, inv.loops) == (176, 20, 12)
    expected_valencies = {
        "b8": 7, "-b8": 2, "-c8": 4, "d8": 2, "e8": 7, "f8": 5, "-g8": 5,
        "a16": 2, "a32": 1, "b16": 4, "-c16": 1, "f16": 3,
    }
    actual = {v: valency(config, v) for v in config.vertex_universe}
    assert actual == expected_valencies
    report(3, "dim 176, center 20, 12 loops, all 12 published valencies")


# ---------------------------------------------------------------------------
# 4. Six-voice canon: invariants and point diagram
# ---------------------------------------------------------------------------

def test_criterion_4_six_voice_canon():
    score = parse_score((FIXTURES / "canon_a6.bsc").read_text())
    inv = invariants(score_to_config(score))
    assert (inv.dim_lambda, inv.dim_center, inv.loops) == (109, 22, 12)
    published = [
        ("e16", 1), ("d16", 0), ("c16", -1), ("b16", -2),
        ("d8", 0), ("e8", 1), ("f8", 2), ("g8", 3),
        ("g32", 3), ("f16", 2), ("e32", 1), ("f32", 2),
        ("a16", 4), ("g16", 3),
    ]
    diagram = assign_points(classify_notes(score), "bass")
    pitched = [(p.label, p.y) for p in diagram.points if p.y is not None]
    assert pitched == published
    report(4, "dim 109, center 22, 12 loops, all 14 point pairs")


# ---------------------------------------------------------------------------
# 5. Crab canon (histogram fixture; full score emitted with discrepancies)
# ---------------------------------------------------------------------------

def test_criterion_5_crab_canon():
    import json

    data = json.loads((FIXTURES / "canon_crab.hist.json").read_text())
    assert data["polygons"] == 13 and data["loops"] == 32
    assert data["valencyHistogram"] == {
        "1": 12, "2": 3, "3": 2, "4": 1, "5": 2, "9": 2, "11": 3,
    }
    inv = invariants_from_histogram(data["polygons"], data["valencyHistogram"], data["loops"])
    assert (inv.dim_lambda, inv.dim_center) == (582, 46)
    # the transcribed 18-word score is emitted too; its summary data differs
    # from the 13-polygon reference figures and is pinned by its golden file
    score = parse_score((FIXTURES / "canon_crab.bsc").read_text(), strict=False)
    full = invariants(score_to_config(score))
    golden = json.loads((FIXTURES / "canon_crab.invariants.json").read_text())
    assert full.to_json_dict() == {k: v for k, v in golden.items() if k != "schema"}
    assert len(score.measures) == 18 != data["polygons"]
    report(5, "histogram fixture gives dim 582, center 46; 18-word score emitted")


# ---------------------------------------------------------------------------
# 6. Quaerendo Invenietis (histogram fixture)
# ---------------------------------------------------------------------------

def test_criterion_6_quaerendo_invenietis():
    import json

    data = json.loads((FIXTURES / "canon_qi.hist.json").read_text())
    assert data["polygons"] == 28 and data["loops"] == 38
    inv = invariants_from_histogram(data["polygons"], data["valencyHistogram"], data["loops"])
    assert (inv.dim_lambda, inv.dim_center) == (1565, 67)
    report(6, "histogram fixture gives dim 1565, center 67")


# ---------------------------------------------------------------------------
# 7. Permutation invariance, 1000 random cases
# ---------------------------------------------------------------------------

def test_criterion_7_permutation_property_suite():
    rng = random.Random(1079)
    start = time.perf_counter()
    for _ in range(1000):
        sizes = [rng.randint(2, 6) for _ in range(rng.randint(1, 4))]
        plain = "".join(rng.choice("ABCDEFGHIJ") for _ in range(sum(sizes)))
        perms = []
        for size in sizes:
            order = list(range(1, size + 1))
            rng.shuffle(order)
            perms.append(BlockPermutation(tuple(order)))
        cipher = transposition_encrypt(plain, perms)
        assert invariants(config_from_words(split_blocks(plain, sizes))) == invariants(
            config_from_words(split_blocks(cipher, sizes))
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f} s"
    report(7, f"1000/1000 plaintext-ciphertext invariant matches in {elapsed:.2f} s")


# ---------------------------------------------------------------------------
# 8. Dimension identity suites
# ---------------------------------------------------------------------------

def _text_with_min_count(rng, distinct, min_count, max_count=6):
    letters = rng.sample("ABCDEFGHIJKLMNOPQRSTUVWXYZ", distinct)
    chars = []
    for ch in letters:
        chars.extend(ch * rng.randint(min_count, max_count))
    rng.shuffle(chars)
    return "".join(chars)


def test_criterion_8_dimension_identity_suites():
    rng = random.Random(8128)

    # v1: dim = 2m + N(N-1)*IoC when no character is a singleton
    for _ in range(500):
        text = _text_with_min_count(rng, rng.randint(3, 8), 2)
        m = rng.randint(1, len(text) // 2)
        if any(len(text[i::m]) < 2 for i in range(m)):
            continue
        counts = Counter(text)
        assert min(counts.values()) >= 2
        assert invariants(vigenere_to_config(text, m)).dim_lambda == (
            2 * m + sum(f * (f - 1) for f in counts.values())
        )

    # v2: dim Z = 1 + m + sum(f_ij - 1) when every character occurs at
    # least twice and in at least two lists
    checked = 0
    while checked < 500:
        text = _text_with_min_count(rng, rng.randint(3, 6), 3)
        m = rng.randint(2, 4)
        lists = [text[i::m] for i in range(m)]
        spread = Counter()
        for part in lists:
            spread.update(set(part))
        if any(len(part) < 2 for part in lists) or any(v < 2 for v in spread.values()):
            continue
        assert min(Counter(text).values()) >= 2
        assert invariants(vigenere_to_config(text, m)).dim_center == (
            1 + m + sum(f - 1 for part in lists for f in Counter(part).values())
        )
        checked += 1

    # v3: dim Z = m + n + 1 on connected configurations whose polygons hold
    # each vertex once, n counting the valency-1 vertices
    for _ in range(500):
        words = []
        for i in range(rng.randint(1, 5)):
            word = rng.sample("abcdefghij", rng.randint(2, 6))
            if i > 0:
                word[0] = words[-1][-1]
                word = list(dict.fromkeys(word))
                if len(word) < 2:
                    word.append(next(c for c in "abcdefghij" if c not in word))
            words.append(word)
        assert all(len(set(word)) == len(word) for word in words)
        inv = invariants(config_from_words(words))
        assert inv.connected
        n = sum(1 for f in Counter(v for word in words for v in word).values() if f == 1)
        assert inv.dim_center == len(words) + n + 1

    # the dim gap: without the v1 precondition each singleton adds 1
    for _ in range(500):
        length = rng.randint(4, 80)
        text = "".join(rng.choice("ABCDEFGHIJKL") for _ in range(length))
        m = rng.randint(1, length // 2)
        if any(len(text[i::m]) < 2 for i in range(m)):
            continue
        counts = Counter(text)
        singletons = sum(1 for f in counts.values() if f == 1)
        gap = invariants(vigenere_to_config(text, m)).dim_lambda - (
            2 * m + sum(f * (f - 1) for f in counts.values())
        )
        assert gap == singletons

    report(8, "v1/v2/v3 identities and the dim-gap property, 500 cases each")


# ---------------------------------------------------------------------------
# 9. Friedman attack at desk scale
# ---------------------------------------------------------------------------

def test_criterion_9_friedman_attack():
    rng = random.Random(1076)
    start = time.perf_counter()
    rank_first = key_top3 = 0
    lists_total = lists_in_window = 0
    window = Fraction(15, 1000)
    for _ in range(100):
        m_true = rng.randint(3, 8)
        key = VigenereKey(tuple(rng.randrange(26) for _ in range(m_true)))
        cipher = vigenere_encrypt(sample_english(rng, 800), key)
        candidates = friedman_keylength(cipher, 8)
        top = candidates[0].m
        if top == m_true:
            rank_first += 1
        true_candidate = next(c for c in candidates if c.m == m_true)
        for ioc in true_candidate.per_list_ioc:
            lists_total += 1
            if abs(ioc - IOC_TARGET) <= window:
                lists_in_window += 1
        recovery = friedman_recover_key(cipher, top)
        if top == m_true and key.to_text() in [c.key for c in recovery.candidates[:3]]:
            key_top3 += 1
    elapsed = time.perf_counter() - start
    in_window_rate = lists_in_window / lists_total
    assert rank_first >= 90, f"true length ranked first only {rank_first}/100"
    assert in_window_rate >= 0.95, f"only {in_window_rate:.3f} of lists near 0.065"
    assert key_top3 >= 80, f"key in top 3 only {key_top3}/100"
    assert elapsed < 30.0, f"took {elapsed:.1f} s"
    report(
        9,
        f"length first {rank_first}/100, lists in window {in_window_rate:.1%}, "
        f"key in top-3 {key_top3}/100, {elapsed:.1f} s",
    )


# ---------------------------------------------------------------------------
# 10. Loop oracle equivalence
# ---------------------------------------------------------------------------

def _loop_closed_form(config):
    per_vertex = {}
    for poly in config.polygons:
        for v, f in Counter(poly.word).items():
            per_vertex.setdefault(v, []).append(f)
    total = 0
    for counts in per_vertex.values():
        if len(counts) == 1:
            total += max(counts[0], 1)
        else:
            total += sum(f - 1 for f in counts)
    return total


def test_criterion_10_loop_oracle_equivalence():
    rng = random.Random(582)
    for _ in range(1000):
        words = [
            [rng.choice("abcdefgh") for _ in range(rng.randint(2, 7))]
            for _ in range(rng.randint(1, 6))
        ]
        config = config_from_words(words)
        assert build_quiver(config).loop_count == _loop_closed_form(config)
    report(10, "1000/1000 cyclic-successor loop counts match the closed form")
