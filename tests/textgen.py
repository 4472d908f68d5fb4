"""English-like text generation for cryptanalysis tests."""

import random

from brauer_kit.coincidence import ENGLISH_FREQUENCIES

LETTERS = sorted(ENGLISH_FREQUENCIES)
# percentages: f / 1000 is the float of the decimal (8.167 for 8167), so
# every text drawn from a seed stays the same
WEIGHTS = [ENGLISH_FREQUENCIES[ch] / 1000 for ch in LETTERS]

# Plain prose, letters only, for deterministic statistics tests.
SAMPLE_TEXT = (
    "THEQUICKBROWNFOXJUMPSOVERTHELAZYDOGWHILETHEOLDCLOCKONTHEMANTEL"
    "KEEPSSTEADYTIMEANDTHERIVERBELOWTHEBRIDGECARRIESSMALLBOATSTOWARD"
    "THEHARBOURWHEREFISHERMENMENDTHEIRNETSANDTALKABOUTTHEWEATHERTHE"
    "MARKETOPENSEARLYEVERYMORNINGWITHCARTSOFBREADANDFRUITANDTHESOUND"
    "OFVOICESFILLSTHENARROWSTREETSUNTILTHEEVENINGBELLSENDSEVERYONE"
    "HOMEAGAINTOSUPPERANDTOSLEEP"
)


def sample_english(rng: random.Random, length: int) -> str:
    """Independent draws from the English letter distribution."""
    return "".join(rng.choices(LETTERS, weights=WEIGHTS, k=length))


def sample_uniform(rng: random.Random, length: int) -> str:
    return "".join(rng.choices(LETTERS, k=length))


def sample_score(rng: random.Random, measures: int) -> str:
    """DSL text of a treble 4/4 score, one measure per line, each measure
    filled with random notes and rests of 16, 8 and 4 units."""
    lines = ["clef=treble time=4/4"]
    for _ in range(measures):
        left, bar = 64, []
        while left:
            duration = rng.choice([d for d in (16, 8, 4) if d <= left])
            bar.append(f"{rng.choice('abcdefgr')}{duration}")
            left -= duration
        lines.append("| " + " ".join(bar))
    return "\n".join(lines) + "\n"
