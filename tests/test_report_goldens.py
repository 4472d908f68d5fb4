"""The ``attack`` and ``analyze --ciphertext`` reports against committed
goldens, and the path that computes them.

Each golden is the exact stdout of one command.  The inputs are README's
reference ciphertext, ``ABAB`` (a split whose lists share no letter), and
the benchmark's generated ciphertexts for seeds 7 and 508 at 5 000 letters
and for seed 7 at 80 000 letters, where the ranking shares its splits.
Regenerate a golden only for a deliberate change of the report, and say so
in CHANGES.md.
"""

import sys
from pathlib import Path

import pytest

from brauer_kit import brauer, cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import gen  # noqa: E402

GOLDENS = Path(__file__).resolve().parent / "goldens"
REFERENCE = "OOPAELRIXFGGBWDODDEPK"

ATTACK_INPUTS = ("reference", "seed7", "seed508")
LETTERS = {"": 5_000, "80k": 80_000}  # by the suffix of a generated input
ATTACK_FLAGS = {
    "default": [],
    "max20top26": ["--max-keylen", "20", "--top", "26"],
    "keylen9": ["--max-keylen", "5", "--keylen", "9"],
    "keylen30": ["--max-keylen", "30", "--keylen", "30", "--top", "26"],
    "max4": ["--max-keylen", "4"],
}
# 21 letters are too short to rank key lengths up to 20: that run exits 2
# with an empty stdout, so it has no golden.  Recovery at m = 30 (435 list
# pairs, 245 of them off the star) has one golden, on seed 7.  Only
# ranking up to 20 is run on 80 000 letters.  Ranking up to 4 on the
# reference is also what test_cli.py reads from stdin behind a byte-order mark.
ATTACK_SOURCES = {
    "max20top26": ("seed7", "seed508", "seed7_80k"), "keylen30": ("seed7",), "max4": ("reference",),
}
ATTACK_CASES = [
    (source, flags)
    for flags in ATTACK_FLAGS
    for source in ATTACK_SOURCES.get(flags, ATTACK_INPUTS)
]
ANALYZE_CASES = {
    "reference_m4": (REFERENCE, 4),
    "abab_m2": ("ABAB", 2),
}


def attack_argv(source: str, flags: str, tmp: Path) -> list[str]:
    if source == "reference":
        where = ["--ciphertext", REFERENCE]
    else:
        seed, _, size = source.removeprefix("seed").partition("_")
        path = tmp / f"{source}.txt"
        path.write_text(gen.attack_input(int(seed), LETTERS[size])["text"])
        where = ["--in", str(path)]
    return ["attack", *where, *ATTACK_FLAGS[flags]]


def analyze_argv(case: str) -> list[str]:
    text, m = ANALYZE_CASES[case]
    return ["analyze", "--ciphertext", text, "--keylen", str(m)]


def stdout_of(capsys, argv: list[str]) -> str:
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out


@pytest.mark.parametrize("source, flags", ATTACK_CASES, ids=[f"{s}-{f}" for s, f in ATTACK_CASES])
def test_attack_report_matches_golden(capsys, tmp_path, source, flags):
    out = stdout_of(capsys, attack_argv(source, flags, tmp_path))
    assert out == (GOLDENS / f"attack_{source}_{flags}.json").read_text()


@pytest.mark.parametrize("case", sorted(ANALYZE_CASES))
def test_analyze_ciphertext_report_matches_golden(capsys, case):
    out = stdout_of(capsys, analyze_argv(case))
    assert out == (GOLDENS / f"analyze_ciphertext_{case}.json").read_text()


def test_abab_golden_is_a_disconnected_split():
    assert '"connected": false' in (GOLDENS / "analyze_ciphertext_abab_m2.json").read_text()


# The Vigenere configuration is its tally table: the reports read dim
# Lambda, dim Z and the loops from the lists' letter counts, so no command
# on a ciphertext builds a configuration or counts one.
CIPHERTEXT_COMMANDS = {
    "attack": ["attack", "--ciphertext", REFERENCE],
    "attack-keylen": ["attack", "--ciphertext", REFERENCE, "--keylen", "9"],
    "analyze": analyze_argv("reference_m4"),
    "analyze-disconnected": analyze_argv("abab_m2"),
}


@pytest.mark.parametrize("name", sorted(CIPHERTEXT_COMMANDS))
def test_ciphertext_commands_build_no_configuration(capsys, monkeypatch, name):
    built, counted = [], []
    new = brauer.BrauerConfiguration.__new__
    count = brauer.invariants

    def spy_new(cls, polygons):
        built.append(polygons)
        return new(cls, polygons)

    def spy_invariants(config):
        counted.append(config)
        return count(config)

    monkeypatch.setattr(brauer.BrauerConfiguration, "__new__", spy_new)
    for module in (brauer, cli):
        if getattr(module, "invariants", None) is count:
            monkeypatch.setattr(module, "invariants", spy_invariants)
    stdout_of(capsys, CIPHERTEXT_COMMANDS[name])
    assert (built, counted) == ([], [])
