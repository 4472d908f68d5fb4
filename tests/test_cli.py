import contextlib
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from brauer_kit import cipher, cli, coincidence, diagram
from brauer_kit.cli import main
from brauer_kit.score import MAX_EVENTS

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import gen  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"
FIXTURES = SRC / "brauer_kit" / "fixtures"
GOLDENS = Path(__file__).resolve().parent / "goldens"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_ciphertext(capsys):
    code, out, err = run(
        capsys, "analyze", "--ciphertext", "OOPAELRIXFGGBWDODDEPK", "--keylen", "4"
    )
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "1"
    assert (data["dimLambda"], data["dimCenter"], data["loops"]) == (35, 14, 9)
    assert list(data) == [
        "schema", "dimLambda", "dimCenter", "loops", "polygons", "vertices",
        "valencyHistogram",
    ]
    assert data["valencyHistogram"] == {"1": 9, "2": 3, "3": 2}


def test_analyze_is_deterministic(capsys):
    _, first, _ = run(capsys, "analyze", "--ciphertext", "OOPAELRIXFGGBWDODDEPK", "--keylen", "4")
    _, second, _ = run(capsys, "analyze", "--ciphertext", "OOPAELRIXFGGBWDODDEPK", "--keylen", "4")
    assert first == second


def test_analyze_score_fixture(capsys):
    code, out, _ = run(capsys, "analyze", "--score", str(FIXTURES / "canon_a6.bsc"))
    assert code == 0
    data = json.loads(out)
    assert (data["dimLambda"], data["dimCenter"], data["loops"]) == (109, 22, 12)


def test_analyze_config_file(capsys, tmp_path):
    path = tmp_path / "vig.cfg"
    path.write_text("O E X B D K\nO L F W D\nP R G D E\nA I G O P\n")
    code, out, _ = run(capsys, "analyze", "--config", str(path))
    assert code == 0
    assert json.loads(out)["dimLambda"] == 35


def test_analyze_requires_exactly_one_source(capsys):
    code, _, err = run(
        capsys, "analyze", "--ciphertext", "AB", "--keylen", "1",
        "--score", str(FIXTURES / "slym.bsc"),
    )
    assert code == 2
    assert "error[E_CONFIG]" in err


def test_analyze_ciphertext_needs_keylen(capsys):
    code, _, err = run(capsys, "analyze", "--ciphertext", "ABCD")
    assert code == 2
    assert "error[E_CONFIG]" in err


def test_analyze_rejects_keylen_below_one(capsys):
    for keylen in ("0", "-3"):
        code, out, err = run(
            capsys, "analyze", "--ciphertext", "OOPAELRIXFGGBWDODDEPK", "--keylen", keylen
        )
        assert code == 2
        assert out == ""
        assert "error[E_CIPHER]: --keylen must be >= 1" in err


def test_analyze_ciphertext_strip(capsys):
    _, expected, _ = run(capsys, "analyze", "--ciphertext", "OOPAELRIXFGGBWDODDEPK", "--keylen", "4")
    dirty = ("analyze", "--ciphertext", "oopa elri-xfgg/bwdo.ddepk", "--keylen", "4")
    code, out, err = run(capsys, *dirty)
    assert (code, out) == (2, "")
    assert "error[E_CIPHER]: character '-' at offset 9" in err
    assert run(capsys, *dirty, "--strip") == (0, expected, "")


def test_analyze_score_lax_warns_on_stderr_only(capsys):
    code, out, err = run(capsys, "analyze", "--score", str(FIXTURES / "canon_crab.bsc"), "--lax")
    assert code == 0
    assert out == (FIXTURES / "canon_crab.invariants.json").read_text()
    assert err.startswith("brauer-kit: warning: measure 18")
    assert all(line.startswith("brauer-kit: warning: ") for line in err.splitlines())


def test_analyze_bad_ciphertext_character(capsys):
    code, _, err = run(capsys, "analyze", "--ciphertext", "AB3D", "--keylen", "2")
    assert code == 2
    assert "error[E_CIPHER]" in err


def test_analyze_rejects_flags_its_source_does_not_read(capsys, tmp_path):
    cfg = tmp_path / "k.cfg"
    cfg.write_text("a b\nb c\n")
    out_path = tmp_path / "x.json"
    for argv in (
        ["--config", str(cfg), "--keylen", "0"],
        ["--config", str(cfg), "--strip"],
        ["--score", str(FIXTURES / "slym.bsc"), "--keylen", "2"],
        ["--config", str(cfg), "--lax"],
        ["--ciphertext", "OOPAELRIXFGGBWDODDEPK", "--keylen", "4", "--lax"],
        ["--verify", "--config", "nope.cfg", "--out", str(out_path)],
        ["--verify", "--keylen", "0"],
        ["--verify", "--strip"],
        ["--verify", "--lax"],
    ):
        code, out, err = run(capsys, "analyze", *argv)
        assert (code, out) == (2, ""), argv
        assert "error[E_CONFIG]" in err, argv
    assert not out_path.exists()


def test_analyze_verify_passes(capsys, monkeypatch):
    monkeypatch.setenv("BRAUER_KIT_COLOR", "never")
    code, out, _ = run(capsys, "analyze", "--verify")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8
    assert all(line.startswith("PASS") for line in lines)


def test_analyze_verify_reports_each_failing_check_and_runs_the_rest(capsys, monkeypatch):
    # one check raises and one computes a wrong value; the other six still run
    def broken(rows):
        raise ValueError("tally table lost")

    monkeypatch.setenv("BRAUER_KIT_COLOR", "never")
    monkeypatch.setattr(cli, "invariants_from_tallies", broken)
    monkeypatch.setattr(cipher, "vigenere_encrypt", lambda text, key: "WRONG")
    code, out, err = run(capsys, "analyze", "--verify")
    lines = out.strip().splitlines()
    assert code == 2 and "E_INTERNAL" not in out + err
    assert lines[:2] == [
        f"FAIL vigenere-encrypt: got 'WRONG', want {cli._REFERENCE_CIPHERTEXT!r}",
        "FAIL vigenere-split-invariants: tally table lost",
    ]
    assert len(lines) == 8
    assert all(line.startswith("PASS ") for line in lines[2:])


def test_analyze_verify_names_the_fields_a_golden_mismatch_differs_in(capsys, monkeypatch, tmp_path):
    # a score golden and a histogram golden each with one number changed; a
    # FAIL line names the changed fields, not the two whole documents
    fixtures = tmp_path / "fixtures"
    shutil.copytree(Path(cli.__file__).parent / "fixtures", fixtures)
    for name, old, new in [
        ("slym.invariants.json", '"dimCenter": 20,', '"dimCenter": 21,'),
        ("canon_crab.hist.json", '"dimLambda": 582,', '"dimLambda": 583,'),
    ]:
        text = (fixtures / name).read_text(encoding="utf-8")
        (fixtures / name).write_text(text.replace(old, new, 1), encoding="utf-8")
    monkeypatch.setenv("BRAUER_KIT_COLOR", "never")
    monkeypatch.setattr(cli, "__file__", str(tmp_path / "cli.py"))
    code, out, err = run(capsys, "analyze", "--verify")
    lines = out.strip().splitlines()
    assert (code, err, len(lines)) == (2, "", 8)
    assert [line for line in lines if not line.startswith("PASS ")] == [
        "FAIL score-slym: dimCenter: got 20, want 21",
        "FAIL histogram-canon_crab: dimLambda: got 582, want 583",
    ]


def test_start_up_loads_no_typing_resources_pathlib_dataclasses_or_inspect():
    # annotation types come from collections.abc, --verify finds its
    # fixtures with os.path and the records are named tuples; -S keeps the
    # host's site hooks out of the child
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, brauer_kit.cli; print(sorted({'typing', "
         "'importlib.resources', 'pathlib', 'dataclasses', 'inspect'}.intersection(sys.modules)))"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


# A child that runs one command through cli.main and then prints, as its last
# line, the package modules, the fraction modules and the option-parser
# modules it loaded, also when a usage error exits from inside main.
LOADED_BY = (
    "import sys\n"
    "from brauer_kit import cli\n"
    "try:\n"
    "    code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
    "finally:\n"
    "    print(sorted(n.removeprefix('brauer_kit.') for n in sys.modules if n.startswith('brauer_kit.')\n"
    "                 or n in ('fractions', 'decimal', 'argparse', 'gettext')))\n"
    "sys.exit(code)\n"
)
BASE = ["brauer", "cli"]
FRACTIONS = ["decimal", "fractions"]  # fractions imports decimal


@pytest.mark.parametrize("argv, stdin, loaded", [
    ([], "", BASE),
    (["analyze", "--config", "/dev/stdin", "--out", "x.json"], "a b\nb c\n", BASE),
    (["encrypt", "--system", "vigenere", "--key", "MDPI"], "classical", [*BASE, "cipher"]),
    (["decrypt", "--system", "transposition", "--key", "2 1"], "OOPA", [*BASE, "cipher"]),
    (["attack", "--ciphertext", "OOPAELRIXFGGBWDODDEPK", "--max-keylen", "4", "--out", "x.json"],
     "", [*BASE, "bridge", "cipher", "coincidence", *FRACTIONS]),
    (["analyze", "--score", str(FIXTURES / "slym.bsc"), "--out", "x.json"], "",
     [*BASE, "score"]),
    (["score-check", str(FIXTURES / "slym.bsc")], "", [*BASE, "score"]),
    (["graph", str(FIXTURES / "slym.bsc"), "--svg", "x.svg", "--json", "x.json"], "",
     [*BASE, "diagram", "score"]),
    (["analyze", "--ciphertext", "OOPAELRIXFGGBWDODDEPK", "--keylen", "4", "--out", "x.json"],
     "", [*BASE, "cipher", "coincidence", *FRACTIONS]),
], ids=["import", "analyze-config", "encrypt", "decrypt", "attack", "analyze-score",
        "score-check", "graph", "analyze-ciphertext"])
def test_a_command_loads_only_the_modules_it_runs(tmp_path, argv, stdin, loaded):
    proc = subprocess.run(
        [sys.executable, "-S", "-c", LOADED_BY, *argv], input=stdin, capture_output=True,
        text=True, timeout=60, cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-1] == repr(sorted(loaded))


def test_a_usage_error_loads_argparse_to_word_it():
    # a valid command line is read from the option table; argparse, and the
    # gettext it imports, load only for the help and the usage errors, and
    # the full parser builds the rows of the one command it runs, so graph's
    # choices load score and diagram only for graph
    proc = subprocess.run(
        [sys.executable, "-S", "-c", LOADED_BY, "attack", "--max-keylen", "x"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC), "COLUMNS": "80"},
    )
    loaded = sorted([*BASE, "argparse", "gettext"])
    assert (proc.returncode, proc.stdout) == (2, repr(loaded) + "\n")
    assert proc.stderr == (
        "usage: brauer-kit attack [-h] [--ciphertext CIPHERTEXT] [--in INFILE]\n"
        "                         [--max-keylen MAX_KEYLEN] [--keylen KEYLEN]\n"
        "                         [--top TOP] [--strip] [--out OUT]\n"
        "brauer-kit attack: error: argument --max-keylen: invalid int value: 'x'\n"
    )


def test_encrypt_vigenere(capsys, tmp_path):
    src = tmp_path / "plain.txt"
    src.write_text("classicalcryptography")
    code, out, _ = run(
        capsys, "encrypt", "--system", "vigenere", "--key", "MDPI", "--in", str(src)
    )
    assert code == 0
    assert out.strip() == "OOPAELRIXFGGBWDODDEPK"


def test_encrypt_strip_drops_foreign_characters(capsys, monkeypatch):
    argv = ("encrypt", "--system", "vigenere", "--key", "MDPI")
    monkeypatch.setattr(sys, "stdin", io.StringIO("Classical cryptography, 2nd ed.!"))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "error[E_CIPHER]: character ',' at offset 22" in err
    monkeypatch.setattr(sys, "stdin", io.StringIO("Classical cryptography, 2nd ed.!"))
    code, out, _ = run(capsys, *argv, "--strip")
    assert (code, out) == (0, "OOPAELRIXFGGBWDODDEPKQSMP\n")


def test_non_ascii_letters_are_foreign(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("straße"))
    code, out, err = run(capsys, "encrypt", "--system", "vigenere", "--key", "MDPI")
    assert (code, out) == (2, "")
    assert err == "brauer-kit: error[E_CIPHER]: character 'ß' at offset 4 is not in the alphabet\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO("ABC"))
    code, out, err = run(capsys, "encrypt", "--system", "vigenere", "--key", "\ufb00")
    assert (code, out) == (2, "")
    assert "character 'ﬀ' at offset 0" in err


def test_decrypt_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("OOPAELRIXFGGBWDODDEPK"))
    code, out, _ = run(capsys, "decrypt", "--system", "vigenere", "--key", "MDPI")
    assert code == 0
    assert out.strip() == "CLASSICALCRYPTOGRAPHY"


# (key, plain, cipher): three blocks of 4, and the route down, up and down
# the columns of the 4x3 grid CRA/RGP/YOH/PTY as a one-block key
TRANSPOSITIONS = [
    pytest.param("3 4 1 2", "CRYPTOGRAPHY", "YPCRGRTOHYAP", id="blocks"),
    pytest.param("1 4 7 10 11 8 5 2 3 6 9 12", "CRARGPYOHPTY", "CRYPTOGRAPHY", id="route-4x3"),
]


@pytest.mark.parametrize("key, plain, cipher", TRANSPOSITIONS)
def test_encrypt_transposition(capsys, monkeypatch, key, plain, cipher):
    monkeypatch.setattr(sys, "stdin", io.StringIO(plain))
    code, out, _ = run(capsys, "encrypt", "--system", "transposition", "--key", key)
    assert code == 0
    assert out.strip() == cipher


@pytest.mark.parametrize("key, plain, cipher", TRANSPOSITIONS)
def test_transposition_round_trip_via_cli(capsys, monkeypatch, key, plain, cipher):
    monkeypatch.setattr(sys, "stdin", io.StringIO(cipher))
    code, out, _ = run(capsys, "decrypt", "--system", "transposition", "--key", key)
    assert code == 0
    assert out.strip() == plain


def test_transposition_partition_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("CRYPTO"))
    code, _, err = run(capsys, "encrypt", "--system", "transposition", "--key", "3 4 1 2")
    assert code == 2
    assert "error[E_CIPHER]" in err


# Keys of up to 4 KB in the characters a key of either system is written
# in, and the characters that only look like them: a sign, an underscore and
# another script's digit.
CRYPT_KEYS = st.one_of(
    st.text("0123456789, ABCXYZabcxyz-_\u0661", max_size=4096),
    st.integers(0, 12).flatmap(lambda n: st.permutations(range(1, n + 1))).map(
        lambda perm: " ".join(map(str, perm))
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["encrypt", "decrypt"]),
    st.sampled_from(["vigenere", "transposition"]),
    CRYPT_KEYS,
    st.booleans(),
    st.one_of(st.text("ABCDEFGHIJKL", max_size=24), st.text(max_size=24)),
)
@example("decrypt", "transposition", "1 " + "0" * 4094, False, "AB")
@example("encrypt", "transposition", "", False, "")
@example("encrypt", "transposition", "1", True, "A")
@example("encrypt", "transposition", "-1 2", False, "AB")
@example("decrypt", "vigenere", "--", True, "J")  # argparse reads --key=-- as []
def test_crypt_commands_never_exit_internal(command, system, key, strip, text):
    argv = [command, "--system", system, f"--key={key}"] + ["--strip"] * strip
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            mock.patch.object(sys, "stdin", io.StringIO(text)):
        try:
            code = main(argv)
        except SystemExit as exc:  # a usage error
            code = exc.code
    assert code in (0, 2), (argv, err.getvalue())
    assert "E_INTERNAL" not in err.getvalue()


def test_attack_report_schema(capsys, tmp_path):
    import random
    sys.path.insert(0, str(Path(__file__).parent))
    from textgen import sample_english
    from brauer_kit.cipher import vigenere_encrypt

    rng = random.Random(123)
    cipher = vigenere_encrypt(sample_english(rng, 600), "LEO")
    out_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "attack", "--ciphertext", cipher, "--max-keylen", "6",
        "--out", str(out_path),
    )
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["schema"] == "1"
    assert report["keylengthCandidates"][0]["m"] == 3
    assert len(report["keylengthCandidates"][0]["perListIoC"]) == 3
    assert report["keyCandidates"][0]["key"] == "LEO"
    assert set(report["brauer"]) == {"dimLambda", "dimCenter", "loops"}


def test_attack_strip_drops_foreign_characters(capsys):
    clean = ("attack", "--ciphertext", "OOPAELRIXFGGBWDODDEPK", "--max-keylen", "4")
    dirty = ("attack", "--ciphertext", "OOPA-ELRI XFGG, BWDO DDEPK!", "--max-keylen", "4")
    code, out, err = run(capsys, *dirty)
    assert (code, out) == (2, "")
    assert "error[E_CIPHER]: character '-' at offset 4" in err
    _, expected, _ = run(capsys, *clean)
    assert run(capsys, *dirty, "--strip") == (0, expected, "")


def test_attack_takes_one_source(capsys, tmp_path):
    # the pair is refused before either is read, so a missing file is no E_IO
    (tmp_path / "c.txt").write_text("OOPAELRIXFGGBWDODDEPK")
    for path in (tmp_path / "c.txt", tmp_path / "missing.txt"):
        code, out, err = run(
            capsys, "attack", "--ciphertext", "OOPAELRIXFGGBWDODDEPK", "--in", str(path),
        )
        assert (code, out) == (2, "")
        assert err == "brauer-kit: error[E_CIPHER]: attack reads --ciphertext or --in, not both\n"


def test_attack_rejects_short_input(capsys):
    code, _, err = run(capsys, "attack", "--ciphertext", "ABCD", "--max-keylen", "8")
    assert code == 2
    assert "error[E_CIPHER]" in err


def test_attack_rejects_keylen_below_one(capsys):
    code, out, err = run(
        capsys, "attack", "--ciphertext", "OOPAELRIXFGGBWDODDEPK", "--max-keylen", "4",
        "--keylen", "0",
    )
    assert code == 2
    assert out == ""
    assert "error[E_CIPHER]" in err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_attack_rejects_max_keylen_below_one(capsys, value):
    # the flag is named, and it is checked before the text is read
    code, out, err = run(capsys, "attack", "--in", "no-such-file.txt", "--max-keylen", value)
    assert (code, out) == (2, "")
    assert err == "brauer-kit: error[E_CIPHER]: --max-keylen must be >= 1\n"


def test_huge_keylen_fails_fast_with_a_short_message(capsys):
    # the text is checked against 2 * keylen before any list is built
    for argv in (
        ["analyze", "--ciphertext", "ABCD", "--keylen", str(10**12)],
        ["attack", "--ciphertext", "OOPAELRIXFGGBWDODDEPK", "--keylen", str(10**12)],
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        elapsed = time.perf_counter() - start
        assert (code, out) == (2, ""), argv
        assert "error[E_CIPHER]" in err and len(err) < 1000, argv
        assert elapsed < 0.1, (argv, elapsed)


@pytest.mark.parametrize("flag", ["--keylen", "--max-keylen"])
def test_attack_keylen_ceiling(capsys, flag):
    # the ceiling is checked before the text is read, so a missing file is
    # not reached
    code, out, err = run(capsys, "attack", "--in", "no-such-file.txt", flag, "101")
    assert (code, out) == (2, "")
    assert err == f"brauer-kit: error[E_CIPHER]: {flag} must be <= 100\n"
    text = "OOPAELRIXFGGBWDODDEPK" * 10
    code, out, _ = run(capsys, "attack", "--ciphertext", text, "--max-keylen", "100",
                       "--keylen", "100")
    assert code == 0 and json.loads(out)["recoveredKeylen"] == 100


def test_huge_keylen_on_a_long_text_ends_at_once(tmp_path):
    # a 100 000-letter text admits 50 000 lists by length alone
    text = tmp_path / "c.txt"
    text.write_text(("OOPAELRIXFGGBWDODDEPK" * 5000)[:100_000])
    proc = subprocess.run(
        [sys.executable, "-m", "brauer_kit.cli", "attack", "--in", str(text),
         "--keylen", "50000"],
        capture_output=True, timeout=2, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == b"brauer-kit: error[E_CIPHER]: --keylen must be <= 100\n"


def test_attack_counts_only_the_lists(capsys, monkeypatch):
    # the report's ioc and the recovery reuse the ranking's list counts: the
    # whole text is never split into one list, nor its index taken apart
    text = "OOPAELRIXFGGBWDODDEPK" * 20
    calls = []

    def spy(original):
        def counted(arg, *m):
            calls.append((original.__name__, arg == text, m))
            return original(arg, *m)
        return counted

    for name in ("decimate", "index_of_coincidence"):
        monkeypatch.setattr(coincidence, name, spy(getattr(coincidence, name)))
    for flags in ([], ["--keylen", "7"], ["--keylen", "12"]):
        code, _, _ = run(capsys, "attack", "--ciphertext", text, "--max-keylen", "10", *flags)
        assert code == 0
    assert ("decimate", True, (12,)) in calls
    assert not [call for call in calls if call[1:] in ((True, ()), (True, (1,)))]


def test_attack_folds_its_text_once(capsys, monkeypatch):
    calls = []
    normalize = cipher.Alphabet.normalize

    def counted(self, text, strip=False):
        calls.append(text)
        return normalize(self, text, strip)

    monkeypatch.setattr(cipher.Alphabet, "normalize", counted)
    code, _, _ = run(capsys, "attack", "--ciphertext", "OOPAELRIXFGGBWDODDEPK", "--max-keylen", "4")
    assert code == 0
    assert calls == ["OOPAELRIXFGGBWDODDEPK"]


def test_attack_rejects_top_below_one(capsys):
    code, out, err = run(
        capsys, "attack", "--ciphertext", "OOPAELRIXFGGBWDODDEPK", "--max-keylen", "4",
        "--top", "-1",
    )
    assert code == 2
    assert out == ""
    assert "error[E_CIPHER]" in err


def test_score_check_strict_failure(capsys):
    code, _, err = run(capsys, "score-check", str(FIXTURES / "canon_crab.bsc"))
    assert code == 2
    assert "error[E_SCORE_PARSE]" in err
    assert "measure 18" in err


def test_score_check_dotted_sixty_fourth_has_a_position(capsys, tmp_path):
    path = tmp_path / "d.bsc"
    path.write_text("time=4/4\n| c16 c16 c16 c8 a1. c4\n")
    code, out, err = run(capsys, "score-check", str(path))
    assert (code, out) == (2, "")
    assert err == (
        "brauer-kit: error[E_SCORE_PARSE]: line 2, column 18: "
        "a sixty-fourth value cannot be dotted\n"
    )


def test_score_check_lax(capsys):
    code, out, _ = run(capsys, "score-check", str(FIXTURES / "canon_crab.bsc"), "--lax")
    assert code == 0
    assert "warning: measure 18" in out
    assert "OK: 18 measures" in out


def test_score_check_clean_fixture(capsys):
    code, out, _ = run(capsys, "score-check", str(FIXTURES / "canon_a6.bsc"))
    assert code == 0
    assert "OK: 9 measures" in out
    assert "time 4/4" in out


def test_graph_outputs(capsys, tmp_path):
    svg_path = tmp_path / "a6.svg"
    json_path = tmp_path / "a6.json"
    code, out, _ = run(
        capsys, "graph", str(FIXTURES / "canon_a6.bsc"),
        "--svg", str(svg_path), "--json", str(json_path),
    )
    assert code == 0
    assert out == ""
    data = json.loads(json_path.read_text())
    assert len(data["points"]) == 16
    svg = svg_path.read_text()
    assert svg.startswith("<?xml") and "<polyline" in svg


def test_graph_stdout_and_orientation(capsys):
    code, out, _ = run(
        capsys, "graph", str(FIXTURES / "canon_a6.bsc"), "--orientation", "reversed"
    )
    assert code == 0
    data = json.loads(out)
    point = next(p for p in data["points"] if p["label"] == "a16")
    assert point["y"] == -4


def test_graph_clef_overrides_the_header(capsys, tmp_path):
    # canon_a6 declares clef=bass; --clef treble draws it as a treble score
    text = (FIXTURES / "canon_a6.bsc").read_text()
    assert text.count("clef=bass") == 1
    treble = tmp_path / "treble.bsc"
    treble.write_text(text.replace("clef=bass", "clef=treble"))
    _, bass_out, _ = run(capsys, "graph", str(FIXTURES / "canon_a6.bsc"))
    code, out, _ = run(capsys, "graph", str(FIXTURES / "canon_a6.bsc"), "--clef", "treble")
    assert code == 0
    assert out == run(capsys, "graph", str(treble))[1]
    assert out != bass_out
    point = next(p for p in json.loads(out)["points"] if p["label"] == "a16")
    assert point["y"] == 3  # a above the treble reference e; 4 above bass d


def test_graph_edges_sidecar(capsys, tmp_path):
    edges = tmp_path / "edges.txt"
    edges.write_text("1 3\n")
    code, out, _ = run(
        capsys, "graph", str(FIXTURES / "canon_a6.bsc"), "--edges", str(edges)
    )
    assert code == 0
    assert [1, 3] in json.loads(out)["edges"]


def test_graph_connect_equal_y_flag(capsys):
    _, plain_out, _ = run(capsys, "graph", str(FIXTURES / "canon_a6.bsc"))
    _, joined_out, _ = run(
        capsys, "graph", str(FIXTURES / "canon_a6.bsc"), "--connect-equal-y"
    )
    plain = json.loads(plain_out)["edges"]
    joined = json.loads(joined_out)["edges"]
    assert [9, 10] not in plain and [9, 10] in joined


def test_graph_bad_edge_rejected(capsys, tmp_path):
    edges = tmp_path / "edges.txt"
    edges.write_text("0 99\n")
    code, _, err = run(
        capsys, "graph", str(FIXTURES / "canon_a6.bsc"), "--edges", str(edges)
    )
    assert code == 2
    assert "error[E_DIAGRAM]" in err


@pytest.mark.parametrize("pairs, message", [
    ("1 1\n", "extra edge (1, 1) joins a point to itself"),
    ("1 2\n", "extra edge (1, 2) repeats an edge of the diagram"),
    ("2 1\n", "extra edge (2, 1) repeats an edge of the diagram"),
    ("1 4\n4 1\n", "extra edge (4, 1) repeats an edge of the diagram"),
], ids=["loop", "chain-edge", "chain-edge-reversed", "closure-reversed"])
def test_graph_edge_loop_or_repeat_rejected(capsys, tmp_path, pairs, message):
    edges = tmp_path / "edges.txt"
    edges.write_text(pairs)
    code, out, err = run(
        capsys, "graph", str(FIXTURES / "canon_a6.bsc"), "--edges", str(edges),
        "--svg", str(tmp_path / "a6.svg"),
    )
    assert (code, out) == (2, "")
    assert err == f"brauer-kit: error[E_DIAGRAM]: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["edges.txt"]


def test_graph_edge_touching_rest_rejected(capsys, tmp_path):
    score = tmp_path / "rest.bsc"
    score.write_text("clef=treble\n| e4 r4 g4 a4\n")
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1\n")
    code, _, err = run(
        capsys, "graph", str(score), "--svg", str(tmp_path / "rest.svg"),
        "--edges", str(edges),
    )
    assert code == 2
    assert "error[E_DIAGRAM]" in err


def test_graph_lax_required_for_crab(capsys):
    code, _, err = run(capsys, "graph", str(FIXTURES / "canon_crab.bsc"))
    assert code == 2
    code, out, _ = run(capsys, "graph", str(FIXTURES / "canon_crab.bsc"), "--lax")
    assert code == 0
    assert len(json.loads(out)["points"]) == 28


def test_missing_file_is_io_error(capsys):
    code, _, err = run(capsys, "score-check", "no-such-file.bsc")
    assert code == 2
    assert "error[E_IO]" in err


@pytest.mark.parametrize("argv", [
    ["encrypt", "--system", "vigenere", "--key", "B", "--in", ""],
    ["attack", "--in", ""],
    ["attack", "--ciphertext", "OOPAELRIXFGGBWDODDEPK", "--out", ""],
    ["analyze", "--ciphertext", "OOPAELRIXFGGBWDODDEPK", "--keylen", "4", "--out", ""],
    ["graph", str(FIXTURES / "slym.bsc"), "--edges", ""],
    ["graph", str(FIXTURES / "slym.bsc"), "--svg", ""],
    ["graph", str(FIXTURES / "slym.bsc"), "--json", ""],
    ["analyze", "--config", ""],
    ["score-check", ""],
], ids=["encrypt-in", "attack-in", "attack-out", "analyze-out", "graph-edges",
        "graph-svg", "graph-json", "analyze-config", "score-check"])
def test_empty_path_is_io_error(capsys, monkeypatch, argv):
    # an empty path is a path that cannot be opened, not a missing flag
    monkeypatch.setattr(sys, "stdin", io.StringIO("ABC"))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "brauer-kit: error[E_IO]: [Errno 2] No such file or directory: ''\n"


def test_graph_failed_output_leaves_no_file(capsys, tmp_path, monkeypatch):
    # every output is opened before any is written, whichever one fails
    monkeypatch.chdir(tmp_path)
    slym = str(FIXTURES / "slym.bsc")
    for svg, json_out in (("ok.svg", "nodir/x.json"), ("nodir/x.svg", "ok.json")):
        code, out, err = run(capsys, "graph", slym, "--svg", svg, "--json", json_out)
        assert (code, out) == (2, "")
        assert err.startswith("brauer-kit: error[E_IO]: [Errno 2] No such file or directory: ")
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, home, computation", [
    (["attack", "--ciphertext", "OOPAELRIXFGGBWDODDEPK", "--max-keylen", "4"],
     coincidence, "friedman_keylength"),
    (["analyze", "--config", "k.cfg"], cli, "invariants"),
    (["graph", str(FIXTURES / "slym.bsc"), "--svg", "ok.svg"], diagram, "diagram_for_score"),
], ids=["attack", "analyze", "graph"])
def test_outputs_are_opened_before_the_computation(capsys, tmp_path, monkeypatch,
                                                    argv, home, computation):
    # each computation is patched where its command looks it up when it runs
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k.cfg").write_text("a b\nb c\n")
    calls = []
    monkeypatch.setattr(home, computation, lambda *args, **kwargs: calls.append(args))
    out_flag = "--json" if argv[0] == "graph" else "--out"
    code, out, err = run(capsys, *argv, out_flag, "nodir/x.json")
    assert (code, out, calls) == (2, "", [])
    assert err == "brauer-kit: error[E_IO]: [Errno 2] No such file or directory: 'nodir/x.json'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["k.cfg"]


def test_failed_computation_removes_the_output_it_created(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(
        capsys, "attack", "--ciphertext", "ABC", "--max-keylen", "5", "--out", "new.json"
    )
    assert (code, out) == (2, "")
    assert err.startswith("brauer-kit: error[E_CIPHER]: ciphertext of length 3")
    assert list(tmp_path.iterdir()) == []


def test_failed_run_keeps_an_existing_output(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "old.json").write_bytes(b"kept\n")
    (tmp_path / "old.svg").write_bytes(b"kept too\n")
    (tmp_path / "bad.txt").write_text("0 99\n")
    code, _, err = run(
        capsys, "attack", "--ciphertext", "ABC", "--max-keylen", "5", "--out", "old.json"
    )
    assert code == 2 and "E_CIPHER" in err
    code, _, err = run(
        capsys, "graph", str(FIXTURES / "canon_a6.bsc"), "--svg", "old.svg",
        "--json", "new.json", "--edges", "bad.txt",
    )
    assert code == 2 and "E_DIAGRAM" in err
    assert (tmp_path / "old.json").read_bytes() == b"kept\n"
    assert (tmp_path / "old.svg").read_bytes() == b"kept too\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.txt", "old.json", "old.svg"]


def test_output_error_comes_before_a_failing_computation(capsys):
    code, out, err = run(
        capsys, "attack", "--ciphertext", "ABC", "--max-keylen", "5", "--out", "nodir/x.json"
    )
    assert (code, out) == (2, "")
    assert err == "brauer-kit: error[E_IO]: [Errno 2] No such file or directory: 'nodir/x.json'\n"


def test_graph_lax_warns_on_stderr(capsys):
    code, out, err = run(capsys, "graph", str(FIXTURES / "canon_crab.bsc"), "--lax")
    assert code == 0
    assert out == (GOLDENS / "canon_crab.graph.json").read_text()
    assert err.startswith("brauer-kit: warning: measure 18")
    assert all(line.startswith("brauer-kit: warning: ") for line in err.splitlines())


GRAPH_GOLDENS = [
    ("slym", []),
    ("canon_a6", []),
    ("canon_crab", ["--lax"]),
    ("canon_qi", ["--lax"]),
    ("canon_a6.reversed", ["--orientation", "reversed", "--connect-equal-y",
                           "--edges", str(GOLDENS / "canon_a6.edges")]),
]


@pytest.mark.parametrize("stem, flags", GRAPH_GOLDENS, ids=[s for s, _ in GRAPH_GOLDENS])
def test_graph_output_matches_its_golden(capsys, tmp_path, stem, flags):
    score = FIXTURES / f"{stem.split('.')[0]}.bsc"
    svg, diagram = tmp_path / "d.svg", tmp_path / "d.json"
    code, out, _ = run(capsys, "graph", str(score), *flags, "--svg", str(svg),
                       "--json", str(diagram))
    assert (code, out) == (0, "")
    assert diagram.read_bytes() == (GOLDENS / f"{stem}.graph.json").read_bytes()
    assert svg.read_bytes() == (GOLDENS / f"{stem}.svg").read_bytes()


@pytest.mark.parametrize("argv", [
    ["attack", "--ciphertext", "ABCDEFGHIJKLMNOPQRST", "--max-keylen", "2", "--keylen", "11"],
    ["analyze", "--ciphertext", "ABCDEFGHIJKLMNOPQRST", "--keylen", "11"],
])
def test_keylen_past_half_the_text_has_one_message(capsys, argv):
    # decimate is the one home of the 2m <= N rule
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (
        "brauer-kit: error[E_CIPHER]: splitting into 11 lists leaves a list shorter than 2\n"
    )


class _Terminal(io.StringIO):
    def isatty(self):
        return True


def test_markers_are_colored_by_the_stream_they_go_to(monkeypatch):
    monkeypatch.setenv("BRAUER_KIT_COLOR", "auto")
    for stdout_is_tty in (True, False):
        out = _Terminal() if stdout_is_tty else io.StringIO()
        err = io.StringIO() if stdout_is_tty else _Terminal()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(["analyze", "--config", "no-such-file.cfg"]) == 2
            assert main(["analyze", "--verify"]) == 0
        error = "error" if stdout_is_tty else "\x1b[31merror\x1b[0m"
        passed = "\x1b[32mPASS\x1b[0m" if stdout_is_tty else "PASS"
        assert err.getvalue().startswith(f"brauer-kit: {error}[E_IO]: ")
        assert out.getvalue().startswith(f"{passed} ")


def test_undecodable_input_is_io_error(capsys, tmp_path, monkeypatch):
    bad = tmp_path / "bad.txt"
    edges = tmp_path / "e.txt"
    edges.write_text("1 3\n")
    # the last two are a byte-order mark cut short, which is no mark and no UTF-8
    for data in (b"\xff\n", b"\xef", b"\xef\xbb"):
        bad.write_bytes(data)
        for argv in (
            ["attack", "--in", str(bad)],
            ["encrypt", "--system", "vigenere", "--key", "MDPI", "--in", str(bad)],
            ["graph", str(FIXTURES / "canon_a6.bsc"), "--edges", str(bad)],
            ["graph", str(bad), "--edges", str(edges)],
            ["score-check", str(bad)],
            ["analyze", "--score", str(bad)],
            ["analyze", "--config", str(bad)],
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), (data, argv)
            assert f"error[E_IO]: {bad}: 'utf-8' codec can't decode" in err, (data, argv)
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), "utf-8"))
        code, _, err = run(capsys, "decrypt", "--system", "vigenere", "--key", "MDPI")
        assert code == 2, data
        assert "error[E_IO]: <stdin>: 'utf-8' codec can't decode" in err, data


def test_stdin_is_utf8_whatever_the_locale():
    # UTF-8 mode (a C or POSIX locale turns it on) decodes stdin with
    # surrogateescape, and PYTHONIOENCODING can pick a codec that never fails
    for env in ({"PYTHONUTF8": "1"}, {"PYTHONIOENCODING": "latin-1"}):
        proc = subprocess.run(
            [sys.executable, "-m", "brauer_kit.cli", "decrypt", "--system", "vigenere",
             "--key", "MDPI"],
            input=b"\xff", capture_output=True, timeout=60,
            env={**os.environ, **env, "PYTHONPATH": str(SRC)},
        )
        assert (proc.returncode, proc.stdout) == (2, b""), env
        assert b"error[E_IO]: <stdin>: 'utf-8' codec can't decode" in proc.stderr, env


@pytest.mark.parametrize("reader", ["config", "score", "edges", "ciphertext"])
def test_a_byte_order_mark_changes_no_file_answer(capsys, tmp_path, reader):
    # each file reader gives the same stdout and stderr with and without a
    # leading byte-order mark
    text, argv = {
        "config": ("a b\nb a\n", ["analyze", "--config", "{}"]),
        "score": ((FIXTURES / "canon_a6.bsc").read_text(), ["score-check", "{}"]),
        "edges": ("1 3\n", ["graph", str(FIXTURES / "canon_a6.bsc"), "--edges", "{}"]),
        "ciphertext": ("OOPAELRIXFGGBWDODDEPK\n", ["attack", "--max-keylen", "4", "--in", "{}"]),
    }[reader]
    outputs = []
    for name, content in (("plain", text), ("bom", "\ufeff" + text)):
        path = tmp_path / name
        path.write_text(content, encoding="utf-8")
        outputs.append(run(capsys, *(str(path) if a == "{}" else a for a in argv)))
    assert outputs[0][0] == 0
    assert outputs[1] == outputs[0]


def test_a_byte_order_mark_changes_no_stdin_answer(capsys, monkeypatch):
    # a stream opened as latin-1, so the mark is decoded only if stdin is
    # switched to UTF-8
    outputs = []
    for data in (b"OOPAELRIXFGGBWDODDEPK", b"\xef\xbb\xbfOOPAELRIXFGGBWDODDEPK"):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), "latin-1"))
        outputs.append(run(capsys, "decrypt", "--system", "vigenere", "--key", "MDPI"))
    assert outputs[1] == outputs[0] == (0, "CLASSICALCRYPTOGRAPHY\n", "")


# Each row runs ``python -S -m brauer_kit.cli``: -S leaves site-packages off
# the path, so a third-party import on the row's path fails it.  A row is
# its argv, stdin, exit code, and stdout and stderr, each either the exact
# bytes or the fragments it must hold.  A new CLI check is a row here.
SEED7_80K = "<seed 7, 80 000 letters>"  # stand-in for a file of bench/gen.py's text
# "AB" * SPLIT in SPLIT lists: list i is "AA" or "BB".  Each letter has
# valency F = SPLIT and lies in L = SPLIT / 2 lists, no list holds both,
# and the text has N = 2 * SPLIT letters, so
# dim Lambda = 2m + sum F(F - 1), loops = N - sum L, dim Z = 1 + m + loops.
SPLIT = 2048
SPLIT_LOOPS = 2 * SPLIT - 2 * (SPLIT // 2)
SCORE_PARSE = "brauer-kit: error[E_SCORE_PARSE]: "
STDLIB_ROWS = [
    # the attack at its key length ceiling: 5 050 ranked lists and 4 950
    # recovery products
    pytest.param(["attack", "--max-keylen", "100", "--keylen", "100", "--ciphertext",
                  "OOPAELRIXFGGBWDODDEPK" * 100], b"", 0, (b'"recoveredKeylen": 100,',), b"",
                 id="attack-ceiling"),
    # at the ceiling 80 000 letters share 37 splits, and every length up to
    # 50 sums 2m
    pytest.param(["attack", "--in", SEED7_80K, "--max-keylen", "100"], b"", 0,
                 (b'"recoveredKeylen": 9,', b'"key": "QUAERENDO"'), b"", id="attack-80k-max100"),
    # many short lists, each counted in place by list_counts
    pytest.param(["analyze", "--keylen", str(SPLIT), "--ciphertext", "AB" * SPLIT], b"", 0, (
        f'"dimLambda": {2 * SPLIT + 2 * SPLIT * (SPLIT - 1)},'.encode(),
        f'"dimCenter": {1 + SPLIT + SPLIT_LOOPS},'.encode(),
        f'"loops": {SPLIT_LOOPS},'.encode(),
        b'"connected": false',
    ), b"", id="split-2048"),
    # a Vigenere key is its letters, folded like the text
    pytest.param(["encrypt", "--system", "vigenere", "--key", "m dpi"],
                 b"classicalcryptography\n", 0, b"OOPAELRIXFGGBWDODDEPK\n", b"",
                 id="vigenere-encrypt-folded-key"),
    pytest.param(["decrypt", "--system", "vigenere", "--key", "m dpi"],
                 b"OOPAELRIXFGGBWDODDEPK\n", 0, b"CLASSICALCRYPTOGRAPHY\n", b"",
                 id="vigenere-decrypt-folded-key"),
    pytest.param(["encrypt", "--system", "transposition", "--key", "1 1 2"], b"CRARGPYOHPTY\n",
                 2, b"", b"brauer-kit: error[E_CIPHER]: malformed permutation '1 1 2'\n",
                 id="transposition-repeated-entry"),
    # a byte-order mark on real stdin, which is decoded through reconfigure()
    pytest.param(["attack", "--max-keylen", "4"], b"\xef\xbb\xbfOOPAELRIXFGGBWDODDEPK", 0,
                 (GOLDENS / "attack_reference_max4.json").read_bytes(), b"", id="attack-bom-stdin"),
    # arguments a command's own parser leaves over go to the full parser,
    # which words the error
    pytest.param(["attack", "--ciphertext", "OOPAELRIXFGGBWDODDEPK", "--bogus"], b"", 2, b"",
                 b"usage: brauer-kit [-h] {encrypt,decrypt,attack,analyze,score-check,graph} ...\n"
                 b"brauer-kit: error: unrecognized arguments: --bogus\n", id="unknown-option"),
    # a measure-sum error is placed at its measure's first event, even when
    # the measure starts after a comment, brackets and a repeat, or inside a
    # glued word; a dotted sixty-fourth fails at its token
    pytest.param(["score-check", "/dev/stdin"], b"time=4/4\n| c16 c16 c16 c16 | c16 c16 c16\n", 2,
                 b"", f"{SCORE_PARSE}line 2, column 21: measure 2 sums to 48, expected 64 for 4/4\n"
                 .encode(), id="measure-sum-at-first-event"),
    pytest.param(["score-check", "/dev/stdin"], b"time=4/4\n| a64 | c16 c16 c8 c1.\n", 2, b"",
                 f"{SCORE_PARSE}line 2, column 20: a sixty-fourth value cannot be dotted\n".encode(),
                 id="dotted-sixty-fourth"),
    pytest.param(["score-check", "/dev/stdin"],
                 b"time=4/4\n| a64 # one |\n| [ c16 c16 ] { c16 }x1\n", 2, b"",
                 f"{SCORE_PARSE}line 3, column 5: measure 2 sums to 48, expected 64 for 4/4\n"
                 .encode(), id="measure-sum-after-comment-and-groups"),
    pytest.param(["score-check", "/dev/stdin"], b"time=4/4\n| a64 | (c16c16 ) c16\n", 2, b"",
                 f"{SCORE_PARSE}line 2, column 10: measure 2 sums to 48, expected 64 for 4/4\n"
                 .encode(), id="measure-sum-in-glued-word"),
    # connectivity settles at the first component that holds every vertex;
    # a vertex held once before that still gains its second holder, and a
    # split stays split
    pytest.param(["analyze", "--config", "/dev/stdin"], b"a b\nb c\na a\nc b\n", 0,
                 (b'"loops": 1,',), b"", id="config-settled-vertex-gains-holder"),
    pytest.param(["analyze", "--config", "/dev/stdin"], b"a b\nc d\nb e\n", 0,
                 (b'"connected": false',), b"", id="config-stays-split"),
    # each error class's code, read from a class its command imported when it ran
    pytest.param(["analyze", "--config", "/dev/stdin"], b"a\n", 2, b"",
                 b"brauer-kit: error[E_CONFIG]: line 1: polygon needs at least 2 vertices\n",
                 id="error-config"),
    pytest.param(["analyze", "--score", "/dev/stdin"], b"clef=treble\n| c4\n", 2, b"",
                 b"brauer-kit: error[E_SCORE]: measure 1 has fewer than 2 events\n",
                 id="error-score"),
    pytest.param(["graph", str(FIXTURES / "slym.bsc"), "--edges", "/dev/stdin"], b"x y\n", 2,
                 b"", b"brauer-kit: error[E_DIAGRAM]: edge line 1: expected two indices\n",
                 id="error-diagram"),
    pytest.param(["attack", "--in", "no-such-dir/in.txt"], b"", 2, b"",
                 b"brauer-kit: error[E_IO]: [Errno 2] No such file or directory: "
                 b"'no-such-dir/in.txt'\n", id="error-io"),
]


@pytest.fixture(scope="module")
def seed7_80k(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench") / "seed7_80k.txt"
    path.write_text(gen.attack_input(7, 80_000)["text"])
    return str(path)


@pytest.mark.parametrize("argv, stdin, code, out, err", STDLIB_ROWS)
def test_cli_runs_on_the_standard_library_alone(seed7_80k, argv, stdin, code, out, err):
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "brauer_kit.cli",
         *(seed7_80k if arg == SEED7_80K else arg for arg in argv)],
        input=stdin, capture_output=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC), "BRAUER_KIT_COLOR": "never", "COLUMNS": "80"},
    )
    assert proc.returncode == code, proc.stderr
    for got, want in ((proc.stdout, out), (proc.stderr, err)):
        if isinstance(want, bytes):
            assert got == want
        else:
            assert [fragment for fragment in want if fragment not in got] == []


# Numbers past Python's 4 300-digit int/str limit: a measure sum, a time
# signature numerator, and a numerator whose measure target passes it.
NINES = "9" * 3000
HUGE_SUM = f"time=4/4 | {{{{c64}}x{NINES}}}x{NINES}"
HUGE_TIME = f"time={'9' * 4400}/4 | c4"
HUGE_TARGET = f"time={'9' * 4299}/4 | c4"

# Score DSL fragments, valid and not.  A huge repeat count, nested or not,
# must end in the repeat limit's error without building the copies.
DSL_TEXTS = st.lists(
    st.sampled_from([
        "|", "c4", "-d8", "+e16", "=f2", "g64", "r4", "a16.", "c1.", "h4", "#c",
        "[", "]", "(", ")", "{", "}x2", "}x0", "}x999999999", "clef=bass", "time=4/4",
        "time=3/0", "ref=x", "accidentals=-c", f"}}x{NINES}", HUGE_TIME.split()[0],
        HUGE_TARGET.split()[0],
    ]).flatmap(lambda t: st.sampled_from([" ", "\n", ""]).map(lambda sep: t + sep)),
    max_size=24,
).map("".join)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.text(st.characters(exclude_categories=("Cs",))), DSL_TEXTS, st.binary()))
@example(HUGE_SUM)
@example(HUGE_TIME)
@example(HUGE_TARGET)
def test_score_commands_never_exit_internal(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.bsc"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        svg = str(Path(tmp) / "out.svg")
        for argv in (
            ["score-check", str(path)],
            ["graph", str(path), "--svg", svg],
            ["analyze", "--score", str(path)],
        ):
            for lax in ([], ["--lax"]):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = main(argv + lax)
                assert code in (0, 2), err.getvalue()


# A measure element is a token or a group: (symbols, elements, repeat count).
ELEMENTS = st.recursive(
    st.sampled_from(["c4", "-d8", "+e16", "=f2", "g64", "a32.", "r4", "r16.", "b16"]),
    lambda inner: st.tuples(
        st.sampled_from(["[]", "()", "{}"]), st.lists(inner, min_size=1, max_size=3),
        st.integers(1, 3),
    ),
    max_leaves=8,
)


def _grouped(element) -> str:
    if isinstance(element, str):
        return element
    symbols, body, n = element
    inner = " ".join(map(_grouped, body))
    return f"{{ {inner} }}x{n}" if symbols == "{}" else f"{symbols[0]} {inner} {symbols[1]}"


def _expanded(element) -> list:
    if isinstance(element, str):
        return [element]
    symbols, body, n = element
    return [t for e in body for t in _expanded(e)] * (n if symbols == "{}" else 1)


@st.composite
def grouped_scores(draw):
    """DSL text with random group symbols, a slur across bars among them,
    and the same score with brackets and parens removed and repeats
    expanded by hand."""
    head = draw(st.sampled_from(["", "clef=bass ", "clef=alto time=4/4 "]))
    measures = draw(st.lists(st.lists(ELEMENTS, min_size=2, max_size=4), min_size=1, max_size=4))
    grouped = [" ".join(map(_grouped, m)) for m in measures]
    i = draw(st.integers(0, len(measures) - 1))
    j = draw(st.integers(i, len(measures) - 1))
    grouped[i] = "( " + grouped[i]
    grouped[j] += " )"
    plain = [" ".join(t for e in m for t in _expanded(e)) for m in measures]
    return head + " | ".join(["", *grouped]), head + " | ".join(["", *plain])


@settings(max_examples=40, deadline=None)
@given(grouped_scores())
def test_group_symbols_never_change_any_output(case):
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        for text in case:
            path = Path(tmp) / "in.bsc"
            path.write_text(text)
            svg, diagram = Path(tmp) / "out.svg", Path(tmp) / "out.json"
            seen = []
            for argv in (
                ["analyze", "--score", str(path), "--lax"],
                ["graph", str(path), "--svg", str(svg), "--json", str(diagram), "--lax"],
            ):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                seen.append((code, out.getvalue(), err.getvalue()))
            seen.append((svg.read_bytes(), diagram.read_bytes()))
            outputs.append(seen)
    assert outputs[0] == outputs[1]
    assert outputs[0][0][0] == 0


def test_numbers_past_the_digit_limit_are_parse_errors(capsys, tmp_path):
    path = tmp_path / "big.bsc"
    for text in (HUGE_SUM, HUGE_TIME, HUGE_TARGET):
        path.write_text(text)
        for argv in (
            ["score-check", str(path)],
            ["analyze", "--score", str(path)],
            ["graph", str(path)],
        ):
            for lax in ([], ["--lax"]):
                code, out, err = run(capsys, *argv, *lax)
                assert (code, out) == (2, ""), (text[:12], argv + lax)
                assert "error[E_SCORE_PARSE]" in err, (text[:12], argv + lax, err)


# Every subcommand that takes user input, on arbitrary text and on raw bytes
# that need not be UTF-8.
@settings(max_examples=25, deadline=None)
@given(
    st.one_of(st.text(st.characters(exclude_categories=("Cs",))), st.binary()),
    st.one_of(st.sampled_from(["MDPI", "3 4 1 2"]), st.text(max_size=8)),
    st.integers(-2, 12),
)
@example(b"\xff\n", "MDPI", 2)
def test_commands_never_exit_internal(data, key, keylen):
    raw = data if isinstance(data, bytes) else data.encode()
    text = raw.decode(errors="replace")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.txt"
        path.write_bytes(raw)
        argvs = [
            [command, "--system", system, f"--key={key}", "--in", str(path)]
            for command in ("encrypt", "decrypt")
            for system in ("vigenere", "transposition")
        ] + [
            ["attack", "--in", str(path)],
            ["attack", f"--ciphertext={text}", "--in", str(path)],
            ["analyze", "--config", str(path)],
            ["analyze", f"--ciphertext={text}", "--keylen", str(keylen)],
            ["graph", str(FIXTURES / "canon_a6.bsc"), "--edges", str(path)],
        ]
        for argv in argvs:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 2), (argv, err.getvalue())


# README's limits, each at and just past its value: key lengths and list
# counts against the text's length N and the ceiling of 100, repeat counts
# against MAX_EVENTS, and numbers past Python's 4 300-digit int/str limit.
LETTERS_4K = ("OOPAELRIXFGGBWDODDEPK" * 196)[:4096]
GROUP_SHAPES = (  # n nested or spanning groups, about 4 KB at n = 1 000
    lambda n: "| " + "( " * n + "a4 " + ") " * n,
    lambda n: "( " * n + "| a4 " * n + ") " * n,
    lambda n: "| " + "{ " * n + "a4 " * n + "}x1 " * n,
)
SCORE_PIECES = (
    "|", "c4", "-d8", "a16.", "r4", "(", ")", "[", "]", "{", "}x2", "time=4/4", "clef=bass",
    *(f"}}x{count}" for count in (MAX_EVENTS // 2, MAX_EVENTS - 1, MAX_EVENTS, MAX_EVENTS + 1)),
    f"}}x{'9' * 4301}", f"time={'9' * 4301}/4",
)


def _sizes(most: int):
    """Sizes from 0 to ``most``, its ends among them."""
    return st.one_of(st.sampled_from([0, 1, 2, most - 1, most]), st.integers(0, most))


# Inputs of up to 4 KB, and the numbers past the digit limit, which take a
# little more: each command reads one of its own kind, or any text or bytes.
INPUTS = {
    "cipher": _sizes(4096).map(lambda n: LETTERS_4K[:n]),
    "config": _sizes(1024).map(lambda n: "a b c\n" * (n // 2) + "d e\n" * (n - n // 2)),
    "score": st.one_of(
        st.lists(st.sampled_from(SCORE_PIECES), max_size=24).map(" ".join),
        st.tuples(st.sampled_from(GROUP_SHAPES), _sizes(1000)).map(lambda s: s[0](s[1])),
    ),
    "edges": st.lists(st.tuples(st.integers(-1, 12), st.integers(-1, 12)), max_size=8).map(
        lambda pairs: "".join(f"{i} {j}\n" for i, j in pairs)),
    "any": st.one_of(st.text(st.characters(exclude_categories=("Cs",)), max_size=64),
                     st.binary(max_size=64)),
}
COMMANDS = {  # a command and the kind of input it reads
    "attack": "cipher", "analyze --ciphertext": "cipher", "analyze --config": "config",
    "analyze --score": "score", "analyze --verify": "any", "score-check": "score",
    "graph": "score", "graph --edges": "edges",
}
INPUT, OUTPUT = "<input file>", "<output file>"  # stand-ins in a drawn argv


@st.composite
def limit_commands(draw):
    """A command, an input for it and its drawn flags; the argv names the
    input's file and an output file by stand-ins."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    data = draw(st.one_of(INPUTS[COMMANDS[command]], INPUTS["any"]))
    text = data.decode(errors="replace") if isinstance(data, bytes) else data

    def maybe(*flag):
        return draw(st.sampled_from([[], list(flag)]))

    def number(name):  # an int flag, if drawn, at one of the text's limits
        n = len(text)
        return maybe(name, draw(st.sampled_from(["0", "1", "100", "101", str(n // 2),
                                                 str(n // 2 + 1)])))

    if command == "attack":
        source = draw(st.sampled_from([["--ciphertext=" + text], ["--in", INPUT]]))
        argv = ["attack", *source, *number("--max-keylen"), *number("--keylen"),
                *number("--top"), *maybe("--strip")]
    elif command == "analyze --ciphertext":
        argv = ["analyze", "--ciphertext=" + text, *number("--keylen"), *maybe("--strip")]
    elif command == "analyze --verify":
        argv = ["analyze", "--verify", *maybe("--lax")]
    elif command.startswith("analyze"):
        argv = [*command.split(), INPUT, *maybe("--lax")]
    elif command == "score-check":
        argv = ["score-check", INPUT, *maybe("--lax")]
    elif command == "graph":
        argv = ["graph", INPUT, "--svg", OUTPUT, *maybe("--orientation", "reversed"),
                *maybe("--connect-equal-y"), *maybe("--lax")]
    else:
        argv = ["graph", str(FIXTURES / "canon_a6.bsc"), "--edges", INPUT, "--json", OUTPUT]
    return data, argv


class _Overtime(BaseException):
    """A run that passes its time bound; no ``except Exception`` stops it."""


def _run_bounded(argv, seconds=2.0, traced=False):
    """``main(argv)`` with its output captured, stopped after ``seconds``:
    the exit code, stderr, the wall time and the tracemalloc peak (0 when
    not ``traced``)."""
    def overtime(signum, frame):
        raise _Overtime(f"{' '.join(a[:24] for a in argv)} ran past {seconds} s")

    err = io.StringIO()
    previous = signal.signal(signal.SIGALRM, overtime)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    if traced:
        tracemalloc.start()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # a usage error
                code = exc.code
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1] if traced else 0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if traced:
            tracemalloc.stop()
    return code, err.getvalue(), elapsed, peak


@settings(max_examples=300, deadline=None)
@given(limit_commands())
@example((LETTERS_4K, ["attack", "--in", INPUT, "--max-keylen", "100", "--keylen", "100"]))
@example((LETTERS_4K, ["attack", "--ciphertext=" + LETTERS_4K, "--keylen", "2048"]))
@example((LETTERS_4K, ["attack", "--in", INPUT, "--max-keylen", "2048"]))
@example((LETTERS_4K, ["analyze", "--ciphertext=" + LETTERS_4K, "--keylen", "2048"]))
def test_every_command_ends_in_exit_0_or_2_at_its_limits(case):
    data, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.txt"
        path.write_bytes(data if isinstance(data, bytes) else data.encode())
        files = {INPUT: str(path), OUTPUT: str(Path(tmp) / "out")}
        argv = [files.get(a, a) for a in argv]
        code, err, _, _ = _run_bounded(argv)
    assert code in (0, 2), (argv[:6], err)
    assert "E_INTERNAL" not in err


# Each limit at its value, where a command does the most work it admits,
# and just past it: (argv with stand-ins, the input file's text).
LIMIT_CASES = {
    "attack-ceiling": (["attack", "--in", INPUT, "--max-keylen", "100", "--keylen", "100"],
                       LETTERS_4K),
    "attack-keylen-half": (["attack", "--in", INPUT, "--keylen", "2048"], LETTERS_4K),
    "attack-max-keylen-half": (["attack", "--in", INPUT, "--max-keylen", "2048"], LETTERS_4K),
    "split-half": (["analyze", "--ciphertext=" + LETTERS_4K, "--keylen", "2048"], ""),
    "split-past-half": (["analyze", "--ciphertext=" + LETTERS_4K, "--keylen", "2049"], ""),
    "events-at-limit": (["analyze", "--score", INPUT], f"| {{ c4 d4 }}x{MAX_EVENTS // 2}\n"),
    "events-past-limit": (["graph", INPUT, "--svg", OUTPUT],
                          f"| {{ c4 d4 }}x{MAX_EVENTS // 2 + 1}\n"),
    "repeat-digits": (["score-check", INPUT], f"| {{ c4 }}x{'9' * 4301}\n"),
    "time-digits": (["analyze", "--score", INPUT, "--lax"], f"time={'9' * 4301}/4 | c4\n"),
    **{f"groups-{i}": (["graph", INPUT, "--svg", OUTPUT, "--lax"], shape(1000))
       for i, shape in enumerate(GROUP_SHAPES)},
    "config-4k": (["analyze", "--config", INPUT], "a b c d\n" * 512),
    "verify": (["analyze", "--verify"], ""),
}


@pytest.mark.parametrize("name", LIMIT_CASES)
def test_a_command_at_its_limit_stays_within_2_s_and_50_mb(name, tmp_path):
    argv, text = LIMIT_CASES[name]
    (tmp_path / "in.txt").write_text(text)
    files = {INPUT: str(tmp_path / "in.txt"), OUTPUT: str(tmp_path / "out")}
    argv = [files.get(a, a) for a in argv]
    # timed untraced first, as tracing slows a run 10-15 times
    code, err, elapsed, _ = _run_bounded(argv)
    assert code in (0, 2) and "E_INTERNAL" not in err, err
    assert elapsed < 2.0
    traced = _run_bounded(argv, seconds=60.0, traced=True)
    assert traced[:2] == (code, err)
    assert traced[3] < 50_000_000


def test_nested_repeats_fail_fast_in_little_memory(tmp_path):
    # 25 bytes that ask for 9999**3 events: every score command refuses
    # the text before it builds them, with a time signature or without,
    # strict or lax
    for header in ("time=4/4 ", ""):
        path = tmp_path / "nested.bsc"
        path.write_text(header + "| {{{c64}x9999}x9999}x9999\n")
        for argv in (
            ["score-check", str(path)],
            ["analyze", "--score", str(path)],
            ["graph", str(path)],
        ):
            for lax in ([], ["--lax"]):
                err = io.StringIO()
                tracemalloc.start()
                start = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(err):
                        code = main(argv + lax)
                    elapsed = time.perf_counter() - start
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert code == 2, (argv + lax, err.getvalue())
                assert "error[E_SCORE_PARSE]" in err.getvalue()
                assert elapsed < 0.1, (argv + lax, elapsed)
                assert peak < 1_000_000, (argv + lax, peak)


def test_deeply_nested_huge_repeats_fail_in_linear_time(tmp_path):
    # 200 nested groups of 4 000-digit counts (about 800 KB): the measure
    # sum stops growing once no message can print it, so the repeat limit's
    # error comes at once instead of after 200 multiplications of ever
    # longer numbers
    nines = "9" * 4000
    path = tmp_path / "nested.bsc"
    path.write_text("time=4/4 | " + "{" * 200 + "c64" + f"}}x{nines}" * 200 + "\n")
    for lax in ([], ["--lax"]):
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["score-check", str(path)] + lax)
        elapsed = time.perf_counter() - start
        assert code == 2, err.getvalue()
        assert "error[E_SCORE_PARSE]" in err.getvalue()
        assert "repeat group expands the score past" in err.getvalue()
        assert elapsed < 1.0, (lax, elapsed)
