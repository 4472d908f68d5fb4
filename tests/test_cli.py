import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from brauer_kit import cipher
from brauer_kit.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
FIXTURES = SRC / "brauer_kit" / "fixtures"


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


def test_attack_report_schema(capsys, tmp_path):
    import random
    sys.path.insert(0, str(Path(__file__).parent))
    from textgen import sample_english
    from brauer_kit.cipher import VigenereKey, vigenere_encrypt

    rng = random.Random(123)
    cipher = vigenere_encrypt(sample_english(rng, 600), VigenereKey.from_text("LEO"))
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
    bad.write_bytes(b"\xff\n")
    edges = tmp_path / "e.txt"
    edges.write_text("1 3\n")
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
        assert (code, out) == (2, ""), argv
        assert f"error[E_IO]: {bad}: 'utf-8' codec can't decode" in err, argv
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff\n"), "utf-8"))
    code, _, err = run(capsys, "decrypt", "--system", "vigenere", "--key", "MDPI")
    assert code == 2
    assert "error[E_IO]: <stdin>: 'utf-8' codec can't decode" in err


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
