"""The option parsers of ``brauer-kit``: a command's own parser reads its
argv, and the full parser gives the help and the usage errors, byte for
byte as when the full parser read every argv."""

import contextlib
import io
from pathlib import Path

import pytest

from brauer_kit import cli
from brauer_kit.brauer import BrauerConfiguration, Polygon
from brauer_kit.score import Score

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "brauer_kit" / "fixtures"
SCORE = str(FIXTURES / "canon_a6.bsc")
CIPHERTEXT = "OOPAELRIXFGGBWDODDEPK"
COMMANDS = ("encrypt", "decrypt", "attack", "analyze", "score-check", "graph")

CORPUS = [
    # help: top level, for every command, and -h among other arguments
    ["-h"], ["--help"], ["-h", "attack"],
    *([name, "-h"] for name in COMMANDS),
    ["attack", "--ciphertext", CIPHERTEXT, "--max-keylen", "4", "-h"],
    ["attack", "--bogus", "-h"], ["attack", "--he"],
    # no arguments, an unknown command, an option before the command
    [], ["bogus"], ["att"], ["--strip", "attack"], ["-x"],
    # arguments the command's parser leaves over
    ["attack", "--ciphertext", CIPHERTEXT, "--bogus"], ["attack", "--score", "x"],
    ["attack", "--ciphertext", CIPHERTEXT, "extra"], ["attack", "-3"],
    ["score-check", SCORE, SCORE], ["graph", SCORE, "extra", "--lax"],
    # a bad int, a missing value, a missing required option or argument
    ["attack", "--max-keylen", "x"], ["attack", "--bogus", "--max-keylen", "x"],
    ["attack", "--max-keylen", "1_0"], ["attack", "--top", "٤"],
    ["analyze", "--ciphertext", CIPHERTEXT, "--keylen", "+5"],
    ["attack", "--max-keylen"], ["attack", "--ciphertext"], ["attack", "--ciphertext", "-x"],
    ["encrypt", "--key", "A"], ["encrypt", "--system", "vigenere"], ["score-check"],
    ["encrypt", "--system", "rot13", "--key", "A"], ["graph", SCORE, "--orientation", "sideways"],
    ["analyze", "--c", "x"],
    # --, an abbreviation, --flag=value
    ["attack", "--", "--ciphertext", CIPHERTEXT], ["attack", "--ciphertext", CIPHERTEXT, "--"],
    ["graph", "--", SCORE], ["score-check", "--", SCORE],
    ["attack", "--max", "4", "--ciphertext", CIPHERTEXT],
    ["attack", "--max-keylen=4", "--ciphertext=" + CIPHERTEXT],
    # argparse reads --flag=-- as an empty list, which no option takes
    ["encrypt", "--system", "vigenere", "--key=--"], ["attack", "--max-keylen=--"],
    ["analyze", "--config=--"], ["graph", SCORE, "--svg=--"],
    # commands that run, and their own errors
    ["encrypt", "--system", "vigenere", "--key", "MDPI"],
    ["decrypt", "--system", "transposition", "--key", "2 1", "--strip"],
    ["attack", "--ciphertext", CIPHERTEXT, "--max-keylen", "4", "--top", "2"],
    ["attack", "--max-keylen", "-3", "--ciphertext", CIPHERTEXT],
    ["analyze", "--ciphertext", CIPHERTEXT, "--keylen", "4"], ["analyze", "--verify", "--verify"],
    ["analyze", "--score", SCORE, "--lax"], ["score-check", SCORE, "--lax"],
    ["graph", SCORE, "--orientation", "retrograde", "--connect-equal-y"],
]


class _NoCommandNamed(dict):
    """The command table with no name found in it: ``main`` then reads every
    argv with ``build_parser().parse_args``."""

    def __contains__(self, name):
        return False


def outcome(monkeypatch, argv):
    """Exit code, stdout and stderr of ``main(argv)``, reading stdin's text."""
    monkeypatch.setattr("sys.stdin", io.StringIO(CIPHERTEXT + "\n"))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", CORPUS, ids=[" ".join(argv).replace(SCORE, "SCORE") or "(none)"
                                               for argv in CORPUS])
def test_output_matches_the_full_parser(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # help and usage wrap at a fixed width
    monkeypatch.setenv("BRAUER_KIT_COLOR", "never")
    own = outcome(monkeypatch, argv)
    monkeypatch.setattr(cli, "_COMMANDS", _NoCommandNamed(cli._COMMANDS))
    assert own == outcome(monkeypatch, argv)


def test_corpus_reaches_both_parsers_and_every_exit(monkeypatch):
    # the corpus holds help, usage errors of each parser, and runs
    monkeypatch.setenv("COLUMNS", "80")
    results = [outcome(monkeypatch, argv) for argv in CORPUS]
    codes = {code for code, _, _ in results}
    errors = "".join(err for _, _, err in results)
    assert codes == {0, 2}
    assert "usage: brauer-kit [-h] {encrypt,decrypt,attack,analyze,score-check,graph} ...\n" \
        in "".join(out for _, out, _ in results)
    for text in ("brauer-kit: error: unrecognized arguments: --bogus\n",
                 "brauer-kit: error: argument command: invalid choice: 'bogus'",
                 "brauer-kit attack: error: argument --max-keylen: invalid int value: 'x'\n",
                 "brauer-kit encrypt: error: the following arguments are required: --system\n",
                 "brauer-kit: error[E_CIPHER]: --max-keylen must be >= 1\n"):
        assert text in errors


@pytest.mark.parametrize("argv", [
    ["encrypt", "--system", "vigenere", "--key", "MDPI"],
    ["decrypt", "--system", "vigenere", "--key", "MDPI"],
    ["attack", "--max-keylen", "4", "--top", "1", "--keylen", "4"],
    ["analyze", "--ciphertext", CIPHERTEXT, "--keylen", "4"],
    ["score-check", SCORE],
    ["graph", SCORE, "--clef", "bass"],
], ids=COMMANDS)
def test_a_valid_command_does_not_build_the_full_parser(monkeypatch, argv):
    def build_parser():
        raise AssertionError("the full parser was built")

    monkeypatch.setattr(cli, "build_parser", build_parser)
    code, out, err = outcome(monkeypatch, argv)
    assert (code, err) == (0, "")
    assert out


def _constructor(*args, **kwargs):
    raise AssertionError("a record was built through its constructor")


@pytest.mark.parametrize("argv", [
    ["encrypt", "--system", "vigenere", "--key", "MDPI"],
    ["decrypt", "--system", "vigenere", "--key", "MDPI"],
    ["attack", "--max-keylen", "4", "--top", "1", "--keylen", "4"],
    ["analyze", "--config", "CONFIG"],
    ["analyze", "--score", SCORE],
    ["analyze", "--ciphertext", CIPHERTEXT, "--keylen", "4"],
    ["analyze", "--verify"],
    ["score-check", SCORE],
    ["graph", SCORE, "--svg", "SVG"],
], ids=lambda argv: " ".join(argv).replace(SCORE, "SCORE"))
def test_a_valid_command_builds_no_record_through_its_constructor(monkeypatch, tmp_path, argv):
    # the producers build configurations and scores with _make, so the
    # constructors' walks over every label run only for library callers
    config, svg = tmp_path / "config.txt", tmp_path / "out.svg"
    config.write_text("a b c\nc d a label: 2 1 3\n")
    argv = [{"CONFIG": str(config), "SVG": str(svg)}.get(arg, arg) for arg in argv]
    want = outcome(monkeypatch, argv), svg.exists() and svg.read_text()
    assert want[0][0] == 0 and want[0][1]
    monkeypatch.setattr(BrauerConfiguration, "__new__", _constructor)
    monkeypatch.setattr(Score, "__new__", _constructor)
    with pytest.raises(AssertionError):  # the patches take hold
        BrauerConfiguration((Polygon(("a", "b")),))
    with pytest.raises(AssertionError):
        Score((("c4", "d4"),))
    svg.unlink(missing_ok=True)
    assert (outcome(monkeypatch, argv), svg.exists() and svg.read_text()) == want


@pytest.mark.parametrize("flag", ["--max-keylen", "--keylen", "--top"])
@pytest.mark.parametrize("value", ["x", "1_0", " 7", "٤", "+5", "", "-", "7 "])
def test_attack_int_flags_take_only_ascii_digits(monkeypatch, flag, value):
    code, out, err = outcome(monkeypatch, ["attack", "--ciphertext", CIPHERTEXT, flag, value])
    assert (code, out) == (2, "")
    assert err.endswith(f"\nbrauer-kit attack: error: argument {flag}: invalid int value: {value!r}\n")


@pytest.mark.parametrize("value", ["1_0", " 7", "٤", "+5"])
def test_analyze_keylen_takes_only_ascii_digits(monkeypatch, value):
    code, out, err = outcome(monkeypatch, ["analyze", "--ciphertext", CIPHERTEXT, "--keylen", value])
    assert (code, out) == (2, "")
    assert err.endswith(f"\nbrauer-kit analyze: error: argument --keylen: invalid int value: {value!r}\n")


@pytest.mark.parametrize("value, parsed", [("4", 4), ("0004", 4), ("-3", -3), ("-0", 0)])
def test_int_flags_read_ascii_digits_after_an_optional_minus(value, parsed):
    assert cli._int(value) == parsed
