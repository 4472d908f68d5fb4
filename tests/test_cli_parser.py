"""The option parsing of ``brauer-kit``: the reader of the option table
reads a valid argv, and the full parser gives the help and the usage
errors, byte for byte as when the full parser read every argv."""

import contextlib
import io
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from brauer_kit import cli
from brauer_kit.brauer import BrauerConfiguration, Polygon
from brauer_kit.score import Score

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "brauer_kit" / "fixtures"
GOLDENS = Path(__file__).resolve().parent / "goldens"
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


def assert_matches_the_full_parser(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # help and usage wrap at a fixed width
    monkeypatch.setenv("BRAUER_KIT_COLOR", "never")
    own = outcome(monkeypatch, argv)
    with monkeypatch.context() as full:
        full.setattr(cli, "_COMMANDS", _NoCommandNamed(cli._COMMANDS))
        assert own == outcome(full, argv)


@pytest.mark.parametrize("argv", CORPUS, ids=[" ".join(argv).replace(SCORE, "SCORE") or "(none)"
                                               for argv in CORPUS])
def test_output_matches_the_full_parser(monkeypatch, argv):
    assert_matches_the_full_parser(monkeypatch, argv)


SCORES = [str(FIXTURES / "slym.bsc"), SCORE]
# values that no plain argv holds: the reader leaves an argv with one to argparse
ODD_VALUES = ["", "-x", "-3", "--", "-h"]
# words that no plain argv holds: the end of options, help, an unknown flag
# and a lone dash
ODD_WORDS = ["--", "-h", "--bogus", "-"]
# the one break that a drawn argv may hold, or None
BREAKS = [None] * 3 + ["value"] * 2 + ["positional", "word", "joined", "abbreviated", "bare",
                                      "missing"]


def plain_values(dest, kind):
    if kind is cli._int:
        return ["1", "4", "0004", "20"]
    if isinstance(kind, tuple):
        return list(kind)
    if dest in ("out", "svg", "json_out"):  # outputs land in the working directory
        return ["a.out", "b.out"]
    return [CIPHERTEXT, *SCORES]


@st.composite
def argvs(draw):
    """A plain argv of one command, built from its rows of the option table
    in any order, or that argv with one break in it: a positional too many,
    an odd word, an odd or bad value, ``--flag=value``, an abbreviation, a
    flag without its value or a required row left out."""
    name = draw(st.sampled_from(COMMANDS))
    table = cli._options(name)
    rows = [row for row in table if row[4]]
    rows += draw(st.lists(st.sampled_from([row for row in table if row[0].startswith("-")]),
                          max_size=4))
    pieces = []  # (row, its words)
    for row in rows:
        flag, dest, kind, _, _, _ = row
        value = draw(st.sampled_from(plain_values(dest, kind)))
        words = [flag] if kind is bool else [value] if not flag.startswith("-") else [flag, value]
        pieces.append((row, words))
    fault = draw(st.sampled_from(BREAKS))
    valued = [i for i, (row, _) in enumerate(pieces) if row[2] is not bool]
    options = [i for i, (row, _) in enumerate(pieces) if row[0].startswith("-")]
    if fault == "positional":  # a second one, or one that the command does not take
        pieces.append((None, [SCORE]))
    elif fault == "word":
        pieces.append((None, [draw(st.sampled_from(ODD_WORDS))]))
    elif fault == "value" and valued:
        row, words = pieces[draw(st.sampled_from(valued))]
        bad = "1_0" if row[2] is cli._int else "bogus" if isinstance(row[2], tuple) else None
        words[-1] = bad or draw(st.sampled_from(ODD_VALUES))
    elif fault in ("joined", "bare") and [i for i in valued if i in options]:
        _, words = pieces[draw(st.sampled_from([i for i in valued if i in options]))]
        words[:] = ["=".join(words)] if fault == "joined" else words[:1]
    elif fault == "abbreviated" and options:
        _, words = pieces[draw(st.sampled_from(options))]
        # the shortest abbreviation, often ambiguous, or the longest
        words[0] = words[0][:draw(st.sampled_from([3, len(words[0]) - 1]))]
    elif fault == "missing" and any(row[4] for row, _ in pieces):
        pieces.pop(next(i for i, (row, _) in enumerate(pieces) if row[4]))
    return [name, *(word for _, words in draw(st.permutations(pieces)) for word in words)]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("argv")


@settings(max_examples=200, deadline=None)
@given(argvs())
def test_drawn_output_matches_the_full_parser(workdir, argv):
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.chdir(workdir)
        assert_matches_the_full_parser(monkeypatch, argv)


@pytest.mark.parametrize("argv", CORPUS, ids=[" ".join(argv).replace(SCORE, "SCORE") or "(none)"
                                               for argv in CORPUS])
def test_output_matches_the_parser_with_every_command_s_rows(monkeypatch, argv):
    # the full parser builds the rows of the one command that argparse runs;
    # built with every command's rows, it says the same
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("BRAUER_KIT_COLOR", "never")
    own = outcome(monkeypatch, argv)
    every = cli.build_parser
    with monkeypatch.context() as full:
        full.setattr(cli, "build_parser", lambda argv: every())
        assert own == outcome(full, argv)


@pytest.mark.parametrize("command", ["", *COMMANDS])
def test_help_matches_its_golden(monkeypatch, command):
    # the full parser, built from the option table, words the help as the
    # hand-written parser did; COLUMNS fixes where it wraps
    monkeypatch.setenv("COLUMNS", "80")
    golden = GOLDENS / f"help{'_' + command if command else ''}.txt"
    argv = [command, "-h"] if command else ["-h"]
    assert outcome(monkeypatch, argv) == (0, golden.read_text(encoding="utf-8"), "")


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
