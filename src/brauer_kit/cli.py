"""Command-line front door.

Subcommands: ``encrypt``/``decrypt`` stream classical-cipher text,
``attack`` emits a JSON cryptanalysis report, ``analyze`` emits the
invariants of a configuration read from a polygon file, a ciphertext split
or a score, ``score-check`` validates DSL files, ``graph`` renders
note-point diagrams to JSON and SVG.  A valid command line is read against
one option table; ``argparse`` is imported only to build the full parser
from that table, which words the help and every usage error.  Importing
this module loads only ``brauer`` of the package: each command imports the
modules it runs.

Exit codes: 0 success, 2 input/validation error, 1 internal error.  Errors
print to stderr as ``brauer-kit: error[CODE]: message``, with the ``code``
of the package's error class, or ``E_IO`` for an ``OSError``.  Set
``BRAUER_KIT_COLOR=never`` to disable coloring (default ``auto``).
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import contextmanager
from types import SimpleNamespace

from .brauer import (
    SCHEMA,
    ConfigError,
    ascii_ints,
    invariants,
    invariants_from_histogram,
    invariants_from_tallies,
    parse_config,
)

# worked reference values used by --verify
_REFERENCE_PLAINTEXT = "classicalcryptography"
_REFERENCE_KEY = "MDPI"
_REFERENCE_CIPHERTEXT = "OOPAELRIXFGGBWDODDEPK"


def _paint(text: str, code: str, stream) -> str:
    """``text`` in ANSI color ``code`` when ``stream``, which will print it,
    is a terminal and ``BRAUER_KIT_COLOR`` is not ``never``."""
    if os.environ.get("BRAUER_KIT_COLOR", "auto") != "never" and stream.isatty():
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def _error(code: str, message: str) -> None:
    marker = _paint("error", "31", sys.stderr)
    print(f"brauer-kit: {marker}[{code}]: {message}", file=sys.stderr)


@contextmanager
def _outputs(*paths: str | None):
    """Open each output path (None is stdout) to append, which changes no
    byte, before the work in the ``with`` body; any error there, or a failed
    open, removes the files this run created.  ``open`` names a path as
    given, the empty one too, where ``Path("")`` would be ``.``."""
    created: list[str] = []
    try:
        for path in paths:
            if path is not None:
                new = not os.path.lexists(path)
                open(path, "a").close()
                if new:
                    created.append(path)
        yield
    except BaseException:
        for path in created:
            os.remove(path)
        raise


def _write(text: str, path: str | None) -> None:
    """``text`` to the file at ``path``, or to stdout for None."""
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)


def _read(path: str | None) -> str:
    """The UTF-8 text of the file at ``path``, or of stdin for None, without
    a leading byte-order mark (dropped after strict decoding: ``utf-8-sig``
    decodes a truncated mark such as a lone ``\\xef`` to "").  Input that
    is not valid UTF-8 is an ``E_IO`` error naming the file or ``<stdin>``,
    whatever the locale."""
    try:
        if path is not None:
            with open(path, encoding="utf-8") as f:
                return f.read().removeprefix("\ufeff")
        if hasattr(sys.stdin, "reconfigure"):  # a stream that decodes bytes
            sys.stdin.reconfigure(encoding="utf-8", errors="strict")
        return sys.stdin.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise OSError(f"{'<stdin>' if path is None else path}: {exc}") from None


def _read_score(path: str, lax: bool):
    """The score in the file at ``path``; each lax-mode warning goes to
    stderr."""
    from .score import parse_score

    score = parse_score(_read(path), strict=not lax)
    for warning in score.warnings:
        print(f"brauer-kit: warning: {warning}", file=sys.stderr)
    return score


def _round(value) -> float:
    return round(float(value), 6)


# ---------------------------------------------------------------------------
# encrypt / decrypt
# ---------------------------------------------------------------------------

def _cmd_crypt(args, encrypting: bool) -> int:
    from .cipher import (CipherError, DEFAULT_ALPHABET, parse_permutation, transposition_decrypt,
                         transposition_encrypt, vigenere_decrypt, vigenere_encrypt)

    text = DEFAULT_ALPHABET.normalize(_read(args.infile), strip=args.strip)
    if args.system == "vigenere":
        crypt = vigenere_encrypt if encrypting else vigenere_decrypt
        out = crypt(text, args.key)
    else:
        perm = parse_permutation(args.key)
        size = len(perm)
        if size < 2:
            raise CipherError("transposition blocks must have size >= 2")
        if len(text) % size != 0:
            raise CipherError(
                f"text length {len(text)} is not a multiple of block size {size}"
            )
        crypt = transposition_encrypt if encrypting else transposition_decrypt
        out = crypt(text, [perm] * (len(text) // size))
    print(out)
    return 0


# ---------------------------------------------------------------------------
# attack
# ---------------------------------------------------------------------------

def _cmd_attack(args) -> int:
    from .bridge import brauer_ioc
    from .cipher import CipherError, DEFAULT_ALPHABET
    from .coincidence import MAX_KEYLEN, friedman_keylength, friedman_recover_key, list_counts

    if args.ciphertext is not None and args.infile is not None:
        raise CipherError("attack reads --ciphertext or --in, not both")
    for flag, value in (("--max-keylen", args.max_keylen), ("--keylen", args.keylen)):
        if value is not None and value < 1:
            raise CipherError(f"{flag} must be >= 1")
        if value is not None and value > MAX_KEYLEN:
            raise CipherError(f"{flag} must be <= {MAX_KEYLEN}")
    if args.top < 1:
        raise CipherError("--top must be >= 1")
    text = args.ciphertext if args.ciphertext is not None else _read(args.infile)
    cipher = DEFAULT_ALPHABET.normalize(text, strip=args.strip)
    with _outputs(args.out):
        candidates = friedman_keylength(cipher, args.max_keylen)
        by_m = {c.m: c for c in candidates}
        m = candidates[0].m if args.keylen is None else args.keylen
        counts = by_m[m].counts if m in by_m else list_counts(cipher, m)
        recovery = friedman_recover_key(counts)
        inv = invariants_from_tallies(counts)
        report = {
            "schema": SCHEMA,
            "length": len(cipher),
            "ioc": _round(by_m[1].per_list_ioc[0]),  # one list: the whole text
            "brauerIoc": _round(brauer_ioc(inv)),
            "keylengthCandidates": [
                {
                    "m": c.m,
                    "perListIoC": [_round(i) for i in c.per_list_ioc],
                    "score": _round(c.score),
                    "flagged": c.flagged,
                    "related": list(c.related),
                }
                for c in candidates
            ],
            "recoveredKeylen": m,
            "keyCandidates": [
                {"key": c.key, "chi2": _round(c.chi2)}
                for c in recovery.candidates[: args.top]
            ],
            "residuals": [list(r) for r in recovery.residuals],
            "brauer": {
                "dimLambda": inv.dim_lambda,
                "dimCenter": inv.dim_center,
                "loops": inv.loops,
            },
        }
        _write(json.dumps(report, indent=2) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _invariants_payload(inv) -> str:
    return json.dumps({"schema": SCHEMA, **inv.to_json_dict()}, indent=2) + "\n"


def _cmd_analyze(args) -> int:
    if args.verify:
        values = (args.config, args.ciphertext, args.keylen, args.score, args.out)
        if args.lax or args.strip or any(v is not None for v in values):
            raise ConfigError("--verify takes no other flag")
        return _cmd_verify()
    sources = [s for s in (args.config, args.ciphertext, args.score) if s is not None]
    if len(sources) != 1:
        raise ConfigError("analyze needs exactly one of --config, --ciphertext, --score")
    if args.ciphertext is None and (args.keylen is not None or args.strip):
        raise ConfigError("--keylen and --strip apply only to --ciphertext")
    if args.score is None and args.lax:
        raise ConfigError("--lax applies only to --score")
    if args.ciphertext is not None:
        from .cipher import CipherError, DEFAULT_ALPHABET
        from .coincidence import list_counts

        if args.keylen is None:
            raise ConfigError("--ciphertext requires --keylen")
        if args.keylen < 1:
            raise CipherError("--keylen must be >= 1")
        cipher = DEFAULT_ALPHABET.normalize(args.ciphertext, strip=args.strip)
        count, source = invariants_from_tallies, list_counts(cipher, args.keylen)
    elif args.config is not None:
        count, source = invariants, parse_config(_read(args.config))
    else:
        from .score import score_to_config

        count, source = invariants, score_to_config(_read_score(args.score, args.lax))
    with _outputs(args.out):
        _write(_invariants_payload(count(source)), args.out)
    return 0


# ---------------------------------------------------------------------------
# verify (golden fixtures)
# ---------------------------------------------------------------------------

def _verify_checks():
    from .cipher import vigenere_encrypt
    from .coincidence import list_counts
    from .score import parse_score, score_to_config

    yield (
        "vigenere-encrypt",
        lambda: vigenere_encrypt(_REFERENCE_PLAINTEXT, _REFERENCE_KEY),
        _REFERENCE_CIPHERTEXT,
    )

    def split_dims():
        inv = invariants_from_tallies(list_counts(_REFERENCE_CIPHERTEXT, 4))
        return (inv.dim_lambda, inv.dim_center, inv.loops)

    yield ("vigenere-split-invariants", split_dims, (35, 14, 9))

    def fixture(name):
        with open(os.path.join(os.path.dirname(__file__), "fixtures", name), encoding="utf-8") as f:
            return f.read()

    for stem in ("slym", "canon_a6", "canon_crab", "canon_qi"):
        def score_payload(stem=stem):
            score = parse_score(fixture(f"{stem}.bsc"), strict=False)
            return _invariants_payload(invariants(score_to_config(score)))

        golden = fixture(f"{stem}.invariants.json")
        yield (f"score-{stem}", score_payload, golden)

    for stem in ("canon_crab", "canon_qi"):
        data = json.loads(fixture(f"{stem}.hist.json"))

        def hist_dims(data=data):
            inv = invariants_from_histogram(
                data["polygons"], data["valencyHistogram"], data["loops"]
            )
            return {"dimLambda": inv.dim_lambda, "dimCenter": inv.dim_center}

        yield (f"histogram-{stem}", hist_dims, data["expected"])


def _cmd_verify() -> int:
    failures = 0
    for name, compute, expected in _verify_checks():
        try:
            actual = compute()
        except Exception as exc:  # a broken fixture should not stop the rest
            failures += 1
            print(f"{_paint('FAIL', '31', sys.stdout)} {name}: {exc}")
            continue
        if actual == expected:
            print(f"{_paint('PASS', '32', sys.stdout)} {name}")
        else:
            failures += 1
            print(f"{_paint('FAIL', '31', sys.stdout)} {name}: {_mismatch(actual, expected)}")
    return 0 if failures == 0 else 2


def _mismatch(actual, expected) -> str:
    """A failed check's report: the top-level fields that differ when both
    values are JSON objects, as text or as dicts, else both values whole."""
    try:
        got, want = (v if isinstance(v, dict) else json.loads(v) for v in (actual, expected))
    except (TypeError, ValueError):  # not JSON text
        got = want = None
    if not (isinstance(got, dict) and isinstance(want, dict) and got != want):
        return f"got {actual!r}, want {expected!r}"

    def show(fields, key):
        return json.dumps(fields[key]) if key in fields else "nothing"

    return "; ".join(
        f"{key}: got {show(got, key)}, want {show(want, key)}"
        for key in dict.fromkeys([*want, *got])
        if show(got, key) != show(want, key)
    )


# ---------------------------------------------------------------------------
# score-check
# ---------------------------------------------------------------------------

def _cmd_score_check(args) -> int:
    from .score import parse_score

    score = parse_score(_read(args.score), strict=not args.lax)
    events = sum(map(len, score.measures))
    for warning in score.warnings:
        print(f"warning: {warning}")
    time = f"{score.time[0]}/{score.time[1]}" if score.time else "free"
    print(
        f"OK: {len(score.measures)} measures, {events} events, "
        f"clef {score.clef}, time {time}"
    )
    return 0


# ---------------------------------------------------------------------------
# graph
# ---------------------------------------------------------------------------

def _cmd_graph(args) -> int:
    from .diagram import diagram_for_score, emit_json, emit_svg, parse_edges

    score = _read_score(args.score, args.lax)
    extra = parse_edges(_read(args.edges)) if args.edges is not None else ()
    with _outputs(args.svg, args.json_out):
        diagram = diagram_for_score(
            score,
            clef=args.clef,
            orientation=args.orientation,
            connect_equal_y=args.connect_equal_y,
            extra_edges=extra,
        )
        if args.svg is not None:
            _write(emit_svg(diagram), args.svg)
        _write(emit_json(diagram), args.json_out)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_COMMANDS = {  # each command, its handler and its line in the full parser's help
    "encrypt": (lambda args: _cmd_crypt(args, True), "encrypt text read from --in or stdin"),
    "decrypt": (lambda args: _cmd_crypt(args, False), "decrypt text read from --in or stdin"),
    "attack": (_cmd_attack, "coincidence-index attack report (JSON)"),
    "analyze": (_cmd_analyze, "invariants of a configuration (JSON)"),
    "score-check": (_cmd_score_check, "validate a score DSL file"),
    "graph": (_cmd_graph, "note-point diagram (JSON, optionally SVG)"),
}


def _int(text: str) -> int:
    """An int flag's value: ASCII digits after an optional ``-``."""
    try:
        (value,) = ascii_ints([text.removeprefix("-")])
    except ValueError:
        import argparse

        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    return -value if text.startswith("-") else value


def _options(name: str) -> tuple:
    """The option table's rows for command ``name``, in the full parser's
    order: flag, dest, kind, default, required and help.  A kind is ``str``
    (text), ``_int``, ``bool`` (a store-true flag) or a tuple of choices; the
    flag ``score`` is the positional of score-check and graph."""
    if name in ("encrypt", "decrypt"):
        return (
            ("--system", "system", ("vigenere", "transposition"), None, True, None),
            ("--key", "key", str, None, True,
             "letters for vigenere, one-line permutation for transposition"),
            ("--in", "infile", str, None, False, "input file (default stdin)"),
            ("--strip", "strip", bool, False, False,
             "drop non-alphabet characters instead of rejecting them"),
        )
    if name == "attack":
        return (
            ("--ciphertext", "ciphertext", str, None, False,
             "ciphertext argument (default: --in or stdin)"),
            ("--in", "infile", str, None, False, "input file"),
            ("--max-keylen", "max_keylen", _int, 8, False, None),
            ("--keylen", "keylen", _int, None, False,
             "force recovery at this key length (default: top candidate)"),
            ("--top", "top", _int, 5, False, "key candidates to report"),
            ("--strip", "strip", bool, False, False, None),
            ("--out", "out", str, None, False, "write the report here instead of stdout"),
        )
    if name == "analyze":
        return (
            ("--config", "config", str, None, False, "polygon-per-line configuration file"),
            ("--ciphertext", "ciphertext", str, None, False, "ciphertext to split by --keylen"),
            ("--keylen", "keylen", _int, None, False, None),
            ("--score", "score", str, None, False, "score DSL file"),
            ("--lax", "lax", bool, False, False, "downgrade measure-sum errors"),
            ("--strip", "strip", bool, False, False, None),
            ("--out", "out", str, None, False, "write the report here instead of stdout"),
            ("--verify", "verify", bool, False, False,
             "re-check all bundled fixtures against their goldens"),
        )
    if name == "score-check":
        return (
            ("score", "score", str, None, True, None),
            ("--lax", "lax", bool, False, False, None),
        )
    from .diagram import ORIENTATIONS
    from .score import CLEFS

    return (
        ("score", "score", str, None, True, None),
        ("--clef", "clef", tuple(CLEFS), None, False, "override the score header clef"),
        ("--orientation", "orientation", ORIENTATIONS, "standard", False, None),
        ("--edges", "edges", str, None, False,
         "sidecar file of extra edge pairs, one 'i j' per line"),
        ("--connect-equal-y", "connect_equal_y", bool, False, False, None),
        ("--svg", "svg", str, None, False, "write an SVG rendering here"),
        ("--json", "json_out", str, None, False, "write the JSON diagram here instead of stdout"),
        ("--lax", "lax", bool, False, False, None),
    )


def _read_argv(argv) -> SimpleNamespace | None:
    """The full parser's namespace for ``argv`` when ``argv`` is a command
    and its plain arguments: exact option names, each followed by its value
    unless it is a store-true flag, and for score-check and graph one score.
    No value or score may start with ``-``, every int must pass ``_int``,
    every choice be in its tuple and every required option be present.  Any
    other ``argv``, the help, ``--``, ``--flag=value`` and abbreviations
    among them, gives None: it is the full parser's to read or to refuse."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    table = _options(argv[0])
    kinds = {flag: (dest, kind) for flag, dest, kind, _, _, _ in table}
    values = {dest: default for _, dest, _, default, _, _ in table}
    missing = {dest for _, dest, _, _, required, _ in table if required}
    positionals = [flag for flag in kinds if not flag.startswith("-")]
    words = iter(argv[1:])
    for word in words:
        if not word.startswith("-"):
            if not positionals:
                return None
            dest, kind = kinds[positionals.pop()]
        elif word not in kinds:
            return None
        else:
            dest, kind = kinds[word]
            if kind is bool:
                values[dest] = True
                continue
            word = next(words, "-")  # a missing value reads as a dash
            if word.startswith("-"):
                return None
        if kind is _int:
            try:
                word = _int(word)
            except Exception:  # _int's usage error, which argparse defines
                return None
        elif isinstance(kind, tuple) and word not in kind:
            return None
        values[dest] = word
        missing.discard(dest)
    if missing:
        return None
    func, _ = _COMMANDS[argv[0]]
    return SimpleNamespace(command=argv[0], **values, func=func)


def build_parser(argv=None):
    """The full ``argparse`` parser, built from the option table: it words
    the help and every usage error.  Given ``argv``, only the command that
    argparse runs, its first word not starting with ``-``, gets its rows."""
    import argparse

    class _Store(argparse.Action):
        """``store``, but ``--opt=--``, which argparse reads as [], lacks a value."""

        def __call__(self, parser, namespace, values, option_string=None):
            if values == []:
                raise argparse.ArgumentError(self, "expected one argument")
            setattr(namespace, self.dest, values)

    parser = argparse.ArgumentParser(prog="brauer-kit", description="Brauer configurations from "
                                     "ciphertexts and scores, classical ciphers, and note-point diagrams.")
    sub = parser.add_subparsers(dest="command", required=True)
    command = next((word for word in argv or () if not word.startswith("-")), None)
    for name, (func, line) in _COMMANDS.items():
        p = sub.add_parser(name, help=line)
        p.register("action", None, _Store)
        rows = _options(name) if argv is None or name == command else ()
        for flag, dest, kind, default, required, help in rows:
            if not flag.startswith("-"):
                p.add_argument(flag, help=help)
            elif kind is bool:
                p.add_argument(flag, dest=dest, action="store_true", help=help)
            else:
                choices = kind if isinstance(kind, tuple) else None
                p.add_argument(flag, dest=dest, type=None if choices else kind, choices=choices,
                               default=default, required=required, help=help)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv)
    if args is None:  # the full parser words the help or the usage error
        args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        _error("E_IO", str(exc))
        return 2
    except Exception as exc:
        if type(exc).__module__.startswith(f"{__package__}.") and hasattr(exc, "code"):
            _error(exc.code, str(exc))  # an error class of the package names its code
            return 2
        _error("E_INTERNAL", f"{type(exc).__name__}: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
