"""Command-line front door.

Subcommands: ``encrypt``/``decrypt`` stream classical-cipher text,
``attack`` emits a JSON cryptanalysis report, ``analyze`` emits the
invariants of a configuration read from a polygon file, a ciphertext split
or a score, ``score-check`` validates DSL files, ``graph`` renders
note-point diagrams to JSON and SVG.

Exit codes: 0 success, 2 input/validation error, 1 internal error.  Errors
print to stderr as ``brauer-kit: error[CODE]: message``.  Set
``BRAUER_KIT_COLOR=never`` to disable coloring (default ``auto``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources

from .brauer import (
    ConfigError,
    invariants,
    invariants_from_histogram,
    parse_config,
)
from .bridge import brauer_ioc, vigenere_to_config
from .cipher import (
    BlockPermutation,
    CipherError,
    DEFAULT_ALPHABET,
    VigenereKey,
    transposition_decrypt,
    transposition_encrypt,
    vigenere_decrypt,
    vigenere_encrypt,
)
from .coincidence import friedman_keylength, friedman_recover_key, index_of_coincidence
from .diagram import DiagramError, diagram_for_score, emit_json, emit_svg, parse_edges
from .score import ScoreError, ScoreParseError, parse_score, score_to_config

SCHEMA = "1"

_ERROR_CODES = (
    (ScoreParseError, "E_SCORE_PARSE"),
    (ScoreError, "E_SCORE"),
    (ConfigError, "E_CONFIG"),
    (CipherError, "E_CIPHER"),
    (DiagramError, "E_DIAGRAM"),
    (OSError, "E_IO"),
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


def _emit(*outputs: tuple[str, str | None]) -> None:
    """Each ``(text, path)`` to the file at ``path``, or to stdout for None.
    Every file is opened to append (no byte changes) before any is written,
    and a failed open removes the files this call created.  ``open`` names a
    path as given, the empty one too, where ``Path("")`` would be ``.``."""
    created: list[str] = []
    try:
        for _, path in outputs:
            if path is not None:
                new = not os.path.lexists(path)
                open(path, "a").close()
                if new:
                    created.append(path)
    except OSError:
        for path in created:
            os.remove(path)
        raise
    for text, path in outputs:
        if path is None:
            sys.stdout.write(text)
        else:
            with open(path, "w") as f:
                f.write(text)


def _read(path: str | None) -> str:
    """The UTF-8 text of the file at ``path``, or of stdin for None.  Input
    that is not valid UTF-8 is an ``E_IO`` error naming the file or
    ``<stdin>``, whatever the locale."""
    try:
        if path is not None:
            with open(path, encoding="utf-8") as f:
                return f.read()
        if hasattr(sys.stdin, "reconfigure"):  # a stream that decodes bytes
            sys.stdin.reconfigure(encoding="utf-8", errors="strict")
        return sys.stdin.read()
    except UnicodeDecodeError as exc:
        raise OSError(f"{'<stdin>' if path is None else path}: {exc}") from None


def _round(value) -> float:
    return round(float(value), 6)


# ---------------------------------------------------------------------------
# encrypt / decrypt
# ---------------------------------------------------------------------------

def _cmd_crypt(args, encrypting: bool) -> int:
    text = DEFAULT_ALPHABET.normalize(_read(args.infile), strip=args.strip)
    if args.system == "vigenere":
        key = VigenereKey.from_text(args.key)
        out = vigenere_encrypt(text, key) if encrypting else vigenere_decrypt(text, key)
    else:
        perm = BlockPermutation.from_text(args.key)
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
    if args.ciphertext is not None and args.infile is not None:
        raise CipherError("attack reads --ciphertext or --in, not both")
    if args.keylen is not None and args.keylen < 1:
        raise CipherError("--keylen must be >= 1")
    if args.top < 1:
        raise CipherError("--top must be >= 1")
    text = args.ciphertext if args.ciphertext is not None else _read(args.infile)
    cipher = DEFAULT_ALPHABET.normalize(text, strip=args.strip)
    candidates = friedman_keylength(cipher, args.max_keylen)
    m = candidates[0].m if args.keylen is None else args.keylen
    recovery = friedman_recover_key(cipher, m)
    inv = invariants(vigenere_to_config(cipher, m))
    report = {
        "schema": SCHEMA,
        "length": len(cipher),
        "ioc": _round(index_of_coincidence(cipher)),
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
    _emit((json.dumps(report, indent=2) + "\n", args.out))
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
        if args.keylen is None:
            raise ConfigError("--ciphertext requires --keylen")
        if args.keylen < 1:
            raise CipherError("--keylen must be >= 1")
        cipher = DEFAULT_ALPHABET.normalize(args.ciphertext, strip=args.strip)
        config = vigenere_to_config(cipher, args.keylen)
    elif args.config is not None:
        config = parse_config(_read(args.config))
    else:
        score = parse_score(_read(args.score), strict=not args.lax)
        for warning in score.warnings:
            print(f"brauer-kit: warning: {warning}", file=sys.stderr)
        config = score_to_config(score)
    _emit((_invariants_payload(invariants(config)), args.out))
    return 0


# ---------------------------------------------------------------------------
# verify (golden fixtures)
# ---------------------------------------------------------------------------

def _verify_checks():
    yield (
        "vigenere-encrypt",
        lambda: vigenere_encrypt(_REFERENCE_PLAINTEXT, VigenereKey.from_text(_REFERENCE_KEY)),
        _REFERENCE_CIPHERTEXT,
    )

    def split_dims():
        inv = invariants(vigenere_to_config(_REFERENCE_CIPHERTEXT, 4))
        return (inv.dim_lambda, inv.dim_center, inv.loops)

    yield ("vigenere-split-invariants", split_dims, (35, 14, 9))

    fixture_dir = resources.files("brauer_kit") / "fixtures"
    for stem in ("slym", "canon_a6", "canon_crab", "canon_qi"):
        def score_payload(stem=stem):
            score = parse_score((fixture_dir / f"{stem}.bsc").read_text(), strict=False)
            return _invariants_payload(invariants(score_to_config(score)))

        golden = (fixture_dir / f"{stem}.invariants.json").read_text()
        yield (f"score-{stem}", score_payload, golden)

    for stem in ("canon_crab", "canon_qi"):
        def hist_dims(stem=stem):
            data = json.loads((fixture_dir / f"{stem}.hist.json").read_text())
            inv = invariants_from_histogram(
                data["polygons"], data["valencyHistogram"], data["loops"]
            )
            return {"dimLambda": inv.dim_lambda, "dimCenter": inv.dim_center}

        expected = json.loads((fixture_dir / f"{stem}.hist.json").read_text())["expected"]
        yield (f"histogram-{stem}", hist_dims, expected)


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
            print(f"{_paint('FAIL', '31', sys.stdout)} {name}: got {actual!r}, want {expected!r}")
    return 0 if failures == 0 else 2


# ---------------------------------------------------------------------------
# score-check
# ---------------------------------------------------------------------------

def _cmd_score_check(args) -> int:
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
    score = parse_score(_read(args.score), strict=not args.lax)
    extra = parse_edges(_read(args.edges)) if args.edges is not None else ()
    diagram = diagram_for_score(
        score,
        clef=args.clef,
        orientation=args.orientation,
        connect_equal_y=args.connect_equal_y,
        extra_edges=extra,
    )
    svg = [(emit_svg(diagram), args.svg)] if args.svg is not None else []
    _emit(*svg, (emit_json(diagram), args.json_out))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brauer-kit",
        description="Brauer configurations from ciphertexts and scores, "
        "classical ciphers, and note-point diagrams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, encrypting in (("encrypt", True), ("decrypt", False)):
        p = sub.add_parser(name, help=f"{name} text read from --in or stdin")
        p.add_argument("--system", choices=("vigenere", "transposition"), required=True)
        p.add_argument("--key", required=True,
                       help="letters for vigenere, one-line permutation for transposition")
        p.add_argument("--in", dest="infile", help="input file (default stdin)")
        p.add_argument("--strip", action="store_true",
                       help="drop non-alphabet characters instead of rejecting them")
        p.set_defaults(func=lambda a, e=encrypting: _cmd_crypt(a, e))

    p = sub.add_parser("attack", help="coincidence-index attack report (JSON)")
    p.add_argument("--ciphertext", help="ciphertext argument (default: --in or stdin)")
    p.add_argument("--in", dest="infile", help="input file")
    p.add_argument("--max-keylen", type=int, default=8)
    p.add_argument("--keylen", type=int, default=None,
                   help="force recovery at this key length (default: top candidate)")
    p.add_argument("--top", type=int, default=5, help="key candidates to report")
    p.add_argument("--strip", action="store_true")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("analyze", help="invariants of a configuration (JSON)")
    p.add_argument("--config", help="polygon-per-line configuration file")
    p.add_argument("--ciphertext", help="ciphertext to split by --keylen")
    p.add_argument("--keylen", type=int, default=None)
    p.add_argument("--score", help="score DSL file")
    p.add_argument("--lax", action="store_true", help="downgrade measure-sum errors")
    p.add_argument("--strip", action="store_true")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--verify", action="store_true",
                   help="re-check all bundled fixtures against their goldens")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("score-check", help="validate a score DSL file")
    p.add_argument("score")
    p.add_argument("--lax", action="store_true")
    p.set_defaults(func=_cmd_score_check)

    p = sub.add_parser("graph", help="note-point diagram (JSON, optionally SVG)")
    p.add_argument("score")
    p.add_argument("--clef", choices=("treble", "bass", "alto"), default=None,
                   help="override the score header clef")
    p.add_argument("--orientation", choices=("standard", "reversed"), default="standard")
    p.add_argument("--edges", help="sidecar file of extra edge pairs, one 'i j' per line")
    p.add_argument("--connect-equal-y", action="store_true")
    p.add_argument("--svg", help="write an SVG rendering here")
    p.add_argument("--json", dest="json_out", help="write the JSON diagram here instead of stdout")
    p.add_argument("--lax", action="store_true")
    p.set_defaults(func=_cmd_graph)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(cls for cls, _ in _ERROR_CODES) as exc:
        code = next(code for cls, code in _ERROR_CODES if isinstance(exc, cls))
        _error(code, str(exc))
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        _error("E_INTERNAL", f"{type(exc).__name__}: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
