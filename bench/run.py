"""Benchmark of the brauer-kit CLI on three workloads.

    python3 bench/run.py --workload attack --seed 1 --seconds 25 --trace 0

Each workload runs its CLI command(s) in-process through
``brauer_kit.cli.main(argv)`` on a small, a medium and a large generated
input, reading input files and writing output files as a user's command
does.  Every output is checked by ``oracle.py``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` a separate traced run gives the per-layer ones.  The result
and the span file are also written under ``bench/out/``.  See
``bench/README.md`` for the workloads, the metrics and reference figures.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen  # bench/ is on sys.path as the script's directory
import oracle
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
MAX_KEYLEN = 20
SETUP_STARTS = 11  # interpreter starts timed for setup_s, after one discarded
CLOCK = time.perf_counter

SIZES = {
    "attack": (5_000, 20_000, 80_000),       # ciphertext letters
    "analyze-config": (250, 500, 1_000),     # polygons
    "score": (500, 1_000, 2_000),            # measures
}
SIZE_NAMES = ("small", "medium", "large")
# Calls of each size per round, so that each size takes about a third of
# the round's time.
REPS = {
    "attack": (16, 4, 1),
    "analyze-config": (8, 2, 1),
    "score": (8, 2, 1),
}

# Per-layer metrics of the traced run.
TIMED = (
    "cipher.vigenere_decrypt", "cipher.normalize",
    "coincidence.friedman_keylength", "coincidence.friedman_recover_key",
    "bridge.vigenere_to_config", "bridge.brauer_ioc",
    "brauer.invariants", "brauer.polygon_components", "brauer.parse_config",
    "score.parse_score", "score.score_to_config",
    "diagram.diagram_for_score", "diagram.emit_svg", "diagram.emit_json",
)
CALLS = (
    "cipher.vigenere_decrypt", "cipher.normalize", "coincidence.letter_counts",
    "bridge.vigenere_to_config", "brauer.build_quiver", "brauer.successor_sequence",
)
SLOPES = ("cli.main", "coincidence.friedman_recover_key", "brauer.invariants",
          "score.parse_score")
WORK = ("brauer.polygons", "brauer.vertices", "brauer.occurrences", "brauer.loops",
        "score.tokens", "score.measures", "diagram.points", "diagram.edges")


@dataclass
class Op:
    """One CLI command on one input, with the check of its outputs.

    ``check`` returns True when the outputs are right, False when they show
    the known rest-spanning dashed-edge fault, and raises
    ``oracle.OracleError`` when they are wrong in any other way."""

    argv: list[str]
    outputs: list[Path]
    check: Callable[[], bool]


@dataclass
class Case:
    """The operations of one input size; ``reps`` samples per round."""

    size: int
    reps: int
    ops: list[Op]


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, op: Op, rc: int) -> None:
        self.attempted += 1
        try:
            ok = rc == 0 and op.check()
        except Exception as exc:  # any error reading or checking the outputs
            self.errors.append(f"{' '.join(op.argv[:2])}: {exc}")
            ok = True  # a wrong answer is not a failure; it makes the run incorrect
        self.failed += not ok


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _read_json(path: Path):
    return json.loads(path.read_text())


def attack_ops(data: dict, stem: Path) -> list[Op]:
    src, out = stem.with_suffix(".txt"), stem.with_suffix(".json")
    src.write_text(data["text"])
    expected = oracle.expect_attack(data, MAX_KEYLEN)
    argv = ["attack", "--in", str(src), "--max-keylen", str(MAX_KEYLEN), "--out", str(out)]
    return [Op(argv, [out], lambda: oracle.check_attack(
        _read_json(out), expected, MAX_KEYLEN) or True)]


def config_ops(data: dict, stem: Path) -> list[Op]:
    src, out = stem.with_suffix(".cfg"), stem.with_suffix(".json")
    src.write_text(data["text"])
    expected = oracle.config_invariants(data["words"])
    argv = ["analyze", "--config", str(src), "--out", str(out)]
    return [Op(argv, [out], lambda: oracle.check_analyze(_read_json(out), expected) or True)]


def score_ops(data: dict, stem: Path) -> list[Op]:
    src = stem.with_suffix(".bsc")
    report, svg, diagram = (stem.with_suffix(s) for s in (".inv.json", ".svg", ".graph.json"))
    src.write_text(data["text"])
    inv = oracle.config_invariants(data["words"])
    drawing = oracle.expect_graph(data["words"])
    return [
        Op(["analyze", "--score", str(src), "--out", str(report)], [report],
           lambda: oracle.check_analyze(_read_json(report), inv) or True),
        Op(["graph", str(src), "--svg", str(svg), "--json", str(diagram)], [svg, diagram],
           lambda: oracle.check_graph(_read_json(diagram), svg.read_text(), drawing)),
    ]


WORKLOADS = {
    "attack": (gen.attack_input, attack_ops),
    "analyze-config": (gen.config_input, config_ops),
    "score": (gen.score_input, score_ops),
}


def build_cases(workload: str, seed: int, work: Path) -> list[Case]:
    make, ops = WORKLOADS[workload]
    return [
        Case(size, reps, ops(make(seed, size), work / name))
        for name, size, reps in zip(SIZE_NAMES, SIZES[workload], REPS[workload])
    ]


# ---------------------------------------------------------------------------
# Timing
# ---------------------------------------------------------------------------

def run_case(cli, case: Case, tally: Tally) -> float:
    """Run the case's commands once after a collection; return their time."""
    gc.collect()
    elapsed = 0.0
    for op in case.ops:
        start = CLOCK()
        rc = cli.main(op.argv)
        elapsed += CLOCK() - start
        tally.record(op, rc)
    return elapsed


def schedule(cases: list[Case]) -> list[Case]:
    """One round: each case ``reps`` times, spread evenly over the round."""
    top = max(c.reps for c in cases)
    return [c for i in range(top) for c in cases if i % (top // c.reps) == 0]


def timed_rounds(cli, cases: list[Case], seconds: float, tally: Tally) -> dict:
    """Whole rounds until the time is up; each round starts one place later
    in the schedule, so machine drift meets every size alike."""
    order = schedule(cases)
    samples: dict = {c.size: [] for c in cases}
    start = CLOCK()
    rounds = 0
    while True:
        k = rounds % len(order)
        for case in order[k:] + order[:k]:
            samples[case.size].append(run_case(cli, case, tally))
        rounds += 1
        elapsed = CLOCK() - start
        if elapsed + elapsed / rounds / 2 >= seconds:
            return samples


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter that imports the CLI."""
    cmd = [sys.executable, "-c", "import brauer_kit.cli"]
    times = []
    for _ in range(SETUP_STARTS + 1):
        start = CLOCK()
        subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True)
        times.append(CLOCK() - start)
    return statistics.median(times[1:])


RSS_CHILD = (
    "import json, sys\n"
    "from brauer_kit.cli import main\n"
    "sys.exit(max([main(argv) for argv in json.loads(sys.argv[1])]))\n"
)


def peak_rss_mb(case: Case, tally: Tally) -> float:
    """Peak resident memory of one fresh process running the case's commands."""
    argvs = json.dumps([op.argv for op in case.ops])
    proc = subprocess.Popen([sys.executable, "-c", RSS_CHILD, argvs], env=child_env(),
                            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    for op in case.ops:
        tally.record(op, proc.returncode)
    return usage.ru_maxrss / 1024  # KiB on Linux


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def traced_case(cli, tracer, case: Case, tally: Tally) -> dict:
    tracer.reset()
    tracer.install()
    try:
        elapsed = run_case(cli, case, tally)
    finally:
        tracer.remove()
    spans = [list(s) for s in tracer.spans]
    summary = tracing.summarize(spans)
    total = summary["total"]
    if abs(sum(summary["self"].values()) - total) > 1e-6 * max(total, 1.0):
        raise RuntimeError("module self times do not add up to the command time")
    return {
        "elapsed": elapsed, "spans": spans, "summary": summary,
        "counts": {**tracer.calls, **tracer.work,
                   "cli.out_bytes": sum(p.stat().st_size for op in case.ops
                                        for p in op.outputs)},
    }


def _median_sample(samples: list[dict]) -> dict:
    ranked = sorted(samples, key=lambda s: s["elapsed"])
    return ranked[(len(ranked) - 1) // 2]


def traced_rounds(cli, cases: list[Case], seconds: float, tally: Tally):
    """Rounds of a traced medium run (for slopes) and a traced and an
    untraced large run, side by side, until the time is up.  The overhead
    is the median over rounds of traced minus untraced large time."""
    tracer = tracing.Tracer()
    medium, large = cases[1], cases[2]
    traced_m, traced_l, overheads = [], [], []
    start = CLOCK()
    rounds = 0
    while True:
        traced_m.append(traced_case(cli, tracer, medium, tally))
        if rounds % 2 == 0:
            plain = run_case(cli, large, tally)
        traced_l.append(traced_case(cli, tracer, large, tally))
        if rounds % 2 == 1:
            plain = run_case(cli, large, tally)
        overheads.append(traced_l[-1]["elapsed"] - plain)
        rounds += 1
        elapsed = CLOCK() - start
        if elapsed + elapsed / rounds / 2 >= seconds:
            break
    for runs in (traced_m, traced_l):
        if any(r["counts"] != runs[0]["counts"] for r in runs):
            raise RuntimeError("traced counts differ between runs of one input")
    return statistics.median(overheads), _median_sample(traced_m), _median_sample(traced_l)


def _slope(t_medium: float, t_large: float, ratio: float) -> float:
    if t_medium <= 0 or t_large <= 0:
        return 0.0
    return math.log(t_large / t_medium) / math.log(ratio)


def layer_metrics(overhead: float, medium: dict, large: dict, ratio: float) -> dict:
    s = large["summary"]
    counts = large["counts"]
    metrics = {}
    for module in tracing.MODULES:
        metrics[f"{module}.self_s"] = (s["self"].get(module, 0.0), "s")
    for name in TIMED:
        metrics[f"{name}_s"] = (s["inclusive"].get(name, 0.0), "s")
    for name in CALLS:
        metrics[f"{name}_calls"] = (counts.get(name, 0), "count")
    for name in WORK:
        metrics[name] = (counts.get(name, 0), "count")
    metrics["cli.out_bytes"] = (counts["cli.out_bytes"], "B")
    for name in SLOPES:
        metrics[f"{name}_slope"] = (_slope(medium["summary"]["inclusive"].get(name, 0.0),
                                           s["inclusive"].get(name, 0.0), ratio), "1")
    for module in tracing.MODULES:
        path = SRC / tracing.PACKAGE / f"{module}.py"
        metrics[f"{module}.src_lines"] = (len(path.read_text().splitlines()), "lines")
    metrics["trace.command_s"] = (s["total"], "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, traced: bool, work: Path) -> dict:
    sys.path.insert(0, str(SRC))
    from brauer_kit import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported {cli.__file__}, not the checkout's src/")
    oracle.self_test(SRC / tracing.PACKAGE / "fixtures")
    cases = build_cases(workload, seed, work)
    tally = Tally()
    metrics: dict = {}
    if not traced:
        metrics["setup_s"] = (setup_seconds(), "s")
    for case in cases:  # one discarded warm-up call per size
        run_case(cli, case, tally)
    if traced:
        overhead, medium, large = traced_rounds(cli, cases, seconds, tally)
        ratio = cases[2].size / cases[1].size
        metrics.update(layer_metrics(overhead, medium, large, ratio))
        spans = {"workload": workload, "seed": seed, "fields": ["name", "start", "end", "parent"],
                 "medium": medium["spans"], "large": large["spans"]}
        (OUT / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(spans))
    else:
        samples = timed_rounds(cli, cases, seconds, tally)
        for name, case in zip(SIZE_NAMES, cases):
            metrics[f"{name}_s"] = (statistics.fmean(samples[case.size]), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(cases[2], tally), "MB")
    for error in tally.errors[:5]:
        print(f"oracle: {error}", file=sys.stderr)
    return {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / tracing.PACKAGE / "cli.py").is_file():
        print(f"bench: no program source at {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:>14.6g} {metric['unit']}")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
