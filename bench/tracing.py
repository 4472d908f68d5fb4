"""Spans and counts around the public functions of the seven modules.

``Tracer.install`` replaces each public function where ``cli`` and the other
modules look it up (every module attribute bound to it, plus
``Alphabet.normalize`` on the class), so the spans follow the path the code
actually takes.  Each span records its name, start, end and parent; spans
stay in memory until the benchmark writes them out.  Work counts are taken
at the same wrappers.  ``Tracer.remove`` puts the original functions back.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter

MODULES = ("cli", "cipher", "coincidence", "bridge", "brauer", "score", "diagram")
PACKAGE = "brauer_kit"


def _invariants_work(args, result) -> dict:
    config = args[0]
    return {
        "brauer.polygons": len(config.polygons),
        "brauer.occurrences": sum(len(p.word) for p in config.polygons),
        "brauer.vertices": result.vertex_count,
        "brauer.loops": result.loops,
    }


def _parse_score_work(args, result) -> dict:
    # README: DSL tokens are whitespace-separated
    return {"score.tokens": len(args[0].split()), "score.measures": len(result.measures)}


def _diagram_work(args, result) -> dict:
    return {"diagram.points": len(result.points), "diagram.edges": len(result.edges)}


WORK = {
    "brauer.invariants": _invariants_work,
    "score.parse_score": _parse_score_work,
    "diagram.diagram_for_score": _diagram_work,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.calls: Counter = Counter()
        self.work: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.calls.clear()
        self.work.clear()

    def _wrap(self, fn, name: str):
        spans, stack, calls, work = self.spans, self._stack, self.calls, self.work
        count_work = WORK.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            calls[name] += 1
            if count_work is not None:
                work.update(count_work(args, result))
            return result

        return traced

    def install(self) -> None:
        wrappers: dict = {}
        for short in MODULES:
            module = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith(PACKAGE + ".") or home not in MODULES:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, f"{home}.{obj.__name__}")
                self._saved.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])
        alphabet = importlib.import_module(f"{PACKAGE}.cipher").Alphabet
        self._saved.append((alphabet, "normalize", alphabet.normalize))
        alphabet.normalize = self._wrap(alphabet.normalize, "cipher.normalize")

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def summarize(spans: list[list]) -> dict:
    """Root time, per-module self time and per-function inclusive time.

    A span's self time is its duration minus its children's; summed over
    every span this telescopes to the root spans' total.  A function's
    inclusive time counts only its outermost spans.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s: Counter = Counter()
    inclusive: Counter = Counter()
    total = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        self_s[name.partition(".")[0]] += duration - child_time[i]
        if parent < 0:
            total += duration
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            inclusive[name] += duration
    return {"total": total, "self": self_s, "inclusive": inclusive}
