"""Smoke test of the benchmark harness under ``bench/``: the traced run of
each workload's small case stays correct, so a change to a public name that
the tracer or the oracle relies on shows here and not only in ``--trace 1``."""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import run  # noqa: E402
import tracing  # noqa: E402

from brauer_kit import cipher, cli  # noqa: E402


def _patchable():
    """Every attribute ``Tracer.install`` may replace, with its value."""
    owners = [importlib.import_module(f"{tracing.PACKAGE}.{m}") for m in tracing.MODULES]
    state = {(owner.__name__, attr): obj for owner in owners for attr, obj in vars(owner).items()}
    state[("Alphabet", "normalize")] = vars(cipher.Alphabet)["normalize"]
    return state


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_small_case_passes_its_oracle(workload, tmp_path):
    case = run.build_cases(workload, 7, tmp_path)[0]
    before = _patchable()
    tracer = tracing.Tracer()
    tally = run.Tally()
    tracer.install()
    try:
        run.run_case(cli, case, tally)
    finally:
        tracer.remove()
    assert (tally.attempted, tally.failed, tally.errors) == (len(case.ops), 0, [])
    assert tracer.calls["cli.main"] == len(case.ops)
    assert _patchable() == before
