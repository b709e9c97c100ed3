"""Tests of the benchmark itself (not part of the library's test suite).

Run from the repository root; the traced runs take a few minutes:

    PYTHONPATH=src:perfbench python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cig.iso
import tracing

HERE = Path(__file__).resolve().parent


def _traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["ci_sweep", "quotient_cert", "wreath_aut"])
def test_counts_repeat_and_traced_outputs_pass_the_check(workload):
    seed = 7  # not 0: the relabelled inputs are exercised too
    runs = [_traced_run(workload, seed) for _ in range(2)]
    counts = [
        {name: m["value"] for name, m in run["metrics"].items() if m["unit"] == "count"}
        for run in runs
    ]
    for run in runs:
        assert run["correct"] and run["failed"] == 0
    assert counts[0] == counts[1]
    assert counts[0]["iso.find_isomorphism.calls"] + counts[0]["iso.automorphism_group_of.calls"] > 0


def test_absent_target_is_reported_and_originals_restored(monkeypatch):
    monkeypatch.setattr(
        tracing, "TARGETS",
        tracing.TARGETS + (("iso.renamed", "cig.iso", "no_such_function", "iso"),),
    )
    original = cig.iso.find_isomorphism
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cig.iso.find_isomorphism is not original
        d = cig.Digraph.complete(3)
        assert cig.iso.find_isomorphism(d, d) is not None
    finally:
        tracer.uninstall()
    assert tracer.absent == ["iso.renamed"]
    assert cig.iso.find_isomorphism is original
    assert tracer.counts["iso.find_isomorphism.calls"] == 1
    assert tracer.counts["iso.find_isomorphism.hits"] == 1
    assert tracer.counts["kernels.iso_first.calls"] == 1


def test_self_time_excludes_wrapped_children():
    tracer = tracing.Tracer()
    inner = tracer._wrap("iso.inner", lambda: time.sleep(0.02))

    def outer():
        time.sleep(0.01)
        inner()

    tracer._wrap("ci.outer", outer)()
    times = tracer.times()
    assert times["ci.outer.busy_s"] >= times["iso.inner.busy_s"] >= 0.02
    assert 0.01 <= times["ci.self_s"] < 0.02
    assert [row[2] for row in tracer.span_records()] == [-1, 0]
