"""The library calls that `perfbench/` makes still exist and still work.

A rename or signature change in `cig` would otherwise first show up as
failed jobs in a benchmark run.  This builds each workload, runs and checks
its first job, untraced and under `tracing.Tracer`, and calls the `pin.py`
helpers that reach into `cig.groups`.  The tracer reads some arguments by
position (`iso_backtrack`'s sixth), so a kernel signature change that
breaks it fails here.  Every pinned certificate variant is recomputed and
compared with its pinned `to_json`.
"""

import json
from pathlib import Path

import pytest

from cig.ci import quotient_ci_certificate
from cig.groups import FiniteGroup, parse_group_spec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import pin
        import tracing
        import workloads

        yield pin, workloads, tracing


@pytest.mark.parametrize("workload", ["ci_sweep", "quotient_cert", "wreath_aut"])
def test_first_job_runs_and_checks(perfbench, workload):
    _, workloads, _ = perfbench
    job = workloads.build(workload, 1)[0]
    given = job.inputs(0)
    output = job.run(given)
    assert job.check(given, output) is None
    job.counts(output)


# Targets that `tracing.py` still names although the library deleted them.
DELETED_TARGETS = {"kernels.perm_closure", "perms.from_elements", "perms.block_systems"}


def test_first_jobs_run_and_check_under_the_tracer(perfbench):
    _, workloads, tracing = perfbench
    tracer = tracing.Tracer()
    tracer.install()
    counts = {}
    try:
        for workload in ("ci_sweep", "quotient_cert", "wreath_aut"):
            job = workloads.build(workload, 1)[0]
            given = job.inputs(0)
            tracer.reset()
            output = job.run(given)
            assert job.check(given, output) is None, workload
            counts[workload] = dict(tracer.counts)
    finally:
        tracer.uninstall()
    assert set(tracer.absent) <= DELETED_TARGETS, tracer.absent
    assert counts["ci_sweep"].get("kernels.iso_first.calls", 0) > 0
    assert counts["quotient_cert"].get("kernels.twin_labels.calls", 0) > 0
    assert counts["quotient_cert"].get("ci.verify_lift_structure.calls", 0) > 0


def test_pin_helpers(perfbench):
    pin, _, _ = perfbench
    z6 = FiniteGroup.cyclic(6)
    kernel = frozenset({0, 3})
    assert pin._variants(z6, kernel, frozenset({1}), frozenset({2})) == [
        ([1], [2]),
        ([2], [1]),
    ]
    z12 = FiniteGroup.cyclic(12)
    qmap = z12.quotient(frozenset({0, 6}))
    assert pin._aut_estimate(z12, qmap, frozenset({1})) == 384


def test_every_pinned_certificate_keeps_its_bytes():
    # Read-only: expected.json is written by pin.py, never by a test.
    pinned = json.loads((PERFBENCH / "expected.json").read_text())["quotient_cert"]
    checked = 0
    for entry in pinned["pool"]:
        group = parse_group_spec(entry["group"])
        kernel = frozenset(entry["kernel"])
        for s1, s2, blob in entry["variants"]:
            cert = quotient_ci_certificate(group, kernel, s1, s2)
            assert cert.to_json() == blob, (entry["group"], entry["kernel"], s1, s2)
            checked += 1
    assert checked == 344
