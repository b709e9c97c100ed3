"""The library calls that `perfbench/` makes still exist and still work.

A rename or signature change in `cig` would otherwise first show up as
failed jobs in a benchmark run.  This builds each workload, runs and checks
its first job, and calls the `pin.py` helpers that reach into `cig.groups`.
"""

from pathlib import Path

import pytest

from cig.groups import FiniteGroup

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import pin
        import workloads

        yield pin, workloads


@pytest.mark.parametrize("workload", ["ci_sweep", "quotient_cert", "wreath_aut"])
def test_first_job_runs_and_checks(perfbench, workload):
    _, workloads = perfbench
    job = workloads.build(workload, 1)[0]
    given = job.inputs(0)
    output = job.run(given)
    assert job.check(given, output) is None
    job.counts(output)


def test_pin_helpers(perfbench):
    pin, _ = perfbench
    z6 = FiniteGroup.cyclic(6)
    kernel = frozenset({0, 3})
    assert pin._variants(z6, kernel, frozenset({1}), frozenset({2})) == [
        ([1], [2]),
        ([2], [1]),
    ]
    z12 = FiniteGroup.cyclic(12)
    qmap = z12.quotient(frozenset({0, 6}))
    assert pin._aut_estimate(z12, qmap, frozenset({1})) == 384
