"""One workload in one fresh, single-threaded process.

Started by ``run.py``.  Prints ``ready`` once the set-up is done (imports and
first inputs built), then, unless ``--setup-only``, measures for about
``--seconds``, checks every output, and prints one JSON object as its last
line.

Without tracing, every job runs once and is then repeated on fresh inputs
(new relabelling or variant) while time remains; each job's time is the
median of its repetitions.  With ``--trace 1`` one untraced pass (the
reference for the tracing overhead) is followed by traced passes on the
same inputs, so that every count repeats exactly.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import statistics
import sys
import time
import traceback

import cig
import tracing
import workloads

# Per-layer metrics: (name, unit).  Counts come from the first traced pass
# and must repeat in every pass; times are medians over traced passes.
PER_LAYER = (
    ("ci.pairs", "count"), ("ci.self_s", "s"),
    ("iso.find_isomorphism.calls", "count"), ("iso.find_isomorphism.hits", "count"),
    ("iso.find_isomorphism.self_s", "s"),
    ("iso.refine.calls", "count"), ("iso.refine.busy_s", "s"),
    ("iso.automorphism_group_of.calls", "count"), ("iso.automorphism_group_of.self_s", "s"),
    ("kernels.iso_first.calls", "count"), ("kernels.iso_first.hits", "count"),
    ("kernels.iso_first.busy_s", "s"),
    ("kernels.iso_all.calls", "count"), ("kernels.iso_all.leaves", "count"),
    ("kernels.iso_all.busy_s", "s"),
    ("kernels.perm_closure.calls", "count"), ("kernels.perm_closure.elements", "count"),
    ("kernels.perm_closure.busy_s", "s"),
    ("kernels.twin_labels.calls", "count"), ("kernels.twin_labels.busy_s", "s"),
    ("groups.automorphisms.calls", "count"), ("groups.automorphisms.busy_s", "s"),
    ("groups.automorphic_image_search.calls", "count"),
    ("groups.automorphic_image_search.hits", "count"),
    ("groups.automorphic_image_search.busy_s", "s"),
    ("groups.quotient.calls", "count"), ("groups.quotient.busy_s", "s"),
    ("perms.from_elements.calls", "count"), ("perms.from_elements.elements", "count"),
    ("perms.from_elements.busy_s", "s"),
    ("perms.block_systems.calls", "count"), ("perms.block_systems.busy_s", "s"),
    ("perms.point_partition.calls", "count"), ("perms.point_partition.busy_s", "s"),
    ("digraphs.cayley.calls", "count"), ("digraphs.cayley.busy_s", "s"),
    ("digraphs.wreath_product.calls", "count"), ("digraphs.wreath_product.busy_s", "s"),
    ("digraphs.decompose.calls", "count"), ("digraphs.decompose.busy_s", "s"),
    ("trace.overhead_s", "s"),
)


MAX_REPS = 15
# Repetitions always get at least this share of --seconds, so that the short
# jobs of a workload whose first pass alone outlasts --seconds are repeated too.
REPEAT_SHARE = 0.2

# Machine-speed probe.  On a shared machine the speed of pure-Python code
# drifts by up to 1.7x in phases of a fraction of a second to minutes, more
# than any change worth measuring.  Every timed job is bracketed by two runs
# of a fixed loop that uses no cig code, and the end-to-end times are
# reported as normalised seconds: measured seconds * REF_NOMINAL_S / mean of
# the two probe times, i.e. seconds on a machine where the probe takes
# REF_NOMINAL_S (its usual time on a 2-core shared VM with Python 3.11).
# Raw seconds go to the result file as well.
REF_NOMINAL_S = 0.001
_REF_N = 19
_REF_ADJ = tuple(
    (1 << (v + 1) % _REF_N) | (1 << (v - 1) % _REF_N)
    | (1 << (v + 5) % _REF_N) | (1 << (v - 5) % _REF_N)
    for v in range(_REF_N)
)


def _independent_sets(candidates: int) -> int:
    if not candidates:
        return 1
    v = (candidates & -candidates).bit_length() - 1
    rest = candidates & ~(1 << v)
    return _independent_sets(rest) + _independent_sets(rest & ~_REF_ADJ[v])


def probe_s() -> float:
    """Seconds the fixed probe loop takes right now."""
    start = time.perf_counter()
    _independent_sets((1 << _REF_N) - 1)
    return time.perf_counter() - start


def run_job(job, given, tracer=None, index=-1) -> tuple[float, str | None, dict]:
    """Run one job; its time excludes the output check."""
    gc.collect()
    if tracer is not None:
        tracer.job = index
    start = time.perf_counter()
    try:
        output = job.run(given)
    except Exception:  # a failed job counts against error_rate
        return time.perf_counter() - start, traceback.format_exc(limit=3), {}
    elapsed = time.perf_counter() - start
    try:
        return elapsed, job.check(given, output), job.counts(output)
    except Exception:
        return elapsed, traceback.format_exc(limit=3), {}


def run_pass(jobs, inputs, tracer=None) -> dict:
    """Every job once, on the given inputs."""
    times, errors, counts = [], [], {}
    for index, (job, given) in enumerate(zip(jobs, inputs)):
        elapsed, problem, job_counts = run_job(job, given, tracer, index)
        times.append(elapsed)
        if problem is not None:
            errors.append(f"{job.id}: {problem}")
        for key, value in job_counts.items():
            counts[key] = counts.get(key, 0) + value
    return {"wall": sum(times), "times": times, "errors": errors, "counts": counts}


def plan_reps(first: list[float], budget: float) -> list[int]:
    """Repetitions per job that fit the budget, judged by the first pass:
    each extra repetition goes to the job with the fewest so far, cheapest
    first, up to MAX_REPS.  Long jobs, whose cost depends most on the
    relabelling, get as many as the budget allows; short ones fill the rest."""
    reps = [1] * len(first)
    while True:
        fits = [j for j, t in enumerate(first) if reps[j] < MAX_REPS and t <= budget]
        if not fits:
            return reps
        j = min(fits, key=lambda j: (reps[j], first[j]))
        reps[j] += 1
        budget -= first[j]


def run_repeated(jobs, inputs, seconds: float) -> tuple[list[list[tuple]], list[str]]:
    """A first pass over all jobs, then the planned repetitions on fresh
    inputs, in passes, so that the repetitions of a job are spread over the
    run.  Returns (seconds, probe before, probe after) per execution."""
    samples: list[list[tuple]] = [[] for _ in jobs]
    errors: list[str] = []

    def execute(j, given):
        before = probe_s()
        elapsed, problem, _ = run_job(jobs[j], given)
        samples[j].append((elapsed, before, probe_s()))
        if problem is not None:
            errors.append(f"{jobs[j].id}: {problem}")

    start = time.perf_counter()
    for j, given in enumerate(inputs):
        execute(j, given)
    budget = max(seconds - (time.perf_counter() - start), REPEAT_SHARE * seconds)
    deadline = time.perf_counter() + budget
    first = [s[0][0] for s in samples]
    reps = plan_reps(first, budget)
    for rep in range(1, max(reps)):
        for j, job in enumerate(jobs):
            median = statistics.median(t for t, _, _ in samples[j])
            if reps[j] > rep and median <= deadline - time.perf_counter():
                execute(j, job.inputs(rep))
    return samples, errors


def normalise(samples: list[list[tuple]]) -> list[list[float]]:
    return [[t * REF_NOMINAL_S * 2 / (a + b) for t, a, b in s] for s in samples]


def job_stats(times: list[list[float]]) -> dict:
    """Each job's time is its median over repetitions.  ``wall_s`` is their
    sum: the time to finish the job list once.  The tail is the highest
    percentile that leaves at least ten jobs above it: the 11th-largest job
    time, at percentile 100*(n-10)/n."""
    job_times = [statistics.median(ts) for ts in times]
    per_job = sorted(job_times)
    n = len(per_job)
    tail_index = max(0, n - 11)
    return {
        "wall_s": sum(job_times),
        "job_p50_s": statistics.median(per_job),
        "job_tail_s": per_job[tail_index],
        "job_tail_percentile": 100.0 * (tail_index + 1) / n,
        "jobs_above_tail": n - 1 - tail_index,
        "job_samples": n,
        "job_times": job_times,
        "job_reps": [len(ts) for ts in times],
    }


def run_traced_passes(jobs, inputs, seconds: float, tracer) -> list[dict]:
    """Traced passes on the same inputs: at least one, another only if it
    should end within ``seconds``."""
    passes = []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds:
        tracer.reset()
        outcome = run_pass(jobs, inputs, tracer)
        outcome["layer_counts"] = dict(tracer.counts)
        outcome["layer_times"] = tracer.times()
        if not passes:
            outcome["spans"] = tracer.span_records()
        passes.append(outcome)
    return passes


def layer_metrics(passes: list[dict], untraced_wall: float) -> dict:
    counts = {**passes[0]["layer_counts"], **passes[0]["counts"]}
    metrics = {}
    for name, unit in PER_LAYER:
        if unit == "count":
            value = counts.get(name, 0)
        elif name == "trace.overhead_s":
            value = statistics.median(p["wall"] for p in passes) - untraced_wall
        else:
            value = statistics.median(p["layer_times"].get(name, 0.0) for p in passes)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="file for the first traced pass's spans")
    args = parser.parse_args()

    jobs = workloads.build(args.workload, args.seed)
    inputs = [job.inputs(0) for job in jobs]
    print("ready", flush=True)
    if args.setup_only:
        return 0

    result = {
        "backend": cig.BACKEND,
        "python": platform.python_version(),
        "job_ids": [job.id for job in jobs],
    }
    if args.trace:
        untraced = run_pass(jobs, inputs)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            passes = run_traced_passes(jobs, inputs, args.seconds, tracer)
        finally:
            tracer.uninstall()
        spans = passes[0].pop("spans")
        if args.spans:
            with open(args.spans, "w") as fh:
                fh.write(json.dumps({"fields": tracing.SPAN_FIELDS, "jobs": result["job_ids"]}) + "\n")
                for row in spans:
                    fh.write(json.dumps(row, separators=(",", ":")) + "\n")
        result["layer"] = layer_metrics(passes, untraced["wall"])
        result["absent"] = tracer.absent
        result["counts_repeat_across_passes"] = all(
            p["layer_counts"] == passes[0]["layer_counts"] and p["counts"] == passes[0]["counts"]
            for p in passes
        )
        result["pass_walls"] = [untraced["wall"]] + [p["wall"] for p in passes]
        passes.append(untraced)
        result["attempted"] = sum(len(p["times"]) for p in passes)
        errors = [e for p in passes for e in p["errors"]]
    else:
        samples, errors = run_repeated(jobs, inputs, args.seconds)
        result.update(job_stats(normalise(samples)))
        result["raw"] = job_stats([[t for t, _, _ in s] for s in samples])
        result["probe_median_s"] = statistics.median(
            p for s in samples for _, a, b in s for p in (a, b))
        result["attempted"] = sum(len(s) for s in samples)
    result["failed"] = len(errors)
    result["errors"] = errors[:5]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
