"""End-to-end benchmark of cig: CI sweeps, quotient certificates and
wreath-automorphism reports.

Usage, from the repository root:

    python3 perfbench/run.py --workload ci_sweep --seed 0 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json`` for why each exists):
``ci_sweep``, ``quotient_cert`` and ``wreath_aut``.  Each runs in a fresh
single-threaded Python process against ``src/`` of this checkout.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run (see ``tracing.py``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A result file with an environment header goes
to ``perfbench/results/``.

``setup_s`` is measured from process start to ``ready`` (``import cig`` plus
building the workload's groups and digraphs), as the median of
``SETUP_SAMPLES`` fresh processes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_SAMPLES = 7
DEADLINE_S = 170.0
WORKLOADS = ("ci_sweep", "quotient_cert", "wreath_aut")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(args: argparse.Namespace, extra: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; returns the process and
    its set-up time."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), *extra,
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(
        command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not become ready: {line!r}")
    return proc, ready


def finish(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines() -> int:
    files = sorted((ROOT / "src" / "cig").glob("*.py")) + sorted(
        (ROOT / "src" / "cig").glob("_core.pyx")
    )
    return sum(len(f.read_text().splitlines()) for f in files)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "cig" / "__init__.py").is_file():
        print(f"error: no cig sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    started = time.perf_counter()
    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, ready = start_worker(args, ["--setup-only"])
        finish(proc, DEADLINE_S)
        setup.append(ready)

    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        extra += ["--spans", str(RESULTS / f"spans-{tag}.jsonl")]
    proc, ready = start_worker(args, extra)
    setup.append(ready)
    out = finish(proc, DEADLINE_S - (time.perf_counter() - started))
    worker = json.loads(out.strip().splitlines()[-1])

    if args.trace:
        metrics = worker["layer"]
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": worker["wall_s"],
            "job_p50_s": worker["job_p50_s"],
            "job_tail_s": worker["job_tail_s"],
            "peak_rss_mb": worker["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    attempted, failed = worker["attempted"], worker["failed"]
    correct = failed == 0 and worker.get("counts_repeat_across_passes", True)

    record = {
        "environment": {
            "backend": worker["backend"],
            "python": worker["python"],
            "nproc": os.cpu_count(),
            "commit": git_commit(),
            "seed": args.seed,
            "src_lines": src_lines(),
        },
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": metrics,
        "error_rate": failed / attempted,
        "setup_samples_s": setup,
        **{k: v for k, v in worker.items() if k not in ("layer", "backend", "python")},
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"backend={worker['backend']} src_lines={record['environment']['src_lines']}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"error_rate = {failed / attempted:.6g} ({failed}/{attempted} jobs)")
    if not args.trace:
        print(f"# job samples={worker['job_samples']} (each the median of 1-"
              f"{max(worker['job_reps'])} repetitions, {attempted} runs); tail = "
              f"p{worker['job_tail_percentile']:.1f} with {worker['jobs_above_tail']} jobs above")
    else:
        print(f"# absent targets: {worker['absent'] or 'none'}")
    for error in worker["errors"]:
        print(f"# FAILED {error}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
