"""Write ``expected.json``: the job lists and the pinned answers.

Run from the repository root, on the commit whose answers are pinned:

    PYTHONPATH=src:perfbench python3 perfbench/pin.py

Before pinning, every answer is cross-checked against results that do not
come from the benchmark run:

- ``tests/snapshots/ci_verdicts.json`` (digraph-mode verdicts and witness
  sets of the order-8 groups) and ``tests/snapshots/z6_certificate.json``;
- Muzychuk's classification of cyclic CI groups;
- non-CI witnesses re-verified from the multiplication table alone;
- the C6a rule: a loop-free certificate on a CI group is accepted;
- the C4 rule: a wreath blow-up has ``predicted_order == product_aut_order``.

``pairs_checked`` is not pinned: its meaning is expected to change.
"""

from __future__ import annotations

import json
import subprocess
import time
from math import factorial, prod
from pathlib import Path

from cig.ci import (
    is_ci_group,
    lift_connection_set,
    quotient_ci_certificate,
    verify_wreath_aut_dichotomy,
)
from cig.digraphs import cayley, decompose_over_complete, decompose_over_empty
from cig.groups import catalog_specs, parse_group_spec
from cig.iso import automorphism_group_of, find_isomorphism

import workloads

ROOT = Path(__file__).resolve().parent.parent
SNAPSHOTS = ROOT / "tests" / "snapshots"

# Digraph-mode sweeps.  A4 is left out: its sweep takes 2.3 to 4.3 s
# depending on the relabelling, and so are the Z12 and Z2xZ6 graph sweeps
# (1.9 to 4.8 s and 1.1 to 5.3 s), a spread that the repetitions a run can
# afford do not average out.  The Z12 digraph sweep (57 s) is too long.
CI_DIGRAPH = ("Z8", "Z9", "Z2xZ4", "D4", "Q8", "Z10", "D5", "Z11")
GRAPH_LEFT_OUT = ("Z12", "Z2xZ6")
QUOTIENT_GROUPS = ("Z2xZ2xZ2", "Q8", "Z8", "Z9", "Z10", "D5", "Z12", "A4")
# Lifted automorphism-group size (estimated from below) above which an
# instance is left out.  Z10/<5> with the full set (3.6M) alone takes 98 s
# and 1.2 GB.  The cap keeps the 8! = 40320 blow-ups (about 1 s each) but not
# the A4 instance at 41472, which takes 4 s, a quarter of a pass, and would
# leave too little time to repeat the other instances.
AUT_CAP = 41_000
# Every class whose estimate is at most LIGHT_CAP is in the pool.  Of the
# heavier ones, each group adds the one with the smallest estimate, which
# keeps enumeration-bound instances in the mix without letting them
# dominate the run.
LIGHT_CAP = 1_200
MAX_VARIANTS = 4
# C4 wr K3bar (1,036,800 automorphisms, 245 MB) takes 18 to 24 s from run to
# run; a run can time it only once, so it would set the spread of wall_s.
WREATH_LEFT_OUT = (("C4", "K3bar"),)
# Trivial-kernel instances on the non-CI cyclic groups, whose quotient is the
# group itself: they end as hypothesis_not_ci.
DEGENERATE = (
    ("Z8", [0], [1, 2, 5], [1, 5, 6]),
    ("Z9", [0], [1, 3, 4, 7], [1, 4, 6, 7]),
)


def _commit() -> str:
    return subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


# ---------------------------------------------------------------------------


def pin_ci_sweep() -> dict:
    snapshot = json.loads((SNAPSHOTS / "ci_verdicts.json").read_text())
    jobs = [(spec, "digraph") for spec in CI_DIGRAPH]
    jobs += [(spec, "graph") for spec, order in catalog_specs(12)
             if 8 <= order <= 12 and spec not in GRAPH_LEFT_OUT]
    entries = []
    for spec, mode in jobs:
        group = parse_group_spec(spec)
        verdict = is_ci_group(group, mode)
        assert verdict.exhaustive, spec
        witness = None
        if verdict.witness:
            s1, s2, iso = verdict.witness
            witness = [sorted(s1), sorted(s2), list(iso.images)]
            problem = workloads.check_ci_witness(
                [list(r) for r in group.table], mode, *witness
            )
            assert problem is None, (spec, mode, problem)
        if mode == "digraph" and spec in snapshot:
            assert snapshot[spec]["is_ci"] == verdict.is_ci, spec
            assert snapshot[spec]["witness"] == (witness[:2] if witness else None), spec
        if spec[0] == "Z" and spec[1:].isdigit():
            assert verdict.is_ci == workloads.muzychuk_is_ci(int(spec[1:]), mode), spec
        entries.append({"group": spec, "mode": mode, "is_ci": verdict.is_ci,
                        "witness": witness})
    return {"jobs": entries}


# ---------------------------------------------------------------------------


def _twin_bound(d) -> int:
    """Product of factorials of twin-class sizes: a lower bound on |Aut(d)|."""
    n, out, inn = d.order, d.out_masks, d.in_masks
    best = 1
    for clique in (True, False):
        classes: list[list[int]] = []
        for v in range(n):
            for cls in classes:
                u = cls[0]
                rest = ~((1 << u) | (1 << v))
                if (
                    (out[u] & rest) == (out[v] & rest)
                    and (inn[u] & rest) == (inn[v] & rest)
                    and d.has_loop(u) == d.has_loop(v)
                    and d.has_arc(u, v) == d.has_arc(v, u) == clique
                ):
                    cls.append(v)
                    break
            else:
                classes.append([v])
        best = max(best, prod(factorial(len(c)) for c in classes))
    return best


def _aut_estimate(group, qmap, s) -> int:
    """Lower bound on |Aut| of the lifted Cayley digraph of quotient set s."""
    size, dq = len(qmap.kernel), cayley(qmap.target, s)
    estimate = automorphism_group_of(dq).order * factorial(size) ** qmap.target.order
    if 0 in s and decompose_over_complete(dq) and (dec := decompose_over_empty(dq)):
        estimate = max(estimate, automorphism_group_of(dec.quotient).order
                       * factorial(dec.inner_size * size) ** dec.quotient.order)
    lifted = cayley(group, lift_connection_set(group, qmap.kernel, s).connection)
    return max(estimate, _twin_bound(lifted))


def _quotient_classes(qmap):
    qn = qmap.target.order
    subsets = [frozenset(x for x in range(qn) if m >> x & 1) for m in range(1 << qn)]
    graphs = {s: cayley(qmap.target, s) for s in subsets}
    classes: list[list[frozenset[int]]] = []
    for s in subsets:
        for cls in classes:
            if find_isomorphism(graphs[cls[0]], graphs[s]) is not None:
                cls.append(s)
                break
        else:
            classes.append([s])
    return classes


def _variants(group, kernel, s1, s2):
    """(s1, s2) and its images under automorphisms of the group fixing the
    kernel, acting on the quotient; the base instance first."""
    qmap = group.quotient(kernel)
    seen = [(sorted(s1), sorted(s2))]
    for alpha in group.automorphisms():
        if len(seen) == MAX_VARIANTS:
            break
        if alpha.image_of_set(kernel) != kernel:
            continue
        beta = qmap.induce(alpha)
        pair = (sorted(beta.image_of_set(s1)), sorted(beta.image_of_set(s2)))
        if pair not in seen:
            seen.append(pair)
    return seen


def _instances():
    """(group spec, kernel, s1, s2) for the pool, before variants."""
    for spec in QUOTIENT_GROUPS:
        group = parse_group_spec(spec)
        heavy = []
        for kernel in group.normal_subgroups():
            if not 1 < len(kernel) < group.order:
                continue
            qmap = group.quotient(kernel)
            classes = _quotient_classes(qmap)
            for cls in classes:
                estimate = _aut_estimate(group, qmap, cls[0])
                if estimate <= LIGHT_CAP:
                    yield spec, kernel, cls[0], cls[-1]
                elif estimate <= AUT_CAP:
                    heavy.append((estimate, spec, kernel, cls[0], cls[-1]))
            # One pair of same-size sets whose quotient digraphs differ.
            for a, b in zip(classes, classes[1:]):
                if len(a[0]) == len(b[0]):
                    yield spec, kernel, a[0], b[0]
                    break
        if heavy:
            yield min(heavy, key=lambda h: h[0])[1:]
    for spec, kernel, s1, s2 in DEGENERATE:
        yield spec, frozenset(kernel), frozenset(s1), frozenset(s2)
    yield "Z6", frozenset({0, 3}), frozenset({1}), frozenset({2})


def pin_quotient_cert(ci_groups: set[str]) -> dict:
    z6_snapshot = json.loads((SNAPSHOTS / "z6_certificate.json").read_text())
    pool, specs = [], []
    total = 0.0
    for spec, kernel, s1, s2 in _instances():
        group = parse_group_spec(spec)
        if spec not in specs:
            specs.append(spec)
        variants = []
        for v1, v2 in _variants(group, kernel, s1, s2):
            start = time.perf_counter()
            cert = quotient_ci_certificate(parse_group_spec(spec), kernel, v1, v2)
            elapsed = time.perf_counter() - start
            blob = cert.to_json()
            if 0 not in v1 and 0 not in v2 and spec in ci_groups:
                assert cert.accepted, (spec, sorted(kernel), v1, v2, cert.failing_checks())
            if spec == "Z6" and (v1, v2) == ([1], [2]):
                assert blob == z6_snapshot
            variants.append([v1, v2, blob])
            if len(variants) == 1:
                total += elapsed
                status = cert.status
        print(f"  {spec} {sorted(kernel)} {sorted(s1)}/{sorted(s2)}: {status} "
              f"{elapsed:.3f}s x{len(variants)}")
        pool.append({"group": spec, "kernel": sorted(kernel), "status": status,
                     "variants": variants})
    print(f"quotient_cert: {len(pool)} instances, base variants {total:.1f}s")
    return {"groups": specs, "ci_digraph_groups": sorted(ci_groups), "pool": pool}


# ---------------------------------------------------------------------------


def pin_wreath_aut() -> dict:
    family = workloads.wreath_factors()
    entries = []
    for outer, d1 in family.items():
        for inner, d2 in family.items():
            if d1.order * d2.order > 12 or (outer, inner) in WREATH_LEFT_OUT:
                continue
            blob = verify_wreath_aut_dichotomy(d1, d2).to_json()
            report = {key: blob[key] for key in workloads.REPORT_FIELDS}
            if not report["equal"]:
                assert report["dichotomy"]["predicted_order"] == report["product_aut_order"]
            entries.append({"outer": outer, "inner": inner, "report": report})
    return {"jobs": entries}


def main() -> None:
    ci_sweep = pin_ci_sweep()
    snapshot = json.loads((SNAPSHOTS / "ci_verdicts.json").read_text())
    ci_groups = {e["group"] for e in ci_sweep["jobs"] if e["mode"] == "digraph" and e["is_ci"]}
    ci_groups |= {spec for spec, entry in snapshot.items() if entry["is_ci"]}
    ci_groups |= {spec for spec in QUOTIENT_GROUPS + ("Z6",)
                  if spec[0] == "Z" and spec[1:].isdigit()
                  and workloads.muzychuk_is_ci(int(spec[1:]), "digraph")}
    expected = {
        "pinned_from_commit": _commit(),
        "ci_sweep": ci_sweep,
        "quotient_cert": pin_quotient_cert(ci_groups),
        "wreath_aut": pin_wreath_aut(),
    }
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, separators=(",", ":")) + "\n")
    print(f"wrote {workloads.EXPECTED_PATH}")


if __name__ == "__main__":
    main()
