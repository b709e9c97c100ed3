"""Workload inputs, jobs and output checks.

Each workload is a fixed job list, one job per call of the library entry
point that its CLI subcommand calls:

- ``ci_sweep``: ``is_ci_group`` (``cig ci group``).  Each repetition
  relabels the group's non-identity elements at random.
- ``quotient_cert``: ``quotient_ci_certificate`` (``cig quotient verify``).
  Each repetition picks one pinned variant of its pool instance; variants
  are images of one instance under group automorphisms fixing the kernel,
  so their answers and costs agree.
- ``wreath_aut``: ``verify_wreath_aut_dichotomy`` (``cig wreath aut``).  Each
  repetition relabels the factors' vertices.

The randomness of a repetition comes from (seed, job, repetition); with
seed 0 the first repetition of every job takes the pinned input (catalog
labelling, base variant), so its witnesses match the snapshot.  Every job
builds a fresh ``FiniteGroup`` from the prepared table, because groups
cache their automorphisms and a CLI call starts without that cache.
A check returns ``None`` when the output is right and a message otherwise;
expected answers come from ``expected.json`` (written by ``pin.py``) and from
results that do not depend on this library.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from typing import Callable

import cig.ci
from cig import Digraph, FiniteGroup, cayley, parse_group_spec

EXPECTED_PATH = Path(__file__).with_name("expected.json")


@dataclass
class Job:
    """One library call.  ``inputs(rep)`` builds the input of repetition
    ``rep`` (outside any timing), ``run`` makes the call, and ``check``
    returns ``None`` when the output is right and a message otherwise."""

    id: str
    inputs: Callable[[int], object]
    run: Callable[[object], object]
    check: Callable[[object, object], str | None]
    # Deterministic counts taken from the output (e.g. ``ci.pairs``).
    counts: Callable[[object], dict[str, int]] = field(default=lambda out: {})


def build(workload: str, seed: int) -> list[Job]:
    expected = json.loads(EXPECTED_PATH.read_text())
    builders = {
        "ci_sweep": _ci_sweep,
        "quotient_cert": _quotient_cert,
        "wreath_aut": _wreath_aut,
    }
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(builders)}")
    return builders[workload](expected[workload], seed)


def _rng(seed: int, job: int, rep: int) -> random.Random | None:
    """Randomness for one repetition of one job; ``None`` for the pinned
    (identity) input, which seed 0 uses on its first repetition."""
    if seed == 0 and rep == 0:
        return None
    return random.Random(f"{seed}:{job}:{rep}")


# ---------------------------------------------------------------------------
# Independent references
# ---------------------------------------------------------------------------


def muzychuk_is_ci(n: int, mode: str) -> bool:
    """Muzychuk's classification of cyclic CI groups.

    Z_n is DCI iff n is k, 2k or 4k with k odd and square-free; it is CI for
    graphs iff it is DCI or n is 8, 9 or 18.
    """
    dci = any(
        n % m == 0 and (n // m) % 2 == 1 and all((n // m) % (p * p) for p in range(2, n))
        for m in (1, 2, 4)
    )
    return dci or (mode == "graph" and n in (8, 9, 18))


def group_automorphisms(table: list[list[int]]) -> list[tuple[int, ...]]:
    """Every automorphism of a multiplication table, by trying all images of
    a greedy generating set.  Independent of ``cig.groups``; for small groups."""
    n = len(table)
    gens: list[int] = []
    closure = {0}
    for x in range(n):
        if x not in closure:
            gens.append(x)
            closure = _closure(table, gens)
    found = []
    for images in product(range(1, n), repeat=len(gens)):
        mapping = {0: 0}
        queue = [0]
        ok = True
        while queue and ok:
            x = queue.pop()
            for g, img in zip(gens, images):
                y, fy = table[x][g], table[mapping[x]][img]
                if y not in mapping:
                    mapping[y] = fy
                    queue.append(y)
                elif mapping[y] != fy:
                    ok = False
                    break
        if not ok or len(set(mapping.values())) != n:
            continue
        f = tuple(mapping[x] for x in range(n))
        if all(f[table[a][b]] == table[f[a]][f[b]] for a in range(n) for b in range(n)):
            found.append(f)
    return found


def _closure(table, gens) -> set[int]:
    seen = {0}
    queue = [0]
    while queue:
        x = queue.pop()
        for g in gens:
            y = table[x][g]
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def check_ci_witness(table, mode, s1, s2, iso) -> str | None:
    """Re-verify a non-CI witness from the multiplication table alone."""
    n = len(table)
    s1, s2 = set(s1), set(s2)
    inv = [row.index(0) for row in table]
    if sorted(iso) != list(range(n)):
        return "witness isomorphism is not a bijection"
    if len(s1) != len(s2) or not s1 | s2 <= set(range(n)):
        return "witness sets are not same-size subsets"
    if mode == "graph" and any(inv[x] not in s for s in (s1, s2) for x in s):
        return "graph-mode witness set is not inverse-closed"
    for x in range(n):
        if {iso[table[x][t]] for t in s1} != {table[iso[x]][t] for t in s2}:
            return "witness isomorphism does not preserve arcs"
    if any({f[x] for x in s1} == s2 for f in group_automorphisms(table)):
        return "witness sets are related by a group automorphism"
    return None


# ---------------------------------------------------------------------------
# ci_sweep
# ---------------------------------------------------------------------------


def relabel_group(group: FiniteGroup, rng: random.Random | None) -> FiniteGroup:
    """The same group with its non-identity elements renamed at random."""
    n = group.order
    rest = list(range(1, n))
    if rng is not None:
        rng.shuffle(rest)
    pi = [0, *rest]
    table = [[0] * n for _ in range(n)]
    labels = [""] * n
    for a in range(n):
        labels[pi[a]] = group.labels[a]
        for b in range(n):
            table[pi[a]][pi[b]] = pi[group.table[a][b]]
    return FiniteGroup(table, labels=labels, name=group.name)


def _fresh(group: FiniteGroup) -> FiniteGroup:
    return FiniteGroup(group.table, labels=group.labels, name=group.name)


def _ci_sweep(expected: dict, seed: int) -> list[Job]:
    jobs = []
    for number, entry in enumerate(expected["jobs"]):
        spec, mode = entry["group"], entry["mode"]
        base = parse_group_spec(spec)

        def inputs(rep, base=base, number=number):
            rng = _rng(seed, number, rep)
            return relabel_group(base, rng), rng is None

        def run(given, mode=mode):
            return cig.ci.is_ci_group(_fresh(given[0]), mode)

        def check(given, verdict, entry=entry):
            group, pinned_labelling = given
            mode = entry["mode"]
            if verdict.is_ci != entry["is_ci"] or not verdict.exhaustive:
                return f"verdict is_ci={verdict.is_ci} exhaustive={verdict.exhaustive}"
            spec = entry["group"]
            if spec[0] == "Z" and spec[1:].isdigit():
                if verdict.is_ci != muzychuk_is_ci(int(spec[1:]), mode):
                    return "verdict contradicts Muzychuk's classification"
            if verdict.witness is None:
                return None if verdict.is_ci else "non-CI verdict without a witness"
            s1, s2, iso = verdict.witness
            witness = [sorted(s1), sorted(s2), list(iso.images)]
            if pinned_labelling and witness != entry["witness"]:
                return f"witness {witness} differs from pinned {entry['witness']}"
            return check_ci_witness([list(row) for row in group.table], mode, *witness)

        jobs.append(Job(f"{spec}/{mode}", inputs, run, check,
                        lambda verdict: {"ci.pairs": verdict.pairs_checked}))
    return jobs


# ---------------------------------------------------------------------------
# quotient_cert
# ---------------------------------------------------------------------------


def _quotient_cert(expected: dict, seed: int) -> list[Job]:
    ci_groups = set(expected["ci_digraph_groups"])
    groups = {spec: parse_group_spec(spec) for spec in expected["groups"]}
    jobs = []
    for number, entry in enumerate(expected["pool"]):

        def inputs(rep, entry=entry, number=number):
            rng = _rng(seed, number, rep)
            variants = entry["variants"]
            return variants[0 if rng is None else rng.randrange(len(variants))]

        def run(given, group=groups[entry["group"]], kernel=frozenset(entry["kernel"])):
            s1, s2, _ = given
            return cig.ci.quotient_ci_certificate(_fresh(group), kernel, s1, s2)

        def check(given, cert, entry=entry):
            s1, s2, pinned = given
            blob = cert.to_json()
            if blob != pinned:
                return f"certificate differs from pinned: status {blob.get('status')}"
            loop_free = 0 not in s1 and 0 not in s2
            if loop_free and entry["group"] in ci_groups and not cert.accepted:
                return "loop-free certificate on a CI group was not accepted"
            if cert.accepted != (cert.status == "accepted"):
                return "accepted flag disagrees with status"
            return None

        name = f"q{number}:{entry['group']}/{entry['kernel']}/{entry['variants'][0][:2]}"
        jobs.append(Job(name, inputs, run, check))
    return jobs


# ---------------------------------------------------------------------------
# wreath_aut
# ---------------------------------------------------------------------------


def wreath_factors() -> dict[str, Digraph]:
    """The vertex-transitive factor family of the wreath dichotomy."""
    return {
        "K1": Digraph.complete(1),
        "K2": Digraph.complete(2),
        "K2bar": Digraph.empty(2),
        "C3": cayley(FiniteGroup.cyclic(3), {1}),
        "K3": Digraph.complete(3),
        "C4": cayley(FiniteGroup.cyclic(4), {1, 3}),
        "K3bar": Digraph.empty(3),
    }


def _relabel_digraph(d: Digraph, rng: random.Random | None) -> Digraph:
    images = list(range(d.order))
    if rng is not None:
        rng.shuffle(images)
    return d.relabel(images)


REPORT_FIELDS = ("aut_order_1", "aut_order_2", "product_aut_order",
                 "wreath_order", "equal", "dichotomy")


def _wreath_aut(expected: dict, seed: int) -> list[Job]:
    family = wreath_factors()
    jobs = []
    for number, entry in enumerate(expected["jobs"]):
        outer, inner = family[entry["outer"]], family[entry["inner"]]

        def inputs(rep, outer=outer, inner=inner, number=number):
            rng = _rng(seed, number, rep)
            return _relabel_digraph(outer, rng), _relabel_digraph(inner, rng)

        def run(given):
            return cig.ci.verify_wreath_aut_dichotomy(*given)

        def check(given, report, entry=entry):
            blob = report.to_json()
            fields = {key: blob[key] for key in REPORT_FIELDS}
            if fields != entry["report"]:
                return f"report {fields} differs from pinned {entry['report']}"
            if not report.equal and (
                report.dichotomy is None
                or report.dichotomy.predicted_order != report.product_aut_order
            ):
                return "blow-up not explained by the dichotomy"
            return None

        jobs.append(Job(f"{entry['outer']}~{entry['inner']}", inputs, run, check))
    return jobs
