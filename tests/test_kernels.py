"""The kernel module: hashed twin labels against transpositions and, as
selected by each decomposition kind, against the pairwise union-find
oracle, every leaf of the find-all search against the automorphism oracle,
the backend name, and an import that needs only the standard library."""

import json
import random
import subprocess
import sys

import oracles
from cig import _kernels
from cig.digraphs import Digraph, wreath_product


def _kind_labels(d: Digraph, complete_kind: bool) -> list[int]:
    """The kernel's classes that one decomposition kind takes, every other
    vertex a singleton, numbered by first occurrence.  The complete kind
    takes the adjacent classes; the empty kind the classes whose adjacency
    equals their loop flag."""
    labels = _kernels.twin_labels(d.out_masks, d.in_masks)
    members: dict[int, list[int]] = {}
    for v, label in enumerate(labels):
        members.setdefault(label, []).append(v)
    taken = set()
    for label, (m0, *rest) in members.items():
        if rest:
            adjacent = d.has_arc(m0, rest[0])
            if adjacent if complete_kind else adjacent == d.has_loop(m0):
                taken.add(label)
    seen: dict = {}
    return [
        seen.setdefault(label if label in taken else ("single", v), len(seen))
        for v, label in enumerate(labels)
    ]


def _assert_labels_agree(d: Digraph) -> None:
    for complete_kind in (True, False):
        assert _kind_labels(d, complete_kind) == (
            oracles.union_find_twin_labels(d.order, d.out_masks, complete_kind)
        ), (d.out_masks, complete_kind)


class TestTwinLabelsAgainstUnionFind:
    """Each decomposition kind's twins are a selection of the transposition-
    twin classes by their adjacency and loop flags."""

    def test_every_looped_four_vertex_digraph(self):
        for d in oracles.all_digraphs(4, loops=True):
            _assert_labels_agree(d)

    def test_random_digraphs_up_to_nine_vertices(self):
        rng = random.Random(79)
        for n in range(10):
            for _ in range(400):
                _assert_labels_agree(oracles.random_digraph(rng, n))

    def test_relabelled_wreath_products(self):
        # Random digraphs seldom have twins; wreath products always do.
        rng = random.Random(83)
        for _ in range(400):
            _assert_labels_agree(_relabelled_wreath_product(rng))


class TestTwinLabelsAgainstTranspositions:
    """Two vertices share a `twin_labels` label exactly when the
    transposition swapping them is an automorphism, and labels are numbered
    by first occurrence."""

    @staticmethod
    def assert_agree(d: Digraph) -> None:
        labels = _kernels.twin_labels(d.out_masks, d.in_masks)
        assert labels == oracles.transposition_twin_labels(d), d.out_masks

    def test_every_looped_three_vertex_digraph(self):
        for d in oracles.all_digraphs(3, loops=True):
            self.assert_agree(d)

    def test_relabelled_wreath_products(self):
        rng = random.Random(87)
        for _ in range(200):
            self.assert_agree(_relabelled_wreath_product(rng))


def _relabelled_wreath_product(rng: random.Random) -> Digraph:
    outer = oracles.random_digraph(rng, rng.randrange(1, 5))
    r = rng.randrange(2, 4)
    inner = Digraph.complete(r) if rng.random() < 0.5 else Digraph.empty(r)
    d = wreath_product(outer, inner)
    relabeling = list(range(d.order))
    rng.shuffle(relabeling)
    return d.relabel(relabeling)


class TestFindAllAgainstEnumeration:
    """`iso_backtrack(..., find_all=True)` from a digraph to itself, placing
    vertices in a random order with every vertex a candidate, has one leaf
    per automorphism."""

    @staticmethod
    def _assert_leaves_agree(d: Digraph, rng: random.Random) -> None:
        n = d.order
        order = list(range(n))
        rng.shuffle(order)
        masks = list(d.out_masks)
        leaves = _kernels.iso_backtrack(n, masks, masks, order, [range(n)] * n, True)
        assert sorted(leaves) == oracles.enumerated_automorphisms(d), d.out_masks

    def test_random_looped_digraphs_up_to_six_vertices(self):
        rng = random.Random(89)
        for n in range(7):
            for _ in range(60):
                self._assert_leaves_agree(oracles.random_digraph(rng, n), rng)

    def test_relabelled_wreath_products(self):
        rng = random.Random(97)
        for _ in range(60):
            self._assert_leaves_agree(_relabelled_wreath_product(rng), rng)


class TestPureFallback:
    def test_default_import_reports_backend(self):
        import cig

        assert cig.BACKEND == "python"

    def test_import_loads_only_the_standard_library(self, child_env):
        # The package declares `dependencies = []`.  Only what `import cig`
        # adds counts: site hooks may import third-party modules of their own.
        code = (
            "import json, sys; before = set(sys.modules); import cig; "
            "print(json.dumps(sorted(set(sys.modules) - before)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
        )
        assert proc.returncode == 0, proc.stderr
        loaded = {name.partition(".")[0] for name in json.loads(proc.stdout)}
        assert "cig" in loaded
        foreign = sorted(loaded - set(sys.stdlib_module_names) - {"cig"})
        assert not foreign, foreign
