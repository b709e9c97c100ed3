"""Backend equivalence: the compiled kernels and the pure-Python twins must
produce identical results in identical order."""

import random

import pytest

import oracles
from cig import _core_py
from cig.iso import _candidates, _refine_colors, _search_order
from cig.limits import CapExceeded
from cig.perms import symmetric_group

try:
    from cig import _core
except ImportError:
    _core = None

needs_compiled = pytest.mark.skipif(_core is None, reason="compiled kernel missing")


@needs_compiled
class TestBackendEquivalence:
    def test_closure_small_groups(self):
        cases = [
            (3, [(1, 2, 0)]),
            (4, [(1, 0, 2, 3), (1, 2, 3, 0)]),
            (1, []),
            (6, [(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)]),
        ]
        for degree, gens in cases:
            assert _core.perm_closure(degree, gens, 10**6) == _core_py.perm_closure(
                degree, gens, 10**6
            )

    def test_closure_cap_behaviour_matches(self):
        gens = [g.images for g in symmetric_group(6).generators]
        for backend in (_core, _core_py):
            with pytest.raises(CapExceeded):
                backend.perm_closure(6, gens, 100)

    def test_iso_backtrack_random_corpus(self):
        rng = random.Random(67)
        for _ in range(150):
            n = rng.randrange(0, 6)
            a = oracles.random_digraph(rng, n)
            b = oracles.random_digraph(rng, n)
            joint = _refine_colors(a.disjoint_union(b), [0] * (2 * n)) if n else []
            ca, cb = joint[:n], joint[n:]
            order = _search_order(ca)
            cand = _candidates(order, ca, cb)
            for find_all in (False, True):
                compiled = _core.iso_backtrack(
                    n, list(a.out_masks), list(b.out_masks), order, cand, find_all
                )
                pure = _core_py.iso_backtrack(
                    n, list(a.out_masks), list(b.out_masks), order, cand, find_all
                )
                assert compiled == pure

    def test_twin_labels_random_corpus(self):
        rng = random.Random(71)
        for _ in range(300):
            n = rng.randrange(0, 8)
            d = oracles.random_digraph(rng, n)
            for kind in (True, False):
                assert _core.twin_labels(n, list(d.out_masks), kind) == (
                    _core_py.twin_labels(n, list(d.out_masks), kind)
                )

    def test_automorphism_enumeration_order_matches(self):
        rng = random.Random(73)
        for _ in range(40):
            n = rng.randrange(1, 6)
            d = oracles.random_digraph(rng, n)
            colors = _refine_colors(d, [0] * n)
            order = _search_order(colors)
            cand = _candidates(order, colors, colors)
            compiled = _core.iso_backtrack(
                n, list(d.out_masks), list(d.out_masks), order, cand, True
            )
            pure = _core_py.iso_backtrack(
                n, list(d.out_masks), list(d.out_masks), order, cand, True
            )
            assert compiled == pure  # same elements in the same DFS order


class TestPureFallback:
    def test_env_flag_selects_python(self, child_env):
        import subprocess
        import sys

        # A stand-in compiled extension, so the switch is what picks the
        # backend whether or not the real ``cig._core`` is built.
        script = (
            "import sys, types\n"
            "stub = types.ModuleType('cig._core')\n"
            "stub.BACKEND = 'compiled'\n"
            "stub.perm_closure = stub.iso_backtrack = stub.twin_labels = print\n"
            "sys.modules['cig._core'] = stub\n"
            "import cig\n"
            "print(cig.BACKEND)\n"
        )
        for env, expected in (({"CIG_PURE_PYTHON": "1"}, "python"), ({}, "compiled")):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=child_env(**env),
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == expected, (env, proc.stderr)

    def test_default_import_reports_backend(self):
        import cig

        assert cig.BACKEND in ("compiled", "python")
