"""Backend equivalence: the compiled kernels and their pure-Python twins must
produce identical results in identical order; and the backend selector."""

import random
import subprocess
import sys

import pytest

import oracles
from cig import _core_py
from cig.iso import _candidates, _refine_colors, _search_order

try:
    from cig import _core
except ImportError:
    _core = None

needs_compiled = pytest.mark.skipif(_core is None, reason="compiled kernel missing")


@needs_compiled
class TestBackendEquivalence:
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


# Run in a child so that the stand-in ``cig._core`` is in place before
# ``cig._kernels`` picks its backend, whether or not the real one is built.
_SELECTOR_SCRIPT = """
import sys, types
if sys.argv[1] == "compiled":
    stub = types.ModuleType("cig._core")
    stub.BACKEND = "compiled"
    stub.iso_backtrack = lambda *args: None
    stub.twin_labels = lambda *args: None
    sys.modules["cig._core"] = stub
else:
    sys.modules["cig._core"] = None  # makes ``from cig import _core`` fail
import cig
from cig import _core_py, _kernels
source = stub if sys.argv[1] == "compiled" else _core_py
print(
    cig.BACKEND,
    _kernels.iso_backtrack is source.iso_backtrack,
    _kernels.twin_labels is source.twin_labels,
    _kernels.perm_closure is _core_py.perm_closure,
)
"""


class TestPureFallback:
    @pytest.mark.parametrize("backend", ["compiled", "python"])
    def test_selector_takes_search_kernels_from_backend(self, child_env, backend):
        proc = subprocess.run(
            [sys.executable, "-c", _SELECTOR_SCRIPT, backend],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [backend, "True", "True", "True"], proc.stderr

    def test_default_import_reports_backend(self):
        import cig

        assert cig.BACKEND in ("compiled", "python")
