"""Kernel backend selection.

``iso_backtrack`` and ``twin_labels`` come from the compiled extension
``cig._core`` when it is built and from the pure-Python twin ``cig._core_py``
otherwise; ``BACKEND`` names the one in use.  ``perm_closure`` always comes
from ``cig._core_py``.
"""

from cig import _core_py

try:
    from cig import _core as _backend
except ImportError:
    _backend = _core_py

BACKEND: str = _backend.BACKEND

perm_closure = _core_py.perm_closure
iso_backtrack = _backend.iso_backtrack
twin_labels = _backend.twin_labels
