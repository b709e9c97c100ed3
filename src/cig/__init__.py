"""cig: Cayley digraphs, CI-group testing, and wreath-product verification.

Desk-scale computational group theory with exhaustive, oracle-checkable
search kernels.  The kernels are pure Python, in ``cig._kernels``;
``BACKEND`` is ``"python"``.
"""

__version__ = "0.1.0"

from cig._kernels import BACKEND
from cig.digraphs import Digraph, cayley
from cig.groups import FiniteGroup, parse_group_spec
from cig.limits import CapExceeded
from cig.perms import Perm, PermGroup, PointPartition

__all__ = [
    "BACKEND",
    "CapExceeded",
    "Digraph",
    "FiniteGroup",
    "Perm",
    "PermGroup",
    "PointPartition",
    "__version__",
    "cayley",
    "parse_group_spec",
]
