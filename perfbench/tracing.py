"""Per-layer tracing of cig from outside the library.

The tracer wraps the public functions at each module boundary by patching
module and class attributes, records one span per call (name, job id,
parent span, start, end) in memory, and restores the originals on
``uninstall``.  Nothing inside the library changes.

Functions called once per group element or per vertex pair (``has_arc``,
``_wreath_member``) are never wrapped: their call counts would dominate the
overhead.  A target that a later version renames or removes is recorded as
absent; its metrics read 0 and are listed under ``absent``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

# (span name, module, attribute path, layer).  Spans are aggregated by name;
# layer self time is the sum of self time over the layer's spans.
TARGETS = (
    ("ci.is_ci_group", "cig.ci", "is_ci_group", "ci"),
    ("ci.ci_pair", "cig.ci", "ci_pair", "ci"),
    ("ci.quotient_ci_certificate", "cig.ci", "quotient_ci_certificate", "ci"),
    ("ci.verify_lift_structure", "cig.ci", "verify_lift_structure", "ci"),
    ("ci.verify_wreath_aut_dichotomy", "cig.ci", "verify_wreath_aut_dichotomy", "ci"),
    ("iso.find_isomorphism", "cig.iso", "find_isomorphism", "iso"),
    ("iso.refine", "cig.iso", "_refine_colors", "iso"),
    ("iso.automorphism_group_of", "cig.iso", "automorphism_group_of", "iso"),
    ("kernels.iso_backtrack", "cig._kernels", "iso_backtrack", "kernels"),
    ("kernels.perm_closure", "cig._kernels", "perm_closure", "kernels"),
    ("kernels.twin_labels", "cig._kernels", "twin_labels", "kernels"),
    ("groups.automorphisms", "cig.groups", "FiniteGroup.automorphisms", "groups"),
    ("groups.automorphic_image_search", "cig.groups", "automorphic_image_search", "groups"),
    ("groups.quotient", "cig.groups", "FiniteGroup.quotient", "groups"),
    ("perms.from_elements", "cig.perms", "PermGroup.from_elements", "perms"),
    ("perms.block_systems", "cig.perms", "PermGroup.block_systems", "perms"),
    ("perms.point_partition", "cig.perms", "PointPartition.__init__", "perms"),
    ("digraphs.cayley", "cig.digraphs", "cayley", "digraphs"),
    ("digraphs.wreath_product", "cig.digraphs", "wreath_product", "digraphs"),
    ("digraphs.decompose", "cig.digraphs", "_decompose", "digraphs"),
)

LAYER_OF = {name: layer for name, _, _, layer in TARGETS}
SPAN_FIELDS = ("name", "job", "parent", "start", "end")


@dataclass
class Span:
    name: str
    job: int
    parent: int  # index of the enclosing span in Tracer.spans, -1 at top level
    start: float
    end: float = 0.0
    child: float = 0.0  # summed duration of direct wrapped children
    index: int = -1

    @property
    def busy(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.busy - self.child


def _count_call(name: str, args: tuple, kwargs: dict, result, counts: dict) -> str:
    """Bump the counters of one call; returns the span name to record.

    ``iso_backtrack`` is split by its ``find_all`` flag into ``iso_first``
    (stop at the first isomorphism) and ``iso_all`` (enumerate every leaf).
    """
    if name == "kernels.iso_backtrack":
        find_all = kwargs["find_all"] if "find_all" in kwargs else args[5]
        name = "kernels.iso_all" if find_all else "kernels.iso_first"
        _bump(counts, name + ".leaves" if find_all else name + ".hits",
              len(result) if find_all else int(bool(result)))
    elif name in ("iso.find_isomorphism", "groups.automorphic_image_search"):
        _bump(counts, name + ".hits", int(result is not None))
    elif name == "kernels.perm_closure":
        _bump(counts, name + ".elements", len(result))
    _bump(counts, name + ".calls", 1)
    return name


def _bump(counts: dict, key: str, by: int) -> None:
    counts[key] = counts.get(key, 0) + by


class Tracer:
    """Installs wrappers around ``TARGETS`` and aggregates their spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self.job = -1
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        for name, module_name, path, _ in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(name)
                continue
            if isinstance(raw, classmethod):
                self._patch(owner, attr, raw, classmethod(self._wrap(name, raw.__func__)))
            elif isinstance(owner, type):
                self._patch(owner, attr, raw, self._wrap(name, raw))
            else:
                # Also rebind copies made by ``from module import name``.
                wrapped = self._wrap(name, raw)
                for module in list(sys.modules.values()):
                    if getattr(module, "__name__", "").startswith("cig") and (
                        vars(module).get(attr) is raw
                    ):
                        self._patch(module, attr, raw, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def _patch(self, owner: object, attr: str, raw: object, new: object) -> None:
        self._restore.append((owner, attr, raw))
        setattr(owner, attr, new)

    def _wrap(self, name: str, func):
        tracer = self
        clock = time.perf_counter

        if name == "perms.from_elements":
            def wrapper(cls, degree, raw_elements, *args, **kwargs):
                raw_elements = list(raw_elements)
                _bump(tracer.counts, name + ".elements", len(raw_elements))
                return tracer._call(name, func, (cls, degree, raw_elements) + args, kwargs, clock)
        else:
            def wrapper(*args, **kwargs):
                return tracer._call(name, func, args, kwargs, clock)

        return functools.wraps(func)(wrapper)

    def _call(self, name, func, args, kwargs, clock):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.job, -1 if parent is None else parent.index, clock())
        span.index = len(self.spans)
        self.spans.append(span)
        self._stack.append(span)
        try:
            result = func(*args, **kwargs)
        finally:
            span.end = clock()
            self._stack.pop()
            if parent is not None:
                parent.child += span.busy
        span.name = _count_call(name, args, kwargs, result, self.counts)
        return result

    # -- results ----------------------------------------------------------------

    def reset(self) -> None:
        self.spans = []
        self.counts = {}

    def times(self) -> dict[str, float]:
        """Inclusive (``busy_s``) and self (``self_s``) seconds per span name and
        per layer."""
        out: dict[str, float] = {}
        for span in self.spans:
            busy, own = span.busy, span.self_time
            for key, value in (
                (span.name + ".busy_s", busy),
                (span.name + ".self_s", own),
                (_layer(span.name) + ".self_s", own),
            ):
                out[key] = out.get(key, 0.0) + value
        return out

    def span_records(self) -> list[list]:
        """Rows of ``SPAN_FIELDS``; a parent is an index into the rows."""
        return [[s.name, s.job, s.parent, s.start, s.end] for s in self.spans]


def _layer(name: str) -> str:
    return LAYER_OF.get(name, name.split(".", 1)[0])
