"""Span and counter tracing around the public functions of each layer.

The program has no tracing of its own, so the benchmark wraps the public
functions and methods of every layer in place while a traced run is
active.  A module-level function is replaced in every ``nilform`` module
that bound it by name (``from .ring import from_cdga``), so calls made
inside the program are seen too.  Each call records a span (name, start,
end, parent, run id) in flat arrays; :func:`summarize` turns them into
inclusive and self times per span name.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import weakref
from array import array
from collections import defaultdict
from typing import Callable

# Span names in layer order; each is reported as <name>_s and <name>_self_s.
SPANS = (
    "gca.basis",
    "linalg.kernel",
    "linalg.rank",
    "cdga.dmatrix",
    "cdga.cohomology",
    "ring.from_cdga",
    "ring.labels",
    "ring.products",
    "ring.generation",
    "resonance.query",
    "resonance.mu_matrix",
    "resonance.r11",
    "formality.report",
    "formality.twostep",
    "formality.generation",
    "formality.resonance",
    "formality.prop_art",
    "formality.tower",
    "formality.solver",
    "formality.prop_k2",
    "cli.main",
)

# Counters kept at the same boundaries.
COUNTS = (
    "gca.basis_monomials",
    "linalg.kernel_cols",
    "linalg.rank_calls",
    "linalg.rank_rows_calls",
    "linalg.fastpath_hits",
    "cdga.dmatrix_nnz",
    "cdga.classes",
    "cdga.rep_terms",
    "ring.products",
    "resonance.queries",
    "resonance.r11_exact_calls",
    "formality.solver_unknowns",
    "formality.solver_equations",
)


class Tracer:
    """Spans in flat arrays plus named counters, all in memory."""

    def __init__(self) -> None:
        self.names: list[str] = list(SPANS)
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = 0
        self.active = True
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._seen: dict[int, set] = {}
        self.last_mod_p: int | None = None
        self.last_char_dim: int | None = None

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(-1)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, name: str, k: float = 1) -> None:
        self.counts[name] += k

    def first_sight(self, owner: object, key: object) -> bool:
        """True the first time ``key`` is seen on this live ``owner`` object."""
        oid = id(owner)
        seen = self._seen.get(oid)
        if seen is None:
            seen = self._seen[oid] = set()
            try:
                weakref.finalize(owner, self._seen.pop, oid, None)
            except TypeError:
                pass
        if key in seen:
            return False
        seen.add(key)
        return True

    def dump(self, path) -> None:
        """Write every span and counter as one JSON document."""
        doc = {
            "names": self.names,
            "name": list(self.name),
            "start_ns": list(self.start),
            "end_ns": list(self.end),
            "parent": list(self.parent),
            "run": list(self.run),
            "counts": dict(self.counts),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def summarize(names, name, start, end, parent) -> dict[str, list[int]]:
    """Per span name: [inclusive ns, self ns, calls].

    Self time is a span's duration minus the durations of its direct
    children.  Inclusive time skips spans nested under a span of the same
    name, so recursion is not counted twice.
    """
    n = len(start)
    child = [0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    out: dict[str, list[int]] = {}
    for i in range(n):
        dur = end[i] - start[i]
        row = out.setdefault(names[name[i]], [0, 0, 0])
        row[1] += dur - child[i]
        row[2] += 1
        p = parent[i]
        while p >= 0 and name[p] != name[i]:
            p = parent[p]
        if p < 0:
            row[0] += dur
    return out


def merge_summary(into: dict[str, list[int]], other: dict[str, list[int]]) -> None:
    for key, row in other.items():
        cur = into.setdefault(key, [0, 0, 0])
        for j in range(3):
            cur[j] += row[j]


def tracer_summary(tr: Tracer) -> dict[str, list[int]]:
    return summarize(tr.names, tr.name, tr.start, tr.end, tr.parent)


# -- instrumentation -----------------------------------------------------


def _wrap(tr: Tracer, fn: Callable, span: str | None, hook: Callable | None) -> Callable:
    nid = tr.name_id(span) if span else -1

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tr.active:
            return fn(*args, **kwargs)
        idx = tr.begin(nid) if span else -1
        exc = None
        try:
            result = fn(*args, **kwargs)
        except BaseException as e:
            exc, result = e, None
            raise
        finally:
            if span:
                tr.finish(idx)
            if hook is not None:
                hook(args, kwargs, result, exc)
        return result

    wrapper.__perfbench_wrapped__ = fn
    return wrapper


def _hooks(tr: Tracer) -> list[tuple[str, str, str, str | None, Callable | None]]:
    """(module, class or '', attribute, span, hook) for every traced call."""

    def basis(args, kwargs, result, exc):
        if exc is None and tr.first_sight(args[0], ("basis", args[1:], tuple(kwargs.items()))):
            tr.count("gca.basis_monomials", len(result))

    def kernel(args, kwargs, result, exc):
        tr.count("linalg.kernel_cols", args[0].ncols)

    def rank(args, kwargs, result, exc):
        tr.count("linalg.rank_calls")

    def rank_mod_p(args, kwargs, result, exc):
        tr.last_mod_p = result

    def rank_rows(args, kwargs, result, exc):
        # full rank over F_p returns at once; anything else falls back
        rows = args[0]
        max_rank = kwargs.get("max_rank", args[1] if len(args) > 1 else None)
        tr.count("linalg.rank_rows_calls")
        if tr.last_mod_p is not None and max_rank is not None:
            full = min(sum(1 for r in rows if r), max_rank)
            if tr.last_mod_p == full:
                tr.count("linalg.fastpath_hits")
        tr.last_mod_p = None

    def dmatrix(args, kwargs, result, exc):
        if exc is None and tr.first_sight(args[0], ("dmatrix", args[1:], tuple(kwargs.items()))):
            tr.count("cdga.dmatrix_nnz", sum(len(col) for col in result.cols))

    def cohomology(args, kwargs, result, exc):
        if exc is None and tr.first_sight(args[0], ("cohomology", args[1:], tuple(kwargs.items()))):
            tr.count("cdga.classes", result.dim)
            tr.count("cdga.rep_terms", sum(len(r.terms) for r in result.representatives))

    def products(args, kwargs, result, exc):
        tr.count("ring.products")

    def query(args, kwargs, result, exc):
        tr.count("resonance.queries")

    def char_subspace(args, kwargs, result, exc):
        tr.last_char_dim = result.dim if exc is None else None

    def r11(args, kwargs, result, exc):
        # the exact Groebner decision runs for subspace dimensions 1..bound
        dim = tr.last_char_dim or 0
        tr.last_char_dim = None
        if 1 <= dim <= kwargs.get("exact_bound", 6):
            tr.count("resonance.r11_exact_calls")

    def solver(args, kwargs, result, exc):
        src = result if result is not None else exc
        tr.count("formality.solver_unknowns", getattr(src, "unknowns", 0) or 0)
        tr.count("formality.solver_equations", getattr(src, "equations", 0) or 0)

    return [
        ("nilform.gca", "Algebra", "basis", "gca.basis", basis),
        ("nilform.linalg", "SparseMatrix", "kernel", "linalg.kernel", kernel),
        ("nilform.linalg", "SparseMatrix", "rank", "linalg.rank", rank),
        ("nilform.linalg", "", "rank_mod_p", None, rank_mod_p),
        ("nilform.linalg", "", "rank_rows", None, rank_rows),
        ("nilform.cdga", "CDGA", "differential_matrix", "cdga.dmatrix", dmatrix),
        ("nilform.cdga", "CDGA", "cohomology", "cdga.cohomology", cohomology),
        ("nilform.ring", "", "from_cdga", "ring.from_cdga", None),
        ("nilform.ring", "RingPresentation", "labels", "ring.labels", None),
        ("nilform.ring", "RingPresentation", "product_coords", "ring.products", products),
        ("nilform.ring", "", "generated_in_degree_one_upto", "ring.generation", None),
        ("nilform.ring", "", "characteristic_subspace", None, char_subspace),
        ("nilform.resonance", "", "mu_complex_dim", "resonance.query", query),
        ("nilform.resonance", "", "multiplication_complex", "resonance.mu_matrix", None),
        ("nilform.resonance", "", "decide_r11_trivial", "resonance.r11", r11),
        ("nilform.formality", "", "formality_report", "formality.report", None),
        ("nilform.formality", "", "is_twostep", "formality.twostep", None),
        ("nilform.formality", "", "obstruction_generation", "formality.generation", None),
        ("nilform.formality", "", "obstruction_resonance", "formality.resonance", None),
        ("nilform.formality", "", "certify_prop_art", "formality.prop_art", None),
        ("nilform.formality", "", "bigraded_tower", "formality.tower", None),
        ("nilform.formality", "", "dga_map_solve", "formality.solver", solver),
        ("nilform.formality", "", "infer_prop_k2", "formality.prop_k2", None),
        ("nilform.cli", "", "main", "cli.main", None),
    ]


def install(tr: Tracer) -> Callable[[], None]:
    """Wrap every traced call; returns a function that undoes it all.

    Raises ``LookupError``, before wrapping anything, if a target is missing
    from the program or already wrapped: a renamed or removed function must
    fail the traced run, not read as zero time.
    """
    targets = []
    for mod_name, cls_name, attr, span, hook in _hooks(tr):
        owner = importlib.import_module(mod_name)
        if cls_name:
            owner = getattr(owner, cls_name, None)
        original = owner.__dict__.get(attr) if owner is not None else None
        where = f"{mod_name}.{cls_name + '.' if cls_name else ''}{attr}"
        if original is None:
            raise LookupError(f"perfbench: traced call {where} is missing")
        if hasattr(original, "__perfbench_wrapped__"):
            raise LookupError(f"perfbench: {where} is already traced")
        targets.append((owner, bool(cls_name), attr, original, span, hook))
    loaded = [m for k, m in sys.modules.items() if k == "nilform" or k.startswith("nilform.")]
    undo: list[tuple[object, str, object]] = []
    for owner, is_method, attr, original, span, hook in targets:
        wrapped = _wrap(tr, original, span, hook)
        for target in [owner] if is_method else loaded:
            if target.__dict__.get(attr) is original:
                undo.append((target, attr, original))
                setattr(target, attr, wrapped)

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore
