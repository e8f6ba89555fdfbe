"""Span recorder for the traced benchmark run.

`Tracer.install()` wraps the public functions of the measured exhom modules
(and `RatMatrix.__matmul__`) by rebinding each name in every exhom module
namespace that holds it, so calls made through `from .x import f` imports
are caught too.  Nothing under `src/` changes; `uninstall()` restores every
binding.

A span is (name, start, end, parent index, request id).  Spans stay in
memory and are written out when the run ends.  A layer's self time is the
sum over its spans of duration minus the durations of their direct
children, so the self times of all layers add up to the time of the root
spans (one `cli.main` call per request) with nothing counted twice.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Dict, List, Tuple

MODULES = ("cli", "documents", "spectral", "qlinalg", "zlinalg", "complexes")

# function -> layer; public functions not listed land in "<module>.other"
LAYERS = {
    "cli.main": "cli",
    "cli.build_parser": "cli",
    "documents.parse_cochain_document": "documents.parse",
    "documents.parse_chain_document": "documents.parse",
    "documents.parse_double_complex_document": "documents.parse",
    "documents.parse_int_matrix_document": "documents.parse",
    "spectral.double_complex": "spectral.validate",
    "spectral.spectral_pages": "spectral.spectral_pages",
    "spectral.filtration_on_total": "spectral.filtration",
    "spectral.opposite_check": "spectral.oppose",
    "spectral.dimension_criterion": "spectral.oppose",
    "qlinalg.subspace_sum": "qlinalg.subspace",
    "qlinalg.subspace_intersect": "qlinalg.subspace",
    "qlinalg.map_subspace": "qlinalg.subspace",
    "qlinalg.preimage_subspace": "qlinalg.subspace",
    "qlinalg.extend_basis": "qlinalg.subspace",
    "qlinalg.kernel_basis": "qlinalg.subspace",
    "qlinalg.column_space": "qlinalg.subspace",
    "qlinalg.rref": "qlinalg.rref",
    "qlinalg.solve": "qlinalg.solve",
    "qlinalg.RatMatrix.__matmul__": "qlinalg.matmul",
    "zlinalg.smith_normal_form": "zlinalg.snf",
    "zlinalg.is_prime": "zlinalg.is_prime",
    "zlinalg.rank_mod_p": "zlinalg.rank_mod_p",
    "complexes.homology_int": "complexes.homology_int",
    "complexes.validate_complex": "complexes.validate",
    "complexes.uct_check": "complexes.uct_check",
}

# layers reported with self time, share and inclusive share
TIMED_LAYERS = (
    "cli", "documents.parse", "documents.other",
    "spectral.validate", "spectral.spectral_pages", "spectral.filtration",
    "spectral.oppose", "spectral.other",
    "qlinalg.subspace", "qlinalg.rref", "qlinalg.solve", "qlinalg.matmul",
    "qlinalg.other",
    "zlinalg.snf", "zlinalg.is_prime", "zlinalg.rank_mod_p", "zlinalg.other",
    "complexes.homology_int", "complexes.validate", "complexes.uct_check",
    "complexes.other",
)
# layers reported with a call count
COUNTED_LAYERS = ("documents.parse", "spectral.spectral_pages",
                  "qlinalg.subspace", "qlinalg.rref", "qlinalg.solve",
                  "qlinalg.matmul", "zlinalg.snf", "zlinalg.is_prime",
                  "complexes.homology_int")
# layers whose arguments or results feed COUNTS once the request ends
RESULT_COUNTED = ("documents.parse", "spectral.spectral_pages",
                  "qlinalg.rref", "zlinalg.snf")
COUNTS = ("documents.input_bytes", "spectral.page_cells",
          "spectral.nonzero_cells", "qlinalg.rref.cells", "zlinalg.snf.cells",
          "zlinalg.snf.transform_bits", "zlinalg.snf.diag_bits")


class Tracer:
    """Records spans and counts for calls into the wrapped exhom functions."""

    def __init__(self):
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.request = -1
        self._stack: List[int] = []
        self._pending: List[tuple] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def _targets(self):
        """(qualified name, owner, attribute, function) for every function
        to wrap, owner being the defining module or class."""
        for short in MODULES:
            mod = importlib.import_module(f"exhom.{short}")
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    yield f"{short}.{attr}", mod, attr, fn
        from exhom.qlinalg import RatMatrix
        yield ("qlinalg.RatMatrix.__matmul__", RatMatrix, "__matmul__",
               RatMatrix.__matmul__)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "exhom" or n.startswith("exhom.")]
        for name, owner, attr, fn in self._targets():
            wrapper = self._wrap(name, fn)
            if inspect.isclass(owner):
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._saved.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        layer = LAYERS.get(name, name.split(".")[0] + ".other")
        spans, stack, pending = self.spans, self._stack, self._pending
        clock = time.perf_counter
        counted = layer in RESULT_COUNTED

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (layer, start, end, parent, self.request)
            if counted:
                pending.append((layer, args, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per request -----------------------------------------------------

    def begin(self, request: int) -> None:
        self.request = request

    def end(self) -> None:
        """Turn the results held during the request into counts, outside
        every span."""
        c = self.counts
        for layer, args, result in self._pending:
            if layer == "documents.parse":
                c["documents.input_bytes"] += len(args[0].encode())
            elif layer == "qlinalg.rref":
                c["qlinalg.rref.cells"] += args[0].rows * args[0].cols
            elif layer == "zlinalg.snf":
                A = args[0]
                c["zlinalg.snf.cells"] += A.rows * A.cols
                bits = max((abs(e).bit_length()
                            for M in (result.U, result.V) for e in M.entries),
                           default=0)
                c["zlinalg.snf.transform_bits"] = max(
                    c["zlinalg.snf.transform_bits"], bits)
                c["zlinalg.snf.diag_bits"] = max(
                    c["zlinalg.snf.diag_bits"],
                    max((abs(d).bit_length() for d in result.diagonal),
                        default=0))
            elif layer == "spectral.spectral_pages":
                K, axis = args[0], args[1]
                levels = (K.max_r if axis == "column" else K.max_c) + 1
                others = (K.max_c if axis == "column" else K.max_r) + 1
                c["spectral.page_cells"] += len(result.pages) * levels * others
                c["spectral.nonzero_cells"] += sum(
                    len(grid) for grid in result.pages.values())
        self._pending.clear()
        self.request = -1

    # -- results ---------------------------------------------------------

    def summary(self, requests=None) -> dict:
        """Per-layer self and inclusive seconds, total root-span seconds,
        and self seconds by layer path (the distinct layers from the root
        down), optionally restricted to a set of request ids.

        Inclusive time counts only spans with no ancestor in the same
        layer, so nested calls of one layer are not counted twice.
        """
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        paths: List[tuple] = []
        selfs: Dict[str, float] = defaultdict(float)
        incl: Dict[str, float] = defaultdict(float)
        by_path: Dict[tuple, float] = defaultdict(float)
        root = 0.0
        for i, (name, start, end, parent, rid) in enumerate(self.spans):
            above = paths[parent] if parent >= 0 else ()
            paths.append(above if name in above else above + (name,))
            if requests is not None and rid not in requests:
                continue
            own = (end - start) - child[i]
            selfs[name] += own
            by_path[paths[i]] += own
            if name not in above:
                incl[name] += end - start
            if parent < 0:
                root += end - start
        return {"self": dict(selfs), "incl": dict(incl), "root": root,
                "by_path": dict(by_path)}

    def calls(self) -> Counter:
        return Counter(name for name, *_ in self.spans)

    def write(self, path: str, kinds: Dict[int, str]) -> None:
        """Spans as JSON lines: layer, start, end, parent, request, kind."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, rid in self.spans:
                fh.write(json.dumps([name, round(start, 7), round(end, 7),
                                     parent, rid, kinds.get(rid, "")]))
                fh.write("\n")
