"""Per-layer spans recorded from outside the package.

`Tracer.patch` wraps permpriv's public functions in place, at every name they
are bound under: `cli`, `baseline`, `demo` and `linkage` import functions from
`privacy`, `reverse_map` and `table` directly, so patching only the defining
module would miss their calls.  A wrapper records a span (self time and a
call count) and, for some layers, a work counter.  Spans stay in memory and
are read out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager


def _cells(stats, args, kwargs, result):
    stats["io_report.load_csv.cells"] += result.n * result.m


def _report_bytes(stats, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    stats["io_report.write_report.bytes"] += os.path.getsize(path)


def _compared(stats, args, kwargs, result):
    """Rank cells a brute-force distance search compares: queries * n * m."""
    queries, target = args[0], args[1]
    q = getattr(queries, "n", None)  # a table of query records
    if q is None:  # a bare record or an array of records
        q = 1 if getattr(queries, "ndim", 1) == 1 else len(queries)
    stats["privacy.cells_compared"] += q * target.n * target.m


def _batch(stats, args, kwargs, result):
    _compared(stats, args, kwargs, result)
    stats["privacy.batch_distances.queries"] += len(result)


def _baseline_records(stats, args, kwargs, result):
    stats["baseline.baseline_records"] += result.n


def _link(stats, args, kwargs, result):
    _compared(stats, args, kwargs, result)
    stats["linkage.multi_match_records"] += sum(
        1 for r in result.per_record if len(r.matched_indices) > 1
    )


# (layer metric name, defining module, attribute, work counter)
POINTS = (
    ("io_report.load_csv", "io_report", "load_csv", _cells),
    ("io_report.write_csv", "io_report", "write_csv", None),
    ("io_report.write_report", "io_report", "write_report", _report_bytes),
    ("table.rank_profile", "table", "RankProfile.of", None),
    ("table.compute_ranks", "table", "compute_ranks", None),
    ("reverse_map.table", "reverse_map", "reverse_map_table", None),
    ("privacy.certify_dataset", "privacy", "certify_dataset", _compared),
    ("privacy.verify_record", "privacy", "verify_record", _compared),
    ("privacy.permutation_distance", "privacy", "permutation_distance", _compared),
    ("privacy.batch_distances", "privacy", "batch_permutation_distances", _batch),
    ("privacy.window_variance", "privacy", "window_variance", None),
    ("linkage.link_records", "linkage", "link_records", _link),
    ("linkage.score_linkage", "linkage", "score_linkage", None),
    ("baseline.generate_baseline", "baseline", "generate_baseline", _baseline_records),
    ("baseline.distance_distribution", "baseline", "distance_distribution", None),
    ("baseline.assess_tables", "baseline", "assess_tables", None),
    ("baseline.subject_safety_check", "baseline", "subject_safety_check", None),
    ("cli", "cli", "main", None),
    ("masking.synth_original", "masking", "synth_original", None),
    ("masking.gaussian_mask", "masking", "gaussian_mask", None),
)


class Tracer:
    """Spans and counters keyed by metric name; self time excludes child spans."""

    def __init__(self):
        self.stats: Counter = Counter()
        self._stack: list[list[float]] = []

    def wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]  # time spent in child spans
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += dur
                self.stats[name + ".self_s"] += dur - frame[0]
                self.stats[name + ".calls"] += 1
            if count is not None:
                count(self.stats, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def patch(self):
        """Wrap every binding of every traced function; restore them on exit."""
        importlib.import_module("permpriv.cli")  # imports every traced module
        modules = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "permpriv" or name.startswith("permpriv."))
        ]
        undo = []
        for name, module, attr, count in POINTS:
            home = importlib.import_module(f"permpriv.{module}")
            if "." in attr:  # a classmethod: its one binding is the class
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, classmethod(self.wrap(name, original.__func__, count)))
                undo.append((cls, meth, original))
                continue
            original = getattr(home, attr)
            wrapper = self.wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, original))
        # A traced function still reachable untraced from a module or class
        # namespace would lose its calls silently.
        originals = {id(original) for _, _, original in undo}
        namespaces = modules + [
            v for mod in modules for v in vars(mod).values()
            if isinstance(v, type) and v.__module__.startswith("permpriv")
        ]
        missed = [
            f"{getattr(ns, '__name__', ns)}.{key}"
            for ns in namespaces
            for key, value in vars(ns).items()
            if id(value) in originals
        ]
        if missed:
            raise RuntimeError(f"traced functions still bound untraced at {missed}")
        try:
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)
