"""Per-layer spans recorded around calls into xbound's public functions.

The tracer replaces each traced function, while installed, in the namespace
of every loaded ``xbound`` module that holds it, so the calls xbound makes
between its own modules are timed at their call sites without editing the
program.  Spans are kept in memory in flat arrays and written out once at
the end of the run.
"""
from __future__ import annotations

import sys
from array import array
from time import perf_counter_ns

import numpy as np

# (module, function, timed): timed=False counts calls without a span, for
# functions called so often that a span each would swamp what they cost.
TARGETS = [
    ("cli", "main", True),
    ("cli", "build_parser", True),
    ("io", "load_density", True),
    ("linalg", "validate_density", True),
    ("linalg", "sample_random_density", True),
    ("two_qubit", "x_decompose", True),
    ("two_qubit", "x_concurrence", True),
    ("two_qubit", "wootters_concurrence", True),
    ("highdim", "generalized_lower_bound", True),
    ("highdim", "pair_bound", False),
    ("oracle", "fuzz_inequality", True),
    ("oracle", "convex_roof_upper", True),
    ("oracle", "optimize_basis", True),
]
MINIMIZE = "scipy.optimize.minimize"


class Tracer:
    """Span recorder; ``install``/``uninstall`` bracket each traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self.nfev = 0
        self.nit = 0
        self.passes = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def run_pass(self, fn):
        """Run one pass as the root span of its own tree."""
        self.passes += 1
        idx = self._open("pass")
        try:
            return fn()
        finally:
            self._close(idx)

    def _timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            label = name
            if name == "highdim.generalized_lower_bound":
                q = args[0] if args else kwargs["q"]
                label = f"{name}.{q.dimA}x{q.dimB}"
            idx = self._open(label)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _minimize(self, fn):
        def wrapper(*args, **kwargs):
            idx = self._open(MINIMIZE)
            try:
                res = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self.nfev += int(res.nfev)
            self.nit += int(res.nit)
            return res
        return wrapper

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        import scipy.optimize

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "xbound" or n.startswith("xbound."))]
        wrappers = []
        for mod, func, timed in TARGETS:
            orig = getattr(sys.modules[f"xbound.{mod}"], func)
            name = f"{mod}.{func}"
            wrappers.append((orig, self._timed(name, orig) if timed
                             else self._counted(name, orig)))
        orig = scipy.optimize.minimize
        wrappers.append((orig, self._minimize(orig)))
        for m in modules:
            for attr, value in list(vars(m).items()):
                for orig, wrapper in wrappers:
                    if value is orig:
                        self._saved.append((m, attr, orig))
                        setattr(m, attr, wrapper)
                        break

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._saved):
            setattr(m, attr, orig)
        self._saved.clear()

    # -- results ----------------------------------------------------------

    def metrics(self, layer_names: list[str]) -> dict[str, float]:
        """Per-pass calls, median duration and self time for each layer metric.

        ``layer_names`` are the per-layer metric names the benchmark declares,
        as ``<function>.calls``, ``.us_per_call`` (median, children included)
        or ``.self_ms`` (per pass).  A function never called reports 0; names
        of other forms are left to the caller.
        """
        n = max(self.passes, 1)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        nid = np.frombuffer(self.name_id, dtype=np.uint16)
        dur = end - start
        child = np.zeros(dur.size, dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child
        per_name = {}
        for k, name in enumerate(self.names):
            sel = nid == k
            per_name[name] = (int(sel.sum()), dur[sel], self_ns[sel])

        out = {}
        for metric in layer_names:
            func, _, kind = metric.rpartition(".")
            if func == MINIMIZE and kind in ("nfev", "nit"):
                out[metric] = getattr(self, kind) / n
                continue
            if func in self.counts:
                out[metric] = self.counts[func] / n
                continue
            calls, d, s = per_name.get(func, (0, np.zeros(0), np.zeros(0)))
            if kind == "calls":
                out[metric] = calls / n
            elif kind == "us_per_call":
                out[metric] = float(np.median(d)) / 1e3 if calls else 0.0
            elif kind == "self_ms":
                out[metric] = float(s.sum()) / n / 1e6
        return out

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
        )
