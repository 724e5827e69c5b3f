"""Per-layer spans recorded from outside the mmcluster package.

``Tracer.install`` replaces each traced public function, in every loaded
``mmcluster`` module that binds it, with a wrapper that records a span:
calls and self time (duration minus the time of traced children).  While
``tracemalloc`` is tracing, the pipelines and the spans directly under a
pipeline also record their peak memory above the span's starting level.
``tracemalloc`` slows allocation-heavy Python code several times over, so
the benchmark takes times and peaks from separate operations.
``uninstall`` puts the original functions back.  A traced name that no
longer exists is reported as missing instead of failing the run.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass

PIPELINES = (
    "cluster.algorithm2_cov_components",
    "cluster.algorithm3_proj_components",
    "cluster.algorithm4_local_pca_spectral",
    "cluster.njw_baseline",
)

# Spans that report .peak_mb: the pipelines and every span that a
# pipeline calls directly in at least one workload.
PEAK_SPANS = PIPELINES + (
    "neighborhoods.build_index",
    "neighborhoods.subsample_centers",
    "local_pca.batch_local_models",
    "affinity.auto_epsilon",
    "affinity.auto_eta",
    "affinity.gaussian_product_affinity",
    "affinity.distance_gaussian_affinity",
    "affinity.indicator_pairs",
    "affinity.pairwise_diff_norms",
    "neighborhoods.connected_components",
    "neighborhoods.assign_to_closest_survivor",
    "cluster.njw_partition",
)

# linalg.eigh is reported under the span that called it: the per-point
# local models and the spectral embedding are different work.
EIGH = "linalg.eigh"
EIGH_PARENTS = {
    "local_pca.batch_local_models": "linalg.eigh.in_local_pca",
    "cluster.njw_partition": "linalg.eigh.in_njw_partition",
}

TIME_SPANS = PEAK_SPANS + tuple(EIGH_PARENTS.values()) + (
    "cluster.kmeans_pp",
    "datasets.generate",
    "evaluation.run_trials",
    "evaluation.misclustering_rate",
)

# What each counted span adds to the named counters, from its arguments
# and its result.
COUNTERS = {
    "local_pca.batch_local_models": lambda a, out: {"local_pca.models": len(out)},
    "neighborhoods.subsample_centers": lambda a, out: {"neighborhoods.centers": len(out)},
    "affinity.pairwise_diff_norms": lambda a, out: {"affinity.pairs": len(a[1])},
    "affinity.indicator_pairs": lambda a, out: {
        "affinity.edges_kept": int(out[1].sum()),
        "affinity.candidate_pairs": len(out[0]),
    },
}


def traced_functions() -> list[str]:
    """``module.function`` names that get a wrapper."""
    names = [n for n in TIME_SPANS if n not in EIGH_PARENTS.values()]
    return names + [EIGH]


@dataclass
class _Frame:
    name: str
    start: float
    child_s: float = 0.0
    peak: bool = False
    base: int = 0
    high: int = 0


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    peak_bytes: int = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.counts: Counter = Counter()
        self.not_found: set[str] = set()
        self._stack: list[_Frame] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self, package: str = "mmcluster") -> None:
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == package or k.startswith(package + "."))]
        for qual in traced_functions():
            mod_name, fn_name = qual.split(".")
            original = getattr(sys.modules.get(f"{package}.{mod_name}"), fn_name, None)
            if not callable(original):
                self.not_found.add(qual)
                continue
            wrapper = self._wrap(qual, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit()
            if count is not None:
                try:
                    self.counts.update(count(args, out))
                except (IndexError, TypeError, AttributeError):
                    # the signature or result changed: report, do not crash
                    self.not_found.add(f"{name} (counters)")
            return out

        return traced

    def _enter(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else None
        if name == EIGH:
            name = EIGH_PARENTS.get(parent.name if parent else "", "linalg.eigh.in_other")
        frame = _Frame(name, 0.0)
        if tracemalloc.is_tracing() and (
                name in PIPELINES or (parent is not None and parent.name in PIPELINES)):
            current, peak = tracemalloc.get_traced_memory()
            # reset_peak forgets the peak so far: hand it to the open frames first
            for f in self._stack:
                if f.peak:
                    f.high = max(f.high, peak)
            tracemalloc.reset_peak()
            frame.peak, frame.base, frame.high = True, current, current
        self._stack.append(frame)
        frame.start = time.perf_counter()

    def _exit(self) -> None:
        elapsed = time.perf_counter() - self._stack[-1].start
        frame = self._stack.pop()
        st = self.stats.setdefault(frame.name, SpanStats())
        st.calls += 1
        st.self_s += elapsed - frame.child_s
        if self._stack:
            self._stack[-1].child_s += elapsed
        if frame.peak:
            frame.high = max(frame.high, tracemalloc.get_traced_memory()[1])
            st.peak_bytes = max(st.peak_bytes, frame.high - frame.base)
            for f in self._stack:
                if f.peak:
                    f.high = max(f.high, frame.high)

    def metrics(self, n_ops: int, memory: "Tracer") -> dict[str, tuple[float, str]]:
        """Per-operation layer metrics over ``n_ops`` operations, with the
        peaks taken from the ``memory`` tracer.  A span with no call reads 0."""
        out: dict[str, tuple[float, str]] = {}
        for name in TIME_SPANS:
            st = self.stats.get(name, SpanStats())
            out[f"{name}.self_s"] = (st.self_s / n_ops, "s")
            out[f"{name}.calls"] = (st.calls / n_ops, "count")
            if name in PEAK_SPANS:
                peak = memory.stats.get(name, SpanStats()).peak_bytes
                out[f"{name}.peak_mb"] = (peak / 1e6, "MB")
        for name in ("local_pca.models", "affinity.pairs", "affinity.edges_kept",
                     "neighborhoods.centers"):
            out[name] = (self.counts[name] / n_ops, "count")
        candidates = self.counts["affinity.candidate_pairs"]
        kept_share = self.counts["affinity.edges_kept"] / candidates if candidates else 0.0
        out["affinity.edges_kept.ratio"] = (kept_share, "ratio")
        return out

    def missing(self) -> list[str]:
        """Traced names that recorded no call, or that were not found."""
        return sorted(self.not_found
                      | {n for n in TIME_SPANS if self.stats.get(n, SpanStats()).calls == 0})
