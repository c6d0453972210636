"""Outside-in tracing of the sumsetchains layers.

The tracer replaces public functions with timing wrappers at the places
where callers look them up: kernel primitives are reached as attributes of
the ``kernel`` module, other names are imported into each calling module
(``search.sumset``, ``cli.factorize``), so every module-level binding of
the original is swapped. Nothing under the package's source changes.

Each wrapped name keeps four aggregates (calls, total seconds, self seconds,
longest single call) plus counters fed by per-name hooks that run outside
the timed interval, and whose failures are recorded, never raised; self time
is a call's duration minus the time of the traced calls nested inside it. Forked pool workers start with zeroed aggregates and write
their own totals to ``trace-<pid>.json`` after every outermost call, because
pool workers leave through ``os._exit`` and never run exit handlers. The
parent writes its file when the run ends; :func:`merge` adds them up.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

# (module, attribute, metric prefix) for every timed boundary
TARGETS = (
    ("sumsetchains.kernel", "sweep_slice", "kernel.sweep_slice"),
    ("sumsetchains.kernel", "collect_slice", "kernel.collect_slice"),
    ("sumsetchains.kernel", "is_one_dimensional", "kernel.is_one_dimensional"),
    ("sumsetchains.kernel", "doubling_size", "kernel.doubling_size"),
    ("sumsetchains.intset", "sumset", "intset.sumset"),
    ("sumsetchains.dimension", "extension_candidates", "dimension.extension_candidates"),
    ("sumsetchains.stability", "stable_decompose", "stability.stable_decompose"),
    ("sumsetchains.doubling", "profile", "doubling.profile"),
    ("sumsetchains.search", "check_extension_lemmas", "search.check_extension_lemmas"),
    ("sumsetchains.search", "extension_lemma_sweep", "search.extension_lemma_sweep"),
    ("sumsetchains.search", "check_uniqueness_lemmas", "search.check_uniqueness_lemmas"),
    ("sumsetchains.search", "vol1_oracle", "search.vol1_oracle"),
    ("sumsetchains.chains", "enumerate_chains", "chains.enumerate_chains"),
    ("sumsetchains.chains", "is_chain", "chains.is_chain"),
    ("sumsetchains.growth", "factorize", "growth.factorize"),
)

CACHE_ENV = "SUMSETCHAINS_CACHE"


def _slice_candidates(args, kwargs) -> int:
    # interior tuples of a (k, m) slice, gcd-rejected ones included
    k = kwargs.get("k", args[0] if args else 0)
    m = kwargs.get("m", args[1] if len(args) > 1 else 0)
    return math.comb(m - 1, k - 2) if m >= 1 and k >= 2 else 0


def _cache_names() -> frozenset[str]:
    path = os.environ.get(CACHE_ENV)
    if not path or not os.path.isdir(path):
        return frozenset()
    return frozenset(os.listdir(path))


class Tracer:
    """Aggregated spans for one process, plus the patches that feed them."""

    def __init__(self, out_dir: Path | str):
        self.out_dir = Path(out_dir)
        self.stats: dict[str, list[float]] = {}
        self.counts: dict[str, float] = {}
        self.problems: list[str] = []
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []
        self._main_pid = os.getpid()
        os.register_at_fork(after_in_child=self._after_fork)

    # ------------------------------------------------------------------
    # recording

    def _after_fork(self) -> None:
        for agg in self.stats.values():
            agg[:] = [0, 0.0, 0.0, 0.0]
        for key in self.counts:
            self.counts[key] = 0
        self._stack.clear()

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn, *, before=None, after=None):
        """Timing wrapper around fn. ``before(args, kwargs)`` runs outside the
        timed interval and its value reaches ``after(token, args, kwargs,
        result, elapsed)``, which runs outside it too."""
        agg = self.stats.setdefault(name, [0, 0.0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def hook(fn, *args):
            # a failing hook must never change what the program does
            try:
                return fn(*args)
            except Exception as exc:
                problem = f"{name} hook: {exc!r}"
                if problem not in tracer.problems:
                    tracer.problems.append(problem)
                return None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = hook(before, args, kwargs) if before is not None else None
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - nested
                if elapsed > agg[3]:
                    agg[3] = elapsed
            if after is not None:
                hook(after, token, args, kwargs, result, elapsed)
            if not stack and os.getpid() != tracer._main_pid:
                tracer.dump()
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    # patching

    def _rebind(self, original, replacement) -> int:
        """Swap every module-level binding of original inside the package."""
        hits = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "sumsetchains" or mod_name.startswith("sumsetchains.")
            ):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, replacement)
                    hits += 1
        return hits

    def _hooks(self, name: str):
        if name in ("kernel.sweep_slice", "kernel.collect_slice"):
            def after(token, args, kwargs, result, elapsed):
                self.count(name + ".candidates", _slice_candidates(args, kwargs))
                if name == "kernel.collect_slice":
                    self.count(name + ".sets", sum(len(v) for v in result.values()))
            return None, after
        if name == "search.vol1_oracle":
            def after(before_names, args, kwargs, result, elapsed):
                fresh = [n for n in _cache_names() - before_names if n.startswith("report")]
                if fresh:
                    self.count("search.cache.misses")
                else:
                    self.count("search.cache.hits")
                    self.count("search.cache.load_s", elapsed)
            return (lambda args, kwargs: _cache_names()), after
        return None, None

    def install(self) -> "Tracer":
        import importlib

        tracer = self
        for mod_name, attr, name in TARGETS:
            try:
                mod = importlib.import_module(mod_name)
                original = getattr(mod, attr)
            except (ImportError, AttributeError):
                self.problems.append(f"{mod_name}.{attr} not found")
                continue
            before, after = self._hooks(name)
            self._rebind(original, self.wrap(name, original, before=before, after=after))

        try:
            from sumsetchains.intset import IntSet
        except ImportError:
            self.problems.append("sumsetchains.intset.IntSet not found")
        else:
            original_init = IntSet.__init__

            @functools.wraps(original_init)
            def counted_init(obj, *args, **kwargs):
                tracer.count("intset.IntSet.constructions")
                return original_init(obj, *args, **kwargs)

            self._patched.append((IntSet, "__init__", original_init))
            IntSet.__init__ = counted_init

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                tracer.count("search.pool.starts")
                super().__init__(*args, **kwargs)

            def submit(self, *args, **kwargs):
                tracer.count("search.pool.jobs")
                return super().submit(*args, **kwargs)

        if not self._rebind(ProcessPoolExecutor, CountingPool):
            self.problems.append("no ProcessPoolExecutor binding in sumsetchains")
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------------
    # output

    def dump(self) -> None:
        """Write this process's totals to trace-<pid>.json."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"trace-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        snapshot = {"stats": self.stats, "counts": self.counts, "problems": self.problems}
        tmp.write_text(json.dumps(snapshot))
        os.replace(tmp, path)


def merge(out_dir: Path | str) -> dict:
    """Sum the per-process trace files: counts and times add, the longest
    single call is the maximum over processes."""
    stats: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    problems: set[str] = set()
    for path in sorted(Path(out_dir).glob("trace-*.json")):
        part = json.loads(path.read_text())
        for name, (calls, total, own, longest) in part["stats"].items():
            agg = stats.setdefault(name, [0, 0.0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += own
            agg[3] = max(agg[3], longest)
        for key, value in part["counts"].items():
            counts[key] = counts.get(key, 0) + value
        problems.update(part["problems"])
    return {"stats": stats, "counts": counts, "problems": sorted(problems)}
