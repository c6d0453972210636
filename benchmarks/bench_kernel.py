"""Compare the compiled kernel against the pure-Python reference.

Run after an editable install (which builds the C extension):

    python benchmarks/bench_kernel.py
"""

from __future__ import annotations

import random
import time

from sumsetchains import _kernel_py as py

try:
    from sumsetchains import _kernel as c
except ImportError:
    c = None


def _time(fn, *args, repeat: int = 3) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def _doubling_batch(mod, sets):
    return [mod.doubling_size(s) for s in sets]


def _rank_batch(mod, sets):
    return [mod.lambda_rank(s) for s in sets]


def _sweep_batch(mod, k, ms, t_max):
    return [mod.sweep_slice(k, m, t_max) for m in ms]


def main() -> None:
    rng = random.Random(20260816)
    sets = []
    for _ in range(2000):
        k = rng.randint(4, 10)
        elems = sorted(rng.sample(range(4000), k))
        sets.append(tuple(e - elems[0] for e in elems))

    jobs = [
        ("doubling_size x2000", _doubling_batch, (sets,)),
        ("lambda_rank  x2000", _rank_batch, (sets,)),
        ("sweep_slice  k=7 m<=40", _sweep_batch, (7, range(6, 41), 23)),
    ]

    print(f"{'kernel job':<24} {'python':>10} {'c':>10} {'speedup':>9}")
    for name, fn, args in jobs:
        t_py = _time(fn, py, *args)
        if c is None:
            print(f"{name:<24} {t_py:>9.4f}s {'missing':>10} {'':>9}")
            continue
        got_py = fn(py, *args)
        got_c = fn(c, *args)
        assert got_py == got_c, f"kernel mismatch in {name}"
        t_c = _time(fn, c, *args)
        print(f"{name:<24} {t_py:>9.4f}s {t_c:>9.4f}s {t_py / t_c:>8.1f}x")

    if c is None:
        print("\ncompiled kernel not available; build with: pip install -e .")


if __name__ == "__main__":
    main()
