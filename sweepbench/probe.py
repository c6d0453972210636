"""Kernel probes on seeded inputs, pure backend and compiled when it loads.

Usage: ``python probe.py SEED`` with the built package importable. Prints
one JSON object: per-call times of ``doubling_size`` and ``lambda_rank`` over
random sets (k 4..10, elements below 4000), ns per candidate of
``sweep_slice`` at k = 7 over two seeded slice maxima, and whether the
compiled outputs equal the pure ones. Each job is timed three times and the
median kept.
"""

import json
import math
import random
import statistics
import sys
import time

from sumsetchains import _kernel_py as py

try:
    from sumsetchains import _kernel as compiled
except ImportError:
    compiled = None

N_SETS = 2000
SWEEP_K = 7
SWEEP_T_MAX = 23
REPEATS = 3


def _median_time(fn, *args):
    times = []
    result = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn(*args)
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def _doubling(mod, sets):
    return [mod.doubling_size(s) for s in sets]


def _rank(mod, sets):
    return [mod.lambda_rank(s) for s in sets]


def _sweep(mod, ms):
    return [mod.sweep_slice(SWEEP_K, m, SWEEP_T_MAX) for m in ms]


def probe(mod, sets, ms) -> tuple[dict, tuple]:
    t_dbl, dbl = _median_time(_doubling, mod, sets)
    t_rank, rank = _median_time(_rank, mod, sets)
    t_sweep, sweep = _median_time(_sweep, mod, ms)
    candidates = sum(math.comb(m - 1, SWEEP_K - 2) for m in ms)
    timings = {
        "doubling_size.us_per_call": t_dbl / len(sets) * 1e6,
        "lambda_rank.us_per_call": t_rank / len(sets) * 1e6,
        "sweep_slice.ns_per_candidate": t_sweep / candidates * 1e9,
    }
    return timings, (dbl, rank, sweep)


def main() -> int:
    rng = random.Random(int(sys.argv[1]))
    sets = []
    for _ in range(N_SETS):
        elems = sorted(rng.sample(range(4000), rng.randint(4, 10)))
        sets.append(tuple(e - elems[0] for e in elems))
    ms = rng.sample(range(22, 29), 2)
    out = {"sweep_ms": ms, "compiled_loaded": compiled is not None, "agree": True}
    out["py"], reference = probe(py, sets, ms)
    if compiled is not None:
        out["c"], got = probe(compiled, sets, ms)
        out["agree"] = got == reference
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
