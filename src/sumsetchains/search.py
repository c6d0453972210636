"""Brute-force oracles over normal integer sets.

Exhaustive volume tables for one-dimensional sets at fixed cardinality and
doubling, conjecture verification with witness and violation reporting,
extremality testing, and sweep checks for the extension and uniqueness
properties that drive the chain classification.

Scope: every volume reported here ranges over one-dimensional sets only.
The maximum-volume conjecture asserts the overall maximum is attained by
such sets, but reports never assume it; they state their scope.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import os
import tempfile
from pathlib import Path
from typing import NamedTuple

from . import chains, kernel
from .chains import is_canonical_chain, is_chain_member
from .dimension import is_one_dimensional, out_of_hull_pool
from .doubling import DoublingProfile, mu, profile, t_range
from .errors import CapacityError
from .growth import adjoin_double_max
from .intset import (
    IntSet,
    doubling,
    is_progression,
    mirror_tuple,
    reflexion,
    require_normal,
    sumset,  # unused here; sweepbench/test_sweepbench.py reads search.sumset
)
from .stability import stable_split

DEFAULT_BUDGET = 10**9
CACHE_ENV = "SUMSETCHAINS_CACHE"
# the layout of a slices file; it enters kernel_digest, so a new layout
# retires the old files as a kernel change does
SLICES_SCHEMA = (
    "k: int, digest: str, inputs: {str(t): [mu, failing]}, "
    "slices: {str(m): {str(t): [sets, pairs, [listed sets]]}}"
)

SCOPE_NOTE = "volumes range over one-dimensional sets only"


def estimated_candidates(k: int, max_elem: int) -> int:
    """Candidate count for a full sweep: sets {0, ..., m} with m <= max_elem
    and k - 2 interior elements sum to C(max_elem, k - 1)."""
    return math.comb(max_elem, k - 1)


def _check_budget(k: int, max_elem: int, force: bool) -> None:
    """The one sweep budget: CapacityError when the normal k-sets with maximum
    at most max_elem number over DEFAULT_BUDGET candidates and force is off."""
    est = estimated_candidates(k, max_elem)
    if est > DEFAULT_BUDGET and not force:
        raise CapacityError(
            f"a sweep of the normal {k}-sets with maximum <= {max_elem} takes "
            f"about {est} candidates, over the budget of {DEFAULT_BUDGET}; "
            f"run it anyway with --force (force=True)"
        )


def _oracle_affordable(j: int) -> bool:
    """Does the oracle's default sweep at cardinality j fit DEFAULT_BUDGET?
    It decides which lemma checks may call the oracle, from the budget
    alone: neither the cache nor force enters, so no report depends on
    what happens to be cached."""
    return estimated_candidates(j, mu(j, t_range(j)[1]) + j) <= DEFAULT_BUDGET


def enumerate_normal_sets(k: int, max_elem: int, *, force: bool = False):
    """Yield every normal-form set of k elements with maximum at most
    max_elem, ordered by maximum then lexicographically. Over the sweep
    budget it raises CapacityError unless force is set.

    Walk-free (itertools.combinations plus a gcd test), so the tests can
    check the kernels' slice walk against it.
    """
    if k < 3:
        raise ValueError("k must be >= 3")
    if max_elem < k - 1:
        raise ValueError("max_elem must be >= k - 1")
    _check_budget(k, max_elem, force)
    for m in range(k - 1, max_elem + 1):
        for interior in itertools.combinations(range(1, m), k - 2):
            if math.gcd(m, *interior) == 1:
                yield IntSet((0, *interior, m))


# ---------------------------------------------------------------------------
# slice sweeps and caching

# one slice's census, as census_slice returns it: per realized doubling t,
# the number of sets, the number of their right extensions, and the listed
# sets in lexicographic order
Census = dict[int, tuple[int, int, tuple[tuple[int, ...], ...]]]

# (k, m) -> the census of slice m, walked or read in this process
_SLICE_CACHE: dict[tuple[int, int], Census] = {}


def cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV)
    if env:
        base = Path(env)
    else:
        xdg = os.environ.get("XDG_CACHE_HOME")
        base = Path(xdg) if xdg else Path.home() / ".cache"
        base = base / "sumsetchains"
    base.mkdir(parents=True, exist_ok=True)
    return base


def _slices_path(k: int) -> Path:
    return cache_dir() / f"slices_k{k}.json"


def _sha256():
    # CPython's built-in sha256, not hashlib's: importing hashlib loads
    # OpenSSL, which costs 5 ms and 3.6 MB of resident memory
    try:
        from _sha2 import sha256  # Python >= 3.12
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256()


@functools.cache
def kernel_digest() -> str:
    """sha256 over the two kernel sources and the slices-file schema, computed
    once per process on first use. A slices file under another digest was
    written by another kernel and counts as missing. A source that is not
    installed beside this module enters as empty."""
    h = _sha256()
    here = Path(__file__).parent
    for name in ("_kernel.c", "_kernel_py.py"):
        try:
            data = (here / name).read_bytes()
        except OSError:
            data = b""
        h.update(name.encode() + b"\0" + data + b"\0")
    h.update(SLICES_SCHEMA.encode())
    return h.hexdigest()


def _write_json(path: Path, payload: dict) -> None:
    # a temp name of its own per writer, so concurrent runs never collide
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(json.dumps(payload, sort_keys=True))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _census_inputs(k: int) -> dict[int, tuple[int, int]]:
    """(mu(k, t), failing) per legal doubling t of k, the inputs a census is
    taken under: bit o of failing is set when an extension with overlap o,
    whose pair is (t + k + 1 - o, o), fails _pair_verdict."""
    lo, hi = t_range(k)
    inputs = {}
    for t in range(lo, hi + 1):
        passing = _passing_pairs(k, t)
        failing = sum(1 << o for o in range(k + 2) if (t + k + 1 - o, o) not in passing)
        inputs[t] = (mu(k, t), failing)
    return inputs


def _listing(k: int, m: int, inputs: dict[int, tuple[int, int]]) -> dict[int, int]:
    """The census_slice listing of slice m: every set of a doubling t with
    m >= mu(k, t), which the oracle reads as witnesses and violations, and
    up to the extension sweep's bound mu(k, t) + k the sets with a failing
    pair, which the sweep checks pair by pair."""
    return {
        t: -1 if m >= top else failing if m <= top + k else 0
        for t, (top, failing) in inputs.items()
    }


def _read_census(k: int, m: int, t: int, top: int, entry) -> tuple | None:
    """A stored [sets, pairs, listed] of doubling t at slice m as a census
    entry, or None when it cannot be one: counts that are not integers, no
    set, negative pairs, or listed sets out of order, not k-sets from 0 to m
    of doubling t, or not all the sets at m >= mu(k, t) = top."""
    if not (isinstance(entry, list) and len(entry) == 3):
        return None
    sets, pairs, listed = entry
    if not (
        _is_int(sets)
        and _is_int(pairs)
        and sets >= 1
        and pairs >= 0
        and isinstance(listed, list)
        and all(isinstance(a, list) and len(a) == k and all(map(_is_int, a)) for a in listed)
    ):
        return None
    listed = tuple(map(tuple, listed))
    complete = len(listed) == sets if m >= top else len(listed) <= sets
    ordered = all(a < b for a, b in zip(listed, listed[1:]))
    of_slice = all(
        a[0] == 0
        and a[-1] == m
        and all(x < y for x, y in zip(a, a[1:]))
        and kernel.doubling_size(a) == t
        for a in listed
    )
    return (sets, pairs, listed) if complete and ordered and of_slice else None


def _read_slices(k: int, inputs: dict[int, tuple[int, int]]) -> dict[int, Census]:
    """The slices file of k. A file that does not parse, names another k,
    carries another kernel_digest, was walked under other inputs or holds
    an entry that is no census of its slice counts as missing; the next
    sweep overwrites it."""
    try:
        stored = json.loads(_slices_path(k).read_text())
    except (OSError, ValueError):
        return {}
    if not (
        isinstance(stored, dict)
        and _is_int(stored.get("k"))
        and stored["k"] == k
        and stored.get("digest") == kernel_digest()
        and stored.get("inputs") == {str(t): list(v) for t, v in inputs.items()}
        and isinstance(stored.get("slices"), dict)
    ):
        return {}
    table = {}
    for key, entries in stored["slices"].items():
        if not (key.isdecimal() and isinstance(entries, dict)):
            return {}
        m = int(key)
        census = {}
        for t_key, entry in entries.items():
            t = int(t_key) if t_key.isdecimal() else None
            got = _read_census(k, m, t, inputs[t][0], entry) if t in inputs else None
            if got is None:
                return {}
            census[t] = got
        table[m] = dict(sorted(census.items()))
    return table


def _fan_out(fn, jobs: list, threads: int) -> list:
    """[fn(job) for job in jobs], in job order: in this thread when threads
    is 1, else on that many workers. The workers are threads over the
    compiled kernel, whose slice walks release the GIL, and processes over
    the pure twin, which holds it (fn and the jobs must then pickle). After
    any exception, KeyboardInterrupt included, in a job or in this thread, no
    job starts, and the call raises once the jobs in flight finish: the
    interrupt this thread took, else the exception of the lowest-index job
    that failed."""
    if threads == 1:
        return list(map(fn, jobs))
    if kernel.BACKEND != "c":
        # imported here: the process pool pulls in multiprocessing, 15-20 ms
        # of import that a compiled run does not need
        from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait

        pool = ProcessPoolExecutor(max_workers=threads)
        try:
            futures = [pool.submit(fn, job) for job in jobs]
            wait(futures, return_when=FIRST_EXCEPTION)
        finally:
            pool.shutdown(cancel_futures=True)
        # the pool starts the jobs in order, so a cancelled one comes after a failed one
        return [future.result() for future in futures]
    # plain threads that take the jobs in order: the thread pool of
    # concurrent.futures would add 10-14 ms of import, logging included
    import threading

    results: list = [None] * len(jobs)
    errors: dict[int, BaseException] = {}
    order = iter(range(len(jobs)))
    lock = threading.Lock()

    def work():
        while True:
            with lock:
                i = None if errors else next(order, None)
            if i is None:
                return
            try:
                results[i] = fn(jobs[i])
            except BaseException as exc:
                errors[i] = exc

    workers = [threading.Thread(target=work, daemon=True) for _ in jobs[:threads]]
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join()
    except BaseException as exc:
        # an interrupt in this thread stops the workers as a failing job does;
        # a worker not yet alive will take no job
        errors[len(jobs)] = exc
        for w in workers:
            if w.is_alive():
                w.join()
        raise
    if errors:
        raise errors[min(errors)]
    return results


def _census_job(job: tuple[int, int, dict[int, int]]) -> tuple[tuple[int, int], Census]:
    k, m, listing = job
    census = kernel.census_slice(k, m, listing)
    return (k, m), {t: (sets, pairs, tuple(listed)) for t, (sets, pairs, listed) in census.items()}


def _realized_slices(
    k: int, bound: int, *, threads: int, use_cache: bool, force: bool
) -> dict[int, Census]:
    """The census of each slice with maximum element m <= bound, keyed by
    the doublings its one-dimensional sets realize (a doubling that never
    exceeds C(k,2) + 2), each with the counts and the sets that _listing
    asks for.

    The only function that walks. When some slice <= bound is in neither
    memory nor the cache file, the sweep budget applies to the whole bound:
    over it, without force, CapacityError is raised before any worker starts
    or any file is written. A table that already covers the bound is served
    at any size, and nothing is written.
    """
    wanted = range(k - 1, bound + 1)
    missing = [m for m in wanted if (k, m) not in _SLICE_CACHE]
    if missing:
        inputs = _census_inputs(k)
        if use_cache:
            for m, census in _read_slices(k, inputs).items():
                _SLICE_CACHE.setdefault((k, m), census)
            missing = [m for m in wanted if (k, m) not in _SLICE_CACHE]
    if missing:
        _check_budget(k, bound, force)
        # largest slice first, so no worker is left with it at the end
        jobs = [(k, m, _listing(k, m, inputs)) for m in reversed(missing)]
        # every job before any store: a failing one leaves the table as it was
        _SLICE_CACHE.update(_fan_out(_census_job, jobs, threads))
        if use_cache:
            known = {
                str(m): {str(t): entry for t, entry in census.items()}
                for (kk, m), census in _SLICE_CACHE.items()
                if kk == k
            }
            _write_json(
                _slices_path(k),
                {
                    "k": k,
                    "digest": kernel_digest(),
                    "inputs": {str(t): list(v) for t, v in inputs.items()},
                    "slices": known,
                },
            )
    return {m: _SLICE_CACHE[(k, m)] for m in wanted}


# ---------------------------------------------------------------------------
# the volume oracle

class SearchReport(NamedTuple):
    """Outcome of one exhaustive volume sweep at fixed (k, t)."""

    k: int
    t: int
    mu: int
    search_bound: int
    observed_max_vol: int
    witness_sets: tuple[IntSet, ...]
    violation_list: tuple[IntSet, ...]
    attained: bool
    scope: str = SCOPE_NOTE

    @property
    def holds(self) -> bool:
        return not self.violation_list and self.observed_max_vol == self.mu + 1

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "t": self.t,
            "mu": self.mu,
            "search_bound": self.search_bound,
            "observed_max_vol": self.observed_max_vol,
            "witnesses": [list(w) for w in self.witness_sets],
            "violations": [list(v) for v in self.violation_list],
            "attained": self.attained,
            "scope": self.scope,
        }


def vol1_oracle(
    k: int,
    t: int,
    bound: int | None = None,
    *,
    threads: int = 1,
    use_cache: bool = True,
    force: bool = False,
) -> SearchReport:
    """Exhaustive maximum volume over one-dimensional normal sets with
    cardinality k and doubling t, sweeping maxima up to bound.

    The default bound mu(k,t) + k leaves slack above the conjectured
    maximum, so a counterexample just above it would be found, not assumed
    away. The report is read off the per-k slice table, which is cached on
    disk and lists every set of a slice at or above mu(k, t); only a top
    slice below mu(k, t) is walked again for its witnesses. A sweep over the
    budget raises CapacityError unless force is set.
    """
    prof = profile(k, t)
    bound = oracle_bound(k, t, bound)
    slices = _realized_slices(
        k, bound, threads=threads, use_cache=use_cache, force=force
    )
    ms = [m for m, census in slices.items() if t in census]
    if ms:
        top = ms[-1]
        observed = top + 1
        if top >= prof.mu:
            witnesses = tuple(map(IntSet, slices[top][t][2]))
        else:
            witnesses = tuple(map(IntSet, kernel.collect_slice(k, top, (t,))[t]))
    else:
        observed = 0
        witnesses = ()
    violations = [IntSet(a) for m in ms if m > prof.mu for a in slices[m][t][2]]
    constr = attainment_construction(k, t)
    return SearchReport(
        k=k,
        t=t,
        mu=prof.mu,
        search_bound=bound,
        observed_max_vol=observed,
        witness_sets=witnesses,
        violation_list=tuple(violations),
        attained=constr in witnesses,
    )


def oracle_bound(k: int, t: int, bound: int | None) -> int:
    """vol1_oracle's sweep bound: mu(k, t) + k for None; ValueError below mu(k, t)."""
    top = mu(k, t)
    if bound is not None and bound < top:
        raise ValueError(f"bound {bound} is below mu({k},{t}) = {top}")
    return top + k if bound is None else bound


def attainment_construction(k: int, t: int) -> IntSet:
    """A normal one-dimensional set with cardinality k, doubling t, and
    maximum exactly mu(k,t): a punctured segment when t <= 3k-4, otherwise
    the double-max extension of the construction one size down."""
    prof = profile(k, t)
    if prof.c == 2:
        return IntSet((0, *range(prof.b + 1, prof.b + k)))
    return adjoin_double_max(attainment_construction(k - 1, t - (k - 1)))


def is_1_extremal(a: IntSet, *, threads: int = 1, use_cache: bool = True) -> bool:
    """Does a have the largest volume among one-dimensional sets with its
    cardinality and doubling? Decided by the exhaustive oracle's slice table
    up to its default bound, without collecting witnesses; a sweep over the
    budget raises CapacityError."""
    return _top_volume(len(a), doubling(a), chains.volume_1d(a), threads, use_cache)


def _top_volume(k: int, t: int, vol: int, threads: int, use_cache: bool) -> bool:
    """is_1_extremal for a one-dimensional k-set of doubling t and volume
    vol, which the caller already knows."""
    slices = _realized_slices(
        k, mu(k, t) + k, threads=threads, use_cache=use_cache, force=False
    )
    ms = [m for m, census in slices.items() if t in census]
    return vol == (ms[-1] + 1 if ms else 0)


def verify_conjecture(
    k: int,
    *,
    threads: int = 1,
    use_cache: bool = True,
    force: bool = False,
) -> list[SearchReport]:
    """One oracle report per legal doubling at cardinality k.

    The slices missing from the table for all of them are swept first in one
    pass (one fan-out), up to the largest default bound, mu(k, T) + k
    at the top doubling T; over the budget that raises CapacityError before
    anything is swept, unless force is set.
    """
    if k < 3:
        raise ValueError("k must be >= 3")
    lo, hi = t_range(k)
    _realized_slices(
        k, mu(k, hi) + k, threads=threads, use_cache=use_cache, force=force
    )
    return [
        vol1_oracle(k, t, threads=threads, use_cache=use_cache, force=force)
        for t in range(lo, hi + 1)
    ]


# ---------------------------------------------------------------------------
# extension checks

class ExtensionCheck(NamedTuple):
    """Quantities of one out-of-hull right extension A -> A + {x}, with the
    identity checks that apply to it."""

    x: int
    delta_t: int
    overlap: int
    c_before: int
    c_after: int | None  # None when T_x is not a legal doubling for k + 1
    crossing: bool
    applied: tuple[str, ...]
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_extension_lemmas(a: IntSet, x: int) -> ExtensionCheck:
    """Check the growth identities for the extension of a by x.

    Always checked: the doubling increment equals k + 1 minus the overlap
    |2A ∩ (x+A)|, the increment lies in [2, k], T_x is a legal doubling for
    k + 1, and the doubling constant moves by at most one. When a is extremal with a stable decomposition and
    the extension crosses into the large-doubling regime, the lower bound
    2a - (a1 + a2 - 2) on x is checked; when the extension is itself
    1-extremal (oracle-decided, hence only at small cardinality), x must
    equal mu(k+1, T_x) and the overlap of A with (x-a)+A must fill half the
    interval [0, 2a-x].
    """
    require_normal(a, "check_extension_lemmas")
    if not is_one_dimensional(a):
        raise ValueError("check_extension_lemmas requires a one-dimensional set")
    triples = [tr for tr in kernel.right_extensions(a.elements) if tr[0] == x]
    if not triples:
        raise ValueError(f"x={x} is not an admissible extension of {a.to_text()}")
    return _extension_checks(a.elements, doubling(a), triples, deep=True)[0]


@functools.cache
def _pair_verdict(
    k: int, t: int, tx: int, overlap: int
) -> tuple[DoublingProfile | None, tuple[str, ...]]:
    """The checks of _extension_checks that read only (k, t, T_x, overlap):
    the increment identity, the increment range, a legal T_x for k + 1 and
    the constant drift. Returns the profile of (k + 1, T_x), None when T_x
    is not legal, and the violations, decided once per process.

    The constant-drift check |c' - c| <= 1, with c the constant of (k, t) and
    c' that of (k + 1, T_x), depends on (k, t, delta = T_x - t) alone, not on
    the set. At k + 1 the block of constant c' starts after
    B(c') = c'(k + 1) - C(c' + 1, 2) + 2, and B(c' + 1) = B(c') + k - c'.
    With t = ck - C(c + 1, 2) + b + 2:
    - c' >= c - 1 holds exactly when t + delta > B(c - 1), that is when
      delta >= 2c - k - b;
    - c' <= c + 1 always holds: t + delta <= t + k, which is
      k - c - 1 - b >= 0 below B(c + 2).
    As c <= k - 2 and b >= 1 for c >= 3, 2c - k - b <= k - 5, so no legal
    delta >= 2 fails at k <= 7. At k = 8 only (t, delta) = (30, 2) fails and
    at k = 9 only (38, 2) and (38, 3), where c = k - 2 and b = 1."""
    delta_t = tx - t
    violations = []
    if delta_t != k + 1 - overlap:
        violations.append(
            f"doubling increment {delta_t} != {k + 1} - overlap {overlap}"
        )
    if not 2 <= delta_t <= k:
        violations.append(f"doubling increment {delta_t} outside [2, {k}]")
    lo, hi = t_range(k + 1)
    after = profile(k + 1, tx) if lo <= tx <= hi else None
    if after is None:
        violations.append(
            f"doubling T_x = {tx} outside [{lo}, {hi}] for k + 1 = {k + 1}"
        )
    else:
        c = profile(k, t).c
        if not -1 <= after.c - c <= 1:
            violations.append(f"doubling constant moved from {c} to {after.c}")
    return after, tuple(violations)


@functools.cache
def _passing_pairs(k: int, t: int) -> frozenset[tuple[int, int]]:
    """Every (T_x, overlap) that passes _pair_verdict at (k, t). The
    increment identity fixes T_x = t + k + 1 - overlap, and no overlap
    outside [0, k + 1] passes the increment range, so this is all of them."""
    pairs = ((t + k + 1 - overlap, overlap) for overlap in range(k + 2))
    return frozenset(pair for pair in pairs if not _pair_verdict(k, t, *pair)[1])


def _extension_checks(
    elements: tuple[int, ...],
    t: int,
    triples: list[tuple[int, int, int]],
    *,
    deep: bool,
) -> list[ExtensionCheck]:
    """check_extension_lemmas for the normal one-dimensional set with these
    elements and doubling t, on each (x, T_x, overlap) of
    kernel.right_extensions in triples, in order. The set is decomposed only
    when max A = mu(k, t), the one case that reads the decomposition. deep
    adds the oracle-decided identities; the sweep leaves them out. A T_x
    outside the legal range for k + 1 is itself a violation, and the checks
    that need its profile are skipped. The checks that read only
    (k, t, T_x, overlap) come from _pair_verdict."""
    k = len(elements)
    a_max = elements[-1]
    prof = profile(k, t)
    c = prof.c
    large = 3 * (k + 1) - 4  # T_x above it: the large-doubling regime
    dec = stable_split(IntSet(elements), t) if a_max == prof.mu else None
    checks = []
    for x, tx, overlap in triples:
        delta_t = tx - t
        after, verdict = _pair_verdict(k, t, tx, overlap)
        violations = list(verdict)

        bounded = (
            dec is not None and after is not None and tx > large and x >= after.mu
        )
        if bounded:
            lower = 2 * a_max - (dec.a1_max + dec.a2_max - 2)
            if x < lower:
                violations.append(f"x={x} below the lower bound {lower}")

        identities = (
            deep
            and dec is not None
            and after is not None
            and t >= 2 * k  # doubling 2k-1+b with b >= 1
            and tx > large
            and _oracle_affordable(k + 1)
            # A ∪ {x} is normal, so its volume is x + 1
            and _top_volume(k + 1, tx, x + 1, threads=1, use_cache=True)
        )
        if identities:
            if x != after.mu:
                violations.append(f"x={x} != mu({k + 1},{tx}) = {after.mu}")
            want = (2 * a_max - x + 2) // 2
            got = len(set(elements) & {e + x - a_max for e in elements})
            if got != want:
                violations.append(
                    f"overlap of A with (x-a)+A is {got}, expected {want}"
                )

        applied = ["increment-overlap identity", "increment range"]
        if after is not None:
            applied.append("constant drift")
        if bounded:
            applied.append("extension lower bound")
        if identities:
            applied.append("extremal extension identities")
        checks.append(
            ExtensionCheck(
                x=x,
                delta_t=delta_t,
                overlap=overlap,
                c_before=c,
                c_after=None if after is None else after.c,
                crossing=tx > large and t <= 3 * k - 4,
                applied=tuple(applied),
                violations=tuple(violations),
            )
        )
    return checks


class ExtensionSweepReport(NamedTuple):
    k: int
    sets_checked: int
    pairs_checked: int
    violations: tuple[tuple[IntSet, ExtensionCheck], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def extension_lemma_sweep(k: int, *, threads: int = 1) -> ExtensionSweepReport:
    """Check the growth identities of check_extension_lemmas, without the
    oracle-decided ones, over every one-dimensional normal set of
    cardinality k with maximum at most mu(k, |2A|) + k, and every admissible
    x of each.

    The sets come from the census of the oracle's slice table up to
    mu(k, T) + k at the top doubling T: it counts them and their pairs, and
    lists the sets with max A >= mu(k, T) and those with a pair that fails
    _pair_verdict (see _listing). Without a table that covers that bound, a
    sweep over the budget raises CapacityError before anything is walked;
    the walk fans out on threads workers. The checks run in this thread on
    the listed sets, slice by slice and doubling by doubling in order, so the
    report does not depend on threads.

    A set is decomposed only when max A = mu(k, T) and T <= 3k - 4 (see
    stable_split). Any other listed set's pairs (T_x, overlap) read only
    _pair_verdict: one subset test against _passing_pairs(k, T) clears it,
    and it goes through _extension_checks only when some pair fails. A set
    the census does not list has max A < mu(k, T) and no failing pair, so
    it would be cleared the same way.

    What a set can fail there:
    - For x > max A, x + max A lies above every sum in 2A, and x is in
      2A - A, so 1 <= overlap <= k - 1 and 2 <= delta = T_x - T <= k.
    - Both kernel twins compute T_x as |2A| + |A| + 1 - overlap, so the
      increment identity, and with it the increment range, holds on kernel
      output by construction.
    - So T_x = T + k + 1 - overlap lies in [2k + 1, C(k + 1, 2) + 2], which
      is t_range(k + 1), for every legal T.
    - What checks T_x itself is the walk-free reference_right_extensions in
      the tests.
    So what such a set can fail is the constant drift, a fact about
    (k, T, overlap); _pair_verdict still makes every check."""
    slices = _realized_slices(
        k, mu(k, t_range(k)[1]) + k, threads=threads, use_cache=True, force=False
    )
    sets_checked = 0
    pairs_checked = 0
    bad: list[tuple[IntSet, ExtensionCheck]] = []
    tx_overlap = operator.itemgetter(1, 2)
    for m, census in slices.items():
        for t, (sets, pairs, listed) in census.items():
            top = mu(k, t)
            if m > top + k:
                continue
            sets_checked += sets
            pairs_checked += pairs
            passing = _passing_pairs(k, t)
            # a set is decomposed only when max A = mu(k, t) and t <= 3k - 4;
            # any other needs the per-pair checks only when a pair fails
            undecomposed = m != top or t > 3 * k - 4
            for elements in listed:
                triples = kernel.right_extensions(elements)
                if undecomposed and passing.issuperset(map(tx_overlap, triples)):
                    continue
                for chk in _extension_checks(elements, t, triples, deep=False):
                    if not chk.ok:
                        bad.append((IntSet(elements), chk))
    return ExtensionSweepReport(
        k=k,
        sets_checked=sets_checked,
        pairs_checked=pairs_checked,
        violations=tuple(bad),
    )


# ---------------------------------------------------------------------------
# uniqueness checks

class LemmaOutcome(NamedTuple):
    name: str
    applicable: bool
    passed: bool | None
    details: str


class UniquenessReport(NamedTuple):
    set: IntSet
    checks: tuple[LemmaOutcome, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed is not False for c in self.checks)


def _extremal_right_extensions(
    b_set: IntSet, threads: int, use_cache: bool
) -> list[int]:
    """The x > max B with B ∪ {x} one-dimensional and 1-extremal, for a normal
    one-dimensional B: the x of kernel.right_extensions(B), as an x outside
    2B - B leaves B ∪ {x} two-dimensional."""
    return [
        x
        for x, tx, _ in kernel.right_extensions(b_set.elements)
        if _top_volume(len(b_set) + 1, tx, x + 1, threads, use_cache)
    ]


def check_uniqueness_lemmas(
    a: IntSet,
    *,
    threads: int = 1,
    use_cache: bool = True,
) -> UniquenessReport:
    """Sweep the extension-uniqueness properties that apply to a.

    Four checks, each skipped with a reason when its hypothesis class does
    not match: right extensions of D(A) for 1-extremal A land only on 3a or
    4a (and only on D²(A) when mu exceeds 2^c); left extensions, via the
    reflexion of D(A), land only on its double-max extension; when both
    stable parts are 2-progressions with a long middle segment, chains above
    the crossing extend only by doubled maxima; a chain with a single odd
    element is the odd-adjoin image of a smaller chain and passes that
    property up. A check is also skipped when the oracle it calls is over
    the sweep budget, or the chains it recognizes pass CHAIN_ENUM_CAP.
    """
    require_normal(a, "check_uniqueness_lemmas")
    k = len(a)
    t = doubling(a)
    a_max = a.max
    one_dim = is_one_dimensional(a)
    pool = dict(out_of_hull_pool(a))  # y -> |2(A ∪ {y})|
    # the 3k - 4 threshold at k + 1: checks 3 and 4 follow only the
    # extensions with a larger doubling
    threshold = 3 * (k + 1) - 4
    try:
        prof = profile(k, t)
    except ValueError:
        prof = None
    checks: list[LemmaOutcome] = []

    def skip(name: str, why: str) -> None:
        checks.append(LemmaOutcome(name, False, None, "skipped: " + why))

    over_budget = (
        f"needs the exhaustive oracle at cardinality {k + 2}, "
        f"over the sweep budget of {DEFAULT_BUDGET} candidates"
    )
    cap = chains.CHAIN_ENUM_CAP
    past_cap = f"needs chain recognition past the cap of {cap} elements"

    # right-extension uniqueness above the double-max step
    name = "right extensions of the double-max step"
    if not _oracle_affordable(k + 2):
        skip(name, over_budget)
    elif (
        not one_dim
        or prof is None
        or not is_1_extremal(a, threads=threads, use_cache=use_cache)
    ):
        skip(name, "not 1-extremal")
    else:
        b_set = adjoin_double_max(a)
        survivors = _extremal_right_extensions(b_set, threads, use_cache)
        strong = a_max == prof.mu and prof.mu > 2**prof.c
        if strong:
            passed = survivors == [4 * a_max]
            details = (
                f"mu {prof.mu} > 2^{prof.c}: 1-extremal right extensions of "
                f"{b_set.to_text()} at {survivors}, expected [{4 * a_max}]"
            )
        else:
            passed = all(x in (3 * a_max, 4 * a_max) for x in survivors)
            # D(A) has max 2·max A, so its double-max extension is 4·max A
            notes = [
                f"x={x} 1-extremal, {'a' if x == 4 * a_max else 'not a'} "
                "double-max extension"
                for x in survivors
            ]
            details = (
                f"boundary case mu {prof.mu} <= 2^{prof.c}: "
                + ("; ".join(notes) if notes else "no 1-extremal extensions")
            )
        checks.append(LemmaOutcome(name, True, passed, details))

    # left-extension uniqueness, via the reflexion of the double-max step
    name = "left extensions of the double-max step"
    if not _oracle_affordable(k + 2):
        skip(name, over_budget)
    elif prof is None or a_max != prof.mu or prof.mu <= 2**prof.c:
        skip(name, "max != mu or mu <= 2^c")
    elif not is_chain_member(a):
        skip(name, "not a chain")
    elif any(
        # y on a and on its reflexion, whose y is a_max - y on a; a y
        # outside the pool adds |A| + 1 sums
        y >= _mu_or_inf(k + 1, pool.get(z, t + k + 1))
        for y in range(a_max + 1, 2 * a_max)
        for z in (y, a_max - y)
    ):
        skip(name, "some mid-range y reaches mu(k+1, T_y)")
    else:
        b_set = reflexion(adjoin_double_max(a))
        survivors = _extremal_right_extensions(b_set, threads, use_cache)
        detail = (
            f"1-extremal right extensions of {b_set.to_text()} at {survivors}, "
            f"expected [{4 * a_max}]"
        )
        checks.append(LemmaOutcome(name, True, survivors == [4 * a_max], detail))

    # chains above the crossing over a two-progression split
    name = "chain extensions over a two-progression split"
    dec = stable_split(a, t) if one_dim else None
    if k + 2 > cap:
        skip(name, past_cap)
    elif (
        dec is None
        or dec.p_len < 4
        or not is_progression(dec.a1, 2)
        or not is_progression(dec.a2, 2)
    ):
        skip(
            name,
            "no stable decomposition into 2-progressions around "
            "a segment of length >= 4",
        )
    else:
        failures = []
        swept = 0
        # a is normal and one-dimensional, so are its pool children A ∪ {x} and
        # their reflexions b: chain_children(b) drops none, its last pair with y
        for x, tx in pool.items():
            if x < a_max or tx <= threshold:
                continue
            ax = a.elements + (x,)
            for b, low, label in (
                (ax, x, "A+{{{x},{y}}}"),
                (mirror_tuple(ax), x + 2, "reflected A+{{{x}}} plus {y}"),
            ):
                rights = kernel.right_extensions(b)
                children = kernel.chain_children(b, t_range(k + 2)[1])[-len(rights):]
                for (y, _, _), (canon, _) in zip(rights, children, strict=True):
                    if y <= low:
                        continue
                    swept += 1
                    if y != 2 * x and is_canonical_chain(canon):
                        failures.append(
                            label.format(x=x, y=y) + f" is a chain but y != {2 * x}"
                        )
        checks.append(
            LemmaOutcome(
                name,
                True,
                not failures,
                "; ".join(failures) if failures else f"{swept} extensions swept",
            )
        )

    # chains with a single odd element
    name = "chains with a single odd element"
    odds = [e for e in a if e % 2]
    if k < 4:
        # the halved even part would have two elements, below any chain
        skip(name, "needs at least 4 elements")
    elif k + 1 > cap:
        skip(name, past_cap)
    elif len(odds) != 1 or not is_chain_member(a):
        skip(name, "not a chain with exactly one odd element")
    else:
        x = odds[0]
        halved = IntSet(e // 2 for e in a if e != x)
        failures = []
        if not is_chain_member(halved):
            failures.append(f"halved even part {halved.to_text()} is not a chain")
        # both list the y of 2A - A outside the hull, ascending; a chain is
        # one-dimensional, so every T_y is legal for k + 1 and none is dropped
        children = kernel.chain_children(a.elements, t_range(k + 1)[1])
        for (y, ty), (canon, _) in zip(pool.items(), children, strict=True):
            # A ∪ {y} has a second odd element exactly when y is odd
            if ty > threshold and y % 2 and is_canonical_chain(canon):
                failures.append(f"chain extension {a.adjoin(y).to_text()} has 2 odd elements")
        checks.append(
            LemmaOutcome(
                name,
                True,
                not failures,
                "; ".join(failures)
                if failures
                else f"odd element {x}, halved chain {halved.to_text()}",
            )
        )

    return UniquenessReport(set=a, checks=tuple(checks))


def _mu_or_inf(k: int, t: int) -> float:
    try:
        return mu(k, t)
    except ValueError:
        return math.inf
