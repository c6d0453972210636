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
import json
import math
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from . import kernel
from ._kernel_py import normal_tuples
from .chains import is_chain
from .dimension import extension_candidates, is_one_dimensional, out_of_hull_pool
from .doubling import mu, profile, t_range
from .errors import CapacityError, DecompositionNotUnique, NotDecomposable
from .growth import adjoin_double_max
from .intset import (
    IntSet,
    doubling,
    is_progression,
    reflexion,
    require_normal,
    sumset,
)
from .stability import StableDecomposition, stable_decompose

DEFAULT_BUDGET = 10**9
CACHE_ENV = "SUMSETCHAINS_CACHE"
CACHE_VERSION = 1
# the layout of a slices file; it enters kernel_digest, so a new layout
# retires the old files as a kernel change does
SLICES_SCHEMA = "k: int, digest: str, slices: {str(m): [sorted doublings]}"

SCOPE_NOTE = "volumes range over one-dimensional sets only"

# the embedded oracle calls of the conditional lemma checks stay affordable
# only while the extended set's cardinality keeps the sweep under budget
_DEEP_ORACLE_K_CAP = 7
_UNIQUENESS_K_CAP = 5


def estimated_candidates(k: int, max_elem: int) -> int:
    """Candidate count for a full sweep: sets {0, ..., m} with m <= max_elem
    and k - 2 interior elements sum to C(max_elem, k - 1)."""
    return math.comb(max_elem, k - 1)


def enumerate_normal_sets(
    k: int,
    max_elem: int,
    *,
    budget: int = DEFAULT_BUDGET,
    force: bool = False,
    cursor: tuple[int, tuple[int, ...]] | None = None,
):
    """Yield every normal-form set of k elements with maximum at most
    max_elem, ordered by maximum then lexicographically.

    cursor = (m, interior) resumes strictly after the set whose maximum is m
    and whose interior elements are the given tuple.
    """
    if k < 3:
        raise ValueError("k must be >= 3")
    if max_elem < k - 1:
        raise ValueError("max_elem must be >= k - 1")
    est = estimated_candidates(k, max_elem)
    if est > budget and not force:
        raise CapacityError(
            f"enumeration of about {est} candidates exceeds the budget "
            f"of {budget}; raise the budget or force"
        )
    for m in range(k - 1, max_elem + 1):
        if cursor is not None and m < cursor[0]:
            continue
        for elems, _ in normal_tuples(k, m):
            if cursor is not None and m == cursor[0] and elems[1:-1] <= cursor[1]:
                continue
            yield IntSet(elems)


# ---------------------------------------------------------------------------
# slice sweeps and caching

_SLICE_CACHE: dict[tuple[int, int], tuple[int, ...]] = {}


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
    return cache_dir() / f"slices_k{k}_v{CACHE_VERSION}.json"


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


def _read_slices(k: int) -> dict[int, tuple[int, ...]]:
    """The slices file of k. A file that does not parse, names another k,
    carries another kernel_digest or holds non-integer entries counts as
    missing; the next sweep overwrites it."""
    try:
        stored = json.loads(_slices_path(k).read_text())
    except (OSError, ValueError):
        return {}
    if not (
        isinstance(stored, dict)
        and _is_int(stored.get("k"))
        and stored["k"] == k
        and stored.get("digest") == kernel_digest()
    ):
        return {}
    slices = stored.get("slices")
    if not isinstance(slices, dict) or not all(
        key.isdecimal() and isinstance(ts, list) and all(map(_is_int, ts))
        for key, ts in slices.items()
    ):
        return {}
    return {int(key): tuple(ts) for key, ts in slices.items()}


def _missing_slices(k: int, bound: int, use_cache: bool) -> list[int]:
    wanted = range(k - 1, bound + 1)
    missing = [m for m in wanted if (k, m) not in _SLICE_CACHE]
    if missing and use_cache:
        for m, ts in _read_slices(k).items():
            _SLICE_CACHE.setdefault((k, m), ts)
        missing = [m for m in wanted if (k, m) not in _SLICE_CACHE]
    return missing


def _slice_worker(args: tuple[int, int, int]) -> tuple[int, tuple[int, ...]]:
    k, m, t_cap = args
    return m, tuple(kernel.sweep_slice(k, m, t_cap))


def _realized_slices(
    k: int, bound: int, *, threads: int = 1, use_cache: bool = True
) -> dict[int, tuple[int, ...]]:
    """Realized doublings per maximum element m for m <= bound, restricted
    to one-dimensional sets (whose doubling never exceeds C(k,2) + 2)."""
    t_cap = t_range(k)[1]
    missing = _missing_slices(k, bound, use_cache)
    if missing:
        # largest slice first, so no worker is left with it at the end
        jobs = [(k, m, t_cap) for m in reversed(missing)]
        if threads > 1:
            with ProcessPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(_slice_worker, jobs))
        else:
            results = [_slice_worker(job) for job in jobs]
        for m, ts in results:
            _SLICE_CACHE[(k, m)] = ts
        if use_cache:
            known = {
                str(m): list(ts) for (kk, m), ts in _SLICE_CACHE.items() if kk == k
            }
            _write_json(
                _slices_path(k), {"k": k, "digest": kernel_digest(), "slices": known}
            )
    return {m: _SLICE_CACHE[(k, m)] for m in range(k - 1, bound + 1)}


def _realizing_maxima(
    k: int,
    t: int,
    bound: int,
    *,
    threads: int,
    use_cache: bool,
    force: bool,
    budget: int = DEFAULT_BUDGET,
) -> list[int]:
    """The maxima m <= bound, ascending, at which some one-dimensional normal
    k-set has doubling t. Raises CapacityError when the slice table does not
    cover the bound yet and sweeping the rest would exceed the budget."""
    est = estimated_candidates(k, bound)
    if est > budget and not force and _missing_slices(k, bound, use_cache):
        raise CapacityError(
            f"sweep at k={k}, bound={bound} needs about {est} candidates, "
            f"over the budget of {budget}; raise the budget or force"
        )
    slices = _realized_slices(k, bound, threads=threads, use_cache=use_cache)
    return [m for m in sorted(slices) if t in slices[m]]


def _collect(k: int, m: int, t: int) -> tuple[IntSet, ...]:
    got = kernel.collect_slice(k, m, (t,))
    return tuple(IntSet(elems) for elems in got.get(t, []))


# ---------------------------------------------------------------------------
# the volume oracle

@dataclass(frozen=True)
class SearchReport:
    """Outcome of one exhaustive volume sweep at fixed (k, t)."""

    k: int
    t: int
    mu: int
    search_bound: int
    observed_max_vol: int
    witness_sets: tuple[IntSet, ...]
    violation_list: tuple[IntSet, ...]
    attained: bool
    elapsed: float
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
    budget: int = DEFAULT_BUDGET,
) -> SearchReport:
    """Exhaustive maximum volume over one-dimensional normal sets with
    cardinality k and doubling t, sweeping maxima up to bound.

    The default bound mu(k,t) + k leaves slack above the conjectured
    maximum, so a counterexample just above it would be found, not assumed
    away. The report is derived from the per-k slice table, which is cached
    on disk; witnesses and violations are collected afresh on each call.
    """
    prof = profile(k, t)
    if bound is None:
        bound = prof.mu + k
    if bound < prof.mu:
        raise ValueError(f"bound {bound} is below mu({k},{t}) = {prof.mu}")
    start = time.perf_counter()
    ms = _realizing_maxima(
        k, t, bound, threads=threads, use_cache=use_cache, force=force, budget=budget
    )
    if ms:
        top = ms[-1]
        observed = top + 1
        witnesses = _collect(k, top, t)
    else:
        observed = 0
        witnesses = ()
    violations: list[IntSet] = []
    for m in ms:
        if m > prof.mu:
            violations.extend(_collect(k, m, t))
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
        elapsed=time.perf_counter() - start,
    )


def attainment_construction(k: int, t: int) -> IntSet:
    """A normal one-dimensional set with cardinality k, doubling t, and
    maximum exactly mu(k,t): a punctured segment when t <= 3k-4, otherwise
    the double-max extension of the construction one size down."""
    prof = profile(k, t)
    if prof.c == 2:
        return IntSet((0, *range(prof.b + 1, prof.b + k)))
    return adjoin_double_max(attainment_construction(k - 1, t - (k - 1)))


def is_1_extremal(
    a: IntSet,
    *,
    threads: int = 1,
    use_cache: bool = True,
    force: bool = False,
) -> bool:
    """Does a have the largest volume among one-dimensional sets with its
    cardinality and doubling? Decided by the exhaustive oracle's slice table
    up to its default bound, without collecting witnesses."""
    from .chains import volume_1d

    vol = volume_1d(a)
    k, t = len(a), doubling(a)
    ms = _realizing_maxima(
        k, t, mu(k, t) + k, threads=threads, use_cache=use_cache, force=force
    )
    return vol == (ms[-1] + 1 if ms else 0)


def verify_conjecture(
    k: int,
    *,
    threads: int = 1,
    use_cache: bool = True,
    force: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> list[SearchReport]:
    """One oracle report per legal doubling at cardinality k.

    The slices missing from the table for all of them are swept first in one
    pass (one process pool), up to the largest default bound that the budget
    admits.
    """
    if k < 4:
        raise ValueError("k must be >= 4")
    lo, hi = t_range(k)
    sweep_bound = 0
    for t in range(lo, hi + 1):
        bound = mu(k, t) + k  # vol1_oracle's default
        if force or estimated_candidates(k, bound) <= budget:
            sweep_bound = max(sweep_bound, bound)
    if sweep_bound:
        _realized_slices(k, sweep_bound, threads=threads, use_cache=use_cache)
    return [
        vol1_oracle(
            k, t, threads=threads, use_cache=use_cache, force=force, budget=budget
        )
        for t in range(lo, hi + 1)
    ]


# ---------------------------------------------------------------------------
# extension checks

@dataclass(frozen=True)
class ExtensionCheck:
    """Quantities of one out-of-hull right extension A -> A + {x}, with the
    identity checks that apply to it."""

    x: int
    delta_t: int
    overlap: int
    c_before: int
    c_after: int
    crossing: bool
    applied: tuple[str, ...]
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _try_decompose(a: IntSet) -> StableDecomposition | None:
    try:
        return stable_decompose(a)
    except (NotDecomposable, DecompositionNotUnique, ValueError):
        return None


def check_extension_lemmas(
    a: IntSet,
    x: int,
    *,
    deep: bool = True,
    threads: int = 1,
    use_cache: bool = True,
) -> ExtensionCheck:
    """Check the growth identities for the extension of a by x.

    Always checked: the doubling increment equals k + 1 minus the overlap
    |2A ∩ (x+A)|, the increment lies in [2, k], and the doubling constant
    moves by at most one. When a is extremal with a stable decomposition and
    the extension crosses into the large-doubling regime, the lower bound
    2a - (a1 + a2 - 2) on x is checked; when the extension is itself
    1-extremal (oracle-decided, hence only at small cardinality), x must
    equal mu(k+1, T_x) and the overlap of A with (x-a)+A must fill half the
    interval [0, 2a-x].
    """
    require_normal(a, "check_extension_lemmas")
    if x not in extension_candidates(a):
        raise ValueError(f"x={x} is not an admissible extension of {a.to_text()}")
    return _extension_checks(
        a, (x,), deep=deep, threads=threads, use_cache=use_cache
    )[0]


def _extension_checks(
    a: IntSet,
    xs: tuple[int, ...],
    *,
    deep: bool,
    threads: int = 1,
    use_cache: bool = True,
) -> list[ExtensionCheck]:
    """check_extension_lemmas for each admissible x in xs, in order, with
    the invariants of a (doubling, 2A, profile, decomposition) computed once.
    The overlaps are bit counts on the masks of the normal set a."""
    k = len(a)
    t = doubling(a)
    a_max = a.max
    prof = profile(k, t)
    mask = a.mask()
    two_a = sumset(a, a).mask()
    dec = _try_decompose(a)
    extremal = dec is not None and a_max == prof.mu
    checks = []
    for x in xs:
        tx = kernel.doubling_size(a.elements + (x,))
        overlap = (two_a & (mask << x)).bit_count()
        delta_t = tx - t
        after = profile(k + 1, tx)
        crossing = tx > 3 * (k + 1) - 4 and t <= 3 * k - 4

        applied = ["increment-overlap identity", "increment range", "constant drift"]
        violations: list[str] = []
        if delta_t != k + 1 - overlap:
            violations.append(
                f"doubling increment {delta_t} != {k + 1} - overlap {overlap}"
            )
        if not 2 <= delta_t <= k:
            violations.append(f"doubling increment {delta_t} outside [2, {k}]")
        if abs(after.c - prof.c) > 1:
            violations.append(
                f"doubling constant moved from {prof.c} to {after.c}"
            )

        if extremal and tx > 3 * (k + 1) - 4 and x >= after.mu:
            applied.append("extension lower bound")
            lower = 2 * a_max - (dec.a1_max + dec.a2_max - 2)
            if x < lower:
                violations.append(f"x={x} below the lower bound {lower}")

        if (
            deep
            and extremal
            and t >= 2 * k  # doubling 2k-1+b with b >= 1
            and tx >= 3 * (k + 1) - 3
            and k + 1 <= _DEEP_ORACLE_K_CAP
            and is_1_extremal(a.adjoin(x), threads=threads, use_cache=use_cache)
        ):
            applied.append("extremal extension identities")
            if x != after.mu:
                violations.append(f"x={x} != mu({k + 1},{tx}) = {after.mu}")
            want = (2 * a_max - x + 2) // 2
            got = (mask & (mask << (x - a_max))).bit_count()
            if got != want:
                violations.append(
                    f"overlap of A with (x-a)+A is {got}, expected {want}"
                )

        checks.append(
            ExtensionCheck(
                x=x,
                delta_t=delta_t,
                overlap=overlap,
                c_before=prof.c,
                c_after=after.c,
                crossing=crossing,
                applied=tuple(applied),
                violations=tuple(violations),
            )
        )
    return checks


@dataclass(frozen=True)
class ExtensionSweepReport:
    k: int
    sets_checked: int
    pairs_checked: int
    violations: tuple[tuple[IntSet, ExtensionCheck], ...]
    elapsed: float

    @property
    def ok(self) -> bool:
        return not self.violations


def extension_lemma_sweep(k: int) -> ExtensionSweepReport:
    """Check the growth identities of check_extension_lemmas, without the
    oracle-decided ones, over every one-dimensional normal set of
    cardinality k with maximum at most mu(k, |2A|) + k, and every admissible
    x of each."""
    start = time.perf_counter()
    lo, hi = t_range(k)
    bound = mu(k, hi) + k
    sets_checked = 0
    pairs_checked = 0
    bad: list[tuple[IntSet, ExtensionCheck]] = []
    for m in range(k - 1, bound + 1):
        ts_needed = tuple(t for t in range(lo, hi + 1) if mu(k, t) + k >= m)
        got = kernel.collect_slice(k, m, ts_needed)
        for t in sorted(got):
            for elems in got[t]:
                a = IntSet(elems)
                xs = extension_candidates(a).elements
                sets_checked += 1
                pairs_checked += len(xs)
                for chk in _extension_checks(a, xs, deep=False):
                    if not chk.ok:
                        bad.append((a, chk))
    return ExtensionSweepReport(
        k=k,
        sets_checked=sets_checked,
        pairs_checked=pairs_checked,
        violations=tuple(bad),
        elapsed=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# uniqueness checks

@dataclass(frozen=True)
class LemmaOutcome:
    name: str
    applicable: bool
    passed: bool | None
    details: str


@dataclass(frozen=True)
class UniquenessReport:
    set: IntSet
    checks: tuple[LemmaOutcome, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed is not False for c in self.checks)


def _is_double_max_form(a: IntSet) -> bool:
    body = a.elements[:-1]
    return len(body) >= 2 and a.max == 2 * body[-1]


def _extremal_right_extensions(
    b_set: IntSet, a_max: int, threads: int, use_cache: bool
) -> list[int]:
    """The x in (2a, 4a] with b_set ∪ {x} one-dimensional and 1-extremal."""
    survivors = []
    for x in range(2 * a_max + 1, 4 * a_max + 1):
        bx = b_set.adjoin(x)
        if is_one_dimensional(bx) and is_1_extremal(
            bx, threads=threads, use_cache=use_cache
        ):
            survivors.append(x)
    return survivors


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
    property up.
    """
    require_normal(a, "check_uniqueness_lemmas")
    k = len(a)
    t = doubling(a)
    a_max = a.max
    one_dim = is_one_dimensional(a)
    try:
        prof = profile(k, t)
    except ValueError:
        prof = None
    checks: list[LemmaOutcome] = []
    over_cap = (
        f"skipped: needs the exhaustive oracle at cardinality {k + 2}, "
        f"capped at {_UNIQUENESS_K_CAP + 2}"
    )

    # right-extension uniqueness above the double-max step
    name = "right extensions of the double-max step"
    if k > _UNIQUENESS_K_CAP:
        checks.append(LemmaOutcome(name, False, None, over_cap))
    elif (
        not one_dim
        or prof is None
        or not is_1_extremal(a, threads=threads, use_cache=use_cache)
    ):
        checks.append(LemmaOutcome(name, False, None, "skipped: not 1-extremal"))
    else:
        b_set = adjoin_double_max(a)
        survivors = _extremal_right_extensions(b_set, a_max, threads, use_cache)
        strong = a_max == prof.mu and prof.mu > 2**prof.c
        if strong:
            passed = survivors == [4 * a_max]
            details = (
                f"mu {prof.mu} > 2^{prof.c}: 1-extremal right extensions of "
                f"{b_set.to_text()} at {survivors}, expected [{4 * a_max}]"
            )
        else:
            passed = all(x in (3 * a_max, 4 * a_max) for x in survivors)
            notes = []
            for x in survivors:
                form = (
                    "a double-max extension"
                    if _is_double_max_form(b_set.adjoin(x))
                    else "not a double-max extension"
                )
                notes.append(f"x={x} 1-extremal, {form}")
            details = (
                f"boundary case mu {prof.mu} <= 2^{prof.c}: "
                + ("; ".join(notes) if notes else "no 1-extremal extensions")
            )
        checks.append(LemmaOutcome(name, True, passed, details))

    # left-extension uniqueness, via the reflexion of the double-max step
    name = "left extensions of the double-max step"
    left_applicable = False
    if k > _UNIQUENESS_K_CAP:
        detail = over_cap
    else:
        if prof is None or a_max != prof.mu or prof.mu <= 2**prof.c:
            detail = "skipped: max != mu or mu <= 2^c"
        elif is_chain(a) is None:
            detail = "skipped: not a chain"
        else:
            gap_ok = True
            for y in range(a_max + 1, 2 * a_max):
                ty = doubling(a.adjoin(y))
                ty_r = doubling(reflexion(a).adjoin(y))
                lim = min(_mu_or_inf(k + 1, ty), _mu_or_inf(k + 1, ty_r))
                if y >= lim:
                    gap_ok = False
                    break
            if not gap_ok:
                detail = "skipped: some mid-range y reaches mu(k+1, T_y)"
            else:
                left_applicable = True
    if left_applicable:
        b_set = reflexion(adjoin_double_max(a))
        survivors = _extremal_right_extensions(b_set, a_max, threads, use_cache)
        passed = survivors == [4 * a_max]
        detail = (
            f"1-extremal right extensions of {b_set.to_text()} at {survivors}, "
            f"expected [{4 * a_max}]"
        )
        checks.append(LemmaOutcome(name, True, passed, detail))
    else:
        checks.append(LemmaOutcome(name, False, None, detail))

    # chains above the crossing over a two-progression split
    name = "chain extensions over a two-progression split"
    dec = _try_decompose(a) if one_dim else None
    if (
        dec is None
        or dec.p_len < 4
        or not is_progression(dec.a1, 2)
        or not is_progression(dec.a2, 2)
    ):
        checks.append(
            LemmaOutcome(
                name,
                False,
                None,
                "skipped: no stable decomposition into 2-progressions around "
                "a segment of length >= 4",
            )
        )
    else:
        failures = []
        swept = 0
        for x in extension_candidates(a):
            ax = a.adjoin(x)
            if doubling(ax) <= 3 * (k + 1) - 4:
                continue
            for y in extension_candidates(ax):
                swept += 1
                if is_chain(ax.adjoin(y)) is not None and y != 2 * x:
                    failures.append(f"A+{{{x},{y}}} is a chain but y != {2 * x}")
            rx = reflexion(ax)
            for y in extension_candidates(rx):
                if y <= x + 2:
                    continue
                swept += 1
                if is_chain(rx.adjoin(y)) is not None and y != 2 * x:
                    failures.append(
                        f"reflected A+{{{x}}} plus {y} is a chain but y != {2 * x}"
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
    if len(odds) != 1 or is_chain(a) is None:
        checks.append(
            LemmaOutcome(
                name, False, None, "skipped: not a chain with exactly one odd element"
            )
        )
    else:
        x = odds[0]
        halved = IntSet(e // 2 for e in a if e != x)
        failures = []
        if is_chain(halved) is None:
            failures.append(f"halved even part {halved.to_text()} is not a chain")
        for y in out_of_hull_pool(a):
            b = a.adjoin(y)
            if doubling(b) > 3 * (k + 1) - 4 and is_chain(b) is not None:
                b_odds = [e for e in b if e % 2]
                if len(b_odds) != 1:
                    failures.append(
                        f"chain extension {b.to_text()} has {len(b_odds)} odd elements"
                    )
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
