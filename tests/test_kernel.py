"""Kernel facade: compiled and pure paths must agree bit for bit."""

import collections
import functools
import itertools
import math
import random
import sys
import threading
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sumsetchains import _kernel_py as pure
from sumsetchains import chains, kernel
from sumsetchains.chains import _canonical_tuple, _chain_level
from sumsetchains.doubling import mu, t_range
from sumsetchains.intset import IntSet, doubling, sumset

ELEMENT_FUNCTIONS = ("doubling_size", "lambda_rank")


def one_dimensional(twin, elems):
    """Whether twin's lambda_rank of elems is |A| - 2, as the facade's
    is_one_dimensional reads it."""
    return twin.lambda_rank(elems) == len(elems) - 2


def small_tuples(max_k: int = 5, max_elem: int = 11):
    for k in range(3, max_k + 1):
        for inner in itertools.combinations(range(1, max_elem), k - 2):
            yield (0, *inner, max_elem)


def assert_same(compiled, name, *args):
    got = getattr(compiled, name)(*args)
    want = getattr(pure, name)(*args)
    assert got == want and type(got) is type(want), (name, args)
    if isinstance(want, dict):
        assert list(got) == list(want), (name, args)


def raised(fn, *args):
    """The type and message of the exception fn(*args) raises."""
    with pytest.raises(Exception) as info:
        fn(*args)
    return info.type, str(info.value)


def assert_rejected_alike(compiled, name, *args):
    want = raised(getattr(pure, name), *args)
    assert raised(getattr(compiled, name), *args) == want, (name, args)
    return want


def test_backend_is_declared():
    assert kernel.BACKEND in ("c", "python")
    assert pure.BACKEND == "python"


def test_compiled_backend_is_c(compiled_kernel):
    assert compiled_kernel.BACKEND == "c"


def test_facade_matches_pure_exhaustively():
    for elems in small_tuples():
        assert kernel.doubling_size(elems) == pure.doubling_size(elems)
        assert kernel.lambda_rank(elems) == pure.lambda_rank(elems)
        assert kernel.is_one_dimensional(elems) == one_dimensional(pure, elems)
    # rank 0, as no relation exists: every 2-set is one-dimensional, no 1-set
    small = [(0,), (3,), (0, 1), (-5, 2**40)]
    assert [kernel.is_one_dimensional(e) for e in small] == [False, False, True, True]


def test_compiled_matches_pure_exhaustively(compiled_kernel):
    for elems in small_tuples():
        for name in ELEMENT_FUNCTIONS:
            assert_same(compiled_kernel, name, elems)
    for elems in [(0,), (3,), (0, 1)]:
        for name in ELEMENT_FUNCTIONS:
            assert_same(compiled_kernel, name, elems)


def test_compiled_matches_pure_on_random_sets(compiled_kernel):
    rng = random.Random(20260816)
    for _ in range(300):
        k = rng.randint(3, 9)
        elems = tuple(sorted(rng.sample(range(1, 120), k - 1)))
        elems = (0, *elems)
        for name in ELEMENT_FUNCTIONS:
            assert_same(compiled_kernel, name, elems)


@given(st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=12, unique=True))
def test_compiled_matches_pure_on_any_small_set(compiled_kernel, values):
    elems = tuple(sorted(values))
    assert_same(compiled_kernel, "lambda_rank", elems)
    if elems[-1] - elems[0] <= 1 << 20:
        assert_same(compiled_kernel, "doubling_size", elems)


# The compiled rank eliminates over F_p, p = 2**31 - 1; the pure twin's
# Bareiss rank over Q is the reference it must equal on every input.


def test_compiled_rank_matches_bareiss_on_structured_sets(compiled_kernel):
    # subsets of {a + bL} and {a + bL + cL^2}: two- and three-dimensional
    # sets whose relations come in families, with L near or past the
    # elements' own range
    rng = random.Random(1608)
    dims = set()
    for big in (5, 7, 50, 1000, 2**40):
        plane = [a + b * big for a in range(6) for b in range(3)]
        cube = [a + b * big + c * big * big for a in range(4) for b in range(3) for c in range(2)]
        for pool in (plane, cube if big < 2**29 else plane):
            for k in range(3, 13):
                for _ in range(20):
                    # the plane repeats values at big = 5: a draw is
                    # collapsed to the set it holds
                    elems = tuple(sorted(set(rng.sample(pool, k))))
                    assert_same(compiled_kernel, "lambda_rank", elems)
                    dims.add(len(elems) - 2 - pure.lambda_rank(elems))
    assert {0, 1, 2} <= dims


def test_compiled_rank_matches_bareiss_with_repeated_elements(compiled_kernel):
    # input with a repeated or an unsorted element is no set and is rejected
    # alike; the strictly ascending draws agree with Bareiss
    cases = [(0, 0), (5, 5, 5), (0, 0, 1), (1, 1, 2, 2), (3,) * 12, (0, 1) * 6]
    rng = random.Random(2)
    cases += [tuple(rng.choice(range(-3, 4)) for _ in range(rng.randint(1, 12))) for _ in range(500)]
    sets = 0
    for elems in cases:
        is_set = all(a < b for a, b in zip(elems, elems[1:]))
        sets += is_set
        if is_set:
            assert_same(compiled_kernel, "lambda_rank", elems)
        else:
            assert assert_rejected_alike(compiled_kernel, "lambda_rank", elems)[0] is ValueError
    assert 0 < sets < len(cases)


def test_compiled_rank_matches_bareiss_on_dense_12_sets(compiled_kernel):
    # the largest rank the compiled twin takes, k - 2 = 10, and the most rows
    cases = list(itertools.combinations(range(15), 12))
    rng = random.Random(3)
    cases += [tuple(sorted(rng.sample(range(24), 12))) for _ in range(300)]
    # the early stop at rank 10, which 12-term progressions reach well before
    # their last pair, near both ends of the element range; and 1- and 2-sets,
    # which have no interior column
    for step in (1, 3, 2**56):
        for first in (-(2**60), 1 - 2**60, 2**60 - 11 * step, 2**60 - 11 * step - 1):
            cases.append(tuple(first + i * step for i in range(12)))
    cases += [(0,), (-(2**60),), (2**60,), (0, 1), (-(2**60), 2**60), (5, 2**56)]
    ones = 0
    for elems in cases:
        assert_same(compiled_kernel, "lambda_rank", elems)
        ones += one_dimensional(pure, elems)
    assert 0 < ones < len(cases)


def test_compiled_slices_match_pure(compiled_kernel):
    for k, m in [(3, 4), (4, 5), (4, 7), (5, 8), (3, 2), (5, 3)]:
        t_cap = k * (k + 1) // 2
        for t_max in (-1, 0, t_cap - 3, t_cap, 10**9):
            assert_same(compiled_kernel, "sweep_slice", k, m, t_max)
        ts = tuple(pure.sweep_slice(k, m, t_cap))
        for wanted in (ts, ts[::-1], ts[:1], (), (t_cap + 5, -1) + ts):
            assert_same(compiled_kernel, "census_slice", k, m, dict.fromkeys(wanted, -1))
        for backend in (pure, compiled_kernel):
            with pytest.raises(TypeError):
                backend.census_slice(k, m, dict.fromkeys([3.0, *ts], -1))


def test_compiled_slices_match_pure_at_k7(compiled_kernel):
    # m = 32 is the first slice whose sumset needs a second accumulator word;
    # m = 33 the first with no one-dimensional set
    for m in (6, 11, 17, 23, 32, 33):
        assert_same(compiled_kernel, "sweep_slice", 7, m, 23)
        ts = range(13, 24)
        assert_same(compiled_kernel, "census_slice", 7, m, dict.fromkeys(ts, -1))


def test_compiled_sweep_matches_pure_on_the_probe_slices(compiled_kernel):
    # the benchmark's kernel probe requires the twins' sweep_slice(7, m, 23)
    # to agree on two slice maxima it draws from 22..28
    for m in range(22, 29):
        assert compiled_kernel.sweep_slice(7, m, 23) == pure.sweep_slice(7, m, 23)


def test_sweep_rejects_bad_slices_alike(compiled_kernel):
    # each twin names sweep_slice, not the census it reads
    for args in [(2, 5, 3), (-1, 5, 3), (4.0, 7, 3), (4, 7, 3.5)]:
        assert_rejected_alike(compiled_kernel, "sweep_slice", *args)


def test_compiled_slice_walks_run_on_threads(compiled_kernel):
    # the walk releases the GIL: four threads at once, more than the cores,
    # under a short switch interval, each running every k = 7 slice in its
    # own order, must get what serial calls get, order included
    jobs = [("sweep_slice", 7, m, 23) for m in range(6, 34)]
    jobs += [("census_slice", 7, m, dict.fromkeys(range(13, 24), -1)) for m in range(6, 34)]
    jobs += [("census_slice", 7, m, dict.fromkeys(range(13, 24), 1 << m % 9)) for m in range(6, 34)]

    def run(job):
        got = getattr(compiled_kernel, job[0])(*job[1:])
        return list(got.items()) if isinstance(got, dict) else got

    want = [run(job) for job in jobs]
    results = {}
    start = threading.Barrier(4)

    def work(i):
        shift = i * len(jobs) // 4
        start.wait(timeout=30)
        results[i] = [(job, run(job)) for job in jobs[shift:] + jobs[:shift]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert sorted(results) == [0, 1, 2, 3]
    expected = list(zip(jobs, want))
    for i, got in results.items():
        shift = i * len(jobs) // 4
        assert got == expected[shift:] + expected[:shift]


@functools.cache
def reference_collect(k, m, ts):
    """listed(twin, k, m, ts) from first principles, sharing no walker
    with the kernels: every interior from itertools.combinations, the pure
    doubling_size and lambda_rank, groups keyed by sorted doubling.
    Cached, as both twins check the same slices: callers must not mutate it."""
    out = {}
    for inner in itertools.combinations(range(1, m), k - 2):
        elems = (0, *inner, m)
        if math.gcd(*elems) != 1:
            continue
        t = pure.doubling_size(elems)
        if t in ts and one_dimensional(pure, elems):
            out.setdefault(t, []).append(elems)
    return {t: out[t] for t in sorted(out)}


@pytest.fixture(params=["python", "c"])
def twin(request):
    return pure if request.param == "python" else request.getfixturevalue("compiled_kernel")


HALF_WALK_SLICES = (
    [(k, m) for k in range(3, 8) for m in range(k - 1, k + 9)]  # every k, small m
    + [(k, k - 1) for k in range(3, 13)]  # one interior tuple, {0, 1, ..., k - 1}
    + [(k, m) for k in (3, 4) for m in (63, 64, 65, 127, 128)]  # word edges
    # the leaf loop's word counts: 1 mask word up to m = 63, then 2, 3 and 4
    + [(k, m) for k in (3, 4) for m in (95, 96, 191, 192, 255, 256)]
    + [(5, 64)]
    + [(3, 511)]  # the compiled kernel's largest m
)


def listed(twin, k, m, ts):
    """{t: every normal one-dimensional k-set with max m and doubling t} over
    the t in ts, read off a twin's census: every set has the extension
    2 max A, so a mask of -1 lists every set."""
    return {t: sets for t, (_, _, sets) in twin.census_slice(k, m, dict.fromkeys(ts, -1)).items()}


@pytest.mark.parametrize("k, m", HALF_WALK_SLICES)
def test_slices_match_a_walk_free_reference(twin, k, m):
    every_t = range(k * (k + 1) // 2 + 1)
    want = reference_collect(k, m, every_t)
    got = listed(twin, k, m, every_t)
    assert got == want and list(got) == list(want)
    for t_max in (2 * k - 2, 2 * k, k * (k - 1) // 2 + 2):
        assert twin.sweep_slice(k, m, t_max) == [t for t in want if t <= t_max]
    picked = list(want)[1::2]
    assert listed(twin, k, m, picked) == {t: want[t] for t in picked}


def test_the_reference_slices_hold_mirror_pairs_and_palindromes():
    # sets on the mirror line e[1] + e[k-2] == m: palindromes, whose mirror is
    # themselves, and pairs that the half walk visits both members of
    seen = {"palindrome": 0, "pair on the line": 0, "pair off the line": 0}
    for k, m in HALF_WALK_SLICES:
        if math.comb(m - 1, k - 2) > 10_000:
            continue
        for sets in reference_collect(k, m, range(k * (k + 1) // 2 + 1)).values():
            for s in sets:
                mirror = tuple(m - x for x in reversed(s))
                if s == mirror:
                    seen["palindrome"] += 1
                elif s[1] + s[-2] == m:
                    seen["pair on the line"] += 1
                else:
                    seen["pair off the line"] += 1
    assert all(seen.values()), seen


def mobius(n):
    """The Möbius function of n >= 1, by trial division."""
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def test_the_pure_walk_covers_each_slice_by_a_closed_form():
    # the walk visits half of each slice: a leaf with e[1] + e[-2] < m stands
    # for itself and its mirror, a leaf on the line for itself alone. The
    # normal k-sets with max m, one-dimensional or not, are the interiors
    # whose gcd with m is 1: sum over d | m of mu(d) C(m / d - 1, k - 2)
    for k in range(3, 8):
        for m in range(k - 1, 30):
            walked = sum(1 + (e[1] + e[-2] < m) for e, _ in pure.normal_tuples(k, m))
            divisors = [d for d in range(1, m + 1) if m % d == 0]
            assert walked == sum(mobius(d) * math.comb(m // d - 1, k - 2) for d in divisors), (k, m)


def uncovered_elements(elems):
    """The elements in no pair (i <= j) whose sum another pair also reaches,
    from the pair-sum counts alone."""
    pairs = collections.Counter(a + b for a, b in itertools.combinations_with_replacement(elems, 2))
    return [a for a in elems if all(pairs[a + b] < 2 for b in elems)]


def test_a_set_with_an_uncovered_element_is_not_one_dimensional():
    # a one-dimensional set has every element in a pair with a repeated sum
    # (an element in no such pair has coefficient 0 in every relation row);
    # the pure Bareiss rank checks that rule on every normal k-set with
    # k = 4..7 and max <= 14
    seen = collections.Counter()
    for k in range(4, 8):
        for m in range(k - 1, 15):
            for inner in itertools.combinations(range(1, m), k - 2):
                elems = (0, *inner, m)
                if math.gcd(*elems) != 1:
                    continue
                one_dim = one_dimensional(pure, elems)
                covered = not uncovered_elements(elems)
                assert covered or not one_dim, elems
                seen[covered, one_dim] += 1
    assert seen[False, False] and seen[True, False] and seen[True, True], seen


@given(st.lists(st.integers(0, 40), min_size=3, max_size=12, unique=True))
def test_a_small_set_with_an_uncovered_element_is_not_one_dimensional(values):
    elems = tuple(sorted(values))
    if uncovered_elements(elems):
        assert not one_dimensional(pure, elems), elems


def reference_right_extensions(elements):
    """right_extensions from first principles: the xs from the differences
    s - e with s in 2A, T_x from the pure doubling_size of A + (x,), the
    overlap from a set intersection."""
    two = set(sumset(IntSet(elements), IntSet(elements)))
    xs = sorted({s - e for s in two for e in elements if s - e > elements[-1]})
    return [
        (x, pure.doubling_size(elements + (x,)), len(two & {x + e for e in elements}))
        for x in xs
    ]


def every_small_set():
    # every subset of range(12) with 1 to 6 elements, as is and shifted left:
    # non-normal sets and negative elements included
    for k in range(1, 7):
        for elems in itertools.combinations(range(12), k):
            yield elems
            yield tuple(e - 7 for e in elems)


def test_compiled_right_extensions_match_pure(compiled_kernel):
    for elems in every_small_set():
        assert_same(compiled_kernel, "right_extensions", elems)
    rng = random.Random(20261018)
    for _ in range(300):
        k = rng.randint(1, 12)
        low = rng.randint(-1000, 1000)
        elems = tuple(sorted(rng.sample(range(low, low + 512), k)))
        assert_same(compiled_kernel, "right_extensions", elems)


def test_compiled_right_extensions_match_pure_on_the_k7_slices(compiled_kernel):
    # every one-dimensional normal 7-set with maximum at most 32
    every_t = range(13, 24)
    count = 0
    for m in range(6, 33):
        for sets in listed(compiled_kernel, 7, m, every_t).values():
            for elems in sets:
                assert_same(compiled_kernel, "right_extensions", elems)
                count += 1
    assert count > 1000


@given(st.lists(st.integers(-255, 255), min_size=1, max_size=12, unique=True))
def test_compiled_right_extensions_match_pure_on_any_small_set(compiled_kernel, values):
    assert_same(compiled_kernel, "right_extensions", tuple(sorted(values)))


def test_right_extensions_match_a_walk_free_reference(twin):
    for elems in every_small_set():
        if len(elems) <= 5:
            assert twin.right_extensions(elems) == reference_right_extensions(elems)
    rng = random.Random(11)
    for _ in range(100):
        elems = tuple(sorted(rng.sample(range(-40, 60), rng.randint(2, 9))))
        assert twin.right_extensions(elems) == reference_right_extensions(elems)


def test_right_extension_xs_are_the_extension_candidates():
    # on every one-dimensional normal set with k = 3..6 and max <= mu(k, T) + k,
    # the xs are the points of 2A - A beyond max A, from the definition
    for k in range(3, 7):
        lo, hi = t_range(k)
        for m in range(k - 1, mu(k, hi) + k + 1):
            for t, sets in listed(kernel, k, m, range(lo, hi + 1)).items():
                if m > mu(k, t) + k:
                    continue
                for elems in sets:
                    xs = [x for x, _, _ in kernel.right_extensions(elems)]
                    assert xs == [y for y in brute_pool(elems) if y > m], elems


def test_right_extensions_cap_straddles(compiled_kernel):
    # the compiled twin sizes its masks from the span, so it refuses only
    # spans past 2**20; up to 2**20 itself its right_extensions and
    # chain_children equal the walk-free references
    for span in (1 << 14, (1 << 14) + 1, 1 << 20):
        for elems in [(0, span), (0, 1, span), (0, 3, span // 2, span), (-5, 3, span - 5)]:
            got = compiled_kernel.right_extensions(elems)
            assert got and got == reference_right_extensions(elems), elems
            if elems[0] == 0 and math.gcd(*elems) == 1:
                got = compiled_kernel.chain_children(elems, 10**6)
                assert got and got == reference_chain_children(elems), elems
    span = 1 << 20
    for elems in [(0, span + 1), (0, 1, span + 1), (-5, 3, span - 4)]:
        with pytest.raises(OverflowError):
            compiled_kernel.right_extensions(elems)


def test_right_extensions_match_the_reference_on_spans_512_to_4096(twin):
    # spans the compiled twin once sent to the pure one, word edges included
    rng = random.Random(4096)
    cases = [(0, 512), (0, 3, 200, 512), (-600, -598, -88), tuple(range(0, 4097, 64))]
    cases += [(0, 1, span - 1, span) for span in (575, 576, 577, 1023, 1024, 4095, 4096)]
    for _ in range(60):
        span = rng.randint(512, 4096)
        low = rng.randint(-5000, 5000)
        inner = rng.sample(range(low + 1, low + span), rng.randint(0, 10))
        cases.append(tuple(sorted({low, low + span, *inner})))
    for elems in cases:
        assert twin.right_extensions(elems) == reference_right_extensions(elems), elems


@pytest.mark.parametrize(
    "elements, error",
    [
        ((), IndexError),
        ([], IndexError),
        ((0, 2, 1), ValueError),
        ((0, 1, 1), ValueError),
        (5, TypeError),
        ((0, "1"), TypeError),
    ],
)
def test_right_extensions_reject_bad_input_alike(compiled_kernel, elements, error):
    assert assert_rejected_alike(compiled_kernel, "right_extensions", elements)[0] is error


def test_right_extensions_take_any_iterable_alike(compiled_kernel):
    want = pure.right_extensions((0, 1, 3))
    for backend in (pure, compiled_kernel):
        assert backend.right_extensions([0, 1, 3]) == want
        assert backend.right_extensions(iter((0, 1, 3))) == want
        assert backend.right_extensions(e for e in (0, 1, 3)) == want


@functools.cache
def reference_extensions(k, m):
    """{t: [(set, reference_right_extensions(set))]} over reference_collect's
    slice, mirrors included, which no pool of the walk reads."""
    every_t = range(k * (k + 1) // 2 + 1)
    return {
        t: [(a, reference_right_extensions(a)) for a in sets]
        for t, sets in reference_collect(k, m, every_t).items()
    }


def reference_census(k, m, listing):
    """census_slice from first principles: the sets of reference_collect,
    each with its reference_right_extensions."""
    out = {}
    for t, sets in reference_extensions(k, m).items():
        if t in listing:
            mask = listing[t] | -(1 << k + 2)
            listed = [a for a, ext in sets if any(mask >> o & 1 for _, _, o in ext)]
            out[t] = (len(sets), sum(len(ext) for _, ext in sets), listed)
    return out


CENSUS_SLICES = [(k, m) for k in range(3, 7) for m in range(k - 1, k + 7)] + [(3, 64), (4, 65)]


@pytest.mark.parametrize("k, m", CENSUS_SLICES)
def test_census_matches_a_walk_free_reference(twin, k, m):
    # every set listed, none, and for each overlap o the sets with an
    # extension of overlap o: the mirror side's overlaps, read off the pool
    # of the hit, against the reference extensions of the mirror itself
    ts = range(2 * k - 1, k * (k + 1) // 2 + 1)
    listings = [dict.fromkeys(ts, -1), dict.fromkeys(ts, 0)]
    listings += [dict.fromkeys(ts, 1 << o) for o in range(k + 2)]
    listings.append({t: (-1, 0, 1 << k, 5)[t % 4] for t in ts[::2]})
    for listing in listings:
        want = reference_census(k, m, listing)
        got = twin.census_slice(k, m, listing)
        assert got == want and list(got) == list(want), listing


def test_compiled_census_matches_pure_at_k7(compiled_kernel):
    # m = 32 and 33 cross a sumset word, as in the slices test
    for m in (6, 11, 17, 23, 32, 33):
        for mask in (-1, 0b101010):
            assert_same(compiled_kernel, "census_slice", 7, m, dict.fromkeys(range(13, 24), mask))


# small slices of k = 8..12, up to MAXK = 12 with its 9 prefix columns; the
# walk reads each leaf's kernel off its prefix's, so these must reach a
# one-dimensional prefix (a prefix kernel of 0, no row needed from x) and a
# leaf whose only new relation is 2x
WIDE_CENSUS_SLICES = [(8, 14), (8, 16), (9, 13), (9, 14), (10, 12), (10, 14), (11, 13), (12, 14)]


def test_compiled_census_matches_pure_at_k8_to_k12(compiled_kernel):
    cases = collections.Counter()
    for k, m in WIDE_CENSUS_SLICES:
        for mask in (0b101010, -1):
            listing = dict.fromkeys(range(k * (k + 1) // 2 + 1), mask)
            want = pure.census_slice(k, m, listing)
            got = compiled_kernel.census_slice(k, m, listing)
            assert got == want and list(got) == list(want), (k, m, mask)
        for _, _, sets in want.values():
            for a in sets:
                # the walked member of a mirror pair, as its prefix and last element
                prefix, x = a[:-2] + a[-1:], a[-2]
                if a[1] + x > m or not one_dimensional(pure, prefix):
                    continue
                cases["one-dimensional prefix", k] += 1
                two = {u + v for u in prefix for v in prefix}
                if all(x + u not in two for u in prefix):
                    assert 2 * x in two
                    cases["2x only"] += 1
    assert all(cases["one-dimensional prefix", k] for k in range(8, 13)), cases
    assert cases["2x only"], cases


@pytest.mark.slow
def test_compiled_census_matches_a_rank_reference_on_every_k7_leaf(compiled_kernel):
    # every gcd-1 leaf of the k = 7 table (m = 6..39) with every doubling
    # listed, against hits from relation_rank (the compiled lambda_rank)
    # over the pure walk, each with its mirror: counts, pairs and listed sets.
    # The chain of trust: Bareiss checks relation_rank in tier-1 (the rank
    # tests above), and relation_rank checks the walk's leaf test here; the
    # two share only insert_row, the kernel's one row reduction
    k = 7
    every_t = range(k * (k + 1) // 2 + 1)
    for m in range(6, 40):
        want = {}
        for elems, t in pure.normal_tuples(k, m):
            if not one_dimensional(compiled_kernel, elems):
                continue
            sets = [elems]
            if elems[1] + elems[-2] < m:
                sets.append(tuple(m - x for x in reversed(elems)))
            census = want.setdefault(t, [0, 0, []])
            for a in sets:
                census[0] += 1
                census[1] += len(compiled_kernel.right_extensions(a))
                census[2].append(a)
        want = {t: (sets, pairs, sorted(listed)) for t, (sets, pairs, listed) in sorted(want.items())}
        got = compiled_kernel.census_slice(k, m, dict.fromkeys(every_t, -1))
        assert got == want and list(got) == list(want), m


def test_census_reads_its_listing_alike(compiled_kernel):
    # a t outside the doublings lists nothing, and only bits 0..k + 1 of a
    # mask are read, of its two's complement when negative
    for listing in ({}, {10**30: -1, -3: 5, 9: -1}, {9: 2**70 + 4, 10: -(2**70), 11: -1}):
        assert_same(compiled_kernel, "census_slice", 4, 7, listing)
    for args in [
        (4, 7, [(9, -1)]),
        (4, 7, {9.0: -1}),
        (4, 7, {9: 1.5}),
        (2, 7, {}),
        (4.0, 7, {}),
    ]:
        assert_rejected_alike(compiled_kernel, "census_slice", *args)


def test_census_straddles_the_caps(compiled_facade):
    with pytest.raises(OverflowError):
        compiled_facade._c.census_slice(3, 512, {6: -1})
    with pytest.raises(OverflowError):
        compiled_facade._c.census_slice(13, 20, {})
    for k, m in [(3, 511), (3, 512), (12, 13), (13, 14)]:
        listing = dict.fromkeys(range(2 * k - 1, k * (k + 1) // 2 + 1), 0b110)
        assert compiled_facade.census_slice(k, m, listing) == pure.census_slice(k, m, listing)


def brute_pool(elements):
    """The points of 2A - A outside [min A, max A], ascending, from the
    definition, element by element."""
    low, high = elements[0], elements[-1]
    diff = {s + t - e for s in elements for t in elements for e in elements}
    return sorted(y for y in diff if not low <= y <= high)


def reference_chain_children(elements):
    """chain_children from first principles, before the t_max filter: the
    pool from brute_pool, each child sorted and made canonical by
    _canonical_tuple, its doubling from the pure doubling_size."""
    out = []
    for y in brute_pool(elements):
        canon = _canonical_tuple(tuple(sorted(elements + (y,))))
        out.append((canon, pure.doubling_size(canon)))
    return out


def chain_parents(top):
    """(parent, cap) for every chain of 3 to top elements, cap the largest
    legal doubling one size up."""
    for k in range(3, top + 1):
        cap = t_range(k + 1)[1]
        for parent in _chain_level(k):
            yield parent, cap


def small_normal_sets():
    for elems in every_small_set():
        if elems[0] == 0 and (len(elems) == 1 or math.gcd(*elems) == 1):
            yield elems


def test_compiled_chain_children_match_pure_on_the_chain_levels(compiled_kernel):
    count = 0
    for parent, cap in chain_parents(8):
        assert_same(compiled_kernel, "chain_children", parent, cap)
        count += 1
    assert count == 1 + 2 + 7 + 27 + 109 + 396


@given(
    st.lists(st.integers(1, 80), max_size=10, unique=True),
    st.integers(-1, 70),
)
def test_compiled_chain_children_match_pure_on_small_normal_sets(compiled_kernel, values, t_max):
    g = math.gcd(*values) if values else 1
    elems = (0, *sorted(v // g for v in values))
    assert_same(compiled_kernel, "chain_children", elems, t_max)


def test_chain_children_match_a_walk_free_reference(twin):
    cases = [
        (elems, t_range(len(elems) + 1)[1]) for elems in small_normal_sets() if len(elems) > 1
    ]
    for elems, t_max in cases + list(chain_parents(7)):
        want = reference_chain_children(elems)
        for cut in (t_max, t_max - 3):
            got = twin.chain_children(elems, cut)
            assert got == [(canon, t) for canon, t in want if t <= cut], (elems, cut)


def pool_children(elements):
    """Every out-of-hull child A ∪ {y}, y in 2A - A, sorted, with no filter."""
    return [tuple(sorted(elements + (y,))) for y in brute_pool(elements)]


def test_every_pool_child_of_a_chain_parent_is_one_dimensional(compiled_kernel):
    # why chain_children runs no rank test: y + a = b + c is a relation
    # independent of A's, so the rank grows by one with |A|;
    # parents from every chain level to k = 9 on the compiled twin, to k = 7
    # on the pure one
    count = 0
    for parent, _ in chain_parents(9):
        for child in pool_children(parent):
            assert compiled_kernel.lambda_rank(child) == len(child) - 2, (parent, child)
            if len(parent) <= 7:
                assert pure.lambda_rank(child) == len(child) - 2, (parent, child)
            count += 1
    assert count == 87_938


@given(st.lists(st.integers(1, 60), min_size=1, max_size=9, unique=True))
def test_every_pool_child_of_a_one_dimensional_set_is_one_dimensional(values):
    g = math.gcd(*values)
    elems = (0, *sorted(v // g for v in values))
    if not one_dimensional(pure, elems):
        return
    children = pool_children(elems)
    for child in children:
        assert pure.lambda_rank(child) == len(child) - 2, (elems, child)
    # and chain_children lists every one of them under the doubling cap
    assert len(pure.chain_children(elems, 10**6)) == len(children)


def test_every_chain_of_levels_3_to_10_is_one_dimensional(compiled_facade, monkeypatch):
    # the chain levels trust chain_children's children to be one-dimensional
    # without a rank test: every set of levels 3..10, grown compiled in a
    # table of their own, has pure Bareiss rank |A| - 2
    monkeypatch.setattr(chains, "_LEVELS", chains._LEVELS[:4])
    count = 0
    for k in range(3, 11):
        for elems in _chain_level(k):
            assert pure.lambda_rank(elems) == k - 2, elems
            count += 1
    assert count == 5_918


def test_a_parent_of_higher_dimension_keeps_every_pool_child(twin):
    # {0, 1, 3, 4} has the one relation 0 + 4 = 1 + 3, rank 1 < 2; no child
    # is rank tested, so the two-dimensional ones stay too
    assert not one_dimensional(pure, (0, 1, 3, 4))
    got = twin.chain_children((0, 1, 3, 4), 10**6)
    assert got == reference_chain_children((0, 1, 3, 4))
    assert len(got) == 8
    assert sum(one_dimensional(pure, canon) for canon, _ in got) == 2


def test_chain_children_run_no_rank_test(monkeypatch):
    tested = []

    def counted(name):
        rank = getattr(pure, name)

        def wrapper(*args):
            tested.append((name, args))
            return rank(*args)

        return wrapper

    for name in ("lambda_rank", "rank_of_rows"):
        monkeypatch.setattr(pure, name, counted(name))
    for elems in [(0, 1, 2, 4, 8), (0, 1, 3, 4), (0, 1), (0,)]:
        pure.chain_children(elems, 10**6)
    assert tested == []


def test_chain_children_of_11_12_and_13_elements_match_on_both_twins(
    compiled_facade, compiled_kernel, monkeypatch
):
    # parents from the chain levels 11 and 12, grown compiled in a table of
    # their own, 13-element parents from their children, and parents of 12
    # elements that are not one-dimensional: the compiled twin takes them
    # all, spans past 511 too
    monkeypatch.setattr(chains, "_LEVELS", chains._LEVELS[:4])
    rng = random.Random(13)
    parents = {k: rng.sample(sorted(_chain_level(k)), 40) for k in (11, 12)}
    parents[13] = [canon for p in parents[12][:8] for canon, _ in pure.chain_children(p, 60)]
    two_dim = [p[:-1] + (p[-1] + 1,) for p in parents[12]]
    parents[12] += [p for p in two_dim if not one_dimensional(pure, p)][:10]
    assert max(p[-1] for p in parents[12]) > 511
    for k, sets in parents.items():
        assert sets and all(len(p) == k for p in sets)
        for parent in sets:
            t_max = t_range(k + 1)[1]
            want = pure.chain_children(parent, t_max)
            assert compiled_kernel.chain_children(parent, t_max) == want, parent
            assert compiled_facade.chain_children(parent, t_max) == want, parent


def test_chain_children_cap_straddles(compiled_kernel):
    # the compiled twin sizes its masks from the span and its buffers from
    # |A|: wide and long parents run compiled up to span 2**20; past it,
    # OverflowError, which sends the facade to the pure twin (tested below)
    powers = tuple(1 << i for i in range(13))
    for elems in [
        (0, *powers),
        tuple(4096 - e for e in reversed((0, *powers))),
        (0, *powers[:9], 3000),
        tuple(range(40)),
        (0, 1, 2, 700),
    ]:
        got = compiled_kernel.chain_children(elems, 10**6)
        assert got and got == pure.chain_children(elems, 10**6), elems
    with pytest.raises(OverflowError):
        compiled_kernel.chain_children((0, 1, (1 << 20) + 1), 100)


def word_edge_sets(span):
    """Sets of the given span that touch both ends, the middle and the word
    edges inside it, at base 0 and shifted to negative elements."""
    rng = random.Random(span)
    sets = [
        (0, span),
        (0, 1, span),
        (0, span - 1, span),
        (0, 1, span // 2, span - 1, span),
        tuple(sorted({0, *range(63, span, 64), span})),
        tuple(sorted({0, *range(64, span, 64), span})),
    ]
    for _ in range(6):
        inner = rng.sample(range(1, span), rng.randint(1, 8))
        sets.append(tuple(sorted({0, *inner, span})))
    return sets + [tuple(e - 70 for e in elems) for elems in sets]


@pytest.mark.parametrize("span", [16, 21, 32, 43, 48, 63, 64, 65, 127, 128, 129, 191, 192])
def test_mask_primitives_match_the_references_at_word_edges(twin, span):
    # one mask layout serves every shifted read: the compiled twin keeps 2A
    # at bits span..3 span and 2A - A at bits span..4 span, checked where
    # span, 3 span or 4 span crosses a word edge
    for elems in word_edge_sets(span):
        assert twin.doubling_size(elems) == len({a + b for a in elems for b in elems}), elems
        assert twin.right_extensions(elems) == reference_right_extensions(elems), elems
        if elems[0] == 0 and math.gcd(*elems) == 1:
            want = reference_chain_children(elems)
            assert want, elems
            for cut in (10**6, want[0][1]):
                got = twin.chain_children(elems, cut)
                assert got == [(canon, t) for canon, t in want if t <= cut], (elems, cut)


def test_mask_primitives_refuse_spans_past_2_to_the_20_alike(compiled_kernel):
    span = (1 << 20) + 1
    for name, args in [
        ("doubling_size", ((0, span),)),
        ("doubling_size", ((-5, 3, span - 5),)),
        ("right_extensions", ((0, span),)),
        ("right_extensions", ((-5, 3, span - 5),)),
        ("chain_children", ((0, 1, span), 100)),
    ]:
        assert raised(getattr(compiled_kernel, name), *args) == (
            OverflowError,
            f"the compiled {name} takes spans <= 2**20",
        ), (name, args)


def test_facade_hands_iterators_past_the_caps_to_the_pure_twin(compiled_facade):
    # the compiled twin reads the iterator before it refuses the input
    elems = tuple(range(13))
    got = compiled_facade.lambda_rank(iter(elems))
    assert got and got == pure.lambda_rank(elems)
    wide = (0, 1, (1 << 20) + 1)
    got = compiled_facade.right_extensions(iter(wide))
    assert got and got == pure.right_extensions(wide)
    got = compiled_facade.chain_children(iter(wide), 100)
    assert got and got == pure.chain_children(wide, 100)


def test_the_pure_mask_primitives_refuse_spans_past_2_to_the_24():
    # the pure masks are ints as wide as the span: past MAX_MASK_SPAN the set
    # is refused before any mask is built, so span 2**60 raises ValueError
    # rather than MemoryError; at the bound the primitives answer
    span = pure.MAX_MASK_SPAN
    assert span == 1 << 24 and pure.doubling_size((0, 1, span)) == 6
    for elems in [(0, 1, span + 1), (-5, 3, span - 4), (0, 1, 2, 1 << 60)]:
        for name, args in [("doubling_size", ()), ("right_extensions", ()), ("chain_children", (100,))]:
            if name == "chain_children" and elems[0] != 0:
                continue
            want = (ValueError, f"{name} takes spans <= 2**24")
            assert raised(getattr(pure, name), elems, *args) == want, (name, elems)


@pytest.mark.parametrize("path", ["pure", "compiled_facade", "compiled_kernel"])
def test_mask_primitives_answer_past_span_2_to_the_20_in_seconds(request, path):
    # both twins read the points of 2A - A off one mask rather than testing
    # each of about 2 span shifts (minutes at this span): the compiled twin
    # at its span cap, 2**20, and past it the facade hands the mask
    # primitives to the pure twin
    k = pure if path == "pure" else request.getfixturevalue(path)
    elems = (0, 1, (1 << 20) + (path != "compiled_kernel"))
    start = time.perf_counter()
    extensions = k.right_extensions(elems)
    children = k.chain_children(elems, 100)
    elapsed = time.perf_counter() - start
    assert extensions == reference_right_extensions(elems)
    assert children == [(c, t) for c, t in reference_chain_children(elems) if t <= 100]
    assert children and elapsed < 2


@pytest.mark.parametrize(
    "elements, error",
    [
        ((), IndexError),
        ([], IndexError),
        ((0, 2, 1), ValueError),
        ((0, 1, 1), ValueError),
        ((1, 2, 3), ValueError),
        ((-1, 0, 1), ValueError),
        ((0, 2, 4), ValueError),
        ((0, 3, 6, 600), ValueError),
        ((0, 1.0, 3), TypeError),
        ((0, "1"), TypeError),
        (5, TypeError),
    ],
)
def test_chain_children_reject_bad_input_alike(compiled_kernel, elements, error):
    assert assert_rejected_alike(compiled_kernel, "chain_children", elements, 10)[0] is error


@pytest.mark.parametrize("elements", [(0, 1, 3), (0, 2, 1), (1, 2, 3), ()], ids=repr)
def test_chain_children_read_t_max_before_the_set_alike(compiled_kernel, elements):
    # the compiled twin parses t_max before it reads the set, and so does
    # the pure one: a bad t_max raises its TypeError whatever the set
    assert assert_rejected_alike(compiled_kernel, "chain_children", elements, 10.5)[0] is TypeError


@pytest.mark.parametrize(
    "elements, t_max, floors",
    [
        ((0, 1, 2), 10, 5),  # not an iterable
        ((0, 1, 2), 10, None),
        ((0, 1, 2), 10, [0, 1.5]),  # a non-int entry
        ((0, 1, 2), 10, (0, "1")),
        ((0, 1, 2), 10, [0] * 20 + [None]),  # past every doubling, still read
        ((0, 2, 1), 10, 5),  # floors are read before the set
        ((0, 1, 2), 10.5, [0, 1]),  # and t_max before the floors
        ((0, 1, 2), 10.5, 5),
    ],
    ids=repr,
)
def test_chain_children_reject_bad_floors_alike(compiled_kernel, elements, t_max, floors):
    want = assert_rejected_alike(compiled_kernel, "chain_children", elements, t_max, floors)
    assert want[0] is TypeError


def test_floors_skip_the_children_below_them(twin):
    # a child of doubling t is kept when floors has no entry t or its top,
    # max canon, is at least floors[t]; the compiled twin reads every entry,
    # past MAXPAIRS = 78 too ((0, 1, 2, 4, ..., 4096) has children of
    # doubling up to 120)
    rng = random.Random(78)
    powers = (0, *(1 << i for i in range(13)))
    cases = [(elems, t_range(len(elems) + 1)[1]) for elems in small_normal_sets() if len(elems) > 2]
    cases = rng.sample(cases, 150) + list(chain_parents(6)) + [(powers, 10**6)]
    for elems, t_max in cases:
        want = reference_chain_children(elems)
        tops = [canon[-1] for canon, _ in want]
        for _ in range(3):
            n = rng.randint(0, max(t for _, t in want) + 2)
            floors = [rng.choice([0, -5, *tops, max(tops) + 1]) for _ in range(n)]
            kept = [
                (canon, t)
                for canon, t in want
                if t <= t_max and (t >= len(floors) or canon[-1] >= floors[t])
            ]
            # floors is any iterable of ints, read whole
            for given in (floors, tuple(floors), iter(floors)):
                assert twin.chain_children(elems, t_max, given) == kept, (elems, floors)
    # floors past every top keep no child, those of doubling past 78 included
    assert any(t > 78 for _, t in reference_chain_children(powers))
    assert twin.chain_children(powers, 10**6, [1 << 20] * 200) == []


def test_facade_hands_floors_past_the_caps_to_the_pure_twin(compiled_facade):
    # a one-shot iterator of floors is read once, before the compiled twin
    # refuses the span and the pure twin takes over
    wide = (0, 1, (1 << 20) + 1)
    want = pure.chain_children(wide, 100, [0] * 9 + [2**21])
    assert want and want != pure.chain_children(wide, 100)
    assert compiled_facade.chain_children(wide, 100, iter([0] * 9 + [2**21])) == want


# every set function of the facade with its arguments after the set: the
# twins' four set primitives and is_one_dimensional, which the facade reads
# off lambda_rank (READ_OFF), so it rejects what lambda_rank rejects
SET_FUNCTIONS = {
    "doubling_size": (),
    "lambda_rank": (),
    "is_one_dimensional": (),
    "right_extensions": (),
    "chain_children": (10,),
}
READ_OFF = {"is_one_dimensional": "lambda_rank"}


@pytest.mark.parametrize(
    "elements, error",
    [
        ((), IndexError),
        ((3, 0, 5), ValueError),
        ((0, 5, 3), ValueError),
        ((0, 0), ValueError),
        ((0, 0, 1), ValueError),
        ((5, 5), ValueError),
        ((2, 2, 2, 5), ValueError),
        ((0, 1.5), TypeError),
    ],
    ids=repr,
)
@pytest.mark.parametrize("name", SET_FUNCTIONS)
def test_set_primitives_reject_bad_input_alike(
    compiled_kernel, compiled_facade, monkeypatch, name, elements, error
):
    # a set is a nonempty, strictly ascending iterable of ints: both twins
    # raise the same type and message on anything else, and the facade does
    # on a one-shot iterator, with the compiled twin behind it and with the
    # pure one alone
    args = SET_FUNCTIONS[name]
    primitive = READ_OFF.get(name, name)
    want = assert_rejected_alike(compiled_kernel, primitive, elements, *args)
    assert want[0] is error
    if error is ValueError:
        assert want[1] == f"{primitive} takes strictly ascending elements"
    for c in (compiled_kernel, None):
        monkeypatch.setattr(compiled_facade, "_c", c)
        assert raised(getattr(compiled_facade, name), iter(elements), *args) == want


def test_every_compiled_primitive_has_a_pure_twin_and_a_wrapper(compiled_kernel):
    names = [
        name
        for name in dir(compiled_kernel)
        if not name.startswith("_") and callable(getattr(compiled_kernel, name))
    ]
    assert "chain_children" in names and "census_slice" in names
    assert "collect_slice" not in names
    for name in names:
        assert callable(getattr(pure, name, None)), f"{name} has no pure twin"
        wrapper = getattr(kernel, name, None)
        assert callable(wrapper) and wrapper.__module__ == kernel.__name__, (
            f"{name} has no wrapper in kernel.py"
        )


def test_doubling_size_agrees_with_set_type():
    for elems in small_tuples(max_k=4, max_elem=9):
        assert kernel.doubling_size(elems) == doubling(IntSet(elems))


def test_slice_functions_agree():
    for k, m in [(3, 4), (4, 5), (4, 7), (5, 8)]:
        t_cap = k * (k + 1) // 2
        assert kernel.sweep_slice(k, m, t_cap) == pure.sweep_slice(k, m, t_cap)
        ts = tuple(pure.sweep_slice(k, m, t_cap))
        assert listed(kernel, k, m, ts) == listed(pure, k, m, ts)


def test_sweep_slice_reports_realized_doublings():
    got = pure.sweep_slice(4, 5, 10)
    for t in got:
        assert t <= 10
    assert got == sorted(set(got))
    # k=4, max=5 realizes nothing at doubling 8 or below
    assert kernel.sweep_slice(4, 5, 8) == []


def test_wide_inputs_take_the_pure_path():
    # beyond the compiled caps the facade silently falls back; results
    # must still be correct
    span = (0, (1 << 20) + 2, (1 << 20) + 3)
    assert kernel.doubling_size(span) == 6
    wide = tuple(range(13))
    assert kernel.lambda_rank(wide) == 11
    assert kernel.is_one_dimensional(wide)


def test_compiled_refuses_input_past_its_caps(compiled_kernel):
    with pytest.raises(OverflowError):
        compiled_kernel.lambda_rank(tuple(range(13)))
    with pytest.raises(OverflowError):
        compiled_kernel.sweep_slice(3, 512, 6)
    with pytest.raises(OverflowError):
        compiled_kernel.census_slice(13, 20, {20: -1})
    with pytest.raises(OverflowError):
        compiled_kernel.doubling_size((0, (1 << 20) + 1))
    with pytest.raises(OverflowError):
        compiled_kernel.doubling_size(((1 << 60) + 1,))


def test_facade_straddles_the_caps(compiled_facade):
    rng = random.Random(7)
    # k = 12 runs compiled, k = 13 pure
    for k in (12, 13):
        for _ in range(20):
            elems = tuple(sorted(rng.sample(range(60), k)))
            assert compiled_facade.lambda_rank(elems) == pure.lambda_rank(elems)
            assert compiled_facade.is_one_dimensional(elems) == one_dimensional(pure, elems)
        progression = tuple(range(0, 3 * k, 3))
        assert compiled_facade.is_one_dimensional(progression)
        t_cap = k * (k + 1) // 2
        ts = pure.sweep_slice(k, k + 1, t_cap)
        assert ts and compiled_facade.sweep_slice(k, k + 1, t_cap) == ts
        assert listed(compiled_facade, k, k + 1, ts) == listed(pure, k, k + 1, ts)
    # m = 511 runs compiled, m = 512 pure
    for m in (511, 512):
        assert compiled_facade.sweep_slice(3, m, 6) == pure.sweep_slice(3, m, 6)
        assert listed(compiled_facade, 3, m, range(7)) == listed(pure, 3, m, range(7))
    # doubling span 2**20 runs compiled, 2**20 + 1 pure
    for span in (1 << 20, (1 << 20) + 1):
        for elems in [(0, span), (0, 1, span // 2, span), (-5, 3, span - 5)]:
            assert compiled_facade.doubling_size(elems) == pure.doubling_size(elems)
    # |e| = 2**60 runs compiled, 2**60 + 1 pure, on both signs; the grids
    # are two-dimensional
    for e in (1 << 60, (1 << 60) + 1):
        grid = tuple(sorted({e - a - 5 * b for a in range(3) for b in range(3)}))
        neg_grid = tuple(-x for x in reversed(grid))
        for elems in [(e - 3, e - 1, e), (-e, -e + 2, -e + 3, -e + 7), (e, e + 1), grid, neg_grid]:
            for name in ELEMENT_FUNCTIONS:
                got = getattr(compiled_facade, name)(elems)
                assert got == getattr(pure, name)(elems), (name, elems)


@pytest.mark.parametrize(
    "name, args",
    [
        ("doubling_size", ((0, 1.5, 3),)),
        ("doubling_size", ((0.0, 1, 3),)),
        ("lambda_rank", ((0, 1.5, 3),)),
        ("is_one_dimensional", ((0, 1.5, 3),)),
        ("sweep_slice", (4, 5, 10.5)),
        ("sweep_slice", (4, 5.0, 10)),
        ("census_slice", (4, 5.0, {9: -1})),
        ("right_extensions", ((0, 1.5, 3),)),
        ("right_extensions", ((0.0, 1, 3),)),
        ("chain_children", ((0, 1.5, 3), 10)),
        ("chain_children", ((0, 1, 3), 10.5)),
        ("census_slice", (4, 5, {"a": -1})),
        ("census_slice", (4, 5, {9.0: 0})),
    ],
)
def test_non_integers_raise_type_error_on_both_backends(
    compiled_kernel, monkeypatch, name, args
):
    primitive = READ_OFF.get(name, name)
    for backend in (pure, compiled_kernel):
        with pytest.raises(TypeError):
            getattr(backend, primitive)(*args)
    if name in READ_OFF:
        # the facade, on either twin, raises what the primitive raises
        for c in (compiled_kernel, None):
            monkeypatch.setattr(kernel, "_c", c)
            assert raised(getattr(kernel, name), *args) == raised(getattr(kernel, primitive), *args)


def test_rank_of_rows_scaling_track():
    # rows skipped by a zero pivot entry still need the fraction-free
    # column rescale, or later pivots go stale
    rows = [
        [2, 0, 0, 1],
        [0, 3, 0, 1],
        [0, 0, 5, 1],
        [2, 3, 5, 3],
    ]
    assert pure.rank_of_rows(rows, 4, 4) == 3
