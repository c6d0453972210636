"""Kernel facade: compiled and pure paths must agree bit for bit."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sumsetchains import _kernel_py as pure
from sumsetchains import kernel
from sumsetchains.intset import IntSet, doubling

ELEMENT_FUNCTIONS = ("doubling_size", "lambda_rank", "is_one_dimensional")


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


@pytest.fixture
def compiled_facade(monkeypatch, compiled_kernel):
    """The kernel facade with the compiled kernel behind it."""
    monkeypatch.setattr(kernel, "_c", compiled_kernel)
    return kernel


def test_backend_is_declared():
    assert kernel.BACKEND in ("c", "python")
    assert pure.BACKEND == "python"


def test_compiled_backend_is_c(compiled_kernel):
    assert compiled_kernel.BACKEND == "c"


def test_facade_matches_pure_exhaustively():
    for elems in small_tuples():
        assert kernel.doubling_size(elems) == pure.doubling_size(elems)
        assert kernel.lambda_rank(elems) == pure.lambda_rank(elems)
        assert kernel.is_one_dimensional(elems) == pure.is_one_dimensional(elems)


def test_compiled_matches_pure_exhaustively(compiled_kernel):
    for elems in small_tuples():
        for name in ELEMENT_FUNCTIONS:
            assert_same(compiled_kernel, name, elems)
    for elems in [(0,), (3,), (0, 1), (0, 0), (0, 0, 1), (2, 2, 2, 5)]:
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
    for name in ("lambda_rank", "is_one_dimensional"):
        assert_same(compiled_kernel, name, elems)
    if elems[-1] - elems[0] <= 1 << 20:
        assert_same(compiled_kernel, "doubling_size", elems)


def test_compiled_slices_match_pure(compiled_kernel):
    for k, m in [(3, 4), (4, 5), (4, 7), (5, 8), (3, 2), (5, 3)]:
        t_cap = k * (k + 1) // 2
        for t_max in (-1, 0, t_cap - 3, t_cap, 10**9):
            assert_same(compiled_kernel, "sweep_slice", k, m, t_max)
        ts = tuple(pure.sweep_slice(k, m, t_cap))
        for wanted in (ts, ts[::-1], ts[:1], (), (t_cap + 5, -1) + ts, [3.0, *ts]):
            assert_same(compiled_kernel, "collect_slice", k, m, wanted)


def test_compiled_slices_match_pure_at_k7(compiled_kernel):
    # m = 32 is the first slice whose sumset needs a second accumulator word
    for m in (6, 11, 17, 23, 32):
        assert_same(compiled_kernel, "sweep_slice", 7, m, 23)
        ts = range(13, 24)
        assert_same(compiled_kernel, "collect_slice", 7, m, ts)


def test_doubling_size_agrees_with_set_type():
    for elems in small_tuples(max_k=4, max_elem=9):
        assert kernel.doubling_size(elems) == doubling(IntSet(elems))


def test_slice_functions_agree():
    for k, m in [(3, 4), (4, 5), (4, 7), (5, 8)]:
        t_cap = k * (k + 1) // 2
        assert kernel.sweep_slice(k, m, t_cap) == pure.sweep_slice(k, m, t_cap)
        ts = tuple(pure.sweep_slice(k, m, t_cap))
        assert kernel.collect_slice(k, m, ts) == pure.collect_slice(k, m, ts)


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
        compiled_kernel.is_one_dimensional(tuple(range(13)))
    with pytest.raises(OverflowError):
        compiled_kernel.sweep_slice(3, 512, 6)
    with pytest.raises(OverflowError):
        compiled_kernel.collect_slice(13, 20, (20,))
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
            assert compiled_facade.is_one_dimensional(elems) == pure.is_one_dimensional(elems)
        progression = tuple(range(0, 3 * k, 3))
        assert compiled_facade.is_one_dimensional(progression)
        t_cap = k * (k + 1) // 2
        ts = pure.sweep_slice(k, k + 1, t_cap)
        assert ts and compiled_facade.sweep_slice(k, k + 1, t_cap) == ts
        assert compiled_facade.collect_slice(k, k + 1, ts) == pure.collect_slice(k, k + 1, ts)
    # m = 511 runs compiled, m = 512 pure
    for m in (511, 512):
        assert compiled_facade.sweep_slice(3, m, 6) == pure.sweep_slice(3, m, 6)
        ts = range(7)
        assert compiled_facade.collect_slice(3, m, ts) == pure.collect_slice(3, m, ts)
    # doubling span 2**20 runs compiled, 2**20 + 1 pure
    for span in (1 << 20, (1 << 20) + 1):
        for elems in [(0, span), (0, 1, span // 2, span), (-5, 3, span - 5)]:
            assert compiled_facade.doubling_size(elems) == pure.doubling_size(elems)
    # |e| = 2**60 runs compiled, 2**60 + 1 pure
    for e in (1 << 60, (1 << 60) + 1):
        for elems in [(e - 3, e - 1, e), (-e, -e + 2, -e + 3, -e + 7), (e, e + 1)]:
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
        ("collect_slice", (4, 5.0, (9,))),
    ],
)
def test_non_integers_raise_type_error_on_both_backends(compiled_kernel, name, args):
    for backend in (pure, compiled_kernel):
        with pytest.raises(TypeError):
            getattr(backend, name)(*args)


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
