"""Stable sets, the prefix density bound, and the three-part decomposition."""

import itertools

import pytest

from sumsetchains.errors import DecompositionNotUnique, NotDecomposable
from sumsetchains.intset import IntSet, doubling
from sumsetchains.stability import (
    StableDecomposition,
    density_bound_check,
    doubled_decomposition_length,
    is_right_stable,
    is_stable,
    stable_decompose,
    stable_split,
)


def all_min_zero_sets(max_top: int):
    for m in range(1, max_top + 1):
        inner = range(1, m)
        for r in range(m):
            for mid in itertools.combinations(inner, r):
                yield IntSet((0, *mid, m))


class TestPredicates:
    def test_flagship_examples(self):
        a = IntSet((0, 4, 5, 8, 9, 12))
        assert is_stable(a)
        assert not is_right_stable(a)
        b = IntSet((0, 2, 3, 6))
        assert is_right_stable(b)
        assert not is_stable(b)

    def test_singleton_convention(self):
        assert is_stable(IntSet((0,)))
        assert is_right_stable(IntSet((0,)))

    def test_segments_are_not_stable(self):
        # 1 in A is excluded on purpose: segments get their own part
        assert not is_stable(IntSet((0, 1, 2)))
        assert not is_stable(IntSet((0, 1)))

    def test_progressions(self):
        for d in (2, 3, 4):
            a = IntSet(range(0, 5 * d, d))
            assert is_stable(a)
            assert is_right_stable(a)

    def test_union_of_chains(self):
        # {0,4,8,12} and {5,9} both stack by 4 until they pass max - 4,
        # so holes like 5 + 5 = 10 are irrelevant
        assert is_stable(IntSet((0, 4, 5, 8, 9, 12)))

    def test_stalled_chain_disqualifies(self):
        # the chain from 2 stops at 2: 2 + 2 = 4 is a hole well below max
        assert not is_stable(IntSet((0, 2, 3, 6)))
        assert not is_stable(IntSet((0, 2, 3, 5)))

    def test_requires_min_zero(self):
        with pytest.raises(ValueError):
            is_stable(IntSet((1, 3)))

    def test_first_gap_two_forces_even_progression(self):
        # a chain from 0 by 2 must run to max, so max is even and every even
        # up to max is present; an odd chain would have to end at the
        # forbidden max - 1, so none exists
        found = []
        for a in all_min_zero_sets(16):
            if len(a) >= 2 and a.elements[1] == 2 and is_stable(a):
                assert a.elements == tuple(range(0, a.max + 1, 2)), a.to_text()
                found.append(a)
        assert len(found) == 8


class TestDensityBound:
    def test_examples(self):
        check = density_bound_check(IntSet((0, 4, 5, 8, 9, 12)))
        assert check.holds and not check.dense
        check = density_bound_check(IntSet((0, 2, 4, 6)))
        assert check.holds and check.dense
        check = density_bound_check(IntSet((0,)))
        assert check.holds and check.dense

    def test_rejects_unstable_input(self):
        with pytest.raises(ValueError):
            density_bound_check(IntSet((0, 2, 3, 6)))
        with pytest.raises(ValueError):
            density_bound_check(IntSet((0, 1, 2)))

    def test_checker_matches_brute_force(self):
        # the checker is a plain prefix count; pin it against one written
        # directly from the inequality
        import math

        for a in all_min_zero_sets(12):
            if not is_stable(a):
                continue
            expected = all(
                sum(1 for e in a.elements if e <= x) <= math.ceil((x + 1) / 2)
                for x in range(a.max + 1)
            )
            assert density_bound_check(a).holds == expected, a.to_text()

    def test_bound_census(self):
        """The prefix bound holds for most stable sets but not all of them.

        Sets built from several chains with first gap >= 3 can crowd a
        prefix: {0,3,4,6,7,9} packs five elements into [0,7]. The checker
        exists precisely to report this distinction.
        """
        stable_count = 0
        violators = []
        for a in all_min_zero_sets(16):
            if is_stable(a):
                stable_count += 1
                if not density_bound_check(a).holds:
                    violators.append(a)
        assert stable_count == 638
        assert len(violators) == 23
        assert violators[0] == IntSet((0, 3, 4, 6, 7, 9))
        # every violator needs a first gap of at least 3
        assert all(v.elements[1] >= 3 for v in violators)


class TestDecomposition:
    def test_examples(self):
        d = stable_decompose(IntSet((0, 2, 3, 4, 5)))
        assert (d.a1, d.p_len, d.a2) == (IntSet((0, 2)), 4, IntSet((0,)))
        d = stable_decompose(IntSet((0, 2, 4, 5, 6)))
        assert (d.a1, d.p_len, d.a2) == (IntSet((0, 2, 4)), 3, IntSet((0,)))
        d = stable_decompose(IntSet((0, 3, 4, 5, 6, 7)))
        assert (d.a1, d.p_len, d.a2) == (IntSet((0, 3)), 5, IntSet((0,)))

    def test_pure_segment(self):
        d = stable_decompose(IntSet.segment(5))
        assert (d.a1, d.p_len, d.a2) == (IntSet((0,)), 5, IntSet((0,)))

    def test_not_decomposable(self):
        with pytest.raises(NotDecomposable):
            stable_decompose(IntSet((0, 1, 2, 4, 5)))

    def test_doubling_precondition(self):
        a = IntSet((0, 1, 2, 4, 8))
        assert doubling(a) == 12 > 3 * len(a) - 4
        with pytest.raises(ValueError):
            stable_decompose(a)

    def test_reassemble(self):
        a = IntSet((0, 2, 3, 4, 5))
        assert stable_decompose(a).reassemble() == a
        dec = StableDecomposition(a1=IntSet((0, 2)), p_len=4, a2=IntSet((0,)))
        assert dec.reassemble() == a
        assert (dec.a1_max, dec.a2_max) == (2, 0)

    def test_unique_for_all_small_extremal_sets(self):
        """Every small normal set in the 3k-4 regime splits at most one way,
        its split reassembles to it, and stable_split finds the same split
        or None where stable_decompose raises or the doubling is too large."""
        from sumsetchains.search import enumerate_normal_sets

        for k in range(3, 8):
            for a in enumerate_normal_sets(k, 2 * k + 6):
                t = doubling(a)
                if t > 3 * k - 4:
                    assert stable_split(a, t) is None
                    continue
                try:
                    dec = stable_decompose(a)
                except NotDecomposable:
                    dec = None
                except DecompositionNotUnique as exc:  # pragma: no cover
                    pytest.fail(f"{a.to_text()} split twice: {exc}")
                else:
                    assert dec.reassemble() == a
                assert stable_split(a, t) == dec


class TestDoubledDecomposition:
    def test_segment_lengths(self):
        for text, expected in [
            ("{0,2,3,4,5}", 9),
            ("{0,2,4,5,6}", 9),
            ("{0,3,4,5,6,7}", 12),
            ("{0,1,2,3,4}", 9),
        ]:
            a = IntSet.from_text(text)
            dec = stable_decompose(a)
            assert doubled_decomposition_length(a, dec) == expected

    def test_doubled_segment_dominates(self):
        # the middle of 2A is at least as long as the doubling minus the
        # offset b of the profile
        from sumsetchains.doubling import profile

        for text in ["{0,2,3,4,5}", "{0,2,4,5,6}", "{0,3,4,5,6,7}"]:
            a = IntSet.from_text(text)
            p = profile(len(a), doubling(a))
            got = doubled_decomposition_length(a, stable_decompose(a))
            assert got is not None and got >= p.t - p.b
