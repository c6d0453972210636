"""Core set type: construction, normal form, sumsets, text round-trips."""

import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sumsetchains.intset import (
    MAX_ABS_ELEMENT,
    IntSet,
    concat,
    difference_set,
    doubling,
    holes,
    is_normal,
    is_progression,
    normalize,
    reflexion,
    require_normal,
    sumset,
)

int_sets = st.sets(st.integers(-50, 50), min_size=1, max_size=9).map(IntSet)
normal_sets = st.sets(st.integers(1, 40), min_size=2, max_size=8).map(
    lambda s: normalize(IntSet({0} | s))[0]
)


class TestConstruction:
    def test_elements_sorted_and_deduped(self):
        assert IntSet((3, 0, 1, 1)).elements == (0, 1, 3)

    def test_value_semantics(self):
        assert IntSet((0, 2)) == IntSet([0, 2])
        assert len({IntSet((0, 2)), IntSet((0, 2))}) == 1

    def test_len_and_membership(self):
        a = IntSet((0, 1, 3))
        assert len(a) == 3
        assert 3 in a and 2 not in a

    def test_min_max_length(self):
        a = IntSet((0, 1, 3))
        assert (a.min, a.max) == (0, 3)
        # length is the hull size, not the cardinality
        assert a.length == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            IntSet(())

    def test_magnitude_cap(self):
        with pytest.raises(ValueError):
            IntSet((0, MAX_ABS_ELEMENT + 1))

    def test_every_element_is_type_checked(self):
        # interior elements too, not only the min and the max
        for bad in ((0, 1.5, 3), (0, "1", 3)):
            with pytest.raises(TypeError):
                IntSet(bad)

    def test_stored_elements_are_plain_ints(self):
        a = IntSet((0, True, 3))
        assert a.elements == (0, 1, 3)
        assert all(type(e) is int for e in a.elements)

    def test_segment(self):
        assert IntSet.segment(4) == IntSet((0, 1, 2, 3))


class TestEditing:
    def test_shift(self):
        assert IntSet((0, 2)).shift(3).elements == (3, 5)
        assert IntSet((0, 2)).shift(-5).elements == (-5, -3)

    def test_dilate(self):
        assert IntSet((0, 1, 3)).dilate(2).elements == (0, 2, 6)
        assert IntSet((0, 2)).dilate(-1).elements == (-2, 0)
        with pytest.raises(ValueError):
            IntSet((0, 2)).dilate(0)

    def test_adjoin_and_remove(self):
        a = IntSet((0, 2))
        assert a.adjoin(5).elements == (0, 2, 5)
        assert a.adjoin(5).remove(5) == a
        with pytest.raises(ValueError):
            a.adjoin(2)
        with pytest.raises(ValueError):
            a.remove(1)


class TestText:
    def test_round_trip(self):
        assert IntSet.from_text("{0,1,3}").to_text() == "{0,1,3}"

    def test_tolerant_parsing(self):
        assert IntSet.from_text(" { 0 , 2 , 5 } ").elements == (0, 2, 5)
        assert IntSet.from_text("0,2,5").elements == (0, 2, 5)

    def test_negative_elements(self):
        assert IntSet((-3, 0, 2)).to_text() == "{-3,0,2}"

    def test_bad_literals(self):
        with pytest.raises(ValueError):
            IntSet.from_text("{}")
        with pytest.raises(ValueError):
            IntSet.from_text("{0,x}")

    @given(int_sets)
    def test_any_set_round_trips(self, a):
        assert IntSet.from_text(a.to_text()) == a


class TestSumsets:
    def test_sumset(self):
        a = IntSet((0, 1, 3))
        assert sumset(a, a) == IntSet((0, 1, 2, 3, 4, 6))

    def test_difference_set(self):
        a = IntSet((0, 1, 3))
        assert difference_set(a, a) == IntSet(range(-3, 4))

    def test_doubling(self):
        assert doubling(IntSet((0, 1, 3))) == 6
        assert doubling(IntSet.segment(5)) == 9

    def test_sumsets_answer_at_span_2_to_the_40_in_milliseconds(self):
        # the cost is |A|·|B| pair sums, whatever the span; a mask as wide as
        # the span would be an int of 2**40 bits here
        w = 2**40
        a = IntSet((0, 1, w))
        start = time.perf_counter()
        two = sumset(a, a)
        diff = difference_set(a, a)
        elapsed = time.perf_counter() - start
        assert two == IntSet((0, 1, 2, w, w + 1, 2 * w))
        assert diff == IntSet((-w, 1 - w, -1, 0, 1, w - 1, w))
        assert elapsed < 0.5

    @given(int_sets, int_sets)
    def test_sumset_commutes(self, a, b):
        assert sumset(a, b) == sumset(b, a)

    @given(int_sets)
    def test_doubling_bounds(self, a):
        k = len(a)
        t = doubling(a)
        assert 2 * k - 1 <= t <= k * (k + 1) // 2
        # the floor is hit exactly by arithmetic progressions
        d = a.elements[1] - a.elements[0] if k > 1 else 1
        assert (t == 2 * k - 1) == is_progression(a, d)


class TestNormalForm:
    def test_normalize_example(self):
        reduced, shift, scale = normalize(IntSet((4, 6, 10)))
        assert reduced == IntSet((0, 1, 3))
        assert (shift, scale) == (4, 2)

    def test_normalize_singleton(self):
        assert normalize(IntSet((9,))) == (IntSet((0,)), 9, 1)

    def test_is_normal(self):
        assert is_normal(IntSet((0, 1, 3)))
        assert not is_normal(IntSet((0, 2, 4)))
        assert not is_normal(IntSet((1, 2)))

    def test_require_normal(self):
        require_normal(IntSet((0, 3, 5)), "op")
        with pytest.raises(ValueError, match="op"):
            require_normal(IntSet((0, 2, 4)), "op")

    @given(int_sets)
    def test_normalize_round_trip(self, a):
        reduced, shift, scale = normalize(a)
        assert is_normal(reduced) or len(reduced) == 1
        assert reduced.dilate(scale).shift(shift) == a

    @given(normal_sets)
    def test_normalize_idempotent(self, a):
        assert normalize(a) == (a, 0, 1)

    @given(int_sets)
    def test_doubling_is_affine_invariant(self, a):
        t = doubling(a)
        assert doubling(a.shift(7)) == t
        assert doubling(a.dilate(3)) == t


class TestShape:
    def test_reflexion(self):
        assert reflexion(IntSet((0, 1, 4))) == IntSet((0, 3, 4))

    def test_concat(self):
        assert concat(IntSet((0, 2)), IntSet((0, 3))) == IntSet((0, 2, 5))

    def test_holes(self):
        assert holes(IntSet((0, 2, 3, 7))) == (1, 4, 5, 6)
        assert holes(IntSet.segment(3)) == ()

    def test_is_progression(self):
        assert is_progression(IntSet((0, 2, 4)), 2)
        assert not is_progression(IntSet((0, 2, 4)), 1)
        assert is_progression(IntSet((5,)), 3)
        assert is_progression(IntSet((0, 7)), 7)
        assert not is_progression(IntSet((0, 7)), 2)

    @given(normal_sets)
    def test_reflexion_involution(self, a):
        assert reflexion(reflexion(a)) == a
        assert doubling(reflexion(a)) == doubling(a)

    @given(normal_sets)
    def test_holes_partition_hull(self, a):
        assert sorted(holes(a) + a.elements) == list(range(a.max + 1))
