"""Growth operators, their inverses, and greedy factorization to a base.

The two primitive moves: extend-right adjoins 2*max, dilate-adjoin-odd sends
A to 2*A plus one odd element of the sumset. Reflected variants apply the
same move to the reflexion. Factorization walks the moves backwards until
the set drops into the |2X| <= 3|X|-4 regime.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sumsetchains.dimension import f_isomorphic
from sumsetchains.errors import FactorizationFailed
from sumsetchains.growth import (
    Factorization,
    GrowthStep,
    GrowthVariant,
    adjoin_double_max,
    apply_step,
    dilate_adjoin_odd,
    factorize,
    invert_step,
    odd_adjoin_candidates,
    replay,
)
from sumsetchains.intset import IntSet, doubling, normalize, reflexion, sumset

normal_sets = st.sets(st.integers(1, 30), min_size=2, max_size=7).map(
    lambda s: normalize(IntSet({0} | s))[0]
)

D = GrowthVariant.EXTEND_RIGHT
D_REF = GrowthVariant.EXTEND_RIGHT_REFLECTED
DX = GrowthVariant.DILATE_ADJOIN_ODD
DX_REF = GrowthVariant.DILATE_ADJOIN_ODD_REFLECTED


def test_variant_wire_names():
    assert [v.value for v in GrowthVariant] == ["D", "D-", "Dx", "Dx-"]


class TestForwardOperators:
    def test_adjoin_double_max(self):
        assert adjoin_double_max(IntSet((0, 1, 2))) == IntSet((0, 1, 2, 4))
        with pytest.raises(ValueError):
            adjoin_double_max(IntSet((0, 2, 4)))

    def test_dilate_adjoin_odd(self):
        got = dilate_adjoin_odd(IntSet((0, 2, 3, 4)), 5)
        assert got == IntSet((0, 4, 5, 6, 8))

    def test_dilate_adjoin_x_inside_a(self):
        # x itself may be an element as long as it lies in the sumset;
        # the image then contains both x and 2x
        got = dilate_adjoin_odd(IntSet((0, 2, 3, 4, 5, 7)), 7)
        assert got == IntSet((0, 4, 6, 7, 8, 10, 14))

    def test_dilate_adjoin_errors(self):
        with pytest.raises(ValueError, match="odd"):
            dilate_adjoin_odd(IntSet((0, 2, 3, 4)), 4)
        with pytest.raises(ValueError, match="sumset"):
            dilate_adjoin_odd(IntSet((0, 2, 3, 4)), 9)
        with pytest.raises(ValueError, match="normal"):
            dilate_adjoin_odd(IntSet((0, 2, 4)), 3)

    def test_odd_adjoin_candidates(self):
        assert odd_adjoin_candidates(IntSet((0, 1, 2))) == (3,)
        assert odd_adjoin_candidates(IntSet((0, 2, 3, 4))) == (5, 7)
        # elements of A are filtered out even when they lie in the sumset
        assert odd_adjoin_candidates(IntSet((0, 2, 3, 4, 5, 7))) == (9, 11)

    @given(normal_sets)
    def test_growth_arithmetic(self, a):
        """Both moves add k to the doubling and double the max."""
        k, t = len(a), doubling(a)
        d = adjoin_double_max(a)
        assert len(d) == k + 1
        assert d.max == 2 * a.max
        assert doubling(d) == t + k
        for x in odd_adjoin_candidates(a):
            dx = dilate_adjoin_odd(a, x)
            assert len(dx) == k + 1
            assert dx.max == 2 * a.max
            assert doubling(dx) == t + k

    def test_apply_step_variants(self):
        assert apply_step(GrowthStep(D, None), IntSet((0, 1, 2))) == IntSet((0, 1, 2, 4))
        # reflected variants act on the reflexion and keep its orientation
        assert apply_step(GrowthStep(D_REF, None), IntSet((0, 1, 2, 4))) == IntSet((0, 2, 3, 4, 8))
        assert apply_step(GrowthStep(DX, 5), IntSet((0, 2, 3, 4))) == IntSet((0, 4, 5, 6, 8))
        assert apply_step(GrowthStep(DX_REF, 5), IntSet((0, 1, 2, 4))) == IntSet((0, 4, 5, 6, 8))


class TestInversion:
    def test_frozen_candidates(self):
        got = [(s.variant.value, s.x, p) for s, p in invert_step(IntSet((0, 1, 2, 4)))]
        assert got == [
            ("D", None, IntSet((0, 1, 2))),
            ("D-", None, IntSet((0, 1, 2))),
            ("Dx", 1, IntSet((0, 1, 2))),
            ("Dx-", 1, IntSet((0, 1, 2))),
        ]
        got = [(s.variant.value, s.x, p) for s, p in invert_step(IntSet((0, 4, 5, 6, 8)))]
        assert got == [
            ("Dx", 5, IntSet((0, 2, 3, 4))),
            ("Dx-", 5, IntSet((0, 1, 2, 4))),
        ]

    def test_segment_has_no_inverse(self):
        assert invert_step(IntSet.segment(5)) == []

    @given(normal_sets.filter(lambda a: len(a) >= 4))
    def test_candidates_round_trip(self, a):
        for step, pred in invert_step(a):
            assert apply_step(step, pred) == a

    @given(normal_sets.filter(lambda a: len(a) >= 3))
    def test_forward_images_invert(self, a):
        image = adjoin_double_max(a)
        preds = [p for s, p in invert_step(image) if s.variant is D]
        assert a in preds


class TestFactorize:
    def test_segment_is_its_own_base(self):
        f = factorize(IntSet.segment(5))
        assert f.base == IntSet.segment(5)
        assert f.steps == ()
        assert not f.b_prime_case

    @pytest.mark.parametrize("elements", [(0,), (0, 1), (3, 7)])
    def test_fewer_than_three_elements_are_refused(self, elements):
        with pytest.raises(ValueError, match=r"^factorize requires \|A\| >= 3$"):
            factorize(IntSet(elements))

    @pytest.mark.parametrize("elements", [(0, 1, 3), (0, 1, 2), (2, 4, 8)])
    def test_a_three_set_is_its_own_base(self, elements):
        f = factorize(IntSet(elements))
        assert f.base == normalize(IntSet(elements))[0]
        assert f.steps == ()
        assert not f.b_prime_case

    def test_double_extension(self):
        f = factorize(IntSet((0, 1, 2, 4, 8)))
        assert f.base == IntSet((0, 1, 2))
        assert [s.variant for s in f.steps] == [D, D]
        assert replay(f) == IntSet((0, 1, 2, 4, 8))

    def test_dilation_stops_at_the_regime_boundary(self):
        f = factorize(IntSet((0, 4, 5, 6, 8)))
        assert f.base == IntSet((0, 2, 3, 4))
        assert [(s.variant, s.x) for s in f.steps] == [(DX, 5)]

    def test_base_below_threshold_without_steps(self):
        f = factorize(IntSet((0, 2, 3, 4)))
        assert f.base == IntSet((0, 2, 3, 4))
        assert f.steps == ()

    def test_single_odd_with_element_argument(self):
        a = IntSet((0, 4, 6, 7, 8, 10, 14))
        f = factorize(a)
        assert f.base == IntSet((0, 2, 3, 4, 5, 7))
        assert [(s.variant, s.x) for s in f.steps] == [(DX, 7)]
        assert replay(f) == a

    def test_mirror_image_recovery(self):
        # only the reflexion is an extend-right image; the replay lands on
        # the mirror, which is the same set up to isomorphism
        a = IntSet((0, 10, 11, 12, 13, 15, 20))
        f = factorize(a)
        assert f.base == IntSet((0, 1, 2, 3, 5))
        assert [s.variant for s in f.steps] == [D, D_REF]
        z = replay(f)
        assert z == IntSet((0, 5, 7, 8, 9, 10, 20)) == reflexion(a)
        assert f_isomorphic(z, a)

    def test_mirror_recovery_two_steps_up(self):
        a = IntSet((0, 16, 24, 27, 28, 29, 30, 32))
        f = factorize(a)
        assert f.base == IntSet((0, 2, 3, 4, 5, 8))
        assert [s.variant for s in f.steps] == [D, D]
        assert replay(f) == reflexion(a)

    def test_deep_extension_tower(self):
        a = IntSet((0, 24, 36, 42, 45, 46, 47, 48))
        f = factorize(a)
        assert f.base == IntSet.segment(4)
        assert [s.variant for s in f.steps] == [D, D, D, D]
        assert replay(f) == IntSet((0, 1, 2, 3, 6, 12, 24, 48))
        assert f_isomorphic(replay(f), a)

    def test_one_deletion_case_is_flagged(self):
        a = IntSet((0, 5, 6, 7, 8, 10, 12))
        f = factorize(a)
        assert f.b_prime_case
        assert f.base == a and f.steps == ()
        assert doubling(a) > 3 * len(a) - 4
        # dropping one of the extreme elements lands inside the regime
        trims = [normalize(a.remove(a.max))[0], normalize(a.remove(a.min))[0]]
        assert any(doubling(w) <= 3 * len(w) - 4 for w in trims)

    def test_unfactorizable_set(self):
        # a Sidon set stays far above the threshold however it is trimmed
        with pytest.raises(FactorizationFailed):
            factorize(IntSet((0, 1, 3, 7, 12)))

    def test_as_dict(self):
        f = factorize(IntSet((0, 4, 5, 6, 8)))
        assert f.as_dict() == {
            "base": [0, 2, 3, 4],
            "steps": [{"variant": "Dx", "x": 5}],
            "b_prime_case": False,
        }

    @given(normal_sets.filter(lambda a: len(a) >= 3))
    def test_factorize_contract(self, a):
        """Whenever factorization succeeds, its promises hold."""
        try:
            f = factorize(a)
        except FactorizationFailed:
            return
        t = doubling(f.base)
        cap = 3 * len(f.base) - 4
        if f.b_prime_case:
            assert t > cap
        else:
            # terminal bases: small doubling, or a 3-set (nothing to peel)
            assert t <= cap or len(f.base) == 3
        z = replay(f)
        assert len(z) == len(a)
        assert doubling(z) == doubling(a)
        assert f_isomorphic(z, a)

    def test_replay_rejects_mismatched_steps(self):
        bad = Factorization(
            base=IntSet((0, 1, 3)),
            steps=(GrowthStep(DX, 9), ),
        )
        with pytest.raises(ValueError):
            replay(bad)
