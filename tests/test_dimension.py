"""Additive dimension via relation rank, and Freiman isomorphism testing."""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sumsetchains import _kernel_py as pure
from sumsetchains.dimension import (
    FISO_CAP,
    additive_dim,
    extension_candidates,
    f_isomorphic,
    f_isomorphism,
    is_one_dimensional,
    out_of_hull_pool,
    relation_rank,
)
from sumsetchains.intset import IntSet, doubling, normalize, reflexion
from sumsetchains.search import enumerate_normal_sets

normal_sets = st.sets(st.integers(1, 30), min_size=2, max_size=6).map(
    lambda s: normalize(IntSet({0} | s))[0]
)

# dense sets with a tight hull are mostly one-dimensional, so this filter
# survives where a filter over normal_sets would starve
one_dim_sets = (
    st.sets(st.integers(1, 9), min_size=2, max_size=6)
    .map(lambda s: normalize(IntSet({0} | s))[0])
    .filter(lambda a: len(a) >= 3 and is_one_dimensional(a))
)

# any finite set: negative elements, a common factor, singletons and 2-sets
any_sets = st.builds(
    lambda s, d: IntSet(d * e for e in s),
    st.sets(st.integers(-25, 25), min_size=1, max_size=7),
    st.integers(1, 4),
)


def difference_points(a: IntSet) -> set[int]:
    """2A - A from its definition, element by element."""
    return {s + t - e for s in a for t in a for e in a}


def rational_rank(rows: list[list[int]]) -> int:
    """Plain Gaussian elimination over Fraction, as an independent check."""
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def relation_rows(a: IntSet) -> list[list[int]]:
    # every equal-sum pair of pairs contributes e_i + e_j - e_r - e_s
    k = len(a)
    idx = {e: i for i, e in enumerate(a.elements)}
    pairs = list(combinations_with_replacement(a.elements, 2))
    rows = []
    for n, (x, y) in enumerate(pairs):
        for z, w in pairs[n + 1 :]:
            if x + y == z + w:
                row = [0] * k
                row[idx[x]] += 1
                row[idx[y]] += 1
                row[idx[z]] -= 1
                row[idx[w]] -= 1
                rows.append(row)
    return rows


class TestRankAndDim:
    def test_examples(self):
        assert relation_rank(IntSet((0, 1, 2, 4))).rank == 2
        assert additive_dim(IntSet((0, 1, 2, 4))) == 1
        assert relation_rank(IntSet((0, 1, 2, 5))).rank == 1
        assert additive_dim(IntSet((0, 1, 2, 5))) == 2

    def test_three_term_progression(self):
        assert additive_dim(IntSet((0, 1, 2))) == 1

    def test_sidon_set_has_full_dim(self):
        a = IntSet((0, 1, 3, 7))
        assert relation_rank(a).rank == 0
        assert additive_dim(a) == len(a) - 1

    def test_one_dimensional_predicate(self):
        assert is_one_dimensional(IntSet((0, 1, 2, 4)))
        assert not is_one_dimensional(IntSet((0, 1, 2, 5)))

    @given(normal_sets)
    def test_rank_matches_rational_elimination(self, a):
        assert relation_rank(a).rank == rational_rank(relation_rows(a))

    @given(normal_sets)
    def test_dim_identity(self, a):
        assert additive_dim(a) == len(a) - 1 - relation_rank(a).rank
        assert is_one_dimensional(a) == (additive_dim(a) == 1)


class TestExtensionCandidates:
    def test_examples(self):
        assert extension_candidates(IntSet((0, 1, 2))) == IntSet((3, 4))
        assert extension_candidates(IntSet((0, 2, 3, 4))) == IntSet((5, 6, 7, 8))

    @given(one_dim_sets)
    def test_candidates_preserve_dimension(self, a):
        cands = extension_candidates(a)
        for x in cands.elements:
            assert x > a.max
            assert is_one_dimensional(a.adjoin(x))
        # nothing 1-dimensional hides just beyond the candidate window
        top = cands.max
        for x in range(a.max + 1, top + 3):
            if x not in cands:
                assert not is_one_dimensional(a.adjoin(x))


def pool_from_the_definition(a: IntSet) -> tuple[tuple[int, int], ...]:
    """(y, |2(A ∪ {y})|) for the y of 2A - A outside the hull, ascending,
    the doubling from the pure doubling_size of the sorted union."""
    ys = sorted(y for y in difference_points(a) if not a.min <= y <= a.max)
    return tuple((y, pure.doubling_size(tuple(sorted(a.elements + (y,))))) for y in ys)


class TestOutOfHullPool:
    def test_examples(self):
        # 2A - A of {0, 1, 3} is [-3, 6]; 2A has 6 sums, and y adds
        # |A| + 1 = 4 less its overlap with 2A
        assert out_of_hull_pool(IntSet((0, 1, 3))) == (
            (-3, 9), (-2, 9), (-1, 8), (4, 9), (5, 9), (6, 9),
        )
        assert out_of_hull_pool(IntSet((-4, 2))) == ((-10, 5), (8, 5))
        assert out_of_hull_pool(IntSet((7,))) == ()
        for elems in [(0, 1, 3), (-4, 2), (7,), (0, 2, 3, 4)]:
            a = IntSet(elems)
            assert out_of_hull_pool(a) == pool_from_the_definition(a)

    @given(any_sets)
    def test_matches_the_definition(self, a):
        assert out_of_hull_pool(a) == pool_from_the_definition(a)

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_candidates_match_the_definition(self, k):
        for a in enumerate_normal_sets(k, 2 * k + 2):
            if is_one_dimensional(a):
                want = sorted(y for y in difference_points(a) if y > a.max)
                assert extension_candidates(a).elements == tuple(want), a


class TestFreimanIsomorphism:
    def test_mapping_example(self):
        m = f_isomorphism(IntSet((0, 1, 2, 4)), IntSet((0, 2, 3, 4)))
        assert m == {0: 4, 1: 3, 2: 2, 4: 0}

    def test_negative_example(self):
        # different doubling cannot be isomorphic
        a, b = IntSet((0, 1, 2, 3)), IntSet((0, 1, 2, 4))
        assert doubling(a) != doubling(b)
        assert f_isomorphism(a, b) is None
        assert not f_isomorphic(a, b)

    def test_mapping_preserves_quadruples(self):
        a, b = IntSet((0, 1, 2, 4)), IntSet((0, 2, 3, 4))
        m = f_isomorphism(a, b)
        es = a.elements
        for x in es:
            for y in es:
                for z in es:
                    for w in es:
                        assert (x + y == z + w) == (m[x] + m[y] == m[z] + m[w])

    def test_capacity(self):
        big = IntSet(range(FISO_CAP + 1))
        with pytest.raises(Exception):
            f_isomorphism(big, big)

    @given(normal_sets)
    def test_affine_images_are_isomorphic(self, a):
        assert f_isomorphic(a, a)
        assert f_isomorphic(a, reflexion(a))
        assert f_isomorphic(a, a.dilate(3).shift(-7))
