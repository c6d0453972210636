"""Additive dimension via the rank of relation vectors.

To each relation a_i + a_j = a_r + a_s among elements of A associate the
vector e_i + e_j - e_r - e_s in Z^k. The rank of all such vectors is at most
k - 2 (every vector is orthogonal to both (1,...,1) and (a_0,...,a_{k-1})),
and the additive dimension of A is k - 1 - rank. Dimension 1 means the rank
is exactly k - 2.
"""

from __future__ import annotations

from typing import NamedTuple

from . import kernel
from .errors import CapacityError
from .intset import IntSet, normalize, require_normal

FISO_CAP = 10


class RelationBasis(NamedTuple):
    """The rank of the span of all equal-sum quadruples of A."""

    k: int
    rank: int


def relation_rank(a: IntSet) -> RelationBasis:
    if len(a) < 2:
        raise ValueError("relation_rank requires |A| >= 2")
    return RelationBasis(k=len(a), rank=kernel.lambda_rank(a.elements))


def additive_dim(a: IntSet) -> int:
    """k - 1 - rank of the relation vectors; 1 for progressions, k - 1 for
    Sidon sets."""
    if len(a) < 2:
        raise ValueError("additive_dim requires |A| >= 2")
    return len(a) - 1 - relation_rank(a).rank


def is_one_dimensional(a: IntSet) -> bool:
    return kernel.is_one_dimensional(a.elements)


def out_of_hull_pool(a: IntSet) -> tuple[tuple[int, int], ...]:
    """(y, |2(A ∪ {y})|) for every y in 2A - A outside [min A, max A],
    ascending in y: kernel.right_extensions of A, and of its mirror
    x -> min A + max A - x for the ys below min A.

    These are the only single-element extensions beyond the hull that can
    keep a one-dimensional set one-dimensional: an element outside 2A - A
    contributes |A| + 1 fresh sums, which leaves the relation rank unchanged
    and forces dimension 2.
    """
    turn = a.min + a.max
    below = kernel.right_extensions(turn - e for e in reversed(a.elements))
    return tuple((turn - x, tx) for x, tx, _ in reversed(below)) + tuple(
        (x, tx) for x, tx, _ in kernel.right_extensions(a.elements)
    )


def extension_candidates(a: IntSet) -> IntSet:
    """Elements x > max(A) with A ∪ {x} still one-dimensional.

    For one-dimensional normal A these are exactly the points of 2A - A
    beyond max(A); they never exceed 2 max(A).
    """
    require_normal(a, "extension_candidates")
    if not is_one_dimensional(a):
        raise ValueError("extension_candidates requires a one-dimensional set")
    return IntSet(x for x, _, _ in kernel.right_extensions(a.elements))


def _compatible(a: tuple[int, ...], b: tuple[int, ...], images: list[int], n: int) -> bool:
    # after placing position n, verify every quadruple involving n
    for p in range(n + 1):
        sa = a[p] + a[n]
        sb = b[images[p]] + b[images[n]]
        for r in range(n + 1):
            for s in range(r, n + 1):
                if (a[r] + a[s] == sa) != (b[images[r]] + b[images[s]] == sb):
                    return False
    return True


def f_isomorphism(a: IntSet, b: IntSet) -> dict[int, int] | None:
    """A bijection A -> B preserving x + y = z + t in both directions,
    or None. Backtracking over partial maps; |A| <= 10."""
    if len(a) != len(b):
        return None
    k = len(a)
    if k > FISO_CAP:
        raise CapacityError(f"isomorphism search capped at |A| <= {FISO_CAP}, got {k}")
    an, ashift, ascale = normalize(a)
    bn, bshift, bscale = normalize(b)
    if kernel.doubling_size(an.elements) != kernel.doubling_size(bn.elements):
        return None
    ae, be = an.elements, bn.elements

    def translate(images: list[int]) -> dict[int, int]:
        return {
            ascale * ae[i] + ashift: bscale * be[images[i]] + bshift for i in range(k)
        }

    if ae == be:
        return translate(list(range(k)))

    images: list[int] = []
    used = [False] * k

    def place(n: int) -> bool:
        if n == k:
            return True
        for cand in range(k):
            if used[cand]:
                continue
            images.append(cand)
            used[cand] = True
            if _compatible(ae, be, images, n) and place(n + 1):
                return True
            used[cand] = False
            images.pop()
        return False

    if place(0):
        return translate(images)
    return None


def f_isomorphic(a: IntSet, b: IntSet) -> bool:
    return f_isomorphism(a, b) is not None
