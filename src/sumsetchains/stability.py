"""Stable sets and the stable/segment/right-stable decomposition.

A set with min 0 is stable when it is a union of progressions with common
difference a1, its least positive element, each running past max - a1, and
neither 1 nor max - 1 belongs to A; {0} is stable by convention. Equivalently:
adding a1 to any element lands back in A or beyond max. Right-stable means
the reflexion is stable. Sets with doubling at most 3k - 4 and maximal hull
split uniquely as stable ∘ segment ∘ right-stable, and their doubling splits
the same way with a longer segment.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DecompositionNotUnique, NotDecomposable
from .intset import (
    IntSet,
    concat,
    doubling,
    mirror_tuple,
    require_min_zero,
    require_normal,
    sumset,
)


def _is_stable(elems: tuple[int, ...]) -> bool:
    """is_stable on an ascending tuple with min 0."""
    present, top = set(elems), elems[-1]
    step = elems[1] if len(elems) > 1 else 1  # {0} passes every test
    return 1 not in present and top - 1 not in present and all(
        e + step in present for e in elems if e + step <= top
    )


def is_stable(a: IntSet) -> bool:
    require_min_zero(a, "is_stable")
    return _is_stable(a.elements)


def is_right_stable(a: IntSet) -> bool:
    require_min_zero(a, "is_right_stable")
    return _is_stable(mirror_tuple(a.elements))


class DensityCheck(NamedTuple):
    """Truthy iff the prefix bound |A ∩ [0,x]| <= ceil((x+1)/2) held for
    every x; dense reports |A| = ceil((max+1)/2)."""

    holds: bool
    dense: bool

    def __bool__(self) -> bool:
        return self.holds


def density_bound_check(a: IntSet) -> DensityCheck:
    if not is_stable(a):
        raise ValueError(f"density_bound_check requires a stable set, got {a.to_text()}")
    count = 0
    present = set(a.elements)
    holds = True
    for x in range(a.max + 1):
        if x in present:
            count += 1
        if count > (x + 2) // 2:
            holds = False
            break
    dense = len(a) == (a.max + 2) // 2
    return DensityCheck(holds=holds, dense=dense)


class StableDecomposition(NamedTuple):
    """A = A1 ∘ P ∘ A2 with A1 stable, P a segment of p_len points starting
    at max(A1), and A2 right-stable."""

    a1: IntSet
    p_len: int
    a2: IntSet

    @property
    def a1_max(self) -> int:
        return self.a1.max

    @property
    def a2_max(self) -> int:
        return self.a2.max

    def reassemble(self) -> IntSet:
        return concat(concat(self.a1, IntSet.segment(self.p_len)), self.a2)


def _candidate_splits(a: IntSet) -> list[StableDecomposition]:
    # Each split reassembles to A by construction: u is an element and v
    # steps from u only through consecutive elements, so A ∩ [0, u], the run
    # [u, v] and A ∩ [v, max A] (right-stable when max A minus it is stable,
    # tested as a tuple) glue back to A.
    elems = a.elements
    out = []
    for i, u in enumerate(elems):
        if not _is_stable(elems[: i + 1]):
            continue
        for j in range(i, len(elems)):
            v = elems[j]
            if v - u != j - i:  # the run from u has ended
                break
            if _is_stable(mirror_tuple(elems[j:])):
                a2 = IntSet(e - v for e in elems[j:])
                out.append(StableDecomposition(IntSet(elems[: i + 1]), v - u + 1, a2))
    return out


def stable_decompose(a: IntSet) -> StableDecomposition:
    """The unique split of a normal set with |2A| <= 3|A| - 4.

    Scans every stable prefix against every right-stable suffix joined by a
    run of consecutive elements. No valid split raises NotDecomposable
    (the set is not extremal for its doubling); more than one is an
    invariant violation and raises DecompositionNotUnique.
    """
    require_normal(a, "stable_decompose")
    t = doubling(a)
    cap = 3 * len(a) - 4
    if t > cap:
        raise ValueError(f"stable_decompose requires |2A| <= 3|A|-4 = {cap}, got {t}")
    splits = _candidate_splits(a)
    if not splits:
        raise NotDecomposable(a.to_text())
    if len(splits) > 1:
        raise DecompositionNotUnique(splits)
    return splits[0]


def stable_split(a: IntSet, t: int) -> StableDecomposition | None:
    """The stable decomposition of a normal set a with doubling t, or None
    when t > 3|A| - 4 or a has no split or more than one: stable_decompose
    without its checks and exceptions, for a caller that knows |2A|."""
    if t > 3 * len(a) - 4:
        return None
    splits = _candidate_splits(a)
    return splits[0] if len(splits) == 1 else None


def doubled_decomposition_length(a: IntSet, dec: StableDecomposition) -> int | None:
    """If 2A = A1 ∘ P' ∘ A2 for the parts of dec, the length of P', else None.

    The candidate length is forced by the hulls: |P'| = 2 max(A) + 1
    - max(A1) - max(A2).
    """
    two_a = sumset(a, a)
    p_prime = 2 * a.max + 1 - dec.a1_max - dec.a2_max
    if p_prime < 1:
        return None
    candidate = concat(concat(dec.a1, IntSet.segment(p_prime)), dec.a2)
    return p_prime if candidate == two_a else None
