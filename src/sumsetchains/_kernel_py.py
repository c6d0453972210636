"""Pure-Python kernel: reference implementation of the hot primitives.

The compiled extension (_kernel.c) mirrors these functions exactly; either
one can serve the rest of the package. Keep the two in lockstep: the cross
tests enumerate small inputs and require identical output, including ordering.
"""

from __future__ import annotations

import math
import operator
from itertools import combinations

BACKEND = "python"


def doubling_size(elements: tuple[int, ...]) -> int:
    """|A + A| for a sorted tuple of distinct ints."""
    base = elements[0]
    amask = 0
    for e in elements:
        amask |= 1 << (e - base)
    acc = 0
    for e in elements:
        acc |= amask << (e - base)
    return acc.bit_count()


def _generator_rows(elements: tuple[int, ...]) -> list[list[int]]:
    # Pair sums grouped by value; consecutive pairs inside a group span the
    # same vector space as all equal-sum quadruples.
    k = len(elements)
    by_sum: dict[int, tuple[int, int]] = {}
    rows: list[list[int]] = []
    for i in range(k):
        for j in range(i, k):
            s = elements[i] + elements[j]
            prev = by_sum.get(s)
            if prev is not None:
                row = [0] * k
                row[prev[0]] += 1
                row[prev[1]] += 1
                row[i] -= 1
                row[j] -= 1
                rows.append(row)
            by_sum[s] = (i, j)
    return rows


def rank_of_rows(rows: list[list[int]], width: int, cap: int) -> int:
    """Rank over Q of integer rows, fraction-free (Bareiss), early exit at cap."""
    if not rows:
        return 0
    rows = [list(r) for r in rows]
    n = len(rows)
    rank = 0
    prev = 1
    for col in range(width):
        pivot_row = None
        for r in range(rank, n):
            if rows[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        p = rows[rank][col]
        for r in range(rank + 1, n):
            f = rows[r][col]
            if f:
                rr = rows[r]
                pr = rows[rank]
                for c in range(col + 1, width):
                    rr[c] = (rr[c] * p - pr[c] * f) // prev
                rr[col] = 0
            elif p != 1 or prev != 1:
                rr = rows[r]
                for c in range(col + 1, width):
                    rr[c] = (rr[c] * p) // prev
        prev = p
        rank += 1
        if rank >= cap:
            return rank
    return rank


def lambda_rank(elements: tuple[int, ...]) -> int:
    """Rank of the additive-relation vectors of A (at most |A| - 2)."""
    elements = tuple(map(operator.index, elements))
    k = len(elements)
    return rank_of_rows(_generator_rows(elements), k, k - 2)


def is_one_dimensional(elements: tuple[int, ...]) -> bool:
    k = len(elements)
    if k < 2:
        return False
    if k == 2:
        return True
    return lambda_rank(elements) == k - 2


def normal_tuples(k: int, m: int):
    """Every normal-form (gcd 1) k-tuple (0, *interior, m), interiors in
    lexicographic order: the one odometer of the pure kernel."""
    for interior in combinations(range(1, m), k - 2):
        g = m
        for e in interior:
            g = math.gcd(g, e)
            if g == 1:
                break
        if g == 1:
            yield (0, *interior, m)


def sweep_slice(k: int, m: int, t_max: int) -> list[int]:
    """Doubling values T <= t_max realized by some normal-form (gcd 1)
    one-dimensional k-set with min 0 and max m. Sorted ascending."""
    if k < 3:
        raise ValueError("sweep_slice requires k >= 3")
    t_max = operator.index(t_max)
    realized: set[int] = set()
    for elems in normal_tuples(k, m):
        t = doubling_size(elems)
        if t > t_max or t in realized:
            continue
        if is_one_dimensional(elems):
            realized.add(t)
    return sorted(realized)


def collect_slice(k: int, m: int, ts) -> dict[int, list[tuple[int, ...]]]:
    """All normal-form one-dimensional k-sets with max m whose doubling is in
    ts, grouped by doubling, in lexicographic order."""
    if k < 3:
        raise ValueError("collect_slice requires k >= 3")
    wanted = set(ts)
    out: dict[int, list[tuple[int, ...]]] = {t: [] for t in sorted(wanted)}
    for elems in normal_tuples(k, m):
        t = doubling_size(elems)
        if t in wanted and is_one_dimensional(elems):
            out[t].append(elems)
    return {t: sets for t, sets in out.items() if sets}
