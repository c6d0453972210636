"""Pure-Python kernel: reference implementation of the hot primitives.

The compiled extension (_kernel.c) mirrors these functions exactly; either
one can serve the rest of the package. Keep the two in lockstep: the cross
tests enumerate small inputs and require identical output, including ordering.

Both walk a slice (the normal k-sets with maximum m) the same way:

- Levels. Level i holds the gcd, the element mask and the sumset mask of
  {0, m, e[1..i]}, with level 0 = {0, m}; a change at position j rebuilds
  the levels from j on, and each set adds only its last interior element to
  the level above it.
- Mirror half. The reflexion x -> m - x maps the slice onto itself and keeps
  gcd, doubling and relation rank, so sweep_slice and collect_slice walk only
  the interiors with e[1] + e[-2] <= m. collect_slice adds the mirror of each
  hit whose sum is < m (a sum of m has its mirror walked itself) and sorts
  each group, so its output stays in lexicographic order.
"""

from __future__ import annotations

import math
import operator

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


def normal_tuples(k: int, m: int, half: bool = False):
    """Every normal-form (gcd 1) k-tuple (0, *interior, m) with its doubling,
    interiors in lexicographic order: the one odometer of the pure kernel.
    With half, only the interiors with e[1] + e[-2] <= m."""
    r = k - 2
    if m - 1 < r:
        return
    e = list(range(r + 1))  # e[0] = 0 stands for the minimum
    gcds = [m] * r
    masks = [1 | 1 << m] * r
    sums = [1 | 1 << m | 1 << 2 * m] * r

    def limit(j: int) -> int:
        # the largest value position j may take
        if not half:
            return m - 1 - (r - j)
        if j == 1:
            return (m - r + 1) // 2
        return m - e[1] - (r - j)

    j = 1
    while True:
        for i in range(j, r):
            x = e[i]
            gcds[i] = math.gcd(gcds[i - 1], x)
            masks[i] = masks[i - 1] | 1 << x
            sums[i] = sums[i - 1] | masks[i] << x
        g, mask, prev = gcds[r - 1], masks[r - 1], sums[r - 1]
        prefix = tuple(e[:r])
        for x in range(e[r - 1] + 1, limit(r) + 1):
            if g == 1 or math.gcd(g, x) == 1:
                yield prefix + (x, m), (prev | (mask | 1 << x) << x).bit_count()
        j = r - 1
        while j >= 1 and e[j] == limit(j):
            j -= 1
        if j < 1:
            return
        e[j] += 1
        for i in range(j + 1, r):
            e[i] = e[i - 1] + 1


def sweep_slice(k: int, m: int, t_max: int) -> list[int]:
    """Doubling values T <= t_max realized by some normal-form (gcd 1)
    one-dimensional k-set with min 0 and max m. Sorted ascending."""
    if k < 3:
        raise ValueError("sweep_slice requires k >= 3")
    t_max = operator.index(t_max)
    realized: set[int] = set()
    for elems, t in normal_tuples(k, m, half=True):
        if t <= t_max and t not in realized and is_one_dimensional(elems):
            realized.add(t)
    return sorted(realized)


def collect_slice(k: int, m: int, ts) -> dict[int, list[tuple[int, ...]]]:
    """All normal-form one-dimensional k-sets with max m whose doubling is in
    ts, grouped by doubling, in lexicographic order."""
    if k < 3:
        raise ValueError("collect_slice requires k >= 3")
    wanted = set(ts)
    out: dict[int, list[tuple[int, ...]]] = {t: [] for t in sorted(wanted)}
    for elems, t in normal_tuples(k, m, half=True):
        if t in wanted and is_one_dimensional(elems):
            out[t].append(elems)
            if elems[1] + elems[-2] < m:
                out[t].append(tuple(m - x for x in reversed(elems)))
    for sets in out.values():
        sets.sort()
    return {t: sets for t, sets in out.items() if sets}
