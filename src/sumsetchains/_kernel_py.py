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
  gcd, doubling and relation rank, so census_slice walks only the interiors
  with e[1] + e[-2] <= m. A hit whose sum is < m also stands for its mirror
  (a sum of m has its mirror walked itself), and each group of listed sets
  is sorted, so its output stays in lexicographic order.

right_extensions lists, for one set, every x > max A in 2A - A with the
doubling of A ∪ {x} and the overlap |2A ∩ (x + A)|. census_slice takes the
same triples inside the walk, for each hit and its mirror off one pool, and
returns per doubling the counts of sets and pairs and the few sets the
extension sweep and the oracle read: the table the sweep keeps. It is the
one slice walk: a listing of -1 lists every set, and sweep_slice reads
only the doublings.

chain_children serves the chain levels one call per parent: for a normal
set A, the canonical form and doubling of A ∪ {y} for every y in 2A - A
outside the hull, kept when the doubling t is at most t_max and its top is
at least floors[t] (a level's running maximum) where floors lists t. It
runs no rank test: the chain levels grow from {0, 1, 2}, and every such child of a
one-dimensional A is one-dimensional. y in 2A - A gives a relation
y + a = b + c with y-coefficient 1, independent of A's relations, whose
y-coefficient is 0; so rank(A ∪ {y}) >= (|A| - 2) + 1 = |A ∪ {y}| - 2, the
most a rank can be.

The five set primitives (doubling_size, lambda_rank, is_one_dimensional,
right_extensions, chain_children) take a set, a nonempty, strictly ascending
iterable of ints, which _read_set reads with the compiled twin's errors.
census_slice reads each hit through _read_masks, so through that check too.

doubling_size, right_extensions and chain_children read their set through
_read_masks, which also builds the masks of A and 2A, as read_masks does in
the compiled twin; there it checks the one span limit, 2**20, and sizes
the masks for every read the three make. The pool comes off the masks:
right_extensions and chain_children read the points y of 2A - A off one
mask, 2A shifted by max A - a and ORed over a in A, visiting only its set
bits outside the hull, so for a given |A| their cost is linear in the span,
as in the compiled twin (pool_mask).
y + A meets 2A in the overlap, and 2y is a new sum, so
|2(A ∪ {y})| = |2A| + |A| + 1 - overlap, with no recount.
"""

from __future__ import annotations

import math
import operator

BACKEND = "python"


def _read_set(elements, what: str) -> tuple[int, ...]:
    """elements, a set, as a tuple of ints read through operator.index:
    TypeError for a non-integer, IndexError when empty, ValueError when not
    strictly ascending."""
    elements = tuple(map(operator.index, elements))
    if not elements:
        raise IndexError(f"{what} of an empty sequence")
    if any(b <= a for a, b in zip(elements, elements[1:])):
        raise ValueError(f"{what} takes strictly ascending elements")
    return elements


# The widest span _read_masks takes. Its masks are ints as wide as the span:
# at 2**24 chain_children((0, 1, 2**24), 100) takes about 0.2 s, and a span
# of 2**60 would exhaust memory, so a wider set is refused before any mask
# is built.
MAX_MASK_SPAN = 1 << 24


def _read_masks(elements, what: str, normal: bool = False) -> tuple[tuple[int, ...], int, int]:
    """elements, a set read by _read_set, with the masks of A and 2A, bit i
    standing for elements[0] + i. Before any mask is built, a set that is
    not normal (min 0, gcd 1) raises ValueError when normal is set, and so
    does a span past MAX_MASK_SPAN."""
    elements = _read_set(elements, what)
    if normal and (elements[0] != 0 or (len(elements) > 1 and math.gcd(*elements) != 1)):
        raise ValueError(f"{what} takes a normal set (min 0, gcd 1)")
    if elements[-1] - elements[0] > MAX_MASK_SPAN:
        raise ValueError(f"{what} takes spans <= 2**24")
    base = elements[0]
    amask = 0
    for e in elements:
        amask |= 1 << (e - base)
    two = 0
    for e in elements:
        two |= amask << (e - base)
    return elements, amask, two


def doubling_size(elements: tuple[int, ...]) -> int:
    """|A + A| for a set A."""
    return _read_masks(elements, "doubling_size")[2].bit_count()


def _difference_mask(elements: tuple[int, ...], two: int) -> int:
    """The mask of 2A - A for a set A and the mask two of 2A, bit
    span + y - min A standing for y: two shifted by max A - a, ORed over
    a in A."""
    mask = 0
    for e in elements:
        mask |= two << (elements[-1] - e)
    return mask


def _set_bits(mask: int, lo: int = 0):
    """The indices at lo and above of the set bits of mask, ascending."""
    mask >>= lo
    while mask:
        low = mask & -mask
        yield lo + low.bit_length() - 1
        mask ^= low


def right_extensions(elements: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """(x, |2(A ∪ {x})|, |2A ∩ (x + A)|) for every x > max A in 2A - A,
    ascending in x, for a set A.

    x + A meets 2A in the overlap, and x adds |A| + 1 - overlap sums to 2A."""
    elements, amask, two = _read_masks(elements, "right_extensions")
    base = elements[0]
    span = elements[-1] - base
    fresh = two.bit_count() + len(elements) + 1
    out = []
    for j in _set_bits(_difference_mask(elements, two), 2 * span + 1):
        overlap = (two & (amask << (j - span))).bit_count()
        out.append((base + j - span, fresh - overlap, overlap))
    return out


def chain_children(
    elements: tuple[int, ...], t_max: int, floors=()
) -> list[tuple[tuple[int, ...], int]]:
    """(canon, |2 canon|) for every y in 2A - A outside [0, max A], ascending
    in y, for a normal set A (min 0, gcd 1; {0} counts):
    canon is the lexicographically larger of the normal form of A ∪ {y} and
    its reflexion, kept when t = |2 canon| <= t_max and, where floors (an
    iterable of ints) lists a t, max canon >= floors[t]. No rank tests.

    As A is normal, the normal form of A ∪ {y} is A + (y,) for y > max A and
    A shifted by -y for y < 0, and its top is max(y, max A - y). t_max, then
    floors (whole, then entry by entry), are read first, as in the compiled twin."""
    t_max = operator.index(t_max)
    floors = tuple(map(operator.index, tuple(floors)))
    elements, amask, two = _read_masks(elements, "chain_children", normal=True)
    span = elements[-1]
    fresh = two.bit_count() + len(elements) + 1
    hull = ((1 << span + 1) - 1) << span  # bits span + y for y in [0, span]
    wide = two << span  # bit span + s stands for the sum s
    out = []
    for j in _set_bits(_difference_mask(elements, two) & ~hull):
        t = fresh - (wide & (amask << j)).bit_count()
        y = j - span
        if t <= t_max and (t >= len(floors) or max(y, span - y) >= floors[t]):
            child = elements + (y,) if y > 0 else (0, *(e - y for e in elements))
            refl = tuple(child[-1] - e for e in reversed(child))
            out.append((refl if refl > child else child, t))
    return out


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
    """Rank over Q of integer rows, fraction-free (Bareiss), early exit at cap.

    The reference for the compiled twin, which computes the same capped rank
    of the relation rows over F_p, p = 2**31 - 1 (see _kernel.c)."""
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


def _relation_rank(elements: tuple[int, ...]) -> int:
    k = len(elements)
    return rank_of_rows(_generator_rows(elements), k, k - 2)


def lambda_rank(elements: tuple[int, ...]) -> int:
    """Rank of the additive-relation vectors of a set A (at most |A| - 2)."""
    return _relation_rank(_read_set(elements, "lambda_rank"))


def is_one_dimensional(elements: tuple[int, ...]) -> bool:
    """Whether a set A has rank |A| - 2: every 2-set, no 1-set, as neither
    has a relation."""
    elements = _read_set(elements, "is_one_dimensional")
    return _relation_rank(elements) == len(elements) - 2


def normal_tuples(k: int, m: int):
    """The normal-form (gcd 1) k-tuples (0, *interior, m) with
    e[1] + e[-2] <= m, each with its doubling, interiors in lexicographic
    order: the one odometer of the pure kernel, the mirror half of the slice."""
    r = k - 2
    if m - 1 < r:
        return
    e = list(range(r + 1))  # e[0] = 0 stands for the minimum
    gcds = [m] * r
    masks = [1 | 1 << m] * r
    sums = [1 | 1 << m | 1 << 2 * m] * r

    def limit(j: int) -> int:
        # the largest value position j may take
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


def census_slice(k: int, m: int, listing: dict) -> dict[int, tuple[int, int, list[tuple[int, ...]]]]:
    """The extension census of the normal-form one-dimensional k-sets with
    max m whose doubling t keys listing, as {t: (sets, pairs, listed)} in
    ascending t: the number of sets, the number of their right extensions
    (the triples right_extensions lists), and in lexicographic order the sets
    with an extension whose overlap o has bit o set in listing[t] or lies
    outside 0..k + 1. Every set has the extension 2 max A, so a mask of -1
    lists every set.

    Each hit of the half walk reads one pool of 2A - A: its points above the
    hull are A's right extensions, and, when the mirror A' = m - A is not
    walked itself, its points y < 0 are the mirror's, m - y, with the same
    overlap |2A ∩ (y + A)|, as 2A' - A' = m - (2A - A) and the reflexion maps
    2A ∩ (y + A) onto 2A' ∩ (m - y + A')."""
    k, m = operator.index(k), operator.index(m)
    if k < 3:
        raise ValueError("census_slice requires k >= 3")
    if not isinstance(listing, dict):
        raise TypeError("census_slice takes a dict {doubling: overlap mask}")
    listing = {
        operator.index(t): operator.index(mask) | -(1 << k + 2)
        for t, mask in listing.items()
    }
    found: dict[int, list] = {}
    for elems, t in normal_tuples(k, m):
        if t not in listing or _relation_rank(elems) != k - 2:
            continue
        _, amask, two = _read_masks(elems, "census_slice")
        pool = _difference_mask(elems, two)
        wide = two << m  # bit m + s stands for the sum s; pool bit j for y = j - m
        sides = [(elems, pool >> 2 * m + 1 << 2 * m + 1)]
        if elems[1] + elems[-2] < m:
            sides.append((tuple(m - x for x in reversed(elems)), pool & (1 << m) - 1))
        census = found.setdefault(t, [0, 0, []])
        for a, points in sides:
            overlaps = [(wide & amask << j).bit_count() for j in _set_bits(points)]
            census[0] += 1
            census[1] += len(overlaps)
            if any(listing[t] >> o & 1 for o in overlaps):
                census[2].append(a)
    return {t: (sets, pairs, sorted(listed)) for t, (sets, pairs, listed) in sorted(found.items())}


def sweep_slice(k: int, m: int, t_max: int) -> list[int]:
    """The doublings <= t_max of census_slice(k, m, ...), ascending: the
    benchmark probe's entry, which goes when the probe calls census_slice
    (ROADMAP item 1). No doubling of a k-set exceeds C(k + 1, 2)."""
    k, m, t_max = map(operator.index, (k, m, t_max))
    if k < 3:  # checked here, so the error names sweep_slice as the compiled twin's does
        raise ValueError("sweep_slice requires k >= 3")
    return list(census_slice(k, m, dict.fromkeys(range(min(t_max, k * (k + 1) // 2) + 1), 0)))
