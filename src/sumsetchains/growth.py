"""Growth operators: the two extremality-preserving extension maps and their
inverses.

adjoin_double_max sends A to A ∪ {2 max(A)}; dilate_adjoin_odd sends A to
2·A ∪ {x} for an odd x in the sumset 2A. Both raise the doubling by exactly
|A| and double the maximum, so they carry (k, T) extremal sets to (k+1, T+k)
extremal sets. Each also comes in a reflected flavor, giving four step
variants; factorize greedily peels steps off a set until it reaches a base
in the |2B| <= 3|B| - 4 regime. The steps run on normal tuples, wrapped in
IntSets only by the public functions.
"""

from __future__ import annotations

import enum
import functools
import math
from typing import NamedTuple

from . import kernel
from .errors import FactorizationFailed
from .intset import IntSet, doubling, mirror_tuple, normal_tuple, require_normal, sumset


class GrowthVariant(str, enum.Enum):
    EXTEND_RIGHT = "D"
    EXTEND_RIGHT_REFLECTED = "D-"
    DILATE_ADJOIN_ODD = "Dx"
    DILATE_ADJOIN_ODD_REFLECTED = "Dx-"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class GrowthStep(NamedTuple):
    variant: GrowthVariant
    x: int | None = None

    def as_dict(self) -> dict:
        return {"variant": self.variant.value, "x": self.x}


def _in_sumset(x: int, a: tuple[int, ...]) -> bool:
    return not set(a).isdisjoint(x - e for e in a)


def _dilate_adjoin_odd(a: tuple[int, ...], x: int) -> tuple[int, ...]:
    if len(a) < 2:
        raise ValueError("dilate_adjoin_odd requires |A| >= 2")
    if x % 2 == 0:
        raise ValueError(f"x must be odd, got {x}")
    if not _in_sumset(x, a):
        raise ValueError(f"x = {x} must lie in the sumset 2A")
    return tuple(sorted((*(2 * e for e in a), x)))


def adjoin_double_max(a: IntSet) -> IntSet:
    """A ∪ {2 max(A)}; needs normal form and |A| >= 2."""
    require_normal(a, "adjoin_double_max")
    return IntSet(_apply_step(GrowthStep(GrowthVariant.EXTEND_RIGHT), a.elements))


def odd_adjoin_candidates(a: IntSet) -> tuple[int, ...]:
    """Odd values x in 2A \\ A, the arguments that keep dilation extremal."""
    two_a = set(sumset(a, a).elements)
    return tuple(x for x in sorted(two_a - set(a.elements)) if x % 2)


def dilate_adjoin_odd(a: IntSet, x: int) -> IntSet:
    """2·A ∪ {x} for odd x in the sumset 2A; needs normal form, |A| >= 2.

    x may lie inside A itself (the result then contains both x and 2x);
    either way x is the only odd element of the result and the doubling
    grows by exactly |A|.
    """
    require_normal(a, "dilate_adjoin_odd")
    return IntSet(_dilate_adjoin_odd(a.elements, x))


def _apply_step(step: GrowthStep, base: tuple[int, ...]) -> tuple[int, ...]:
    """apply_step on a normal tuple."""
    v = step.variant
    if v in (GrowthVariant.EXTEND_RIGHT_REFLECTED, GrowthVariant.DILATE_ADJOIN_ODD_REFLECTED):
        base = mirror_tuple(base)
    if v in (GrowthVariant.EXTEND_RIGHT, GrowthVariant.EXTEND_RIGHT_REFLECTED):
        if len(base) < 2:
            raise ValueError("adjoin_double_max requires |A| >= 2")
        return base + (2 * base[-1],)
    if step.x is None:
        raise ValueError(f"variant {v.value} requires x")
    return _dilate_adjoin_odd(base, step.x)


def apply_step(step: GrowthStep, x_set: IntSet) -> IntSet:
    """Apply one growth step to the normal form of x_set."""
    return IntSet(_apply_step(step, normal_tuple(x_set.elements)[0]))


def _invert_step(y: tuple[int, ...]) -> list[tuple[GrowthStep, tuple[int, ...]]]:
    """invert_step on a normal tuple with |Y| >= 4."""
    out = []
    body = y[:-1]
    if y[-1] == 2 * body[-1]:
        # removing the doubled max cannot break gcd 1: any common divisor of
        # the rest divides the old second maximum, hence the removed element
        out.append((GrowthStep(GrowthVariant.EXTEND_RIGHT), body))
        out.append((GrowthStep(GrowthVariant.EXTEND_RIGHT_REFLECTED), mirror_tuple(body)))
    odds = [e for e in y if e % 2]
    if len(odds) == 1:
        x = odds[0]
        halved = tuple(e // 2 for e in y if e != x)
        # halved has min 0 and |Y| - 1 >= 3 elements; x may be one of them
        # (when 2x also lies in Y), and then lies in the sumset through x + 0
        if math.gcd(*halved) == 1 and _in_sumset(x, halved):
            out.append((GrowthStep(GrowthVariant.DILATE_ADJOIN_ODD, x), halved))
            out.append(
                (GrowthStep(GrowthVariant.DILATE_ADJOIN_ODD_REFLECTED, x), mirror_tuple(halved))
            )
    return out


def invert_step(y: IntSet) -> list[tuple[GrowthStep, IntSet]]:
    """All (step, X) with apply_step(step, X) == Y, for normal Y, |Y| >= 4.

    Ordered: right extension, reflected extension, odd dilation, reflected
    odd dilation.
    """
    require_normal(y, "invert_step")
    if len(y) < 4:
        raise ValueError("invert_step requires |Y| >= 4")
    return [(step, IntSet(x)) for step, x in _invert_step(y.elements)]


class Factorization(NamedTuple):
    """base plus steps whose replay is Freiman-isomorphic to the factored set.

    b_prime_case marks a base still above the 3k-4 threshold that becomes
    compliant after deleting one extreme element (the |B'| = |B| + 1 case).
    """

    base: IntSet
    steps: tuple[GrowthStep, ...]
    b_prime_case: bool = False

    def as_dict(self) -> dict:
        return {
            "base": list(self.base.elements),
            "steps": [s.as_dict() for s in self.steps],
            "b_prime_case": self.b_prime_case,
        }


def _below_threshold(a: tuple[int, ...]) -> bool:
    return kernel.doubling_size(a) <= 3 * len(a) - 4


def shrinks_into_threshold(a: IntSet) -> bool:
    """Does deleting min(A) or max(A) land, after normalizing, in the
    |2B| <= 3|B| - 4 regime?"""
    for drop in (a.min, a.max):
        rest = normal_tuple(a.remove(drop).elements)[0]
        if _below_threshold(rest):
            return True
    return False


_TWIN = {
    GrowthVariant.EXTEND_RIGHT: GrowthVariant.EXTEND_RIGHT_REFLECTED,
    GrowthVariant.EXTEND_RIGHT_REFLECTED: GrowthVariant.EXTEND_RIGHT,
    GrowthVariant.DILATE_ADJOIN_ODD: GrowthVariant.DILATE_ADJOIN_ODD_REFLECTED,
    GrowthVariant.DILATE_ADJOIN_ODD_REFLECTED: GrowthVariant.DILATE_ADJOIN_ODD,
}


@functools.cache
def _peel(x: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[GrowthStep, ...], bool, bool]:
    """factorize on a normal tuple x, which alone decides it, so each set is
    peeled once per process: (base, steps, b_prime_case, mirrored), mirrored
    when x's step was read off its mirror, which twins the step above x.
    Each step halves the maximum (< 2**61): it recurses at most 61 deep."""
    if len(x) == 3:
        return x, (), False, False
    below = _below_threshold(x)
    candidates, mirrored = _invert_step(x), False
    if below:
        candidates = [c for c in candidates if c[0].x is None]  # the extensions
    elif not candidates:
        candidates, mirrored = _invert_step(mirror_tuple(x)), True
    if not candidates:
        if below:
            return x, (), False, False
        stuck = IntSet(x)
        if shrinks_into_threshold(stuck):
            return x, (), True, False
        raise FactorizationFailed(
            f"stuck at {stuck.to_text()} with |2X| = {doubling(stuck)} > 3|X|-4"
        )
    step, pred = candidates[0]
    base, steps, flagged, twinned = _peel(pred)
    if twinned:
        step = GrowthStep(_TWIN[step.variant], step.x)
    return base, steps + (step,), flagged, mirrored


def factorize(a: IntSet) -> Factorization:
    """Greedy inversion down to a small-doubling base; needs |A| >= 3.

    Extension steps are peeled whenever available; odd-dilation steps only
    while the current set sits above the 3k-4 threshold. Above the threshold,
    when the literal orientation admits no inversion the mirror image is
    tried: replay then rebuilds the mirror, so the step just above switches
    to its reflected twin (or, at the top, the result is the mirror of the
    input, still Freiman-isomorphic to it). Termination: at a 3-element set,
    or at a set at or below the threshold with no extension to peel, or
    (flagged) at a stuck set that reaches the threshold by deleting one
    extreme element. The peel runs on normal tuples and is memoized per set
    (_peel).
    """
    if len(a) < 3:
        raise ValueError("factorize requires |A| >= 3")
    base, steps, flagged, _ = _peel(normal_tuple(a.elements)[0])
    return Factorization(base=IntSet(base), steps=steps, b_prime_case=flagged)


def replay(f: Factorization) -> IntSet:
    """Apply the recorded steps to the base, first step first."""
    x = f.base.elements
    for step in f.steps:
        x = _apply_step(step, normal_tuple(x)[0])
    return IntSet(x)
