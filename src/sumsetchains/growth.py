"""Growth operators: the two extremality-preserving extension maps and their
inverses.

adjoin_double_max sends A to A ∪ {2 max(A)}; dilate_adjoin_odd sends A to
2·A ∪ {x} for an odd x in the sumset 2A. Both raise the doubling by exactly
|A| and double the maximum, so they carry (k, T) extremal sets to (k+1, T+k)
extremal sets. Each also comes in a reflected flavor, giving four step
variants; factorize greedily peels steps off a set until it reaches a base
in the |2B| <= 3|B| - 4 regime.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .errors import FactorizationFailed
from .intset import (
    IntSet,
    doubling,
    is_normal,
    normalize,
    reflexion,
    require_normal,
    sumset,
)


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


def adjoin_double_max(a: IntSet) -> IntSet:
    """A ∪ {2 max(A)}; needs normal form and |A| >= 2."""
    require_normal(a, "adjoin_double_max")
    if len(a) < 2:
        raise ValueError("adjoin_double_max requires |A| >= 2")
    return a.adjoin(2 * a.max)


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
    if len(a) < 2:
        raise ValueError("dilate_adjoin_odd requires |A| >= 2")
    if x % 2 == 0:
        raise ValueError(f"x must be odd, got {x}")
    if x not in sumset(a, a):
        raise ValueError(f"x = {x} must lie in the sumset 2A")
    return a.dilate(2).adjoin(x)


def apply_step(step: GrowthStep, x_set: IntSet) -> IntSet:
    """Apply one growth step to the normal form of x_set."""
    base, _, _ = normalize(x_set)
    v = step.variant
    if v is GrowthVariant.EXTEND_RIGHT:
        return adjoin_double_max(base)
    if v is GrowthVariant.EXTEND_RIGHT_REFLECTED:
        return adjoin_double_max(reflexion(base))
    if step.x is None:
        raise ValueError(f"variant {v.value} requires x")
    if v is GrowthVariant.DILATE_ADJOIN_ODD:
        return dilate_adjoin_odd(base, step.x)
    return dilate_adjoin_odd(reflexion(base), step.x)


def invert_step(y: IntSet) -> list[tuple[GrowthStep, IntSet]]:
    """All (step, X) with apply_step(step, X) == Y, for normal Y, |Y| >= 4.

    Ordered: right extension, reflected extension, odd dilation, reflected
    odd dilation.
    """
    require_normal(y, "invert_step")
    if len(y) < 4:
        raise ValueError("invert_step requires |Y| >= 4")
    out: list[tuple[GrowthStep, IntSet]] = []
    body = y.elements[:-1]
    if y.max == 2 * body[-1]:
        w = IntSet(body)
        # removing the doubled max cannot break gcd 1: any common divisor of
        # the rest divides the old second maximum, hence the removed element
        out.append((GrowthStep(GrowthVariant.EXTEND_RIGHT), w))
        out.append((GrowthStep(GrowthVariant.EXTEND_RIGHT_REFLECTED), reflexion(w)))
    odds = [e for e in y.elements if e % 2]
    if len(odds) == 1:
        x = odds[0]
        halved = IntSet(e // 2 for e in y.elements if e != x)
        # x may be an element of halved (when 2x also lies in Y); it still
        # lies in the sumset through x + 0, so only the sumset test gates
        if is_normal(halved) and len(halved) >= 2 and x in sumset(halved, halved):
            out.append((GrowthStep(GrowthVariant.DILATE_ADJOIN_ODD, x), halved))
            out.append(
                (GrowthStep(GrowthVariant.DILATE_ADJOIN_ODD_REFLECTED, x), reflexion(halved))
            )
    return out


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


def _below_threshold(a: IntSet) -> bool:
    return doubling(a) <= 3 * len(a) - 4


def shrinks_into_threshold(a: IntSet) -> bool:
    """Does deleting min(A) or max(A) land, after normalizing, in the
    |2B| <= 3|B| - 4 regime?"""
    for drop in (a.min, a.max):
        rest = normalize(a.remove(drop))[0]
        if _below_threshold(rest):
            return True
    return False


_TWIN = {
    GrowthVariant.EXTEND_RIGHT: GrowthVariant.EXTEND_RIGHT_REFLECTED,
    GrowthVariant.EXTEND_RIGHT_REFLECTED: GrowthVariant.EXTEND_RIGHT,
    GrowthVariant.DILATE_ADJOIN_ODD: GrowthVariant.DILATE_ADJOIN_ODD_REFLECTED,
    GrowthVariant.DILATE_ADJOIN_ODD_REFLECTED: GrowthVariant.DILATE_ADJOIN_ODD,
}


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
    extreme element.
    """
    if len(a) < 3:
        raise ValueError("factorize requires |A| >= 3")
    x, _, _ = normalize(a)
    steps: list[GrowthStep] = []
    while True:
        if len(x) == 3:
            break
        below = _below_threshold(x)
        candidates = invert_step(x)
        if below:
            candidates = [
                (s, pred)
                for s, pred in candidates
                if s.variant
                in (GrowthVariant.EXTEND_RIGHT, GrowthVariant.EXTEND_RIGHT_REFLECTED)
            ]
        elif not candidates:
            candidates = invert_step(reflexion(x))
            if candidates and steps:
                head = steps[0]
                steps[0] = GrowthStep(_TWIN[head.variant], head.x)
        if not candidates:
            if below:
                break
            if shrinks_into_threshold(x):
                return Factorization(base=x, steps=tuple(steps), b_prime_case=True)
            raise FactorizationFailed(
                f"stuck at {x.to_text()} with |2X| = {doubling(x)} > 3|X|-4"
            )
        step, x = candidates[0]
        steps.insert(0, step)
    return Factorization(base=x, steps=tuple(steps))


def replay(f: Factorization) -> IntSet:
    """Apply the recorded steps to the base, first step first."""
    x = f.base
    for step in f.steps:
        x = apply_step(step, x)
    return x
