"""Finite sets of integers and their sumsets.

The one value type of the package. An :class:`IntSet` is an immutable,
sorted tuple of distinct integers. Sumsets and difference sets are read off
the |A|·|B| pair sums, so their cost does not grow with the span; |2A| and
the out-of-hull extensions come from the kernel, which reads them off
bitmasks of A and 2A.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Iterator

from . import kernel

# Elements are kept well inside int64 so doubled values stay representable
# in the compiled kernel.
MAX_ABS_ELEMENT = 1 << 60


class IntSet:
    """Immutable finite set of integers, kept sorted."""

    __slots__ = ("elements",)

    elements: tuple[int, ...]

    def __init__(self, elements: Iterable[int]):
        # operator.index rejects floats and strings and turns bools and other
        # int subclasses into plain ints
        elems = tuple(sorted(set(map(operator.index, elements))))
        if not elems:
            raise ValueError("empty set is not allowed")
        for e in (elems[0], elems[-1]):
            if abs(e) > MAX_ABS_ELEMENT:
                raise ValueError(
                    f"element {e} out of range: |e| must be <= 2**60 so that "
                    "doubled values stay machine-representable"
                )
        object.__setattr__(self, "elements", elems)

    def __setattr__(self, name, value):
        raise AttributeError("IntSet is immutable")

    # ------------------------------------------------------------------
    # basic protocol

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __contains__(self, x: object) -> bool:
        return x in self.elements

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntSet):
            return self.elements == other.elements
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.elements)

    def __repr__(self) -> str:
        return f"IntSet({{{', '.join(map(str, self.elements))}}})"

    # ------------------------------------------------------------------
    # geometry

    @property
    def min(self) -> int:
        return self.elements[0]

    @property
    def max(self) -> int:
        return self.elements[-1]

    @property
    def length(self) -> int:
        """Hull length: max - min + 1."""
        return self.max - self.min + 1

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def from_text(cls, text: str) -> "IntSet":
        """Parse a set literal like "{0, 2, 3, 6}" (braces optional)."""
        body = text.strip()
        if body.startswith("{") and body.endswith("}"):
            body = body[1:-1]
        elif body.startswith("{") or body.endswith("}"):
            raise ValueError(f"unbalanced braces in set literal: {text!r}")
        parts = [p.strip() for p in body.split(",") if p.strip()]
        if not parts:
            raise ValueError(f"empty set literal: {text!r}")
        try:
            return cls(int(p) for p in parts)
        except ValueError as exc:
            raise ValueError(f"bad set literal {text!r}: {exc}") from None

    def to_text(self) -> str:
        return "{" + ",".join(map(str, self.elements)) + "}"

    @classmethod
    def segment(cls, length: int) -> "IntSet":
        """The segment {0, 1, ..., length-1}."""
        if length < 1:
            raise ValueError("segment length must be >= 1")
        return cls(range(length))

    # ------------------------------------------------------------------
    # affine maps

    def shift(self, c: int) -> "IntSet":
        return IntSet(e + c for e in self.elements)

    def dilate(self, c: int) -> "IntSet":
        if c == 0:
            raise ValueError("dilation factor must be nonzero")
        return IntSet(c * e for e in self.elements)

    def adjoin(self, x: int) -> "IntSet":
        if x in self:
            raise ValueError(f"{x} is already in the set")
        return IntSet(self.elements + (x,))

    def remove(self, x: int) -> "IntSet":
        if x not in self:
            raise ValueError(f"{x} is not in the set")
        if len(self) == 1:
            raise ValueError("cannot remove the only element")
        return IntSet(e for e in self.elements if e != x)


def _pair_sums(xs: tuple[int, ...], ys: tuple[int, ...], op: str) -> IntSet:
    """{x + y} over ascending xs and ys, refused by name when its extremes,
    xs[0] + ys[0] and xs[-1] + ys[-1], leave the element range."""
    if max(-(xs[0] + ys[0]), xs[-1] + ys[-1]) > MAX_ABS_ELEMENT:
        raise ValueError(f"{op} has an element past the bound |e| <= 2**60")
    return IntSet({x + y for x in xs for y in ys})


def sumset(a: IntSet, b: IntSet) -> IntSet:
    """A + B = {x + y : x in A, y in B}."""
    return _pair_sums(a.elements, b.elements, "sumset")


def difference_set(a: IntSet, b: IntSet) -> IntSet:
    """A - B = {x - y : x in A, y in B}."""
    return _pair_sums(a.elements, tuple(-e for e in reversed(b.elements)), "difference_set")


def doubling(a: IntSet) -> int:
    """|2A| = |A + A|."""
    return kernel.doubling_size(a.elements)


def is_normal(a: IntSet) -> bool:
    """Normal form: min 0 and gcd of the elements 1 ({0} counts)."""
    if a.min != 0:
        return False
    return len(a) == 1 or math.gcd(*a.elements) == 1


def normal_tuple(elems: tuple[int, ...]) -> tuple[tuple[int, ...], int, int]:
    """(normal form, shift, scale) of a sorted tuple of distinct ints, with
    elems = scale * normal form + shift."""
    shift = elems[0]
    shifted = [e - shift for e in elems]
    scale = math.gcd(*shifted) or 1
    if scale > 1:
        shifted = [e // scale for e in shifted]
    return tuple(shifted), shift, scale


def normalize(a: IntSet) -> tuple[IntSet, int, int]:
    """Return (normal form, shift, scale) with A = scale * result + shift.

    The normal form has min 0 and element gcd 1; it is the canonical
    representative of A under translation and dilation.
    """
    elems, shift, scale = normal_tuple(a.elements)
    return IntSet(elems), shift, scale


def require_normal(a: IntSet, op: str) -> None:
    if not is_normal(a):
        raise ValueError(f"{op} requires a normal-form set (min 0, gcd 1), got {a.to_text()}")


def require_min_zero(a: IntSet, op: str) -> None:
    if a.min != 0:
        raise ValueError(f"{op} requires min(A) = 0, got {a.to_text()}")


def reflexion(a: IntSet) -> IntSet:
    """Mirror image -A + max(A); requires min(A) = 0.

    An involution that preserves min 0, the gcd, the doubling and the
    additive dimension.
    """
    require_min_zero(a, "reflexion")
    return IntSet(a.max - e for e in a.elements)


def concat(a: IntSet, b: IntSet) -> IntSet:
    """Gluing A ∘ B = A ∪ (max(A) + B); both sets need min 0.

    Shares exactly the point max(A), so |A ∘ B| = |A| + |B| - 1 and the hull
    lengths add up minus one.
    """
    require_min_zero(a, "concat")
    require_min_zero(b, "concat")
    return IntSet(a.elements + tuple(a.max + e for e in b.elements))


def holes(a: IntSet) -> tuple[int, ...]:
    """Integers in the hull [min, max] that are missing from A."""
    present = set(a.elements)
    return tuple(x for x in range(a.min, a.max + 1) if x not in present)


def is_progression(a: IntSet, d: int) -> bool:
    """Arithmetic progression with common difference d.

    Singletons count as progressions for every d >= 1.
    """
    if d < 1:
        raise ValueError("common difference must be >= 1")
    elems = a.elements
    return all(y - x == d for x, y in zip(elems, elems[1:]))
