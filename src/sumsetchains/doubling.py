"""The doubling parametrization T = ck - C(c+1,2) + b + 2 and the volume
bound mu(k, T) = 2^(c-2) * (k - c + b + 1).

Every legal doubling value T in [2k-1, C(k,2)+2] has a unique pair (c, b)
with 2 <= c <= k-2 and 1 <= b <= k-c-1, except the minimum T = 2k-1 which is
written (c, b) = (2, 0). mu(k, T) is the conjectured maximum of max(A) over
normal-form sets with |A| = k, |2A| = T and additive dimension 1.
"""

from __future__ import annotations

import functools
from typing import NamedTuple


def t_range(k: int) -> tuple[int, int]:
    """Legal doubling range [2k-1, k(k-1)/2 + 2] for k-element sets."""
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    return 2 * k - 1, k * (k - 1) // 2 + 2


class DoublingProfile(NamedTuple):
    k: int
    t: int
    c: int
    b: int
    mu: int

    def as_dict(self) -> dict:
        return {"k": self.k, "t": self.t, "c": self.c, "b": self.b, "mu": self.mu}


def doubling_from_profile(k: int, c: int, b: int) -> int:
    """Inverse of profile: the doubling value with parameters (c, b)."""
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    if (c, b) == (2, 0):
        return 2 * k - 1
    if not 2 <= c <= k - 2:
        raise ValueError(f"c must satisfy 2 <= c <= k-2 = {k - 2}, got {c}")
    if not 1 <= b <= k - c - 1:
        raise ValueError(f"b must satisfy 1 <= b <= k-c-1 = {k - c - 1}, got {b}")
    return c * k - (c + 1) * c // 2 + b + 2


@functools.cache
def profile(k: int, t: int) -> DoublingProfile:
    """Decompose a legal doubling value into its profile (c, b) and mu.
    Cached per (k, t); an illegal t raises on every call."""
    lo, hi = t_range(k)
    if not lo <= t <= hi:
        raise ValueError(f"doubling {t} out of range [{lo}, {hi}] for k = {k}")
    if t == lo:
        c, b = 2, 0
    else:
        # blocks of consecutive t share c; scan is O(k) and k is small
        for c in range(2, k - 1):
            base = c * k - (c + 1) * c // 2 + 2
            if base + 1 <= t <= base + (k - c - 1):
                b = t - base
                break
        else:  # pragma: no cover - the range check above makes this unreachable
            raise AssertionError(f"no (c, b) covers t = {t} for k = {k}")
    mu_val = (1 << (c - 2)) * (k - c + b + 1)
    return DoublingProfile(k=k, t=t, c=c, b=b, mu=mu_val)


def mu(k: int, t: int) -> int:
    """Conjectured maximum of max(A) for 1-dimensional (k, T) sets."""
    return profile(k, t).mu
