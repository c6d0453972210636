"""Chains: nested families of one-dimensional sets grown one element at a
time from a three-term progression, where every layer has the largest volume
in its cardinality-and-doubling class.

A set A with |A| = k is a chain when there are sets
A_3 ⊂ A_4 ⊂ ... ⊂ A_k = A such that A_3 is a three-term progression, each
A_i is one-dimensional with legal doubling, A_i agrees with A_{i-1} on the
hull of A_{i-1} (so the new element sits outside the hull, at the left or
right end), and A_i has the largest volume among all one-element out-of-hull
extensions of *any* chain that share A_i's cardinality and doubling. The
volume competition is global per (cardinality, doubling) class, not local to
one parent: a layer loses to a higher-volume candidate grown from a different
chain. Chain-ness is invariant under normalization and reflexion, so the
recognizer works on canonical forms, building one table of canonical chains
per cardinality and answering membership from it.
"""

from __future__ import annotations

from typing import NamedTuple

from . import kernel
from .dimension import is_one_dimensional, out_of_hull_pool
from .doubling import DoublingProfile, mu, profile, t_range
from .errors import CapacityError, FactorizationFailed
from .growth import Factorization, factorize, replay, shrinks_into_threshold
from .intset import IntSet, doubling, mirror_tuple, normal_tuple

CHAIN_ENUM_CAP = 10


def volume_1d(a: IntSet) -> int:
    """Hull length of the normal form, for one-dimensional sets only."""
    if not is_one_dimensional(a):
        raise ValueError(f"volume_1d requires a one-dimensional set, got {a.to_text()}")
    return normal_tuple(a.elements)[0][-1] + 1


def _canonical_tuple(elems: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical representative under translation/dilation/reflexion: the
    lexicographically larger of the normal form and its reflexion."""
    norm = normal_tuple(elems)[0]
    return max(mirror_tuple(norm), norm)


def canonical_form(a: IntSet) -> IntSet:
    return IntSet(_canonical_tuple(a.elements))


def is_chain_extension(prev: IntSet, nxt: IntSet) -> bool:
    """Does nxt extend prev by one admissible element?

    This is the pairwise admissibility test relative to prev alone: nxt must
    win the volume comparison against prev's other same-doubling extensions.
    Requires nxt = prev ∪ {y} with y outside the hull of prev and prev
    one-dimensional; prev itself being a chain is the caller's
    responsibility, and chain membership of nxt additionally requires winning
    against extensions of every other chain (see is_chain).
    """
    extra = set(nxt.elements) - set(prev.elements)
    if len(nxt) != len(prev) + 1 or len(extra) != 1:
        raise ValueError("nxt must be prev plus exactly one element")
    y = extra.pop()
    if prev.min <= y <= prev.max:
        raise ValueError(f"the new element {y} must lie outside the hull of prev")
    if not is_one_dimensional(prev):
        raise ValueError("prev must be one-dimensional")
    # as prev is one-dimensional, nxt is exactly when y is in the pool
    pool = dict(out_of_hull_pool(prev))
    t_next = pool.get(y)
    if t_next is None or t_next > t_range(len(nxt))[1]:
        return False
    vol_next = normal_tuple(nxt.elements)[0][-1] + 1
    rivals = (z for z, t in pool.items() if t == t_next)
    return all(normal_tuple(prev.adjoin(z).elements)[0][-1] + 1 <= vol_next for z in rivals)


# _LEVELS[k] maps each canonical k-element chain to its doubling; levels are
# deterministic, so the table is grown once and shared
_LEVELS: list[dict[tuple[int, ...], int]] = [{}, {}, {}, {(0, 1, 2): 5}]


def _chain_level(k: int) -> dict[tuple[int, ...], int]:
    while len(_LEVELS) <= k:
        i = len(_LEVELS)
        cap = t_range(i)[1]
        # per doubling t the largest maximum seen so far, floors[t], and the
        # children at it, in first-seen order; a larger maximum starts the
        # group afresh, and t keeps its first-seen place. A canonical form is
        # normal, so its volume is its maximum + 1. Floors only grow, so
        # chain_children skips only children this loop would drop
        floors = [0] * (cap + 1)
        groups: dict[int, dict[tuple[int, ...], int]] = {}
        for prev in _LEVELS[i - 1]:
            for canon, t in kernel.chain_children(prev, cap, floors):
                top = canon[-1]
                if top > floors[t]:
                    floors[t] = top
                    groups[t] = {}
                if top == floors[t]:
                    groups[t][canon] = t
        _LEVELS.append({canon: t for group in groups.values() for canon, t in group.items()})
    return _LEVELS[k]


class ChainCertificate(NamedTuple):
    """The nested witness sequence in the coordinates of the certified set,
    one doubling profile per layer, and the growth factorization (None when
    no factorization exists, which verify_main_theorem reports as a
    failure)."""

    sets: tuple[IntSet, ...]
    profiles: tuple[DoublingProfile, ...]
    factorization: Factorization | None
    volume: int

    @property
    def top(self) -> IntSet:
        return self.sets[-1]


def is_canonical_chain(canon: tuple[int, ...]) -> bool:
    """Is canon, a canonical form as _canonical_tuple and chain_children
    give it, a chain? One lookup in the chain table."""
    k = len(canon)
    if k < 3:
        raise ValueError("chains have at least 3 elements")
    if k > CHAIN_ENUM_CAP:
        raise CapacityError(f"chain recognition capped at k <= {CHAIN_ENUM_CAP}, got {k}")
    return canon in _chain_level(k)


def is_chain_member(a: IntSet) -> bool:
    """Is a a chain? is_canonical_chain of its canonical form; no certificate."""
    return is_canonical_chain(_canonical_tuple(a.elements))


def is_chain(a: IntSet) -> ChainCertificate | None:
    """Certificate with the full nested sequence if a is a chain, else None."""
    if not is_chain_member(a):
        return None
    k = len(a)
    cur = a.elements
    layers = [(a, _chain_level(k)[_canonical_tuple(cur)])]  # (layer, doubling)
    for i in range(k, 3, -1):
        lower = _chain_level(i - 1)
        for trial in (cur[:-1], cur[1:]):
            t = lower.get(_canonical_tuple(trial))
            if t is not None:
                cur = trial
                break
        else:  # pragma: no cover - chains are deletion-closed by construction
            return None
        layers.append((IntSet(cur), t))
    layers.reverse()
    try:
        fact = factorize(a)
    except FactorizationFailed:
        fact = None
    # a chain is one-dimensional by construction (see _chain_level), so its
    # volume needs no rank test
    return ChainCertificate(
        sets=tuple(s for s, _ in layers),
        profiles=tuple(profile(len(s), t) for s, t in layers),
        factorization=fact,
        volume=normal_tuple(a.elements)[0][-1] + 1,
    )


class EnumeratedChain(NamedTuple):
    set: IntSet
    profile: DoublingProfile
    volume: int


def enumerate_chains(k: int) -> list[EnumeratedChain]:
    """All chains with k elements up to normalization and reflexion, grown
    level by level from {0,1,2}, sorted by doubling then lexicographically;
    capped at CHAIN_ENUM_CAP elements."""
    if k < 3:
        raise ValueError("k must be >= 3")
    if k > CHAIN_ENUM_CAP:
        raise CapacityError(f"chain enumeration capped at k <= {CHAIN_ENUM_CAP}, got {k}")
    level = _chain_level(k)
    # a canonical form is normal, so its volume is its maximum + 1
    return [
        EnumeratedChain(set=IntSet(c), profile=profile(k, t), volume=c[-1] + 1)
        for c, t in sorted(level.items(), key=lambda item: (item[1], item[0]))
    ]


class TheoremReport(NamedTuple):
    """Outcome of the structure checks for one chain certificate."""

    ok: bool
    volume_ok: bool
    factorization_ok: bool
    replay_ok: bool
    volume: int
    expected_volume: int
    failures: tuple[str, ...]


def verify_main_theorem(cert: ChainCertificate) -> TheoremReport:
    """Check a chain's volume against mu and validate its factorization.

    The three checks: the chain volume equals mu(k, T) + 1; the
    factorization base sits in the |2B| <= 3|B| - 4 regime (or is one
    deletion away, when flagged); replaying the steps lands on a set
    Freiman-isomorphic to the chain.
    """
    a = cert.top
    k = len(a)
    t = doubling(a)
    failures: list[str] = []

    expected = mu(k, t) + 1
    volume_ok = cert.volume == expected
    if not volume_ok:
        failures.append(f"volume {cert.volume} != mu({k},{t})+1 = {expected}")

    fact = cert.factorization
    factorization_ok = replay_ok = False
    if fact is None:
        failures.append(f"no growth factorization found for {a.to_text()}")
    else:
        base = fact.base
        t_base = doubling(base)
        limit = 3 * len(base) - 4
        if fact.b_prime_case:
            factorization_ok = t_base > limit and shrinks_into_threshold(base)
            if not factorization_ok:
                failures.append(
                    f"flagged base {base.to_text()} is not one deletion away from "
                    f"the 3k-4 regime"
                )
        else:
            factorization_ok = t_base <= limit
            if not factorization_ok:
                failures.append(
                    f"base {base.to_text()} has |2B| = {t_base} > 3|B|-4 = {limit}"
                )

        try:
            z = replay(fact)
            # chains compare equal up to normalization and reflexion, which is
            # much cheaper than the general bijection search and equivalent
            # here because replay output and chain are both one-dimensional
            replay_ok = len(z) == k and _canonical_tuple(z.elements) == _canonical_tuple(
                a.elements
            )
            if not replay_ok:
                failures.append(f"replay {z.to_text()} is not isomorphic to {a.to_text()}")
        except ValueError as exc:
            failures.append(f"replay failed: {exc}")

    return TheoremReport(
        ok=volume_ok and factorization_ok and replay_ok,
        volume_ok=volume_ok,
        factorization_ok=factorization_ok,
        replay_ok=replay_ok,
        volume=cert.volume,
        expected_volume=expected,
        failures=tuple(failures),
    )
