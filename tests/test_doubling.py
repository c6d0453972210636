"""The (c, b) parametrization of doubling values and the max-volume table.

Every doubling T of a k-set falls in exactly one interval indexed by c, with
offset b; mu(k, T) is the conjectured largest max element among
one-dimensional normal sets at that doubling.
"""

import pytest

from sumsetchains.doubling import (
    DoublingProfile,
    doubling_from_profile,
    mu,
    profile,
    t_range,
)


def test_t_range_small():
    assert t_range(3) == (5, 5)
    assert t_range(4) == (7, 8)
    assert t_range(5) == (9, 12)
    assert t_range(6) == (11, 17)


def test_t_range_endpoints():
    for k in range(3, 13):
        lo, hi = t_range(k)
        assert lo == 2 * k - 1
        assert hi == k * (k - 1) // 2 + 2


def test_profile_examples():
    assert profile(5, 12) == DoublingProfile(k=5, t=12, c=3, b=1, mu=8)
    assert profile(4, 7) == DoublingProfile(k=4, t=7, c=2, b=0, mu=3)


def test_mu_examples():
    assert mu(6, 14) == 8
    assert mu(6, 13) == 7
    assert mu(7, 19) == 14


def test_profile_round_trip_exhaustive():
    for k in range(3, 13):
        lo, hi = t_range(k)
        for t in range(lo, hi + 1):
            p = profile(k, t)
            assert p.k == k and p.t == t
            assert doubling_from_profile(k, p.c, p.b) == t
            assert p.mu == mu(k, t)


def test_parameter_windows():
    # c = 2 carries b = 0; every other c allows 1 <= b <= k - c - 1
    for k in range(4, 13):
        lo, hi = t_range(k)
        for t in range(lo, hi + 1):
            p = profile(k, t)
            assert 2 <= p.c <= k - 2
            if (p.c, p.b) != (2, 0):
                assert 1 <= p.b <= k - p.c - 1


def test_mu_strictly_increasing_in_t():
    for k in range(3, 13):
        lo, hi = t_range(k)
        values = [mu(k, t) for t in range(lo, hi + 1)]
        assert all(x < y for x, y in zip(values, values[1:]))


def test_mu_doubling_recurrence():
    for k in range(3, 13):
        lo, hi = t_range(k)
        for t in range(lo, hi + 1):
            assert mu(k + 1, t + k) == 2 * mu(k, t)


def test_mu_boundary_values():
    for k in range(3, 13):
        lo, hi = t_range(k)
        # progressions: T = 2k - 1 and the witness is the segment
        assert mu(k, lo) == k - 1
        # top of the range doubles all the way down from a 3-set
        assert mu(k, hi) == 2 ** (k - 2)


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        mu(5, 8)
    with pytest.raises(ValueError):
        mu(5, 13)
    with pytest.raises(ValueError):
        profile(5, 99)
    with pytest.raises(ValueError):
        mu(2, 3)


def test_illegal_doubling_raises_on_every_call():
    # profile is cached per (k, t); errors are not cached, so they repeat
    for _ in range(3):
        with pytest.raises(ValueError):
            profile(5, 99)
        with pytest.raises(ValueError):
            mu(5, 8)
        with pytest.raises(ValueError):
            profile(2, 3)
    assert profile(5, 12) is profile(5, 12)


def test_k3_only_t5():
    assert mu(3, 5) == 2
    with pytest.raises(ValueError):
        mu(3, 6)
