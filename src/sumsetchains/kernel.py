"""Kernel selection: the compiled extension when it can be imported, the
pure-Python twin otherwise (with a warning)."""

from __future__ import annotations

import operator
import warnings

from . import _kernel_py as _py

try:
    from . import _kernel as _c  # type: ignore[attr-defined]
except ImportError:
    _c = None
    warnings.warn(
        "compiled kernel unavailable, using the pure-Python fallback "
        "(searches will be slower)",
        RuntimeWarning,
    )

BACKEND = "c" if _c is not None else "python"


def _call(name, *args):
    # The compiled kernel raises OverflowError past the limits it states
    # (element magnitude, rank size, slice maximum, and the span of 2**20
    # that its one mask reader checks for doubling_size, right_extensions
    # and chain_children); the pure twin takes any size, so such input goes
    # there. scan_slice checks k and m before it reads ts,
    # so a one-shot iterator reaches the pure twin whole.
    if _c is not None:
        try:
            return getattr(_c, name)(*args)
        except OverflowError:
            pass
    return getattr(_py, name)(*args)


# The five set primitives take a set as any iterable of ints; a one-shot iterator
# becomes a tuple first, or the compiled twin would use it up before an
# OverflowError sends it on to the pure twin. Both twins reject a non-set
# alike (see _kernel_py).
def doubling_size(elements):
    return _call("doubling_size", tuple(elements))


def lambda_rank(elements):
    return _call("lambda_rank", tuple(elements))


def is_one_dimensional(elements):
    return _call("is_one_dimensional", tuple(elements))


def right_extensions(elements):
    return _call("right_extensions", tuple(elements))


def chain_children(elements, t_max):
    return _call("chain_children", tuple(elements), t_max)


def scan_slice(k, m, ts, every):
    return _call("scan_slice", k, m, ts, every)


# no doubling of a k-set exceeds C(k + 1, 2), so the wanted range stops there
def sweep_slice(k, m, t_max):
    top = min(operator.index(t_max), k * (k + 1) // 2)
    return list(scan_slice(k, m, range(top + 1), False))


def collect_slice(k, m, ts):
    return scan_slice(k, m, ts, True)


def census_slice(k, m, listing):
    return _call("census_slice", k, m, listing)

