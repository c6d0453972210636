"""Kernel selection: the compiled extension when it can be imported, the
pure-Python twin otherwise (with a warning)."""

from __future__ import annotations

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
    # and chain_children), so such input goes to the pure twin, which bounds
    # only the span of those three, at 2**24 (MAX_MASK_SPAN).
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


def sweep_slice(k, m, t_max):
    return _call("sweep_slice", k, m, t_max)


# every set has the extension 2 max A, so a mask of -1 lists every set; ts is
# read once, before either twin sees it
def collect_slice(k, m, ts):
    census = census_slice(k, m, dict.fromkeys(ts, -1))
    return {t: listed for t, (_, _, listed) in census.items()}


def census_slice(k, m, listing):
    return _call("census_slice", k, m, listing)

